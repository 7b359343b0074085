//! The `extra` figure target; the figure itself is
//! [`baryon_bench::figures::extra`].

fn main() {
    baryon_bench::figures::extra::FIGURE.main();
}
