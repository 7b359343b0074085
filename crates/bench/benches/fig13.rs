//! The `fig13` figure target; the figure itself is
//! [`baryon_bench::figures::fig13`].

fn main() {
    baryon_bench::figures::fig13::FIGURE.main();
}
