//! The `fig11` figure target; the figure itself is
//! [`baryon_bench::figures::fig11`].

fn main() {
    baryon_bench::figures::fig11::FIGURE.main();
}
