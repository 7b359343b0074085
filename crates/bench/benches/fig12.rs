//! The `fig12` figure target; the figure itself is
//! [`baryon_bench::figures::fig12`].

fn main() {
    baryon_bench::figures::fig12::FIGURE.main();
}
