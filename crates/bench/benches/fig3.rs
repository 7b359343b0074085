//! The `fig3` figure target; the figure itself is
//! [`baryon_bench::figures::fig3`].

fn main() {
    baryon_bench::figures::fig3::FIGURE.main();
}
