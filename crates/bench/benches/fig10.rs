//! The `fig10` figure target; the figure itself is
//! [`baryon_bench::figures::fig10`].

fn main() {
    baryon_bench::figures::fig10::FIGURE.main();
}
