//! The `fig9` figure target; the figure itself is
//! [`baryon_bench::figures::fig9`].

fn main() {
    baryon_bench::figures::fig9::FIGURE.main();
}
