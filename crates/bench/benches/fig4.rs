//! The `fig4` figure target; the figure itself is
//! [`baryon_bench::figures::fig4`].

fn main() {
    baryon_bench::figures::fig4::main();
}
