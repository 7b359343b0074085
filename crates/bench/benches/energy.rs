//! The `energy` figure target; the figure itself is
//! [`baryon_bench::figures::energy`].

fn main() {
    baryon_bench::figures::energy::FIGURE.main();
}
