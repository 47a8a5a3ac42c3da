//! Bench target regenerating the paper's Figure 8.
//!
//! Run with `cargo bench -p og-bench --bench fig8_energy_savings`.

fn main() {
    let study = og_lab::compute_study();
    println!("{}", og_lab::figures::fig8(&study));
}
