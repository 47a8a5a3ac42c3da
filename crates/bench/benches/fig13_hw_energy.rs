//! Bench target regenerating the paper's Figure 13.
//!
//! Run with `cargo bench -p og-bench --bench fig13_hw_energy`.

fn main() {
    let study = og_lab::compute_study();
    println!("{}", og_lab::figures::fig13(&study));
}
