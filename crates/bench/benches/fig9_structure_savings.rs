//! Bench target regenerating the paper's Figure 9.
//!
//! Run with `cargo bench -p og-bench --bench fig9_structure_savings`.

fn main() {
    let study = og_lab::compute_study();
    println!("{}", og_lab::figures::fig9(&study));
}
