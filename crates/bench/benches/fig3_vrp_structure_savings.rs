//! Bench target regenerating the paper's Figure 3.
//!
//! Run with `cargo bench -p og-bench --bench fig3_vrp_structure_savings`.

fn main() {
    let study = og_lab::compute_study();
    println!("{}", og_lab::figures::fig3(&study));
}
