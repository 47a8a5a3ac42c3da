//! Bench target regenerating the paper's Figure 14.
//!
//! Run with `cargo bench -p og-bench --bench fig14_hw_structure`.

fn main() {
    let study = og_lab::compute_study();
    println!("{}", og_lab::figures::fig14(&study));
}
