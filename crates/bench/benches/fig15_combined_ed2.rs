//! Bench target regenerating the paper's Figure 15.
//!
//! Run with `cargo bench -p og-bench --bench fig15_combined_ed2`.

fn main() {
    let study = og_lab::compute_study();
    println!("{}", og_lab::figures::fig15(&study));
}
