//! Bench target regenerating the paper's Figure 7.
//!
//! Run with `cargo bench -p og-bench --bench fig7_width_by_mechanism`.

fn main() {
    let study = og_lab::compute_study();
    println!("{}", og_lab::figures::fig7(&study));
}
