//! Bench target regenerating the paper's useful-policy ablation.
//!
//! Run with `cargo bench -p og-bench --bench ablation_useful_policy`.

fn main() {
    let study = og_lab::compute_study();
    println!("{}", og_lab::figures::ablation_useful(&study));
}
