//! Bench target regenerating the paper's Figure 6.
//!
//! Run with `cargo bench -p og-bench --bench fig6_runtime_specialized`.

fn main() {
    let study = og_lab::compute_study();
    println!("{}", og_lab::figures::fig6(&study));
}
