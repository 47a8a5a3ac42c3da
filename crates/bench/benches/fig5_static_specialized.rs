//! Bench target regenerating the paper's Figure 5.
//!
//! Run with `cargo bench -p og-bench --bench fig5_static_specialized`.

fn main() {
    let study = og_lab::compute_study();
    println!("{}", og_lab::figures::fig5(&study));
}
