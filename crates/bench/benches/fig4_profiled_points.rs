//! Bench target regenerating the paper's Figure 4.
//!
//! Run with `cargo bench -p og-bench --bench fig4_profiled_points`.

fn main() {
    let study = og_lab::compute_study();
    println!("{}", og_lab::figures::fig4(&study));
}
