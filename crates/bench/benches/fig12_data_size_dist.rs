//! Bench target regenerating the paper's Figure 12.
//!
//! Run with `cargo bench -p og-bench --bench fig12_data_size_dist`.

fn main() {
    let study = og_lab::compute_study();
    println!("{}", og_lab::figures::fig12(&study));
}
