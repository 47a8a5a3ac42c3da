//! Bench target regenerating the paper's Table 3.
//!
//! Run with `cargo bench -p og-bench --bench table3_op_distribution`.

fn main() {
    let study = og_lab::compute_study();
    println!("{}", og_lab::figures::table3(&study));
}
