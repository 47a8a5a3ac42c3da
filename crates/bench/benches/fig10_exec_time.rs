//! Bench target regenerating the paper's Figure 10.
//!
//! Run with `cargo bench -p og-bench --bench fig10_exec_time`.

fn main() {
    let study = og_lab::compute_study();
    println!("{}", og_lab::figures::fig10(&study));
}
