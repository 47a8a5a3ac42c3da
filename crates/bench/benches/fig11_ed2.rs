//! Bench target regenerating the paper's Figure 11.
//!
//! Run with `cargo bench -p og-bench --bench fig11_ed2`.

fn main() {
    let study = og_lab::compute_study();
    println!("{}", og_lab::figures::fig11(&study));
}
