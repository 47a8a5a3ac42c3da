//! Bench target regenerating the paper's Figure 2.
//!
//! Run with `cargo bench -p og-bench --bench fig2_vrp_width_hist`.

fn main() {
    let study = og_lab::compute_study();
    println!("{}", og_lab::figures::fig2(&study));
}
