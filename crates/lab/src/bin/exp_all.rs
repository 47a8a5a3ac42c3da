//! Regenerate every table and figure of the paper's evaluation in one go.
//!
//! ```text
//! cargo run -p og-lab --release --bin exp_all
//! ```
//!
//! Stdout is exactly the committed `crates/lab/tests/figures.txt`.

use og_lab::{compute_study, figures};

fn main() {
    let t0 = std::time::Instant::now();
    let study = compute_study();
    eprintln!("study ready in {:.1?}", t0.elapsed());
    print!("{}", figures::all(&study));
}
