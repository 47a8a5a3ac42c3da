//! Regenerate every table and figure of the paper's evaluation in one go.
//!
//! ```text
//! cargo run -p og-lab --release --bin exp_all
//! ```
//!
//! Stdout is exactly the committed `crates/lab/tests/figures.txt`; stderr
//! gives the study's wall time and its work counts.

use og_lab::{compute_study_with_work, figures};

fn main() {
    let t0 = std::time::Instant::now();
    let (study, work, _) = compute_study_with_work();
    let counts: Vec<String> = work.rows().iter().map(|(name, n)| format!("{name} {n}")).collect();
    eprintln!("study ready in {:.1?}: {}", t0.elapsed(), counts.join(", "));
    print!("{}", figures::all(&study));
}
