//! Regenerate every table and figure of the paper's evaluation in one go.
//!
//! ```text
//! cargo run -p og-lab --release --bin exp_all
//! ```

use og_lab::{figures, shared_study};

fn main() {
    let t0 = std::time::Instant::now();
    let study = shared_study();
    eprintln!("study ready in {:.1?}", t0.elapsed());
    print!("{}", figures::all(study));
}
