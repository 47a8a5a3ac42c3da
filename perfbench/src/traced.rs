//! `--trace 1`: every workload replayed layer by layer.
//!
//! Each workload first runs once untraced on fixed inputs, then the same
//! inputs are replayed with a span around each call into a layer's public
//! functions. The replay's outputs must equal the untraced run's bit for
//! bit (every mismatch counts as a failed operation); the difference in
//! wall time is reported as `<workload>.trace_overhead_frac`, and the
//! share of replay time outside any layer span as
//! `<workload>.unattributed_frac`. All four workloads run in every traced
//! invocation, so each prints every per-layer metric.

use crate::{fault, scratch_dir, serve, study, trace, Outcome};

pub fn run(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let traces = vec![
        study::traced(&mut out),
        serve::traced_hot(seed, &mut out),
        serve::traced_cold(seed, &mut out),
        fault::traced(seed, &mut out),
    ];
    match trace::write(&scratch_dir(), seed, &traces) {
        Ok(path) => out.note(format!("spans written to {}", path.display())),
        Err(e) => eprintln!("perfbench: could not write spans: {e}"),
    }
    out
}
