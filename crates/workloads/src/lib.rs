//! # og-workloads: the SpecInt95-analogue benchmark suite
//!
//! The paper evaluates on SpecInt95 (compress, gcc, go, ijpeg, li,
//! m88ksim, perl, vortex) compiled for Alpha. SPEC sources cannot be
//! shipped, so this crate provides eight synthetic kernels with the same
//! *characteristic data-width behaviour* as their namesakes — the property
//! the paper's results actually depend on (the narrow-value distribution
//! of Figure 12 and the operation mix of Table 3):
//!
//! | kernel | behavioural signature |
//! |---|---|
//! | `compress` | run-length/hash compression over a byte stream |
//! | `gcc` | tokenizer + symbol hash table + switch-heavy "codegen" |
//! | `go` | 19×19 board scans, tiny-value arithmetic, dense branches |
//! | `ijpeg` | 8×8 integer DCT-style butterflies on 8-bit pixels |
//! | `li` | cons-cell list interpreter with recursive reductions |
//! | `m88ksim` | fetch/decode/execute loop of a toy 32-bit ISA |
//! | `perl` | word hashing and pattern scanning over text |
//! | `vortex` | hashed object store: insert / chained lookup / update |
//!
//! Every workload is deterministic (seeded by [`InputSet`]), terminates,
//! emits observable output (`out` instructions) so transformations are
//! differentially testable, and keeps an *identical data-segment layout*
//! between [`InputSet::Train`] and [`InputSet::Ref`] so that profile-
//! guided specialization trained on one input applies to the other —
//! exactly how the paper uses SPEC train/ref inputs.
//!
//! ```
//! use og_workloads::{compress, InputSet};
//! use og_vm::{Vm, RunConfig};
//!
//! let wl = compress(InputSet::Train);
//! let mut vm = Vm::new(&wl.program, RunConfig::default());
//! let outcome = vm.run().unwrap();
//! assert!(outcome.steps > 1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernels;

use og_program::rng::SplitMix64;
use og_program::Program;

pub use kernels::{compress, gcc, go, ijpeg, li, m88ksim, perl, vortex};

/// Which input set to build a workload with (paper §4.1: train inputs for
/// profiling, reference inputs for evaluation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputSet {
    /// The (smaller) training input used for VRS profiling.
    Train,
    /// The reference input used for evaluation.
    Ref,
}

impl InputSet {
    /// RNG seed for input generation (train and ref differ).
    pub fn seed(self, kernel: u64) -> u64 {
        match self {
            InputSet::Train => 0x5EED_0000 + kernel,
            InputSet::Ref => 0xBEEF_0000 + kernel,
        }
    }

    /// Problem-size scale factor (ref is larger). Ref runs roughly an
    /// order of magnitude more committed instructions than it used to —
    /// affordable since the measurement pipeline streams the trace in
    /// O(1) memory — so profile-guided effects are measured on a run
    /// long enough to amortize the guards.
    pub fn scale(self) -> usize {
        match self {
            InputSet::Train => 1,
            InputSet::Ref => 30,
        }
    }
}

/// A built workload: a complete program with its input data baked into
/// the data segment.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name (matches the SpecInt95 namesake).
    pub name: &'static str,
    /// The runnable program.
    pub program: Program,
}

/// The benchmark names, in the paper's figure order.
pub const NAMES: [&str; 8] = ["compress", "gcc", "go", "ijpeg", "li", "m88ksim", "perl", "vortex"];

/// Build one workload by name, or `None` if `name` is not one of
/// [`NAMES`]. The non-panicking lookup for callers handling untrusted
/// bench names (a service request, a cache file from a newer version).
pub fn try_by_name(name: &str, input: InputSet) -> Option<Workload> {
    Some(match name {
        "compress" => compress(input),
        "gcc" => gcc(input),
        "go" => go(input),
        "ijpeg" => ijpeg(input),
        "li" => li(input),
        "m88ksim" => m88ksim(input),
        "perl" => perl(input),
        "vortex" => vortex(input),
        _ => return None,
    })
}

/// Build one workload by name.
///
/// # Panics
///
/// Panics if `name` is not one of [`NAMES`].
pub fn by_name(name: &str, input: InputSet) -> Workload {
    try_by_name(name, input).unwrap_or_else(|| panic!("unknown workload `{name}`"))
}

/// Build the whole suite.
pub fn all(input: InputSet) -> Vec<Workload> {
    NAMES.iter().map(|n| by_name(n, input)).collect()
}

/// Generate `len` bytes with compressible structure: runs of a repeated
/// byte with geometric-ish lengths (shared by several kernels).
pub(crate) fn run_structured_bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let b = (rng.below(64) + 32) as u8; // printable-ish range
        let run = 1 + rng.below(8) as usize;
        out.resize(len.min(out.len() + run), b);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_vm::{RunConfig, Vm};

    #[test]
    fn whole_suite_builds_and_runs() {
        for input in [InputSet::Train, InputSet::Ref] {
            for wl in all(input) {
                wl.program.verify().unwrap_or_else(|e| panic!("{}: {e}", wl.name));
                let mut vm = Vm::new(&wl.program, RunConfig::default());
                let outcome = vm.run().unwrap_or_else(|e| panic!("{} ({input:?}): {e}", wl.name));
                assert!(
                    outcome.steps > 3_000,
                    "{} ({input:?}) too small: {} steps",
                    wl.name,
                    outcome.steps
                );
                assert!(
                    outcome.steps < 30_000_000,
                    "{} ({input:?}) too big: {} steps",
                    wl.name,
                    outcome.steps
                );
                assert!(!vm.output().is_empty(), "{} must produce output", wl.name);
            }
        }
    }

    #[test]
    fn deterministic_per_input() {
        for name in NAMES {
            let run = |input| {
                let wl = by_name(name, input);
                let mut vm = Vm::new(&wl.program, RunConfig::default());
                vm.run().unwrap().output_digest
            };
            assert_eq!(run(InputSet::Train), run(InputSet::Train), "{name}");
            assert_ne!(
                run(InputSet::Train),
                run(InputSet::Ref),
                "{name}: train and ref must differ"
            );
        }
    }

    #[test]
    fn train_and_ref_share_code_shape() {
        // VRS requirement: instruction locations must be identical.
        for name in NAMES {
            let t = by_name(name, InputSet::Train).program;
            let r = by_name(name, InputSet::Ref).program;
            assert_eq!(t.funcs.len(), r.funcs.len(), "{name}");
            for (ft, fr) in t.funcs.iter().zip(&r.funcs) {
                assert_eq!(ft.blocks.len(), fr.blocks.len(), "{name}/{}", ft.name);
                for (bt, br) in ft.blocks.iter().zip(&fr.blocks) {
                    assert_eq!(bt.insts.len(), br.insts.len(), "{name}/{}/{}", ft.name, bt.label);
                }
            }
            // and data symbols must have identical addresses
            for item in t.data.items() {
                assert_eq!(
                    Some(item.addr),
                    r.data.address_of(&item.name),
                    "{name}: layout of `{}` differs",
                    item.name
                );
            }
        }
    }

    #[test]
    fn ref_is_bigger_than_train() {
        for name in NAMES {
            let steps = |input| {
                let wl = by_name(name, input);
                let mut vm = Vm::new(&wl.program, RunConfig::default());
                vm.run().unwrap().steps
            };
            assert!(steps(InputSet::Ref) > steps(InputSet::Train), "{name}: ref must run longer");
        }
    }

    #[test]
    fn run_structured_bytes_has_runs() {
        let mut rng = SplitMix64::new(1);
        let bytes = run_structured_bytes(&mut rng, 1000);
        assert_eq!(bytes.len(), 1000);
        let repeats = bytes.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(repeats > 200, "expected compressible runs, got {repeats}");
    }
}
