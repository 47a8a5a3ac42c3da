//! # og-sim: cycle-level out-of-order processor simulator
//!
//! A trace-driven timing model of the paper's Table 2 machine: a 4-wide
//! out-of-order superscalar with a 64-entry instruction window, 96
//! physical registers, 3 integer ALUs + 1 integer multiplier (plus the FP
//! units integer workloads leave idle), a combined gshare/bimodal branch
//! predictor, 64 KB split L1 caches and a 256 KB L2.
//!
//! The simulator consumes the committed-path stream produced by `og-vm`
//! **incrementally**: it implements `og_vm::TraceSink`, so
//! `Vm::run_streamed(&mut simulator)` fuses emulation and timing
//! simulation into a single pass — no materialized trace, O(1) trace
//! memory however long the run. [`Simulator::feed`] consumes one
//! committed instruction; [`Simulator::finish`] produces:
//!
//! * [`CycleStats`] — cycles, IPC, branch/cache behaviour (the *delay*
//!   part of the paper's energy-delay² metric), and
//! * [`ActivityCounts`] — per-structure access counts annotated, for
//!   every access, with the active byte lanes under each operand-gating
//!   scheme (none / software / hardware-significance / hardware-size /
//!   cooperative). The `og-power` energy model turns these into the
//!   paper's per-structure energy numbers.
//!
//! The simulator is two halves fed the same records:
//!
//! * the [`TimingModel`] reads each record's pc, next pc, op, registers,
//!   memory address and branch outcome. It yields the [`CycleStats`] and
//!   the bookkeeping accesses (rename, ROB, predictor, tag matches, cache
//!   lookups), which carry no gateable value.
//! * the [`ValueAccountant`] reads op, width, significances and which
//!   registers are present. It counts every value access by software
//!   width and significance and prices the counts into the activity at
//!   `finish`.
//!
//! Operand widths reach only the accountant, so programs that differ
//! only in widths and commit the same path share one timing-model run
//! ([`Simulator::into_parts`] hands out the halves unfinished); each
//! needs only its own accountant run.
//!
//! All per-instruction history is bounded by the machine's own window
//! sizes (ROB, issue queue, LSQ, physical registers), so the state
//! machine's footprint is independent of trace *length*: about a
//! megabyte of fixed structures (six 16,384-slot bandwidth rings of one
//! `u64` per slot, the predictor tables and cache tags, and the
//! accountant's 5 × 8 × 8 tally of value events) plus a store-forwarding
//! map that grows with the program's *data footprint* (one entry per
//! distinct 8-byte word stored — the same cost the slice-consuming
//! model always paid).
//! [`Simulator::run`] remains as a slice-consuming convenience over
//! `feed`/`finish` for traces captured with `og_vm::VecSink`.
//!
//! Being trace-driven, wrong-path activity is approximated as front-end
//! bubbles after a mispredicted branch (the standard trace-driven
//! simplification; it affects absolute energy slightly but not the
//! relative savings the paper reports).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
mod bpred;
mod cache;
mod config;
mod pipeline;

pub use activity::{
    round_size_class, ActivityCounts, SchemeBytes, StructActivity, Structure, ValueAccountant,
};
pub use bpred::BranchPredictor;
pub use cache::Cache;
pub use config::MachineConfig;
pub use pipeline::{CycleStats, SimResult, Simulator, TimingModel};
