//! # og-core: software-controlled operand gating
//!
//! The paper's primary contribution, implemented at binary level:
//!
//! * **Value Range Propagation** ([`VrpPass`], §2) — a conservative,
//!   interprocedural interval analysis with "useful" width demands,
//!   wrap-around-aware arithmetic transfers, branch-condition refinement,
//!   and affine loop trip counting; followed by minimal opcode width
//!   assignment against a configurable ISA extension level (§4.3).
//! * **Value Range Specialization** ([`VrsPass`], §3) — profile-guided
//!   cloning of code regions for a narrow value range, guarded by the
//!   paper's range tests, driven by an energy cost/benefit model
//!   (Table 1), with constant propagation and dead-code elimination in
//!   single-value specializations.
//!
//! Both passes preserve observational equivalence: the transformed
//! program's output stream is byte-identical to the original's. That
//! property is enforced by differential tests across this workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod assign;
mod energy;
mod loops;
pub mod oracle;
mod pass;
mod range;
mod useful;
mod vrp;
mod vrs;

pub use analysis::{
    rf_get, rf_set, rf_union, top_range_file, FuncArtifacts, ProgramArtifacts, RangeFile,
};
pub use assign::{assign_widths, class_width_table, width_histogram, WidthAssignment};
pub use energy::{AluEnergyTable, GuardCosts};
pub use loops::{recognize_affine, AffineIterator};
pub use pass::{VrpConfig, VrpPass, VrpReport};
pub use range::ValueRange;
pub use useful::{width_for_demand, UsefulPolicy, UsefulWidths};
pub use vrp::{
    initial_range_file, pure_out_range, refine_edge, solve, transfer_inst, Assumptions,
    DataflowLimits, FuncRanges, InstRanges, RangeSolution,
};
pub use vrs::{CandidateFate, VrsConfig, VrsPass, VrsProfile, VrsReport};
