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
//! [`transform_all`] makes a copy of a program under each of several
//! [`Transform`]s from one analysis and one VRS profile; the study, the
//! one-program pipeline and the fuzz oracle all transform through it.
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
mod profile;
mod range;
mod transform;
mod useful;
mod vrp;
mod vrs;

pub use energy::AluEnergyTable;
pub use pass::{VrpConfig, VrpPass, VrpReport};
pub use range::ValueRange;
pub use transform::{transform_all, Applied, Transform};
pub use useful::UsefulPolicy;
pub use vrp::Assumptions;
pub use vrs::{CandidateFate, VrsConfig, VrsPass, VrsReport};
