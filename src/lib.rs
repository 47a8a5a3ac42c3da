//! # operand-gating
//!
//! A from-scratch Rust reproduction of *Software-Controlled Operand-Gating*
//! (Ramon Canal, Antonio González, James E. Smith — CGO 2004).
//!
//! Operand gating improves processor energy efficiency by gating off the
//! sections of the data path that short-precision (narrow) operands do not
//! need. The paper controls the gating from *software*: a binary-level
//! value range analysis assigns each instruction the narrowest 8/16/32/64
//! bit opcode that preserves program semantics, optionally sharpened by
//! profile-guided value-range specialization.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`isa`] — the OGA-64 width-annotated Alpha-like instruction set;
//! * [`program`] — program representation: CFG, loops, def-use webs,
//!   assembler and builder (the role Alto plays in the paper);
//! * [`vm`] — the functional emulator with dynamic width statistics;
//! * [`core`] — the paper's contribution: Value Range Propagation (VRP)
//!   and Value Range Specialization (VRS), with VRS's Calder-style value
//!   profiling;
//! * [`sim`] — the 4-wide out-of-order cycle simulator (Table 2 machine);
//! * [`power`] — the Wattch-style width-aware energy model with software,
//!   hardware and cooperative gating schemes;
//! * [`workloads`] — the SpecInt95-analogue synthetic benchmark suite;
//! * [`lab`] — the experiment pipeline that regenerates every table and
//!   figure of the paper's evaluation;
//! * [`serve`] — the pipeline as a long-running service: verifier-gated
//!   program intake, digest-keyed artifact caching, pool execution, and
//!   an in-process load generator;
//! * [`fuzz`] — the differential fuzzing campaign engine: the
//!   [`fuzz::Campaign`] builder runs seeded random or coverage-guided
//!   corpus-evolving campaigns against the whole transform battery.
//!
//! ## Quickstart
//!
//! ```
//! use operand_gating::prelude::*;
//!
//! // Build a program, analyze it with VRP, and inspect assigned widths.
//! let wl = operand_gating::workloads::compress(InputSet::Train);
//! let mut program = wl.program;
//! let report = VrpPass::new(VrpConfig::default()).run(&mut program);
//! assert!(report.narrowed_instructions > 0);
//! ```

#![forbid(unsafe_code)]

pub use og_core as core;
pub use og_fuzz as fuzz;
pub use og_isa as isa;
pub use og_lab as lab;
pub use og_power as power;
pub use og_program as program;
pub use og_serve as serve;
pub use og_sim as sim;
pub use og_vm as vm;
pub use og_workloads as workloads;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use og_core::{UsefulPolicy, VrpConfig, VrpPass, VrsConfig, VrsPass};
    pub use og_fuzz::Campaign;
    pub use og_isa::{CmpKind, Cond, Inst, IsaExtension, Op, OpClass, Operand, Reg, Width};
    pub use og_power::{EnergyModel, GatingScheme};
    pub use og_program::{Function, Program, ProgramBuilder};
    pub use og_serve::{ServeConfig, Service};
    pub use og_sim::{MachineConfig, Simulator};
    pub use og_vm::{RunConfig, Vm};
    pub use og_workloads::InputSet;
}
