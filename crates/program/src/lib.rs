//! # og-program: binary-level program representation
//!
//! This crate plays the role that the Alto link-time optimizer plays in the
//! paper: it gives the operand-gating analyses a binary-level view of a
//! program — functions, basic blocks, a control-flow graph with dominators
//! and natural loops, reaching-definition/def-use webs that span basic
//! blocks, and a call graph with register write summaries for
//! interprocedural propagation.
//!
//! Programs are constructed three ways:
//!
//! * programmatically with [`ProgramBuilder`] (how the workload suite is
//!   written),
//! * by parsing the textual assembly dialect with [`parse_asm`],
//! * randomly, with [`generate::generate_program`], for property-based
//!   differential testing of the analyses.
//!
//! However constructed, programs are **verified** before anything runs
//! them: a multi-pass verifier ([`Program::verify_all`], module `verify`)
//! checks structure, operand shapes and control-flow targets in dependency
//! order, reports *every* defect at once, and establishes the invariant
//! that an accepted program can never produce a structural error in the
//! VM — the contract `og-vm` spends by lowering verified programs with
//! the per-step defensive checks removed. [`Program::verify`] is the
//! fail-fast form; both also hand back a [`ProgramContext`] of proven
//! facts (reachability, recursion freedom, bounded call depth) on the
//! collect-all path.
//!
//! [`Program::canonical_text`] is a program's identity where two copies
//! cannot simply be compared with `==`: the study service caches by its
//! [`digest128`], and the fuzzer dedups and names its cases by a hash of it.
//!
//! ```
//! use og_program::{ProgramBuilder, imm};
//! use og_isa::{Reg, Width};
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.function("main", 0);
//! f.block("entry");
//! f.ldi(Reg::T0, 41);
//! f.add(Width::D, Reg::T0, Reg::T0, imm(1));
//! f.out(Width::B, Reg::T0);
//! f.halt();
//! pb.finish(f);
//! let program = pb.build().unwrap();
//! assert_eq!(program.func(program.entry).blocks.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
mod bitset;
mod builder;
mod callgraph;
mod cfg;
mod data;
mod dataflow;
mod function;
pub mod generate;
mod identity;
mod ids;
mod json;
mod layout;
mod program;
pub mod rng;
mod verify;

pub use asm::{parse_asm, program_to_asm, AsmError};
pub use bitset::BitSet;
pub use builder::BuildError;
pub use builder::{imm, FunctionBuilder, ProgramBuilder};
pub use callgraph::{CallGraph, WriteSummaries};
pub use cfg::{Cfg, Dominators, Loop, LoopForest};
pub use data::{DataItem, DataSegment, GLOBAL_BASE, STACK_BASE};
pub use dataflow::{DefId, DefSite, DefUse, Liveness};
pub use function::{Block, Function};
pub use identity::{digest128, fnv1a};
pub use ids::{BlockId, BlockRef, FuncId, InstRef};
pub use layout::{Layout, INST_BYTES, TEXT_BASE};
pub use program::Program;
pub use verify::{ProgramContext, VerifyError};
