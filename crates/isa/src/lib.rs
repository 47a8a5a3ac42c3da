//! # OGA-64: a width-annotated Alpha-like instruction set
//!
//! This crate defines the instruction set architecture used throughout the
//! operand-gating reproduction of Canal, González & Smith,
//! *Software-Controlled Operand-Gating* (CGO 2004).
//!
//! The paper enhances the 64-bit Alpha ISA with opcodes that specify operand
//! widths of 8, 16, 32 and 64 bits so that a compiler or binary translator
//! can communicate value-range information to the microarchitecture, which
//! then gates off the unneeded byte lanes of the data path. OGA-64 keeps the
//! Alpha features the paper's analyses rely on:
//!
//! * a hardwired zero register ([`Reg::ZERO`], Alpha's `R31`),
//! * byte-manipulation instructions ([`Op::Zapnot`], [`Op::Ext`],
//!   [`Op::Msk`]) whose semantics seed the "useful" range analysis,
//! * compare instructions producing 0/1 plus branch-on-register-vs-zero
//!   control flow (`CMPxx` + `Bxx`),
//! * byte/halfword/word/quadword memory operations.
//!
//! Every computational instruction carries a [`Width`]; executing an
//! instruction at width *w* truncates its result to *w* bits and
//! sign-extends it into the 64-bit register (narrow values are kept in two's
//! complement, §2.4 of the paper).
//!
//! Which width variants actually exist as opcodes is described by an
//! [`IsaExtension`] level: [`IsaExtension::Base`] models the stock Alpha
//! opcode set, [`IsaExtension::PaperAlphaExt`] adds exactly the opcodes the
//! paper's §4.3 proposes, and [`IsaExtension::Full`] provides every width
//! for every operation.
//!
//! ## Example
//!
//! ```
//! use og_isa::{Inst, Op, Reg, Width, Operand};
//!
//! // add.b t0, t1, 5   — an 8-bit addition with an immediate operand
//! let i = Inst::alu(Op::Add, Width::B, Reg::T0, Reg::T1, Operand::Imm(5));
//! assert_eq!(i.width, Width::B);
//! assert_eq!(i.def(), Some(Reg::T0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod inst;
mod json;
mod op;
mod reg;
mod width;
mod widthset;

pub use inst::{Inst, MemRef, Operand, Target, TargetShape, Uses};
pub use op::{CmpKind, Cond, FuKind, Op, OpClass};
pub use reg::Reg;
pub use width::Width;
pub use widthset::{IsaExtension, WidthSet};
