//! # og-bench
//!
//! This crate only exists to host the benchmark harnesses in `benches/`:
//! one target per table and figure of the paper's evaluation (each prints
//! the corresponding rows/series; target names follow the paper's table
//! and figure numbers) plus Criterion micro-benchmarks of the tooling
//! itself.
//!
//! Run everything with `cargo bench -p og-bench`, or a single artifact
//! with e.g. `cargo bench -p og-bench --bench fig8_energy_savings`.

#![forbid(unsafe_code)]
