//! # og-bench
//!
//! This crate only exists to host the benchmark harnesses in `benches/`:
//! one target per table and figure of the paper's evaluation (each prints
//! the corresponding rows/series; target names follow the paper's table
//! and figure numbers; the 16 that read the full study compute it), plus
//! two that write a report and exit nonzero if they cannot:
//! `micro_throughput` measures the VM engines and the simulator against
//! the frozen reference engine (`BENCH_vm.json`, which the `bench_gate`
//! example gates), and `fault_campaign` classifies seeded soft errors
//! (`BENCH_fault.json`) and gates the taxonomy itself.
//!
//! Run everything with `cargo bench -p og-bench`, or a single artifact
//! with e.g. `cargo bench -p og-bench --bench fig8_energy_savings`.

#![forbid(unsafe_code)]
