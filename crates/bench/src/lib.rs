//! # og-bench
//!
//! This crate only exists to host two benchmark harnesses in
//! `benches/`:
//!
//! * `micro_throughput` measures the VM engines, the simulator and its
//!   value accountant against the reference engine and writes
//!   `BENCH_vm.json`, whose engine and simulator ratios the `bench_gate`
//!   example gates;
//! * `fault_campaign` classifies seeded soft errors, writes
//!   `BENCH_fault.json` and gates the taxonomy itself.
//!
//! Both exit nonzero if they cannot write their report. The paper's
//! tables and figures come from og-lab's `exp_all` binary, which
//! computes the study once and prints them all.
//!
//! Run everything with `cargo bench -p og-bench`, or one target with
//! e.g. `cargo bench -p og-bench --bench fault_campaign`.

#![forbid(unsafe_code)]
