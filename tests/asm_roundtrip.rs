//! The textual assembly dialect round-trips every workload program.

use og_program::{parse_asm, program_to_asm};
use og_vm::{RunConfig, Vm};
use og_workloads::{all, InputSet};

#[test]
fn every_workload_roundtrips_through_asm() {
    for wl in all(InputSet::Train) {
        let text = program_to_asm(&wl.program);
        let reparsed =
            parse_asm(&text).unwrap_or_else(|e| panic!("{}: reparse failed: {e}", wl.name));
        assert_eq!(
            wl.program.inst_count(),
            reparsed.inst_count(),
            "{}: instruction count changed",
            wl.name
        );
        // Semantics preserved: identical output.
        let mut vm1 = Vm::new(&wl.program, RunConfig::default());
        let d1 = vm1.run().expect("original runs").output_digest;
        let mut vm2 = Vm::new(&reparsed, RunConfig::default());
        let d2 = vm2.run().expect("reparsed runs").output_digest;
        assert_eq!(d1, d2, "{}: output diverged after asm round-trip", wl.name);
    }
}
