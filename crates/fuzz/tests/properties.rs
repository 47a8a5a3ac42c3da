//! Generator and shrinker properties the campaign's soundness rests on:
//!
//! * same seed ⇒ byte-identical program (and identical step bound);
//! * every generated program halts within its own step bound — the
//!   termination certificate is checked with *exactly* that budget, no
//!   slack, across a spread of shapes;
//! * shrinking is deterministic and respects its budget;
//! * shrinking a failing case never grows it and the reproducer fails
//!   in the *same oracle class* as the original — a shrink that drifts
//!   into a different failure mode would pin the wrong bug.

use og_fuzz::{case_gen_config, shrink};
use og_program::generate::{generate_program, generate_with_bound, GenConfig};
use og_vm::{HaltReason, RunConfig, Vm};

#[test]
fn same_seed_same_program_and_bound() {
    for index in 0..40 {
        let cfg = case_gen_config(7, index);
        let (a, bound_a) = generate_with_bound(&cfg);
        let (b, bound_b) = generate_with_bound(&cfg);
        assert_eq!(a, b, "index {index}");
        assert_eq!(bound_a, bound_b, "index {index}");
        assert_eq!(a, generate_program(&cfg), "index {index}");
    }
}

#[test]
fn every_generated_program_halts_within_its_step_bound() {
    for index in 0..300u64 {
        let cfg = case_gen_config(0xF00D, index);
        let (p, bound) = generate_with_bound(&cfg);
        let mut vm = Vm::new(&p, RunConfig { max_steps: bound, ..Default::default() });
        let outcome = vm.run().unwrap_or_else(|e| panic!("seed {}: {e} (bound {bound})", cfg.seed));
        assert_eq!(outcome.reason, HaltReason::Halt, "seed {}", cfg.seed);
        assert!(outcome.steps <= bound);
        assert!(!vm.output().is_empty(), "seed {}: no observable output", cfg.seed);
    }
}

#[test]
fn extreme_configs_terminate_too() {
    // Deep nesting, long fuel, no memory/calls, single region — corners
    // the sweep in `case_gen_config` reaches rarely.
    let corners = [
        GenConfig { seed: 1, regions: 12, max_loop_depth: 3, fuel: 64, ..Default::default() },
        GenConfig { seed: 2, regions: 1, max_straight: 1, ..Default::default() },
        GenConfig { seed: 3, memory: false, calls: false, non_affine: false, ..Default::default() },
        GenConfig { seed: 4, fuel: 1, non_affine: true, ..Default::default() },
    ];
    for cfg in corners {
        let (p, bound) = generate_with_bound(&cfg);
        let mut vm = Vm::new(&p, RunConfig { max_steps: bound, ..Default::default() });
        vm.run().unwrap_or_else(|e| panic!("seed {}: {e} (bound {bound})", cfg.seed));
    }
}

#[test]
fn shrinking_keeps_the_oracle_class_and_never_grows() {
    use og_core::oracle::check_program;
    // Starve the oracle of fuel so every case fails deterministically in
    // the `base-run` class; shrink against "still fails with exactly the
    // original signature" — the same predicate the campaign uses.
    let max_steps = 3;
    let mut shrunk_any = false;
    for index in [0u64, 4, 11, 23] {
        let cfg = case_gen_config(0x5_11_12, index);
        let p = generate_program(&cfg);
        let original = match check_program(&p, max_steps) {
            Err(e) => e.signature(),
            Ok(_) => panic!("seed {}: expected failure under 3 steps of fuel", cfg.seed),
        };
        let mut same_class = |c: &og_program::Program| -> bool {
            matches!(check_program(c, max_steps), Err(e) if e.signature() == original)
        };
        let a = shrink::shrink(&p, &mut same_class, 400);
        let b = shrink::shrink(&p, &mut same_class, 400);
        assert_eq!(a, b, "seed {}: shrink must be deterministic", cfg.seed);
        assert!(a.inst_count() <= p.inst_count(), "seed {}: shrink grew the case", cfg.seed);
        assert!(a.verify().is_ok(), "seed {}: reproducer must stay well-formed", cfg.seed);
        let shrunk_sig = match check_program(&a, max_steps) {
            Err(e) => e.signature(),
            Ok(_) => panic!("seed {}: reproducer no longer fails", cfg.seed),
        };
        assert_eq!(shrunk_sig, original, "seed {}: oracle class drifted", cfg.seed);
        shrunk_any |= a.inst_count() < p.inst_count();
    }
    assert!(shrunk_any, "shrinking never removed a single instruction across all seeds");
}

#[test]
fn shrinker_is_deterministic_on_a_semantic_predicate() {
    // Shrink against "the program writes at least 4 output bytes" — a
    // predicate that, unlike instruction-presence, depends on execution.
    let mut writes_output = |p: &og_program::Program| -> bool {
        let mut vm = Vm::new(p, RunConfig { max_steps: 1_000_000, ..Default::default() });
        vm.run().map(|_| vm.output().len() >= 4).unwrap_or(false)
    };
    for index in [0u64, 9, 17] {
        let cfg = case_gen_config(0xCAFE, index);
        let p = generate_program(&cfg);
        if !writes_output(&p) {
            continue;
        }
        let a = shrink::shrink(&p, &mut writes_output, 600);
        let b = shrink::shrink(&p, &mut writes_output, 600);
        assert_eq!(a, b, "seed {}: shrink must be deterministic", cfg.seed);
        assert!(writes_output(&a));
        assert!(a.inst_count() <= p.inst_count());
        assert!(a.verify().is_ok());
    }
}
