//! The public Value Range Propagation pass.

use crate::analysis::ProgramArtifacts;
use crate::assign::assign_widths;
use crate::useful::UsefulPolicy;
use crate::vrp::{solve, Assumptions, RangeSolution};
use og_isa::IsaExtension;
use og_program::Program;

/// Configuration of a [`VrpPass`].
#[derive(Debug, Clone, Default)]
pub struct VrpConfig {
    /// How far "useful" demands propagate (§2.2.5). `Off` gives the
    /// conventional VRP of Figure 2; `Paper` is the proposed technique.
    pub useful_policy: UsefulPolicy,
    /// Which width-annotated opcodes exist (§4.3).
    pub isa: IsaExtension,
    /// Range assumptions injected at block entries (used by VRS).
    pub assumptions: Assumptions,
}

/// Summary of a VRP run.
#[derive(Debug, Clone)]
pub struct VrpReport {
    /// Number of instructions whose width strictly decreased.
    pub narrowed_instructions: usize,
}

/// Value Range Propagation: analyze a program and re-encode every
/// instruction with the narrowest sufficient opcode width.
///
/// The pass never adds, removes or reorders instructions — §4.4: "The VRP
/// mechanism does not affect the performance of the benchmarks because it
/// just re-encodes the instructions with narrower opcodes."
///
/// ```
/// use og_core::{VrpPass, VrpConfig};
/// use og_program::{ProgramBuilder, imm};
/// use og_isa::{Reg, Width};
///
/// let mut pb = ProgramBuilder::new();
/// let mut f = pb.function("main", 0);
/// f.block("entry");
/// f.ldi(Reg::T0, 1);
/// f.add(Width::D, Reg::T0, Reg::T0, imm(1));
/// f.out(Width::B, Reg::T0);
/// f.halt();
/// pb.finish(f);
/// let mut program = pb.build().unwrap();
///
/// let report = VrpPass::new(VrpConfig::default()).run(&mut program);
/// assert_eq!(report.narrowed_instructions, 1); // the add becomes add.b
/// ```
#[derive(Debug, Clone, Default)]
pub struct VrpPass {
    config: VrpConfig,
}

impl VrpPass {
    /// Create a pass with the given configuration.
    pub fn new(config: VrpConfig) -> VrpPass {
        VrpPass { config }
    }

    /// Analyze without mutating: returns the range solution only.
    pub fn analyze(&self, p: &Program) -> RangeSolution {
        let art = ProgramArtifacts::compute(p);
        solve(p, &art, &self.config.assumptions)
    }

    /// Run the full pass: analyze and re-encode widths in place.
    pub fn run(&self, p: &mut Program) -> VrpReport {
        let art = ProgramArtifacts::compute(p);
        let solution = solve(p, &art, &self.config.assumptions);
        let narrowed_instructions =
            assign_widths(p, &art, &solution, self.config.useful_policy, self.config.isa);
        VrpReport { narrowed_instructions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_isa::{Reg, Width};
    use og_program::{generate, imm, ProgramBuilder};
    use og_vm::{RunConfig, Vm};

    /// The repository's central property: VRP-transformed programs are
    /// observationally equivalent to their originals.
    fn assert_equivalent(p: &Program, config: VrpConfig) {
        let mut base_vm = Vm::new(p, RunConfig::default());
        let base = base_vm.run().expect("baseline runs");
        let mut transformed = p.clone();
        let report = VrpPass::new(config).run(&mut transformed);
        transformed.verify().expect("still well-formed");
        let mut t_vm = Vm::new(&transformed, RunConfig::default());
        let got = t_vm.run().expect("transformed runs");
        assert_eq!(
            base_vm.output(),
            t_vm.output(),
            "output diverged ({} narrowed)",
            report.narrowed_instructions
        );
        assert_eq!(base.steps, got.steps, "VRP must not change the path");
    }

    #[test]
    fn equivalence_on_handwritten_kernel() {
        let mut pb = ProgramBuilder::new();
        pb.data_quads("tbl", &[100, -3, 77, 12_345, -60_000]);
        let mut f = pb.function("main", 0);
        f.block("entry");
        f.la(Reg::T1, "tbl");
        f.ldi(Reg::T0, 0);
        f.ldi(Reg::T4, 0);
        f.block("loop");
        f.ld(Width::D, Reg::T2, Reg::T1, 0);
        f.add(Width::D, Reg::T0, Reg::T0, Reg::T2);
        f.and(Width::D, Reg::T3, Reg::T2, imm(0xFF));
        f.out(Width::B, Reg::T3);
        f.add(Width::D, Reg::T1, Reg::T1, imm(8));
        f.add(Width::D, Reg::T4, Reg::T4, imm(1));
        f.cmp(og_isa::CmpKind::Lt, Width::D, Reg::T5, Reg::T4, imm(5));
        f.bne(Reg::T5, "loop");
        f.block("exit");
        f.out(Width::W, Reg::T0);
        f.halt();
        pb.finish(f);
        let p = pb.build().unwrap();
        for policy in [UsefulPolicy::Off, UsefulPolicy::Paper, UsefulPolicy::Aggressive] {
            assert_equivalent(&p, VrpConfig { useful_policy: policy, ..Default::default() });
        }
    }

    #[test]
    fn equivalence_on_generated_programs() {
        for seed in 0..25u64 {
            let p = generate::generate_program(&generate::GenConfig { seed, ..Default::default() });
            for policy in [UsefulPolicy::Paper, UsefulPolicy::Aggressive] {
                assert_equivalent(
                    &p,
                    VrpConfig {
                        useful_policy: policy,
                        isa: og_isa::IsaExtension::Full,
                        ..Default::default()
                    },
                );
            }
        }
    }

    #[test]
    fn useful_policy_narrows_at_least_as_much_as_off() {
        for seed in [3u64, 7, 11] {
            let p = generate::generate_program(&generate::GenConfig { seed, ..Default::default() });
            let mut p_off = p.clone();
            let off =
                VrpPass::new(VrpConfig { useful_policy: UsefulPolicy::Off, ..Default::default() })
                    .run(&mut p_off);
            let mut p_paper = p.clone();
            let paper = VrpPass::new(VrpConfig {
                useful_policy: UsefulPolicy::Paper,
                ..Default::default()
            })
            .run(&mut p_paper);
            assert!(
                paper.narrowed_instructions >= off.narrowed_instructions,
                "seed {seed}: useful must not hurt"
            );
        }
    }
}
