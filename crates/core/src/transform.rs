//! The one transform path: [`transform_all`] makes every VRP and VRS copy
//! of a program from one value range analysis, which VRP's policies and
//! ISA levels only assign widths from (§2, §4.3), and one training-input
//! profile, which every VRS cost reselects from (§3).

use crate::analysis::ProgramArtifacts;
use crate::assign::assign_widths;
use crate::vrp::{solve, Assumptions};
use crate::{UsefulPolicy, VrpReport, VrsPass, VrsReport};
use og_isa::IsaExtension;
use og_program::Program;

/// One semantics-preserving transformation of a program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Transform {
    /// Value Range Propagation with a useful-width policy and ISA level.
    Vrp {
        /// The §2.2.5 useful-width policy.
        policy: UsefulPolicy,
        /// Which width-annotated opcodes exist (§4.3).
        isa: IsaExtension,
    },
    /// Value Range Specialization at a specialization cost.
    Vrs {
        /// Specialization cost knob in nJ (the paper's 30–110 sweep).
        cost_nj: f64,
    },
}

/// What [`transform_all`] applied to one copy.
#[derive(Debug)]
pub enum Applied {
    /// A VRP copy: how many instructions narrowed.
    Vrp(VrpReport),
    /// A VRS copy: the run's report.
    Vrs(VrsReport),
}

impl Transform {
    /// A compact label for failure reports (`vrp:paper:full`, `vrs:50`).
    pub fn label(&self) -> String {
        match self {
            Transform::Vrp { policy, isa } => {
                let p = match policy {
                    UsefulPolicy::Off => "off",
                    UsefulPolicy::Paper => "paper",
                    UsefulPolicy::Aggressive => "aggressive",
                };
                let i = match isa {
                    IsaExtension::Base => "base",
                    IsaExtension::PaperAlphaExt => "ext",
                    IsaExtension::Full => "full",
                };
                format!("vrp:{p}:{i}")
            }
            Transform::Vrs { cost_nj } => format!("vrs:{cost_nj}"),
        }
    }

    /// The battery the fuzz oracle ([`crate::oracle::check_program`])
    /// runs: every useful policy crossed with every ISA extension level,
    /// plus VRS at a cheap and an expensive specialization cost.
    pub fn battery() -> Vec<Transform> {
        let mut out = Vec::new();
        for policy in [UsefulPolicy::Off, UsefulPolicy::Paper, UsefulPolicy::Aggressive] {
            for isa in IsaExtension::ALL {
                out.push(Transform::Vrp { policy, isa });
            }
        }
        out.push(Transform::Vrs { cost_nj: 50.0 });
        out.push(Transform::Vrs { cost_nj: 10.0 });
        out
    }

    /// May this transform change the committed-instruction count? VRP
    /// only re-encodes widths (§4.4); VRS inserts guards and eliminates
    /// specialized instructions.
    pub fn may_change_steps(&self) -> bool {
        matches!(self, Transform::Vrs { .. })
    }
}

/// A copy of `program` under each of `transforms`, in order, with what
/// was applied to it: each equals a fresh [`crate::VrpPass::run`] or
/// [`VrsPass::run`] (profiling on `train`) on its own copy of `program`.
///
/// The copies share one analysis of `program`: VRP's range solve reads
/// neither the useful policy nor the ISA level. The VRS copies share one
/// profile on `train`, since profiling does not read the cost. Each copy,
/// and the analysis and profile, is made when the iterator first needs
/// it, so a caller can drop a copy before the next one exists. Only VRS
/// reads `train`: the same code as `program`, built with the training
/// input's data segment.
///
/// # Panics
///
/// A VRS copy panics if `train` has a different code shape than
/// `program` or if a training run fails.
pub fn transform_all<'a>(
    program: &'a Program,
    train: &'a Program,
    transforms: impl IntoIterator<Item = Transform> + 'a,
) -> impl Iterator<Item = (Program, Applied)> + 'a {
    let mut analysis = None;
    let mut profile = None;
    transforms.into_iter().map(move |transform| {
        let (art, sol) = analysis.get_or_insert_with(|| {
            let art = ProgramArtifacts::compute(program);
            let sol = solve(program, &art, &Assumptions::new());
            (art, sol)
        });
        let mut copy = program.clone();
        let applied = match transform {
            Transform::Vrp { policy, isa } => Applied::Vrp(VrpReport {
                narrowed_instructions: assign_widths(&mut copy, art, sol, policy, isa),
            }),
            Transform::Vrs { cost_nj } => {
                let profile = profile
                    .get_or_insert_with(|| VrsPass::default().profile(program, train, art, sol));
                Applied::Vrs(profile.specialize(&mut copy, cost_nj))
            }
        };
        (copy, applied)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            Transform::Vrp { policy: UsefulPolicy::Paper, isa: IsaExtension::Full }.label(),
            "vrp:paper:full"
        );
        assert_eq!(Transform::Vrs { cost_nj: 50.0 }.label(), "vrs:50");
    }
}
