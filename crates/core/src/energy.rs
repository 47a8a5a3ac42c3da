//! Per-instruction energy tables used by the VRS cost/benefit heuristics.
//!
//! §3.1: *"These instruction-type dependent energy savings have been
//! empirically defined for each instruction type and operand-width through
//! the observation of its energy requirements."* The default table is
//! calibrated so that the ALU row reproduces the paper's Table 1 savings
//! matrix exactly:
//!
//! | src → dst | 64→32 | 64→16 | 64→8 | 32→16 | 32→8 | 16→8 |
//! |---|---|---|---|---|---|---|
//! | saving (nJ) | 1 | 3 | 6 | 2 | 5 | 3 |
//!
//! i.e. `E(8) = 4`, `E(16) = 7`, `E(32) = 9`, `E(64) = 10` nJ for plain
//! ALU operations, with per-class scale factors for multiplies, memory
//! operations and control flow.

use og_isa::{OpClass, Width};

/// Energy per executed instruction, by operation class and operand width.
#[derive(Debug, Clone, PartialEq)]
pub struct AluEnergyTable {
    /// `nj[class.index()][width index]` — energy in nanojoules.
    nj: [[f64; 4]; 13],
}

/// The width profile whose deltas reproduce Table 1 (in nJ).
const ALU_PROFILE: [f64; 4] = [4.0, 7.0, 9.0, 10.0];

fn widx(w: Width) -> usize {
    match w {
        Width::B => 0,
        Width::H => 1,
        Width::W => 2,
        Width::D => 3,
    }
}

impl Default for AluEnergyTable {
    fn default() -> Self {
        let mut nj = [[0.0; 4]; 13];
        for class in OpClass::ALL {
            let scale = match class {
                OpClass::Mul => 3.0,
                OpClass::Load | OpClass::Store => 1.8,
                OpClass::Ctrl => 0.8,
                _ => 1.0,
            };
            for (i, &e) in ALU_PROFILE.iter().enumerate() {
                nj[class.index()][i] = e * scale;
            }
        }
        AluEnergyTable { nj }
    }
}

impl AluEnergyTable {
    /// Energy (nJ) of one execution of a `class` instruction at width `w`.
    pub fn energy(&self, class: OpClass, w: Width) -> f64 {
        self.nj[class.index()][widx(w)]
    }

    /// Energy saved per execution when a `class` instruction narrows
    /// `from → to` (negative when widening) — the paper's `InstSaving`
    /// building block.
    pub fn saving(&self, class: OpClass, from: Width, to: Width) -> f64 {
        self.energy(class, from) - self.energy(class, to)
    }

    /// The Table 1 matrix for ALU operations: `matrix[dst][src]` in the
    /// paper's row/column order (64, 32, 16, 8).
    pub fn table1_matrix(&self) -> [[f64; 4]; 4] {
        let order = [Width::D, Width::W, Width::H, Width::B];
        let mut m = [[0.0; 4]; 4];
        for (i, &dst) in order.iter().enumerate() {
            for (j, &src) in order.iter().enumerate() {
                m[i][j] = self.saving(OpClass::Add, src, dst);
            }
        }
        m
    }
}

/// Energy costs of the §3.2 guard instructions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardCosts {
    /// `CostBranch` (nJ per executed branch).
    pub branch: f64,
    /// `CostComparison` (nJ per executed comparison).
    pub comparison: f64,
    /// `CostAdd` (nJ per executed ALU op in the test, e.g. the AND).
    pub add: f64,
}

impl Default for GuardCosts {
    fn default() -> Self {
        // 64-bit instruction energies from the default table.
        GuardCosts { branch: 8.0, comparison: 10.0, add: 10.0 }
    }
}

impl GuardCosts {
    /// Per-execution energy of a range test for `[min, max]` (§3.2):
    /// * `min == max == 0`: one branch tests zero directly;
    /// * `min == max`: one comparison + branch;
    /// * general: two comparisons, an AND, and a branch.
    pub fn test_cost(&self, min: i64, max: i64) -> f64 {
        if min == max && min == 0 {
            self.branch
        } else if min == max {
            self.comparison + self.branch
        } else {
            2.0 * self.comparison + self.add + self.branch
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matrix_matches_paper() {
        let t = AluEnergyTable::default();
        let m = t.table1_matrix();
        // Paper Table 1, rows dst = 64,32,16,8 / columns src = 64,32,16,8:
        let expected = [
            [0.0, -1.0, -3.0, -6.0],
            [1.0, 0.0, -2.0, -5.0],
            [3.0, 2.0, 0.0, -3.0],
            [6.0, 5.0, 3.0, 0.0],
        ];
        for i in 0..4 {
            for j in 0..4 {
                assert!((m[i][j] - expected[i][j]).abs() < 1e-9, "cell {i},{j}");
            }
        }
    }

    #[test]
    fn savings_antisymmetric() {
        let t = AluEnergyTable::default();
        for &a in &Width::ALL {
            for &b in &Width::ALL {
                let s = t.saving(OpClass::And, a, b);
                let r = t.saving(OpClass::And, b, a);
                assert!((s + r).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn class_scaling() {
        let t = AluEnergyTable::default();
        assert!(t.energy(OpClass::Mul, Width::D) > t.energy(OpClass::Add, Width::D));
        assert!(t.energy(OpClass::Load, Width::B) > t.energy(OpClass::Add, Width::B));
    }

    #[test]
    fn guard_cost_tiers() {
        let g = GuardCosts::default();
        assert!(g.test_cost(0, 0) < g.test_cost(5, 5));
        assert!(g.test_cost(5, 5) < g.test_cost(0, 10));
        assert!((g.test_cost(0, 10) - (2.0 * g.comparison + g.add + g.branch)).abs() < 1e-12);
    }
}
