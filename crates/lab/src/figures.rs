//! Text renderings of every table and figure of the paper's evaluation.
//!
//! Each function returns the rows/series the corresponding paper artifact
//! reports, as a fixed-width text table (with ASCII bars where the paper
//! uses bar charts). The bench targets in `og-bench` print these.

use crate::{avg_sig_fracs, avg_width_fracs, combined_scheme, table3_rows, Mech, Study};
use og_core::AluEnergyTable;
use og_power::{EnergyModel, GatingScheme};
use og_sim::Structure;
use std::borrow::Cow;
use std::fmt::Write;

/// A figure column: display label (borrowed for fixed mechanisms) plus
/// the mechanism it prices.
type LabeledMech = (Cow<'static, str>, Mech);

fn bar(frac: f64, scale: f64) -> String {
    let n = (frac.max(0.0) * scale).round() as usize;
    "#".repeat(n.min(60))
}

fn pct(v: f64) -> String {
    format!("{:6.2}%", v * 100.0)
}

/// Every table and figure of the evaluation in the paper's order, each
/// followed by a blank line — the text `exp_all` prints.
pub fn all(study: &Study) -> String {
    let sections = [
        table1(),
        table3(study),
        fig2(study),
        fig3(study),
        fig4(study),
        fig5(study),
        fig6(study),
        fig7(study),
        fig8(study),
        fig9(study),
        fig10(study),
        fig11(study),
        fig12(study),
        fig13(study),
        fig14(study),
        fig15(study),
        ablation_useful(study),
    ];
    sections.iter().map(|section| format!("{section}\n")).collect()
}

/// The VRS cost sweep of Figures 8–11.
pub const VRS_SWEEP: [Mech; 5] =
    [Mech::Vrs(110), Mech::Vrs(90), Mech::Vrs(70), Mech::Vrs(50), Mech::Vrs(30)];

/// Table 1: energy savings for ALU operations (nJ) by source/destination
/// width.
pub fn table1() -> String {
    let t = AluEnergyTable::default();
    let m = t.table1_matrix();
    let mut s = String::new();
    let _ = writeln!(s, "Table 1: Energy savings for ALU operations (nJoules)");
    let _ = writeln!(s, "{:>12} | {:>5} {:>5} {:>5} {:>5}", "src→ dst↓", "64", "32", "16", "8");
    let _ = writeln!(s, "-------------+------------------------");
    for (i, label) in ["64", "32", "16", "8"].iter().enumerate() {
        let _ = write!(s, "{label:>12} |");
        for (j, cell) in m[i].iter().enumerate() {
            if i == j {
                let _ = write!(s, " {:>5}", "-");
            } else {
                let _ = write!(s, " {cell:>5.0}");
            }
        }
        s.push('\n');
    }
    s
}

/// Table 3: dynamic distribution of operation types and their widths
/// after VRP.
pub fn table3(study: &Study) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 3: Distribution of operation types (dynamic, after VRP)");
    let _ = writeln!(
        s,
        "{:>8} {:>10} | {:>7} {:>7} {:>7} {:>7}",
        "type", "% of run", "64b", "32b", "16b", "8b"
    );
    let _ = writeln!(s, "--------------------+--------------------------------");
    for (class, share, dist) in table3_rows(study) {
        let _ = writeln!(
            s,
            "{:>8} {:>9.2}% | {:>6.2}% {:>6.2}% {:>6.2}% {:>6.2}%",
            class.name(),
            share,
            dist[3],
            dist[2],
            dist[1],
            dist[0],
        );
    }
    s
}

/// Figure 2: dynamic instruction width distribution — conventional VRP vs
/// the proposed (useful) VRP.
pub fn fig2(study: &Study) -> String {
    let conv = avg_width_fracs(study, Mech::ConvVrp);
    let prop = avg_width_fracs(study, Mech::Vrp);
    let mut s = String::new();
    let _ = writeln!(s, "Figure 2: dynamic instruction distribution by width (SpecInt avg)");
    let _ = writeln!(s, "{:>8} | {:>14} | {:>14}", "width", "Conventional", "Proposed");
    let _ = writeln!(s, "---------+----------------+---------------");
    for (i, label) in ["8 bits", "16 bits", "32 bits", "64 bits"].iter().enumerate() {
        let _ = writeln!(
            s,
            "{:>8} | {:>7} {:<6} | {:>7} {:<6}",
            label,
            pct(conv[i]),
            bar(conv[i], 20.0),
            pct(prop[i]),
            bar(prop[i], 20.0)
        );
    }
    let _ = writeln!(
        s,
        "(64-bit share falls from {} to {} — paper: 51% → 42%)",
        pct(conv[3]),
        pct(prop[3])
    );
    s
}

fn structure_table(study: &Study, mechs: &[(Cow<'static, str>, Mech, GatingScheme)]) -> String {
    let model = EnergyModel::new();
    let mut s = String::new();
    let _ = write!(s, "{:>18} |", "structure");
    for (label, _, _) in mechs {
        let _ = write!(s, " {label:>16}");
    }
    s.push('\n');
    let _ = writeln!(s, "{}", "-".repeat(20 + 17 * mechs.len()));
    let mut rows: Vec<Structure> = Structure::ALL.to_vec();
    rows.sort_by_key(|s| s.index());
    for st in rows {
        let _ = write!(s, "{:>18} |", st.name());
        for (_, mech, scheme) in mechs {
            let v = study.structure_savings(&model, *mech, *scheme, st);
            let _ = write!(s, " {:>16}", pct(v));
        }
        s.push('\n');
    }
    // whole-processor row
    let benches = study.benches();
    let _ = write!(s, "{:>18} |", "Processor");
    for (_, mech, scheme) in mechs {
        let mut acc = 0.0;
        for bench in &benches {
            acc += study.energy_savings(&model, bench, *mech, *scheme);
        }
        let _ = write!(s, " {:>16}", pct(acc / benches.len().max(1) as f64));
    }
    s.push('\n');
    s
}

/// Figure 3: per-structure energy savings with VRP.
pub fn fig3(study: &Study) -> String {
    let mut s = String::from("Figure 3: energy savings with VRP (SpecInt avg)\n");
    s.push_str(&structure_table(study, &[("VRP".into(), Mech::Vrp, GatingScheme::Software)]));
    s
}

/// Figure 4: triage of the profiled points (VRS 50nJ).
pub fn fig4(study: &Study) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 4: distribution of the points profiled after specialization (VRS 50nJ)"
    );
    let _ = writeln!(
        s,
        "{:>10} {:>8} | {:>12} {:>11} {:>12}",
        "bench", "points", "no benefit", "dependent", "specialized"
    );
    let _ = writeln!(s, "--------------------+---------------------------------------");
    let mut tot = (0usize, 0usize, 0usize, 0usize);
    for bench in study.benches() {
        let run = study.get(bench, Mech::Vrs(50));
        let v = run.vrs.as_ref().expect("vrs run has summary");
        let (nb, dep, spec) = v.fates;
        let _ =
            writeln!(s, "{:>10} {:>8} | {:>12} {:>11} {:>12}", bench, v.profiled, nb, dep, spec);
        tot = (tot.0 + v.profiled, tot.1 + nb, tot.2 + dep, tot.3 + spec);
    }
    let _ = writeln!(s, "{:>10} {:>8} | {:>12} {:>11} {:>12}", "TOTAL", tot.0, tot.1, tot.2, tot.3);
    s
}

/// Figure 5: static instructions specialized vs eliminated (VRS 50nJ).
pub fn fig5(study: &Study) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 5: distribution of the specialized instructions at compile time (VRS 50nJ)"
    );
    let _ = writeln!(s, "{:>10} | {:>12} {:>12}", "bench", "specialized", "eliminated");
    let _ = writeln!(s, "-----------+---------------------------");
    for bench in study.benches() {
        let v = study.get(bench, Mech::Vrs(50)).vrs.as_ref().expect("vrs summary");
        let _ =
            writeln!(s, "{:>10} | {:>12} {:>12}", bench, v.static_specialized, v.static_eliminated);
    }
    s
}

/// Figure 6: run-time fraction of specialized instructions and guard
/// comparisons (VRS 50nJ).
pub fn fig6(study: &Study) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Figure 6: distribution of run-time instructions (VRS 50nJ)");
    let _ = writeln!(s, "{:>10} | {:>13} {:>13}", "bench", "specialized", "guard tests");
    let _ = writeln!(s, "-----------+----------------------------");
    let benches = study.benches();
    let (mut avg_s, mut avg_g) = (0.0, 0.0);
    for bench in &benches {
        let v = study.get(bench, Mech::Vrs(50)).vrs.as_ref().expect("vrs summary");
        let _ = writeln!(
            s,
            "{:>10} | {:>13} {:>13}",
            bench,
            pct(v.runtime_specialized_frac),
            pct(v.runtime_guard_frac)
        );
        avg_s += v.runtime_specialized_frac;
        avg_g += v.runtime_guard_frac;
    }
    let n = benches.len().max(1) as f64;
    let _ = writeln!(s, "{:>10} | {:>13} {:>13}", "AVG", pct(avg_s / n), pct(avg_g / n));
    s
}

/// Figure 7: width distribution by mechanism (none / VRP / VRS 50nJ).
pub fn fig7(study: &Study) -> String {
    let none = avg_width_fracs(study, Mech::Baseline);
    let vrp = avg_width_fracs(study, Mech::Vrp);
    let vrs = avg_width_fracs(study, Mech::Vrs(50));
    let mut s = String::new();
    let _ = writeln!(s, "Figure 7: run-time instructions according to width (SpecInt avg)");
    let _ = writeln!(s, "{:>8} | {:>9} | {:>9} | {:>9}", "width", "none", "VRP", "VRS 50nJ");
    let _ = writeln!(s, "---------+-----------+-----------+----------");
    for (i, label) in ["8 bits", "16 bits", "32 bits", "64 bits"].iter().enumerate() {
        let _ = writeln!(
            s,
            "{:>8} | {:>9} | {:>9} | {:>9}",
            label,
            pct(none[i]),
            pct(vrp[i]),
            pct(vrs[i])
        );
    }
    s
}

fn per_bench_metric(
    study: &Study,
    title: &str,
    mechs: &[LabeledMech],
    f: impl Fn(&Study, &str, Mech) -> f64,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let _ = write!(s, "{:>10} |", "bench");
    for (label, _) in mechs {
        let _ = write!(s, " {label:>16}");
    }
    s.push('\n');
    let _ = writeln!(s, "{}", "-".repeat(12 + 17 * mechs.len()));
    let benches = study.benches();
    let mut sums = vec![0.0; mechs.len()];
    for bench in &benches {
        let _ = write!(s, "{bench:>10} |");
        for (i, (_, mech)) in mechs.iter().enumerate() {
            let v = f(study, bench, *mech);
            sums[i] += v;
            let _ = write!(s, " {:>16}", pct(v));
        }
        s.push('\n');
    }
    let _ = write!(s, "{:>10} |", "AVG");
    for sum in sums {
        let _ = write!(s, " {:>16}", pct(sum / benches.len().max(1) as f64));
    }
    s.push('\n');
    s
}

fn sw_mechs() -> Vec<LabeledMech> {
    let mut v: Vec<LabeledMech> = vec![(Mech::Vrp.label(), Mech::Vrp)];
    v.extend(VRS_SWEEP.iter().map(|m| (m.label(), *m)));
    v
}

/// Figure 8: energy savings per benchmark (VRP + the VRS cost sweep).
pub fn fig8(study: &Study) -> String {
    let model = EnergyModel::new();
    per_bench_metric(study, "Figure 8: energy savings for Spec95", &sw_mechs(), move |st, b, m| {
        st.energy_savings(&model, b, m, GatingScheme::Software)
    })
}

/// Figure 9: per-structure energy benefits for VRP and the VRS sweep.
pub fn fig9(study: &Study) -> String {
    let mut mechs = vec![(Mech::Vrp.label(), Mech::Vrp, GatingScheme::Software)];
    mechs.extend(VRS_SWEEP.iter().map(|m| (m.label(), *m, GatingScheme::Software)));
    let mut s = String::from(
        "Figure 9: energy benefits for the different parts of the processor (SpecInt avg)\n",
    );
    s.push_str(&structure_table(study, &mechs));
    s
}

/// Figure 10: execution time savings for the VRS sweep.
pub fn fig10(study: &Study) -> String {
    let mechs: Vec<LabeledMech> = VRS_SWEEP.iter().map(|m| (m.label(), *m)).collect();
    per_bench_metric(study, "Figure 10: execution time savings", &mechs, |st, b, m| {
        st.time_savings(b, m)
    })
}

/// Figure 11: energy-delay² benefits for VRP and the VRS sweep.
pub fn fig11(study: &Study) -> String {
    let model = EnergyModel::new();
    per_bench_metric(
        study,
        "Figure 11: Energy-Delay^2 benefits for the Spec95",
        &sw_mechs(),
        move |st, b, m| st.ed2_savings(&model, b, m, GatingScheme::Software),
    )
}

/// Figure 12: data size distribution (significant bytes of dynamic
/// values).
pub fn fig12(study: &Study) -> String {
    let f = avg_sig_fracs(study);
    let mut s = String::new();
    let _ = writeln!(s, "Figure 12: data size distribution for the SpecInt (dynamic values)");
    let _ = writeln!(s, "{:>6} | {:>8} |", "bytes", "percent");
    let _ = writeln!(s, "-------+----------+------------------------------");
    for (i, v) in f.iter().enumerate() {
        let _ = writeln!(s, "{:>6} | {:>8} | {}", i + 1, pct(*v), bar(*v, 60.0));
    }
    s
}

/// Figure 13: energy savings of the two hardware approaches.
pub fn fig13(study: &Study) -> String {
    let model = EnergyModel::new();
    let mechs: Vec<LabeledMech> =
        vec![("size compr.".into(), Mech::Baseline), ("signif. compr.".into(), Mech::Baseline)];
    let mut s = String::new();
    let _ = writeln!(s, "Figure 13: energy savings for the hardware approaches");
    let _ = write!(s, "{:>10} |", "bench");
    for (label, _) in &mechs {
        let _ = write!(s, " {label:>16}");
    }
    s.push('\n');
    let _ = writeln!(s, "{}", "-".repeat(12 + 17 * mechs.len()));
    let benches = study.benches();
    let (mut sum_sz, mut sum_sig) = (0.0, 0.0);
    for bench in &benches {
        let sz = study.energy_savings(&model, bench, Mech::Baseline, GatingScheme::HwSize);
        let sg = study.energy_savings(&model, bench, Mech::Baseline, GatingScheme::HwSignificance);
        sum_sz += sz;
        sum_sig += sg;
        let _ = writeln!(s, "{:>10} | {:>16} {:>16}", bench, pct(sz), pct(sg));
    }
    let n = benches.len().max(1) as f64;
    let _ = writeln!(s, "{:>10} | {:>16} {:>16}", "AVG", pct(sum_sz / n), pct(sum_sig / n));
    s
}

/// Figure 14: per-structure savings of the hardware approaches.
pub fn fig14(study: &Study) -> String {
    let mut s =
        String::from("Figure 14: energy savings for each processor part (hardware schemes)\n");
    s.push_str(&structure_table(
        study,
        &[
            ("size compr.".into(), Mech::Baseline, GatingScheme::HwSize),
            ("signif. compr.".into(), Mech::Baseline, GatingScheme::HwSignificance),
        ],
    ));
    s
}

/// Figure 15: ED² savings of software, hardware and combined
/// configurations.
pub fn fig15(study: &Study) -> String {
    let model = EnergyModel::new();
    let configs: Vec<(Cow<'static, str>, Mech, GatingScheme)> = vec![
        ("VRP".into(), Mech::Vrp, GatingScheme::Software),
        ("VRS 50".into(), Mech::Vrs(50), GatingScheme::Software),
        ("hdw size".into(), Mech::Baseline, GatingScheme::HwSize),
        ("hdw signif.".into(), Mech::Baseline, GatingScheme::HwSignificance),
        ("VRP+size".into(), Mech::Vrp, combined_scheme(GatingScheme::HwSize)),
        ("VRP+signif.".into(), Mech::Vrp, GatingScheme::HwSignificance),
        ("VRS50+size".into(), Mech::Vrs(50), combined_scheme(GatingScheme::HwSize)),
        ("VRS50+signif.".into(), Mech::Vrs(50), GatingScheme::HwSignificance),
    ];
    let mut s = String::new();
    let _ =
        writeln!(s, "Figure 15: Energy-Delay^2 savings for hardware and software configurations");
    let _ = write!(s, "{:>10} |", "bench");
    for (label, _, _) in &configs {
        let _ = write!(s, " {label:>14}");
    }
    s.push('\n');
    let _ = writeln!(s, "{}", "-".repeat(12 + 15 * configs.len()));
    let benches = study.benches();
    let mut sums = vec![0.0; configs.len()];
    for bench in &benches {
        let _ = write!(s, "{bench:>10} |");
        for (i, (_, mech, scheme)) in configs.iter().enumerate() {
            let v = study.ed2_savings(&model, bench, *mech, *scheme);
            sums[i] += v;
            let _ = write!(s, " {:>14}", pct(v));
        }
        s.push('\n');
    }
    let _ = write!(s, "{:>10} |", "AVG");
    for sum in &sums {
        let _ = write!(s, " {:>14}", pct(sum / benches.len().max(1) as f64));
    }
    s.push('\n');
    s
}

/// Ablation: the three useful-propagation policies.
pub fn ablation_useful(study: &Study) -> String {
    let model = EnergyModel::new();
    let mechs: Vec<LabeledMech> = vec![
        ("conventional".into(), Mech::ConvVrp),
        ("paper".into(), Mech::Vrp),
        ("aggressive".into(), Mech::VrpAggressive),
    ];
    per_bench_metric(
        study,
        "Ablation: useful-width policy (energy savings, software scheme)",
        &mechs,
        move |st, b, m| st.energy_savings(&model, b, m, GatingScheme::Software),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_renders_paper_values() {
        let t = table1();
        assert!(t.contains("Table 1"));
        assert!(t.contains("6"), "64→8 saving of 6 nJ present");
        // antisymmetric corner: -6 also present
        assert!(t.contains("-6"));
    }
}
