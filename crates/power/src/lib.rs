//! # og-power: width-aware energy modelling
//!
//! An architectural energy model in the style of Wattch (Brooks, Tiwari &
//! Martonosi, ISCA 2000) extended — as the paper extends it — "with
//! activity counts for all the blocks to allow proper data-specific power
//! modeling". Every access to a data-path structure costs a
//! width-independent overhead (decoders, tag match, wordline setup) plus
//! a per-active-byte term (bitlines, latches, ALU lanes); operand gating
//! saves the per-byte term of the gated-off lanes.
//!
//! The model prices five [`GatingScheme`]s from one simulation's
//! [`ActivityCounts`]:
//!
//! * [`GatingScheme::None`] — the baseline: all 8 byte lanes switch;
//! * [`GatingScheme::Software`] — the paper's proposal: lanes gated by
//!   the opcode width assigned by VRP/VRS;
//! * [`GatingScheme::HwSignificance`] — significance compression (§4.6):
//!   exact dynamic byte counts, 7 tag bits per value;
//! * [`GatingScheme::HwSize`] — size compression (§4.6): {1,2,5,8}-byte
//!   classes, 2 tag bits per value;
//! * [`GatingScheme::Cooperative`] — the §4.7 combined scheme: software
//!   opcode widths and hardware size tags together.
//!
//! Absolute joule values are calibrated to plausible 180 nm-class
//! figures, not to the authors' unpublished Wattch constants — the
//! evaluation reproduces *relative* savings, which is what the paper's
//! figures compare.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use og_json::{FromJson, Json, ToJson};
use og_sim::{ActivityCounts, SchemeBytes, StructActivity, Structure};

/// An operand-gating scheme to price activity under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GatingScheme {
    /// No gating: the baseline machine.
    None,
    /// Software-controlled gating via opcode widths (the paper's
    /// proposal).
    Software,
    /// Hardware significance compression (7 tag bits, exact bytes).
    HwSignificance,
    /// Hardware size compression (2 tag bits, {1,2,5,8} bytes).
    HwSize,
    /// Cooperative software + hardware gating (§4.7).
    Cooperative,
}

impl GatingScheme {
    /// All schemes.
    pub const ALL: [GatingScheme; 5] = [
        GatingScheme::None,
        GatingScheme::Software,
        GatingScheme::HwSignificance,
        GatingScheme::HwSize,
        GatingScheme::Cooperative,
    ];

    /// Tag bits stored/moved with every data value under this scheme.
    pub const fn tag_bits(self) -> u32 {
        match self {
            GatingScheme::None | GatingScheme::Software => 0,
            GatingScheme::HwSignificance => 7,
            GatingScheme::HwSize | GatingScheme::Cooperative => 2,
        }
    }

    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            GatingScheme::None => "baseline",
            GatingScheme::Software => "software",
            GatingScheme::HwSignificance => "hw-significance",
            GatingScheme::HwSize => "hw-size",
            GatingScheme::Cooperative => "cooperative",
        }
    }

    fn bytes_of(self, b: &SchemeBytes) -> u64 {
        match self {
            GatingScheme::None => b.none,
            GatingScheme::Software => b.software,
            GatingScheme::HwSignificance => b.hw_significance,
            GatingScheme::HwSize => b.hw_size,
            GatingScheme::Cooperative => b.cooperative,
        }
    }
}

/// Energy parameters of one structure: nJ per access plus nJ per active
/// byte lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StructEnergy {
    /// Width-independent energy per access.
    pub fixed_nj: f64,
    /// Energy per active byte lane.
    pub per_byte_nj: f64,
}

/// The energy model: per-structure parameters.
///
/// Defaults follow the shape of Wattch's Alpha-21264-class model: caches
/// and the issue queue dominate; data-path structures carry a per-byte
/// fraction calibrated so the software scheme's savings match the paper's
/// Figure 3 profile (FUs ≈ 18%, queue/regfile/buses ≈ 15%, LSQ and L1D
/// small).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    params: [StructEnergy; 12],
}

impl Default for EnergyModel {
    fn default() -> Self {
        let mut params = [StructEnergy { fixed_nj: 0.0, per_byte_nj: 0.0 }; 12];
        let set = |params: &mut [StructEnergy; 12], s: Structure, total: f64, byte_share: f64| {
            params[s.index()] = StructEnergy {
                fixed_nj: total * (1.0 - byte_share),
                per_byte_nj: total * byte_share / 8.0,
            };
        };
        set(&mut params, Structure::Rename, 0.6, 0.0);
        set(&mut params, Structure::BranchPred, 0.9, 0.0);
        set(&mut params, Structure::InstQueue, 1.8, 0.36);
        set(&mut params, Structure::Rob, 0.7, 0.0);
        set(&mut params, Structure::RenameBufs, 1.0, 0.36);
        set(&mut params, Structure::Lsq, 1.2, 0.12);
        set(&mut params, Structure::RegFile, 1.1, 0.33);
        set(&mut params, Structure::ICache, 1.2, 0.0);
        set(&mut params, Structure::DCacheL1, 2.0, 0.07);
        set(&mut params, Structure::DCacheL2, 4.0, 0.0);
        set(&mut params, Structure::Fu, 1.6, 0.43);
        set(&mut params, Structure::ResultBus, 0.8, 0.36);
        EnergyModel { params }
    }
}

/// Energy of a run, broken down by structure.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    per_struct: [f64; 12],
    /// Total energy in nJ.
    pub total_nj: f64,
}

impl EnergyReport {
    /// Energy of one structure (nJ).
    pub fn of(&self, s: Structure) -> f64 {
        self.per_struct[s.index()]
    }

    /// Fractional savings of `self` relative to `baseline`, per structure
    /// (positive = saved).
    pub fn savings_vs(&self, baseline: &EnergyReport, s: Structure) -> f64 {
        let b = baseline.of(s);
        if b == 0.0 {
            0.0
        } else {
            1.0 - self.of(s) / b
        }
    }

    /// Total fractional savings relative to `baseline`.
    pub fn total_savings_vs(&self, baseline: &EnergyReport) -> f64 {
        if baseline.total_nj == 0.0 {
            0.0
        } else {
            1.0 - self.total_nj / baseline.total_nj
        }
    }
}

impl EnergyModel {
    /// Model with default (calibrated) parameters.
    pub fn new() -> EnergyModel {
        EnergyModel::default()
    }

    /// The parameters of one structure.
    pub fn params(&self, s: Structure) -> StructEnergy {
        self.params[s.index()]
    }

    /// Energy (nJ) of one structure's activity under a scheme.
    pub fn structure_energy(&self, s: Structure, a: &StructActivity, scheme: GatingScheme) -> f64 {
        let p = self.params[s.index()];
        let bytes = if s.width_gateable() { scheme.bytes_of(&a.bytes) } else { a.bytes.none };
        // Tag bits ride along with every tagged value (§4.7: "two
        // significance compression tag bits follow values in the
        // pipeline").
        let tag_bytes = scheme.tag_bits() as f64 / 8.0 * a.value_accesses as f64;
        p.fixed_nj * a.accesses as f64 + p.per_byte_nj * (bytes as f64 + tag_bytes)
    }

    /// Price a whole run under a scheme.
    pub fn report(&self, activity: &ActivityCounts, scheme: GatingScheme) -> EnergyReport {
        let mut per_struct = [0.0; 12];
        let mut total = 0.0;
        for s in Structure::ALL {
            let e = self.structure_energy(s, activity.of(s), scheme);
            per_struct[s.index()] = e;
            total += e;
        }
        EnergyReport { per_struct, total_nj: total }
    }
}

/// The paper's figure of merit: energy × delay² (lower is better). The
/// improvement of configuration *x* over a baseline is
/// `1 − ed2(x)/ed2(baseline)`.
pub fn energy_delay_squared(energy_nj: f64, cycles: u64) -> f64 {
    energy_nj * (cycles as f64) * (cycles as f64)
}

/// Fractional ED² improvement of (energy, cycles) vs a baseline.
pub fn ed2_improvement(energy_nj: f64, cycles: u64, base_energy_nj: f64, base_cycles: u64) -> f64 {
    1.0 - energy_delay_squared(energy_nj, cycles)
        / energy_delay_squared(base_energy_nj, base_cycles)
}

/// Encoded as the scheme's [`GatingScheme::name`] string.
impl ToJson for GatingScheme {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

impl FromJson for GatingScheme {
    fn from_json(json: &Json) -> Result<GatingScheme, og_json::Error> {
        let name = String::from_json(json)?;
        GatingScheme::ALL
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| og_json::Error::new(format!("unknown gating scheme `{name}`")))
    }
}

impl ToJson for StructEnergy {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("fixed_nj".into(), self.fixed_nj.to_json()),
            ("per_byte_nj".into(), self.per_byte_nj.to_json()),
        ])
    }
}

impl FromJson for StructEnergy {
    fn from_json(json: &Json) -> Result<StructEnergy, og_json::Error> {
        Ok(StructEnergy {
            fixed_nj: json.field("fixed_nj")?,
            per_byte_nj: json.field("per_byte_nj")?,
        })
    }
}

/// Encoded as the bare 12-element parameter array in [`Structure::ALL`]
/// order.
impl ToJson for EnergyModel {
    fn to_json(&self) -> Json {
        self.params.to_json()
    }
}

impl FromJson for EnergyModel {
    fn from_json(json: &Json) -> Result<EnergyModel, og_json::Error> {
        Ok(EnergyModel { params: FromJson::from_json(json)? })
    }
}

impl ToJson for EnergyReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("per_struct".into(), self.per_struct.to_json()),
            ("total_nj".into(), self.total_nj.to_json()),
        ])
    }
}

impl FromJson for EnergyReport {
    fn from_json(json: &Json) -> Result<EnergyReport, og_json::Error> {
        Ok(EnergyReport {
            per_struct: json.field("per_struct")?,
            total_nj: json.field("total_nj")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn activity_with(s: Structure, sw: u8, sig: u8, n: u64) -> ActivityCounts {
        let mut a = ActivityCounts::new();
        for _ in 0..n {
            a.record_value(s, sw, sig);
        }
        a
    }

    #[test]
    fn model_and_report_roundtrip_through_json() {
        let model = EnergyModel::new();
        let text = og_json::to_string(&model).expect("model serializes");
        let back: EnergyModel = og_json::from_str(&text).expect("model deserializes");
        assert_eq!(back, model);

        let report =
            model.report(&activity_with(Structure::Fu, 4, 3, 1000), GatingScheme::Cooperative);
        let text = og_json::to_string(&report).expect("report serializes");
        let back: EnergyReport = og_json::from_str(&text).expect("report deserializes");
        assert_eq!(back, report);

        for scheme in GatingScheme::ALL {
            let text = og_json::to_string(&scheme).unwrap();
            assert_eq!(og_json::from_str::<GatingScheme>(&text).unwrap(), scheme);
        }
        assert!(og_json::from_str::<GatingScheme>("\"thermoelectric\"").is_err());
    }

    #[test]
    fn narrower_widths_cost_less_under_software() {
        let m = EnergyModel::new();
        let wide = activity_with(Structure::Fu, 8, 8, 100);
        let narrow = activity_with(Structure::Fu, 1, 1, 100);
        let ew = m.report(&wide, GatingScheme::Software).total_nj;
        let en = m.report(&narrow, GatingScheme::Software).total_nj;
        assert!(en < ew);
        // baseline pricing ignores widths
        let bw = m.report(&wide, GatingScheme::None).total_nj;
        let bn = m.report(&narrow, GatingScheme::None).total_nj;
        assert!((bw - bn).abs() < 1e-9);
    }

    #[test]
    fn fu_byte_share_matches_figure3_calibration() {
        // All-byte operands should save ≈ 43% · (1 − 1/8) ≈ 37.6% on FUs.
        let m = EnergyModel::new();
        let a = activity_with(Structure::Fu, 1, 1, 1000);
        let base = m.report(&a, GatingScheme::None);
        let sw = m.report(&a, GatingScheme::Software);
        let saving = sw.savings_vs(&base, Structure::Fu);
        assert!((saving - 0.43 * 0.875).abs() < 0.01, "saving = {saving}");
    }

    #[test]
    fn tag_bits_penalize_hardware_schemes() {
        let m = EnergyModel::new();
        // 8-byte values: hw gains nothing, pays tag bits.
        let a = activity_with(Structure::RegFile, 8, 8, 1000);
        let base = m.report(&a, GatingScheme::None).total_nj;
        let sig = m.report(&a, GatingScheme::HwSignificance).total_nj;
        let size = m.report(&a, GatingScheme::HwSize).total_nj;
        assert!(sig > base, "7 tag bits cost energy");
        assert!(size > base && size < sig, "2 tag bits cost less");
    }

    #[test]
    fn hw_significance_beats_software_on_dynamic_narrowness() {
        // Software had to assume 8 bytes (unknown statically), but the
        // dynamic values are 1 byte.
        let m = EnergyModel::new();
        let a = activity_with(Structure::Fu, 8, 1, 1000);
        let sw = m.report(&a, GatingScheme::Software).total_nj;
        let hw = m.report(&a, GatingScheme::HwSignificance).total_nj;
        assert!(hw < sw);
    }

    #[test]
    fn cooperative_at_least_as_good_as_software() {
        let m = EnergyModel::new();
        for (sw_w, sig) in [(8u8, 3u8), (4, 1), (2, 2), (8, 8)] {
            let a = activity_with(Structure::Fu, sw_w, sig, 500);
            let sw = m.report(&a, GatingScheme::Software).of(Structure::Fu);
            let coop = m.report(&a, GatingScheme::Cooperative).of(Structure::Fu);
            // Cooperative pays 2 tag bits but gates min(sw, size-class).
            assert!(
                coop <= sw + 500.0 * m.params(Structure::Fu).per_byte_nj * 0.25 + 1e-9,
                "coop {coop} vs sw {sw} at ({sw_w},{sig})"
            );
        }
    }

    #[test]
    fn non_gateable_structures_ignore_widths() {
        let m = EnergyModel::new();
        let mut a = ActivityCounts::new();
        a.record_plain(Structure::Rename);
        a.record_plain(Structure::ICache);
        let base = m.report(&a, GatingScheme::None).total_nj;
        let sw = m.report(&a, GatingScheme::Software).total_nj;
        assert!((base - sw).abs() < 1e-12);
    }

    #[test]
    fn ed2_maths() {
        assert_eq!(energy_delay_squared(2.0, 10), 200.0);
        // 10% energy saving at equal delay → 10% ED² improvement.
        let imp = ed2_improvement(90.0, 100, 100.0, 100);
        assert!((imp - 0.1).abs() < 1e-12);
        // 10% faster at equal energy → 19% ED² improvement.
        let imp = ed2_improvement(100.0, 90, 100.0, 100);
        assert!((imp - (1.0 - 0.81)).abs() < 1e-12);
    }

    #[test]
    fn report_breakdown_sums_to_total() {
        let m = EnergyModel::new();
        let mut a = activity_with(Structure::Fu, 4, 2, 10);
        a.record_plain(Structure::Rob);
        let r = m.report(&a, GatingScheme::Software);
        let sum: f64 = Structure::ALL.iter().map(|&s| r.of(s)).sum();
        assert!((sum - r.total_nj).abs() < 1e-9);
    }
}
