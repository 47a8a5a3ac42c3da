//! JSON encodings of a run's summary, over the `og-json` layer: the
//! document `og-serve` persists and the study fingerprint hashes.
//!
//! Hand-written, in the conventional shape: structs as objects with
//! field-named keys, unit enum variants as strings, payload variants as
//! single-field objects (`{"Vrs": 110}`), tuples and fixed-size arrays as
//! arrays. `u64` values above 2⁵³ (output digests) become decimal
//! strings — see [`og_json::MAX_SAFE_INT`].
//!
//! Every impl here is exercised by the round-trip suite in
//! `tests/summaries.rs`.

use crate::{Mech, RunSummary, VrsSummary};
use og_json::{FromJson, Json, ToJson};

impl ToJson for Mech {
    fn to_json(&self) -> Json {
        match self {
            Mech::Baseline => Json::Str("Baseline".into()),
            Mech::ConvVrp => Json::Str("ConvVrp".into()),
            Mech::Vrp => Json::Str("Vrp".into()),
            Mech::VrpAggressive => Json::Str("VrpAggressive".into()),
            Mech::Vrs(cost) => Json::Obj(vec![("Vrs".into(), cost.to_json())]),
        }
    }
}

impl FromJson for Mech {
    fn from_json(json: &Json) -> Result<Mech, og_json::Error> {
        match json {
            Json::Str(name) => match name.as_str() {
                "Baseline" => Ok(Mech::Baseline),
                "ConvVrp" => Ok(Mech::ConvVrp),
                "Vrp" => Ok(Mech::Vrp),
                "VrpAggressive" => Ok(Mech::VrpAggressive),
                other => Err(og_json::Error::new(format!("unknown mechanism `{other}`"))),
            },
            Json::Obj(fields) if fields.len() == 1 && fields[0].0 == "Vrs" => {
                Ok(Mech::Vrs(u32::from_json(&fields[0].1)?))
            }
            other => {
                Err(og_json::Error::new(format!("expected mechanism, found {}", other.kind())))
            }
        }
    }
}

impl ToJson for VrsSummary {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("profiled".into(), self.profiled.to_json()),
            ("fates".into(), self.fates.to_json()),
            ("static_specialized".into(), self.static_specialized.to_json()),
            ("static_eliminated".into(), self.static_eliminated.to_json()),
            ("runtime_specialized_frac".into(), self.runtime_specialized_frac.to_json()),
            ("runtime_guard_frac".into(), self.runtime_guard_frac.to_json()),
        ])
    }
}

impl FromJson for VrsSummary {
    fn from_json(json: &Json) -> Result<VrsSummary, og_json::Error> {
        Ok(VrsSummary {
            profiled: json.field("profiled")?,
            fates: json.field("fates")?,
            static_specialized: json.field("static_specialized")?,
            static_eliminated: json.field("static_eliminated")?,
            runtime_specialized_frac: json.field("runtime_specialized_frac")?,
            runtime_guard_frac: json.field("runtime_guard_frac")?,
        })
    }
}

impl ToJson for RunSummary {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("bench".into(), self.bench.to_json()),
            ("mech".into(), self.mech.to_json()),
            ("digest".into(), self.digest.to_json()),
            ("insts".into(), self.insts.to_json()),
            ("sim".into(), self.sim.to_json()),
            ("activity".into(), self.activity.to_json()),
            ("width_fracs".into(), self.width_fracs.to_json()),
            ("sig_fracs".into(), self.sig_fracs.to_json()),
            ("class_width".into(), self.class_width.to_json()),
            ("vrs".into(), self.vrs.to_json()),
        ])
    }
}

impl FromJson for RunSummary {
    fn from_json(json: &Json) -> Result<RunSummary, og_json::Error> {
        Ok(RunSummary {
            bench: json.field("bench")?,
            mech: json.field("mech")?,
            digest: json.field("digest")?,
            insts: json.field("insts")?,
            sim: json.field("sim")?,
            activity: json.field("activity")?,
            width_fracs: json.field("width_fracs")?,
            sig_fracs: json.field("sig_fracs")?,
            class_width: json.field("class_width")?,
            vrs: json.field("vrs")?,
        })
    }
}
