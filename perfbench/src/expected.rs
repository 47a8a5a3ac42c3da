//! Committed expected outputs for the default seed (`--seed 0`).
//!
//! The study and serve_hot's programs are seed-independent, so they are
//! checked against these files on every run. serve_cold and the fault
//! sweep depend on the seed: at seed 0 they are checked against these
//! files, and at every seed against an independent recomputation (see
//! `serve` and `fault`).
//!
//! Regenerate after an intentional output change with
//! `cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --write-expected`.

use crate::{fault, serve, study};
use og_json::Json;
use std::path::Path;

const STUDY: &str = include_str!("../expected/study.json");
const SERVE_HOT: &str = include_str!("../expected/serve_hot.json");
const SERVE_COLD: &str = include_str!("../expected/serve_cold.json");
const FAULT_SWEEP: &str = include_str!("../expected/fault_sweep.json");

/// How many leading serve_cold programs the committed file pins.
pub const COLD_PINNED: u64 = 256;

fn parse(text: &str, what: &str) -> Json {
    og_json::parse(text).unwrap_or_else(|e| panic!("committed {what} expectations: {e}"))
}

fn str_list(json: &Json, key: &str, what: &str) -> Vec<String> {
    json.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("committed {what} expectations: no `{key}` list"))
        .iter()
        .map(|v| v.as_str().expect("string entries").to_string())
        .collect()
}

/// The committed study fingerprint.
pub fn study() -> Vec<study::RunPrint> {
    let json = parse(STUDY, "study");
    json.get("runs")
        .and_then(Json::as_arr)
        .expect("committed study expectations: no `runs` list")
        .iter()
        .map(|r| study::RunPrint::from_json(r).expect("well-formed study fingerprint row"))
        .collect()
}

/// The committed per-program summary prints of serve_hot.
pub fn serve_hot() -> Vec<String> {
    str_list(&parse(SERVE_HOT, "serve_hot"), "summaries", "serve_hot")
}

/// The committed per-program summary prints of the first
/// [`COLD_PINNED`] serve_cold programs at seed 0.
pub fn serve_cold() -> Vec<String> {
    str_list(&parse(SERVE_COLD, "serve_cold"), "summaries", "serve_cold")
}

/// The committed per-workload fault taxonomy at seed 0.
pub fn fault_sweep() -> Vec<fault::WorkloadPrint> {
    let json = parse(FAULT_SWEEP, "fault_sweep");
    json.get("per_workload")
        .and_then(Json::as_arr)
        .expect("committed fault expectations: no `per_workload` list")
        .iter()
        .map(|w| fault::WorkloadPrint::from_json(w).expect("well-formed fault row"))
        .collect()
}

/// Write `{"<key>": [rows...]}` with one row per line, so the committed
/// files diff cleanly.
fn write(dir: &Path, name: &str, key: &str, rows: Vec<Json>) -> Result<(), String> {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| og_json::render(r).map_err(|e| format!("render {name}: {e}")))
        .collect::<Result<_, _>>()?;
    let text = format!("{{\"{key}\": [\n{}\n]}}\n", rows.join(",\n"));
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("perfbench: wrote {}", path.display());
    Ok(())
}

/// Recompute every expectation at seed 0 and overwrite the committed
/// files.
pub fn write_all() -> Result<(), String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    let runs = study::fingerprint(&og_lab::compute_study());
    write(&dir, "study.json", "runs", runs.iter().map(study::RunPrint::to_json).collect())?;

    let list = |prints: Vec<String>| prints.into_iter().map(Json::Str).collect();
    let hot = serve::direct_prints(serve::HOT_CORPUS_SEED, 0..serve::HOT_UNIQUE);
    write(&dir, "serve_hot.json", "summaries", list(hot))?;
    let cold = serve::direct_prints(serve::corpus_seed(0), 0..COLD_PINNED);
    write(&dir, "serve_cold.json", "summaries", list(cold))?;

    let report = og_lab::fault::run_fault_campaign(&fault::campaign_config(0));
    let rows = fault::prints_of(&report).iter().map(fault::WorkloadPrint::to_json).collect();
    write(&dir, "fault_sweep.json", "per_workload", rows)
}
