//! Machine-readable per-PR reports (`target/BENCH_*.json`).
//!
//! CI collects every `BENCH_*.json` in the target directory into one
//! `bench-reports` artifact, so anything that wants its numbers tracked
//! per-PR — the throughput micro-bench, the fuzz campaign summary —
//! writes through this module instead of hand-rolling a path.

use og_json::Json;
use std::path::PathBuf;

/// Where `BENCH_*.json` reports go: `$OG_BENCH_OUT` if set, else
/// `$CARGO_TARGET_DIR`, else the workspace `target/`.
pub fn bench_out_dir() -> PathBuf {
    std::env::var_os("OG_BENCH_OUT").map_or_else(crate::target_dir, PathBuf::from)
}

/// Write `report` as `target/BENCH_<name>.json` (atomically, creating
/// the directory if needed) and return the path actually written.
///
/// # Errors
///
/// Reports rendering and I/O failures with the target path; callers
/// decide whether a missing report is fatal (the bench targets treat it
/// as a warning — the numbers were still produced).
pub fn write_bench_report(name: &str, report: &Json) -> Result<PathBuf, String> {
    let path = bench_out_dir().join(format!("BENCH_{name}.json"));
    let text = og_json::render(report)
        .map_err(|e| format!("BENCH_{name} report is not renderable: {e}"))?;
    og_json::store::atomic_write(&path, &text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_where_it_says() {
        let dir = std::env::temp_dir().join(format!("og-report-test-{}", std::process::id()));
        // Not there yet: the write creates it.
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("OG_BENCH_OUT", &dir);
        let path =
            write_bench_report("selftest", &Json::Obj(vec![("ok".into(), Json::Bool(true))]))
                .unwrap();
        std::env::remove_var("OG_BENCH_OUT");
        assert_eq!(path, dir.join("BENCH_selftest.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"ok\":true}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
