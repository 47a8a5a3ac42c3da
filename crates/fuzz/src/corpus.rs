//! The regression corpus: failing (since fixed) and otherwise interesting
//! programs, serialized as `*.og.json` files that a plain `cargo test`
//! replays forever.
//!
//! Committed cases live in `crates/fuzz/corpus/`. Fresh campaign failures
//! are written to `target/og-fuzz-failures/` (CI uploads that directory
//! as an artifact); reproduce locally with
//! `cargo run -p og-fuzz --example corpus_tool -- replay <file>`, and
//! once the underlying bug is fixed, move the file into the committed
//! corpus so the case is pinned.

use og_json::{Error, FromJson, Json, ToJson};
use og_program::Program;
use std::fs;
use std::path::{Path, PathBuf};

/// The corpus file format version this build reads and writes.
pub const FORMAT: u64 = 1;

/// One corpus case: a program plus its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusCase {
    /// Case name (the file stem by convention).
    pub name: String,
    /// The rng-stream seed the case came from.
    pub seed: u64,
    /// Human note: why this case exists / what it once broke.
    pub note: String,
    /// The step budget the case was checked under, and must be replayed
    /// with: a generated program's certificate, or a mutant's fuel.
    /// Bound-sensitive failures — fuel exhaustion, step-window
    /// violations — only reproduce under the *same* budget, so it travels
    /// with the case.
    pub max_steps: u64,
    /// The program itself.
    pub program: Program,
}

impl ToJson for CorpusCase {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("format".into(), FORMAT.to_json()),
            ("name".into(), self.name.to_json()),
            ("seed".into(), self.seed.to_json()),
            ("note".into(), self.note.to_json()),
            ("max_steps".into(), self.max_steps.to_json()),
            ("program".into(), self.program.to_json()),
        ])
    }
}

impl FromJson for CorpusCase {
    fn from_json(json: &Json) -> Result<CorpusCase, Error> {
        let format: u64 = json.field("format")?;
        if format != FORMAT {
            return Err(Error::new(format!("corpus format {format}, this build reads {FORMAT}")));
        }
        Ok(CorpusCase {
            name: json.field("name")?,
            seed: json.field("seed")?,
            note: json.field("note")?,
            max_steps: json.field("max_steps")?,
            program: json.field("program")?,
        })
    }
}

/// The committed corpus directory of this crate.
pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Where fresh campaign failures are written: `$OG_FUZZ_FAIL_DIR` if set,
/// else `og-fuzz-failures/` under the bench/target directory.
pub fn failure_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("OG_FUZZ_FAIL_DIR") {
        return PathBuf::from(dir);
    }
    og_lab::report::bench_out_dir().join("og-fuzz-failures")
}

/// Load one case from an `*.og.json` file.
///
/// # Errors
///
/// Returns a message naming the file on unreadable, unparsable, or
/// structurally invalid content (decoding re-verifies the program).
pub fn load_case(path: &Path) -> Result<CorpusCase, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    og_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Load every `*.og.json` case in `dir`, sorted by file name so replay
/// order (and any first-failure report) is stable.
///
/// # Errors
///
/// Fails on the first unreadable or invalid file; an unreadable corpus
/// should fail the build, not silently shrink coverage.
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, CorpusCase)>, String> {
    let mut paths: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().ends_with(".og.json")))
            .collect(),
        Err(e) => return Err(format!("{}: {e}", dir.display())),
    };
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let case = load_case(&path)?;
        out.push((path, case));
    }
    Ok(out)
}

/// Serialize `case` to `path` atomically, creating parent directories.
///
/// # Errors
///
/// Reports I/O and rendering failures with the target path.
pub fn save_case(path: &Path, case: &CorpusCase) -> Result<(), String> {
    let text = og_json::render(&case.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    og_json::store::atomic_write(path, &text)
}

/// Save a campaign failure into an explicit directory as
/// `<name>.og.json`, returning the path. This is what the campaign
/// engine calls with its configured
/// [`fail_dir`](crate::CampaignConfig::fail_dir), so tests can redirect
/// reproducers without mutating the process environment.
///
/// # Errors
///
/// See [`save_case`].
pub fn save_failure_to(dir: &Path, case: &CorpusCase) -> Result<PathBuf, String> {
    let path = dir.join(format!("{}.og.json", case.name));
    save_case(&path, case)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use og_program::generate::{generate_program, GenConfig};

    fn sample() -> CorpusCase {
        CorpusCase {
            name: "sample".into(),
            seed: 9,
            note: "round-trip test".into(),
            max_steps: 50_000,
            program: generate_program(&GenConfig { seed: 9, ..Default::default() }),
        }
    }

    #[test]
    fn cases_roundtrip_through_files() {
        let dir = std::env::temp_dir().join(format!("og-corpus-test-{}", std::process::id()));
        let path = dir.join("sample.og.json");
        let case = sample();
        save_case(&path, &case).unwrap();
        let back = load_case(&path).unwrap();
        assert_eq!(back, case);
        let listed = load_dir(&dir).unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].1, case);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn format_version_is_enforced() {
        let mut json = sample().to_json();
        if let Json::Obj(fields) = &mut json {
            fields[0].1 = Json::Num(99.0);
        }
        let err = CorpusCase::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("format 99"), "{err}");
    }

    #[test]
    fn the_committed_corpus_directory_exists() {
        assert!(corpus_dir().is_dir(), "{:?} missing", corpus_dir());
    }
}
