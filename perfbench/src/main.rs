//! The repository benchmark: four workloads driven through the public
//! entry points `og_lab::compute_study`, `og_serve::Service::call` and
//! `og_lab::fault::run_fault_campaign`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <study|serve_hot|serve_cold|fault_sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (it reads `BENCHMARK.json` there). With
//! `--trace 0` the named workload is measured untraced and every
//! end-to-end metric is printed; with `--trace 1` all four workloads are
//! replayed layer by layer with spans recorded around each layer's public
//! functions, and every per-layer metric is printed. The last line of
//! standard output is the JSON result.

mod calib;
mod expected;
mod fault;
mod serve;
mod stats;
mod study;
mod trace;
mod traced;

use og_json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: og-perfbench --workload <study|serve_hot|serve_cold|fault_sweep> \
                     --seed <n> --seconds <s> --trace <0|1>\n       og-perfbench --write-expected";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Study,
    ServeHot,
    ServeCold,
    FaultSweep,
}

impl Workload {
    const ALL: [Workload; 4] =
        [Workload::Study, Workload::ServeHot, Workload::ServeCold, Workload::FaultSweep];

    fn name(self) -> &'static str {
        match self {
            Workload::Study => "study",
            Workload::ServeHot => "serve_hot",
            Workload::ServeCold => "serve_cold",
            Workload::FaultSweep => "fault_sweep",
        }
    }
}

/// Checked command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Measure(Args),
    WriteExpected,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        if flag == "--write-expected" {
            return Ok(Command::WriteExpected);
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload `{value}`"))?);
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|e| format!("--seed `{value}`: {e}"))?)
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds `{value}`: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Command::Measure(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one measurement produced: operation counts, metrics, and
/// human-readable notes (quantiles with sample counts, cross-checks).
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// A host-time metric: reported at the reference speed (see
    /// [`calib`]), with the value as measured in the notes.
    pub fn host_metric(&mut self, name: &str, at_ref: f64, raw: f64, unit: &'static str) {
        self.note(format!("{name} = {raw} {unit} as measured, {at_ref} at the reference speed"));
        self.metric(name, at_ref, unit);
    }

    /// The end-to-end metrics of a workload whose request is one long
    /// call committing `insts` instructions, from each call's wall time
    /// as measured and at the reference speed: medians over the calls.
    pub fn call_metrics(&mut self, what: &str, insts: u64, raw: &[f64], at_ref: &[f64]) {
        let med = |v: Vec<f64>| stats::median(&v);
        let per_s = |secs: &[f64]| med(secs.iter().map(|s| insts as f64 / s).collect());
        let rate = |secs: &[f64]| med(secs.iter().map(|s| 1.0 / s).collect());
        self.host_metric("insts_per_s", per_s(at_ref), per_s(raw), "1/s");
        self.host_metric("req_per_s", rate(at_ref), rate(raw), "1/s");
        self.host_metric("p50_us", stats::median(at_ref) * 1e6, stats::median(raw) * 1e6, "us");
        let mut ns: Vec<u64> = raw.iter().map(|s| (s * 1e9) as u64).collect();
        ns.sort_unstable();
        self.notes.extend(stats::latency_notes(what, &ns));
        let per_call: Vec<String> =
            raw.iter().zip(at_ref).map(|(r, a)| format!("{r:.3}@{:.3}", a / r)).collect();
        self.note(format!("{what} seconds as measured @ speed, per call: {}", per_call.join(" ")));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count `n` attempted operations of which `bad` failed, noting why
    /// when any did.
    pub fn check(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 {
            let why = what();
            eprintln!("perfbench: FAILED {bad}/{n}: {why}");
            self.notes.push(format!("FAILED {bad}/{n}: {why}"));
        }
    }
}

/// The metric names `BENCHMARK.json` promises, per mode.
struct Spec {
    end_to_end: Vec<String>,
    per_layer: Vec<String>,
}

impl Spec {
    fn load(path: &Path) -> Result<Spec, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let json = og_json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        let names = |key: &str| -> Result<Vec<String>, String> {
            let list = json.get(key).and_then(Json::as_arr).ok_or(format!("no `{key}` list"))?;
            list.iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or(format!("`{key}` entry without a name"))
                })
                .collect()
        };
        Ok(Spec { end_to_end: names("end_to_end")?, per_layer: names("per_layer")? })
    }
}

/// Where the benchmark may write: the build directory inside the
/// checkout.
pub fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target.join("perfbench-tmp")
}

/// Worker and client count: one per core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The checked-out commit, when run from the root of a git checkout (git
/// is not asked to search the directories above).
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

fn stamp(args: &Args) -> Json {
    Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.name().into())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("nproc".into(), Json::Num(nproc() as f64)),
        ("rustc".into(), Json::Str(env!("PERFBENCH_RUSTC").into())),
        ("commit".into(), Json::Str(git_commit())),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Command::Measure(args)) => args,
        Ok(Command::WriteExpected) => {
            return match expected::write_all() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = match Spec::load(Path::new("BENCHMARK.json")) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("perfbench: {e} (run from the repository root)");
            return ExitCode::FAILURE;
        }
    };
    let stamp =
        og_json::render(&Json::Obj(vec![("stamp".into(), stamp(&args))])).expect("stamp is finite");
    println!("{stamp}");

    let mut outcome = if args.trace {
        traced::run(args.seed)
    } else {
        let mut outcome = match args.workload {
            Workload::Study => study::measure(args.seconds),
            Workload::ServeHot => serve::measure_hot(args.seed, args.seconds),
            Workload::ServeCold => serve::measure_cold(args.seed, args.seconds),
            Workload::FaultSweep => fault::measure(args.seed, args.seconds),
        };
        match peak_rss_mb() {
            Some(mb) => outcome.metric("peak_rss_mb", mb, "MiB"),
            None => {
                eprintln!("perfbench: /proc/self/status has no VmHWM");
                return ExitCode::FAILURE;
            }
        }
        outcome
    };

    // The printed names must be exactly the ones BENCHMARK.json lists.
    let promised = if args.trace { &spec.per_layer } else { &spec.end_to_end };
    let mut got: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
    let mut want: Vec<&str> = promised.iter().map(String::as_str).collect();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        let missing: Vec<_> = want.iter().filter(|n| !got.contains(n)).collect();
        let extra: Vec<_> = got.iter().filter(|n| !want.contains(n)).collect();
        eprintln!(
            "perfbench: metrics disagree with BENCHMARK.json: missing {missing:?}, extra {extra:?}"
        );
        return ExitCode::FAILURE;
    }
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite ({})", bad.name, bad.value);
        return ExitCode::FAILURE;
    }
    if outcome.attempted == 0 {
        outcome.check(1, 1, || "no operation was attempted".to_string());
    }

    for note in &outcome.notes {
        println!("# {note}");
    }
    println!(
        "# fail_frac = {} ({} of {} operations failed)",
        outcome.failed as f64 / outcome.attempted as f64,
        outcome.failed,
        outcome.attempted
    );
    for m in &outcome.metrics {
        println!("{:<36} {:>18} {}", m.name, format!("{:.6}", m.value), m.unit);
    }
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let entry = Json::Obj(vec![
                ("value".into(), Json::Num(m.value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.failed == 0)),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", og_json::render(&result).expect("metrics are finite"));
    ExitCode::SUCCESS
}
