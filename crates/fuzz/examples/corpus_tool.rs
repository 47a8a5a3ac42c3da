//! Corpus maintenance tool.
//!
//! ```text
//! cargo run -p og-fuzz --example corpus_tool -- replay <file.og.json>
//!     Load a case (e.g. a CI failure artifact) and run the full
//!     differential oracle on it.
//!
//! cargo run -p og-fuzz --example corpus_tool -- show <file.og.json>
//!     Print the case's provenance and disassembly.
//!
//! cargo run -p og-fuzz --example corpus_tool -- gen <seed> <file.og.json>
//!     Generate the campaign case with that generator seed and save it
//!     (the seed printed in a campaign failure report).
//!
//! cargo run -p og-fuzz --example corpus_tool -- seed-corpus
//!     Regenerate the committed corpus under crates/fuzz/corpus/.
//!
//! cargo run --release -p og-fuzz --example corpus_tool -- evolve <seed> <cases> <dir>
//!     Run a coverage-guided campaign and write its minimized corpus —
//!     every find that lit otherwise-uncovered features, shrunk to the
//!     set-cover survivors — into <dir> as committable `*.og.json`
//!     cases. Point it at crates/fuzz/corpus/ to land the finds.
//!
//! cargo run -p og-fuzz --example corpus_tool -- faults <file.og.json> <plan.json>
//!     Replay the case under a hand-written fault plan (the JSON format
//!     `og_lab::fault::plan_from_json` reads; see crates/fuzz/plans/):
//!     run the golden baseline, inject every strike at its step, and
//!     print the fired strikes and the outcome's taxonomy class.
//! ```

use og_core::oracle::check_program;
use og_fuzz::corpus::{corpus_dir, load_case, save_case, CorpusCase};
use og_fuzz::CampaignConfig;
use og_program::generate::generate_with_bound;
use og_program::program_to_asm;
use og_vm::fault::{classify, hang_budget, run_with_plan, FaultedEnd};
use og_vm::{RunConfig, Vm};
use std::path::Path;
use std::process::ExitCode;

fn gen_case(seed: u64, name: &str, note: &str) -> CorpusCase {
    // Reconstruct the campaign's generator config for this seed: the
    // campaign derives it from (base_seed, index) with seed = base+index,
    // and the shape knobs depend only on the sum.
    let cfg = og_fuzz::case_gen_config(seed, 0);
    let (program, bound) = generate_with_bound(&cfg);
    CorpusCase {
        name: name.to_string(),
        seed,
        note: note.to_string(),
        // The campaign's certificate-derived budget: replay checks the
        // case under the same fuel the campaign would.
        max_steps: bound,
        program,
    }
}

fn replay(path: &Path) -> ExitCode {
    let case = match load_case(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("load failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("case `{}` (seed {}): {}", case.name, case.seed, case.note);
    println!("{} functions, {} instructions", case.program.funcs.len(), case.program.inst_count());
    // The case's own recorded step budget: bound-sensitive failures
    // (fuel exhaustion, step windows) only reproduce under it.
    match check_program(&case.program, case.max_steps) {
        Ok(o) => {
            println!(
                "PASS: {} transforms, {} baseline steps, {} narrowed, {} specializations",
                o.transforms, o.stats.steps, o.narrowed, o.specializations
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("FAIL (oracle): {e}");
            ExitCode::FAILURE
        }
    }
}

/// Replay a corpus case under a saved fault plan and print what the
/// strikes did: which fired, how the run ended, and the taxonomy class
/// ([`og_vm::fault::FaultOutcome`]) the classifier assigns.
fn faults(case_path: &Path, plan_path: &Path) -> ExitCode {
    let case = match load_case(case_path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("load failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let plan = match std::fs::read_to_string(plan_path)
        .map_err(|e| format!("read {}: {e}", plan_path.display()))
        .and_then(|text| og_json::parse(&text).map_err(|e| format!("plan is not JSON: {e}")))
        .and_then(|json| og_lab::fault::plan_from_json(&json))
    {
        Ok(p) => p,
        Err(e) => {
            eprintln!("plan load failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("case `{}` (seed {}): {}", case.name, case.seed, case.note);
    let run_cfg = RunConfig { max_steps: case.max_steps, ..RunConfig::default() };
    let golden = match Vm::new(&case.program, run_cfg).run() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("golden run failed (the case must pass clean before faulting): {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("golden: {} steps, digest {:#018x}", golden.steps, golden.output_digest);
    println!("plan: {} strike(s)", plan.faults().len());

    // Replay with a fuel margin past the golden step count so a fault
    // that derails control flow is classified Hang, not starved.
    let budget = RunConfig { max_steps: hang_budget(golden.steps), ..RunConfig::default() };
    let run = run_with_plan(&mut Vm::new(&case.program, budget), &plan);
    for inj in &run.injected {
        println!("  fired: step {} {:?} (pre-strike value {:#x})", inj.at_step, inj.site, inj.pre);
    }
    if run.injected.len() < plan.faults().len() {
        println!(
            "  ({} strike(s) never fired — past the end of the run)",
            plan.faults().len() - run.injected.len()
        );
    }
    match &run.end {
        FaultedEnd::Finished(o) => {
            println!("end: finished after {} steps, digest {:#018x}", o.steps, o.output_digest)
        }
        FaultedEnd::Faulted(e) => println!("end: faulted ({e})"),
        FaultedEnd::WildJump { ip } => println!("end: wild jump to ip {ip}"),
    }
    println!("outcome: {}", classify(&golden, &run.end).name());
    ExitCode::SUCCESS
}

/// The committed corpus: campaign-shaped programs pinning one feature
/// axis each. Regenerated by `seed-corpus`; replayed by `cargo test`.
fn committed_corpus() -> Vec<CorpusCase> {
    let base = CampaignConfig::default().base_seed;
    vec![
        gen_case(
            base,
            "seed-mixed-baseline",
            "campaign case 0: the default shape mix (loops, diamonds, memory, calls)",
        ),
        gen_case(
            base + 3,
            "seed-nested-loops",
            "campaign case 3: nested counted loops with induction-fed table reads",
        ),
        gen_case(
            base + 6,
            "seed-nonaffine-fuel",
            "campaign case 6: non-affine fuel-bounded loops next to cmov/byte ops",
        ),
        gen_case(
            base + 11,
            "seed-call-heavy",
            "campaign case 11: helper/mixer calls interleaved with scratch memory traffic",
        ),
        gen_case(
            base + 13,
            "seed-wide-constants",
            "campaign case 13: significance-boundary immediates through mixed widths",
        ),
    ]
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        ["replay", path] => replay(Path::new(path)),
        ["show", path] => match load_case(Path::new(path)) {
            Ok(case) => {
                println!("; case `{}` (seed {})", case.name, case.seed);
                println!("; {}", case.note);
                print!("{}", program_to_asm(&case.program));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("load failed: {e}");
                ExitCode::FAILURE
            }
        },
        ["gen", seed, path] => {
            let seed: u64 = match seed.parse() {
                Ok(s) => s,
                Err(_) => {
                    eprintln!("seed must be an unsigned integer");
                    return ExitCode::FAILURE;
                }
            };
            let case = gen_case(seed, "generated", &format!("generated from seed {seed}"));
            match save_case(Path::new(path), &case) {
                Ok(()) => {
                    println!("wrote {path}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        ["seed-corpus"] => {
            for case in committed_corpus() {
                let path = corpus_dir().join(format!("{}.og.json", case.name));
                if let Err(e) = save_case(&path, &case) {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote {}", path.display());
            }
            ExitCode::SUCCESS
        }
        ["faults", case_path, plan_path] => faults(Path::new(case_path), Path::new(plan_path)),
        ["evolve", seed, cases, dir] => {
            let (Ok(seed), Ok(cases)) = (seed.parse::<u64>(), cases.parse::<u64>()) else {
                eprintln!("seed and cases must be unsigned integers");
                return ExitCode::FAILURE;
            };
            let cfg = og_fuzz::Campaign::new(seed).cases(cases).coverage(true).config().clone();
            let found = og_fuzz::minimized_corpus_cases(&cfg);
            println!("minimized corpus: {} cases", found.len());
            for case in found {
                let path = Path::new(dir).join(format!("{}.og.json", case.name));
                if let Err(e) = save_case(&path, &case) {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote {}", path.display());
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: corpus_tool replay|show <file.og.json>");
            eprintln!("       corpus_tool gen <seed> <file.og.json>");
            eprintln!("       corpus_tool seed-corpus");
            eprintln!("       corpus_tool evolve <seed> <cases> <dir>");
            eprintln!("       corpus_tool faults <file.og.json> <plan.json>");
            ExitCode::FAILURE
        }
    }
}
