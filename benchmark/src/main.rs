//! The perf ledger. Drives a real `probdb-serve` over TCP on four what-if
//! workloads and reports every metric `BENCHMARK.json` names.
//!
//! ```text
//! perf-ledger --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! perf-ledger run   [--seed N] [--seconds S] [--workload W] [--quick]
//! perf-ledger trace [--seed N] [--seconds S] [--workload W] [--quick]
//! perf-ledger compare A.json B.json
//! ```
//!
//! `run` makes an untraced and a traced run of every workload (or of one)
//! and writes `benchmark/out/result-<commit>-<seed>.json`; `trace` makes
//! only the traced runs. Both exit non-zero when any operation failed; the
//! driver's form reports failures in its result object and exits 0.

mod idle;
mod json;
mod layers;
mod load;
mod metric;
mod run;
mod server;
mod spans;
mod stats;
mod verify;
mod wire;
mod workload;

use json::Json;
use run::{host_facts, run, RunArgs, RunOutput};
use std::process::ExitCode;
use workload::Spec;

/// `run_seconds` in `BENCHMARK.json`; the default when `--seconds` is absent.
const RUN_SECONDS: f64 = 20.0;
const QUICK_SECONDS: f64 = 5.0;

struct Cli {
    command: Option<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    files: Vec<String>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        command: None,
        workload: None,
        seed: None,
        seconds: None,
        trace: false,
        quick: false,
        files: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                cli.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|_| "--seed: not a number")?,
                )
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds: not a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => cli.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word if cli.command.is_none() => cli.command = Some(word.to_string()),
            file => cli.files.push(file.to_string()),
        }
    }
    Ok(cli)
}

fn print_table(spec: &Spec, workload: &str, traced: bool, out: &RunOutput) {
    println!(
        "== {workload} ({}) — attempted {}, failed {}\n   {}",
        if traced { "traced" } else { "untraced" },
        out.attempted,
        out.failed,
        spec.workload(workload).map_or("", |w| &w.why)
    );
    for m in &out.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (name, n) in &out.samples {
        println!("{:<40} {n:>16} samples", format!("n.{name}"));
    }
    for note in &out.notes {
        println!("note: {note}");
    }
}

/// The driver's form: one run, the result object on the last line.
fn single(spec: &Spec, cli: &Cli, workload: &str) -> Result<bool, String> {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: cli.seed.unwrap_or(spec.default_seed),
        seconds: cli.seconds.unwrap_or(RUN_SECONDS),
        trace: cli.trace,
        quick: cli.quick,
    };
    let out = run(spec, &args)?;
    print_table(spec, workload, args.trace, &out);
    println!("{}", out.to_json());
    // The verdict travels in the object's `correct`; the driver's contract
    // wants exit code 0 whenever a result was printed.
    Ok(true)
}

/// `run` / `trace`: every selected workload, and a result file.
fn suite(spec: &Spec, cli: &Cli, untraced: bool) -> Result<bool, String> {
    let seed = cli.seed.unwrap_or(spec.default_seed);
    let seconds = cli.seconds.unwrap_or(if cli.quick {
        QUICK_SECONDS
    } else {
        RUN_SECONDS
    });
    let names: Vec<String> = match &cli.workload {
        Some(w) => vec![w.clone()],
        None => spec.workloads.iter().map(|w| w.name.clone()).collect(),
    };
    let mut runs = Vec::new();
    let mut all_correct = true;
    for name in &names {
        for traced in [false, true] {
            if !traced && !untraced {
                continue;
            }
            let args = RunArgs {
                workload: name.clone(),
                seed,
                seconds,
                trace: traced,
                quick: cli.quick,
            };
            let out = run(spec, &args)?;
            print_table(spec, name, traced, &out);
            all_correct &= out.correct;
            let Json::Obj(mut record) = out.to_json() else {
                unreachable!("a run renders as an object")
            };
            record.insert(0, ("workload".into(), Json::str(name.clone())));
            record.insert(1, ("traced".into(), Json::Bool(traced)));
            record.push((
                "samples".into(),
                Json::obj(out.samples.iter().map(|(k, n)| (*k, Json::num(*n)))),
            ));
            record.push((
                "notes".into(),
                Json::Arr(out.notes.iter().map(Json::str).collect()),
            ));
            runs.push(Json::Obj(record));
        }
    }
    let host = host_facts(spec, seconds);
    let commit = host
        .get("commit")
        .and_then(Json::as_str)
        .unwrap_or("unknown")
        .to_string();
    let result = Json::obj([
        // Quick results carry their label so that `compare` can refuse to
        // set them beside a full run.
        ("mode", Json::str(if cli.quick { "quick" } else { "full" })),
        ("seed", Json::num(seed as f64)),
        ("seconds", Json::num(seconds)),
        ("host", host),
        ("runs", Json::Arr(runs)),
    ]);
    let dir = server::repo_root().join("benchmark").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("result-{commit}-{seed}.json"));
    std::fs::write(&path, format!("{result:#}\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

/// `compare A B`: per workload × metric, both values, the relative change,
/// and for end-to-end metrics the bound from `BENCHMARK.json`. `Ok(false)`
/// when B is beyond a bound or failed more operations than A.
fn compare(files: &[String]) -> Result<bool, String> {
    let [a, b] = files else {
        return Err("usage: perf-ledger compare <a.json> <b.json>".into());
    };
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    let mode = |j: &Json| {
        j.get("mode")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    if mode(&a) != mode(&b) {
        return Err(format!(
            "refusing to compare a {} run with a {} run",
            mode(&a),
            mode(&b)
        ));
    }
    let contract = load(
        &server::repo_root()
            .join("BENCHMARK.json")
            .display()
            .to_string(),
    )?;
    // name → (bound, lower is better)
    let bounds: Vec<(String, f64, bool)> = contract
        .get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
                m.get("better")?.as_str()? == "lower",
            ))
        })
        .collect();
    let mut within = true;
    println!("{} runs", mode(&a));
    println!(
        "{:<12} {:<38} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "change", "bound"
    );
    for run_a in a.get("runs").map(Json::as_arr).unwrap_or_default() {
        let key = |r: &Json| (r.get("workload").cloned(), r.get("traced").cloned());
        let Some(run_b) = b
            .get("runs")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .find(|r| key(r) == key(run_a))
        else {
            continue;
        };
        let workload = run_a.get("workload").and_then(Json::as_str).unwrap_or("?");
        let failed = |r: &Json| r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let attempted = |r: &Json| r.get("attempted").and_then(Json::as_f64).unwrap_or(1.0);
        let (fa, fb) = (
            failed(run_a) / attempted(run_a),
            failed(run_b) / attempted(run_b),
        );
        if fb > fa {
            within = false;
            println!("{workload:<12} failed share rose from {fa} to {fb}  REGRESSION");
        }
        for (name, metric) in run_a.get("metrics").map(Json::as_obj).unwrap_or_default() {
            let value = |m: &Json| m.get("value").and_then(Json::as_f64);
            let (Some(va), Some(vb)) = (
                value(metric),
                run_b
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(value),
            ) else {
                continue;
            };
            let change = if va != 0.0 { (vb - va) / va.abs() } else { 0.0 };
            let verdict = match bounds.iter().find(|(n, _, _)| n == name) {
                Some(&(_, bound, lower_is_better)) => {
                    let worse = if lower_is_better { change } else { -change };
                    if worse > bound {
                        within = false;
                        format!("{bound:>7.2}  REGRESSION")
                    } else {
                        format!("{bound:>7.2}")
                    }
                }
                None => String::new(),
            };
            println!(
                "{workload:<12} {name:<38} {va:>14.4} {vb:>14.4} {:>+8.1}% {verdict}",
                change * 100.0
            );
        }
    }
    Ok(within)
}

fn main() -> ExitCode {
    let outcome = parse_cli().and_then(|cli| {
        let spec = Spec::load();
        match (cli.command.as_deref(), cli.workload.as_deref()) {
            (Some("compare"), _) => compare(&cli.files),
            (Some("run"), _) => suite(&spec, &cli, true),
            (Some("trace"), _) => suite(&spec, &cli, false),
            (Some(other), _) => Err(format!("unknown command {other:?}")),
            (None, Some(workload)) => single(&spec, &cli, workload),
            (None, None) => Err("usage: perf-ledger [run|trace|compare] [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick]".into()),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf-ledger: {e}");
            ExitCode::from(2)
        }
    }
}
