//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--tiny] [--out PATH]
//! perfbench compare OLD.json NEW.json
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics of workload `W`
//! (tracing off); with `--trace 1` it runs the separate traced pass and
//! measures the per-layer metrics. Either way it checks every
//! simulated output, prints a table, and ends with one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//! `--out` also writes that result with the host it ran on, and
//! `compare` diffs two such files, refusing results from hosts with a
//! different core count or architecture. See `README.md`.

mod heap;
mod layers;
mod metrics;
mod serve;
mod sim;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use mcm_telemetry::json::{push_escaped, push_f64, Json};

use metrics::{per_layer, result_line, Better, Outcome, END_TO_END};
use workloads::{Workload, DEFAULT_SEED, HELD_OUT_SEED};

const SCHEMA: &str = "mcm-perfbench-v1";

/// Counts live heap bytes for `peak_heap_mb`.
#[global_allocator]
static HEAP: heap::PeakHeap = heap::PeakHeap::new();

/// Harness environment knobs that would change what is measured.
const KNOBS: [&str; 12] = [
    "MCM_SCALE",
    "MCM_JOBS",
    "MCM_SHARDS",
    "MCM_STORE",
    "MCM_TRACE",
    "MCM_METRICS",
    "MCM_TELEMETRY",
    "MCM_FAULT_RATE",
    "MCM_FAULT_SEED",
    "MCM_FAULT_TASK_PANIC",
    "MCM_RETRIES",
    "MCM_STORE_CRASH_AFTER",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    out: Option<String>,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {{sim-memory|sim-compute|sim-sharded|serve-mixed}} \
         [--seed N] [--seconds S] [--trace 0|1] [--tiny] [--out PATH]\n       \
         perfbench compare OLD.json NEW.json"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut a = Args {
        workload: Workload::SimMemory,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        tiny: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds must be in (0, 600], got {v:?}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                };
            }
            "--tiny" => a.tiny = true,
            "--out" => a.out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    a.workload = workload.ok_or("--workload is required")?;
    Ok(a)
}

/// The host facts every result records.
fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = String::from("{\"nproc\":");
    push_f64(&mut out, nproc as f64);
    out.push_str(",\"arch\":");
    push_escaped(&mut out, std::env::consts::ARCH);
    out.push_str(",\"os\":");
    push_escaped(&mut out, std::env::consts::OS);
    out.push_str(",\"rustc\":");
    push_escaped(&mut out, env!("PERFBENCH_RUSTC"));
    out.push_str(",\"profile\":");
    push_escaped(&mut out, env!("PERFBENCH_PROFILE"));
    out.push('}');
    out
}

fn run(a: &Args, process_start: Instant) -> Outcome {
    let mut outcome = Outcome::default();
    match (a.workload, a.trace) {
        (Workload::ServeMixed, false) => {
            serve::run(a.seed, a.seconds, a.tiny, process_start, &mut outcome);
        }
        (Workload::ServeMixed, true) => {
            layers::run_serve(a.seed, a.seconds, a.tiny, &mut outcome);
        }
        (w, false) => sim::run(w, a.seed, a.seconds, a.tiny, process_start, &mut outcome),
        (w, true) => layers::run_sim(w, a.seed, a.seconds, a.tiny, &mut outcome),
    }
    outcome
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [old, new] => compare(old, new),
            _ => usage("compare takes OLD.json NEW.json"),
        };
    }
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    for knob in KNOBS {
        if std::env::var_os(knob).is_some() {
            eprintln!("perfbench: ignoring {knob} (the benchmark pins its own work)");
            std::env::remove_var(knob);
        }
    }

    let host = host_json();
    println!(
        "perfbench: workload {} seed {} (pinned {DEFAULT_SEED}, held out {HELD_OUT_SEED}) seconds {} trace {} host {host}",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    let outcome = run(&a, process_start);

    let names: Vec<(String, &'static str)> = if a.trace {
        println!(
            "{:<32} {:>14} {:<8}  layer -> moves end-to-end metric on workload",
            "per-layer metric", "value", "unit"
        );
        per_layer()
            .into_iter()
            .map(|m| {
                let v = outcome.values.get(&m.name).copied().unwrap_or(0.0);
                println!(
                    "{:<32} {v:>14.4} {:<8}  {} -> {} on {}",
                    m.name, m.unit, m.layer, m.moves, m.on
                );
                (m.name, m.unit)
            })
            .collect()
    } else {
        println!("{:<24} {:>14} unit", "end-to-end metric", "value");
        END_TO_END
            .iter()
            .map(|m| {
                let v = outcome.values.get(m.name).copied().unwrap_or(0.0);
                println!("{:<24} {v:>14.4} {}", m.name, m.unit);
                (m.name.to_string(), m.unit)
            })
            .collect()
    };
    println!(
        "{:<24} {:>14.4} MB (resident high-water mark, for reference)",
        "vm_hwm",
        metrics::peak_rss_mb()
    );
    println!(
        "{:<24} {:>14.4} fraction ({} of {} ops failed)",
        "error_rate",
        outcome.error_rate(),
        outcome.failed,
        outcome.attempted
    );
    let line = result_line(&outcome, &names);
    if let Some(path) = &a.out {
        let mut doc = format!("{{\"schema\":\"{SCHEMA}\",\"workload\":");
        push_escaped(&mut doc, a.workload.name());
        doc.push_str(",\"seed\":");
        push_f64(&mut doc, a.seed as f64);
        doc.push_str(",\"seconds\":");
        push_f64(&mut doc, a.seconds);
        doc.push_str(",\"trace\":");
        push_f64(&mut doc, f64::from(u8::from(a.trace)));
        doc.push_str(",\"tiny\":");
        doc.push_str(if a.tiny { "true" } else { "false" });
        doc.push_str(",\"host\":");
        doc.push_str(&host);
        doc.push_str(",\"result\":");
        doc.push_str(&line);
        doc.push_str("}\n");
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    ExitCode::SUCCESS
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path} is not JSON: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => Ok(doc),
        other => Err(format!("{path} has schema {other:?}, expected {SCHEMA:?}")),
    }
}

/// Diffs two result files. Exit 0: no end-to-end metric worse than its
/// bound; 1: at least one is; 2: the files cannot be compared (unreadable,
/// different workloads, passes, sizes, or hosts).
fn compare(old_path: &str, new_path: &str) -> ExitCode {
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => return usage(&e),
    };
    let field = |d: &Json, path: &[&str]| path.iter().try_fold(d, |d, k| d.get(k)).cloned();
    for key in [
        &["host", "nproc"][..],
        &["host", "arch"],
        &["workload"],
        &["trace"],
        &["tiny"],
    ] {
        let (a, b) = (field(&old, key), field(&new, key));
        if a.is_none() || a != b {
            eprintln!(
                "perfbench: refusing to compare: {} differs ({a:?} vs {b:?})",
                key.join(".")
            );
            return ExitCode::from(2);
        }
    }
    for key in [["host", "rustc"], ["host", "profile"]] {
        if field(&old, &key) != field(&new, &key) {
            println!("caveat: {} differs between the two results", key.join("."));
        }
    }
    let metrics = |d: &Json| {
        field(d, &["result", "metrics"])
            .and_then(|m| m.as_obj().cloned())
            .unwrap_or_default()
    };
    let (om, nm) = (metrics(&old), metrics(&new));
    let mut regressions = 0;
    println!(
        "{:<32} {:>14} {:>14} {:>8}  verdict",
        "metric", "old", "new", "new/old"
    );
    for (name, o) in &om {
        let value = |m: &Json| m.get("value").and_then(Json::as_f64);
        let (Some(a), Some(b)) = (value(o), nm.get(name).and_then(value)) else {
            println!("{name:<32} missing from {new_path}");
            regressions += 1;
            continue;
        };
        let r = metrics::ratio(b, a);
        let verdict = match END_TO_END.iter().find(|m| m.name == name) {
            Some(m) => {
                let worse = match m.better {
                    Better::Lower => r - 1.0,
                    Better::Higher => 1.0 - r,
                };
                if worse > m.bound {
                    regressions += 1;
                    format!("REGRESSION (bound {:.0}%)", m.bound * 100.0)
                } else {
                    "ok".to_string()
                }
            }
            None => String::new(),
        };
        println!("{name:<32} {a:>14.4} {b:>14.4} {r:>8.3}  {verdict}");
    }
    if regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
