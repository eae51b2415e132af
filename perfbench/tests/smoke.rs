//! The benchmark at tiny size: every workload, both passes, must print
//! every metric `BENCHMARK.json` names, with its unit, and fail no op.

use std::path::{Path, PathBuf};
use std::process::Command;

use mcm_telemetry::json::Json;

const WORKLOADS: [&str; 4] = ["sim-memory", "sim-compute", "sim-sharded", "serve-mixed"];

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {list} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{list} entry without {k}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test scratch directory");
    dir
}

/// Runs one tiny pass and returns the parsed result line.
fn run(workload: &str, trace: u8, extra: &[&str], cwd: &Path) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.5",
            "--tiny",
        ])
        .args(["--trace", &trace.to_string()])
        .args(extra)
        .current_dir(cwd)
        .output()
        .expect("spawn perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

#[test]
fn every_workload_prints_every_metric_and_fails_nothing() {
    let doc = benchmark_json();
    let cwd = scratch("smoke");
    for (trace, list) in [(0u8, "end_to_end"), (1, "per_layer")] {
        let want = declared(&doc, list);
        for w in WORKLOADS {
            let res = run(w, trace, &[], &cwd);
            let obj = res.as_obj().expect("result is an object");
            let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "{w}");
            assert_eq!(
                res.get("correct"),
                Some(&Json::Bool(true)),
                "{w} trace {trace}"
            );
            assert_eq!(
                res.get("failed").and_then(Json::as_u64),
                Some(0),
                "{w}: error_rate must be 0"
            );
            assert!(res.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
            let metrics = res.get("metrics").and_then(Json::as_obj).expect("metrics");
            assert_eq!(metrics.len(), want.len(), "{w} trace {trace}: metric count");
            for (name, unit) in &want {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{w} trace {trace}: {name} missing"));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                let v = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(v.is_finite() && v >= 0.0, "{w}: {name} = {v}");
                if trace == 0 {
                    assert!(v > 0.0, "{w}: end-to-end {name} must never read 0");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn compare_refuses_results_from_a_different_host() {
    let cwd = scratch("compare");
    let a = cwd.join("a.json");
    run(
        "sim-sharded",
        0,
        &["--out", a.to_str().expect("utf-8 path")],
        &cwd,
    );
    let compare = |old: &Path, new: &Path| {
        Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .arg("compare")
            .args([old, new])
            .output()
            .expect("spawn perfbench compare")
            .status
            .code()
    };
    assert_eq!(
        compare(&a, &a),
        Some(0),
        "a result compares clean with itself"
    );

    let text = std::fs::read_to_string(&a).expect("read result");
    let at = text.find("\"nproc\":").expect("nproc recorded") + "\"nproc\":".len();
    let end = at
        + text[at..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("nproc ends");
    let arch = format!("\"arch\":\"{}\"", std::env::consts::ARCH);
    assert!(text.contains(&arch), "arch recorded");
    for (what, other_host) in [
        ("core count", format!("{}1000{}", &text[..at], &text[end..])),
        (
            "architecture",
            text.replace(&arch, "\"arch\":\"elsewhere\""),
        ),
    ] {
        let b = cwd.join("b.json");
        std::fs::write(&b, other_host).expect("write the other host's result");
        assert_eq!(compare(&a, &b), Some(2), "refuses a different {what}");
    }
    let _ = std::fs::remove_dir_all(&cwd);
}
