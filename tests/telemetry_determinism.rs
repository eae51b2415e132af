//! Telemetry is strictly out-of-band: enabling it never perturbs
//! simulated behaviour, and the counters themselves honour their
//! declared reproducibility class.
//!
//! The registry is a process-wide singleton shared by every `#[test]`
//! in this binary, and its counters are cumulative — so each test
//! takes *deltas* around the work it drives and the whole file runs
//! under one mutex. (Byte-identity of artifacts with `MCM_TELEMETRY`
//! on vs off is the other half of this contract, enforced end-to-end
//! in `scripts/tier1.sh`.)

use std::sync::{Mutex, MutexGuard};

use mcm::fault::{FaultConfig, SeededFaultPlan};
use mcm::gpu::{RunReport, Simulator, SystemConfig};
use mcm::probe::NullProbe;
use mcm::telemetry::json::Json;
use mcm::telemetry::{global, Snapshot, Value};
use mcm::workloads::{suite, WorkloadSpec};

/// Serializes every test in this file: deltas of a shared cumulative
/// registry are only attributable when runs don't interleave.
fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn spec() -> WorkloadSpec {
    suite::by_name("Stream")
        .expect("suite workload")
        .scaled(0.02)
}

/// Runs `f` and returns its report plus the registry delta it caused.
fn delta_of<F: FnOnce() -> RunReport>(f: F) -> (RunReport, Snapshot) {
    let before = global().snapshot();
    let report = f();
    (report, global().snapshot().delta_since(&before))
}

fn sharded(shards: usize) -> RunReport {
    let cfg = SystemConfig::baseline_mcm();
    let mut plan = SeededFaultPlan::new(FaultConfig::with_rate(7, 0.02));
    let (report, _) = Simulator::run_with(&cfg, &spec(), &mut NullProbe, &mut plan, shards);
    report
}

#[test]
fn identical_runs_produce_identical_deterministic_and_per_config_deltas() {
    let _guard = registry_lock();
    let (report_a, delta_a) = delta_of(|| sharded(2));
    let (report_b, delta_b) = delta_of(|| sharded(2));
    assert_eq!(report_a, report_b, "reruns must be bit-identical");
    assert_eq!(
        delta_a.deterministic, delta_b.deterministic,
        "Deterministic-class deltas must reproduce across identical runs"
    );
    assert_eq!(
        delta_a.per_config, delta_b.per_config,
        "PerConfig-class deltas must reproduce at fixed knob settings"
    );
    // The run actually exercised the instrumented layers: fault
    // injection counters and shard accounting must be non-zero.
    let count = |d: &Snapshot, name: &str| match d.deterministic.get(name) {
        Some(Value::Counter(n)) => *n,
        other => panic!("{name} missing or not a counter: {other:?}"),
    };
    assert!(
        count(&delta_a, "fault.link.errors_injected") > 0,
        "rate 0.02 over a full run must inject at least one link error"
    );
    match delta_a.per_config.get("shard.events") {
        Some(Value::Counter(n)) => assert!(*n > 0, "sharded run must pop events"),
        other => panic!("shard.events missing: {other:?}"),
    }
}

#[test]
fn deterministic_class_survives_shard_count_changes() {
    let _guard = registry_lock();
    let (report2, delta2) = delta_of(|| sharded(2));
    let (report4, delta4) = delta_of(|| sharded(4));
    // Sharding is an execution strategy: simulated results and every
    // Deterministic-class counter are invariant under it...
    assert_eq!(report2, report4, "shard count must not change the report");
    assert_eq!(
        delta2.deterministic, delta4.deterministic,
        "Deterministic-class deltas must be shard-count invariant"
    );
    // ...while PerConfig counters may legitimately move: an event
    // crossing a shard boundary is re-enqueued on the receiving side,
    // so pop totals depend on the partition. That drift is exactly why
    // shard.events is classed PerConfig rather than Deterministic.
    let events = |d: &Snapshot| match d.per_config.get("shard.events") {
        Some(Value::Counter(n)) => *n,
        other => panic!("shard.events missing: {other:?}"),
    };
    assert!(events(&delta2) > 0 && events(&delta4) > 0);
}

#[test]
fn telemetry_does_not_perturb_the_serial_engine() {
    let _guard = registry_lock();
    let cfg = SystemConfig::baseline_mcm();
    let spec = spec();
    // A run before any snapshot-taking, one surrounded by snapshots,
    // and one after: all bit-identical. The registry is observation
    // only.
    let untouched = Simulator::run(&cfg, &spec);
    let (observed, _delta) = delta_of(|| Simulator::run(&cfg, &spec));
    let after = Simulator::run(&cfg, &spec);
    assert_eq!(untouched, observed);
    assert_eq!(untouched, after);
}

#[test]
fn snapshot_json_round_trips_with_volatile_quarantined() {
    let _guard = registry_lock();
    let (_report, delta) = delta_of(|| sharded(2));
    let text = delta.to_json("roundtrip");
    let doc = Json::parse(&text).expect("snapshot JSON must parse with the in-repo reader");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(mcm::telemetry::snapshot::SCHEMA)
    );
    assert_eq!(doc.get("label").and_then(Json::as_str), Some("roundtrip"));
    for section in ["deterministic", "per_config", "volatile_not_reproducible"] {
        assert!(
            doc.get(section).and_then(Json::as_obj).is_some(),
            "snapshot must carry a {section:?} object"
        );
    }
    // Wall-clock style metrics live ONLY in the quarantined section —
    // nothing volatile may leak into the reproducible ones.
    let volatile = doc
        .get("volatile_not_reproducible")
        .and_then(Json::as_obj)
        .expect("volatile section");
    assert!(
        volatile.contains_key("shard.sequencer_stalls"),
        "sequencer stalls are scheduling-dependent and must be quarantined"
    );
    for section in ["deterministic", "per_config"] {
        let obj = doc.get(section).and_then(Json::as_obj).expect("section");
        for key in obj.keys() {
            assert!(
                !key.ends_with("_ns") && !key.contains("stall"),
                "{key:?} looks wall-clock-ish but sits in reproducible section {section:?}"
            );
        }
    }

    // CSV mirror: same metrics, stable header.
    let csv = delta.to_csv();
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("section,metric,kind,field,value"));
    assert!(
        csv.lines()
            .any(|l| l.starts_with("per_config,shard.events,counter,")),
        "CSV must carry the shard event counter:\n{csv}"
    );
}
