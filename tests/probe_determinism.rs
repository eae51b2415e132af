//! Observability determinism: the probe layer is a passive observer.
//!
//! Two guarantees are pinned here:
//!
//! 1. Attaching probes never perturbs the simulation — a probed run
//!    reports exactly the same cycles as an unprobed run.
//! 2. The sink artifacts themselves are deterministic — two probed
//!    runs of the same (workload, configuration, scale) produce
//!    byte-identical Chrome-trace JSON and metrics CSV.
//!
//! Plus the stall profiler's accounting identity: its phase buckets
//! tile warp lifetimes exactly, so they sum to total warp-cycles.

use mcm::gpu::{RunReport, Simulator, SystemConfig};
use mcm::probe::{ChromeTraceProbe, MetricsProbe, StallProfile, WarpPhase};
use mcm::workloads::suite;

fn probed_run(cfg: &SystemConfig, workload: &str) -> (RunReport, String, String, StallProfile) {
    let spec = suite::by_name(workload)
        .expect("suite workload")
        .scaled(0.02);
    let mut probe = (
        ChromeTraceProbe::new(),
        (
            MetricsProbe::new(1024, cfg.topology.sms_per_module),
            StallProfile::new(),
        ),
    );
    let report = Simulator::run_probed(cfg, &spec, &mut probe);
    let (mut trace, (metrics, stalls)) = probe;
    (report, trace.finish(), metrics.to_csv(), stalls)
}

#[test]
fn probes_do_not_perturb_the_simulation() {
    for cfg in [SystemConfig::baseline_mcm(), SystemConfig::optimized_mcm()] {
        for workload in ["Stream", "Hotspot"] {
            let spec = suite::by_name(workload)
                .expect("suite workload")
                .scaled(0.02);
            let plain = Simulator::run(&cfg, &spec);
            let (probed, _, _, _) = probed_run(&cfg, workload);
            assert_eq!(
                plain, probed,
                "{workload} on {}: probed run diverged from unprobed",
                cfg.name
            );
        }
    }
}

#[test]
fn artifacts_are_byte_identical_across_runs() {
    let cfg = SystemConfig::optimized_mcm();
    let (_, trace_a, csv_a, _) = probed_run(&cfg, "Stream");
    let (_, trace_b, csv_b, _) = probed_run(&cfg, "Stream");
    assert!(!trace_a.is_empty() && !csv_a.is_empty());
    assert_eq!(trace_a, trace_b, "Chrome trace JSON differs between runs");
    assert_eq!(csv_a, csv_b, "metrics CSV differs between runs");
}

/// An *active* probe demands the serial engine (artifact event order
/// must be the canonical one), so sharded entry points fall back:
/// same report, same artifacts, and the stats say one shard ran.
#[test]
fn active_probes_force_serial_fallback_and_stay_bit_exact() {
    use mcm::fault::NullFaultPlan;
    let cfg = SystemConfig::optimized_mcm();
    let spec = suite::by_name("Stream")
        .expect("suite workload")
        .scaled(0.02);
    let (serial_report, serial_trace, serial_csv, _) = probed_run(&cfg, "Stream");
    let mut probe = (
        ChromeTraceProbe::new(),
        MetricsProbe::new(1024, cfg.topology.sms_per_module),
    );
    let (report, stats) = Simulator::run_with(&cfg, &spec, &mut probe, &mut NullFaultPlan, 4);
    assert_eq!(stats.shards, 1, "active probes must run serially");
    assert_eq!(report, serial_report);
    assert_eq!(probe.0.finish(), serial_trace);
    assert_eq!(probe.1.to_csv(), serial_csv);
}

/// An inactive (`ACTIVE = false`) probe costs nothing in the hot loop,
/// so it rides the sharded engine — and still receives every kernel
/// boundary callback, exactly once, in order.
#[test]
fn inactive_probes_ride_the_sharded_engine() {
    use mcm::engine::Cycle;
    use mcm::fault::NullFaultPlan;
    use mcm::probe::Probe;

    #[derive(Default)]
    struct KernelLog {
        begins: Vec<u32>,
        ends: Vec<u32>,
    }
    impl Probe for KernelLog {
        const ACTIVE: bool = false;
        fn kernel_begin(&mut self, kernel: u32, _now: Cycle) {
            self.begins.push(kernel);
        }
        fn kernel_end(&mut self, kernel: u32, _now: Cycle) {
            self.ends.push(kernel);
        }
    }

    let cfg = SystemConfig::optimized_mcm();
    let mut spec = suite::by_name("CoMD").expect("suite workload").scaled(0.02);
    spec.kernel_iters = 3;
    let serial = Simulator::run(&cfg, &spec);
    let mut probe = KernelLog::default();
    let (report, stats) = Simulator::run_with(&cfg, &spec, &mut probe, &mut NullFaultPlan, 4);
    assert_eq!(stats.shards, 4, "an inactive probe must not force serial");
    assert_eq!(report, serial, "probed sharded run diverged");
    assert_eq!(probe.begins, vec![0, 1, 2]);
    assert_eq!(probe.ends, vec![0, 1, 2]);
}

#[test]
fn stall_buckets_sum_to_warp_lifetimes() {
    let cfg = SystemConfig::baseline_mcm();
    let (_, _, _, stalls) = probed_run(&cfg, "DWT");
    assert_eq!(stalls.warps_spawned(), stalls.warps_retired());
    assert!(stalls.warps_retired() > 0);
    let by_phase: u64 = WarpPhase::ALL.iter().map(|&p| stalls.cycles(p)).sum();
    assert_eq!(by_phase, stalls.total_warp_cycles());
    assert!(stalls.total_warp_cycles() > 0);
    // Warps do real work, so attribution can't be all-drain.
    assert!(stalls.cycles(WarpPhase::Compute) > 0);
}
