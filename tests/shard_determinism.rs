//! Shard invariance: running ONE simulation split across worker cores
//! (`Simulator::run_sharded`, the `MCM_SHARDS` knob) is an execution
//! strategy, not a model change. Every test here pins the same
//! contract from a different angle: the report is **bit-identical** to
//! the serial engine at every shard count.
//!
//! The golden cycle counts of `tests/golden_determinism.rs` are
//! re-asserted under sharding, so the serial goldens pin the sharded
//! engine too.

use mcm::fault::NullFaultPlan;
use mcm::gpu::{effective_shards, RunReport, Simulator, SystemConfig};
use mcm::probe::NullProbe;
use mcm::workloads::{suite, Category, WorkloadSpec};

/// Shard counts the knob is exercised at; 8 oversubscribes every
/// 4-module machine and must clamp, not diverge.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn scaled(name: &str, scale: f64) -> WorkloadSpec {
    suite::by_name(name).expect("suite workload").scaled(scale)
}

/// One representative workload per category (the golden-determinism
/// trio), plus a second per category for breadth.
fn category_representatives() -> Vec<WorkloadSpec> {
    let all = suite::suite();
    let mut picks = Vec::new();
    for cat in Category::ALL {
        let mut of_cat = all.iter().filter(|w| w.category == cat);
        picks.push(of_cat.next().expect("non-empty category").clone());
        picks.push(of_cat.next().expect("two per category").clone());
    }
    picks
}

#[test]
fn reports_are_shard_count_invariant_across_categories() {
    let configs = [SystemConfig::baseline_mcm(), SystemConfig::optimized_mcm()];
    for cfg in &configs {
        for spec in category_representatives() {
            let spec = spec.scaled(0.02);
            let serial = Simulator::run(cfg, &spec);
            for shards in SHARD_COUNTS {
                let sharded = Simulator::run_sharded(cfg, &spec, shards);
                assert_eq!(
                    serial, sharded,
                    "{} on {} diverged at {shards} shard(s)",
                    spec.name, cfg.name
                );
            }
        }
    }
}

#[test]
fn goldens_hold_under_sharding() {
    // The exact golden table of tests/golden_determinism.rs, which any
    // behavioural drift in the sharded engine would shift.
    const GOLDEN: &[(&str, u64, u64)] = &[
        ("Stream", 5049, 1794),
        ("Hotspot", 1303, 1225),
        ("DWT", 2799, 1898),
    ];
    let baseline = SystemConfig::baseline_mcm();
    let optimized = SystemConfig::optimized_mcm();
    for &(name, want_base, want_opt) in GOLDEN {
        let spec = scaled(name, 0.02);
        for shards in [2, 4] {
            assert_eq!(
                Simulator::run_sharded(&baseline, &spec, shards)
                    .cycles
                    .as_u64(),
                want_base,
                "{name} on baseline_mcm at {shards} shards broke the golden"
            );
            assert_eq!(
                Simulator::run_sharded(&optimized, &spec, shards)
                    .cycles
                    .as_u64(),
                want_opt,
                "{name} on optimized_mcm at {shards} shards broke the golden"
            );
        }
    }
}

#[test]
fn every_scheduler_and_fabric_is_shard_invariant() {
    // The policies with global decision points (centralized draw
    // cursor, work stealing, first-touch page claims) are where a
    // sharded engine could subtly diverge; each is pinned explicitly,
    // as is the 2-module multi-GPU (odd module/shard ratios) and the
    // fully connected fabric.
    let configs = [
        SystemConfig::baseline_mcm(),            // centralized + interleaved
        SystemConfig::mcm_l15_ds(),              // distributed
        SystemConfig::optimized_mcm(),           // distributed + first touch
        SystemConfig::optimized_mcm_dynamic(4),  // work stealing
        SystemConfig::optimized_mcm_chunked(16), // chunked
        SystemConfig::optimized_mcm_fully_connected(),
        SystemConfig::multi_gpu_baseline(),
    ];
    let spec = scaled("CFD", 0.02);
    for cfg in &configs {
        let serial = Simulator::run(cfg, &spec);
        for shards in [2, 3, 8] {
            assert_eq!(
                serial,
                Simulator::run_sharded(cfg, &spec, shards),
                "{} diverged at {shards} shard(s)",
                cfg.name
            );
        }
    }
}

#[test]
fn shard_stats_report_clamped_counts_and_clean_mailboxes() {
    let cfg = SystemConfig::baseline_mcm(); // 4 modules
    let spec = scaled("Stream", 0.02);
    for (requested, expect) in [(1, 1), (2, 2), (4, 4), (8, 4), (64, 4)] {
        assert_eq!(effective_shards(&cfg, requested), expect);
        let (_, stats) =
            Simulator::run_with(&cfg, &spec, &mut NullProbe, &mut NullFaultPlan, requested);
        assert_eq!(stats.shards, expect, "requested {requested}");
        if expect > 1 {
            assert!(stats.epochs > 0, "multi-shard runs advance in epochs");
            assert!(
                stats.messages > 0,
                "an interleaved workload must cross shards"
            );
        }
        assert_eq!(stats.late_deliveries, 0, "conservative window violated");
        assert_eq!(stats.residual_messages, 0, "mailboxes must drain");
    }
    // A monolithic machine has no usable parallelism at all.
    assert_eq!(effective_shards(&SystemConfig::monolithic(64), 8), 1);
}

#[test]
fn multi_kernel_grids_stay_shard_invariant() {
    // Kernel boundaries reset epoch time and re-launch placement; a
    // sharded run must cross them in lockstep with the serial engine.
    let cfg = SystemConfig::optimized_mcm();
    let mut spec = scaled("CoMD", 0.02);
    spec.kernel_iters = 4;
    let serial = Simulator::run(&cfg, &spec);
    for shards in [2, 4] {
        assert_eq!(
            serial,
            Simulator::run_sharded(&cfg, &spec, shards),
            "multi-kernel run diverged at {shards} shards"
        );
    }
}

#[test]
fn repeated_sharded_runs_are_identical() {
    let cfg = SystemConfig::optimized_mcm();
    let spec = scaled("Backprop", 0.02);
    let a: RunReport = Simulator::run_sharded(&cfg, &spec, 4);
    let b: RunReport = Simulator::run_sharded(&cfg, &spec, 4);
    assert_eq!(a, b, "sharded runs must be reproducible run-to-run");
}
