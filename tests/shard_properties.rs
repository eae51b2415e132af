//! Property tests for the sharded engine's conservation laws, under
//! the workspace's seeded, shrinking property runner (`mcm-testkit`).
//!
//! The conservative-window protocol promises, for ANY (workload,
//! scale, machine, shard count):
//!
//! * **Epoch conservation** — every cross-shard message sent in epoch
//!   `k` is received exactly once, in a strictly later epoch
//!   (`sent == received` is surfaced as `ShardRunStats::messages`
//!   with zero `late_deliveries`; the strictly-later-epoch half is a
//!   `debug_assert` at the delivery site, live in these test builds).
//! * **Mailbox drainage** — nothing is left in flight at run end
//!   (`residual_messages == 0`).
//! * **Work conservation** — instruction and DRAM traffic counts match
//!   the serial engine exactly. (Asserted as full report equality,
//!   which subsumes both.)
//!
//! Failures shrink toward a minimal (workload, scale, shards, machine)
//! tuple and print an `MCM_PROP_SEED` that replays the exact case.

use mcm::fault::NullFaultPlan;
use mcm::gpu::{effective_shards, Simulator, SystemConfig};
use mcm::probe::NullProbe;
use mcm::workloads::suite;
use mcm_testkit::gen::{u64s, u8s, usizes};
use mcm_testkit::runner::check;

/// The machine variants with distinct global decision points: draw
/// cursors, stealing, first-touch claims, fabric shapes, module
/// counts.
fn machine(variant: u8) -> SystemConfig {
    match variant {
        0 => SystemConfig::baseline_mcm(),
        1 => SystemConfig::optimized_mcm(),
        2 => SystemConfig::optimized_mcm_dynamic(4),
        3 => SystemConfig::optimized_mcm_fully_connected(),
        4 => SystemConfig::multi_gpu_baseline(),
        _ => SystemConfig::mcm_l15_ds(),
    }
}

#[test]
fn sharded_runs_conserve_messages_and_work() {
    let all = suite::suite();
    let n = all.len();
    let gen = (
        usizes(0..n), // workload index
        u64s(5..25),  // scale in thousandths (0.005..0.025)
        usizes(2..9), // requested shard count
        u8s(0..6),    // machine variant
    );
    check(
        "sharded_runs_conserve_messages_and_work",
        &gen,
        |&(idx, milli, shards, variant)| {
            let spec = all[idx].scaled(milli as f64 / 1000.0);
            let cfg = machine(variant);
            let serial = Simulator::run(&cfg, &spec);
            let (sharded, stats) =
                Simulator::run_with(&cfg, &spec, &mut NullProbe, &mut NullFaultPlan, shards);
            assert_eq!(
                serial, sharded,
                "{} on {} at {shards} shards: sharded run diverged",
                spec.name, cfg.name
            );
            assert_eq!(
                stats.shards,
                effective_shards(&cfg, shards),
                "stats must report the clamped shard count"
            );
            assert_eq!(
                stats.late_deliveries, 0,
                "a message arrived inside its own send window"
            );
            assert_eq!(
                stats.residual_messages, 0,
                "mailboxes must be empty when the run ends"
            );
            if stats.shards == 1 {
                assert_eq!(stats.messages, 0, "the serial path exchanges nothing");
            }
        },
    );
}

#[test]
fn shard_counts_agree_with_each_other() {
    // Pairwise invariance, generated rather than enumerated: two
    // *different* shard counts of the same run must agree bit-for-bit
    // (serial equality is checked by the sibling property; this one
    // would still catch a bug that perturbs every sharded run the same
    // way relative to serial but differently across counts).
    let all = suite::suite();
    let n = all.len();
    let gen = (usizes(0..n), u64s(5..20), usizes(1..5), usizes(1..5));
    check(
        "shard_counts_agree_with_each_other",
        &gen,
        |&(idx, milli, a, b)| {
            let spec = all[idx].scaled(milli as f64 / 1000.0);
            let cfg = SystemConfig::optimized_mcm();
            assert_eq!(
                Simulator::run_sharded(&cfg, &spec, a),
                Simulator::run_sharded(&cfg, &spec, b),
                "{}: {a} vs {b} shards disagree",
                spec.name
            );
        },
    );
}
