//! The simulation workloads (`sim-memory`, `sim-compute`,
//! `sim-sharded`): a closed loop over the pair list, each pair once per
//! pass, driven straight through `Simulator`.
//!
//! Each op is one of two kinds, the two ways a sweep obtains a report:
//!
//! * **miss** — simulate the pair (`Simulator::run`, or `run_sharded`
//!   at two shards on `sim-sharded`);
//! * **hit** — read a pair's record back from a result store written
//!   at set-up and render it, the warm-restart path every harness
//!   binary takes under `MCM_STORE`. Hits on seeded pairs follow each
//!   miss, as many as `serve-mixed` answers per simulated reply.

use std::time::{Duration, Instant};

use mcm_bench::harness::pair_fingerprint;
use mcm_engine::rng::Xoshiro256;
use mcm_gpu::{RunReport, Simulator};
use mcm_serve::protocol::render_report;
use mcm_store::Store;

use crate::metrics::{median, quantile, repeated_setup, Outcome};
use crate::workloads::{matches_pin, sim_pairs, Pair, ScratchDir, Workload};

/// Shards of the sharded workload.
pub const SHARDS: usize = 2;

/// Store reads after each simulated pair: the hit:miss mix `serve-mixed`
/// measured when the benchmark was defined (576 hits to 96 simulated
/// replies in a 15 s window at seed 1, on a 2-core x86-64 host).
const HITS_PER_MISS: usize = 6;

/// Everything set-up builds: the pairs, their reference reports (the
/// warm-up rep), and the store holding them.
#[derive(Debug)]
pub struct SimSetup {
    pub pairs: Vec<Pair>,
    pub reports: Vec<RunReport>,
    rendered: Vec<String>,
    store: Store,
    _dir: ScratchDir,
}

/// Runs one pair the way the workload measures it.
pub fn simulate(w: Workload, pair: &Pair) -> RunReport {
    if w == Workload::SimSharded {
        Simulator::run_sharded(&pair.cfg, &pair.spec, SHARDS)
    } else {
        Simulator::run(&pair.cfg, &pair.spec)
    }
}

/// Builds the pair list and runs the untimed warm-up rep: every pair
/// once, checked against its pinned digest (and, when sharded, against
/// the serial engine), then stored for the hit path.
pub fn setup(w: Workload, seed: u64, tiny: bool, outcome: &mut Outcome) -> SimSetup {
    let pairs = sim_pairs(w, seed, tiny);
    let dir = ScratchDir::new(w.name());
    let store = Store::open(dir.path()).expect("open the benchmark's result store");
    let mut reports = Vec::with_capacity(pairs.len());
    let mut rendered = Vec::with_capacity(pairs.len());
    for pair in &pairs {
        let r = simulate(w, pair);
        outcome.check(matches_pin(w, pair, &r, seed, tiny));
        if w == Workload::SimSharded {
            outcome.check(Simulator::run(&pair.cfg, &pair.spec) == r);
        }
        store.put(store_key(pair), pair.spec.name, &r);
        rendered.push(render_report(&r));
        reports.push(r);
    }
    SimSetup {
        pairs,
        reports,
        rendered,
        store,
        _dir: dir,
    }
}

/// The pair's key in the store: the harness's own, at scale 1 because
/// the pair's spec is already scaled.
fn store_key(pair: &Pair) -> u64 {
    pair_fingerprint(1.0, &pair.cfg, &pair.spec)
}

/// The hit ops that follow one miss: store reads of seeded pairs,
/// each rendered and checked against the warm-up rep. Returns the
/// number of ops; their latencies (µs) go to `hit_us`.
pub fn hit_ops(
    s: &SimSetup,
    rng: &mut Xoshiro256,
    outcome: &mut Outcome,
    hit_us: &mut Vec<f64>,
) -> u64 {
    for _ in 0..HITS_PER_MISS {
        let j = rng.next_range(s.pairs.len() as u64) as usize;
        let p = &s.pairs[j];
        let t = Instant::now();
        let got = s
            .store
            .get(store_key(p), p.spec.name)
            .map(|r| render_report(&r));
        hit_us.push(t.elapsed().as_secs_f64() * 1e6);
        outcome.check(got.as_deref() == Some(s.rendered[j].as_str()));
    }
    HITS_PER_MISS as u64
}

/// The end-to-end run: passes over the pair list until `seconds` have
/// elapsed (always at least one whole pass).
///
/// Host noise on a shared machine comes in bursts that slow a few ops
/// by a tenth or more, so the rates are built from each pair's median:
/// `sim_minst_per_s` is the pair list's instructions over the sum of
/// per-pair median simulate times, `requests_per_s` the list's ops over
/// the sum of per-pair median op-group times (one miss and its hits),
/// and the miss-latency quantiles are taken over the per-pair medians
/// (over every miss when the list holds a single pair).
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    tiny: bool,
    process_start: Instant,
    outcome: &mut Outcome,
) {
    let (s, setup_times) = repeated_setup(
        w.setup_reps(),
        process_start,
        || setup(w, seed, tiny, outcome),
        drop,
    );
    let n = s.pairs.len();
    let mut rng = Xoshiro256::seeded(&[seed, 0x5EED_0001]);
    let mut miss_ms: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut group_s: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut hit_us = Vec::new();
    let mut passes = 0;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    'passes: loop {
        for (i, pair) in s.pairs.iter().enumerate() {
            // The first pass always completes; later ones stop at the
            // deadline.
            if passes > 0 && Instant::now() >= deadline {
                break 'passes;
            }
            let t = Instant::now();
            let r = simulate(w, pair);
            miss_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
            outcome.check(r == s.reports[i]);
            let hits = hit_ops(&s, &mut rng, outcome, &mut hit_us);
            group_s[i].push(t.elapsed().as_secs_f64() / (1 + hits) as f64);
        }
        passes += 1;
    }
    outcome
        .values
        .insert("peak_heap_mb".into(), crate::HEAP.peak_mb());

    let med_ms: Vec<f64> = miss_ms.iter().map(|v| median(v)).collect();
    let instructions: u64 = s.reports.iter().map(|r| r.instructions).sum();
    let per_op_s: f64 = group_s.iter().map(|v| median(v)).sum::<f64>() / n as f64;
    let latencies = if n > 1 {
        med_ms.clone()
    } else {
        miss_ms.concat()
    };
    let v = &mut outcome.values;
    v.insert("setup_s".into(), median(&setup_times));
    v.insert(
        "sim_minst_per_s".into(),
        instructions as f64 / 1e6 / (med_ms.iter().sum::<f64>() / 1e3),
    );
    v.insert("requests_per_s".into(), 1.0 / per_op_s);
    v.insert("hit_latency_us_p50".into(), median(&hit_us));
    v.insert("hit_latency_us_p99".into(), quantile(&hit_us, 0.99));
    v.insert("miss_latency_ms_p50".into(), median(&latencies));
    v.insert("miss_latency_ms_p90".into(), quantile(&latencies, 0.9));
    eprintln!(
        "perfbench: {}: {passes} passes, {} misses, {} hits",
        w.name(),
        miss_ms.iter().map(Vec::len).sum::<usize>(),
        hit_us.len()
    );
}
