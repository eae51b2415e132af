//! The traced pass: per-layer numbers, measured from outside the
//! program and never mixed into the end-to-end figures.
//!
//! Three sources feed it:
//!
//! * a counting [`Probe`] on `Simulator::run_probed`, which counts each
//!   layer's work (queue pops, cache probes, MSHR updates, DRAM and
//!   fabric transfers) and times every event from its pop to the next,
//!   classed by the event's first hook (`warp_phase` → warp side,
//!   `request_stage` → request path);
//! * micro-timings of each layer's public functions in isolation,
//!   replayed with the geometry and hit rates the probe saw;
//! * deltas of the global telemetry registry (store, service, exec and
//!   shard counters).
//!
//! `attrib.coverage` multiplies each traced call count by its
//! micro-timed cost and divides by the untraced wall time: the share
//! of host time the layer list explains. Kernel launches are not in
//! it: their host time is measured directly, as the probe's launch
//! span (`engine.launch_us`). `trace.overhead` is traced
//! wall over untraced wall.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use mcm_engine::rng::Xoshiro256;
use mcm_engine::{Cycle, EventQueue};
use mcm_gpu::{McmSystem, RunReport, Simulator, SystemConfig};
use mcm_interconnect::mesh::{FullMesh, NetworkKind};
use mcm_interconnect::ring::{NodeId, RingDir, RingNetwork};
use mcm_interconnect::xbar::Crossbar;
use mcm_mem::addr::{AccessKind, LineAddr, Locality, PartitionId};
use mcm_mem::cache::{AllocFilter, CacheConfig, CacheOutcome, SetAssocCache, WritePolicy};
use mcm_mem::dram::{DramConfig, DramPartition};
use mcm_mem::mshr::{Mshr, MshrLookup};
use mcm_mem::page::{PageMap, PlacementPolicy};
use mcm_probe::{LinkId, Probe, ReqStage, WarpPhase};
use mcm_serve::protocol::{render_report, Request};
use mcm_sm::{CtaPool, SchedulerPolicy, SmConfig, SmCore};
use mcm_store::Store;
use mcm_telemetry::{Snapshot, Value};
use mcm_workloads::{WarpStream, WorkloadSpec};

use crate::metrics::{
    median, ratio, Outcome, Values, CACHE_LEVELS, PLACEMENTS, PRESETS, SCHEDULERS, STREAM_WORKLOADS,
};
use crate::serve::{self, ServeSetup, Sizes};
use crate::sim;
use crate::workloads::{preset, sim_pairs, Pair, ScratchDir, Workload, DEFAULT_SEED};

/// Which side of the engine an event belongs to, by its first hook.
#[derive(Debug, Clone, Copy)]
enum EventClass {
    Warp,
    Req,
    Other,
}

/// Accumulated host time over a number of spans.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    ns: u128,
    n: u64,
}

impl Tally {
    fn add(&mut self, ns: u128) {
        self.ns += ns;
        self.n += 1;
    }

    fn merge(&mut self, o: Tally) {
        self.ns += o.ns;
        self.n += o.n;
    }

    fn mean_ns(self) -> f64 {
        ratio(self.ns as f64, self.n as f64)
    }
}

/// What the probe counted over one or more runs.
#[derive(Debug, Default, Clone)]
struct Trace {
    events: u64,
    depth_sum: u64,
    warp: Tally,
    req: Tally,
    other: Tally,
    /// Kernel launches: from run start or the previous kernel's end to
    /// the launch's first pop (cache flush, pool reset, CTA placement).
    launch: Tally,
    /// `(accesses, hits)` for L1, L1.5, L2.
    cache: [(u64, u64); 3],
    mshr_ops: u64,
    dram: u64,
    xbar: u64,
    fabric: u64,
    fabric_bytes: u64,
    computes: u64,
    requests: u64,
    /// Untraced and traced wall time, ns.
    wall_untraced: f64,
    wall_traced: f64,
}

impl Trace {
    fn merge(&mut self, o: &Trace) {
        self.events += o.events;
        self.depth_sum += o.depth_sum;
        self.warp.merge(o.warp);
        self.req.merge(o.req);
        self.other.merge(o.other);
        self.launch.merge(o.launch);
        for (a, b) in self.cache.iter_mut().zip(o.cache) {
            a.0 += b.0;
            a.1 += b.1;
        }
        self.mshr_ops += o.mshr_ops;
        self.dram += o.dram;
        self.xbar += o.xbar;
        self.fabric += o.fabric;
        self.fabric_bytes += o.fabric_bytes;
        self.computes += o.computes;
        self.requests += o.requests;
        self.wall_untraced += o.wall_untraced;
        self.wall_traced += o.wall_traced;
    }
}

/// The counting, event-timing probe.
#[derive(Debug, Default)]
struct LayerProbe {
    t: Trace,
    /// Pop time of the event being processed.
    open: Option<Instant>,
    class: Option<EventClass>,
    /// Start of the launch in progress, until its first pop.
    launch_start: Option<Instant>,
}

impl LayerProbe {
    fn close(&mut self, now: Instant) {
        if let Some(start) = self.open.take() {
            let ns = (now - start).as_nanos();
            match self.class.take().unwrap_or(EventClass::Other) {
                EventClass::Warp => self.t.warp.add(ns),
                EventClass::Req => self.t.req.add(ns),
                EventClass::Other => self.t.other.add(ns),
            }
        }
    }

    fn first_hook(&mut self, class: EventClass) {
        if self.open.is_some() && self.class.is_none() {
            self.class = Some(class);
        }
    }
}

impl Probe for LayerProbe {
    fn kernel_end(&mut self, _kernel: u32, _now: Cycle) {
        let now = Instant::now();
        self.close(now);
        self.launch_start = Some(now);
    }

    fn warp_phase(&mut self, _w: u32, _sm: u32, _now: Cycle, phase: WarpPhase) {
        self.first_hook(EventClass::Warp);
        if phase == WarpPhase::Compute {
            self.t.computes += 1;
        }
    }

    fn warp_retire(&mut self, _w: u32, _sm: u32, _now: Cycle) {
        self.first_hook(EventClass::Other);
    }

    fn request_issued(&mut self, _id: u64, _now: Cycle, _meta: mcm_probe::RequestMeta) {
        self.first_hook(EventClass::Other);
        self.t.requests += 1;
    }

    fn request_stage(&mut self, _id: u64, _now: Cycle, _stage: ReqStage) {
        self.first_hook(EventClass::Req);
    }

    fn request_retired(&mut self, _id: u64, _now: Cycle) {
        self.first_hook(EventClass::Other);
    }

    fn cache_access(&mut self, cache: &'static str, _unit: u32, _now: Cycle, hit: bool) {
        self.first_hook(EventClass::Other);
        if let Some(i) = CACHE_LEVELS.iter().position(|(n, _)| *n == cache) {
            self.t.cache[i].0 += 1;
            self.t.cache[i].1 += u64::from(hit);
        }
    }

    fn mshr_occupancy(&mut self, _sm: u32, _now: Cycle, _out: u32, _cap: u32) {
        self.first_hook(EventClass::Other);
        self.t.mshr_ops += 1;
    }

    fn link_transfer(&mut self, _link: LinkId, _now: Cycle, bytes: u64, _arrival: Cycle) {
        self.first_hook(EventClass::Other);
        self.t.fabric += 1;
        self.t.fabric_bytes += bytes;
    }

    fn xbar_transfer(&mut self, _module: u32, _now: Cycle, _bytes: u64) {
        self.first_hook(EventClass::Other);
        self.t.xbar += 1;
    }

    fn dram_access(&mut self, _partition: u32, _now: Cycle, _bytes: u64) {
        self.first_hook(EventClass::Other);
        self.t.dram += 1;
    }

    fn queue_depth(&mut self, _now: Cycle, depth: usize) {
        let now = Instant::now();
        self.close(now);
        if let Some(b) = self.launch_start.take() {
            self.t.launch.add((now - b).as_nanos());
        }
        self.open = Some(now);
        self.t.events += 1;
        self.t.depth_sum += depth as u64;
    }
}

/// Runs the probe over one simulation.
fn probed(cfg: &SystemConfig, spec: &WorkloadSpec) -> (RunReport, Trace) {
    let t = Instant::now();
    let mut p = LayerProbe {
        launch_start: Some(t),
        ..LayerProbe::default()
    };
    let r = Simulator::run_probed(cfg, spec, &mut p);
    p.t.wall_traced = t.elapsed().as_nanos() as f64;
    (r, p.t)
}

/// Median ns per op of `body(ops)` over five timed reps after a warm-up.
fn per_op_ns(ops: u64, mut body: impl FnMut(u64)) -> f64 {
    body(ops / 10 + 1);
    let mut reps = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        body(ops);
        reps.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&reps)
}

fn queue_hold_ns(depth: u64, ops: u64) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::with_capacity(depth as usize * 2);
    let mut rng = Xoshiro256::new(0xBE7C);
    let now = q.now();
    for i in 0..depth.max(1) {
        q.push(now + Cycle::new(rng.next_range(900)), i, i);
    }
    per_op_ns(ops, |n| {
        let mut acc = 0u64;
        for _ in 0..n {
            let (t, v) = q.pop().expect("queue is held non-empty");
            q.push(t + Cycle::new(1 + rng.next_range(900)), v, v);
            acc = acc.wrapping_add(t.as_u64());
        }
        black_box(acc);
    })
}

fn sm_issue_ns(ops: u64) -> f64 {
    let mut core = SmCore::new(SmConfig::pascal_like());
    let mut now = Cycle::ZERO;
    per_op_ns(ops, |n| {
        for i in 0..n {
            now = core.issue(now, 1 + (i & 7) as u32);
        }
        black_box(now);
    })
}

fn policy(name: &str) -> SchedulerPolicy {
    match name {
        "centralized" => SchedulerPolicy::Centralized,
        "distributed" => SchedulerPolicy::Distributed,
        "chunked" => SchedulerPolicy::Chunked { group: 16 },
        _ => SchedulerPolicy::Dynamic { group: 16 },
    }
}

fn next_cta_ns(policy: SchedulerPolicy, ops: u64) -> f64 {
    let mut pool = CtaPool::new(policy, 2048, 4);
    let mut gpm = 0usize;
    per_op_ns(ops, |n| {
        let mut acc = 0u64;
        for _ in 0..n {
            match pool.next_cta(gpm) {
                Some(c) => acc += u64::from(c),
                None if pool.is_exhausted() => pool.reset(),
                None => {}
            }
            gpm = (gpm + 1) % 4;
        }
        black_box(acc);
    })
}

fn stream_op_ns(spec: &WorkloadSpec, ops: u64) -> f64 {
    let (mut cta, mut warp) = (0u32, 0u32);
    let mut stream = WarpStream::new(spec, 0, cta, warp);
    per_op_ns(ops, |n| {
        let mut acc = 0u64;
        for _ in 0..n {
            match stream.next() {
                Some(op) => {
                    acc = acc.wrapping_add(matches!(op, mcm_workloads::WarpOp::Compute(_)) as u64)
                }
                None => {
                    warp += 1;
                    if warp == spec.warps_per_cta {
                        warp = 0;
                        cta = (cta + 1) % spec.ctas;
                    }
                    stream = WarpStream::new(spec, 0, cta, warp);
                }
            }
        }
        black_box(acc);
    })
}

/// One access (plus its fill on an allocating miss) at hit rate `hit`:
/// hits re-touch a line of the resident window, misses bring new lines.
fn cache_access_ns(config: CacheConfig, locality: Locality, hit: f64, ops: u64) -> f64 {
    let lines = (config.size_bytes / config.line_bytes).max(2);
    let mut cache = SetAssocCache::new(config);
    let mut resident: Vec<u64> = (0..lines / 2).collect();
    let mut next = lines / 2;
    let mut cursor = 0usize;
    let mut now = Cycle::ZERO;
    for &l in &resident {
        cache.fill(LineAddr::new(l), now, false);
    }
    let mut rng = Xoshiro256::new(0xCAC4E);
    per_op_ns(ops, |n| {
        for _ in 0..n {
            let line = if rng.chance(hit) {
                resident[rng.next_range(resident.len() as u64) as usize]
            } else {
                let l = next;
                next += 1;
                resident[cursor] = l;
                cursor = (cursor + 1) % resident.len();
                l
            };
            let line = LineAddr::new(line);
            if let CacheOutcome::Miss { allocate: true, .. } =
                cache.access(now, line, AccessKind::Read, locality)
            {
                cache.fill(line, now, false);
            }
            now += Cycle::new(1);
        }
        black_box(now);
    })
}

/// Per reserve-or-release: a lookup, a reservation, and the release of
/// the oldest of 32 in-flight lines.
fn mshr_op_ns(ops: u64) -> f64 {
    let mut mshr = Mshr::new(64);
    let mut inflight = std::collections::VecDeque::new();
    let mut next = 0u64;
    per_op_ns(ops, |n| {
        for _ in 0..n {
            let line = LineAddr::new(next);
            next += 1;
            if let MshrLookup::CanIssue = mshr.lookup(line) {
                mshr.reserve(line, next);
                inflight.push_back(line);
            }
            if inflight.len() > 32 {
                let old = inflight.pop_front().expect("non-empty");
                black_box(mshr.release(old));
            }
        }
    }) / 2.0
}

fn dram_access_ns(ops: u64) -> f64 {
    let mut dram = DramPartition::new(DramConfig::with_bandwidth(768.0));
    let mut rng = Xoshiro256::new(0xD4A);
    let mut now = Cycle::ZERO;
    per_op_ns(ops, |n| {
        let mut acc = Cycle::ZERO;
        for _ in 0..n {
            acc = dram.access(
                now,
                LineAddr::new(rng.next_range(1 << 24)),
                AccessKind::Read,
            );
            now += Cycle::new(1);
        }
        black_box(acc);
    })
}

fn page_lookup_ns(policy: PlacementPolicy, ops: u64) -> f64 {
    let mut map = PageMap::new(policy, 4);
    let mut rng = Xoshiro256::new(0x9A6E);
    per_op_ns(ops, |n| {
        let mut acc = 0usize;
        for _ in 0..n {
            let line = LineAddr::new(rng.next_range(1 << 22));
            let from = PartitionId(rng.next_range(4) as u8);
            acc += map.partition_for(line, from).as_usize();
        }
        black_box(acc);
    })
}

fn xbar_ns(ops: u64) -> f64 {
    let mut x = Crossbar::new("gpm-xbar", 64.0 * 64.0, Cycle::new(4));
    let mut now = Cycle::ZERO;
    per_op_ns(ops, |n| {
        let mut acc = Cycle::ZERO;
        for _ in 0..n {
            acc = x.transfer(now, 128);
            now += Cycle::new(1);
        }
        black_box(acc);
    })
}

fn ring_hop_ns(ops: u64) -> f64 {
    let mut ring = RingNetwork::new(4, 768.0, Cycle::new(32));
    let mut now = Cycle::ZERO;
    let mut i = 0u8;
    per_op_ns(ops, |n| {
        for _ in 0..n {
            let dir = if i & 1 == 0 {
                RingDir::Clockwise
            } else {
                RingDir::CounterClockwise
            };
            let (_, t) = ring.hop(now, NodeId(i % 4), dir, 128);
            black_box(t);
            i = i.wrapping_add(1);
            now += Cycle::new(1);
        }
    })
}

fn mesh_hop_ns(ops: u64) -> f64 {
    let mut mesh = FullMesh::new(4, 768.0, Cycle::new(32));
    let mut now = Cycle::ZERO;
    let mut i = 0u8;
    per_op_ns(ops, |n| {
        for _ in 0..n {
            let from = i % 4;
            let to = (from + 1 + (i / 4) % 3) % 4;
            let (_, t) = mesh.hop(now, NodeId(from), NodeId(to), 128);
            black_box(t);
            i = i.wrapping_add(1);
            now += Cycle::new(1);
        }
    })
}

fn system_new_ms(cfg: &SystemConfig) -> f64 {
    per_op_ns(3, |n| {
        for _ in 0..n {
            black_box(McmSystem::new(cfg));
        }
    }) / 1e6
}

/// The micro-timed cost of every layer function, plus memoized
/// per-workload and per-preset costs for the coverage sum.
#[derive(Debug, Default)]
struct Micro {
    v: Values,
    stream_ns: BTreeMap<String, f64>,
    system_ms: BTreeMap<String, f64>,
    ops: u64,
}

impl Micro {
    fn stream(&mut self, spec: &WorkloadSpec) -> f64 {
        let ops = self.ops;
        *self
            .stream_ns
            .entry(spec.name.to_string())
            .or_insert_with(|| stream_op_ns(spec, ops))
    }

    fn system(&mut self, name: &str, cfg: &SystemConfig) -> f64 {
        *self
            .system_ms
            .entry(name.to_string())
            .or_insert_with(|| system_new_ms(cfg))
    }

    /// Σ count × cost for one traced run of `pair`, in ns.
    fn predict(
        &mut self,
        preset: &str,
        cfg: &SystemConfig,
        spec: &WorkloadSpec,
        r: &RunReport,
        t: &Trace,
    ) -> f64 {
        let g = |v: &Values, k: &str| v.get(k).copied().unwrap_or(0.0);
        let v = &self.v;
        let mut ns = t.events as f64 * g(v, "queue.hold_ns");
        for (i, (_, stem)) in CACHE_LEVELS.iter().enumerate() {
            ns += t.cache[i].0 as f64 * g(v, &format!("cache.{stem}.access_ns"));
        }
        ns += t.mshr_ops as f64 * g(v, "mshr.op_ns");
        ns += t.dram as f64 * g(v, "dram.access_ns");
        ns += t.xbar as f64 * g(v, "xbar.transfer_ns");
        let hop = match cfg.topology.network {
            NetworkKind::FullyConnected => g(v, "mesh.hop_ns"),
            _ => g(v, "ring.hop_ns"),
        };
        ns += t.fabric as f64 * hop;
        let page = match cfg.placement {
            PlacementPolicy::FirstTouch => g(v, "page.lookup_ns.first-touch"),
            _ => g(v, "page.lookup_ns.interleaved"),
        };
        ns += t.requests as f64 * page;
        ns += t.computes as f64 * g(v, "sm.issue_ns");
        let sched = match cfg.scheduler {
            SchedulerPolicy::Centralized => "centralized",
            SchedulerPolicy::Distributed => "distributed",
            SchedulerPolicy::Chunked { .. } => "chunked",
            SchedulerPolicy::Dynamic { .. } => "dynamic",
        };
        let draws = f64::from(spec.ctas) * f64::from(spec.kernel_iters);
        ns += draws * g(v, &format!("sched.next_cta_ns.{sched}"));
        ns += (r.mem_ops + t.computes) as f64 * self.stream(spec);
        ns += self.system(preset, cfg) * 1e6;
        ns
    }
}

/// Times every layer function. `agg` supplies the traced queue depth
/// and hit rates; `ops` sizes each micro loop.
fn micro(agg: &Trace, ops: u64, sample_report: &RunReport) -> Micro {
    let mut m = Micro {
        ops,
        ..Micro::default()
    };
    let depth = ratio(agg.depth_sum as f64, agg.events as f64)
        .round()
        .max(1.0) as u64;
    m.v.insert("queue.hold_ns".into(), queue_hold_ns(depth, ops));
    m.v.insert("sm.issue_ns".into(), sm_issue_ns(ops));
    for s in SCHEDULERS {
        m.v.insert(
            format!("sched.next_cta_ns.{s}"),
            next_cta_ns(policy(s), ops),
        );
    }
    for (w, spec) in stream_specs() {
        let ns = m.stream(&spec);
        m.v.insert(format!("stream.op_ns.{w}"), ns);
    }

    // Cache geometry as McmSystem builds it: L1 per SM, L1.5 from the
    // Fig. 9 configuration (remote-only, probed by remote lines), L2
    // per partition from the baseline.
    let l15_cfg = preset("l15-ds");
    let base = preset("baseline");
    let modules = u64::from(base.topology.modules);
    let mut l1 = CacheConfig::new("L1", base.caches.l1_bytes_per_sm);
    l1.ways = 4;
    l1.write_policy = WritePolicy::WriteThrough;
    let mut l15 = CacheConfig::new("L1.5", l15_cfg.caches.l15_bytes_total / modules);
    l15.write_policy = WritePolicy::WriteThrough;
    l15.alloc_filter = AllocFilter::RemoteOnly;
    let l2 = CacheConfig::new("L2", base.caches.l2_bytes_total / modules);
    for (i, (cfg, (_, stem))) in [l1, l15, l2].into_iter().zip(CACHE_LEVELS).enumerate() {
        let (acc, hits) = agg.cache[i];
        let hit = ratio(hits as f64, acc as f64);
        m.v.insert(format!("cache.{stem}.accesses"), acc as f64);
        m.v.insert(format!("cache.{stem}.hit_rate"), hit);
        m.v.insert(
            format!("cache.{stem}.access_ns"),
            cache_access_ns(cfg, Locality::Remote, hit, ops),
        );
    }
    m.v.insert("mshr.op_ns".into(), mshr_op_ns(ops));
    m.v.insert("dram.access_ns".into(), dram_access_ns(ops));
    for (name, p) in PLACEMENTS
        .into_iter()
        .zip([PlacementPolicy::Interleaved, PlacementPolicy::FirstTouch])
    {
        m.v.insert(format!("page.lookup_ns.{name}"), page_lookup_ns(p, ops));
    }
    m.v.insert("xbar.transfer_ns".into(), xbar_ns(ops));
    m.v.insert("ring.hop_ns".into(), ring_hop_ns(ops));
    m.v.insert("mesh.hop_ns".into(), mesh_hop_ns(ops));
    for p in PRESETS {
        let ms = m.system(p, &preset(p));
        m.v.insert(format!("system.new_ms.{p}"), ms);
    }

    // Store and protocol, on a scratch store and a real report.
    let dir = ScratchDir::new("micro-store");
    let store = Store::open(dir.path()).expect("open the micro-benchmark store");
    let mut puts = Vec::new();
    for key in 0..8u64 {
        let t = Instant::now();
        store.put(key, "micro", sample_report);
        puts.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.v.insert("store.put_ms".into(), median(&puts));
    let mut key = 0u64;
    let get_ns = per_op_ns(ops / 10 + 1, |n| {
        for _ in 0..n {
            black_box(store.get(key % 8, "micro"));
            key += 1;
        }
    });
    m.v.insert("store.get_us".into(), get_ns / 1e3);
    drop(store);
    drop(dir);
    let line = Request::Sweep {
        id: 7,
        configs: vec!["baseline".into(), "l15-ds".into()],
        workloads: vec!["Stream".into(), "CFD".into()],
    }
    .render();
    let parse_ns = per_op_ns(ops / 10 + 1, |n| {
        for _ in 0..n {
            black_box(Request::parse(black_box(&line)).expect("well-formed request"));
        }
    });
    m.v.insert("protocol.parse_us".into(), parse_ns / 1e3);
    let render_ns = per_op_ns(ops / 10 + 1, |n| {
        for _ in 0..n {
            black_box(render_report(black_box(sample_report)));
        }
    });
    m.v.insert("protocol.render_us".into(), render_ns / 1e3);
    m
}

/// The address-stream specs timed in isolation: each workload of the
/// two simulation pair lists at its pair-list scale.
fn stream_specs() -> Vec<(&'static str, WorkloadSpec)> {
    let mut out = Vec::new();
    for w in [Workload::SimMemory, Workload::SimCompute] {
        for pair in sim_pairs(w, DEFAULT_SEED, false) {
            if pair.preset == PRESETS[0] {
                out.push((pair.spec.name, pair.spec));
            }
        }
    }
    debug_assert_eq!(
        out.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        STREAM_WORKLOADS
    );
    out
}

/// Reads one metric out of a telemetry delta (0 when never registered).
fn tele(snap: &Snapshot, name: &str) -> f64 {
    [&snap.deterministic, &snap.per_config, &snap.volatile]
        .into_iter()
        .find_map(|s| s.get(name))
        .map_or(0.0, |v| match v {
            Value::Counter(n) | Value::Gauge(n) => *n as f64,
            Value::Histogram { counts, .. } => counts.iter().sum::<u64>() as f64,
        })
}

/// A traced pair: its preset label, configuration and spec.
struct Traced<'a> {
    preset: &'a str,
    cfg: &'a SystemConfig,
    spec: &'a WorkloadSpec,
    /// The untraced report the probed run must equal.
    expect: &'a RunReport,
}

/// Folds probed runs into per-preset and total traces, then fills every
/// probe-derived metric, the micro-timings and the coverage.
fn finish(traced: Vec<(Traced<'_>, RunReport, Trace)>, ops: u64, outcome: &mut Outcome) -> Values {
    let mut total = Trace::default();
    let mut by_preset: BTreeMap<String, Trace> = BTreeMap::new();
    for (t, r, tr) in &traced {
        outcome.check(r == t.expect);
        total.merge(tr);
        by_preset.entry(t.preset.to_string()).or_default().merge(tr);
    }
    let sample = &traced.first().expect("at least one traced run").1;
    let mut m = micro(&total, ops, sample);
    let mut predicted = 0.0;
    for (t, r, tr) in &traced {
        predicted += m.predict(t.preset, t.cfg, t.spec, r, tr);
    }
    let mut v = m.v;
    v.insert("engine.events".into(), total.events as f64);
    v.insert(
        "engine.ns_per_event".into(),
        ratio(total.wall_untraced, total.events as f64),
    );
    v.insert("engine.warp_event_ns".into(), total.warp.mean_ns());
    v.insert("engine.req_event_ns".into(), total.req.mean_ns());
    v.insert("engine.deliver_event_ns".into(), total.other.mean_ns());
    for p in PRESETS {
        let tr = by_preset.get(p).cloned().unwrap_or_default();
        v.insert(format!("engine.warp_event_ns.{p}"), tr.warp.mean_ns());
        v.insert(format!("engine.req_event_ns.{p}"), tr.req.mean_ns());
        v.insert(format!("engine.launch_us.{p}"), tr.launch.mean_ns() / 1e3);
    }
    let per = |k: &str| v.get(k).copied().unwrap_or(0.0);
    let ds_warp = ratio(
        per("engine.warp_event_ns.l15-ds"),
        per("engine.warp_event_ns.baseline"),
    );
    let ds_req = ratio(
        per("engine.req_event_ns.l15-ds"),
        per("engine.req_event_ns.baseline"),
    );
    let ds_launch = ratio(
        per("engine.launch_us.l15-ds"),
        per("engine.launch_us.baseline"),
    );
    v.insert("engine.ds_warp_ratio".into(), ds_warp);
    v.insert("engine.ds_req_ratio".into(), ds_req);
    v.insert("engine.ds_launch_ratio".into(), ds_launch);
    v.insert("engine.launch_us".into(), total.launch.mean_ns() / 1e3);
    v.insert(
        "engine.queue_depth_mean".into(),
        ratio(total.depth_sum as f64, total.events as f64),
    );
    v.insert("mshr.ops".into(), total.mshr_ops as f64);
    v.insert("dram.accesses".into(), total.dram as f64);
    v.insert("xbar.transfers".into(), total.xbar as f64);
    v.insert("fabric.transfers".into(), total.fabric as f64);
    v.insert("fabric.bytes".into(), total.fabric_bytes as f64);
    v.insert(
        "attrib.coverage".into(),
        ratio(predicted, total.wall_untraced),
    );
    v.insert(
        "trace.overhead".into(),
        ratio(total.wall_traced, total.wall_untraced),
    );
    v
}

/// Copies the telemetry-derived metrics out of a registry delta.
fn telemetry_values(v: &mut Values, delta: &Snapshot) {
    for name in [
        "shard.epochs",
        "shard.messages",
        "shard.mailbox_bytes",
        "shard.sequencer_stalls",
        "store.hits",
        "store.puts",
        "serve.hits",
        "serve.misses",
        "serve.inflight_dedups",
        "serve.rejections",
        "exec.service_jobs",
        "serve.queue_depth_hw",
    ] {
        v.insert(name.into(), tele(delta, name));
    }
}

/// The traced pass of a simulation workload: the same set-up and loop
/// as the end-to-end run, each pair also run under the probe.
pub fn run_sim(w: Workload, seed: u64, seconds: f64, tiny: bool, outcome: &mut Outcome) {
    let before = mcm_telemetry::global().snapshot();
    let s = sim::setup(w, seed, tiny, outcome);
    let mut rng = Xoshiro256::seeded(&[seed, 0x5EED_0001]);
    let mut runs: Vec<(usize, RunReport, Trace)> = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut hit_us = Vec::new();
    loop {
        for (i, pair) in s.pairs.iter().enumerate() {
            let t = Instant::now();
            let r = sim::simulate(w, pair);
            let ns = t.elapsed().as_nanos() as f64;
            outcome.check(r == s.reports[i]);
            sim::hit_ops(&s, &mut rng, outcome, &mut hit_us);
            let (r, mut tr) = probed(&pair.cfg, &pair.spec);
            tr.wall_untraced = ns;
            runs.push((i, r, tr));
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let delta = mcm_telemetry::global().snapshot().delta_since(&before);
    let traced = runs
        .into_iter()
        .map(|(i, r, tr)| {
            let pair: &Pair = &s.pairs[i];
            (
                Traced {
                    preset: pair.preset,
                    cfg: &pair.cfg,
                    spec: &pair.spec,
                    expect: &s.reports[i],
                },
                r,
                tr,
            )
        })
        .collect();
    let ops = if tiny { 20_000 } else { 200_000 };
    let mut v = finish(traced, ops, outcome);
    telemetry_values(&mut v, &delta);
    v.insert("exec.miss_wait_ms".into(), 0.0);
    outcome.values = v;
}

/// The traced pass of `serve-mixed`: the closed loop under a telemetry
/// delta, then direct probed runs of one simulated pair per preset.
pub fn run_serve(seed: u64, seconds: f64, tiny: bool, outcome: &mut Outcome) {
    let sizes = Sizes::new(tiny);
    let before = mcm_telemetry::global().snapshot();
    let s = ServeSetup::start(seed, sizes);
    let run = serve::closed_loop(s, seed, seconds, outcome);
    let delta = mcm_telemetry::global().snapshot().delta_since(&before);

    let misses = serve::miss_pool(seed);
    let reference_ms: BTreeMap<usize, f64> = run.references.iter().map(|r| (r.0, r.1)).collect();
    let waits: Vec<f64> = run
        .misses
        .iter()
        .map(|m| m.latency_ms - reference_ms[&m.pair])
        .collect();

    // The first simulated miss's workload, probed directly on each
    // preset: per-preset figures then compare like with like.
    let first = run.references.first().map_or(0, |r| r.0);
    let workload = &misses[first].spec;
    let cfgs: Vec<SystemConfig> = PRESETS.iter().map(|p| preset(p)).collect();
    let specs: Vec<WorkloadSpec> = PRESETS
        .iter()
        .map(|_| workload.scaled(sizes.scale))
        .collect();
    let mut expects = Vec::new();
    let mut untraced = Vec::new();
    for (cfg, spec) in cfgs.iter().zip(&specs) {
        let t = Instant::now();
        expects.push(Simulator::run(cfg, spec));
        untraced.push(t.elapsed().as_nanos() as f64);
    }
    let mut traced = Vec::new();
    for (k, p) in PRESETS.iter().enumerate() {
        let (r, mut tr) = probed(&cfgs[k], &specs[k]);
        tr.wall_untraced = untraced[k];
        traced.push((
            Traced {
                preset: p,
                cfg: &cfgs[k],
                spec: &specs[k],
                expect: &expects[k],
            },
            r,
            tr,
        ));
    }
    let ops = if tiny { 20_000 } else { 200_000 };
    let mut v = finish(traced, ops, outcome);
    telemetry_values(&mut v, &delta);
    v.insert(
        "exec.miss_wait_ms".into(),
        if waits.is_empty() {
            0.0
        } else {
            median(&waits)
        },
    );
    outcome.values = v;
}
