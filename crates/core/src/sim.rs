//! The whole-system run loop: kernels, CTA placement, warp events, and
//! split-transaction memory requests.
//!
//! [`Simulator::run`] executes one workload on one configuration and
//! returns a [`RunReport`]. Execution is event-driven with **two event
//! kinds**: a *warp* event advances one warp (compute bursts issue
//! inline; loads block the warp), and a *request* event advances one
//! in-flight memory request through the next hierarchy stage (L1.5 →
//! fabric/ring → home L2/DRAM → ring response → delivery). Staging each
//! traversal as its own event keeps every bandwidth resource's arrivals
//! globally time-ordered, which the next-free-time queuing model
//! requires.
//!
//! Every event carries a **content key** (a warp's grid coordinates, a
//! request's issue id) and the queue breaks timestamp ties by `(wave,
//! key)` — see [`EventQueue`]. Because the key is derived from *what*
//! the event is rather than *when it was pushed*, the global processing
//! order is a property of the workload alone. That is what lets
//! [`crate::shard`] split one run across threads, one shard per module
//! group, and still reproduce this serial loop bit-for-bit: each
//! shard's local pop order is the restriction of the global keyed
//! order to the events it owns.
//!
//! Loads coalesce through the per-SM MSHR: concurrent misses to a line
//! with a fill already in flight attach to that request as waiters. A
//! full MSHR stalls the warp; it replays the load when an entry frees
//! (as real SMs replay on structural hazards).
//!
//! Kernel launches are globally synchronous, as under the paper's
//! software coherence scheme: when a launch fully drains, all L1/L1.5
//! caches are flushed (§5.1.1) and the next launch begins. First-touch
//! page mappings persist across launches — the cross-kernel locality of
//! §5.3.

use std::sync::Once;

use mcm_engine::{Cycle, EventQueue};
use mcm_fault::{FaultPlan, NullFaultPlan};
use mcm_mem::addr::{AccessKind, LineAddr, Locality};
use mcm_mem::cache::CacheOutcome;
use mcm_mem::mshr::MshrLookup;
use mcm_probe::{FaultEvent, NullProbe, Probe, ReqStage, RequestMeta, WarpPhase};
use mcm_sm::CtaPool;
use mcm_workloads::stream::{WarpOp, WarpStream};
use mcm_workloads::WorkloadSpec;

use crate::config::SystemConfig;
use crate::report::RunReport;
use crate::shard::{effective_shards, run_sharded, shard_tele, Msg, ShardCtx, ShardRunStats};

/// `fault.gpm.resteal_kernels`: kernel launches that restole CTAs away
/// from newly disabled modules. Fires once per launch in both the
/// serial and sharded engines, so it is deterministic across
/// `MCM_SHARDS` (and out-of-band either way).
pub(crate) fn gpm_resteal_counter() -> &'static mcm_telemetry::Counter {
    static TELE: std::sync::OnceLock<mcm_telemetry::Counter> = std::sync::OnceLock::new();
    TELE.get_or_init(|| {
        mcm_telemetry::global().counter(
            "fault.gpm.resteal_kernels",
            mcm_telemetry::Class::Deterministic,
        )
    })
}
use crate::system::{L15Outcome, McmSystem, REQUEST_BYTES};
use mcm_interconnect::ring::RingDir;

/// Event-key tag for warp events. Warp keys are the warp's grid
/// coordinates (`cta * warps_per_cta + warp`), unique within a kernel.
pub(crate) const TAG_WARP: u64 = 0;
/// Event-key tag for request events (the high bit, so warp and request
/// key spaces never collide). Request keys are the run-unique issue id.
pub(crate) const TAG_REQ: u64 = 1 << 63;

/// Runs workloads on configurations.
///
/// The simulator is stateless between runs; each [`Simulator::run`]
/// builds a fresh machine, so runs are independent and bit-reproducible.
///
/// # Example
///
/// ```
/// use mcm_gpu::{Simulator, SystemConfig};
/// use mcm_workloads::WorkloadSpec;
///
/// let mut spec = WorkloadSpec::template("demo");
/// spec.ctas = 32;
/// spec.insts_per_warp = 64;
/// let report = Simulator::run(&SystemConfig::baseline_mcm(), &spec);
/// assert!(report.cycles.as_u64() > 0);
/// assert_eq!(report.instructions, spec.approx_instructions());
/// ```
#[derive(Debug)]
pub struct Simulator;

#[derive(Clone, Copy, Debug)]
pub(crate) enum Ev {
    /// Advance the warp in this slot.
    Warp(u32),
    /// Advance the in-flight memory request in this slot.
    Req(u32),
}

pub(crate) struct WarpRt {
    stream: WarpStream,
    sm: u32,
    cta_slot: u32,
    /// Content key for this warp's events: `TAG_WARP | (cta *
    /// warps_per_cta + warp)`. Stable across shard counts (slot indices
    /// are not, so they must never reach the event queue).
    key: u64,
    /// A load stalled on a full MSHR, awaiting replay.
    pending_load: Option<LineAddr>,
    /// Misses currently in flight for this warp.
    outstanding: u32,
    /// Latest data-ready time among resolved loads (the warp cannot
    /// retire or pass a use-sync point before it).
    resume_at: Cycle,
    /// Blocked at the MLP limit, waiting for any one load to land.
    blocked: bool,
    /// Out of instructions, waiting for in-flight loads to drain.
    draining: bool,
    /// Home locality of the warp's most recent outstanding miss — pure
    /// probe bookkeeping (attributes memory-wait phases to local vs
    /// remote); never consulted by the timing model, and not maintained
    /// when the probe is inactive.
    wait_loc: Locality,
}

struct CtaRt {
    warps_remaining: u32,
    sm: u32,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Stage {
    /// Probe the L1.5 and cross the module's crossbar.
    Access,
    /// Ride the ring toward the home module, one hop per event.
    ToHome {
        /// Node the message currently sits at.
        at: u8,
        /// Direction of travel.
        dir: RingDir,
        /// Hops still to take.
        left: u8,
    },
    /// Access the home L2/DRAM.
    AtMem,
    /// Ride the ring back to the requester, one hop per event.
    ToRequester {
        /// Node the response currently sits at.
        at: u8,
        /// Direction of travel.
        dir: RingDir,
        /// Hops still to take.
        left: u8,
    },
    /// The response arrived at the requesting module; fill the caches
    /// and wake the waiters. A separate stage (rather than completing
    /// inline at the last ring hop) so the completion always runs on
    /// the shard that owns the requesting SM.
    Deliver,
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct Req {
    /// Run-unique content id: `(sm << 40) | per-SM issue counter`.
    /// Derived from the issuing SM rather than a global counter so the
    /// id — which keys the event queue, the probe's request lifecycle,
    /// and the fault plan's poison draws — is identical no matter how
    /// the run is sharded.
    pub(crate) id: u64,
    line: LineAddr,
    sm: u32,
    pub(crate) module: u8,
    home: u8,
    locality: Locality,
    pub(crate) is_read: bool,
    l15_fill: bool,
    pub(crate) stage: Stage,
    /// Whether a poisoned fill already forced one replay — bounds the
    /// fault layer's MSHR-poison penalty to a single round trip.
    replayed: bool,
    /// The request's slot in the *origin* shard's arena. While the
    /// request travels through other shards it occupies temporary
    /// slots there; the origin slot (which the MSHR and the waiter
    /// list point at) stays reserved until delivery. In a serial run
    /// this is simply the request's own slot.
    pub(crate) origin_slot: u32,
}

impl Req {
    /// Ring payload for the request leg: a control packet for reads,
    /// the full store data for writes.
    fn request_bytes(&self) -> u64 {
        if self.is_read {
            REQUEST_BYTES
        } else {
            mcm_mem::addr::LINE_BYTES
        }
    }

    /// The module whose owner must process the *next* event for this
    /// request (given `stage` already names the upcoming stage).
    pub(crate) fn stage_module(&self) -> u8 {
        match self.stage {
            Stage::Access | Stage::Deliver => self.module,
            Stage::ToHome { at, .. } | Stage::ToRequester { at, .. } => at,
            Stage::AtMem => self.home,
        }
    }
}

/// How a run-loop method reaches the CTA pool: the serial loop hands an
/// exclusive borrow straight through; a shard locks the team's shared
/// pool only for the draw itself.
pub(crate) enum PoolRef<'p> {
    /// Exclusive access (serial runs, and the leader's kernel-boundary
    /// placement in sharded runs).
    Direct(&'p mut CtaPool),
    /// The team-shared pool of a sharded run.
    Shared(&'p std::sync::Mutex<CtaPool>),
}

pub(crate) struct RunState<'a, P: Probe, F: FaultPlan> {
    pub(crate) spec: &'a WorkloadSpec,
    pub(crate) probe: P,
    pub(crate) plan: F,
    pub(crate) sys: McmSystem,
    pub(crate) queue: EventQueue<Ev>,
    warps: Vec<Option<WarpRt>>,
    free_warps: Vec<u32>,
    ctas: Vec<Option<CtaRt>>,
    free_ctas: Vec<u32>,
    reqs: Vec<Option<Req>>,
    free_reqs: Vec<u32>,
    /// Warps blocked on each request slot's fill (reads only; includes
    /// the initiator). Parallel to `reqs` and pooled with it: a slot's
    /// waiter list is drained with `clear()` at completion, so its
    /// buffer is reused by the slot's next occupant instead of being
    /// reallocated per request.
    waiters: Vec<Vec<u32>>,
    /// Per-SM warps stalled on a full MSHR.
    stalled: Vec<Vec<u32>>,
    /// Per-module hard-degradation mask, refreshed at each kernel
    /// launch from the fault plan; only consulted when `F::ACTIVE`.
    pub(crate) disabled: Vec<bool>,
    pub(crate) kernel: u32,
    /// Latest timestamp any event reached.
    pub(crate) horizon: Cycle,
    /// Per-SM issue counters feeding [`Req::id`].
    req_seq: Vec<u64>,
    /// Capacity reserved for a slot's waiter buffer at its first use.
    /// Serial runs leave this at zero (buffers grow once during warm-up
    /// and are recycled); sharded runs reserve the per-request ceiling
    /// up front because cross-shard temp-slot churn keeps minting cold
    /// slots well past warm-up, and each first growth would break the
    /// steady-state zero-allocation contract.
    waiter_reserve: usize,
    /// Sharded-execution context; `None` for a serial run. A runtime
    /// field rather than a type parameter: the branch sits on cold
    /// paths (request push, home resolution, pool draw), never in the
    /// per-cycle hot loop.
    pub(crate) shard: Option<ShardCtx>,
}

impl Simulator {
    /// Runs `spec` to completion on `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if either the configuration or the workload fails
    /// validation.
    pub fn run(cfg: &SystemConfig, spec: &WorkloadSpec) -> RunReport {
        Simulator::run_with(cfg, spec, &mut NullProbe, &mut NullFaultPlan, 1).0
    }

    /// Runs `spec` to completion on `cfg`, streaming fine-grained
    /// events to `probe` (see [`Simulator::run_with`]).
    ///
    /// # Panics
    ///
    /// Panics if either the configuration or the workload fails
    /// validation.
    pub fn run_probed<P: Probe + Send>(
        cfg: &SystemConfig,
        spec: &WorkloadSpec,
        probe: &mut P,
    ) -> RunReport {
        Simulator::run_with(cfg, spec, probe, &mut NullFaultPlan, 1).0
    }

    /// Runs `spec` on `cfg` split across `shards` cores, producing the
    /// same [`RunReport`] as [`Simulator::run`] bit-for-bit (see
    /// [`Simulator::run_with`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration or workload fails validation, or if
    /// `shards` is zero.
    pub fn run_sharded(cfg: &SystemConfig, spec: &WorkloadSpec, shards: usize) -> RunReport {
        Simulator::run_with(cfg, spec, &mut NullProbe, &mut NullFaultPlan, shards).0
    }

    /// Runs `spec` to completion on `cfg` across `shards` cores under
    /// fault plan `plan`, streaming fine-grained events (including
    /// [`FaultEvent`]s) to `probe`; also returns the run's
    /// [`ShardRunStats`].
    ///
    /// Probes are passive observers: the timing model never consults
    /// them, so an instrumented run is cycle-identical to
    /// [`Simulator::run`]. The plan is consulted at every link
    /// traversal (transient CRC errors → retransmit with backoff),
    /// every DRAM access (thermal throttle windows), every read
    /// completion (poisoned MSHR fill → one bounded replay), and every
    /// kernel launch (hard GPM loss → the CTA scheduler resteals the
    /// dead modules' work onto survivors). With [`NullProbe`] and
    /// [`NullFaultPlan`] (whose `ACTIVE` consts are `false`) every hook
    /// call and every consultation monomorphizes away, so `run` pays
    /// nothing for them.
    ///
    /// `shards` is clamped per [`effective_shards`]; `shards <= 1` (or
    /// a config with no usable lookahead) runs the serial engine. The
    /// plan is forked (`Clone`) per shard; deterministic plans (all the
    /// crate ships) consult pure seeded draws or per-link state that
    /// sharding partitions exactly, so faulted runs stay bit-identical
    /// to their serial counterparts. A probe with `Probe::ACTIVE ==
    /// true` observes the *global* event interleaving and therefore
    /// falls back to the serial engine (reported as `shards: 1` in the
    /// stats); inactive probes still receive `kernel_begin`/`kernel_end`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration or workload fails validation, if
    /// `shards` is zero, or if the plan disables every module of the
    /// machine.
    pub fn run_with<P: Probe + Send, F: FaultPlan + Clone + Send>(
        cfg: &SystemConfig,
        spec: &WorkloadSpec,
        probe: &mut P,
        plan: &mut F,
        shards: usize,
    ) -> (RunReport, ShardRunStats) {
        assert!(shards >= 1, "need at least one shard");
        cfg.validate().expect("invalid system configuration");
        spec.validate().expect("invalid workload spec");
        let eff = effective_shards(cfg, shards);
        if P::ACTIVE && eff > 1 {
            // The caller asked for a sharded run but an active probe
            // needs the global event stream — say so once, loudly,
            // instead of silently degrading.
            shard_tele().probe_fallbacks.inc();
            static WARN: Once = Once::new();
            WARN.call_once(|| {
                eprintln!(
                    "mcm-gpu: warning: MCM_SHARDS={shards} requested but an active probe \
                     observes the global event stream; falling back to the serial engine \
                     (drop MCM_TRACE/MCM_METRICS or set MCM_SHARDS=1 to silence)"
                );
            });
        }
        if P::ACTIVE || eff <= 1 {
            let report = run_serial(cfg, spec, probe, plan);
            return (report, ShardRunStats::serial());
        }
        run_sharded(cfg, spec, probe, plan, eff)
    }
}

/// The serial engine: one queue, one thread. The blanket `&mut`
/// forwarding impls let the state own `probe`/`plan` by value here
/// while callers keep their exclusive borrows.
fn run_serial<P: Probe, F: FaultPlan>(
    cfg: &SystemConfig,
    spec: &WorkloadSpec,
    probe: &mut P,
    plan: &mut F,
) -> RunReport {
    let mut state: RunState<'_, &mut P, &mut F> = RunState::new(cfg, spec, probe, plan, None);
    let sm_order = module_interleaved_order(state.sys.modules(), state.sys.total_sms());

    // One pool for the whole run: later kernels rewind it in place
    // (`reset` keeps queue capacity), so steady-state launches
    // allocate nothing.
    let mut pool = CtaPool::new(cfg.scheduler, spec.ctas, state.sys.modules() as u32);
    let mut now = Cycle::ZERO;
    for kernel in 0..spec.kernel_iters {
        state.kernel = kernel;
        state.horizon = now;
        state.probe.kernel_begin(kernel, now);
        if kernel > 0 {
            pool.reset();
        }

        if F::ACTIVE && state.refresh_disabled(kernel, now) {
            gpm_resteal_counter().inc();
            pool.resteal_disabled(&state.disabled);
        }

        // A fresh launch restarts same-cycle wave numbering, so the
        // initial placement's event coordinates do not depend on how
        // the previous kernel's tail happened to drain.
        state.queue.sync_to(now);

        // Initial placement: one CTA per SM per round until no SM
        // can take more (or the pool runs dry).
        loop {
            let mut admitted = false;
            for &sm in &sm_order {
                if state.admit_cta(&mut PoolRef::Direct(&mut pool), sm, now) {
                    admitted = true;
                }
            }
            if !admitted {
                break;
            }
        }

        // Drain the launch: warps, then their trailing stores.
        while let Some((t, ev)) = state.queue.pop() {
            state.horizon = state.horizon.max(t);
            if P::ACTIVE {
                state.probe.queue_depth(t, state.queue.len());
            }
            match ev {
                Ev::Warp(widx) => state.advance_warp(&mut PoolRef::Direct(&mut pool), widx, t),
                Ev::Req(ridx) => state.advance_req(ridx, t),
            }
        }

        debug_assert!(pool.is_exhausted(), "kernel drained with unscheduled CTAs");
        now = state.horizon;
        state.probe.kernel_end(kernel, now);
        state.sys.flush_private_caches();
    }

    finish_report(cfg, spec, now, state.sys)
}

/// SMs in module-interleaved order: the centralized scheduler's
/// round-robin then sends consecutive CTAs to different modules, the
/// steady state of Fig. 8(a).
pub(crate) fn module_interleaved_order(modules: usize, total_sms: usize) -> Vec<usize> {
    let per_module = total_sms / modules;
    let mut sm_order = Vec::with_capacity(total_sms);
    for slot in 0..per_module {
        for m in 0..modules {
            sm_order.push(m * per_module + slot);
        }
    }
    sm_order
}

/// Assembles the final [`RunReport`] from a drained machine.
pub(crate) fn finish_report(
    cfg: &SystemConfig,
    spec: &WorkloadSpec,
    now: Cycle,
    sys: McmSystem,
) -> RunReport {
    RunReport {
        workload: spec.name.to_string(),
        config: cfg.name.clone(),
        cycles: now,
        instructions: sys.instructions(),
        mem_ops: sys.reads() + sys.writes(),
        reads: sys.reads(),
        writes: sys.writes(),
        local_accesses: sys.local_accesses(),
        remote_accesses: sys.remote_accesses(),
        l1: sys.l1_ratio(),
        l15: sys.l15_ratio(),
        l2: sys.l2_ratio(),
        inter_module_bytes: sys.inter_module_bytes(),
        dram_bytes: sys.dram_bytes(),
        energy: sys.energy_ledger(),
        modules: sys.module_stats(),
    }
}

impl<'a, P: Probe, F: FaultPlan> RunState<'a, P, F> {
    /// Builds the per-run (or per-shard) state: a fresh machine and
    /// pre-sized slot arenas.
    ///
    /// The arenas are sized to their occupancy ceilings so the hot loop
    /// never regrows them: warps and CTAs are bounded by SM occupancy,
    /// read requests by total MSHR capacity. Fire-and-forget stores can
    /// exceed the MSHR bound, so `reqs` keeps a store-burst slack
    /// proportional to resident warps and may still grow once on a
    /// pathological store storm — after which the arena is at peak and
    /// stays allocation-free.
    pub(crate) fn new(
        cfg: &SystemConfig,
        spec: &'a WorkloadSpec,
        probe: P,
        plan: F,
        shard: Option<ShardCtx>,
    ) -> Self {
        let sys = McmSystem::new(cfg);
        let total_sms = sys.total_sms();
        let module_count = sys.modules();
        let warp_cap = (total_sms * cfg.sm.max_warps as usize).min(1 << 20);
        let cta_cap = if spec.warps_per_cta == 0 {
            spec.ctas as usize
        } else {
            (warp_cap / spec.warps_per_cta as usize + 1).min(spec.ctas as usize)
        };
        let req_cap = (total_sms * cfg.sm.mshr_entries + warp_cap).min(1 << 20);
        let waiter_reserve = if shard.is_some() {
            cfg.sm.max_warps as usize
        } else {
            0
        };
        let mut reqs: Vec<Option<Req>> = Vec::with_capacity(req_cap);
        let mut free_reqs: Vec<u32> = Vec::with_capacity(req_cap);
        let mut waiters: Vec<Vec<u32>> = Vec::with_capacity(req_cap);
        if shard.is_some() {
            // Sharded runs pre-warm the whole request arena (slots and
            // their waiter buffers) to the occupancy ceiling: epoch-by-
            // epoch temp-slot churn keeps nudging the live-slot high-
            // water mark for the entire run, and every first touch of a
            // fresh slot past warm-up would break the per-shard
            // zero-allocation steady state. Serial runs keep the lazy
            // grow-to-peak behaviour (their peak settles in kernel 0).
            reqs.resize_with(req_cap, || None);
            waiters.resize_with(req_cap, || Vec::with_capacity(waiter_reserve));
            free_reqs.extend((0..req_cap as u32).rev());
        }
        RunState {
            spec,
            probe,
            plan,
            sys,
            queue: EventQueue::with_capacity(4096),
            warps: Vec::with_capacity(warp_cap),
            free_warps: Vec::with_capacity(warp_cap),
            ctas: Vec::with_capacity(cta_cap),
            free_ctas: Vec::with_capacity(cta_cap),
            reqs,
            free_reqs,
            waiters,
            stalled: vec![Vec::new(); total_sms],
            disabled: vec![false; module_count],
            kernel: 0,
            horizon: Cycle::ZERO,
            req_seq: vec![0; total_sms],
            waiter_reserve,
            shard,
        }
    }

    /// Stores `req` in a free slot (the slot's previous waiter buffer
    /// is retained, drained).
    fn alloc_slot(&mut self, req: Req) -> u32 {
        match self.free_reqs.pop() {
            Some(slot) => {
                debug_assert!(self.waiters[slot as usize].is_empty());
                self.reqs[slot as usize] = Some(req);
                slot
            }
            None => {
                self.reqs.push(Some(req));
                // All waiters on one request are warps of its issuing
                // SM, so `max_warps` bounds the buffer for good.
                self.waiters.push(Vec::with_capacity(self.waiter_reserve));
                (self.reqs.len() - 1) as u32
            }
        }
    }

    /// Allocates the *origin* slot for a freshly issued request and
    /// stamps it into `origin_slot`.
    fn alloc_req(&mut self, req: Req) -> u32 {
        let slot = self.alloc_slot(req);
        self.reqs[slot as usize]
            .as_mut()
            .expect("slot just filled")
            .origin_slot = slot;
        slot
    }

    /// Allocates a *temporary* slot for a request visiting from another
    /// shard, preserving its foreign `origin_slot`.
    fn alloc_temp(&mut self, req: Req) -> u32 {
        self.alloc_slot(req)
    }

    /// Refreshes the hard-degradation mask from the fault plan at a
    /// launch boundary (a GPM cannot die mid-kernel under the paper's
    /// software-coherence model); returns whether any module is dead.
    pub(crate) fn refresh_disabled(&mut self, kernel: u32, now: Cycle) -> bool {
        let mut any_dead = false;
        for m in 0..self.sys.modules() {
            let dead = self.plan.module_disabled(m, kernel);
            self.disabled[m] = dead;
            if dead {
                any_dead = true;
                if P::ACTIVE {
                    self.probe.fault(
                        now,
                        FaultEvent::ModuleDisabled {
                            module: m as u32,
                            kernel,
                        },
                    );
                }
            }
        }
        any_dead
    }

    /// Resolves the home module and locality of `line` for an access
    /// from `module`.
    ///
    /// Serial runs (and sharded runs under pure placement policies,
    /// whose page maps are stateless functions every shard replicates)
    /// go straight to the local machine. Sharded first-touch runs
    /// consult a per-shard cache of settled mappings first — a settled
    /// page can never re-map, so a hit needs no cross-shard ordering —
    /// and only sequence against the team for genuinely new pages,
    /// where the *order* of first touches decides the placement.
    fn resolve_home(&mut self, line: LineAddr, module: usize) -> (usize, Locality) {
        let RunState { shard, sys, .. } = self;
        let Some(ctx) = shard else {
            return sys.home_of(line, module);
        };
        let Some(shared) = &ctx.shared_pages else {
            return sys.home_of(line, module);
        };
        let page = line.index() / ctx.ft_page_lines;
        if let Some(&home) = ctx.ft_cache.get(&page) {
            ctx.ft_extra_lookups += 1;
            let home = usize::from(home);
            return (home, sys.note_locality(home, module));
        }
        // A page this shard has not seen: take the draw in canonical
        // order, so whichever shard's access is globally first touches
        // first — exactly the serial placement.
        ctx.seq.wait_until_min(ctx.me, ctx.pos);
        let mapped = {
            let mut pages = shared
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            pages.partition_for(line, mcm_mem::addr::PartitionId(module as u8))
        };
        let home = mapped.as_usize();
        ctx.ft_cache.insert(page, home as u8);
        (home, sys.note_locality(home, module))
    }

    /// Tries to pull one CTA from the pool onto `sm`; returns whether a
    /// CTA was admitted.
    pub(crate) fn admit_cta(&mut self, pool: &mut PoolRef<'_>, sm: usize, now: Cycle) -> bool {
        let warps = self.spec.warps_per_cta;
        // Check occupancy *before* drawing from the pool: a drawn CTA
        // cannot be returned.
        if self.sys.sm(sm).resident_warps() + warps > self.sys.sm(sm).config().max_warps {
            return false;
        }
        let module = self.sys.module_of(sm);
        // A hard-degraded GPM admits nothing; its share of the pool was
        // restolen to survivors at the launch boundary.
        if F::ACTIVE && self.disabled[module] {
            return false;
        }
        let drawn = match pool {
            PoolRef::Direct(p) => p.next_cta(module),
            PoolRef::Shared(shared) => {
                let ctx = self.shard.as_ref().expect("shared pool outside shard mode");
                // Centralized/dynamic draws read global scheduler state
                // whose hand-out order is the result; take them in
                // canonical event order. Distributed/chunked draws only
                // touch this module's own queue, which no other shard
                // ever reads.
                if ctx.needs_draw_sequencing {
                    ctx.seq.wait_until_min(ctx.me, ctx.pos);
                }
                shared
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .next_cta(module)
            }
        };
        let Some(cta) = drawn else {
            return false;
        };
        assert!(self.sys.sm_mut(sm).try_admit(warps));

        let cta_slot = match self.free_ctas.pop() {
            Some(slot) => slot,
            None => {
                self.ctas.push(None);
                (self.ctas.len() - 1) as u32
            }
        };
        self.ctas[cta_slot as usize] = Some(CtaRt {
            warps_remaining: warps,
            sm: sm as u32,
        });

        for w in 0..warps {
            let key = TAG_WARP | (u64::from(cta) * u64::from(warps) + u64::from(w));
            let rt = WarpRt {
                stream: WarpStream::new(self.spec, self.kernel, cta, w),
                sm: sm as u32,
                cta_slot,
                key,
                pending_load: None,
                outstanding: 0,
                resume_at: now,
                blocked: false,
                draining: false,
                wait_loc: Locality::Local,
            };
            let widx = match self.free_warps.pop() {
                Some(slot) => {
                    self.warps[slot as usize] = Some(rt);
                    slot
                }
                None => {
                    self.warps.push(Some(rt));
                    (self.warps.len() - 1) as u32
                }
            };
            if P::ACTIVE {
                self.probe.warp_spawn(widx, sm as u32, now);
            }
            self.queue.push(now, key, Ev::Warp(widx));
        }
        true
    }

    /// Advances warp `widx` from time `t` until it hits its MLP limit,
    /// stalls on a full MSHR, runs out of instructions with loads still
    /// in flight, or retires.
    ///
    /// Loads are non-blocking up to `mlp_per_warp` in flight (register
    /// level memory parallelism): L1 hits only raise the warp's
    /// `resume_at` use-sync point, and every `mlp_per_warp` loads the
    /// warp synchronizes with it — modelling the consume of the oldest
    /// load without an extra event.
    pub(crate) fn advance_warp(&mut self, pool: &mut PoolRef<'_>, widx: u32, t: Cycle) {
        let mut warp = self.warps[widx as usize]
            .take()
            .expect("event for dead warp");
        let mlp = self.sys.sm(warp.sm as usize).config().mlp_per_warp.max(1);
        let sm = warp.sm;
        let mut t = t;

        // The wake at `t` closes whatever wait phase the warp parked in
        // (memory, MSHR-full, drain — or the initial issue slice).
        if P::ACTIVE {
            self.probe.warp_phase(widx, sm, t, WarpPhase::Issue);
        }
        // Phase the warp is in *locally*, to emit transitions only on
        // change (the probe charges intervals to the phase being left).
        let mut cur = WarpPhase::Issue;

        // A load stalled on a full MSHR replays first.
        if let Some(line) = warp.pending_load.take() {
            let keep_going = self.issue_load(&mut warp, widx, t, line);
            if !keep_going || warp.outstanding >= mlp {
                warp.blocked = warp.outstanding >= mlp && warp.pending_load.is_none();
                if P::ACTIVE {
                    let phase = if warp.pending_load.is_some() {
                        WarpPhase::MshrFull
                    } else {
                        WarpPhase::mem(warp.wait_loc.is_remote())
                    };
                    self.probe.warp_phase(widx, sm, t, phase);
                }
                self.warps[widx as usize] = Some(warp);
                return;
            }
        }

        let mut reads_since_sync = 0u32;
        loop {
            match warp.stream.next() {
                Some(WarpOp::Compute(n)) => {
                    if P::ACTIVE && cur != WarpPhase::Compute {
                        self.probe.warp_phase(widx, sm, t, WarpPhase::Compute);
                        cur = WarpPhase::Compute;
                    }
                    t = self.sys.compute(t, warp.sm as usize, n);
                }
                Some(WarpOp::Access { addr, kind }) => {
                    if P::ACTIVE && cur != WarpPhase::Issue {
                        self.probe.warp_phase(widx, sm, t, WarpPhase::Issue);
                        cur = WarpPhase::Issue;
                    }
                    if kind.is_write() {
                        t = self.issue_store(&warp, t, addr.line());
                    } else {
                        let keep_going = self.issue_load(&mut warp, widx, t, addr.line());
                        if !keep_going {
                            // MSHR full: warp parked on the stall list.
                            if P::ACTIVE {
                                self.probe.warp_phase(widx, sm, t, WarpPhase::MshrFull);
                            }
                            self.warps[widx as usize] = Some(warp);
                            return;
                        }
                        if warp.outstanding >= mlp {
                            warp.blocked = true;
                            if P::ACTIVE {
                                let phase = WarpPhase::mem(warp.wait_loc.is_remote());
                                self.probe.warp_phase(widx, sm, t, phase);
                            }
                            self.warps[widx as usize] = Some(warp);
                            return;
                        }
                        reads_since_sync += 1;
                        if reads_since_sync >= mlp {
                            // Use-sync: consume the oldest batch of
                            // resolved loads.
                            if P::ACTIVE && warp.resume_at > t {
                                let phase = WarpPhase::mem(warp.wait_loc.is_remote());
                                self.probe.warp_phase(widx, sm, t, phase);
                                self.probe
                                    .warp_phase(widx, sm, warp.resume_at, WarpPhase::Issue);
                            }
                            t = t.max(warp.resume_at);
                            reads_since_sync = 0;
                        }
                    }
                }
                None => {
                    if warp.outstanding > 0 {
                        warp.draining = true;
                        if P::ACTIVE {
                            self.probe.warp_phase(widx, sm, t, WarpPhase::Drain);
                        }
                        self.warps[widx as usize] = Some(warp);
                        return;
                    }
                    let end = t.max(warp.resume_at);
                    if P::ACTIVE {
                        if end > t {
                            // The tail wait for already-resolved loads.
                            let phase = WarpPhase::mem(warp.wait_loc.is_remote());
                            self.probe.warp_phase(widx, sm, t, phase);
                        }
                        self.probe.warp_retire(widx, sm, end);
                    }
                    self.horizon = self.horizon.max(end);
                    self.retire_warp(pool, warp, widx, end);
                    return;
                }
            }
        }
    }

    /// Retires a finished warp, releasing its CTA when it is the last.
    fn retire_warp(&mut self, pool: &mut PoolRef<'_>, warp: WarpRt, widx: u32, t: Cycle) {
        let sm = warp.sm;
        let cta_slot = warp.cta_slot;
        self.free_warps.push(widx);
        let cta = self.ctas[cta_slot as usize]
            .as_mut()
            .expect("warp retired into missing CTA");
        cta.warps_remaining -= 1;
        if cta.warps_remaining == 0 {
            debug_assert_eq!(cta.sm, sm);
            self.ctas[cta_slot as usize] = None;
            self.free_ctas.push(cta_slot);
            self.sys
                .sm_mut(sm as usize)
                .retire_warps(self.spec.warps_per_cta);
            // The freed SM immediately pulls its next CTA.
            self.admit_cta(pool, sm as usize, t);
        }
    }

    /// Issues one load: L1 probe, MSHR coalescing/reservation, request
    /// creation. Returns `false` when the warp stalled on a full MSHR
    /// (it was parked on the stall list); `true` otherwise. L1 hits
    /// only advance the warp's `resume_at`; misses raise `outstanding`.
    fn issue_load(&mut self, warp: &mut WarpRt, widx: u32, t: Cycle, line: LineAddr) -> bool {
        let sm = warp.sm as usize;
        let (_, outcome) = self
            .sys
            .l1_access(t, sm, line, AccessKind::Read, &mut self.probe);
        match outcome {
            CacheOutcome::Hit { ready_at } => {
                warp.resume_at = warp.resume_at.max(ready_at);
                true
            }
            CacheOutcome::Miss { ready_at, .. } => match self.sys.mshr_mut(sm).lookup(line) {
                MshrLookup::InFlight(req) => {
                    let shared = self.reqs[req as usize]
                        .as_ref()
                        .expect("MSHR points at freed request");
                    self.waiters[req as usize].push(widx);
                    if P::ACTIVE {
                        warp.wait_loc = shared.locality;
                    }
                    warp.outstanding += 1;
                    true
                }
                MshrLookup::CanIssue => {
                    let module = self.sys.module_of(sm);
                    let (home, locality) = self.resolve_home(line, module);
                    let id = self.next_req_id(sm);
                    let ridx = self.alloc_req(Req {
                        id,
                        line,
                        sm: warp.sm,
                        module: module as u8,
                        home: home as u8,
                        locality,
                        is_read: true,
                        l15_fill: false,
                        stage: Stage::Access,
                        replayed: false,
                        origin_slot: 0, // stamped by alloc_req
                    });
                    self.waiters[ridx as usize].push(widx);
                    self.sys
                        .mshr_reserve(t, sm, line, u64::from(ridx), &mut self.probe);
                    if P::ACTIVE {
                        warp.wait_loc = locality;
                        // Stamped at the departure event, so the trace
                        // span opens no later than its first stage.
                        self.probe.request_issued(
                            id,
                            ready_at,
                            RequestMeta {
                                sm: warp.sm,
                                module: module as u8,
                                home: home as u8,
                                remote: locality.is_remote(),
                                is_read: true,
                            },
                        );
                    }
                    self.queue.push(ready_at, TAG_REQ | id, Ev::Req(ridx));
                    warp.outstanding += 1;
                    true
                }
                MshrLookup::Full => {
                    warp.pending_load = Some(line);
                    self.stalled[sm].push(widx);
                    false
                }
            },
            CacheOutcome::Bypass => unreachable!("L1 has no allocation filter"),
        }
    }

    /// Issues a store: write-through L1, then a fire-and-forget request
    /// event chain. Returns the time at which the warp may continue.
    fn issue_store(&mut self, warp: &WarpRt, t: Cycle, line: LineAddr) -> Cycle {
        let sm = warp.sm as usize;
        let (issued, outcome) = self
            .sys
            .l1_access(t, sm, line, AccessKind::Write, &mut self.probe);
        let depart = match outcome {
            CacheOutcome::Hit { ready_at } | CacheOutcome::Miss { ready_at, .. } => ready_at,
            CacheOutcome::Bypass => issued,
        };
        let module = self.sys.module_of(sm);
        let (home, locality) = self.resolve_home(line, module);
        let id = self.next_req_id(sm);
        let ridx = self.alloc_req(Req {
            id,
            line,
            sm: warp.sm,
            module: module as u8,
            home: home as u8,
            locality,
            is_read: false,
            l15_fill: false,
            stage: Stage::Access,
            replayed: false,
            origin_slot: 0, // stamped by alloc_req
        });
        if P::ACTIVE {
            self.probe.request_issued(
                id,
                depart,
                RequestMeta {
                    sm: warp.sm,
                    module: module as u8,
                    home: home as u8,
                    remote: locality.is_remote(),
                    is_read: false,
                },
            );
        }
        self.queue.push(depart, TAG_REQ | id, Ev::Req(ridx));
        issued
    }

    /// Hands out the next request id for `sm` (see [`Req::id`]).
    fn next_req_id(&mut self, sm: usize) -> u64 {
        let seq = self.req_seq[sm];
        self.req_seq[sm] = seq + 1;
        debug_assert!(seq < 1 << 40, "per-SM request sequence overflow");
        ((sm as u64) << 40) | seq
    }

    /// Advances request `ridx` from event time `now` through one or
    /// more stages.
    ///
    /// Each stage computes the request's next event time `t_next`. When
    /// probes are inactive, the common `Stage::Access` → ring-hop →
    /// memory chains are advanced **inline** whenever no other pending
    /// event is due at or before `t_next` — i.e. exactly when the
    /// request would be the queue's sole earliest event. Skipping the
    /// push/pop round trip is then observationally identical: the
    /// global processing order (and with it every resource-model and
    /// fault-plan consultation order) is unchanged, so runs stay
    /// bit-exact. With an active probe the request is always re-queued,
    /// because `Probe::queue_depth` observes every pop. A shard
    /// additionally refuses to chain past its epoch window or onto a
    /// stage another shard owns.
    pub(crate) fn advance_req(&mut self, ridx: u32, now: Cycle) {
        let mut req = self.reqs[ridx as usize]
            .take()
            .expect("event for freed request");
        let mut now = now;
        loop {
            if P::ACTIVE {
                let stage = match req.stage {
                    Stage::Access => Some(ReqStage::Access),
                    Stage::ToHome { at, .. } => Some(ReqStage::ToHome { at }),
                    Stage::AtMem => Some(ReqStage::Mem),
                    Stage::ToRequester { at, .. } => Some(ReqStage::ToRequester { at }),
                    // Delivery is a scheduling artifact (the completion
                    // itself is observed via `request_retired`).
                    Stage::Deliver => None,
                };
                if let Some(stage) = stage {
                    self.probe.request_stage(req.id, now, stage);
                }
            }
            let t_next = match req.stage {
                Stage::Access => {
                    let module = usize::from(req.module);
                    let kind = if req.is_read {
                        AccessKind::Read
                    } else {
                        AccessKind::Write
                    };
                    let mut t = now;
                    match self.sys.l15_access(
                        now,
                        module,
                        req.line,
                        kind,
                        req.locality,
                        &mut self.probe,
                    ) {
                        L15Outcome::Hit { ready_at } => {
                            if req.is_read {
                                self.complete_read(req, ridx, ready_at);
                                return;
                            }
                            // Write-through: the store continues
                            // downstream.
                            t = ready_at;
                        }
                        L15Outcome::Miss { ready_at, fill } => {
                            req.l15_fill = fill;
                            t = ready_at;
                        }
                        L15Outcome::NotPresent => {}
                    }
                    let out = self.sys.fabric_out(t, module, &mut self.probe);
                    if module == usize::from(req.home) {
                        req.stage = Stage::AtMem;
                    } else {
                        let (dir, hops) = self.sys.ring_route(module, usize::from(req.home));
                        debug_assert!(hops > 0);
                        req.stage = Stage::ToHome {
                            at: req.module,
                            dir,
                            left: hops as u8,
                        };
                    }
                    out
                }
                Stage::ToHome { at, dir, left } => {
                    let bytes = req.request_bytes();
                    let (next, arrival) = self.sys.ring_hop(
                        now,
                        usize::from(at),
                        usize::from(req.home),
                        dir,
                        bytes,
                        &mut self.probe,
                        &mut self.plan,
                    );
                    req.stage = if left == 1 {
                        debug_assert_eq!(next, usize::from(req.home));
                        Stage::AtMem
                    } else {
                        Stage::ToHome {
                            at: next as u8,
                            dir,
                            left: left - 1,
                        }
                    };
                    arrival
                }
                Stage::AtMem => {
                    let home = usize::from(req.home);
                    if req.is_read {
                        let ready = self.sys.mem_read(
                            now,
                            home,
                            req.line,
                            req.locality,
                            &mut self.probe,
                            &mut self.plan,
                        );
                        if req.locality.is_remote() {
                            let (dir, hops) = self.sys.ring_route(home, usize::from(req.module));
                            debug_assert!(hops > 0);
                            req.stage = Stage::ToRequester {
                                at: req.home,
                                dir,
                                left: hops as u8,
                            };
                            ready
                        } else {
                            self.complete_read(req, ridx, ready);
                            return;
                        }
                    } else {
                        self.sys.mem_write(
                            now,
                            home,
                            req.line,
                            req.locality,
                            &mut self.probe,
                            &mut self.plan,
                        );
                        if P::ACTIVE {
                            self.probe.request_retired(req.id, now);
                        }
                        self.horizon = self.horizon.max(now);
                        self.free_reqs.push(ridx);
                        return;
                    }
                }
                Stage::ToRequester { at, dir, left } => {
                    let (next, arrival) = self.sys.ring_hop(
                        now,
                        usize::from(at),
                        usize::from(req.module),
                        dir,
                        mcm_mem::addr::LINE_BYTES,
                        &mut self.probe,
                        &mut self.plan,
                    );
                    if left == 1 {
                        debug_assert_eq!(next, usize::from(req.module));
                        req.stage = Stage::Deliver;
                    } else {
                        req.stage = Stage::ToRequester {
                            at: next as u8,
                            dir,
                            left: left - 1,
                        };
                    }
                    arrival
                }
                Stage::Deliver => {
                    self.complete_read(req, ridx, now);
                    return;
                }
            };
            // Inline the next stage if this event would be the queue's
            // sole earliest pop anyway (strictly earlier than every
            // pending event; equal-time ties must go through the queue
            // for the keyed order to arbitrate them).
            if !P::ACTIVE
                && self.chain_allowed(&req, t_next)
                && self
                    .queue
                    .peek_time()
                    .is_none_or(|pending| pending > t_next)
            {
                if let Some(ctx) = &mut self.shard {
                    // A chained continuation occupies exactly the
                    // canonical coordinates the queued event would
                    // have had.
                    ctx.pos = (t_next.as_u64(), 0, TAG_REQ | req.id);
                }
                now = t_next;
                continue;
            }
            self.push_req(t_next, ridx, req);
            return;
        }
    }

    /// Whether a request may continue inline to its next stage at
    /// `t_next` (see [`RunState::advance_req`]). Serial runs always
    /// may; a shard must stop at its epoch window and at any stage
    /// another shard owns.
    fn chain_allowed(&self, req: &Req, t_next: Cycle) -> bool {
        match &self.shard {
            None => true,
            Some(ctx) => {
                t_next < ctx.epoch_end && usize::from(req.stage_module()) % ctx.shards == ctx.me
            }
        }
    }

    /// Schedules the next event for `req` at `t`: onto the local queue
    /// when this shard owns the next stage (always, when serial),
    /// otherwise into the outbox for the epoch-boundary exchange.
    fn push_req(&mut self, t: Cycle, ridx: u32, req: Req) {
        let key = TAG_REQ | req.id;
        let Some(ctx) = &mut self.shard else {
            self.reqs[ridx as usize] = Some(req);
            self.queue.push(t, key, Ev::Req(ridx));
            return;
        };
        let dest = usize::from(req.stage_module());
        if dest % ctx.shards == ctx.me {
            // Deliveries must land in the origin slot (the MSHR and
            // waiter list point there); retire a temp slot the request
            // rode in on.
            let ridx = if matches!(req.stage, Stage::Deliver) && ridx != req.origin_slot {
                debug_assert!(self.waiters[ridx as usize].is_empty());
                self.free_reqs.push(ridx);
                req.origin_slot
            } else {
                ridx
            };
            self.reqs[ridx as usize] = Some(req);
            self.queue.push(t, key, Ev::Req(ridx));
            return;
        }
        ctx.sent += 1;
        ctx.outbox.push(Msg {
            at: t,
            key,
            req,
            epoch: ctx.epoch,
        });
        // An origin read slot stays reserved while its request travels
        // (the MSHR maps the line to it and waiters are parked on it);
        // park a stale copy so the slot reads as live. Anything else —
        // stores, and temp slots on intermediate shards — frees here.
        let keep = req.is_read
            && usize::from(req.module) % ctx.shards == ctx.me
            && ridx == req.origin_slot;
        if keep {
            self.reqs[ridx as usize] = Some(req);
        } else {
            debug_assert!(self.waiters[ridx as usize].is_empty());
            self.free_reqs.push(ridx);
        }
    }

    /// Accepts a request arriving from another shard's outbox: a
    /// delivery re-activates its reserved origin slot; an in-transit
    /// stage gets a temporary local slot.
    pub(crate) fn deliver_msg(&mut self, msg: Msg) {
        let ridx = match msg.req.stage {
            Stage::Deliver => {
                let slot = msg.req.origin_slot;
                debug_assert!(
                    self.reqs[slot as usize].is_some(),
                    "delivery into an unreserved origin slot"
                );
                self.reqs[slot as usize] = Some(msg.req);
                slot
            }
            _ => self.alloc_temp(msg.req),
        };
        self.queue.push(msg.at, msg.key, Ev::Req(ridx));
        if let Some(ctx) = &mut self.shard {
            debug_assert!(
                ctx.epoch > msg.epoch,
                "message delivered within its send epoch"
            );
            ctx.received += 1;
        }
    }

    /// Finishes a read: fills caches, releases the MSHR entry, resolves
    /// the load for every waiting warp (waking those blocked at the MLP
    /// limit or draining to retirement), and lets one MSHR-stalled warp
    /// replay.
    fn complete_read(&mut self, mut req: Req, ridx: u32, ready: Cycle) {
        debug_assert_eq!(ridx, req.origin_slot, "completion outside the origin slot");
        // A poisoned fill: the line arrived corrupt past the link CRC,
        // so the MSHR discards it and replays the whole request once.
        // The entry stays reserved and the waiters stay attached, so no
        // warp instruction is re-issued — the penalty is exactly one
        // extra memory round trip.
        if F::ACTIVE && !req.replayed && self.plan.poison_fill(req.id) {
            req.replayed = true;
            if P::ACTIVE {
                self.probe
                    .fault(ready, FaultEvent::MshrPoison { request: req.id });
            }
            req.stage = Stage::Access;
            self.reqs[ridx as usize] = Some(req);
            self.queue.push(ready, TAG_REQ | req.id, Ev::Req(ridx));
            return;
        }
        let sm = req.sm as usize;
        if req.l15_fill {
            self.sys.l15_fill(usize::from(req.module), req.line, ready);
        }
        self.sys.l1_fill(sm, req.line, ready);
        let released = self.sys.mshr_release(ready, sm, req.line, &mut self.probe);
        debug_assert_eq!(released, Some(u64::from(ridx)));
        if P::ACTIVE {
            self.probe.request_retired(req.id, ready);
        }
        // Detach the slot's waiter buffer while waking warps (the loop
        // needs `&mut self`), then hand it back drained-but-capacious
        // for the slot's next occupant. `mem::take` leaves an empty
        // `Vec`, which does not allocate.
        let mut waiters = std::mem::take(&mut self.waiters[ridx as usize]);
        for &w in &waiters {
            let warp = self.warps[w as usize]
                .as_mut()
                .expect("waiter warp missing");
            debug_assert!(warp.outstanding > 0);
            warp.outstanding -= 1;
            warp.resume_at = warp.resume_at.max(ready);
            if warp.blocked {
                // A slot freed: the warp resumes now.
                warp.blocked = false;
                self.queue.push(ready, warp.key, Ev::Warp(w));
            } else if warp.draining && warp.outstanding == 0 {
                warp.draining = false;
                self.queue.push(warp.resume_at, warp.key, Ev::Warp(w));
            }
        }
        waiters.clear();
        self.waiters[ridx as usize] = waiters;
        self.horizon = self.horizon.max(ready);
        self.free_reqs.push(ridx);
        // One MSHR entry freed: wake one stalled warp to replay.
        if let Some(w) = self.stalled[sm].pop() {
            let key = self.warps[w as usize]
                .as_ref()
                .expect("stalled warp missing")
                .key;
            self.queue.push(ready, key, Ev::Warp(w));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_mem::page::PlacementPolicy;
    use mcm_sm::SchedulerPolicy;

    fn quick_spec() -> WorkloadSpec {
        let mut spec = WorkloadSpec::template("quick");
        spec.ctas = 64;
        spec.warps_per_cta = 2;
        spec.insts_per_warp = 128;
        spec.kernel_iters = 2;
        spec.footprint_bytes = 8 << 20;
        spec
    }

    fn small_mcm() -> SystemConfig {
        let mut cfg = SystemConfig::baseline_mcm();
        cfg.topology.sms_per_module = 4; // 16 SMs
        cfg
    }

    #[test]
    fn run_completes_and_counts_every_instruction() {
        let spec = quick_spec();
        let report = Simulator::run(&small_mcm(), &spec);
        assert_eq!(report.instructions, spec.approx_instructions());
        assert!(report.cycles > Cycle::ZERO);
        assert!(report.mem_ops > 0);
        assert_eq!(report.mem_ops, report.reads + report.writes);
    }

    #[test]
    fn runs_are_deterministic() {
        let spec = quick_spec();
        let cfg = small_mcm();
        let a = Simulator::run(&cfg, &spec);
        let b = Simulator::run(&cfg, &spec);
        assert_eq!(a, b);
    }

    #[test]
    fn warp_parallelism_actually_overlaps() {
        // The whole point of a GPU: N warps doing independent loads
        // finish in far less than N * load-latency. Guards against
        // event-ordering bugs that serialize the machine.
        let mut spec = quick_spec();
        spec.kernel_iters = 1;
        spec.mem_ratio = 1.0; // pure memory
        let report = Simulator::run(&small_mcm(), &spec);
        let serial_floor = report.reads * 150; // ~150 cycles per L2/DRAM trip
        assert!(
            report.cycles.as_u64() * 10 < serial_floor,
            "warps are not overlapping: {} cycles for {} reads",
            report.cycles,
            report.reads
        );
    }

    #[test]
    fn interleaved_placement_is_75_percent_remote() {
        let spec = quick_spec();
        let report = Simulator::run(&small_mcm(), &spec);
        let remote_frac =
            report.remote_accesses as f64 / (report.remote_accesses + report.local_accesses) as f64;
        assert!(
            (remote_frac - 0.75).abs() < 0.05,
            "4-module interleave should be ~75% remote, got {remote_frac}"
        );
    }

    #[test]
    fn ds_ft_localizes_traffic() {
        let spec = quick_spec();
        let mut cfg = small_mcm();
        cfg.scheduler = SchedulerPolicy::Distributed;
        cfg.placement = PlacementPolicy::FirstTouch;
        cfg.name = "dsft".into();
        let report = Simulator::run(&cfg, &spec);
        assert!(
            report.locality_rate() > 0.5,
            "DS+FT should localize most accesses, got {}",
            report.locality_rate()
        );
        let baseline = Simulator::run(&small_mcm(), &spec);
        assert!(
            report.inter_module_bytes < baseline.inter_module_bytes,
            "DS+FT must cut ring traffic ({} vs {})",
            report.inter_module_bytes,
            baseline.inter_module_bytes
        );
    }

    #[test]
    fn monolithic_beats_mcm_at_equal_sms() {
        let spec = quick_spec();
        let mcm = Simulator::run(&small_mcm(), &spec);
        let mut mono = SystemConfig::monolithic(16);
        mono.dram_total_gbps = 3072.0;
        mono.caches.l2_bytes_total = 16 << 20;
        let mono_r = Simulator::run(&mono, &spec);
        assert!(
            mono_r.cycles <= mcm.cycles,
            "a monolithic GPU with equal resources never loses to the NUMA MCM \
             (mono {} vs mcm {})",
            mono_r.cycles,
            mcm.cycles
        );
        assert_eq!(mono_r.inter_module_bytes, 0);
    }

    #[test]
    fn more_link_bandwidth_never_hurts() {
        let spec = quick_spec();
        let mut slow = small_mcm();
        slow.topology.link_gbps = 64.0;
        let mut fast = small_mcm();
        fast.topology.link_gbps = 6144.0;
        let slow_r = Simulator::run(&slow, &spec);
        let fast_r = Simulator::run(&fast, &spec);
        assert!(
            fast_r.cycles <= slow_r.cycles,
            "6 TB/s links can't be slower than 64 GB/s links"
        );
    }

    #[test]
    fn limited_parallelism_underfills_the_machine() {
        let mut spec = quick_spec();
        spec.ctas = 4; // far fewer CTAs than SMs
        let report = Simulator::run(&small_mcm(), &spec);
        assert_eq!(report.instructions, spec.approx_instructions());
    }

    #[test]
    fn single_cta_single_warp_edge_case() {
        let mut spec = quick_spec();
        spec.ctas = 1;
        spec.warps_per_cta = 1;
        spec.kernel_iters = 1;
        let report = Simulator::run(&small_mcm(), &spec);
        assert_eq!(report.instructions, u64::from(spec.insts_per_warp));
    }

    #[test]
    fn imbalanced_workload_completes() {
        let mut spec = quick_spec();
        spec.imbalance = 0.8;
        let report = Simulator::run(&small_mcm(), &spec);
        assert!(report.instructions >= spec.approx_instructions());
    }

    #[test]
    fn memory_level_parallelism_hides_latency() {
        // A warp allowed 8 outstanding loads must beat one that blocks
        // on every load, on a latency-dominated (underfilled) machine.
        let mut spec = quick_spec();
        spec.ctas = 8;
        spec.kernel_iters = 1;
        let mut serial = small_mcm();
        serial.sm.mlp_per_warp = 1;
        let mut parallel = small_mcm();
        parallel.sm.mlp_per_warp = 8;
        let serial_r = Simulator::run(&serial, &spec);
        let parallel_r = Simulator::run(&parallel, &spec);
        assert!(
            parallel_r.cycles.as_u64() as f64 <= serial_r.cycles.as_u64() as f64 * 0.8,
            "MLP 8 should be much faster than MLP 1 ({} vs {})",
            parallel_r.cycles,
            serial_r.cycles
        );
    }

    #[test]
    fn draining_warps_retire_after_their_last_load() {
        // A stream that ends on loads exercises the draining path; all
        // instructions must still be accounted for.
        let mut spec = quick_spec();
        spec.mem_ratio = 1.0; // every op is memory: ends in-flight
        spec.write_frac = 0.0;
        spec.kernel_iters = 1;
        let report = Simulator::run(&small_mcm(), &spec);
        assert_eq!(report.instructions, spec.approx_instructions());
        assert_eq!(report.reads, spec.approx_instructions());
    }

    #[test]
    fn null_fault_plan_is_cycle_identical() {
        let spec = quick_spec();
        let cfg = small_mcm();
        let plain = Simulator::run(&cfg, &spec);
        let faulted = Simulator::run_with(&cfg, &spec, &mut NullProbe, &mut NullFaultPlan, 1).0;
        assert_eq!(plain, faulted);
    }

    #[test]
    fn zero_rate_seeded_plan_matches_plain_run() {
        // An *active* plan whose every rate is zero takes the faulted
        // code paths but must reproduce the plain run bit-exactly
        // (unit DRAM stretch, no link errors, no poison, no dead GPMs).
        let spec = quick_spec();
        let cfg = small_mcm();
        let plain = Simulator::run(&cfg, &spec);
        let mut plan =
            mcm_fault::SeededFaultPlan::new(mcm_fault::FaultConfig::with_rate(0x5EED, 0.0));
        let faulted = Simulator::run_with(&cfg, &spec, &mut NullProbe, &mut plan, 1).0;
        assert_eq!(plain, faulted);
    }

    #[test]
    fn dead_module_survives_with_higher_cycles() {
        // Compute-bound so the lost SMs are the bottleneck: a
        // memory-bound spec on the interleaved baseline can even speed
        // up (the dead module's DRAM stays reachable while contention
        // drops).
        let mut spec = quick_spec();
        spec.mem_ratio = 0.05;
        let cfg = small_mcm();
        let healthy = Simulator::run(&cfg, &spec);
        let fc = mcm_fault::FaultConfig {
            dead_module: Some(mcm_fault::DeadModule {
                module: 1,
                from_kernel: 0,
            }),
            ..mcm_fault::FaultConfig::default()
        };
        let mut plan = mcm_fault::SeededFaultPlan::new(fc);
        let degraded = Simulator::run_with(&cfg, &spec, &mut NullProbe, &mut plan, 1).0;
        assert_eq!(degraded.instructions, spec.approx_instructions());
        assert!(
            degraded.cycles > healthy.cycles,
            "losing a GPM must cost cycles ({} vs {})",
            degraded.cycles,
            healthy.cycles
        );
    }

    #[test]
    fn restealing_drains_distributed_queues_under_gpm_loss() {
        // The distributed scheduler owns per-module queues; a dead
        // module's queue must be restolen or the kernel never drains.
        let spec = quick_spec();
        let mut cfg = small_mcm();
        cfg.scheduler = SchedulerPolicy::Distributed;
        cfg.placement = PlacementPolicy::FirstTouch;
        cfg.name = "dsft-degraded".into();
        let healthy = Simulator::run(&cfg, &spec);
        let fc = mcm_fault::FaultConfig {
            dead_module: Some(mcm_fault::DeadModule {
                module: 2,
                from_kernel: 0,
            }),
            ..mcm_fault::FaultConfig::default()
        };
        let mut plan = mcm_fault::SeededFaultPlan::new(fc);
        let degraded = Simulator::run_with(&cfg, &spec, &mut NullProbe, &mut plan, 1).0;
        assert_eq!(degraded.instructions, spec.approx_instructions());
        assert!(degraded.cycles > healthy.cycles);
    }

    #[test]
    fn poisoned_fills_replay_without_reissuing_instructions() {
        /// Poisons every fill's first arrival.
        #[derive(Clone)]
        struct PoisonAll;
        impl FaultPlan for PoisonAll {
            fn poison_fill(&mut self, _id: u64) -> bool {
                true
            }
        }
        let mut spec = quick_spec();
        spec.kernel_iters = 1;
        let cfg = small_mcm();
        let healthy = Simulator::run(&cfg, &spec);
        let poisoned = Simulator::run_with(&cfg, &spec, &mut NullProbe, &mut PoisonAll, 1).0;
        // The MSHR entry survives the replay, so no warp re-issues: the
        // instruction count is exact, only the cycles grow.
        assert_eq!(poisoned.instructions, spec.approx_instructions());
        assert!(poisoned.cycles > healthy.cycles);
    }

    #[test]
    fn tiny_mshr_still_completes_by_replaying() {
        let mut cfg = small_mcm();
        cfg.sm.mshr_entries = 2; // force Full stalls
        let mut spec = quick_spec();
        spec.kernel_iters = 1;
        let report = Simulator::run(&cfg, &spec);
        // Replays re-issue instructions, so the count may exceed the
        // static budget, but never be below it — and the run finishes.
        assert!(report.instructions >= spec.approx_instructions());
        // A starved memory system must be slower than an unconstrained
        // one.
        let free = Simulator::run(&small_mcm(), &spec);
        assert!(report.cycles >= free.cycles);
    }
}
