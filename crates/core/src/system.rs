//! The assembled machine: SMs, cache hierarchy, crossbars, ring, page
//! map and DRAM partitions, exposed as *stage primitives* that the
//! event loop in [`crate::Simulator`] drives.
//!
//! One [`McmSystem`] is built fresh per run from a
//! [`SystemConfig`](crate::SystemConfig). Modules are GPMs (or discrete
//! GPUs in the §6 comparison); each owns its SMs and L1s, an optional
//! GPM-side L1.5, a crossbar, a memory-side L2 slice and a DRAM
//! partition. The on-package ring connects modules.
//!
//! ## Why stages instead of one `read()` call
//!
//! Every contended component is a next-free-time bandwidth
//! [`Resource`](mcm_engine::Resource), and that model is only correct
//! when requests arrive in nondecreasing time order. A memory access
//! traverses several components at increasing timestamps, so each
//! traversal must be its own simulation event — otherwise one access's
//! *future* arrival (e.g. a ring response after DRAM queuing) would be
//! submitted before another access's *earlier* arrival and would block
//! it, creating a feedback loop of phantom queuing. The stage methods
//! here each touch only components whose arrival times are within a
//! fixed latency of the call time; the event loop orders the stages
//! globally.

use mcm_engine::stats::{Counter, Ratio};
use mcm_engine::Cycle;
use mcm_fault::FaultPlan;
use mcm_interconnect::energy::EnergyLedger;
use mcm_interconnect::mesh::Fabric;
use mcm_interconnect::ring::{NodeId, RingDir};
use mcm_interconnect::xbar::Crossbar;
use mcm_mem::addr::{AccessKind, LineAddr, Locality, PartitionId, LINE_BYTES};
use mcm_mem::cache::{AllocFilter, CacheConfig, CacheOutcome, SetAssocCache, WritePolicy};
use mcm_mem::dram::{DramConfig, DramPartition};
use mcm_mem::mshr::Mshr;
use mcm_mem::page::PageMap;
use mcm_probe::{FaultEvent, LinkId, Probe};
use mcm_sm::SmCore;

use crate::config::SystemConfig;

/// Control-message size for a remote read request (the data returns in
/// a full line; the request itself is a small packet).
pub(crate) const REQUEST_BYTES: u64 = 32;

/// L1 tag+data latency in cycles.
pub(crate) const L1_LATENCY: u64 = 24;
/// GPM-side L1.5 hit latency in cycles (larger, farther array).
pub(crate) const L15_LATENCY: u64 = 40;
/// GPM-side L1.5 miss penalty: the tag probe largely overlaps the
/// crossbar routing of the downstream request, so a miss costs far less
/// than a hit's data-array access.
pub(crate) const L15_TAG_LATENCY: u64 = 12;
/// Memory-side L2 latency in cycles.
pub(crate) const L2_LATENCY: u64 = 48;
/// Crossbar traversal latency in cycles.
pub(crate) const XBAR_LATENCY: u64 = 4;
/// Per-SM L1 bandwidth in bytes/cycle (one line per cycle).
const L1_BANDWIDTH: f64 = 128.0;
/// Per-module L1.5 aggregate bank bandwidth in bytes/cycle.
const L15_BANDWIDTH: f64 = 2048.0;
/// L2 bank bandwidth per GB/s of the partition's DRAM bandwidth
/// ("banked such that they can provide the necessary parallelism to
/// saturate DRAM bandwidth", §4): a 768 GB/s partition gets ~2 KB/cycle
/// of L2 bandwidth, a monolithic 3 TB/s machine proportionally more.
const L2_BANDWIDTH_PER_DRAM_GBPS: f64 = 2.67;
/// On-die fabric bandwidth per SM in bytes/cycle; a module's crossbar
/// scales with its SM count, as monolithic dies scale their fabric
/// (effectively never the bottleneck, matching §4's assumption).
const XBAR_BANDWIDTH_PER_SM: f64 = 64.0;

/// `fault.link.transfers_recovered`: link transfers that took at least
/// one transient error and still landed. Out-of-band; only faulted
/// builds (`F::ACTIVE`) ever touch it.
fn link_recovered_counter() -> &'static mcm_telemetry::Counter {
    static TELE: std::sync::OnceLock<mcm_telemetry::Counter> = std::sync::OnceLock::new();
    TELE.get_or_init(|| {
        mcm_telemetry::global().counter(
            "fault.link.transfers_recovered",
            mcm_telemetry::Class::Deterministic,
        )
    })
}

/// Reports a cache's hit/miss decision to `probe` under the cache's
/// configured name and `unit` (SM for private caches, module for shared
/// ones). Bypasses and disabled-cache accesses never touch the tag
/// array, carry no hit-rate signal, and are not reported.
fn report_cache<P: Probe>(
    probe: &mut P,
    cache: &SetAssocCache,
    unit: usize,
    now: Cycle,
    outcome: CacheOutcome,
) {
    if P::ACTIVE && !cache.is_disabled() {
        let hit = match outcome {
            CacheOutcome::Hit { .. } => true,
            CacheOutcome::Miss { .. } => false,
            CacheOutcome::Bypass => return,
        };
        probe.cache_access(cache.config().name, unit as u32, now, hit);
    }
}

/// Reports `sm`'s MSHR occupancy to `probe`.
fn report_mshr<P: Probe>(probe: &mut P, mshr: &Mshr, sm: usize, now: Cycle) {
    probe.mshr_occupancy(
        sm as u32,
        now,
        mshr.outstanding() as u32,
        mshr.capacity() as u32,
    );
}

/// What the L1.5 stage decided for an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L15Outcome {
    /// The access does not touch the L1.5 (level disabled, or filtered
    /// out by the remote-only policy).
    NotPresent,
    /// Hit: the data is available at `ready_at`; no downstream travel.
    Hit {
        /// When the data is available.
        ready_at: Cycle,
    },
    /// Miss: continue downstream at `ready_at`; `fill` says whether the
    /// response should be installed here on its way back.
    Miss {
        /// When the downstream request may depart.
        ready_at: Cycle,
        /// Whether to fill this L1.5 with the response.
        fill: bool,
    },
}

/// The machine state for one run.
#[derive(Debug)]
pub struct McmSystem {
    modules: usize,
    sms_per_module: u32,
    sms: Vec<SmCore>,
    l1s: Vec<SetAssocCache>,
    mshrs: Vec<Mshr>,
    l15s: Vec<SetAssocCache>,
    xbars: Vec<Crossbar>,
    l2s: Vec<SetAssocCache>,
    drams: Vec<DramPartition>,
    ring: Fabric,
    page_map: PageMap,
    reads: Counter,
    writes: Counter,
    local_accesses: Counter,
    remote_accesses: Counter,
}

impl McmSystem {
    /// Builds an idle machine from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (call
    /// [`SystemConfig::validate`] first for a graceful error).
    pub fn new(cfg: &SystemConfig) -> Self {
        cfg.validate().expect("invalid system configuration");
        let modules = usize::from(cfg.topology.modules);
        let total_sms = cfg.topology.total_sms() as usize;

        let l1_cfg = CacheConfig {
            name: "L1",
            size_bytes: cfg.caches.l1_bytes_per_sm,
            line_bytes: LINE_BYTES,
            ways: 4,
            latency: Cycle::new(L1_LATENCY),
            tag_latency: Cycle::new(L1_LATENCY),
            bandwidth: L1_BANDWIDTH,
            write_policy: WritePolicy::WriteThrough,
            alloc_filter: AllocFilter::All,
        };
        let l15_cfg = CacheConfig {
            name: "L1.5",
            size_bytes: cfg.caches.l15_bytes_total / modules as u64,
            line_bytes: LINE_BYTES,
            ways: 16,
            latency: Cycle::new(L15_LATENCY),
            tag_latency: Cycle::new(L15_TAG_LATENCY),
            bandwidth: L15_BANDWIDTH,
            write_policy: WritePolicy::WriteThrough,
            alloc_filter: cfg.caches.l15_filter,
        };
        let l2_cfg = CacheConfig {
            name: "L2",
            size_bytes: cfg.caches.l2_bytes_total / modules as u64,
            line_bytes: LINE_BYTES,
            ways: 16,
            latency: Cycle::new(L2_LATENCY),
            tag_latency: Cycle::new(L2_LATENCY),
            bandwidth: (cfg.dram_gbps_per_module() * L2_BANDWIDTH_PER_DRAM_GBPS).max(1024.0),
            write_policy: WritePolicy::WriteBack,
            alloc_filter: AllocFilter::All,
        };
        let per_module_dram = cfg.dram_gbps_per_module();
        let dram_cfg = DramConfig {
            bandwidth_gbps: per_module_dram,
            // Keep per-channel bandwidth roughly constant (~96 GB/s) so
            // bigger partitions get more channels, as real stacks do.
            channels: ((per_module_dram / 96.0).round() as u32).max(4),
            latency: cfg.dram_latency(),
        };

        McmSystem {
            modules,
            sms_per_module: cfg.topology.sms_per_module,
            sms: (0..total_sms).map(|_| SmCore::new(cfg.sm)).collect(),
            l1s: (0..total_sms)
                .map(|_| SetAssocCache::new(l1_cfg.clone()))
                .collect(),
            mshrs: (0..total_sms)
                .map(|_| Mshr::new(cfg.sm.mshr_entries))
                .collect(),
            l15s: (0..modules)
                .map(|_| SetAssocCache::new(l15_cfg.clone()))
                .collect(),
            xbars: (0..modules)
                .map(|_| {
                    Crossbar::new(
                        "gpm-xbar",
                        XBAR_BANDWIDTH_PER_SM * f64::from(cfg.topology.sms_per_module),
                        Cycle::new(XBAR_LATENCY),
                    )
                })
                .collect(),
            l2s: (0..modules)
                .map(|_| SetAssocCache::new(l2_cfg.clone()))
                .collect(),
            drams: (0..modules).map(|_| DramPartition::new(dram_cfg)).collect(),
            // `link_gbps` is the bidirectional capacity of one
            // GPM-to-GPM link (the paper's "768 GB/s per link");
            // Fabric splits it per direction / per mesh link.
            ring: Fabric::new(
                cfg.topology.network,
                cfg.topology.modules,
                cfg.topology.link_gbps,
                Cycle::new(cfg.topology.hop_cycles),
                cfg.topology.link_tier,
            ),
            page_map: PageMap::with_page_lines(
                cfg.placement,
                cfg.topology.modules,
                (cfg.ft_page_bytes / LINE_BYTES).max(1),
            ),
            reads: Counter::new(),
            writes: Counter::new(),
            local_accesses: Counter::new(),
            remote_accesses: Counter::new(),
        }
    }

    /// Number of modules.
    pub fn modules(&self) -> usize {
        self.modules
    }

    /// The module owning global SM index `sm`.
    #[inline]
    pub fn module_of(&self, sm: usize) -> usize {
        sm / self.sms_per_module as usize
    }

    /// Total SM count.
    pub fn total_sms(&self) -> usize {
        self.sms.len()
    }

    /// Immutable access to an SM (occupancy queries).
    pub fn sm(&self, sm: usize) -> &SmCore {
        &self.sms[sm]
    }

    /// Mutable access to an SM (the run loop admits and retires CTAs).
    pub fn sm_mut(&mut self, sm: usize) -> &mut SmCore {
        &mut self.sms[sm]
    }

    /// Mutable access to an SM's MSHR.
    pub fn mshr_mut(&mut self, sm: usize) -> &mut Mshr {
        &mut self.mshrs[sm]
    }

    /// Issues a compute burst of `insts` instructions on `sm`.
    pub fn compute(&mut self, now: Cycle, sm: usize, insts: u32) -> Cycle {
        self.sms[sm].issue(now, insts)
    }

    /// Resolves the home partition of `line` for a requester on
    /// `module`, updating first-touch state and locality statistics.
    pub fn home_of(&mut self, line: LineAddr, module: usize) -> (usize, Locality) {
        let home = self
            .page_map
            .partition_for(line, PartitionId(module as u8))
            .as_usize();
        (home, self.note_locality(home, module))
    }

    /// Classifies and counts an access from `module` homed at `home` —
    /// the statistics half of [`McmSystem::home_of`], for callers that
    /// resolved the placement elsewhere (a sharded run's replica cache).
    pub(crate) fn note_locality(&mut self, home: usize, module: usize) -> Locality {
        if home == module {
            self.local_accesses.inc();
            Locality::Local
        } else {
            self.remote_accesses.inc();
            Locality::Remote
        }
    }

    // ------------------------------------------------------------------
    // Stage primitives, in path order. Each touches only components at
    // a bounded time offset from `now`; the event loop globally orders
    // the stage calls.
    // ------------------------------------------------------------------

    /// Stage 0 (warp side): issues the memory instruction and probes the
    /// L1. Returns `(issued, outcome)`: `issued` is when the instruction
    /// has left the SM's issue stage (a store lets its warp continue
    /// then), `outcome` the L1 decision, which is reported to `probe`
    /// (unit = global SM index).
    pub fn l1_access<P: Probe>(
        &mut self,
        now: Cycle,
        sm: usize,
        line: LineAddr,
        kind: AccessKind,
        probe: &mut P,
    ) -> (Cycle, CacheOutcome) {
        match kind {
            AccessKind::Read => self.reads.inc(),
            AccessKind::Write => self.writes.inc(),
        }
        let t0 = self.sms[sm].issue_mem_op(now);
        let outcome = self.l1s[sm].access(t0, line, kind, Locality::Local);
        report_cache(probe, &self.l1s[sm], sm, t0, outcome);
        (t0, outcome)
    }

    /// Installs a returned line into an SM's L1, available at `ready`.
    pub fn l1_fill(&mut self, sm: usize, line: LineAddr, ready: Cycle) {
        self.l1s[sm].fill(line, ready, false);
    }

    /// Reserves an entry of `sm`'s MSHR binding `line` to `request`
    /// (after [`MshrLookup::CanIssue`](mcm_mem::mshr::MshrLookup)),
    /// reporting the table's new occupancy to `probe`.
    pub fn mshr_reserve<P: Probe>(
        &mut self,
        now: Cycle,
        sm: usize,
        line: LineAddr,
        request: u64,
        probe: &mut P,
    ) {
        self.mshrs[sm].reserve(line, request);
        if P::ACTIVE {
            report_mshr(probe, &self.mshrs[sm], sm, now);
        }
    }

    /// Releases `sm`'s MSHR entry for `line`, returning the request id
    /// it was bound to; an entry actually freed reports the table's new
    /// occupancy to `probe`.
    pub fn mshr_release<P: Probe>(
        &mut self,
        now: Cycle,
        sm: usize,
        line: LineAddr,
        probe: &mut P,
    ) -> Option<u64> {
        let released = self.mshrs[sm].release(line);
        if P::ACTIVE && released.is_some() {
            report_mshr(probe, &self.mshrs[sm], sm, now);
        }
        released
    }

    /// Stage 1 (module side): probes the GPM-side L1.5, reporting the
    /// hit/miss to `probe` (unit = module index; filtered and disabled
    /// accesses are invisible).
    pub fn l15_access<P: Probe>(
        &mut self,
        now: Cycle,
        module: usize,
        line: LineAddr,
        kind: AccessKind,
        locality: Locality,
        probe: &mut P,
    ) -> L15Outcome {
        if self.l15s[module].is_disabled() {
            return L15Outcome::NotPresent;
        }
        let outcome = self.l15s[module].access(now, line, kind, locality);
        report_cache(probe, &self.l15s[module], module, now, outcome);
        match outcome {
            CacheOutcome::Bypass => L15Outcome::NotPresent,
            CacheOutcome::Hit { ready_at } => L15Outcome::Hit { ready_at },
            CacheOutcome::Miss { allocate, ready_at } => L15Outcome::Miss {
                ready_at,
                // Stores never fill (the L1.5 is write-through,
                // write-around).
                fill: allocate && !kind.is_write(),
            },
        }
    }

    /// Installs a returned line into a module's L1.5, available at
    /// `ready`.
    pub fn l15_fill(&mut self, module: usize, line: LineAddr, ready: Cycle) {
        self.l15s[module].fill(line, ready, false);
    }

    /// Stage 2: crosses the module's crossbar toward the memory side;
    /// returns when the message leaves the module's fabric. The traffic
    /// is reported to `probe`.
    pub fn fabric_out<P: Probe>(&mut self, now: Cycle, module: usize, probe: &mut P) -> Cycle {
        let done = self.xbars[module].transfer(now, LINE_BYTES);
        if P::ACTIVE {
            probe.xbar_transfer(module as u32, now, LINE_BYTES);
        }
        done
    }

    /// The shortest ring route between two modules.
    pub fn ring_route(&self, from: usize, to: usize) -> (RingDir, u32) {
        self.ring.route(NodeId(from as u8), NodeId(to as u8))
    }

    /// One network hop from `node` toward `to` (direction `dir` on a
    /// ring; direct on a fully connected fabric), carrying `bytes`;
    /// returns `(next_node, arrival)`. Issue exactly one hop per
    /// simulation event so link queues stay causally ordered.
    ///
    /// The traversed link's identity, bytes and arrival are reported to
    /// `probe`. `plan` is consulted for transient CRC errors: an errored
    /// attempt occupies the link (the corrupt flits really crossed the
    /// wire), then retransmits on the same link after a capped
    /// exponential backoff, up to the plan's retry budget. Each retry is
    /// reported as a [`FaultEvent::LinkRetry`].
    #[allow(clippy::too_many_arguments)]
    pub fn ring_hop<P: Probe, F: FaultPlan>(
        &mut self,
        now: Cycle,
        node: usize,
        to: usize,
        dir: RingDir,
        bytes: u64,
        probe: &mut P,
        plan: &mut F,
    ) -> (usize, Cycle) {
        let (from, dest) = (NodeId(node as u8), NodeId(to as u8));
        let (next, mut arrival) = self.ring.hop(now, from, dest, dir, bytes);
        if !(P::ACTIVE || F::ACTIVE) {
            return (next.as_usize(), arrival);
        }
        let Some(link) = self.link_id(node, to, dir) else {
            // A free self-transfer crosses no link.
            return (next.as_usize(), arrival);
        };
        let (mut t, mut attempt) = (now, 0);
        loop {
            if P::ACTIVE {
                probe.link_transfer(link, t, bytes, arrival);
            }
            if !F::ACTIVE || attempt >= plan.link_max_retries() || !plan.link_error(link, attempt) {
                if attempt > 0 {
                    // The transfer errored at least once and still
                    // landed: a recovery, whether by clean retransmit
                    // or by exhausting the retry budget.
                    link_recovered_counter().inc();
                }
                return (next.as_usize(), arrival);
            }
            if P::ACTIVE {
                probe.fault(arrival, FaultEvent::LinkRetry { link, attempt });
            }
            t = arrival + plan.link_backoff(attempt);
            attempt += 1;
            arrival = self.ring.hop(t, from, dest, dir, bytes).1;
        }
    }

    /// The link a hop from `node` toward `to` in direction `dir`
    /// crosses, or `None` for a free self-transfer. A clockwise ring hop
    /// at node `i` crosses the segment carrying `i → i + 1`; a
    /// counter-clockwise one the segment carrying `i → i - 1`, which
    /// [`LinkId::RingCcw`] names by its lower node `i - 1`.
    fn link_id(&self, node: usize, to: usize, dir: RingDir) -> Option<LinkId> {
        let n = self.modules;
        let a = node % n;
        match (&self.ring, dir) {
            (Fabric::Ring(_), RingDir::Clockwise) => Some(LinkId::RingCw(a as u8)),
            (Fabric::Ring(_), RingDir::CounterClockwise) => {
                Some(LinkId::RingCcw(((a + n - 1) % n) as u8))
            }
            (Fabric::FullyConnected(_), _) => {
                let b = to % n;
                (a != b).then_some(LinkId::Mesh {
                    from: a as u8,
                    to: b as u8,
                })
            }
        }
    }

    /// Stage 3 (read): accesses the home memory partition — L2, then
    /// DRAM on a miss — and returns when the line is available at the
    /// home module. The L2 hit/miss and any DRAM traffic (demand fill
    /// and dirty writeback) are reported to `probe`; `plan` may throttle
    /// the DRAM (see [`McmSystem::dram_access`]).
    pub fn mem_read<P: Probe, F: FaultPlan>(
        &mut self,
        now: Cycle,
        home: usize,
        line: LineAddr,
        locality: Locality,
        probe: &mut P,
        plan: &mut F,
    ) -> Cycle {
        let outcome = self.l2s[home].access(now, line, AccessKind::Read, locality);
        report_cache(probe, &self.l2s[home], home, now, outcome);
        match outcome {
            CacheOutcome::Hit { ready_at } => ready_at,
            CacheOutcome::Miss { allocate, ready_at } => {
                let r = self.dram_access(ready_at, home, line, AccessKind::Read, probe, plan);
                if allocate {
                    if let Some(ev) = self.l2s[home].fill(line, r, false) {
                        if ev.dirty {
                            // The victim's writeback departs when the miss
                            // is handled (`ready_at`), not when the fill
                            // lands: stamping it at the fill time would
                            // submit a future arrival to the DRAM queue
                            // and ratchet its next-free time.
                            self.dram_access(
                                ready_at,
                                home,
                                ev.line,
                                AccessKind::Write,
                                probe,
                                plan,
                            );
                        }
                    }
                }
                r
            }
            CacheOutcome::Bypass => unreachable!("L2 has no allocation filter"),
        }
    }

    /// Stage 3 (write): absorbs a store into the home memory partition.
    /// The write-back L2 takes it (allocating without fetch on a miss,
    /// as coalesced full-line stores do); dirty evictions spill to DRAM.
    /// Hooks as for [`McmSystem::mem_read`].
    pub fn mem_write<P: Probe, F: FaultPlan>(
        &mut self,
        now: Cycle,
        home: usize,
        line: LineAddr,
        locality: Locality,
        probe: &mut P,
        plan: &mut F,
    ) {
        let outcome = self.l2s[home].access(now, line, AccessKind::Write, locality);
        report_cache(probe, &self.l2s[home], home, now, outcome);
        match outcome {
            CacheOutcome::Hit { .. } => {}
            CacheOutcome::Miss { allocate, ready_at } => {
                if allocate {
                    if let Some(ev) = self.l2s[home].fill(line, ready_at, true) {
                        if ev.dirty {
                            self.dram_access(
                                ready_at,
                                home,
                                ev.line,
                                AccessKind::Write,
                                probe,
                                plan,
                            );
                        }
                    }
                } else {
                    self.dram_access(ready_at, home, line, AccessKind::Write, probe, plan);
                }
            }
            CacheOutcome::Bypass => unreachable!("L2 has no allocation filter"),
        }
    }

    /// One line of traffic on DRAM partition `home`, reported to
    /// `probe`. `plan` may have a thermal-throttle window open at `now`:
    /// the channel occupancy is then stretched by its factor, reported
    /// as a [`FaultEvent::DramThrottle`].
    fn dram_access<P: Probe, F: FaultPlan>(
        &mut self,
        now: Cycle,
        home: usize,
        line: LineAddr,
        kind: AccessKind,
        probe: &mut P,
        plan: &mut F,
    ) -> Cycle {
        let module = home as u32;
        let stretch = if F::ACTIVE {
            plan.dram_stretch(module, now)
        } else {
            1.0
        };
        if P::ACTIVE {
            if stretch > 1.0 {
                probe.fault(now, FaultEvent::DramThrottle { module, stretch });
            }
            probe.dram_access(module, now, LINE_BYTES);
        }
        self.drams[home].access_stretched(now, line, kind, stretch)
    }

    /// Flushes all private (L1) and GPM-side (L1.5) caches — the
    /// software-coherence action at every kernel boundary (§5.1.1).
    /// Write-through policies mean no writeback traffic results.
    pub fn flush_private_caches(&mut self) {
        for l1 in &mut self.l1s {
            l1.flush();
        }
        for l15 in &mut self.l15s {
            if !l15.is_disabled() {
                l15.flush();
            }
        }
        for mshr in &mut self.mshrs {
            mshr.clear();
        }
    }

    // ------------------------------------------------------------------
    // Statistics for report building.
    // ------------------------------------------------------------------

    /// Total warp instructions issued across all SMs.
    pub fn instructions(&self) -> u64 {
        self.sms.iter().map(SmCore::instructions).sum()
    }

    /// Loads issued.
    pub fn reads(&self) -> u64 {
        self.reads.get()
    }

    /// Stores issued.
    pub fn writes(&self) -> u64 {
        self.writes.get()
    }

    /// Accesses homed locally.
    pub fn local_accesses(&self) -> u64 {
        self.local_accesses.get()
    }

    /// Accesses homed remotely.
    pub fn remote_accesses(&self) -> u64 {
        self.remote_accesses.get()
    }

    /// Merged L1 hit ratio.
    pub fn l1_ratio(&self) -> Ratio {
        let mut r = Ratio::new();
        for l1 in &self.l1s {
            r.merge(l1.stats().accesses);
        }
        r
    }

    /// Merged L1.5 hit ratio (empty when the level is disabled).
    pub fn l15_ratio(&self) -> Ratio {
        let mut r = Ratio::new();
        for l15 in &self.l15s {
            if !l15.is_disabled() {
                r.merge(l15.stats().accesses);
            }
        }
        r
    }

    /// Merged L2 hit ratio.
    pub fn l2_ratio(&self) -> Ratio {
        let mut r = Ratio::new();
        for l2 in &self.l2s {
            r.merge(l2.stats().accesses);
        }
        r
    }

    /// Bytes carried by inter-module ring segments.
    pub fn inter_module_bytes(&self) -> u64 {
        self.ring.total_bytes()
    }

    /// Bytes moved in or out of DRAM arrays.
    pub fn dram_bytes(&self) -> u64 {
        self.drams.iter().map(DramPartition::total_bytes).sum()
    }

    /// Builds the data-movement energy ledger from accumulated traffic.
    pub fn energy_ledger(&self) -> EnergyLedger {
        let mut ledger = EnergyLedger::new();
        let chip: u64 = self.xbars.iter().map(Crossbar::total_bytes).sum();
        ledger.record(mcm_interconnect::energy::Tier::Chip, chip);
        ledger.record(self.ring.tier(), self.ring.total_bytes());
        ledger.record_dram(self.dram_bytes());
        ledger
    }

    /// Per-module statistics for the run report.
    pub fn module_stats(&self) -> Vec<crate::report::ModuleStats> {
        (0..self.modules)
            .map(|m| {
                let per = self.sms_per_module as usize;
                let instructions = self.sms[m * per..(m + 1) * per]
                    .iter()
                    .map(SmCore::instructions)
                    .sum();
                crate::report::ModuleStats {
                    instructions,
                    dram_bytes: self.drams[m].total_bytes(),
                    l2: self.l2s[m].stats().accesses,
                    l15: if self.l15s[m].is_disabled() {
                        mcm_engine::stats::Ratio::new()
                    } else {
                        self.l15s[m].stats().accesses
                    },
                }
            })
            .collect()
    }

    /// The page map (placement diagnostics).
    pub fn page_map(&self) -> &PageMap {
        &self.page_map
    }

    /// Replaces the page map — the merge step of a sharded first-touch
    /// run, whose authoritative map lives behind a team-shared lock.
    pub(crate) fn install_page_map(&mut self, map: PageMap) {
        self.page_map = map;
    }

    /// Folds `n` placement lookups into the page map's counter (see
    /// [`PageMap::add_lookups`]).
    pub(crate) fn add_page_lookups(&mut self, n: u64) {
        self.page_map.add_lookups(n);
    }

    /// Absorbs from `other` every component owned by shard `shard` of a
    /// `shards`-way team (module `m` — its SMs, L1s, MSHRs, L1.5,
    /// crossbar, L2, DRAM partition, and charged fabric links — belongs
    /// to shard `m % shards`), plus `other`'s whole-run counters.
    ///
    /// The owned components are *swapped* in: in a sharded run each
    /// shard only ever touches the components it owns, so the absorbing
    /// machine's copies of foreign components are pristine and the
    /// shard's copies of everything it doesn't own are too. Counters
    /// (reads, writes, locality) accumulate wherever the issuing SM
    /// lives and are summed.
    ///
    /// # Panics
    ///
    /// Panics if the machines differ in shape.
    pub(crate) fn absorb_owned(&mut self, other: &mut McmSystem, shards: usize, shard: usize) {
        assert_eq!(self.modules, other.modules, "absorbing a different machine");
        assert_eq!(self.sms.len(), other.sms.len());
        let per = self.sms_per_module as usize;
        for m in 0..self.modules {
            if m % shards != shard {
                continue;
            }
            for sm in m * per..(m + 1) * per {
                std::mem::swap(&mut self.sms[sm], &mut other.sms[sm]);
                std::mem::swap(&mut self.l1s[sm], &mut other.l1s[sm]);
                std::mem::swap(&mut self.mshrs[sm], &mut other.mshrs[sm]);
            }
            std::mem::swap(&mut self.l15s[m], &mut other.l15s[m]);
            std::mem::swap(&mut self.xbars[m], &mut other.xbars[m]);
            std::mem::swap(&mut self.l2s[m], &mut other.l2s[m]);
            std::mem::swap(&mut self.drams[m], &mut other.drams[m]);
        }
        self.ring.absorb_owned(&mut other.ring, shards, shard);
        self.reads.add(other.reads.get());
        self.writes.add(other.writes.get());
        self.local_accesses.add(other.local_accesses.get());
        self.remote_accesses.add(other.remote_accesses.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use mcm_fault::NullFaultPlan;
    use mcm_interconnect::mesh::NetworkKind;
    use mcm_mem::page::PlacementPolicy;
    use mcm_probe::NullProbe;

    fn tiny_mcm() -> SystemConfig {
        let mut cfg = SystemConfig::baseline_mcm();
        cfg.topology.sms_per_module = 2; // 8 SMs total: fast tests
        cfg
    }

    #[test]
    fn module_mapping() {
        let sys = McmSystem::new(&tiny_mcm());
        assert_eq!(sys.total_sms(), 8);
        assert_eq!(sys.module_of(0), 0);
        assert_eq!(sys.module_of(1), 0);
        assert_eq!(sys.module_of(2), 1);
        assert_eq!(sys.module_of(7), 3);
    }

    #[test]
    fn l1_miss_then_fill_then_hit() {
        let mut sys = McmSystem::new(&tiny_mcm());
        let line = LineAddr::new(123);
        match sys.l1_access(Cycle::ZERO, 0, line, AccessKind::Read, &mut NullProbe) {
            (issued, CacheOutcome::Miss { allocate: true, .. }) => {
                assert!(issued >= Cycle::ZERO);
            }
            (_, other) => panic!("expected cold miss, got {other:?}"),
        }
        sys.l1_fill(0, line, Cycle::new(300));
        match sys.l1_access(Cycle::new(400), 0, line, AccessKind::Read, &mut NullProbe) {
            (_, CacheOutcome::Hit { ready_at }) => {
                assert!(ready_at - Cycle::new(400) <= Cycle::new(L1_LATENCY + 2));
            }
            (_, other) => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(sys.reads(), 2);
    }

    #[test]
    fn interleaved_home_is_line_modulo() {
        let mut sys = McmSystem::new(&tiny_mcm());
        assert_eq!(sys.home_of(LineAddr::new(0), 0), (0, Locality::Local));
        assert_eq!(sys.home_of(LineAddr::new(1), 0), (1, Locality::Remote));
        assert_eq!(sys.home_of(LineAddr::new(6), 2), (2, Locality::Local));
        assert_eq!(sys.local_accesses(), 2);
        assert_eq!(sys.remote_accesses(), 1);
    }

    #[test]
    fn first_touch_homes_on_requester() {
        let mut cfg = tiny_mcm();
        cfg.placement = PlacementPolicy::FirstTouch;
        let mut sys = McmSystem::new(&cfg);
        assert_eq!(sys.home_of(LineAddr::new(5), 3), (3, Locality::Local));
        // Another module touching the same page still goes to 3.
        assert_eq!(sys.home_of(LineAddr::new(6), 1), (3, Locality::Remote));
    }

    #[test]
    fn fabric_out_is_xbar_only() {
        let mut sys = McmSystem::new(&tiny_mcm());
        let t = sys.fabric_out(Cycle::ZERO, 2, &mut NullProbe);
        assert_eq!(t, Cycle::new(XBAR_LATENCY + 1));
        assert_eq!(sys.inter_module_bytes(), 0);
    }

    #[test]
    fn ring_hops_route_and_charge() {
        let mut sys = McmSystem::new(&tiny_mcm());
        // 0 -> 1: one clockwise hop.
        let (dir, hops) = sys.ring_route(0, 1);
        assert_eq!(hops, 1);
        let (next, t) = sys.ring_hop(
            Cycle::ZERO,
            0,
            1,
            dir,
            REQUEST_BYTES,
            &mut NullProbe,
            &mut NullFaultPlan,
        );
        assert_eq!(next, 1);
        assert!(t >= Cycle::new(32));
        assert_eq!(sys.inter_module_bytes(), REQUEST_BYTES);
        // Response hop 1 -> 0 carries the full line.
        let (dir_back, hops_back) = sys.ring_route(1, 0);
        assert_eq!(hops_back, 1);
        let (back, t2) = sys.ring_hop(
            t,
            1,
            0,
            dir_back,
            LINE_BYTES,
            &mut NullProbe,
            &mut NullFaultPlan,
        );
        assert_eq!(back, 0);
        assert!(t2 >= t + Cycle::new(32));
        assert_eq!(sys.inter_module_bytes(), REQUEST_BYTES + LINE_BYTES);
    }

    #[test]
    fn mem_read_pays_dram_on_miss_and_l2_on_hit() {
        let mut sys = McmSystem::new(&tiny_mcm());
        let line = LineAddr::new(40);
        let miss = sys.mem_read(
            Cycle::ZERO,
            0,
            line,
            Locality::Local,
            &mut NullProbe,
            &mut NullFaultPlan,
        );
        assert!(miss >= Cycle::from_ns(100) + Cycle::new(L2_LATENCY));
        let hit = sys.mem_read(
            Cycle::new(1000),
            0,
            line,
            Locality::Local,
            &mut NullProbe,
            &mut NullFaultPlan,
        );
        assert!(hit - Cycle::new(1000) <= Cycle::new(L2_LATENCY + 2));
        assert_eq!(sys.l2_ratio().hits(), 1);
    }

    #[test]
    fn mem_write_spills_through_tiny_l2() {
        let mut cfg = tiny_mcm();
        cfg.caches.l2_bytes_total = 4 * 32 * 1024;
        let mut sys = McmSystem::new(&cfg);
        for i in 0..4096 {
            sys.mem_write(
                Cycle::new(i),
                0,
                LineAddr::new(i * 4),
                Locality::Local,
                &mut NullProbe,
                &mut NullFaultPlan,
            );
        }
        assert!(sys.dram_bytes() > 0, "dirty evictions must reach DRAM");
    }

    #[test]
    fn l15_remote_only_filters_local() {
        let mut cfg = tiny_mcm();
        cfg.caches.l15_bytes_total = 8 << 20;
        let mut sys = McmSystem::new(&cfg);
        let line = LineAddr::new(77);
        assert_eq!(
            sys.l15_access(
                Cycle::ZERO,
                0,
                line,
                AccessKind::Read,
                Locality::Local,
                &mut NullProbe
            ),
            L15Outcome::NotPresent
        );
        match sys.l15_access(
            Cycle::ZERO,
            0,
            line,
            AccessKind::Read,
            Locality::Remote,
            &mut NullProbe,
        ) {
            L15Outcome::Miss { fill: true, .. } => {}
            other => panic!("expected filling miss, got {other:?}"),
        }
        sys.l15_fill(0, line, Cycle::new(500));
        match sys.l15_access(
            Cycle::new(600),
            0,
            line,
            AccessKind::Read,
            Locality::Remote,
            &mut NullProbe,
        ) {
            L15Outcome::Hit { .. } => {}
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(sys.l15_ratio().hits(), 1);
    }

    #[test]
    fn l15_disabled_is_not_present() {
        let mut sys = McmSystem::new(&tiny_mcm());
        assert_eq!(
            sys.l15_access(
                Cycle::ZERO,
                0,
                LineAddr::new(1),
                AccessKind::Read,
                Locality::Remote,
                &mut NullProbe
            ),
            L15Outcome::NotPresent
        );
        assert_eq!(sys.l15_ratio().total(), 0);
    }

    #[test]
    fn l15_write_never_fills() {
        let mut cfg = tiny_mcm();
        cfg.caches.l15_bytes_total = 8 << 20;
        let mut sys = McmSystem::new(&cfg);
        match sys.l15_access(
            Cycle::ZERO,
            0,
            LineAddr::new(9),
            AccessKind::Write,
            Locality::Remote,
            &mut NullProbe,
        ) {
            L15Outcome::Miss { fill, .. } => assert!(!fill),
            other => panic!("expected miss, got {other:?}"),
        }
    }

    #[test]
    fn flush_invalidates_l1_and_l15() {
        let mut cfg = tiny_mcm();
        cfg.caches.l15_bytes_total = 8 << 20;
        let mut sys = McmSystem::new(&cfg);
        let line = LineAddr::new(3);
        sys.l1_fill(0, line, Cycle::ZERO);
        sys.l15_fill(0, line, Cycle::ZERO);
        sys.flush_private_caches();
        match sys.l1_access(Cycle::new(10), 0, line, AccessKind::Read, &mut NullProbe) {
            (_, CacheOutcome::Miss { .. }) => {}
            (_, other) => panic!("L1 must miss after flush, got {other:?}"),
        }
        match sys.l15_access(
            Cycle::new(10),
            0,
            line,
            AccessKind::Read,
            Locality::Remote,
            &mut NullProbe,
        ) {
            L15Outcome::Miss { .. } => {}
            other => panic!("L1.5 must miss after flush, got {other:?}"),
        }
    }

    #[test]
    fn energy_ledger_reflects_traffic() {
        let mut sys = McmSystem::new(&tiny_mcm());
        sys.fabric_out(Cycle::ZERO, 0, &mut NullProbe);
        let (dir, _) = sys.ring_route(0, 1);
        sys.ring_hop(
            Cycle::ZERO,
            0,
            1,
            dir,
            REQUEST_BYTES,
            &mut NullProbe,
            &mut NullFaultPlan,
        );
        sys.mem_read(
            Cycle::ZERO,
            1,
            LineAddr::new(1),
            Locality::Remote,
            &mut NullProbe,
            &mut NullFaultPlan,
        );
        let ledger = sys.energy_ledger();
        assert!(ledger.bytes(mcm_interconnect::energy::Tier::Package) > 0);
        assert!(ledger.bytes(mcm_interconnect::energy::Tier::Chip) > 0);
        assert!(ledger.dram_joules() > 0.0);
    }

    /// Records every hook the stage primitives emit, rendered as text.
    #[derive(Default)]
    struct Log(Vec<String>);

    impl Probe for Log {
        fn cache_access(&mut self, cache: &'static str, unit: u32, _now: Cycle, hit: bool) {
            let what = if hit { "hit" } else { "miss" };
            self.0.push(format!("{cache}@{unit} {what}"));
        }
        fn mshr_occupancy(&mut self, sm: u32, _now: Cycle, outstanding: u32, capacity: u32) {
            self.0.push(format!("mshr@{sm} {outstanding}/{capacity}"));
        }
        fn link_transfer(&mut self, link: LinkId, _now: Cycle, bytes: u64, arrival: Cycle) {
            self.0
                .push(format!("{link} {bytes}B @{}", arrival.as_u64()));
        }
        fn xbar_transfer(&mut self, module: u32, _now: Cycle, bytes: u64) {
            self.0.push(format!("xbar@{module} {bytes}B"));
        }
        fn dram_access(&mut self, partition: u32, _now: Cycle, bytes: u64) {
            self.0.push(format!("dram@{partition} {bytes}B"));
        }
        fn fault(&mut self, _now: Cycle, event: FaultEvent) {
            self.0.push(format!("{event:?}"));
        }
    }

    /// An active plan that never fires: every consultation runs, none
    /// perturbs.
    #[derive(Clone)]
    struct Benign;
    impl FaultPlan for Benign {}

    #[test]
    fn cache_decisions_are_reported_but_bypasses_are_not() {
        let mut cfg = tiny_mcm();
        cfg.caches.l15_bytes_total = 8 << 20;
        let mut sys = McmSystem::new(&cfg);
        let mut log = Log::default();
        let line = LineAddr::new(7);
        sys.l1_access(Cycle::ZERO, 3, line, AccessKind::Read, &mut log);
        sys.l1_fill(3, line, Cycle::ZERO);
        sys.l1_access(Cycle::new(10), 3, line, AccessKind::Read, &mut log);
        // The remote-only L1.5 filters a local access out before it
        // touches the tags: no hit-rate signal, nothing reported.
        sys.l15_access(
            Cycle::ZERO,
            1,
            line,
            AccessKind::Read,
            Locality::Local,
            &mut log,
        );
        sys.l15_access(
            Cycle::ZERO,
            1,
            line,
            AccessKind::Read,
            Locality::Remote,
            &mut log,
        );
        // A disabled L1.5 is invisible too.
        McmSystem::new(&tiny_mcm()).l15_access(
            Cycle::ZERO,
            1,
            line,
            AccessKind::Read,
            Locality::Remote,
            &mut log,
        );
        assert_eq!(log.0, ["L1@3 miss", "L1@3 hit", "L1.5@1 miss"]);
    }

    #[test]
    fn mshr_reserve_and_release_report_occupancy() {
        let cfg = tiny_mcm();
        let cap = cfg.sm.mshr_entries;
        let mut sys = McmSystem::new(&cfg);
        let mut log = Log::default();
        sys.mshr_reserve(Cycle::ZERO, 5, LineAddr::new(1), 0, &mut log);
        sys.mshr_reserve(Cycle::new(3), 5, LineAddr::new(2), 1, &mut log);
        let released = sys.mshr_release(Cycle::new(9), 5, LineAddr::new(1), &mut log);
        assert_eq!(released, Some(0));
        // Releasing a line with no entry reports nothing.
        let missing = sys.mshr_release(Cycle::new(10), 5, LineAddr::new(7), &mut log);
        assert_eq!(missing, None);
        assert_eq!(
            log.0,
            [
                format!("mshr@5 1/{cap}"),
                format!("mshr@5 2/{cap}"),
                format!("mshr@5 1/{cap}")
            ]
        );
    }

    #[test]
    fn fabric_out_reports_the_module_crossbar() {
        let mut sys = McmSystem::new(&tiny_mcm());
        let mut log = Log::default();
        sys.fabric_out(Cycle::ZERO, 2, &mut log);
        assert_eq!(log.0, ["xbar@2 128B"]);
    }

    #[test]
    fn ring_hops_report_the_segment_and_arrival() {
        let mut sys = McmSystem::new(&tiny_mcm());
        let mut log = Log::default();
        let cw = RingDir::Clockwise;
        let (_, t1) = sys.ring_hop(Cycle::ZERO, 0, 1, cw, 256, &mut log, &mut NullFaultPlan);
        // Counter-clockwise from node 0 crosses the segment carrying
        // node 0 to node 3, which is named by its lower node.
        let ccw = RingDir::CounterClockwise;
        let (next, t2) = sys.ring_hop(Cycle::ZERO, 0, 3, ccw, 128, &mut log, &mut NullFaultPlan);
        assert_eq!(next, 3);
        assert_eq!(
            log.0,
            [
                format!("cw0 256B @{}", t1.as_u64()),
                format!("ccw3 128B @{}", t2.as_u64())
            ]
        );
    }

    #[test]
    fn mesh_hops_name_the_pair_and_skip_self_transfers() {
        let mut cfg = tiny_mcm();
        cfg.topology.network = NetworkKind::FullyConnected;
        let mut sys = McmSystem::new(&cfg);
        let mut log = Log::default();
        let cw = RingDir::Clockwise;
        let (_, t) = sys.ring_hop(Cycle::ZERO, 1, 3, cw, 128, &mut log, &mut NullFaultPlan);
        // A free self-transfer crosses no link and is not reported.
        let (_, free) = sys.ring_hop(Cycle::new(5), 2, 2, cw, 128, &mut log, &mut NullFaultPlan);
        assert_eq!(free, Cycle::new(5));
        assert_eq!(log.0, [format!("mesh1-3 128B @{}", t.as_u64())]);
    }

    #[test]
    fn mem_read_reports_the_l2_miss_and_its_dram_line() {
        let mut sys = McmSystem::new(&tiny_mcm());
        let mut log = Log::default();
        let line = LineAddr::new(40);
        sys.mem_read(
            Cycle::ZERO,
            2,
            line,
            Locality::Remote,
            &mut log,
            &mut NullFaultPlan,
        );
        assert_eq!(log.0, ["L2@2 miss", "dram@2 128B"]);
    }

    #[test]
    fn a_plan_that_never_fires_leaves_timing_unchanged() {
        let mut null = McmSystem::new(&tiny_mcm());
        let mut benign = McmSystem::new(&tiny_mcm());
        for i in 0..32u64 {
            let (now, line) = (Cycle::new(i), LineAddr::new(i * 3));
            let (home, to) = ((i % 4) as usize, ((i + 1) % 4) as usize);
            let (dir, _) = null.ring_route(home, to);
            assert_eq!(
                null.ring_hop(now, home, to, dir, 128, &mut NullProbe, &mut NullFaultPlan),
                benign.ring_hop(now, home, to, dir, 128, &mut NullProbe, &mut Benign)
            );
            assert_eq!(
                null.mem_read(
                    now,
                    home,
                    line,
                    Locality::Local,
                    &mut NullProbe,
                    &mut NullFaultPlan
                ),
                benign.mem_read(
                    now,
                    home,
                    line,
                    Locality::Local,
                    &mut NullProbe,
                    &mut Benign
                )
            );
        }
        assert_eq!(null.inter_module_bytes(), benign.inter_module_bytes());
        assert_eq!(null.dram_bytes(), benign.dram_bytes());
    }

    #[test]
    fn throttled_dram_is_reported_and_slower() {
        #[derive(Clone)]
        struct Hot;
        impl FaultPlan for Hot {
            fn dram_stretch(&mut self, _module: u32, _now: Cycle) -> f64 {
                4.0
            }
        }
        let mut cool = McmSystem::new(&tiny_mcm());
        let mut hot = McmSystem::new(&tiny_mcm());
        let mut log = Log::default();
        let line = LineAddr::new(40);
        let a = cool.mem_read(
            Cycle::ZERO,
            0,
            line,
            Locality::Local,
            &mut NullProbe,
            &mut Benign,
        );
        let b = hot.mem_read(Cycle::ZERO, 0, line, Locality::Local, &mut log, &mut Hot);
        assert!(b > a, "a x4 stretch must delay the fill ({b} vs {a})");
        assert_eq!(
            log.0,
            [
                "L2@0 miss",
                "DramThrottle { module: 0, stretch: 4.0 }",
                "dram@0 128B"
            ]
        );
        assert_eq!(hot.dram_bytes(), cool.dram_bytes());
    }

    #[test]
    fn link_errors_retransmit_on_the_same_link_with_backoff() {
        /// Errors every attempt until the retry budget is spent.
        #[derive(Clone)]
        struct AlwaysError;
        impl FaultPlan for AlwaysError {
            fn link_error(&mut self, _link: LinkId, _attempt: u32) -> bool {
                true
            }
            fn link_backoff(&self, _attempt: u32) -> Cycle {
                Cycle::new(100)
            }
            fn link_max_retries(&self) -> u32 {
                2
            }
        }
        let cw = RingDir::Clockwise;
        let mut faulty = McmSystem::new(&tiny_mcm());
        let mut log = Log::default();
        let (next, done) = faulty.ring_hop(Cycle::ZERO, 0, 1, cw, 256, &mut log, &mut AlwaysError);
        assert_eq!(next, 1);
        // Three attempts (two retries, then the spent budget forces the
        // transfer through), 100 cycles of backoff apart, each really
        // crossing the same segment.
        let mut plain = McmSystem::new(&tiny_mcm());
        let mut arrivals = Vec::new();
        let mut t = Cycle::ZERO;
        for _ in 0..3 {
            t = plain
                .ring_hop(t, 0, 1, cw, 256, &mut NullProbe, &mut NullFaultPlan)
                .1;
            arrivals.push(t.as_u64());
            t += Cycle::new(100);
        }
        assert_eq!(done.as_u64(), arrivals[2]);
        assert_eq!(faulty.inter_module_bytes(), 3 * 256);
        assert_eq!(
            log.0,
            [
                format!("cw0 256B @{}", arrivals[0]),
                "LinkRetry { link: RingCw(0), attempt: 0 }".to_string(),
                format!("cw0 256B @{}", arrivals[1]),
                "LinkRetry { link: RingCw(0), attempt: 1 }".to_string(),
                format!("cw0 256B @{}", arrivals[2]),
            ]
        );
    }
}
