//! The run loop's zero-allocation steady-state contract.
//!
//! The first few kernels warm every pool: slot arenas grow to their
//! peak, the calendar queue builds its node pool, first-touch page
//! mappings and MSHR maps reach capacity. Every later kernel of the
//! same grid must then execute **without a single allocator call** —
//! the event loop reuses pooled waiter buffers, recycled queue nodes
//! and the rewound CTA pool. The simulator is deterministic, so the counter delta is
//! exact: a regression that reintroduces per-event allocation fails
//! this test reproducibly, not statistically.

use mcm_engine::Cycle;
use mcm_fault::NullFaultPlan;
use mcm_gpu::{Simulator, SystemConfig};
use mcm_probe::Probe;
use mcm_testkit::alloc::CountingAllocator;
use mcm_workloads::WorkloadSpec;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

const KERNELS: usize = 6;

/// Snapshots the allocator at each kernel boundary into fixed arrays —
/// the probe itself must not allocate, or it would poison the count.
struct KernelWindows {
    begin: [u64; KERNELS],
    end: [u64; KERNELS],
    seen: usize,
}

impl Probe for KernelWindows {
    fn kernel_begin(&mut self, kernel: u32, _now: Cycle) {
        self.begin[kernel as usize] = ALLOC.alloc_events();
    }

    fn kernel_end(&mut self, kernel: u32, _now: Cycle) {
        self.end[kernel as usize] = ALLOC.alloc_events();
        self.seen = self.seen.max(kernel as usize + 1);
    }
}

fn alloc_probe_spec() -> WorkloadSpec {
    let mut spec = WorkloadSpec::template("alloc-probe");
    spec.ctas = 64;
    spec.warps_per_cta = 2;
    spec.insts_per_warp = 128;
    spec.kernel_iters = KERNELS as u32;
    // A small footprint with many more accesses than pages, so kernel 0
    // touches (and maps) every first-touch page and later kernels hit a
    // fully-built page table.
    spec.footprint_bytes = 1 << 20;
    spec
}

fn small_machine() -> SystemConfig {
    let mut cfg = SystemConfig::baseline_mcm();
    cfg.topology.sms_per_module = 4; // 16 SMs
    cfg
}

/// Each kernel draws a fresh address stream, so first-touch page
/// mappings (and the hash-map capacity behind them) keep warming for a
/// few launches; the machine pools themselves are warm after kernel 0.
/// Steady state must then be exactly allocation-free.
fn assert_steady_state_alloc_free(probe: &KernelWindows) {
    assert_eq!(probe.seen, KERNELS, "every kernel must report its window");
    const WARMUP_KERNELS: usize = 3;
    for k in WARMUP_KERNELS..KERNELS {
        assert_eq!(
            probe.end[k] - probe.begin[k],
            0,
            "kernel {k} allocated in steady state (per-kernel allocator \
             calls: {:?})",
            (0..KERNELS)
                .map(|k| probe.end[k] - probe.begin[k])
                .collect::<Vec<_>>()
        );
    }
}

/// A [`KernelWindows`] with `ACTIVE = false`: it rides the sharded
/// engine instead of forcing the serial fallback, and its
/// kernel-boundary callbacks are forwarded by the epoch leader.
struct PassiveWindows(KernelWindows);

impl Probe for PassiveWindows {
    const ACTIVE: bool = false;
    fn kernel_begin(&mut self, kernel: u32, now: Cycle) {
        self.0.kernel_begin(kernel, now);
    }
    fn kernel_end(&mut self, kernel: u32, now: Cycle) {
        self.0.kernel_end(kernel, now);
    }
}

fn windows() -> KernelWindows {
    KernelWindows {
        begin: [0; KERNELS],
        end: [0; KERNELS],
        seen: 0,
    }
}

/// The contract holds serially and per shard under sharded execution:
/// after warm-up, a steady-state kernel spends zero allocator calls
/// across ALL shard threads — the epoch mailboxes, sequencer slots,
/// and per-shard arenas reach capacity during the warm-up kernels and
/// are recycled thereafter.
///
/// The counting allocator is process-global, so both runs live in this
/// one test and execute one after the other: a second concurrently
/// running test would charge its own allocations to these windows.
#[test]
fn steady_state_kernels_do_not_allocate() {
    let spec = alloc_probe_spec();
    let cfg = small_machine();

    let mut serial = windows();
    let (report, _) = Simulator::run_with(&cfg, &spec, &mut serial, &mut NullFaultPlan, 1);
    assert!(report.cycles > Cycle::ZERO);
    assert_steady_state_alloc_free(&serial);

    let mut sharded = PassiveWindows(windows());
    let (report, stats) = Simulator::run_with(&cfg, &spec, &mut sharded, &mut NullFaultPlan, 2);
    assert!(report.cycles > Cycle::ZERO);
    assert_eq!(stats.shards, 2, "the run must actually shard");
    assert_steady_state_alloc_free(&sharded.0);
}
