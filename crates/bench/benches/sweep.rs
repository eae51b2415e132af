//! Parallel sweep executor throughput: one fixed configuration x
//! workload grid timed end to end at increasing worker counts, each as
//! a single shot (the grid takes seconds; batching would be
//! meaningless). On a multi-core machine the jobs=N lines should
//! approach an N-fold speedup over jobs=1 until the grid's longest
//! single run dominates; on one core they should all match, which is
//! itself worth watching — any jobs>1 overhead there is pure executor
//! cost.

use mcm_bench::harness::Memo;
use mcm_gpu::SystemConfig;
use mcm_workloads::{suite, WorkloadSpec};

fn main() {
    let configs = [
        SystemConfig::baseline_mcm(),
        SystemConfig::optimized_mcm(),
        SystemConfig::multi_gpu_baseline(),
    ];
    let workloads: Vec<WorkloadSpec> = ["Stream", "Hotspot", "DWT", "CFD", "CoMD", "Kmeans"]
        .iter()
        .map(|n| suite::by_name(n).expect("suite workload"))
        .collect();
    let pairs: Vec<(&SystemConfig, &WorkloadSpec)> = configs
        .iter()
        .flat_map(|c| workloads.iter().map(move |w| (c, w)))
        .collect();
    println!(
        "\n== sweep ({} runs at 2% scale; available parallelism {}) ==",
        pairs.len(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let mut timings = Vec::new();
    for jobs in [1usize, 2, 4, 8] {
        // A fresh memo per job count: every pair simulates again.
        let mut memo = Memo::new(0.02);
        let (failures, secs) = mcm_testkit::bench::bench_once(&format!("warm/jobs={jobs}"), || {
            memo.warm_with_jobs(jobs, &pairs)
        });
        assert!(failures.is_empty(), "quarantined: {failures:?}");
        assert_eq!(memo.stats().warm_planned, pairs.len() as u64);
        timings.push((jobs, secs));
    }
    let (_, serial) = timings[0];
    for &(jobs, secs) in &timings[1..] {
        println!("jobs={jobs}: {:.2}x vs jobs=1", serial / secs.max(1e-9));
    }
}
