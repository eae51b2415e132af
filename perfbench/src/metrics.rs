//! The metric catalogue (names, units, bounds, and which end-to-end
//! metric each layer metric is expected to move), sample statistics,
//! and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

use mcm_telemetry::json::{push_escaped, push_f64};

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric, measured with tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, in print order. `BENCHMARK.json` mirrors
/// this table; the smoke test holds the two equal.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_minst_per_s",
        unit: "Minst/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "requests_per_s",
        unit: "req/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "hit_latency_us_p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "hit_latency_us_p99",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "miss_latency_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "miss_latency_ms_p90",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// One per-layer metric, measured in the traced pass only.
#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    /// The module (crate or crate path) the metric belongs to.
    pub layer: &'static str,
    /// The end-to-end metric it is expected to move.
    pub moves: &'static str,
    /// The workload on which it should move it.
    pub on: &'static str,
}

/// The configuration presets every simulation workload sweeps.
pub const PRESETS: [&str; 4] = ["baseline", "l15-ds", "optimized", "opt-fc"];

/// CTA scheduler policies timed in isolation.
pub const SCHEDULERS: [&str; 4] = ["centralized", "distributed", "chunked", "dynamic"];

/// Page placement policies timed in isolation.
pub const PLACEMENTS: [&str; 2] = ["interleaved", "first-touch"];

/// The workloads whose address streams are timed in isolation: every
/// name in the two simulation pair lists.
pub const STREAM_WORKLOADS: [&str; 7] = ["Stream", "CFD", "SSSP", "SGEMM", "Backprop", "DWT", "NN"];

/// The cache levels the probe reports, with their metric stem.
pub const CACHE_LEVELS: [(&str, &str); 3] = [("L1", "l1"), ("L1.5", "l15"), ("L2", "l2")];

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<PerLayer> {
    let mut out = Vec::new();
    let mut add = |name: String, unit, layer, moves, on| {
        out.push(PerLayer {
            name,
            unit,
            layer,
            moves,
            on,
        });
    };
    const BOTH: &str = "sim-memory,sim-compute";
    const MEM: &str = "sim-memory";
    const COMPUTE: &str = "sim-compute";
    const SERVE: &str = "serve-mixed";
    const SHARDED: &str = "sim-sharded";
    const TPUT: &str = "sim_minst_per_s";

    add("engine.events".into(), "count", "mcm-engine", TPUT, BOTH);
    add("engine.ns_per_event".into(), "ns", "mcm-engine", TPUT, BOTH);
    add(
        "engine.warp_event_ns".into(),
        "ns",
        "mcm-engine",
        TPUT,
        COMPUTE,
    );
    add("engine.req_event_ns".into(), "ns", "mcm-engine", TPUT, MEM);
    add(
        "engine.deliver_event_ns".into(),
        "ns",
        "mcm-engine",
        TPUT,
        MEM,
    );
    for p in PRESETS {
        add(
            format!("engine.warp_event_ns.{p}"),
            "ns",
            "mcm-engine",
            TPUT,
            COMPUTE,
        );
        add(
            format!("engine.req_event_ns.{p}"),
            "ns",
            "mcm-engine",
            TPUT,
            MEM,
        );
        add(
            format!("engine.launch_us.{p}"),
            "us",
            "mcm-engine",
            TPUT,
            BOTH,
        );
    }
    add(
        "engine.ds_warp_ratio".into(),
        "ratio",
        "mcm-engine",
        TPUT,
        COMPUTE,
    );
    add(
        "engine.ds_req_ratio".into(),
        "ratio",
        "mcm-engine",
        TPUT,
        MEM,
    );
    add(
        "engine.ds_launch_ratio".into(),
        "ratio",
        "mcm-engine",
        TPUT,
        BOTH,
    );
    add("engine.launch_us".into(), "us", "mcm-engine", TPUT, BOTH);
    add(
        "engine.queue_depth_mean".into(),
        "count",
        "mcm-engine",
        TPUT,
        BOTH,
    );
    add("queue.hold_ns".into(), "ns", "mcm-engine", TPUT, BOTH);

    add("sm.issue_ns".into(), "ns", "mcm-sm", TPUT, COMPUTE);
    for s in SCHEDULERS {
        add(
            format!("sched.next_cta_ns.{s}"),
            "ns",
            "mcm-sm",
            TPUT,
            COMPUTE,
        );
    }
    for w in STREAM_WORKLOADS {
        add(
            format!("stream.op_ns.{w}"),
            "ns",
            "mcm-workloads",
            TPUT,
            COMPUTE,
        );
    }

    for (_, stem) in CACHE_LEVELS {
        add(
            format!("cache.{stem}.accesses"),
            "count",
            "mcm-mem",
            TPUT,
            MEM,
        );
        add(
            format!("cache.{stem}.hit_rate"),
            "fraction",
            "mcm-mem",
            TPUT,
            MEM,
        );
        add(
            format!("cache.{stem}.access_ns"),
            "ns",
            "mcm-mem",
            TPUT,
            MEM,
        );
    }
    add("mshr.ops".into(), "count", "mcm-mem", TPUT, MEM);
    add("mshr.op_ns".into(), "ns", "mcm-mem", TPUT, MEM);
    add("dram.accesses".into(), "count", "mcm-mem", TPUT, MEM);
    add("dram.access_ns".into(), "ns", "mcm-mem", TPUT, MEM);
    for p in PLACEMENTS {
        add(format!("page.lookup_ns.{p}"), "ns", "mcm-mem", TPUT, MEM);
    }

    add(
        "xbar.transfers".into(),
        "count",
        "mcm-interconnect",
        TPUT,
        MEM,
    );
    add(
        "xbar.transfer_ns".into(),
        "ns",
        "mcm-interconnect",
        TPUT,
        MEM,
    );
    add(
        "fabric.transfers".into(),
        "count",
        "mcm-interconnect",
        TPUT,
        MEM,
    );
    add(
        "fabric.bytes".into(),
        "bytes",
        "mcm-interconnect",
        TPUT,
        MEM,
    );
    add("ring.hop_ns".into(), "ns", "mcm-interconnect", TPUT, MEM);
    add("mesh.hop_ns".into(), "ns", "mcm-interconnect", TPUT, MEM);

    for p in PRESETS {
        add(
            format!("system.new_ms.{p}"),
            "ms",
            "mcm-gpu",
            "setup_s",
            "all",
        );
    }
    add("attrib.coverage".into(), "fraction", "mcm-gpu", TPUT, BOTH);
    add("trace.overhead".into(), "ratio", "mcm-gpu", TPUT, BOTH);

    for m in ["epochs", "messages", "mailbox_bytes", "sequencer_stalls"] {
        let unit = if m == "mailbox_bytes" {
            "bytes"
        } else {
            "count"
        };
        add(
            format!("shard.{m}"),
            unit,
            "mcm-gpu::shard+mcm-exec::barrier",
            TPUT,
            SHARDED,
        );
    }

    add(
        "store.get_us".into(),
        "us",
        "mcm-store",
        "hit_latency_us_p50",
        SERVE,
    );
    add(
        "store.put_ms".into(),
        "ms",
        "mcm-store",
        "miss_latency_ms_p50",
        SERVE,
    );
    add(
        "store.hits".into(),
        "count",
        "mcm-store",
        "hit_latency_us_p50",
        SERVE,
    );
    add(
        "store.puts".into(),
        "count",
        "mcm-store",
        "miss_latency_ms_p50",
        SERVE,
    );

    add(
        "protocol.parse_us".into(),
        "us",
        "mcm-serve",
        "hit_latency_us_p50",
        SERVE,
    );
    add(
        "protocol.render_us".into(),
        "us",
        "mcm-serve",
        "hit_latency_us_p50",
        SERVE,
    );
    for m in ["hits", "misses", "inflight_dedups", "rejections"] {
        add(
            format!("serve.{m}"),
            "count",
            "mcm-serve",
            "requests_per_s",
            SERVE,
        );
    }

    add(
        "exec.service_jobs".into(),
        "count",
        "mcm-exec",
        "miss_latency_ms_p90",
        SERVE,
    );
    add(
        "serve.queue_depth_hw".into(),
        "count",
        "mcm-exec",
        "miss_latency_ms_p90",
        SERVE,
    );
    add(
        "exec.miss_wait_ms".into(),
        "ms",
        "mcm-exec",
        "miss_latency_ms_p90",
        SERVE,
    );
    out
}

/// Runs `setup` `reps` times, tearing each down before the next, and
/// returns the last one with every set-up time in seconds (`setup_s`
/// is their median). The first is timed from `process_start`, so it
/// includes start-up.
pub fn repeated_setup<S>(
    reps: usize,
    process_start: Instant,
    mut setup: impl FnMut() -> S,
    mut teardown: impl FnMut(S),
) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        if let Some(s) = last.take() {
            teardown(s);
        }
        let t0 = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    eprintln!("perfbench: set-up times (s) {times:.3?}");
    (last.expect("at least one set-up"), times)
}

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

/// Linear-interpolated quantile of `samples` (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty sample: every caller has measured something.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A ratio that reads 0 instead of NaN when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `VmHWM` of this process, in MB: the peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The run's outcome: op counts plus the metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl Outcome {
    pub fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding the given `(name, unit)` entries.
pub fn result_line(outcome: &Outcome, names: &[(String, &'static str)]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"correct\":");
    out.push_str(if outcome.failed == 0 { "true" } else { "false" });
    out.push_str(",\"attempted\":");
    push_f64(&mut out, outcome.attempted as f64);
    out.push_str(",\"failed\":");
    push_f64(&mut out, outcome.failed as f64);
    out.push_str(",\"metrics\":{");
    for (i, (name, unit)) in names.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let v = outcome.values.get(name).copied().unwrap_or(0.0);
        push_escaped(&mut out, name);
        out.push_str(":{\"value\":");
        push_f64(&mut out, if v.is_finite() { v } else { 0.0 });
        out.push_str(",\"unit\":");
        push_escaped(&mut out, unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
    }

    #[test]
    fn bounds_and_directions_match_benchmark_json() {
        use mcm_telemetry::json::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let list = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        assert_eq!(list.len(), END_TO_END.len());
        for (m, j) in END_TO_END.iter().zip(list) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            let better = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(better),
                "{}",
                m.name
            );
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        let names: Vec<&str> = layers
            .iter()
            .map(|j| j.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours = per_layer();
        assert_eq!(
            names,
            ours.iter().map(|m| m.name.as_str()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn per_layer_names_are_unique_and_within_the_cap() {
        let names: std::collections::BTreeSet<String> =
            per_layer().into_iter().map(|m| m.name).collect();
        assert_eq!(names.len(), per_layer().len());
        assert!(names.len() <= 128);
    }
}
