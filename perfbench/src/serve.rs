//! The `serve-mixed` workload: an in-process `SweepService` over a
//! fresh result store, driven by two client connections in a closed
//! loop (each waits for `done` before its next request).
//!
//! Every round, both connections first send the *same* miss pair (the
//! in-flight dedupe path), then one miss pair each, then hits for a
//! fixed time slice. Hits name pairs warmed into the store at set-up;
//! misses name pairs absent from it. The seed fixes the order of the
//! pair pool, and with it the hit set, the miss order and every hit
//! choice, so each run of one seed asks the same questions.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mcm_bench::harness::pair_fingerprint;
use mcm_bench::serve_backend::{preset_table, MemoBackend};
use mcm_engine::rng::Xoshiro256;
use mcm_gpu::{RunReport, Simulator};
use mcm_serve::protocol::{render_report, report_slice, Request};
use mcm_serve::service::{ServeOptions, SweepService};
use mcm_store::Store;
use mcm_workloads::{suite, WorkloadSpec};

use crate::metrics::{median, quantile, repeated_setup, Outcome};
use crate::workloads::{preset, ScratchDir, Workload};

/// Client connections (and load threads).
const CLIENTS: usize = 2;
/// Service pool workers.
const WORKERS: usize = 2;
/// The hit set: this preset on the first `HIT_SET` limited-parallelism
/// workloads, warmed into the store at set-up. Fixed, so set-up does
/// the same work whatever the seed.
const HIT_PRESET: &str = "baseline";
const HIT_SET: usize = 8;
/// A request that takes longer than this counts as failed.
const TIMEOUT: Duration = Duration::from_secs(60);

/// Size knobs: the full run, or the smoke test's tiny one.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub scale: f64,
    pub hit_slice: Duration,
}

impl Sizes {
    pub fn new(tiny: bool) -> Sizes {
        if tiny {
            Sizes {
                scale: 0.01,
                hit_slice: Duration::from_millis(40),
            }
        } else {
            Sizes {
                scale: 0.05,
                hit_slice: Duration::from_millis(500),
            }
        }
    }
}

/// One `(preset, workload)` pair of the service's pool.
#[derive(Debug, Clone)]
pub struct ServePair {
    pub preset: &'static str,
    pub spec: WorkloadSpec,
}

impl ServePair {
    /// The direct run a served report must equal, byte for byte.
    pub fn simulate(&self, scale: f64) -> RunReport {
        Simulator::run(&preset(self.preset), &self.spec.scaled(scale))
    }
}

/// The hit set, in suite order.
pub fn hit_set() -> Vec<ServePair> {
    suite::limited_parallelism_suite()
        .into_iter()
        .take(HIT_SET)
        .map(|spec| ServePair {
            preset: HIT_PRESET,
            spec,
        })
        .collect()
}

/// The miss pool: every other preset the service knows × the
/// limited-parallelism workloads (cheap, similar-cost simulations), in
/// a seeded order balanced by workload: any run of as many consecutive
/// pairs as there are workloads names each workload exactly once.
/// Simulated instruction counts depend on the workload alone, so a
/// window of misses simulates the same work whatever the seed.
pub fn miss_pool(seed: u64) -> Vec<ServePair> {
    let mut rng = Xoshiro256::seeded(&[seed, 0x5E4E_0001]);
    let mut shuffle = |n: usize| {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.next_range(i as u64 + 1) as usize);
        }
        order
    };
    let presets: Vec<&'static str> = preset_table()
        .into_keys()
        .filter(|p| *p != HIT_PRESET)
        .collect();
    let workloads = suite::limited_parallelism_suite();
    let (po, wo) = (shuffle(presets.len()), shuffle(workloads.len()));
    (0..presets.len() * workloads.len())
        .map(|i| {
            let (block, k) = (i / workloads.len(), i % workloads.len());
            ServePair {
                preset: presets[po[(block + k) % presets.len()]],
                spec: workloads[wo[k]].clone(),
            }
        })
        .collect()
}

/// One client connection.
#[derive(Debug)]
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

/// A completed sweep request.
struct Reply {
    latency: Duration,
    /// Whether any pair was simulated for it (`run` or `shared`).
    simulated: bool,
    /// The report bytes of its single pair.
    report: String,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            next_id: 1,
        })
    }

    fn send(&mut self, request: &Request) -> Result<(), String> {
        let mut line = request.render();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send failed: {e}"))
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("read failed: {e}")),
        }
    }

    fn ping(&mut self) -> Result<(), String> {
        self.send(&Request::Ping)?;
        let line = self.read_line()?;
        line.contains("pong")
            .then_some(())
            .ok_or_else(|| format!("unexpected ping answer {line}"))
    }

    /// One single-pair sweep, timed from send to the `done` line.
    fn sweep(&mut self, pair: &ServePair) -> Result<Reply, String> {
        let id = self.next_id;
        self.next_id += 1;
        let request = Request::Sweep {
            id,
            configs: vec![pair.preset.to_string()],
            workloads: vec![pair.spec.name.to_string()],
        };
        let t = Instant::now();
        self.send(&request)?;
        let mut pair_lines = Vec::with_capacity(1);
        loop {
            let line = self.read_line()?;
            if line.starts_with("{\"done\"") {
                break;
            }
            if line.starts_with("{\"id\"") {
                pair_lines.push(line);
            } else if !line.starts_with("{\"ack\"") {
                return Err(format!("unexpected line {line}"));
            }
        }
        let latency = t.elapsed();
        let [line] = <[String; 1]>::try_from(pair_lines)
            .map_err(|lines| format!("expected one pair line, got {}", lines.len()))?;
        let simulated = !line.contains("\"source\":\"hit\"");
        let report = report_slice(&line)
            .ok_or_else(|| format!("pair line without a report: {line}"))?
            .to_string();
        Ok(Reply {
            latency,
            simulated,
            report,
        })
    }
}

/// A running service with its connected clients.
#[derive(Debug)]
pub struct ServeSetup {
    service: SweepService,
    clients: Vec<Client>,
    hits: Vec<(ServePair, String)>,
    misses: Vec<ServePair>,
    sizes: Sizes,
    _dir: ScratchDir,
}

impl ServeSetup {
    /// Warms the hit set into a fresh store, reopens it (the warm
    /// restart), starts the service over it and connects the clients.
    pub fn start(seed: u64, sizes: Sizes) -> ServeSetup {
        let misses = miss_pool(seed);
        let dir = ScratchDir::new("serve-mixed");
        let mut hits = Vec::with_capacity(HIT_SET);
        {
            let store = Store::open(dir.path()).expect("open the service's store");
            for pair in hit_set() {
                let r = pair.simulate(sizes.scale);
                let key = pair_fingerprint(sizes.scale, &preset(pair.preset), &pair.spec);
                store.put(key, pair.spec.name, &r);
                hits.push((pair, render_report(&r)));
            }
        }
        let store = Store::open(dir.path()).expect("reopen the service's store");
        let backend = MemoBackend::new(sizes.scale, Some(store));
        let service = SweepService::start(
            "127.0.0.1:0",
            Arc::new(backend),
            ServeOptions {
                workers: WORKERS,
                queue_capacity: 64,
            },
        )
        .expect("start the sweep service on a loopback port");
        let clients = (0..CLIENTS)
            .map(|_| {
                let mut c = Client::connect(service.local_addr()).expect("connect a client");
                c.ping().expect("service answers ping");
                c
            })
            .collect();
        ServeSetup {
            service,
            clients,
            hits,
            misses,
            sizes,
            _dir: dir,
        }
    }

    /// Closes the clients and stops the service, waiting for every
    /// thread it started.
    pub fn stop(self) -> mcm_serve::service::ServeStats {
        drop(self.clients);
        self.service.shutdown();
        self.service.wait()
    }
}

/// One miss request as sent: its pool index and reply.
#[derive(Debug)]
pub struct MissSample {
    pub pair: usize,
    pub latency_ms: f64,
}

/// What one closed-loop window measured.
#[derive(Debug)]
pub struct ServeRun {
    pub elapsed: f64,
    pub requests: u64,
    pub hit_us: Vec<f64>,
    pub misses: Vec<MissSample>,
    /// Distinct miss pairs asked, with their direct reference time (ms)
    /// and instruction count.
    pub references: Vec<(usize, f64, u64)>,
}

/// Runs the closed loop for `seconds`, checks every reply, then stops
/// the service.
pub fn closed_loop(mut s: ServeSetup, seed: u64, seconds: f64, outcome: &mut Outcome) -> ServeRun {
    let barrier = Barrier::new(CLIENTS);
    let stop = AtomicBool::new(false);
    let window = Instant::now();
    let deadline = window + Duration::from_secs_f64(seconds);
    let (hits, misses, slice) = (&s.hits, &s.misses, s.sizes.hit_slice);
    let per_client: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let (barrier, stop) = (&barrier, &stop);
                scope.spawn(move || {
                    let mut rng = Xoshiro256::seeded(&[seed, 0x5E4E_0002, i as u64]);
                    let mut hit_us = Vec::new();
                    let mut miss = Vec::new();
                    let mut failed = 0u64;
                    let mut sent = 0u64;
                    for round in 0.. {
                        // Both connections agree on whether to go on.
                        if barrier.wait().is_leader() {
                            let exhausted = CLIENTS + 1 + round * (CLIENTS + 1) > misses.len();
                            stop.store(exhausted || Instant::now() >= deadline, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let base = round * (CLIENTS + 1);
                        for idx in [base, base + 1 + i] {
                            sent += 1;
                            match client.sweep(&misses[idx]) {
                                Ok(r) => miss.push((idx, r)),
                                Err(e) => {
                                    eprintln!("perfbench: serve-mixed miss failed: {e}");
                                    failed += 1;
                                }
                            }
                        }
                        let slice_end = Instant::now() + slice;
                        while Instant::now() < slice_end {
                            let h = rng.next_range(hits.len() as u64) as usize;
                            sent += 1;
                            match client.sweep(&hits[h].0) {
                                Ok(r) if !r.simulated && r.report == hits[h].1 => {
                                    hit_us.push(r.latency.as_secs_f64() * 1e6);
                                }
                                Ok(_) => failed += 1,
                                Err(e) => {
                                    eprintln!("perfbench: serve-mixed hit failed: {e}");
                                    failed += 1;
                                }
                            }
                        }
                    }
                    (sent, failed, hit_us, miss)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = window.elapsed().as_secs_f64();
    outcome
        .values
        .insert("peak_heap_mb".into(), crate::HEAP.peak_mb());
    let scale = s.sizes.scale;
    let misses = std::mem::take(&mut s.misses);
    let stats = s.stop();

    let mut requests = 0;
    let mut hit_us = Vec::new();
    let mut replies = Vec::new();
    for (sent, failed, h, m) in per_client {
        requests += sent;
        outcome.attempted += sent;
        outcome.failed += failed;
        hit_us.extend(h);
        replies.extend(m);
    }

    // Every miss reply must equal a direct run of its pair.
    let mut asked: Vec<usize> = replies.iter().map(|(idx, _)| *idx).collect();
    asked.sort_unstable();
    asked.dedup();
    let mut references = Vec::with_capacity(asked.len());
    let mut expected = std::collections::HashMap::new();
    for &idx in &asked {
        let t = Instant::now();
        let r = misses[idx].simulate(scale);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        references.push((idx, ms, r.instructions));
        expected.insert(idx, render_report(&r));
    }
    // A shared miss that arrives after its run finished is answered as
    // a hit, correctly; its latency then counts as one.
    let mut miss_samples = Vec::with_capacity(replies.len());
    for (idx, r) in replies {
        if r.report != expected[&idx] {
            outcome.failed += 1;
        } else if r.simulated {
            miss_samples.push(MissSample {
                pair: idx,
                latency_ms: r.latency.as_secs_f64() * 1e3,
            });
        } else {
            hit_us.push(r.latency.as_secs_f64() * 1e6);
        }
    }
    // Each distinct pair simulated exactly once.
    outcome.check(stats.misses == asked.len() as u64);
    eprintln!(
        "perfbench: serve-mixed: {requests} requests ({} hits, {} miss replies, {} distinct misses) in {elapsed:.2} s",
        hit_us.len(),
        miss_samples.len(),
        asked.len()
    );
    ServeRun {
        elapsed,
        requests,
        hit_us,
        misses: miss_samples,
        references,
    }
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64, tiny: bool, process_start: Instant, outcome: &mut Outcome) {
    let sizes = Sizes::new(tiny);
    let (s, setup_times) = repeated_setup(
        Workload::ServeMixed.setup_reps(),
        process_start,
        || ServeSetup::start(seed, sizes),
        |s| {
            s.stop();
        },
    );
    let run = closed_loop(s, seed, seconds, outcome);
    let miss_ms: Vec<f64> = run.misses.iter().map(|m| m.latency_ms).collect();
    let instructions: u64 = run.references.iter().map(|r| r.2).sum();
    let v = &mut outcome.values;
    v.insert("setup_s".into(), median(&setup_times));
    v.insert(
        "sim_minst_per_s".into(),
        instructions as f64 / 1e6 / run.elapsed,
    );
    v.insert("requests_per_s".into(), run.requests as f64 / run.elapsed);
    if !run.hit_us.is_empty() {
        v.insert("hit_latency_us_p50".into(), median(&run.hit_us));
        v.insert("hit_latency_us_p99".into(), quantile(&run.hit_us, 0.99));
    }
    if !miss_ms.is_empty() {
        v.insert("miss_latency_ms_p50".into(), median(&miss_ms));
        v.insert("miss_latency_ms_p90".into(), quantile(&miss_ms, 0.9));
    }
}
