//! The rkpn benchmark: four workloads driven through the public API, every
//! output checked against a reference, end-to-end metrics from an untraced
//! run and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sieve|hamming|deep|relay> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of stdout is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the full result, with
//! provenance, goes to `perfbench/results/`. See `perfbench/README.md` for
//! what each workload and metric means.

mod iter;
mod ladder;
mod local;
mod relay;
mod stats;
mod sys;
mod trace;

use iter::Iter;
use local::Graph;
use stats::{max, mean, median, percentile};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};
use trace::Trace;

/// Worker threads of every pooled executor the workloads run on.
const WORKERS: usize = 2;

/// Percentile of `run_tail_s`: the highest that leaves at least ten
/// iterations beyond it at every workload's iteration count (40 or more
/// in a 25-second run on two cores).
const TAIL_PERCENTILE: f64 = 75.0;

/// Workload sizes.
const SIEVE_BELOW: i64 = 15_000;
const HAMMING_COUNT: usize = 10_000;
const HAMMING_CAPACITY: usize = 4;
/// Channel capacity of the `monitor.detect_ms` reference run: large enough
/// that the Hamming loop never needs to grow.
const HAMMING_ROOMY_CAPACITY: usize = 8192;
const DEEP_TOKENS: usize = 50;
const DEEP_STAGES: usize = 2_000;
const DEEP_CAPACITY: usize = 64;
const RELAY_ROUND_TRIPS: usize = 5_000;
/// Round trips of the short relay run that measures the net layer in the
/// traced runs of the local workloads.
const RELAY_PROBE_ROUND_TRIPS: usize = 1_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// SplitMix64: the benchmark's only source of pseudo-random inputs.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` seeded values in `±2^40`, small enough that no stage overflows.
fn seeded_values(seed: u64, n: usize) -> Vec<i64> {
    let mut s = seed;
    (0..n)
        .map(|_| (splitmix(&mut s) >> 23) as i64 - (1i64 << 40))
        .collect()
}

/// A workload ready to iterate.
enum Workload {
    Local { graph: Graph, reference: Vec<i64> },
    Relay { payloads: Vec<i64> },
}

impl Workload {
    fn new(name: &str, seed: u64) -> Option<Self> {
        let local = |graph: Graph| {
            let reference = graph.reference();
            Workload::Local { graph, reference }
        };
        Some(match name {
            "sieve" => local(Graph::Sieve { below: SIEVE_BELOW }),
            "hamming" => local(Graph::Hamming {
                count: HAMMING_COUNT,
                capacity: HAMMING_CAPACITY,
            }),
            "deep" => local(Graph::Deep {
                values: seeded_values(seed, DEEP_TOKENS),
                stages: DEEP_STAGES,
                capacity: DEEP_CAPACITY,
            }),
            "relay" => Workload::Relay {
                payloads: seeded_values(!seed, RELAY_ROUND_TRIPS),
            },
            _ => return None,
        })
    }

    fn sizes(&self) -> String {
        match self {
            Workload::Local { graph, .. } => match graph {
                Graph::Sieve { below } => format!("{{\"below\": {below}}}"),
                Graph::Hamming { count, capacity } => {
                    format!("{{\"count\": {count}, \"capacity_bytes\": {capacity}}}")
                }
                Graph::Deep {
                    values,
                    stages,
                    capacity,
                } => format!(
                    "{{\"tokens\": {}, \"stages\": {stages}, \"capacity_bytes\": {capacity}}}",
                    values.len()
                ),
            },
            Workload::Relay { payloads } => format!(
                "{{\"round_trips\": {}, \"servers\": 2, \"net_backend\": \"default\"}}",
                payloads.len()
            ),
        }
    }

    fn iterate(&self, workers: usize, tr: &mut Trace, iter: u64) -> Iter {
        match self {
            Workload::Local { graph, reference } => {
                local::iterate(graph, reference, workers, tr, iter)
            }
            Workload::Relay { payloads } => {
                set_node_workers(workers);
                let it = relay::iterate(payloads, tr, iter);
                set_node_workers(WORKERS);
                it
            }
        }
    }
}

/// `Node` networks take their executor from `KPN_EXEC` only.
fn set_node_workers(workers: usize) {
    std::env::set_var("KPN_EXEC", format!("pooled:{workers}"));
}

/// Iterations run so far, with failures reported as they happen. Only
/// iterations that passed their check feed the timing statistics.
#[derive(Default)]
struct Runs {
    iters: Vec<Iter>,
    attempted: u64,
    failed: u64,
}

impl Runs {
    fn push(&mut self, it: Iter, keep: bool) {
        self.attempted += 1;
        if !it.ok {
            self.failed += 1;
            eprintln!(
                "iteration {} FAILED: {}",
                self.attempted,
                it.error.as_deref().unwrap_or("unknown error")
            );
        }
        if keep && it.ok {
            self.iters.push(it);
        }
    }

    fn absorb(&mut self, other: Runs) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn col(&self, f: impl Fn(&Iter) -> f64) -> Vec<f64> {
        self.iters.iter().map(f).collect()
    }

    fn med(&self, f: impl Fn(&Iter) -> f64) -> f64 {
        median(&self.col(f))
    }
}

/// Named metrics in output order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number; non-finite values (a bug in a derivation) become -1 so
/// the output stays parseable and the problem visible.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".into()
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// End-to-end metrics from the untimed-warm-up, untraced iterations.
fn end_to_end(runs: &Runs) -> (Metrics, String) {
    let run_s = runs.col(|i| i.run_s);
    let mut m = Metrics::default();
    m.put("setup_s", runs.med(|i| i.setup_s), "s");
    m.put("run_s", median(&run_s), "s");
    m.put("run_tail_s", percentile(&run_s, TAIL_PERCENTILE), "s");
    m.put(
        "tokens_per_s",
        runs.med(|i| ratio(i.tokens, i.run_s)),
        "1/s",
    );
    m.put("rtt_p50_us", runs.med(|i| i.latency_p50_ns) / 1e3, "us");
    m.put("peak_rss_mb", runs.med(|i| i.peak_rss_mb), "MiB");
    m.put("threads_peak", runs.med(|i| i.threads_peak), "count");
    m.put(
        "ok_ratio",
        1.0 - ratio(runs.failed as f64, runs.attempted as f64),
        "ratio",
    );
    // Per-iteration samples behind each aggregated figure.
    let mut samples = String::new();
    for (name, f) in [
        ("setup_s", (|i: &Iter| i.setup_s) as fn(&Iter) -> f64),
        ("run_s", |i| i.run_s),
        ("tokens_per_s", |i| ratio(i.tokens, i.run_s)),
        ("rtt_p50_us", |i| i.latency_p50_ns / 1e3),
        ("rtt_p99_us", |i| i.latency_p99_ns / 1e3),
        ("peak_rss_mb", |i| i.peak_rss_mb),
        ("threads_peak", |i| i.threads_peak),
    ] {
        let col: Vec<String> = runs.iters.iter().map(|i| num(f(i))).collect();
        let sep = if samples.is_empty() { "" } else { ", " };
        let _ = write!(samples, "{sep}\"{name}\": [{}]", col.join(", "));
    }
    // The p99 moves with the host's scheduling noise by more than any
    // bound this benchmark can hold, so it is recorded, not gated.
    let notes = format!(
        "{{\"iterations\": {}, \"run_tail_percentile\": {TAIL_PERCENTILE}, \"latency_samples\": {}, \"rtt_p99_us\": {}, \"samples\": {{{samples}}}}}",
        runs.iters.len(),
        runs.iters.iter().map(|i| i.latency_samples).sum::<usize>(),
        num(runs.med(|i| i.latency_p99_ns) / 1e3)
    );
    (m, notes)
}

/// Per-layer metrics of a traced run.
struct LayerInputs<'a> {
    traced: &'a Runs,
    trace: &'a Trace,
    /// Runs that measure the local layers when the workload does not
    /// (relay): the Hamming probe.
    local_probe: Option<&'a Runs>,
    /// Trace of the short relay run that measures the net layer when the
    /// workload does not cross it.
    net_probe: Option<(&'a Runs, &'a Trace)>,
    detect_ms: f64,
    ladder: ladder::Ladder,
    run_1w_s: f64,
    overhead_ms: f64,
}

fn per_layer(x: &LayerInputs) -> Metrics {
    let r = x.traced;
    let local = x.local_probe.unwrap_or(r);
    let (net_runs, net_trace) = x.net_probe.unwrap_or((r, x.trace));
    // The relay client's send and wait are its source write and sink read.
    let (source_span, sink_span) = if x.net_probe.is_none() {
        ("send", "wait")
    } else {
        ("source.write", "sink.read")
    };
    let waits = x.trace.durations_ns(sink_span);
    let mut m = Metrics::default();
    m.put("network.start_ms", local.med(|i| i.layer.start_ms), "ms");
    m.put(
        "topology.lint_pass_ms",
        local.med(|i| i.layer.lint_pass_ms),
        "ms",
    );
    m.put("channel.bytes", r.med(|i| i.layer.bytes), "B");
    m.put(
        "channel.write_blocks",
        r.med(|i| i.layer.write_blocks),
        "count",
    );
    m.put(
        "channel.read_blocks",
        r.med(|i| i.layer.read_blocks),
        "count",
    );
    m.put(
        "channel.blocks_per_kib",
        r.med(|i| {
            ratio(
                i.layer.write_blocks + i.layer.read_blocks,
                i.layer.bytes / 1024.0,
            )
        }),
        "1/KiB",
    );
    let source_writes = x.trace.durations_ns(source_span);
    m.put("stream.source_write_ns", mean(&source_writes), "ns");
    m.put("stream.sink_wait_p50_ns", percentile(&waits, 50.0), "ns");
    m.put("stream.sink_wait_p99_ns", percentile(&waits, 99.0), "ns");
    m.put(
        "stream.sink_gap_max_ms",
        r.med(|i| i.layer.sink_gap_max_ms),
        "ms",
    );
    m.put("stream.drain_ms", r.med(|i| i.layer.drain_ms), "ms");
    m.put(
        "exec.fiber_switches",
        r.med(|i| i.layer.fiber_switches),
        "count",
    );
    m.put(
        "exec.switches_per_token",
        r.med(|i| ratio(i.layer.fiber_switches, i.tokens)),
        "ratio",
    );
    m.put("exec.hot_hits", r.med(|i| i.layer.hot_hits), "count");
    m.put("exec.local_pops", r.med(|i| i.layer.local_pops), "count");
    m.put(
        "exec.injector_pops",
        r.med(|i| i.layer.injector_pops),
        "count",
    );
    m.put("exec.steals", r.med(|i| i.layer.steals), "count");
    m.put(
        "exec.foreign_unparks",
        r.med(|i| i.layer.foreign_unparks),
        "count",
    );
    m.put(
        "exec.worker_parks",
        r.med(|i| i.layer.worker_parks),
        "count",
    );
    m.put(
        "exec.peak_workers",
        max(&r.col(|i| i.layer.peak_workers)),
        "count",
    );
    m.put(
        "exec.reactor_fd_wakeups",
        r.med(|i| i.layer.reactor_fd_wakeups),
        "count",
    );
    m.put(
        "exec.reactor_timer_wakeups",
        r.med(|i| i.layer.reactor_timer_wakeups),
        "count",
    );
    m.put("monitor.growths", r.med(|i| i.layer.growths), "count");
    m.put(
        "monitor.capacity_grows",
        r.med(|i| i.layer.capacity_grows),
        "count",
    );
    m.put("monitor.detect_ms", x.detect_ms, "ms");
    m.put(
        "monitor.true_deadlocks",
        r.iters.iter().map(|i| i.layer.true_deadlocks).sum(),
        "count",
    );
    m.put(
        "net.send_us",
        median(&net_trace.durations_ns("send")) / 1e3,
        "us",
    );
    m.put(
        "net.wait_us",
        median(&net_trace.durations_ns("wait")) / 1e3,
        "us",
    );
    m.put("net.deploy_ms", net_runs.med(|i| i.layer.deploy_ms), "ms");
    m.put("net.boot_ms", net_runs.med(|i| i.layer.boot_ms), "ms");
    m.put(
        "net.threads_after_drop",
        max(&r.col(|i| i.residue_threads)),
        "count",
    );
    m.put(
        "net.fds_after_drop",
        max(&r.col(|i| i.residue_fds)),
        "count",
    );
    m.put("ladder.stream_i64_ns", x.ladder.stream_i64_ns, "ns");
    m.put(
        "ladder.ring_copy_ns_per_kib",
        x.ladder.ring_copy_ns_per_kib,
        "ns/KiB",
    );
    m.put(
        "ladder.handoff_fiber_1w_ns",
        x.ladder.handoff_fiber_1w_ns,
        "ns",
    );
    m.put(
        "ladder.handoff_fiber_2w_ns",
        x.ladder.handoff_fiber_2w_ns,
        "ns",
    );
    m.put("ladder.tcp_rtt_us", x.ladder.tcp_rtt_us, "us");
    m.put("baseline.run_1w_s", x.run_1w_s, "s");
    m.put("trace.overhead_ms", x.overhead_ms, "ms");
    m
}

/// `n` iterations of the Hamming workload at `capacity` (traced when
/// `traced`, for the layer metrics the relay probe borrows).
fn hamming_runs(capacity: usize, n: u64, traced: bool) -> Runs {
    let graph = Graph::Hamming {
        count: HAMMING_COUNT,
        capacity,
    };
    let reference = graph.reference();
    let mut tr = Trace::new(traced);
    let mut runs = Runs::default();
    for i in 0..n {
        runs.push(
            local::iterate(&graph, &reference, WORKERS, &mut tr, i),
            true,
        );
    }
    runs
}

/// `monitor.detect_ms`: what each growth costs, as the Hamming run at its
/// tiny capacity minus the same graph at a roomy one, per growth.
fn detect_ms(tiny: &Runs, roomy: &Runs) -> f64 {
    let growths = tiny.med(|i| i.layer.growths);
    ratio(
        (tiny.med(|i| i.run_s) - roomy.med(|i| i.run_s)) * 1e3,
        growths,
    )
}

/// The timed run: one untimed warm-up iteration, then untraced
/// iterations until `budget` has passed (at least three).
fn timed_run(w: &Workload, budget: Duration) -> (Runs, Metrics, String) {
    let mut off = Trace::new(false);
    let mut runs = Runs::default();
    runs.push(w.iterate(WORKERS, &mut off, 0), false);
    let start = Instant::now();
    // `attempted` counts the warm-up too.
    while runs.attempted < 4 || start.elapsed() < budget {
        runs.push(w.iterate(WORKERS, &mut off, 0), true);
    }
    let (m, notes) = end_to_end(&runs);
    (runs, m, notes)
}

/// The traced run: traced then untraced iterations of the workload, its
/// single-worker baseline, the layer ladder, and the probes for layers the
/// workload does not cross. Writes the spans to `perfbench/results/`.
fn traced_run(
    w: &Workload,
    seed: u64,
    budget: Duration,
    name: &str,
    provenance: &str,
) -> (Runs, Metrics, String) {
    // After one untimed warm-up, traced and untraced iterations alternate,
    // so drift in the host's speed cancels out of the tracing overhead.
    let mut tr = Trace::new(true);
    let mut off = Trace::new(false);
    let (mut runs, mut untraced) = (Runs::default(), Runs::default());
    runs.push(w.iterate(WORKERS, &mut off, 0), false);
    let start = Instant::now();
    let mut iter = 0;
    while untraced.attempted < 3 || start.elapsed() < budget.mul_f64(0.65) {
        iter += 1;
        runs.push(w.iterate(WORKERS, &mut tr, iter), true);
        untraced.push(w.iterate(WORKERS, &mut off, iter), true);
    }
    let overhead_ms = (runs.med(|i| i.run_s) - untraced.med(|i| i.run_s)) * 1e3;
    let mut one_worker = Runs::default();
    one_worker.push(w.iterate(1, &mut off, 0), true);
    let run_1w_s = one_worker.med(|i| i.run_s);
    let ladder = ladder::run();

    // `monitor.detect_ms` needs Hamming at its tiny capacity: the workload
    // itself, or a short probe that also stands in for the local layers
    // on `relay`.
    let roomy = hamming_runs(HAMMING_ROOMY_CAPACITY, 15, false);
    let (detect, hamming_probe) = match w {
        Workload::Local {
            graph: Graph::Hamming { .. },
            ..
        } => (detect_ms(&untraced, &roomy), None),
        _ => {
            let tiny = hamming_runs(HAMMING_CAPACITY, 5, true);
            (detect_ms(&tiny, &roomy), Some(tiny))
        }
    };
    let is_relay = matches!(w, Workload::Relay { .. });
    let net_probe = (!is_relay).then(|| {
        let payloads = seeded_values(seed, RELAY_PROBE_ROUND_TRIPS);
        let mut ptr = Trace::new(true);
        let mut pr = Runs::default();
        for i in 0..3 {
            pr.push(relay::iterate(&payloads, &mut ptr, i), true);
        }
        (pr, ptr)
    });
    let m = per_layer(&LayerInputs {
        traced: &runs,
        trace: &tr,
        local_probe: hamming_probe.as_ref().filter(|_| is_relay),
        net_probe: net_probe.as_ref().map(|(r, t)| (r, t)),
        detect_ms: detect,
        ladder,
        run_1w_s,
        overhead_ms,
    });
    let notes = format!(
        "{{\"traced_iterations\": {}, \"untraced_iterations\": {}}}",
        runs.iters.len(),
        untraced.iters.len()
    );
    for other in [Some(untraced), Some(one_worker), Some(roomy), hamming_probe]
        .into_iter()
        .flatten()
        .chain(net_probe.map(|(r, _)| r))
    {
        runs.absorb(other);
    }
    let path = format!("perfbench/results/trace-{name}.json");
    if let Err(e) = tr.write_chrome(Path::new(&path), provenance) {
        eprintln!("perfbench: could not write {path}: {e}");
    }
    (runs, m, notes)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Measure the documented defaults whatever the caller's environment.
    for var in ["KPN_NET_BACKEND", "KPN_LINT", "KPN_SYNTH", "KPN_WORKERS"] {
        std::env::remove_var(var);
    }
    set_node_workers(WORKERS);
    let Some(w) = Workload::new(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (sieve, hamming, deep, relay)",
            args.workload
        );
        std::process::exit(2);
    };
    let prov = sys::Provenance::collect();
    let provenance = format!(
        "{{\"commit\": \"{}\", \"source_fnv64\": \"{}\", \"nproc\": {}, \"kernel\": \"{}\", \"rustc\": \"{}\", \"date_utc\": \"{}\", \"workload\": \"{}\", \"sizes\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"workers\": {WORKERS}}}",
        prov.commit,
        prov.source_fnv64,
        prov.nproc,
        prov.kernel,
        prov.rustc,
        prov.date_utc,
        args.workload,
        w.sizes(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let budget = Duration::from_secs_f64(args.seconds);
    let (runs, metrics, notes) = if args.trace {
        traced_run(&w, args.seed, budget, &args.workload, &provenance)
    } else {
        timed_run(&w, budget)
    };

    let correct = runs.failed == 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        runs.attempted,
        runs.failed,
        metrics.json()
    );
    let full =
        format!("{{\"provenance\": {provenance}, \"notes\": {notes}, \"result\": {result}}}\n");
    let path = format!(
        "perfbench/results/{}-trace{}.json",
        args.workload,
        u8::from(args.trace)
    );
    if let Err(e) =
        std::fs::create_dir_all("perfbench/results").and_then(|()| std::fs::write(&path, &full))
    {
        eprintln!("perfbench: could not write {path}: {e}");
    }
    print!("{full}");
    println!("{result}");
}
