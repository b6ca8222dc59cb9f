//! The single-machine workloads: the paper's sieve (Figs 7/8), the Hamming
//! feedback loop (Fig 12) and a deep linear pipeline. Each is built on the
//! public `kpn_core` API between a source and a sink process that belong
//! to the harness, so it can timestamp tokens where they enter and leave.

use crate::iter::Iter;
use crate::sys;
use crate::trace::Trace;
use kpn_core::graphs::{hamming_reference, primes_reference};
use kpn_core::stdlib::{Cons, Duplicate, OrderedMerge, Scale, Sift};
use kpn_core::{
    ChannelReader, ChannelWriter, DataReader, DataWriter, Error, LintLevel, Network, NetworkConfig,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sink tokens between OS-thread / worker-count samples.
const SAMPLE_EVERY: usize = 512;

/// A local workload and its inputs.
#[derive(Clone, Debug)]
pub enum Graph {
    /// Candidates `2..below` → `Sift` (spawning one `Modulo` per prime)
    /// → sink: Figs 7/8 with the sequence limited (§3.4 first mode).
    Sieve { below: i64 },
    /// Fig 12: `count` Hamming numbers, every channel `capacity` bytes.
    Hamming { count: usize, capacity: usize },
    /// `values` → `Scale(-1)` × `stages` → sink, channels `capacity` bytes.
    Deep {
        values: Vec<i64>,
        stages: usize,
        capacity: usize,
    },
}

impl Graph {
    /// The output the sink must see.
    pub fn reference(&self) -> Vec<i64> {
        match self {
            Graph::Sieve { below } => primes_reference(*below),
            Graph::Hamming { count, .. } => hamming_reference(*count),
            Graph::Deep { values, stages, .. } => {
                let sign = if stages % 2 == 0 { 1 } else { -1 };
                values.iter().map(|v| v * sign).collect()
            }
        }
    }
}

/// When each source write started (traced runs only) and returned.
#[derive(Default)]
struct SourceLog {
    started: Vec<Instant>,
    written: Vec<Instant>,
}

/// What the sink process saw.
#[derive(Default)]
struct SinkLog {
    values: Vec<i64>,
    /// When the sink started reading.
    opened: Option<Instant>,
    /// When each read started (traced runs only) and returned a value.
    started: Vec<Instant>,
    arrived: Vec<Instant>,
    threads_peak: usize,
    workers_peak: usize,
    error: Option<String>,
}

fn config(workers: usize) -> NetworkConfig {
    NetworkConfig {
        lint: LintLevel::Warn,
        synthesize_capacities: false,
        ..NetworkConfig::default()
    }
    .workers(workers)
}

/// Adds the harness's source: a process writing `values` in order and
/// timestamping every write.
fn add_source(
    net: &Network,
    values: Vec<i64>,
    out: ChannelWriter,
    traced: bool,
) -> Arc<Mutex<SourceLog>> {
    let log = Arc::new(Mutex::new(SourceLog::default()));
    let shared = log.clone();
    net.add_fn("source", move |_ctx| {
        let mut w = DataWriter::new(out);
        let mut s = SourceLog {
            started: Vec::with_capacity(if traced { values.len() } else { 0 }),
            written: Vec::with_capacity(values.len()),
        };
        for v in values {
            if traced {
                s.started.push(Instant::now());
            }
            w.write_i64(v)?;
            s.written.push(Instant::now());
        }
        *shared.lock().expect("source log lock") = s;
        w.flush()
    });
    log
}

/// Adds the harness's sink: a process reading until EOF or `limit` values,
/// timestamping every result. Stopping at `limit` closes its input, which
/// ends an unbounded graph by the §3.4 cascade.
fn add_sink(
    net: &Network,
    input: ChannelReader,
    limit: usize,
    traced: bool,
) -> Arc<Mutex<SinkLog>> {
    let log = Arc::new(Mutex::new(SinkLog::default()));
    let out = log.clone();
    let monitor = net.monitor().clone();
    net.add_fn("sink", move |_ctx| {
        let mut s = SinkLog::default();
        let sample = |s: &mut SinkLog| {
            s.threads_peak = s.threads_peak.max(sys::os_threads());
            if let Some(st) = monitor.stats().scheduler {
                s.workers_peak = s.workers_peak.max(st.current_workers);
            }
        };
        sample(&mut s);
        let mut reader = DataReader::new(input);
        s.opened = Some(Instant::now());
        while s.values.len() < limit {
            if traced {
                s.started.push(Instant::now());
            }
            match reader.read_i64() {
                Ok(v) => {
                    s.arrived.push(Instant::now());
                    s.values.push(v);
                    if s.values.len() % SAMPLE_EVERY == 0 {
                        sample(&mut s);
                    }
                }
                Err(e) => {
                    s.started.truncate(s.arrived.len());
                    if !matches!(e, Error::Eof) {
                        s.error = Some(format!("sink read: {e}"));
                    }
                    break;
                }
            }
        }
        sample(&mut s);
        *out.lock().expect("sink log lock") = s;
        Ok(())
    });
    log
}

/// Wires `graph` between the harness's source and sink processes.
fn build(
    net: &Network,
    graph: &Graph,
    traced: bool,
) -> (Arc<Mutex<SourceLog>>, Arc<Mutex<SinkLog>>) {
    match graph {
        Graph::Sieve { below } => {
            let (seq_w, seq_r) = net.channel();
            let (out_w, out_r) = net.channel();
            let source = add_source(net, (2..*below).collect(), seq_w, traced);
            net.add(Sift::new(seq_r, out_w));
            (source, add_sink(net, out_r, usize::MAX, traced))
        }
        Graph::Hamming { count, capacity } => {
            // Wired as `kpn_core::graphs::hamming`, with the harness's
            // source writing the initial 1 and its sink taking `count`.
            let ch = || net.channel_with_capacity(*capacity);
            let (init_w, init_r) = ch();
            let (merged_w, merged_r) = ch();
            let (h_w, h_r) = ch();
            let (out_w, out_r) = ch();
            let (in2_w, in2_r) = ch();
            let (in3_w, in3_r) = ch();
            let (in5_w, in5_r) = ch();
            let (m2_w, m2_r) = ch();
            let (m3_w, m3_r) = ch();
            let (m5_w, m5_r) = ch();
            let source = add_source(net, vec![1], init_w, traced);
            net.add(Cons::new(init_r, merged_r, h_w));
            net.add(Duplicate::new(h_r, vec![out_w, in2_w, in3_w, in5_w]));
            net.add(Scale::new(2, in2_r, m2_w));
            net.add(Scale::new(3, in3_r, m3_w));
            net.add(Scale::new(5, in5_r, m5_w));
            net.add(OrderedMerge::new(vec![m2_r, m3_r, m5_r], merged_w));
            (source, add_sink(net, out_r, *count, traced))
        }
        Graph::Deep {
            values,
            stages,
            capacity,
        } => {
            let (first_w, mut prev_r) = net.channel_with_capacity(*capacity);
            let source = add_source(net, values.clone(), first_w, traced);
            for _ in 0..*stages {
                let (w, r) = net.channel_with_capacity(*capacity);
                net.add(Scale::new(-1, prev_r, w));
                prev_r = r;
            }
            (source, add_sink(net, prev_r, usize::MAX, traced))
        }
    }
}

/// Per-result latency, ns. On the feed-forward graphs a result's value
/// names the input it came from, so this is the time from the source's
/// write of that input to the sink's read of the result. Hamming values
/// are made inside the loop, so there it is the gap between consecutive
/// results: one trip round the cycle.
fn latencies_ns(graph: &Graph, src: &SourceLog, s: &SinkLog) -> Vec<f64> {
    let since = |a: Instant, b: Instant| b.saturating_duration_since(a).as_nanos() as f64;
    match graph {
        // Candidate `p` was the source's write number `p - 2`.
        Graph::Sieve { .. } => s
            .values
            .iter()
            .zip(&s.arrived)
            .filter_map(|(&p, &t)| Some(since(*src.written.get(usize::try_from(p - 2).ok()?)?, t)))
            .collect(),
        Graph::Deep { .. } => src
            .written
            .iter()
            .zip(&s.arrived)
            .map(|(&w, &t)| since(w, t))
            .collect(),
        Graph::Hamming { .. } => {
            let mut prev = s.opened;
            s.arrived
                .iter()
                .map(|&t| since(prev.replace(t).unwrap_or(t), t))
                .collect()
        }
    }
}

/// Runs one iteration of `graph` on a pooled executor with `workers`
/// workers, checking the sink's output against `reference`.
pub fn iterate(
    graph: &Graph,
    reference: &[i64],
    workers: usize,
    tr: &mut Trace,
    iter: u64,
) -> Iter {
    let root = tr.reserve();
    let run_span = tr.reserve();
    let baseline = (sys::os_threads(), sys::open_fds());
    let mut it = Iter::default();
    let mut errors: Vec<String> = Vec::new();

    sys::trim_heap();
    sys::reset_peak_rss();
    let t0 = Instant::now();
    let net = Network::with_config(config(workers));
    let (source, sink) = build(&net, graph, tr.enabled());
    let ts = Instant::now();
    tr.record(iter, root, "build", t0, ts);
    net.start();
    let t1 = Instant::now();
    tr.record(iter, root, "start", ts, t1);
    it.setup_s = (t1 - t0).as_secs_f64();
    it.layer.start_ms = (t1 - ts).as_secs_f64() * 1e3;

    let report = net.join();
    let t2 = Instant::now();
    it.run_s = (t2 - t1).as_secs_f64();
    let s = std::mem::take(&mut *sink.lock().expect("sink log lock"));
    let src = std::mem::take(&mut *source.lock().expect("source log lock"));
    let last = s.arrived.last().copied().unwrap_or(t1);
    tr.record(iter, run_span, "drain", last, t2);
    // The harness calls `join` as soon as `start` returns.
    tr.record_as(run_span, iter, root, "join", t1, t2);
    for (&a, &b) in src.started.iter().zip(&src.written) {
        tr.record(iter, run_span, "source.write", a, b);
    }
    for (&a, &b) in s.started.iter().zip(&s.arrived) {
        tr.record(iter, run_span, "sink.read", a, b);
    }
    it.layer.drain_ms = (t2 - last).as_secs_f64() * 1e3;
    it.set_latencies(&latencies_ns(graph, &src, &s));
    let mut prev = s.opened.unwrap_or(t1);
    for &t in &s.arrived {
        let gap = t.saturating_duration_since(std::mem::replace(&mut prev, t));
        it.layer.sink_gap_max_ms = it.layer.sink_gap_max_ms.max(gap.as_secs_f64() * 1e3);
    }
    it.threads_peak = s.threads_peak as f64;
    it.layer.peak_workers = s.workers_peak as f64;
    errors.extend(s.error);

    match report {
        Ok(r) => it.layer.add_monitor(&r.monitor),
        Err(e) => errors.push(format!("join: {e}")),
    }
    if s.values != reference {
        errors.push(format!(
            "sink saw {} values, reference has {} (first difference at {:?})",
            s.values.len(),
            reference.len(),
            s.values.iter().zip(reference).position(|(a, b)| a != b)
        ));
    }
    if it.layer.true_deadlocks != 0.0 {
        errors.push(format!("{} true deadlocks", it.layer.true_deadlocks));
    }
    it.layer.add_channels(&net.channel_report());
    it.tokens = it.layer.bytes / 8.0;
    if tr.enabled() {
        let t = Instant::now();
        std::hint::black_box(net.lint_diagnostics());
        let e = Instant::now();
        tr.record(iter, root, "lint", t, e);
        it.layer.lint_pass_ms = (e - t).as_secs_f64() * 1e3;
    }

    drop(net);
    it.peak_rss_mb = sys::peak_rss_mb();
    let (rt, rf) = sys::residue(baseline);
    tr.record_as(root, iter, 0, "iteration", t0, Instant::now());
    it.residue_threads = rt;
    it.residue_fds = rf;
    it.ok = errors.is_empty();
    it.error = (!errors.is_empty()).then(|| errors.join("; "));
    it
}
