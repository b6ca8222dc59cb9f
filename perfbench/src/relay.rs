//! The `relay` workload: a client and two server nodes on loopback, an
//! `Identity` on each server, and a closed-loop ping-pong of one `i64` at a
//! time from the client through both servers and back (§4).

use crate::iter::Iter;
use crate::sys;
use crate::trace::Trace;
use kpn_core::exec::current_exec;
use kpn_core::{DataReader, DataWriter, Exec, Process, ProcessCtx, ProcessTag};
use kpn_net::{GraphBuilder, Node, ProcessRegistry, ServerHandle, TaskRegistry};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

/// Round trips between OS-thread / worker-count samples.
const SAMPLE_EVERY: usize = 256;

/// Cut channels each round trip crosses: client → server 0 → server 1 →
/// client.
const HOPS: f64 = 3.0;

/// Executors of the server networks, captured as their processes start.
type ExecSlot = Arc<Mutex<Vec<Weak<dyn Exec>>>>;

/// Runs a registry-built process unchanged after noting which executor it
/// runs on, so the harness can read the server pools' scheduler counters
/// (a `Node` does not expose the networks it instantiates).
struct NoteExec {
    inner: Box<dyn Process>,
    slot: ExecSlot,
}

impl Process for NoteExec {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn run(self: Box<Self>, ctx: &ProcessCtx) -> kpn_core::Result<()> {
        if let Some(exec) = current_exec() {
            self.slot
                .lock()
                .expect("exec slot lock")
                .push(Arc::downgrade(&exec));
        }
        self.inner.run(ctx)
    }

    fn lint_tag(&self) -> Option<&ProcessTag> {
        self.inner.lint_tag()
    }
}

/// The default registry with `Identity` wrapped in [`NoteExec`].
fn server_registry(slot: ExecSlot) -> ProcessRegistry {
    let defaults = ProcessRegistry::with_defaults();
    let mut reg = ProcessRegistry::with_defaults();
    reg.register(
        "Identity",
        Box::new(move |params, ins, outs| {
            Ok(Box::new(NoteExec {
                inner: defaults.build("Identity", params, ins, outs)?,
                slot: slot.clone(),
            }))
        }),
    );
    reg
}

/// One iteration: boot three nodes, deploy, run `payloads.len()` round
/// trips, close the stream and tear everything down. Node networks run on
/// the executor `KPN_EXEC` names.
pub fn iterate(payloads: &[i64], tr: &mut Trace, iter: u64) -> Iter {
    let root = tr.reserve();
    let run_span = tr.reserve();
    let baseline = (sys::os_threads(), sys::open_fds());
    let mut it = Iter::default();
    let mut errors: Vec<String> = Vec::new();
    let slot: ExecSlot = Arc::default();

    sys::trim_heap();
    sys::reset_peak_rss();
    let t0 = Instant::now();
    let booted = (|| {
        let client = Node::serve("127.0.0.1:0")?;
        let s0 = Node::serve_with(
            "127.0.0.1:0",
            server_registry(slot.clone()),
            TaskRegistry::new(),
        )?;
        let s1 = Node::serve_with(
            "127.0.0.1:0",
            server_registry(slot.clone()),
            TaskRegistry::new(),
        )?;
        Ok::<_, kpn_core::Error>((client, s0, s1))
    })();
    let t_boot = Instant::now();
    tr.record(iter, root, "boot", t0, t_boot);
    let (client, s0, s1) = match booted {
        Ok(nodes) => nodes,
        Err(e) => {
            it.error = Some(format!("boot: {e}"));
            return it;
        }
    };
    let servers = [
        ServerHandle::new(s0.addr().to_string()),
        ServerHandle::new(s1.addr().to_string()),
    ];
    let mut b = GraphBuilder::new();
    let (c0, c1, c2) = (b.channel(), b.channel(), b.channel());
    let deployed = b
        .add(0, "Identity", &(), &[c0], &[c1])
        .and_then(|()| b.add(1, "Identity", &(), &[c1], &[c2]))
        .and_then(|()| b.claim_writer(c0))
        .and_then(|()| b.claim_reader(c2))
        .and_then(|()| b.deploy(&client, &servers));
    let t1 = Instant::now();
    tr.record(iter, root, "deploy", t_boot, t1);
    it.setup_s = (t1 - t0).as_secs_f64();
    it.layer.boot_ms = (t_boot - t0).as_secs_f64() * 1e3;
    it.layer.deploy_ms = (t1 - t_boot).as_secs_f64() * 1e3;

    let mut threads_peak = sys::os_threads();
    let mut workers_peak = 0usize;
    let sample = |threads_peak: &mut usize, workers_peak: &mut usize| {
        *threads_peak = (*threads_peak).max(sys::os_threads());
        let workers: usize = slot
            .lock()
            .expect("exec slot lock")
            .iter()
            .filter_map(|e| e.upgrade()?.scheduler_stats())
            .map(|s| s.current_workers)
            .sum();
        *workers_peak = (*workers_peak).max(workers);
    };

    match deployed {
        Err(e) => errors.push(format!("deploy: {e}")),
        Ok(mut dep) => {
            let mut w = DataWriter::new(dep.writers.remove(&c0).expect("claimed writer"));
            let mut r = DataReader::new(dep.readers.remove(&c2).expect("claimed reader"));
            let mut latencies = Vec::with_capacity(payloads.len());
            for (i, &v) in payloads.iter().enumerate() {
                let ts = Instant::now();
                let sent = w.write_i64(v).and_then(|()| w.flush());
                let tm = Instant::now();
                let echo = sent.and_then(|()| r.read_i64());
                let te = Instant::now();
                tr.record(iter, run_span, "send", ts, tm);
                tr.record(iter, run_span, "wait", tm, te);
                match echo {
                    Ok(e) if e == v => latencies.push((te - ts).as_nanos() as f64),
                    Ok(e) => {
                        errors.push(format!("round trip {i}: sent {v}, echo {e}"));
                        break;
                    }
                    Err(e) => {
                        errors.push(format!("round trip {i}: {e}"));
                        break;
                    }
                }
                if i % SAMPLE_EVERY == 0 {
                    sample(&mut threads_peak, &mut workers_peak);
                }
            }
            sample(&mut threads_peak, &mut workers_peak);
            // Closing the client's writer cascades EOF through both
            // servers back to the client's reader (§3.4).
            let t_last = Instant::now();
            drop(w);
            match r.read_i64() {
                Err(kpn_core::Error::Eof) => {}
                other => errors.push(format!("expected EOF after the last echo, got {other:?}")),
            }
            drop(r);
            let t_join = Instant::now();
            if let Err(e) = dep.join() {
                errors.push(format!("join: {e}"));
            }
            let t2 = Instant::now();
            tr.record(iter, run_span, "join", t_join, t2);
            tr.record(iter, run_span, "drain", t_last, t2);
            tr.record_as(run_span, iter, root, "run", t1, t2);
            it.run_s = (t2 - t1).as_secs_f64();
            it.layer.drain_ms = (t2 - t_last).as_secs_f64() * 1e3;
            it.tokens = HOPS * latencies.len() as f64;
            it.set_latencies(&latencies);
            it.layer.sink_gap_max_ms = crate::stats::max(&latencies) / 1e6;
            it.layer.add_monitor(&dep.client_network.monitor().stats());
            for s in &servers {
                match s.monitor_status() {
                    Ok(nets) => {
                        for n in nets {
                            it.layer.growths += n.growths as f64;
                            if n.aborted {
                                it.layer.true_deadlocks += 1.0;
                            }
                        }
                    }
                    Err(e) => errors.push(format!("monitor status: {e}")),
                }
            }
            for e in slot.lock().expect("exec slot lock").iter() {
                if let Some(stats) = e.upgrade().and_then(|e| e.scheduler_stats()) {
                    it.layer.add_scheduler(&stats);
                }
            }
        }
    }
    it.layer.peak_workers = workers_peak as f64;
    it.threads_peak = threads_peak as f64;
    if it.layer.true_deadlocks != 0.0 {
        errors.push(format!(
            "{} aborted server networks",
            it.layer.true_deadlocks
        ));
    }

    for n in [&client, &s0, &s1] {
        n.shutdown();
    }
    drop((client, s0, s1));
    it.peak_rss_mb = sys::peak_rss_mb();
    let (rt, rf) = sys::residue(baseline);
    tr.record_as(root, iter, 0, "iteration", t0, Instant::now());
    it.residue_threads = rt;
    it.residue_fds = rf;
    it.ok = errors.is_empty();
    it.error = (!errors.is_empty()).then(|| errors.join("; "));
    it
}
