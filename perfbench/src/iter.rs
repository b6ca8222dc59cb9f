//! What one iteration of a workload measures.

use crate::stats::percentile;
use kpn_core::{MonitorStats, SchedulerStats};

/// The outcome and measurements of one iteration.
#[derive(Default)]
pub struct Iter {
    /// Output matched the reference and every call returned `Ok`.
    pub ok: bool,
    /// Why the iteration failed, when it did.
    pub error: Option<String>,
    /// Build + `start` (local) or node boot + `deploy` (relay), seconds.
    pub setup_s: f64,
    /// `start` returning to `join` returning, seconds.
    pub run_s: f64,
    /// Tokens moved over channels.
    pub tokens: f64,
    /// Median and 99th percentile of the per-result latencies: the gap
    /// between consecutive results at the harness sink (local) or one
    /// round trip (relay), ns.
    pub latency_p50_ns: f64,
    pub latency_p99_ns: f64,
    pub latency_samples: usize,
    /// Highest OS thread count sampled during the iteration.
    pub threads_peak: f64,
    /// Peak resident set size during the iteration, MiB.
    pub peak_rss_mb: f64,
    /// Threads / fds left above the pre-iteration baseline after drop.
    pub residue_threads: f64,
    pub residue_fds: f64,
    pub layer: Layer,
}

impl Iter {
    /// Summarises the per-result latencies (kept only as percentiles, so
    /// samples do not pile up in memory across iterations).
    pub fn set_latencies(&mut self, ns: &[f64]) {
        self.latency_p50_ns = percentile(ns, 50.0);
        self.latency_p99_ns = percentile(ns, 99.0);
        self.latency_samples = ns.len();
    }
}

/// Per-layer counters of one iteration (spans live in the trace).
#[derive(Default)]
pub struct Layer {
    pub start_ms: f64,
    pub lint_pass_ms: f64,
    pub bytes: f64,
    pub write_blocks: f64,
    pub read_blocks: f64,
    pub drain_ms: f64,
    pub sink_gap_max_ms: f64,
    pub fiber_switches: f64,
    pub hot_hits: f64,
    pub local_pops: f64,
    pub injector_pops: f64,
    pub steals: f64,
    pub foreign_unparks: f64,
    pub worker_parks: f64,
    pub peak_workers: f64,
    pub reactor_fd_wakeups: f64,
    pub reactor_timer_wakeups: f64,
    pub growths: f64,
    pub capacity_grows: f64,
    pub true_deadlocks: f64,
    pub boot_ms: f64,
    pub deploy_ms: f64,
}

impl Layer {
    /// Adds one executor's scheduler counters.
    pub fn add_scheduler(&mut self, s: &SchedulerStats) {
        let t = s.totals();
        self.fiber_switches += t.fiber_switches as f64;
        self.hot_hits += t.hot_hits as f64;
        self.local_pops += t.local_pops as f64;
        self.injector_pops += t.injector_pops as f64;
        self.steals += t.stolen_fibers as f64;
        self.foreign_unparks += s.foreign_unparks as f64;
        self.worker_parks += t.parks as f64;
        if let Some(r) = &s.reactor {
            self.reactor_fd_wakeups += r.wakeups as f64;
            self.reactor_timer_wakeups += r.timer_wakeups as f64;
        }
    }

    /// Adds one network's monitor counters.
    pub fn add_monitor(&mut self, m: &MonitorStats) {
        self.growths += m.growths as f64;
        self.capacity_grows += m.capacity_grows as f64;
        self.true_deadlocks += m.true_deadlocks as f64;
        if let Some(s) = &m.scheduler {
            self.add_scheduler(s);
        }
    }

    /// Adds a network's per-channel I/O counters.
    pub fn add_channels(&mut self, report: &[(u64, kpn_core::ChannelIoStats)]) {
        for (_, c) in report {
            self.bytes += c.bytes_written as f64;
            self.write_blocks += c.write_blocks as f64;
            self.read_blocks += c.read_blocks as f64;
        }
    }
}
