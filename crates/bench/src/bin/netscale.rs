//! Net scale benchmark: what a *blocked remote channel* costs in OS
//! threads on the pooled executor.
//!
//! For each channel count N, the harness opens N loopback remote channels
//! on a 2-worker pooled executor, blocks a reader fiber on every one of
//! them at once, and records the peak OS thread count of the process
//! (sampled from `/proc/self/task` throughout). Blocked readers are
//! fibers parked on epoll readiness, so the peak stays at
//! `workers + small constant` no matter how large N gets, and the
//! baseline stays flat across sizes because every run's acceptor and
//! pool are reclaimed. Every run then releases all N channels and checks
//! each reader got its value — the cheap waits must still be *correct*
//! waits.
//!
//! ```text
//! cargo run -p kpn-bench --release --bin netscale [-- OUT.json]
//! ```
//!
//! Writes `bench_results/BENCH_net.json` (or the given path) and prints
//! the same JSON to stdout.

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    eprintln!("netscale needs linux x86_64 (/proc/self/task + the fiber executor)");
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() {
    imp::main()
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use kpn_core::{DataReader, DataWriter, Exec, PooledExec};
    use kpn_net::{remote_reader, remote_writer, Acceptor};
    use std::fmt::Write as _;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const SIZES: [usize; 3] = [128, 512, 1024];
    const WORKERS: usize = 2;

    fn os_threads() -> usize {
        std::fs::read_dir("/proc/self/task").unwrap().count()
    }

    /// Waits for stragglers from the previous run (compensation workers,
    /// linger threads) to retire so the next baseline is clean.
    fn settle() {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut last = os_threads();
        let mut stable_since = Instant::now();
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
            let now = os_threads();
            if now < last {
                last = now;
                stable_since = Instant::now();
            } else if stable_since.elapsed() > Duration::from_millis(300) {
                return;
            }
        }
    }

    struct Run {
        channels: usize,
        baseline: usize,
        peak: usize,
        secs: f64,
    }

    /// One measurement: N readers blocked at once, peak thread count
    /// sampled throughout, then all channels released and drained.
    fn measure(channels: usize) -> Run {
        settle();
        let start = Instant::now();
        let acceptor = Acceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().to_string();
        let baseline = os_threads();
        let ex = PooledExec::new(WORKERS);

        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..channels {
            let (acceptor, d) = (acceptor.clone(), done.clone());
            ex.spawn(
                &format!("rd{i}"),
                Box::new(move || {
                    let mut r = DataReader::new(remote_reader(&acceptor, 0xBE9C0000 + i as u64));
                    assert_eq!(r.read_i64().unwrap(), i as i64);
                    d.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }

        let mut peak = os_threads();
        let mut writers = Vec::with_capacity(channels);
        for i in 0..channels {
            writers.push(DataWriter::new(
                remote_writer(&addr, 0xBE9C0000 + i as u64).unwrap(),
            ));
            peak = peak.max(os_threads());
        }

        // Barrier: every reader is in its blocked wait (its fd registered
        // with the pool's reactor).
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            peak = peak.max(os_threads());
            let stats = ex.scheduler_stats().expect("pooled stats");
            let blocked = stats.reactor.map(|r| r.current_registered).unwrap_or(0);
            if blocked >= channels {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "only {blocked}/{channels} readers reached their blocked wait"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        for _ in 0..25 {
            peak = peak.max(os_threads());
            std::thread::sleep(Duration::from_millis(1));
        }

        for (i, w) in writers.iter_mut().enumerate() {
            w.write_i64(i as i64).unwrap();
            w.flush().unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(120);
        while done.load(Ordering::SeqCst) < channels {
            assert!(
                Instant::now() < deadline,
                "only {}/{channels} readers completed",
                done.load(Ordering::SeqCst)
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(writers);
        ex.shutdown();
        Run {
            channels,
            baseline,
            peak,
            secs: start.elapsed().as_secs_f64(),
        }
    }

    pub(super) fn main() {
        let out_path = std::env::args()
            .nth(1)
            .unwrap_or_else(|| "bench_results/BENCH_net.json".to_string());
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);

        let mut rows = String::new();
        let mut worst = 0usize;
        for (i, &n) in SIZES.iter().enumerate() {
            let r = measure(n);
            let over = r.peak - r.baseline;
            eprintln!(
                "n={n:<5} baseline {:>3} peak {:>5} (+{over:<5}) {:.3}s",
                r.baseline, r.peak, r.secs
            );
            worst = worst.max(over);
            let sep = if i + 1 == SIZES.len() { "" } else { "," };
            let _ = writeln!(
                rows,
                "    {{\"channels\": {}, \"baseline_threads\": {}, \"peak_threads\": {}, \"peak_over_baseline\": {}, \"run_s\": {:.3}}}{}",
                r.channels, r.baseline, r.peak, over, r.secs, sep
            );
        }

        let json = format!(
            "{{\n  \"benchmark\": \"net_scale (crates/bench/src/bin/netscale.rs)\",\n  \"description\": \"Peak OS thread count while N loopback remote channels are all blocked reading at once on a {WORKERS}-worker pooled executor; blocked reads are fibers parked on epoll readiness. Every run then releases all N channels and verifies each reader received its value. peak_over_baseline is the thread cost attributable to the blocked channels plus the pool itself; baseline_threads is measured after the previous run's acceptor and pool were dropped.\",\n  \"machine\": \"linux x86_64, release build, {hw} hardware threads\",\n  \"results\": [\n{rows}  ],\n  \"acceptance\": \"peak_over_baseline must stay <= workers + 4 and baseline_threads must stay flat at every size; measured worst overhead {worst} threads\",\n  \"notes\": \"A blocked remote endpoint holding an OS thread (the paper's shape, PAPER.md section 4) would grow the peak linearly in N; parking on the pool's reactor (DESIGN.md section 5j) keeps it constant. Determinacy across the parked and thread-blocking wait paths is pinned by tests/reactor_determinacy.rs; the bound is asserted as a regression test in tests/net_scale.rs.\"\n}}\n"
        );
        print!("{json}");
        if let Some(dir) = std::path::Path::new(&out_path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(&out_path, &json).expect("write results file");
        eprintln!("wrote {out_path}");
    }
}
