//! Net scale soak: on the pooled executor a blocked remote channel costs
//! a fiber parked on the pool's reactor, not a compensated OS thread.
//! This test opens over a thousand loopback remote channels, blocks a
//! reader fiber on every one of them simultaneously, and asserts the
//! process's OS thread count never rises above `workers + small
//! constant` — where thread-blocking waits would grow linearly (one
//! compensation thread per blocked read; see
//! `crates/bench/src/bin/netscale.rs` for the measurement recorded in
//! `bench_results/BENCH_net.json`). Dropping the acceptor, a node and
//! the pool afterwards must return the thread count to where it started.
//!
//! Linux x86_64 only (real fibers, not Miri). The bound is on the
//! process-wide thread count, so this file holds exactly one test.

#![cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]

use kpn::core::{DataReader, DataWriter, Exec, PooledExec};
use kpn::net::{remote_reader, remote_writer, Acceptor, Node};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Live OS threads in this process (main + test harness included).
fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn thousand_blocked_remote_reads_stay_on_the_worker_pool() {
    const CHANNELS: usize = 1100; // acceptance floor is 1k concurrent blocks
    const WORKERS: usize = 2;
    const SLACK: usize = 4;

    let start = os_threads();
    let node = Node::serve("127.0.0.1:0").unwrap();
    let acceptor = Acceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().to_string();

    // Baseline AFTER the accept loops (one thread each) but BEFORE the
    // pool: the bound is baseline + workers + slack.
    let baseline = os_threads();
    let ex = PooledExec::new(WORKERS);

    let done = Arc::new(AtomicUsize::new(0));
    for i in 0..CHANNELS {
        let (acceptor, d) = (acceptor.clone(), done.clone());
        ex.spawn(
            &format!("rd{i}"),
            Box::new(move || {
                let mut r = DataReader::new(remote_reader(&acceptor, 0x5CA1E000 + i as u64));
                assert_eq!(r.read_i64().unwrap(), i as i64);
                d.fetch_add(1, Ordering::SeqCst);
            }),
        );
    }

    // Connect one writer per channel but send nothing yet: every reader
    // fiber adopts its connection, attempts the framed read, gets
    // WouldBlock, and parks on the reactor. Sample the thread count the
    // whole way — this connect storm is exactly when thread-blocking
    // waits would balloon.
    let mut peak = os_threads();
    let mut writers = Vec::with_capacity(CHANNELS);
    for i in 0..CHANNELS {
        writers.push(DataWriter::new(
            remote_writer(&addr, 0x5CA1E000 + i as u64).unwrap(),
        ));
        peak = peak.max(os_threads());
    }

    // Wait until every reader fd is registered with the reactor (i.e.
    // every reader has adopted its connection and parked on readiness),
    // still sampling.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        peak = peak.max(os_threads());
        let registered = ex
            .scheduler_stats()
            .and_then(|s| s.reactor)
            .map(|r| r.current_registered)
            .unwrap_or(0);
        if registered >= CHANNELS {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {registered}/{CHANNELS} reader fds reached the reactor"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // Dwell with all channels blocked at once, still sampling.
    for _ in 0..50 {
        peak = peak.max(os_threads());
        std::thread::sleep(Duration::from_millis(1));
    }

    assert!(
        peak <= baseline + WORKERS + SLACK,
        "peak {peak} threads with {CHANNELS} blocked remote reads \
         (baseline {baseline} + {WORKERS} workers + {SLACK} slack exceeded)"
    );

    // Release every channel and let the run complete.
    for (i, w) in writers.iter_mut().enumerate() {
        w.write_i64(i as i64).unwrap();
        w.flush().unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    while done.load(Ordering::SeqCst) < CHANNELS {
        assert!(
            Instant::now() < deadline,
            "only {}/{CHANNELS} readers completed",
            done.load(Ordering::SeqCst)
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(writers);
    ex.shutdown();
    drop((acceptor, node));
    let deadline = Instant::now() + Duration::from_secs(10);
    while os_threads() > start {
        assert!(Instant::now() < deadline, "threads outlived their drop");
        std::thread::sleep(Duration::from_millis(5));
    }
}
