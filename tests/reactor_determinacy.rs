//! The net layer's one wait path, across executors: a remote endpoint on
//! the pooled executor parks its fiber on the pool's reactor, one on the
//! thread executor falls back per wait to `poll(2)`. Kahn determinacy
//! says that must be invisible — under a pinned fault seed the channel
//! histories come out bit-identical either way. The
//! `Transport::retry_read`/`retry_write` cadence contract makes this hold
//! with fault injection in the stack: one logical operation charges one
//! fault-schedule step however often it waits. The thread leg is the
//! configuration the chaos suite pins in CI; the pooled leg runs on two
//! workers so reactor parking is the real code path.

#![cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]

use kpn::core::{DataReader, DataWriter, Exec, PooledExec};
use kpn::net::chaos::{chaos_policy, relay_history, ChaosCluster};
use kpn::net::{remote_reader, remote_writer, Acceptor, FaultProfile};
use std::time::{Duration, Instant};

/// Same pinned seeds as `chaos_reconnect.rs` (CI's chaos job).
const SEEDS: [u64; 3] = [0x5EED_0001, 0x5EED_0002, 0x5EED_0003];

fn profile() -> FaultProfile {
    FaultProfile {
        mean_ops_between_faults: 12,
        refuse_connects: 1, // guarantees each schedule fires at least once
        max_faults: 10,
        ..FaultProfile::default()
    }
}

/// One seeded relay run. Reconnect budgets are charged in nominal wait
/// time (see `ReconnectPolicy::budget`), so a loaded machine performs
/// exactly as many recovery attempts as an idle one and a run either
/// completes or fails identically regardless of wall-clock load — no
/// retry loop papering over early budget exhaustion.
fn seeded_history(leg: &str, seed: u64) -> Vec<i64> {
    let cluster = ChaosCluster::with_faults(2, seed, profile(), chaos_policy()).unwrap();
    let history = relay_history(&cluster, 48)
        .unwrap_or_else(|e| panic!("relay on the {leg} leg, seed {seed:#x} failed: {e}"));
    assert!(
        cluster.injected() > 0,
        "seed {seed:#x} injected no faults on the {leg} leg"
    );
    history
}

/// Relay histories on one leg: the fault-free baseline plus one run per
/// seed, all of which must already agree within the leg.
fn histories(leg: &str, seeds: &[u64]) -> Vec<Vec<i64>> {
    let plain = relay_history(&ChaosCluster::plain(2).unwrap(), 48).unwrap();
    let seeded = seeds.iter().map(|&seed| seeded_history(leg, seed));
    std::iter::once(plain).chain(seeded).collect()
}

/// Server networks take their executor from the process-global
/// `KPN_WORKERS`: run both relay tests with `--test-threads=1` so each leg
/// keeps its executor (interleaved legs would still have to agree).
fn assert_wait_paths_agree(seeds: &[u64]) {
    let threads = histories("thread", seeds);
    std::env::set_var("KPN_WORKERS", "2");
    let pooled = histories("pooled", seeds);
    std::env::remove_var("KPN_WORKERS");
    for (i, h) in threads.iter().enumerate() {
        assert_eq!(h, &threads[0], "thread leg broke determinacy on run {i}");
    }
    assert_eq!(
        threads, pooled,
        "histories diverge between the thread and pooled legs"
    );
}

#[test]
fn relay_histories_identical_across_backends() {
    // The kpn-net unit suite's pinned seed; the full 0x5EED set stays
    // in the ignored variant, which CI's chaos job runs with the whole
    // machine to itself.
    assert_wait_paths_agree(&[0xC0FFEE]);
}

#[test]
#[ignore = "chaos: run with --ignored"]
fn relay_histories_identical_across_backends_all_seeds() {
    assert_wait_paths_agree(&SEEDS);
}

/// Round trips to an echo fiber parked on the reactor of a two-worker
/// pool: a 1 ms polling nap would put each one over 1 ms.
#[test]
fn pooled_loopback_ping_pong_is_woken_by_readiness() {
    let acceptor = Acceptor::bind("127.0.0.1:0").unwrap();
    let addr = acceptor.local_addr().to_string();
    let ex = PooledExec::new(2);
    let (a, ad) = (acceptor.clone(), addr.clone());
    ex.spawn(
        "echo",
        Box::new(move || {
            let mut r = DataReader::new(remote_reader(&a, 0x9196_0001));
            let mut w = DataWriter::new(remote_writer(&ad, 0x9196_0002).unwrap());
            while let Ok(v) = r.read_i64() {
                w.write_i64(v).and_then(|()| w.flush()).unwrap();
            }
        }),
    );
    let mut w = DataWriter::new(remote_writer(&addr, 0x9196_0001).unwrap());
    let mut r = DataReader::new(remote_reader(&acceptor, 0x9196_0002));
    let mut rtts: Vec<Duration> = (0..1000)
        .map(|i| {
            let start = Instant::now();
            w.write_i64(i).and_then(|()| w.flush()).unwrap();
            assert_eq!(r.read_i64().unwrap(), i);
            start.elapsed()
        })
        .collect();
    drop((w, r));
    ex.shutdown();
    rtts.sort();
    assert!(rtts[500] < Duration::from_micros(500), "median round trip {:?}", rtts[500]);
}
