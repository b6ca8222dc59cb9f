//! The layer ladder: isolated calls to public functions, one layer at a
//! time, so a slow end-to-end number can be traced to the rung that
//! costs the time. Each rung runs `REPS` times and reports the median.

use crate::stats::median;
use kpn_core::{channel_with_capacity, DataReader, DataWriter, Network, NetworkConfig};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

const REPS: usize = 5;

/// Ladder results.
pub struct Ladder {
    pub stream_i64_ns: f64,
    pub ring_copy_ns_per_kib: f64,
    pub handoff_fiber_1w_ns: f64,
    pub handoff_fiber_2w_ns: f64,
    pub tcp_rtt_us: f64,
}

pub fn run() -> Ladder {
    let rung = |f: &dyn Fn() -> f64| median(&(0..REPS).map(|_| f()).collect::<Vec<_>>());
    Ladder {
        stream_i64_ns: rung(&stream_i64_ns),
        ring_copy_ns_per_kib: rung(&ring_copy_ns_per_kib),
        handoff_fiber_1w_ns: rung(&|| handoff_fiber_ns(1)),
        handoff_fiber_2w_ns: rung(&|| handoff_fiber_ns(2)),
        tcp_rtt_us: rung(&tcp_rtt_us),
    }
}

/// `DataWriter` → `DataReader` over a channel large enough that neither
/// side blocks: codec plus stream buffers plus ring copy, per `i64`.
fn stream_i64_ns() -> f64 {
    const BATCH: i64 = 4096;
    const BATCHES: i64 = 128;
    let (w, r) = channel_with_capacity(BATCH as usize * 8);
    let (mut w, mut r) = (DataWriter::new(w), DataReader::new(r));
    let t = Instant::now();
    let mut sum = 0i64;
    for b in 0..BATCHES {
        for i in 0..BATCH {
            w.write_i64(b ^ i).expect("ladder write");
        }
        w.flush().expect("ladder flush");
        for _ in 0..BATCH {
            sum = sum.wrapping_add(r.read_i64().expect("ladder read"));
        }
    }
    std::hint::black_box(sum);
    t.elapsed().as_nanos() as f64 / (BATCH * BATCHES) as f64
}

/// Raw `ChannelWriter::write_all` / `ChannelReader::read_exact` of 4 KiB
/// chunks: the ring copy alone, per KiB.
fn ring_copy_ns_per_kib() -> f64 {
    const CHUNK: usize = 4096;
    const CHUNKS: usize = 4096;
    let (mut w, mut r) = channel_with_capacity(CHUNK);
    let src = vec![0x5au8; CHUNK];
    let mut dst = vec![0u8; CHUNK];
    let t = Instant::now();
    for _ in 0..CHUNKS {
        w.write_all(std::hint::black_box(&src))
            .expect("ladder write");
        r.read_exact(&mut dst).expect("ladder read");
    }
    std::hint::black_box(&dst);
    t.elapsed().as_nanos() as f64 / (CHUNKS * CHUNK / 1024) as f64
}

/// Two fibers ping-ponging an `i64` over two capacity-8 channels on a
/// pooled executor with `workers` workers: ns per one-way handoff.
fn handoff_fiber_ns(workers: usize) -> f64 {
    const ROUNDS: i64 = 20_000;
    let net = Network::with_config(NetworkConfig::default().workers(workers));
    let (ping_w, ping_r) = net.channel_with_capacity(8);
    let (pong_w, pong_r) = net.channel_with_capacity(8);
    net.add_fn("ping", move |_| {
        let (mut w, mut r) = (DataWriter::new(ping_w), DataReader::new(pong_r));
        for i in 0..ROUNDS {
            w.write_i64(i)?;
            w.flush()?;
            assert_eq!(r.read_i64()?, i, "pong echoed a different value");
        }
        Ok(())
    });
    net.add_fn("pong", move |_| {
        let (mut w, mut r) = (DataWriter::new(pong_w), DataReader::new(ping_r));
        loop {
            let v = r.read_i64()?;
            w.write_i64(v)?;
            w.flush()?;
        }
    });
    let t = Instant::now();
    net.run().expect("handoff ladder network");
    t.elapsed().as_nanos() as f64 / (2 * ROUNDS) as f64
}

/// A raw `std::net` loopback ping-pong of 8 bytes with `TCP_NODELAY`: the
/// kernel floor under the relay's round trip, in µs.
fn tcp_rtt_us() -> f64 {
    const ROUNDS: usize = 2_000;
    let listener = TcpListener::bind("127.0.0.1:0").expect("ladder bind");
    let addr = listener.local_addr().expect("ladder addr");
    std::thread::scope(|s| {
        s.spawn(|| {
            let (mut c, _) = listener.accept().expect("ladder accept");
            c.set_nodelay(true).expect("ladder nodelay");
            let mut buf = [0u8; 8];
            while c.read_exact(&mut buf).is_ok() {
                c.write_all(&buf).expect("ladder echo");
            }
        });
        let mut c = TcpStream::connect(addr).expect("ladder connect");
        c.set_nodelay(true).expect("ladder nodelay");
        let mut samples = Vec::with_capacity(ROUNDS);
        let mut buf = [0u8; 8];
        for i in 0..ROUNDS as u64 {
            let t = Instant::now();
            c.write_all(&i.to_le_bytes()).expect("ladder send");
            c.read_exact(&mut buf).expect("ladder recv");
            samples.push(t.elapsed().as_nanos() as f64 / 1e3);
            assert_eq!(u64::from_le_bytes(buf), i, "tcp echo mismatch");
        }
        drop(c);
        median(&samples)
    })
}
