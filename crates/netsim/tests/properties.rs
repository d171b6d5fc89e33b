//! Seeded property tests for the network simulator's invariants: 256
//! cases each from `MAQS_CHAOS_SEED` (default 7); a failing case prints
//! its seed and index.

use netsim::rng::{cases, SplitMix64};
use netsim::{LinkModel, Network, VirtualDuration, VirtualInstant};
use std::time::Duration;

const CASES: usize = 256;

fn seed() -> u64 {
    std::env::var("MAQS_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(7)
}

/// `1..=max_len` message sizes, each in `1..max_size`.
fn sizes(rng: &mut SplitMix64, max_len: usize, max_size: usize) -> Vec<usize> {
    (0..1 + rng.below(max_len)).map(|_| 1 + rng.below(max_size - 1)).collect()
}

/// FIFO per (src, dst): messages arrive in send order with
/// consecutive sequence numbers, whatever the link model.
#[test]
fn fifo_per_link() {
    cases(seed(), CASES, |rng| {
        let latency_us = rng.below(10_000) as u64;
        let jitter_us = rng.below(1_000) as u64;
        let kbps = 1 + rng.below(99_999) as u64;
        let sizes = sizes(rng, 31, 2048);
        let net = Network::new(1);
        let a = net.attach("a");
        let b = net.attach("b");
        net.set_link(
            a.id(),
            b.id(),
            LinkModel::perfect()
                .with_latency(VirtualDuration::from_micros(latency_us))
                .with_jitter(VirtualDuration::from_micros(jitter_us))
                .with_bandwidth_bps(kbps * 1000),
        );
        for size in &sizes {
            a.send(b.id(), vec![0; *size]).unwrap();
        }
        let mut last_seq = None;
        for _ in 0..sizes.len() {
            let m = b.recv_timeout(Duration::from_secs(2)).unwrap();
            if let Some(prev) = last_seq {
                assert_eq!(m.seq, prev + 1);
            }
            last_seq = Some(m.seq);
        }
    });
}

/// Virtual delivery time is never before send time plus the fixed
/// latency, and the receiving clock never runs backwards.
#[test]
fn delivery_time_lower_bound() {
    cases(seed(), CASES, |rng| {
        let latency_ms = rng.below(50) as u64;
        let sizes = sizes(rng, 15, 4096);
        let net = Network::new(2);
        let a = net.attach("a");
        let b = net.attach("b");
        net.set_link(
            a.id(),
            b.id(),
            LinkModel::narrowband(64).with_latency(VirtualDuration::from_millis(latency_ms)),
        );
        let mut last_clock = VirtualInstant::ZERO;
        for size in &sizes {
            a.send(b.id(), vec![0; *size]).unwrap();
            let m = b.recv_timeout(Duration::from_secs(2)).unwrap();
            assert!(m.deliver_vt >= m.send_vt + VirtualDuration::from_millis(latency_ms));
            // Serialization of `size` bytes at 64 kbit/s:
            let ser = VirtualDuration::from_nanos(*size as u64 * 8 * 1_000_000_000 / 64_000);
            assert!(m.deliver_vt >= m.send_vt + ser);
            assert!(b.now() >= last_clock);
            last_clock = b.now();
        }
    });
}

/// Loss never corrupts: every delivered message is byte-identical to
/// a sent one, and delivered + lost = sent.
#[test]
fn loss_only_drops_never_corrupts() {
    cases(seed(), CASES, |rng| {
        let loss = rng.below(1_000_000) as f64 / 1e6;
        let n = 1 + rng.below(127);
        let net = Network::new(3);
        let a = net.attach("a");
        let b = net.attach("b");
        net.set_link_directed(a.id(), b.id(), LinkModel::perfect().with_loss(loss));
        for i in 0..n {
            a.send(b.id(), vec![(i % 256) as u8; 3]).unwrap();
        }
        let mut delivered = 0u64;
        while let Ok(m) = b.try_recv() {
            assert_eq!(m.payload.len(), 3);
            assert!(m.payload.iter().all(|&x| x == m.payload[0]));
            delivered += 1;
        }
        let stats = net.stats().link(a.id(), b.id());
        assert_eq!(stats.msgs_delivered, delivered);
        assert_eq!(stats.msgs_delivered + stats.msgs_lost, n as u64);
    });
}

/// The same seed and send sequence gives bit-identical outcomes.
#[test]
fn determinism() {
    cases(seed(), CASES, |rng| {
        let net_seed = rng.below(1000) as u64;
        let n = 1 + rng.below(31);
        let run = || {
            let net = Network::new(net_seed);
            let a = net.attach("a");
            let b = net.attach("b");
            net.set_link(a.id(), b.id(), LinkModel::lan().with_loss(0.2));
            for i in 0..n {
                a.send(b.id(), vec![i as u8]).unwrap();
            }
            let mut log = Vec::new();
            while let Ok(m) = b.try_recv() {
                log.push((m.seq, m.deliver_vt));
            }
            log
        };
        assert_eq!(run(), run());
    });
}

/// Serialization time is monotone in message size and inversely
/// monotone in bandwidth.
#[test]
fn serialization_monotonicity() {
    cases(seed(), CASES, |rng| {
        let size = 1 + rng.below(99_999);
        let kbps = 1 + rng.below(999_999) as u64;
        let slow = LinkModel::narrowband(kbps);
        let fast = LinkModel::narrowband(kbps * 2);
        assert!(slow.serialization_time(size) >= fast.serialization_time(size));
        assert!(slow.serialization_time(size + 1) >= slow.serialization_time(size));
    });
}

/// schedule() keeps the link-busy horizon monotone (no time travel).
#[test]
fn busy_horizon_monotone() {
    cases(seed(), CASES, |rng| {
        let link = LinkModel::narrowband(64);
        let mut busy = VirtualInstant::ZERO;
        let mut send = VirtualInstant::ZERO;
        for size in sizes(rng, 31, 4096) {
            let (deliver, new_busy) = link.schedule(send, busy, size, rng);
            assert!(new_busy >= busy);
            assert!(deliver >= new_busy); // latency ≥ 0
            busy = new_busy;
            send += VirtualDuration::from_micros(10);
        }
    });
}
