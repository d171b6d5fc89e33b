//! E4: fault tolerance via replica groups.
//!
//! Availability under crash faults vs group size k, correctness of
//! majority voting under value faults, per-call cost of failover vs
//! voting, and the state-transfer cost for replica (re)initialization.
//!
//! Expected shape: availability rises with k (1 - p^k for failover);
//! majority voting pays ~k unicast calls per invocation but masks value
//! faults that failover cannot; state-transfer cost is linear in state
//! size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maqs_bench::{banner, row};
use netsim::Network;
use orb::{Any, Orb, OrbError, Servant};
use parking_lot::Mutex;
use qosmech::replication::{deploy_replicas, ReplicationMediator, ReplicationStrategy};
use std::sync::Arc;
use std::time::Duration;
use weaver::ClientStub;

struct Register(Mutex<Vec<u8>>);
impl Register {
    fn boxed(size: usize) -> Box<dyn Servant> {
        Box::new(Register(Mutex::new(vec![7; size])))
    }
}
impl Servant for Register {
    fn interface_id(&self) -> &str {
        "IDL:Register:1.0"
    }
    fn dispatch(&self, op: &str, _args: &[Any]) -> Result<Any, OrbError> {
        match op {
            "get" => Ok(Any::LongLong(self.0.lock().len() as i64)),
            _ => Err(OrbError::BadOperation(op.to_string())),
        }
    }
    fn get_state(&self) -> Result<Any, OrbError> {
        Ok(Any::Bytes(self.0.lock().clone()))
    }
    fn set_state(&self, state: &Any) -> Result<(), OrbError> {
        *self.0.lock() = state.as_bytes().unwrap_or(&[]).to_vec();
        Ok(())
    }
}

fn fast_client(net: &Network) -> Orb {
    Orb::start_with(
        net,
        "client",
        orb::OrbConfig { request_timeout: Duration::from_millis(150), ..Default::default() },
    )
}

/// Availability = fraction of calls answered, with each replica crashed
/// independently with probability `p` before each call batch.
fn availability(k: usize, p: f64, rounds: usize, seed: u64) -> f64 {
    let net = Network::new(seed);
    let (orbs, iors) = deploy_replicas(&net, k, "reg", |_| Register::boxed(8));
    let client = fast_client(&net);
    let mediator = Arc::new(ReplicationMediator::new(
        client.clone(),
        iors.clone(),
        ReplicationStrategy::Failover,
    ));
    let stub = ClientStub::new(client.clone(), iors[0].clone());
    stub.set_mediator(mediator);
    let mut rng = netsim::rng::SplitMix64::new(seed);
    let mut ok = 0usize;
    for _ in 0..rounds {
        for orb in &orbs {
            if rng.chance(p) {
                net.crash(orb.node());
            } else {
                net.revive(orb.node());
            }
        }
        if stub.invoke("get", &[]).is_ok() {
            ok += 1;
        }
    }
    for o in &orbs {
        o.shutdown();
    }
    client.shutdown();
    ok as f64 / rounds as f64
}

fn summary() {
    banner("E4", "availability vs replica count under crash faults (40 rounds/cell)");
    row("k \\ crash prob p", &["p=0.1".into(), "p=0.3".into(), "p=0.5".into(), "1-p^k (p=0.3)".into()]);
    for k in [1usize, 3, 5] {
        let mut cols = Vec::new();
        for p in [0.1, 0.3, 0.5] {
            cols.push(format!("{:5.2}", availability(k, p, 40, 100 + k as u64)));
        }
        cols.push(format!("{:5.2}", 1.0 - 0.3f64.powi(k as i32)));
        row(&format!("k={k}"), &cols);
    }

    banner("E4b", "majority voting masks value faults failover cannot");
    // 3 replicas, one value-corrupt: failover to the corrupt one gives
    // the wrong answer when it is first; voting never does.
    struct Fixed(i64);
    impl Servant for Fixed {
        fn interface_id(&self) -> &str {
            "IDL:Register:1.0"
        }
        fn dispatch(&self, _op: &str, _a: &[Any]) -> Result<Any, OrbError> {
            Ok(Any::LongLong(self.0))
        }
    }
    let net = Network::new(3);
    let values = [99i64, 5, 5]; // first replica corrupt
    let (orbs, iors) = deploy_replicas(&net, 3, "reg", |i| Box::new(Fixed(values[i])));
    let client = fast_client(&net);
    for (strategy, label) in [
        (ReplicationStrategy::Failover, "failover answer"),
        (ReplicationStrategy::MajorityVote, "majority answer"),
    ] {
        let mediator =
            Arc::new(ReplicationMediator::new(client.clone(), iors.clone(), strategy));
        let stub = ClientStub::new(client.clone(), iors[0].clone());
        stub.set_mediator(mediator);
        let answer = stub.invoke("get", &[]).unwrap();
        row(label, &[format!("{answer}")]);
    }
    for o in &orbs {
        o.shutdown();
    }
    client.shutdown();

    banner("E4c", "state-transfer cost vs state size");
    row("state size", &["µs/transfer".into()]);
    for size in [256usize, 4096, 65536] {
        let net = Network::new(4);
        let a = Orb::start(&net, "a");
        let b = Orb::start(&net, "b");
        let c = Orb::start(&net, "c");
        let src = a.activate("reg", Register::boxed(size));
        let dst = b.activate("reg", Register::boxed(0));
        let n = 50;
        let start = std::time::Instant::now();
        for _ in 0..n {
            groupcomm::transfer_state(&c, &src, &dst).unwrap();
        }
        let us = start.elapsed().as_secs_f64() * 1e6 / n as f64;
        row(&format!("{size} B"), &[format!("{us:9.1}")]);
        a.shutdown();
        b.shutdown();
        c.shutdown();
    }
}

fn bench(c: &mut Criterion) {
    summary();

    let mut group = c.benchmark_group("e4_replication");
    for k in [1usize, 3, 5] {
        let net = Network::new(10 + k as u64);
        let (orbs, iors) = deploy_replicas(&net, k, "reg", |_| Register::boxed(8));
        let client = Orb::start(&net, "client");
        for (strategy, name) in [
            (ReplicationStrategy::Failover, "failover"),
            (ReplicationStrategy::MajorityVote, "majority"),
        ] {
            let mediator =
                Arc::new(ReplicationMediator::new(client.clone(), iors.clone(), strategy));
            let stub = ClientStub::new(client.clone(), iors[0].clone());
            stub.set_mediator(mediator);
            group.bench_with_input(BenchmarkId::new(name, k), &stub, |b, stub| {
                b.iter(|| stub.invoke("get", &[]).unwrap())
            });
        }
        for o in &orbs {
            o.shutdown();
        }
        client.shutdown();
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3));
    targets = bench
}
criterion_main!(benches);
