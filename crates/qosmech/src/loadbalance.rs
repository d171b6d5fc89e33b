//! Performance through load balancing.
//!
//! The paper's performance-category application-layer mechanism: the
//! client-side mediator spreads invocations over a set of equivalent
//! servers. Three strategies are provided so experiment E5 can compare
//! them; the server-side QoS implementation reports its current load
//! through QoS operations (management responsibility).

use orb::sync::{LockRank, OrderedMutex, OrderedRwLock};
use netsim::rng::SplitMix64;
use netsim::NodeId;
use orb::{Any, Ior, Orb, OrbError, Servant};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;
use weaver::{Call, Mediator, Next, QosImplementation};

/// Characteristic name, matching [`crate::specs::QOS_SPECS`].
pub const LOAD_BALANCING_CHARACTERISTIC: &str = "LoadBalancing";

/// Server-selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Cycle through servers in order.
    RoundRobin,
    /// Pick uniformly at random (seeded, deterministic).
    Random,
    /// Pick the server with the lowest smoothed response time.
    LeastLoaded,
}

struct ServerSlot {
    ior: Ior,
    /// Exponentially weighted moving average of response time (µs).
    ewma_us: f64,
    /// Requests routed to this server.
    routed: u64,
}

/// The client-side load-balancing mediator.
pub struct LoadBalancingMediator {
    servers: OrderedRwLock<Vec<ServerSlot>>,
    strategy: Strategy,
    cursor: AtomicU64,
    rng: OrderedMutex<SplitMix64>,
}

impl LoadBalancingMediator {
    /// A mediator over equivalent `servers` using `strategy`. `seed`
    /// makes the [`Strategy::Random`] choice reproducible.
    pub fn new(servers: Vec<Ior>, strategy: Strategy, seed: u64) -> LoadBalancingMediator {
        LoadBalancingMediator {
            servers: OrderedRwLock::new(
                LockRank::QosMechConfig,
                servers
                    .into_iter()
                    .map(|ior| ServerSlot { ior, ewma_us: 0.0, routed: 0 })
                    .collect(),
            ),
            strategy,
            cursor: AtomicU64::new(0),
            rng: OrderedMutex::new(LockRank::QosMechState, SplitMix64::new(seed)),
        }
    }

    /// Requests routed per server, in server order.
    pub fn routed(&self) -> Vec<u64> {
        self.servers.read().iter().map(|s| s.routed).collect()
    }

    /// Smoothed response times (µs) per server, in server order.
    pub fn ewma_us(&self) -> Vec<f64> {
        self.servers.read().iter().map(|s| s.ewma_us).collect()
    }

    fn pick(&self) -> Result<usize, OrbError> {
        let servers = self.servers.read();
        if servers.is_empty() {
            return Err(OrbError::QosViolation("server set is empty".to_string()));
        }
        Ok(match self.strategy {
            Strategy::RoundRobin => {
                (self.cursor.fetch_add(1, Ordering::Relaxed) % servers.len() as u64) as usize
            }
            Strategy::Random => self.rng.lock().below(servers.len()),
            Strategy::LeastLoaded => {
                // Unprobed servers (ewma 0) come first; among servers
                // within 50% of the best estimate, rotate round-robin so
                // equally fast servers share the load instead of the
                // minimum capturing everything (the band absorbs
                // scheduling jitter in the response-time samples).
                if let Some(unprobed) = servers.iter().position(|s| s.ewma_us == 0.0) {
                    unprobed
                } else {
                    let turn = self.cursor.fetch_add(1, Ordering::Relaxed) as usize;
                    // Every 8th pick explores round-robin over *all*
                    // servers, so a stale estimate (one unlucky sample)
                    // cannot permanently exclude a server.
                    if turn % 8 == 7 {
                        (turn / 8) % servers.len()
                    } else {
                        let best = servers
                            .iter()
                            .map(|s| s.ewma_us)
                            .fold(f64::INFINITY, f64::min);
                        let candidates: Vec<usize> = servers
                            .iter()
                            .enumerate()
                            .filter(|(_, s)| s.ewma_us <= best * 1.5)
                            .map(|(i, _)| i)
                            .collect();
                        candidates[turn % candidates.len()]
                    }
                }
            }
        })
    }

    /// Account one finished call on server `index`: `sample_us` is its
    /// response time, `ok` whether it succeeded.
    fn record(&self, index: usize, sample_us: f64, ok: bool) {
        let mut servers = self.servers.write();
        if let Some(slot) = servers.get_mut(index) {
            slot.routed += 1;
            // Penalize failures so LeastLoaded steers away from them.
            let sample = if ok { sample_us } else { sample_us * 10.0 };
            slot.ewma_us =
                if slot.ewma_us == 0.0 { sample } else { 0.8 * slot.ewma_us + 0.2 * sample };
        }
    }
}

impl Mediator for LoadBalancingMediator {
    fn characteristic(&self) -> &str {
        LOAD_BALANCING_CHARACTERISTIC
    }

    fn around(&self, mut call: Call, next: Next<'_>) -> Result<Any, OrbError> {
        let index = self.pick()?;
        call.target = self.servers.read()[index].ior.clone();
        let start = Instant::now();
        let result = next(call);
        self.record(index, start.elapsed().as_secs_f64() * 1e6, result.is_ok());
        result
    }

    fn qos_op(&self, op: &str, _args: &[Any]) -> Result<Any, OrbError> {
        match op {
            "server_count" => Ok(Any::ULong(self.servers.read().len() as u32)),
            "routed" => Ok(Any::Sequence(
                self.routed().into_iter().map(Any::ULongLong).collect(),
            )),
            other => Err(OrbError::BadOperation(format!("load balancing op {other}"))),
        }
    }
}

/// Server-side QoS implementation: counts in-flight and served requests,
/// exposing them as QoS operations (`load`, `served`).
#[derive(Debug, Default)]
pub struct LoadReportingQosImpl {
    in_flight: AtomicI64,
    served: AtomicU64,
}

impl LoadReportingQosImpl {
    /// A fresh, idle reporter.
    pub fn new() -> LoadReportingQosImpl {
        LoadReportingQosImpl::default()
    }

    /// Requests currently being processed.
    pub fn load(&self) -> i64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Requests completed so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }
}

impl QosImplementation for LoadReportingQosImpl {
    fn characteristic(&self) -> &str {
        LOAD_BALANCING_CHARACTERISTIC
    }

    fn prolog(&self, _op: &str, _args: &[Any]) -> Result<(), OrbError> {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn epilog(&self, _op: &str, _args: &[Any], _result: &mut Result<Any, OrbError>) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.served.fetch_add(1, Ordering::Relaxed);
    }

    fn qos_op(&self, op: &str, _args: &[Any], _server: &dyn Servant) -> Result<Any, OrbError> {
        match op {
            "load" => Ok(Any::LongLong(self.load())),
            "served" => Ok(Any::ULongLong(self.served())),
            other => Err(OrbError::BadOperation(format!("load reporting op {other}"))),
        }
    }
}

/// Deploy `n` equivalent servers via `factory` on fresh ORBs. Returns
/// `(orbs, iors)`; all servers share the object key `key`.
pub fn deploy_servers<F>(
    net: &netsim::Network,
    n: usize,
    key: &str,
    factory: F,
) -> (Vec<Orb>, Vec<Ior>)
where
    F: Fn(usize) -> Box<dyn Servant>,
{
    let mut orbs = Vec::with_capacity(n);
    let mut iors = Vec::with_capacity(n);
    for i in 0..n {
        let orb = Orb::start(net, &format!("server-{i}"));
        let ior = orb.activate_with_tags(key, factory(i), &[LOAD_BALANCING_CHARACTERISTIC]);
        orbs.push(orb);
        iors.push(ior);
    }
    (orbs, iors)
}

/// Summarize per-server routing counts as fractions (for experiment E5).
pub fn distribution(routed: &[u64]) -> HashMap<usize, f64> {
    let total: u64 = routed.iter().sum();
    routed
        .iter()
        .enumerate()
        .map(|(i, &n)| (i, if total == 0 { 0.0 } else { n as f64 / total as f64 }))
        .collect()
}

/// Identify which server node actually answered (diagnostics in tests).
pub fn answered_by(replies: &[(NodeId, Result<Any, OrbError>)]) -> Vec<NodeId> {
    replies.iter().map(|(n, _)| *n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Network;
    use std::sync::Arc;
    use weaver::ClientStub;

    struct Sleeper {
        id: i64,
        delay_ms: u64,
    }
    impl Servant for Sleeper {
        fn interface_id(&self) -> &str {
            "IDL:Sleeper:1.0"
        }
        fn dispatch(&self, op: &str, _args: &[Any]) -> Result<Any, OrbError> {
            match op {
                "work" => {
                    if self.delay_ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(self.delay_ms));
                    }
                    Ok(Any::LongLong(self.id))
                }
                _ => Err(OrbError::BadOperation(op.to_string())),
            }
        }
    }

    fn run(strategy: Strategy, calls: usize, delays: &[u64]) -> (Vec<u64>, Vec<i64>) {
        let net = Network::new(7);
        let delays = delays.to_vec();
        let (orbs, iors) = deploy_servers(&net, delays.len(), "w", |i| {
            Box::new(Sleeper { id: i as i64, delay_ms: delays[i] })
        });
        let client = Orb::start(&net, "client");
        let mediator = Arc::new(LoadBalancingMediator::new(iors.clone(), strategy, 99));
        let stub = ClientStub::new(client.clone(), iors[0].clone());
        stub.set_mediator(mediator.clone());
        let mut answers = Vec::new();
        for _ in 0..calls {
            answers.push(stub.invoke("work", &[]).unwrap().as_i64().unwrap());
        }
        let routed = mediator.routed();
        for o in orbs {
            o.shutdown();
        }
        client.shutdown();
        (routed, answers)
    }

    #[test]
    fn round_robin_is_uniform() {
        let (routed, answers) = run(Strategy::RoundRobin, 12, &[0, 0, 0]);
        assert_eq!(routed, vec![4, 4, 4]);
        // Answers cycle 0,1,2,0,1,2,...
        assert_eq!(&answers[..6], &[0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn random_covers_all_servers() {
        let (routed, _) = run(Strategy::Random, 60, &[0, 0, 0]);
        assert_eq!(routed.iter().sum::<u64>(), 60);
        assert!(routed.iter().all(|&n| n > 5), "skewed: {routed:?}");
    }

    #[test]
    fn least_loaded_avoids_slow_server() {
        // Server 2 is 30x slower; LeastLoaded should route most traffic
        // to the fast ones after the initial probes.
        let (routed, _) = run(Strategy::LeastLoaded, 30, &[1, 1, 30]);
        let slow = routed[2];
        assert!(slow <= 5, "slow server got {slow} of 30: {routed:?}");
    }

    /// Drive the selection policy with fixed response-time samples (µs
    /// per server) instead of timed calls, so the outcome does not
    /// depend on how the host schedules the test.
    fn route(calls: usize, sample_us: &[f64]) -> Vec<u64> {
        let iors =
            (0..sample_us.len()).map(|i| Ior::new("IDL:Sleeper:1.0", NodeId(i as u32), "w"));
        let m = LoadBalancingMediator::new(iors.collect(), Strategy::LeastLoaded, 99);
        for _ in 0..calls {
            let index = m.pick().unwrap();
            m.record(index, sample_us[index], true);
        }
        m.routed()
    }

    #[test]
    fn least_loaded_spreads_over_uniform_servers() {
        let routed = route(60, &[1000.0; 4]);
        assert_eq!(routed.iter().sum::<u64>(), 60);
        assert!(routed.iter().all(|&n| n >= 3), "uniform servers must share: {routed:?}");
        // One server at 30x is starved down to the exploration picks.
        let routed = route(60, &[1000.0, 1000.0, 30_000.0, 1000.0]);
        assert_eq!(routed.iter().sum::<u64>(), 60);
        assert!(routed[2] <= 5, "slow server got {} of 60: {routed:?}", routed[2]);
    }

    #[test]
    fn empty_server_set_is_qos_violation() {
        let m = LoadBalancingMediator::new(vec![], Strategy::RoundRobin, 0);
        assert!(m.pick().is_err());
    }

    #[test]
    fn load_reporting_prolog_epilog() {
        let qi = LoadReportingQosImpl::new();
        struct Nothing;
        impl Servant for Nothing {
            fn interface_id(&self) -> &str {
                "IDL:N:1.0"
            }
            fn dispatch(&self, op: &str, _a: &[Any]) -> Result<Any, OrbError> {
                Err(OrbError::BadOperation(op.to_string()))
            }
        }
        qi.prolog("work", &[]).unwrap();
        assert_eq!(qi.load(), 1);
        assert_eq!(qi.qos_op("load", &[], &Nothing).unwrap(), Any::LongLong(1));
        let mut result = Ok(Any::Void);
        qi.epilog("work", &[], &mut result);
        assert_eq!(qi.load(), 0);
        assert_eq!(qi.served(), 1);
        assert_eq!(qi.qos_op("served", &[], &Nothing).unwrap(), Any::ULongLong(1));
        assert!(qi.qos_op("frob", &[], &Nothing).is_err());
    }

    #[test]
    fn mediator_qos_ops() {
        let m = LoadBalancingMediator::new(vec![], Strategy::RoundRobin, 0);
        assert_eq!(m.qos_op("server_count", &[]).unwrap(), Any::ULong(0));
        assert_eq!(m.qos_op("routed", &[]).unwrap(), Any::Sequence(vec![]));
        assert!(m.qos_op("x", &[]).is_err());
    }

    #[test]
    fn distribution_sums_to_one() {
        let d = distribution(&[10, 30, 60]);
        assert!((d[&0] - 0.1).abs() < 1e-9);
        assert!((d[&1] - 0.3).abs() < 1e-9);
        assert!((d[&2] - 0.6).abs() < 1e-9);
        assert!(distribution(&[0, 0]).values().all(|&v| v == 0.0));
    }
}
