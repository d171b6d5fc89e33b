//! Self-healing bindings: the adaptation engine.
//!
//! The pieces live in three layers — the resilience mediator
//! ([`weaver::resilience`]) enforces per-call behaviour, the monitor
//! ([`services::monitoring`]) detects agreement violations, and the
//! degradation ladder ([`services::adaptation`]) names the possible
//! reactions. This module is the loop that connects them: an
//! [`AdaptationEngine`] subscribes to the client node's monitor, and
//! whenever a guarded binding violates its agreement it walks the
//! ladder, one rung per violation cascade, until a rung heals the
//! binding or the ladder is exhausted:
//!
//! * **renegotiate** — keep the characteristic, relax the terms through
//!   the server's negotiation servant ([`services::Negotiator`]);
//! * **fallback** — release the agreement and negotiate a weaker
//!   characteristic;
//! * **rebind** — probe the replica group with the failure detector and
//!   point the resilience mediator at a live member;
//! * **fail static** — serve last-known-good replies for reads, reject
//!   writes with a typed error.
//!
//! Each attempted rung is recorded as an
//! [`AdaptationEvent`](services::AdaptationEvent) — render the log with
//! [`crate::report::render_adaptation_human`] /
//! [`render_adaptation_json`](crate::report::render_adaptation_json).
//! The cursor only moves down: a binding degrades deterministically and
//! never silently un-degrades (operators decide when to climb back).

use groupcomm::FailureDetector;
use netsim::NodeId;
use orb::retry::RetryPolicy;
use orb::{Ior, Orb};
use parking_lot::{Mutex, RwLock};
use services::adaptation::{
    relax_params, AdaptationEvent, AdaptationLog, DegradationLadder, LadderStep, StepOutcome,
};
use services::monitoring::{Monitor, ViolationEvent};
use services::{Agreement, Negotiator, Offer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;
use weaver::resilience::{BreakerConfig, FailStaticMode, ResilienceMediator, ResiliencePolicy};
use weaver::{ClientStub, Mediator};

/// Everything [`MaqsNode::enable_self_healing`](crate::MaqsNode::enable_self_healing)
/// needs to know: the ladder to walk, where the replicas are, and the
/// per-call resilience parameters each guarded binding starts with.
#[derive(Debug, Clone)]
pub struct SelfHealingPolicy {
    /// The degradation ladder violations walk, least drastic first.
    pub ladder: DegradationLadder,
    /// Known replicas of the guarded objects (rebind candidates).
    pub replicas: Vec<Ior>,
    /// Per-probe timeout for the rebind failure detector.
    pub probe_timeout: Duration,
    /// Retry policy applied within each call's deadline budget.
    pub retry: RetryPolicy,
    /// Circuit-breaker thresholds for each guarded binding.
    pub breaker: BreakerConfig,
}

impl SelfHealingPolicy {
    /// A policy walking `ladder`, with no replicas, a 250 ms probe
    /// timeout, and default retry/breaker parameters.
    pub fn new(ladder: DegradationLadder) -> SelfHealingPolicy {
        SelfHealingPolicy {
            ladder,
            replicas: Vec::new(),
            probe_timeout: Duration::from_millis(250),
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
        }
    }

    /// Set the rebind candidates.
    #[must_use]
    pub fn with_replicas(mut self, replicas: Vec<Ior>) -> SelfHealingPolicy {
        self.replicas = replicas;
        self
    }

    /// Set the failure-detector probe timeout.
    #[must_use]
    pub fn with_probe_timeout(mut self, timeout: Duration) -> SelfHealingPolicy {
        self.probe_timeout = timeout;
        self
    }

    /// Set the in-budget retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> SelfHealingPolicy {
        self.retry = retry;
        self
    }

    /// Set the circuit-breaker thresholds.
    #[must_use]
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> SelfHealingPolicy {
        self.breaker = breaker;
        self
    }
}

/// One guarded binding.
struct Guard {
    object: String,
    server: NodeId,
    stub: ClientStub,
    mediator: Arc<ResilienceMediator>,
    agreement: Mutex<Agreement>,
    /// Next ladder rung to try; only ever advances.
    cursor: AtomicUsize,
    /// Re-entrancy latch: violations raised *while healing* (the repair
    /// itself makes calls) must not recurse into the ladder.
    healing: AtomicBool,
}

/// The violation-to-repair loop of a self-healing client node.
///
/// Created by [`MaqsNode::enable_self_healing`](crate::MaqsNode::enable_self_healing);
/// guard individual bindings with [`AdaptationEngine::guard`].
pub struct AdaptationEngine {
    orb: Orb,
    monitor: Arc<Monitor>,
    policy: SelfHealingPolicy,
    log: AdaptationLog,
    guards: RwLock<HashMap<String, Arc<Guard>>>,
}

impl AdaptationEngine {
    /// Build the engine and subscribe it to `monitor`'s violations.
    pub(crate) fn install(
        orb: Orb,
        monitor: Arc<Monitor>,
        policy: SelfHealingPolicy,
    ) -> Arc<AdaptationEngine> {
        let engine = Arc::new(AdaptationEngine {
            orb,
            monitor: Arc::clone(&monitor),
            policy,
            log: AdaptationLog::new(),
            guards: RwLock::new(HashMap::new()),
        });
        // Weak: the engine owns the monitor, the monitor's handler list
        // must not own the engine back.
        let weak: Weak<AdaptationEngine> = Arc::downgrade(&engine);
        monitor.on_violation(Arc::new(move |event: &ViolationEvent| {
            if let Some(engine) = weak.upgrade() {
                engine.on_violation(event);
            }
        }));
        engine
    }

    /// Put the binding behind `stub` under self-healing guard.
    ///
    /// Installs a [`ResilienceMediator`] (deadline from the agreement's
    /// terms, retry/breaker from the engine policy) as the outermost
    /// chain link, points its observer at the client monitor, installs
    /// the monitor rules the agreement's parameters state, and attaches
    /// the agreement's wire context to the stub. From then on every
    /// violation of those rules walks the degradation ladder.
    ///
    /// Returns the installed mediator for introspection (circuit state,
    /// fail-static flag).
    pub fn guard(
        &self,
        stub: &ClientStub,
        server: NodeId,
        agreement: &Agreement,
    ) -> Arc<ResilienceMediator> {
        let object = agreement.object.clone();
        let mediator = Arc::new(
            ResilienceMediator::new(ResiliencePolicy {
                deadline: None,
                retry: self.policy.retry.clone(),
                breaker: self.policy.breaker.clone(),
            })
            .with_metrics(stub.orb().metrics().clone())
            .with_flight(stub.orb().flight().clone()),
        );
        let monitor = Arc::clone(&self.monitor);
        let observed = object.clone();
        mediator.set_observer(Some(Arc::new(move |_op: &str, us: u64, ok: bool| {
            monitor.record_call(&observed, us, ok);
        })));
        stub.push_mediator_front(Arc::clone(&mediator) as Arc<dyn Mediator>);
        let guard = Arc::new(Guard {
            object: object.clone(),
            server,
            stub: stub.clone(),
            mediator: Arc::clone(&mediator),
            agreement: Mutex::new(agreement.clone()),
            cursor: AtomicUsize::new(0),
            healing: AtomicBool::new(false),
        });
        self.adopt_agreement(&guard, agreement);
        self.guards.write().insert(object, guard);
        mediator
    }

    /// The resilience mediator guarding `object`, if any.
    pub fn mediator(&self, object: &str) -> Option<Arc<ResilienceMediator>> {
        self.guards.read().get(object).map(|g| Arc::clone(&g.mediator))
    }

    /// The guarded agreement for `object` as last (re)negotiated.
    pub fn agreement(&self, object: &str) -> Option<Agreement> {
        self.guards.read().get(object).map(|g| g.agreement.lock().clone())
    }

    /// All adaptation events so far, in the order they were taken.
    pub fn events(&self) -> Vec<AdaptationEvent> {
        self.log.events()
    }

    /// The object keys currently under guard, sorted. Feeds the
    /// deployment view's resilience coverage (lint `QL107`).
    pub fn guarded_objects(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.guards.read().keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Put a (re)negotiated agreement in force on `guard`: its deadline
    /// on the mediator, its wire context on the stub, and its bounds on
    /// the client monitor — the same [`Monitor::install`] the server's
    /// negotiation servant applies, fed by the *client's* measurements
    /// (which include the network).
    fn adopt_agreement(&self, guard: &Guard, agreement: &Agreement) {
        *guard.agreement.lock() = agreement.clone();
        guard.mediator.set_policy(ResiliencePolicy {
            deadline: ResiliencePolicy::from_params(&agreement.params).deadline,
            ..guard.mediator.policy()
        });
        guard.stub.set_qos_context(Some(agreement.to_context()));
        self.monitor.install(&guard.object, &agreement.params);
    }

    fn on_violation(&self, event: &ViolationEvent) {
        let Some(guard) = self.guards.read().get(&event.object).cloned() else {
            return;
        };
        // Violations raised by the repair's own traffic — or by another
        // thread while a repair runs — are absorbed by the latch; the
        // binding is already being healed.
        if guard.healing.compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst).is_err()
        {
            return;
        }
        self.walk_ladder(&guard, event);
        guard.healing.store(false, Ordering::SeqCst);
    }

    /// Try rungs from the guard's cursor down until one heals the
    /// binding or the ladder runs out. The cursor advances past every
    /// attempted rung — failed repairs are not retried on the next
    /// violation, the ladder just continues downward.
    fn walk_ladder(&self, guard: &Guard, trigger: &ViolationEvent) {
        let steps = self.policy.ladder.steps().to_vec();
        loop {
            let index = guard.cursor.fetch_add(1, Ordering::SeqCst);
            let Some(step) = steps.get(index) else {
                // Ladder exhausted; park the cursor so it cannot
                // eventually wrap.
                guard.cursor.store(steps.len(), Ordering::SeqCst);
                return;
            };
            let (detail, outcome) = match self.apply(guard, step) {
                Ok(detail) => (detail, StepOutcome::Succeeded),
                Err(why) => (String::new(), StepOutcome::Failed(why)),
            };
            let healed = outcome.is_success();
            // The rung lands in the black box alongside the lifecycle
            // events that triggered it, so a dump reads as a story:
            // fault → violations → ladder → (healed | fail-static).
            self.orb.flight().record_detail(
                orb::FlightEventKind::AdaptationRung,
                "adaptation",
                None,
                format!(
                    "{}: {} {}{}",
                    guard.object,
                    step.name(),
                    if healed { "healed" } else { "failed" },
                    if detail.is_empty() { String::new() } else { format!(" ({detail})") }
                ),
            );
            self.log.push(guard.object.clone(), trigger.clone(), step, detail, outcome);
            if healed {
                self.monitor.clear_call_windows(&guard.object);
                return;
            }
        }
    }

    fn apply(&self, guard: &Guard, step: &LadderStep) -> Result<String, String> {
        match step {
            LadderStep::Renegotiate { relax_factor } => {
                let current = guard.agreement.lock().clone();
                let relaxed = relax_params(&current.params, *relax_factor);
                let negotiator = Negotiator::new(self.orb.clone());
                let updated = negotiator
                    .renegotiate(guard.server, &current, relaxed)
                    .map_err(|e| e.to_string())?;
                self.adopt_agreement(guard, &updated);
                Ok(format!("terms relaxed ×{relax_factor}, agreement v{}", updated.version))
            }
            LadderStep::Fallback { characteristic, params } => {
                let current = guard.agreement.lock().clone();
                let negotiator = Negotiator::new(self.orb.clone());
                // Best effort: a dead server cannot release, but then it
                // cannot hold the slot against us either.
                let _ = negotiator.release(guard.server, &current);
                let mut offer = Offer::new(characteristic.clone(), 0.0);
                for (name, value) in params {
                    offer = offer.with_param(name.clone(), value.clone());
                }
                let updated = negotiator
                    .negotiate_offer(guard.server, &guard.object, &offer)
                    .map_err(|e| e.to_string())?;
                self.adopt_agreement(guard, &updated);
                Ok(format!("fell back to `{characteristic}`, agreement v{}", updated.version))
            }
            LadderStep::Rebind => {
                let detector = FailureDetector::new(self.orb.clone(), self.policy.probe_timeout);
                let bound = guard
                    .mediator
                    .target_override()
                    .unwrap_or_else(|| guard.stub.target().clone());
                let candidates: Vec<Ior> = self
                    .policy
                    .replicas
                    .iter()
                    .filter(|ior| ior.node != bound.node)
                    .cloned()
                    .collect();
                let (alive, _) = detector.sweep(&candidates);
                let target =
                    alive.first().copied().cloned().ok_or("no live replica to rebind to")?;
                guard.mediator.set_target_override(Some(target.clone()));
                Ok(format!("rebound to node {} (`{}`)", target.node.0, target.key))
            }
            LadderStep::FailStatic { read_ops } => {
                guard.mediator.enter_fail_static(FailStaticMode::reads(read_ops.clone()));
                Ok(format!("fail-static, serving cached: {}", read_ops.join(", ")))
            }
        }
    }
}

impl std::fmt::Debug for AdaptationEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptationEngine")
            .field("guards", &self.guards.read().keys().cloned().collect::<Vec<_>>())
            .field("events", &self.log.len())
            .field("ladder", &self.policy.ladder)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{MaqsNode, ServeOptions};
    use netsim::Network;
    use orb::{Any, OrbError, Servant};
    use qosmech::actuality::FreshnessStampQosImpl;
    use qosmech::replication::ReplicationQosImpl;
    use weaver::resilience::CircuitState;

    struct Kv(Mutex<HashMap<String, i64>>);
    impl Servant for Kv {
        fn interface_id(&self) -> &str {
            "IDL:Kv:1.0"
        }
        fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
            match op {
                "put" => {
                    let k = args[0].as_str().unwrap_or("").to_string();
                    let v = args[1].as_i64().unwrap_or(0);
                    self.0.lock().insert(k, v);
                    Ok(Any::Void)
                }
                "get" => {
                    let k = args[0].as_str().unwrap_or("");
                    Ok(Any::LongLong(self.0.lock().get(k).copied().unwrap_or(0)))
                }
                _ => Err(OrbError::BadOperation(op.to_string())),
            }
        }
    }

    const SPEC: &str = r#"
        interface Kv with qos Replication, Actuality {
            void put(in string key, in long long value);
            long long get(in string key);
        };
    "#;

    fn serve_kv(node: &MaqsNode) -> orb::Ior {
        node.serve(
            "kv",
            Arc::new(Kv(Mutex::new(HashMap::new()))),
            ServeOptions::interface("Kv")
                .qos_impl(Arc::new(ReplicationQosImpl::new()))
                .qos_impl(Arc::new(FreshnessStampQosImpl::new()))
                .capacity("Replication", 4),
        )
        .unwrap()
    }

    fn fast_client(net: &Network) -> MaqsNode {
        MaqsNode::builder(net, "client")
            .orb_config(orb::OrbConfig {
                request_timeout: Duration::from_millis(300),
                ..Default::default()
            })
            .build()
            .unwrap()
    }

    fn negotiate(
        client: &MaqsNode,
        server: &MaqsNode,
        params: &[(&str, Any)],
    ) -> Agreement {
        let mut offer = Offer::new("Replication", 1.0);
        for (name, value) in params {
            offer = offer.with_param(name.to_string(), value.clone());
        }
        client.negotiator().negotiate_offer(server.orb().node(), "kv", &offer).unwrap()
    }

    #[test]
    fn deadline_violation_renegotiates_relaxed_terms() {
        let net = Network::new(1);
        let server = MaqsNode::builder(&net, "server").spec(SPEC).build().unwrap();
        let client = fast_client(&net);
        let ior = serve_kv(&server);
        // A 1 µs deadline: the very first measured call violates it.
        let agreement = negotiate(&client, &server, &[("deadline_ms", Any::Double(0.001))]);
        let engine = client.enable_self_healing(
            SelfHealingPolicy::new(
                DegradationLadder::new().then(LadderStep::Renegotiate { relax_factor: 1e6 }),
            )
            .with_retry(RetryPolicy::immediate(1)),
        );
        assert!(client.self_healing().is_some());
        let stub = client.stub(&ior);
        let mediator = engine.guard(&stub, server.orb().node(), &agreement);
        assert_eq!(engine.guarded_objects(), vec!["kv".to_string()]);
        // The guard shows up as resilience coverage in the lint view.
        assert_eq!(
            client.deployment_view().resilience,
            Some(qoslint::deploy::ResilienceView { guarded: vec!["kv".to_string()] })
        );

        // The call succeeds — the deadline breach is a QoS violation,
        // not a failure — and healing runs inside it.
        stub.invoke("get", &[Any::from("k")]).unwrap();
        let events = engine.events();
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].step, "renegotiate");
        assert!(events[0].outcome.is_success(), "{events:?}");
        assert_eq!(events[0].trigger.metric, "latency_us");
        let healed = engine.agreement("kv").unwrap();
        assert_eq!(healed.version, 2);
        // The mediator now enforces the relaxed (~1 s) deadline.
        assert!(mediator.policy().deadline.unwrap() > Duration::from_millis(900));
        // Relaxed terms hold: further calls raise no new events.
        stub.invoke("get", &[Any::from("k")]).unwrap();
        assert_eq!(engine.events().len(), 1);
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn server_and_client_police_one_agreement_identically() {
        let net = Network::new(1);
        let server = MaqsNode::builder(&net, "server").spec(SPEC).build().unwrap();
        let client = fast_client(&net);
        let ior = serve_kv(&server);
        let terms = [
            ("deadline_ms", Any::ULongLong(2)),
            ("availability", Any::Double(0.9)),
            ("validity_ms", Any::ULongLong(100)),
        ];
        let agreement = negotiate(&client, &server, &terms);
        // An empty ladder: violations are observed, nothing is repaired.
        let engine = client.enable_self_healing(SelfHealingPolicy::new(DegradationLadder::new()));
        engine.guard(&client.stub(&ior), server.orb().node(), &agreement);

        // Samples straddling every bound the agreement states, plus the
        // staleness series neither side may hold a (never-fed) rule on.
        let samples = [
            ("latency_us", 1_999.0),
            ("latency_us", 2_001.0),
            ("availability", 1.0),
            ("availability", 0.0),
            ("availability", 1.0),
            ("staleness_us", 1e12),
        ];
        let feed = |monitor: &Monitor| -> Vec<ViolationEvent> {
            samples.iter().flat_map(|(metric, v)| monitor.record("kv", metric, *v)).collect()
        };
        let (on_server, on_client) = (feed(server.monitor()), feed(client.monitor()));
        assert_eq!(on_server, on_client);
        let seen: Vec<_> = on_server.iter().map(|e| (e.metric.as_str(), e.threshold)).collect();
        assert_eq!(seen, [("latency_us", 2_000.0), ("availability", 0.9), ("availability", 0.9)]);
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn ladder_walks_rebind_then_fail_static() {
        let net = Network::new(1);
        let s1 = MaqsNode::builder(&net, "s1").spec(SPEC).build().unwrap();
        let s2 = MaqsNode::builder(&net, "s2").spec(SPEC).build().unwrap();
        let client = fast_client(&net);
        let ior1 = serve_kv(&s1);
        let ior2 = serve_kv(&s2);
        let agreement = negotiate(&client, &s1, &[("availability", Any::Double(0.9))]);
        let engine = client.enable_self_healing(
            SelfHealingPolicy::new(
                DegradationLadder::new()
                    .then(LadderStep::Rebind)
                    .then(LadderStep::FailStatic { read_ops: vec!["get".to_string()] }),
            )
            .with_replicas(vec![ior1.clone(), ior2.clone()])
            .with_probe_timeout(Duration::from_millis(200))
            .with_retry(RetryPolicy::immediate(1)),
        );
        let stub = client.stub(&ior1);
        let mediator = engine.guard(&stub, s1.orb().node(), &agreement);

        stub.invoke("put", &[Any::from("k"), Any::LongLong(7)]).unwrap();
        assert_eq!(stub.invoke("get", &[Any::from("k")]).unwrap(), Any::LongLong(7));

        // Crash the bound server: the failing call drags mean
        // availability under the agreed floor and triggers the rebind.
        net.crash(s1.orb().node());
        assert!(stub.invoke("get", &[Any::from("k")]).is_err());
        let events = engine.events();
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].step, "rebind");
        assert!(events[0].outcome.is_success(), "{events:?}");
        // Post-heal calls reach the replica (whose store is empty).
        assert_eq!(stub.invoke("get", &[Any::from("k")]).unwrap(), Any::LongLong(0));

        // Crash the replica too: the next rung is fail-static.
        net.crash(s2.orb().node());
        assert!(stub.invoke("get", &[Any::from("k")]).is_err());
        let events = engine.events();
        assert_eq!(events.len(), 2, "{events:?}");
        assert_eq!(events[1].step, "fail_static");
        assert!(mediator.is_fail_static());
        // Reads serve the last-known-good value, writes get typed errors.
        assert_eq!(stub.invoke("get", &[Any::from("k")]).unwrap(), Any::LongLong(0));
        let err = stub.invoke("put", &[Any::from("k"), Any::LongLong(1)]).unwrap_err();
        assert!(matches!(err, OrbError::QosViolation(_)), "{err}");
        // Ladder steps were taken strictly in declared order.
        assert!(events[0].seq < events[1].seq);
        s1.shutdown();
        s2.shutdown();
        client.shutdown();
    }

    #[test]
    fn rebind_with_no_live_replica_fails_down_the_ladder() {
        let net = Network::new(1);
        let server = MaqsNode::builder(&net, "server").spec(SPEC).build().unwrap();
        let client = fast_client(&net);
        let ior = serve_kv(&server);
        let agreement = negotiate(&client, &server, &[("availability", Any::Double(0.9))]);
        let engine = client.enable_self_healing(
            SelfHealingPolicy::new(
                DegradationLadder::new()
                    .then(LadderStep::Rebind)
                    .then(LadderStep::FailStatic { read_ops: vec!["get".to_string()] }),
            )
            .with_replicas(vec![ior.clone()])
            .with_probe_timeout(Duration::from_millis(200))
            .with_retry(RetryPolicy::immediate(1)),
        );
        let stub = client.stub(&ior);
        let mediator = engine.guard(&stub, server.orb().node(), &agreement);
        stub.invoke("get", &[Any::from("k")]).unwrap();
        net.crash(server.orb().node());
        // One violation cascades: rebind finds nothing (the only replica
        // is the bound, crashed one), so fail-static engages immediately.
        assert!(stub.invoke("get", &[Any::from("k")]).is_err());
        let events = engine.events();
        assert_eq!(events.len(), 2, "{events:?}");
        assert_eq!(events[0].step, "rebind");
        assert!(!events[0].outcome.is_success());
        assert_eq!(events[1].step, "fail_static");
        assert!(events[1].outcome.is_success());
        assert!(mediator.is_fail_static());
        assert_eq!(stub.invoke("get", &[Any::from("k")]).unwrap(), Any::LongLong(0));
        // Exhausted ladder: further violations are absorbed silently.
        let _ = stub.invoke("put", &[Any::from("k"), Any::LongLong(2)]);
        assert_eq!(engine.events().len(), 2);
        assert_eq!(mediator.circuit_state(), CircuitState::Closed);
        server.shutdown();
        client.shutdown();
    }
}
