//! Client-side weaving: stubs with mediator delegation.

use orb::sync::{LockRank, OrderedMutex, OrderedRwLock};
use crate::reply::Reply;
use orb::giop::QosContext;
use orb::{Any, Ior, Orb, OrbError, TraceContext};
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    /// Extra spans mediators want on the *current* invocation's trace
    /// (e.g. the resilience mediator marking a circuit transition).
    /// Drained by the chain after each mediator returns.
    static ANNOTATIONS: RefCell<Vec<(String, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Record an extra span on the trace of the mediator-chain invocation
/// currently running on this thread. Outside a chain this is a no-op
/// buffer that the next invocation drains, so only call it from inside
/// [`Mediator::around`].
pub fn annotate_span(layer: impl Into<String>, dur_us: u64) {
    ANNOTATIONS.with(|a| a.borrow_mut().push((layer.into(), dur_us)));
}

/// One intercepted invocation travelling down the mediator chain.
///
/// Mediators may rewrite any part of it: the load-balancing mediator
/// replaces `target`, the replication mediator clones it per replica, a
/// caching mediator may answer without ever reaching the innermost
/// invoker.
#[derive(Debug, Clone)]
pub struct Call {
    /// The invocation target (possibly rewritten along the chain).
    pub target: Ior,
    /// Operation name.
    pub operation: String,
    /// Arguments.
    pub args: Vec<Any>,
    /// Negotiated-QoS annotation to put on the wire, if any.
    pub qos: Option<QosContext>,
}

/// Continuation invoking the rest of the chain (ending at the ORB).
pub type Next<'a> = &'a dyn Fn(Call) -> Result<Any, OrbError>;

/// A client-side QoS mediator (§3.3).
///
/// "For each QoS characteristic a mediator is generated": the QIDL
/// compiler emits a skeleton, the QoS implementor fills it in, and at
/// runtime the mediator of the *negotiated* characteristic is installed
/// in the stub as a delegate.
pub trait Mediator: Send + Sync {
    /// Name of the QoS characteristic this mediator implements.
    fn characteristic(&self) -> &str;

    /// Intercept an invocation. Call `next(call)` to continue the chain;
    /// not calling it short-circuits (e.g. a cache hit).
    ///
    /// # Errors
    ///
    /// Either the propagated downstream error or a mediator-specific one.
    fn around(&self, call: Call, next: Next<'_>) -> Result<Any, OrbError>;

    /// Client-side QoS operations (the management part of the QoS
    /// responsibility that is sensible on the client, e.g. reading
    /// mediator statistics or re-tuning it).
    ///
    /// # Errors
    ///
    /// [`OrbError::BadOperation`] by default.
    fn qos_op(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
        let _ = args;
        Err(OrbError::BadOperation(format!(
            "{} mediator has no QoS operation `{op}`",
            self.characteristic()
        )))
    }
}

struct StubState {
    mediators: Vec<Arc<dyn Mediator>>,
    qos: Option<QosContext>,
}

/// Per-invocation observability state threaded down the mediator chain.
/// Mediator spans are *inclusive* (each covers its whole `around` call,
/// downstream included), matching the nesting the chain actually has.
struct ChainObs {
    trace: OrderedMutex<Option<TraceContext>>,
    timings: OrderedMutex<Vec<(String, u64)>>,
    annotations: OrderedMutex<Vec<(String, u64)>>,
}

/// A client stub extended with a mediator delegate (the client half of
/// Fig. 2).
///
/// Generated typed stubs wrap one of these; dynamic callers use it
/// directly. Cloning shares the stub (and its installed mediators).
#[derive(Clone)]
pub struct ClientStub {
    orb: Orb,
    target: Ior,
    state: Arc<OrderedRwLock<StubState>>,
}

impl fmt::Debug for ClientStub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.read();
        f.debug_struct("ClientStub")
            .field("target", &self.target)
            .field(
                "mediators",
                &st.mediators.iter().map(|m| m.characteristic().to_string()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl ClientStub {
    /// A stub for `target`, with no mediators installed.
    pub fn new(orb: Orb, target: Ior) -> ClientStub {
        ClientStub {
            orb,
            target,
            state: Arc::new(OrderedRwLock::new(
                LockRank::StubState,
                StubState { mediators: Vec::new(), qos: None },
            )),
        }
    }

    /// The stub's target reference.
    pub fn target(&self) -> &Ior {
        &self.target
    }

    /// The ORB this stub invokes through.
    pub fn orb(&self) -> &Orb {
        &self.orb
    }

    /// Install `mediator` as the sole delegate, replacing any others —
    /// the paper's "exchange the delegate at runtime".
    pub fn set_mediator(&self, mediator: Arc<dyn Mediator>) {
        self.state.write().mediators = vec![mediator];
    }

    /// Push an additional mediator onto the chain (outermost first); used
    /// to stack characteristics, e.g. compression over encryption.
    pub fn push_mediator(&self, mediator: Arc<dyn Mediator>) {
        self.state.write().mediators.push(mediator);
    }

    /// Install `mediator` as the new *outermost* link of the chain; used
    /// by the resilience layer so its deadline budget and circuit breaker
    /// wrap every mediator beneath (replication retries included).
    pub fn push_mediator_front(&self, mediator: Arc<dyn Mediator>) {
        self.state.write().mediators.insert(0, mediator);
    }

    /// Remove all mediators (back to a plain CORBA stub).
    pub fn clear_mediators(&self) {
        self.state.write().mediators.clear();
    }

    /// Names of the installed mediators, outermost first.
    pub fn mediator_chain(&self) -> Vec<String> {
        self.state.read().mediators.iter().map(|m| m.characteristic().to_string()).collect()
    }

    /// Set the negotiated-QoS context attached to every subsequent call.
    pub fn set_qos_context(&self, qos: Option<QosContext>) {
        self.state.write().qos = qos;
    }

    /// Invoke `op(args)` through the mediator chain.
    ///
    /// Sampled calls are traced: a fresh [`TraceContext`] is minted at
    /// the stub, travels with the request through every layer it crosses
    /// (mediators, ORB, wire, adapter, woven skeleton, servant) and comes
    /// back in the [`Reply`], together with the QoS characteristic the
    /// call was made under. Whether a call is sampled is the ORB's
    /// decision ([`orb::OrbConfig::trace_sample_every`], default: every
    /// call); unsampled calls run the same chain with no observer — no
    /// context is minted or decoded anywhere downstream — and return
    /// `Reply.trace = None`. Metrics are recorded either way. The reply
    /// derefs to its [`Any`] value, so value-only callers are unaffected.
    ///
    /// # Errors
    ///
    /// Whatever the mediators or the underlying ORB invocation produce.
    pub fn invoke(&self, op: &str, args: &[Any]) -> Result<Reply, OrbError> {
        let (mediators, qos) = {
            let st = self.state.read();
            (st.mediators.clone(), st.qos.clone())
        };
        let qos_tag = qos.as_ref().map(|q| q.characteristic.clone());
        let call = Call {
            target: self.target.clone(),
            operation: op.to_string(),
            args: args.to_vec(),
            qos,
        };
        if !self.orb.trace_sampled() {
            let value = self.run_chain(&mediators, 0, call, None)?;
            return Ok(Reply { value, trace: None, qos_tag });
        }
        // The innermost chain link stashes the round-tripped trace here;
        // mediator timings accumulate innermost-first as the chain unwinds.
        let obs = ChainObs {
            trace: OrderedMutex::new(LockRank::ChainObs, None),
            timings: OrderedMutex::new(LockRank::ChainObs, Vec::new()),
            annotations: OrderedMutex::new(LockRank::ChainObs, Vec::new()),
        };
        let started = Instant::now();
        let value = self.run_chain(&mediators, 0, call, Some(&obs))?;
        let stub_us = started.elapsed().as_micros() as u64;

        let node = self.orb.name().to_string();
        let mut trace = obs
            .trace
            .into_inner()
            .unwrap_or_else(|| TraceContext::new(self.orb.node()));
        for (characteristic, dur_us) in obs.timings.into_inner().into_iter().rev() {
            trace.push(format!("mediator:{characteristic}"), node.clone(), dur_us);
        }
        for (layer, dur_us) in obs.annotations.into_inner() {
            trace.push(layer, node.clone(), dur_us);
        }
        trace.push("stub", node, stub_us);
        Ok(Reply { value, trace: Some(trace), qos_tag })
    }

    /// Issue `op(args)` without blocking for the reply: GIOP pipelining
    /// through the stub.
    ///
    /// The call carries the stub's negotiated QoS context (so it travels
    /// the same QoS-module path as [`ClientStub::invoke`]) but *skips the
    /// mediator chain*: mediators are synchronous around-advice — they
    /// expect to observe the reply on the way out — and cannot wrap a
    /// call whose reply is harvested later on whichever thread calls
    /// [`orb::PendingCall::wait`]. Callers that need per-call mediation
    /// (retry budgets, circuit breakers, replication) should keep using
    /// the synchronous path; pipelining is for saturating the wire with
    /// independent calls from one thread.
    ///
    /// # Errors
    ///
    /// Local send errors only; remote failures and timeouts surface at
    /// [`orb::PendingCall::wait`].
    pub fn invoke_async(&self, op: &str, args: &[Any]) -> Result<orb::PendingCall, OrbError> {
        let qos = self.state.read().qos.clone();
        self.orb.invoke_async(&self.target, op, args, qos)
    }

    fn run_chain(
        &self,
        mediators: &[Arc<dyn Mediator>],
        index: usize,
        call: Call,
        obs: Option<&ChainObs>,
    ) -> Result<Any, OrbError> {
        match (mediators.get(index), obs) {
            (None, None) => {
                self.orb.invoke_qos(&call.target, &call.operation, &call.args, call.qos)
            }
            (None, Some(o)) => {
                let ctx = TraceContext::new(self.orb.node());
                let (value, trace) = self.orb.invoke_traced(
                    &call.target,
                    &call.operation,
                    &call.args,
                    call.qos,
                    Some(ctx),
                )?;
                *o.trace.lock() = trace;
                Ok(value)
            }
            (Some(m), _) => {
                let started = Instant::now();
                let next = |c: Call| self.run_chain(mediators, index + 1, c, obs);
                let result = m.around(call, &next);
                if let Some(o) = obs {
                    let dur_us = started.elapsed().as_micros() as u64;
                    o.timings.lock().push((m.characteristic().to_string(), dur_us));
                    let mut extra = ANNOTATIONS.with(|a| std::mem::take(&mut *a.borrow_mut()));
                    if !extra.is_empty() {
                        o.annotations.lock().append(&mut extra);
                    }
                }
                result
            }
        }
    }

    /// Invoke a QoS operation on the installed mediator of
    /// `characteristic` (client-side management).
    ///
    /// # Errors
    ///
    /// [`OrbError::QosNotNegotiated`] if no mediator of that
    /// characteristic is installed; otherwise the mediator's error.
    pub fn qos_op(&self, characteristic: &str, op: &str, args: &[Any]) -> Result<Any, OrbError> {
        let mediator = self
            .state
            .read()
            .mediators
            .iter()
            .find(|m| m.characteristic() == characteristic)
            .cloned();
        match mediator {
            Some(m) => m.qos_op(op, args),
            None => Err(OrbError::QosNotNegotiated(format!(
                "no `{characteristic}` mediator installed"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Network;
    use orb::Servant;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Echo;
    impl Servant for Echo {
        fn interface_id(&self) -> &str {
            "IDL:Echo:1.0"
        }
        fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
            match op {
                "echo" => Ok(args.first().cloned().unwrap_or(Any::Void)),
                _ => Err(OrbError::BadOperation(op.to_string())),
            }
        }
    }

    fn setup() -> (Orb, Orb, ClientStub) {
        let net = Network::new(1);
        let server = Orb::start(&net, "server");
        let client = Orb::start(&net, "client");
        let ior = server.activate("echo", Box::new(Echo));
        let stub = ClientStub::new(client.clone(), ior);
        (server, client, stub)
    }

    /// Tags results so chain order is observable.
    struct Tag(&'static str);
    impl Mediator for Tag {
        fn characteristic(&self) -> &str {
            self.0
        }
        fn around(&self, call: Call, next: Next<'_>) -> Result<Any, OrbError> {
            let r = next(call)?;
            Ok(Any::Str(format!("{}({})", self.0, r.as_str().unwrap_or("?"))))
        }
        fn qos_op(&self, op: &str, _args: &[Any]) -> Result<Any, OrbError> {
            match op {
                "name" => Ok(Any::Str(self.0.to_string())),
                other => Err(OrbError::BadOperation(other.to_string())),
            }
        }
    }

    #[test]
    fn plain_stub_passes_through() {
        let (server, client, stub) = setup();
        assert_eq!(stub.invoke("echo", &[Any::from("x")]).unwrap(), Any::Str("x".into()));
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn stub_pipelines_calls() {
        let (server, client, stub) = setup();
        let pending: Vec<_> = (0..8)
            .map(|i| stub.invoke_async("echo", &[Any::Long(i)]).unwrap())
            .collect();
        for (i, call) in pending.into_iter().enumerate() {
            assert_eq!(call.wait().unwrap(), Any::Long(i as i32));
        }
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn mediator_intercepts_each_call() {
        let (server, client, stub) = setup();
        struct Count(AtomicU64);
        impl Mediator for Count {
            fn characteristic(&self) -> &str {
                "count"
            }
            fn around(&self, call: Call, next: Next<'_>) -> Result<Any, OrbError> {
                self.0.fetch_add(1, Ordering::Relaxed);
                next(call)
            }
        }
        let c = Arc::new(Count(AtomicU64::new(0)));
        stub.set_mediator(c.clone());
        for _ in 0..3 {
            stub.invoke("echo", &[Any::from("x")]).unwrap();
        }
        assert_eq!(c.0.load(Ordering::Relaxed), 3);
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn chain_runs_outermost_first() {
        let (server, client, stub) = setup();
        stub.push_mediator(Arc::new(Tag("outer")));
        stub.push_mediator(Arc::new(Tag("inner")));
        let r = stub.invoke("echo", &[Any::from("x")]).unwrap();
        // outer wraps inner's result.
        assert_eq!(r, Any::Str("outer(inner(x))".into()));
        assert_eq!(stub.mediator_chain(), vec!["outer", "inner"]);
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn set_mediator_replaces_and_clear_removes() {
        let (server, client, stub) = setup();
        stub.push_mediator(Arc::new(Tag("a")));
        stub.set_mediator(Arc::new(Tag("b")));
        assert_eq!(stub.mediator_chain(), vec!["b"]);
        stub.clear_mediators();
        assert!(stub.mediator_chain().is_empty());
        assert_eq!(stub.invoke("echo", &[Any::from("x")]).unwrap(), Any::Str("x".into()));
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn mediator_can_short_circuit() {
        let (server, client, stub) = setup();
        struct Cache;
        impl Mediator for Cache {
            fn characteristic(&self) -> &str {
                "cache"
            }
            fn around(&self, _call: Call, _next: Next<'_>) -> Result<Any, OrbError> {
                Ok(Any::Str("cached".into()))
            }
        }
        stub.set_mediator(Arc::new(Cache));
        assert_eq!(stub.invoke("echo", &[Any::from("x")]).unwrap(), Any::Str("cached".into()));
        // Server never saw the request.
        assert_eq!(server.stats().requests_handled, 0);
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn qos_op_routed_to_matching_mediator() {
        let (server, client, stub) = setup();
        stub.push_mediator(Arc::new(Tag("enc")));
        assert_eq!(stub.qos_op("enc", "name", &[]).unwrap(), Any::Str("enc".into()));
        assert!(matches!(
            stub.qos_op("missing", "name", &[]),
            Err(OrbError::QosNotNegotiated(_))
        ));
        assert!(matches!(stub.qos_op("enc", "bogus", &[]), Err(OrbError::BadOperation(_))));
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn default_qos_op_is_bad_operation() {
        struct Plain;
        impl Mediator for Plain {
            fn characteristic(&self) -> &str {
                "plain"
            }
            fn around(&self, call: Call, next: Next<'_>) -> Result<Any, OrbError> {
                next(call)
            }
        }
        assert!(matches!(Plain.qos_op("x", &[]), Err(OrbError::BadOperation(_))));
    }

    #[test]
    fn invoke_returns_traced_reply_with_mediator_spans() {
        let (server, client, stub) = setup();
        stub.push_mediator(Arc::new(Tag("outer")));
        stub.push_mediator(Arc::new(Tag("inner")));
        let reply = stub.invoke("echo", &[Any::from("x")]).unwrap();
        assert_eq!(reply, Any::Str("outer(inner(x))".into()));
        let trace = reply.trace.as_ref().expect("stub calls are traced");
        // Client-side spans minted by the stub.
        assert!(trace.span("stub").is_some());
        assert!(trace.span("mediator:outer").is_some());
        assert!(trace.span("mediator:inner").is_some());
        // Remote layers round-tripped through the wire context slot.
        for layer in ["orb.client", "wire", "orb.server", "adapter", "wire.reply"] {
            assert!(trace.span(layer).is_some(), "missing `{layer}` span: {trace:?}");
        }
        // Mediator spans come back outermost-first, before the stub span.
        let names: Vec<&str> = trace.spans.iter().map(|s| s.layer.as_str()).collect();
        let outer_at = names.iter().position(|n| *n == "mediator:outer").unwrap();
        let inner_at = names.iter().position(|n| *n == "mediator:inner").unwrap();
        let stub_at = names.iter().position(|n| *n == "stub").unwrap();
        assert!(outer_at < inner_at || outer_at < stub_at);
        assert!(stub_at > inner_at);
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn unsampled_calls_skip_tracing_but_not_metrics() {
        let net = Network::new(1);
        let server = Orb::start(&net, "server");
        let client = Orb::start_with(
            &net,
            "client",
            orb::OrbConfig { trace_sample_every: 2, ..orb::OrbConfig::default() },
        );
        let ior = server.activate("echo", Box::new(Echo));
        let stub = ClientStub::new(client.clone(), ior);
        let traced = (0..6)
            .map(|i| {
                let reply = stub.invoke("echo", &[Any::Long(i)]).unwrap();
                assert_eq!(*reply, Any::Long(i), "value is identical either way");
                reply.trace.is_some()
            })
            .filter(|t| *t)
            .count();
        assert_eq!(traced, 3, "period 2 traces half the calls");
        // Metrics are unconditional: every call counted.
        assert_eq!(client.metrics().snapshot().counter("orb.requests_sent"), 6);
        assert_eq!(server.metrics().snapshot().counter("orb.requests_handled"), 6);
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn reply_carries_qos_tag_from_context() {
        let (server, client, stub) = setup();
        stub.set_qos_context(Some(QosContext::new("Compression")));
        let reply = stub.invoke("echo", &[Any::from("x")]).unwrap();
        assert_eq!(reply.qos_tag.as_deref(), Some("Compression"));
        stub.set_qos_context(None);
        let reply = stub.invoke("echo", &[Any::from("x")]).unwrap();
        assert_eq!(reply.qos_tag, None);
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn short_circuited_call_still_yields_a_trace() {
        let (server, client, stub) = setup();
        struct Cache;
        impl Mediator for Cache {
            fn characteristic(&self) -> &str {
                "cache"
            }
            fn around(&self, _call: Call, _next: Next<'_>) -> Result<Any, OrbError> {
                Ok(Any::Str("cached".into()))
            }
        }
        stub.set_mediator(Arc::new(Cache));
        let reply = stub.invoke("echo", &[Any::from("x")]).unwrap();
        let trace = reply.trace.as_ref().unwrap();
        // The ORB was never reached, so only client-side spans exist.
        assert!(trace.span("mediator:cache").is_some());
        assert!(trace.span("stub").is_some());
        assert!(trace.span("wire").is_none());
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn mediator_can_rewrite_target() {
        let net = Network::new(1);
        let s1 = Orb::start(&net, "s1");
        let s2 = Orb::start(&net, "s2");
        let client = Orb::start(&net, "client");
        struct Fixed(&'static str);
        impl Servant for Fixed {
            fn interface_id(&self) -> &str {
                "IDL:Fixed:1.0"
            }
            fn dispatch(&self, _op: &str, _args: &[Any]) -> Result<Any, OrbError> {
                Ok(Any::Str(self.0.to_string()))
            }
        }
        let ior1 = s1.activate("f", Box::new(Fixed("one")));
        let ior2 = s2.activate("f", Box::new(Fixed("two")));

        struct Redirect(Ior);
        impl Mediator for Redirect {
            fn characteristic(&self) -> &str {
                "redirect"
            }
            fn around(&self, mut call: Call, next: Next<'_>) -> Result<Any, OrbError> {
                call.target = self.0.clone();
                next(call)
            }
        }
        let stub = ClientStub::new(client.clone(), ior1);
        stub.set_mediator(Arc::new(Redirect(ior2)));
        assert_eq!(stub.invoke("get", &[]).unwrap(), Any::Str("two".into()));
        s1.shutdown();
        s2.shutdown();
        client.shutdown();
    }
}
