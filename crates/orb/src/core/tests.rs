use super::pending::PENDING_SHARDS;
use super::*;
use crate::any::Any;
use crate::giop::{
    self, CommandTarget, GiopMessage, GiopPeek, QosContext, RequestKind, RequestMessage,
};
use crate::qos_binding::{Outbound, QosModule};
use crate::trace::TraceContext;
use std::time::Instant;

struct Echo;
impl Servant for Echo {
    fn interface_id(&self) -> &str {
        "IDL:Echo:1.0"
    }
    fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
        match op {
            "echo" => Ok(args.first().cloned().unwrap_or(Any::Void)),
            "fail" => Err(OrbError::UserException("boom".to_string())),
            _ => Err(OrbError::BadOperation(op.to_string())),
        }
    }
}

fn pair() -> (Network, Orb, Orb, Ior) {
    let net = Network::new(1);
    let server = Orb::start(&net, "server");
    let client = Orb::start(&net, "client");
    let ior = server.activate("echo", Box::new(Echo));
    (net, server, client, ior)
}

#[test]
fn remote_roundtrip() {
    let (_net, server, client, ior) = pair();
    let r = client.invoke(&ior, "echo", &[Any::from("hi")]).unwrap();
    assert_eq!(r, Any::Str("hi".into()));
    assert_eq!(server.stats().requests_handled, 1);
    assert_eq!(client.stats().replies_matched, 1);
    server.shutdown();
    client.shutdown();
}

#[test]
fn remote_exception_propagates() {
    let (_net, server, client, ior) = pair();
    let err = client.invoke(&ior, "fail", &[]).unwrap_err();
    assert_eq!(err, OrbError::UserException("boom".into()));
    let err = client.invoke(&ior, "nope", &[]).unwrap_err();
    assert!(matches!(err, OrbError::BadOperation(_)));
    server.shutdown();
    client.shutdown();
}

#[test]
fn unknown_object() {
    let (_net, server, client, _) = pair();
    let bogus = Ior::new("IDL:X:1.0", server.node(), "ghost");
    assert!(matches!(client.invoke(&bogus, "x", &[]), Err(OrbError::ObjectNotExist(_))));
    server.shutdown();
    client.shutdown();
}

#[test]
fn collocated_shortcut_counts() {
    let (_net, server, _client, ior) = pair();
    let r = server.invoke(&ior, "echo", &[Any::Long(1)]).unwrap();
    assert_eq!(r, Any::Long(1));
    assert_eq!(server.stats().collocated_calls, 1);
    server.shutdown();
}

#[test]
fn collocated_without_shortcut_goes_over_wire() {
    let net = Network::new(1);
    let cfg = OrbConfig { collocated_shortcut: false, ..OrbConfig::default() };
    let orb = Orb::start_with(&net, "solo", cfg);
    let ior = orb.activate("echo", Box::new(Echo));
    let r = orb.invoke(&ior, "echo", &[Any::Long(2)]).unwrap();
    assert_eq!(r, Any::Long(2));
    assert_eq!(orb.stats().collocated_calls, 0);
    assert_eq!(orb.stats().requests_handled, 1);
    orb.shutdown();
}

#[test]
fn oneway_does_not_wait() {
    let (_net, server, client, ior) = pair();
    client.invoke_oneway(&ior, "echo", &[Any::Long(3)], None).unwrap();
    // Give the server a moment, then check it processed the request.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(server.stats().requests_handled, 1);
    server.shutdown();
    client.shutdown();
}

#[test]
fn timeout_on_crashed_server() {
    let net = Network::new(1);
    let server = Orb::start(&net, "server");
    let client = Orb::start_with(
        &net,
        "client",
        OrbConfig { request_timeout: Duration::from_millis(100), ..OrbConfig::default() },
    );
    let ior = server.activate("echo", Box::new(Echo));
    net.crash(server.node());
    let err = client.invoke(&ior, "echo", &[Any::Void]).unwrap_err();
    assert!(matches!(err, OrbError::Timeout(_)));
    server.shutdown();
    client.shutdown();
}

#[test]
fn remote_transport_command() {
    let (_net, server, client, _ior) = pair();
    let mods = client
        .send_command(server.node(), CommandTarget::Transport, "list_modules", &[])
        .unwrap();
    assert_eq!(mods, Any::Sequence(vec![]));
    server.shutdown();
    client.shutdown();
}

#[test]
fn pseudo_object_reachable_remotely() {
    let (_net, server, client, _ior) = pair();
    struct Answer;
    impl Servant for Answer {
        fn interface_id(&self) -> &str {
            "IDL:Pseudo/Answer:1.0"
        }
        fn dispatch(&self, op: &str, _args: &[Any]) -> Result<Any, OrbError> {
            match op {
                "get" => Ok(Any::Long(42)),
                other => Err(OrbError::BadOperation(other.to_string())),
            }
        }
    }
    server.pseudo_objects().register("Answer", Arc::new(Answer));
    let ior = Ior::new("IDL:Pseudo/Answer:1.0", server.node(), "pseudo:Answer");
    assert_eq!(client.invoke(&ior, "get", &[]).unwrap(), Any::Long(42));
    server.shutdown();
    client.shutdown();
}

/// Module that reverses the body bytes — detectable if only one side runs.
struct Mirror;
impl QosModule for Mirror {
    fn name(&self) -> &str {
        "mirror"
    }
    fn command(&self, op: &str, _args: &[Any]) -> Result<Any, OrbError> {
        Err(OrbError::BadOperation(op.to_string()))
    }
    fn outbound(&self, dst: NodeId, mut bytes: Vec<u8>) -> Result<Outbound, OrbError> {
        bytes.reverse();
        Ok(vec![(dst, bytes)])
    }
    fn inbound<'a>(
        &self,
        _src: NodeId,
        bytes: &'a [u8],
    ) -> Result<Option<std::borrow::Cow<'a, [u8]>>, OrbError> {
        let mut bytes = bytes.to_vec();
        bytes.reverse();
        Ok(Some(std::borrow::Cow::Owned(bytes)))
    }
}

#[test]
fn qos_bound_traffic_goes_through_module_both_ways() {
    let (_net, server, client, ior) = pair();
    client.qos_transport().install(Arc::new(Mirror));
    server.qos_transport().install(Arc::new(Mirror));
    client
        .qos_transport()
        .bind(crate::qos_binding::BindingKey { peer: None, key: ior.key.clone() }, "mirror")
        .unwrap();
    let qos = Some(QosContext::new("mirror"));
    let r = client.invoke_qos(&ior, "echo", &[Any::from("qos!")], qos).unwrap();
    assert_eq!(r, Any::Str("qos!".into()));
    server.shutdown();
    client.shutdown();
}

#[test]
fn qos_aware_but_unbound_falls_back_to_plain() {
    let (_net, server, client, ior) = pair();
    let qos = Some(QosContext::new("anything"));
    let r = client.invoke_qos(&ior, "echo", &[Any::Long(7)], qos).unwrap();
    assert_eq!(r, Any::Long(7));
    server.shutdown();
    client.shutdown();
}

#[test]
fn invoke_collect_gathers_single_reply() {
    let (_net, server, client, ior) = pair();
    let replies = client
        .invoke_collect(&ior, "echo", &[Any::Long(5)], None, 1, Duration::from_secs(1))
        .unwrap();
    assert_eq!(replies.len(), 1);
    assert_eq!(replies[0].0, server.node());
    assert_eq!(replies[0].1, Ok(Any::Long(5)));
    server.shutdown();
    client.shutdown();
}

#[test]
fn probes_do_not_move_request_counters() {
    let (_net, server, client, ior) = pair();
    let replies = client.probe_collect(&ior, Duration::from_secs(1)).unwrap();
    assert_eq!(replies[0].1, Ok(Any::Bool(false)), "_non_existent answers false");
    // Probe traffic lands in its own counter family on both ends...
    assert_eq!(client.metrics().snapshot().counter("orb.probe.requests_sent"), 1);
    assert_eq!(server.metrics().snapshot().counter("orb.probe.requests_handled"), 1);
    // ...and the request-path counters availability is computed from
    // stay untouched.
    assert_eq!(client.metrics().snapshot().counter("orb.requests_sent"), 0);
    assert_eq!(server.metrics().snapshot().counter("orb.requests_handled"), 0);
    assert!(server.metrics().snapshot().histogram("orb.dispatch_us").is_none());
    assert_eq!(server.stats().requests_handled, 0);
    // A real call afterwards moves only the request-path family.
    client.invoke(&ior, "echo", &[Any::Long(1)]).unwrap();
    assert_eq!(client.metrics().snapshot().counter("orb.requests_sent"), 1);
    assert_eq!(client.metrics().snapshot().counter("orb.probe.requests_sent"), 1);
    server.shutdown();
    client.shutdown();
}

#[test]
fn traced_remote_call_carries_one_trace_id_and_layer_spans() {
    let (_net, server, client, ior) = pair();
    let ctx = TraceContext::new(client.node());
    let want_id = ctx.trace_id;
    let (value, trace) =
        client.invoke_traced(&ior, "echo", &[Any::from("t")], None, Some(ctx)).unwrap();
    assert_eq!(value, Any::Str("t".into()));
    let trace = trace.expect("traced call returns a context");
    assert_eq!(trace.trace_id, want_id);
    for layer in ["wire", "adapter", "orb.server", "wire.reply", "orb.client"] {
        assert!(trace.span(layer).is_some(), "missing span {layer}: {trace:?}");
    }
    // Metrics recorded on both sides.
    assert_eq!(client.metrics().snapshot().counter("orb.requests_sent"), 1);
    assert_eq!(server.metrics().snapshot().counter("orb.requests_handled"), 1);
    assert!(server.metrics().snapshot().histogram("orb.dispatch_us").is_some());
    server.shutdown();
    client.shutdown();
}

#[test]
fn traced_collocated_call_records_adapter_span() {
    let (_net, server, _client, ior) = pair();
    let ctx = TraceContext::new(server.node());
    let (_, trace) =
        server.invoke_traced(&ior, "echo", &[Any::Long(1)], None, Some(ctx)).unwrap();
    let trace = trace.unwrap();
    assert!(trace.span("adapter").is_some());
    assert!(trace.span("wire").is_none(), "no wire leg on the shortcut");
    assert_eq!(server.metrics().snapshot().counter("orb.collocated_calls"), 1);
    server.shutdown();
}

#[test]
fn untraced_calls_return_no_context() {
    let (_net, server, client, ior) = pair();
    let (_, trace) = client.invoke_traced(&ior, "echo", &[Any::Long(2)], None, None).unwrap();
    assert!(trace.is_none());
    server.shutdown();
    client.shutdown();
}

#[test]
fn shutdown_rejects_new_calls() {
    let (_net, server, client, ior) = pair();
    client.shutdown();
    assert_eq!(client.invoke(&ior, "echo", &[]), Err(OrbError::Shutdown));
    server.shutdown();
}

#[test]
fn garbage_packets_are_counted_not_fatal() {
    let (net, server, client, ior) = pair();
    let raw = net.attach("attacker");
    raw.send(server.node(), vec![1, 2, 3]).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(server.stats().packets_dropped, 1);
    // Server still works.
    assert_eq!(client.invoke(&ior, "echo", &[Any::Long(1)]).unwrap(), Any::Long(1));
    server.shutdown();
    client.shutdown();
}

#[test]
fn pending_table_is_sharded_enough() {
    // The contention-relief claim in DESIGN §6d rests on this floor.
    assert!(PENDING_SHARDS >= 8, "pending table must keep at least 8 shards");
}

/// A servant whose `slow` op outlives the client timeout, so the
/// reply arrives after the caller gave up and unregistered.
struct Sluggish;
impl Servant for Sluggish {
    fn interface_id(&self) -> &str {
        "IDL:Sluggish:1.0"
    }
    fn dispatch(&self, op: &str, _args: &[Any]) -> Result<Any, OrbError> {
        match op {
            "slow" => {
                std::thread::sleep(Duration::from_millis(150));
                Ok(Any::Long(9))
            }
            "fast" => Ok(Any::Long(1)),
            other => Err(OrbError::BadOperation(other.to_string())),
        }
    }
}

#[test]
fn late_reply_is_orphaned_never_misdelivered() {
    let net = Network::new(1);
    // Two dispatchers so the follow-up call is served *while* the
    // slow one is still sleeping — the stale reply then lands after
    // the caller's slot has been re-armed for a newer request. Key
    // affinity would (correctly) serialize two calls on one key, so
    // the calls target two objects whose keys hash to different
    // dispatchers.
    let server = Orb::start_with(
        &net,
        "server",
        OrbConfig { dispatch_threads: 2, ..OrbConfig::default() },
    );
    let client = Orb::start_with(
        &net,
        "client",
        OrbConfig { request_timeout: Duration::from_millis(50), ..OrbConfig::default() },
    );
    let slow_ior = server.activate("slug0", Box::new(Sluggish));
    let fast_ior = server.activate("slug1", Box::new(Sluggish));
    let shard = |ior: &Ior| {
        let request = RequestMessage {
            request_id: 0,
            reply_to: NodeId(0),
            object_key: ior.key.clone(),
            operation: String::new(),
            args: Vec::new(),
            response_expected: true,
            kind: RequestKind::ServiceRequest,
            qos: None,
            contexts: Vec::new(),
        };
        match giop::peek(&GiopMessage::Request(request).to_bytes()) {
            Ok(GiopPeek::Request { key_hash }) => key_hash % 2,
            other => panic!("request peeked as {other:?}"),
        }
    };
    assert_ne!(shard(&slow_ior), shard(&fast_ior), "keys must land on different dispatchers");
    // Times out while the servant is still sleeping…
    let err = client.invoke(&slow_ior, "slow", &[]).unwrap_err();
    assert!(matches!(err, OrbError::Timeout(_)));
    // …and the very next call reuses the same thread's reply slot.
    // If the armed-id guard or the shard unregister were broken, the
    // late Long(9) reply could leak into this call's rendezvous.
    let r = client.invoke(&fast_ior, "fast", &[]).unwrap();
    assert_eq!(r, Any::Long(1));
    // Wait for the stale reply to land, then check the invariant:
    // every reply received is either matched or orphaned.
    std::thread::sleep(Duration::from_millis(300));
    let s = client.stats();
    assert_eq!(s.replies_matched, 1, "only the fast call was delivered");
    assert_eq!(s.replies_orphaned, 1, "the late slow reply was orphaned");
    let snap = client.metrics().snapshot();
    assert_eq!(snap.counter("orb.replies_matched"), s.replies_matched);
    assert_eq!(snap.counter("orb.replies_orphaned"), s.replies_orphaned);
    server.shutdown();
    client.shutdown();
}

#[test]
fn invoke_async_pipelines_many_calls_from_one_thread() {
    let net = Network::new(1);
    let server = Orb::start_with(
        &net,
        "server",
        OrbConfig { dispatch_threads: 4, ..OrbConfig::default() },
    );
    let client = Orb::start(&net, "client");
    let ior = server.activate("echo", Box::new(Echo));
    // One thread, 40 calls in flight at once through the pending
    // table, harvested in issue order.
    let pending: Vec<PendingCall> = (0..40)
        .map(|i| client.invoke_async(&ior, "echo", &[Any::Long(i)], None).unwrap())
        .collect();
    let ids: Vec<u64> = pending.iter().map(PendingCall::request_id).collect();
    assert_eq!(ids.len(), 40);
    for (i, call) in pending.into_iter().enumerate() {
        assert_eq!(call.wait().unwrap(), Any::Long(i as i32));
    }
    let s = client.stats();
    assert_eq!(s.replies_matched, 40);
    assert_eq!(s.replies_orphaned, 0);
    assert_eq!(server.stats().requests_handled, 40);
    server.shutdown();
    client.shutdown();
}

#[test]
fn dropped_pending_call_orphans_its_reply() {
    let (_net, server, client, ior) = pair();
    // Issue and abandon: the handle's Drop unregisters the request,
    // so the reply must be orphaned — and the *next* call on this
    // thread must be unaffected (private slots never alias the
    // pooled per-thread slot).
    let call = client.invoke_async(&ior, "echo", &[Any::Long(1)], None).unwrap();
    drop(call);
    let r = client.invoke(&ior, "echo", &[Any::Long(2)]).unwrap();
    assert_eq!(r, Any::Long(2));
    let deadline = Instant::now() + Duration::from_secs(2);
    while client.stats().replies_orphaned < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let s = client.stats();
    assert_eq!(s.replies_orphaned, 1, "abandoned call's reply is orphaned");
    assert_eq!(s.replies_matched, 1, "only the live call was delivered");
    server.shutdown();
    client.shutdown();
}

#[test]
fn trace_sampling_period_gates_trace_sampled() {
    let net = Network::new(1);
    let every4 = Orb::start_with(
        &net,
        "every4",
        OrbConfig { trace_sample_every: 4, ..OrbConfig::default() },
    );
    let hits = (0..8).filter(|_| every4.trace_sampled()).count();
    assert_eq!(hits, 2, "period 4 samples 2 of 8");
    let never = Orb::start_with(
        &net,
        "never",
        OrbConfig { trace_sample_every: 0, ..OrbConfig::default() },
    );
    assert!(!never.trace_sampled());
    let always = Orb::start(&net, "always");
    assert!((0..5).all(|_| always.trace_sampled()), "default samples everything");
    every4.shutdown();
    never.shutdown();
    always.shutdown();
}

#[test]
fn flight_recorder_logs_unsampled_calls_matching_metrics() {
    use crate::flight::FlightEventKind as K;
    let net = Network::new(1);
    let server = Orb::start(&net, "server");
    let client = Orb::start_with(
        &net,
        "client",
        OrbConfig { trace_sample_every: 3, ..OrbConfig::default() },
    );
    let ior = server.activate("echo", Box::new(Echo));
    for i in 0..9 {
        // The stub-side sampling protocol: mint a context only when
        // the ORB says this call is sampled.
        let trace = client.trace_sampled().then(|| TraceContext::new(client.node()));
        client.invoke_traced(&ior, "echo", &[Any::Long(i)], None, trace).unwrap();
    }
    // Recorder counts match the metrics counters exactly: sampling
    // gates tracing, never recording.
    let snap = client.metrics().snapshot();
    assert_eq!(client.flight().count(K::RequestSent), snap.counter("orb.requests_sent"));
    assert_eq!(client.flight().count(K::RequestSent), 9);
    assert_eq!(server.flight().count(K::RequestDispatched), 9);
    // Reply matching is recorded on the receive loop; give it a beat.
    let deadline = Instant::now() + Duration::from_secs(2);
    while client.flight().count(K::ReplyMatched) < 9 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(client.flight().count(K::ReplyMatched), 9);
    // Period 3 over 9 calls: 3 sampled (with trace ids), 6 without.
    let sent: Vec<_> = client
        .flight()
        .snapshot()
        .into_iter()
        .filter(|e| e.kind == K::RequestSent)
        .collect();
    assert_eq!(sent.iter().filter(|e| e.trace_id.is_some()).count(), 3);
    assert_eq!(sent.iter().filter(|e| e.trace_id.is_none()).count(), 6);
    server.shutdown();
    client.shutdown();
}

#[test]
fn nested_outbound_call_from_servant() {
    // A forwarding servant that calls another object during dispatch;
    // requires the dispatcher pool to be distinct from the recv loop.
    let net = Network::new(1);
    let backend = Orb::start(&net, "backend");
    let front = Orb::start(&net, "front");
    let client = Orb::start(&net, "client");
    let backend_ior = backend.activate("echo", Box::new(Echo));

    struct Forwarder {
        orb: Orb,
        target: Ior,
    }
    impl Servant for Forwarder {
        fn interface_id(&self) -> &str {
            "IDL:Forwarder:1.0"
        }
        fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
            self.orb.invoke(&self.target, op, args)
        }
    }
    let fw_ior = front.activate(
        "fw",
        Box::new(Forwarder { orb: front.clone(), target: backend_ior }),
    );
    let r = client.invoke(&fw_ior, "echo", &[Any::from("deep")]).unwrap();
    assert_eq!(r, Any::Str("deep".into()));
    backend.shutdown();
    front.shutdown();
    client.shutdown();
}

#[test]
fn pending_table_is_empty_after_every_exit_path() {
    let net = Network::new(1);
    let server = Orb::start(&net, "server");
    let crashed = Orb::start(&net, "crashed");
    let client = Orb::start_with(
        &net,
        "client",
        OrbConfig { request_timeout: Duration::from_millis(50), ..OrbConfig::default() },
    );
    let ior = server.activate("echo", Box::new(Echo));
    let dead = crashed.activate("echo", Box::new(Echo));
    net.crash(crashed.node());
    let nowhere = Ior::new("IDL:Echo:1.0", NodeId(99), "echo");
    let settled = |path: &str| assert_eq!(client.pending_len(), 0, "{path} left an entry behind");

    assert_eq!(client.invoke(&ior, "echo", &[Any::Long(1)]), Ok(Any::Long(1)));
    settled("success");
    assert!(matches!(client.invoke(&ior, "fail", &[]), Err(OrbError::UserException(_))));
    settled("remote exception");
    assert!(matches!(client.invoke(&nowhere, "echo", &[]), Err(OrbError::CommFailure(_))));
    assert!(client.invoke_async(&nowhere, "echo", &[], None).is_err());
    settled("send error to an unregistered peer");
    assert!(matches!(client.invoke(&dead, "echo", &[]), Err(OrbError::Timeout(_))));
    settled("timeout on a crashed server");
    let abandoned = client.invoke_async(&dead, "echo", &[], None).unwrap();
    let harvested = client.invoke_async(&dead, "echo", &[], None).unwrap();
    assert_eq!(client.pending_len(), 2, "in-flight calls are what the table holds");
    drop(abandoned);
    assert!(matches!(harvested.wait(), Err(OrbError::Timeout(_))));
    settled("dropped and timed-out PendingCall");
    let none = client.invoke_collect(&dead, "echo", &[], None, 1, Duration::from_millis(50));
    assert!(matches!(none, Err(OrbError::Timeout(_))));
    settled("invoke_collect with zero replies");
    let unanswered =
        client.send_command(crashed.node(), CommandTarget::Transport, "list_modules", &[]);
    assert!(matches!(unanswered, Err(OrbError::Timeout(_))));
    settled("send_command timeout");
    for orb in [server, crashed, client] {
        orb.shutdown();
    }
}
