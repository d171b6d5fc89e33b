//! Per-layer micro-probes: single-threaded timings of calls into each
//! module's public functions, with fixed iteration counts. Each probe
//! reports the median of several block means, so one preempted block
//! does not move it. Module names are the layer names.

use crate::gen;
use crate::metrics::{put, Values};
use crate::stats::median;
use crate::workloads::{socket_pair, Echo, Feed, Wire, WOVEN_SPEC};
use bytes::Bytes;
use maqs::{MaqsNode, ServeOptions};
use netsim::{Network, NodeId};
use orb::adapter::ObjectAdapter;
use orb::giop::{self, GiopMessage, Packet, QosContext, ReplyMessage, RequestKind, RequestMessage};
use orb::qos_binding::BindingKey;
use orb::{
    Any, FlightEventKind, MetricsRegistry, NetSimTransport, ObjectKey, Orb, OrbError, QosModule,
    Servant, TraceContext, WireTransport,
};
use qosmech::actuality::FreshnessStampQosImpl;
use qosmech::bandwidth::BandwidthReservationModule;
use services::{Monitor, Offer, TelemetryAggregator, TelemetryConfig};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use weaver::{
    Call, ClientStub, Mediator, Next, QosImplementation, ResilienceMediator, ResiliencePolicy,
    WovenServant,
};

const BLOCKS: usize = 5;

/// Mean nanoseconds per call of `f`: one warm-up block, then the median
/// of [`BLOCKS`] block means of `iters` calls each.
fn bench_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut block = || {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        t0.elapsed().as_nanos() as f64 / iters as f64
    };
    block();
    let means: Vec<f64> = (0..BLOCKS).map(|_| block()).collect();
    median(&means)
}

fn null_request() -> RequestMessage {
    RequestMessage {
        request_id: 7,
        reply_to: NodeId(2),
        object_key: ObjectKey("obj07".to_string()),
        operation: "echo".to_string(),
        args: Vec::new(),
        response_expected: true,
        kind: RequestKind::ServiceRequest,
        qos: None,
        contexts: Vec::new(),
    }
}

/// Identity transform module: isolates the cost of the QoS dispatch
/// path from the cost of any transform.
struct Identity;

impl QosModule for Identity {
    fn name(&self) -> &str {
        "identity"
    }
    fn command(&self, op: &str, _args: &[Any]) -> Result<Any, OrbError> {
        Err(OrbError::BadOperation(op.to_string()))
    }
}

/// A mediator that only forwards: the cost of one chain hop.
struct PassThrough;

impl Mediator for PassThrough {
    fn characteristic(&self) -> &str {
        "pass"
    }
    fn around(&self, call: Call, next: Next<'_>) -> Result<Any, OrbError> {
        next(call)
    }
}

fn cdr_and_giop(out: &mut Values) {
    let bulk = Any::Bytes(gen::payload(gen::BULK_LEN, 0.9, 1));
    let null_bytes = Any::Void.to_bytes();
    let bulk_bytes = bulk.to_bytes();
    put(out, "orb.cdr.encode_null_ns", bench_ns(100_000, || drop(black_box(Any::Void.to_bytes()))));
    put(
        out,
        "orb.cdr.decode_null_ns",
        bench_ns(100_000, || drop(black_box(Any::from_bytes(black_box(&null_bytes))))),
    );
    put(out, "orb.cdr.encode_16k_ns", bench_ns(2_000, || drop(black_box(bulk.to_bytes()))));
    put(
        out,
        "orb.cdr.decode_16k_ns",
        bench_ns(2_000, || drop(black_box(Any::from_bytes(black_box(&bulk_bytes))))),
    );

    let request = null_request();
    let reply = ReplyMessage::from_result(7, NodeId(1), Ok(Any::Void));
    let body = GiopMessage::encode_request(&request);
    let frame = Bytes::from(giop::frame_plain_request(&request));
    put(
        out,
        "orb.giop.frame_request_ns",
        bench_ns(50_000, || drop(black_box(giop::frame_plain_request(black_box(&request))))),
    );
    put(
        out,
        "orb.giop.frame_reply_ns",
        bench_ns(50_000, || drop(black_box(giop::frame_plain_reply(black_box(&reply))))),
    );
    put(
        out,
        "orb.giop.peek_ns",
        bench_ns(200_000, || drop(black_box(giop::peek(black_box(&body))))),
    );
    put(
        out,
        "orb.giop.decode_request_ns",
        bench_ns(50_000, || drop(black_box(GiopMessage::from_bytes(black_box(&body))))),
    );
    put(
        out,
        "orb.giop.frame_qos_ns",
        bench_ns(50_000, || drop(black_box(giop::frame_qos("bandwidth", black_box(&body))))),
    );
    put(
        out,
        "orb.giop.packet_decode_view_ns",
        bench_ns(200_000, || drop(black_box(Packet::decode_view(black_box(&frame))))),
    );

    let adapter = ObjectAdapter::new();
    for i in 0..gen::KEYS {
        adapter.activate(format!("obj{i:02}"), Arc::new(Echo) as Arc<dyn Servant>);
    }
    let key = ObjectKey("obj07".to_string());
    put(
        out,
        "orb.adapter.dispatch_ns",
        bench_ns(100_000, || drop(black_box(adapter.dispatch(&key, "echo", &[])))),
    );
}

fn observability(out: &mut Values) {
    let registry = MetricsRegistry::new();
    put(
        out,
        "orb.metrics.observe_ns",
        bench_ns(200_000, || registry.observe_us("probe.latency_us", 42)),
    );
    put(out, "orb.metrics.incr_ns", bench_ns(200_000, || registry.incr("probe.count")));
    let flight = orb::FlightRecorder::new("probe", orb::OrbConfig::default().flight_capacity);
    put(
        out,
        "orb.flight.record_ns",
        bench_ns(200_000, || flight.record(FlightEventKind::RequestSent, "orb.client", None)),
    );
    // The span set a woven call accumulates by the time it returns.
    let mut ctx = TraceContext::new(NodeId(2));
    for layer in [
        "wire",
        "adapter",
        "qos.prolog",
        "servant",
        "qos.epilog",
        "orb.server",
        "wire.reply",
        "orb.client",
    ] {
        ctx.push(layer, "server", 17);
    }
    put(
        out,
        "orb.trace.context_codec_ns",
        bench_ns(20_000, || drop(black_box(TraceContext::from_bytes(&black_box(&ctx).to_bytes())))),
    );
}

/// A collocated ORB: the cheapest complete invocation path, the base
/// the stub and mediator costs are read against.
fn core_and_weaver(out: &mut Values) -> Result<(), String> {
    let net = Network::new(1);
    let solo = Orb::start(&net, "solo");
    let ior = solo.activate("echo", Box::new(Echo));
    let invoke_ns = bench_ns(20_000, || drop(black_box(solo.invoke(&ior, "echo", &[]))));
    put(out, "orb.core.collocated_invoke_ns", invoke_ns);

    let stub = ClientStub::new(solo.clone(), ior.clone());
    let chain_ns =
        |stub: &ClientStub| bench_ns(20_000, || drop(black_box(stub.invoke("echo", &[]))));
    let depth0 = chain_ns(&stub);
    for _ in 0..4 {
        stub.push_mediator(Arc::new(PassThrough));
    }
    let depth4 = chain_ns(&stub);
    stub.clear_mediators();
    stub.push_mediator(Arc::new(ResilienceMediator::new(ResiliencePolicy::default())));
    let resilient = chain_ns(&stub);
    put(out, "weaver.stub_invoke_ns", depth0 - invoke_ns);
    put(out, "weaver.mediator_hop_ns", (depth4 - depth0) / 4.0);
    put(out, "weaver.resilience_hop_ns", resilient - depth0);
    solo.shutdown();

    let mut repo = qosmech::specs::standard_repository();
    let tokens = qidl::lexer::lex(WOVEN_SPEC).map_err(|e| format!("woven spec: {e}"))?;
    let spec = qidl::parser::parse(&tokens).map_err(|e| format!("woven spec: {e}"))?;
    repo.load(&spec).map_err(|e| format!("woven spec: {e}"))?;
    let woven = WovenServant::new(Arc::new(Feed { key: 0 }), Arc::new(repo), "Feed");
    let dispatch_ns =
        |w: &WovenServant| bench_ns(50_000, || drop(black_box(w.dispatch("tick", &[]))));
    put(out, "weaver.skeleton_bare_ns", dispatch_ns(&woven));
    woven
        .install_qos(Arc::new(FreshnessStampQosImpl::new()))
        .and_then(|()| woven.negotiate("Actuality"))
        .map_err(|e| format!("negotiate: {e}"))?;
    put(out, "weaver.skeleton_woven_ns", dispatch_ns(&woven));
    put(
        out,
        "weaver.delegate_exchange_ns",
        bench_ns(50_000, || drop(black_box(woven.negotiate("Actuality")))),
    );
    Ok(())
}

/// A netsim ORB pair: what only a remote call exercises.
fn remote_pair(out: &mut Values) -> Result<(), String> {
    let net = Network::new(1);
    let server = Orb::start(&net, "server");
    let client = Orb::start(&net, "client");
    let plain = server.activate("plain", Box::new(Echo));
    let tagged = server.activate("tagged", Box::new(Echo));
    for orb in [&server, &client] {
        orb.qos_transport().install(Arc::new(Identity));
    }
    client
        .qos_transport()
        .bind(BindingKey { peer: None, key: tagged.key.clone() }, "identity")
        .map_err(|e| e.to_string())?;
    let ctx = QosContext::new("identity");
    for _ in 0..500 {
        client.invoke(&plain, "echo", &[]).map_err(|e| e.to_string())?;
        client.invoke_qos(&tagged, "echo", &[], Some(ctx.clone())).map_err(|e| e.to_string())?;
    }

    // Interleaved blocks, so drift in the box's load hits both sides.
    let (mut plain_us, mut tagged_us) = (Vec::new(), Vec::new());
    for _ in 0..8 {
        let t0 = Instant::now();
        for _ in 0..250 {
            drop(black_box(client.invoke(&plain, "echo", &[])));
        }
        plain_us.push(t0.elapsed().as_secs_f64() * 1e6 / 250.0);
        let t0 = Instant::now();
        for _ in 0..250 {
            drop(black_box(client.invoke_qos(&tagged, "echo", &[], Some(ctx.clone()))));
        }
        tagged_us.push(t0.elapsed().as_secs_f64() * 1e6 / 250.0);
    }
    put(out, "orb.qos_binding.tagged_minus_plain_us", median(&tagged_us) - median(&plain_us));
    let transport = client.qos_transport();
    put(
        out,
        "orb.qos_binding.bound_module_ns",
        bench_ns(200_000, || drop(black_box(transport.bound_module(server.node(), &tagged.key)))),
    );
    put(
        out,
        "orb.qos_binding.module_lookup_ns",
        bench_ns(200_000, || drop(black_box(transport.module("identity")))),
    );

    let mut issue_us = Vec::with_capacity(2_000);
    for _ in 0..2_000 {
        let t0 = Instant::now();
        let call = client.invoke_async(&plain, "echo", &[], None).map_err(|e| e.to_string())?;
        issue_us.push(t0.elapsed().as_nanos() as f64 / 1_000.0);
        call.wait().map_err(|e| e.to_string())?;
    }
    put(out, "orb.core.async_issue_us", median(&issue_us));

    // The telemetry plane against a registry that has seen real traffic.
    server.adapter().activate(
        services::INTROSPECTION_KEY,
        Arc::new(services::IntrospectionServant::new(server.clone())) as Arc<dyn Servant>,
    );
    let agg = TelemetryAggregator::new(
        client.clone(),
        TelemetryConfig { scrape_interval_ms: 0, ..TelemetryConfig::default() },
    );
    agg.watch(server.node());
    agg.scrape_once();
    let handled = server.stats().requests_handled;
    let mut scrape_us = Vec::with_capacity(20);
    for _ in 0..20 {
        let t0 = Instant::now();
        agg.scrape_once();
        scrape_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    put(out, "services.telemetry.scrape_us", median(&scrape_us));
    put(
        out,
        "services.telemetry.requests_per_scrape",
        (server.stats().requests_handled - handled) as f64 / 20.0,
    );
    let snapshot = server.metrics().snapshot();
    put(
        out,
        "services.introspection.metrics_reply_bytes",
        orb::export::snapshot_to_any(&snapshot).to_bytes().len() as f64,
    );
    put(
        out,
        "orb.metrics.snapshot_us",
        bench_ns(500, || drop(black_box(server.metrics().snapshot()))) / 1_000.0,
    );
    put(
        out,
        "orb.export.prometheus_render_us",
        bench_ns(200, || drop(black_box(orb::export::prometheus_text(&snapshot)))) / 1_000.0,
    );
    server.shutdown();
    client.shutdown();
    Ok(())
}

/// Raw transport pairs, no ORB: two threads ping-pong `send`/`recv`,
/// then one streams frames at the other.
fn wire_pair(
    out: &mut Values,
    name: &str,
    a: &Arc<dyn WireTransport>,
    b: &Arc<dyn WireTransport>,
    sizes: &[(usize, &str)],
    stream: bool,
) -> Result<(), String> {
    const ROUNDS: usize = 3_000;
    const STREAM_FRAMES: usize = 30_000;
    a.register_peer(b.node(), &[b.local_endpoint()]).map_err(|e| e.to_string())?;
    let recv_data = |t: &Arc<dyn WireTransport>| loop {
        match t.recv() {
            Ok(f) if f.payload.is_empty() => continue,
            other => return other,
        }
    };
    std::thread::scope(|scope| -> Result<(), String> {
        // The peer echoes every frame until a 1-byte frame tells it the
        // ping-pong is over; it then counts the streamed frames.
        let echo = scope.spawn(|| -> Result<Option<Instant>, String> {
            loop {
                let f = recv_data(b).map_err(|e| e.to_string())?;
                if f.payload.len() == 1 {
                    break;
                }
                b.send(f.src, f.payload.to_vec()).map_err(|e| e.to_string())?;
            }
            if !stream {
                return Ok(None);
            }
            for _ in 0..STREAM_FRAMES {
                recv_data(b).map_err(|e| e.to_string())?;
            }
            Ok(Some(Instant::now()))
        });
        for &(len, suffix) in sizes {
            let payload = vec![0xA5u8; len];
            let (mut rtt_us, mut send_ns) =
                (Vec::with_capacity(ROUNDS), Vec::with_capacity(ROUNDS));
            for i in 0..ROUNDS + 200 {
                let frame = payload.clone();
                let t0 = Instant::now();
                a.send(b.node(), frame).map_err(|e| e.to_string())?;
                let sent = t0.elapsed();
                recv_data(a).map_err(|e| e.to_string())?;
                if i >= 200 {
                    rtt_us.push(t0.elapsed().as_nanos() as f64 / 1_000.0);
                    send_ns.push(sent.as_nanos() as f64);
                }
            }
            put(out, &format!("orb.wire.{name}_rtt{suffix}_us"), median(&rtt_us));
            if name == "tcp" && suffix.is_empty() {
                put(out, "orb.wire.tcp_send_call_ns", median(&send_ns));
            }
        }
        a.send(b.node(), vec![0]).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        if stream {
            for _ in 0..STREAM_FRAMES {
                a.send(b.node(), vec![0xA5; 64]).map_err(|e| e.to_string())?;
            }
        }
        let done = echo.join().map_err(|_| "wire echo thread panicked".to_string())??;
        if let Some(done) = done {
            put(
                out,
                &format!("orb.wire.{name}_stream_frames_per_s"),
                STREAM_FRAMES as f64 / (done - t0).as_secs_f64(),
            );
        }
        Ok(())
    })?;
    a.shutdown();
    b.shutdown();
    Ok(())
}

fn wire(out: &mut Values, out_dir: &Path) -> Result<(), String> {
    let net = Network::new(1);
    let sim = |name| Arc::new(NetSimTransport::new(net.attach(name))) as Arc<dyn WireTransport>;
    wire_pair(out, "netsim", &sim("a"), &sim("b"), &[(64, "")], false)?;
    for wire in [Wire::Tcp, Wire::Uds] {
        let tag = format!("{}-probe", std::process::id());
        let (a, b) = socket_pair(wire, out_dir, &tag)?;
        let sizes = [(64, ""), (gen::BULK_LEN, "_16k")];
        wire_pair(out, wire.name(), &a.as_wire(), &b.as_wire(), &sizes, true)?;
    }
    Ok(())
}

fn mechanisms(out: &mut Values, seed: u64) {
    use qosmech::compress::codec;
    use qosmech::crypt;
    let payload = gen::payload(gen::BULK_LEN, 0.9, seed);
    let mib = payload.len() as f64 / (1024.0 * 1024.0);
    let mib_s = |ns_per_call: f64| mib / (ns_per_call / 1e9);
    let packed = codec::compress(&payload);
    let sealed = crypt::seal(7, 1, &payload);
    put(
        out,
        "qosmech.compress.compress_mib_s",
        mib_s(bench_ns(300, || drop(black_box(codec::compress(black_box(&payload)))))),
    );
    put(
        out,
        "qosmech.compress.decompress_mib_s",
        mib_s(bench_ns(1_000, || drop(black_box(codec::decompress(black_box(&packed)))))),
    );
    put(out, "qosmech.compress.ratio", packed.len() as f64 / payload.len() as f64);
    put(
        out,
        "qosmech.crypt.seal_mib_s",
        mib_s(bench_ns(1_000, || drop(black_box(crypt::seal(7, 1, black_box(&payload)))))),
    );
    put(
        out,
        "qosmech.crypt.open_mib_s",
        mib_s(bench_ns(1_000, || drop(black_box(crypt::open(7, black_box(&sealed)))))),
    );

    // The epilog appends to the reply it is given, so each call needs a
    // fresh reply; the cost of making one is measured and subtracted.
    let stamp = FreshnessStampQosImpl::new();
    let reply = Feed { key: 0 }.dispatch("tick", &[]);
    let fresh = bench_ns(100_000, || drop(black_box(reply.clone())));
    let stamped = bench_ns(100_000, || {
        let mut r = reply.clone();
        stamp.epilog("tick", &[], &mut r);
        drop(black_box(r));
    });
    put(out, "qosmech.actuality.epilog_ns", stamped - fresh);

    let bandwidth = BandwidthReservationModule::with_reservation(u64::MAX / 2);
    let mut frame = vec![0u8; 128];
    put(
        out,
        "qosmech.bandwidth.outbound_ns",
        bench_ns(100_000, || {
            let mut outs =
                bandwidth.outbound(NodeId(1), std::mem::take(&mut frame)).expect("admitted");
            frame = outs.pop().expect("one destination").1;
        }),
    );

    let monitor = Monitor::new(64);
    put(
        out,
        "services.monitoring.record_ns",
        bench_ns(100_000, || drop(black_box(monitor.record("obj07", "latency_us", 42.0)))),
    );
}

/// Set-up costs: QIDL compile, node build, serve, negotiate, shutdown.
fn setup_costs(out: &mut Values) -> Result<(), String> {
    const TICKER: &str = include_str!("../../crates/maqs/src/demo/ticker.qidl");
    let compile_ns = bench_ns(20, || {
        let spec = qidl::compile(black_box(TICKER)).expect("ticker.qidl compiles");
        drop(black_box(qidl::codegen::generate(&spec)));
    });
    put(out, "qidl.compile_ticker_us", compile_ns / 1_000.0);

    let net = Network::new(1);
    let (mut build_ms, mut shutdown_ms, mut serve_us) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..8 {
        let t0 = Instant::now();
        let node = MaqsNode::builder(&net, &format!("probe{i}"))
            .spec(WOVEN_SPEC)
            .build()
            .map_err(|e| format!("node build: {e}"))?;
        build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        for k in 0..8 {
            let stamp: Arc<dyn QosImplementation> = Arc::new(FreshnessStampQosImpl::new());
            let t0 = Instant::now();
            node.serve(
                &format!("obj{k:02}"),
                Arc::new(Feed { key: k }),
                ServeOptions::interface("Feed").qos_impl(stamp),
            )
            .map_err(|e| format!("serve: {e}"))?;
            serve_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        let t0 = Instant::now();
        node.shutdown();
        shutdown_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    put(out, "maqs.node_build_ms", median(&build_ms));
    put(out, "maqs.serve_us", median(&serve_us));
    put(out, "maqs.shutdown_ms", median(&shutdown_ms));

    let server = MaqsNode::builder(&net, "server")
        .spec(WOVEN_SPEC)
        .build()
        .map_err(|e| format!("node build: {e}"))?;
    let client =
        MaqsNode::builder(&net, "client").build().map_err(|e| format!("node build: {e}"))?;
    server
        .serve(
            "feed",
            Arc::new(Feed { key: 0 }),
            ServeOptions::interface("Feed").qos_impl(Arc::new(FreshnessStampQosImpl::new())),
        )
        .map_err(|e| format!("serve: {e}"))?;
    let negotiator = client.negotiator();
    let offer = Offer::new("Actuality", 1.0).with_param("validity_ms", Any::ULongLong(1000));
    let mut negotiate_us = Vec::with_capacity(60);
    for _ in 0..60 {
        let t0 = Instant::now();
        let agreement = negotiator
            .negotiate_offer(server.orb().node(), "feed", &offer)
            .map_err(|e| format!("negotiate: {e}"))?;
        negotiate_us.push(t0.elapsed().as_secs_f64() * 1e6);
        negotiator.release(server.orb().node(), &agreement).map_err(|e| format!("release: {e}"))?;
    }
    put(out, "services.negotiation.negotiate_us", median(&negotiate_us));
    server.shutdown();
    client.shutdown();
    Ok(())
}

/// Run every micro-probe.
///
/// # Errors
///
/// The first probe that could not set up or whose calls failed.
pub fn run_all(seed: u64, out_dir: &Path) -> Result<Values, String> {
    let mut out = Values::new();
    cdr_and_giop(&mut out);
    observability(&mut out);
    core_and_weaver(&mut out)?;
    remote_pair(&mut out)?;
    wire(&mut out, out_dir)?;
    mechanisms(&mut out, seed);
    setup_costs(&mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    #[test]
    fn probes_produce_only_declared_metrics_once_each() {
        let out_dir =
            std::env::temp_dir().join(format!("maqs-bench-probes-{}", std::process::id()));
        let values = run_all(1, &out_dir).expect("probes run");
        let _ = std::fs::remove_dir_all(out_dir);
        for (i, (name, v)) in values.iter().enumerate() {
            assert!(PER_LAYER.iter().any(|m| m.name == name), "undeclared probe {name}");
            assert!(values[i + 1..].iter().all(|(n, _)| n != name), "duplicate probe {name}");
            assert!(v.is_finite(), "{name} = {v}");
        }
        let exact = |name: &str| crate::metrics::value(&values, name).expect(name);
        assert_eq!(exact("services.telemetry.requests_per_scrape"), 5.0);
        assert!(exact("qosmech.compress.ratio") < 0.5);
    }
}
