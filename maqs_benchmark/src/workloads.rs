//! The six workloads: what each one sets up, how its generator issues
//! calls, and how every output is checked.

use crate::gen;
use crate::taps::{Tap, TapLog, TapMediator, TapModule, TapQosImpl, TapServant};
use maqs::{MaqsNode, ServeOptions};
use netsim::{Network, NodeId};
use orb::giop::QosContext;
use orb::qos_binding::BindingKey;
use orb::{
    Any, Ior, Orb, OrbConfig, OrbError, PendingCall, QosModule, Servant, TcpTransport,
    UdsTransport, WireTransport,
};
use qosmech::actuality::{stamp_of, ActualityMediator, FreshnessStampQosImpl};
use qosmech::bandwidth::{BandwidthReservationModule, BANDWIDTH_MODULE};
use qosmech::compress::{CompressionModule, COMPRESSION_MODULE};
use qosmech::crypt::{EncryptionModule, ENCRYPTION_MODULE};
use services::{ContractHierarchy, ContractNode, Offer, TelemetryAggregator, TelemetryConfig};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use weaver::{ClientStub, QosImplementation, ResilienceMediator, ResiliencePolicy};

/// Which transport the ORB pair talks over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    Netsim,
    Tcp,
    Uds,
}

impl Wire {
    pub fn name(self) -> &'static str {
        match self {
            Wire::Netsim => "netsim",
            Wire::Tcp => "tcp",
            Wire::Uds => "uds",
        }
    }
}

/// How the generator offers load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `clients` closed-loop threads, one blocking call in flight each.
    Sync { clients: usize },
    /// One thread keeping `window` `invoke_async` calls in flight.
    Pipe { window: usize },
    /// Open loop: a seeded burst every millisecond, harvested by a
    /// second thread, latency counted from each call's due time.
    OpenBurst,
}

/// What a call carries and which layers it crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Untagged, empty arguments, plain GIOP path.
    Null,
    /// `MaqsNode` + `ClientStub`, negotiated Actuality, mediator chain,
    /// QoS-tagged through a bound bandwidth module, woven skeleton.
    Woven,
    /// 16 KiB payload through bound compression / encryption modules.
    Bulk,
}

/// One workload of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub wire: Wire,
    pub shape: Shape,
    pub flavor: Flavor,
    pub dispatch_threads: usize,
    /// Latency limit of `deadline_met_ratio`, µs.
    pub deadline_us: f64,
    /// A live `TelemetryAggregator` scrapes the server during windows.
    pub scraper: bool,
}

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "null_sync_netsim",
        why: "bare forwarding at the smallest message: orb.core/orb.giop fixed cost, nothing woven; the baseline row",
        wire: Wire::Netsim,
        shape: Shape::Sync { clients: 2 },
        flavor: Flavor::Null,
        dispatch_threads: 1,
        deadline_us: 500.0,
        scraper: false,
    },
    Spec {
        name: "woven_sync_netsim",
        why: "same loop through stub, mediators, bound QoS module and woven skeleton: minus the baseline = price of separation",
        wire: Wire::Netsim,
        shape: Shape::Sync { clients: 2 },
        flavor: Flavor::Woven,
        dispatch_threads: 1,
        deadline_us: 500.0,
        scraper: false,
    },
    Spec {
        name: "null_sync_tcp",
        why: "one closed-loop client on loopback TCP: the socket engine's thread handoffs dominate latency",
        wire: Wire::Tcp,
        shape: Shape::Sync { clients: 1 },
        flavor: Flavor::Null,
        dispatch_threads: 1,
        deadline_us: 1_000.0,
        scraper: false,
    },
    Spec {
        name: "null_pipe_tcp",
        why: "32 pipelined calls in flight on loopback TCP: throughput side of the socket engine (coalescing, batching)",
        wire: Wire::Tcp,
        shape: Shape::Pipe { window: 32 },
        flavor: Flavor::Null,
        dispatch_threads: 2,
        deadline_us: 5_000.0,
        scraper: false,
    },
    Spec {
        name: "bulk_qos_uds",
        why: "16 KiB calls through compression/encryption modules on a Unix socket: qosmech transforms and copies dominate",
        wire: Wire::Uds,
        shape: Shape::Sync { clients: 2 },
        flavor: Flavor::Bulk,
        dispatch_threads: 1,
        deadline_us: 2_000.0,
        scraper: false,
    },
    Spec {
        name: "open_burst_netsim",
        why: "open loop, bursts of 8-24 every 1 ms at ~15% load with live telemetry scrapes: burst-filled queues, latency from due time",
        wire: Wire::Netsim,
        shape: Shape::OpenBurst,
        flavor: Flavor::Null,
        dispatch_threads: 2,
        deadline_us: 2_000.0,
        scraper: true,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// Warm-up calls per client before every window; their time is part of
/// `setup_s`, so a faster system also sets up faster.
pub const WARMUP_CALLS: u64 = 2_000;
/// Every reply's shape is checked; one in this many is compared in full.
const FULL_CHECK_EVERY: u64 = 16;
/// Open-loop tick and scrape period.
const TICK: Duration = Duration::from_millis(1);
const SCRAPE_INTERVAL_MS: u64 = 10;
/// Longest the open-loop sender busy-waits before a due time.
const MAX_SPIN: Duration = Duration::from_micros(50);
/// The sender's sleep is set to end this long before a due time. On the
/// build box a sleep ends 5-40 us after its timer (longer when the vCPU
/// had halted); this margin takes that off the spin, not off the
/// schedule.
const SLEEP_EARLY: Duration = Duration::from_micros(45);

pub(crate) const WOVEN_SPEC: &str = "interface Feed with qos Actuality { any tick(); };";
const ENCRYPTION_KEY: u64 = 0x5EED_CAFE;
/// Far above anything the loop can offer, so admission meters every
/// frame and never rejects.
const RESERVED_BPS: u64 = 10_000_000_000;

/// `echo` returns its argument; the standard object of the null and
/// bulk workloads.
pub(crate) struct Echo;

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

/// `tick` returns a struct naming the object that answered, so the
/// check also proves the call reached the key it was sent to. A struct
/// because that is what the freshness epilog stamps.
pub(crate) struct Feed {
    pub key: u32,
}

impl Servant for Feed {
    fn interface_id(&self) -> &str {
        "IDL:Feed:1.0"
    }
    fn dispatch(&self, op: &str, _args: &[Any]) -> Result<Any, OrbError> {
        match op {
            "tick" => {
                Ok(Any::Struct("Tick".to_string(), vec![("key".to_string(), Any::ULong(self.key))]))
            }
            _ => Err(OrbError::BadOperation(op.to_string())),
        }
    }
}

/// Socket transports keep their concrete type so the harness can read
/// `frame_errors` and sample `outbox_depth`.
pub enum Sock {
    Tcp(Arc<TcpTransport>),
    Uds(Arc<UdsTransport>),
}

impl Sock {
    pub fn frame_errors(&self) -> u64 {
        match self {
            Sock::Tcp(t) => t.frame_errors(),
            Sock::Uds(t) => t.frame_errors(),
        }
    }
    pub fn outbox_frames(&self, peer: NodeId) -> usize {
        match self {
            Sock::Tcp(t) => t.outbox_depth(peer).0,
            Sock::Uds(t) => t.outbox_depth(peer).0,
        }
    }
    pub fn as_wire(&self) -> Arc<dyn WireTransport> {
        match self {
            Sock::Tcp(t) => Arc::clone(t) as Arc<dyn WireTransport>,
            Sock::Uds(t) => Arc::clone(t) as Arc<dyn WireTransport>,
        }
    }
}

/// A Unix socket leaves its path behind; remove it when the pair goes
/// away, including when set-up fails half-way.
impl Drop for Sock {
    fn drop(&mut self) {
        if let Sock::Uds(t) = self {
            if let orb::Endpoint::Uds(path) = t.local_endpoint() {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

/// How a call is made and checked for one flavor.
enum Caller {
    Null { client: Orb, iors: Vec<Ior> },
    Woven { stubs: Vec<ClientStub> },
    Bulk { client: Orb, iors: Vec<Ior>, payloads: Vec<Any>, contexts: [QosContext; 2] },
}

impl Caller {
    /// The object call `n` of a client goes to. Bulk calls alternate
    /// between the compression half and the encryption half of the keys.
    fn key(&self, order: &[usize], n: u64) -> usize {
        let k = order[n as usize % order.len()];
        match self {
            Caller::Bulk { .. } => k % (gen::KEYS / 2) + (n as usize % 2) * (gen::KEYS / 2),
            _ => k,
        }
    }

    fn call(&self, key: usize, n: u64) -> Result<Any, OrbError> {
        match self {
            Caller::Null { client, iors } => client.invoke(&iors[key], "echo", &[]),
            Caller::Woven { stubs } => stubs[key].invoke("tick", &[]).map(|reply| reply.value),
            Caller::Bulk { client, iors, payloads, contexts } => client.invoke_qos(
                &iors[key],
                "echo",
                std::slice::from_ref(&payloads[n as usize % payloads.len()]),
                Some(contexts[key / (gen::KEYS / 2)].clone()),
            ),
        }
    }

    /// Pipelined issue; only the null flavor is driven this way.
    fn issue(&self, key: usize) -> Result<PendingCall, OrbError> {
        match self {
            Caller::Null { client, iors } => client.invoke_async(&iors[key], "echo", &[], None),
            _ => Err(OrbError::BadOperation("pipelined issue is defined for null calls".into())),
        }
    }

    /// Is `reply` the right answer to call `n` on `key`? Length/shape on
    /// every reply, full contents on one in [`FULL_CHECK_EVERY`].
    fn check(&self, reply: &Any, key: usize, n: u64) -> bool {
        match self {
            Caller::Null { .. } => *reply == Any::Void,
            Caller::Woven { .. } => {
                stamp_of(reply).is_some()
                    && reply.field("key").and_then(Any::as_i64) == Some(key as i64)
            }
            Caller::Bulk { payloads, .. } => {
                let sent = payloads[n as usize % payloads.len()].as_bytes().unwrap_or(&[]);
                match reply.as_bytes() {
                    Some(got) if got.len() == sent.len() => {
                        !n.is_multiple_of(FULL_CHECK_EVERY) || got == sent
                    }
                    _ => false,
                }
            }
        }
    }
}

/// A started, warmed-up ORB pair with everything a window needs.
pub struct Rig {
    pub spec: &'static Spec,
    pub server: Orb,
    pub client: Orb,
    /// Keeps the simulator alive and gives exact message/byte counts.
    pub net: Option<Network>,
    /// `(server, client)` socket transports.
    pub socks: Option<(Sock, Sock)>,
    /// The woven flavor's nodes own its monitor, negotiation state and
    /// repository; they live as long as the pair.
    _nodes: Option<(MaqsNode, MaqsNode)>,
    caller: Caller,
    /// Key sequence per client thread.
    orders: [Vec<usize>; 2],
    bursts: Vec<u32>,
    scraper: Option<Arc<TelemetryAggregator>>,
    /// Server requests one scrape costs (measured at set-up; exact).
    pub requests_per_scrape: u64,
    /// Workload start → ready for the first measured call.
    pub setup_s: f64,
}

/// Bind nodes 1 and 2 on `wire`; Unix sockets go under `out_dir/sock`.
pub fn socket_pair(wire: Wire, out_dir: &Path, tag: &str) -> Result<(Sock, Sock), String> {
    match wire {
        Wire::Tcp => {
            let bind = |node| {
                TcpTransport::bind(NodeId(node), "127.0.0.1:0")
                    .map(|t| Sock::Tcp(Arc::new(t)))
                    .map_err(|e| format!("tcp bind: {e}"))
            };
            Ok((bind(1)?, bind(2)?))
        }
        Wire::Uds => {
            let dir = out_dir.join("sock");
            std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            let bind = |node: u32| {
                let path = dir.join(format!("{tag}-{node}.sock"));
                UdsTransport::bind(NodeId(node), &path.to_string_lossy())
                    .map(|t| Sock::Uds(Arc::new(t)))
                    .map_err(|e| format!("uds bind {}: {e}", path.display()))
            };
            Ok((bind(1)?, bind(2)?))
        }
        Wire::Netsim => Err("netsim has no socket pair".to_string()),
    }
}

/// Install `module` on `orb`, behind a tap when tracing.
fn install(orb: &Orb, module: Arc<dyn QosModule>, tap: Option<(&Arc<TapLog>, bool)>) {
    let module = match tap {
        None => module,
        Some((log, true)) => TapModule::server(module, log),
        Some((log, false)) => TapModule::client(module, log),
    };
    orb.qos_transport().install(module);
}

fn wrap_servant(servant: Arc<dyn Servant>, taps: Option<&Arc<TapLog>>) -> Arc<dyn Servant> {
    match taps {
        None => servant,
        Some(log) => Arc::new(TapServant { inner: servant, log: Arc::clone(log) }),
    }
}

impl Rig {
    /// Start the pair for `spec`, activate its objects, negotiate and
    /// bind what the flavor needs, and warm up. `taps` is `Some` only for
    /// the tapped window of the traced pass.
    ///
    /// # Errors
    ///
    /// A description of the step that failed.
    pub fn setup(
        spec: &'static Spec,
        seed: u64,
        out_dir: &Path,
        taps: Option<&Arc<TapLog>>,
    ) -> Result<Rig, String> {
        let started = Instant::now();
        let config = OrbConfig { dispatch_threads: spec.dispatch_threads, ..OrbConfig::default() };
        let key_names: Vec<String> = (0..gen::KEYS).map(|i| format!("obj{i:02}")).collect();
        let err = |what: &str, e: &dyn std::fmt::Display| format!("{}: {what}: {e}", spec.name);

        let mut net = None;
        let mut socks = None;
        let mut nodes = None;
        let (server, client, caller) = match spec.flavor {
            Flavor::Woven => {
                let network = Network::new(seed);
                let server_node = MaqsNode::builder(&network, "server")
                    .spec(WOVEN_SPEC)
                    .orb_config(config)
                    .build()
                    .map_err(|e| err("server node", &e))?;
                let client_node = MaqsNode::builder(&network, "client")
                    .build()
                    .map_err(|e| err("client node", &e))?;
                let (server, client) = (server_node.orb().clone(), client_node.orb().clone());
                let bandwidth = || {
                    Arc::new(BandwidthReservationModule::with_reservation(RESERVED_BPS))
                        as Arc<dyn QosModule>
                };
                install(&server, bandwidth(), taps.map(|l| (l, true)));
                install(&client, bandwidth(), taps.map(|l| (l, false)));
                let prefs = ContractHierarchy::new(
                    "fresh-feed",
                    ContractNode::Leaf(
                        Offer::new("Actuality", 1.0)
                            .with_param("validity_ms", Any::ULongLong(1000)),
                    ),
                );
                let mut stubs = Vec::with_capacity(gen::KEYS);
                for (i, key) in key_names.iter().enumerate() {
                    let stamp: Arc<dyn QosImplementation> = Arc::new(FreshnessStampQosImpl::new());
                    let qos_impl = match taps {
                        None => stamp,
                        Some(log) => Arc::new(TapQosImpl { inner: stamp, log: Arc::clone(log) }),
                    };
                    let servant = wrap_servant(Arc::new(Feed { key: i as u32 }), taps);
                    let ior = server_node
                        .serve(key, servant, ServeOptions::interface("Feed").qos_impl(qos_impl))
                        .map_err(|e| err("serve", &e))?;
                    let (agreements, _) = client_node
                        .negotiator()
                        .negotiate_preferences(server.node(), key, &prefs)
                        .map_err(|e| err("negotiate", &e))?;
                    let agreement =
                        agreements.first().ok_or_else(|| err("negotiate", &"no agreement"))?;
                    let stub = client_node.stub(&ior);
                    stub.push_mediator(Arc::new(
                        ResilienceMediator::new(ResiliencePolicy::from_params(&agreement.params))
                            .with_metrics(client.metrics().clone())
                            .with_flight(client.flight().clone()),
                    ));
                    // No cacheable operations: every call goes remote.
                    let actuality =
                        ActualityMediator::new(Duration::from_millis(1000), Vec::<String>::new());
                    actuality.set_metrics(Some(client.metrics().clone()));
                    stub.push_mediator(Arc::new(actuality));
                    if let Some(log) = taps {
                        stub.push_mediator_front(Arc::new(TapMediator { log: Arc::clone(log) }));
                    }
                    stub.set_qos_context(Some(agreement.to_context()));
                    client
                        .qos_transport()
                        .bind(BindingKey { peer: None, key: ior.key.clone() }, BANDWIDTH_MODULE)
                        .map_err(|e| err("bind", &e))?;
                    stubs.push(stub);
                }
                net = Some(network);
                nodes = Some((server_node, client_node));
                (server, client, Caller::Woven { stubs })
            }
            Flavor::Null | Flavor::Bulk => {
                let (server, client) = match spec.wire {
                    Wire::Netsim => {
                        let network = Network::new(seed);
                        let pair = (
                            Orb::start_with(&network, "server", config),
                            Orb::start(&network, "client"),
                        );
                        net = Some(network);
                        pair
                    }
                    wire => {
                        // Unique per pair: two pairs of one workload may be
                        // alive at once (control and tapped), and binding
                        // a Unix socket takes over an existing path.
                        static PAIRS: AtomicU64 = AtomicU64::new(0);
                        let tag = format!(
                            "{}-{}",
                            std::process::id(),
                            PAIRS.fetch_add(1, Ordering::Relaxed)
                        );
                        let (s, c) = socket_pair(wire, out_dir, &tag)?;
                        let pair = (
                            Orb::start_wire(s.as_wire(), "server", config),
                            Orb::start_wire(c.as_wire(), "client", OrbConfig::default()),
                        );
                        socks = Some((s, c));
                        pair
                    }
                };
                let tags: &[&str] =
                    if spec.flavor == Flavor::Bulk { &["Compression", "Encryption"] } else { &[] };
                let iors: Vec<Ior> = key_names
                    .iter()
                    .map(|key| {
                        server.adapter().activate(key.as_str(), wrap_servant(Arc::new(Echo), taps));
                        let mut ior = Ior::new("IDL:Echo:1.0", server.node(), key.as_str());
                        for tag in tags {
                            ior = ior.with_qos_tag(*tag);
                        }
                        server.attach_endpoint(ior)
                    })
                    .collect();
                let caller = if spec.flavor == Flavor::Bulk {
                    for (orb, is_server) in [(&server, true), (&client, false)] {
                        let compression = CompressionModule::new();
                        compression.set_metrics(Some(orb.metrics().clone()));
                        install(orb, Arc::new(compression), taps.map(|l| (l, is_server)));
                        install(
                            orb,
                            Arc::new(EncryptionModule::new(ENCRYPTION_KEY)),
                            taps.map(|l| (l, is_server)),
                        );
                    }
                    for (i, ior) in iors.iter().enumerate() {
                        let module =
                            if i < gen::KEYS / 2 { COMPRESSION_MODULE } else { ENCRYPTION_MODULE };
                        client
                            .qos_transport()
                            .bind(BindingKey { peer: None, key: ior.key.clone() }, module)
                            .map_err(|e| err("bind", &e))?;
                    }
                    Caller::Bulk {
                        client: client.clone(),
                        iors,
                        payloads: gen::bulk_payloads(seed).into_iter().map(Any::Bytes).collect(),
                        contexts: [QosContext::new("Compression"), QosContext::new("Encryption")],
                    }
                } else {
                    Caller::Null { client: client.clone(), iors }
                };
                (server, client, caller)
            }
        };

        let mut rig = Rig {
            spec,
            server,
            client,
            net,
            socks,
            _nodes: nodes,
            caller,
            orders: [gen::key_order(seed, 0), gen::key_order(seed, 1)],
            bursts: gen::burst_schedule(seed, 4096),
            scraper: None,
            requests_per_scrape: 0,
            setup_s: 0.0,
        };
        if spec.scraper {
            rig.start_telemetry().map_err(|e| err("telemetry", &e))?;
        }
        let clients = match spec.shape {
            Shape::Sync { clients } => clients,
            Shape::Pipe { .. } | Shape::OpenBurst => 1,
        };
        // One thread touches every key first, so connections are dialled
        // and caches filled before clients start concurrently.
        let primed = rig.run_sync(1, Until::Calls(gen::KEYS as u64), None);
        let mut warm = rig.run_sync(clients, Until::Calls(WARMUP_CALLS), None);
        warm.absorb(primed);
        if warm.failed > 0 {
            return Err(format!(
                "{}: {} of {} warm-up calls failed: {}",
                spec.name,
                warm.failed,
                warm.attempted,
                warm.errors.join("; ")
            ));
        }
        rig.setup_s = started.elapsed().as_secs_f64();
        Ok(rig)
    }

    /// Serve introspection on the server, point an aggregator at it and
    /// scrape once, which also measures what one scrape asks of the
    /// server.
    fn start_telemetry(&mut self) -> Result<(), String> {
        self.server.adapter().activate(
            services::INTROSPECTION_KEY,
            Arc::new(services::IntrospectionServant::new(self.server.clone())) as Arc<dyn Servant>,
        );
        let intro = self.server.attach_endpoint(Ior::new(
            services::introspection::INTROSPECTION_INTERFACE,
            self.server.node(),
            services::INTROSPECTION_KEY,
        ));
        self.client.register_endpoints(&intro).map_err(|e| e.to_string())?;
        let agg = Arc::new(TelemetryAggregator::new(
            self.client.clone(),
            TelemetryConfig {
                scrape_interval_ms: SCRAPE_INTERVAL_MS,
                ..TelemetryConfig::default()
            },
        ));
        agg.watch(self.server.node());
        let before = self.server.stats().requests_handled;
        agg.scrape_once();
        self.requests_per_scrape = self.server.stats().requests_handled - before;
        self.scraper = Some(agg);
        Ok(())
    }

    /// Shut both ORBs down (socket files go with `self`).
    pub fn teardown(self) -> bool {
        self.server.shutdown();
        self.client.shutdown();
        self.server.is_shut_down() && self.client.is_shut_down()
    }
}

// ---- generators --------------------------------------------------------

/// When a generator stops issuing.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Deadline(Instant),
    /// After this many calls per client (the open loop finishes the
    /// burst that reaches it).
    Calls(u64),
}

impl Until {
    pub fn seconds(s: f64) -> Until {
        Until::Deadline(Instant::now() + Duration::from_secs_f64(s))
    }

    fn reached(self, now: Instant, calls: u64) -> bool {
        match self {
            Until::Deadline(d) => now >= d,
            Until::Calls(max) => calls >= max,
        }
    }
}

/// What one generator run produced.
#[derive(Debug, Default)]
pub struct Samples {
    /// Latency of every verified-successful call, ns (unsorted).
    pub lat_ns: Vec<u64>,
    /// Open loop: how late each burst started vs. its due time, ns.
    pub lag_ns: Vec<u64>,
    pub attempted: u64,
    /// Calls that errored, timed out or returned a wrong value.
    pub failed: u64,
    /// First few failure descriptions, for the report.
    pub errors: Vec<String>,
}

impl Samples {
    fn absorb(&mut self, other: Samples) {
        self.lat_ns.extend(other.lat_ns);
        self.lag_ns.extend(other.lag_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(8);
    }

    fn record(&mut self, ok: Result<bool, OrbError>, lat_ns: u64, what: impl Fn() -> String) {
        self.attempted += 1;
        match ok {
            Ok(true) => self.lat_ns.push(lat_ns),
            Ok(false) => self.fail(format!("{}: wrong reply", what())),
            Err(e) => self.fail(format!("{}: {e}", what())),
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }
}

impl Rig {
    /// The workload's own generator.
    pub fn run_shape(&self, until: Until) -> Samples {
        match self.spec.shape {
            Shape::Sync { clients } => self.run_sync(clients, until, None),
            Shape::Pipe { window } => self.run_pipe(window, until),
            Shape::OpenBurst => self.run_open(until),
        }
    }

    /// One synchronous client for `seconds`, stamping `CallStart` /
    /// `Return` into `taps` when tracing.
    pub fn run_single(&self, seconds: f64, taps: Option<&Arc<TapLog>>) -> Samples {
        self.run_sync(1, Until::seconds(seconds), taps)
    }

    /// Closed loop: each client issues its next call when the previous
    /// blocking call has returned; completion is stamped at that return.
    fn run_sync(&self, clients: usize, until: Until, taps: Option<&Arc<TapLog>>) -> Samples {
        let barrier = Barrier::new(clients);
        let mut total = Samples::default();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..clients)
                .map(|c| {
                    let (caller, order, barrier) = (&self.caller, &self.orders[c % 2], &barrier);
                    scope.spawn(move || {
                        let mut out = Samples::default();
                        out.lat_ns.reserve(1 << 16);
                        barrier.wait();
                        let mut n = 0u64;
                        loop {
                            let key = caller.key(order, n);
                            let t0 = Instant::now();
                            if let Some(log) = taps {
                                log.mark_at(Tap::CallStart, t0);
                            }
                            let reply = caller.call(key, n);
                            let t1 = Instant::now();
                            if let Some(log) = taps {
                                log.mark_at(Tap::Return, t1);
                            }
                            let ok = reply.map(|r| caller.check(&r, key, n));
                            out.record(ok, (t1 - t0).as_nanos() as u64, || {
                                format!("client {c} call {n} key {key}")
                            });
                            n += 1;
                            if until.reached(t1, n) {
                                return out;
                            }
                        }
                    })
                })
                .collect();
            for w in workers {
                total.absorb(w.join().expect("client thread panicked"));
            }
        });
        total
    }

    /// Pipelined closed loop: wait on the oldest call, then refill.
    fn run_pipe(&self, window: usize, until: Until) -> Samples {
        let (caller, order) = (&self.caller, &self.orders[0]);
        let mut out = Samples::default();
        out.lat_ns.reserve(1 << 18);
        let mut inflight: VecDeque<(PendingCall, Instant, usize, u64)> =
            VecDeque::with_capacity(window);
        let mut n = 0u64;
        let harvest =
            |out: &mut Samples, (call, t0, key, n): (PendingCall, Instant, usize, u64)| {
                let reply = call.wait();
                let t1 = Instant::now();
                let ok = reply.map(|r| caller.check(&r, key, n));
                out.record(ok, (t1 - t0).as_nanos() as u64, || {
                    format!("pipelined call {n} key {key}")
                });
            };
        while !until.reached(Instant::now(), n) {
            if inflight.len() == window {
                let oldest = inflight.pop_front().expect("window is full");
                harvest(&mut out, oldest);
            }
            let key = caller.key(order, n);
            let t0 = Instant::now();
            match caller.issue(key) {
                Ok(call) => inflight.push_back((call, t0, key, n)),
                Err(e) => {
                    out.attempted += 1;
                    out.fail(format!("issue {n} key {key}: {e}"));
                }
            }
            n += 1;
        }
        for entry in inflight {
            harvest(&mut out, entry);
        }
        out
    }

    /// Open loop: the sender issues each tick's burst when it is due no
    /// matter how the system copes (it preempts the system's threads,
    /// see `place`); this thread harvests replies in issue order. Latency runs
    /// from the due time to the return of `wait`, so a stall is charged
    /// to every call it delays.
    fn run_open(&self, until: Until) -> Samples {
        let (caller, order, bursts) = (&self.caller, &self.orders[0], &self.bursts);
        let (tx, rx) = mpsc::channel::<(PendingCall, Instant, usize, u64)>();
        std::thread::scope(|scope| {
            let sender = scope.spawn(move || {
                crate::place::become_generator();
                let mut out = Samples::default();
                out.lag_ns.reserve(1 << 14);
                let start = Instant::now();
                let mut n = 0u64;
                for tick in 0u32.. {
                    let due = start + TICK * tick;
                    if until.reached(due, n) {
                        break;
                    }
                    wait_until(due);
                    let lag = Instant::now().saturating_duration_since(due);
                    out.lag_ns.push(lag.as_nanos() as u64);
                    for _ in 0..bursts[tick as usize % bursts.len()] {
                        let key = caller.key(order, n);
                        match caller.issue(key) {
                            // The harvester hangs up only after `tx` is gone.
                            Ok(call) => tx.send((call, due, key, n)).expect("harvester is alive"),
                            Err(e) => {
                                out.attempted += 1;
                                out.fail(format!("issue {n} key {key}: {e}"));
                            }
                        }
                        n += 1;
                    }
                }
                out
            });
            let mut out = Samples::default();
            out.lat_ns.reserve(1 << 18);
            for (call, due, key, n) in rx {
                let reply = call.wait();
                let done = Instant::now();
                let ok = reply.map(|r| caller.check(&r, key, n));
                out.record(ok, done.saturating_duration_since(due).as_nanos() as u64, || {
                    format!("open-loop call {n} key {key}")
                });
            }
            out.absorb(sender.join().expect("sender panicked"));
            out
        })
    }
}

/// Sleep until [`SLEEP_EARLY`] before `due`, then busy-wait the rest,
/// never for longer than [`MAX_SPIN`]: whoever wakes with more than the
/// spin budget left sleeps again.
fn wait_until(due: Instant) {
    loop {
        let left = due.saturating_duration_since(Instant::now());
        if left <= MAX_SPIN {
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            return;
        }
        std::thread::sleep(left - SLEEP_EARLY);
    }
}

// ---- windows and verification ------------------------------------------

/// Counter readings taken before and after a window.
#[derive(Debug, Clone, Copy)]
struct Counters {
    handled: u64,
    matched: u64,
    orphaned: u64,
    dropped: u64,
    scrapes: u64,
    frame_errors: u64,
}

impl Rig {
    fn counters(&self) -> Counters {
        let (srv, cli) = (self.server.stats(), self.client.stats());
        Counters {
            handled: srv.requests_handled,
            matched: cli.replies_matched,
            orphaned: srv.replies_orphaned + cli.replies_orphaned,
            dropped: srv.packets_dropped + cli.packets_dropped,
            scrapes: match self.scraper {
                Some(_) => self.client.metrics().snapshot().counter("telemetry.scrapes"),
                None => 0,
            },
            frame_errors: self
                .socks
                .as_ref()
                .map_or(0, |(s, c)| s.frame_errors() + c.frame_errors()),
        }
    }
}

/// One measured window.
#[derive(Debug)]
pub struct Window {
    pub samples: Samples,
    pub elapsed_s: f64,
    pub cpu_us: f64,
    /// Breaches of the end-of-window invariants (empty = verified).
    pub breaches: Vec<String>,
}

impl Window {
    /// Calls that failed plus invariants that broke.
    pub fn failed(&self) -> u64 {
        self.samples.failed + self.breaches.len() as u64
    }

    /// Everything that went wrong, each prefixed with `label`.
    pub fn problems<'a>(&'a self, label: &'a str) -> impl Iterator<Item = String> + 'a {
        self.breaches.iter().chain(&self.samples.errors).map(move |p| format!("{label}: {p}"))
    }
}

impl Rig {
    /// Run `generate` as one window: scrape driver (if the workload has
    /// one) started after the baseline counters and joined before the
    /// final ones, CPU time and wall time around the generator, and the
    /// end-of-window invariants checked.
    pub fn window(&self, generate: impl FnOnce(&Rig) -> Samples) -> Window {
        let before = self.counters();
        let driver = self.scraper.as_ref().map(|agg| agg.start());
        let cpu0 = crate::sysinfo::process_cpu_us();
        let t0 = Instant::now();
        let samples = generate(self);
        let elapsed_s = t0.elapsed().as_secs_f64();
        let cpu_us = crate::sysinfo::process_cpu_us() - cpu0;
        drop(driver);
        let after = self.counters();

        let scrapes = after.scrapes - before.scrapes;
        let expected = samples.attempted + scrapes * self.requests_per_scrape;
        let mut breaches = Vec::new();
        let mut expect = |what: &str, got: u64, want: u64| {
            if got != want {
                breaches.push(format!("{what}: {got}, expected {want}"));
            }
        };
        expect("server requests_handled delta", after.handled - before.handled, expected);
        expect("client replies_matched delta", after.matched - before.matched, expected);
        expect("replies_orphaned", after.orphaned - before.orphaned, 0);
        expect("packets_dropped", after.dropped - before.dropped, 0);
        expect("wire frame_errors", after.frame_errors - before.frame_errors, 0);
        Window { samples, elapsed_s, cpu_us, breaches }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique_and_findable() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
            assert_eq!(find(w.name).map(|s| s.name), Some(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn wait_until_reaches_the_due_time() {
        for us in [0, 10, 120, 700] {
            let due = Instant::now() + Duration::from_micros(us);
            wait_until(due);
            assert!(Instant::now() >= due);
        }
    }

    /// Every workload sets up, answers correctly and passes its
    /// end-of-window invariants for a short window; the traced variant
    /// yields only well-formed calls.
    #[test]
    fn every_workload_runs_verified() {
        let out = std::env::temp_dir().join(format!("maqs-bench-test-{}", std::process::id()));
        for spec in &WORKLOADS {
            let rig = Rig::setup(spec, 1, &out, None).expect("setup");
            let w = rig.window(|r| r.run_shape(Until::seconds(0.15)));
            assert!(w.breaches.is_empty(), "{}: {:?}", spec.name, w.breaches);
            assert_eq!(w.samples.failed, 0, "{}: {:?}", spec.name, w.samples.errors);
            assert!(w.samples.attempted > 10, "{}", spec.name);
            assert!(rig.teardown());

            let log = TapLog::new(1 << 16);
            let rig = Rig::setup(spec, 1, &out, Some(&log)).expect("traced setup");
            log.reset();
            let w = rig.window(|r| r.run_single(0.1, Some(&log)));
            assert!(w.breaches.is_empty() && w.samples.failed == 0, "{}", spec.name);
            let (calls, malformed) = crate::taps::split_calls(&log.drain(), spec.flavor);
            assert_eq!(malformed, 0, "{}", spec.name);
            assert_eq!(calls.len() as u64, w.samples.attempted, "{}", spec.name);
            rig.teardown();
        }
        let left: Vec<_> = std::fs::read_dir(out.join("sock")).expect("sock dir").collect();
        assert!(left.is_empty(), "socket files left behind: {left:?}");
        let _ = std::fs::remove_dir_all(out);
    }

    /// Two pairs of one Unix-socket workload alive at once, as the
    /// control and the tapped pair of the traced pass are: each has its
    /// own socket paths, and one going away leaves the other working.
    #[test]
    fn two_unix_socket_pairs_coexist() {
        let out = std::env::temp_dir().join(format!("maqs-bench-pairs-{}", std::process::id()));
        let spec = find("bulk_qos_uds").expect("workload");
        let verified = |rig: &Rig| {
            let w = rig.window(|r| r.run_shape(Until::Calls(40)));
            assert!(w.breaches.is_empty(), "{:?}", w.breaches);
            assert_eq!((w.samples.attempted, w.samples.failed), (80, 0), "{:?}", w.samples.errors);
        };
        let a = Rig::setup(spec, 1, &out, None).expect("first pair");
        let b = Rig::setup(spec, 1, &out, None).expect("second pair");
        let socket_files = || std::fs::read_dir(out.join("sock")).expect("sock dir").count();
        assert_eq!(socket_files(), 4);
        verified(&a);
        verified(&b);
        verified(&a);
        assert!(a.teardown());
        assert_eq!(socket_files(), 2);
        verified(&b);
        assert!(b.teardown());
        assert_eq!(socket_files(), 0);
        let _ = std::fs::remove_dir_all(out);
    }
}
