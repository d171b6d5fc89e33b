//! The ORB core: request brokering and the Fig. 3 invocation interface.
//!
//! Each [`Orb`] owns one [`WireTransport`] (its "host" — the
//! deterministic simulator by default, real sockets via
//! [`Orb::start_wire`]), an object adapter, a QoS binding layer, and a
//! pseudo-object registry. A background **receive loop** reads framed
//! packets off the wire; requests are queued to
//! a small dispatcher pool (so a servant may itself make outbound calls
//! without deadlocking the loop), replies are correlated back to waiting
//! callers.
//!
//! The send path implements the client half of Fig. 3:
//!
//! 1. collocated QoS-unaware requests short-circuit straight into the
//!    local adapter (a standard ORB optimization, kept measurable for
//!    experiment E1);
//! 2. if the binding (peer, object) is assigned to a QoS module, the
//!    module's outbound transform produces the wire messages, framed as
//!    [`Packet::Qos`];
//! 3. otherwise the request travels as plain GIOP ([`Packet::Plain`]) —
//!    including *commands* and not-yet-negotiated QoS traffic, which is
//!    exactly how the paper bootstraps negotiation.
//!
//! The receive path implements the server half: plain packets go straight
//! to GIOP decoding; QoS packets first run the named module's inbound
//! transform (which may swallow duplicates); commands are routed to the
//! QoS transport or the named module; pseudo-object keys (`pseudo:NAME`)
//! hit the local registry; everything else is adapter dispatch.

mod client;
mod dispatch;
mod pending;
mod recv;
#[cfg(test)]
mod tests;

pub use pending::PendingCall;

use crate::adapter::{ObjectAdapter, Servant};
use crate::error::OrbError;
use crate::flight::{FlightEventKind, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
use crate::ior::{Ior, ObjectKey};
use crate::metrics::MetricsRegistry;
use crate::pseudo::PseudoObjectRegistry;
use crate::qos_binding::QosTransport;
use crate::wire::{Endpoint, NetSimTransport, WireTransport};
use crossbeam::channel::{unbounded, Sender};
use dispatch::DispatchCmd;
use netsim::{NetHandle, Network, NodeId};
use pending::PendingTable;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Prefix marking object keys that resolve in the pseudo-object registry.
pub const PSEUDO_KEY_PREFIX: &str = "pseudo:";

/// Tuning knobs for an [`Orb`].
#[derive(Debug, Clone)]
pub struct OrbConfig {
    /// Wall-clock timeout for synchronous invocations.
    pub request_timeout: Duration,
    /// Short-circuit collocated QoS-unaware calls into the local adapter.
    pub collocated_shortcut: bool,
    /// Number of dispatcher threads executing incoming requests. Each
    /// dispatcher owns a private queue; the receive loop routes into
    /// them by a stable hash of the object key, so dispatchers never
    /// contend on a shared work channel, all calls on one key stay
    /// ordered on one dispatcher, and distinct keys spread across the
    /// pool.
    pub dispatch_threads: usize,
    /// Trace-sampling period consulted by [`Orb::trace_sampled`]: attach
    /// a [`TraceContext`] to every `n`-th request. `1` (the default)
    /// traces everything, `0` traces nothing. Metrics are unconditional
    /// either way; only the per-request trace decode/encode and span
    /// pushes are skipped on unsampled requests.
    pub trace_sample_every: u32,
    /// Capacity of the ORB's [`FlightRecorder`] ring (events retained).
    /// `0` disables retention; cumulative event counts still accrue.
    pub flight_capacity: usize,
}

impl Default for OrbConfig {
    fn default() -> OrbConfig {
        OrbConfig {
            request_timeout: Duration::from_secs(5),
            collocated_shortcut: true,
            dispatch_threads: 1,
            trace_sample_every: 1,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
        }
    }
}

/// Counters exposed by [`Orb::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrbStats {
    /// Requests dispatched by this ORB (as a server).
    pub requests_handled: u64,
    /// Replies delivered to local callers.
    pub replies_matched: u64,
    /// Replies that arrived for no waiting caller (e.g. fan-out extras).
    pub replies_orphaned: u64,
    /// Packets dropped because they could not be decoded or un-wrapped.
    pub packets_dropped: u64,
    /// Requests answered via the collocated shortcut.
    pub collocated_calls: u64,
}

/// Lock-free counters behind [`Orb::stats`]. Each counter is
/// independently monotone and `stats()` reads a relaxed snapshot,
/// which is all the cross-counter invariants rely on.
#[derive(Default)]
struct StatCells {
    requests_handled: AtomicU64,
    replies_matched: AtomicU64,
    replies_orphaned: AtomicU64,
    packets_dropped: AtomicU64,
    collocated_calls: AtomicU64,
}

impl StatCells {
    fn snapshot(&self) -> OrbStats {
        OrbStats {
            requests_handled: self.requests_handled.load(Ordering::Relaxed),
            replies_matched: self.replies_matched.load(Ordering::Relaxed),
            replies_orphaned: self.replies_orphaned.load(Ordering::Relaxed),
            packets_dropped: self.packets_dropped.load(Ordering::Relaxed),
            collocated_calls: self.collocated_calls.load(Ordering::Relaxed),
        }
    }
}

/// A request-lifecycle event the ORB counts. Each one is stated here
/// once and [`OrbInner::note`]d at its join point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A call answered via the collocated shortcut.
    CollocatedCall,
    /// A service request put on the wire.
    RequestSent,
    /// A liveness probe put on the wire.
    ProbeSent,
    /// A packet that could not be decoded or un-wrapped.
    PacketDropped,
    /// A reply delivered to its waiting caller.
    ReplyMatched,
    /// A reply nobody was waiting for any more.
    ReplyOrphaned,
    /// A service request executed by a dispatcher.
    RequestDispatched,
    /// A liveness probe executed by a dispatcher.
    ProbeHandled,
}

struct OrbInner {
    wire: Arc<dyn WireTransport>,
    /// The simulator handle when the wire is netsim-backed (virtual
    /// clock access, chaos hooks); `None` for socket-backed ORBs.
    sim: Option<NetHandle>,
    node: NodeId,
    name: String,
    adapter: ObjectAdapter,
    transport: QosTransport,
    pseudo: PseudoObjectRegistry,
    pending: PendingTable,
    next_request: AtomicU64,
    config: OrbConfig,
    shutdown: AtomicBool,
    stats: StatCells,
    trace_counter: AtomicU64,
    metrics: MetricsRegistry,
    flight: FlightRecorder,
    /// One private queue per dispatcher thread (sharded delivery): the
    /// receive loop is the only sender, so each channel is effectively
    /// SPSC and dispatchers never contend with each other for work.
    dispatch_tx: Vec<Sender<DispatchCmd>>,
}

impl OrbInner {
    /// The event ledger: count one lifecycle [`Event`] everywhere it is
    /// accounted — its [`OrbStats`] cell (sends and probes have none),
    /// its `orb.*` counter, its flight-recorder kind and layer. Probe
    /// events keep their own `orb.probe.*` family so availability math
    /// over `orb.requests_*` only sees application calls.
    fn note(&self, event: Event, trace_id: Option<u64>) {
        use FlightEventKind as K;
        let stats = &self.stats;
        let (stat, counter, kind, layer) = match event {
            Event::CollocatedCall => {
                (Some(&stats.collocated_calls), "orb.collocated_calls", K::CollocatedCall, "orb.client")
            }
            Event::RequestSent => (None, "orb.requests_sent", K::RequestSent, "orb.client"),
            Event::ProbeSent => (None, "orb.probe.requests_sent", K::ProbeSent, "orb.client"),
            Event::PacketDropped => {
                (Some(&stats.packets_dropped), "orb.packets_dropped", K::PacketDropped, "wire")
            }
            Event::ReplyMatched => {
                (Some(&stats.replies_matched), "orb.replies_matched", K::ReplyMatched, "orb.client")
            }
            Event::ReplyOrphaned => {
                (Some(&stats.replies_orphaned), "orb.replies_orphaned", K::ReplyOrphaned, "orb.client")
            }
            Event::RequestDispatched => {
                (Some(&stats.requests_handled), "orb.requests_handled", K::RequestDispatched, "orb.server")
            }
            Event::ProbeHandled => {
                (None, "orb.probe.requests_handled", K::ProbeHandled, "orb.server")
            }
        };
        if let Some(cell) = stat {
            cell.fetch_add(1, Ordering::Relaxed);
        }
        self.metrics.incr(counter);
        self.flight.record(kind, layer, trace_id);
    }
}

/// An object request broker bound to one simulated network node.
///
/// Cloning shares the same broker. Dropping the last clone does *not*
/// stop the background threads; call [`Orb::shutdown`] for a clean stop.
#[derive(Clone)]
pub struct Orb {
    inner: Arc<OrbInner>,
}

impl fmt::Debug for Orb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Orb")
            .field("node", &self.inner.node)
            .field("name", &self.inner.name)
            .finish()
    }
}

impl Orb {
    /// Start an ORB on a fresh node of `net` with default configuration.
    pub fn start(net: &Network, name: &str) -> Orb {
        Orb::start_with(net, name, OrbConfig::default())
    }

    /// Start an ORB with explicit configuration.
    pub fn start_with(net: &Network, name: &str, config: OrbConfig) -> Orb {
        let handle = net.attach(name);
        let flight = FlightRecorder::new(handle.name(), config.flight_capacity);
        // Land fault-script ticks in this node's black box, so a chaos
        // dump shows the injected faults interleaved with the lifecycle
        // events they caused.
        {
            let flight = flight.clone();
            net.add_fault_observer(Arc::new(move |at_us, desc| {
                flight.record_detail(
                    FlightEventKind::FaultTick,
                    "netsim",
                    None,
                    format!("t={at_us}us {desc}"),
                );
            }));
        }
        let sim = handle.clone();
        let wire: Arc<dyn WireTransport> = Arc::new(NetSimTransport::new(handle));
        Orb::start_inner(wire, Some(sim), flight, name, config)
    }

    /// Start an ORB on an arbitrary wire transport — real TCP or
    /// Unix-domain sockets ([`crate::wire`]) instead of the simulator.
    ///
    /// The transport supplies the node identity; references the ORB
    /// activates carry the transport's [`Endpoint`] as an IOR profile so
    /// peers in other processes can dial in. Simulator conveniences
    /// ([`Orb::net_handle`], chaos fault observers) are unavailable.
    pub fn start_wire(wire: Arc<dyn WireTransport>, name: &str, config: OrbConfig) -> Orb {
        let flight = FlightRecorder::new(name, config.flight_capacity);
        Orb::start_inner(wire, None, flight, name, config)
    }

    fn start_inner(
        wire: Arc<dyn WireTransport>,
        sim: Option<NetHandle>,
        flight: FlightRecorder,
        name: &str,
        config: OrbConfig,
    ) -> Orb {
        let n_dispatchers = config.dispatch_threads.max(1);
        let mut dispatch_tx = Vec::with_capacity(n_dispatchers);
        let mut dispatch_rx = Vec::with_capacity(n_dispatchers);
        for _ in 0..n_dispatchers {
            let (tx, rx) = unbounded::<DispatchCmd>();
            dispatch_tx.push(tx);
            dispatch_rx.push(rx);
        }
        let node = wire.node();
        // Wire lifecycle events (dial, redial, failover, backpressure,
        // resets) land in the same flight ring as request events, so a
        // flight_tail around an incident shows both layers interleaved.
        wire.attach_flight(&flight);
        let inner = Arc::new(OrbInner {
            wire,
            sim,
            node,
            name: name.to_string(),
            adapter: ObjectAdapter::new(),
            transport: QosTransport::new(),
            pseudo: PseudoObjectRegistry::new(),
            pending: PendingTable::new(),
            next_request: AtomicU64::new(1),
            config,
            shutdown: AtomicBool::new(false),
            stats: StatCells::default(),
            trace_counter: AtomicU64::new(0),
            metrics: MetricsRegistry::new(),
            flight,
            dispatch_tx,
        });
        let orb = Orb { inner };
        orb.spawn_receive_loop();
        for rx in dispatch_rx {
            orb.spawn_dispatcher(rx);
        }
        orb
    }

    /// The network node this ORB runs on.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The name this ORB was started with.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The wire transport moving this ORB's frames.
    pub fn wire(&self) -> &Arc<dyn WireTransport> {
        &self.inner.wire
    }

    /// The underlying simulator handle (virtual clock, name, …).
    ///
    /// # Panics
    ///
    /// Panics for ORBs started on a non-simulator wire transport
    /// ([`Orb::start_wire`]); gate on [`Orb::is_sim_backed`] first.
    pub fn net_handle(&self) -> &NetHandle {
        self.inner
            .sim
            .as_ref()
            .expect("net_handle(): this ORB runs on a socket wire transport, not netsim")
    }

    /// Whether this ORB runs on the deterministic simulator.
    pub fn is_sim_backed(&self) -> bool {
        self.inner.sim.is_some()
    }

    /// Teach the wire transport how to reach the node hosting `ior`
    /// (no-op for references without endpoint profiles, e.g. on the
    /// simulator). Invocations do this automatically; it is public for
    /// callers that address peers by [`NodeId`] directly, such as
    /// command/introspection clients attaching across processes.
    ///
    /// # Errors
    ///
    /// [`OrbError::CommFailure`] if the transport supports none of the
    /// listed endpoints.
    pub fn register_endpoints(&self, ior: &Ior) -> Result<(), OrbError> {
        if ior.endpoints.is_empty() {
            return Ok(());
        }
        self.inner.wire.register_peer(ior.node, &ior.endpoints).map_err(OrbError::from)
    }

    /// The ORB's object adapter.
    pub fn adapter(&self) -> &ObjectAdapter {
        &self.inner.adapter
    }

    /// The ORB's QoS transport (module/factory/binding administration).
    pub fn qos_transport(&self) -> &QosTransport {
        &self.inner.transport
    }

    /// The ORB's pseudo-object registry.
    pub fn pseudo_objects(&self) -> &PseudoObjectRegistry {
        &self.inner.pseudo
    }

    /// A snapshot of the broker counters.
    pub fn stats(&self) -> OrbStats {
        self.inner.stats.snapshot()
    }

    /// Requests currently registered in the pending-reply table (summed
    /// over its shards): calls awaiting a reply right now.
    pub fn pending_len(&self) -> usize {
        self.inner.pending.len()
    }

    /// Client-side trace-sampling decision
    /// ([`OrbConfig::trace_sample_every`]): `true` when the next
    /// outgoing request should carry a [`TraceContext`]. Stubs consult
    /// this *before* building a context, so unsampled requests skip the
    /// trace encode on the way out and every decode/span push
    /// downstream; metrics are recorded unconditionally either way.
    pub fn trace_sampled(&self) -> bool {
        match self.inner.config.trace_sample_every {
            0 => false,
            1 => true,
            n => self.inner.trace_counter.fetch_add(1, Ordering::Relaxed) % u64::from(n) == 0,
        }
    }

    /// The ORB's metrics registry (request-path counters/histograms).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// The ORB's flight recorder (the always-on black box of lifecycle
    /// events; see [`crate::flight`]).
    pub fn flight(&self) -> &FlightRecorder {
        &self.inner.flight
    }

    /// Activate a servant and return a QoS-unaware reference to it.
    pub fn activate(&self, key: &str, servant: Box<dyn Servant>) -> Ior {
        self.activate_with_tags(key, servant, &[])
    }

    /// Activate a servant and return a reference tagged with the QoS
    /// characteristics offered for it (the Fig. 3 IOR tag).
    pub fn activate_with_tags(&self, key: &str, servant: Box<dyn Servant>, tags: &[&str]) -> Ior {
        let servant: Arc<dyn Servant> = Arc::from(servant);
        let type_id = servant.interface_id().to_string();
        self.inner.adapter.activate(key, servant);
        let mut ior = Ior::new(type_id, self.node(), key);
        for t in tags {
            ior = ior.with_qos_tag(*t);
        }
        self.attach_endpoint(ior)
    }

    /// Attach this ORB's dialable listener to `ior` as a tagged profile.
    ///
    /// Socket-backed ORBs publish their listener so the reference works
    /// across process boundaries; simulator references stay profile-free
    /// (identity routing, byte-stable encodings for every existing
    /// test). `activate` does this automatically — call it yourself only
    /// for references built outside the ORB (e.g. `MaqsNode::serve`).
    pub fn attach_endpoint(&self, ior: Ior) -> Ior {
        match self.inner.wire.local_endpoint() {
            Endpoint::Sim(_) => ior,
            ep => ior.with_endpoint(ep),
        }
    }

    /// Deactivate an object.
    pub fn deactivate(&self, key: &str) {
        self.inner.adapter.deactivate(&ObjectKey(key.to_string()));
    }

    /// Stop the receive loop and dispatchers. Idempotent.
    ///
    /// Both loops block on their queues rather than polling: shutdown
    /// queues one [`DispatchCmd::Shutdown`] sentinel per dispatcher and
    /// pokes the network handle so the blocking receive wakes at once.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for tx in &self.inner.dispatch_tx {
            let _ = tx.send(DispatchCmd::Shutdown);
        }
        // Wake the blocked receive loop, then stop the transport itself
        // (closes sockets and listeners on socket backends).
        self.inner.wire.poke();
        self.inner.wire.shutdown();
    }

    /// Whether [`Orb::shutdown`] has been called.
    pub fn is_shut_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod ledger_tests {
    use super::*;

    #[test]
    fn one_note_moves_exactly_its_own_cells_by_one() {
        use FlightEventKind as K;
        let net = Network::new(1);
        let orb = Orb::start(&net, "ledger");
        let cells = |s: OrbStats| {
            [
                s.collocated_calls,
                s.packets_dropped,
                s.replies_matched,
                s.replies_orphaned,
                s.requests_handled,
            ]
        };
        // (event, index into `cells` of its OrbStats field, counter, flight kind)
        let ledger = [
            (Event::CollocatedCall, Some(0), "orb.collocated_calls", K::CollocatedCall),
            (Event::RequestSent, None, "orb.requests_sent", K::RequestSent),
            (Event::ProbeSent, None, "orb.probe.requests_sent", K::ProbeSent),
            (Event::PacketDropped, Some(1), "orb.packets_dropped", K::PacketDropped),
            (Event::ReplyMatched, Some(2), "orb.replies_matched", K::ReplyMatched),
            (Event::ReplyOrphaned, Some(3), "orb.replies_orphaned", K::ReplyOrphaned),
            (Event::RequestDispatched, Some(4), "orb.requests_handled", K::RequestDispatched),
            (Event::ProbeHandled, None, "orb.probe.requests_handled", K::ProbeHandled),
        ];
        for (event, field, counter, kind) in ledger {
            let stats = cells(orb.stats());
            let metrics = orb.metrics().snapshot();
            let (of_kind, total) = (orb.flight().count(kind), orb.flight().total());
            orb.inner.note(event, Some(7));
            for (i, (before, after)) in stats.into_iter().zip(cells(orb.stats())).enumerate() {
                assert_eq!(after - before, u64::from(field == Some(i)), "{event:?}: stat {i}");
            }
            // Every ledger counter is checked, so a probe event moving
            // `orb.requests_*` (or the reverse) fails here.
            let now = orb.metrics().snapshot();
            for (_, _, name, _) in ledger {
                let moved = now.counter(name) - metrics.counter(name);
                assert_eq!(moved, u64::from(name == counter), "{event:?}: {name}");
            }
            assert_eq!(orb.flight().count(kind) - of_kind, 1, "{event:?}: flight kind");
            assert_eq!(orb.flight().total() - total, 1, "{event:?}: flight total");
        }
        orb.shutdown();
    }
}
