//! Wire transports — the ORB's pluggable network boundary.
//!
//! The paper's separation argument (§3, Fig. 3) only holds if the layer
//! that moves framed bytes between nodes is swappable behind a stable
//! boundary: QoS modules transform GIOP bodies, the ORB core correlates
//! requests and replies, and *neither* may care whether the bytes travel
//! over the deterministic simulator or a real socket. [`WireTransport`]
//! is that boundary.
//!
//! Three backends ship with the crate, plus one decorator:
//!
//! * [`NetSimTransport`] — wraps a [`netsim::NetHandle`]; the
//!   deterministic default every test and bench runs on.
//! * [`TcpTransport`] — real loopback/LAN TCP with a listener thread,
//!   per-peer pooled connections and reconnect-on-failure.
//! * [`UdsTransport`] — the same engine over Unix-domain sockets.
//! * [`fault::FaultyTransport`] — a decorator over any backend that
//!   injects deterministic, scripted socket-level faults, the socket
//!   analogue of netsim's `FaultScript`.
//!
//! A transport moves opaque *frames* (the single-allocation buffers the
//! `giop::frame_*` path produces) and addresses peers by [`NodeId`]. How
//! a `NodeId` maps onto a dialable address is the job of [`Endpoint`]:
//! socket backends carry **ordered endpoint lists** in IOR tagged
//! profiles and learn the reverse mapping from a 9-byte hello each
//! dialer sends, so replies can travel back over the pooled connection
//! the request arrived on. Dialing walks the list with health-scored
//! selection: the endpoint with the fewest recent failures wins, list
//! order breaks ties, and switching endpoints is a *failover* surfaced
//! through the flight recorder.
//!
//! # Backpressure and recovery
//!
//! Socket sends never write under a lock. Each pooled connection owns a
//! **bounded outbox** drained by a dedicated writer thread; `send`
//! enqueues and returns. When the outbox is full the configured
//! [`BackpressurePolicy`] decides: block with a deadline, or shed
//! immediately with a typed [`WireError::Backpressure`] — either way a
//! stalled peer can neither wedge callers forever nor OOM the sender.
//! A failed write triggers **redial with capped exponential backoff and
//! jitter** (the [`crate::retry::RetryPolicy`] shape) across the peer's
//! endpoint list; per-peer [`ConnHealth`] (up/draining/down) is
//! observable via [`WireTransport::peer_health`].
//!
//! # Contract
//!
//! * `send` delivers one frame, whole or not at all; per-peer order is
//!   preserved while a connection lasts.
//! * `recv` blocks; an **empty payload is a wakeup**, not traffic
//!   (the netsim `poke()` convention, kept backend-independent).
//! * `shutdown` is idempotent and wakes every blocked `recv`, which
//!   then returns [`WireError::Closed`].
//! * A corrupt length prefix or a frame torn mid-body kills *only* the
//!   connection it arrived on ([`WireError::Frame`] in the flight
//!   recorder); the transport keeps serving every other peer.
//!
//! The conformance suite in `crates/orb/tests/wire_conformance.rs`
//! checks these properties — and a fault matrix over the injectable
//! failures — against every backend.

pub mod fault;

use crate::cdr::{CdrDecoder, CdrEncoder};
use crate::error::OrbError;
use crate::flight::{FlightEventKind, FlightRecorder};
use crate::retry::RetryPolicy;
use crate::sync::{LockRank, OrderedCondvar, OrderedMutex, OrderedRwLock};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use netsim::{NetHandle, NodeId};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Magic prefix of the socket-backend hello (`b"MAQW"`).
pub const WIRE_MAGIC: [u8; 4] = *b"MAQW";
/// Version byte of the socket-backend hello.
pub const WIRE_VERSION: u8 = 1;
/// Upper bound accepted for one length-prefixed frame, a defence
/// against corrupt or hostile prefixes (matches [`crate::cdr::MAX_LEN`]).
pub const MAX_WIRE_FRAME: usize = 64 * 1024 * 1024;

/// How a peer can be reached, carried in IOR tagged profiles.
///
/// `NodeId` stays the ORB's *identity* and correlation key; an
/// `Endpoint` is the *address* a wire backend dials to reach that
/// identity. The simulator needs no address beyond the identity itself
/// ([`Endpoint::Sim`]); socket backends publish the listener they bound.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A node on the deterministic simulator (no dialable address).
    Sim(NodeId),
    /// A TCP listener, `host:port`.
    Tcp(String),
    /// A Unix-domain-socket listener, filesystem path.
    Uds(String),
}

impl Endpoint {
    /// Parse the `Display` form (`sim:3`, `tcp:127.0.0.1:9443`,
    /// `uds:/tmp/maqs.sock`).
    ///
    /// # Errors
    ///
    /// [`OrbError::BadParam`] on an unknown scheme or malformed address.
    pub fn parse(s: &str) -> Result<Endpoint, OrbError> {
        if let Some(rest) = s.strip_prefix("sim:") {
            let id = rest
                .parse::<u32>()
                .map_err(|e| OrbError::BadParam(format!("bad sim endpoint {s:?}: {e}")))?;
            return Ok(Endpoint::Sim(NodeId(id)));
        }
        if let Some(rest) = s.strip_prefix("tcp:") {
            if rest.is_empty() {
                return Err(OrbError::BadParam("empty tcp endpoint".to_string()));
            }
            return Ok(Endpoint::Tcp(rest.to_string()));
        }
        if let Some(rest) = s.strip_prefix("uds:") {
            if rest.is_empty() {
                return Err(OrbError::BadParam("empty uds endpoint".to_string()));
            }
            return Ok(Endpoint::Uds(rest.to_string()));
        }
        Err(OrbError::BadParam(format!("unknown endpoint scheme in {s:?}")))
    }

    /// Encode onto a CDR stream (tag octet + address).
    pub fn encode(&self, enc: &mut CdrEncoder) {
        match self {
            Endpoint::Sim(node) => {
                enc.put_u8(0);
                enc.put_u32(node.0);
            }
            Endpoint::Tcp(addr) => {
                enc.put_u8(1);
                enc.put_string(addr);
            }
            Endpoint::Uds(path) => {
                enc.put_u8(2);
                enc.put_string(path);
            }
        }
    }

    /// Decode from a CDR stream.
    ///
    /// # Errors
    ///
    /// [`OrbError::Marshal`] on a truncated stream or unknown tag.
    pub fn decode(dec: &mut CdrDecoder<'_>) -> Result<Endpoint, OrbError> {
        match dec.get_u8()? {
            0 => Ok(Endpoint::Sim(NodeId(dec.get_u32()?))),
            1 => Ok(Endpoint::Tcp(dec.get_string()?)),
            2 => Ok(Endpoint::Uds(dec.get_string()?)),
            tag => Err(OrbError::Marshal(format!("unknown endpoint tag {tag}"))),
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Sim(node) => write!(f, "sim:{}", node.0),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Uds(path) => write!(f, "uds:{path}"),
        }
    }
}

/// One framed message delivered by [`WireTransport::recv`].
#[derive(Debug, Clone)]
pub struct WireFrame {
    /// The sending node.
    pub src: NodeId,
    /// The frame body; **empty means wakeup poke**, not traffic.
    pub payload: Bytes,
    /// Modelled wire transit in virtual µs (simulator backends only;
    /// socket backends report `0` — wall-clock cost shows up in the
    /// roundtrip histograms instead).
    pub transit_us: u64,
}

/// Errors surfaced by a wire transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// No route to the destination node (never registered, or the
    /// backend cannot dial any of its endpoints).
    Unreachable(String),
    /// The transport has been shut down.
    Closed,
    /// A socket-level failure that persisted across a reconnect attempt.
    Io(String),
    /// The endpoint kind is not supported by this backend.
    Unsupported(String),
    /// The peer's bounded outbox is full and the configured
    /// [`BackpressurePolicy`] shed the frame (or the block deadline
    /// passed). The frame was **not** sent; callers may retry.
    Backpressure(String),
    /// A framing-protocol violation on the receive path (oversize or
    /// zero length prefix, a frame torn mid-body). Kills only the
    /// connection it arrived on.
    Frame(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Unreachable(s) => write!(f, "peer unreachable: {s}"),
            WireError::Closed => write!(f, "wire transport closed"),
            WireError::Io(s) => write!(f, "wire i/o error: {s}"),
            WireError::Unsupported(s) => write!(f, "unsupported endpoint: {s}"),
            WireError::Backpressure(s) => write!(f, "wire backpressure: {s}"),
            WireError::Frame(s) => write!(f, "wire framing error: {s}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for OrbError {
    fn from(e: WireError) -> OrbError {
        match e {
            WireError::Closed => OrbError::Shutdown,
            // A shed frame is the definition of a transient failure: the
            // peer exists, the queue was momentarily full. Map it to the
            // retryable class so retry/resilience policies apply.
            WireError::Backpressure(s) => OrbError::Transient(format!("wire backpressure: {s}")),
            other => OrbError::CommFailure(other.to_string()),
        }
    }
}

/// What a full outbox does to the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Block the caller until space frees up, at most `deadline`; then
    /// fail with [`WireError::Backpressure`].
    Block {
        /// Longest a `send` may wait for outbox space.
        deadline: Duration,
    },
    /// Never block: fail immediately with [`WireError::Backpressure`]
    /// when the outbox is full (load-shedding for latency-sensitive
    /// callers that have their own retry budget).
    Shed,
}

impl Default for BackpressurePolicy {
    /// Block with a 2 s deadline.
    fn default() -> BackpressurePolicy {
        BackpressurePolicy::Block { deadline: Duration::from_secs(2) }
    }
}

/// Tuning knobs of the socket engine (outbox bounds, backpressure,
/// redial backoff). The defaults suit tests and LAN traffic; servers
/// under heavy fan-in may want larger outboxes and `Shed`.
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Max frames queued per connection before backpressure applies.
    pub outbox_frames: usize,
    /// Max queued bytes per connection before backpressure applies. A
    /// single frame larger than this is still accepted when the outbox
    /// is empty (the 64 MiB frame cap is the hard bound).
    pub outbox_bytes: usize,
    /// What a full outbox does to the sender.
    pub backpressure: BackpressurePolicy,
    /// Redial schedule after a failed write: `max_attempts` dial walks
    /// over the peer's endpoint list with capped exponential backoff
    /// between them (the [`RetryPolicy`] shape, reused as data). Each
    /// backoff is randomized to 50–100 % of the scheduled value, from a
    /// sequence seeded by the node id, so restarting fleets do not
    /// thunder in lockstep.
    pub redial: RetryPolicy,
}

impl Default for WireConfig {
    fn default() -> WireConfig {
        WireConfig {
            outbox_frames: 1024,
            outbox_bytes: 16 * 1024 * 1024,
            backpressure: BackpressurePolicy::default(),
            redial: RetryPolicy {
                max_attempts: 4,
                initial_backoff: Duration::from_millis(20),
                backoff_factor: 2,
                max_backoff: Duration::from_millis(500),
            },
        }
    }
}

/// Health of the pooled connection to one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnHealth {
    /// A live connection is pooled (or was, and nothing failed since).
    Up,
    /// The last write failed; a writer thread is redialing with backoff.
    Draining,
    /// Redial exhausted every endpoint; the next send re-dials from
    /// scratch (or fails [`WireError::Unreachable`]).
    Down,
}

impl ConnHealth {
    /// Stable lowercase name (`up` / `draining` / `down`).
    pub fn name(self) -> &'static str {
        match self {
            ConnHealth::Up => "up",
            ConnHealth::Draining => "draining",
            ConnHealth::Down => "down",
        }
    }
}

impl fmt::Display for ConnHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The ORB's pluggable network boundary; see the [module docs](self).
pub trait WireTransport: Send + Sync {
    /// This transport's node identity.
    fn node(&self) -> NodeId;

    /// The endpoint remote peers can dial to reach this transport
    /// (published in IOR tagged profiles by `Orb::activate`).
    fn local_endpoint(&self) -> Endpoint;

    /// Teach the transport how to reach `node`. Socket backends keep
    /// the **whole ordered list** of dialable endpoints and fail over
    /// across it; re-registering with a *different* list drops any
    /// pooled connection so the next send re-dials (how a restarted
    /// peer at a new address is re-bound).
    ///
    /// # Errors
    ///
    /// [`WireError::Unsupported`] if no listed endpoint kind is dialable
    /// by this backend.
    fn register_peer(&self, node: NodeId, endpoints: &[Endpoint]) -> Result<(), WireError>;

    /// Send one frame to `dst`, whole or not at all. Socket backends
    /// enqueue into the peer's bounded outbox and return; delivery is
    /// asynchronous, with redial-on-failure handled by the writer.
    ///
    /// # Errors
    ///
    /// [`WireError::Unreachable`] without a route, [`WireError::Io`] on
    /// a persistent socket failure, [`WireError::Backpressure`] when
    /// the outbox bound rejects the frame, [`WireError::Closed`] after
    /// shutdown.
    fn send(&self, dst: NodeId, frame: Vec<u8>) -> Result<(), WireError>;

    /// Block until a frame arrives. An empty payload is a wakeup poke.
    ///
    /// # Errors
    ///
    /// [`WireError::Closed`] once the transport is shut down.
    fn recv(&self) -> Result<WireFrame, WireError>;

    /// Take one already-queued frame without blocking; `Ok(None)` when
    /// the inbox is empty right now. The ORB's receive loop uses this
    /// to drain bursts after a blocking `recv` woke it, so dispatchers
    /// get one wakeup per burst instead of one per frame. Backends
    /// without a pollable inbox keep the default (always empty), which
    /// degrades to frame-at-a-time delivery.
    ///
    /// # Errors
    ///
    /// [`WireError::Closed`] once the transport is shut down.
    fn try_recv(&self) -> Result<Option<WireFrame>, WireError> {
        Ok(None)
    }

    /// Wake one blocked [`WireTransport::recv`] with an empty frame.
    fn poke(&self);

    /// Stop the transport: close connections and listeners, wake every
    /// blocked `recv`. Idempotent.
    fn shutdown(&self);

    /// Land wire lifecycle events (dial, redial, failover,
    /// backpressure-shed, conn-reset) in `flight`. The ORB attaches its
    /// own recorder at start; backends without lifecycle events ignore
    /// this. First attachment wins.
    fn attach_flight(&self, _flight: &FlightRecorder) {}

    /// Per-peer connection health, sorted by node id. Backends without
    /// pooled connections report nothing.
    fn peer_health(&self) -> Vec<(NodeId, ConnHealth)> {
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// netsim backend
// ---------------------------------------------------------------------

/// The deterministic default backend: a [`netsim::NetHandle`] behind the
/// [`WireTransport`] boundary. Frames ride simulator messages unchanged,
/// so link models, loss, fault injection and the virtual clock all apply
/// exactly as before the wire boundary existed.
pub struct NetSimTransport {
    handle: NetHandle,
    closed: AtomicBool,
}

impl NetSimTransport {
    /// Wrap an attached simulator handle.
    pub fn new(handle: NetHandle) -> NetSimTransport {
        NetSimTransport { handle, closed: AtomicBool::new(false) }
    }

    /// The wrapped handle (virtual clock, name, …).
    pub fn handle(&self) -> &NetHandle {
        &self.handle
    }
}

impl WireTransport for NetSimTransport {
    fn node(&self) -> NodeId {
        self.handle.id()
    }

    fn local_endpoint(&self) -> Endpoint {
        Endpoint::Sim(self.handle.id())
    }

    fn register_peer(&self, _node: NodeId, _endpoints: &[Endpoint]) -> Result<(), WireError> {
        // The simulator routes by NodeId; every attached node is
        // reachable by identity alone.
        Ok(())
    }

    fn send(&self, dst: NodeId, frame: Vec<u8>) -> Result<(), WireError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(WireError::Closed);
        }
        self.handle.send(dst, frame).map_err(|e| WireError::Unreachable(e.to_string()))
    }

    fn recv(&self) -> Result<WireFrame, WireError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(WireError::Closed);
        }
        let msg = self.handle.recv().map_err(|_| WireError::Closed)?;
        if self.closed.load(Ordering::SeqCst) {
            // Chain the wakeup: another receiver may still be blocked on
            // the one poke shutdown() sent.
            self.handle.poke();
            return Err(WireError::Closed);
        }
        Ok(WireFrame {
            src: msg.src,
            transit_us: msg.transit().as_micros(),
            payload: msg.payload,
        })
    }

    fn try_recv(&self) -> Result<Option<WireFrame>, WireError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(WireError::Closed);
        }
        match self.handle.try_recv() {
            Ok(msg) => Ok(Some(WireFrame {
                src: msg.src,
                transit_us: msg.transit().as_micros(),
                payload: msg.payload,
            })),
            Err(netsim::RecvError::Empty) => Ok(None),
            Err(_) => Err(WireError::Closed),
        }
    }

    fn poke(&self) {
        self.handle.poke();
    }

    fn shutdown(&self) {
        if !self.closed.swap(true, Ordering::SeqCst) {
            self.handle.poke();
        }
    }
}

// ---------------------------------------------------------------------
// socket backends (TCP + Unix-domain)
// ---------------------------------------------------------------------

/// A connected stream of either address family.
enum SocketStream {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl SocketStream {
    fn try_clone(&self) -> std::io::Result<SocketStream> {
        match self {
            SocketStream::Tcp(s) => s.try_clone().map(SocketStream::Tcp),
            SocketStream::Uds(s) => s.try_clone().map(SocketStream::Uds),
        }
    }

    fn shutdown_both(&self) {
        match self {
            SocketStream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            SocketStream::Uds(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for SocketStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            SocketStream::Tcp(s) => s.read(buf),
            SocketStream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for SocketStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            SocketStream::Tcp(s) => s.write(buf),
            SocketStream::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.flush(),
            SocketStream::Uds(s) => s.flush(),
        }
    }
}

enum SocketListener {
    Tcp(TcpListener),
    Uds(UnixListener),
}

impl SocketListener {
    fn accept(&self) -> std::io::Result<SocketStream> {
        match self {
            SocketListener::Tcp(l) => l.accept().map(|(s, _)| {
                // Replies ride back over accepted streams; without
                // NODELAY they stall ~40ms on Nagle + delayed ACK.
                let _ = s.set_nodelay(true);
                SocketStream::Tcp(s)
            }),
            SocketListener::Uds(l) => l.accept().map(|(s, _)| SocketStream::Uds(s)),
        }
    }
}

/// Why an enqueue did not accept the frame.
enum EnqueueFail {
    /// The connection closed under us; the caller may retry on a fresh
    /// one (the frame is handed back).
    ConnClosed,
    /// Shed policy, outbox full.
    Shed,
    /// Block policy, deadline passed without space.
    Deadline,
}

/// The bounded frame queue between senders and one writer thread.
struct Outbox {
    q: VecDeque<Vec<u8>>,
    bytes: usize,
    /// Cleared by [`Conn::close`]; the writer drains out and exits.
    open: bool,
}

/// One pooled connection: the bounded outbox senders enqueue into, the
/// condvars pairing it with the writer thread, and a control clone of
/// the current stream so `close()` can unblock a writer stuck in
/// `write_all`. The read half lives on a reader thread holding its own
/// stream clone; all halves share the OS socket, so shutting one down
/// unblocks the others.
struct Conn {
    peer: NodeId,
    outbox: OrderedMutex<Outbox>,
    /// Signalled when a frame lands in the outbox (writer waits here).
    data: OrderedCondvar,
    /// Signalled when the writer frees space (blocked senders wait here).
    space: OrderedCondvar,
    /// Clone of the *current* stream, for shutdown from other threads;
    /// the writer replaces it after a successful redial.
    ctl: OrderedMutex<Option<SocketStream>>,
    closed: AtomicBool,
}

impl Conn {
    fn new(peer: NodeId) -> Conn {
        Conn {
            peer,
            outbox: OrderedMutex::new(
                LockRank::WireOutbox,
                Outbox { q: VecDeque::new(), bytes: 0, open: true },
            ),
            data: OrderedCondvar::new(),
            space: OrderedCondvar::new(),
            ctl: OrderedMutex::new(LockRank::WireConn, None),
            closed: AtomicBool::new(false),
        }
    }

    fn set_ctl(&self, stream: SocketStream) {
        *self.ctl.lock() = Some(stream);
    }

    /// Close the connection: mark the outbox closed (waking the writer
    /// and any blocked senders) and shut the socket down so a writer
    /// stuck mid-`write_all` unblocks. Idempotent.
    fn close(&self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let mut ob = self.outbox.lock();
            ob.open = false;
        }
        self.data.notify_all();
        self.space.notify_all();
        if let Some(stream) = self.ctl.lock().as_ref() {
            stream.shutdown_both();
        }
    }

    /// Queue `frame` for the writer thread, applying the outbox bounds
    /// and backpressure policy. A frame larger than the byte bound is
    /// still accepted when the queue is empty (MAX_WIRE_FRAME is the
    /// hard cap). On failure the frame is handed back untouched.
    fn enqueue(&self, frame: Vec<u8>, cfg: &WireConfig) -> Result<(), (Vec<u8>, EnqueueFail)> {
        let deadline = match cfg.backpressure {
            BackpressurePolicy::Block { deadline } => Some(Instant::now() + deadline),
            BackpressurePolicy::Shed => None,
        };
        let mut ob = self.outbox.lock();
        loop {
            if !ob.open {
                return Err((frame, EnqueueFail::ConnClosed));
            }
            let fits = ob.q.is_empty()
                || (ob.q.len() < cfg.outbox_frames
                    && ob.bytes.saturating_add(frame.len()) <= cfg.outbox_bytes);
            if fits {
                break;
            }
            match deadline {
                None => return Err((frame, EnqueueFail::Shed)),
                Some(deadline) => {
                    if self.space.wait_until(&mut ob, deadline) {
                        return Err((frame, EnqueueFail::Deadline));
                    }
                }
            }
        }
        ob.bytes += frame.len();
        ob.q.push_back(frame);
        drop(ob);
        self.data.notify_one();
        Ok(())
    }

    /// Writer side: block until a frame is queued or the connection
    /// closes. Frees space (and wakes blocked senders) on pop.
    fn next_frame(&self) -> Option<Vec<u8>> {
        let mut ob = self.outbox.lock();
        loop {
            if let Some(frame) = ob.q.pop_front() {
                ob.bytes -= frame.len();
                drop(ob);
                self.space.notify_all();
                return Some(frame);
            }
            if !ob.open {
                return None;
            }
            self.data.wait(&mut ob);
        }
    }

    /// Current queue depth, `(frames, bytes)`.
    fn depth(&self) -> (usize, usize) {
        let ob = self.outbox.lock();
        (ob.q.len(), ob.bytes)
    }
}

/// Route to one peer: the ordered endpoint list from its IOR, a
/// consecutive-failure score per endpoint, and which one is active.
struct PeerRoute {
    endpoints: Vec<Endpoint>,
    fails: Vec<u32>,
    active: usize,
}

/// Peer registry + connection pool + health map, under
/// [`LockRank::WireState`].
struct WireState {
    peers: HashMap<NodeId, PeerRoute>,
    conns: HashMap<NodeId, Arc<Conn>>,
    health: HashMap<NodeId, ConnHealth>,
}

struct SocketInner {
    node: NodeId,
    local: Endpoint,
    config: WireConfig,
    state: OrderedRwLock<WireState>,
    inbox_tx: Sender<WireFrame>,
    inbox_rx: Receiver<WireFrame>,
    closed: AtomicBool,
    flight: OnceLock<FlightRecorder>,
    jitter: AtomicU64,
    frame_errors: AtomicU64,
}

impl SocketInner {
    /// Record a lifecycle event in the attached flight recorder.
    fn emit(&self, kind: FlightEventKind, detail: String) {
        if let Some(flight) = self.flight.get() {
            flight.record_detail(kind, "wire", None, detail);
        }
    }

    /// Drop `conn` from the pool — but only if the slot still holds this
    /// very connection (a racing redial may already have replaced it) —
    /// and close it either way. Marks the peer `Down` when the slot was
    /// actually vacated.
    fn drop_conn(&self, node: NodeId, conn: &Arc<Conn>) {
        let removed = {
            let mut state = self.state.write();
            let removed = match state.conns.get(&node) {
                Some(current) if Arc::ptr_eq(current, conn) => {
                    state.conns.remove(&node);
                    true
                }
                _ => false,
            };
            if removed {
                state.health.insert(node, ConnHealth::Down);
            }
            removed
        };
        conn.close();
        let _ = removed;
    }

    /// Deterministic jitter: scale `d` to 50–100 % using an xorshift
    /// sequence (data races on the seed are harmless — any interleaving
    /// is still a valid sequence).
    fn jittered(&self, d: Duration) -> Duration {
        let mut x = self.jitter.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter.store(x, Ordering::Relaxed);
        let percent = 50 + (x % 51) as u32; // 50..=100
        d * percent / 100
    }
}

/// The engine shared by [`TcpTransport`] and [`UdsTransport`]: a
/// listener ("reactor") thread accepting peers, one reader thread per
/// connection feeding a common inbox, and per-peer pooled connections
/// each drained by a writer thread from a bounded outbox
/// ([`WireConfig`], [`BackpressurePolicy`]). Failed writes redial with
/// capped exponential backoff + jitter across the peer's registered
/// endpoint list (health-scored failover).
///
/// Framing on the stream is a `u32` little-endian length prefix followed
/// by exactly the bytes the ORB's `giop::frame_*` path produced — the
/// single-allocation frame *is* the wire payload, no re-encode. A new
/// connection opens with a 9-byte hello (`MAQW`, version, dialer's
/// `NodeId`) so the acceptor learns which identity the stream speaks
/// for and can route replies back over it.
pub struct SocketTransport {
    inner: Arc<SocketInner>,
}

impl SocketTransport {
    /// Bind a TCP listener on `addr` (e.g. `127.0.0.1:0`) and start the
    /// accept thread, with default [`WireConfig`].
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the bind fails.
    pub fn tcp(node: NodeId, addr: &str) -> Result<SocketTransport, WireError> {
        SocketTransport::tcp_with(node, addr, WireConfig::default())
    }

    /// Bind a TCP listener with explicit [`WireConfig`].
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the bind fails.
    pub fn tcp_with(
        node: NodeId,
        addr: &str,
        config: WireConfig,
    ) -> Result<SocketTransport, WireError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| WireError::Io(format!("bind {addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| WireError::Io(e.to_string()))?
            .to_string();
        SocketTransport::start(node, Endpoint::Tcp(local), SocketListener::Tcp(listener), config)
    }

    /// Bind a Unix-domain listener on `path` and start the accept
    /// thread, with default [`WireConfig`]. A stale socket file from a
    /// previous run is removed first, which is what lets a restarted
    /// peer rebind the same endpoint.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the bind fails.
    pub fn uds(node: NodeId, path: &str) -> Result<SocketTransport, WireError> {
        SocketTransport::uds_with(node, path, WireConfig::default())
    }

    /// Bind a Unix-domain listener with explicit [`WireConfig`].
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the bind fails.
    pub fn uds_with(
        node: NodeId,
        path: &str,
        config: WireConfig,
    ) -> Result<SocketTransport, WireError> {
        if std::fs::metadata(path).is_ok() {
            let _ = std::fs::remove_file(path);
        }
        let listener =
            UnixListener::bind(path).map_err(|e| WireError::Io(format!("bind {path}: {e}")))?;
        SocketTransport::start(
            node,
            Endpoint::Uds(path.to_string()),
            SocketListener::Uds(listener),
            config,
        )
    }

    fn start(
        node: NodeId,
        local: Endpoint,
        listener: SocketListener,
        config: WireConfig,
    ) -> Result<SocketTransport, WireError> {
        let (inbox_tx, inbox_rx) = unbounded::<WireFrame>();
        // Any nonzero value works; mix the node id so two nodes do not
        // share a jitter sequence.
        let seed = 0x9E37_79B9_7F4A_7C15 ^ u64::from(node.0);
        let inner = Arc::new(SocketInner {
            node,
            local,
            config,
            state: OrderedRwLock::new(
                LockRank::WireState,
                WireState { peers: HashMap::new(), conns: HashMap::new(), health: HashMap::new() },
            ),
            inbox_tx,
            inbox_rx,
            closed: AtomicBool::new(false),
            flight: OnceLock::new(),
            jitter: AtomicU64::new(seed),
            frame_errors: AtomicU64::new(0),
        });
        {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("wire-accept-{}", inner.node.0))
                .spawn(move || SocketTransport::accept_loop(&inner, listener))
                .map_err(|e| WireError::Io(format!("spawn accept thread: {e}")))?;
        }
        Ok(SocketTransport { inner })
    }

    /// The endpoint actually bound (with the OS-assigned port resolved).
    pub fn local_endpoint(&self) -> Endpoint {
        self.inner.local.clone()
    }

    /// Outbox depth for the pooled connection to `peer`, `(frames,
    /// bytes)`; `(0, 0)` without a pooled connection. Memory-boundedness
    /// evidence for tests and dashboards.
    pub fn outbox_depth(&self, peer: NodeId) -> (usize, usize) {
        let conn = {
            let state = self.inner.state.read();
            state.conns.get(&peer).cloned()
        };
        conn.map_or((0, 0), |c| c.depth())
    }

    /// Framing-protocol violations seen on the receive path (oversize
    /// or zero length prefixes, frames torn mid-body). Each one killed
    /// exactly one connection.
    pub fn frame_errors(&self) -> u64 {
        self.inner.frame_errors.load(Ordering::Relaxed)
    }

    fn accept_loop(inner: &Arc<SocketInner>, listener: SocketListener) {
        loop {
            let stream = match listener.accept() {
                Ok(s) => s,
                Err(_) => {
                    if inner.closed.load(Ordering::SeqCst) {
                        break;
                    }
                    continue;
                }
            };
            if inner.closed.load(Ordering::SeqCst) {
                break;
            }
            let inner = Arc::clone(inner);
            let _ = std::thread::Builder::new()
                .name(format!("wire-read-{}", inner.node.0))
                .spawn(move || SocketTransport::serve_accepted(&inner, stream));
        }
        // Listener dropped here. The UDS socket file is reaped by
        // shutdown(), not here: this thread wakes asynchronously, and a
        // restarted peer may already have rebound the same path — reaping
        // late would unlink the *new* incarnation's file.
    }

    /// Read the dialer's hello, pool the stream for the reply direction
    /// — **replacing** any previously pooled connection for that peer
    /// (a fresh hello is positive evidence of a new incarnation; the
    /// stale write half would make one send fail before redial) — then
    /// pump frames into the inbox until the peer hangs up.
    fn serve_accepted(inner: &Arc<SocketInner>, mut stream: SocketStream) {
        let mut hello = [0u8; 9];
        if stream.read_exact(&mut hello).is_err()
            || hello[0..4] != WIRE_MAGIC
            || hello[4] != WIRE_VERSION
        {
            stream.shutdown_both();
            return;
        }
        let peer = NodeId(u32::from_le_bytes([hello[5], hello[6], hello[7], hello[8]]));
        let (writer, ctl) = match (stream.try_clone(), stream.try_clone()) {
            (Ok(w), Ok(c)) => (w, c),
            _ => {
                stream.shutdown_both();
                return;
            }
        };
        let conn = Arc::new(Conn::new(peer));
        conn.set_ctl(ctl);
        let superseded = {
            let mut state = inner.state.write();
            let old = state.conns.insert(peer, Arc::clone(&conn));
            state.health.insert(peer, ConnHealth::Up);
            old
        };
        if let Some(old) = superseded {
            old.close();
            inner.emit(
                FlightEventKind::WireConnReset,
                format!("stale pooled connection to node {} superseded by reconnect", peer.0),
            );
        }
        {
            let inner = Arc::clone(inner);
            let conn = Arc::clone(&conn);
            let _ = std::thread::Builder::new()
                .name(format!("wire-write-{}", inner.node.0))
                .spawn(move || SocketTransport::writer_loop(&inner, &conn, writer));
        }
        SocketTransport::read_frames(inner, stream, peer, &conn);
    }

    /// Pump length-prefixed frames off `stream` into the inbox. A
    /// framing violation (bad prefix, torn body) is a typed
    /// [`WireError::Frame`] that kills **this connection only**; a
    /// clean EOF just ends the reader — the write half stays pooled and
    /// the writer discovers (and redials) on its next send.
    fn read_frames(
        inner: &Arc<SocketInner>,
        mut stream: SocketStream,
        peer: NodeId,
        conn: &Arc<Conn>,
    ) {
        let mut len_buf = [0u8; 4];
        loop {
            if stream.read_exact(&mut len_buf).is_err() {
                // Peer closed or reset: no protocol violation, just the
                // end of this stream.
                return;
            }
            let len = u32::from_le_bytes(len_buf) as usize;
            if len == 0 || len > MAX_WIRE_FRAME {
                let err = WireError::Frame(format!(
                    "bad length prefix {len} from node {} (cap {MAX_WIRE_FRAME})",
                    peer.0
                ));
                SocketTransport::kill_conn_for_frame_error(inner, peer, conn, &err);
                return;
            }
            let mut body = vec![0u8; len];
            if stream.read_exact(&mut body).is_err() {
                let err = WireError::Frame(format!(
                    "torn frame from node {}: stream ended inside a {len}-byte body",
                    peer.0
                ));
                SocketTransport::kill_conn_for_frame_error(inner, peer, conn, &err);
                return;
            }
            let frame = WireFrame { src: peer, payload: Bytes::from(body), transit_us: 0 };
            if inner.inbox_tx.send(frame).is_err() {
                return;
            }
        }
    }

    fn kill_conn_for_frame_error(
        inner: &Arc<SocketInner>,
        peer: NodeId,
        conn: &Arc<Conn>,
        err: &WireError,
    ) {
        inner.frame_errors.fetch_add(1, Ordering::Relaxed);
        inner.drop_conn(peer, conn);
        inner.emit(FlightEventKind::WireConnReset, err.to_string());
    }

    /// Dial `endpoint` and send the hello; the caller wires the stream
    /// into a connection (reader thread, ctl clone, writer).
    fn dial_stream(inner: &Arc<SocketInner>, endpoint: &Endpoint) -> Result<SocketStream, WireError> {
        let mut stream = match endpoint {
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr)
                    .map_err(|e| WireError::Unreachable(format!("dial {addr}: {e}")))?;
                let _ = s.set_nodelay(true);
                SocketStream::Tcp(s)
            }
            Endpoint::Uds(path) => SocketStream::Uds(
                UnixStream::connect(path)
                    .map_err(|e| WireError::Unreachable(format!("dial {path}: {e}")))?,
            ),
            Endpoint::Sim(_) => {
                return Err(WireError::Unsupported(format!(
                    "socket transport cannot dial {endpoint}"
                )))
            }
        };
        let mut hello = [0u8; 9];
        hello[0..4].copy_from_slice(&WIRE_MAGIC);
        hello[4] = WIRE_VERSION;
        hello[5..9].copy_from_slice(&inner.node.0.to_le_bytes());
        stream.write_all(&hello).map_err(|e| WireError::Io(format!("hello: {e}")))?;
        Ok(stream)
    }

    /// Walk `dst`'s endpoint list health-first (fewest consecutive
    /// failures, list order as tie-break) and dial until one answers.
    /// Returns the stream, the endpoint, and whether the active
    /// endpoint changed (a failover).
    fn dial_walk(
        inner: &Arc<SocketInner>,
        dst: NodeId,
    ) -> Result<(SocketStream, Endpoint, bool), WireError> {
        let candidates: Vec<(usize, Endpoint)> = {
            let state = inner.state.read();
            let route = state.peers.get(&dst).ok_or_else(|| {
                WireError::Unreachable(format!("no endpoint registered for node {}", dst.0))
            })?;
            let mut order: Vec<usize> = (0..route.endpoints.len()).collect();
            order.sort_by_key(|&i| (route.fails[i], i));
            order.into_iter().map(|i| (i, route.endpoints[i].clone())).collect()
        };
        let mut last_err =
            WireError::Unreachable(format!("no endpoint registered for node {}", dst.0));
        for (idx, endpoint) in candidates {
            match SocketTransport::dial_stream(inner, &endpoint) {
                Ok(stream) => {
                    let failover = {
                        let mut state = inner.state.write();
                        state.health.insert(dst, ConnHealth::Up);
                        match state.peers.get_mut(&dst) {
                            Some(route) => {
                                route.fails[idx] = 0;
                                let failover = route.active != idx;
                                route.active = idx;
                                failover
                            }
                            None => false,
                        }
                    };
                    return Ok((stream, endpoint, failover));
                }
                Err(e) => {
                    let mut state = inner.state.write();
                    if let Some(route) = state.peers.get_mut(&dst) {
                        route.fails[idx] = route.fails[idx].saturating_add(1);
                    }
                    last_err = e;
                }
            }
        }
        Err(last_err)
    }

    /// Spawn a reader thread pumping `stream` (a read clone) into the
    /// inbox on behalf of `conn`.
    fn attach_reader(inner: &Arc<SocketInner>, conn: &Arc<Conn>, stream: SocketStream) {
        let inner = Arc::clone(inner);
        let conn = Arc::clone(conn);
        let peer = conn.peer;
        let _ = std::thread::Builder::new()
            .name(format!("wire-read-{}", inner.node.0))
            .spawn(move || SocketTransport::read_frames(&inner, stream, peer, &conn));
    }

    /// The pooled connection to `dst`, dialing one (with failover walk)
    /// if none exists.
    fn get_or_dial(&self, dst: NodeId) -> Result<Arc<Conn>, WireError> {
        {
            let state = self.inner.state.read();
            if let Some(conn) = state.conns.get(&dst) {
                return Ok(Arc::clone(conn));
            }
            if !state.peers.contains_key(&dst) {
                return Err(WireError::Unreachable(format!(
                    "no endpoint registered for node {}",
                    dst.0
                )));
            }
        }
        // Dial outside the state lock — connects can block.
        let (stream, endpoint, failover) = SocketTransport::dial_walk(&self.inner, dst)?;
        let reader = stream.try_clone().map_err(|e| WireError::Io(e.to_string()))?;
        let ctl = stream.try_clone().map_err(|e| WireError::Io(e.to_string()))?;
        let conn = Arc::new(Conn::new(dst));
        conn.set_ctl(ctl);
        let lost_race = {
            let mut state = self.inner.state.write();
            if let Some(existing) = state.conns.get(&dst) {
                Some(Arc::clone(existing))
            } else {
                state.conns.insert(dst, Arc::clone(&conn));
                state.health.insert(dst, ConnHealth::Up);
                None
            }
        };
        if let Some(existing) = lost_race {
            // Lost the race; keep the established one and retire ours
            // (no reader/writer were spawned for it yet).
            stream.shutdown_both();
            return Ok(existing);
        }
        SocketTransport::attach_reader(&self.inner, &conn, reader);
        {
            let inner = Arc::clone(&self.inner);
            let conn = Arc::clone(&conn);
            let _ = std::thread::Builder::new()
                .name(format!("wire-write-{}", inner.node.0))
                .spawn(move || SocketTransport::writer_loop(&inner, &conn, stream));
        }
        self.inner.emit(FlightEventKind::WireDial, format!("dialed node {} at {endpoint}", dst.0));
        if failover {
            self.inner.emit(
                FlightEventKind::WireFailover,
                format!("failed over node {} to {endpoint}", dst.0),
            );
        }
        Ok(conn)
    }

    fn write_frame(stream: &mut SocketStream, frame: &[u8]) -> std::io::Result<()> {
        let len = frame.len() as u32;
        stream.write_all(&len.to_le_bytes())?;
        stream.write_all(frame)?;
        stream.flush()
    }

    /// Drain `conn`'s outbox onto its stream; on a failed write, redial
    /// with backoff + jitter across the endpoint list and retry the
    /// in-flight frame once on the fresh stream. Exits when the
    /// connection closes or recovery is exhausted.
    fn writer_loop(inner: &Arc<SocketInner>, conn: &Arc<Conn>, mut stream: SocketStream) {
        while let Some(frame) = conn.next_frame() {
            match SocketTransport::write_frame(&mut stream, &frame) {
                Ok(()) => continue,
                Err(first) => {
                    {
                        let mut state = inner.state.write();
                        state.health.insert(conn.peer, ConnHealth::Draining);
                    }
                    inner.emit(
                        FlightEventKind::WireConnReset,
                        format!("write to node {} failed: {first}; redialing", conn.peer.0),
                    );
                    match SocketTransport::redial(inner, conn) {
                        Some(mut fresh) => {
                            // The peer may or may not have seen the torn
                            // write; retry once on the fresh stream (the
                            // same at-most-once window the old one-shot
                            // redial had).
                            if SocketTransport::write_frame(&mut fresh, &frame).is_err() {
                                SocketTransport::give_up(inner, conn, "write failed again on a fresh connection");
                                return;
                            }
                            stream = fresh;
                        }
                        None => {
                            SocketTransport::give_up(inner, conn, "redial exhausted");
                            return;
                        }
                    }
                }
            }
        }
        // Outbox closed cleanly (shutdown, eviction, or supersession).
    }

    fn give_up(inner: &Arc<SocketInner>, conn: &Arc<Conn>, why: &str) {
        inner.drop_conn(conn.peer, conn);
        inner.emit(
            FlightEventKind::WireConnReset,
            format!("connection to node {} abandoned: {why}", conn.peer.0),
        );
    }

    /// Redial `conn`'s peer under the configured [`WireConfig::redial`]
    /// schedule (capped exponential backoff, jittered), walking the
    /// endpoint list health-first on each attempt. On success the fresh
    /// stream's read half is attached and the ctl clone replaced; the
    /// caller (the writer thread) keeps the write half.
    fn redial(inner: &Arc<SocketInner>, conn: &Arc<Conn>) -> Option<SocketStream> {
        let policy = inner.config.redial.clone();
        let attempts = policy.max_attempts.max(1);
        for attempt in 1..=attempts {
            if inner.closed.load(Ordering::SeqCst) || conn.closed.load(Ordering::SeqCst) {
                return None;
            }
            match SocketTransport::dial_walk(inner, conn.peer) {
                Ok((stream, endpoint, failover)) => {
                    let (reader, ctl) = match (stream.try_clone(), stream.try_clone()) {
                        (Ok(r), Ok(c)) => (r, c),
                        _ => {
                            stream.shutdown_both();
                            return None;
                        }
                    };
                    conn.set_ctl(ctl);
                    if conn.closed.load(Ordering::SeqCst) {
                        // Closed while we were dialing (shutdown or
                        // supersession); don't resurrect.
                        stream.shutdown_both();
                        return None;
                    }
                    SocketTransport::attach_reader(inner, conn, reader);
                    inner.emit(
                        FlightEventKind::WireRedial,
                        format!(
                            "re-established node {} at {endpoint} (attempt {attempt})",
                            conn.peer.0
                        ),
                    );
                    if failover {
                        inner.emit(
                            FlightEventKind::WireFailover,
                            format!("failed over node {} to {endpoint}", conn.peer.0),
                        );
                    }
                    return Some(stream);
                }
                Err(e) => {
                    if attempt == attempts {
                        inner.emit(
                            FlightEventKind::WireRedial,
                            format!("redial node {} attempt {attempt}/{attempts} failed: {e}", conn.peer.0),
                        );
                        break;
                    }
                    let backoff = inner.jittered(policy.backoff(attempt));
                    inner.emit(
                        FlightEventKind::WireRedial,
                        format!(
                            "redial node {} attempt {attempt}/{attempts} failed: {e}; backing off {backoff:?}",
                            conn.peer.0
                        ),
                    );
                    // Sleep in slices so shutdown isn't held up by a
                    // long backoff.
                    let deadline = Instant::now() + backoff;
                    while Instant::now() < deadline {
                        if inner.closed.load(Ordering::SeqCst) || conn.closed.load(Ordering::SeqCst)
                        {
                            return None;
                        }
                        std::thread::sleep(
                            (deadline - Instant::now()).min(Duration::from_millis(20)),
                        );
                    }
                }
            }
        }
        None
    }
}

impl WireTransport for SocketTransport {
    fn node(&self) -> NodeId {
        self.inner.node
    }

    fn local_endpoint(&self) -> Endpoint {
        self.inner.local.clone()
    }

    fn register_peer(&self, node: NodeId, endpoints: &[Endpoint]) -> Result<(), WireError> {
        let dialable: Vec<Endpoint> = endpoints
            .iter()
            .filter(|e| matches!(e, Endpoint::Tcp(_) | Endpoint::Uds(_)))
            .cloned()
            .collect();
        if dialable.is_empty() {
            return Err(WireError::Unsupported(format!(
                "no dialable endpoint for node {} in {endpoints:?}",
                node.0
            )));
        }
        let stale = {
            let mut state = self.inner.state.write();
            let changed =
                state.peers.get(&node).is_none_or(|route| route.endpoints != dialable);
            if changed {
                let n = dialable.len();
                state
                    .peers
                    .insert(node, PeerRoute { endpoints: dialable, fails: vec![0; n], active: 0 });
                state.conns.remove(&node)
            } else {
                None
            }
        };
        if let Some(conn) = stale {
            conn.close();
            self.inner.emit(
                FlightEventKind::WireConnReset,
                format!("node {} re-registered with a new endpoint list; pooled connection evicted", node.0),
            );
        }
        Ok(())
    }

    fn send(&self, dst: NodeId, frame: Vec<u8>) -> Result<(), WireError> {
        if self.inner.closed.load(Ordering::SeqCst) {
            return Err(WireError::Closed);
        }
        let mut frame = frame;
        // Two passes: if the pooled connection closes under us (writer
        // gave up, eviction raced in) the frame is handed back and we
        // retry once on a fresh dial.
        for _ in 0..2 {
            let conn = self.get_or_dial(dst)?;
            match conn.enqueue(frame, &self.inner.config) {
                Ok(()) => return Ok(()),
                Err((f, EnqueueFail::ConnClosed)) => {
                    frame = f;
                    self.inner.drop_conn(dst, &conn);
                }
                Err((f, fail)) => {
                    let (frames, bytes) = conn.depth();
                    let why = match fail {
                        EnqueueFail::Shed => "shed",
                        _ => "block deadline passed",
                    };
                    let detail = format!(
                        "outbox to node {} full ({frames} frames / {bytes} bytes, caps {} / {}): {why}, frame of {} bytes rejected",
                        dst.0,
                        self.inner.config.outbox_frames,
                        self.inner.config.outbox_bytes,
                        f.len(),
                    );
                    self.inner.emit(FlightEventKind::WireBackpressureShed, detail.clone());
                    return Err(WireError::Backpressure(detail));
                }
            }
        }
        Err(WireError::Io(format!("connection to node {} kept closing while enqueueing", dst.0)))
    }

    fn recv(&self) -> Result<WireFrame, WireError> {
        if self.inner.closed.load(Ordering::SeqCst) {
            return Err(WireError::Closed);
        }
        let frame = self.inner.inbox_rx.recv().map_err(|_| WireError::Closed)?;
        if self.inner.closed.load(Ordering::SeqCst) {
            // Chain the wakeup: another receiver may still be blocked on
            // the one poke shutdown() sent.
            self.poke();
            return Err(WireError::Closed);
        }
        Ok(frame)
    }

    fn try_recv(&self) -> Result<Option<WireFrame>, WireError> {
        if self.inner.closed.load(Ordering::SeqCst) {
            return Err(WireError::Closed);
        }
        match self.inner.inbox_rx.try_recv() {
            Ok(frame) => {
                if self.inner.closed.load(Ordering::SeqCst) {
                    self.poke();
                    return Err(WireError::Closed);
                }
                Ok(Some(frame))
            }
            Err(_) => Ok(None),
        }
    }

    fn poke(&self) {
        let _ = self.inner.inbox_tx.send(WireFrame {
            src: self.inner.node,
            payload: Bytes::new(),
            transit_us: 0,
        });
    }

    fn shutdown(&self) {
        if self.inner.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake blocked receivers first, then tear connections down
        // (closing each outbox stops its writer thread).
        self.poke();
        let conns: Vec<Arc<Conn>> = {
            let mut state = self.inner.state.write();
            state.health.clear();
            state.conns.drain().map(|(_, c)| c).collect()
        };
        for conn in conns {
            conn.close();
        }
        // Unblock the accept loop with a throwaway self-connection; it
        // re-checks the closed flag and exits.
        match &self.inner.local {
            Endpoint::Tcp(addr) => {
                if let Ok(s) = TcpStream::connect(addr) {
                    let _ = s.shutdown(std::net::Shutdown::Both);
                }
            }
            Endpoint::Uds(path) => {
                if let Ok(s) = UnixStream::connect(path) {
                    let _ = s.shutdown(std::net::Shutdown::Both);
                }
                // Reap the socket file now, synchronously: once shutdown
                // returns the path must be free for a fresh bind, and the
                // accept thread (which used to reap on exit) wakes too
                // late — it could unlink a rebound incarnation's file.
                let _ = std::fs::remove_file(path);
            }
            Endpoint::Sim(_) => {}
        }
    }

    fn attach_flight(&self, flight: &FlightRecorder) {
        let _ = self.inner.flight.set(flight.clone());
    }

    fn peer_health(&self) -> Vec<(NodeId, ConnHealth)> {
        let state = self.inner.state.read();
        let mut health: Vec<(NodeId, ConnHealth)> =
            state.health.iter().map(|(n, h)| (*n, *h)).collect();
        health.sort_by_key(|(n, _)| n.0);
        health
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        // Only the last owner tears the engine down (clones of the
        // public wrappers share `inner` via Arc in Orb).
        if Arc::strong_count(&self.inner) == 1 {
            self.shutdown();
        }
    }
}

/// Real TCP: the [`SocketTransport`] engine bound to a TCP listener.
pub struct TcpTransport {
    core: SocketTransport,
}

impl TcpTransport {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an OS-assigned port) with
    /// default [`WireConfig`].
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the bind fails.
    pub fn bind(node: NodeId, addr: &str) -> Result<TcpTransport, WireError> {
        Ok(TcpTransport { core: SocketTransport::tcp(node, addr)? })
    }

    /// Bind `addr` with explicit [`WireConfig`] (outbox bounds,
    /// backpressure policy, redial schedule).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the bind fails.
    pub fn bind_with(node: NodeId, addr: &str, config: WireConfig) -> Result<TcpTransport, WireError> {
        Ok(TcpTransport { core: SocketTransport::tcp_with(node, addr, config)? })
    }

    /// The `host:port` actually bound.
    pub fn local_addr(&self) -> String {
        match self.core.local_endpoint() {
            Endpoint::Tcp(addr) => addr,
            other => other.to_string(),
        }
    }

    /// Outbox depth for the pooled connection to `peer`, `(frames, bytes)`.
    pub fn outbox_depth(&self, peer: NodeId) -> (usize, usize) {
        self.core.outbox_depth(peer)
    }

    /// Framing-protocol violations seen on the receive path.
    pub fn frame_errors(&self) -> u64 {
        self.core.frame_errors()
    }
}

/// Unix-domain sockets: the [`SocketTransport`] engine bound to a
/// filesystem path.
pub struct UdsTransport {
    core: SocketTransport,
}

impl UdsTransport {
    /// Bind the socket file at `path` (stale files are removed first)
    /// with default [`WireConfig`].
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the bind fails.
    pub fn bind(node: NodeId, path: &str) -> Result<UdsTransport, WireError> {
        Ok(UdsTransport { core: SocketTransport::uds(node, path)? })
    }

    /// Bind `path` with explicit [`WireConfig`].
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the bind fails.
    pub fn bind_with(node: NodeId, path: &str, config: WireConfig) -> Result<UdsTransport, WireError> {
        Ok(UdsTransport { core: SocketTransport::uds_with(node, path, config)? })
    }

    /// Outbox depth for the pooled connection to `peer`, `(frames, bytes)`.
    pub fn outbox_depth(&self, peer: NodeId) -> (usize, usize) {
        self.core.outbox_depth(peer)
    }

    /// Framing-protocol violations seen on the receive path.
    pub fn frame_errors(&self) -> u64 {
        self.core.frame_errors()
    }
}

macro_rules! delegate_wire {
    ($ty:ty) => {
        impl WireTransport for $ty {
            fn node(&self) -> NodeId {
                self.core.node()
            }
            fn local_endpoint(&self) -> Endpoint {
                WireTransport::local_endpoint(&self.core)
            }
            fn register_peer(&self, node: NodeId, endpoints: &[Endpoint]) -> Result<(), WireError> {
                self.core.register_peer(node, endpoints)
            }
            fn send(&self, dst: NodeId, frame: Vec<u8>) -> Result<(), WireError> {
                self.core.send(dst, frame)
            }
            fn recv(&self) -> Result<WireFrame, WireError> {
                self.core.recv()
            }
            fn try_recv(&self) -> Result<Option<WireFrame>, WireError> {
                self.core.try_recv()
            }
            fn poke(&self) {
                self.core.poke()
            }
            fn shutdown(&self) {
                self.core.shutdown()
            }
            fn attach_flight(&self, flight: &FlightRecorder) {
                self.core.attach_flight(flight)
            }
            fn peer_health(&self) -> Vec<(NodeId, ConnHealth)> {
                self.core.peer_health()
            }
        }
    };
}

delegate_wire!(TcpTransport);
delegate_wire!(UdsTransport);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_display_parse_roundtrip() {
        for ep in [
            Endpoint::Sim(NodeId(3)),
            Endpoint::Tcp("127.0.0.1:9443".to_string()),
            Endpoint::Uds("/tmp/maqs.sock".to_string()),
        ] {
            assert_eq!(Endpoint::parse(&ep.to_string()).unwrap(), ep);
        }
        assert!(Endpoint::parse("ftp:nope").is_err());
        assert!(Endpoint::parse("sim:notanum").is_err());
        assert!(Endpoint::parse("tcp:").is_err());
    }

    #[test]
    fn endpoint_cdr_roundtrip() {
        let eps = vec![
            Endpoint::Sim(NodeId(7)),
            Endpoint::Tcp("localhost:1".to_string()),
            Endpoint::Uds("/x".to_string()),
        ];
        let mut enc = CdrEncoder::new();
        for e in &eps {
            e.encode(&mut enc);
        }
        let bytes = enc.into_bytes();
        let mut dec = CdrDecoder::new(&bytes);
        for e in &eps {
            assert_eq!(&Endpoint::decode(&mut dec).unwrap(), e);
        }
    }

    #[test]
    fn wire_error_maps_to_orb_error() {
        assert_eq!(OrbError::from(WireError::Closed), OrbError::Shutdown);
        assert!(matches!(
            OrbError::from(WireError::Unreachable("x".into())),
            OrbError::CommFailure(_)
        ));
        assert!(matches!(
            OrbError::from(WireError::Backpressure("full".into())),
            OrbError::Transient(_)
        ));
        assert!(matches!(OrbError::from(WireError::Frame("torn".into())), OrbError::CommFailure(_)));
    }

    #[test]
    fn netsim_transport_roundtrip_and_poke() {
        let net = netsim::Network::new(1);
        let a = NetSimTransport::new(net.attach("a"));
        let b = NetSimTransport::new(net.attach("b"));
        a.send(b.node(), vec![1, 2, 3]).unwrap();
        let f = b.recv().unwrap();
        assert_eq!(f.src, a.node());
        assert_eq!(&f.payload[..], &[1, 2, 3]);
        b.poke();
        assert!(b.recv().unwrap().payload.is_empty());
        b.shutdown();
        assert_eq!(b.recv().unwrap_err(), WireError::Closed);
    }

    #[test]
    fn tcp_transport_roundtrip() {
        let a = TcpTransport::bind(NodeId(1), "127.0.0.1:0").unwrap();
        let b = TcpTransport::bind(NodeId(2), "127.0.0.1:0").unwrap();
        a.register_peer(NodeId(2), &[b.local_endpoint()]).unwrap();
        a.send(NodeId(2), vec![9, 9, 9]).unwrap();
        let f = b.recv().unwrap();
        assert_eq!(f.src, NodeId(1));
        assert_eq!(&f.payload[..], &[9, 9, 9]);
        // The reply direction reuses the pooled hello'd connection —
        // b never registered a for this to work.
        b.send(NodeId(1), vec![7]).unwrap();
        assert_eq!(&a.recv().unwrap().payload[..], &[7]);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn send_to_unregistered_peer_is_unreachable() {
        let a = TcpTransport::bind(NodeId(1), "127.0.0.1:0").unwrap();
        assert!(matches!(a.send(NodeId(99), vec![1]), Err(WireError::Unreachable(_))));
        a.shutdown();
    }

    #[test]
    fn register_keeps_conn_for_same_endpoints_but_evicts_on_change() {
        let a = TcpTransport::bind(NodeId(1), "127.0.0.1:0").unwrap();
        let b = TcpTransport::bind(NodeId(2), "127.0.0.1:0").unwrap();
        let eps = [b.local_endpoint()];
        a.register_peer(NodeId(2), &eps).unwrap();
        a.send(NodeId(2), vec![1]).unwrap();
        assert_eq!(&b.recv().unwrap().payload[..], &[1]);
        // Same list again: the pooled connection must survive (this is
        // the per-invoke path — evicting here would kill pooling).
        a.register_peer(NodeId(2), &eps).unwrap();
        assert_eq!(a.peer_health(), vec![(NodeId(2), ConnHealth::Up)]);
        // A different list evicts.
        let c = TcpTransport::bind(NodeId(2), "127.0.0.1:0").unwrap();
        a.register_peer(NodeId(2), &[c.local_endpoint()]).unwrap();
        a.send(NodeId(2), vec![2]).unwrap();
        assert_eq!(&c.recv().unwrap().payload[..], &[2]);
        a.shutdown();
        b.shutdown();
        c.shutdown();
    }

    #[test]
    fn health_reports_up_after_dial() {
        let a = TcpTransport::bind(NodeId(1), "127.0.0.1:0").unwrap();
        let b = TcpTransport::bind(NodeId(2), "127.0.0.1:0").unwrap();
        assert!(a.peer_health().is_empty());
        a.register_peer(NodeId(2), &[b.local_endpoint()]).unwrap();
        a.send(NodeId(2), vec![1]).unwrap();
        assert_eq!(a.peer_health(), vec![(NodeId(2), ConnHealth::Up)]);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn shed_policy_rejects_when_outbox_full() {
        // One-frame outbox against a peer that never drains: the first
        // send occupies the queue (the writer may also move it into the
        // kernel buffer), later sends shed once the queue holds a frame.
        let cfg = WireConfig {
            outbox_frames: 1,
            outbox_bytes: 64,
            backpressure: BackpressurePolicy::Shed,
            ..WireConfig::default()
        };
        let a = TcpTransport::bind_with(NodeId(1), "127.0.0.1:0", cfg).unwrap();
        // A raw listener that accepts and never reads: the stalled peer.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let _stalled = std::thread::spawn(move || {
            let conns: Vec<TcpStream> = listener.incoming().take(1).flatten().collect();
            std::thread::sleep(Duration::from_secs(4));
            drop(conns);
        });
        a.register_peer(NodeId(2), &[Endpoint::Tcp(addr)]).unwrap();
        // Push until the socket buffer and the 1-frame outbox are both
        // full; with a stalled reader this happens in well under the
        // frame budget.
        let mut shed = 0;
        for _ in 0..10_000 {
            match a.send(NodeId(2), vec![0u8; 16 * 1024]) {
                Ok(()) => {}
                Err(WireError::Backpressure(_)) => {
                    shed += 1;
                    if shed > 3 {
                        break;
                    }
                }
                Err(other) => panic!("expected backpressure, got {other}"),
            }
        }
        assert!(shed > 0, "a stalled peer must trigger Backpressure under Shed");
        let (frames, bytes) = a.outbox_depth(NodeId(2));
        assert!(frames <= 1, "outbox must stay bounded, had {frames} frames");
        assert!(bytes <= 16 * 1024, "outbox bytes must stay bounded, had {bytes}");
        a.shutdown();
    }
}
