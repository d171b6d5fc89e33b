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
//! * Frames racing connection setup are delivered exactly once: every
//!   stream that carried a hello is read until its peer closes it, and a
//!   connection superseded by a fresh hello (or a dial that lost the race
//!   for the pool slot) is *retired* — queue handed to its replacement,
//!   write half closed, read half kept — never torn down under the peer.
//!
//! The conformance suite in `crates/orb/tests/wire_conformance.rs`
//! checks these properties — and a fault matrix over the injectable
//! failures — against every backend.


mod conn;
mod dialer;
pub mod fault;
mod frame;
mod netsim;
mod socket;
#[cfg(test)]
mod tests;

pub use self::frame::{MAX_WIRE_FRAME, WIRE_MAGIC, WIRE_VERSION};
pub use self::netsim::NetSimTransport;
pub use self::socket::{SocketTransport, TcpTransport, UdsTransport};

use crate::cdr::{CdrDecoder, CdrEncoder};
use crate::error::OrbError;
use crate::flight::FlightRecorder;
use ::netsim::NodeId;
use bytes::Bytes;
use std::fmt;
use std::time::Duration;

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

/// Tuning knobs of the socket engine (outbox bounds, backpressure).
/// The defaults suit tests and LAN traffic; servers under heavy fan-in
/// may want larger outboxes and `Shed`.
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
}

impl Default for WireConfig {
    fn default() -> WireConfig {
        WireConfig {
            outbox_frames: 1024,
            outbox_bytes: 16 * 1024 * 1024,
            backpressure: BackpressurePolicy::default(),
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
