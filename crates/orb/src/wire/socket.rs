//! The socket engine behind [`TcpTransport`] and [`UdsTransport`]:
//! listener and accept loop, the peer registry and connection pool, and
//! the [`WireTransport`] implementation over them.

use super::conn::{attach, Conn, EnqueueFail, SocketStream};
use super::dialer::{connect, PeerRoute};
use super::{frame, ConnHealth, Endpoint, WireConfig, WireError, WireFrame, WireTransport};
use crate::flight::{FlightEventKind, FlightRecorder};
use crate::sync::{LockRank, OrderedRwLock};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use netsim::NodeId;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::net::{Shutdown, TcpListener};
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Blocks for the next inbound connection of a bound listener.
type Accept = Box<dyn Fn() -> std::io::Result<SocketStream> + Send>;

/// Peer registry + connection pool + health map, under
/// [`LockRank::WireState`].
#[derive(Default)]
pub(super) struct WireState {
    pub(super) peers: HashMap<NodeId, PeerRoute>,
    /// The one send path per peer.
    pub(super) conns: HashMap<NodeId, Arc<Conn>>,
    pub(super) health: HashMap<NodeId, ConnHealth>,
    /// Retired connections whose reader may still be pumping, kept so
    /// `shutdown()` can close their sockets too.
    retired: Vec<Arc<Conn>>,
}

impl WireState {
    /// Keep a retired connection reachable for shutdown. Entries whose
    /// reader and writer threads have both exited (nobody else holds
    /// the `Arc`) are dropped on the way.
    pub(super) fn park(&mut self, conn: Arc<Conn>) {
        self.retired.retain(|c| Arc::strong_count(c) > 1);
        self.retired.push(conn);
    }
}

pub(super) struct SocketInner {
    pub(super) node: NodeId,
    local: Endpoint,
    config: WireConfig,
    pub(super) state: OrderedRwLock<WireState>,
    pub(super) inbox_tx: Sender<WireFrame>,
    inbox_rx: Receiver<WireFrame>,
    pub(super) closed: AtomicBool,
    flight: OnceLock<FlightRecorder>,
    pub(super) frame_errors: AtomicU64,
}

impl SocketInner {
    /// Record a lifecycle event in the attached flight recorder.
    pub(super) fn emit(&self, kind: FlightEventKind, detail: String) {
        if let Some(flight) = self.flight.get() {
            flight.record_detail(kind, "wire", None, detail);
        }
    }

    /// Vacate `conn`'s pool slot — but only if the slot still holds this
    /// very connection (a newer one may already have replaced it) — and
    /// mark the peer `Down` when it did.
    fn unpool(&self, conn: &Arc<Conn>) {
        let mut state = self.state.write();
        if state.conns.get(&conn.peer).is_some_and(|current| Arc::ptr_eq(current, conn)) {
            state.conns.remove(&conn.peer);
            state.health.insert(conn.peer, ConnHealth::Down);
        }
    }

    /// Drop `conn` from the pool (if it is still there) and close it
    /// either way.
    pub(super) fn drop_conn(&self, conn: &Arc<Conn>) {
        self.unpool(conn);
        conn.close();
    }

    /// Drop `conn` because its stream could not be recovered.
    pub(super) fn abandon(&self, conn: &Arc<Conn>, why: &str) {
        self.drop_conn(conn);
        self.emit(
            FlightEventKind::WireConnReset,
            format!("connection to node {} abandoned: {why}", conn.peer.0),
        );
    }

    /// Accept peers until shutdown. The hello is read off this thread
    /// (a silent peer must not stall other accepts), on a `wire-hello-*`
    /// thread that ends once the connection's reader and writer are
    /// attached.
    fn accept_loop(self: &Arc<Self>, accept: Accept) {
        loop {
            let stream = accept();
            if self.closed.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let inner = Arc::clone(self);
            let _ = std::thread::Builder::new()
                .name(format!("wire-hello-{}", self.node.0))
                .spawn(move || inner.serve_accepted(stream));
        }
        // Listener dropped here. The UDS socket file is reaped by
        // shutdown(), not here: this thread wakes asynchronously, and a
        // restarted peer may already have rebound the same path — reaping
        // late would unlink the *new* incarnation's file.
    }

    /// Read the dialer's hello and pool the stream for the reply
    /// direction — **superseding** any previously pooled connection for
    /// that peer (a fresh hello is positive evidence of a new
    /// incarnation; the stale write half would make one send fail
    /// before redial). The superseded connection is retired, not torn
    /// down: its queued frames move to the replacement and its reader
    /// keeps listening, so two peers dialing each other at once lose
    /// nothing. Pooled *before* attaching, so the first request's reply
    /// already finds its way back.
    fn serve_accepted(self: &Arc<Self>, mut stream: SocketStream) {
        let Some(peer) = frame::read_hello(&mut stream) else {
            stream.shutdown(Shutdown::Both);
            return;
        };
        let conn = Arc::new(Conn::new(peer));
        let superseded = {
            let mut state = self.state.write();
            // shutdown() sets `closed` before it drains the pool under
            // this lock: a hello that finishes after the drain must not
            // pool a connection nobody will ever close (the peer would
            // keep writing into a transport whose inbox is gone).
            if self.closed.load(Ordering::SeqCst) {
                stream.shutdown(Shutdown::Both);
                return;
            }
            state.health.insert(peer, ConnHealth::Up);
            let old = state.conns.insert(peer, Arc::clone(&conn));
            if let Some(old) = &old {
                conn.adopt(old.retire());
                state.park(Arc::clone(old));
            }
            old.is_some()
        };
        if superseded {
            self.emit(
                FlightEventKind::WireConnReset,
                format!("stale pooled connection to node {} superseded by reconnect", peer.0),
            );
        }
        if attach(self, &conn, stream, None).is_err() {
            self.drop_conn(&conn);
        }
    }
}

/// The socket engine: a listener ("reactor") thread accepting peers,
/// one reader thread per connection feeding a common inbox, and
/// per-peer pooled connections each drained by a writer thread from a
/// bounded outbox ([`WireConfig`], [`super::BackpressurePolicy`]).
/// Failed writes redial with capped exponential backoff + jitter across
/// the peer's registered endpoint list (health-scored failover).
///
/// Framing on the stream is a `u32` little-endian length prefix followed
/// by exactly the bytes the ORB's `giop::frame_*` path produced — the
/// single-allocation frame *is* the wire payload, no re-encode. A new
/// connection opens with a 9-byte hello (`MAQW`, version, dialer's
/// `NodeId`) so the acceptor learns which identity the stream speaks
/// for and can route replies back over it.
///
/// `F` only names the address family the listener was bound in
/// ([`TcpTransport`], [`UdsTransport`]); everything after `bind` is the
/// same code.
pub struct SocketTransport<F> {
    inner: Arc<SocketInner>,
    family: PhantomData<fn() -> F>,
}

/// Address-family marker of [`TcpTransport`].
pub struct TcpFamily;
/// Address-family marker of [`UdsTransport`].
pub struct UdsFamily;

/// Real TCP: the [`SocketTransport`] engine bound to a TCP listener.
pub type TcpTransport = SocketTransport<TcpFamily>;
/// Unix-domain sockets: the [`SocketTransport`] engine bound to a
/// filesystem path.
pub type UdsTransport = SocketTransport<UdsFamily>;

impl SocketTransport<TcpFamily> {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an OS-assigned port) with
    /// default [`WireConfig`].
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the bind fails.
    pub fn bind(node: NodeId, addr: &str) -> Result<TcpTransport, WireError> {
        TcpTransport::bind_with(node, addr, WireConfig::default())
    }

    /// Bind `addr` with explicit [`WireConfig`] (outbox bounds,
    /// backpressure policy).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the bind fails.
    pub fn bind_with(node: NodeId, addr: &str, config: WireConfig) -> Result<TcpTransport, WireError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| WireError::Io(format!("bind {addr}: {e}")))?;
        let local = listener.local_addr().map_err(|e| WireError::Io(e.to_string()))?.to_string();
        let accept = move || {
            listener.accept().map(|(s, _)| {
                // Replies ride back over accepted streams; without
                // NODELAY they stall ~40ms on Nagle + delayed ACK.
                let _ = s.set_nodelay(true);
                Box::new(s) as SocketStream
            })
        };
        SocketTransport::start(node, Endpoint::Tcp(local), Box::new(accept), config)
    }

    /// The `host:port` actually bound.
    pub fn local_addr(&self) -> String {
        match &self.inner.local {
            Endpoint::Tcp(addr) => addr.clone(),
            other => other.to_string(),
        }
    }
}

impl SocketTransport<UdsFamily> {
    /// Bind the socket file at `path` with default [`WireConfig`]. A
    /// stale socket file from a previous run is removed first, which is
    /// what lets a restarted peer rebind the same endpoint.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the bind fails.
    pub fn bind(node: NodeId, path: &str) -> Result<UdsTransport, WireError> {
        UdsTransport::bind_with(node, path, WireConfig::default())
    }

    /// Bind `path` with explicit [`WireConfig`].
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] if the bind fails.
    pub fn bind_with(node: NodeId, path: &str, config: WireConfig) -> Result<UdsTransport, WireError> {
        if std::fs::metadata(path).is_ok() {
            let _ = std::fs::remove_file(path);
        }
        let listener =
            UnixListener::bind(path).map_err(|e| WireError::Io(format!("bind {path}: {e}")))?;
        let accept = move || listener.accept().map(|(s, _)| Box::new(s) as SocketStream);
        SocketTransport::start(node, Endpoint::Uds(path.to_string()), Box::new(accept), config)
    }
}

impl<F> SocketTransport<F> {
    /// Start the accept thread on a bound listener.
    fn start(
        node: NodeId,
        local: Endpoint,
        accept: Accept,
        config: WireConfig,
    ) -> Result<SocketTransport<F>, WireError> {
        let (inbox_tx, inbox_rx) = unbounded::<WireFrame>();
        let inner = Arc::new(SocketInner {
            node,
            local,
            config,
            state: OrderedRwLock::new(
                LockRank::WireState,
                WireState::default(),
            ),
            inbox_tx,
            inbox_rx,
            closed: AtomicBool::new(false),
            flight: OnceLock::new(),
            frame_errors: AtomicU64::new(0),
        });
        {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("wire-accept-{}", inner.node.0))
                .spawn(move || inner.accept_loop(accept))
                .map_err(|e| WireError::Io(format!("spawn accept thread: {e}")))?;
        }
        Ok(SocketTransport { inner, family: PhantomData })
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

    fn check_open(&self) -> Result<(), WireError> {
        if self.inner.closed.load(Ordering::SeqCst) {
            return Err(WireError::Closed);
        }
        Ok(())
    }

    /// A receiver woken by `shutdown()`'s one poke passes the wakeup on:
    /// another receiver may still be blocked.
    fn check_open_chaining_wakeup(&self) -> Result<(), WireError> {
        self.check_open().inspect_err(|_| self.poke())
    }
}

impl<F> WireTransport for SocketTransport<F> {
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
                state.peers.insert(node, PeerRoute::new(dialable));
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
        self.check_open()?;
        let mut frame = frame;
        // Two passes: if the pooled connection closes under us (writer
        // gave up, eviction or supersession raced in) the frame is
        // handed back and we retry once on whatever is pooled next.
        for _ in 0..2 {
            let conn = self.inner.get_or_dial(dst)?;
            match conn.enqueue(frame, &self.inner.config) {
                Ok(()) => return Ok(()),
                Err((f, EnqueueFail::ConnClosed)) => {
                    frame = f;
                    // Whoever closed or retired it owns its sockets; just
                    // make sure the slot does not keep offering it.
                    self.inner.unpool(&conn);
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
        self.check_open()?;
        let frame = self.inner.inbox_rx.recv().map_err(|_| WireError::Closed)?;
        self.check_open_chaining_wakeup()?;
        Ok(frame)
    }

    fn try_recv(&self) -> Result<Option<WireFrame>, WireError> {
        self.check_open()?;
        let Ok(frame) = self.inner.inbox_rx.try_recv() else { return Ok(None) };
        self.check_open_chaining_wakeup()?;
        Ok(Some(frame))
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
            let state = &mut *state;
            state.conns.drain().map(|(_, c)| c).chain(state.retired.drain(..)).collect()
        };
        for conn in conns {
            conn.close();
        }
        // Unblock the accept loop with a throwaway self-connection; it
        // re-checks the closed flag and exits.
        if let Ok(stream) = connect(&self.inner.local) {
            stream.shutdown(Shutdown::Both);
        }
        if let Endpoint::Uds(path) = &self.inner.local {
            // Reap the socket file now, synchronously: once shutdown
            // returns the path must be free for a fresh bind, and the
            // accept thread (which used to reap on exit) wakes too
            // late — it could unlink a rebound incarnation's file.
            let _ = std::fs::remove_file(path);
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
