//! Reaching a peer: the health-scored walk over its endpoint list, the
//! pool lookup that dials on a miss, and the backoff-and-jitter redial
//! a failed write triggers.

use super::conn::{attach, Conn, SocketStream};
use super::socket::SocketInner;
use super::{frame, ConnHealth, Endpoint, WireError};
use crate::flight::FlightEventKind;
use crate::retry::RetryPolicy;
use netsim::rng::SplitMix64;
use netsim::NodeId;
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Redial schedule after a failed write: `max_attempts` dial walks over
/// the peer's endpoint list with capped exponential backoff between
/// them — the [`RetryPolicy`] shape, kept as data rather than a second
/// backoff implementation. Each backoff is randomized to 50–100 % of the
/// scheduled value, from a sequence seeded by the node and peer ids, so
/// restarting fleets do not thunder in lockstep.
const REDIAL: RetryPolicy = RetryPolicy {
    max_attempts: 4,
    initial_backoff: Duration::from_millis(20),
    backoff_factor: 2,
    max_backoff: Duration::from_millis(500),
};

/// Route to one peer: the ordered endpoint list from its IOR, a
/// consecutive-failure score per endpoint, and which one is active.
pub(super) struct PeerRoute {
    pub(super) endpoints: Vec<Endpoint>,
    fails: Vec<u32>,
    active: usize,
}

impl PeerRoute {
    pub(super) fn new(endpoints: Vec<Endpoint>) -> PeerRoute {
        let fails = vec![0; endpoints.len()];
        PeerRoute { endpoints, fails, active: 0 }
    }
}

fn unregistered(dst: NodeId) -> WireError {
    WireError::Unreachable(format!("no endpoint registered for node {}", dst.0))
}

/// Connect to `endpoint` (no hello yet).
pub(super) fn connect(endpoint: &Endpoint) -> Result<SocketStream, WireError> {
    match endpoint {
        Endpoint::Tcp(addr) => {
            let s = TcpStream::connect(addr)
                .map_err(|e| WireError::Unreachable(format!("dial {addr}: {e}")))?;
            let _ = s.set_nodelay(true);
            Ok(Box::new(s))
        }
        Endpoint::Uds(path) => Ok(Box::new(
            UnixStream::connect(path)
                .map_err(|e| WireError::Unreachable(format!("dial {path}: {e}")))?,
        )),
        Endpoint::Sim(_) => {
            Err(WireError::Unsupported(format!("socket transport cannot dial {endpoint}")))
        }
    }
}

impl SocketInner {
    /// Dial `endpoint` and send the hello; the caller attaches the
    /// stream to a connection.
    fn dial_stream(&self, endpoint: &Endpoint) -> Result<SocketStream, WireError> {
        let mut stream = connect(endpoint)?;
        frame::write_hello(&mut stream, self.node)
            .map_err(|e| WireError::Io(format!("hello: {e}")))?;
        Ok(stream)
    }

    /// Walk `dst`'s endpoint list health-first (fewest consecutive
    /// failures, list order as tie-break) and dial until one answers.
    /// Returns the stream, the endpoint, and whether the active
    /// endpoint changed (a failover).
    fn dial_walk(&self, dst: NodeId) -> Result<(SocketStream, Endpoint, bool), WireError> {
        let candidates: Vec<(usize, Endpoint)> = {
            let state = self.state.read();
            let route = state.peers.get(&dst).ok_or_else(|| unregistered(dst))?;
            let mut order: Vec<usize> = (0..route.endpoints.len()).collect();
            order.sort_by_key(|&i| (route.fails[i], i));
            order.into_iter().map(|i| (i, route.endpoints[i].clone())).collect()
        };
        let mut last_err = unregistered(dst);
        for (idx, endpoint) in candidates {
            match self.dial_stream(&endpoint) {
                Ok(stream) => {
                    let failover = {
                        let mut state = self.state.write();
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
                    let mut state = self.state.write();
                    if let Some(route) = state.peers.get_mut(&dst) {
                        route.fails[idx] = route.fails[idx].saturating_add(1);
                    }
                    last_err = e;
                }
            }
        }
        Err(last_err)
    }

    fn emit_failover(&self, dst: NodeId, endpoint: &Endpoint) {
        self.emit(
            FlightEventKind::WireFailover,
            format!("failed over node {} to {endpoint}", dst.0),
        );
    }

    /// The pooled connection to `dst`, dialing one (with failover walk)
    /// if none exists.
    pub(super) fn get_or_dial(self: &Arc<Self>, dst: NodeId) -> Result<Arc<Conn>, WireError> {
        {
            let state = self.state.read();
            if let Some(conn) = state.conns.get(&dst) {
                return Ok(Arc::clone(conn));
            }
            if !state.peers.contains_key(&dst) {
                return Err(unregistered(dst));
            }
        }
        // Dial outside the state lock — connects can block.
        let (stream, endpoint, failover) = self.dial_walk(dst)?;
        let conn = Arc::new(Conn::new(dst));
        let established = {
            let mut state = self.state.write();
            match state.conns.get(&dst).cloned() {
                Some(existing) => {
                    // Lost the race; send over the established one. Ours
                    // already said hello, so the peer may pool it and
                    // answer on it: it is born retired — read from,
                    // never written to — rather than torn down.
                    conn.retire();
                    state.park(Arc::clone(&conn));
                    Some(existing)
                }
                None => {
                    state.conns.insert(dst, Arc::clone(&conn));
                    state.health.insert(dst, ConnHealth::Up);
                    None
                }
            }
        };
        let attached = attach(self, &conn, stream, None);
        if attached.is_err() {
            self.drop_conn(&conn);
        }
        if let Some(existing) = established {
            return Ok(existing);
        }
        attached.map_err(|e| WireError::Io(e.to_string()))?;
        self.emit(FlightEventKind::WireDial, format!("dialed node {} at {endpoint}", dst.0));
        if failover {
            self.emit_failover(dst, &endpoint);
        }
        Ok(conn)
    }

    /// Redial `conn`'s peer under the [`REDIAL`] schedule, walking the
    /// endpoint list health-first on each attempt. On success the fresh
    /// stream is attached — its writer retries `frame`, the frame the
    /// failed write was carrying — otherwise the connection is abandoned.
    pub(super) fn redial(self: &Arc<Self>, conn: &Arc<Conn>, frame: Vec<u8>) {
        // Shutdown, supersession and eviction all end the recovery.
        let cancelled = || self.closed.load(Ordering::SeqCst) || !conn.is_open();
        let attempts = REDIAL.max_attempts;
        // Seeded per (node, peer): two nodes redialling one peer do not
        // back off in step, and a run replays.
        let mut jitter = SplitMix64::new(u64::from(self.node.0) << 32 | u64::from(conn.peer.0));
        for attempt in 1..=attempts {
            if cancelled() {
                break;
            }
            let e = match self.dial_walk(conn.peer) {
                Ok((stream, endpoint, failover)) => {
                    if attach(self, conn, stream, Some(frame)).is_err() {
                        break;
                    }
                    self.emit(
                        FlightEventKind::WireRedial,
                        format!(
                            "re-established node {} at {endpoint} (attempt {attempt})",
                            conn.peer.0
                        ),
                    );
                    if failover {
                        self.emit_failover(conn.peer, &endpoint);
                    }
                    return;
                }
                Err(e) => e,
            };
            let failed =
                format!("redial node {} attempt {attempt}/{attempts} failed: {e}", conn.peer.0);
            if attempt == attempts {
                self.emit(FlightEventKind::WireRedial, failed);
                break;
            }
            let backoff = REDIAL.backoff(attempt) * (50 + jitter.below(51) as u32) / 100;
            self.emit(FlightEventKind::WireRedial, format!("{failed}; backing off {backoff:?}"));
            // Sleep in slices so shutdown isn't held up by a long backoff.
            let deadline = Instant::now() + backoff;
            while Instant::now() < deadline && !cancelled() {
                std::thread::sleep((deadline - Instant::now()).min(Duration::from_millis(20)));
            }
        }
        self.abandon(conn, "redial exhausted");
    }
}
