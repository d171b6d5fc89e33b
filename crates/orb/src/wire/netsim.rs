//! The deterministic default backend: the simulator behind the
//! [`WireTransport`] boundary.

use super::{Endpoint, WireError, WireFrame, WireTransport};
use netsim::{NetHandle, NodeId};
use std::sync::atomic::{AtomicBool, Ordering};

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

fn frame_of(msg: netsim::Message) -> WireFrame {
    WireFrame { src: msg.src, transit_us: msg.transit().as_micros(), payload: msg.payload }
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
        Ok(frame_of(msg))
    }

    fn try_recv(&self) -> Result<Option<WireFrame>, WireError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(WireError::Closed);
        }
        match self.handle.try_recv() {
            Ok(msg) => Ok(Some(frame_of(msg))),
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
