//! One connection of the socket engine: the bounded outbox senders
//! enqueue into, the writer thread draining it, the reader thread
//! feeding the transport's inbox — and [`attach`], the one place a
//! connected stream is wired to all three.

use super::socket::SocketInner;
use super::{frame, BackpressurePolicy, ConnHealth, WireConfig, WireFrame};
use crate::flight::FlightEventKind;
use crate::sync::{LockRank, OrderedCondvar, OrderedMutex};
use bytes::Bytes;
use netsim::NodeId;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What the engine needs of a connected stream, whichever address
/// family it belongs to.
pub(super) trait Stream: Read + Write + Send {
    fn try_clone(&self) -> std::io::Result<SocketStream>;
    fn shutdown(&self, how: Shutdown);
}

pub(super) type SocketStream = Box<dyn Stream>;

impl Stream for TcpStream {
    fn try_clone(&self) -> std::io::Result<SocketStream> {
        Ok(Box::new(TcpStream::try_clone(self)?))
    }
    fn shutdown(&self, how: Shutdown) {
        let _ = TcpStream::shutdown(self, how);
    }
}

impl Stream for UnixStream {
    fn try_clone(&self) -> std::io::Result<SocketStream> {
        Ok(Box::new(UnixStream::try_clone(self)?))
    }
    fn shutdown(&self, how: Shutdown) {
        let _ = UnixStream::shutdown(self, how);
    }
}

/// Why an enqueue did not accept the frame.
pub(super) enum EnqueueFail {
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
    /// Cleared by [`Conn::retire`] and [`Conn::close`]; the writer
    /// drains out and exits.
    open: bool,
}

/// One connection: the bounded outbox senders enqueue into, the
/// condvars pairing it with the writer thread, and a control clone of
/// the current stream so `close()` can unblock a writer stuck in
/// `write_all`. The read half lives on a reader thread holding its own
/// stream clone; all halves share the OS socket, so shutting one down
/// unblocks the others.
pub(super) struct Conn {
    pub(super) peer: NodeId,
    outbox: OrderedMutex<Outbox>,
    /// Signalled when a frame lands in the outbox (writer waits here).
    data: OrderedCondvar,
    /// Signalled when the writer frees space (blocked senders wait here).
    space: OrderedCondvar,
    /// Clone of the *current* stream, for shutdown from other threads;
    /// replaced when a redial attaches a fresh stream.
    ctl: OrderedMutex<Option<SocketStream>>,
    closed: AtomicBool,
}

impl Conn {
    pub(super) fn new(peer: NodeId) -> Conn {
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

    /// Close the connection: mark the outbox closed (waking the writer
    /// and any blocked senders) and shut the socket down so a writer
    /// stuck mid-`write_all` and the blocked reader unblock. Idempotent.
    pub(super) fn close(&self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        drop(self.retire());
        if let Some(stream) = self.ctl.lock().as_ref() {
            stream.shutdown(Shutdown::Both);
        }
    }

    /// Stop being a send path, gracefully: the outbox closes and hands
    /// back what was still queued (for the connection that replaces this
    /// one), the writer finishes the frame it is on and half-closes the
    /// stream, and the reader keeps pumping until the *peer* hangs up —
    /// the peer may have pooled this very stream and still be sending
    /// on it (simultaneous open).
    pub(super) fn retire(&self) -> VecDeque<Vec<u8>> {
        let queued = {
            let mut ob = self.outbox.lock();
            ob.open = false;
            ob.bytes = 0;
            std::mem::take(&mut ob.q)
        };
        self.data.notify_all();
        self.space.notify_all();
        queued
    }

    /// Take over the frames a retired predecessor still had queued,
    /// ahead of anything enqueued here since.
    pub(super) fn adopt(&self, frames: VecDeque<Vec<u8>>) {
        if frames.is_empty() {
            return;
        }
        let mut ob = self.outbox.lock();
        ob.bytes += frames.iter().map(Vec::len).sum::<usize>();
        for frame in frames.into_iter().rev() {
            ob.q.push_front(frame);
        }
        drop(ob);
        self.data.notify_one();
    }

    /// Whether senders may still enqueue (neither retired nor closed).
    pub(super) fn is_open(&self) -> bool {
        self.outbox.lock().open
    }

    /// Queue `frame` for the writer thread, applying the outbox bounds
    /// and backpressure policy. A frame larger than the byte bound is
    /// still accepted when the queue is empty (MAX_WIRE_FRAME is the
    /// hard cap). On failure the frame is handed back untouched.
    pub(super) fn enqueue(
        &self,
        frame: Vec<u8>,
        cfg: &WireConfig,
    ) -> Result<(), (Vec<u8>, EnqueueFail)> {
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

    /// Writer side: block until a frame is queued or the outbox closes.
    /// Frees space (and wakes blocked senders) on pop.
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
    pub(super) fn depth(&self) -> (usize, usize) {
        let ob = self.outbox.lock();
        (ob.q.len(), ob.bytes)
    }
}

/// Wire `stream` to `conn`: publish a control clone, start a
/// `wire-read-*` thread pumping a second clone into the inbox and a
/// `wire-write-*` thread draining the outbox onto the stream itself.
/// Accepted, dialed and redialed streams all come through here; `retry`
/// is the frame a redialing writer hands its successor.
///
/// # Errors
///
/// The OS refusing a clone or a thread, or `conn` having been closed
/// while the stream was being set up (the stream is shut down, never
/// resurrected). The caller drops the connection.
pub(super) fn attach(
    inner: &Arc<SocketInner>,
    conn: &Arc<Conn>,
    stream: SocketStream,
    retry: Option<Vec<u8>>,
) -> std::io::Result<()> {
    let reader = stream.try_clone()?;
    *conn.ctl.lock() = Some(stream.try_clone()?);
    if conn.closed.load(Ordering::SeqCst) {
        // `close()` may have run before the control clone was in place.
        stream.shutdown(Shutdown::Both);
        return Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionAborted,
            "connection closed while its stream was being attached",
        ));
    }
    let (inner_r, conn_r) = (Arc::clone(inner), Arc::clone(conn));
    std::thread::Builder::new()
        .name(format!("wire-read-{}", inner.node.0))
        .spawn(move || read_frames(&inner_r, reader, &conn_r))?;
    let (inner_w, conn_w) = (Arc::clone(inner), Arc::clone(conn));
    std::thread::Builder::new()
        .name(format!("wire-write-{}", inner.node.0))
        .spawn(move || writer_loop(&inner_w, &conn_w, stream, retry))?;
    Ok(())
}

/// Pump length-prefixed frames off `stream` into the inbox. A framing
/// violation is a typed [`super::WireError::Frame`] that kills **this
/// connection only**; a clean EOF just ends the reader — the write half
/// stays pooled and the writer discovers (and redials) on its next send.
fn read_frames(inner: &Arc<SocketInner>, mut stream: SocketStream, conn: &Arc<Conn>) {
    loop {
        let body = match frame::read_frame(&mut stream, conn.peer) {
            Ok(Some(body)) => body,
            Ok(None) => return,
            Err(err) => {
                inner.frame_errors.fetch_add(1, Ordering::Relaxed);
                inner.drop_conn(conn);
                inner.emit(FlightEventKind::WireConnReset, err.to_string());
                return;
            }
        };
        let frame = WireFrame { src: conn.peer, payload: Bytes::from(body), transit_us: 0 };
        if inner.inbox_tx.send(frame).is_err() {
            return;
        }
    }
}

/// Drain `conn`'s outbox onto `stream`. On a failed write the frame in
/// hand goes to [`SocketInner::redial`], which attaches a fresh stream
/// (and with it a successor writer that retries the frame once) or
/// abandons the connection; this thread ends either way. When the
/// outbox closes the stream is half-closed, so the peer sees a clean
/// end of stream while its own frames can still arrive.
fn writer_loop(
    inner: &Arc<SocketInner>,
    conn: &Arc<Conn>,
    mut stream: SocketStream,
    retry: Option<Vec<u8>>,
) {
    if let Some(frame) = retry {
        // The peer may or may not have seen the torn write; retry once
        // on the fresh stream (the at-most-once window a reset has).
        if frame::write_frame(&mut stream, &frame).is_err() {
            inner.abandon(conn, "write failed again on a fresh connection");
            return;
        }
    }
    while let Some(frame) = conn.next_frame() {
        let Err(first) = frame::write_frame(&mut stream, &frame) else { continue };
        if !conn.is_open() {
            // Retired or closed while writing: whoever did that owns the
            // peer's health and send path now.
            break;
        }
        inner.state.write().health.insert(conn.peer, ConnHealth::Draining);
        inner.emit(
            FlightEventKind::WireConnReset,
            format!("write to node {} failed: {first}; redialing", conn.peer.0),
        );
        inner.redial(conn, frame);
        return;
    }
    stream.shutdown(Shutdown::Write);
}
