//! Receive and route (Fig. 1 "receive/route", server half of the Fig. 3
//! decision tree up to the dispatcher queue): the receive loop drains
//! the wire in bursts, un-wraps QoS packets through their module, routes
//! requests to dispatcher shards by key hash, and matches replies to
//! waiting callers inline.

use super::dispatch::{DispatchCmd, DispatchWork};
use super::{Event, Orb, OrbInner};
use crate::giop::{self, GiopMessage, GiopPeek, Packet, PacketView};
use crate::trace::{TraceContext, TRACE_CONTEXT_ID};
use crate::wire::WireFrame;
use bytes::Bytes;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

thread_local! {
    /// Receive-loop sampling counter for `transport.inbound_us` (each
    /// ORB's receive loop is one thread, so a plain `Cell` suffices).
    static INBOUND_SAMPLE: std::cell::Cell<u32> = std::cell::Cell::new(0);
}

impl Orb {
    pub(super) fn spawn_receive_loop(&self) -> JoinHandle<()> {
        let inner = Arc::clone(&self.inner);
        std::thread::Builder::new()
            .name(format!("orb-recv-{}", inner.name))
            .spawn(move || {
                // Event-driven: block on the wire for the first frame of
                // a burst (`shutdown()` pokes the transport — an empty
                // frame, the backend-independent wakeup — so the blocked
                // recv wakes), then opportunistically drain up to
                // `RECV_BURST` more frames without blocking. Requests
                // accumulate in per-dispatcher buckets and flush as one
                // command per dispatcher per burst; replies are matched
                // inline.
                //
                // The burst bound amortizes queue wakeups under load;
                // light-load latency is unaffected because draining stops
                // the moment the inbox is empty.
                const RECV_BURST: usize = 32;
                let n_queues = inner.dispatch_tx.len();
                let mut buckets: Vec<Vec<DispatchWork>> =
                    (0..n_queues).map(|_| Vec::new()).collect();
                loop {
                    let frame = match inner.wire.recv() {
                        Ok(f) => f,
                        Err(_) => break,
                    };
                    if inner.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    if !frame.payload.is_empty() {
                        Orb::handle_frame(&inner, &frame, &mut buckets);
                    }
                    let mut drained = 1;
                    // Bounded gather: when the inbox runs dry mid-burst,
                    // yield once or twice before flushing. Under load the
                    // senders use the donated timeslice to refill the
                    // inbox (on single-core hosts they *cannot* send
                    // while this loop runs), so batches grow and each
                    // dispatcher wakeup amortizes over more requests;
                    // idle connections never reach this path (the outer
                    // blocking recv got a frame first), so it adds no
                    // latency to quiet traffic.
                    let mut gather = 2u32;
                    while drained < RECV_BURST {
                        match inner.wire.try_recv() {
                            Ok(Some(f)) => {
                                if !f.payload.is_empty() {
                                    Orb::handle_frame(&inner, &f, &mut buckets);
                                }
                                drained += 1;
                            }
                            Ok(None) => {
                                if gather == 0 {
                                    break;
                                }
                                gather -= 1;
                                std::thread::yield_now();
                            }
                            Err(_) => break,
                        }
                    }
                    if inner.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    for (idx, bucket) in buckets.iter_mut().enumerate() {
                        match bucket.len() {
                            0 => {}
                            1 => {
                                let work = bucket.pop().expect("bucket length checked");
                                let _ = inner.dispatch_tx[idx].send(DispatchCmd::One(work));
                            }
                            _ => {
                                let batch = std::mem::take(bucket);
                                let _ = inner.dispatch_tx[idx].send(DispatchCmd::Batch(batch));
                            }
                        }
                    }
                }
            })
            .expect("spawn orb receive loop")
    }
    /// Receive-loop frame handler. Requests are *routed*, not decoded:
    /// [`giop::peek`] reads only the tag and object key, the body ships
    /// raw to the dispatcher its key hashes to, and the full decode
    /// happens there. Replies are decoded and matched inline —
    /// the pending caller is parked on its slot and nothing else can
    /// deliver to it.
    fn handle_frame(
        inner: &Arc<OrbInner>,
        frame: &WireFrame,
        buckets: &mut [Vec<DispatchWork>],
    ) {
        let src = frame.src;
        let transit_vus = frame.transit_us;
        let metrics = &inner.metrics;
        metrics.incr("wire.msgs_received");
        metrics.add("wire.bytes_received", frame.payload.len() as u64);
        metrics.observe_us("wire.transit_vus", transit_vus);
        let received = Instant::now();
        let drop_packet = || inner.note(Event::PacketDropped, None);
        // The view decode allocates nothing: the body is a refcounted
        // slice of the frame and the module name borrows from it. An
        // owned name is only materialized when a *request* crosses to a
        // dispatcher; the reply path never needs one.
        let (giop_bytes, via_module): (Bytes, Option<&str>) = match Packet::decode_view(
            &frame.payload,
        ) {
            Err(_) => {
                drop_packet();
                return;
            }
            Ok(PacketView::Plain(body)) => (body, None),
            Ok(PacketView::Qos { module, body }) => match inner.transport.module(module) {
                Some(m) => {
                    // Timing every inverse transform puts two clock
                    // reads on the QoS hot path; sampling 1-in-32 keeps
                    // the histogram live at a fraction of the cost.
                    let sampled = INBOUND_SAMPLE.with(|c| {
                        let n = c.get();
                        c.set(n.wrapping_add(1));
                        n & 31 == 0
                    });
                    let started = sampled.then(Instant::now);
                    let transformed = m.inbound(src, &body);
                    if let Some(started) = started {
                        metrics.observe_us(
                            "transport.inbound_us",
                            started.elapsed().as_micros() as u64,
                        );
                    }
                    metrics.incr("transport.qos_packets_in");
                    match transformed {
                        Ok(Some(out)) => {
                            let bytes = match out {
                                // Identity transforms hand the input slice
                                // straight back; re-share the refcounted
                                // frame instead of copying the body.
                                std::borrow::Cow::Borrowed(b)
                                    if b.len() == body.len() && b.as_ptr() == body.as_ptr() =>
                                {
                                    body.clone()
                                }
                                std::borrow::Cow::Borrowed(b) => Bytes::copy_from_slice(b),
                                std::borrow::Cow::Owned(v) => Bytes::from(v),
                            };
                            (bytes, Some(module))
                        }
                        Ok(None) => return, // module swallowed it (e.g. duplicate)
                        Err(_) => {
                            drop_packet();
                            return;
                        }
                    }
                }
                None => {
                    drop_packet();
                    return;
                }
            },
        };
        match giop::peek(&giop_bytes) {
            Err(_) => drop_packet(),
            Ok(GiopPeek::Request { key_hash }) => {
                let idx = (key_hash % buckets.len() as u64) as usize;
                buckets[idx].push(DispatchWork {
                    via_module: via_module.map(str::to_owned),
                    body: giop_bytes,
                    transit_vus,
                    received,
                });
                metrics.observe_us("orb.recv_route_us", received.elapsed().as_micros() as u64);
            }
            Ok(GiopPeek::Reply) => {
                let mut reply = match GiopMessage::from_bytes(&giop_bytes) {
                    Ok(GiopMessage::Reply(r)) => r,
                    _ => {
                        drop_packet();
                        return;
                    }
                };
                // Stamp the reply's wire leg into the trace it carries, so
                // the client sees both directions of the network cost.
                let mut reply_trace_id = None;
                if let Some(mut ctx) = reply
                    .context(TRACE_CONTEXT_ID)
                    .and_then(|b| TraceContext::from_bytes(b).ok())
                {
                    reply_trace_id = Some(ctx.trace_id);
                    ctx.push("wire.reply", &inner.name, transit_vus);
                    reply.set_context(TRACE_CONTEXT_ID, ctx.to_bytes());
                }
                let id = reply.request_id;
                let delivered = match inner.pending.claim(id) {
                    Some(slot) => {
                        slot.push(id, reply, || inner.note(Event::ReplyMatched, reply_trace_id))
                    }
                    None => false,
                };
                if !delivered {
                    inner.note(Event::ReplyOrphaned, reply_trace_id);
                }
                metrics.observe_us("orb.reply_match_us", received.elapsed().as_micros() as u64);
            }
        }
    }
}
