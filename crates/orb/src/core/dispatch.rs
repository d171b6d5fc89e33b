//! Queue, execute, reply (Fig. 1 "queue → adapter", server half of the
//! Fig. 3 decision tree): each dispatcher thread drains its private
//! queue, runs the full GIOP decode the receive loop skipped, executes
//! the request against the transport, a module, a pseudo object or the
//! adapter, and sends the reply back the way the request came in.

use super::{Event, Orb, OrbInner, PSEUDO_KEY_PREFIX};
use crate::error::OrbError;
use crate::giop::{
    frame_plain_reply, frame_qos, CommandTarget, GiopMessage, ReplyMessage, RequestKind,
    RequestMessage,
};
use crate::trace::{self, TraceContext, TRACE_CONTEXT_ID};
use bytes::Bytes;
use crossbeam::channel::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

pub(super) enum DispatchCmd {
    /// A single request — the common case under light load, kept
    /// separate from [`DispatchCmd::Batch`] so it costs no `Vec`.
    One(DispatchWork),
    /// A burst of requests drained from the wire in one receive-loop
    /// pass; one queue wakeup covers them all.
    Batch(Vec<DispatchWork>),
    /// Wake-and-exit sentinel; [`Orb::shutdown`] queues one per
    /// dispatcher thread so every blocked `recv()` returns.
    Shutdown,
}

pub(super) struct DispatchWork {
    pub(super) via_module: Option<String>,
    /// The raw GIOP request body. The receive loop only peeks the
    /// routing prefix ([`crate::giop::peek`]); the full decode — args, QoS
    /// params, contexts — runs on the dispatcher thread so the single
    /// receive loop never becomes the decode bottleneck.
    pub(super) body: Bytes,
    /// Modelled wire transit of the carrying message, virtual µs.
    pub(super) transit_vus: u64,
    /// When the receive loop picked the frame up; the dispatcher
    /// observes the gap as `orb.queue_wait_us`.
    pub(super) received: Instant,
}

impl Orb {
    pub(super) fn spawn_dispatcher(&self, rx: Receiver<DispatchCmd>) -> JoinHandle<()> {
        let inner = Arc::clone(&self.inner);
        std::thread::Builder::new()
            .name(format!("orb-dispatch-{}", inner.name))
            .spawn(move || {
                // Event-driven: block on this dispatcher's private
                // queue; `shutdown()` enqueues one Shutdown sentinel per
                // dispatcher. (Spin-before-park was tried here and
                // rejected: on a single-core host the sender cannot run
                // while the receiver spins, so polling burns exactly the
                // timeslices the producer needs and throughput drops
                // ~35%. Blocking immediately is strictly better; park
                // amortization comes from batching, not spinning.)
                loop {
                    match rx.recv() {
                        Ok(DispatchCmd::One(work)) => Orb::run_work(&inner, work),
                        Ok(DispatchCmd::Batch(batch)) => {
                            for work in batch {
                                Orb::run_work(&inner, work);
                            }
                        }
                        Ok(DispatchCmd::Shutdown) | Err(_) => break,
                    }
                }
            })
            .expect("spawn orb dispatcher")
    }

    /// Dispatcher-side entry: account queue wait, run the full GIOP
    /// decode the receive loop skipped, then execute.
    fn run_work(inner: &Arc<OrbInner>, work: DispatchWork) {
        let DispatchWork { via_module, body, transit_vus, received } = work;
        inner
            .metrics
            .observe_us("orb.queue_wait_us", received.elapsed().as_micros() as u64);
        let request = match GiopMessage::from_bytes(&body) {
            Ok(GiopMessage::Request(r)) => r,
            // The routing peek accepted the prefix but the full decode
            // failed (torn or malicious body): account it like any other
            // undecodable packet.
            _ => return inner.note(Event::PacketDropped, None),
        };
        Orb::execute_request(inner, via_module, request, transit_vus);
    }
    /// The server half of the Fig. 3 decision tree.
    fn execute_request(
        inner: &Arc<OrbInner>,
        via_module: Option<String>,
        request: RequestMessage,
        transit_vus: u64,
    ) {
        let metrics = &inner.metrics;
        // Install the request's trace (if it carries one) on this
        // dispatcher thread so adapter/skeleton/servant spans land in it.
        let ctx_in = request
            .context(TRACE_CONTEXT_ID)
            .and_then(|b| TraceContext::from_bytes(b).ok());
        let trace_id = ctx_in.as_ref().map(|c| c.trace_id);
        let scope = ctx_in.map(|mut ctx| {
            ctx.push("wire", &inner.name, transit_vus);
            trace::begin(ctx, &inner.name)
        });
        let started = Instant::now();
        let result = match &request.kind {
            RequestKind::Command(CommandTarget::Transport) => {
                inner.transport.command(&request.operation, &request.args)
            }
            RequestKind::Command(CommandTarget::Module(name)) => match inner.transport.module(name) {
                Some(m) => m.command(&request.operation, &request.args),
                None => Err(OrbError::ModuleNotFound(name.clone())),
            },
            RequestKind::ServiceRequest | RequestKind::Probe => {
                if let Some(name) = request.object_key.0.strip_prefix(PSEUDO_KEY_PREFIX) {
                    inner.pseudo.invoke(name, &request.operation, &request.args)
                } else {
                    trace::time("adapter", || {
                        inner.adapter.dispatch(&request.object_key, &request.operation, &request.args)
                    })
                }
            }
        };
        let dispatch_us = started.elapsed().as_micros() as u64;
        if matches!(request.kind, RequestKind::Probe) {
            // Keep failure-detector traffic out of the request-path
            // counters so availability math over `orb.requests_*` only
            // sees application calls.
            metrics.observe_us("orb.probe.dispatch_us", dispatch_us);
            inner.note(Event::ProbeHandled, trace_id);
        } else {
            metrics.observe_us("orb.dispatch_us", dispatch_us);
            inner.note(Event::RequestDispatched, trace_id);
        }
        let trace_out = scope.map(|s| {
            let mut ctx = s.finish();
            ctx.push("orb.server", &inner.name, dispatch_us);
            ctx
        });
        if !request.response_expected {
            return;
        }
        let mut reply = ReplyMessage::from_result(request.request_id, inner.node, result);
        if let Some(ctx) = trace_out {
            reply.set_context(TRACE_CONTEXT_ID, ctx.to_bytes());
        }
        // Route the reply back through the same module the request came
        // in by, so transforms like compression are symmetric. Either
        // way the reply is encoded exactly once, straight into the
        // frame that goes on the wire.
        let frame = match via_module.and_then(|m| inner.transport.module(&m)) {
            Some(module) => {
                let bytes = GiopMessage::encode_reply(&reply);
                let started = Instant::now();
                let outs = module.outbound(request.reply_to, bytes);
                metrics.observe_us("transport.outbound_us", started.elapsed().as_micros() as u64);
                match outs {
                    Ok(mut outs) if outs.len() == 1 => {
                        let (node, body) = outs.remove(0);
                        debug_assert_eq!(node, request.reply_to);
                        frame_qos(module.name(), &body)
                    }
                    _ => return, // fan-out modules answer per-destination themselves
                }
            }
            None => frame_plain_reply(&reply),
        };
        let _ = inner.wire.send(request.reply_to, frame);
    }
}
