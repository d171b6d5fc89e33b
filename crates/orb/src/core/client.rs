//! The invocation interface (Fig. 1 "ORB client", client half of the
//! Fig. 3 decision tree). Every public entry point is a thin caller of
//! the one private [`issue`], which builds the only `RequestMessage`
//! and hands back the [`InFlight`] guard.

use super::pending::{InFlight, PendingCall, Rendezvous};
use super::{Event, Orb};
use crate::any::Any;
use crate::error::OrbError;
use crate::giop::{
    frame_plain_request, frame_qos, CommandTarget, GiopMessage, QosContext, RequestKind,
    RequestMessage,
};
use crate::ior::{Ior, ObjectKey};
use crate::trace::{self, TraceContext, TRACE_CONTEXT_ID};
use netsim::NodeId;
use std::borrow::Borrow;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Whom a request addresses.
enum To<'a> {
    /// An object, by reference (its endpoints are registered on the way).
    Object(&'a Ior),
    /// A node's QoS transport or one of its modules (commands).
    Node(NodeId),
}

/// What distinguishes one entry point's request from another's.
struct Call<'a> {
    to: To<'a>,
    op: &'a str,
    args: &'a [Any],
    kind: RequestKind,
    qos: Option<QosContext>,
    trace: Option<&'a TraceContext>,
    rendezvous: Rendezvous,
}

impl<'a> Call<'a> {
    /// A plain two-way service request on the caller's pooled slot; the
    /// entry points override what differs.
    fn on(ior: &'a Ior, op: &'a str, args: &'a [Any], qos: Option<QosContext>) -> Call<'a> {
        Call {
            to: To::Object(ior),
            op,
            args,
            kind: RequestKind::ServiceRequest,
            qos,
            trace: None,
            rendezvous: Rendezvous::Pooled { collect: false },
        }
    }
}

/// Build the request, register its rendezvous and put it on the wire.
/// A send error drops the guard, which unwinds the registration.
fn issue<H: Borrow<Orb>>(orb: H, call: Call<'_>) -> Result<InFlight<H>, OrbError> {
    let this: &Orb = orb.borrow();
    this.check_running()?;
    let (dst, object_key) = match call.to {
        To::Object(ior) => {
            let _ = this.register_endpoints(ior);
            (ior.node, ior.key.clone())
        }
        To::Node(node) => (node, ObjectKey(String::new())),
    };
    let mut request = RequestMessage {
        request_id: this.inner.next_request.fetch_add(1, Ordering::Relaxed),
        reply_to: this.node(),
        object_key,
        operation: call.op.to_string(),
        args: call.args.to_vec(),
        response_expected: !matches!(call.rendezvous, Rendezvous::Oneway),
        kind: call.kind,
        qos: call.qos,
        contexts: Vec::new(),
    };
    if let Some(ctx) = call.trace {
        request.set_context(TRACE_CONTEXT_ID, ctx.to_bytes());
    }
    let flight = InFlight::register(orb, request.request_id, call.rendezvous);
    flight.orb().send_request(dst, &request, call.trace.map(|t| t.trace_id))?;
    Ok(flight)
}

impl Orb {
    /// Synchronous QoS-unaware invocation.
    ///
    /// # Errors
    ///
    /// Remote exceptions, [`OrbError::Timeout`] if no reply arrives in
    /// [`super::OrbConfig::request_timeout`], or transport errors.
    pub fn invoke(&self, ior: &Ior, op: &str, args: &[Any]) -> Result<Any, OrbError> {
        self.invoke_qos(ior, op, args, None)
    }

    /// Synchronous invocation with an optional negotiated-QoS context.
    ///
    /// # Errors
    ///
    /// As [`Orb::invoke`].
    pub fn invoke_qos(
        &self,
        ior: &Ior,
        op: &str,
        args: &[Any],
        qos: Option<QosContext>,
    ) -> Result<Any, OrbError> {
        self.invoke_traced(ior, op, args, qos, None).map(|(value, _)| value)
    }

    /// Synchronous invocation carrying a [`TraceContext`] in the request's
    /// service-context slot. The returned context is the one the reply
    /// carried back — the client-supplied trace plus every span the
    /// server-side layers appended — with this ORB's own `orb.client`
    /// span added on top. `None` in means `None` out.
    ///
    /// # Errors
    ///
    /// As [`Orb::invoke`].
    pub fn invoke_traced(
        &self,
        ior: &Ior,
        op: &str,
        args: &[Any],
        qos: Option<QosContext>,
        trace: Option<TraceContext>,
    ) -> Result<(Any, Option<TraceContext>), OrbError> {
        // Collocated shortcut (only for plain calls: QoS-annotated traffic
        // must take the full path so mediator/module semantics hold).
        if self.inner.config.collocated_shortcut && qos.is_none() && ior.node == self.node() {
            return self.invoke_collocated(ior, op, args, trace);
        }
        let flight = issue(self, Call { trace: trace.as_ref(), ..Call::on(ior, op, args, qos) })?;
        let started = flight.issued_at();
        let reply = flight.await_reply(self.inner.config.request_timeout);
        drop(flight);
        let reply = reply?;
        let roundtrip_us = started.elapsed().as_micros() as u64;
        self.inner.metrics.observe_us("orb.roundtrip_us", roundtrip_us);
        let trace_out = trace.map(|sent| {
            // Prefer the server-enriched context from the reply slot;
            // fall back to a bare continuation of the same trace if the
            // reply lost it (e.g. an exception path).
            let mut ctx = reply
                .context(TRACE_CONTEXT_ID)
                .and_then(|b| TraceContext::from_bytes(b).ok())
                .unwrap_or_else(|| TraceContext::with_id(sent.trace_id));
            ctx.push("orb.client", &self.inner.name, roundtrip_us);
            ctx
        });
        reply.into_result().map(|v| (v, trace_out))
    }

    /// The collocated shortcut: same thread end to end, straight into
    /// the local adapter.
    fn invoke_collocated(
        &self,
        ior: &Ior,
        op: &str,
        args: &[Any],
        trace: Option<TraceContext>,
    ) -> Result<(Any, Option<TraceContext>), OrbError> {
        self.check_running()?;
        self.inner.note(Event::CollocatedCall, trace.as_ref().map(|t| t.trace_id));
        let started = Instant::now();
        // Install the trace (if any) so the skeleton's spans land in it,
        // then add the adapter span.
        let scope = trace.map(|ctx| trace::begin(ctx, &self.inner.name));
        let result = self.inner.adapter.dispatch(&ior.key, op, args);
        let us = started.elapsed().as_micros() as u64;
        self.inner.metrics.observe_us("orb.collocated_us", us);
        let trace_out = scope.map(|scope| {
            let mut ctx = scope.finish();
            ctx.push("adapter", &self.inner.name, us);
            ctx
        });
        result.map(|v| (v, trace_out))
    }

    /// Issue a request without blocking for the reply: GIOP pipelining.
    ///
    /// Returns a [`PendingCall`] to harvest later; one thread may hold
    /// any number in flight (each handle carries its own private reply
    /// slot, so the per-thread pooled slot is not involved). Unlike
    /// [`Orb::invoke_qos`] there is no collocated shortcut — the call
    /// always travels the wire so in-flight semantics are uniform — and
    /// no trace context (pipelined callers that need spans should use
    /// [`Orb::invoke_traced`] synchronously).
    ///
    /// # Errors
    ///
    /// Local send errors only; remote failures and timeouts surface at
    /// [`PendingCall::wait`].
    pub fn invoke_async(
        &self,
        ior: &Ior,
        op: &str,
        args: &[Any],
        qos: Option<QosContext>,
    ) -> Result<PendingCall, OrbError> {
        let call = Call { rendezvous: Rendezvous::Private, ..Call::on(ior, op, args, qos) };
        let flight = issue(self.clone(), call)?;
        Ok(PendingCall::new(flight, self.inner.config.request_timeout))
    }

    /// Invocation that collects replies from multiple responders (replica
    /// fan-out). Waits until `min_replies` have arrived or `timeout`
    /// elapses, and returns everything received (possibly more than
    /// `min_replies` if extras raced in).
    ///
    /// # Errors
    ///
    /// [`OrbError::Timeout`] if *no* reply arrived at all; partial results
    /// are returned as `Ok` so voters can quorum on what they have.
    pub fn invoke_collect(
        &self,
        ior: &Ior,
        op: &str,
        args: &[Any],
        qos: Option<QosContext>,
        min_replies: usize,
        timeout: Duration,
    ) -> Result<Vec<(NodeId, Result<Any, OrbError>)>, OrbError> {
        self.invoke_collect_kind(Call::on(ior, op, args, qos), min_replies, timeout)
    }

    /// Liveness probe: a collecting `_non_existent` ping tagged
    /// [`RequestKind::Probe`], so both ends count it under the
    /// `orb.probe.*` metric family instead of the request-path
    /// `orb.requests_*` counters availability math is computed from.
    ///
    /// # Errors
    ///
    /// As [`Orb::invoke_collect`].
    pub fn probe_collect(
        &self,
        ior: &Ior,
        timeout: Duration,
    ) -> Result<Vec<(NodeId, Result<Any, OrbError>)>, OrbError> {
        let ping = Call { kind: RequestKind::Probe, ..Call::on(ior, "_non_existent", &[], None) };
        self.invoke_collect_kind(ping, 1, timeout)
    }

    /// The shared core of [`Orb::invoke_collect`] and
    /// [`Orb::probe_collect`]: return as soon as `min_replies` arrived
    /// (or the deadline hit).
    fn invoke_collect_kind(
        &self,
        call: Call<'_>,
        min_replies: usize,
        timeout: Duration,
    ) -> Result<Vec<(NodeId, Result<Any, OrbError>)>, OrbError> {
        let op = call.op;
        let flight = issue(self, Call { rendezvous: Rendezvous::Pooled { collect: true }, ..call })?;
        let deadline = Instant::now() + timeout;
        let mut replies = Vec::new();
        while replies.len() < min_replies {
            match flight.wait_until(deadline) {
                Some(reply) => replies.push((reply.from, reply.into_result())),
                None => break,
            }
        }
        // Drain any extras that arrived while we were counting.
        while let Some(reply) = flight.try_pop() {
            replies.push((reply.from, reply.into_result()));
        }
        if replies.is_empty() {
            return Err(OrbError::Timeout(format!("{op}: no replies within {timeout:?}")));
        }
        Ok(replies)
    }

    /// Fire-and-forget invocation (CORBA `oneway`).
    ///
    /// # Errors
    ///
    /// Local send errors only; remote failures are invisible by design.
    pub fn invoke_oneway(
        &self,
        ior: &Ior,
        op: &str,
        args: &[Any],
        qos: Option<QosContext>,
    ) -> Result<(), OrbError> {
        issue(self, Call { rendezvous: Rendezvous::Oneway, ..Call::on(ior, op, args, qos) })
            .map(drop)
    }

    /// Send a *command* (Fig. 3) to the QoS transport or a module on
    /// `node` and wait for the result. Commands always travel the plain
    /// GIOP path.
    ///
    /// # Errors
    ///
    /// Remote command errors, [`OrbError::Timeout`], or transport errors.
    pub fn send_command(
        &self,
        node: NodeId,
        target: CommandTarget,
        op: &str,
        args: &[Any],
    ) -> Result<Any, OrbError> {
        let command = Call {
            to: To::Node(node),
            op,
            args,
            kind: RequestKind::Command(target),
            qos: None,
            trace: None,
            rendezvous: Rendezvous::Pooled { collect: false },
        };
        issue(self, command)?.await_reply(self.inner.config.request_timeout)?.into_result()
    }

    pub(super) fn check_running(&self) -> Result<(), OrbError> {
        if self.is_shut_down() {
            Err(OrbError::Shutdown)
        } else {
            Ok(())
        }
    }

    /// The client half of the Fig. 3 decision tree.
    ///
    /// The request is encoded exactly once: the plain path writes
    /// envelope and GIOP body into a single wire buffer, the QoS path
    /// hands the module the bare GIOP body and frames each transformed
    /// output. No `RequestMessage` clone, no intermediate `Packet`.
    fn send_request(
        &self,
        dst: NodeId,
        request: &RequestMessage,
        trace_id: Option<u64>,
    ) -> Result<(), OrbError> {
        let metrics = &self.inner.metrics;
        match request.kind {
            RequestKind::ServiceRequest => self.inner.note(Event::RequestSent, trace_id),
            RequestKind::Probe => self.inner.note(Event::ProbeSent, trace_id),
            // Commands are administration, not request traffic.
            RequestKind::Command(_) => {}
        }
        if request.qos.is_some() {
            if let Some(module) = self.inner.transport.bound_module(dst, &request.object_key) {
                let bytes = GiopMessage::encode_request(request);
                let started = Instant::now();
                let outs = module.outbound(dst, bytes)?;
                metrics.observe_us("transport.outbound_us", started.elapsed().as_micros() as u64);
                metrics.incr("transport.qos_packets_out");
                for (node, body) in outs {
                    self.send_wire(node, frame_qos(module.name(), &body))?;
                }
                return Ok(());
            }
            // QoS-aware but unbound: fall back to GIOP/IIOP (Fig. 3) —
            // this is the path negotiation itself travels on.
        }
        self.send_wire(dst, frame_plain_request(request))
    }

    fn send_wire(&self, dst: NodeId, frame: Vec<u8>) -> Result<(), OrbError> {
        self.inner.wire.send(dst, frame).map_err(OrbError::from)
    }
}
