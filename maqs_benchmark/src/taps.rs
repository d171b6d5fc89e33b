//! Benchmark-owned taps at the paper's own extension points, and the
//! arithmetic that turns their timestamps into a layer table that sums.
//!
//! A tap is a delegating wrapper — first-in-chain [`Mediator`], a
//! [`QosModule`] around the bound module, a [`QosImplementation`] around
//! the negotiated one, the servant — that appends `(tap, instant)` to a
//! preallocated log and calls through. Only the traced pass constructs
//! them; the end-to-end pass runs the bare objects.

use crate::workloads::Flavor;
use netsim::NodeId;
use orb::qos_binding::{Outbound, QosModule};
use orb::{Any, OrbError, Servant};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use weaver::{Call, Mediator, Next, QosImplementation};

/// The points a call passes, in the order it passes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Tap {
    CallStart = 0,
    MediatorIn,
    ClientOutbound,
    ServerInbound,
    PrologIn,
    ServantIn,
    ServantOut,
    EpilogOut,
    ServerOutbound,
    ClientInbound,
    Return,
}

const ALL_TAPS: [Tap; 11] = [
    Tap::CallStart,
    Tap::MediatorIn,
    Tap::ClientOutbound,
    Tap::ServerInbound,
    Tap::PrologIn,
    Tap::ServantIn,
    Tap::ServantOut,
    Tap::EpilogOut,
    Tap::ServerOutbound,
    Tap::ClientInbound,
    Tap::Return,
];

/// The tap sequence of one well-formed call and the name of the segment
/// *ending* at each tap after the first. Taps a flavor does not have
/// (no mediator on an untagged call) are simply absent, so the time
/// between two present taps always lands in exactly one segment and the
/// segments telescope to the round trip.
pub fn pattern(flavor: Flavor) -> (&'static [Tap], &'static [&'static str]) {
    use Tap::*;
    match flavor {
        Flavor::Null => (
            &[CallStart, ServantIn, ServantOut, Return],
            &["request_path_us", "servant_us", "reply_path_us"],
        ),
        Flavor::Bulk => (
            &[
                CallStart,
                ClientOutbound,
                ServerInbound,
                ServantIn,
                ServantOut,
                ServerOutbound,
                ClientInbound,
                Return,
            ],
            &[
                "mediator_to_outbound_us",
                "wire_request_us",
                "inbound_to_prolog_us",
                "servant_us",
                "epilog_to_outbound_us",
                "wire_reply_us",
                "inbound_to_return_us",
            ],
        ),
        Flavor::Woven => (
            &ALL_TAPS,
            &[
                "stub_us",
                "mediator_to_outbound_us",
                "wire_request_us",
                "inbound_to_prolog_us",
                "prolog_us",
                "servant_us",
                "epilog_us",
                "epilog_to_outbound_us",
                "wire_reply_us",
                "inbound_to_return_us",
            ],
        ),
    }
}

/// Every segment name any flavor produces, in Fig. 1 order, with the
/// layer that owns the time (the layer table's last column).
pub const SEGMENTS: [(&str, &str); 12] = [
    ("request_path_us", "orb.core + orb.giop + orb.wire + orb.adapter (untagged request)"),
    ("stub_us", "weaver (stub entry, chain set-up)"),
    ("mediator_to_outbound_us", "weaver mediators + orb.core marshal + orb.qos_binding resolve"),
    ("wire_request_us", "qosmech outbound + orb.giop frame + orb.wire + qosmech inbound entry"),
    ("inbound_to_prolog_us", "orb.core route/queue/decode + orb.adapter + weaver skeleton"),
    ("prolog_us", "qosmech QoS implementation prolog"),
    ("servant_us", "application servant"),
    ("epilog_us", "qosmech QoS implementation epilog"),
    ("epilog_to_outbound_us", "weaver observer + services monitor + orb.giop reply encode"),
    ("wire_reply_us", "qosmech outbound + orb.giop frame + orb.wire + qosmech inbound entry"),
    ("inbound_to_return_us", "orb.core reply match + caller wake + decode + mediator unwind"),
    ("reply_path_us", "orb.giop reply encode + orb.wire + orb.core reply match (untagged reply)"),
];

/// Append-only timestamp log shared by every tap of one pass.
///
/// Slots are preallocated and claimed with one `fetch_add`, so a tap
/// costs a clock read and two atomic operations and never allocates.
/// With one call in flight the claims are causally ordered, so slot
/// order is time order.
pub struct TapLog {
    base: Instant,
    slots: Vec<AtomicU64>,
    next: AtomicUsize,
}

const TAP_SHIFT: u32 = 56;

impl TapLog {
    pub fn new(capacity: usize) -> Arc<TapLog> {
        Arc::new(TapLog {
            base: Instant::now(),
            slots: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            next: AtomicUsize::new(0),
        })
    }

    pub fn mark(&self, tap: Tap) {
        self.mark_at(tap, Instant::now());
    }

    pub fn mark_at(&self, tap: Tap, at: Instant) {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.slots.get(i) {
            let ns = at.saturating_duration_since(self.base).as_nanos() as u64;
            // Release pairs with the Acquire in `drain`: a slot read as
            // non-empty carries its full value.
            slot.store(((tap as u64) << TAP_SHIFT) | ns, Ordering::Release);
        }
    }

    /// Forget everything recorded so far (between set-up and a window).
    pub fn reset(&self) {
        self.next.store(0, Ordering::SeqCst);
    }

    /// Marks that did not fit the preallocated log.
    pub fn overflowed(&self) -> usize {
        self.next.load(Ordering::SeqCst).saturating_sub(self.slots.len())
    }

    /// The recorded `(tap, ns since log creation)` pairs, in claim order.
    pub fn drain(&self) -> Vec<(Tap, u64)> {
        let n = self.next.load(Ordering::SeqCst).min(self.slots.len());
        self.slots[..n]
            .iter()
            .map(|s| {
                let v = s.load(Ordering::Acquire);
                (
                    ALL_TAPS[((v >> TAP_SHIFT) as usize).min(ALL_TAPS.len() - 1)],
                    v & ((1 << TAP_SHIFT) - 1),
                )
            })
            .collect()
    }
}

/// One call's tap timestamps (ns), aligned with its flavor's pattern.
pub type CallTaps = Vec<u64>;

/// Split a drained log into calls. A call is the run of events from a
/// `CallStart` to the next `Return`; it is kept only if its taps are
/// exactly the flavor's pattern with non-decreasing timestamps.
/// Returns the well-formed calls and the number of malformed ones.
pub fn split_calls(events: &[(Tap, u64)], flavor: Flavor) -> (Vec<CallTaps>, usize) {
    let (want, _) = pattern(flavor);
    let mut calls = Vec::new();
    let mut malformed = 0;
    let mut current: Option<Vec<(Tap, u64)>> = None;
    for &(tap, ns) in events {
        if tap == Tap::CallStart {
            if current.is_some() {
                malformed += 1;
            }
            current = Some(vec![(tap, ns)]);
            continue;
        }
        let Some(cur) = current.as_mut() else {
            malformed += 1;
            continue;
        };
        cur.push((tap, ns));
        if tap == Tap::Return {
            let cur = current.take().expect("checked above");
            let ordered = cur.windows(2).all(|w| w[0].1 <= w[1].1);
            if ordered && cur.iter().map(|&(t, _)| t).eq(want.iter().copied()) {
                calls.push(cur.into_iter().map(|(_, ns)| ns).collect());
            } else {
                malformed += 1;
            }
        }
    }
    (calls, malformed)
}

/// The consecutive-tap deltas of one call, in µs. They sum to
/// `last − first` exactly: that is the telescoping the table relies on.
pub fn segments_us(call: &[u64]) -> Vec<f64> {
    call.windows(2).map(|w| (w[1] - w[0]) as f64 / 1_000.0).collect()
}

/// The layer table of one traced pass.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTable {
    /// `(segment name, cost µs)` in path order.
    pub rows: Vec<(&'static str, f64)>,
    /// Reference round trip: the midmean of the traced calls' RTT.
    pub rtt_us: f64,
    /// Calls the midmean was taken over.
    pub calls_used: usize,
}

impl LayerTable {
    /// Σ rows ÷ reference round trip.
    pub fn sum_over_rtt(&self) -> f64 {
        if self.rtt_us == 0.0 {
            return 0.0;
        }
        self.rows.iter().map(|(_, us)| us).sum::<f64>() / self.rtt_us
    }
}

/// Layer costs as *midmeans over one set of calls*: the calls whose
/// round trip lies in the interquartile range of all traced round
/// trips. Every row and the reference RTT are means over that same set,
/// so the rows add up to the reference exactly, while a preempted call
/// (which would drag a plain mean) is outside the set. Per-segment
/// medians would be as robust but do not add up.
pub fn layer_table(calls: &[CallTaps], flavor: Flavor) -> LayerTable {
    let (_, names) = pattern(flavor);
    let rtt = |c: &CallTaps| c[c.len() - 1] - c[0];
    let mut order: Vec<usize> = (0..calls.len()).collect();
    order.sort_by_key(|&i| rtt(&calls[i]));
    let lo = order.len() / 4;
    let hi = (order.len() - lo).max(lo + 1).min(order.len());
    let picked = &order[lo.min(order.len())..hi];
    let mut sums = vec![0.0; names.len()];
    let mut rtt_sum = 0.0;
    for &i in picked {
        for (s, d) in sums.iter_mut().zip(segments_us(&calls[i])) {
            *s += d;
        }
        rtt_sum += rtt(&calls[i]) as f64 / 1_000.0;
    }
    let n = picked.len().max(1) as f64;
    LayerTable {
        rows: names.iter().zip(sums).map(|(&name, s)| (name, s / n)).collect(),
        rtt_us: rtt_sum / n,
        calls_used: picked.len(),
    }
}

// ---- the wrappers ------------------------------------------------------

/// Servant tap: entry and exit of the application object.
pub struct TapServant {
    pub inner: Arc<dyn Servant>,
    pub log: Arc<TapLog>,
}

impl Servant for TapServant {
    fn interface_id(&self) -> &str {
        self.inner.interface_id()
    }
    fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
        self.log.mark(Tap::ServantIn);
        let result = self.inner.dispatch(op, args);
        self.log.mark(Tap::ServantOut);
        result
    }
    fn get_state(&self) -> Result<Any, OrbError> {
        self.inner.get_state()
    }
    fn set_state(&self, state: &Any) -> Result<(), OrbError> {
        self.inner.set_state(state)
    }
}

/// First-in-chain mediator tap: the moment the stub hands the call to
/// the mediator chain.
pub struct TapMediator {
    pub log: Arc<TapLog>,
}

impl Mediator for TapMediator {
    fn characteristic(&self) -> &str {
        "bench-tap"
    }
    fn around(&self, call: Call, next: Next<'_>) -> Result<Any, OrbError> {
        self.log.mark(Tap::MediatorIn);
        next(call)
    }
}

/// QoS module tap: `outbound`/`inbound` entry, on either side.
pub struct TapModule {
    pub inner: Arc<dyn QosModule>,
    pub log: Arc<TapLog>,
    pub outbound_tap: Tap,
    pub inbound_tap: Tap,
}

impl TapModule {
    pub fn client(inner: Arc<dyn QosModule>, log: &Arc<TapLog>) -> Arc<dyn QosModule> {
        Arc::new(TapModule {
            inner,
            log: Arc::clone(log),
            outbound_tap: Tap::ClientOutbound,
            inbound_tap: Tap::ClientInbound,
        })
    }
    pub fn server(inner: Arc<dyn QosModule>, log: &Arc<TapLog>) -> Arc<dyn QosModule> {
        Arc::new(TapModule {
            inner,
            log: Arc::clone(log),
            outbound_tap: Tap::ServerOutbound,
            inbound_tap: Tap::ServerInbound,
        })
    }
}

impl QosModule for TapModule {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn command(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
        self.inner.command(op, args)
    }
    fn outbound(&self, dst: NodeId, bytes: Vec<u8>) -> Result<Outbound, OrbError> {
        self.log.mark(self.outbound_tap);
        self.inner.outbound(dst, bytes)
    }
    fn inbound<'a>(&self, src: NodeId, bytes: &'a [u8]) -> Result<Option<Cow<'a, [u8]>>, OrbError> {
        self.log.mark(self.inbound_tap);
        self.inner.inbound(src, bytes)
    }
}

/// QoS implementation tap: prolog entry and epilog exit.
pub struct TapQosImpl {
    pub inner: Arc<dyn QosImplementation>,
    pub log: Arc<TapLog>,
}

impl QosImplementation for TapQosImpl {
    fn characteristic(&self) -> &str {
        self.inner.characteristic()
    }
    fn prolog(&self, op: &str, args: &[Any]) -> Result<(), OrbError> {
        self.log.mark(Tap::PrologIn);
        self.inner.prolog(op, args)
    }
    fn epilog(&self, op: &str, args: &[Any], result: &mut Result<Any, OrbError>) {
        self.inner.epilog(op, args, result);
        self.log.mark(Tap::EpilogOut);
    }
    fn qos_op(&self, op: &str, args: &[Any], server: &dyn Servant) -> Result<Any, OrbError> {
        self.inner.qos_op(op, args, server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn woven_call(start: u64, step: u64) -> Vec<(Tap, u64)> {
        ALL_TAPS.iter().enumerate().map(|(i, &t)| (t, start + i as u64 * step)).collect()
    }

    #[test]
    fn segments_telescope_to_the_root_span() {
        let call: CallTaps = vec![1_000, 1_700, 9_300, 9_301, 20_000, 54_321];
        let segs = segments_us(&call);
        assert_eq!(segs.len(), call.len() - 1);
        let root_us = (call[call.len() - 1] - call[0]) as f64 / 1_000.0;
        assert!((segs.iter().sum::<f64>() - root_us).abs() < 1e-9);
    }

    #[test]
    fn layer_table_rows_sum_to_reference_rtt() {
        // Round trips 10, 20, …, 1000 µs plus one 50 ms outlier.
        let mut events = Vec::new();
        let mut t = 0;
        for step in (1..=100).chain([5_000]) {
            events.extend(woven_call(t, step * 1_000));
            t += 100_000_000;
        }
        let (calls, malformed) = split_calls(&events, Flavor::Woven);
        assert_eq!((calls.len(), malformed), (101, 0));
        let table = layer_table(&calls, Flavor::Woven);
        assert_eq!(table.rows.len(), 10);
        assert!((table.sum_over_rtt() - 1.0).abs() < 1e-9);
        // The interquartile set excludes the outlier and both tails.
        assert_eq!(table.calls_used, 51);
        assert!((table.rtt_us - 510.0).abs() < 1e-9, "{}", table.rtt_us);
    }

    #[test]
    fn malformed_calls_are_counted_not_used() {
        let mut events = woven_call(0, 10);
        // A call missing its server half, one with a stray tap, one cut
        // off by the next CallStart, and an orphan tap before any call.
        events.extend([(Tap::CallStart, 1_000), (Tap::MediatorIn, 1_010), (Tap::Return, 1_020)]);
        events.extend([(Tap::CallStart, 2_000), (Tap::ServantIn, 2_010)]);
        events.extend([
            (Tap::CallStart, 3_000),
            (Tap::ServantIn, 3_001),
            (Tap::ServantOut, 3_002),
            (Tap::Return, 3_003),
        ]);
        let (calls, malformed) = split_calls(&events, Flavor::Woven);
        assert_eq!((calls.len(), malformed), (1, 3));
        let (calls, malformed) = split_calls(&[(Tap::ServantIn, 5)], Flavor::Null);
        assert_eq!((calls.len(), malformed), (0, 1));
        // The last of those is a well-formed *null* call.
        let (calls, _) = split_calls(&events[events.len() - 4..], Flavor::Null);
        assert_eq!(calls, vec![vec![3_000, 3_001, 3_002, 3_003]]);
    }

    #[test]
    fn tap_log_keeps_order_and_reports_overflow() {
        let log = TapLog::new(3);
        log.mark(Tap::CallStart);
        log.mark(Tap::ServantIn);
        log.mark(Tap::Return);
        log.mark(Tap::CallStart);
        let events = log.drain();
        assert_eq!(
            events.iter().map(|e| e.0).collect::<Vec<_>>(),
            [Tap::CallStart, Tap::ServantIn, Tap::Return]
        );
        assert!(events.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(log.overflowed(), 1);
        log.reset();
        assert!(log.drain().is_empty());
    }

    #[test]
    fn every_pattern_segment_is_in_the_owner_table() {
        for flavor in [Flavor::Null, Flavor::Bulk, Flavor::Woven] {
            let (taps, names) = pattern(flavor);
            assert_eq!(taps.len(), names.len() + 1);
            for name in names {
                assert!(SEGMENTS.iter().any(|(n, _)| n == name), "{name}");
            }
        }
    }
}
