//! Flight recorder: the middleware's always-on black box.
//!
//! Every ORB owns a [`FlightRecorder`]: a fixed-capacity, overwrite-oldest
//! ring buffer of structured lifecycle events (requests sent, dispatched,
//! replies matched or orphaned, circuit transitions, adaptation rungs,
//! fault-script ticks, negotiation outcomes). Memory is bounded by
//! construction; appends are `O(1)` and stay off the request hot path by
//! staging events in a per-thread buffer that is flushed into the shared
//! ring in batches.
//!
//! The recorder complements [`crate::metrics`]: metrics answer *how much
//! and how fast*, the recorder answers *what happened, in what order* —
//! which is what a failed chaos run needs. Dump triggers (circuit-open,
//! deadline exceeded, chaos assertion failures) call
//! [`FlightRecorder::dump`], freezing the current ring contents into a
//! retained [`FlightDump`] so the evidence survives further traffic.

use crate::sync::{LockRank, OrderedMutex};
use crate::any::Any;
use crate::error::OrbError;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

/// Default ring capacity ([`crate::core::OrbConfig::flight_capacity`]).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

/// Staged events per thread before a batch flush into the shared ring.
const STAGE_BATCH: usize = 32;

/// Retained dumps per recorder; older dumps are discarded first.
const MAX_DUMPS: usize = 8;

/// What happened. Kinds cover the lifecycle events of every layer that
/// records into the black box; the hot-path kinds (requests/replies)
/// carry no detail string so recording them never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variant names are the documentation
pub enum FlightEventKind {
    RequestSent,
    RequestDispatched,
    ReplyMatched,
    ReplyOrphaned,
    PacketDropped,
    CollocatedCall,
    ProbeSent,
    ProbeHandled,
    CircuitTransition,
    DeadlineExceeded,
    AdaptationRung,
    FaultTick,
    Negotiation,
    Replication,
    WireDial,
    WireRedial,
    WireFailover,
    WireBackpressureShed,
    WireConnReset,
    TelemetryScrape,
    SloAlert,
}

/// Number of [`FlightEventKind`] variants (size of the counter table).
const KIND_COUNT: usize = 21;

/// All kinds, index-aligned with [`FlightEventKind::index`].
const ALL_KINDS: [FlightEventKind; KIND_COUNT] = [
    FlightEventKind::RequestSent,
    FlightEventKind::RequestDispatched,
    FlightEventKind::ReplyMatched,
    FlightEventKind::ReplyOrphaned,
    FlightEventKind::PacketDropped,
    FlightEventKind::CollocatedCall,
    FlightEventKind::ProbeSent,
    FlightEventKind::ProbeHandled,
    FlightEventKind::CircuitTransition,
    FlightEventKind::DeadlineExceeded,
    FlightEventKind::AdaptationRung,
    FlightEventKind::FaultTick,
    FlightEventKind::Negotiation,
    FlightEventKind::Replication,
    FlightEventKind::WireDial,
    FlightEventKind::WireRedial,
    FlightEventKind::WireFailover,
    FlightEventKind::WireBackpressureShed,
    FlightEventKind::WireConnReset,
    FlightEventKind::TelemetryScrape,
    FlightEventKind::SloAlert,
];

impl FlightEventKind {
    /// Stable wire/export name (snake case).
    pub fn name(self) -> &'static str {
        match self {
            FlightEventKind::RequestSent => "request_sent",
            FlightEventKind::RequestDispatched => "request_dispatched",
            FlightEventKind::ReplyMatched => "reply_matched",
            FlightEventKind::ReplyOrphaned => "reply_orphaned",
            FlightEventKind::PacketDropped => "packet_dropped",
            FlightEventKind::CollocatedCall => "collocated_call",
            FlightEventKind::ProbeSent => "probe_sent",
            FlightEventKind::ProbeHandled => "probe_handled",
            FlightEventKind::CircuitTransition => "circuit_transition",
            FlightEventKind::DeadlineExceeded => "deadline_exceeded",
            FlightEventKind::AdaptationRung => "adaptation_rung",
            FlightEventKind::FaultTick => "fault_tick",
            FlightEventKind::Negotiation => "negotiation",
            FlightEventKind::Replication => "replication",
            FlightEventKind::WireDial => "wire_dial",
            FlightEventKind::WireRedial => "wire_redial",
            FlightEventKind::WireFailover => "wire_failover",
            FlightEventKind::WireBackpressureShed => "wire_backpressure_shed",
            FlightEventKind::WireConnReset => "wire_conn_reset",
            FlightEventKind::TelemetryScrape => "telemetry_scrape",
            FlightEventKind::SloAlert => "slo_alert",
        }
    }

    /// Parse a [`FlightEventKind::name`] back; `None` for unknown names.
    pub fn parse(name: &str) -> Option<FlightEventKind> {
        ALL_KINDS.iter().copied().find(|k| k.name() == name)
    }

    fn index(self) -> usize {
        ALL_KINDS.iter().position(|k| *k == self).expect("kind in ALL_KINDS")
    }
}

/// One recorded lifecycle event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Ring-assigned sequence number (monotone per recorder).
    pub seq: u64,
    /// Monotonic microseconds since the recorder was created.
    pub ts_us: u64,
    /// What happened.
    pub kind: FlightEventKind,
    /// The request's trace id, when the call was trace-sampled. Events
    /// for unsampled calls carry `None` — they are still recorded.
    pub trace_id: Option<u64>,
    /// The node that recorded the event.
    pub node: Arc<str>,
    /// The layer that recorded the event (`orb.client`, `resilience`, …).
    pub layer: Cow<'static, str>,
    /// Optional human-readable detail (off-hot-path events only).
    pub detail: Option<Cow<'static, str>>,
}

impl FlightEvent {
    /// Encode as a self-describing [`Any`] (the introspection wire form).
    pub fn to_any(&self) -> Any {
        Any::Struct(
            "FlightEvent".to_string(),
            vec![
                ("seq".to_string(), Any::ULongLong(self.seq)),
                ("ts_us".to_string(), Any::ULongLong(self.ts_us)),
                ("kind".to_string(), Any::Str(self.kind.name().to_string())),
                ("traced".to_string(), Any::Bool(self.trace_id.is_some())),
                ("trace_id".to_string(), Any::ULongLong(self.trace_id.unwrap_or(0))),
                ("node".to_string(), Any::Str(self.node.to_string())),
                ("layer".to_string(), Any::Str(self.layer.to_string())),
                (
                    "detail".to_string(),
                    Any::Str(self.detail.as_deref().unwrap_or("").to_string()),
                ),
            ],
        )
    }

    /// Decode the [`FlightEvent::to_any`] wire form.
    ///
    /// # Errors
    ///
    /// [`OrbError::Marshal`] on missing fields or an unknown kind name.
    pub fn from_any(v: &Any) -> Result<FlightEvent, OrbError> {
        let field = |name: &str| {
            v.field(name).ok_or_else(|| OrbError::Marshal(format!("FlightEvent missing {name}")))
        };
        let kind_name = field("kind")?.as_str().unwrap_or_default().to_string();
        let kind = FlightEventKind::parse(&kind_name)
            .ok_or_else(|| OrbError::Marshal(format!("unknown flight event kind {kind_name}")))?;
        let traced = matches!(field("traced")?, Any::Bool(true));
        let detail = field("detail")?.as_str().unwrap_or_default().to_string();
        Ok(FlightEvent {
            seq: field("seq")?.as_i64().unwrap_or(0) as u64,
            ts_us: field("ts_us")?.as_i64().unwrap_or(0) as u64,
            kind,
            trace_id: if traced {
                Some(field("trace_id")?.as_i64().unwrap_or(0) as u64)
            } else {
                None
            },
            node: Arc::from(field("node")?.as_str().unwrap_or_default()),
            layer: Cow::Owned(field("layer")?.as_str().unwrap_or_default().to_string()),
            detail: if detail.is_empty() { None } else { Some(Cow::Owned(detail)) },
        })
    }
}

/// A frozen copy of the ring, produced by a dump trigger.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// Why the dump was taken (`circuit-open`, `deadline-exceeded`, …).
    pub reason: String,
    /// The recording node.
    pub node: Arc<str>,
    /// Monotonic µs (recorder epoch) at which the dump was taken.
    pub at_us: u64,
    /// Ring contents at the trigger, oldest first.
    pub events: Vec<FlightEvent>,
}

impl FlightDump {
    /// Whether the dump contains an event of `kind` whose detail
    /// contains `needle` (empty `needle` matches any detail).
    pub fn contains(&self, kind: FlightEventKind, needle: &str) -> bool {
        self.events.iter().any(|e| {
            e.kind == kind
                && (needle.is_empty() || e.detail.as_deref().is_some_and(|d| d.contains(needle)))
        })
    }
}

/// One thread's staging buffer for one recorder.
struct Slot {
    buf: OrderedMutex<Vec<FlightEvent>>,
}

struct Inner {
    id: u64,
    node: Arc<str>,
    /// Recorder creation; event `ts_us` values are microseconds since.
    epoch: Instant,
    capacity: usize,
    seq: AtomicU64,
    counts: [AtomicU64; KIND_COUNT],
    ring: OrderedMutex<VecDeque<FlightEvent>>,
    slots: OrderedMutex<Vec<Arc<Slot>>>,
    dumps: OrderedMutex<VecDeque<FlightDump>>,
}

impl Inner {
    /// Move staged events into the ring, assigning sequence numbers and
    /// evicting the oldest entries past capacity. Caller holds `ring`.
    fn drain_into(&self, staged: &mut Vec<FlightEvent>, ring: &mut VecDeque<FlightEvent>) {
        for mut e in staged.drain(..) {
            e.seq = self.seq.fetch_add(1, Ordering::Relaxed);
            if self.capacity == 0 {
                continue;
            }
            if ring.len() == self.capacity {
                ring.pop_front();
            }
            ring.push_back(e);
        }
    }
}

thread_local! {
    /// Per-thread staging slots, keyed by recorder id. A slot is created
    /// on a thread's first record into a recorder and registered with it,
    /// so readers can flush every thread's staged events.
    static STAGE: RefCell<HashMap<u64, (Weak<Inner>, Arc<Slot>)>> =
        RefCell::new(HashMap::new());
}

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

/// The always-on ring buffer of lifecycle events. Cloning shares the
/// same recorder (the handle every layer holds).
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("node", &self.inner.node)
            .field("capacity", &self.inner.capacity)
            .field("recorded", &self.total())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder for `node` retaining at most `capacity` events.
    pub fn new(node: impl Into<Arc<str>>, capacity: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Arc::new(Inner {
                id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
                node: node.into(),
                epoch: Instant::now(),
                capacity,
                seq: AtomicU64::new(0),
                counts: std::array::from_fn(|_| AtomicU64::new(0)),
                ring: OrderedMutex::new(LockRank::FlightRing, VecDeque::with_capacity(capacity)),
                slots: OrderedMutex::new(LockRank::FlightSlots, Vec::new()),
                dumps: OrderedMutex::new(LockRank::FlightDumps, VecDeque::new()),
            }),
        }
    }

    /// The recording node's name.
    pub fn node(&self) -> &str {
        &self.inner.node
    }

    /// The ring capacity (bounded memory by construction).
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Record a hot-path event. Never allocates in steady state: the
    /// event is staged in a pre-sized per-thread buffer and flushed into
    /// the ring in batches of [`STAGE_BATCH`].
    #[inline]
    pub fn record(&self, kind: FlightEventKind, layer: &'static str, trace_id: Option<u64>) {
        self.push(kind, Cow::Borrowed(layer), trace_id, None);
    }

    /// Record an event with a human-readable detail (allocates; reserve
    /// for off-hot-path events: transitions, rungs, faults, outcomes).
    pub fn record_detail(
        &self,
        kind: FlightEventKind,
        layer: &'static str,
        trace_id: Option<u64>,
        detail: impl Into<String>,
    ) {
        self.push(kind, Cow::Borrowed(layer), trace_id, Some(Cow::Owned(detail.into())));
    }

    fn push(
        &self,
        kind: FlightEventKind,
        layer: Cow<'static, str>,
        trace_id: Option<u64>,
        detail: Option<Cow<'static, str>>,
    ) {
        self.inner.counts[kind.index()].fetch_add(1, Ordering::Relaxed);
        let event = FlightEvent {
            seq: 0, // assigned when the batch lands in the ring
            ts_us: self.inner.epoch.elapsed().as_micros() as u64,
            kind,
            trace_id,
            node: Arc::clone(&self.inner.node),
            layer,
            detail,
        };
        STAGE.with(|stage| {
            let mut map = stage.borrow_mut();
            let slot = match map.get(&self.inner.id) {
                Some((_, slot)) => Arc::clone(slot),
                None => {
                    // First record from this thread: register a slot so
                    // readers can flush it, and drop map entries whose
                    // recorder is gone.
                    map.retain(|_, (weak, _)| weak.strong_count() > 0);
                    let slot = Arc::new(Slot { buf: OrderedMutex::new(LockRank::FlightBuf, Vec::with_capacity(STAGE_BATCH)) });
                    self.inner.slots.lock().push(Arc::clone(&slot));
                    map.insert(self.inner.id, (Arc::downgrade(&self.inner), Arc::clone(&slot)));
                    slot
                }
            };
            let mut buf = slot.buf.lock();
            buf.push(event);
            if buf.len() >= STAGE_BATCH {
                let mut ring = self.inner.ring.lock();
                self.inner.drain_into(&mut buf, &mut ring);
            }
        });
    }

    /// Flush every thread's staged events into the shared ring.
    pub fn flush(&self) {
        let slots: Vec<Arc<Slot>> = self.inner.slots.lock().clone();
        let mut staged: Vec<FlightEvent> = Vec::new();
        for slot in &slots {
            let mut buf = slot.buf.lock();
            staged.extend(buf.drain(..));
        }
        // Cross-thread batches interleave; order by timestamp so readers
        // see a coherent timeline.
        staged.sort_by_key(|e| e.ts_us);
        let mut ring = self.inner.ring.lock();
        self.inner.drain_into(&mut staged, &mut ring);
    }

    /// The whole ring (oldest first), after flushing staged events.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        self.flush();
        self.inner.ring.lock().iter().cloned().collect()
    }

    /// The `n` most recent events (oldest of those first).
    pub fn tail(&self, n: usize) -> Vec<FlightEvent> {
        self.flush();
        let ring = self.inner.ring.lock();
        let skip = ring.len().saturating_sub(n);
        ring.iter().skip(skip).cloned().collect()
    }

    /// Every ring event with sequence number ≥ `seq` (oldest first),
    /// after flushing staged events.
    ///
    /// This is the poller's cursor primitive: start the cursor at 0,
    /// and after each poll advance it to `last.seq + 1`. Consecutive
    /// polls then return exactly the events recorded in between —
    /// nothing re-shipped, and nothing missed unless the ring
    /// overwrote it first (detectable: the first returned event's `seq`
    /// jumps past the cursor).
    pub fn since(&self, seq: u64) -> Vec<FlightEvent> {
        self.flush();
        let ring = self.inner.ring.lock();
        let start = ring.partition_point(|e| e.seq < seq);
        ring.iter().skip(start).cloned().collect()
    }

    /// The sequence number the next recorded event will receive. A
    /// cursor initialised here observes everything from this moment on
    /// and none of the backlog; a cursor initialised to 0 replays
    /// whatever backlog the ring still holds first.
    pub fn next_seq(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
    }

    /// Cumulative number of events of `kind` ever recorded (not bounded
    /// by the ring: counting survives overwrites).
    pub fn count(&self, kind: FlightEventKind) -> u64 {
        self.inner.counts[kind.index()].load(Ordering::Relaxed)
    }

    /// Cumulative number of events ever recorded.
    pub fn total(&self) -> u64 {
        self.inner.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Freeze the current ring into a retained [`FlightDump`].
    ///
    /// Dump triggers (circuit-open, deadline exceeded, chaos assertion
    /// failures) call this so every failed run leaves a readable black
    /// box. At most [`MAX_DUMPS`] dumps are retained, oldest discarded.
    pub fn dump(&self, reason: &str) -> FlightDump {
        let events = self.snapshot();
        let dump = FlightDump {
            reason: reason.to_string(),
            node: Arc::clone(&self.inner.node),
            at_us: self.inner.epoch.elapsed().as_micros() as u64,
            events,
        };
        let mut dumps = self.inner.dumps.lock();
        if dumps.len() == MAX_DUMPS {
            dumps.pop_front();
        }
        dumps.push_back(dump.clone());
        dump
    }

    /// Dumps taken so far (oldest first).
    pub fn dumps(&self) -> Vec<FlightDump> {
        self.inner.dumps.lock().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cap: usize) -> FlightRecorder {
        FlightRecorder::new("n1", cap)
    }

    #[test]
    fn events_are_recorded_and_tailed_in_order() {
        let r = rec(16);
        r.record(FlightEventKind::RequestSent, "orb.client", Some(7));
        r.record(FlightEventKind::ReplyMatched, "orb.client", Some(7));
        r.record(FlightEventKind::RequestSent, "orb.client", None);
        let all = r.snapshot();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].kind, FlightEventKind::RequestSent);
        assert_eq!(all[0].trace_id, Some(7));
        assert_eq!(all[2].trace_id, None);
        assert!(all.windows(2).all(|w| w[0].seq < w[1].seq));
        let tail = r.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[1].seq, all[2].seq);
    }

    #[test]
    fn ring_overwrites_oldest_but_counts_survive() {
        let r = rec(4);
        for i in 0..10 {
            r.record(FlightEventKind::RequestSent, "orb.client", Some(i));
        }
        let all = r.snapshot();
        assert_eq!(all.len(), 4, "capacity bounds the ring");
        assert_eq!(all[0].trace_id, Some(6), "oldest events were evicted");
        assert_eq!(r.count(FlightEventKind::RequestSent), 10);
        assert_eq!(r.total(), 10);
    }

    #[test]
    fn staged_events_from_other_threads_are_flushed_by_readers() {
        let r = rec(64);
        let r2 = r.clone();
        std::thread::spawn(move || {
            for _ in 0..5 {
                r2.record(FlightEventKind::RequestDispatched, "orb.server", None);
            }
        })
        .join()
        .unwrap();
        // Fewer than STAGE_BATCH events: they are still staged in the
        // (now dead) thread's slot until a reader flushes.
        assert_eq!(r.snapshot().len(), 5);
    }

    #[test]
    fn dumps_freeze_ring_contents() {
        let r = rec(8);
        r.record_detail(
            FlightEventKind::CircuitTransition,
            "resilience",
            None,
            "closed->open".to_string(),
        );
        let dump = r.dump("circuit-open");
        assert_eq!(dump.reason, "circuit-open");
        assert!(dump.contains(FlightEventKind::CircuitTransition, "closed->open"));
        assert!(!dump.contains(FlightEventKind::CircuitTransition, "half_open"));
        // Later traffic does not alter the frozen dump.
        for _ in 0..20 {
            r.record(FlightEventKind::RequestSent, "orb.client", None);
        }
        assert_eq!(r.dumps()[0].events.len(), 1);
    }

    #[test]
    fn since_cursor_neither_reships_nor_misses() {
        let r = rec(64);
        for i in 0..5 {
            r.record(FlightEventKind::RequestSent, "orb.client", Some(i));
        }
        let first = r.since(0);
        assert_eq!(first.len(), 5, "cursor 0 replays the backlog");
        let mut cursor = first.last().unwrap().seq + 1;
        assert!(r.since(cursor).is_empty(), "nothing new, nothing re-shipped");
        for i in 5..8 {
            r.record(FlightEventKind::ReplyMatched, "orb.client", Some(i));
        }
        let next = r.since(cursor);
        assert_eq!(next.len(), 3, "exactly the events recorded since");
        assert!(next.iter().all(|e| e.kind == FlightEventKind::ReplyMatched));
        cursor = next.last().unwrap().seq + 1;
        assert_eq!(cursor, r.next_seq());
    }

    #[test]
    fn since_detects_ring_overwrite_as_a_seq_gap() {
        let r = rec(4);
        r.record(FlightEventKind::RequestSent, "orb.client", None);
        let cursor = r.since(0).last().unwrap().seq + 1;
        for _ in 0..10 {
            r.record(FlightEventKind::RequestSent, "orb.client", None);
        }
        let got = r.since(cursor);
        assert_eq!(got.len(), 4, "only what the ring still holds");
        assert!(got[0].seq > cursor, "the gap is visible to the poller");
    }

    #[test]
    fn kind_names_roundtrip() {
        for kind in ALL_KINDS {
            assert_eq!(FlightEventKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(FlightEventKind::parse("nope"), None);
    }

    #[test]
    fn event_any_roundtrip() {
        let r = rec(4);
        r.record_detail(FlightEventKind::Negotiation, "negotiation", Some(42), "agreed".to_string());
        r.record(FlightEventKind::RequestSent, "orb.client", None);
        for e in r.snapshot() {
            let back = FlightEvent::from_any(&e.to_any()).unwrap();
            assert_eq!(back, e);
        }
    }
}
