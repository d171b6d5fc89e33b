//! The client-side rendezvous (Fig. 1: between "ORB client" and the
//! reply coming back off the wire): per-thread reply slots, the sharded
//! pending-reply table the receive loop matches against, and the
//! [`InFlight`] guard that keeps the two consistent on every exit path.

use super::Orb;
use crate::any::Any;
use crate::error::OrbError;
use crate::giop::ReplyMessage;
use crate::sync::{LockRank, OrderedCondvar, OrderedMutex};
use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Number of independent locks striping the pending-reply table. Reply
/// matching is lookup-dominated; striping keeps concurrent callers with
/// unrelated request ids from serializing on one mutex.
pub(crate) const PENDING_SHARDS: usize = 16;

/// One rendezvous between a waiting caller and the receive loop.
///
/// A slot belongs to exactly one caller thread (see [`current_slot`])
/// and is reused across calls instead of allocating a channel per
/// request. `armed` records the request id the slot currently serves,
/// so a late reply to a *previous* request on the same thread is
/// recognised as stale and counted orphaned rather than delivered to
/// the wrong caller.
pub(super) struct ReplySlot {
    state: OrderedMutex<SlotState>,
    cvar: OrderedCondvar,
}

struct SlotState {
    /// Request id currently armed on this slot; `0` = disarmed.
    armed: u64,
    queue: VecDeque<ReplyMessage>,
}

impl ReplySlot {
    pub(super) fn new() -> ReplySlot {
        ReplySlot {
            state: OrderedMutex::new(
                LockRank::ReplySlot,
                SlotState { armed: 0, queue: VecDeque::new() },
            ),
            cvar: OrderedCondvar::new(),
        }
    }

    /// Serve request `id` from now on (`0` disarms), forgetting whatever
    /// the previous request left queued.
    fn arm(&self, id: u64) {
        let mut s = self.state.lock();
        s.armed = id;
        s.queue.clear();
    }

    /// Deliver `reply` if the slot is still armed for `id`; a refusal
    /// means the caller gave up (timeout) and the reply is an orphan.
    ///
    /// `counted` runs under the slot lock, after the armed guard accepts
    /// the reply and before the waiter can pop it. Stats bumped there are
    /// visible by the time the caller's `invoke` returns — bumping after
    /// `push` instead lets a caller observe its own completed call as
    /// uncounted (Metrics 600 and Flight 700s rank above ReplySlot 510,
    /// so acquiring them here respects the lock order).
    pub(super) fn push(&self, id: u64, reply: ReplyMessage, counted: impl FnOnce()) -> bool {
        let mut s = self.state.lock();
        if s.armed != id {
            return false;
        }
        s.queue.push_back(reply);
        counted();
        self.cvar.notify_all();
        true
    }

    /// Take one queued reply for `id` without blocking.
    fn try_pop(&self, id: u64) -> Option<ReplyMessage> {
        let mut s = self.state.lock();
        if s.armed != id {
            return None;
        }
        s.queue.pop_front()
    }

    /// Block until a reply for `id` arrives or `deadline` passes.
    fn wait_until(&self, id: u64, deadline: Instant) -> Option<ReplyMessage> {
        let mut s = self.state.lock();
        loop {
            if s.armed != id {
                return None;
            }
            if let Some(r) = s.queue.pop_front() {
                return Some(r);
            }
            if Instant::now() >= deadline {
                return None;
            }
            self.cvar.wait_until(&mut s, deadline);
        }
    }
}

thread_local! {
    /// Per-thread rendezvous slot. A thread has at most one synchronous
    /// invocation outstanding at a time (nested calls made *by a
    /// servant* run on dispatcher threads, which carry their own slot),
    /// so one reusable slot per thread replaces a per-call channel.
    static REPLY_SLOT: Arc<ReplySlot> = Arc::new(ReplySlot::new());
}

fn current_slot() -> Arc<ReplySlot> {
    REPLY_SLOT.with(Arc::clone)
}

struct Pending {
    slot: Arc<ReplySlot>,
    /// Fan-out collectors peek the entry and leave it registered so
    /// several replies can accumulate; point-to-point calls are *taken*
    /// out of the shard so the lock drops before delivery.
    collect: bool,
}

/// Where an issued request's reply (if any) is to be delivered.
#[derive(Clone, Copy)]
pub(super) enum Rendezvous {
    /// Fire-and-forget: nothing is registered, no reply is expected.
    Oneway,
    /// The calling thread's pooled slot. `collect` leaves the entry
    /// registered across replies (replica fan-out).
    Pooled { collect: bool },
    /// A slot of its own, so one thread can hold many calls in flight.
    Private,
}

/// Pending-reply table, striped over [`PENDING_SHARDS`] locks keyed by
/// request id.
pub(super) struct PendingTable([OrderedMutex<HashMap<u64, Pending>>; PENDING_SHARDS]);

impl PendingTable {
    pub(super) fn new() -> PendingTable {
        PendingTable(std::array::from_fn(|_| {
            OrderedMutex::new(LockRank::PendingShard, HashMap::new())
        }))
    }

    #[inline]
    fn shard(&self, id: u64) -> &OrderedMutex<HashMap<u64, Pending>> {
        &self.0[(id as usize) % PENDING_SHARDS]
    }

    /// Arm the slot `rendezvous` names for request `id` and register it.
    fn register(&self, id: u64, rendezvous: Rendezvous) -> Option<Arc<ReplySlot>> {
        let (slot, collect) = match rendezvous {
            Rendezvous::Oneway => return None,
            Rendezvous::Pooled { collect } => (current_slot(), collect),
            Rendezvous::Private => (Arc::new(ReplySlot::new()), false),
        };
        slot.arm(id);
        self.shard(id).lock().insert(id, Pending { slot: Arc::clone(&slot), collect });
        Some(slot)
    }

    fn unregister_pending(&self, id: u64, slot: &ReplySlot) {
        self.shard(id).lock().remove(&id);
        slot.arm(0);
    }

    /// Receive-loop side: the slot waiting for reply `id`. The entry is
    /// taken out of its shard (fan-out collectors are peeked and left
    /// registered) and the lock dropped *before* the caller delivers, so
    /// a slow consumer never holds up unrelated reply matching on the
    /// same shard.
    pub(super) fn claim(&self, id: u64) -> Option<Arc<ReplySlot>> {
        let mut shard = self.shard(id).lock();
        match shard.get(&id) {
            None => None,
            Some(p) if p.collect => Some(Arc::clone(&p.slot)),
            Some(_) => shard.remove(&id).map(|p| p.slot),
        }
    }

    pub(super) fn len(&self) -> usize {
        self.0.iter().map(|shard| shard.lock().len()).sum()
    }
}

/// One issued request: its id, when it went on the wire and — unless
/// oneway — the armed reply slot registered in the pending table.
///
/// Dropping the guard unregisters the request; this `Drop` is the only
/// caller of `unregister_pending`, so no exit path (send error, timeout,
/// remote exception, an abandoned [`PendingCall`]) can leak an entry.
/// `H` is `&Orb` for calls that finish inside one entry point and an
/// owned [`Orb`] for the handle a [`PendingCall`] carries away.
pub(super) struct InFlight<H: Borrow<Orb>> {
    orb: H,
    id: u64,
    slot: Option<Arc<ReplySlot>>,
    started: Instant,
}

impl<H: Borrow<Orb>> InFlight<H> {
    /// Register request `id` with `orb`'s pending table and stamp the
    /// issue time; the caller sends next.
    pub(super) fn register(orb: H, id: u64, rendezvous: Rendezvous) -> InFlight<H> {
        let slot = orb.borrow().inner.pending.register(id, rendezvous);
        InFlight { orb, id, slot, started: Instant::now() }
    }

    pub(super) fn orb(&self) -> &Orb {
        self.orb.borrow()
    }

    /// When the request was issued (stamped just before the send).
    pub(super) fn issued_at(&self) -> Instant {
        self.started
    }

    /// Block until a reply arrives or `deadline` passes.
    pub(super) fn wait_until(&self, deadline: Instant) -> Option<ReplyMessage> {
        self.slot.as_ref()?.wait_until(self.id, deadline)
    }

    /// Take one already-delivered reply without blocking.
    pub(super) fn try_pop(&self) -> Option<ReplyMessage> {
        self.slot.as_ref()?.try_pop(self.id)
    }

    /// Wait `timeout` (from now) for the single reply of a
    /// point-to-point call.
    pub(super) fn await_reply(&self, timeout: Duration) -> Result<ReplyMessage, OrbError> {
        self.wait_until(Instant::now() + timeout).ok_or_else(|| {
            OrbError::Timeout(format!("request {}: no reply within {timeout:?}", self.id))
        })
    }
}

impl<H: Borrow<Orb>> Drop for InFlight<H> {
    fn drop(&mut self) {
        if let Some(slot) = &self.slot {
            self.orb.borrow().inner.pending.unregister_pending(self.id, slot);
        }
    }
}

/// A reply handle for one in-flight [`Orb::invoke_async`] request.
///
/// Futures-free GIOP pipelining: each handle owns a *private*
/// [`ReplySlot`] (not the caller thread's pooled one), so a single
/// client thread can keep any number of calls in flight through the
/// sharded pending table and harvest them in any order with
/// [`PendingCall::wait`]. Dropping an unharvested handle unregisters
/// the request; its late reply is counted orphaned, never misdelivered
/// (the armed-request-id guard applies to private slots exactly as to
/// pooled ones).
pub struct PendingCall {
    flight: InFlight<Orb>,
    deadline: Instant,
}

impl PendingCall {
    /// A handle on `flight` whose reply is due `timeout` after issue.
    pub(super) fn new(flight: InFlight<Orb>, timeout: Duration) -> PendingCall {
        let deadline = flight.started + timeout;
        PendingCall { flight, deadline }
    }

    /// The GIOP request id this handle is waiting on.
    pub fn request_id(&self) -> u64 {
        self.flight.id
    }

    /// Park until the reply arrives or the ORB's request timeout
    /// (counted from issue time) expires, then decode the result.
    ///
    /// # Errors
    ///
    /// Remote exceptions, [`OrbError::Timeout`], as [`Orb::invoke`].
    pub fn wait(self) -> Result<Any, OrbError> {
        // Dropping `self` (on both paths) unregisters the pending entry
        // and disarms the slot — the same order as the synchronous path.
        let reply = self.flight.wait_until(self.deadline).ok_or_else(|| {
            OrbError::Timeout(format!(
                "request {}: no reply before pipeline deadline",
                self.flight.id
            ))
        })?;
        let roundtrip_us = self.flight.started.elapsed().as_micros() as u64;
        self.flight.orb().inner.metrics.observe_us("orb.roundtrip_us", roundtrip_us);
        reply.into_result()
    }
}
