//! Rank-ordered lock wrappers — the ORB's lock-order discipline.
//!
//! Every long-lived lock in the middleware (ORB core, object adapter,
//! flight recorder, metrics, transport, pseudo-object registry, the QoS
//! services, the weaver and the QoS mechanisms) is wrapped in an
//! [`OrderedMutex`] or [`OrderedRwLock`] carrying a static [`LockRank`]
//! drawn from the single hierarchy table below. The discipline is:
//!
//! > **A thread may only acquire a lock whose rank is strictly greater
//! > than every rank it already holds.**
//!
//! Ranks grow "downward" through the layers: outer-layer locks (services,
//! weaver) have *low* ranks, inner-layer locks (ORB hot path, flight
//! recorder) have *high* ranks. A thread that respects the table can
//! therefore call from a QoS service through a mediator chain into the
//! ORB core and the flight recorder while holding locks at each layer —
//! but can never create a cycle, so lock-order deadlock is impossible by
//! construction.
//!
//! In debug builds (`cfg(debug_assertions)`, which includes `cargo test`)
//! every acquisition is checked against a thread-local stack of held
//! ranks and an out-of-order acquisition **panics immediately**, naming
//! both ranks, *before* blocking on the lock. Release builds compile the
//! wrappers down to plain `parking_lot` locks with zero overhead: the
//! rank is a dead `u16` field and the guard is a `repr`-transparent
//! wrapper around the `parking_lot` guard.
//!
//! # The rank hierarchy
//!
//! | Rank | Name | Protects | Module |
//! |-----:|------|----------|--------|
//! | 100 | `NamingBindings` | naming-context binding tree | `services::naming` |
//! | 110 | `TradingOffers` | trader service offers | `services::trading` |
//! | 120 | `NegotiationObjects` | negotiable-object registry | `services::negotiation` |
//! | 124 | `NegotiationAgreements` | struck agreements | `services::negotiation` |
//! | 128 | `NegotiationMonitor` | negotiation monitor hook | `services::negotiation` |
//! | 130 | `MonitoringSeries` | monitor time series | `services::monitoring` |
//! | 134 | `MonitoringHandlers` | threshold handlers | `services::monitoring` |
//! | 140 | `AccountingUsage` | usage records | `services::accounting` |
//! | 144 | `AccountingTariffs` | tariff table (read while usage is held) | `services::accounting` |
//! | 150 | `AdaptationEvents` | adaptation event log | `services::adaptation` |
//! | 160 | `IntrospectionBindings` | introspection bindings provider | `services::introspection` |
//! | 164 | `TelemetryState` | aggregator node/ring/SLO state | `services::telemetry` |
//! | 168 | `SloHandlers` | SLO alert-handler list | `services::telemetry` |
//! | 220 | `WovenState` | woven-skeleton server chain | `weaver::skeleton` |
//! | 230 | `StubState` | woven-stub client chain | `weaver::mediator` |
//! | 240 | `ResiliencePolicy` | resilience retry/fallback policy | `weaver::resilience` |
//! | 244 | `ResilienceObserver` | resilience outcome observer | `weaver::resilience` |
//! | 248 | `ResilienceTarget` | resilience target override | `weaver::resilience` |
//! | 252 | `ResilienceFailStatic` | forced-failure switch | `weaver::resilience` |
//! | 260 | `BreakerInner` | circuit-breaker state machine | `weaver::resilience` |
//! | 264 | `ResilienceLastGood` | last-good reply cache | `weaver::resilience` |
//! | 270 | `ChainObs` | per-chain trace/timing observations | `weaver::mediator` |
//! | 300 | `QosMechConfig` | mechanism configuration (validity, strategy, role, key, server set) | `qosmech::*` |
//! | 310 | `QosMechState` | mechanism mutable state (caches, buckets, rng) | `qosmech::*` |
//! | 320 | `QosMechStats` | mechanism counters, updated while state is held | `qosmech::*` |
//! | 330 | `QosMechMetrics` | mechanism metrics-registry hooks | `qosmech::*` |
//! | 400 | `QosBindingState` | QoS module/binding table | `orb::qos_binding` |
//! | 420 | `AdapterServants` | object-adapter servant map | `orb::adapter` |
//! | 430 | `PseudoObjects` | pseudo-object registry | `orb::pseudo` |
//! | 436 | `WireFaultState` | fault-injection script/held-frame state | `orb::wire::fault` |
//! | 440 | `WireState` | wire-transport peer/connection registry | `orb::wire` |
//! | 442 | `WireOutbox` | one connection's bounded outbox queue | `orb::wire` |
//! | 444 | `WireConn` | one pooled connection's control stream | `orb::wire` |
//! | 500 | `PendingShard` | one shard of the pending-request table | `orb::core` |
//! | 510 | `ReplySlot` | per-thread reply rendezvous slot | `orb::core` |
//! | 600 | `MetricsInner` | metrics registry interior | `orb::metrics` |
//! | 700 | `FlightSlots` | flight-recorder slot list | `orb::flight` |
//! | 710 | `FlightBuf` | one staging-slot buffer | `orb::flight` |
//! | 720 | `FlightRing` | flight-recorder ring | `orb::flight` |
//! | 730 | `FlightDumps` | captured flight dumps | `orb::flight` |
//!
//! Leaf facilities that *any* layer may call while holding its own locks
//! (metrics, the flight recorder) sit at the bottom of the table with the
//! highest ranks. The ORB hot path (pending shard → reply slot) sits just
//! above them. Two locks of the *same* rank may never be held together —
//! code that needs two shards must release the first before taking the
//! second (the core's scan paths already do).
//!
//! # Adding a lock
//!
//! 1. Pick the layer the lock belongs to and insert a rank in the table
//!    above, leaving numeric gaps for future neighbours.
//! 2. Add the variant to [`LockRank`] (explicit discriminant) and a row
//!    to [`LockRank::TABLE`].
//! 3. Wrap the lock in [`OrderedMutex`]/[`OrderedRwLock`] with that rank.
//! 4. Run `cargo test` (debug): every existing test doubles as a
//!    lock-order test.

use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};

/// Static rank of a lock in the global acquisition order.
///
/// See the [module docs](self) for the full hierarchy table. Discriminants
/// are explicit so the numeric order in the source is the authoritative
/// acquisition order and survives reordering of the variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
#[allow(missing_docs)] // each variant is documented by the table row
pub enum LockRank {
    NamingBindings = 100,
    TradingOffers = 110,
    NegotiationObjects = 120,
    NegotiationAgreements = 124,
    NegotiationMonitor = 128,
    MonitoringSeries = 130,
    MonitoringHandlers = 134,
    AccountingUsage = 140,
    AccountingTariffs = 144,
    AdaptationEvents = 150,
    IntrospectionBindings = 160,
    TelemetryState = 164,
    SloHandlers = 168,
    WovenState = 220,
    StubState = 230,
    ResiliencePolicy = 240,
    ResilienceObserver = 244,
    ResilienceTarget = 248,
    ResilienceFailStatic = 252,
    BreakerInner = 260,
    ResilienceLastGood = 264,
    ChainObs = 270,
    QosMechConfig = 300,
    QosMechState = 310,
    QosMechStats = 320,
    QosMechMetrics = 330,
    QosBindingState = 400,
    AdapterServants = 420,
    PseudoObjects = 430,
    WireFaultState = 436,
    WireState = 440,
    WireOutbox = 442,
    WireConn = 444,
    PendingShard = 500,
    ReplySlot = 510,
    MetricsInner = 600,
    FlightSlots = 700,
    FlightBuf = 710,
    FlightRing = 720,
    FlightDumps = 730,
}

/// One row of the declared hierarchy: `(rank value, name, owning module)`.
pub type RankRow = (u16, &'static str, &'static str);

impl LockRank {
    /// The declared hierarchy as plain data, in acquisition order.
    ///
    /// This is the machine-readable form of the module-level table.
    pub const TABLE: &'static [RankRow] = &[
        (100, "NamingBindings", "services::naming"),
        (110, "TradingOffers", "services::trading"),
        (120, "NegotiationObjects", "services::negotiation"),
        (124, "NegotiationAgreements", "services::negotiation"),
        (128, "NegotiationMonitor", "services::negotiation"),
        (130, "MonitoringSeries", "services::monitoring"),
        (134, "MonitoringHandlers", "services::monitoring"),
        (140, "AccountingUsage", "services::accounting"),
        (144, "AccountingTariffs", "services::accounting"),
        (150, "AdaptationEvents", "services::adaptation"),
        (160, "IntrospectionBindings", "services::introspection"),
        (164, "TelemetryState", "services::telemetry"),
        (168, "SloHandlers", "services::telemetry"),
        (220, "WovenState", "weaver::skeleton"),
        (230, "StubState", "weaver::mediator"),
        (240, "ResiliencePolicy", "weaver::resilience"),
        (244, "ResilienceObserver", "weaver::resilience"),
        (248, "ResilienceTarget", "weaver::resilience"),
        (252, "ResilienceFailStatic", "weaver::resilience"),
        (260, "BreakerInner", "weaver::resilience"),
        (264, "ResilienceLastGood", "weaver::resilience"),
        (270, "ChainObs", "weaver::mediator"),
        (300, "QosMechConfig", "qosmech"),
        (310, "QosMechState", "qosmech"),
        (320, "QosMechStats", "qosmech"),
        (330, "QosMechMetrics", "qosmech"),
        (400, "QosBindingState", "orb::qos_binding"),
        (420, "AdapterServants", "orb::adapter"),
        (430, "PseudoObjects", "orb::pseudo"),
        (436, "WireFaultState", "orb::wire::fault"),
        (440, "WireState", "orb::wire"),
        (442, "WireOutbox", "orb::wire"),
        (444, "WireConn", "orb::wire"),
        (500, "PendingShard", "orb::core"),
        (510, "ReplySlot", "orb::core"),
        (600, "MetricsInner", "orb::metrics"),
        (700, "FlightSlots", "orb::flight"),
        (710, "FlightBuf", "orb::flight"),
        (720, "FlightRing", "orb::flight"),
        (730, "FlightDumps", "orb::flight"),
    ];

    /// The numeric rank value.
    #[inline]
    pub const fn value(self) -> u16 {
        self as u16
    }

    /// The rank's name as it appears in the hierarchy table.
    pub fn name(self) -> &'static str {
        let v = self.value();
        for &(rank, name, _) in Self::TABLE {
            if rank == v {
                return name;
            }
        }
        "<unknown>"
    }
}

#[cfg(debug_assertions)]
mod check {
    //! Debug-only thread-local rank-stack bookkeeping.

    use super::LockRank;
    use std::cell::RefCell;

    #[derive(Clone, Copy)]
    struct Held {
        rank: LockRank,
        id: u64,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
        static NEXT_ID: RefCell<u64> = const { RefCell::new(0) };
    }

    /// Token recording one held lock; removing it on drop keeps the
    /// stack correct even when guards are released out of LIFO order
    /// (which the discipline permits).
    pub(super) struct HeldToken {
        id: u64,
    }

    /// Check `rank` against every currently-held rank and record it.
    /// Panics — naming both ranks — *before* the caller blocks on the
    /// lock, so a would-be deadlock surfaces as a clean test failure.
    pub(super) fn acquire(rank: LockRank) -> HeldToken {
        HELD.with(|held| {
            let held = held.borrow();
            if let Some(worst) = held.iter().max_by_key(|h| h.rank) {
                assert!(
                    rank > worst.rank,
                    "lock-order violation: acquiring `{}` (rank {}) while holding `{}` \
                     (rank {}); locks must be acquired in strictly increasing rank order \
                     — see the hierarchy table in orb::sync",
                    rank.name(),
                    rank.value(),
                    worst.rank.name(),
                    worst.rank.value(),
                );
            }
        });
        let id = NEXT_ID.with(|n| {
            let mut n = n.borrow_mut();
            *n += 1;
            *n
        });
        HELD.with(|held| held.borrow_mut().push(Held { rank, id }));
        HeldToken { id }
    }

    impl Drop for HeldToken {
        fn drop(&mut self) {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().position(|h| h.id == self.id) {
                    held.remove(pos);
                }
            });
        }
    }

    /// Ranks currently held by this thread, in acquisition order.
    pub(super) fn held_ranks() -> Vec<LockRank> {
        HELD.with(|held| held.borrow().iter().map(|h| h.rank).collect())
    }
}

/// Ranks currently held by the calling thread, in acquisition order.
///
/// Debug builds only; release builds always return an empty vector. Meant
/// for assertions in tests and models, not for control flow.
pub fn held_ranks() -> Vec<LockRank> {
    #[cfg(debug_assertions)]
    {
        check::held_ranks()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// A mutex that participates in the global lock-order discipline.
///
/// Debug builds panic on out-of-order acquisition; release builds are a
/// plain `parking_lot::Mutex` plus a dead `u16`.
pub struct OrderedMutex<T: ?Sized> {
    rank: LockRank,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Create a mutex at `rank`.
    pub const fn new(rank: LockRank, value: T) -> OrderedMutex<T> {
        OrderedMutex { rank, inner: Mutex::new(value) }
    }

    /// Consume the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    /// This lock's rank in the hierarchy.
    #[inline]
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// Acquire the mutex, blocking. Panics in debug builds if the calling
    /// thread already holds a lock of equal or greater rank.
    #[inline]
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = check::acquire(self.rank);
        OrderedMutexGuard {
            inner: self.inner.lock(),
            #[cfg(debug_assertions)]
            _token: token,
        }
    }

    /// Try to acquire the mutex without blocking. The rank check still
    /// applies: even a `try_lock` that would succeed is a latent deadlock
    /// if it violates the order on some interleaving.
    #[inline]
    pub fn try_lock(&self) -> Option<OrderedMutexGuard<'_, T>> {
        #[cfg(debug_assertions)]
        let token = check::acquire(self.rank);
        let inner = self.inner.try_lock()?;
        Some(OrderedMutexGuard {
            inner,
            #[cfg(debug_assertions)]
            _token: token,
        })
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedMutex").field("rank", &self.rank).field("inner", &self.inner).finish()
    }
}

/// Guard for [`OrderedMutex`]; releases the rank on drop.
pub struct OrderedMutexGuard<'a, T: ?Sized> {
    inner: parking_lot::MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    _token: check::HeldToken,
}

impl<T: ?Sized> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A reader-writer lock that participates in the lock-order discipline.
///
/// Both read and write acquisitions are rank-checked: a read acquisition
/// out of rank order can still deadlock against a queued writer, so the
/// discipline makes no read/write distinction.
pub struct OrderedRwLock<T: ?Sized> {
    rank: LockRank,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Create a reader-writer lock at `rank`.
    pub const fn new(rank: LockRank, value: T) -> OrderedRwLock<T> {
        OrderedRwLock { rank, inner: RwLock::new(value) }
    }

    /// Consume the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> OrderedRwLock<T> {
    /// This lock's rank in the hierarchy.
    #[inline]
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// Acquire a shared read guard, blocking.
    #[inline]
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = check::acquire(self.rank);
        OrderedRwLockReadGuard {
            inner: self.inner.read(),
            #[cfg(debug_assertions)]
            _token: token,
        }
    }

    /// Acquire an exclusive write guard, blocking.
    #[inline]
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = check::acquire(self.rank);
        OrderedRwLockWriteGuard {
            inner: self.inner.write(),
            #[cfg(debug_assertions)]
            _token: token,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("rank", &self.rank)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Shared guard for [`OrderedRwLock`]; releases the rank on drop.
pub struct OrderedRwLockReadGuard<'a, T: ?Sized> {
    inner: parking_lot::RwLockReadGuard<'a, T>,
    #[cfg(debug_assertions)]
    _token: check::HeldToken,
}

impl<T: ?Sized> std::ops::Deref for OrderedRwLockReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Exclusive guard for [`OrderedRwLock`]; releases the rank on drop.
pub struct OrderedRwLockWriteGuard<'a, T: ?Sized> {
    inner: parking_lot::RwLockWriteGuard<'a, T>,
    #[cfg(debug_assertions)]
    _token: check::HeldToken,
}

impl<T: ?Sized> std::ops::Deref for OrderedRwLockWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for OrderedRwLockWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A condition variable paired with an [`OrderedMutex`].
///
/// Waiting releases the mutex but *keeps the rank on the thread's stack*:
/// the waiting thread runs no user code until the wait returns with the
/// mutex re-acquired, so the conservative accounting is free — and it
/// means a wake-up can never re-acquire out of order.
pub struct OrderedCondvar {
    inner: Condvar,
}

impl OrderedCondvar {
    /// Create a condition variable.
    pub const fn new() -> OrderedCondvar {
        OrderedCondvar { inner: Condvar::new() }
    }

    /// Wake one waiter.
    #[inline]
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake all waiters.
    #[inline]
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Block until notified, releasing the mutex while waiting.
    #[inline]
    pub fn wait<T>(&self, guard: &mut OrderedMutexGuard<'_, T>) {
        self.inner.wait(&mut guard.inner);
    }

    /// Block until notified or `timeout` elapses; returns whether the
    /// wait timed out.
    #[inline]
    pub fn wait_for<T>(
        &self,
        guard: &mut OrderedMutexGuard<'_, T>,
        timeout: Duration,
    ) -> bool {
        self.inner.wait_for(&mut guard.inner, timeout).timed_out()
    }

    /// Block until notified or `deadline` passes; returns whether the
    /// wait timed out.
    #[inline]
    pub fn wait_until<T>(
        &self,
        guard: &mut OrderedMutexGuard<'_, T>,
        deadline: Instant,
    ) -> bool {
        self.inner.wait_until(&mut guard.inner, deadline).timed_out()
    }
}

impl Default for OrderedCondvar {
    fn default() -> OrderedCondvar {
        OrderedCondvar::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn in_order_acquisition_is_allowed() {
        let outer = OrderedMutex::new(LockRank::WovenState, 1u32);
        let inner = OrderedMutex::new(LockRank::PendingShard, 2u32);
        let leaf = OrderedRwLock::new(LockRank::FlightRing, 3u32);
        let a = outer.lock();
        let b = inner.lock();
        let c = leaf.read();
        assert_eq!(*a + *b + *c, 6);
        assert_eq!(
            held_ranks(),
            vec![LockRank::WovenState, LockRank::PendingShard, LockRank::FlightRing]
        );
    }

    #[test]
    fn out_of_order_acquisition_panics_in_debug() {
        let inner = OrderedMutex::new(LockRank::FlightRing, ());
        let outer = OrderedMutex::new(LockRank::PendingShard, ());
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _leaf = inner.lock();
            let _core = outer.lock(); // rank 500 after rank 720: inversion
        }));
        let msg = *result.expect_err("inversion must panic").downcast::<String>().unwrap();
        assert!(msg.contains("lock-order violation"), "message: {msg}");
        assert!(msg.contains("PendingShard") && msg.contains("FlightRing"), "message: {msg}");
        assert!(msg.contains("500") && msg.contains("720"), "message: {msg}");
    }

    #[test]
    fn same_rank_reacquisition_panics_in_debug() {
        let a = OrderedRwLock::new(LockRank::PendingShard, ());
        let b = OrderedRwLock::new(LockRank::PendingShard, ());
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _first = a.read();
            let _second = b.read(); // equal rank: forbidden even for reads
        }));
        assert!(result.is_err(), "same-rank double acquisition must panic");
    }

    #[test]
    fn release_unwinds_the_stack_even_out_of_lifo_order() {
        let low = OrderedMutex::new(LockRank::WovenState, ());
        let high = OrderedMutex::new(LockRank::PendingShard, ());
        let g1 = low.lock();
        let g2 = high.lock();
        drop(g1); // release the *outer* lock first: legal
        assert_eq!(held_ranks(), vec![LockRank::PendingShard]);
        drop(g2);
        assert!(held_ranks().is_empty());
        // After full release any rank is acquirable again.
        let _g = low.lock();
    }

    #[test]
    fn try_lock_contended_does_not_leak_a_rank() {
        let m = std::sync::Arc::new(OrderedMutex::new(LockRank::PendingShard, ()));
        let m2 = std::sync::Arc::clone(&m);
        let g = m.lock();
        let t = std::thread::spawn(move || {
            assert!(m2.try_lock().is_none());
            assert!(held_ranks().is_empty(), "failed try_lock must pop its rank");
        });
        t.join().unwrap();
        drop(g);
    }

    #[test]
    fn condvar_roundtrip_preserves_rank() {
        let m = std::sync::Arc::new(OrderedMutex::new(LockRank::ReplySlot, false));
        let cv = std::sync::Arc::new(OrderedCondvar::new());
        let (m2, cv2) = (std::sync::Arc::clone(&m), std::sync::Arc::clone(&cv));
        let t = std::thread::spawn(move || {
            let mut g = m2.lock();
            while !*g {
                cv2.wait(&mut g);
            }
            assert_eq!(held_ranks(), vec![LockRank::ReplySlot]);
        });
        std::thread::sleep(Duration::from_millis(10));
        *m.lock() = true;
        cv.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn table_is_sorted_unique_and_matches_variants() {
        let mut prev = 0u16;
        for &(rank, name, module) in LockRank::TABLE {
            assert!(rank > prev, "table must be strictly increasing at {name}");
            assert!(!module.is_empty());
            prev = rank;
        }
        // Spot-check enum/table agreement.
        assert_eq!(LockRank::PendingShard.name(), "PendingShard");
        assert_eq!(LockRank::FlightDumps.value(), 730);
    }

    /// The four places product code holds one lock while taking another
    /// (DESIGN.md 6f, "observed nestings"): each must ascend.
    #[test]
    fn observed_nestings_ascend() {
        assert!(LockRank::AccountingUsage < LockRank::AccountingTariffs);
        assert!(LockRank::QosMechState < LockRank::QosMechStats);
        assert!(LockRank::QosMechState < LockRank::QosMechMetrics);
        assert!(LockRank::FlightBuf < LockRank::FlightRing);
    }
}
