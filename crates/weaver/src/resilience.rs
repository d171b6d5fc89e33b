//! Self-healing bindings, client half: deadline budgets, bounded retry
//! and a per-binding circuit breaker, packaged as a [`Mediator`].
//!
//! A negotiated agreement is a promise; this module is what the client
//! does while the promise holds — and the moment it stops holding:
//!
//! * every call gets a **deadline budget** derived from the agreement's
//!   `deadline_ms`, and the configured [`RetryPolicy`] runs strictly
//!   *inside* that budget (a retry that cannot finish in time is not
//!   started);
//! * every binding gets a **circuit breaker** (Closed → Open → HalfOpen)
//!   tripped by consecutive errors or by the failure rate over a rolling
//!   window, so a dead replica sheds load locally instead of timing out
//!   call after call;
//! * every outcome is fed to an optional [`RequestObserver`], which the
//!   deployment layer points at the QoS monitor — closing the loop that
//!   the adaptation engine (`services::adaptation`) reacts to.
//!
//! Breaker transitions are counted in [`orb::metrics`] (the
//! `resilience.circuit.*` family) and annotated as spans on the call's
//! trace via [`annotate_span`](crate::mediator::annotate_span).

use orb::sync::{LockRank, OrderedMutex, OrderedRwLock};
use crate::mediator::{annotate_span, Call, Mediator, Next};
use crate::objective::Objective;
use crate::skeleton::RequestObserver;
use orb::retry::RetryPolicy;
use orb::{Any, FlightEventKind, FlightRecorder, Ior, MetricsRegistry, OrbError};
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

/// The three circuit-breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitState {
    /// Calls flow; outcomes are tallied.
    Closed,
    /// Calls are rejected locally until the cooldown elapses.
    Open,
    /// A limited number of trial calls decide between Closed and Open.
    HalfOpen,
}

impl CircuitState {
    /// Lower-case name, used in metrics and trace spans.
    pub fn name(self) -> &'static str {
        match self {
            CircuitState::Closed => "closed",
            CircuitState::Open => "open",
            CircuitState::HalfOpen => "half_open",
        }
    }
}

/// Thresholds and timings for a [`CircuitBreaker`].
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Open after this many consecutive failures (>= 1).
    pub consecutive_failures: u32,
    /// Open when the failure rate over the rolling window reaches this
    /// fraction (0.0 ..= 1.0) …
    pub failure_rate: f64,
    /// … provided at least `min_calls` outcomes are in the window.
    pub min_calls: usize,
    /// Rolling-window size, in outcomes.
    pub window: usize,
    /// How long an open circuit rejects calls before probing (HalfOpen).
    pub cooldown: Duration,
    /// Successful trial calls needed in HalfOpen to close again.
    pub half_open_successes: u32,
}

impl Default for BreakerConfig {
    /// 3 consecutive failures or 50 % of the last 16 calls (min 8),
    /// 200 ms cooldown, one successful probe to close.
    fn default() -> BreakerConfig {
        BreakerConfig {
            consecutive_failures: 3,
            failure_rate: 0.5,
            min_calls: 8,
            window: 16,
            cooldown: Duration::from_millis(200),
            half_open_successes: 1,
        }
    }
}

/// A `(from, to)` state change, reported so callers can count and log it.
pub type Transition = (CircuitState, CircuitState);

struct BreakerInner {
    state: CircuitState,
    consecutive: u32,
    outcomes: VecDeque<bool>,
    opened_at: Option<Instant>,
    trial_successes: u32,
}

/// A per-binding circuit breaker (Closed → Open → HalfOpen).
///
/// Pure state machine: it never sleeps and never invokes anything. The
/// [`ResilienceMediator`] drives it; it is public so other layers (or
/// tests) can reuse the same semantics.
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: OrderedMutex<BreakerInner>,
}

impl std::fmt::Debug for CircuitBreaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CircuitBreaker")
            .field("state", &self.state())
            .field("config", &self.config)
            .finish()
    }
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            inner: OrderedMutex::new(LockRank::BreakerInner, BreakerInner {
                state: CircuitState::Closed,
                consecutive: 0,
                outcomes: VecDeque::new(),
                opened_at: None,
                trial_successes: 0,
            }),
        }
    }

    /// The current state.
    pub fn state(&self) -> CircuitState {
        self.inner.lock().state
    }

    /// Ask to admit one call. `Ok` admits (with the Open→HalfOpen
    /// transition if the cooldown just elapsed); `Err` rejects.
    pub fn admit(&self) -> Result<Option<Transition>, ()> {
        let mut st = self.inner.lock();
        match st.state {
            CircuitState::Closed | CircuitState::HalfOpen => Ok(None),
            CircuitState::Open => {
                let cooled =
                    st.opened_at.map(|t| t.elapsed() >= self.config.cooldown).unwrap_or(true);
                if cooled {
                    st.state = CircuitState::HalfOpen;
                    st.trial_successes = 0;
                    Ok(Some((CircuitState::Open, CircuitState::HalfOpen)))
                } else {
                    Err(())
                }
            }
        }
    }

    /// Record a successful call.
    pub fn on_success(&self) -> Option<Transition> {
        let mut st = self.inner.lock();
        st.consecutive = 0;
        match st.state {
            CircuitState::Closed => {
                Self::push_outcome(&mut st, &self.config, true);
                None
            }
            CircuitState::HalfOpen => {
                st.trial_successes += 1;
                if st.trial_successes >= self.config.half_open_successes.max(1) {
                    st.state = CircuitState::Closed;
                    st.outcomes.clear();
                    st.opened_at = None;
                    Some((CircuitState::HalfOpen, CircuitState::Closed))
                } else {
                    None
                }
            }
            // A success racing an open circuit (another thread tripped it
            // mid-call) does not close it; the probe path will.
            CircuitState::Open => None,
        }
    }

    /// Record a failed call.
    pub fn on_failure(&self) -> Option<Transition> {
        let mut st = self.inner.lock();
        st.consecutive += 1;
        match st.state {
            CircuitState::Closed => {
                Self::push_outcome(&mut st, &self.config, false);
                let by_streak = st.consecutive >= self.config.consecutive_failures.max(1);
                let failures = st.outcomes.iter().filter(|ok| !**ok).count();
                let by_rate = st.outcomes.len() >= self.config.min_calls.max(1)
                    && failures as f64 / st.outcomes.len() as f64 >= self.config.failure_rate;
                if by_streak || by_rate {
                    st.state = CircuitState::Open;
                    st.opened_at = Some(Instant::now());
                    Some((CircuitState::Closed, CircuitState::Open))
                } else {
                    None
                }
            }
            CircuitState::HalfOpen => {
                st.state = CircuitState::Open;
                st.opened_at = Some(Instant::now());
                Some((CircuitState::HalfOpen, CircuitState::Open))
            }
            CircuitState::Open => None,
        }
    }

    /// Force the breaker closed (after a rebind to a fresh replica).
    pub fn force_close(&self) -> Option<Transition> {
        let mut st = self.inner.lock();
        let from = st.state;
        st.state = CircuitState::Closed;
        st.consecutive = 0;
        st.outcomes.clear();
        st.opened_at = None;
        st.trial_successes = 0;
        (from != CircuitState::Closed).then_some((from, CircuitState::Closed))
    }

    fn push_outcome(st: &mut BreakerInner, config: &BreakerConfig, ok: bool) {
        st.outcomes.push_back(ok);
        while st.outcomes.len() > config.window.max(1) {
            st.outcomes.pop_front();
        }
    }
}

/// Everything the resilience mediator enforces for one binding.
#[derive(Debug, Clone)]
pub struct ResiliencePolicy {
    /// Per-call wall-clock budget; `None` leaves calls bounded only by
    /// the ORB's request timeout.
    pub deadline: Option<Duration>,
    /// Retry policy applied *within* the deadline budget.
    pub retry: RetryPolicy,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerConfig,
}

impl Default for ResiliencePolicy {
    /// No deadline, the default [`RetryPolicy`] (3 attempts, 10 ms
    /// doubling backoff), default breaker thresholds.
    fn default() -> ResiliencePolicy {
        ResiliencePolicy {
            deadline: None,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
        }
    }
}

impl ResiliencePolicy {
    /// Default retry and breaker, with the per-call deadline the
    /// agreement's parameters state (see [`crate::objective`]).
    pub fn from_params(params: &[(String, Any)]) -> ResiliencePolicy {
        let deadline = Objective::derive(params).iter().find_map(Objective::deadline);
        ResiliencePolicy { deadline, ..Default::default() }
    }
}

/// Which operations fail-static mode may answer from cache.
#[derive(Debug, Clone, Default)]
pub struct FailStaticMode {
    read_ops: HashSet<String>,
}

impl FailStaticMode {
    /// Serve cached replies for the given read operations; everything
    /// else is rejected.
    pub fn reads<I, S>(ops: I) -> FailStaticMode
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        FailStaticMode { read_ops: ops.into_iter().map(Into::into).collect() }
    }

    /// Whether `op` may be served from the last-known-good cache.
    pub fn is_read(&self, op: &str) -> bool {
        self.read_ops.contains(op)
    }
}

/// The resilience [`Mediator`]: deadline budget + bounded retry + circuit
/// breaker, installed as the *outermost* chain link of a binding's stub
/// (see [`ClientStub::push_mediator_front`](crate::ClientStub::push_mediator_front)).
///
/// The adaptation engine keeps an `Arc` to it and steers it when the
/// monitor reports violations: [`set_target_override`]
/// (rebind to a live replica), [`set_policy`] (renegotiated deadline) and
/// [`enter_fail_static`] (serve last-known-good reads, reject writes).
///
/// [`set_target_override`]: ResilienceMediator::set_target_override
/// [`set_policy`]: ResilienceMediator::set_policy
/// [`enter_fail_static`]: ResilienceMediator::enter_fail_static
pub struct ResilienceMediator {
    policy: OrderedRwLock<ResiliencePolicy>,
    breaker: CircuitBreaker,
    metrics: Option<MetricsRegistry>,
    flight: Option<FlightRecorder>,
    observer: OrderedRwLock<Option<RequestObserver>>,
    target_override: OrderedRwLock<Option<Ior>>,
    fail_static: OrderedRwLock<Option<FailStaticMode>>,
    last_good: OrderedMutex<HashMap<String, Any>>,
}

impl std::fmt::Debug for ResilienceMediator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilienceMediator")
            .field("policy", &*self.policy.read())
            .field("circuit", &self.breaker.state())
            .field("rebound", &self.target_override.read().is_some())
            .field("fail_static", &self.fail_static.read().is_some())
            .finish()
    }
}

impl ResilienceMediator {
    /// A mediator enforcing `policy`, with a fresh closed breaker.
    pub fn new(policy: ResiliencePolicy) -> ResilienceMediator {
        let breaker = CircuitBreaker::new(policy.breaker.clone());
        ResilienceMediator {
            policy: OrderedRwLock::new(LockRank::ResiliencePolicy, policy),
            breaker,
            metrics: None,
            flight: None,
            observer: OrderedRwLock::new(LockRank::ResilienceObserver, None),
            target_override: OrderedRwLock::new(LockRank::ResilienceTarget, None),
            fail_static: OrderedRwLock::new(LockRank::ResilienceFailStatic, None),
            last_good: OrderedMutex::new(LockRank::ResilienceLastGood, HashMap::new()),
        }
    }

    /// Count breaker transitions and outcomes into `metrics`
    /// (`resilience.*` counter family).
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> ResilienceMediator {
        self.metrics = Some(metrics);
        self
    }

    /// Record circuit transitions and deadline breaches into `flight`
    /// (the client ORB's black box). Opening the circuit and exceeding a
    /// deadline are dump triggers: each freezes the ring into a retained
    /// [`orb::FlightDump`] so the evidence survives further traffic.
    pub fn with_flight(mut self, flight: FlightRecorder) -> ResilienceMediator {
        self.flight = Some(flight);
        self
    }

    /// Feed every outcome `(operation, latency_us, ok)` to `observer` —
    /// the hook the deployment layer points at the QoS monitor.
    pub fn set_observer(&self, observer: Option<RequestObserver>) {
        *self.observer.write() = observer;
    }

    /// The current circuit state.
    pub fn circuit_state(&self) -> CircuitState {
        self.breaker.state()
    }

    /// Replace the enforced policy (e.g. after renegotiation relaxed the
    /// deadline). The breaker keeps its state; thresholds stay as
    /// constructed.
    pub fn set_policy(&self, policy: ResiliencePolicy) {
        *self.policy.write() = policy;
    }

    /// The currently enforced policy.
    pub fn policy(&self) -> ResiliencePolicy {
        self.policy.read().clone()
    }

    /// Redirect every subsequent call to `target` (rebind to a live
    /// replica), or clear the override with `None`. Closes the breaker:
    /// the new target starts with a clean slate.
    pub fn set_target_override(&self, target: Option<Ior>) {
        *self.target_override.write() = target;
        if let Some(t) = self.breaker.force_close() {
            self.note_transition(t);
        }
    }

    /// The active rebind target, if any.
    pub fn target_override(&self) -> Option<Ior> {
        self.target_override.read().clone()
    }

    /// Enter fail-static mode: operations in `mode` are answered from the
    /// last-known-good cache, everything else is rejected with
    /// [`OrbError::QosViolation`]. The ladder's last resort.
    pub fn enter_fail_static(&self, mode: FailStaticMode) {
        *self.fail_static.write() = Some(mode);
    }

    /// Leave fail-static mode (after the binding healed).
    pub fn exit_fail_static(&self) {
        *self.fail_static.write() = None;
    }

    /// Whether fail-static mode is active.
    pub fn is_fail_static(&self) -> bool {
        self.fail_static.read().is_some()
    }

    fn incr(&self, name: &str) {
        if let Some(m) = &self.metrics {
            m.incr(name);
        }
    }

    fn note_transition(&self, (from, to): Transition) {
        self.incr(&format!("resilience.circuit.{}", to.name()));
        annotate_span(format!("resilience.circuit:{}->{}", from.name(), to.name()), 0);
        if let Some(f) = &self.flight {
            f.record_detail(
                FlightEventKind::CircuitTransition,
                "resilience",
                None,
                format!("{}->{}", from.name(), to.name()),
            );
            if to == CircuitState::Open {
                f.dump("circuit-open");
            }
        }
    }

    fn observe(&self, op: &str, us: u64, ok: bool) {
        // Clone the hook out in its own statement: an `if let` scrutinee
        // would keep the read guard alive across the callback, which
        // re-enters the monitoring layer (lower lock rank).
        let obs = self.observer.read().clone();
        if let Some(obs) = obs {
            obs(op, us, ok);
        }
    }
}

impl Mediator for ResilienceMediator {
    fn characteristic(&self) -> &str {
        "resilience"
    }

    fn around(&self, mut call: Call, next: Next<'_>) -> Result<Any, OrbError> {
        if let Some(target) = self.target_override.read().clone() {
            call.target = target;
        }

        // Fail-static short-circuit: the binding is beyond healing for
        // now; serve stale reads, reject writes.
        if let Some(mode) = self.fail_static.read().clone() {
            if mode.is_read(&call.operation) {
                if let Some(cached) = self.last_good.lock().get(&call.operation).cloned() {
                    self.incr("resilience.fail_static.served");
                    annotate_span("resilience.fail_static", 0);
                    return Ok(cached);
                }
            }
            self.incr("resilience.fail_static.rejected");
            return Err(OrbError::QosViolation(format!(
                "binding is fail-static; `{}` has no last-known-good reply",
                call.operation
            )));
        }

        match self.breaker.admit() {
            Err(()) => {
                self.incr("resilience.circuit.rejected");
                return Err(OrbError::CircuitOpen(format!(
                    "circuit open for `{}` (cooldown {:?})",
                    call.operation,
                    self.policy.read().breaker.cooldown
                )));
            }
            Ok(Some(t)) => self.note_transition(t),
            Ok(None) => {}
        }

        let policy = self.policy.read().clone();
        let operation = call.operation.clone();
        let started = Instant::now();
        let attempt = || {
            self.incr("resilience.attempts");
            next(call.clone())
        };
        let result = match policy.deadline {
            Some(budget) => policy.retry.run_within(budget, attempt),
            None => policy.retry.run(attempt),
        };
        let us = started.elapsed().as_micros() as u64;

        // A call that outlived its budget is a deadline violation even if
        // a late reply eventually arrived; count it so dashboards see the
        // breach, and let the observer feed the true latency to the
        // monitor (which fires the adaptation ladder).
        if let Some(budget) = policy.deadline {
            if started.elapsed() >= budget {
                self.incr("resilience.deadline.exceeded");
                annotate_span("resilience.deadline_exceeded", us);
                if let Some(f) = &self.flight {
                    f.record_detail(
                        FlightEventKind::DeadlineExceeded,
                        "resilience",
                        None,
                        format!("{operation}: {us}us > {budget:?}"),
                    );
                    f.dump("deadline-exceeded");
                }
            }
        }

        match &result {
            Ok(value) => {
                if let Some(t) = self.breaker.on_success() {
                    self.note_transition(t);
                }
                self.last_good.lock().insert(operation.clone(), value.clone());
                self.observe(&operation, us, true);
            }
            Err(_) => {
                if let Some(t) = self.breaker.on_failure() {
                    self.note_transition(t);
                }
                self.observe(&operation, us, false);
            }
        }
        result
    }

    fn qos_op(&self, op: &str, _args: &[Any]) -> Result<Any, OrbError> {
        match op {
            "circuit_state" => Ok(Any::Str(self.breaker.state().name().to_string())),
            "fail_static" => Ok(Any::Bool(self.is_fail_static())),
            other => Err(OrbError::BadOperation(format!(
                "resilience mediator has no QoS operation `{other}`"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mediator::ClientStub;
    use netsim::Network;
    use orb::{Orb, Servant};
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn cfg(consecutive: u32, cooldown: Duration) -> BreakerConfig {
        BreakerConfig { consecutive_failures: consecutive, cooldown, ..Default::default() }
    }

    #[test]
    fn breaker_opens_on_consecutive_failures_and_recovers() {
        let b = CircuitBreaker::new(cfg(3, Duration::from_millis(1)));
        assert_eq!(b.state(), CircuitState::Closed);
        assert!(b.on_failure().is_none());
        assert!(b.on_failure().is_none());
        assert_eq!(b.on_failure(), Some((CircuitState::Closed, CircuitState::Open)));
        assert_eq!(b.admit(), Err(())); // still cooling
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(b.admit(), Ok(Some((CircuitState::Open, CircuitState::HalfOpen))));
        assert_eq!(b.on_success(), Some((CircuitState::HalfOpen, CircuitState::Closed)));
        assert_eq!(b.state(), CircuitState::Closed);
    }

    /// Half-open edge case, stressed with real threads: probes racing a
    /// failure settle in exactly one of {open, closed} — the breaker
    /// must never be left half-open once every admitted probe has
    /// recorded its outcome, and every emitted transition chain must be
    /// contiguous. (The exhaustive-schedule version of this property is
    /// the conccheck model in `orb/tests/loom_models.rs`.)
    #[test]
    fn half_open_probe_race_settles_in_open_or_closed() {
        for round in 0..50 {
            let b = Arc::new(CircuitBreaker::new(BreakerConfig {
                consecutive_failures: 1,
                cooldown: Duration::ZERO,
                half_open_successes: 1,
                ..Default::default()
            }));
            assert_eq!(b.on_failure(), Some((CircuitState::Closed, CircuitState::Open)));
            let transitions: Arc<Mutex<Vec<Transition>>> = Arc::new(Mutex::new(Vec::new()));
            let barrier = Arc::new(std::sync::Barrier::new(8));
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let (b, transitions, barrier) =
                        (Arc::clone(&b), Arc::clone(&transitions), Arc::clone(&barrier));
                    std::thread::spawn(move || {
                        barrier.wait();
                        let mut log = Vec::new();
                        if let Ok(t) = b.admit() {
                            log.extend(t);
                            // Even probes succeed, odd probes fail.
                            let t = if i % 2 == 0 { b.on_success() } else { b.on_failure() };
                            log.extend(t);
                        }
                        transitions.lock().extend(log);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let settled = b.state();
            assert!(
                matches!(settled, CircuitState::Open | CircuitState::Closed),
                "round {round}: breaker left {settled:?} after all probes settled"
            );
            // Threads log transitions after the fact, so their *order*
            // is not trustworthy here (the exhaustive chain check is the
            // conccheck model) — but the multiset must flow-balance: the
            // breaker walked some path from Open to `settled`, so every
            // entry into HalfOpen/Closed is matched by an exit or by the
            // path ending there.
            let log: Vec<Transition> = transitions.lock().clone();
            let count = |from: CircuitState, to: CircuitState| {
                log.iter().filter(|t| **t == (from, to)).count()
            };
            let flips = count(CircuitState::Open, CircuitState::HalfOpen);
            let reopens = count(CircuitState::HalfOpen, CircuitState::Open);
            let closes = count(CircuitState::HalfOpen, CircuitState::Closed);
            let retrips = count(CircuitState::Closed, CircuitState::Open);
            assert_eq!(log.len(), flips + reopens + closes + retrips, "round {round}: {log:?}");
            assert_eq!(flips, reopens + closes, "round {round}: {log:?}");
            assert_eq!(
                closes,
                retrips + usize::from(settled == CircuitState::Closed),
                "round {round}: {log:?}"
            );
            // Whatever the race produced, one clean probe closes it.
            if settled == CircuitState::Open {
                assert_eq!(b.admit(), Ok(Some((CircuitState::Open, CircuitState::HalfOpen))));
                assert_eq!(b.on_success(), Some((CircuitState::HalfOpen, CircuitState::Closed)));
            }
            assert_eq!(b.state(), CircuitState::Closed);
        }
    }

    #[test]
    fn breaker_failed_trial_reopens() {
        let b = CircuitBreaker::new(cfg(1, Duration::from_millis(1)));
        assert_eq!(b.on_failure(), Some((CircuitState::Closed, CircuitState::Open)));
        std::thread::sleep(Duration::from_millis(2));
        assert!(b.admit().is_ok());
        assert_eq!(b.on_failure(), Some((CircuitState::HalfOpen, CircuitState::Open)));
        assert_eq!(b.state(), CircuitState::Open);
    }

    #[test]
    fn breaker_opens_on_failure_rate() {
        let b = CircuitBreaker::new(BreakerConfig {
            consecutive_failures: u32::MAX, // streak path disabled
            failure_rate: 0.5,
            min_calls: 4,
            window: 8,
            ..Default::default()
        });
        // Alternate: 2 ok, 2 fail in window of 4 → 50 % ≥ threshold.
        b.on_success();
        assert!(b.on_failure().is_none()); // 1/2, under min_calls
        b.on_success();
        assert_eq!(b.on_failure(), Some((CircuitState::Closed, CircuitState::Open)));
    }

    #[test]
    fn success_interrupts_the_streak() {
        let b = CircuitBreaker::new(cfg(3, Duration::from_millis(1)));
        b.on_failure();
        b.on_failure();
        b.on_success();
        assert!(b.on_failure().is_none(), "streak restarted after success");
    }

    struct Flaky {
        failures_left: Arc<AtomicU32>,
    }
    impl Servant for Flaky {
        fn interface_id(&self) -> &str {
            "IDL:Flaky:1.0"
        }
        fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
            match op {
                "get" => {
                    if self
                        .failures_left
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                        .is_ok()
                    {
                        Err(OrbError::Transient("blip".to_string()))
                    } else {
                        Ok(args.first().cloned().unwrap_or(Any::Long(7)))
                    }
                }
                _ => Err(OrbError::BadOperation(op.to_string())),
            }
        }
    }

    fn flaky_setup(failures: u32) -> (Orb, Orb, ClientStub) {
        let net = Network::new(1);
        let server = Orb::start(&net, "server");
        let client = Orb::start(&net, "client");
        let ior =
            server.activate("f", Box::new(Flaky { failures_left: Arc::new(AtomicU32::new(failures)) }));
        let stub = ClientStub::new(client.clone(), ior);
        (server, client, stub)
    }

    fn immediate_policy(attempts: u32, breaker: BreakerConfig) -> ResiliencePolicy {
        ResiliencePolicy {
            deadline: Some(Duration::from_secs(2)),
            retry: RetryPolicy::immediate(attempts),
            breaker,
        }
    }

    #[test]
    fn retries_inside_budget_and_reports_success() {
        let (server, client, stub) = flaky_setup(2);
        let med = Arc::new(
            ResilienceMediator::new(immediate_policy(5, BreakerConfig::default()))
                .with_metrics(client.metrics().clone()),
        );
        stub.push_mediator_front(med.clone());
        let reply = stub.invoke("get", &[Any::Long(1)]).unwrap();
        assert_eq!(reply, Any::Long(1));
        assert_eq!(med.circuit_state(), CircuitState::Closed);
        let snap = client.metrics().snapshot();
        assert_eq!(snap.counter("resilience.attempts"), 3, "two transient failures retried");
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn circuit_opens_after_failures_and_rejects_locally() {
        let (server, client, stub) = flaky_setup(u32::MAX);
        let med = Arc::new(
            ResilienceMediator::new(immediate_policy(1, cfg(2, Duration::from_secs(60))))
                .with_metrics(client.metrics().clone()),
        );
        stub.push_mediator_front(med.clone());
        assert!(stub.invoke("get", &[]).is_err());
        assert!(stub.invoke("get", &[]).is_err());
        assert_eq!(med.circuit_state(), CircuitState::Open);
        // Third call never reaches the wire.
        let sent_before = client.metrics().snapshot().counter("orb.requests_sent");
        let err = stub.invoke("get", &[]).unwrap_err();
        assert!(matches!(err, OrbError::CircuitOpen(_)), "{err}");
        assert_eq!(client.metrics().snapshot().counter("orb.requests_sent"), sent_before);
        let snap = client.metrics().snapshot();
        assert_eq!(snap.counter("resilience.circuit.open"), 1);
        assert_eq!(snap.counter("resilience.circuit.rejected"), 1);
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn half_open_probe_closes_circuit_and_is_traced() {
        let (server, client, stub) = flaky_setup(2);
        let med = Arc::new(
            ResilienceMediator::new(immediate_policy(1, cfg(2, Duration::from_millis(1))))
                .with_metrics(client.metrics().clone()),
        );
        stub.push_mediator_front(med.clone());
        assert!(stub.invoke("get", &[]).is_err());
        assert!(stub.invoke("get", &[]).is_err());
        assert_eq!(med.circuit_state(), CircuitState::Open);
        std::thread::sleep(Duration::from_millis(5));
        // Cooldown elapsed: the next call is the HalfOpen trial; the
        // servant is healthy again, so the circuit closes.
        let reply = stub.invoke("get", &[Any::Long(9)]).unwrap();
        assert_eq!(reply, Any::Long(9));
        assert_eq!(med.circuit_state(), CircuitState::Closed);
        let trace = reply.trace.as_ref().unwrap();
        assert!(
            trace.span("resilience.circuit:open->half_open").is_some(),
            "transition span missing: {trace:?}"
        );
        assert!(trace.span("resilience.circuit:half_open->closed").is_some());
        let snap = client.metrics().snapshot();
        assert_eq!(snap.counter("resilience.circuit.half_open"), 1);
        assert_eq!(snap.counter("resilience.circuit.closed"), 1);
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn deadline_budget_stops_retries() {
        let (server, client, stub) = flaky_setup(u32::MAX);
        let policy = ResiliencePolicy {
            deadline: Some(Duration::from_millis(20)),
            retry: RetryPolicy {
                max_attempts: 50,
                initial_backoff: Duration::from_millis(15),
                backoff_factor: 1,
                max_backoff: Duration::from_millis(15),
            },
            breaker: BreakerConfig::default(),
        };
        let med =
            Arc::new(ResilienceMediator::new(policy).with_metrics(client.metrics().clone()));
        stub.push_mediator_front(med);
        let started = Instant::now();
        assert!(stub.invoke("get", &[]).is_err());
        // 50 attempts × 15 ms backoff would be 735 ms; the budget caps it.
        assert!(started.elapsed() < Duration::from_millis(200));
        let snap = client.metrics().snapshot();
        assert!(snap.counter("resilience.attempts") <= 3);
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn target_override_rebinds_and_closes_breaker() {
        let net = Network::new(1);
        let s1 = Orb::start(&net, "s1");
        let s2 = Orb::start(&net, "s2");
        let client = Orb::start(&net, "client");
        struct Fixed(&'static str);
        impl Servant for Fixed {
            fn interface_id(&self) -> &str {
                "IDL:Fixed:1.0"
            }
            fn dispatch(&self, _op: &str, _args: &[Any]) -> Result<Any, OrbError> {
                Ok(Any::Str(self.0.to_string()))
            }
        }
        let ior1 = s1.activate("f", Box::new(Fixed("one")));
        let ior2 = s2.activate("f", Box::new(Fixed("two")));
        let stub = ClientStub::new(client.clone(), ior1);
        let med = Arc::new(ResilienceMediator::new(immediate_policy(1, cfg(1, Duration::ZERO))));
        stub.push_mediator_front(med.clone());
        assert_eq!(stub.invoke("get", &[]).unwrap(), Any::Str("one".into()));
        med.breaker.on_failure(); // simulate a tripped breaker
        assert_eq!(med.circuit_state(), CircuitState::Open);
        med.set_target_override(Some(ior2));
        assert_eq!(med.circuit_state(), CircuitState::Closed, "rebind closes the breaker");
        assert_eq!(stub.invoke("get", &[]).unwrap(), Any::Str("two".into()));
        s1.shutdown();
        s2.shutdown();
        client.shutdown();
    }

    #[test]
    fn fail_static_serves_cached_reads_and_rejects_writes() {
        let (server, client, stub) = flaky_setup(0);
        let med = Arc::new(
            ResilienceMediator::new(immediate_policy(1, BreakerConfig::default()))
                .with_metrics(client.metrics().clone()),
        );
        stub.push_mediator_front(med.clone());
        assert_eq!(stub.invoke("get", &[Any::Long(3)]).unwrap(), Any::Long(3));
        med.enter_fail_static(FailStaticMode::reads(["get"]));
        // Reads come from the last-known-good cache, even with the server gone.
        server.shutdown();
        assert_eq!(stub.invoke("get", &[Any::Long(99)]).unwrap(), Any::Long(3));
        // Writes (non-read ops) are rejected with a typed error.
        let err = stub.invoke("put", &[Any::Long(1)]).unwrap_err();
        assert!(matches!(err, OrbError::QosViolation(_)), "{err}");
        let snap = client.metrics().snapshot();
        assert_eq!(snap.counter("resilience.fail_static.served"), 1);
        assert_eq!(snap.counter("resilience.fail_static.rejected"), 1);
        med.exit_fail_static();
        assert!(!med.is_fail_static());
        client.shutdown();
    }

    #[test]
    fn observer_sees_every_outcome() {
        let (server, client, stub) = flaky_setup(0);
        let med = Arc::new(ResilienceMediator::new(immediate_policy(1, BreakerConfig::default())));
        let seen: Arc<Mutex<Vec<(String, bool)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        med.set_observer(Some(Arc::new(move |op: &str, _us: u64, ok: bool| {
            sink.lock().push((op.to_string(), ok));
        })));
        stub.push_mediator_front(med);
        stub.invoke("get", &[Any::Long(1)]).unwrap();
        let _ = stub.invoke("nope", &[]);
        let seen = seen.lock().clone();
        assert_eq!(seen, vec![("get".to_string(), true), ("nope".to_string(), false)]);
        server.shutdown();
        client.shutdown();
    }

    #[test]
    fn qos_ops_report_state() {
        let med = ResilienceMediator::new(ResiliencePolicy::default());
        assert_eq!(med.qos_op("circuit_state", &[]).unwrap(), Any::Str("closed".into()));
        assert_eq!(med.qos_op("fail_static", &[]).unwrap(), Any::Bool(false));
        assert!(med.qos_op("bogus", &[]).is_err());
    }
}
