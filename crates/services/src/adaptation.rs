//! Degradation ladders: the vocabulary of self-healing adaptation.
//!
//! §3 of the paper frames adaptation as renegotiation — "varying
//! resource availability should be addressed through adaption, i.e.
//! renegotiations". This module generalises that single move into an
//! ordered **ladder** of increasingly drastic reactions to an agreement
//! violation:
//!
//! 1. **Renegotiate** — keep the characteristic, relax its parameters
//!    (e.g. a 2 ms deadline becomes 4 ms);
//! 2. **Fallback** — negotiate a weaker characteristic entirely
//!    (compression → none, quorum replication → primary-only);
//! 3. **Rebind** — keep the terms, move the binding to a live replica
//!    found by the failure detector;
//! 4. **Fail static** — stop calling: serve last-known-good replies for
//!    read operations, reject everything else with a typed error.
//!
//! The ladder itself is pure data; the adaptation *engine* that walks it
//! (subscribing to [`Monitor`](crate::Monitor) violations, talking to the
//! [`Negotiator`](crate::Negotiator) and steering the resilience
//! mediator) lives in the deployment layer (`maqs`), which is the only
//! place that has all the moving parts in scope. Every step taken is
//! recorded as an [`AdaptationEvent`] so operators can replay exactly
//! how a binding healed — or why it could not.

use orb::sync::{LockRank, OrderedMutex};
use crate::monitoring::ViolationEvent;
use orb::Any;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use weaver::objective::Objective;

/// One rung of a [`DegradationLadder`].
#[derive(Debug, Clone, PartialEq)]
pub enum LadderStep {
    /// Renegotiate the current agreement with its bounds relaxed by
    /// `relax_factor` (see [`relax_params`]).
    Renegotiate {
        /// Multiplier applied to the agreement's bounds (> 1 relaxes).
        relax_factor: f64,
    },
    /// Release the current agreement and negotiate a weaker
    /// characteristic with the given parameters.
    Fallback {
        /// The weaker characteristic to fall back to.
        characteristic: String,
        /// Parameters for the fallback agreement.
        params: Vec<(String, Any)>,
    },
    /// Rebind to a live replica chosen by the failure detector.
    Rebind,
    /// Enter fail-static mode: cached replies for the listed read
    /// operations, typed errors for everything else.
    FailStatic {
        /// Operations that may be answered from the last-known-good cache.
        read_ops: Vec<String>,
    },
}

impl LadderStep {
    /// Short machine-readable name of the step, used in events/reports.
    pub fn name(&self) -> &'static str {
        match self {
            LadderStep::Renegotiate { .. } => "renegotiate",
            LadderStep::Fallback { .. } => "fallback",
            LadderStep::Rebind => "rebind",
            LadderStep::FailStatic { .. } => "fail_static",
        }
    }
}

impl fmt::Display for LadderStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LadderStep::Renegotiate { relax_factor } => {
                write!(f, "renegotiate (relax ×{relax_factor})")
            }
            LadderStep::Fallback { characteristic, .. } => {
                write!(f, "fallback → {characteristic}")
            }
            LadderStep::Rebind => write!(f, "rebind to live replica"),
            LadderStep::FailStatic { read_ops } => {
                write!(f, "fail static (cached reads: {})", read_ops.join(", "))
            }
        }
    }
}

/// An ordered sequence of [`LadderStep`]s, tried top to bottom when an
/// agreement violation fires. The engine advances past steps that fail
/// (or that were already consumed by an earlier violation) — a binding
/// only ever degrades, it never silently climbs back up.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DegradationLadder {
    steps: Vec<LadderStep>,
}

impl DegradationLadder {
    /// An empty ladder (violations are logged but nothing is done).
    pub fn new() -> DegradationLadder {
        DegradationLadder::default()
    }

    /// The conventional full ladder: renegotiate ×2, then rebind, then
    /// fail static for the given read operations. (A fallback rung is
    /// deployment-specific — add one with [`then`](Self::then).)
    pub fn standard<I, S>(read_ops: I) -> DegradationLadder
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        DegradationLadder::new()
            .then(LadderStep::Renegotiate { relax_factor: 2.0 })
            .then(LadderStep::Rebind)
            .then(LadderStep::FailStatic {
                read_ops: read_ops.into_iter().map(Into::into).collect(),
            })
    }

    /// Append a step to the ladder.
    #[must_use]
    pub fn then(mut self, step: LadderStep) -> DegradationLadder {
        self.steps.push(step);
        self
    }

    /// The steps, top (least drastic) first.
    pub fn steps(&self) -> &[LadderStep] {
        &self.steps
    }

    /// Number of rungs.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the ladder has no rungs.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Relax agreement parameters by `factor` (> 1 loosens the terms):
/// every parameter that states an [`Objective`] moves away from its
/// bound — upper bounds grow by the factor, lower bounds shrink by it.
/// Everything else is kept.
pub fn relax_params(params: &[(String, Any)], factor: f64) -> Vec<(String, Any)> {
    if !factor.is_finite() || factor <= 0.0 {
        return params.to_vec();
    }
    params
        .iter()
        .map(|(name, value)| {
            let relaxed = Objective::of(name, value).map(|o| Any::Double(o.relaxed(factor)));
            (name.clone(), relaxed.unwrap_or_else(|| value.clone()))
        })
        .collect()
}

/// How one attempted ladder step ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// The step healed the binding (for now).
    Succeeded,
    /// The step could not be applied; the engine moves down the ladder.
    Failed(String),
}

impl StepOutcome {
    /// Whether the step succeeded.
    pub fn is_success(&self) -> bool {
        matches!(self, StepOutcome::Succeeded)
    }
}

impl fmt::Display for StepOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepOutcome::Succeeded => write!(f, "ok"),
            StepOutcome::Failed(why) => write!(f, "failed: {why}"),
        }
    }
}

/// One adaptation action, as recorded by the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationEvent {
    /// Monotonic sequence number (order of actions, all objects).
    pub seq: u64,
    /// The object whose binding was adapted.
    pub object: String,
    /// The violation that triggered the action.
    pub trigger: ViolationEvent,
    /// Name of the ladder step attempted ([`LadderStep::name`]).
    pub step: String,
    /// Human-readable detail (new terms, chosen replica, …).
    pub detail: String,
    /// How the step ended.
    pub outcome: StepOutcome,
}

impl fmt::Display for AdaptationEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} {}: {} [{}] — {} ({})",
            self.seq, self.object, self.step, self.outcome, self.detail, self.trigger
        )
    }
}

/// A thread-safe, append-only log of [`AdaptationEvent`]s shared between
/// the adaptation engine and report renderers.
#[derive(Debug)]
pub struct AdaptationLog {
    events: OrderedMutex<Vec<AdaptationEvent>>,
    next_seq: AtomicU64,
}

impl Default for AdaptationLog {
    fn default() -> AdaptationLog {
        AdaptationLog {
            events: OrderedMutex::new(LockRank::AdaptationEvents, Vec::new()),
            next_seq: AtomicU64::new(0),
        }
    }
}

impl AdaptationLog {
    /// An empty log.
    pub fn new() -> AdaptationLog {
        AdaptationLog::default()
    }

    /// Append an event, assigning it the next sequence number.
    pub fn push(
        &self,
        object: impl Into<String>,
        trigger: ViolationEvent,
        step: &LadderStep,
        detail: impl Into<String>,
        outcome: StepOutcome,
    ) -> AdaptationEvent {
        let event = AdaptationEvent {
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            object: object.into(),
            trigger,
            step: step.name().to_string(),
            detail: detail.into(),
            outcome,
        };
        self.events.lock().push(event.clone());
        event
    }

    /// All events so far, in order.
    pub fn events(&self) -> Vec<AdaptationEvent> {
        self.events.lock().clone()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver::objective::Direction;

    fn violation() -> ViolationEvent {
        ViolationEvent {
            object: "store".to_string(),
            metric: "latency_us".to_string(),
            observed: 5_000.0,
            threshold: 2_000.0,
        }
    }

    #[test]
    fn standard_ladder_orders_rungs_least_drastic_first() {
        let ladder = DegradationLadder::standard(["get"]);
        let names: Vec<&str> = ladder.steps().iter().map(LadderStep::name).collect();
        assert_eq!(names, vec!["renegotiate", "rebind", "fail_static"]);
        assert_eq!(ladder.len(), 3);
        assert!(!ladder.is_empty());
        assert!(DegradationLadder::new().is_empty());
    }

    #[test]
    fn then_appends_custom_rungs() {
        let ladder = DegradationLadder::new()
            .then(LadderStep::Renegotiate { relax_factor: 1.5 })
            .then(LadderStep::Fallback {
                characteristic: "Compression".to_string(),
                params: vec![("level".to_string(), Any::Long(0))],
            });
        assert_eq!(ladder.steps()[1].name(), "fallback");
        assert_eq!(format!("{}", ladder.steps()[1]), "fallback → Compression");
    }

    #[test]
    fn relax_params_loosens_bounds_only() {
        let params = vec![
            ("deadline_ms".to_string(), Any::ULongLong(2)),
            ("availability".to_string(), Any::Double(0.99)),
            ("validity_ms".to_string(), Any::Double(100.0)),
            ("replicas".to_string(), Any::ULong(3)),
            ("label".to_string(), Any::Str("x".into())),
        ];
        let relaxed = relax_params(&params, 2.0);
        assert_eq!(relaxed[0].1, Any::Double(4.0));
        let availability = relaxed[1].1.as_double().unwrap();
        assert!((availability - 0.495).abs() < 1e-9, "{availability}");
        assert_eq!(relaxed[2].1, Any::Double(200.0));
        assert_eq!(relaxed[3].1, Any::ULong(3), "non-bound params untouched");
        assert_eq!(relaxed[4].1, Any::Str("x".into()));
        // Nonsense factors degrade to identity instead of corrupting terms.
        assert_eq!(relax_params(&params, 0.0)[0].1, Any::ULongLong(2));
        assert_eq!(relax_params(&params, f64::NAN)[0].1, Any::ULongLong(2));
        // Monotone: no factor > 1 tightens any bound or loses one.
        let agreed = Objective::derive(&params);
        for factor in [1.0 + f64::EPSILON, 1.5, 1e6] {
            let relaxed = Objective::derive(&relax_params(&params, factor));
            assert_eq!(relaxed.len(), agreed.len(), "×{factor} lost an objective");
            for (before, after) in agreed.iter().zip(&relaxed) {
                match before.direction {
                    Direction::Upper => assert!(after.threshold >= before.threshold, "×{factor}"),
                    Direction::Lower => assert!(after.threshold <= before.threshold, "×{factor}"),
                }
            }
        }
    }

    #[test]
    fn log_assigns_monotonic_sequence_numbers() {
        let log = AdaptationLog::new();
        assert!(log.is_empty());
        let e1 = log.push(
            "store",
            violation(),
            &LadderStep::Renegotiate { relax_factor: 2.0 },
            "deadline_ms 2 → 4",
            StepOutcome::Failed("no capacity".to_string()),
        );
        let e2 = log.push(
            "store",
            violation(),
            &LadderStep::Rebind,
            "rebound to s2",
            StepOutcome::Succeeded,
        );
        assert_eq!(e1.seq, 0);
        assert_eq!(e2.seq, 1);
        assert_eq!(log.len(), 2);
        let events = log.events();
        assert_eq!(events[0].step, "renegotiate");
        assert!(!events[0].outcome.is_success());
        assert!(events[1].outcome.is_success());
        // Display is stable enough to grep in test logs.
        let line = format!("{e2}");
        assert!(line.contains("rebind"), "{line}");
        assert!(line.contains("store"), "{line}");
    }
}
