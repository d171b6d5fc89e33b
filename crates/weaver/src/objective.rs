//! Objectives: what an agreement's parameters *mean*.
//!
//! Negotiation (§2.1) settles *what quality was agreed* as named values;
//! the mechanisms that provide and police it need typed bounds. This
//! module is the one translation between the two — the only place a
//! parameter name is matched or an [`Any`] is coerced to a number. The
//! whole policy is the three-row `TABLE`; DESIGN.md §6c-0 lists what
//! each consumer (monitor rules, fleet SLOs, the ladder's relax step,
//! the per-call deadline budget) makes of a row.

use orb::Any;
use std::time::Duration;
use Direction::{Lower, Upper};
use ObjectiveKind::{Availability, Deadline, Validity};

/// What an objective bounds — one per `TABLE` row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectiveKind {
    /// Per-call latency (`deadline_ms`).
    Deadline,
    /// Fraction of calls that succeed (`availability`).
    Availability,
    /// Age of served data (`validity_ms`).
    Validity,
}

/// Which side of the threshold is in breach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Measurements must stay at or below the threshold.
    Upper,
    /// Measurements must stay at or above the threshold.
    Lower,
}

#[derive(Clone, Copy)]
struct Row {
    param: &'static str,
    kind: ObjectiveKind,
    /// Parameter unit → metric unit (ms → µs; ratios are unscaled).
    scale: f64,
    direction: Direction,
}

const TABLE: [Row; 3] = [
    Row { param: "deadline_ms", kind: Deadline, scale: 1_000.0, direction: Upper },
    Row { param: "availability", kind: Availability, scale: 1.0, direction: Lower },
    Row { param: "validity_ms", kind: Validity, scale: 1_000.0, direction: Upper },
];

/// One validated bound stated by an agreement parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objective {
    /// What is bounded.
    pub kind: ObjectiveKind,
    /// The agreement parameter that stated it.
    pub param: &'static str,
    /// Which side of `threshold` is in breach.
    pub direction: Direction,
    /// The bound in metric units: µs for durations, a ratio for
    /// availability.
    pub threshold: f64,
    /// The agreed value in the parameter's own unit.
    value: f64,
}

impl Objective {
    /// The objective `name = value` states, if `name` is a `TABLE`
    /// parameter and `value` is well-formed for it. Values arrive off
    /// the wire in `negotiate`/`renegotiate` requests, so this is their
    /// validation: a non-numeric or non-finite value derives nothing, a
    /// duration must be positive, and `availability` is clamped to
    /// `0..=1`.
    pub fn of(name: &str, value: &Any) -> Option<Objective> {
        let Row { param, kind, scale, direction } = *TABLE.iter().find(|row| row.param == name)?;
        let n = value.as_double().or_else(|| value.as_i64().map(|v| v as f64))?;
        if !n.is_finite() {
            return None;
        }
        let value = match kind {
            Availability => n.clamp(0.0, 1.0),
            Deadline | Validity if n > 0.0 => n,
            Deadline | Validity => return None,
        };
        Some(Objective { kind, param, direction, threshold: value * scale, value })
    }

    /// Every objective `params` state, in parameter order.
    pub fn derive(params: &[(String, Any)]) -> Vec<Objective> {
        params.iter().filter_map(|(name, value)| Objective::of(name, value)).collect()
    }

    /// The agreed value loosened by `factor` (> 1 relaxes), in the
    /// parameter's own unit: upper bounds grow, lower bounds shrink.
    pub fn relaxed(&self, factor: f64) -> f64 {
        match self.direction {
            Upper => self.value * factor,
            Lower => self.value / factor,
        }
    }

    /// The per-call wall-clock budget, if this is a deadline.
    pub fn deadline(&self) -> Option<Duration> {
        (self.kind == Deadline).then(|| Duration::from_secs_f64(self.value / 1_000.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_driven_derivation() {
        // (param, value) -> (kind, threshold in metric units, direction, deadline µs)
        let rows = [
            ("deadline_ms", Any::ULongLong(250), Some((Deadline, 250_000.0, Upper, Some(250_000)))),
            ("deadline_ms", Any::LongLong(2), Some((Deadline, 2_000.0, Upper, Some(2_000)))),
            ("deadline_ms", Any::Double(1.5), Some((Deadline, 1_500.0, Upper, Some(1_500)))),
            ("availability", Any::Double(0.9), Some((Availability, 0.9, Lower, None))),
            ("availability", Any::ULongLong(1), Some((Availability, 1.0, Lower, None))),
            ("validity_ms", Any::ULongLong(100), Some((Validity, 100_000.0, Upper, None))),
            // Out-of-range availability is clamped, not rejected.
            ("availability", Any::Double(1.5), Some((Availability, 1.0, Lower, None))),
            ("availability", Any::Double(-0.1), Some((Availability, 0.0, Lower, None))),
            // Everything else malformed derives nothing.
            ("deadline_ms", Any::Str("soon".to_string()), None),
            ("deadline_ms", Any::Double(f64::NAN), None),
            ("deadline_ms", Any::Double(f64::INFINITY), None),
            ("deadline_ms", Any::ULongLong(0), None),
            ("deadline_ms", Any::LongLong(-5), None),
            ("validity_ms", Any::Double(f64::NEG_INFINITY), None),
            ("validity_ms", Any::Double(0.0), None),
            ("availability", Any::Double(f64::NAN), None),
            ("availability", Any::Double(f64::INFINITY), None),
            ("replicas", Any::ULongLong(3), None),
        ];
        for (name, value, expected) in rows {
            let got = Objective::of(name, &value).map(|o| {
                assert_eq!(o.param, name);
                (o.kind, o.threshold, o.direction, o.deadline().map(|d| d.as_micros()))
            });
            assert_eq!(got, expected, "{name} = {value:?}");
        }
        assert!(Objective::derive(&[]).is_empty());

        // Several parameters, one of them twice: parameter order is
        // kept, and the first deadline is the per-call budget.
        let params = vec![
            ("validity_ms".to_string(), Any::ULongLong(7)),
            ("replicas".to_string(), Any::ULongLong(3)),
            ("deadline_ms".to_string(), Any::ULongLong(2)),
            ("deadline_ms".to_string(), Any::ULongLong(9)),
        ];
        let objectives = Objective::derive(&params);
        let seen: Vec<(&str, f64)> = objectives.iter().map(|o| (o.param, o.threshold)).collect();
        assert_eq!(seen, [("validity_ms", 7_000.0), ("deadline_ms", 2_000.0), ("deadline_ms", 9_000.0)]);
        let budget = objectives.iter().find_map(Objective::deadline);
        assert_eq!(budget, Some(Duration::from_millis(2)));
    }
}
