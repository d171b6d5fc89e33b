//! QoS monitoring: observing agreed quality and detecting violations.
//!
//! A QoS framework "also provides infrastructure services such as for
//! the negotiation of QoS agreements and for monitoring them" (§2.1).
//! The monitor keeps sliding windows of observations per (object,
//! metric), computes summary statistics, and raises violation events
//! when a window statistic crosses the agreed bound. Violations are the
//! trigger for renegotiation (adaptation).

use orb::sync::{LockRank, OrderedMutex};
use orb::Any;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use weaver::objective::{Direction, Objective, ObjectiveKind};

/// How a bound constrains a window statistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// The statistic must stay **at or below** the threshold.
    Max,
    /// The statistic must stay **at or above** the threshold.
    Min,
}

/// Which window statistic a bound applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Statistic {
    /// Arithmetic mean of the window.
    Mean,
    /// 95th percentile of the window.
    P95,
    /// The most recent sample.
    Last,
}

/// A detected QoS violation.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationEvent {
    /// The monitored object.
    pub object: String,
    /// The violated metric.
    pub metric: String,
    /// The observed statistic value.
    pub observed: f64,
    /// The agreed threshold.
    pub threshold: f64,
}

impl fmt::Display for ViolationEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}: observed {:.3} violates threshold {:.3}",
            self.object, self.metric, self.observed, self.threshold
        )
    }
}

/// Callback invoked on each violation.
pub type ViolationHandler = Arc<dyn Fn(&ViolationEvent) + Send + Sync>;

struct Rule {
    statistic: Statistic,
    bound: Bound,
    threshold: f64,
}

struct Series {
    window: VecDeque<f64>,
    capacity: usize,
    rules: Vec<Rule>,
    violations: u64,
}

/// The two series [`Monitor::record_call`] feeds and
/// [`Monitor::install`] can put a rule on.
const LATENCY_US: &str = "latency_us";
const AVAILABILITY: &str = "availability";

/// A sliding-window QoS monitor.
pub struct Monitor {
    series: OrderedMutex<HashMap<(String, String), Series>>,
    window: usize,
    handlers: OrderedMutex<Vec<ViolationHandler>>,
}

impl Monitor {
    /// A monitor keeping the last `window` samples per metric.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Monitor {
        assert!(window > 0, "window must be positive");
        Monitor {
            series: OrderedMutex::new(LockRank::MonitoringSeries, HashMap::new()),
            window,
            handlers: OrderedMutex::new(LockRank::MonitoringHandlers, Vec::new()),
        }
    }

    /// Register a violation handler (all handlers see all violations).
    pub fn on_violation(&self, handler: ViolationHandler) {
        self.handlers.lock().push(handler);
    }

    /// Constrain `statistic` of `(object, metric)` by `bound`/`threshold`.
    pub fn add_rule(
        &self,
        object: &str,
        metric: &str,
        statistic: Statistic,
        bound: Bound,
        threshold: f64,
    ) {
        let mut series = self.series.lock();
        let s = series
            .entry((object.to_string(), metric.to_string()))
            .or_insert_with(|| Series {
                window: VecDeque::new(),
                capacity: self.window,
                rules: Vec::new(),
                violations: 0,
            });
        s.rules.push(Rule { statistic, bound, threshold });
    }

    /// Remove all rules for `(object, metric)`, keeping the sample
    /// window. Renegotiation replaces agreed bounds wholesale: the old
    /// agreement's rules must not keep firing against the new terms.
    pub fn clear_rules(&self, object: &str, metric: &str) {
        if let Some(s) = self.series.lock().get_mut(&(object.to_string(), metric.to_string())) {
            s.rules.clear();
        }
    }

    /// Drop the accumulated samples for `(object, metric)`, keeping its
    /// rules.
    pub fn clear_window(&self, object: &str, metric: &str) {
        if let Some(s) = self.series.lock().get_mut(&(object.to_string(), metric.to_string())) {
            s.window.clear();
        }
    }

    /// Make the bounds `params` state (see [`weaver::objective`]) the
    /// only agreed bounds on `object`, dropping those of any earlier
    /// version of the agreement — all of them when `params` is empty.
    /// Sample windows are kept. The server's negotiation servant and the
    /// client's adaptation engine both install through here, so the two
    /// sides police one agreement identically.
    pub fn install(&self, object: &str, params: &[(String, Any)]) {
        self.clear_rules(object, LATENCY_US);
        self.clear_rules(object, AVAILABILITY);
        for objective in Objective::derive(params) {
            let (metric, statistic) = match objective.kind {
                ObjectiveKind::Deadline => (LATENCY_US, Statistic::Last),
                ObjectiveKind::Availability => (AVAILABILITY, Statistic::Mean),
                // Nothing records data staleness into a monitor (the
                // fleet SLO engine reads it from the metrics registry),
                // and a rule over an unfed series can never fire.
                ObjectiveKind::Validity => continue,
            };
            let bound = match objective.direction {
                Direction::Upper => Bound::Max,
                Direction::Lower => Bound::Min,
            };
            self.add_rule(object, metric, statistic, bound, objective.threshold);
        }
    }

    /// Record one finished call on `object`: its latency and whether it
    /// succeeded — every series [`install`](Self::install) can bound.
    pub fn record_call(&self, object: &str, us: u64, ok: bool) {
        self.record(object, LATENCY_US, us as f64);
        self.record(object, AVAILABILITY, if ok { 1.0 } else { 0.0 });
    }

    /// Forget the per-call samples of `object`, keeping its rules.
    /// Adaptation calls this after healing a binding: samples measured
    /// before the repair describe a binding that no longer exists, and
    /// letting them linger would re-trigger the ladder on every healthy
    /// call.
    pub fn clear_call_windows(&self, object: &str) {
        self.clear_window(object, LATENCY_US);
        self.clear_window(object, AVAILABILITY);
    }

    /// Record a sample and evaluate the rules. Returns the violations
    /// raised by this sample.
    pub fn record(&self, object: &str, metric: &str, value: f64) -> Vec<ViolationEvent> {
        let mut events = Vec::new();
        {
            let mut series = self.series.lock();
            let s = series
                .entry((object.to_string(), metric.to_string()))
                .or_insert_with(|| Series {
                    window: VecDeque::new(),
                    capacity: self.window,
                    rules: Vec::new(),
                    violations: 0,
                });
            if s.window.len() == s.capacity {
                s.window.pop_front();
            }
            s.window.push_back(value);
            let snapshot: Vec<f64> = s.window.iter().copied().collect();
            for rule in &s.rules {
                let observed = compute(rule.statistic, &snapshot);
                let violated = match rule.bound {
                    Bound::Max => observed > rule.threshold,
                    Bound::Min => observed < rule.threshold,
                };
                if violated {
                    events.push(ViolationEvent {
                        object: object.to_string(),
                        metric: metric.to_string(),
                        observed,
                        threshold: rule.threshold,
                    });
                }
            }
            s.violations += events.len() as u64;
        }
        if !events.is_empty() {
            let handlers = self.handlers.lock().clone();
            for event in &events {
                for h in &handlers {
                    h(event);
                }
            }
        }
        events
    }

    /// Mean of the current window, if any samples exist.
    pub fn mean(&self, object: &str, metric: &str) -> Option<f64> {
        self.statistic(object, metric, Statistic::Mean)
    }

    /// 95th percentile of the current window, if any samples exist.
    pub fn p95(&self, object: &str, metric: &str) -> Option<f64> {
        self.statistic(object, metric, Statistic::P95)
    }

    /// An arbitrary statistic of the current window.
    pub fn statistic(&self, object: &str, metric: &str, stat: Statistic) -> Option<f64> {
        let series = self.series.lock();
        let s = series.get(&(object.to_string(), metric.to_string()))?;
        if s.window.is_empty() {
            return None;
        }
        let snapshot: Vec<f64> = s.window.iter().copied().collect();
        Some(compute(stat, &snapshot))
    }

    /// Total violations recorded for `(object, metric)`.
    pub fn violations(&self, object: &str, metric: &str) -> u64 {
        self.series
            .lock()
            .get(&(object.to_string(), metric.to_string()))
            .map(|s| s.violations)
            .unwrap_or(0)
    }
}

fn compute(stat: Statistic, window: &[f64]) -> f64 {
    match stat {
        Statistic::Mean => window.iter().sum::<f64>() / window.len() as f64,
        Statistic::Last => *window.last().expect("non-empty window"),
        Statistic::P95 => {
            let mut sorted = window.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let rank = ((sorted.len() as f64) * 0.95).ceil() as usize;
            sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn statistics_over_window() {
        let m = Monitor::new(5);
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            m.record("o", "latency", v);
        }
        assert_eq!(m.mean("o", "latency"), Some(3.0));
        assert_eq!(m.p95("o", "latency"), Some(5.0));
        assert_eq!(m.statistic("o", "latency", Statistic::Last), Some(5.0));
        // Window slides: pushing 11 evicts 1.
        m.record("o", "latency", 11.0);
        assert_eq!(m.mean("o", "latency"), Some(5.0));
        assert_eq!(m.statistic("none", "x", Statistic::Mean), None);
    }

    #[test]
    fn max_bound_violation() {
        let m = Monitor::new(3);
        m.add_rule("o", "latency_ms", Statistic::Mean, Bound::Max, 10.0);
        assert!(m.record("o", "latency_ms", 8.0).is_empty());
        assert!(m.record("o", "latency_ms", 9.0).is_empty());
        let events = m.record("o", "latency_ms", 30.0); // mean ≈ 15.7
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].threshold, 10.0);
        assert!(events[0].observed > 10.0);
        assert_eq!(m.violations("o", "latency_ms"), 1);
    }

    #[test]
    fn min_bound_violation() {
        let m = Monitor::new(4);
        m.add_rule("o", "availability", Statistic::Mean, Bound::Min, 0.9);
        m.record("o", "availability", 1.0);
        m.record("o", "availability", 1.0);
        assert!(m.record("o", "availability", 0.0).len() == 1); // mean 2/3
        assert_eq!(m.violations("o", "availability"), 1);
    }

    #[test]
    fn handlers_fire_per_violation() {
        let m = Monitor::new(2);
        m.add_rule("o", "x", Statistic::Last, Bound::Max, 1.0);
        let count = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&count);
        m.on_violation(Arc::new(move |e| {
            assert_eq!(e.metric, "x");
            seen.fetch_add(1, Ordering::Relaxed);
        }));
        m.record("o", "x", 0.5);
        m.record("o", "x", 2.0);
        m.record("o", "x", 3.0);
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn p95_rank_behaviour() {
        let m = Monitor::new(100);
        for i in 1..=100 {
            m.record("o", "v", i as f64);
        }
        assert_eq!(m.p95("o", "v"), Some(95.0));
        let m2 = Monitor::new(10);
        m2.record("o", "v", 7.0);
        assert_eq!(m2.p95("o", "v"), Some(7.0)); // single sample
    }

    #[test]
    fn multiple_rules_on_one_metric() {
        let m = Monitor::new(3);
        m.add_rule("o", "x", Statistic::Last, Bound::Max, 10.0);
        m.add_rule("o", "x", Statistic::Last, Bound::Min, 1.0);
        assert_eq!(m.record("o", "x", 0.5).len(), 1); // below min
        assert_eq!(m.record("o", "x", 20.0).len(), 1); // above max
        assert_eq!(m.record("o", "x", 5.0).len(), 0);
        assert_eq!(m.violations("o", "x"), 2);
    }

    #[test]
    fn clear_rules_stops_violations_but_keeps_window() {
        let m = Monitor::new(3);
        m.add_rule("o", "latency_us", Statistic::Last, Bound::Max, 10.0);
        assert_eq!(m.record("o", "latency_us", 50.0).len(), 1);
        m.clear_rules("o", "latency_us");
        assert!(m.record("o", "latency_us", 50.0).is_empty());
        // The sample window survives rule replacement.
        assert_eq!(m.mean("o", "latency_us"), Some(50.0));
        // Clearing an unknown series is a no-op.
        m.clear_rules("ghost", "x");
    }

    #[test]
    fn clear_window_drops_samples_but_keeps_rules() {
        let m = Monitor::new(4);
        m.add_rule("o", "availability", Statistic::Mean, Bound::Min, 0.9);
        m.record("o", "availability", 0.0);
        m.record("o", "availability", 0.0);
        // The poisoned window violates even on a healthy sample.
        assert!(!m.record("o", "availability", 1.0).is_empty());
        m.clear_window("o", "availability");
        assert_eq!(m.mean("o", "availability"), None);
        // Rules survive: fresh healthy samples pass, bad ones still trip.
        assert!(m.record("o", "availability", 1.0).is_empty());
        assert!(!m.record("o", "availability", 0.0).is_empty());
        // Clearing an unknown series is a no-op.
        m.clear_window("ghost", "x");
    }

    #[test]
    fn every_installable_rule_is_fed_by_record_call() {
        let m = Monitor::new(4);
        let params = [
            ("deadline_ms".to_string(), Any::ULongLong(2)),
            ("availability".to_string(), Any::Double(0.9)),
            ("validity_ms".to_string(), Any::ULongLong(100)),
        ];
        assert_eq!(Objective::derive(&params).len(), 3, "one objective per table row");
        m.install("o", &params);
        m.record_call("o", 10, true);
        // A rule over a series nothing records into could never fire.
        let series = m.series.lock();
        let ruled: Vec<_> = series.iter().filter(|(_, s)| !s.rules.is_empty()).collect();
        assert_eq!(ruled.len(), 2);
        for ((_, metric), s) in ruled {
            assert!(!s.window.is_empty(), "rule on `{metric}`, which record_call never feeds");
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        Monitor::new(0);
    }
}
