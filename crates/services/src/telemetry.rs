//! Cluster telemetry plane: fleet scrape, histogram merge, and
//! agreement-derived SLO burn-rate alerts.
//!
//! The paper's monitoring concern (§5) closes the QoS loop only if
//! violations of *negotiated agreements* are observable where decisions
//! are made. Per-node metrics, flight recorders, and introspection
//! servants are islands; this module federates them. A
//! [`TelemetryAggregator`] periodically scrapes every watched node's
//! [`crate::introspection::IntrospectionServant`] **over GIOP** — metrics
//! snapshots, cursor-windowed flight events, health and wire state, and
//! the live negotiated agreements — and keeps:
//!
//! * a fixed-capacity time-series ring of [`FleetSample`]s, each holding
//!   the per-node *delta* snapshot (what happened since the previous
//!   scrape, via [`MetricsSnapshot::delta_since`]) — deterministic under
//!   netsim virtual time when given a virtual clock;
//! * merged fleet-level distributions: per-node histograms share the
//!   fixed bucket ladder, so [`HistogramSnapshot::merge`] is exact at
//!   bucket granularity and fleet quantiles are within one bucket
//!   boundary of a single registry observing every sample;
//! * an SLO engine that turns the [`Objective`]s each scraped
//!   [`Agreement`] states into [`SloObjective`]s, each with an error
//!   budget (`1 - target`) and **multi-window burn-rate** evaluation:
//!   an alert fires only when the short *and* long windows both burn
//!   budget faster than [`SloConfig::burn_threshold`], the standard SRE
//!   recipe for alerts that are fast on real incidents and quiet on blips.
//!
//! Alerts are typed [`SloAlert`]s naming the violated agreement, node,
//! object and parameter; they are delivered to registered
//! [`SloAlertHandler`]s (with **no telemetry locks held**, so a handler
//! may re-enter lower-ranked services such as
//! [`crate::adaptation::AdaptationLog`]), recorded as `slo_alert` flight
//! events, and counted in `slo.*` metrics. RAFDA's policy/mechanism
//! split (PAPERS.md) is the model: *what to alert on* is policy derived
//! from agreements, not code.

use crate::introspection::{Health, Introspector};
use crate::negotiation::Agreement;
use netsim::NodeId;
use orb::export::prometheus_text_labeled;
use orb::sync::{LockRank, OrderedMutex, OrderedRwLock};
use orb::{FlightEventKind, HistogramSnapshot, MetricsSnapshot, Orb};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use weaver::objective::{Objective, ObjectiveKind};

/// Default scrape period for [`TelemetryAggregator::start`], ms.
pub const DEFAULT_SCRAPE_INTERVAL_MS: u64 = 100;

/// SLO evaluation policy: windows, burn threshold, and the latency
/// target attached to deadline/validity agreements.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Fraction of calls that must meet a `deadline_ms`/`validity_ms`
    /// bound for the objective to be healthy (the objective's target;
    /// `availability` agreements carry their own target value).
    pub latency_target: f64,
    /// Short burn window, µs (fast incident detection).
    pub short_window_us: u64,
    /// Long burn window, µs (suppresses blips).
    pub long_window_us: u64,
    /// Alert when both windows burn budget at ≥ this multiple of the
    /// sustainable rate (burn 1.0 = spending exactly the error budget).
    pub burn_threshold: f64,
    /// Minimum observations in the short window before an objective is
    /// evaluated at all — tiny windows produce meaningless ratios.
    pub min_samples: u64,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            latency_target: 0.99,
            short_window_us: 60_000_000,
            long_window_us: 300_000_000,
            burn_threshold: 10.0,
            min_samples: 8,
        }
    }
}

/// Aggregator configuration.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Background scrape period ([`TelemetryAggregator::start`]), ms.
    /// 0 disables the background driver (manual
    /// [`TelemetryAggregator::scrape_once`] still works).
    pub scrape_interval_ms: u64,
    /// Retained [`FleetSample`]s (fixed-capacity time-series ring).
    pub ring_capacity: usize,
    /// SLO evaluation policy.
    pub slo: SloConfig,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            scrape_interval_ms: DEFAULT_SCRAPE_INTERVAL_MS,
            ring_capacity: 256,
            slo: SloConfig::default(),
        }
    }
}

/// What an objective measures, with the metric names prebuilt so
/// evaluation never formats strings.
#[derive(Debug, Clone, PartialEq)]
pub enum SloKind {
    /// Latency bound: observations of `histogram` at or under
    /// `threshold_us` are good, the rest (including ladder overflow)
    /// are bad. Derived from `deadline_ms`.
    Latency {
        /// Histogram metric name (`object.<key>.latency_us`).
        histogram: String,
        /// Good/bad cut, µs.
        threshold_us: u64,
    },
    /// Success-ratio floor: `requests` minus `errors` are good.
    /// Derived from `availability`.
    Availability {
        /// Request counter name (`object.<key>.requests`).
        requests: String,
        /// Error counter name (`object.<key>.errors`).
        errors: String,
    },
    /// Staleness bound over served data. Derived from `validity_ms`.
    Freshness {
        /// Histogram metric name (`qos.actuality.staleness_us`).
        histogram: String,
        /// Good/bad cut, µs.
        threshold_us: u64,
    },
}

/// One service-level objective, derived from a negotiated agreement (or
/// declared statically with [`TelemetryAggregator::add_objective`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SloObjective {
    /// The node the objective is evaluated against.
    pub node: NodeId,
    /// The object the agreement covers.
    pub object: String,
    /// The agreement this objective was derived from (0 for static
    /// objectives).
    pub agreement_id: u64,
    /// The negotiated characteristic.
    pub characteristic: String,
    /// The agreement parameter that produced this objective
    /// (`deadline_ms`, `availability`, `validity_ms`).
    pub param: String,
    /// Target good fraction (0..1). The error budget is `1 - target`.
    pub target: f64,
    /// What is measured.
    pub kind: SloKind,
}

impl SloObjective {
    /// The error budget: the tolerable bad fraction, floored so a 100%
    /// target still yields a finite burn rate.
    pub fn budget(&self) -> f64 {
        (1.0 - self.target).max(1e-6)
    }

    /// `(total, bad)` observations this objective sees in one windowed
    /// delta snapshot.
    fn total_bad(&self, delta: &MetricsSnapshot) -> (u64, u64) {
        match &self.kind {
            SloKind::Latency { histogram, threshold_us }
            | SloKind::Freshness { histogram, threshold_us } => {
                let Some(h) = delta.histogram(histogram) else { return (0, 0) };
                let good: u64 = h
                    .buckets
                    .iter()
                    .filter(|(bound, _)| bound <= threshold_us)
                    .map(|(_, count)| count)
                    .sum();
                (h.count, h.count.saturating_sub(good))
            }
            SloKind::Availability { requests, errors } => {
                (delta.counter(requests), delta.counter(errors))
            }
        }
    }
}

/// The SLO each [`Objective`] of `agreement` becomes (the fleet column
/// of the table in [`weaver::objective`]).
fn objectives_of(node: NodeId, agreement: &Agreement, slo: &SloConfig) -> Vec<SloObjective> {
    let object = &agreement.object;
    Objective::derive(&agreement.params)
        .into_iter()
        .map(|objective| {
            let threshold_us = objective.threshold as u64;
            let (target, kind) = match objective.kind {
                ObjectiveKind::Deadline => {
                    let histogram = format!("object.{object}.latency_us");
                    (slo.latency_target, SloKind::Latency { histogram, threshold_us })
                }
                ObjectiveKind::Availability => {
                    let requests = format!("object.{object}.requests");
                    let errors = format!("object.{object}.errors");
                    (objective.threshold, SloKind::Availability { requests, errors })
                }
                ObjectiveKind::Validity => {
                    let histogram = "qos.actuality.staleness_us".to_string();
                    (slo.latency_target, SloKind::Freshness { histogram, threshold_us })
                }
            };
            SloObjective {
                node,
                object: object.clone(),
                agreement_id: agreement.id,
                characteristic: agreement.characteristic.clone(),
                param: objective.param.to_string(),
                target,
                kind,
            }
        })
        .collect()
}

/// A fired (or cleared) burn-rate alert. Names everything an operator —
/// or the adaptation engine — needs to act: which agreement, on which
/// node, which object, which parameter, and how fast the budget burns.
#[derive(Debug, Clone, PartialEq)]
pub struct SloAlert {
    /// Aggregator clock at evaluation, µs.
    pub at_us: u64,
    /// The node whose objective is burning.
    pub node: NodeId,
    /// That node's name (from its health reply).
    pub node_name: String,
    /// The object the violated agreement covers.
    pub object: String,
    /// The violated agreement's id.
    pub agreement_id: u64,
    /// The negotiated characteristic.
    pub characteristic: String,
    /// The agreement parameter whose objective is burning.
    pub param: String,
    /// The objective's target good fraction.
    pub target: f64,
    /// Burn rate over the short window (multiples of sustainable).
    pub burn_short: f64,
    /// Burn rate over the long window.
    pub burn_long: f64,
    /// `false` when firing, `true` when a previously firing objective
    /// returned below threshold on both windows.
    pub resolved: bool,
}

impl std::fmt::Display for SloAlert {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} agreement #{} {}/{} {} on {} (node {}): burn short={:.1} long={:.1} target={}",
            if self.resolved { "resolved" } else { "FIRING" },
            self.agreement_id,
            self.characteristic,
            self.param,
            self.object,
            self.node_name,
            self.node.0,
            self.burn_short,
            self.burn_long,
            self.target,
        )
    }
}

/// Callback invoked for each alert transition (fire and resolve). Called
/// with no telemetry locks held, so handlers may take lower-ranked locks
/// (adaptation log, monitors, negotiation).
pub type SloAlertHandler = Arc<dyn Fn(&SloAlert) + Send + Sync>;

/// One node's slice of a [`FleetSample`].
#[derive(Debug, Clone)]
pub struct NodeSample {
    /// The scraped node.
    pub node: NodeId,
    /// Its name (from health; `node<N>` until first contact).
    pub name: String,
    /// Whether the scrape succeeded.
    pub up: bool,
    /// What the node recorded since the previous successful scrape.
    pub delta: MetricsSnapshot,
    /// The node's health counters, when the scrape succeeded.
    pub health: Option<Health>,
    /// Per-peer wire connection states (empty on netsim backends).
    pub wire: Vec<(NodeId, String)>,
    /// Flight events shipped by the cursor poll this scrape.
    pub fresh_events: u64,
}

/// One scrape cycle across the watched fleet.
#[derive(Debug, Clone)]
pub struct FleetSample {
    /// Aggregator clock at the scrape, µs.
    pub at_us: u64,
    /// Per-node results, watch order (node id ascending).
    pub nodes: Vec<NodeSample>,
}

/// Read-only view of one objective's current evaluation.
#[derive(Debug, Clone)]
pub struct SloStatus {
    /// The objective.
    pub objective: SloObjective,
    /// Short-window burn rate (`None` below `min_samples`).
    pub burn_short: Option<f64>,
    /// Long-window burn rate.
    pub burn_long: Option<f64>,
    /// Whether the objective is currently firing.
    pub firing: bool,
}

struct NodeState {
    name: String,
    /// Flight-event cursor: next sequence number to ask for.
    cursor: u64,
    /// Last successfully scraped cumulative snapshot (delta basis).
    last: Option<MetricsSnapshot>,
    /// Agreements reported by the node's last successful scrape.
    agreements: Vec<Agreement>,
    /// Latest health reply.
    health: Option<Health>,
    /// Latest wire states.
    wire: Vec<(NodeId, String)>,
    consecutive_errors: u32,
}

impl NodeState {
    fn new(node: NodeId) -> NodeState {
        NodeState {
            name: format!("node{}", node.0),
            cursor: 0,
            last: None,
            agreements: Vec::new(),
            health: None,
            wire: Vec::new(),
            consecutive_errors: 0,
        }
    }
}

struct AggState {
    nodes: BTreeMap<u32, NodeState>,
    ring: VecDeque<FleetSample>,
    /// Objectives declared by operators rather than derived from
    /// scraped agreements.
    statics: Vec<SloObjective>,
    /// Currently firing objectives: `(node, agreement_id, param)`.
    firing: BTreeSet<(u32, u64, String)>,
}

/// Raw results of scraping one node, before state integration.
struct ScrapePull {
    node: NodeId,
    up: bool,
    metrics: Option<MetricsSnapshot>,
    health: Option<Health>,
    wire: Vec<(NodeId, String)>,
    events: u64,
    next_cursor: Option<u64>,
    agreements: Option<Vec<Agreement>>,
}

/// The fleet aggregator. Create one per cluster observer (typically on
/// an ops node), [`watch`](TelemetryAggregator::watch) the nodes to
/// scrape, then either drive it manually with
/// [`scrape_once`](TelemetryAggregator::scrape_once) (deterministic —
/// what the netsim scenarios do) or spawn the background driver with
/// [`start`](TelemetryAggregator::start).
pub struct TelemetryAggregator {
    orb: Orb,
    introspector: Introspector,
    cfg: TelemetryConfig,
    /// Time source for ring timestamps and SLO windows. Defaults to
    /// [`process_clock_us`]; netsim scenarios inject virtual time so
    /// windowing is seed-deterministic.
    clock: Arc<dyn Fn() -> u64 + Send + Sync>,
    state: OrderedMutex<AggState>,
    handlers: OrderedRwLock<Vec<SloAlertHandler>>,
}

/// Microseconds since the first aggregator in this process asked: one
/// monotone timeline shared by every aggregator the process hosts.
fn process_clock_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

impl TelemetryAggregator {
    /// An aggregator scraping through `orb`, with no watched nodes yet.
    ///
    /// The `telemetry.*`/`slo.*` counters are pre-registered on `orb`'s
    /// metrics so expositions show the plane as present-but-zero before
    /// the first scrape.
    pub fn new(orb: Orb, cfg: TelemetryConfig) -> TelemetryAggregator {
        let metrics = orb.metrics().clone();
        for name in [
            "telemetry.scrapes",
            "telemetry.scrape_errors",
            "telemetry.events_ingested",
            "slo.evaluations",
            "slo.alerts",
            "slo.resolved",
        ] {
            metrics.add(name, 0);
        }
        TelemetryAggregator {
            introspector: Introspector::new(orb.clone()),
            orb,
            cfg,
            clock: Arc::new(process_clock_us),
            state: OrderedMutex::new(
                LockRank::TelemetryState,
                AggState {
                    nodes: BTreeMap::new(),
                    ring: VecDeque::new(),
                    statics: Vec::new(),
                    firing: BTreeSet::new(),
                },
            ),
            handlers: OrderedRwLock::new(LockRank::SloHandlers, Vec::new()),
        }
    }

    /// Replace the time source (ring timestamps and SLO windows).
    /// Netsim scenarios pass virtual time, e.g.
    /// `Arc::new(move || net.fault_now().as_nanos() / 1_000)`.
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn Fn() -> u64 + Send + Sync>) -> TelemetryAggregator {
        self.clock = clock;
        self
    }

    /// Add `node` to the scrape set (idempotent).
    pub fn watch(&self, node: NodeId) {
        self.state.lock().nodes.entry(node.0).or_insert_with(|| NodeState::new(node));
    }

    /// [`watch`](Self::watch) every node in `nodes`.
    pub fn watch_all(&self, nodes: &[NodeId]) {
        let mut state = self.state.lock();
        for &node in nodes {
            state.nodes.entry(node.0).or_insert_with(|| NodeState::new(node));
        }
    }

    /// Declare an objective not derived from any scraped agreement
    /// (ops policy, e.g. a latency bound on an un-negotiated object).
    pub fn add_objective(&self, objective: SloObjective) {
        self.state.lock().statics.push(objective);
    }

    /// Register an alert handler (fire and resolve transitions).
    pub fn on_alert(&self, handler: SloAlertHandler) {
        self.handlers.write().push(handler);
    }

    /// Scrape every watched node once, integrate the results, evaluate
    /// every objective, and return the alert transitions (fires and
    /// resolves). Deterministic given a deterministic clock and network.
    pub fn scrape_once(&self) -> Vec<SloAlert> {
        let started = Instant::now();
        let now = (self.clock)();
        let targets: Vec<(NodeId, u64)> = self
            .state
            .lock()
            .nodes
            .iter()
            .map(|(&id, ns)| (NodeId(id), ns.cursor))
            .collect();

        // Network phase: no telemetry locks held.
        let mut pulls = Vec::with_capacity(targets.len());
        for (node, cursor) in targets {
            pulls.push(self.pull(node, cursor));
        }

        // Integration + evaluation phase: telemetry state only.
        let metrics = self.orb.metrics().clone();
        let flight = self.orb.flight().clone();
        let (sample, alerts) = {
            let mut state = self.state.lock();
            let mut nodes = Vec::with_capacity(pulls.len());
            for pull in pulls {
                let ns = state
                    .nodes
                    .entry(pull.node.0)
                    .or_insert_with(|| NodeState::new(pull.node));
                let delta = match (&pull.metrics, &ns.last) {
                    (Some(cur), Some(prev)) => cur.delta_since(prev),
                    (Some(cur), None) => cur.clone(),
                    (None, _) => MetricsSnapshot::default(),
                };
                if let Some(cur) = pull.metrics {
                    ns.last = Some(cur);
                }
                if let Some(h) = &pull.health {
                    ns.name = h.node.clone();
                }
                if pull.health.is_some() {
                    ns.health = pull.health.clone();
                }
                if let Some(next) = pull.next_cursor {
                    ns.cursor = next;
                }
                if let Some(agreements) = pull.agreements {
                    ns.agreements = agreements;
                }
                ns.wire = pull.wire.clone();
                ns.consecutive_errors =
                    if pull.up { 0 } else { ns.consecutive_errors.saturating_add(1) };
                nodes.push(NodeSample {
                    node: pull.node,
                    name: ns.name.clone(),
                    up: pull.up,
                    delta,
                    health: pull.health,
                    wire: pull.wire,
                    fresh_events: pull.events,
                });
            }
            let sample = FleetSample { at_us: now, nodes };
            if state.ring.len() == self.cfg.ring_capacity {
                state.ring.pop_front();
            }
            state.ring.push_back(sample.clone());
            let alerts = self.evaluate(&mut state, now, &metrics);
            (sample, alerts)
        };

        // Bookkeeping + handler dispatch: no telemetry locks held.
        let up = sample.nodes.iter().filter(|n| n.up).count();
        let down = sample.nodes.len() - up;
        let events: u64 = sample.nodes.iter().map(|n| n.fresh_events).sum();
        metrics.incr("telemetry.scrapes");
        metrics.add("telemetry.scrape_errors", down as u64);
        metrics.add("telemetry.events_ingested", events);
        metrics.observe_us("telemetry.scrape_us", started.elapsed().as_micros() as u64);
        flight.record_detail(
            FlightEventKind::TelemetryScrape,
            "telemetry",
            None,
            format!("nodes={} up={up} events={events} alerts={}", sample.nodes.len(), alerts.len()),
        );
        for alert in &alerts {
            metrics.incr(if alert.resolved { "slo.resolved" } else { "slo.alerts" });
            flight.record_detail(
                FlightEventKind::SloAlert,
                "telemetry",
                None,
                alert.to_string(),
            );
        }
        let handlers = self.handlers.read().clone();
        for alert in &alerts {
            for handler in &handlers {
                handler(alert);
            }
        }
        alerts
    }

    /// Scrape one node. Pure network I/O; holds no aggregator locks.
    fn pull(&self, node: NodeId, cursor: u64) -> ScrapePull {
        let metrics = self.introspector.metrics_snapshot(node);
        let health = self.introspector.health(node);
        let up = metrics.is_ok() && health.is_ok();
        let wire = self.introspector.wire_health(node).unwrap_or_default();
        let (events, next_cursor) = match self.introspector.flight_since(node, cursor) {
            Ok(events) => {
                let next = events.last().map(|e| e.seq + 1);
                (events.len() as u64, next)
            }
            Err(_) => (0, None),
        };
        let agreements = self.introspector.agreements(node).ok();
        ScrapePull {
            node,
            up,
            metrics: metrics.ok(),
            health: health.ok(),
            wire,
            events,
            next_cursor,
            agreements,
        }
    }

    /// Every objective currently in force: statics plus those derived
    /// from each node's scraped agreements.
    fn all_objectives(&self, state: &AggState) -> Vec<SloObjective> {
        let mut out = state.statics.clone();
        for (&id, ns) in &state.nodes {
            for agreement in &ns.agreements {
                out.extend(objectives_of(NodeId(id), agreement, &self.cfg.slo));
            }
        }
        out
    }

    /// `(total, bad)` for `objective` over ring samples within the
    /// trailing `window_us` ending at `now`.
    fn window_total_bad(
        state: &AggState,
        objective: &SloObjective,
        now: u64,
        window_us: u64,
    ) -> (u64, u64) {
        let cutoff = now.saturating_sub(window_us);
        let mut total = 0u64;
        let mut bad = 0u64;
        for sample in state.ring.iter().rev() {
            if sample.at_us < cutoff {
                break;
            }
            for ns in &sample.nodes {
                if ns.node == objective.node {
                    let (t, b) = objective.total_bad(&ns.delta);
                    total += t;
                    bad += b;
                }
            }
        }
        (total, bad)
    }

    fn burn(objective: &SloObjective, total: u64, bad: u64) -> f64 {
        if total == 0 {
            return 0.0;
        }
        (bad as f64 / total as f64) / objective.budget()
    }

    /// Evaluate every objective against the ring, update the firing
    /// set, and return the transitions. Caller holds the state lock;
    /// `metrics` (higher rank) is the only other lock touched.
    fn evaluate(
        &self,
        state: &mut AggState,
        now: u64,
        metrics: &orb::MetricsRegistry,
    ) -> Vec<SloAlert> {
        let slo = &self.cfg.slo;
        let mut transitions = Vec::new();
        for objective in self.all_objectives(state) {
            metrics.incr("slo.evaluations");
            let (short_total, short_bad) =
                Self::window_total_bad(state, &objective, now, slo.short_window_us);
            if short_total < slo.min_samples {
                continue;
            }
            let (long_total, long_bad) =
                Self::window_total_bad(state, &objective, now, slo.long_window_us);
            let burn_short = Self::burn(&objective, short_total, short_bad);
            let burn_long = Self::burn(&objective, long_total, long_bad);
            metrics.observe_us("slo.burn_x100", (burn_short * 100.0) as u64);
            let key =
                (objective.node.0, objective.agreement_id, objective.param.clone());
            let firing_now =
                burn_short >= slo.burn_threshold && burn_long >= slo.burn_threshold;
            let was_firing = state.firing.contains(&key);
            if firing_now == was_firing {
                continue;
            }
            if firing_now {
                state.firing.insert(key);
            } else {
                state.firing.remove(&key);
            }
            let name = state
                .nodes
                .get(&objective.node.0)
                .map_or_else(|| format!("node{}", objective.node.0), |ns| ns.name.clone());
            transitions.push(SloAlert {
                at_us: now,
                node: objective.node,
                node_name: name,
                object: objective.object.clone(),
                agreement_id: objective.agreement_id,
                characteristic: objective.characteristic.clone(),
                param: objective.param.clone(),
                target: objective.target,
                burn_short,
                burn_long,
                resolved: !firing_now,
            });
        }
        transitions
    }

    /// The retained time-series ring, oldest first.
    pub fn samples(&self) -> Vec<FleetSample> {
        self.state.lock().ring.iter().cloned().collect()
    }

    /// Merge every node's latest cumulative snapshot into one
    /// fleet-level snapshot (exact for counters, bucket-exact for
    /// histograms).
    pub fn merged_snapshot(&self) -> MetricsSnapshot {
        let state = self.state.lock();
        let mut merged = MetricsSnapshot::default();
        for ns in state.nodes.values() {
            if let Some(snapshot) = &ns.last {
                merged.merge(snapshot);
            }
        }
        merged
    }

    /// The fleet-merged distribution of histogram `name`, if any node
    /// has recorded into it.
    pub fn fleet_histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.merged_snapshot().histogram(name).cloned()
    }

    /// Per-node status: `(node, name, up, consecutive scrape errors)`.
    /// A node is "up" when its most recent scrape succeeded.
    pub fn node_status(&self) -> Vec<(NodeId, String, bool, u32)> {
        let state = self.state.lock();
        state
            .nodes
            .iter()
            .map(|(&id, ns)| {
                (
                    NodeId(id),
                    ns.name.clone(),
                    ns.last.is_some() && ns.consecutive_errors == 0,
                    ns.consecutive_errors,
                )
            })
            .collect()
    }

    /// Current evaluation of every objective (read-only; does not
    /// transition the firing set or invoke handlers).
    pub fn slo_status(&self) -> Vec<SloStatus> {
        let now = (self.clock)();
        let state = self.state.lock();
        let slo = &self.cfg.slo;
        self.all_objectives(&state)
            .into_iter()
            .map(|objective| {
                let (st, sb) =
                    Self::window_total_bad(&state, &objective, now, slo.short_window_us);
                let (lt, lb) =
                    Self::window_total_bad(&state, &objective, now, slo.long_window_us);
                let key =
                    (objective.node.0, objective.agreement_id, objective.param.clone());
                SloStatus {
                    burn_short: (st >= slo.min_samples)
                        .then(|| Self::burn(&objective, st, sb)),
                    burn_long: (lt >= slo.min_samples).then(|| Self::burn(&objective, lt, lb)),
                    firing: state.firing.contains(&key),
                    objective,
                }
            })
            .collect()
    }

    /// Prometheus exposition for the whole fleet: every node's latest
    /// cumulative snapshot labeled `node="<name>"`, then the merged
    /// fleet snapshot labeled `node="fleet"`.
    pub fn prometheus_fleet(&self) -> String {
        let per_node: Vec<(String, MetricsSnapshot)> = {
            let state = self.state.lock();
            state
                .nodes
                .values()
                .filter_map(|ns| ns.last.clone().map(|s| (ns.name.clone(), s)))
                .collect()
        };
        let mut out = String::new();
        let mut merged = MetricsSnapshot::default();
        for (name, snapshot) in &per_node {
            out.push_str(&prometheus_text_labeled(snapshot, &[("node", name)]));
            merged.merge(snapshot);
        }
        out.push_str(&prometheus_text_labeled(&merged, &[("node", "fleet")]));
        out
    }

    /// Spawn the background scrape driver
    /// ([`TelemetryConfig::scrape_interval_ms`] period, wall clock).
    /// Returns a guard that stops and joins the driver on drop. With a
    /// zero interval the guard is inert (scenario code calls
    /// [`scrape_once`](Self::scrape_once) itself).
    pub fn start(self: &Arc<Self>) -> ScrapeDriver {
        let stop = Arc::new(AtomicBool::new(false));
        if self.cfg.scrape_interval_ms == 0 {
            return ScrapeDriver { stop, handle: None };
        }
        let agg = Arc::clone(self);
        let flag = Arc::clone(&stop);
        let interval = std::time::Duration::from_millis(self.cfg.scrape_interval_ms);
        let handle = std::thread::Builder::new()
            .name("maqs-telemetry-scrape".to_string())
            .spawn(move || {
                while !flag.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    if flag.load(Ordering::Relaxed) {
                        break;
                    }
                    let _ = agg.scrape_once();
                }
            })
            .expect("spawn telemetry scrape driver");
        ScrapeDriver { stop, handle: Some(handle) }
    }
}

/// Guard for the background scrape thread: signals stop and joins on
/// drop (or explicitly via [`ScrapeDriver::stop`]).
pub struct ScrapeDriver {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ScrapeDriver {
    /// Stop the driver and wait for the in-flight scrape to finish.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ScrapeDriver {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orb::Any;

    fn agreement(params: Vec<(&str, Any)>) -> Agreement {
        Agreement {
            id: 7,
            object: "kv".to_string(),
            characteristic: "Replication".to_string(),
            params: params.into_iter().map(|(n, v)| (n.to_string(), v)).collect(),
            version: 1,
        }
    }

    #[test]
    fn agreements_translate_into_objectives() {
        let slo = SloConfig::default();
        let a = agreement(vec![
            ("deadline_ms", Any::ULongLong(5)),
            ("availability", Any::Double(0.999)),
            ("validity_ms", Any::ULongLong(2)),
            ("replicas", Any::ULongLong(3)), // not an SLO parameter
        ]);
        let objectives = objectives_of(NodeId(4), &a, &slo);
        assert_eq!(objectives.len(), 3);
        let latency = &objectives[0];
        assert_eq!(latency.param, "deadline_ms");
        assert_eq!(latency.agreement_id, 7);
        assert_eq!(latency.target, slo.latency_target);
        assert_eq!(
            latency.kind,
            SloKind::Latency { histogram: "object.kv.latency_us".to_string(), threshold_us: 5_000 }
        );
        let avail = &objectives[1];
        assert_eq!(avail.param, "availability");
        assert!((avail.target - 0.999).abs() < 1e-12);
        assert!((avail.budget() - 0.001).abs() < 1e-12);
        let fresh = &objectives[2];
        assert_eq!(fresh.param, "validity_ms");
        assert_eq!(
            fresh.kind,
            SloKind::Freshness {
                histogram: "qos.actuality.staleness_us".to_string(),
                threshold_us: 2_000
            }
        );
    }

    #[test]
    fn latency_objective_counts_overflow_as_bad() {
        let m = orb::MetricsRegistry::new();
        for us in [100, 200, 4_000] {
            m.observe_us("object.kv.latency_us", us);
        }
        m.observe_us("object.kv.latency_us", 9_000); // ladder overflow
        let objective = objectives_of(
            NodeId(1),
            &agreement(vec![("deadline_ms", Any::ULongLong(5))]),
            &SloConfig::default(),
        )
        .remove(0);
        let (total, bad) = objective.total_bad(&m.snapshot());
        assert_eq!(total, 4);
        assert_eq!(bad, 1, "only the overflow observation misses a 5ms deadline");
    }

    #[test]
    fn availability_objective_counts_errors() {
        let m = orb::MetricsRegistry::new();
        m.add("object.kv.requests", 50);
        m.add("object.kv.errors", 3);
        let objective = objectives_of(
            NodeId(1),
            &agreement(vec![("availability", Any::Double(0.9))]),
            &SloConfig::default(),
        )
        .remove(0);
        let (total, bad) = objective.total_bad(&m.snapshot());
        assert_eq!((total, bad), (50, 3));
        // bad fraction 0.06 over budget 0.1 → burn 0.6.
        let burn = TelemetryAggregator::burn(&objective, total, bad);
        assert!((burn - 0.6).abs() < 1e-9, "{burn}");
    }
}
