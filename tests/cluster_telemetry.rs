//! Cluster telemetry plane scenario: an aggregator scrapes an 8-worker
//! fleet over GIOP, derives SLO objectives from the negotiated deadline
//! agreements, and fires a burn-rate alert that singles out the one
//! node violating its deadline — within bounded virtual time, without
//! alerting on any healthy node, deterministically under the netsim
//! seed.
//!
//! The fleet-merge golden (`tests/golden/fleet_quantiles.txt`)
//! additionally freezes the merged-histogram quantiles against a
//! single-registry reference observing the same samples; regenerate
//! with `BLESS=1 cargo test --test cluster_telemetry`.

use maqs::prelude::*;
use netsim::{NodeId, VirtualDuration};
use orb::export::quantile_line;
use orb::MetricsRegistry;
use services::{SloAlert, SloConfig, TelemetryAggregator, TelemetryConfig};
use std::path::PathBuf;
use std::sync::Arc;

const SPEC: &str = r#"
    interface Kv with qos Replication {
        void put(in long long v);
        long long get();
    };
"#;

/// Echo-style servant; `delay_ms > 0` makes it a deadline violator.
struct Kv {
    cell: parking_lot::Mutex<i64>,
    delay_ms: u64,
}

impl Servant for Kv {
    fn interface_id(&self) -> &str {
        "IDL:Kv:1.0"
    }
    fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {
        if self.delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.delay_ms));
        }
        match op {
            "put" => {
                *self.cell.lock() = args.first().and_then(Any::as_i64).unwrap_or(0);
                Ok(Any::Void)
            }
            "get" => Ok(Any::LongLong(*self.cell.lock())),
            _ => Err(OrbError::BadOperation(op.to_string())),
        }
    }
}

const WORKERS: usize = 8;
const VICTIM: usize = 5;
const ROUNDS: usize = 4;
const CALLS_PER_ROUND: i64 = 4;

struct ScenarioOutcome {
    /// Alert transitions in firing order, with virtual timestamps.
    alerts: Vec<SloAlert>,
    /// What a registered `on_alert` handler was pushed over the run.
    pushed: Vec<SloAlert>,
    /// `(worker index, agreement id, node id)` per worker.
    agreements: Vec<(usize, u64, NodeId)>,
    /// Fleet-merged per-object latency count after the last scrape.
    fleet_latency_count: u64,
}

/// Run the whole scenario on `seed`: build the fleet, negotiate a 5 ms
/// deadline everywhere, make one worker sleep past it, scrape each
/// round under virtual time.
fn run_scenario(seed: u64) -> ScenarioOutcome {
    let net = Network::new(seed);
    let mut workers = Vec::new();
    for i in 0..WORKERS {
        let node =
            MaqsNode::builder(&net, &format!("w{i}")).spec(SPEC).build().expect("build worker");
        let delay_ms = if i == VICTIM { 8 } else { 0 };
        let ior = node
            .serve(
                "svc",
                Arc::new(Kv { cell: parking_lot::Mutex::new(0), delay_ms }),
                ServeOptions::interface("Kv")
                    .qos_impl(Arc::new(qosmech::replication::ReplicationQosImpl::new()))
                    .capacity("Replication", 4),
            )
            .expect("serve svc");
        workers.push((node, ior));
    }
    let ops = MaqsNode::builder(&net, "ops").build().expect("build ops");

    // One 5 ms deadline agreement per worker. 5 ms is the top of the
    // bucket ladder, so "good" is bucket-exact: only overflow misses.
    let mut agreements = Vec::new();
    for (i, (node, _)) in workers.iter().enumerate() {
        let agreement = ops
            .negotiator()
            .negotiate_offer(
                node.orb().node(),
                "svc",
                &Offer::new("Replication", 1.0).with_param("deadline_ms", Any::ULongLong(5)),
            )
            .expect("negotiate deadline");
        agreements.push((i, agreement.id, node.orb().node()));
    }

    let clock_net = net.clone();
    let agg = TelemetryAggregator::new(
        ops.orb().clone(),
        TelemetryConfig {
            scrape_interval_ms: 0, // the test drives scrapes explicitly
            slo: SloConfig { min_samples: 4, ..SloConfig::default() },
            ..TelemetryConfig::default()
        },
    )
    .with_clock(Arc::new(move || clock_net.fault_now().0 / 1_000));
    let fleet: Vec<NodeId> = workers.iter().map(|(n, _)| n.orb().node()).collect();
    agg.watch_all(&fleet);
    let pushed = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let sink = Arc::clone(&pushed);
    agg.on_alert(Arc::new(move |alert: &SloAlert| sink.lock().push(alert.clone())));

    let mut alerts = Vec::new();
    for _round in 0..ROUNDS {
        for (_, ior) in &workers {
            let stub = ops.stub(ior);
            for v in 0..CALLS_PER_ROUND {
                stub.invoke("put", &[Any::LongLong(v)]).expect("put");
            }
        }
        net.tick(VirtualDuration::from_secs(15));
        alerts.extend(agg.scrape_once());
    }

    let fleet_latency_count =
        agg.fleet_histogram("object.svc.latency_us").map_or(0, |h| h.count);
    for (node, _) in &workers {
        node.shutdown();
    }
    ops.shutdown();
    let pushed = pushed.lock().clone();
    ScenarioOutcome { alerts, pushed, agreements, fleet_latency_count }
}

#[test]
fn burn_rate_alert_singles_out_the_violating_node() {
    let outcome = run_scenario(42);
    let (_, victim_agreement, victim_node) = outcome.agreements[VICTIM];

    let firing: Vec<&SloAlert> = outcome.alerts.iter().filter(|a| !a.resolved).collect();
    assert!(!firing.is_empty(), "the violated deadline never produced an alert");
    // The push channel (all the background driver has) carries exactly
    // the transitions `scrape_once` returns.
    assert_eq!(outcome.pushed, outcome.alerts);
    for alert in &firing {
        assert_eq!(alert.node, victim_node, "alert on a healthy node: {alert}");
        assert_eq!(alert.agreement_id, victim_agreement, "alert names wrong agreement: {alert}");
        assert_eq!(alert.node_name, format!("w{VICTIM}"));
        assert_eq!(alert.object, "svc");
        assert_eq!(alert.param, "deadline_ms");
        assert!(
            alert.burn_short >= 10.0,
            "a 100% miss rate must burn far beyond threshold: {alert}"
        );
    }
    // Bounded detection time: every call the victim answered missed the
    // deadline, so the very first scrape with min_samples of traffic —
    // 15 virtual seconds in — must already fire.
    assert_eq!(
        firing[0].at_us, 15_000_000,
        "alert must fire at the first scrape after the violation"
    );

    // Every observation from every node landed in the fleet merge.
    assert_eq!(
        outcome.fleet_latency_count,
        (WORKERS * ROUNDS * CALLS_PER_ROUND as usize) as u64
    );
}

#[test]
fn scenario_is_deterministic_under_the_seed() {
    let a = run_scenario(42);
    let b = run_scenario(42);
    let shape = |o: &ScenarioOutcome| {
        o.alerts
            .iter()
            .map(|al| {
                (al.at_us, al.node.0, al.agreement_id, al.param.clone(), al.resolved)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(shape(&a), shape(&b), "alert stream must be identical run-to-run");
    assert_eq!(a.agreements, b.agreements);
    assert_eq!(a.fleet_latency_count, b.fleet_latency_count);
}

/// Resolve `tests/golden/` from the workspace root or the maqs crate
/// directory, like the other golden tests.
fn golden_path() -> PathBuf {
    for base in ["tests/golden", "../../tests/golden"] {
        let dir = PathBuf::from(base);
        if dir.is_dir() {
            return dir.join("fleet_quantiles.txt");
        }
    }
    PathBuf::from("tests/golden/fleet_quantiles.txt")
}

#[test]
fn fleet_merge_matches_single_registry_reference() {
    // Four per-node registries plus one reference registry observing
    // every sample; values are spread across the whole bucket ladder
    // (including overflow) and are disjoint per node.
    let nodes: Vec<MetricsRegistry> = (0..4).map(|_| MetricsRegistry::new()).collect();
    let reference = MetricsRegistry::new();
    for (i, registry) in nodes.iter().enumerate() {
        for k in 0..64u64 {
            // Deterministic spread: node i sees 64 samples scattered
            // over [i*37 .. i*37 + 63*97] µs.
            let us = (i as u64) * 37 + k * 97;
            registry.observe_us("object.svc.latency_us", us);
            reference.observe_us("object.svc.latency_us", us);
        }
    }

    let mut merged = MetricsSnapshot::default();
    for registry in &nodes {
        merged.merge(&registry.snapshot());
    }
    let fleet = merged.histogram("object.svc.latency_us").expect("merged histogram");
    let single = reference.snapshot();
    let single = single.histogram("object.svc.latency_us").expect("reference histogram");

    // Same ladder + same samples ⇒ the merge must be bucket-exact, so
    // every quantile agrees with the single-registry reference (well
    // within the one-bucket-boundary tolerance the plane promises).
    assert_eq!(fleet, single, "fleet merge must be bucket-exact");
    let mut actual = String::new();
    actual.push_str(&format!("count={} sum_us={} overflow={}\n", fleet.count, fleet.sum_us, fleet.overflow));
    actual.push_str(&format!("merged    {}\n", quantile_line(fleet)));
    actual.push_str(&format!("reference {}\n", quantile_line(single)));
    for &(bound, count) in &fleet.buckets {
        actual.push_str(&format!("le={bound} {count}\n"));
    }

    let path = golden_path();
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); run with BLESS=1", path.display())
    });
    assert_eq!(actual, expected, "fleet quantiles drifted; if intentional, re-bless with BLESS=1");
}
