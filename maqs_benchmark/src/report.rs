//! What a run prints and writes: every metric by name and unit, the
//! Fig. 1 layer table, the contract line, the result document, and the
//! `compare` verdicts over two such documents.

use crate::json::{obj, Value};
use crate::metrics::{Better, Estimate, Values, END_TO_END, PER_LAYER};
use crate::run::{EndToEndResult, Options, TraceResult, WINDOWS_PER_ROUND};
use crate::stats::Summary;
use crate::taps::SEGMENTS;

pub const SCHEMA: &str = "maqs-benchmark/1";

pub fn print_end_to_end(r: &EndToEndResult, opts: &Options) {
    println!(
        "\n== {}: end to end, {} fresh pairs x {WINDOWS_PER_ROUND} windows x {:.2} s, no tap installed ==",
        r.spec.name,
        opts.rounds,
        opts.seconds / (opts.rounds * WINDOWS_PER_ROUND) as f64
    );
    println!("   {}", r.spec.why);
    println!(
        "   box speed {:.3} of nominal (speed reference {:.3} us per round trip); times and rates are at nominal speed, `measured` is what the clock read",
        r.box_speed,
        r.reference_us.quantile(0.10)
    );
    println!(
        "  {:<20} {:>14} {:>14} {:<6} {:>8}  {:>12} {:>12} {:>12} {:>12} {:>12}  bound",
        "metric", "reported", "measured", "unit", "estimate", "min", "q1", "median", "q3", "max"
    );
    let row =
        |name: &str, values: String, unit: &str, estimate: &str, s: &Summary, bound: String| {
            println!(
                "  {:<20} {:>29} {:<6} {:>8}  {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4}  {}",
                name, values, unit, estimate, s.min, s.q1, s.median, s.q3, s.max, bound
            );
        };
    for (reported, m) in r.metrics.iter().zip(&END_TO_END) {
        let estimate = match m.estimate {
            Estimate::Best => "best",
            Estimate::Median => "median",
            Estimate::Pooled => "pooled",
            Estimate::Probe => "probe",
        };
        let sign = if m.better == Better::Lower { "+" } else { "-" };
        row(
            reported.name,
            format!("{:>14.4} {:>14.4}", reported.value, reported.value / reported.factor),
            m.unit,
            estimate,
            &reported.windows,
            format!("{sign}{:.1}%", m.bound * 100.0),
        );
    }
    for (name, s) in &r.shown {
        row(name, String::new(), "", "(shown)", s, String::new());
    }
    println!(
        "  samples {} attempted {} failed {}; p{:.3} = {:.1} us; deadline {} us; generator lag p99 {:.1} us, {} late windows discarded",
        r.samples,
        r.attempted,
        r.failed,
        r.top_percentile.0,
        r.top_percentile.1,
        r.spec.deadline_us,
        r.gen_lag_p99_us.median,
        r.late_windows
    );
    print_problems(&r.problems);
}

pub fn print_traced(r: &TraceResult) {
    println!(
        "\n== {}: traced pass (micro-probes, observed window, tapped single client) ==",
        r.spec.name
    );
    for ((name, v), m) in r.values.iter().zip(&PER_LAYER) {
        println!("  {:<46} {:>16.4} {}", name, v, m.unit);
    }
    println!(
        "\n  Fig. 1 layer table: midmeans over the {} calls in the interquartile range of round trip",
        r.table.calls_used
    );
    println!("  {:<26} {:>10} {:>8}  owner", "layer", "cost_us", "share");
    for (name, us) in &r.table.rows {
        let owner = SEGMENTS.iter().find(|(n, _)| n == name).map_or("", |(_, o)| o);
        println!(
            "  {:<26} {:>10.3} {:>7.1}%  {}",
            name.trim_end_matches("_us"),
            us,
            100.0 * us / r.table.rtt_us.max(f64::MIN_POSITIVE),
            owner
        );
    }
    println!(
        "  {:<26} {:>10.3} {:>7.1}%  (reference round trip {:.3} us)",
        "sum",
        r.table.rows.iter().map(|(_, us)| us).sum::<f64>(),
        100.0 * r.table.sum_over_rtt(),
        r.table.rtt_us
    );
    println!(
        "  traced p50 {:.2} us, untapped control p50 {:.2} us, tap overhead (median slice pair) {:+.2} us ({:+.1}%)",
        r.traced_p50_us,
        r.control_p50_us,
        r.overhead_us,
        100.0 * r.overhead_us / r.control_p50_us.max(f64::MIN_POSITIVE)
    );
    print_problems(&r.problems);
}

fn print_problems(problems: &[String]) {
    for p in problems {
        println!("  PROBLEM {p}");
    }
}

/// The line the pipeline reads: last line of standard output.
pub fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    obj([
        ("correct", Value::from(correct)),
        ("attempted", Value::from(attempted.max(1))),
        ("failed", Value::from(failed)),
        (
            "metrics",
            obj(metrics.iter().map(|(name, v, unit)| {
                (name.as_str(), obj([("value", Value::from(*v)), ("unit", Value::from(*unit))]))
            })),
        ),
    ])
    .compact()
}

pub fn end_to_end_contract(r: &EndToEndResult) -> String {
    let metrics: Vec<(String, f64, &str)> = r
        .metrics
        .iter()
        .zip(&END_TO_END)
        .map(|(r, m)| (r.name.to_string(), r.value, m.unit))
        .collect();
    contract_line(r.problems.is_empty(), r.attempted, r.failed, &metrics)
}

pub fn traced_contract(r: &TraceResult) -> String {
    let metrics: Vec<(String, f64, &str)> =
        r.values.iter().zip(&PER_LAYER).map(|((n, v), m)| (n.clone(), *v, m.unit)).collect();
    contract_line(r.problems.is_empty(), r.attempted, r.failed, &metrics)
}

/// Cross-workload differences the issue asks to see side by side.
pub fn derived(e2e: &[EndToEndResult], traces: &[TraceResult]) -> Vec<(&'static str, f64)> {
    let p50 =
        |name: &str| e2e.iter().find(|r| r.spec.name == name).map(|r| r.reported("rtt_p50_us"));
    let probe = |name: &str| traces.first().and_then(|t| crate::metrics::value(&t.values, name));
    let mut out = Vec::new();
    if let (Some(woven), Some(null)) = (p50("woven_sync_netsim"), p50("null_sync_netsim")) {
        out.push(("price_of_separation_us", woven - null));
        out.push(("price_of_separation_share_of_woven_rtt", (woven - null) / woven));
    }
    if let (Some(tcp), Some(sim)) = (p50("null_sync_tcp"), p50("null_sync_netsim")) {
        out.push(("tcp_minus_netsim_rtt_p50_us", tcp - sim));
        if let (Some(w_tcp), Some(w_sim)) =
            (probe("orb.wire.tcp_rtt_us"), probe("orb.wire.netsim_rtt_us"))
        {
            out.push(("wire_tcp_minus_netsim_rtt_us", w_tcp - w_sim));
            out.push(("unattributed_socket_gap_us", (tcp - sim) - (w_tcp - w_sim)));
        }
    }
    out
}

/// The result document of a full run. `probes` are the micro-probe
/// values, the same for every workload and therefore written once.
pub fn document(
    env: Value,
    e2e: &[EndToEndResult],
    traces: &[TraceResult],
    probes: &Values,
) -> Value {
    let mut names: Vec<&str> = e2e.iter().map(|r| r.spec.name).collect();
    for t in traces {
        if !names.contains(&t.spec.name) {
            names.push(t.spec.name);
        }
    }
    let workloads = names.into_iter().map(|name| {
        let mut fields = Vec::new();
        if let Some(r) = e2e.iter().find(|r| r.spec.name == name) {
            if let Value::Obj(f) = r.to_json() {
                fields.extend(f);
            }
        }
        if let Some(t) = traces.iter().find(|t| t.spec.name == name) {
            fields.push(("traced".to_string(), t.to_json(probes)));
        }
        (name, Value::Obj(fields))
    });
    let probe_values = PER_LAYER.iter().filter_map(|m| {
        let v = crate::metrics::value(probes, m.name)?;
        Some((m.name, obj([("value", Value::from(v)), ("unit", Value::from(m.unit))])))
    });
    obj([
        ("schema", Value::from(SCHEMA)),
        ("env", env),
        ("probes", obj(probe_values)),
        ("workloads", obj(workloads)),
        ("derived", obj(derived(e2e, traces).into_iter().map(|(k, v)| (k, Value::from(v))))),
    ])
}

// ---- compare -----------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    /// Worse than the bound, but the two runs' quartile ranges overlap:
    /// the spread is wider than the bound and the pair decides nothing.
    Unresolved,
    Fail,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Unresolved => "unresolved",
            Verdict::Fail => "FAIL",
        }
    }
}

/// `(reported value, q1, q3 of the per-window values)` of one side.
pub type Side = (f64, f64, f64);

/// By how much (as a share of A's value) B is worse than A, and what
/// that means against `bound`.
pub fn judge(a: Side, b: Side, better: Better, bound: f64) -> (f64, Verdict) {
    if a.0 == 0.0 {
        return (0.0, if b.0 == 0.0 { Verdict::Pass } else { Verdict::Unresolved });
    }
    let worse = match better {
        Better::Lower => (b.0 - a.0) / a.0.abs(),
        Better::Higher => (a.0 - b.0) / a.0.abs(),
    };
    let verdict = if worse <= bound {
        Verdict::Pass
    } else if a.1 <= b.2 && b.1 <= a.2 {
        Verdict::Unresolved
    } else {
        Verdict::Fail
    };
    (worse, verdict)
}

/// Compare two result documents metric by metric and workload by
/// workload. Returns the printed table and whether anything failed.
///
/// # Errors
///
/// Documents that are not `maqs-benchmark/1` or share no workload.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    for (side, doc) in [("A", a), ("B", b)] {
        if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Err(format!("{side} is not a {SCHEMA} document"));
        }
    }
    let side = |doc: &Value, workload: &str, metric: &str| -> Option<Side> {
        let m = doc.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?;
        Some((m.get("value")?.as_f64()?, m.get("q1")?.as_f64()?, m.get("q3")?.as_f64()?))
    };
    let mut out = String::new();
    let env = |doc: &Value, key: &str| {
        doc.get("env").and_then(|e| e.get(key)).map_or_else(|| "?".to_string(), Value::compact)
    };
    for key in ["commit", "dep_mode", "nproc", "seed", "rounds", "window_seconds"] {
        let (ea, eb) = (env(a, key), env(b, key));
        let note = if ea == eb || key == "seed" || key == "commit" {
            ""
        } else {
            "   <-- differs: not comparable"
        };
        out.push_str(&format!("  env.{key:<16} A {ea:<44} B {eb}{note}\n"));
    }
    out.push_str(&format!(
        "  {:<20} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A", "B", "worse", "bound"
    ));
    let (mut compared, mut failed) = (0, false);
    let workloads = a.get("workloads").and_then(Value::as_obj).ok_or("A has no workloads")?;
    for (workload, _) in workloads {
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (side(a, workload, m.name), side(b, workload, m.name))
            else {
                continue;
            };
            let (worse, verdict) = judge(sa, sb, m.better, m.bound);
            compared += 1;
            failed |= verdict == Verdict::Fail;
            out.push_str(&format!(
                "  {:<20} {:<20} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}%  {}\n",
                workload,
                m.name,
                sa.0,
                sb.0,
                worse * 100.0,
                m.bound * 100.0,
                verdict.name()
            ));
        }
    }
    if compared == 0 {
        return Err("the two documents share no workload with end-to-end metrics".to_string());
    }
    // Cross-workload differences, side by side; they have no bound.
    for (key, va) in a.get("derived").and_then(Value::as_obj).unwrap_or(&[]) {
        if let (Some(va), Some(vb)) =
            (va.as_f64(), b.get("derived").and_then(|d| d.get(key)).and_then(Value::as_f64))
        {
            out.push_str(&format!("  derived.{key:<44} A {va:>12.4}   B {vb:>12.4}\n"));
        }
    }
    Ok((out, failed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::run::{Round, RssProbe, WindowValues};
    use crate::taps::LayerTable;
    use crate::workloads::WORKLOADS;

    fn fake_e2e(scale: f64) -> Vec<EndToEndResult> {
        WORKLOADS
            .iter()
            .map(|spec| {
                let rounds = (0..5)
                    .map(|w| {
                        let wobble = 1.0 + 0.01 * f64::from(w);
                        let window = || {
                            let values = END_TO_END.iter().map(|m| {
                                (
                                    m.name,
                                    if m.unit == "ratio" { 1.0 } else { 100.0 * scale * wobble },
                                )
                            });
                            WindowValues::fake(values.collect(), 10_000)
                        };
                        let windows = (0..WINDOWS_PER_ROUND).map(|_| window()).collect();
                        Round::fake(0.1 * scale * wobble, windows)
                    })
                    .collect();
                let rss = RssProbe { peak_rss_mib: 8.0 * scale, ..RssProbe::default() };
                EndToEndResult::summarize(spec, rounds, vec![rss])
            })
            .collect()
    }

    fn fake_trace() -> Vec<TraceResult> {
        WORKLOADS
            .iter()
            .map(|spec| TraceResult {
                spec,
                values: PER_LAYER.iter().map(|m| (m.name.to_string(), 1.5)).collect::<Values>(),
                table: LayerTable { rows: vec![("servant_us", 1.0)], rtt_us: 1.0, calls_used: 1 },
                control_p50_us: 1.0,
                traced_p50_us: 1.0,
                overhead_us: 0.0,
                attempted: 10,
                failed: 0,
                problems: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn document_parses_and_names_every_metric_and_workload() {
        // The first three per-layer metrics stand for the micro-probes.
        let probes: Values = PER_LAYER[..3].iter().map(|m| (m.name.to_string(), 1.5)).collect();
        let env = crate::sysinfo::env_block(1, 5, 3.0);
        let doc = document(env, &fake_e2e(1.0), &fake_trace(), &probes);
        let parsed = json::parse(&doc.pretty()).expect("document parses");
        assert_eq!(parsed, doc);
        for spec in &WORKLOADS {
            let w = parsed.get("workloads").and_then(|w| w.get(spec.name)).expect(spec.name);
            for m in &END_TO_END {
                let entry = w.get("end_to_end").and_then(|e| e.get(m.name)).expect(m.name);
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit));
                assert!(entry.get("value").and_then(Value::as_f64).is_some());
                assert!(entry.get("median").and_then(Value::as_f64).is_some());
                let values = match m.name {
                    "setup_s" => 5,
                    "peak_rss_mib" => 1,
                    _ => 5 * WINDOWS_PER_ROUND,
                };
                assert_eq!(
                    entry.get("windows").and_then(Value::as_arr).map(<[Value]>::len),
                    Some(values),
                    "{}",
                    m.name
                );
            }
            // Every per-layer metric is in the document exactly once per
            // workload: with the probes or with the workload.
            let own = w.get("traced").and_then(|t| t.get("per_layer")).expect("per_layer");
            for (i, m) in PER_LAYER.iter().enumerate() {
                let shared = parsed.get("probes").and_then(|p| p.get(m.name)).is_some();
                assert_eq!(shared, i < 3, "{}", m.name);
                assert_eq!(own.get(m.name).is_some(), i >= 3, "{}", m.name);
            }
        }
        for key in ["nproc", "dep_mode", "commit", "rustc", "seed", "rounds", "window_seconds"] {
            assert!(parsed.get("env").and_then(|e| e.get(key)).is_some(), "env.{key}");
        }
        assert!(parsed.get("derived").and_then(|d| d.get("price_of_separation_us")).is_some());
    }

    #[test]
    fn contract_lines_carry_exactly_the_declared_metrics() {
        let line = json::parse(&end_to_end_contract(&fake_e2e(1.0)[0])).unwrap();
        let keys: Vec<&str> = line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = line
            .get("metrics")
            .unwrap()
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));

        let line = json::parse(&traced_contract(&fake_trace()[0])).unwrap();
        let names: Vec<&str> = line
            .get("metrics")
            .unwrap()
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
    }

    #[test]
    fn judge_respects_direction_bound_and_overlap() {
        use Better::{Higher, Lower};
        // 5 % slower against a 10 % bound.
        assert_eq!(
            judge((100.0, 99.0, 101.0), (105.0, 104.0, 106.0), Lower, 0.10).1,
            Verdict::Pass
        );
        // 20 % slower, quartiles apart.
        let (worse, v) = judge((100.0, 99.0, 101.0), (120.0, 119.0, 121.0), Lower, 0.10);
        assert!((worse - 0.20).abs() < 1e-12);
        assert_eq!(v, Verdict::Fail);
        // 20 % slower but the runs' quartile ranges overlap.
        assert_eq!(
            judge((100.0, 80.0, 125.0), (120.0, 95.0, 140.0), Lower, 0.10).1,
            Verdict::Unresolved
        );
        // Higher-is-better: a 20 % rise is an improvement, a 20 % drop fails.
        assert_eq!(
            judge((100.0, 99.0, 101.0), (120.0, 119.0, 121.0), Higher, 0.10).1,
            Verdict::Pass
        );
        assert_eq!(judge((100.0, 99.0, 101.0), (80.0, 79.0, 81.0), Higher, 0.10).1, Verdict::Fail);
        assert_eq!(judge((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), Lower, 0.10).1, Verdict::Pass);
    }

    #[test]
    fn compare_flags_a_regression_and_rejects_foreign_documents() {
        let env = || crate::sysinfo::env_block(1, 5, 3.0);
        let a = document(env(), &fake_e2e(1.0), &[], &Values::new());
        let same = document(env(), &fake_e2e(1.02), &[], &Values::new());
        let slower = document(env(), &fake_e2e(1.5), &[], &Values::new());
        let (table, failed) = compare(&a, &same).unwrap();
        assert!(!failed, "{table}");
        assert!(table.contains("null_sync_netsim") && table.contains("rtt_p99_over_p50"));
        assert!(table.contains("derived.price_of_separation_us"), "{table}");
        let (table, failed) = compare(&a, &slower).unwrap();
        assert!(failed && table.contains("FAIL"));
        assert!(compare(&a, &json::parse("{\"schema\":\"other\"}").unwrap()).is_err());
    }
}
