//! Human and JSON renderers for the observability plane, following the
//! same conventions as [`qoslint::render`]: aligned plain-text for
//! humans, hand-rolled single-object JSON for tools (the workspace
//! carries no JSON dependency).

use orb::export::quantile_line;
use orb::{FlightEvent, MetricsSnapshot, TraceContext};
use services::adaptation::{AdaptationEvent, StepOutcome};

/// Render a metrics snapshot as aligned plain text: a `counters`
/// section, then a `histograms (us)` section with
/// count/mean/max/p50/p95/p99 per name (quantiles bucket-interpolated;
/// see [`orb::HistogramSnapshot::quantile`]).
pub fn render_metrics_human(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    if !snapshot.counters.is_empty() {
        out.push_str("counters:\n");
        let width = snapshot.counters.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, value) in &snapshot.counters {
            out.push_str(&format!("  {name:<width$}  {value}\n"));
        }
    }
    if !snapshot.histograms.is_empty() {
        out.push_str("histograms (us):\n");
        let width = snapshot.histograms.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, h) in &snapshot.histograms {
            out.push_str(&format!(
                "  {name:<width$}  count={} mean={:.1} max={} {}\n",
                h.count,
                h.mean_us(),
                h.max_us,
                quantile_line(h)
            ));
        }
    }
    if out.is_empty() {
        out.push_str("(no metrics recorded)\n");
    }
    out
}

/// Render flight events as an aligned plain-text timeline: sequence,
/// timestamp, node, layer, kind, trace id (`-` when unsampled), detail.
pub fn render_flight_human(events: &[FlightEvent]) -> String {
    if events.is_empty() {
        return "(no flight events)\n".to_string();
    }
    let mut out = String::from("flight events:\n");
    let node_w = events.iter().map(|e| e.node.len()).max().unwrap_or(4).max("node".len());
    let layer_w = events.iter().map(|e| e.layer.len()).max().unwrap_or(5).max("layer".len());
    let kind_w = events.iter().map(|e| e.kind.name().len()).max().unwrap_or(4);
    for e in events {
        let trace = e.trace_id.map_or_else(|| "-".to_string(), |t| format!("{t:#x}"));
        out.push_str(&format!(
            "  #{:<6} {:>10}us  {:<node_w$}  {:<layer_w$}  {:<kind_w$}  {trace}",
            e.seq, e.ts_us, e.node, e.layer, e.kind.name(),
        ));
        if let Some(detail) = e.detail.as_deref().filter(|d| !d.is_empty()) {
            out.push_str(&format!("  {detail}"));
        }
        out.push('\n');
    }
    out
}

/// Render a metrics snapshot as one JSON object:
///
/// ```json
/// {"counters":{"orb.requests_sent":3},
///  "histograms":{"orb.roundtrip_us":{"count":3,"sum_us":310,"max_us":120,
///   "mean_us":103.3,"buckets":[[1,0],[2,0]],"overflow":0}}}
/// ```
pub fn render_metrics_json(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("{\"counters\":{");
    for (i, (name, value)) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{value}", json_string(name)));
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in snapshot.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let buckets: Vec<String> =
            h.buckets.iter().map(|(bound, n)| format!("[{bound},{n}]")).collect();
        out.push_str(&format!(
            "{}:{{\"count\":{},\"sum_us\":{},\"max_us\":{},\"mean_us\":{:.1},\"buckets\":[{}],\"overflow\":{}}}",
            json_string(name),
            h.count,
            h.sum_us,
            h.max_us,
            h.mean_us(),
            buckets.join(","),
            h.overflow
        ));
    }
    out.push_str("}}");
    out
}

/// Render one trace as a per-layer cost breakdown, spans in the order
/// they completed. Spans are *inclusive* of the layers beneath them
/// (a `stub` span covers the whole call), so the column does not sum.
pub fn render_trace_human(trace: &TraceContext) -> String {
    let mut out = format!("trace {:#018x}\n", trace.trace_id);
    let layer_w = trace.spans.iter().map(|s| s.layer.len()).max().unwrap_or(5).max("layer".len());
    let node_w = trace.spans.iter().map(|s| s.node.len()).max().unwrap_or(4).max("node".len());
    out.push_str(&format!("  {:<layer_w$}  {:<node_w$}  {:>8}\n", "layer", "node", "us"));
    for s in &trace.spans {
        out.push_str(&format!("  {:<layer_w$}  {:<node_w$}  {:>8}\n", s.layer, s.node, s.dur_us));
    }
    out
}

/// Render one trace as a JSON object:
///
/// ```json
/// {"trace_id":123,"spans":[{"layer":"stub","node":"client","dur_us":42}]}
/// ```
pub fn render_trace_json(trace: &TraceContext) -> String {
    let spans: Vec<String> = trace
        .spans
        .iter()
        .map(|s| {
            format!(
                "{{\"layer\":{},\"node\":{},\"dur_us\":{}}}",
                json_string(&s.layer),
                json_string(&s.node),
                s.dur_us
            )
        })
        .collect();
    format!("{{\"trace_id\":{},\"spans\":[{}]}}", trace.trace_id, spans.join(","))
}

/// Render an adaptation log as one line per event: sequence, object,
/// ladder step, outcome, detail, and the violation that triggered it.
pub fn render_adaptation_human(events: &[AdaptationEvent]) -> String {
    if events.is_empty() {
        return "(no adaptation events)\n".to_string();
    }
    let mut out = String::from("adaptation events:\n");
    for e in events {
        out.push_str(&format!("  {e}\n"));
    }
    out
}

/// Render an adaptation log as a JSON array:
///
/// ```json
/// [{"seq":0,"object":"kv","step":"rebind","outcome":"ok",
///   "detail":"rebound to node 3 (`kv`)",
///   "trigger":{"metric":"availability","observed":0.4,"threshold":0.9}}]
/// ```
pub fn render_adaptation_json(events: &[AdaptationEvent]) -> String {
    let rendered: Vec<String> = events
        .iter()
        .map(|e| {
            let outcome = match &e.outcome {
                StepOutcome::Succeeded => "\"ok\"".to_string(),
                StepOutcome::Failed(why) => json_string(&format!("failed: {why}")),
            };
            format!(
                "{{\"seq\":{},\"object\":{},\"step\":{},\"outcome\":{},\"detail\":{},\
                 \"trigger\":{{\"metric\":{},\"observed\":{},\"threshold\":{}}}}}",
                e.seq,
                json_string(&e.object),
                json_string(&e.step),
                outcome,
                json_string(&e.detail),
                json_string(&e.trigger.metric),
                e.trigger.observed,
                e.trigger.threshold
            )
        })
        .collect();
    format!("[{}]", rendered.join(","))
}

/// Escape `s` as a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use orb::MetricsRegistry;
    use services::monitoring::ViolationEvent;

    fn sample_snapshot() -> MetricsSnapshot {
        let m = MetricsRegistry::new();
        m.incr("orb.requests_sent");
        m.add("wire.bytes_received", 512);
        m.observe_us("orb.roundtrip_us", 90);
        m.observe_us("orb.roundtrip_us", 110);
        m.snapshot()
    }

    #[test]
    fn human_metrics_list_counters_and_histograms() {
        let out = render_metrics_human(&sample_snapshot());
        assert!(out.contains("counters:"), "{out}");
        assert!(out.contains("orb.requests_sent"), "{out}");
        assert!(out.contains("histograms (us):"), "{out}");
        assert!(out.contains("count=2 mean=100.0 max=110"), "{out}");
        assert!(out.contains("p50="), "{out}");
        assert!(out.contains("p99="), "{out}");
        assert_eq!(render_metrics_human(&MetricsSnapshot::default()), "(no metrics recorded)\n");
    }

    #[test]
    fn flight_renderers_cover_traced_and_unsampled_events() {
        use orb::{FlightEventKind, FlightRecorder};
        let rec = FlightRecorder::new("n1", 16);
        rec.record(FlightEventKind::RequestSent, "orb.client", Some(0xbeef));
        rec.record_detail(
            FlightEventKind::CircuitTransition,
            "resilience",
            None,
            "closed->open".to_string(),
        );
        let events = rec.snapshot();
        let human = render_flight_human(&events);
        assert!(human.contains("request_sent"), "{human}");
        assert!(human.contains("0xbeef"), "{human}");
        assert!(human.contains("circuit_transition"), "{human}");
        assert!(human.contains("closed->open"), "{human}");
        assert_eq!(render_flight_human(&[]), "(no flight events)\n");
    }

    #[test]
    fn json_metrics_shape() {
        let out = render_metrics_json(&sample_snapshot());
        assert!(out.starts_with("{\"counters\":{"), "{out}");
        assert!(out.contains("\"orb.requests_sent\":1"), "{out}");
        assert!(out.contains("\"wire.bytes_received\":512"), "{out}");
        assert!(out.contains("\"orb.roundtrip_us\":{\"count\":2,\"sum_us\":200"), "{out}");
        assert!(out.contains("\"buckets\":[[1,0]"), "{out}");
        assert!(out.ends_with("}}"), "{out}");
    }

    #[test]
    fn adaptation_renderers_cover_outcomes() {
        let trigger = ViolationEvent {
            object: "kv".to_string(),
            metric: "availability".to_string(),
            observed: 0.4,
            threshold: 0.9,
        };
        let events = vec![
            AdaptationEvent {
                seq: 0,
                object: "kv".to_string(),
                trigger: trigger.clone(),
                step: "renegotiate".to_string(),
                detail: String::new(),
                outcome: StepOutcome::Failed("server unreachable".to_string()),
            },
            AdaptationEvent {
                seq: 1,
                object: "kv".to_string(),
                trigger,
                step: "rebind".to_string(),
                detail: "rebound to node 3 (`kv`)".to_string(),
                outcome: StepOutcome::Succeeded,
            },
        ];
        let human = render_adaptation_human(&events);
        assert!(human.contains("renegotiate"), "{human}");
        assert!(human.contains("failed: server unreachable"), "{human}");
        assert!(human.contains("rebind"), "{human}");
        assert_eq!(render_adaptation_human(&[]), "(no adaptation events)\n");
        let json = render_adaptation_json(&events);
        assert!(json.starts_with("[{\"seq\":0"), "{json}");
        assert!(json.contains("\"step\":\"rebind\""), "{json}");
        assert!(json.contains("\"outcome\":\"ok\""), "{json}");
        assert!(json.contains("\"threshold\":0.9"), "{json}");
        assert_eq!(render_adaptation_json(&[]), "[]");
    }

    #[test]
    fn trace_renderers_cover_every_span() {
        let mut t = TraceContext::with_id(0xabcd);
        t.push("wire", "server", 250);
        t.push("stub", "client", 400);
        let human = render_trace_human(&t);
        assert!(human.starts_with("trace 0x000000000000abcd"), "{human}");
        assert!(human.contains("wire"), "{human}");
        assert!(human.contains("400"), "{human}");
        let json = render_trace_json(&t);
        assert_eq!(
            json,
            "{\"trace_id\":43981,\"spans\":[\
             {\"layer\":\"wire\",\"node\":\"server\",\"dur_us\":250},\
             {\"layer\":\"stub\",\"node\":\"client\",\"dur_us\":400}]}"
        );
    }
}
