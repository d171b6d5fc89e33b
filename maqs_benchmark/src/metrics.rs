//! The metric vocabulary: every name, unit and direction this binary
//! reports. `BENCHMARK.json` must list exactly these (a test pins it).

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How the per-window values of an end-to-end metric become the one
/// value a run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimate {
    /// The least-disturbed windows: the 10th percentile of the window
    /// values counted from the better end (between the best and the
    /// second-best of 15). On a shared host interference only ever slows
    /// a window down, so the good end of the windows is the most
    /// repeatable reading of what the program itself costs, and stepping
    /// just inside it keeps one freak window from setting the value
    /// (measured: README.md, "Steadiness").
    Best,
    /// The median window: for a share of calls, which interference can
    /// move either way.
    Median,
    /// Over all calls of the run: a failure anywhere must show.
    Pooled,
    /// The median of a few readings, each taken in a process of its own.
    Probe,
}

/// How a value moves with the speed of the box (see
/// `run::box_speed`): what a run reports is the value at nominal speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scales {
    /// A duration: longer on a slow box.
    AsTime,
    /// Work per second: less on a slow box.
    AsRate,
    /// A share, a ratio or a size: not at all.
    Not,
}

/// An end-to-end metric, reported per workload. `bound` is the share of
/// the parent's value by which it may worsen before a change counts as
/// a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub estimate: Estimate,
    pub scales: Scales,
}

use Better::{Higher, Lower};

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    estimate: Estimate,
    scales: Scales,
) -> EndToEnd {
    EndToEnd { name, unit, better, bound, estimate, scales }
}

/// Bounds: the issue's 10 % where ten runs with ten seeds spread (IQR /
/// median) well under that, which only `peak_rss_mib` does (1-4 %). The
/// time and rate metrics spread 3-8 % in a calm hour and 4-12 % in a
/// noisy one (README.md, "Steadiness"); three times that is at or past
/// 25 %, the most the pipeline accepts.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Lower, 0.25, Estimate::Best, Scales::AsTime),
    e2e("calls_per_s", "1/s", Higher, 0.25, Estimate::Best, Scales::AsRate),
    e2e("rtt_p50_us", "us", Lower, 0.25, Estimate::Best, Scales::AsTime),
    e2e("rtt_p99_over_p50", "ratio", Lower, 0.25, Estimate::Best, Scales::Not),
    e2e("deadline_met_ratio", "ratio", Higher, 0.01, Estimate::Median, Scales::Not),
    e2e("success_ratio", "ratio", Higher, 0.001, Estimate::Pooled, Scales::Not),
    e2e("cpu_us_per_call", "us", Lower, 0.25, Estimate::Best, Scales::AsTime),
    e2e("peak_rss_mib", "MiB", Lower, 0.10, Estimate::Probe, Scales::Not),
];

/// A per-layer metric (traced pass). No bound: these explain, they do
/// not gate.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 86] = [
    pl("orb.cdr.encode_null_ns", "ns", Lower),
    pl("orb.cdr.decode_null_ns", "ns", Lower),
    pl("orb.cdr.encode_16k_ns", "ns", Lower),
    pl("orb.cdr.decode_16k_ns", "ns", Lower),
    pl("orb.giop.frame_request_ns", "ns", Lower),
    pl("orb.giop.frame_reply_ns", "ns", Lower),
    pl("orb.giop.peek_ns", "ns", Lower),
    pl("orb.giop.decode_request_ns", "ns", Lower),
    pl("orb.giop.frame_qos_ns", "ns", Lower),
    pl("orb.giop.packet_decode_view_ns", "ns", Lower),
    pl("orb.adapter.dispatch_ns", "ns", Lower),
    pl("orb.core.collocated_invoke_ns", "ns", Lower),
    pl("orb.core.async_issue_us", "us", Lower),
    pl("orb.core.recv_route_us", "us", Lower),
    pl("orb.core.queue_wait_us", "us", Lower),
    pl("orb.core.queue_wait_p99_us", "us", Lower),
    pl("orb.core.dispatch_us", "us", Lower),
    pl("orb.core.reply_match_us", "us", Lower),
    pl("orb.core.replies_orphaned", "count", Lower),
    pl("orb.core.packets_dropped", "count", Lower),
    pl("orb.core.handled_per_call", "ratio", Lower),
    pl("orb.wire.netsim_rtt_us", "us", Lower),
    pl("orb.wire.tcp_rtt_us", "us", Lower),
    pl("orb.wire.uds_rtt_us", "us", Lower),
    pl("orb.wire.tcp_rtt_16k_us", "us", Lower),
    pl("orb.wire.uds_rtt_16k_us", "us", Lower),
    pl("orb.wire.tcp_send_call_ns", "ns", Lower),
    pl("orb.wire.tcp_stream_frames_per_s", "1/s", Higher),
    pl("orb.wire.uds_stream_frames_per_s", "1/s", Higher),
    pl("orb.wire.outbox_depth_max", "count", Lower),
    pl("orb.wire.frame_errors", "count", Lower),
    pl("orb.wire.netsim_bytes_per_call", "B", Lower),
    pl("orb.wire.netsim_msgs_per_call", "count", Lower),
    pl("orb.qos_binding.bound_module_ns", "ns", Lower),
    pl("orb.qos_binding.module_lookup_ns", "ns", Lower),
    pl("orb.qos_binding.tagged_minus_plain_us", "us", Lower),
    pl("orb.metrics.observe_ns", "ns", Lower),
    pl("orb.metrics.incr_ns", "ns", Lower),
    pl("orb.metrics.snapshot_us", "us", Lower),
    pl("orb.metrics.series_count", "count", Lower),
    pl("orb.flight.record_ns", "ns", Lower),
    pl("orb.trace.context_codec_ns", "ns", Lower),
    pl("orb.export.prometheus_render_us", "us", Lower),
    pl("weaver.stub_invoke_ns", "ns", Lower),
    pl("weaver.mediator_hop_ns", "ns", Lower),
    pl("weaver.resilience_hop_ns", "ns", Lower),
    pl("weaver.skeleton_bare_ns", "ns", Lower),
    pl("weaver.skeleton_woven_ns", "ns", Lower),
    pl("weaver.delegate_exchange_ns", "ns", Lower),
    pl("qosmech.compress.compress_mib_s", "MiB/s", Higher),
    pl("qosmech.compress.decompress_mib_s", "MiB/s", Higher),
    pl("qosmech.compress.ratio", "ratio", Lower),
    pl("qosmech.crypt.seal_mib_s", "MiB/s", Higher),
    pl("qosmech.crypt.open_mib_s", "MiB/s", Higher),
    pl("qosmech.actuality.epilog_ns", "ns", Lower),
    pl("qosmech.bandwidth.outbound_ns", "ns", Lower),
    pl("services.negotiation.negotiate_us", "us", Lower),
    pl("services.monitoring.record_ns", "ns", Lower),
    pl("services.telemetry.scrape_us", "us", Lower),
    pl("services.telemetry.requests_per_scrape", "count", Lower),
    pl("services.introspection.metrics_reply_bytes", "B", Lower),
    pl("qidl.compile_ticker_us", "us", Lower),
    pl("maqs.node_build_ms", "ms", Lower),
    pl("maqs.serve_us", "us", Lower),
    pl("maqs.shutdown_ms", "ms", Lower),
    pl("proc.threads", "count", Lower),
    pl("proc.ctx_switches_per_call", "count", Lower),
    pl("proc.allocs_per_call", "count", Lower),
    pl("proc.alloc_bytes_per_call", "B", Lower),
    pl("gen.lag_p99_us", "us", Lower),
    pl("trace.rtt_us", "us", Lower),
    pl("trace.request_path_us", "us", Lower),
    pl("trace.stub_us", "us", Lower),
    pl("trace.mediator_to_outbound_us", "us", Lower),
    pl("trace.wire_request_us", "us", Lower),
    pl("trace.inbound_to_prolog_us", "us", Lower),
    pl("trace.prolog_us", "us", Lower),
    pl("trace.servant_us", "us", Lower),
    pl("trace.epilog_us", "us", Lower),
    pl("trace.epilog_to_outbound_us", "us", Lower),
    pl("trace.wire_reply_us", "us", Lower),
    pl("trace.inbound_to_return_us", "us", Lower),
    pl("trace.reply_path_us", "us", Lower),
    pl("trace.sum_over_rtt", "ratio", Lower),
    pl("trace.unattributed_us", "us", Lower),
    pl("trace.overhead_us", "us", Lower),
];

/// Named values produced by a pass, in report order.
pub type Values = Vec<(String, f64)>;

/// Record a value.
pub fn put(values: &mut Values, name: &str, value: f64) {
    values.push((name.to_string(), value));
}

/// Look a value up by name.
pub fn value(values: &Values, name: &str) -> Option<f64> {
    values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::WORKLOADS;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn names(doc: &Value, section: &str) -> Vec<String> {
        doc.get(section)
            .and_then(Value::as_arr)
            .expect(section)
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).expect("name").to_string())
            .collect()
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        all.extend(PER_LAYER.iter().map(|m| m.name));
        for (i, n) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(n), "duplicate {n}");
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(unit.len() <= 16);
            assert!(
                unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn benchmark_json_lists_exactly_this_vocabulary() {
        let doc = benchmark_json();
        assert_eq!(names(&doc, "workloads"), WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
        assert_eq!(
            names(&doc, "end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(names(&doc, "per_layer"), PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
        for (decl, m) in doc.get("end_to_end").unwrap().as_arr().unwrap().iter().zip(&END_TO_END) {
            assert_eq!(decl.get("unit").and_then(Value::as_str), Some(m.unit), "{}", m.name);
            assert_eq!(
                decl.get("better").and_then(Value::as_str),
                Some(m.better.name()),
                "{}",
                m.name
            );
            assert_eq!(decl.get("bound").and_then(Value::as_f64), Some(m.bound), "{}", m.name);
        }
        for (decl, m) in doc.get("per_layer").unwrap().as_arr().unwrap().iter().zip(&PER_LAYER) {
            assert_eq!(decl.get("unit").and_then(Value::as_str), Some(m.unit), "{}", m.name);
            assert_eq!(
                decl.get("better").and_then(Value::as_str),
                Some(m.better.name()),
                "{}",
                m.name
            );
        }
        for (decl, w) in doc.get("workloads").unwrap().as_arr().unwrap().iter().zip(&WORKLOADS) {
            assert_eq!(decl.get("why").and_then(Value::as_str), Some(w.why), "{}", w.name);
        }
    }
}
