//! The two passes. The end-to-end pass runs a workload's own generator
//! in short windows on fresh ORB pairs with no tap installed and reports
//! one value per metric from the per-window values (see
//! `metrics::Estimate`). The traced pass re-runs it to take the
//! per-layer numbers: micro-probes, counter deltas around an observed
//! window, and a tapped single-client window that yields the layer
//! table.

use crate::json::{self, obj, Value};
use crate::metrics::{self, put, Better, Estimate, Scales, Values, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile_us, top_percentile_us, Summary};
use crate::sysinfo;
use crate::taps::{self, LayerTable, TapLog};
use crate::workloads::{Flavor, Rig, Shape, Spec, Until, Window};
use orb::{HistogramSnapshot, MetricsSnapshot, QuantileEstimate};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Measured seconds per workload and pass.
    pub seconds: f64,
    /// Fresh ORB pairs the end-to-end seconds are split over.
    pub rounds: usize,
    pub out_dir: PathBuf,
}

/// Windows measured on each fresh pair. Many short windows, so that a
/// host stall of tens of milliseconds spoils one window in fifteen, not
/// one in five, and some windows of every run are undisturbed.
pub const WINDOWS_PER_ROUND: usize = 3;
/// Where in the sorted window values `Estimate::Best` reads.
const BEST_QUANTILE: f64 = 0.10;
/// A window's p99 is only reported from this many samples up.
const MIN_P99_SAMPLES: usize = 1_000;
/// An open-loop window whose generator started 1 % of its bursts later
/// than this did not offer the load shape it claims: it is discarded
/// and run again.
const MAX_GEN_LAG_P99_US: f64 = 200.0;
/// What the speed reference (`sysinfo::reference_round_trip_us`) reads
/// on the build box in its fast state, stand-in dependencies: the speed
/// at which a run's time and rate metrics are reported. See
/// [`box_speed`].
const NOMINAL_REFERENCE_US: f64 = 3.70;
/// Late windows a round may run again, on top of its own windows.
const RETRIES_PER_ROUND: usize = 2 * WINDOWS_PER_ROUND;
/// Fresh processes the peak RSS is read in; the median is reported.
const RSS_PROBES: usize = 3;
/// Calls per client a peak-RSS probe makes after set-up. A count, not
/// a time, so that neither the program's speed nor the harness's sample
/// buffers move the reading.
const RSS_PROBE_CALLS: u64 = 1_000;
/// Shares of `--seconds` the traced pass gives its three windows; the
/// micro-probes take a fixed time on top.
const OBSERVED_SHARE: f64 = 0.30;
const SINGLE_SHARE: f64 = 0.15;
/// Alternating slices the control and tapped windows are cut into.
/// Fifteen pairs: the median pair's difference then reads -2 to +4 % of
/// the round trip, where five pairs read -4 to +8 % in a noisy hour.
const SLICES: usize = 15;
/// Tapping may cost this share of the untapped round trip, no more.
const MAX_TAP_OVERHEAD: f64 = 0.10;
/// Calls whose spans are written to the trace file.
const TRACE_FILE_CALLS: usize = 256;

/// The per-window end-to-end values, plus what the summary needs.
#[derive(Debug)]
pub struct WindowValues {
    values: Vec<(&'static str, f64)>,
    gen_lag_p99_us: f64,
    lat_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl WindowValues {
    /// The open-loop generator did not keep its schedule (never true of
    /// a closed loop, whose lag is 0).
    fn late(&self) -> bool {
        self.gen_lag_p99_us > MAX_GEN_LAG_P99_US
    }
}

/// One end-to-end round: a fresh pair and the windows measured on it.
#[derive(Debug)]
pub struct Round {
    setup_s: f64,
    /// Speed-reference readings, one before each window and one after
    /// the last.
    reference_us: Vec<f64>,
    /// At most [`WINDOWS_PER_ROUND`] windows that kept their schedule.
    windows: Vec<WindowValues>,
    /// Late windows, discarded: their calls are still checked and
    /// counted, their values are not used.
    late: Vec<WindowValues>,
}

/// Set a fresh pair up and measure [`WINDOWS_PER_ROUND`] consecutive
/// windows sharing `round_s` on it, running a late window again while
/// [`RETRIES_PER_ROUND`] lasts.
///
/// # Errors
///
/// Set-up failures; a window that ran but misbehaved is reported through
/// its `problems` and `failed` instead.
fn end_to_end_round(spec: &'static Spec, opts: &Options, round_s: f64) -> Result<Round, String> {
    let rig = Rig::setup(spec, opts.seed, &opts.out_dir, None)?;
    let mut round = Round {
        setup_s: rig.setup_s,
        reference_us: Vec::new(),
        windows: Vec::new(),
        late: Vec::new(),
    };
    while round.windows.len() < WINDOWS_PER_ROUND
        && round.windows.len() + round.late.len() < WINDOWS_PER_ROUND + RETRIES_PER_ROUND
    {
        round.reference_us.push(sysinfo::reference_round_trip_us());
        let w = rig.window(|r| r.run_shape(Until::seconds(round_s / WINDOWS_PER_ROUND as f64)));
        let values = window_values(spec, &w);
        if values.late() {
            round.late.push(values);
        } else {
            round.windows.push(values);
        }
    }
    round.reference_us.push(sysinfo::reference_round_trip_us());
    if !rig.teardown() {
        if let Some(first) = round.windows.iter_mut().chain(&mut round.late).next() {
            first.problems.push(format!("{}: an ORB did not shut down", spec.name));
        }
    }
    Ok(round)
}

fn window_values(spec: &Spec, w: &Window) -> WindowValues {
    let mut problems: Vec<String> = w.problems(spec.name).collect();
    let mut lat = w.samples.lat_ns.clone();
    lat.sort_unstable();
    if lat.len() < MIN_P99_SAMPLES {
        problems.push(format!(
            "{}: {} samples in a window, p99 needs {MIN_P99_SAMPLES}",
            spec.name,
            lat.len()
        ));
    }
    let mut lag = w.samples.lag_ns.clone();
    lag.sort_unstable();

    let ok = lat.len() as f64;
    let attempted = w.samples.attempted.max(1) as f64;
    let failed = w.failed();
    let limit_ns = (spec.deadline_us * 1_000.0) as u64;
    let in_time = lat.partition_point(|&ns| ns <= limit_ns) as f64;
    let (p50, p99) = (percentile_us(&lat, 0.50), percentile_us(&lat, 0.99));
    let values = vec![
        ("calls_per_s", ok / w.elapsed_s),
        ("rtt_p50_us", p50),
        ("rtt_p99_us", p99),
        ("rtt_p99_over_p50", p99 / p50.max(f64::MIN_POSITIVE)),
        ("deadline_met_ratio", in_time / attempted),
        ("success_ratio", (attempted - failed as f64).max(0.0) / attempted),
        ("cpu_us_per_call", w.cpu_us / ok.max(1.0)),
    ];
    WindowValues {
        values,
        gen_lag_p99_us: percentile_us(&lag, 0.99),
        lat_ns: lat,
        attempted: w.samples.attempted,
        failed,
        problems,
    }
}

// ---- peak RSS: measured in a process of its own --------------------------

/// What one peak-RSS probe of a workload found.
#[derive(Debug, Default)]
pub struct RssProbe {
    pub peak_rss_mib: f64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl RssProbe {
    fn to_json(&self) -> Value {
        obj([
            ("peak_rss_mib", Value::from(self.peak_rss_mib)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            (
                "problems",
                Value::Arr(self.problems.iter().map(|p| Value::from(p.as_str())).collect()),
            ),
        ])
    }

    fn from_json(doc: &Value) -> Option<RssProbe> {
        Some(RssProbe {
            peak_rss_mib: doc.get("peak_rss_mib")?.as_f64()?,
            attempted: doc.get("attempted")?.as_f64()? as u64,
            failed: doc.get("failed")?.as_f64()? as u64,
            problems: doc
                .get("problems")?
                .as_arr()?
                .iter()
                .filter_map(|p| p.as_str().map(str::to_string))
                .collect(),
        })
    }
}

/// The child side of the probe (`maqs_benchmark rss-probe ...`): set the
/// workload up, make [`RSS_PROBE_CALLS`] verified calls per client with
/// its own generator, and print the process's `VmHWM` as one JSON line.
/// A process of its own, so that the reading holds this workload's
/// set-up and steady state and nothing else: no earlier workload's heap,
/// no earlier window's samples.
///
/// # Errors
///
/// Set-up failures.
pub fn rss_probe(spec: &'static Spec, opts: &Options) -> Result<bool, String> {
    let rig = Rig::setup(spec, opts.seed, &opts.out_dir, None)?;
    let w = rig.window(|r| r.run_shape(Until::Calls(RSS_PROBE_CALLS)));
    let mut probe = RssProbe {
        peak_rss_mib: sysinfo::peak_rss_mib(),
        attempted: w.samples.attempted,
        failed: w.failed(),
        problems: w.problems(&format!("{} (rss probe)", spec.name)).collect(),
    };
    if !rig.teardown() {
        probe.problems.push(format!("{} (rss probe): an ORB did not shut down", spec.name));
    }
    println!("{}", probe.to_json().compact());
    Ok(probe.problems.is_empty())
}

/// The parent side: run the probe in a fresh process and read its line.
fn peak_rss_in_fresh_process(spec: &Spec, opts: &Options) -> Result<RssProbe, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["rss-probe", "--workload", spec.name, "--seed", &opts.seed.to_string(), "--out"])
        .arg(&opts.out_dir)
        .output()
        .map_err(|e| format!("{}: start rss probe: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .and_then(|line| json::parse(line).ok())
        .and_then(|doc| RssProbe::from_json(&doc))
        .ok_or_else(|| {
            format!(
                "{}: rss probe ended with {} and no result: {}",
                spec.name,
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            )
        })
}

/// How fast the box was during a run, 1.0 being nominal: the nominal
/// reading of the speed reference over the run's own, taken like a
/// `Best` metric from the least-disturbed readings.
///
/// The build box's speed moves by itself: for minutes at a time every
/// thread hand-off costs 10-25 % more (a CPU-bound loop moves 5 %), and
/// a 15 s run sits inside one such spell. The reference, two threads
/// handing a token back and forth with no product code involved, moves
/// with it: over twelve runs per workload a run's best reference and its
/// best `calls_per_s`, `rtt_p50_us` and `cpu_us_per_call` correlate
/// 0.8-0.98, and dividing the box's speed out halves their run-to-run
/// spread (README.md, "Steadiness"). So a run reports what its times
/// and rates would have been at nominal speed, and the raw values
/// beside them.
fn box_speed(reference_us: &Summary) -> f64 {
    match reference_us.quantile(BEST_QUANTILE) {
        us if us > 0.0 => NOMINAL_REFERENCE_US / us,
        _ => 1.0,
    }
}

/// What a run reports for one end-to-end metric.
#[derive(Debug)]
pub struct Reported {
    pub name: &'static str,
    /// The reported value, at nominal box speed.
    pub value: f64,
    /// What that speed changed: `value` = the measured value x `factor`.
    pub factor: f64,
    /// The values it was taken from (one per window, round or probe),
    /// at nominal box speed like `value`.
    pub windows: Summary,
}

/// A workload's end-to-end result: each metric summarised over windows.
#[derive(Debug)]
pub struct EndToEndResult {
    pub spec: &'static Spec,
    /// In `END_TO_END` order.
    pub metrics: Vec<Reported>,
    /// The speed reference's readings over the run, and the speed they
    /// give ([`box_speed`]); a reported time is the measured one times
    /// `box_speed`, a reported rate the measured one divided by it.
    pub reference_us: Summary,
    pub box_speed: f64,
    /// Per-window values that are shown and recorded but not gated.
    pub shown: Vec<(&'static str, Summary)>,
    /// How late the open-loop generator started its bursts, per window
    /// that was kept (all of them at most [`MAX_GEN_LAG_P99_US`]).
    pub gen_lag_p99_us: Summary,
    /// Windows discarded and run again because the generator was late;
    /// always 0 on closed loops.
    pub late_windows: usize,
    pub samples: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Highest percentile with at least ten samples beyond it, pooled
    /// over the windows: `(percent, µs)`.
    pub top_percentile: (f64, f64),
    pub problems: Vec<String>,
}

impl EndToEndResult {
    pub fn summarize(
        spec: &'static Spec,
        rounds: Vec<Round>,
        rss: Vec<RssProbe>,
    ) -> EndToEndResult {
        let slots = rounds.len() * WINDOWS_PER_ROUND;
        let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
        let (mut windows, mut late, mut readings) = (Vec::new(), Vec::new(), Vec::new());
        for r in rounds {
            windows.extend(r.windows);
            late.extend(r.late);
            readings.extend(r.reference_us);
        }
        let reference_us = Summary::of(&readings);
        let box_speed = box_speed(&reference_us);
        // The open loop's rate is its schedule's, whatever the box does.
        let factor = |m: &metrics::EndToEnd| match m.scales {
            Scales::AsTime => box_speed,
            Scales::AsRate if spec.shape != Shape::OpenBurst => 1.0 / box_speed,
            Scales::AsRate | Scales::Not => 1.0,
        };
        let per_window = |name: &str| -> Vec<f64> {
            windows
                .iter()
                .filter_map(|w| w.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
                .collect()
        };
        // A wrong reply counts wherever it happened, also in a window
        // whose timing was discarded and in the RSS probe.
        let everything = || windows.iter().chain(&late);
        let attempted = everything().map(|w| w.attempted).sum::<u64>()
            + rss.iter().map(|p| p.attempted).sum::<u64>();
        let failed =
            everything().map(|w| w.failed).sum::<u64>() + rss.iter().map(|p| p.failed).sum::<u64>();
        let metrics = END_TO_END
            .iter()
            .map(|m| {
                let measured = match m.name {
                    "setup_s" => setups.clone(),
                    "peak_rss_mib" => rss.iter().map(|p| p.peak_rss_mib).collect(),
                    name => per_window(name),
                };
                let factor = factor(m);
                let s = Summary::of(&measured.iter().map(|v| v * factor).collect::<Vec<_>>());
                let value = match (m.estimate, m.better) {
                    (Estimate::Best, Better::Lower) => s.quantile(BEST_QUANTILE),
                    (Estimate::Best, Better::Higher) => s.quantile(1.0 - BEST_QUANTILE),
                    (Estimate::Median | Estimate::Probe, _) => s.median,
                    (Estimate::Pooled, _) => {
                        attempted.saturating_sub(failed) as f64 / attempted.max(1) as f64
                    }
                };
                Reported { name: m.name, value, factor, windows: s }
            })
            .collect();
        let shown = windows.first().map_or_else(Vec::new, |w| {
            let ungated = w.values.iter().filter(|(n, _)| END_TO_END.iter().all(|m| m.name != *n));
            ungated.map(|(n, _)| (*n, Summary::of(&per_window(n)))).collect()
        });
        let mut pooled: Vec<u64> = windows.iter().flat_map(|w| w.lat_ns.iter().copied()).collect();
        pooled.sort_unstable();
        let gen_lag_p99_us =
            Summary::of(&windows.iter().map(|w| w.gen_lag_p99_us).collect::<Vec<_>>());
        let mut problems: Vec<String> = everything()
            .flat_map(|w| &w.problems)
            .chain(rss.iter().flat_map(|p| &p.problems))
            .cloned()
            .collect();
        if windows.len() * 3 < slots {
            problems.push(format!(
                "{}: invalid run: the generator kept its schedule (lag p99 <= {MAX_GEN_LAG_P99_US} us) in {} of {} windows tried; {slots} wanted, a third of that needed",
                spec.name,
                windows.len(),
                windows.len() + late.len()
            ));
        }
        EndToEndResult {
            spec,
            metrics,
            reference_us,
            box_speed,
            shown,
            gen_lag_p99_us,
            late_windows: late.len(),
            samples: pooled.len() as u64,
            attempted,
            failed,
            top_percentile: top_percentile_us(&pooled),
            problems,
        }
    }

    /// The value the run reports for `name`.
    pub fn reported(&self, name: &str) -> f64 {
        self.metrics.iter().find(|r| r.name == name).map_or(0.0, |r| r.value)
    }

    pub fn to_json(&self) -> Value {
        let summary = |s: &Summary| {
            vec![
                ("median", Value::from(s.median)),
                ("min", Value::from(s.min)),
                ("q1", Value::from(s.q1)),
                ("q3", Value::from(s.q3)),
                ("max", Value::from(s.max)),
                ("windows", Value::Arr(s.windows.iter().map(|&v| Value::from(v)).collect())),
            ]
        };
        let metrics = self.metrics.iter().zip(&END_TO_END).map(|(r, m)| {
            let mut fields = vec![
                ("value", Value::from(r.value)),
                ("measured", Value::from(r.value / r.factor)),
                ("unit", Value::from(m.unit)),
                ("better", Value::from(m.better.name())),
                ("bound", Value::from(m.bound)),
            ];
            fields.extend(summary(&r.windows));
            (r.name, obj(fields))
        });
        obj([
            ("why", Value::from(self.spec.why)),
            ("deadline_us", Value::from(self.spec.deadline_us)),
            ("samples", Value::from(self.samples)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            (
                "top_percentile",
                obj([
                    ("p", Value::from(self.top_percentile.0)),
                    ("us", Value::from(self.top_percentile.1)),
                ]),
            ),
            ("box_speed", Value::from(self.box_speed)),
            ("reference_us", obj(summary(&self.reference_us))),
            ("gen_lag_p99_us", obj(summary(&self.gen_lag_p99_us))),
            ("late_windows", Value::from(self.late_windows)),
            ("end_to_end", obj(metrics)),
            ("shown", obj(self.shown.iter().map(|(name, s)| (*name, obj(summary(s)))))),
            (
                "problems",
                Value::Arr(self.problems.iter().map(|p| Value::from(p.as_str())).collect()),
            ),
        ])
    }
}

/// The end-to-end pass: `rounds` fresh pairs per workload sharing
/// `--seconds`, the rounds of all workloads interleaved (workload order
/// rotated per round) so that a slow minute on the box is spread over
/// all of them, then the peak-RSS probes of each workload.
///
/// # Errors
///
/// Set-up failures.
pub fn end_to_end(specs: &[&'static Spec], opts: &Options) -> Result<Vec<EndToEndResult>, String> {
    let round_s = opts.seconds / opts.rounds as f64;
    let mut rounds: Vec<Vec<Round>> = specs.iter().map(|_| Vec::new()).collect();
    for round in 0..opts.rounds {
        for i in 0..specs.len() {
            let at = (i + round) % specs.len();
            rounds[at].push(end_to_end_round(specs[at], opts, round_s)?);
        }
    }
    specs
        .iter()
        .zip(rounds)
        .map(|(spec, rounds)| {
            let rss: Result<Vec<RssProbe>, String> =
                (0..RSS_PROBES).map(|_| peak_rss_in_fresh_process(spec, opts)).collect();
            Ok(EndToEndResult::summarize(spec, rounds, rss?))
        })
        .collect()
}

// ---- traced pass -------------------------------------------------------

/// A workload's traced-pass result.
#[derive(Debug)]
pub struct TraceResult {
    pub spec: &'static Spec,
    /// Every `PER_LAYER` metric, in declaration order.
    pub values: Values,
    pub table: LayerTable,
    /// Medians over the slices of each side's per-slice median round
    /// trip, and the median over slice pairs of tapped - control.
    pub control_p50_us: f64,
    pub traced_p50_us: f64,
    pub overhead_us: f64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

fn hist_delta(
    after: &MetricsSnapshot,
    before: &MetricsSnapshot,
    name: &str,
) -> Option<HistogramSnapshot> {
    let now = after.histogram(name)?;
    Some(match before.histogram(name) {
        Some(then) => now.saturating_delta(then),
        None => now.clone(),
    })
}

fn mean_us(after: &MetricsSnapshot, before: &MetricsSnapshot, name: &str) -> f64 {
    hist_delta(after, before, name).map_or(0.0, |h| h.mean_us())
}

fn p99_us(after: &MetricsSnapshot, before: &MetricsSnapshot, name: &str) -> f64 {
    match hist_delta(after, before, name).and_then(|h| h.quantile(0.99)) {
        Some(QuantileEstimate::Interpolated(v)) => v,
        Some(QuantileEstimate::AboveBuckets(bound)) => bound as f64,
        None => 0.0,
    }
}

fn p50_us(samples: &[u64]) -> f64 {
    let mut lat = samples.to_vec();
    lat.sort_unstable();
    percentile_us(&lat, 0.50)
}

/// The observed window: the workload's own load shape, no taps, with
/// every counter the layers keep read before and after it.
fn observed_window(
    spec: &'static Spec,
    opts: &Options,
    out: &mut Values,
    problems: &mut Vec<String>,
) -> Result<(u64, u64), String> {
    let rig = Rig::setup(spec, opts.seed, &opts.out_dir, None)?;
    let srv0 = rig.server.metrics().snapshot();
    let cli0 = rig.client.metrics().snapshot();
    let net0 = rig.net.as_ref().map(netsim::Network::stats);
    let ctx0 = sysinfo::context_switches();
    let (allocs0, bytes0) = sysinfo::alloc_counters();

    // Sample the client's outbox toward the server while the window
    // runs; the sampler is the only extra thread of this pass.
    let stop = AtomicBool::new(false);
    let depth_max = AtomicUsize::new(0);
    let mut threads = 0.0;
    let w = std::thread::scope(|scope| {
        if let Some((_, client_sock)) = &rig.socks {
            let (stop, depth_max, server) = (&stop, &depth_max, rig.server.node());
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    depth_max.fetch_max(client_sock.outbox_frames(server), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(500));
                }
            });
        }
        sysinfo::count_allocations(true);
        let w = rig.window(|r| {
            let samples = r.run_shape(Until::seconds(opts.seconds * OBSERVED_SHARE));
            threads = sysinfo::thread_count();
            samples
        });
        sysinfo::count_allocations(false);
        stop.store(true, Ordering::Relaxed);
        w
    });

    let srv1 = rig.server.metrics().snapshot();
    let cli1 = rig.client.metrics().snapshot();
    let calls = w.samples.attempted.max(1) as f64;
    let (allocs1, bytes1) = sysinfo::alloc_counters();
    let handled =
        (srv1.counter("orb.requests_handled") - srv0.counter("orb.requests_handled")) as f64;
    put(out, "orb.core.recv_route_us", mean_us(&srv1, &srv0, "orb.recv_route_us"));
    put(out, "orb.core.queue_wait_us", mean_us(&srv1, &srv0, "orb.queue_wait_us"));
    put(out, "orb.core.queue_wait_p99_us", p99_us(&srv1, &srv0, "orb.queue_wait_us"));
    put(out, "orb.core.dispatch_us", mean_us(&srv1, &srv0, "orb.dispatch_us"));
    put(out, "orb.core.reply_match_us", mean_us(&cli1, &cli0, "orb.reply_match_us"));
    let (srv, cli) = (rig.server.stats(), rig.client.stats());
    put(out, "orb.core.replies_orphaned", (srv.replies_orphaned + cli.replies_orphaned) as f64);
    put(out, "orb.core.packets_dropped", (srv.packets_dropped + cli.packets_dropped) as f64);
    put(out, "orb.core.handled_per_call", handled / calls);
    put(out, "orb.wire.outbox_depth_max", depth_max.load(Ordering::Relaxed) as f64);
    put(
        out,
        "orb.wire.frame_errors",
        rig.socks.as_ref().map_or(0, |(s, c)| s.frame_errors() + c.frame_errors()) as f64,
    );
    let (net_bytes, net_msgs) = match (&rig.net, &net0) {
        (Some(net), Some(before)) => {
            let after = net.stats();
            (
                (after.total_bytes() - before.total_bytes()) as f64 / calls,
                (after.total_msgs() - before.total_msgs()) as f64 / calls,
            )
        }
        _ => (0.0, 0.0),
    };
    put(out, "orb.wire.netsim_bytes_per_call", net_bytes);
    put(out, "orb.wire.netsim_msgs_per_call", net_msgs);
    put(out, "orb.metrics.series_count", (srv1.counters.len() + srv1.histograms.len()) as f64);
    put(out, "proc.threads", threads);
    put(out, "proc.ctx_switches_per_call", (sysinfo::context_switches() - ctx0) / calls);
    put(out, "proc.allocs_per_call", (allocs1 - allocs0) / calls);
    put(out, "proc.alloc_bytes_per_call", (bytes1 - bytes0) / calls);
    let mut lag = w.samples.lag_ns.clone();
    lag.sort_unstable();
    put(out, "gen.lag_p99_us", percentile_us(&lag, 0.99));

    // The predicted separation, asserted where it can be counted: an
    // untagged workload never enters a QoS module on either side.
    if spec.flavor == Flavor::Null {
        let qos_packets: u64 = [&srv1, &cli1]
            .iter()
            .map(|s| s.counter("transport.qos_packets_out") + s.counter("transport.qos_packets_in"))
            .sum();
        if qos_packets != 0 {
            problems.push(format!(
                "{}: {qos_packets} packets crossed a QoS module on a null workload",
                spec.name
            ));
        }
    }
    problems.extend(w.problems(&format!("{} (observed)", spec.name)));
    let failed = w.failed();
    if !rig.teardown() {
        problems.push(format!("{} (observed): an ORB did not shut down", spec.name));
    }
    Ok((w.samples.attempted, failed))
}

/// Write the first [`TRACE_FILE_CALLS`] calls as spans: a root `call`
/// span per call and one child per segment.
fn write_trace_file(path: &Path, spec: &Spec, calls: &[taps::CallTaps]) -> Result<(), String> {
    let (_, names) = taps::pattern(spec.flavor);
    let mut spans = Vec::new();
    for (call_no, call) in calls.iter().take(TRACE_FILE_CALLS).enumerate() {
        let root = spans.len();
        let span = |name: &str, parent: Option<usize>, id: usize, start: u64, end: u64| {
            obj([
                ("call", Value::from(call_no)),
                ("id", Value::from(id)),
                ("parent", parent.map_or(Value::Null, Value::from)),
                ("name", Value::from(name)),
                ("start_ns", Value::from(start)),
                ("end_ns", Value::from(end)),
            ])
        };
        spans.push(span("call", None, root, call[0], call[call.len() - 1]));
        for (i, name) in names.iter().enumerate() {
            let id = spans.len();
            spans.push(span(name.trim_end_matches("_us"), Some(root), id, call[i], call[i + 1]));
        }
    }
    let doc = obj([
        ("workload", Value::from(spec.name)),
        ("calls_total", Value::from(calls.len())),
        ("calls_written", Value::from(calls.len().min(TRACE_FILE_CALLS))),
        ("spans", Value::Arr(spans)),
    ]);
    std::fs::create_dir_all(path.parent().unwrap_or(Path::new(".")))
        .and_then(|()| std::fs::write(path, doc.pretty()))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// The traced pass of one workload. `probes` are the micro-probe values
/// (`probes::run_all`), which do not depend on the workload and are
/// taken once per run.
///
/// # Errors
///
/// Set-up failures.
pub fn traced(spec: &'static Spec, opts: &Options, probes: &Values) -> Result<TraceResult, String> {
    let mut problems = Vec::new();
    let mut values = probes.clone();
    let (mut attempted, mut failed) = observed_window(spec, opts, &mut values, &mut problems)?;

    // Control and tapped: the same single synchronous client on two
    // pairs, one bare and one with every tap installed, measured in
    // alternating slices so that a slow spell on the host falls on both.
    // Tapped p50 − control p50 is what tapping costs.
    let slice_s = opts.seconds * SINGLE_SHARE / SLICES as f64;
    let bare = Rig::setup(spec, opts.seed, &opts.out_dir, None)?;
    let log = TapLog::new(1 << 20);
    let rig = Rig::setup(spec, opts.seed, &opts.out_dir, Some(&log))?;
    log.reset();
    let srv0 = rig.server.metrics().snapshot();
    let cli0 = rig.client.metrics().snapshot();
    // Per slice, the median round trip of each side.
    let (mut control_p50s, mut tapped_p50s) = (Vec::new(), Vec::new());
    for _ in 0..SLICES {
        for (label, rig, taps, p50s) in [
            ("control", &bare, None, &mut control_p50s),
            ("traced", &rig, Some(&log), &mut tapped_p50s),
        ] {
            let w = rig.window(|r| r.run_single(slice_s, taps));
            problems.extend(w.problems(&format!("{} ({label})", spec.name)));
            attempted += w.samples.attempted;
            failed += w.failed();
            p50s.push(p50_us(&w.samples.lat_ns));
        }
    }
    let srv1 = rig.server.metrics().snapshot();
    let cli1 = rig.client.metrics().snapshot();
    for (label, pair) in [("control", bare), ("traced", rig)] {
        if !pair.teardown() {
            problems.push(format!("{} ({label}): an ORB did not shut down", spec.name));
        }
    }
    // A slice and its neighbour see the same spell of the host, so the
    // cost of tapping is taken pair by pair; the median pair stands for
    // the pass.
    let (control_p50_us, traced_p50_us) = (median(&control_p50s), median(&tapped_p50s));
    let overhead_us =
        median(&tapped_p50s.iter().zip(&control_p50s).map(|(t, c)| t - c).collect::<Vec<_>>());
    if overhead_us > MAX_TAP_OVERHEAD * control_p50_us {
        problems.push(format!(
            "{}: tapping costs {overhead_us:.2} us, more than {:.0} % of the untapped p50 of {control_p50_us:.2} us",
            spec.name,
            MAX_TAP_OVERHEAD * 100.0,
        ));
    }

    let (calls, malformed) = taps::split_calls(&log.drain(), spec.flavor);
    if malformed > 0 || log.overflowed() > 0 {
        problems.push(format!(
            "{}: {malformed} traced calls with a wrong tap sequence, {} taps beyond the log",
            spec.name,
            log.overflowed()
        ));
        failed += malformed as u64;
    }
    let table = taps::layer_table(&calls, spec.flavor);
    if (table.sum_over_rtt() - 1.0).abs() > 0.01 {
        problems.push(format!(
            "{}: layers sum to {:.4} of the round trip",
            spec.name,
            table.sum_over_rtt()
        ));
    }
    write_trace_file(&opts.out_dir.join(format!("trace-{}.json", spec.name)), spec, &calls)?;

    // What the registry and the raw-wire probe already explain of an
    // untagged round trip; the rest is what in-program spans must find.
    let unattributed_us = if spec.flavor == Flavor::Null {
        let wire_rtt = metrics::value(&values, &format!("orb.wire.{}_rtt_us", spec.wire.name()))
            .unwrap_or(0.0);
        table.rtt_us
            - wire_rtt
            - mean_us(&srv1, &srv0, "orb.recv_route_us")
            - mean_us(&srv1, &srv0, "orb.queue_wait_us")
            - mean_us(&srv1, &srv0, "orb.dispatch_us")
            - mean_us(&cli1, &cli0, "orb.reply_match_us")
    } else {
        0.0
    };
    put(&mut values, "trace.rtt_us", table.rtt_us);
    for (name, _) in taps::SEGMENTS {
        let cost = table.rows.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, us)| *us);
        put(&mut values, &format!("trace.{name}"), cost);
    }
    put(&mut values, "trace.sum_over_rtt", table.sum_over_rtt());
    put(&mut values, "trace.unattributed_us", unattributed_us);
    put(&mut values, "trace.overhead_us", overhead_us);

    // Report in declaration order, and insist the set is complete.
    let ordered: Values = PER_LAYER
        .iter()
        .filter_map(|m| metrics::value(&values, m.name).map(|v| (m.name.to_string(), v)))
        .collect();
    if ordered.len() != PER_LAYER.len() || ordered.len() != values.len() {
        return Err(format!(
            "{}: traced pass produced {} of {} declared per-layer metrics",
            spec.name,
            ordered.len(),
            PER_LAYER.len()
        ));
    }
    Ok(TraceResult {
        spec,
        values: ordered,
        table,
        control_p50_us,
        traced_p50_us,
        overhead_us,
        attempted,
        failed,
        problems,
    })
}

impl TraceResult {
    /// Everything but the micro-probe values, which a result document
    /// holds once for all workloads.
    pub fn to_json(&self, probes: &Values) -> Value {
        let own = self
            .values
            .iter()
            .zip(&PER_LAYER)
            .filter(|((name, _), _)| metrics::value(probes, name).is_none());
        let layers = own.map(|((name, v), m)| {
            (
                name.as_str(),
                obj([
                    ("value", Value::from(*v)),
                    ("unit", Value::from(m.unit)),
                    ("better", Value::from(m.better.name())),
                ]),
            )
        });
        obj([
            ("per_layer", obj(layers)),
            ("control_p50_us", Value::from(self.control_p50_us)),
            ("traced_p50_us", Value::from(self.traced_p50_us)),
            ("tap_overhead_us", Value::from(self.overhead_us)),
            ("traced_calls_used", Value::from(self.table.calls_used)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            (
                "problems",
                Value::Arr(self.problems.iter().map(|p| Value::from(p.as_str())).collect()),
            ),
        ])
    }
}

#[cfg(test)]
impl Round {
    /// A round with the given set-up time and windows.
    pub fn fake(setup_s: f64, windows: Vec<WindowValues>) -> Round {
        Round { setup_s, reference_us: vec![NOMINAL_REFERENCE_US], windows, late: Vec::new() }
    }
}

#[cfg(test)]
impl WindowValues {
    /// A window with given values and `calls` evenly spread latencies.
    pub fn fake(values: Vec<(&'static str, f64)>, calls: u64) -> WindowValues {
        WindowValues {
            values,
            gen_lag_p99_us: 0.0,
            lat_ns: (1..=calls).map(|i| i * 100).collect(),
            attempted: calls,
            failed: 0,
            problems: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn window(rate: f64, lag_us: f64) -> WindowValues {
        let mut w = WindowValues::fake(vec![("calls_per_s", rate)], 2_000);
        w.gen_lag_p99_us = lag_us;
        w
    }

    /// Three probes whose median reads 6.5 MiB, 100 calls in all.
    fn rss() -> Vec<RssProbe> {
        let probe =
            |peak_rss_mib, attempted| RssProbe { peak_rss_mib, attempted, ..RssProbe::default() };
        vec![probe(6.5, 50), probe(9.0, 25), probe(6.0, 25)]
    }

    #[test]
    fn late_windows_are_counted_but_not_used() {
        let open = WORKLOADS.iter().find(|w| w.name == "open_burst_netsim").unwrap();
        let mut round = Round::fake(0.05, vec![window(100.0, 40.0), window(102.0, 180.0)]);
        round.late.push(window(55.0, 900.0));
        assert!(round.late[0].late() && !round.windows[1].late());
        let r = EndToEndResult::summarize(open, vec![round], rss());
        assert_eq!(r.late_windows, 1);
        assert!(r.problems.is_empty(), "{:?}", r.problems);
        // The late window's rate is not among the values, its calls are.
        let rates = r.metrics.iter().find(|m| m.name == "calls_per_s").unwrap();
        assert_eq!(rates.windows.windows, [100.0, 102.0]);
        assert_eq!(r.attempted, 3 * 2_000 + 100);
        assert_eq!(r.gen_lag_p99_us.max, 180.0);
        assert_eq!(r.reported("peak_rss_mib"), 6.5);
        assert_eq!(r.reported("setup_s"), 0.05);
    }

    #[test]
    fn a_run_that_mostly_ran_late_is_invalid() {
        let open = WORKLOADS.iter().find(|w| w.name == "open_burst_netsim").unwrap();
        // Six slots: two windows on schedule are a third, one is not.
        let late = || (0..8).map(|_| window(60.0, 700.0));
        let mut rounds =
            vec![Round::fake(0.05, vec![window(100.0, 40.0)]), Round::fake(0.05, vec![])];
        rounds[0].late.extend(late());
        rounds[1].late.extend(late());
        let r = EndToEndResult::summarize(open, rounds, rss());
        assert_eq!(r.late_windows, 16);
        assert!(r.problems.iter().any(|p| p.contains("invalid run")), "{:?}", r.problems);
        let mut rounds = vec![
            Round::fake(0.05, vec![window(100.0, 40.0), window(101.0, 50.0)]),
            Round::fake(0.05, vec![]),
        ];
        rounds[1].late.extend(late());
        let r = EndToEndResult::summarize(open, rounds, rss());
        assert!(r.problems.is_empty(), "{:?}", r.problems);
    }

    #[test]
    fn times_and_rates_are_reported_at_nominal_box_speed() {
        let sync = WORKLOADS.iter().find(|w| w.name == "null_sync_netsim").unwrap();
        let open = WORKLOADS.iter().find(|w| w.name == "open_burst_netsim").unwrap();
        let values = || {
            let v = vec![("calls_per_s", 1_000.0), ("rtt_p50_us", 40.0), ("rtt_p99_over_p50", 2.0)];
            WindowValues::fake(v, 2_000)
        };
        // The reference took 1.25 x its nominal time: the box ran at 0.8.
        let round = || {
            let mut r = Round::fake(0.5, (0..WINDOWS_PER_ROUND).map(|_| values()).collect());
            r.reference_us = vec![NOMINAL_REFERENCE_US * 1.25; 4];
            r
        };
        let r = EndToEndResult::summarize(sync, vec![round()], rss());
        assert!((r.box_speed - 0.8).abs() < 1e-12);
        assert!((r.reported("rtt_p50_us") - 32.0).abs() < 1e-9);
        assert!((r.reported("setup_s") - 0.4).abs() < 1e-9);
        assert!((r.reported("calls_per_s") - 1_250.0).abs() < 1e-9);
        assert_eq!(r.reported("rtt_p99_over_p50"), 2.0);
        assert_eq!(r.reported("peak_rss_mib"), 6.5);
        // The open loop's rate is set by its schedule, not by the box.
        let r = EndToEndResult::summarize(open, vec![round()], rss());
        assert_eq!(r.reported("calls_per_s"), 1_000.0);
        assert!((r.reported("rtt_p50_us") - 32.0).abs() < 1e-9);
    }

    #[test]
    fn rss_probe_line_round_trips() {
        let probe = RssProbe {
            peak_rss_mib: 7.25,
            attempted: 8_000,
            failed: 1,
            problems: vec!["bulk_qos_uds (rss probe): wrong reply".to_string()],
        };
        let back = RssProbe::from_json(&json::parse(&probe.to_json().compact()).unwrap()).unwrap();
        assert_eq!(back.peak_rss_mib, 7.25);
        assert_eq!((back.attempted, back.failed), (8_000, 1));
        assert_eq!(back.problems, probe.problems);
    }
}
