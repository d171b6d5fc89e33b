//! `maqs_benchmark`: the repo's end-to-end and per-layer benchmark.
//!
//! ```text
//! maqs_benchmark [--workload W --trace 0|1] [--only W] [--trace-only]
//!                [--seed N] [--seconds S] [--rounds R] [--out DIR]
//! maqs_benchmark compare A.json B.json
//! ```
//!
//! Without a workload it runs every workload through both passes, prints
//! the tables and writes `<out>/bench-seed<N>.json`; `--only W` restricts
//! that to one workload and `--trace-only` to the traced pass.
//! `--workload W --trace 0|1` is the pipeline's form of the same run: one
//! workload, one pass (0: end to end, 1: traced), and the last line of
//! output is the one-line JSON result. See README.md.

mod gen;
mod json;
mod metrics;
mod place;
mod probes;
mod report;
mod run;
mod stats;
mod sysinfo;
mod taps;
mod workloads;

use run::Options;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Spec, WORKLOADS};

struct Cli {
    selected: Vec<&'static Spec>,
    end_to_end: bool,
    traced: bool,
    /// End the output with the pipeline's result line instead of writing
    /// the result document.
    contract: bool,
    opts: Options,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut opts = Options { seed: 1, seconds: 15.0, rounds: 5, out_dir: PathBuf::from("out") };
    let (mut workload, mut only, mut trace, mut trace_only) = (None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let spec = |name: &String| {
            workloads::find(name).ok_or_else(|| {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload `{name}`; known: {}", known.join(", "))
            })
        };
        match flag.as_str() {
            "--workload" => workload = Some(spec(value()?)?),
            "--only" => only = Some(spec(value()?)?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--rounds" => opts.rounds = value()?.parse().map_err(|e| format!("--rounds: {e}"))?,
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--trace-only" => trace_only = true,
            "--out" => opts.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(opts.seconds.is_finite() && opts.seconds >= 0.5 && opts.seconds <= 3_600.0) {
        return Err("--seconds must be between 0.5 and 3600".to_string());
    }
    if opts.rounds == 0 || opts.rounds > 100 {
        return Err("--rounds must be between 1 and 100".to_string());
    }
    match (workload, only.is_some() || trace_only, trace) {
        (Some(spec), false, trace) => {
            let traced = trace.unwrap_or(false);
            Ok(Cli { selected: vec![spec], end_to_end: !traced, traced, contract: true, opts })
        }
        (Some(_), true, _) => Err("--workload goes with --trace, not --only/--trace-only".into()),
        (None, _, Some(_)) => Err("--trace needs --workload".to_string()),
        (None, _, None) => Ok(Cli {
            selected: only.map_or_else(|| WORKLOADS.iter().collect(), |spec| vec![spec]),
            end_to_end: !trace_only,
            traced: true,
            contract: false,
            opts,
        }),
    }
}

/// The selected workloads through the selected passes.
fn run(cli: &Cli) -> Result<bool, String> {
    let e2e = if cli.end_to_end { run::end_to_end(&cli.selected, &cli.opts)? } else { Vec::new() };
    for r in &e2e {
        report::print_end_to_end(r, &cli.opts);
    }
    // The micro-probes do not depend on the workload: once per run.
    let (mut probes, mut traces) = (metrics::Values::new(), Vec::new());
    if cli.traced {
        probes = probes::run_all(cli.opts.seed, &cli.opts.out_dir)?;
        for spec in &cli.selected {
            let r = run::traced(spec, &cli.opts, &probes)?;
            report::print_traced(&r);
            traces.push(r);
        }
    }
    if cli.contract {
        // One workload, one pass: whichever result there is.
        for line in e2e.iter().map(report::end_to_end_contract) {
            println!("{line}");
        }
        for line in traces.iter().map(report::traced_contract) {
            println!("{line}");
        }
    } else {
        println!("\n== derived ==");
        for (name, v) in report::derived(&e2e, &traces) {
            println!("  {name:<44} {v:>12.4}");
        }
        let window_s = cli.opts.seconds / (cli.opts.rounds * run::WINDOWS_PER_ROUND) as f64;
        let env = sysinfo::env_block(cli.opts.seed, cli.opts.rounds, window_s);
        let doc = report::document(env, &e2e, &traces, &probes);
        let path = cli.opts.out_dir.join(format!("bench-seed{}.json", cli.opts.seed));
        std::fs::create_dir_all(&cli.opts.out_dir)
            .and_then(|()| std::fs::write(&path, doc.pretty()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("\nwrote {}", path.display());
    }
    Ok(e2e.iter().all(|r| r.problems.is_empty()) && traces.iter().all(|r| r.problems.is_empty()))
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("read {path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (table, failed) = report::compare(&load(a)?, &load(b)?)?;
    println!("compare A = {a}\n        B = {b}\n{table}");
    Ok(!failed)
}

fn main() -> ExitCode {
    place::init();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare_files(a, b),
            _ => Err("usage: maqs_benchmark compare A.json B.json".to_string()),
        },
        // The peak-RSS probe `run::end_to_end` starts in a process of
        // its own.
        Some("rss-probe") => {
            parse_cli(&args[1..]).and_then(|cli| run::rss_probe(cli.selected[0], &cli.opts))
        }
        _ => parse_cli(&args).and_then(|cli| run(&cli)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("maqs_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
