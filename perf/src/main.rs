//! `perf` — the repository's benchmark.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (what BENCHMARK.json names)
//! perf --seed <n> [--workload <name>] [--seconds <s>] [--repeat <N>] [--out <file>]   the whole set
//! perf compare <a.json> <b.json> [--benchmark <BENCHMARK.json>]   two saved sets, by each metric's bound
//! ```
//!
//! See `README.md` beside this crate for every workload and metric.

#![deny(unsafe_code)]

mod affinity;
mod client;
mod deploy;
mod fixture;
mod gen;
mod layers;
mod report;
mod rng;
mod run;
mod stats;
mod trace;
mod verify;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gen::Workload;
use report::Metric;
use run::Better;

/// Seconds a run measures when `--seconds` is not given (the value
/// `BENCHMARK.json` fixes as `run_seconds`).
const DEFAULT_SECONDS: u64 = 12;

/// Where a run may write: the trace files and `mixed_rw`'s data
/// directory go under the build's target directory.
fn scratch_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("perf")
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    repeat: usize,
    out: Option<PathBuf>,
}

fn usage() -> String {
    "usage: perf --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
     perf --seed <n> [--workload <name>] [--seconds <s>] [--repeat <N>] [--out <file>]\n       \
     perf compare <a.json> <b.json> [--benchmark <BENCHMARK.json>]\n\
     workloads: search_novel search_repeat mixed_rw routed_repeat"
        .to_string()
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: None,
        repeat: 1,
        out: None,
    };
    let mut seeded = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                parsed.seed = number()?;
                seeded = true;
            }
            "--seconds" => parsed.seconds = number()?.max(1),
            "--repeat" => parsed.repeat = number()?.max(1) as usize,
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !seeded {
        return Err("--seed is required".to_string());
    }
    if parsed.trace.is_some() && parsed.workload.is_none() {
        return Err("--trace needs --workload".to_string());
    }
    Ok(parsed)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<38} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// One run of one workload: the end-to-end pass (`--trace 0`) or the
/// traced pass (`--trace 1`). Ends standard output with the result
/// object; fails the process when any output was wrong.
fn single(workload: Workload, seed: u64, seconds: u64, trace: bool) -> std::io::Result<bool> {
    let scratch = scratch_dir();
    std::fs::create_dir_all(&scratch)?;
    println!(
        "perf: {} seed={seed} seconds={seconds} trace={}",
        workload.name(),
        u8::from(trace)
    );
    if workload.one_core() {
        // Before any thread starts, so that all of them inherit it.
        match affinity::pin_to_one_core() {
            Some(core) => println!("the run is confined to core {core}"),
            None => println!("could not confine the run to one core; it goes on unpinned"),
        }
    }
    let (mut metrics, checked) = if trace {
        let layers = layers::traced(workload, seed, seconds as f64, &scratch)?;
        (layers.metrics, layers.checked)
    } else {
        let r = run::end_to_end(workload, seed, seconds as f64, &scratch)?;
        let total = |f: &dyn Fn(&run::Window) -> usize| r.windows.iter().map(f).sum::<usize>();
        println!(
            "{} deployments, each a window of {} slices of {:.3} s: searches={} inserts={} ops={}; novel sentences={}; router answers with another tie order={}",
            r.windows.len(),
            run::SLICES,
            r.windows.first().map_or(0.0, |w| w.slice_s),
            total(&|w| w.searches()),
            total(&|w| w.inserts()),
            total(&|w| w.ops),
            r.novel_sentences,
            r.tie_divergent,
        );
        println!(
            "host steal during the run: {:.2}% of CPU time",
            r.steal_frac * 100.0
        );
        let per_slice = |f: &dyn Fn(&run::Slice, f64) -> f64| {
            let values: Vec<String> = r
                .slices()
                .map(|(s, secs)| format!("{:.4}", f(s, secs)))
                .collect();
            values.join(" ")
        };
        println!(
            "per slice: search p50 ms [{}]",
            per_slice(&|s, _| run::p(&s.search_ms, 50.0))
        );
        println!(
            "per slice: search p99 ms [{}]",
            per_slice(&|s, _| run::p(&s.search_ms, 99.0))
        );
        println!(
            "per slice: ops/s [{}]",
            per_slice(&|s, secs| s.ops as f64 / secs)
        );
        if total(&|w| w.inserts()) > 0 {
            // Not end-to-end metrics (three workloads never write); the
            // traced pass reports them as per-layer `write_*_ms`.
            println!(
                "insert ack latency: p50 {:.4} ms, p95 {:.4} ms",
                r.figure(Better::Lower, |s, _| run::p(&s.insert_ms, 50.0)),
                r.figure(Better::Lower, |s, _| run::p(&s.insert_ms, 95.0)),
            );
        }
        let metrics = vec![
            Metric::new("setup_s", stats::median(&r.setup_s), "s"),
            Metric::new(
                "search_p50_ms",
                r.figure(Better::Lower, |s, _| run::p(&s.search_ms, 50.0)),
                "ms",
            ),
            Metric::new(
                "search_p99_ms",
                r.figure(Better::Lower, |s, _| run::p(&s.search_ms, 99.0)),
                "ms",
            ),
            Metric::new(
                "throughput_rps",
                r.figure(Better::Higher, |s, secs| s.ops as f64 / secs),
                "ops/s",
            ),
            Metric::new("rss_peak_mb", r.rss_peak_mb, "MB"),
        ];
        (metrics, r.checked)
    };
    for m in &mut metrics {
        if !m.value.is_finite() {
            m.value = 0.0;
        }
    }
    print_metrics(&metrics);
    let correct = checked.failed == 0;
    println!(
        "failed_frac {} ({} of {} attempted)",
        checked.failed as f64 / checked.attempted.max(1) as f64,
        checked.failed,
        checked.attempted
    );
    println!(
        "{}",
        report::result_line(correct, checked.attempted.max(1), checked.failed, &metrics)
    );
    Ok(correct)
}

fn run(args: &[String]) -> Result<bool, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
            return Err(usage());
        };
        let benchmark = match args.get(3).map(String::as_str) {
            Some("--benchmark") => args.get(4).ok_or_else(usage)?.as_str(),
            Some(_) => return Err(usage()),
            None => "BENCHMARK.json",
        };
        return report::compare(Path::new(a), Path::new(b), Path::new(benchmark))
            .map_err(|e| e.to_string());
    }
    let parsed = parse(args).map_err(|e| format!("{e}\n{}", usage()))?;
    let done = match (parsed.trace, parsed.workload) {
        (Some(trace), Some(workload)) => single(workload, parsed.seed, parsed.seconds, trace),
        _ => {
            let workloads = parsed.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
            report::suite(
                &workloads,
                parsed.seed,
                parsed.seconds,
                parsed.repeat,
                parsed.out.as_deref(),
            )
        }
    };
    done.map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}
