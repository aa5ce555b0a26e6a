//! What a run prints, what a set of runs is saved as, and how two saved
//! sets are compared.

use std::io;
use std::path::Path;
use std::process::Command;

use serde::{Number, Value};

use crate::fixture;
use crate::gen::{self, Workload};
use crate::run;
use crate::stats;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

fn num(x: f64) -> Value {
    Value::Number(Number::from_f64(x))
}

fn int(n: usize) -> Value {
    Value::Number(Number::from_i128(n as i128))
}

fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The single result object a run ends its standard output with.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics = Value::Object(
        metrics
            .iter()
            .map(|m| {
                let entry = object(vec![("value", num(m.value)), ("unit", text(m.unit))]);
                (m.name.to_string(), entry)
            })
            .collect(),
    );
    object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", int(attempted)),
        ("failed", int(failed)),
        ("metrics", metrics),
    ])
    .to_compact_string()
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// The commit of the checkout the benchmark runs in, when it is one.
fn git_commit() -> String {
    let head = read_trimmed(".git/HEAD");
    let commit = head
        .as_deref()
        .and_then(|head| match head.strip_prefix("ref: ") {
            Some(reference) => read_trimmed(&format!(".git/{reference}")),
            None => Some(head.to_string()),
        });
    commit.unwrap_or_else(|| "unknown".to_string())
}

/// The host and the frozen sizes, echoed with every saved set so a
/// number is never read without the machine and the data it came from.
fn fingerprint() -> (Value, Value) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let host = object(vec![
        (
            "cores",
            int(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("cpu", text(cpu)),
        (
            "kernel",
            text(read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into())),
        ),
        // What `DurableStore::open` and `LabelIndex::build` select.
        ("storage_backend", text("heap")),
        ("resolver", text("hash")),
        ("git_commit", text(git_commit())),
    ]);
    let sizes = object(vec![
        ("world_seed", int(fixture::WORLD_SEED as usize)),
        ("world_nodes", int(fixture::WORLD_NODES)),
        ("corpus_seed", int(fixture::CORPUS_SEED as usize)),
        ("corpus_docs", int(fixture::CORPUS_DOCS)),
        ("held_out_seed", int(fixture::HELD_OUT_SEED as usize)),
        ("held_out_docs", int(fixture::HELD_OUT_DOCS)),
        ("pool_queries", int(gen::POOL)),
        ("pool_seed", int(gen::POOL_SEED as usize)),
        ("gate_queries", int(gen::GATE_QUERIES)),
        ("k", int(gen::K)),
        (
            "clients",
            Value::Object(
                Workload::ALL
                    .iter()
                    .map(|&w| (w.name().to_string(), int(w.clients())))
                    .collect(),
            ),
        ),
        ("deployments_per_run", int(run::DEPLOYMENTS)),
        ("warmup_ops_per_client", int(run::WARMUP_OPS)),
        ("slices_per_window", int(run::SLICES)),
    ]);
    (host, sizes)
}

/// Run this program once more as a child — one workload, one pass — and
/// parse the result object it ends with. A process of its own, so
/// `rss_peak_mb` is that run's and nothing else's.
fn child_run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> io::Result<Value> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let parsed = serde_json::from_str::<Value>(last).map_err(|e| {
        io::Error::other(format!(
            "{} trace={trace}: no result object ({e}); exit {:?}",
            workload.name(),
            output.status.code()
        ))
    })?;
    Ok(parsed)
}

/// Median and quartiles of each metric over the runs of one
/// `(workload, pass)`; with one run the quartiles are the value.
fn summarize(runs: &[Value]) -> Vec<Value> {
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        for trace in [0, 1] {
            let group: Vec<&Value> = runs
                .iter()
                .filter(|r| r["workload"] == workload.name() && r["trace"] == trace)
                .collect();
            let Some(first) = group.first() else {
                continue;
            };
            for (name, entry) in first["metrics"].as_object().unwrap_or(&[]) {
                let values: Vec<f64> = group
                    .iter()
                    .filter_map(|r| r["metrics"][name.as_str()]["value"].as_f64())
                    .collect();
                let (q1, q3) = if values.len() >= 2 {
                    stats::quartiles(&values)
                } else {
                    (values[0], values[0])
                };
                rows.push(object(vec![
                    ("workload", text(workload.name())),
                    ("trace", int(trace)),
                    ("metric", text(name.clone())),
                    ("unit", entry["unit"].clone()),
                    ("median", num(stats::median(&values))),
                    ("q1", num(q1)),
                    ("q3", num(q3)),
                    ("n", int(values.len())),
                ]));
            }
        }
    }
    rows
}

/// Run the whole set — every workload, both passes — `repeat` times,
/// print median and quartiles per metric and workload, and save it.
pub fn suite(
    workloads: &[Workload],
    seed: u64,
    seconds: u64,
    repeat: usize,
    out: Option<&Path>,
) -> io::Result<bool> {
    let mut runs = Vec::new();
    let mut all_correct = true;
    for round in 0..repeat {
        for &workload in workloads {
            for trace in [false, true] {
                eprintln!(
                    "perf: round {round} {} trace={}",
                    workload.name(),
                    u8::from(trace)
                );
                let Value::Object(mut fields) = child_run(workload, seed, seconds, trace)? else {
                    return Err(io::Error::other("result is not an object"));
                };
                all_correct &= fields.iter().any(|(k, v)| k == "correct" && *v == true);
                fields.insert(0, ("round".to_string(), int(round)));
                fields.insert(0, ("trace".to_string(), int(usize::from(trace))));
                fields.insert(0, ("workload".to_string(), text(workload.name())));
                runs.push(Value::Object(fields));
            }
        }
    }
    let summary = summarize(&runs);
    println!(
        "{:<14} {:<36} {:>14} {:>14} {:>14} {:>3}  unit",
        "workload", "metric", "median", "q1", "q3", "n"
    );
    for row in &summary {
        println!(
            "{:<14} {:<36} {:>14.4} {:>14.4} {:>14.4} {:>3}  {}",
            row["workload"].as_str().unwrap_or_default(),
            row["metric"].as_str().unwrap_or_default(),
            row["median"].as_f64().unwrap_or(f64::NAN),
            row["q1"].as_f64().unwrap_or(f64::NAN),
            row["q3"].as_f64().unwrap_or(f64::NAN),
            row["n"].as_i64().unwrap_or(0),
            row["unit"].as_str().unwrap_or_default(),
        );
    }
    let (host, sizes) = fingerprint();
    let rendered = object(vec![
        ("schema", int(1)),
        ("host", host),
        ("sizes", sizes),
        ("seed", int(seed as usize)),
        ("seconds", int(seconds as usize)),
        ("repeat", int(repeat)),
        ("runs", Value::Array(runs)),
        ("summary", Value::Array(summary)),
        // This benchmark measures; it claims nothing.
        ("claim", Value::Null),
    ])
    .to_pretty_string();
    if let Some(path) = out {
        std::fs::write(path, &rendered)?;
        eprintln!("perf: wrote {}", path.display());
    }
    println!("\"claim\": null");
    Ok(all_correct)
}

/// Every end-to-end value of `(workload, metric)` in a saved set.
fn values_of(set: &Value, workload: &str, metric: &str) -> Vec<f64> {
    set["runs"]
        .as_array()
        .unwrap_or(&[])
        .iter()
        .filter(|r| r["workload"] == workload && r["trace"] == 0)
        .filter_map(|r| r["metrics"][metric]["value"].as_f64())
        .collect()
}

/// Quartile spread of a set of runs; a single run has none.
fn spread_of(xs: &[f64]) -> f64 {
    if xs.len() >= 2 {
        stats::spread(xs)
    } else {
        0.0
    }
}

/// The verdict on one `(metric, workload)` pair of two sets.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// `b` against `a`: worse when `b`'s median is worse than `a`'s by more
/// than `bound` (a share of `a`'s median); unresolved when either
/// side's own quartile spread is wider than the bound, so the
/// difference cannot be told from noise.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let change = if lower_is_better {
        mb / ma - 1.0
    } else {
        1.0 - mb / ma
    };
    if spread_of(a) > bound || spread_of(b) > bound {
        Verdict::Unresolved
    } else if change > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// `perf compare a.json b.json`: one row per `(metric, workload)` with
/// the bound `BENCHMARK.json` fixes for the metric. Returns whether
/// every row is `ok`.
pub fn compare(a: &Path, b: &Path, benchmark: &Path) -> io::Result<bool> {
    let load = |path: &Path| -> io::Result<Value> {
        serde_json::from_str(&std::fs::read_to_string(path)?)
            .map_err(|e| io::Error::other(format!("{}: {e}", path.display())))
    };
    let (set_a, set_b, bench) = (load(a)?, load(b)?, load(benchmark)?);
    let mut all_ok = true;
    println!(
        "{:<16} {:<14} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "metric", "workload", "median a", "median b", "change", "spread a", "spread b", "bound"
    );
    for metric in bench["end_to_end"].as_array().unwrap_or(&[]) {
        let name = metric["name"].as_str().unwrap_or_default();
        let bound = metric["bound"].as_f64().unwrap_or(0.0);
        let lower = metric["better"] == "lower";
        for workload in bench["workloads"].as_array().unwrap_or(&[]) {
            let workload = workload["name"].as_str().unwrap_or_default();
            let (va, vb) = (
                values_of(&set_a, workload, name),
                values_of(&set_b, workload, name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(&va, &vb, lower, bound);
            all_ok &= v == Verdict::Ok;
            println!(
                "{:<16} {:<14} {:>12.4} {:>12.4} {:>+8.3} {:>8.3} {:>8.3} {:>6.2}  {}",
                name,
                workload,
                stats::median(&va),
                stats::median(&vb),
                stats::median(&vb) / stats::median(&va) - 1.0,
                spread_of(&va),
                spread_of(&vb),
                bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            verdict(&steady, &[10.5, 10.4, 10.6], true, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&steady, &[11.5, 11.4, 11.6], true, 0.10),
            Verdict::Worse
        );
        // Higher is better: a drop is what counts as worse.
        assert_eq!(
            verdict(&steady, &[11.5, 11.4, 11.6], false, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&steady, &[8.5, 8.4, 8.6], false, 0.10),
            Verdict::Worse
        );
        // A side noisier than the bound resolves nothing, whichever way
        // its median moved.
        assert_eq!(
            verdict(&steady, &[8.0, 12.0, 10.0, 14.0], true, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&[10.0], &[10.2], true, 0.10), Verdict::Ok);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 12, 0, &[Metric::new("setup_s", 1.25, "s")]);
        let v: Value = serde_json::from_str(&line).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["metrics"]["setup_s"]["value"].as_f64(), Some(1.25));
        assert_eq!(v["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
        assert!(!line.contains('\n'));
    }
}
