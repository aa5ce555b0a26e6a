//! The end-to-end pass: set up, check correctness, warm up, then drive
//! the workload from closed-loop clients for the measured window.

use std::collections::HashSet;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use newslink_core::{DocId, DurableStore, NewsLink, NewsLinkConfig};
use serde::Value;

use crate::client::{Client, Conn, Tally};
use crate::deploy::{deploy, Deployment};
use crate::fixture::{Dataset, Texts};
use crate::gen::{search_body, Plan, Workload, K};
use crate::stats;
use crate::verify::{gate, Checked};

/// Deployments per run (see [`end_to_end`]).
pub const DEPLOYMENTS: usize = 3;
/// Operations each client sends, unmeasured, before the window opens.
pub const WARMUP_OPS: usize = 200;
/// Each window is cut into this many equal slices; a latency or rate
/// is computed per slice and condensed by [`EndToEnd::figure`].
pub const SLICES: usize = 3;
/// Results asked for when checking that a document can be found again.
const FIND_K: usize = 50;

/// Which way a metric is better.
#[derive(Clone, Copy)]
pub enum Better {
    Lower,
    Higher,
}

/// One slice of the measured window.
#[derive(Default, Clone)]
pub struct Slice {
    pub search_ms: Vec<f64>,
    pub insert_ms: Vec<f64>,
    /// Operations of any kind completed in the slice.
    pub ops: usize,
}

/// What a measured window produced.
pub struct Window {
    pub slices: Vec<Slice>,
    pub slice_s: f64,
    pub ops: usize,
    pub failed: usize,
}

impl Window {
    pub fn searches(&self) -> usize {
        self.slices.iter().map(|s| s.search_ms.len()).sum()
    }

    pub fn inserts(&self) -> usize {
        self.slices.iter().map(|s| s.insert_ms.len()).sum()
    }
}

/// Send every pool query once, explained, so the query memo of the
/// front door — and, behind a router, of each shard, which analyses a
/// query only to explain it — holds the whole pool before timing.
pub fn warm_pool(front: SocketAddr, plan: &Plan, texts: &Texts) -> Checked {
    let mut conn = Conn::keep_alive(front);
    let mut checked = Checked::default();
    for &sentence in &plan.pool {
        let body = search_body(&texts.sentences[sentence], K, true);
        checked.note(matches!(
            conn.call("POST", "/v1/search", &body),
            Ok((200, _))
        ));
    }
    checked
}

pub fn new_clients<'a>(
    workload: Workload,
    front: SocketAddr,
    plan: &'a Plan,
    texts: &'a Texts,
    n: usize,
) -> Vec<Client<'a>> {
    (0..n)
        .map(|c| {
            let conn = if workload.connection_per_request() {
                Conn::PerRequest(front)
            } else {
                Conn::keep_alive(front)
            };
            Client::new(conn, plan.stream(workload, c, n), texts, c)
        })
        .collect()
}

/// Drive every client for `seconds`, each on its own thread, all
/// released together. `warmup` operations per client come first and
/// are thrown away.
pub fn drive(clients: &mut [Client<'_>], warmup: usize, seconds: f64) -> Window {
    let barrier = Barrier::new(clients.len());
    let budget = Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let barrier = &barrier;
            scope.spawn(move || {
                for _ in 0..warmup {
                    client.step(None);
                }
                let warmup_failures = std::mem::take(&mut client.tally).failed;
                barrier.wait();
                let deadline = Instant::now() + budget;
                while Instant::now() < deadline {
                    client.step(None);
                }
                client.tally.failed += warmup_failures;
            });
        }
    });
    let tallies: Vec<Tally> = clients
        .iter_mut()
        .map(|c| std::mem::take(&mut c.tally))
        .collect();
    let start = tallies.iter().filter_map(|t| t.first_send).min();
    let end = tallies.iter().filter_map(|t| t.last_reply).max();
    let mut window = Window {
        slices: vec![Slice::default(); SLICES],
        slice_s: 0.0,
        ops: tallies.iter().map(|t| t.ops).sum(),
        failed: tallies.iter().map(|t| t.failed).sum(),
    };
    let (Some(start), Some(end)) = (start, end) else {
        return window;
    };
    window.slice_s = (end - start).as_secs_f64() / SLICES as f64;
    let slice_of =
        |done: Instant| (((done - start).as_secs_f64() / window.slice_s) as usize).min(SLICES - 1);
    for t in &tallies {
        for &(done, ms) in &t.search_ms {
            let slice = &mut window.slices[slice_of(done)];
            slice.search_ms.push(ms);
            slice.ops += 1;
        }
        for &(done, ms) in &t.insert_ms {
            let slice = &mut window.slices[slice_of(done)];
            slice.insert_ms.push(ms);
            slice.ops += 1;
        }
        for &done in &t.delete_done {
            window.slices[slice_of(done)].ops += 1;
        }
    }
    window
}

/// After `mixed_rw`: every acknowledged insert that was not deleted is
/// live and found again by searching for its own text; every
/// acknowledged delete is gone from the index and from the results.
fn check_writes(
    d: &Deployment<'_>,
    texts: &Texts,
    inserted: &[(u32, usize)],
    deleted: &[u32],
) -> Checked {
    let gone: HashSet<u32> = deleted.iter().copied().collect();
    let mut conn = Conn::keep_alive(d.front);
    let mut checked = Checked::default();
    let index = d.holders[0].1;
    for &(id, doc) in inserted {
        let should_exist = !gone.contains(&id);
        let body = search_body(&texts.held_out[doc], FIND_K, false);
        let found = match conn.call("POST", "/v1/search", &body) {
            Ok((200, reply)) => serde_json::from_str::<Value>(&reply).ok().map(|v| {
                v["results"]
                    .as_array()
                    .is_some_and(|rs| rs.iter().any(|r| r["doc"].as_i64() == Some(i64::from(id))))
            }),
            _ => None,
        };
        let live = index.read().is_live(DocId(id));
        checked.note(found == Some(should_exist) && live == should_exist);
    }
    checked
}

/// `VmHWM` of this process, in MB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Jiffies the hypervisor gave to someone else while this guest wanted
/// to run, and all jiffies, summed over the cores (`/proc/stat`).
fn steal_and_total_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user).
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// The end-to-end result of one run: one entry per deployment in
/// `setup_s` and `windows`.
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub windows: Vec<Window>,
    /// Read when the first deployment's window closes.
    pub rss_peak_mb: f64,
    pub checked: Checked,
    /// Router answers that chose other members of a tie group than one
    /// index does (see `verify::Rule::UpToTies`).
    pub tie_divergent: usize,
    /// Distinct sentences `search_novel` can walk before it wraps.
    pub novel_sentences: usize,
    /// Share of the host's CPU time the hypervisor withheld during the
    /// run. Not a metric: above a few percent the run timed the
    /// neighbours, and its numbers should be read accordingly.
    pub steal_frac: f64,
}

impl EndToEnd {
    /// Every slice of every deployment's window.
    pub fn slices(&self) -> impl Iterator<Item = (&Slice, f64)> {
        self.windows
            .iter()
            .flat_map(|w| w.slices.iter().map(move |s| (s, w.slice_s)))
    }

    /// The run's figure for `f(slice, slice_seconds)`. The windows replay
    /// the same operations from the same cold state, so slice `j` of
    /// each window measures the same thing [`DEPLOYMENTS`] times over.
    /// What else the host is doing only ever makes a slice worse, never
    /// better, so the best of the replays is the least disturbed one;
    /// the mean over the slice positions keeps the whole window — cold
    /// start and grown index alike — in the figure.
    pub fn figure(&self, better: Better, f: impl Fn(&Slice, f64) -> f64) -> f64 {
        let best_replay = |j: usize| {
            let replays = self.windows.iter().map(|w| f(&w.slices[j], w.slice_s));
            match better {
                Better::Lower => replays.fold(f64::INFINITY, f64::min),
                Better::Higher => replays.fold(f64::NEG_INFINITY, f64::max),
            }
        };
        (0..SLICES).map(best_replay).sum::<f64>() / SLICES as f64
    }
}

/// The run deploys [`DEPLOYMENTS`] times, one after the other, and does
/// everything in each: set-up (timed), warm-up, a window of
/// `seconds / DEPLOYMENTS`, the write checks; the first is also gated. `setup_s` is the
/// median set-up; latencies and the rate are [`EndToEnd::figure`]s, so
/// neither a burst of interference nor one deployment that came up in a
/// slow state decides the result.
pub fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scratch: &Path,
) -> io::Result<EndToEnd> {
    let reference = Dataset::build();
    let texts = Texts::build(&reference.world);
    let plan = Plan::new(seed, texts.sentences.len(), texts.held_out.len());
    // Its own engine, so checking never warms a server's caches.
    let oracle = NewsLink::new(
        &reference.world.graph,
        &reference.labels,
        NewsLinkConfig::default(),
    );
    let whole = (workload == Workload::RoutedRepeat).then(|| oracle.index_corpus(&texts.corpus));
    let n = workload.clients();
    let jiffies_before = steal_and_total_jiffies();

    let mut result = EndToEnd {
        setup_s: Vec::new(),
        windows: Vec::new(),
        rss_peak_mb: 0.0,
        checked: Checked::default(),
        tie_divergent: 0,
        novel_sentences: plan.novel.len(),
        steal_frac: 0.0,
    };
    for deployment in 0..DEPLOYMENTS {
        let (docs_at_end, data_dir) = deploy(workload, &texts.corpus, scratch, None, |d| {
            result.setup_s.push(d.setup_s);
            // Deployments are built alike from the same inputs; one gate
            // before any timing vouches for all of them.
            if deployment == 0 {
                let gated = gate(d, &oracle, whole.as_ref(), &plan, &texts);
                result.checked.add(gated.checked);
                result.tie_divergent = gated.tie_divergent;
            }
            if workload != Workload::SearchNovel {
                result.checked.add(warm_pool(d.front, &plan, &texts));
            }
            let mut clients = new_clients(workload, d.front, &plan, &texts, n);
            let window = drive(&mut clients, WARMUP_OPS, seconds / DEPLOYMENTS as f64);
            // Once, after the first window: later deployments reuse what
            // the allocator kept, so a later peak measures its mood.
            if deployment == 0 {
                result.rss_peak_mb = rss_peak_mb();
            }
            result.checked.attempted += window.ops + n * WARMUP_OPS;
            result.checked.failed += window.failed;
            result.windows.push(window);
            // Dropping the clients closes their connections: each pins a
            // server worker for as long as it is open.
            let (inserted, deleted): (Vec<_>, Vec<_>) =
                clients.into_iter().map(|c| (c.inserted, c.deleted)).unzip();
            if workload.has_writes() {
                result.checked.add(check_writes(
                    d,
                    &texts,
                    &inserted.concat(),
                    &deleted.concat(),
                ));
            }
            (
                d.holders[0].1.read().doc_count(),
                d.data_dir.map(Path::to_path_buf),
            )
        })?;
        // The server is down; what it acknowledged must be on disk.
        if let Some(dir) = &data_dir {
            let reopened = DurableStore::open(&oracle, dir, || unreachable!("the snapshot exists"));
            result
                .checked
                .note(matches!(reopened, Ok((_, index)) if index.doc_count() == docs_at_end));
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    if let (Some((steal0, total0)), Some((steal1, total1))) =
        (jiffies_before, steal_and_total_jiffies())
    {
        result.steal_frac = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
    }
    Ok(result)
}

/// Percentile `wanted` of a latency sample, or the highest one the
/// sample supports (see [`stats::reported`]).
pub fn p(sample: &[f64], wanted: f64) -> f64 {
    stats::reported(sample, wanted).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(ops: [usize; SLICES]) -> Window {
        Window {
            slices: ops
                .iter()
                .map(|&ops| Slice {
                    search_ms: vec![ops as f64],
                    insert_ms: Vec::new(),
                    ops,
                })
                .collect(),
            slice_s: 1.0,
            ops: ops.iter().sum(),
            failed: 0,
        }
    }

    #[test]
    fn figure_keeps_the_best_replay_of_each_slice_position() {
        let run = EndToEnd {
            setup_s: Vec::new(),
            // Position by position: 10/40/10, 20/20/50, 90/30/60.
            windows: vec![
                window([10, 20, 90]),
                window([40, 20, 30]),
                window([10, 50, 60]),
            ],
            rss_peak_mb: 0.0,
            checked: Checked::default(),
            tie_divergent: 0,
            novel_sentences: 0,
            steal_frac: 0.0,
        };
        let lower = run.figure(Better::Lower, |s, _| s.search_ms[0]);
        assert_eq!(lower, (10.0 + 20.0 + 30.0) / 3.0);
        let higher = run.figure(Better::Higher, |s, secs| s.ops as f64 / secs);
        assert_eq!(higher, (40.0 + 50.0 + 90.0) / 3.0);
    }
}
