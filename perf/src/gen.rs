//! The request generator: four seeded operation streams.
//!
//! Every client thread owns its own stream, so how the threads
//! interleave cannot change what any of them sends. A stream is endless
//! and cheap to advance; the run decides when to stop reading it.

use serde::Value;

use crate::rng::{Rng, Zipf};

/// Hot-pool size of the zipf workloads: fits the program's query memo
/// (1,024 entries), so after warm-up NLP and NE are skipped.
pub const POOL: usize = 500;
/// Which sentences form the pool, and their starting popularity order.
pub const POOL_SEED: u64 = 17;
pub const ZIPF_S: f64 = 1.0;
/// Ranks re-drawn at every rotation, and how often (in operations of
/// the whole run, split evenly between clients).
pub const ROTATE_SHARE: f64 = 0.10;
pub const ROTATE_EVERY: usize = 2_000;
/// Every fourth search asks for the default explanation.
pub const EXPLAIN_EVERY: usize = 4;
/// Results per search.
pub const K: usize = 10;
/// Sentences the correctness gate sends before any timing.
pub const GATE_QUERIES: usize = 200;
/// `mixed_rw`: 80% searches, 15% inserts, 5% deletes.
pub const WRITE_SHARE: f64 = 0.15;
pub const DELETE_SHARE: f64 = 0.05;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SearchNovel,
    SearchRepeat,
    MixedRw,
    RoutedRepeat,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SearchNovel,
        Workload::SearchRepeat,
        Workload::MixedRw,
        Workload::RoutedRepeat,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchNovel => "search_novel",
            Workload::SearchRepeat => "search_repeat",
            Workload::MixedRw => "mixed_rw",
            Workload::RoutedRepeat => "routed_repeat",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One TCP connection per request (the server's default
    /// `Connection: close`) instead of a kept-alive one.
    pub fn connection_per_request(self) -> bool {
        self == Workload::SearchRepeat
    }

    pub fn has_writes(self) -> bool {
        self == Workload::MixedRw
    }

    /// Load-generator threads: as many as cores, at most two, so
    /// generator and server are never more threads than the host can
    /// run. One routed search already keeps every server busy in turn
    /// (the router scatters each phase to both shards), so
    /// `routed_repeat` is driven by one client: a second one adds no
    /// throughput, only a queue whose length the scheduler decides.
    pub fn clients(self) -> usize {
        if self == Workload::RoutedRepeat {
            return 1;
        }
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2)
    }

    /// Whether the whole run is confined to one core (see
    /// `affinity`): the workload whose threads only ever hand work to
    /// each other, so that a second core adds wake-ups, not work.
    pub fn one_core(self) -> bool {
        self == Workload::RoutedRepeat
    }

    fn stream_id(self) -> u64 {
        self as u64 + 1
    }
}

/// One operation, by reference into the [`Plan`]'s lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `POST /v1/search` with sentence `sentence`.
    Search { sentence: usize, explain: bool },
    /// `POST /v1/docs` with held-out document `doc`.
    Insert { doc: usize },
    /// `DELETE /v1/docs/<id>`, the id being the one the server returned
    /// for this client's `nth` insert (counted from 0).
    Delete { nth: usize },
}

/// The sentences by use. The hot pool and its starting popularity order
/// belong to the fixture ([`POOL_SEED`]): a zipf stream spends 15% of
/// its draws on one sentence, so a pool drawn from `--seed` would make a
/// run as fast as the seed's favourite query (a 40% swing on
/// `routed_repeat`). The seed decides everything else: which sentences
/// the gate checks, the order of the novel ones and of the inserts, and
/// — in [`Plan::stream`] — every draw, rotation and operation mix.
#[derive(Clone, Debug)]
pub struct Plan {
    seed: u64,
    /// Sentences the correctness gate searches for; never sent again.
    pub gate: Vec<usize>,
    /// The zipf workloads' hot pool, most popular first when a stream
    /// starts; `search_novel` never sends these.
    pub pool: Vec<usize>,
    /// Every other sentence, shuffled: `search_novel` walks it.
    pub novel: Vec<usize>,
    /// Held-out documents in the order `mixed_rw` inserts them.
    pub inserts: Vec<usize>,
}

impl Plan {
    pub fn new(seed: u64, sentences: usize, held_out: usize) -> Self {
        assert!(
            sentences > GATE_QUERIES + POOL,
            "{sentences} sentences cannot fill the gate and the pool"
        );
        let root = Rng::new(seed);
        let mut pool: Vec<usize> = (0..sentences).collect();
        Rng::new(POOL_SEED).shuffle(&mut pool);
        let mut novel = pool.split_off(POOL);
        root.fork(0x5e17).shuffle(&mut novel);
        let gate = novel.split_off(novel.len() - GATE_QUERIES);
        let mut inserts: Vec<usize> = (0..held_out).collect();
        root.fork(0xd0c5).shuffle(&mut inserts);
        Self {
            seed,
            gate,
            pool,
            novel,
            inserts,
        }
    }

    pub fn stream(&self, workload: Workload, client: usize, clients: usize) -> ClientStream<'_> {
        assert!(client < clients);
        let root = Rng::new(self.seed).fork(workload.stream_id());
        ClientStream {
            plan: self,
            workload,
            client,
            clients,
            rng: root.fork(0xc11e + client as u64),
            // Every client replays the same rotations, so popularity
            // drifts the same way for all of them.
            rotation_rng: root.fork(0x2074),
            zipf: Zipf::new(POOL, ZIPF_S),
            ranks: (0..POOL).collect(),
            ops: 0,
            searches: 0,
            inserts: 0,
            live: Vec::new(),
        }
    }
}

/// One client's endless operation stream.
pub struct ClientStream<'p> {
    plan: &'p Plan,
    workload: Workload,
    client: usize,
    clients: usize,
    rng: Rng,
    rotation_rng: Rng,
    zipf: Zipf,
    /// `ranks[r]` = position in the pool of the query at popularity rank `r`.
    ranks: Vec<usize>,
    ops: usize,
    searches: usize,
    inserts: usize,
    /// Ordinals of this client's inserts not yet deleted by it.
    live: Vec<usize>,
}

impl ClientStream<'_> {
    /// The current rank → pool position map.
    #[cfg(test)]
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// Re-draw a tenth of the ranks: pick that many rank positions and
    /// shift their queries one place round the cycle, so exactly those
    /// ranks now name another query and no query leaves the pool.
    fn rotate(&mut self) {
        let moved = (POOL as f64 * ROTATE_SHARE).round() as usize;
        let mut positions: Vec<usize> = (0..POOL).collect();
        self.rotation_rng.shuffle(&mut positions);
        positions.truncate(moved);
        let last = self.ranks[positions[moved - 1]];
        for i in (1..moved).rev() {
            self.ranks[positions[i]] = self.ranks[positions[i - 1]];
        }
        self.ranks[positions[0]] = last;
    }

    fn next_search(&mut self) -> Op {
        let sentence = match self.workload {
            Workload::SearchNovel => {
                let novel = &self.plan.novel;
                novel[(self.client + self.searches * self.clients) % novel.len()]
            }
            _ => self.plan.pool[self.ranks[self.zipf.sample(&mut self.rng)]],
        };
        self.searches += 1;
        Op::Search {
            sentence,
            explain: self.searches.is_multiple_of(EXPLAIN_EVERY),
        }
    }
}

impl Iterator for ClientStream<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let per_client = (ROTATE_EVERY / self.clients).max(1);
        if self.workload != Workload::SearchNovel
            && self.ops > 0
            && self.ops.is_multiple_of(per_client)
        {
            self.rotate();
        }
        self.ops += 1;
        if !self.workload.has_writes() {
            return Some(self.next_search());
        }
        let u = self.rng.unit();
        if u < DELETE_SHARE && !self.live.is_empty() {
            let nth = self.live.swap_remove(self.rng.below(self.live.len()));
            Some(Op::Delete { nth })
        } else if u < DELETE_SHARE + WRITE_SHARE {
            // A delete drawn while nothing of ours is live becomes an
            // insert, which keeps the write share and refills the set.
            let inserts = &self.plan.inserts;
            let doc = inserts[(self.client + self.inserts * self.clients) % inserts.len()];
            self.live.push(self.inserts);
            self.inserts += 1;
            Some(Op::Insert { doc })
        } else {
            Some(self.next_search())
        }
    }
}

/// The JSON body of a search for the `k` best matches of `query`.
pub fn search_body(query: &str, k: usize, explain: bool) -> String {
    let mut pairs = vec![
        ("query".to_string(), Value::String(query.to_string())),
        (
            "k".to_string(),
            Value::Number(serde::Number::from_i128(k as i128)),
        ),
    ];
    if explain {
        pairs.push(("explain".to_string(), Value::Bool(true)));
    }
    Value::Object(pairs).to_compact_string()
}

/// The JSON body of an insert of `text`.
pub fn insert_body(text: &str) -> String {
    Value::Object(vec![("text".to_string(), Value::String(text.to_string()))]).to_compact_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const SENTENCES: usize = 5_000;
    const HELD_OUT: usize = 1_000;

    fn take(plan: &Plan, w: Workload, client: usize, n: usize) -> Vec<Op> {
        plan.stream(w, client, 2).take(n).collect()
    }

    /// The bytes a stream puts on the wire, with a stand-in text per index.
    fn wire(ops: &[Op]) -> String {
        ops.iter()
            .map(|op| match *op {
                Op::Search { sentence, explain } => {
                    format!(
                        "POST /v1/search {}\n",
                        search_body(&format!("s{sentence}"), K, explain)
                    )
                }
                Op::Insert { doc } => {
                    format!("POST /v1/docs {}\n", insert_body(&format!("d{doc}")))
                }
                Op::Delete { nth } => format!("DELETE /v1/docs/<ack {nth}>\n"),
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_sequences_and_seeds_differ() {
        for w in Workload::ALL {
            for client in 0..2 {
                let a = wire(&take(&Plan::new(9, SENTENCES, HELD_OUT), w, client, 3_000));
                let b = wire(&take(&Plan::new(9, SENTENCES, HELD_OUT), w, client, 3_000));
                assert_eq!(a, b, "{} client {client}", w.name());
                let c = wire(&take(&Plan::new(10, SENTENCES, HELD_OUT), w, client, 3_000));
                assert_ne!(a, c, "{} must depend on the seed", w.name());
            }
            let plan = Plan::new(9, SENTENCES, HELD_OUT);
            assert_ne!(
                wire(&take(&plan, w, 0, 500)),
                wire(&take(&plan, w, 1, 500)),
                "{}: clients own different sub-sequences",
                w.name()
            );
        }
    }

    #[test]
    fn plan_partitions_the_sentences() {
        let plan = Plan::new(4, SENTENCES, HELD_OUT);
        assert_eq!(plan.gate.len(), GATE_QUERIES);
        assert_eq!(plan.pool.len(), POOL);
        let all: HashSet<usize> = plan
            .gate
            .iter()
            .chain(&plan.pool)
            .chain(&plan.novel)
            .copied()
            .collect();
        assert_eq!(
            all.len(),
            SENTENCES,
            "gate, pool and novel are disjoint and cover all"
        );
    }

    #[test]
    fn the_pool_is_the_same_for_every_seed_and_the_rest_is_not() {
        let (a, b) = (
            Plan::new(1, SENTENCES, HELD_OUT),
            Plan::new(2, SENTENCES, HELD_OUT),
        );
        assert_eq!(a.pool, b.pool);
        assert_ne!(a.gate, b.gate);
        assert_ne!(a.novel, b.novel);
        assert_ne!(a.inserts, b.inserts);
    }

    #[test]
    fn search_novel_never_repeats_a_query_across_clients() {
        let plan = Plan::new(5, SENTENCES, HELD_OUT);
        let per_client = plan.novel.len() / 2;
        let mut seen = HashSet::new();
        for client in 0..2 {
            for op in take(&plan, Workload::SearchNovel, client, per_client) {
                let Op::Search { sentence, .. } = op else {
                    panic!("search_novel only searches");
                };
                assert!(seen.insert(sentence), "sentence {sentence} sent twice");
                assert!(!plan.pool.contains(&sentence) && !plan.gate.contains(&sentence));
            }
        }
    }

    #[test]
    fn every_fourth_search_explains() {
        let plan = Plan::new(6, SENTENCES, HELD_OUT);
        for w in Workload::ALL {
            let explains: Vec<bool> = take(&plan, w, 0, 2_000)
                .into_iter()
                .filter_map(|op| match op {
                    Op::Search { explain, .. } => Some(explain),
                    _ => None,
                })
                .collect();
            for (i, e) in explains.iter().enumerate() {
                assert_eq!(*e, (i + 1) % EXPLAIN_EVERY == 0, "{} search {i}", w.name());
            }
        }
    }

    #[test]
    fn rotation_changes_exactly_a_tenth_of_the_ranks_and_keeps_the_pool() {
        let plan = Plan::new(7, SENTENCES, HELD_OUT);
        let mut stream = plan.stream(Workload::SearchRepeat, 0, 2);
        let per_client = ROTATE_EVERY / 2;
        for epoch in 0..5 {
            let before = stream.ranks().to_vec();
            // The rotation fires on the first operation past the boundary.
            for _ in 0..per_client {
                stream.next();
            }
            if epoch == 0 {
                assert_eq!(before, stream.ranks(), "no rotation inside the first epoch");
                stream.next();
            }
            let after = stream.ranks().to_vec();
            if epoch > 0 {
                let changed = before.iter().zip(&after).filter(|(a, b)| a != b).count();
                assert_eq!(changed, POOL / 10, "epoch {epoch}");
            }
            let mut sorted = after.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..POOL).collect::<Vec<_>>(), "still a permutation");
        }
        // Both clients rotate identically.
        let mut a = plan.stream(Workload::SearchRepeat, 0, 2);
        let mut b = plan.stream(Workload::SearchRepeat, 1, 2);
        for _ in 0..3 * per_client + 1 {
            a.next();
            b.next();
        }
        assert_eq!(a.ranks(), b.ranks());
    }

    #[test]
    fn zipf_streams_only_send_pool_queries() {
        let plan = Plan::new(8, SENTENCES, HELD_OUT);
        let pool: HashSet<usize> = plan.pool.iter().copied().collect();
        for w in [
            Workload::SearchRepeat,
            Workload::RoutedRepeat,
            Workload::MixedRw,
        ] {
            for op in take(&plan, w, 1, 4_000) {
                if let Op::Search { sentence, .. } = op {
                    assert!(pool.contains(&sentence));
                }
            }
        }
    }

    #[test]
    fn mixed_rw_keeps_its_shares_and_deletes_only_its_own_earlier_inserts() {
        let plan = Plan::new(12, SENTENCES, HELD_OUT);
        for client in 0..2 {
            let ops = take(&plan, Workload::MixedRw, client, 20_000);
            let mut inserted = 0usize;
            let mut deleted = HashSet::new();
            let (mut searches, mut deletes) = (0usize, 0usize);
            for op in &ops {
                match *op {
                    Op::Search { .. } => searches += 1,
                    Op::Insert { doc } => {
                        let expect = plan.inserts[(client + inserted * 2) % plan.inserts.len()];
                        assert_eq!(doc, expect, "inserts walk the client's stripe in order");
                        inserted += 1;
                    }
                    Op::Delete { nth } => {
                        assert!(nth < inserted, "delete of insert {nth} before it was sent");
                        assert!(deleted.insert(nth), "insert {nth} deleted twice");
                        deletes += 1;
                    }
                }
            }
            let n = ops.len() as f64;
            assert!((searches as f64 / n - 0.80).abs() < 0.01, "{searches}");
            assert!((inserted as f64 / n - 0.15).abs() < 0.01, "{inserted}");
            assert!((deletes as f64 / n - 0.05).abs() < 0.01, "{deletes}");
        }
        // The other workloads never write.
        for w in [
            Workload::SearchNovel,
            Workload::SearchRepeat,
            Workload::RoutedRepeat,
        ] {
            assert!(take(&plan, w, 0, 2_000)
                .iter()
                .all(|op| matches!(op, Op::Search { .. })));
        }
    }

    #[test]
    fn bodies_are_valid_json_with_escaping() {
        let body = search_body("a \"quoted\" name", K, true);
        let v: Value = serde_json::from_str(&body).expect("valid JSON");
        assert_eq!(v["query"].as_str(), Some("a \"quoted\" name"));
        assert_eq!(v["k"].as_i64(), Some(K as i64));
        assert_eq!(v["explain"].as_bool(), Some(true));
        assert!(serde_json::from_str::<Value>(&search_body("q", K, false))
            .expect("valid JSON")
            .get("explain")
            .is_none());
        let v: Value = serde_json::from_str(&insert_body("line\nbreak")).expect("valid JSON");
        assert_eq!(v["text"].as_str(), Some("line\nbreak"));
    }
}
