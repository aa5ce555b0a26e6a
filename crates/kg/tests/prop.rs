//! Property tests for the knowledge-graph substrate.

use proptest::prelude::*;

use newslink_kg::{
    normalize_label, triples, EntityType, GraphBuilder, KnowledgeGraph, LabelIndex, NodeId,
};

/// Strategy: random node labels over a small alphabet (collisions likely)
/// and random edges among them.
fn graph_strategy() -> impl Strategy<Value = (Vec<String>, Vec<(usize, usize, u8)>)> {
    let labels = prop::collection::vec("[a-c]{1,3}( [a-c]{1,3})?", 1..20);
    labels.prop_flat_map(|ls| {
        let n = ls.len();
        let edges = prop::collection::vec((0..n, 0..n, 1u8..4), 0..30);
        (Just(ls), edges)
    })
}

/// Word pool mixing plain ASCII, multi-byte unicode, and words whose
/// lowercase expands (`İ` → `i̇`), so normalization edge cases are always
/// in play.
const WORDS: &[&str] = &[
    "Earth",
    "Union",
    "Bernie",
    "Sanders",
    "Vermont",
    "Senate",
    "café",
    "München",
    "Zürich",
    "İstanbul",
    "北京",
    "Über",
    "naïve",
    "ØRSTED",
    "election",
    "treaty",
    "harbor",
    "ALBANY",
];

/// Strategy: one surface form of 1..=3 words from the pool.
fn surface_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..WORDS.len(), 1..4)
        .prop_map(|idx| idx.iter().map(|&i| WORDS[i]).collect::<Vec<_>>().join(" "))
}

/// Build a connected graph whose labels (and aliases) come from `labels`.
/// Aliasing re-uses earlier surfaces, so shared surfaces — several nodes
/// behind one normalized form — occur by construction. Every fifth node
/// is a non-searchable quantity.
fn graph_from_labels(labels: &[String], alias_picks: &[(usize, usize)]) -> KnowledgeGraph {
    let mut b = GraphBuilder::new();
    let types = [
        EntityType::Person,
        EntityType::Organization,
        EntityType::Gpe,
        EntityType::Event,
        EntityType::Quantity,
    ];
    let nodes: Vec<_> = labels
        .iter()
        .enumerate()
        .map(|(i, l)| b.add_node(l, types[i % types.len()]))
        .collect();
    for w in nodes.windows(2) {
        b.add_edge(w[0], w[1], "linked to", 1);
    }
    for &(node, label) in alias_picks {
        b.add_alias(nodes[node % nodes.len()], &labels[label % labels.len()]);
    }
    b.freeze()
}

/// Reference `exact`: every node with a non-empty normalized surface
/// (label or alias) equal to the normalized probe, by a scan of the graph.
fn scan_exact(g: &KnowledgeGraph, probe: &str) -> Vec<NodeId> {
    let norm = normalize_label(probe);
    scan(g, |surface| !norm.is_empty() && surface == norm)
}

/// Reference `candidates`: `scan_exact` ∪ every node with a surface that
/// contains the probe's tokens as a contiguous run.
fn scan_candidates(g: &KnowledgeGraph, probe: &str) -> Vec<NodeId> {
    let norm = normalize_label(probe);
    if norm.is_empty() {
        return Vec::new();
    }
    let toks: Vec<&str> = norm.split(' ').collect();
    let mut out = scan(g, |surface| {
        surface
            .split(' ')
            .collect::<Vec<_>>()
            .windows(toks.len())
            .any(|w| w == toks)
    });
    out.extend(scan_exact(g, probe));
    out.sort_unstable();
    out.dedup();
    out
}

/// Reference `longest_match`: the largest `w <= max_w` whose joined phrase
/// has a searchable `scan_exact` hit, with `w == 1` gated by `allow_single`.
fn scan_longest_match(
    g: &KnowledgeGraph,
    tokens: &[&str],
    max_w: usize,
    allow_single: bool,
) -> Option<usize> {
    (1..=max_w.min(tokens.len())).rev().find(|&w| {
        (w > 1 || allow_single)
            && scan_exact(g, &tokens[..w].join(" "))
                .iter()
                .any(|&n| g.entity_type(n).is_searchable())
    })
}

/// The ascending nodes with some normalized surface accepted by `hit`.
fn scan(g: &KnowledgeGraph, hit: impl Fn(&str) -> bool) -> Vec<NodeId> {
    g.nodes()
        .filter(|&v| {
            std::iter::once(g.label(v))
                .chain(g.aliases_of(v))
                .any(|s| hit(normalize_label(s).as_ref()))
        })
        .collect()
}

fn build(labels: &[String], edges: &[(usize, usize, u8)]) -> KnowledgeGraph {
    let mut b = GraphBuilder::new();
    let types = [
        EntityType::Gpe,
        EntityType::Person,
        EntityType::Organization,
        EntityType::Event,
    ];
    let ids: Vec<NodeId> = labels
        .iter()
        .enumerate()
        .map(|(i, l)| b.add_node(l, types[i % types.len()]))
        .collect();
    for &(u, v, w) in edges {
        if u != v {
            b.add_edge(ids[u], ids[v], "p", u32::from(w));
        }
    }
    b.freeze()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bi-direction invariant: every forward edge has its inverse twin.
    #[test]
    fn every_edge_has_inverse_twin((labels, edges) in graph_strategy()) {
        let g = build(&labels, &edges);
        for v in g.nodes() {
            for e in g.neighbors(v) {
                let twin_exists = g.neighbors(e.to).iter().any(|back| {
                    back.to == v
                        && back.predicate == e.predicate
                        && back.weight == e.weight
                        && back.inverse != e.inverse
                });
                prop_assert!(twin_exists, "missing twin for {v:?} -> {:?}", e.to);
            }
        }
        prop_assert_eq!(g.directed_edge_count(), 2 * g.edge_count());
    }

    /// TSV persistence round-trips arbitrary graphs exactly.
    #[test]
    fn triples_round_trip((labels, edges) in graph_strategy()) {
        let g = build(&labels, &edges);
        let mut buf = Vec::new();
        triples::write_triples(&g, &mut buf).unwrap();
        let back = triples::read_triples(&buf[..]).unwrap();
        prop_assert_eq!(back.node_count(), g.node_count());
        prop_assert_eq!(back.edge_count(), g.edge_count());
        for v in g.nodes() {
            prop_assert_eq!(back.label(v), g.label(v));
            prop_assert_eq!(back.entity_type(v), g.entity_type(v));
            prop_assert_eq!(back.neighbors(v), g.neighbors(v));
        }
    }

    /// The label index's exact buckets contain precisely the nodes whose
    /// normalized label matches.
    #[test]
    fn label_index_exact_is_correct((labels, edges) in graph_strategy()) {
        let g = build(&labels, &edges);
        let idx = LabelIndex::build(&g);
        for v in g.nodes() {
            let bucket = idx.exact(g.label(v));
            prop_assert!(bucket.contains(&v), "node missing from own label bucket");
            for &other in bucket {
                prop_assert_eq!(
                    normalize_label(g.label(other)),
                    normalize_label(g.label(v))
                );
            }
        }
    }

    /// `exact`, `candidates` and `longest_match` answer exactly what a
    /// brute-force scan over every label and alias answers, on unicode,
    /// alias-heavy graphs with shared surfaces.
    #[test]
    fn resolver_equals_brute_force_scan(
        labels in prop::collection::vec(surface_strategy(), 2..24),
        aliases in prop::collection::vec((0usize..24, 0usize..24), 0..8),
        probes in prop::collection::vec(surface_strategy(), 0..8),
        windows in prop::collection::vec(
            (prop::collection::vec(0usize..WORDS.len() + 2, 0..6), 1usize..5, any::<bool>()),
            0..8,
        ),
    ) {
        let g = graph_from_labels(&labels, &aliases);
        let idx = LabelIndex::build(&g);
        let longest = labels.iter().map(|l| l.split(' ').count()).max().unwrap();
        prop_assert_eq!(idx.max_label_tokens(), longest);
        let single_words = WORDS.iter().map(|w| w.to_string());
        for probe in probes.iter().chain(&labels).cloned().chain(single_words) {
            let exact = scan_exact(&g, &probe);
            prop_assert_eq!(idx.exact(&probe), &exact[..], "exact {:?}", probe);
            prop_assert_eq!(idx.has_exact(&probe), !exact.is_empty());
            let candidates = scan_candidates(&g, &probe);
            prop_assert_eq!(idx.candidates(&g, &probe), candidates, "candidates {:?}", probe);
        }
        // Gazetteer windows: pre-lowercased pool words and two fillers that
        // no label holds, plus every label followed by a filler.
        let lower: Vec<String> = WORDS.iter().map(|w| normalize_label(w).into_owned()).collect();
        let word = |i: usize| {
            lower.get(i).map_or_else(|| ["said", "the"][i - lower.len()], String::as_str)
        };
        let mut cases: Vec<(Vec<&str>, usize, bool)> = windows
            .iter()
            .map(|(ids, max_w, single)| (ids.iter().map(|&i| word(i)).collect(), *max_w, *single))
            .collect();
        let label_tokens: Vec<Vec<String>> = labels
            .iter()
            .map(|l| l.split(' ').map(|t| normalize_label(t).into_owned()).collect())
            .collect();
        for toks in &label_tokens {
            let mut t: Vec<&str> = toks.iter().map(String::as_str).collect();
            t.push("said");
            cases.push((t.clone(), idx.max_label_tokens(), true));
            cases.push((t, idx.max_label_tokens(), false));
        }
        for (toks, max_w, single) in cases {
            let mut searchable = |n| g.entity_type(n).is_searchable();
            let got = idx.longest_match(&toks, max_w, single, &mut searchable);
            let want = scan_longest_match(&g, &toks, max_w, single);
            prop_assert_eq!(got, want, "longest_match {:?}", toks);
        }
    }

    /// Normalization is idempotent.
    #[test]
    fn normalize_is_idempotent(s in "\\PC{0,40}") {
        let once = normalize_label(&s);
        prop_assert_eq!(normalize_label(&once), once.clone());
    }
}
