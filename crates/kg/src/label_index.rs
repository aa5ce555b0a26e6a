//! Entity-label → node resolution: the paper's `S(l)`.
//!
//! §V-A: *"Given an entity l, it is mapped to a set of nodes S(l) from K
//! whose labels contain l through exact string matching."* We implement
//! this as (a) exact match on the normalized full label, unioned with (b)
//! *token containment*: nodes whose label contains the query's token
//! sequence as a contiguous run (so `Sanders` resolves to `Bernie Sanders`,
//! matching the paper's case study where one surface form maps to several
//! nodes).
//!
//! [`LabelIndex`] is the one resolver: a hash map from each normalized
//! surface (label or alias) to its nodes, and one from each token to the
//! nodes whose surfaces contain it. DESIGN.md §6j records why there is no
//! second backend and what would reopen that.

use std::borrow::Cow;

use newslink_util::FxHashMap;

use crate::graph::{KnowledgeGraph, NodeId};

/// Normalize a surface form / label for matching: lowercase, collapse runs
/// of whitespace, trim.
///
/// Already-normalized input (every probe on the gazetteer hot path, which
/// joins pre-lowercased tokens with single spaces) is returned borrowed —
/// no allocation.
pub fn normalize_label(s: &str) -> Cow<'_, str> {
    if is_normalized(s) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut pending_space = false;
    for part in s.split_whitespace() {
        if pending_space {
            out.push(' ');
        }
        for ch in part.chars() {
            out.extend(ch.to_lowercase());
        }
        pending_space = true;
    }
    Cow::Owned(out)
}

/// True when `normalize_label` would return `s` unchanged: no leading,
/// trailing or doubled spaces, no non-space whitespace, and every char
/// already its own full lowercase mapping.
fn is_normalized(s: &str) -> bool {
    if s.is_empty() {
        return true;
    }
    let mut prev_space = true; // a leading space is not normalized
    for ch in s.chars() {
        if ch == ' ' {
            if prev_space {
                return false;
            }
            prev_space = true;
        } else if ch.is_whitespace() {
            return false;
        } else {
            let mut lc = ch.to_lowercase();
            if lc.next() != Some(ch) || lc.next().is_some() {
                return false;
            }
            prev_space = false;
        }
    }
    !prev_space // a trailing space is not normalized
}

/// Immutable index from normalized labels and aliases to node sets: two
/// `FxHashMap`s, one keyed by full surface, one by token.
#[derive(Debug, Clone)]
pub struct LabelIndex {
    /// normalized full label -> nodes carrying exactly that label
    exact: FxHashMap<String, Vec<NodeId>>,
    /// normalized token -> nodes whose label contains the token, ascending
    /// and deduplicated
    token: FxHashMap<String, Vec<NodeId>>,
    /// longest label length in tokens (gazetteer window bound)
    max_tokens: usize,
}

impl LabelIndex {
    /// Build the index over every node label and alias in `graph`.
    pub fn build(graph: &KnowledgeGraph) -> Self {
        let mut idx = Self {
            exact: FxHashMap::default(),
            token: FxHashMap::default(),
            max_tokens: 0,
        };
        for node in graph.nodes() {
            idx.insert_surface(node, graph.label(node));
        }
        // Wikidata-style aliases resolve to the same node.
        for (node, alias) in graph.aliases() {
            idx.insert_surface(node, alias);
        }
        for bucket in idx.exact.values_mut().chain(idx.token.values_mut()) {
            bucket.sort_unstable();
            bucket.dedup();
        }
        idx
    }

    fn insert_surface(&mut self, node: NodeId, surface: &str) {
        let norm = normalize_label(surface);
        if norm.is_empty() {
            return;
        }
        let ntok = norm.split(' ').count();
        self.max_tokens = self.max_tokens.max(ntok);
        for tok in norm.split(' ') {
            let bucket = self.token.entry(tok.to_string()).or_default();
            // labels repeat tokens ("New York, New York"); avoid dupes
            if bucket.last() != Some(&node) {
                bucket.push(node);
            }
        }
        let bucket = self.exact.entry(norm.into_owned()).or_default();
        if bucket.last() != Some(&node) {
            bucket.push(node);
        }
    }

    /// Nodes whose (normalized) label or alias is exactly `surface`,
    /// ascending and deduplicated.
    pub fn exact(&self, surface: &str) -> &[NodeId] {
        self.exact
            .get(normalize_label(surface).as_ref())
            .map_or(&[], Vec::as_slice)
    }

    /// The paper's `S(l)`: exact matches unioned with labels *containing*
    /// the surface form's token run. Results are sorted and deduplicated.
    ///
    /// A surface equal to the run contains it, so the exact matches are
    /// a subset of the containment matches and need no separate union.
    /// One token is a one-token run exactly when a surface holds it, so
    /// its posting is the answer. A longer run intersects the sorted
    /// postings, smallest first, by binary search, and checks contiguity
    /// only for nodes that are not exact matches.
    pub fn candidates(&self, graph: &KnowledgeGraph, surface: &str) -> Vec<NodeId> {
        let norm = normalize_label(surface);
        if norm.is_empty() {
            return Vec::new();
        }
        if !norm.contains(' ') {
            return self.token.get(norm.as_ref()).cloned().unwrap_or_default();
        }
        let toks: Vec<&str> = norm.split(' ').collect();
        let Some(mut postings) = toks
            .iter()
            .map(|t| self.token.get(*t).map(Vec::as_slice))
            .collect::<Option<Vec<&[NodeId]>>>()
        else {
            return Vec::new();
        };
        postings.sort_by_key(|p| p.len());
        let exact = self.exact.get(norm.as_ref()).map_or(&[][..], Vec::as_slice);
        let (first, rest) = postings.split_first().expect("a run has two tokens or more");
        first
            .iter()
            .copied()
            .filter(|node| rest.iter().all(|p| p.binary_search(node).is_ok()))
            .filter(|&node| {
                exact.binary_search(&node).is_ok() || surface_run_hit(graph, node, &toks)
            })
            .collect()
    }

    /// True when some node label matches `surface` exactly.
    pub fn has_exact(&self, surface: &str) -> bool {
        self.exact.contains_key(normalize_label(surface).as_ref())
    }

    /// Longest indexed label, in tokens — the NER gazetteer window bound.
    pub fn max_label_tokens(&self) -> usize {
        self.max_tokens
    }

    /// Longest prefix `w ∈ [1, max_w]` of `tokens` (pre-lowercased, space-
    /// free) whose space-joined phrase resolves exactly to some node
    /// accepted by `searchable`. `allow_single` gates `w == 1` (the NER
    /// capitalization guard). This is the gazetteer hot path; windows are
    /// probed longest-first.
    ///
    /// Most probed positions start no label, so a first token that no
    /// surface contains answers `None` with one hash probe. Otherwise the
    /// widest window is joined once and every narrower window is probed
    /// as a byte prefix of it.
    pub fn longest_match(
        &self,
        tokens: &[&str],
        max_w: usize,
        allow_single: bool,
        searchable: &mut dyn FnMut(NodeId) -> bool,
    ) -> Option<usize> {
        let cap = max_w.min(tokens.len());
        if cap == 0 {
            return None;
        }
        // Only a first token that normalizes to one whole token can be
        // ruled out this way (an empty one vanishes from the joined
        // phrase, and one with inner whitespace splits in two).
        let first = normalize_label(tokens[0]);
        if !first.is_empty() && !first.contains(' ') && !self.token.contains_key(first.as_ref()) {
            return None;
        }
        let phrase = tokens[..cap].join(" ");
        let mut end = phrase.len();
        for w in (1..=cap).rev() {
            if w < cap {
                end -= tokens[w].len() + 1;
            }
            if w == 1 && !allow_single {
                continue;
            }
            if self.exact(&phrase[..end]).iter().any(|&n| searchable(n)) {
                return Some(w);
            }
        }
        None
    }

    /// Number of distinct normalized labels.
    pub fn len(&self) -> usize {
        self.exact.len()
    }

    /// True when the index holds no labels.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes of the resolver structures.
    pub fn resolver_bytes(&self) -> usize {
        fn map_bytes(m: &FxHashMap<String, Vec<NodeId>>) -> usize {
            // hashbrown: one (K, V) slot plus one control byte per slot of
            // capacity, plus the heap behind each key and posting vec.
            let mut b = m.capacity()
                * (std::mem::size_of::<(String, Vec<NodeId>)>() + 1);
            for (k, v) in m {
                b += k.capacity() + v.capacity() * std::mem::size_of::<NodeId>();
            }
            b
        }
        std::mem::size_of::<Self>() + map_bytes(&self.exact) + map_bytes(&self.token)
    }
}

/// Does some surface of `node` (label or alias) contain `toks` as a
/// contiguous token run? The verification step of `candidates`.
fn surface_run_hit(graph: &KnowledgeGraph, node: NodeId, toks: &[&str]) -> bool {
    contains_run(normalize_label(graph.label(node)).as_ref(), toks)
        || graph
            .aliases_of(node)
            .any(|a| contains_run(normalize_label(a).as_ref(), toks))
}

/// Does `label` (normalized, space-separated) contain `toks` as a contiguous
/// token run?
fn contains_run(label: &str, toks: &[&str]) -> bool {
    let mut rest = label;
    loop {
        let mut words = rest.split(' ');
        if toks.iter().all(|t| words.next() == Some(t)) {
            return true;
        }
        match rest.find(' ') {
            Some(space) => rest = &rest[space + 1..],
            None => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::graph::EntityType;

    fn world_graph() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        b.add_node("Bernie Sanders", EntityType::Person);
        b.add_node("Sanders", EntityType::Person);
        b.add_node("Pakistan", EntityType::Gpe);
        b.add_node("Springfield", EntityType::Gpe);
        b.add_node("Springfield", EntityType::Gpe);
        b.add_node("New York City", EntityType::Gpe);
        b.freeze()
    }

    #[test]
    fn normalization_lowercases_and_collapses() {
        assert_eq!(normalize_label("  Upper   DIR "), "upper dir");
        assert_eq!(normalize_label("Taliban"), "taliban");
        assert_eq!(normalize_label(""), "");
        assert_eq!(normalize_label("   "), "");
    }

    #[test]
    fn normalization_borrows_when_already_normalized() {
        for s in ["", "taliban", "upper dir", "new york city", "köln 42"] {
            assert!(
                matches!(normalize_label(s), Cow::Borrowed(_)),
                "{s:?} should borrow"
            );
        }
        for s in ["Taliban", " x", "x ", "a  b", "a\tb", "İstanbul"] {
            assert!(
                matches!(normalize_label(s), Cow::Owned(_)),
                "{s:?} should allocate"
            );
        }
    }

    #[test]
    fn normalized_cow_agrees_with_owned_path() {
        // The borrow fast path must accept exactly the fixed points of the
        // allocating path.
        for s in [
            "a b", "A b", "ß", "ẞ", "İ", "ǅungla", "x y z", "x  y", " ", "é",
        ] {
            let owned = {
                let mut out = String::new();
                let mut pending = false;
                for part in s.split_whitespace() {
                    if pending {
                        out.push(' ');
                    }
                    for ch in part.chars() {
                        out.extend(ch.to_lowercase());
                    }
                    pending = true;
                }
                out
            };
            assert_eq!(normalize_label(s).as_ref(), owned, "mismatch on {s:?}");
            assert_eq!(is_normalized(s), s == owned, "fast-path gate on {s:?}");
        }
    }

    #[test]
    fn exact_match_finds_all_homonyms() {
        let g = world_graph();
        let idx = LabelIndex::build(&g);
        assert_eq!(idx.exact("springfield").len(), 2);
        assert_eq!(idx.exact("SPRINGFIELD").len(), 2);
        assert_eq!(idx.exact("nowhere").len(), 0);
    }

    #[test]
    fn candidates_include_containment_matches() {
        let g = world_graph();
        let idx = LabelIndex::build(&g);
        let s = idx.candidates(&g, "Sanders");
        // exact "Sanders" node + containment in "Bernie Sanders"
        assert_eq!(s.len(), 2);
        let labels: Vec<_> = s.iter().map(|&n| g.label(n)).collect();
        assert!(labels.contains(&"Bernie Sanders"));
        assert!(labels.contains(&"Sanders"));
    }

    #[test]
    fn containment_requires_contiguous_run() {
        let g = world_graph();
        let idx = LabelIndex::build(&g);
        // "new city" is a subset of the tokens but not a contiguous run
        assert!(idx.candidates(&g, "new city").is_empty());
        assert_eq!(idx.candidates(&g, "york city").len(), 1);
        assert_eq!(idx.candidates(&g, "new york city").len(), 1);
    }

    #[test]
    fn empty_surface_yields_nothing() {
        let g = world_graph();
        let idx = LabelIndex::build(&g);
        assert!(idx.candidates(&g, "").is_empty());
        assert!(idx.candidates(&g, "   ").is_empty());
    }

    #[test]
    fn max_label_tokens_tracks_longest() {
        let g = world_graph();
        let idx = LabelIndex::build(&g);
        assert_eq!(idx.max_label_tokens(), 3); // "new york city"
    }

    #[test]
    fn has_exact_and_len() {
        let g = world_graph();
        let idx = LabelIndex::build(&g);
        assert!(idx.has_exact("pakistan"));
        assert!(!idx.has_exact("pak"));
        assert_eq!(idx.len(), 5); // springfield deduped into one label
        assert!(!idx.is_empty());
    }

    #[test]
    fn aliases_resolve_to_their_node() {
        let mut b = GraphBuilder::new();
        let who = b.add_node("World Health Organization", EntityType::Organization);
        b.add_alias(who, "WHO");
        let g = b.freeze();
        let idx = LabelIndex::build(&g);
        assert_eq!(idx.exact("who"), [who]);
        assert_eq!(idx.candidates(&g, "WHO"), vec![who]);
        // Token containment inside an alias works too.
        let c = idx.candidates(&g, "health organization");
        assert_eq!(c, vec![who]);
    }

    #[test]
    fn candidates_sorted_and_unique() {
        let g = world_graph();
        let idx = LabelIndex::build(&g);
        let c = idx.candidates(&g, "springfield");
        assert_eq!(c.len(), 2);
        assert!(c[0] < c[1]);
    }
}
