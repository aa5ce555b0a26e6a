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
//! Two interchangeable backends implement [`LabelResolver`] behind the
//! [`LabelIndex`] enum:
//!
//! - [`HashLabelIndex`] — the original two-`FxHashMap` build. Simple,
//!   fast, memory-hungry; it is the *oracle* the property tests compare
//!   against.
//! - [`crate::fst_index::FstLabelIndex`] — a byte-trie automaton
//!   ([`newslink_util::fst`]) over the sorted surface forms with a packed
//!   postings arena (DESIGN.md §6j): about a quarter of the hash
//!   backend's bytes on million-label sets (EXPERIMENTS.md).

use std::borrow::Cow;

use newslink_util::{FxHashMap, FxHashSet};

use crate::fst_index::{FstLabelIndex, PackedPostings};
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

/// The node set behind one surface form, iterated without materializing.
///
/// The hash backend yields from an in-memory slice; the FST backend
/// decodes delta varints straight out of the postings arena. Both yield
/// ascending, deduplicated [`NodeId`]s.
#[derive(Debug, Clone)]
pub enum Postings<'a> {
    /// Borrowed slice of node ids (hash backend).
    Slice(std::slice::Iter<'a, NodeId>),
    /// Delta-varint decoder over arena bytes (FST backend).
    Packed(PackedPostings<'a>),
}

impl Postings<'_> {
    /// An empty posting list.
    pub(crate) fn empty() -> Self {
        Postings::Slice([].iter())
    }
}

impl Iterator for Postings<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        match self {
            Postings::Slice(it) => it.next().copied(),
            Postings::Packed(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            Postings::Slice(it) => it.len(),
            Postings::Packed(it) => it.len(),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for Postings<'_> {}

/// The resolution contract both backends satisfy; the oracle-parity
/// property tests are written against this trait.
pub trait LabelResolver {
    /// Nodes whose (normalized) label or alias is exactly `surface`.
    fn exact(&self, surface: &str) -> Postings<'_>;

    /// The paper's `S(l)`: exact matches unioned with labels *containing*
    /// the surface form's token run. Results are sorted and deduplicated.
    fn candidates(&self, graph: &KnowledgeGraph, surface: &str) -> Vec<NodeId>;

    /// True when some node label matches `surface` exactly.
    fn has_exact(&self, surface: &str) -> bool {
        self.exact(surface).len() > 0
    }

    /// Longest indexed label, in tokens — the NER gazetteer window bound.
    fn max_label_tokens(&self) -> usize;

    /// Number of distinct normalized surface forms.
    fn surface_count(&self) -> usize;

    /// Longest prefix `w ∈ [1, max_w]` of `tokens` (pre-lowercased, space-
    /// free) whose space-joined phrase resolves exactly to some node
    /// accepted by `searchable`. `allow_single` gates `w == 1` (the NER
    /// capitalization guard). This is the gazetteer hot path: the hash
    /// backend probes windows longest-first; the FST backend makes one
    /// forward walk over the automaton.
    fn longest_match(
        &self,
        tokens: &[&str],
        max_w: usize,
        allow_single: bool,
        searchable: &mut dyn FnMut(NodeId) -> bool,
    ) -> Option<usize>;

    /// Short name of the backend ("hash" or "fst") for metrics.
    fn backend(&self) -> &'static str;

    /// Approximate resident bytes of the resolver structures.
    fn resolver_bytes(&self) -> usize;
}

/// The original HashMap-backed index — the memory-hungry oracle.
#[derive(Debug, Clone, Default)]
pub struct HashLabelIndex {
    /// normalized full label -> nodes carrying exactly that label
    exact: FxHashMap<String, Vec<NodeId>>,
    /// normalized token -> nodes whose label contains the token
    token: FxHashMap<String, Vec<NodeId>>,
    /// longest label length in tokens (gazetteer window bound)
    max_tokens: usize,
}

impl HashLabelIndex {
    /// Build the index over every node label and alias in `graph`.
    pub(crate) fn build(graph: &KnowledgeGraph) -> Self {
        let mut idx = Self::default();
        for node in graph.nodes() {
            idx.insert_surface(node, graph.label(node));
        }
        // Wikidata-style aliases resolve to the same node.
        for (node, alias) in graph.aliases() {
            idx.insert_surface(node, alias);
        }
        for bucket in idx.exact.values_mut() {
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

    /// Every `(normalized surface, exact node set)` pair, sorted by
    /// surface — the parity view shared with the FST backend.
    pub(crate) fn surface_postings(&self) -> Vec<(String, Vec<NodeId>)> {
        let mut v: Vec<(String, Vec<NodeId>)> = self
            .exact
            .iter()
            .map(|(k, p)| (k.clone(), p.clone()))
            .collect();
        v.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        v
    }

}

impl LabelResolver for HashLabelIndex {
    fn exact(&self, surface: &str) -> Postings<'_> {
        match self.exact.get(normalize_label(surface).as_ref()) {
            Some(v) => Postings::Slice(v.iter()),
            None => Postings::empty(),
        }
    }

    fn candidates(&self, graph: &KnowledgeGraph, surface: &str) -> Vec<NodeId> {
        let norm = normalize_label(surface);
        if norm.is_empty() {
            return Vec::new();
        }
        let mut out: FxHashSet<NodeId> = FxHashSet::default();
        out.extend(self.exact.get(norm.as_ref()).into_iter().flatten().copied());

        // Containment: intersect the token postings, then verify the token
        // run is contiguous in the candidate's label.
        let toks: Vec<&str> = norm.split(' ').collect();
        let postings: Option<Vec<&Vec<NodeId>>> =
            toks.iter().map(|t| self.token.get(*t)).collect();
        if let Some(mut postings) = postings {
            postings.sort_by_key(|p| p.len());
            if let Some((first, rest)) = postings.split_first() {
                'cand: for &node in first.iter() {
                    if out.contains(&node) {
                        continue;
                    }
                    for p in rest {
                        if !p.contains(&node) {
                            continue 'cand;
                        }
                    }
                    if surface_run_hit(graph, node, &toks) {
                        out.insert(node);
                    }
                }
            }
        }

        let mut v: Vec<NodeId> = out.into_iter().collect();
        v.sort_unstable();
        v
    }

    fn has_exact(&self, surface: &str) -> bool {
        self.exact.contains_key(normalize_label(surface).as_ref())
    }

    fn max_label_tokens(&self) -> usize {
        self.max_tokens
    }

    fn surface_count(&self) -> usize {
        self.exact.len()
    }

    fn longest_match(
        &self,
        tokens: &[&str],
        max_w: usize,
        allow_single: bool,
        searchable: &mut dyn FnMut(NodeId) -> bool,
    ) -> Option<usize> {
        let cap = max_w.min(tokens.len());
        for w in (1..=cap).rev() {
            if w == 1 && !allow_single {
                continue;
            }
            let phrase = tokens[..w].join(" ");
            if LabelResolver::exact(self, &phrase).any(&mut *searchable) {
                return Some(w);
            }
        }
        None
    }

    fn backend(&self) -> &'static str {
        "hash"
    }

    fn resolver_bytes(&self) -> usize {
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
/// contiguous token run? Shared verification step of both backends'
/// `candidates`.
pub(crate) fn surface_run_hit(graph: &KnowledgeGraph, node: NodeId, toks: &[&str]) -> bool {
    contains_run(normalize_label(graph.label(node)).as_ref(), toks)
        || graph
            .aliases_of(node)
            .any(|a| contains_run(normalize_label(a).as_ref(), toks))
}

/// Immutable index from normalized labels to node sets, in one of two
/// interchangeable backends. The type every other crate holds: existing
/// `&LabelIndex` plumbing works with either backend.
#[derive(Debug, Clone)]
pub enum LabelIndex {
    /// HashMap-backed oracle (default; fastest to build).
    Hash(HashLabelIndex),
    /// FST automaton + packed postings arena (compact at scale).
    Fst(FstLabelIndex),
}

impl LabelIndex {
    /// Build the default (hash) backend over every label and alias.
    pub fn build(graph: &KnowledgeGraph) -> Self {
        LabelIndex::Hash(HashLabelIndex::build(graph))
    }

    /// Build the FST backend over every label and alias.
    pub fn build_fst(graph: &KnowledgeGraph) -> Self {
        LabelIndex::Fst(FstLabelIndex::build(graph))
    }

    /// Build the backend named by `backend` ("hash" or "fst").
    pub fn build_backend(graph: &KnowledgeGraph, backend: ResolverBackend) -> Self {
        match backend {
            ResolverBackend::Hash => Self::build(graph),
            ResolverBackend::Fst => Self::build_fst(graph),
        }
    }

    fn inner(&self) -> &dyn LabelResolver {
        match self {
            LabelIndex::Hash(h) => h,
            LabelIndex::Fst(f) => f,
        }
    }

    /// Nodes whose label is exactly `surface` (normalized).
    pub fn exact(&self, surface: &str) -> Postings<'_> {
        self.inner().exact(surface)
    }

    /// The paper's `S(l)` (see [`LabelResolver::candidates`]).
    pub fn candidates(&self, graph: &KnowledgeGraph, surface: &str) -> Vec<NodeId> {
        self.inner().candidates(graph, surface)
    }

    /// True when some node label matches `surface` exactly.
    pub fn has_exact(&self, surface: &str) -> bool {
        self.inner().has_exact(surface)
    }

    /// Longest indexed label, in tokens — the NER gazetteer window bound.
    pub fn max_label_tokens(&self) -> usize {
        self.inner().max_label_tokens()
    }

    /// See [`LabelResolver::longest_match`].
    pub fn longest_match(
        &self,
        tokens: &[&str],
        max_w: usize,
        allow_single: bool,
        searchable: &mut dyn FnMut(NodeId) -> bool,
    ) -> Option<usize> {
        self.inner()
            .longest_match(tokens, max_w, allow_single, searchable)
    }

    /// Every `(normalized surface, exact node set)` pair, sorted.
    pub fn surface_postings(&self) -> Vec<(String, Vec<NodeId>)> {
        match self {
            LabelIndex::Hash(h) => h.surface_postings(),
            LabelIndex::Fst(f) => f.surface_postings(),
        }
    }

    /// Number of distinct normalized labels.
    pub fn len(&self) -> usize {
        self.inner().surface_count()
    }

    /// True when the index holds no labels.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short backend name for metrics ("hash" / "fst").
    pub fn backend(&self) -> &'static str {
        self.inner().backend()
    }

    /// Approximate resident bytes of the resolver structures.
    pub fn resolver_bytes(&self) -> usize {
        self.inner().resolver_bytes()
    }
}

impl LabelResolver for LabelIndex {
    fn exact(&self, surface: &str) -> Postings<'_> {
        LabelIndex::exact(self, surface)
    }
    fn candidates(&self, graph: &KnowledgeGraph, surface: &str) -> Vec<NodeId> {
        LabelIndex::candidates(self, graph, surface)
    }
    fn has_exact(&self, surface: &str) -> bool {
        LabelIndex::has_exact(self, surface)
    }
    fn max_label_tokens(&self) -> usize {
        LabelIndex::max_label_tokens(self)
    }
    fn surface_count(&self) -> usize {
        LabelIndex::len(self)
    }
    fn longest_match(
        &self,
        tokens: &[&str],
        max_w: usize,
        allow_single: bool,
        searchable: &mut dyn FnMut(NodeId) -> bool,
    ) -> Option<usize> {
        LabelIndex::longest_match(self, tokens, max_w, allow_single, searchable)
    }
    fn backend(&self) -> &'static str {
        LabelIndex::backend(self)
    }
    fn resolver_bytes(&self) -> usize {
        LabelIndex::resolver_bytes(self)
    }
}

/// Which resolver backend to build — the `--resolver` CLI knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResolverBackend {
    /// HashMap oracle.
    #[default]
    Hash,
    /// FST automaton.
    Fst,
}

impl ResolverBackend {
    /// Parse "hash" / "fst".
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "hash" => Some(ResolverBackend::Hash),
            "fst" => Some(ResolverBackend::Fst),
            _ => None,
        }
    }
}

/// Does `label` (normalized, space-separated) contain `toks` as a contiguous
/// token run?
pub(crate) fn contains_run(label: &str, toks: &[&str]) -> bool {
    let ltoks: Vec<&str> = label.split(' ').collect();
    if toks.len() > ltoks.len() {
        return false;
    }
    ltoks.windows(toks.len()).any(|w| w == toks)
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

    fn backends(g: &KnowledgeGraph) -> Vec<LabelIndex> {
        vec![LabelIndex::build(g), LabelIndex::build_fst(g)]
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
        for idx in backends(&g) {
            assert_eq!(idx.exact("springfield").len(), 2, "{}", idx.backend());
            assert_eq!(idx.exact("SPRINGFIELD").len(), 2);
            assert_eq!(idx.exact("nowhere").len(), 0);
        }
    }

    #[test]
    fn candidates_include_containment_matches() {
        let g = world_graph();
        for idx in backends(&g) {
            let s = idx.candidates(&g, "Sanders");
            // exact "Sanders" node + containment in "Bernie Sanders"
            assert_eq!(s.len(), 2, "{}", idx.backend());
            let labels: Vec<_> = s.iter().map(|&n| g.label(n)).collect();
            assert!(labels.contains(&"Bernie Sanders"));
            assert!(labels.contains(&"Sanders"));
        }
    }

    #[test]
    fn containment_requires_contiguous_run() {
        let g = world_graph();
        for idx in backends(&g) {
            // "new city" is a subset of the tokens but not a contiguous run
            assert!(idx.candidates(&g, "new city").is_empty());
            assert_eq!(idx.candidates(&g, "york city").len(), 1);
            assert_eq!(idx.candidates(&g, "new york city").len(), 1);
        }
    }

    #[test]
    fn empty_surface_yields_nothing() {
        let g = world_graph();
        for idx in backends(&g) {
            assert!(idx.candidates(&g, "").is_empty());
            assert!(idx.candidates(&g, "   ").is_empty());
        }
    }

    #[test]
    fn max_label_tokens_tracks_longest() {
        let g = world_graph();
        for idx in backends(&g) {
            assert_eq!(idx.max_label_tokens(), 3); // "new york city"
        }
    }

    #[test]
    fn has_exact_and_len() {
        let g = world_graph();
        for idx in backends(&g) {
            assert!(idx.has_exact("pakistan"));
            assert!(!idx.has_exact("pak"));
            assert_eq!(idx.len(), 5); // springfield deduped into one label
            assert!(!idx.is_empty());
        }
    }

    #[test]
    fn aliases_resolve_to_their_node() {
        let mut b = GraphBuilder::new();
        let who = b.add_node("World Health Organization", EntityType::Organization);
        b.add_alias(who, "WHO");
        let g = b.freeze();
        for idx in backends(&g) {
            assert_eq!(idx.exact("who").collect::<Vec<_>>(), vec![who]);
            assert_eq!(idx.candidates(&g, "WHO"), vec![who]);
            // Token containment inside an alias works too.
            let c = idx.candidates(&g, "health organization");
            assert_eq!(c, vec![who]);
        }
    }

    #[test]
    fn candidates_sorted_and_unique() {
        let g = world_graph();
        for idx in backends(&g) {
            let c = idx.candidates(&g, "springfield");
            assert_eq!(c.len(), 2);
            assert!(c[0] < c[1]);
        }
    }

    #[test]
    fn backends_report_identity() {
        let g = world_graph();
        let hash = LabelIndex::build(&g);
        let fst = LabelIndex::build_fst(&g);
        assert_eq!(hash.backend(), "hash");
        assert_eq!(fst.backend(), "fst");
        assert!(hash.resolver_bytes() > 0);
        assert!(fst.resolver_bytes() > 0);
    }

    #[test]
    fn surface_postings_agree_across_backends() {
        let mut b = GraphBuilder::new();
        let who = b.add_node("World Health Organization", EntityType::Organization);
        b.add_alias(who, "WHO");
        b.add_node("Sanders", EntityType::Person);
        b.add_node("Bernie Sanders", EntityType::Person);
        let g = b.freeze();
        let hash = LabelIndex::build(&g);
        let fst = LabelIndex::build_fst(&g);
        assert_eq!(hash.surface_postings(), fst.surface_postings());
    }

    #[test]
    fn longest_match_agrees_across_backends() {
        let g = world_graph();
        let hash = LabelIndex::build(&g);
        let fst = LabelIndex::build_fst(&g);
        let cases: Vec<(Vec<&str>, bool)> = vec![
            (vec!["new", "york", "city", "hall"], true),
            (vec!["new", "york"], true),
            (vec!["sanders", "spoke"], true),
            (vec!["sanders", "spoke"], false),
            (vec!["unknown", "words"], true),
            (vec![], true),
        ];
        for (toks, allow_single) in cases {
            let h = hash.longest_match(&toks, 3, allow_single, &mut |_| true);
            let f = fst.longest_match(&toks, 3, allow_single, &mut |_| true);
            assert_eq!(h, f, "tokens {toks:?} allow_single={allow_single}");
        }
        // The searchable predicate gates matches in both backends.
        let toks = vec!["springfield"];
        let none_h = hash.longest_match(&toks, 3, true, &mut |_| false);
        let none_f = fst.longest_match(&toks, 3, true, &mut |_| false);
        assert_eq!(none_h, None);
        assert_eq!(none_f, None);
    }

    #[test]
    fn resolver_backend_parses() {
        assert_eq!(ResolverBackend::parse("hash"), Some(ResolverBackend::Hash));
        assert_eq!(ResolverBackend::parse("fst"), Some(ResolverBackend::Fst));
        assert_eq!(ResolverBackend::parse("trie"), None);
        assert_eq!(ResolverBackend::default(), ResolverBackend::Hash);
    }
}
