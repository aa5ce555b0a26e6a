//! FST-backed label resolution: the automaton behind `S(l)`
//! (DESIGN.md §6j).
//!
//! Two byte-trie automata ([`newslink_util::fst`]) over one packed
//! postings arena:
//!
//! - the **label trie** maps every normalized surface form (label or
//!   alias) to its exact node set;
//! - the **token trie** maps every distinct token to the nodes whose
//!   surfaces contain it — the containment pre-filter of
//!   `candidates`, intersected and then verified against the graph
//!   exactly like the HashMap oracle.
//!
//! Automaton values are byte offsets into the arena; a posting list is a
//! varint count followed by ascending delta varints. Like the hash
//! backend, the index is built in memory from the loaded graph.

use newslink_util::fst::{Fst, FstBuilder};
use newslink_util::{varint, FxHashSet};

use crate::graph::{KnowledgeGraph, NodeId};
use crate::label_index::{normalize_label, surface_run_hit, LabelResolver, Postings};

/// Delta-varint posting-list decoder over arena bytes.
#[derive(Debug, Clone)]
pub struct PackedPostings<'a> {
    rest: &'a [u8],
    remaining: usize,
    prev: u64,
}

impl<'a> PackedPostings<'a> {
    /// Decode the posting list starting at `offset` in `arena`.
    /// Malformed bytes yield an empty iterator.
    pub(crate) fn at(arena: &'a [u8], offset: u64) -> Self {
        let mut rest = arena.get(offset as usize..).unwrap_or(&[]);
        let remaining = varint::read_u64(&mut rest).unwrap_or(0) as usize;
        Self {
            rest,
            remaining,
            prev: 0,
        }
    }
}

impl Iterator for PackedPostings<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.remaining == 0 {
            return None;
        }
        match varint::read_u64(&mut self.rest) {
            Ok(delta) => {
                self.remaining -= 1;
                self.prev += delta;
                u32::try_from(self.prev).ok().map(NodeId)
            }
            Err(_) => {
                self.remaining = 0;
                None
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for PackedPostings<'_> {}

/// Append one ascending posting list to `arena`, returning its offset.
fn write_postings(arena: &mut Vec<u8>, nodes: &[NodeId]) -> u64 {
    let off = arena.len() as u64;
    varint::write_u64(arena, nodes.len() as u64).expect("vec write");
    let mut prev = 0u64;
    for &n in nodes {
        let v = u64::from(n.0);
        debug_assert!(v >= prev || prev == 0, "postings must ascend");
        varint::write_u64(arena, v - prev).expect("vec write");
        prev = v;
    }
    off
}

/// One trie over the sorted, deduplicated `(key, node)` pairs: each
/// distinct key maps to the arena offset of its ascending node list.
fn build_trie<K: AsRef<str>>(pairs: &[(K, NodeId)], arena: &mut Vec<u8>) -> Fst {
    let mut builder = FstBuilder::new();
    for group in pairs.chunk_by(|a, b| a.0.as_ref() == b.0.as_ref()) {
        let nodes: Vec<NodeId> = group.iter().map(|&(_, n)| n).collect();
        let off = write_postings(arena, &nodes);
        builder
            .insert(group[0].0.as_ref().as_bytes(), off)
            .expect("pairs are sorted and deduplicated");
    }
    builder.finish()
}

/// The FST backend of [`crate::label_index::LabelIndex`].
#[derive(Debug, Clone)]
pub struct FstLabelIndex {
    label_fst: Fst,
    token_fst: Fst,
    arena: Vec<u8>,
    max_tokens: usize,
}

impl FstLabelIndex {
    /// Build from every node label and alias in `graph` (exactly the
    /// surface set of [`crate::label_index::HashLabelIndex::build`]).
    pub(crate) fn build(graph: &KnowledgeGraph) -> Self {
        let mut surfaces: Vec<(String, NodeId)> = Vec::new();
        for node in graph.nodes() {
            let norm = normalize_label(graph.label(node));
            if !norm.is_empty() {
                surfaces.push((norm.into_owned(), node));
            }
        }
        for (node, alias) in graph.aliases() {
            let norm = normalize_label(alias);
            if !norm.is_empty() {
                surfaces.push((norm.into_owned(), node));
            }
        }
        surfaces.sort_unstable();
        surfaces.dedup();
        let mut tokens: Vec<(&str, NodeId)> = surfaces
            .iter()
            .flat_map(|(surface, node)| surface.split(' ').map(move |tok| (tok, *node)))
            .collect();
        tokens.sort_unstable();
        tokens.dedup();

        let mut arena = Vec::new();
        let label_fst = build_trie(&surfaces, &mut arena);
        let token_fst = build_trie(&tokens, &mut arena);
        let max_tokens = surfaces
            .iter()
            .map(|(surface, _)| surface.split(' ').count())
            .max()
            .unwrap_or(0);
        Self {
            label_fst,
            token_fst,
            arena,
            max_tokens,
        }
    }

    fn exact_offset(&self, norm: &str) -> Option<u64> {
        self.label_fst.get(norm.as_bytes())
    }

    fn postings_at(&self, offset: u64) -> PackedPostings<'_> {
        PackedPostings::at(self.arena.as_slice(), offset)
    }

    /// Every `(surface, exact node set)` pair, sorted — the parity view.
    pub(crate) fn surface_postings(&self) -> Vec<(String, Vec<NodeId>)> {
        self.label_fst
            .iter()
            .map(|(k, off)| {
                (
                    String::from_utf8(k).expect("surfaces are utf-8"),
                    self.postings_at(off).collect(),
                )
            })
            .collect()
    }
}

impl LabelResolver for FstLabelIndex {
    fn exact(&self, surface: &str) -> Postings<'_> {
        let norm = normalize_label(surface);
        match self.exact_offset(norm.as_ref()) {
            Some(off) => Postings::Packed(self.postings_at(off)),
            None => Postings::empty(),
        }
    }

    fn candidates(&self, graph: &KnowledgeGraph, surface: &str) -> Vec<NodeId> {
        let norm = normalize_label(surface);
        if norm.is_empty() {
            return Vec::new();
        }
        let mut out: FxHashSet<NodeId> = FxHashSet::default();
        if let Some(off) = self.exact_offset(norm.as_ref()) {
            out.extend(self.postings_at(off));
        }
        let toks: Vec<&str> = norm.split(' ').collect();
        let postings: Option<Vec<Vec<NodeId>>> = toks
            .iter()
            .map(|t| {
                self.token_fst
                    .get(t.as_bytes())
                    .map(|off| self.postings_at(off).collect())
            })
            .collect();
        if let Some(mut postings) = postings {
            postings.sort_by_key(|p: &Vec<NodeId>| p.len());
            if let Some((first, rest)) = postings.split_first() {
                'cand: for &node in first.iter() {
                    if out.contains(&node) {
                        continue;
                    }
                    for p in rest {
                        // Token postings are sorted in this backend.
                        if p.binary_search(&node).is_err() {
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
        self.exact_offset(normalize_label(surface).as_ref()).is_some()
    }

    fn max_label_tokens(&self) -> usize {
        self.max_tokens
    }

    fn surface_count(&self) -> usize {
        self.label_fst.len()
    }

    fn longest_match(
        &self,
        tokens: &[&str],
        max_w: usize,
        allow_single: bool,
        searchable: &mut dyn FnMut(NodeId) -> bool,
    ) -> Option<usize> {
        // One forward walk over the automaton covers every window width
        // starting here — no per-width join or hash, no allocation.
        let mut state = self.label_fst.root_state();
        let mut best = None;
        let mut emitted = false;
        'outer: for (wi, tok) in tokens.iter().take(max_w).enumerate() {
            // Defensive: the NER pipeline hands us space-free lowercase
            // tokens, but normalize anyway so the walked key equals what
            // the oracle probes (normalize_label of the joined phrase).
            let norm = normalize_label(tok);
            if !norm.is_empty() {
                if emitted {
                    match self.label_fst.step(state, b' ') {
                        Some(s) => state = s,
                        None => break,
                    }
                }
                for byte in norm.bytes() {
                    match self.label_fst.step(state, byte) {
                        Some(s) => state = s,
                        None => break 'outer,
                    }
                }
                emitted = true;
            }
            if wi == 0 && !allow_single {
                continue;
            }
            if !emitted {
                continue;
            }
            if let Some(off) = self.label_fst.value(state) {
                if self.postings_at(off).any(&mut *searchable) {
                    best = Some(wi + 1);
                }
            }
        }
        best
    }

    fn backend(&self) -> &'static str {
        "fst"
    }

    fn resolver_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.label_fst.bytes_len()
            + self.token_fst.bytes_len()
            + self.arena.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::graph::EntityType;
    use crate::label_index::HashLabelIndex;

    fn world() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let who = b.add_node("World Health Organization", EntityType::Organization);
        b.add_alias(who, "WHO");
        b.add_node("Bernie Sanders", EntityType::Person);
        b.add_node("Sanders", EntityType::Person);
        b.add_node("New York City", EntityType::Gpe);
        b.add_node("New York", EntityType::Gpe);
        b.add_node("Köln", EntityType::Gpe);
        b.freeze()
    }

    #[test]
    fn matches_hash_oracle_on_world() {
        let g = world();
        let hash = HashLabelIndex::build(&g);
        let fst = FstLabelIndex::build(&g);
        assert_eq!(hash.surface_count(), fst.surface_count());
        assert_eq!(hash.max_label_tokens(), fst.max_label_tokens());
        for (surface, _) in hash.surface_postings() {
            let h: Vec<_> = hash.exact(&surface).collect();
            let f: Vec<_> = fst.exact(&surface).collect();
            assert_eq!(h, f, "exact({surface:?})");
            assert_eq!(
                hash.candidates(&g, &surface),
                fst.candidates(&g, &surface),
                "candidates({surface:?})"
            );
        }
        for probe in ["york", "new york", "health organization", "nope", "köln"] {
            assert_eq!(hash.candidates(&g, probe), fst.candidates(&g, probe), "{probe}");
        }
    }

    #[test]
    fn packed_postings_decode_deltas() {
        let mut arena = Vec::new();
        let off = write_postings(&mut arena, &[NodeId(3), NodeId(4), NodeId(900)]);
        let got: Vec<NodeId> = PackedPostings::at(&arena, off).collect();
        assert_eq!(got, vec![NodeId(3), NodeId(4), NodeId(900)]);
        assert_eq!(PackedPostings::at(&arena, off).len(), 3);
        // Out-of-bounds offset decodes as empty, not a panic.
        assert_eq!(PackedPostings::at(&arena, 10_000).count(), 0);
    }
}
