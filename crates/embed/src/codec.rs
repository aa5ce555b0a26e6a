//! Binary persistence for subgraph embeddings.
//!
//! Embeddings reference knowledge-graph node ids and interned predicate
//! symbols, so a serialized embedding is only meaningful against the same
//! graph build; callers store a graph fingerprint alongside (see
//! `newslink-core`'s index persistence, which does).

use std::io::{self, Read, Write};

use newslink_kg::{NodeId, Symbol};
use newslink_util::varint;

use crate::model::{CommonAncestorGraph, EmbedEdge};
use crate::union::DocEmbedding;

/// Defensive bound on decoded label length.
const MAX_LABEL_BYTES: usize = 1 << 12;
/// Defensive bound on collection sizes when decoding untrusted data.
const MAX_ITEMS: usize = 1 << 24;

fn read_len<R: Read>(r: &mut R) -> io::Result<usize> {
    let n = varint::read_u64(r)? as usize;
    if n > MAX_ITEMS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "collection length exceeds sanity bound",
        ));
    }
    Ok(n)
}

/// Serialize one group embedding.
fn write_group<W: Write>(g: &CommonAncestorGraph, out: &mut W) -> io::Result<()> {
    varint::write_u32(out, g.root.0)?;
    varint::write_u64(out, g.labels.len() as u64)?;
    for (label, &dist) in g.labels.iter().zip(&g.distances) {
        varint::write_str(out, label)?;
        varint::write_u32(out, dist)?;
    }
    varint::write_u64(out, g.nodes.len() as u64)?;
    let mut prev = 0u32;
    for (i, n) in g.nodes.iter().enumerate() {
        // nodes are sorted: delta-code them
        let delta = if i == 0 { n.0 } else { n.0 - prev };
        varint::write_u32(out, delta)?;
        prev = n.0;
    }
    varint::write_u64(out, g.edges.len() as u64)?;
    for e in &g.edges {
        varint::write_u32(out, e.from.0)?;
        varint::write_u32(out, e.to.0)?;
        varint::write_u32(out, e.predicate.0)?;
        out.write_all(&[u8::from(e.inverse)])?;
    }
    varint::write_u64(out, g.sources.len() as u64)?;
    for srcs in &g.sources {
        varint::write_u64(out, srcs.len() as u64)?;
        for s in srcs {
            varint::write_u32(out, s.0)?;
        }
    }
    Ok(())
}

/// Deserialize one group embedding.
fn read_group<R: Read>(input: &mut R) -> io::Result<CommonAncestorGraph> {
    let root = NodeId(varint::read_u32(input)?);
    let n_labels = read_len(input)?;
    let mut labels = Vec::with_capacity(n_labels);
    let mut distances = Vec::with_capacity(n_labels);
    for _ in 0..n_labels {
        labels.push(varint::read_str(input, MAX_LABEL_BYTES)?);
        distances.push(varint::read_u32(input)?);
    }
    let n_nodes = read_len(input)?;
    let mut nodes = Vec::with_capacity(n_nodes);
    let mut prev = 0u32;
    for i in 0..n_nodes {
        let delta = varint::read_u32(input)?;
        let id = if i == 0 { delta } else {
            prev.checked_add(delta).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "node id overflow")
            })?
        };
        nodes.push(NodeId(id));
        prev = id;
    }
    let n_edges = read_len(input)?;
    let mut edges = Vec::with_capacity(n_edges);
    for _ in 0..n_edges {
        let from = NodeId(varint::read_u32(input)?);
        let to = NodeId(varint::read_u32(input)?);
        let predicate = Symbol(varint::read_u32(input)?);
        let mut inv = [0u8; 1];
        input.read_exact(&mut inv)?;
        edges.push(EmbedEdge {
            from,
            to,
            predicate,
            inverse: inv[0] != 0,
        });
    }
    let n_sources = read_len(input)?;
    let mut sources = Vec::with_capacity(n_sources);
    for _ in 0..n_sources {
        let n = read_len(input)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(NodeId(varint::read_u32(input)?));
        }
        sources.push(v);
    }
    Ok(CommonAncestorGraph {
        root,
        labels,
        distances,
        nodes,
        edges,
        sources,
    })
}

/// Serialize a document embedding (all groups).
pub fn write_embedding<W: Write>(e: &DocEmbedding, out: &mut W) -> io::Result<()> {
    varint::write_u64(out, e.groups.len() as u64)?;
    for g in &e.groups {
        write_group(g, out)?;
    }
    Ok(())
}

/// Deserialize a document embedding.
pub fn read_embedding<R: Read>(input: &mut R) -> io::Result<DocEmbedding> {
    let n = read_len(input)?;
    let mut groups = Vec::with_capacity(n);
    for _ in 0..n {
        groups.push(read_group(input)?);
    }
    Ok(DocEmbedding::new(groups))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{find_lcag, SearchConfig};
    use newslink_kg::{EntityType, GraphBuilder, LabelIndex};

    fn real_embedding() -> DocEmbedding {
        let mut b = GraphBuilder::new();
        let khyber = b.add_node("Khyber", EntityType::Gpe);
        let kunar = b.add_node("Kunar", EntityType::Gpe);
        let taliban = b.add_node("Taliban", EntityType::Organization);
        let pakistan = b.add_node("Pakistan", EntityType::Gpe);
        b.add_edge(taliban, kunar, "operates in", 1);
        b.add_edge(taliban, khyber, "operates in", 1);
        b.add_edge(kunar, khyber, "borders", 1);
        b.add_edge(khyber, pakistan, "located in", 1);
        let g = b.freeze();
        let idx = LabelIndex::build(&g);
        let g1 = find_lcag(
            &g,
            &idx,
            &["taliban".into(), "pakistan".into()],
            &SearchConfig::default(),
        )
        .unwrap();
        let g2 = find_lcag(
            &g,
            &idx,
            &["kunar".into(), "khyber".into()],
            &SearchConfig::default(),
        )
        .unwrap();
        DocEmbedding::new(vec![g1, g2])
    }

    #[test]
    fn group_round_trip_is_exact() {
        let e = real_embedding();
        for g in &e.groups {
            let mut buf = Vec::new();
            write_group(g, &mut buf).unwrap();
            let back = read_group(&mut &buf[..]).unwrap();
            assert_eq!(back.root, g.root);
            assert_eq!(back.labels, g.labels);
            assert_eq!(back.distances, g.distances);
            assert_eq!(back.nodes, g.nodes);
            assert_eq!(back.edges, g.edges);
            assert_eq!(back.sources, g.sources);
        }
    }

    #[test]
    fn embedding_round_trip_preserves_bon_counts() {
        let e = real_embedding();
        let mut buf = Vec::new();
        write_embedding(&e, &mut buf).unwrap();
        let back = read_embedding(&mut &buf[..]).unwrap();
        assert_eq!(back.groups.len(), e.groups.len());
        assert_eq!(back.node_counts(), e.node_counts());
        assert_eq!(back.all_edges(), e.all_edges());
        assert_eq!(back.entity_nodes(), e.entity_nodes());
    }

    #[test]
    fn empty_embedding_round_trips() {
        let e = DocEmbedding::default();
        let mut buf = Vec::new();
        write_embedding(&e, &mut buf).unwrap();
        let back = read_embedding(&mut &buf[..]).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn truncated_embedding_rejected() {
        let e = real_embedding();
        let mut buf = Vec::new();
        write_embedding(&e, &mut buf).unwrap();
        assert!(read_embedding(&mut &buf[..buf.len() / 2]).is_err());
    }

    #[test]
    fn absurd_lengths_rejected() {
        // A crafted stream claiming 2^40 groups must fail fast, not OOM.
        let mut buf = Vec::new();
        newslink_util::varint::write_u64(&mut buf, 1 << 40).unwrap();
        assert!(read_embedding(&mut &buf[..]).is_err());
    }
}
