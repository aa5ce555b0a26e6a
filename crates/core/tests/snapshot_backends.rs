//! Load-path, corruption and upgrade suite for the snapshot format.
//!
//! Contracts under test:
//!
//! 1. a snapshot loaded the way a server loads it
//!    ([`DurableStore::open`]: read into the heap, decoded by the one
//!    validating decoder) ranks **bit-identically** to the index it was
//!    written from;
//! 2. flipping bytes inside a segment section never panics and never
//!    fabricates documents: a corrupt section is quarantined in tolerant
//!    mode (degraded [`LoadReport`]) and is a typed error in strict mode,
//!    at every probed byte offset of every section;
//! 3. a data directory written by an older release (version byte 3) is
//!    refused with a typed [`PersistError::UnsupportedVersion`], and the
//!    file is left untouched — no checkpoint overwrites it.
//!
//! [`LoadReport`]: newslink_core::LoadReport

use newslink_core::{
    read_newslink_index, read_newslink_index_tolerant, segment_byte_spans, DurableStore, NewsLink,
    NewsLinkConfig, NewsLinkIndex, PersistError, SearchRequest,
};
use newslink_kg::{EntityType, GraphBuilder, KnowledgeGraph, LabelIndex};
use newslink_text::DocId;

fn world() -> (KnowledgeGraph, LabelIndex) {
    let mut b = GraphBuilder::new();
    let khyber = b.add_node("Khyber", EntityType::Gpe);
    let kunar = b.add_node("Kunar", EntityType::Gpe);
    let taliban = b.add_node("Taliban", EntityType::Organization);
    let pakistan = b.add_node("Pakistan", EntityType::Gpe);
    let kabul = b.add_node("Kabul", EntityType::Gpe);
    b.add_edge(kunar, khyber, "borders", 1);
    b.add_edge(taliban, kunar, "operates in", 1);
    b.add_edge(khyber, pakistan, "located in", 1);
    b.add_edge(kabul, pakistan, "trades with", 2);
    let g = b.freeze();
    let idx = LabelIndex::build(&g);
    (g, idx)
}

const DOCS: &[&str] = &[
    "Taliban attacked Kunar. Pakistan responded near Khyber.",
    "Pakistan held talks in Khyber.",
    "Kabul hosted a trade summit with Pakistan.",
];

fn ids(index: &NewsLinkIndex) -> Vec<DocId> {
    index.doc_ids().collect()
}

fn assert_bit_identical(
    engine: &NewsLink<'_>,
    a: &NewsLinkIndex,
    b: &NewsLinkIndex,
    label: &str,
) {
    assert_eq!(ids(a), ids(b), "{label}: doc ids");
    for q in ["Taliban near Kunar", "Pakistan trade", "Khyber summit"] {
        let ra = engine.execute(a, &SearchRequest::new(q).with_k(10));
        let rb = engine.execute(b, &SearchRequest::new(q).with_k(10));
        assert_eq!(ra.results.len(), rb.results.len(), "{label}: query {q}");
        for (x, y) in ra.results.iter().zip(&rb.results) {
            assert_eq!(x.doc, y.doc, "{label}: query {q}");
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "{label}: query {q}");
        }
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "newslink_snapshot_backends_{}_{tag}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A snapshot opened through the durable store loads clean and ranks
/// bit-identically to the index it was written from.
#[test]
fn loaded_snapshot_ranks_bit_identically_to_reference() {
    let (g, li) = world();
    let engine = NewsLink::new(
        &g,
        &li,
        NewsLinkConfig::default().with_segment_docs(1).with_max_segments(64),
    );
    let reference = engine.index_corpus(DOCS);
    let dir = temp_dir("parity");
    std::fs::create_dir_all(&dir).unwrap();
    newslink_core::save_newslink_index(&reference, &g, &dir.join("index.nlnk")).unwrap();

    let (store, loaded) = DurableStore::open(&engine, &dir, || unreachable!()).unwrap();
    assert!(!store.report().degraded());
    assert_eq!(store.report().segments_loaded, DOCS.len());
    assert_bit_identical(&engine, &reference, &loaded, "reference vs loaded");
    std::fs::remove_dir_all(&dir).ok();
}

/// Corruption sweep: flip bytes of every segment section in turn; the
/// tolerant load must quarantine exactly that section (never panic,
/// never invent documents), and the strict load must error.
#[test]
fn every_section_byte_flip_quarantines_without_panic() {
    let (g, li) = world();
    let engine = NewsLink::new(
        &g,
        &li,
        NewsLinkConfig::default().with_segment_docs(1).with_max_segments(64),
    );
    let reference = engine.index_corpus(DOCS);
    let mut pristine = Vec::new();
    newslink_core::write_newslink_index(&reference, &g, &mut pristine).unwrap();
    let spans = segment_byte_spans(&pristine).unwrap();
    let all_ids = ids(&reference);

    for (si, &(start, end)) in spans.iter().enumerate() {
        // Striding keeps the sweep fast while still probing headers,
        // tables, posting data and the doc-store blob of each section.
        for at in (start..end).step_by(7).chain([end - 1]) {
            let mut bytes = pristine.clone();
            bytes[at] ^= 0xA5;

            // Strict: typed error, never a panic.
            let strict = read_newslink_index(&g, &mut &bytes[..]);
            assert!(strict.is_err(), "section {si} byte {at}: strict must fail");

            // Tolerant: exactly that section quarantined; survivors and
            // their scores are untouched.
            let (index, report) = read_newslink_index_tolerant(&g, &mut &bytes[..])
                .unwrap_or_else(|e| panic!("section {si} byte {at}: tolerant load failed: {e}"));
            assert!(report.degraded(), "section {si} byte {at}");
            assert_eq!(report.quarantined_segments, 1, "section {si} byte {at}");
            let survivors = ids(&index);
            let expected: Vec<DocId> = all_ids
                .iter()
                .copied()
                .filter(|d| d.index() != si)
                .collect();
            assert_eq!(survivors, expected, "section {si} byte {at}");
            let out = engine.execute(&index, &SearchRequest::new("Pakistan trade").with_k(10));
            for hit in &out.results {
                assert_ne!(hit.doc.index(), si, "quarantined doc must not rank");
            }
        }
    }
}

/// An old data directory (its snapshot's version byte is 3) fails the
/// open with a typed error, never panics, never runs the seed, and never
/// checkpoints over the file it could not read.
#[test]
fn v3_data_dir_is_refused_typed_and_untouched() {
    let (g, li) = world();
    let engine = NewsLink::new(&g, &li, NewsLinkConfig::default().with_segment_docs(1));
    let reference = engine.index_corpus(DOCS);
    let dir = temp_dir("v3dir");
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("index.nlnk");
    newslink_core::save_newslink_index(&reference, &g, &snap).unwrap();
    let mut old = std::fs::read(&snap).unwrap();
    old[4] = 3;
    std::fs::write(&snap, &old).unwrap();

    match DurableStore::open(&engine, &dir, || unreachable!()) {
        Err(err @ PersistError::UnsupportedVersion(3)) => {
            assert!(err.to_string().contains("this build reads 4"), "{err}");
        }
        Err(other) => panic!("expected UnsupportedVersion(3), got {other}"),
        Ok(_) => panic!("a version-3 snapshot must not open"),
    }
    assert_eq!(
        std::fs::read(&snap).unwrap(),
        old,
        "the refused snapshot must be left byte-identical"
    );
    std::fs::remove_dir_all(&dir).ok();
}
