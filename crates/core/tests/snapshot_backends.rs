//! Storage-backend parity, mapped-corruption and upgrade suite for the
//! snapshot format.
//!
//! Contracts under test:
//!
//! 1. both storage backends ([`StorageBackend::Heap`] and
//!    [`StorageBackend::Mmap`]) produce **bit-identical** indexes from
//!    the same snapshot file;
//! 2. flipping bytes inside a **memory-mapped** block never panics and
//!    never fabricates documents: a corrupt section is quarantined in
//!    tolerant mode (degraded [`LoadReport`]) and is a typed error in
//!    strict mode, at every byte offset of every section;
//! 3. a data directory written by an older release (version byte 3) is
//!    refused with a typed [`PersistError::UnsupportedVersion`] on
//!    either backend, and the file is left untouched — no checkpoint
//!    overwrites it.
//!
//! [`LoadReport`]: newslink_core::LoadReport

use newslink_core::{
    segment_byte_spans, DurableStore, FsDirectory, MmapSegmentReader, NewsLink,
    NewsLinkConfig, NewsLinkIndex, PersistError, SearchRequest, SegmentReader, StorageBackend,
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

/// The same snapshot file read through the heap and mmap backends yields
/// bit-identical indexes.
#[test]
fn heap_and_mmap_backends_agree_bit_for_bit() {
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

    let fs = FsDirectory::create(&dir).unwrap();
    let mut loaded = Vec::new();
    for backend in [StorageBackend::Heap, StorageBackend::Mmap] {
        let (index, report) = backend
            .reader()
            .read_snapshot(&fs, "index.nlnk", &g, false)
            .unwrap_or_else(|e| panic!("{backend}: {e}"));
        assert!(!report.degraded(), "{backend}");
        loaded.push(index);
    }
    let (heap, mmap) = (&loaded[0], &loaded[1]);
    assert_bit_identical(&engine, heap, mmap, "heap vs mmap");
    assert_bit_identical(&engine, &reference, mmap, "reference vs mmap");
    std::fs::remove_dir_all(&dir).ok();
}

/// Corrupted-mapping sweep: flip every byte of every mapped segment
/// section in turn; the tolerant mmap load must quarantine (never
/// panic, never invent documents), and the strict load must error.
#[test]
fn every_mapped_section_byte_flip_quarantines_without_panic() {
    let (g, li) = world();
    let engine = NewsLink::new(
        &g,
        &li,
        NewsLinkConfig::default().with_segment_docs(1).with_max_segments(64),
    );
    let reference = engine.index_corpus(DOCS);
    let dir = temp_dir("flip");
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("index.nlnk");
    newslink_core::save_newslink_index(&reference, &g, &snap).unwrap();
    let pristine = std::fs::read(&snap).unwrap();
    let spans = segment_byte_spans(&pristine).unwrap();
    let all_ids = ids(&reference);

    let fs = FsDirectory::create(&dir).unwrap();
    let reader = MmapSegmentReader;
    for (si, &(start, end)) in spans.iter().enumerate() {
        // Striding keeps the sweep fast while still probing headers,
        // tables, posting data and the doc-store blob of each section.
        for at in (start..end).step_by(7).chain([end - 1]) {
            let mut bytes = pristine.clone();
            bytes[at] ^= 0xA5;
            std::fs::write(&snap, &bytes).unwrap();

            // Strict: typed error, never a panic.
            let strict = reader.read_snapshot(&fs, "index.nlnk", &g, false);
            assert!(strict.is_err(), "section {si} byte {at}: strict must fail");

            // Tolerant: exactly that section quarantined; survivors and
            // their scores are untouched.
            let (index, report) = reader
                .read_snapshot(&fs, "index.nlnk", &g, true)
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
    std::fs::remove_dir_all(&dir).ok();
}

/// An old data directory (its snapshot's version byte is 3) fails the
/// open with a typed error on both backends, never panics, never runs
/// the seed, and never checkpoints over the file it could not read.
#[test]
fn v3_data_dir_is_refused_typed_and_untouched() {
    let (g, li) = world();
    let engine = NewsLink::new(&g, &li, NewsLinkConfig::default().with_segment_docs(1));
    let reference = engine.index_corpus(DOCS);
    for backend in [StorageBackend::Heap, StorageBackend::Mmap] {
        let dir = temp_dir(&format!("v3dir_{backend}"));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("index.nlnk");
        newslink_core::save_newslink_index(&reference, &g, &snap).unwrap();
        let mut old = std::fs::read(&snap).unwrap();
        old[4] = 3;
        std::fs::write(&snap, &old).unwrap();

        match DurableStore::open_with(&engine, &dir, backend, || unreachable!()) {
            Err(err @ PersistError::UnsupportedVersion(3)) => {
                assert!(err.to_string().contains("this build reads 4"), "{backend}: {err}");
            }
            Err(other) => panic!("{backend}: expected UnsupportedVersion(3), got {other}"),
            Ok(_) => panic!("{backend}: a version-3 snapshot must not open"),
        }
        assert_eq!(
            std::fs::read(&snap).unwrap(),
            old,
            "{backend}: the refused snapshot must be left byte-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
