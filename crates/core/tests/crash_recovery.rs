//! Fault-injection crash-recovery suite.
//!
//! The durability contract under test, at every injected failure offset:
//!
//! 1. reopening the index **never panics** — every torn or corrupted
//!    byte image produces a typed error or a degraded-but-valid load;
//! 2. every **acknowledged** mutation survives — a WAL append that
//!    returned before the crash is replayed exactly;
//! 3. no **unacknowledged** mutation is half-applied — a torn trailing
//!    record is truncated, never partially decoded;
//! 4. a load that quarantines a corrupt segment still serves queries
//!    over the surviving segments and says so in its [`LoadReport`].
//!
//! Failure shapes come from `newslink_util::failpoint` (deterministic
//! fail-at-byte-N writers) and from byte surgery on real files; crash
//! points are swept *exhaustively* over every offset where that is
//! affordable, and by proptest elsewhere.

use proptest::prelude::*;

use newslink_core::wal::{self, WalRecord, WAL_HEADER_LEN};
use newslink_core::{
    read_newslink_index, read_newslink_index_tolerant, segment_byte_spans,
    write_newslink_index, DurableStore, LoadReport, NewsLink, NewsLinkConfig, NewsLinkIndex,
    SearchRequest,
};
use newslink_kg::{EntityType, GraphBuilder, KnowledgeGraph, LabelIndex};
use newslink_text::DocId;
use newslink_util::failpoint::{FailMode, FailReader, FailWriter};

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

const BASE_DOCS: &[&str] = &[
    "Taliban attacked Kunar. Pakistan responded near Khyber.",
    "Pakistan held talks in Khyber.",
];

/// Mutation texts drawn on by the proptest op sequences.
const EXTRA_DOCS: &[&str] = &[
    "Kabul hosted a trade summit with Pakistan.",
    "Aid convoys reached Kunar after the storm.",
    "Khyber border crossings reopened for trade.",
    "UN observers toured Kabul and Khyber.",
];

fn ids(index: &NewsLinkIndex) -> Vec<DocId> {
    index.doc_ids().collect()
}

/// Assert `a` and `b` hold the same documents and rank a spread of
/// queries bit-identically.
fn assert_equivalent(engine: &NewsLink<'_>, a: &NewsLinkIndex, b: &NewsLinkIndex, label: &str) {
    assert_eq!(ids(a), ids(b), "{label}: doc ids");
    for q in ["Taliban near Kunar", "Pakistan trade", "Khyber aid"] {
        let ra = engine.execute(a, &SearchRequest::new(q).with_k(10));
        let rb = engine.execute(b, &SearchRequest::new(q).with_k(10));
        assert_eq!(ra.results.len(), rb.results.len(), "{label}: query {q}");
        for (x, y) in ra.results.iter().zip(&rb.results) {
            assert_eq!(x.doc, y.doc, "{label}: query {q}");
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "{label}: query {q}");
        }
    }
}

fn temp_dir(tag: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "newslink_crash_recovery_{}_{tag}_{case}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// (1) Sweep every write offset of a snapshot: a crash mid-write leaves
/// a prefix, and reading that prefix back must error (strict) or load a
/// valid subset (tolerant) — never panic, never fabricate documents.
#[test]
fn snapshot_write_crash_at_every_offset_never_panics() {
    let (g, li) = world();
    let engine = NewsLink::new(
        &g,
        &li,
        NewsLinkConfig::default().with_segment_docs(1),
    );
    let index = engine.index_corpus(BASE_DOCS);
    let mut full = Vec::new();
    write_newslink_index(&index, &g, &mut full).unwrap();
    let original_ids = ids(&index);

    for budget in 0..full.len() {
        let mut w = FailWriter::new(Vec::new(), budget as u64, FailMode::ShortWrite);
        let err = write_newslink_index(&index, &g, &mut w)
            .expect_err("write must observe the injected failure");
        assert!(err.to_string().contains("failpoint"), "budget {budget}: {err}");
        let torn = w.into_inner();
        assert_eq!(torn[..], full[..budget], "failpoint must tear, not scramble");

        // Strict load: always a typed error, never a panic.
        assert!(
            read_newslink_index(&g, &mut &torn[..]).is_err(),
            "budget {budget}: a torn snapshot must never load strictly"
        );
        // Tolerant load: an error, or a valid subset of the documents.
        if let Ok((loaded, report)) = read_newslink_index_tolerant(&g, &mut &torn[..]) {
            let loaded_ids = ids(&loaded);
            for id in &loaded_ids {
                assert!(original_ids.contains(id), "budget {budget}: invented doc {id:?}");
            }
            assert!(
                loaded_ids.len() < original_ids.len(),
                "budget {budget}: a torn image cannot hold every document"
            );
            assert!(report.degraded(), "budget {budget}: loss must be reported");
            // The survivors still answer queries.
            let _ = engine.execute(&loaded, &SearchRequest::new("Pakistan talks").with_k(5));
        }
    }
    // The full budget writes cleanly and loads cleanly.
    let mut w = FailWriter::new(Vec::new(), full.len() as u64, FailMode::ShortWrite);
    write_newslink_index(&index, &g, &mut w).unwrap();
    let back = read_newslink_index(&g, &mut &w.into_inner()[..]).unwrap();
    assert_equivalent(&engine, &index, &back, "full write");
}

/// (1b) The read side of the same sweep: media that dies after N bytes
/// yields a typed error at every N.
#[test]
fn snapshot_read_failure_at_every_offset_is_typed() {
    let (g, li) = world();
    let engine = NewsLink::new(&g, &li, NewsLinkConfig::default());
    let index = engine.index_corpus(BASE_DOCS);
    let mut full = Vec::new();
    write_newslink_index(&index, &g, &mut full).unwrap();
    for budget in 0..full.len() {
        let mut r = FailReader::new(&full[..], budget as u64);
        assert!(
            read_newslink_index(&g, &mut r).is_err(),
            "read failing at byte {budget} must surface as an error"
        );
    }
}

/// (2)+(3) Sweep every WAL byte offset: snapshot + a WAL image cut at
/// every length must recover exactly the acknowledged (whole-frame)
/// mutations — bit-identical to a reference index that applied just
/// those — and nothing of the torn tail.
#[test]
fn wal_crash_at_every_offset_recovers_exactly_the_acked_mutations() {
    let (g, li) = world();
    let engine = NewsLink::new(&g, &li, NewsLinkConfig::default());
    let base = engine.index_corpus(BASE_DOCS);
    let mut snapshot = Vec::new();
    write_newslink_index(&base, &g, &mut snapshot).unwrap();

    // The mutation sequence: two inserts, a delete of a base doc, a
    // delete of a live insert, one more insert.
    let records = vec![
        WalRecord::Insert { id: 2, text: EXTRA_DOCS[0].to_string() },
        WalRecord::Insert { id: 3, text: EXTRA_DOCS[1].to_string() },
        WalRecord::Delete { id: 0 },
        WalRecord::Delete { id: 3 },
        WalRecord::Insert { id: 4, text: EXTRA_DOCS[2].to_string() },
    ];
    let mut image = Vec::new();
    image.extend_from_slice(wal::WAL_MAGIC);
    image.push(wal::WAL_VERSION);
    let mut frame_ends = vec![WAL_HEADER_LEN];
    for r in &records {
        wal::encode_record(&mut image, r);
        frame_ends.push(image.len() as u64);
    }

    // Reference states: base + first k mutations, for every k.
    let reference: Vec<NewsLinkIndex> = (0..=records.len())
        .map(|k| {
            let mut idx = read_newslink_index(&g, &mut &snapshot[..]).unwrap();
            for r in &records[..k] {
                assert!(engine.replay_wal(&mut idx, r).unwrap(), "reference apply {r:?}");
            }
            idx
        })
        .collect();

    for cut in 0..=image.len() {
        let scanned = wal::scan(&image[..cut]);
        if cut < WAL_HEADER_LEN as usize {
            assert!(!scanned.header_ok, "cut {cut}");
            continue;
        }
        // Acked records = frames wholly on disk at the crash point.
        let acked = frame_ends.iter().filter(|&&e| e <= cut as u64).count() - 1;
        assert_eq!(scanned.records.len(), acked, "cut {cut}");
        let mut recovered = read_newslink_index(&g, &mut &snapshot[..]).unwrap();
        let mut replayed = 0;
        for r in &scanned.records {
            if engine.replay_wal(&mut recovered, r).unwrap() {
                replayed += 1;
            }
        }
        assert_eq!(replayed, acked, "cut {cut}: every acked record applies");
        assert_equivalent(&engine, &recovered, &reference[acked], &format!("cut {cut}"));
    }
}

/// (4) Degraded load end-to-end through [`DurableStore`]: corrupt one
/// segment on disk, reopen, and the store serves the survivors, reports
/// the quarantine, and still replays the WAL on top.
#[test]
fn degraded_store_serves_survivors_and_replays_wal() {
    let (g, li) = world();
    let engine = NewsLink::new(
        &g,
        &li,
        NewsLinkConfig::default().with_segment_docs(1).with_max_segments(64),
    );
    let dir = temp_dir("degraded", 0);
    {
        let (mut store, mut index) =
            DurableStore::open(&engine, &dir, || engine.index_corpus(BASE_DOCS)).unwrap();
        // One WAL-logged insert that must survive the corruption below.
        let id = engine.insert_document(&mut index, EXTRA_DOCS[0]);
        store.log_insert(id, EXTRA_DOCS[0]).unwrap();
    }
    // Flip one byte in the middle of segment 1's v4 section (doc 1).
    let snap_path = dir.join("index.nlnk");
    let mut bytes = std::fs::read(&snap_path).unwrap();
    let spans = segment_byte_spans(&bytes).unwrap();
    assert!(spans.len() >= 2, "at least two segment sections");
    let (start, end) = spans[1];
    bytes[(start + end) / 2] ^= 0x20;
    std::fs::write(&snap_path, &bytes).unwrap();

    let (store, index) = DurableStore::open(&engine, &dir, || unreachable!()).unwrap();
    let report = store.report();
    assert!(report.degraded());
    assert_eq!(report.quarantined_segments, 1);
    assert_eq!(report.wal_records_replayed, 1, "the logged insert came back");
    assert!(ids(&index).contains(&DocId(0)));
    assert!(!ids(&index).contains(&DocId(1)), "doc 1 was quarantined");
    assert!(ids(&index).contains(&DocId(2)), "WAL insert replayed");
    let out = engine.execute(&index, &SearchRequest::new("Taliban near Kunar").with_k(5));
    assert!(out.results.iter().any(|r| r.doc == DocId(0)));
    // Degraded opens never auto-checkpoint (the damaged snapshot is
    // operator evidence): the corrupted bytes are still on disk.
    assert_eq!(std::fs::read(&snap_path).unwrap(), bytes);
    std::fs::remove_dir_all(&dir).ok();
}

#[derive(Debug, Clone)]
enum Op {
    Insert(usize),
    Delete(u32),
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0usize..2, 0usize..8), 1..8).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, n)| match kind {
                0 => Op::Insert(n % EXTRA_DOCS.len()),
                _ => Op::Delete(n as u32),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end through real files: a random acknowledged op sequence,
    /// then a crash that tears a random prefix of one further
    /// (unacknowledged) append. Reopen must restore exactly the
    /// acknowledged state.
    #[test]
    fn durable_store_round_trip_under_torn_append(
        ops in ops_strategy(),
        torn_insert in 0..EXTRA_DOCS.len(),
        tear_frac in 0.0f64..1.0,
        case in 0u64..u64::MAX,
    ) {
        let (g, li) = world();
        let engine = NewsLink::new(&g, &li, NewsLinkConfig::default());
        let dir = temp_dir("prop", case);

        // Apply + acknowledge the op sequence through the serve
        // discipline: deletes log first, inserts log after applying.
        let mut acked: Vec<WalRecord> = Vec::new();
        let expected_ids;
        {
            let (mut store, mut index) =
                DurableStore::open(&engine, &dir, || engine.index_corpus(BASE_DOCS)).unwrap();
            for op in &ops {
                match op {
                    Op::Insert(w) => {
                        let text = EXTRA_DOCS[*w];
                        let id = engine.insert_document(&mut index, text);
                        store.log_insert(id, text).unwrap();
                        acked.push(WalRecord::Insert { id: id.0, text: text.to_string() });
                    }
                    Op::Delete(id) => {
                        store.log_delete(DocId(*id)).unwrap();
                        engine.delete_document(&mut index, DocId(*id));
                        acked.push(WalRecord::Delete { id: *id });
                    }
                }
            }
            expected_ids = ids(&index);
            // Crash now: the store drops with the WAL un-checkpointed.
        }

        // One more append begins but the process dies mid-write: a
        // prefix of the frame reaches the disk, the ack never happens.
        let next_id = expected_ids.iter().map(|d| d.0 + 1).max().unwrap_or(2).max(2);
        let mut frame = Vec::new();
        wal::encode_record(&mut frame, &WalRecord::Insert {
            id: next_id,
            text: EXTRA_DOCS[torn_insert].to_string(),
        });
        // Tear strictly inside the frame so the record stays unacked.
        let keep = ((frame.len() as f64 * tear_frac) as usize).min(frame.len() - 1);
        if keep > 0 {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join("wal.log"))
                .unwrap();
            f.write_all(&frame[..keep]).unwrap();
        }

        // Reopen: acknowledged state exactly, torn tail measured + gone.
        let (store, recovered) = DurableStore::open(&engine, &dir, || unreachable!()).unwrap();
        prop_assert_eq!(ids(&recovered), expected_ids.clone(), "acked docs survive");
        prop_assert_eq!(store.report().wal_truncated_bytes, keep as u64);
        prop_assert!(
            !ids(&recovered).contains(&DocId(next_id)),
            "the unacknowledged insert must not be half-applied"
        );
        prop_assert!(!store.report().degraded());

        // The recovered index is bit-identical to a reference that
        // replays the acked records over a fresh base build.
        let mut reference = engine.index_corpus(BASE_DOCS);
        for r in &acked {
            engine.replay_wal(&mut reference, r).unwrap();
        }
        assert_equivalent(&engine, &recovered, &reference, "recovered vs reference");

        // And the store remains writable after recovery.
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// (2)+(3) for the *error-then-continue* shape (not crash): an append
/// fails partway — the server answers 500 and keeps running — and later
/// appends must still land after the acknowledged prefix. Sweeps every
/// record position, every byte offset within its frame, and both
/// failure modes; also the fsync-failed-but-fully-written case at each
/// position. The final image must scan to exactly the acknowledged
/// records, in order, with no torn bytes.
#[test]
fn wal_append_error_at_every_offset_keeps_later_appends_safe() {
    use newslink_util::failpoint::FaultMedia;
    use newslink_core::wal::Wal;

    let records = [
        WalRecord::Insert { id: 2, text: EXTRA_DOCS[0].to_string() },
        WalRecord::Delete { id: 0 },
        WalRecord::Insert { id: 3, text: EXTRA_DOCS[1].to_string() },
        WalRecord::Insert { id: 4, text: EXTRA_DOCS[2].to_string() },
    ];

    for victim in 0..records.len() {
        let mut frame = Vec::new();
        wal::encode_record(&mut frame, &records[victim]);
        // One failure shape per (offset, mode), plus the fsync-only one.
        let mut shapes: Vec<(Option<u64>, FailMode)> = (0..frame.len() as u64)
            .flat_map(|cut| {
                [(Some(cut), FailMode::Clean), (Some(cut), FailMode::ShortWrite)]
            })
            .collect();
        shapes.push((None, FailMode::Clean)); // write ok, fsync fails

        for (cut, mode) in shapes {
            let label = format!("victim {victim}, cut {cut:?}, mode {mode:?}");
            let mut wal = Wal::over(FaultMedia::new()).unwrap();
            let mut acked: Vec<WalRecord> = Vec::new();
            for r in &records[..victim] {
                wal.append(r).unwrap();
                acked.push(r.clone());
            }
            match cut {
                Some(cut) => wal.storage_mut().fail_write_after(cut, mode),
                None => wal.storage_mut().fail_next_sync(),
            }
            let err = wal.append(&records[victim]).unwrap_err();
            assert!(
                err.to_string().contains("failpoint"),
                "{label}: injected, not real: {err}"
            );
            assert!(!wal.is_poisoned(), "{label}: transient failure repairs");
            // The server keeps serving: the remaining mutations are
            // appended and acknowledged.
            for r in &records[victim + 1..] {
                wal.append(r).unwrap();
                acked.push(r.clone());
            }
            let scanned = wal::scan(wal.storage().contents());
            assert_eq!(scanned.records, acked, "{label}: exactly the acked records");
            assert_eq!(scanned.torn_bytes, 0, "{label}: no garbage mid-file");
        }
    }
}

/// The WAL image itself, under exhaustive single-byte corruption: scan
/// recovers a prefix of the original records, never an invented or
/// reordered one. (Exhaustive flips live in `core::wal` unit tests;
/// this pins the same guarantee for multi-record images built through
/// the public API.)
#[test]
fn wal_scan_survives_every_single_byte_flip() {
    let records = vec![
        WalRecord::Insert { id: 2, text: EXTRA_DOCS[0].to_string() },
        WalRecord::Delete { id: 0 },
        WalRecord::Insert { id: 3, text: EXTRA_DOCS[3].to_string() },
    ];
    let mut image = Vec::new();
    image.extend_from_slice(wal::WAL_MAGIC);
    image.push(wal::WAL_VERSION);
    for r in &records {
        wal::encode_record(&mut image, r);
    }
    for at in WAL_HEADER_LEN as usize..image.len() {
        let mut bad = image.clone();
        bad[at] ^= 0x04;
        let scanned = wal::scan(&bad);
        assert_eq!(
            scanned.records[..],
            records[..scanned.records.len()],
            "flip at {at}: recovered records must be a strict prefix"
        );
    }
}

/// `LoadReport::degraded` is the single bit serve keys /healthz off of.
#[test]
fn load_report_degraded_tracks_quarantine_only() {
    let clean = LoadReport {
        segments_loaded: 4,
        wal_records_replayed: 7,
        wal_truncated_bytes: 123,
        ..LoadReport::default()
    };
    assert!(!clean.degraded(), "replay + truncation are normal recovery");
    let lossy = LoadReport {
        quarantined_segments: 1,
        ..clean
    };
    assert!(lossy.degraded());
}
