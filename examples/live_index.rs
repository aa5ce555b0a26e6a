//! Operating NewsLink as a *running service*: incremental indexing with
//! Lucene-style segments, deletions, merges — and full-index persistence
//! so a built NewsLink index survives restarts.
//!
//! Run with: `cargo run --release --example live_index`

use newslink::core::{
    load_newslink_index, save_newslink_index, NewsLink, NewsLinkConfig, SearchRequest,
};
use newslink::kg::{synth, LabelIndex, SynthConfig};

fn main() {
    // --- Part 1: a live segmented index -----------------------------------
    println!("== live segmented index ==");
    let world = synth::generate(&SynthConfig::small(99));
    let labels = LabelIndex::build(&world.graph);
    let live = NewsLink::new(
        &world.graph,
        &labels,
        NewsLinkConfig::default().with_max_segments(3),
    );
    let mut index = live.index_corpus(&[
        "Taliban attack shakes the Khyber region",
        "Election results announced in the capital",
    ]);
    let ids: Vec<_> = index.doc_ids().collect();
    let (id_a, id_b) = (ids[0], ids[1]);
    println!(
        "after the build: {} docs in {} segment(s)",
        index.doc_count(),
        index.segment_count()
    );
    // A late correction: the election story is retracted.
    assert!(live.delete_document(&mut index, id_b));
    // A stream of follow-ups arrives; every insert seals its own segment
    // and compacts back under the ceiling.
    for i in 0..6 {
        live.insert_document(
            &mut index,
            &format!("Follow-up {i}: authorities in Khyber said the investigation continues"),
        );
    }
    println!(
        "after follow-ups: {} docs in {} segment(s) (merge policy capped)",
        index.doc_count(),
        index.segment_count()
    );
    assert!(index.segment_count() <= 3);
    let hits = live.execute(&index, &SearchRequest::new("khyber attack").with_k(3)).results;
    println!("top hits for 'khyber attack':");
    for hit in &hits {
        println!("  doc {} score {:.3}", hit.doc.0, hit.score);
    }
    assert_eq!(hits[0].doc, id_a);
    let everything = live
        .execute(&index, &SearchRequest::new("election results capital khyber").with_k(10))
        .results;
    assert!(everything.iter().all(|h| h.doc != id_b), "retracted doc ranked");

    // --- Part 2: persist a full NewsLink index ---------------------------
    println!("\n== NewsLink index persistence ==");
    let engine = NewsLink::new(&world.graph, &labels, NewsLinkConfig::default());
    let country = world.graph.label(world.countries[0]);
    let docs: Vec<String> = (0..50)
        .map(|i| format!("Story {i} about developments in {country} and beyond."))
        .collect();
    let index = engine.index_corpus(&docs);

    let path = std::env::temp_dir().join("newslink_example_index.nlnk");
    save_newslink_index(&index, &world.graph, &path).expect("save");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!("saved index for {} docs ({bytes} bytes)", index.doc_count());

    let restored = load_newslink_index(&world.graph, &path).expect("load");
    let request = SearchRequest::new(format!("news about {country}")).with_k(3);
    let fresh = engine.execute(&index, &request);
    let reloaded = engine.execute(&restored, &request);
    assert_eq!(
        fresh.results.iter().map(|r| r.doc).collect::<Vec<_>>(),
        reloaded.results.iter().map(|r| r.doc).collect::<Vec<_>>()
    );
    println!(
        "restored index answers identically: top doc {} (score {:.3})",
        reloaded.results[0].doc.0, reloaded.results[0].score
    );
    std::fs::remove_file(&path).ok();
}
