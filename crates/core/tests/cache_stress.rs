//! Concurrency stress: one engine's caches hammered simultaneously by
//! corpus indexing (crossbeam workers) and batch search (scoped threads),
//! with capacities tiny enough to force constant eviction. Every result
//! must still match a cache-disabled reference engine.

use newslink_core::{CacheConfig, NewsLink, NewsLinkConfig, SearchRequest};
use newslink_kg::{synth, LabelIndex, SynthConfig};

#[test]
fn concurrent_indexing_and_search_under_eviction_pressure() {
    let world = synth::generate(&SynthConfig::small(11));
    let labels = LabelIndex::build(&world.graph);
    let pool: Vec<_> = world
        .countries
        .iter()
        .chain(&world.provinces)
        .chain(&world.cities)
        .chain(&world.people)
        .chain(&world.organizations)
        .copied()
        .collect();
    assert!(pool.len() >= 8);

    // Enough distinct entity groups to overflow a 4-entry group memo.
    let docs: Vec<String> = (0..16)
        .map(|i| {
            let a = world.graph.label(pool[(i * 3) % pool.len()]);
            let b = world.graph.label(pool[(i * 5 + 1) % pool.len()]);
            format!("Clashes involving {a} were reported close to {b}.")
        })
        .collect();
    let queries: Vec<String> = (0..6)
        .map(|i| {
            let a = world.graph.label(pool[(i * 11 + 2) % pool.len()]);
            format!("latest developments around {a}")
        })
        .collect();

    let tiny = CacheConfig {
        enabled: true,
        group_capacity: 4,
        query_capacity: 2,
        ..CacheConfig::default()
    };
    let cfg = NewsLinkConfig::default().with_threads(2).with_cache(tiny);
    let engine = NewsLink::new(&world.graph, &labels, cfg.clone());
    let reference = NewsLink::new(&world.graph, &labels, cfg.without_cache());

    let ref_index = reference.index_corpus(&docs);
    let expected: Vec<_> = queries
        .iter()
        .map(|q| reference.execute(&ref_index, &SearchRequest::new(q).with_k(5)).results)
        .collect();

    // 4 workers × 3 rounds, each round indexing the corpus (which fans
    // out to crossbeam workers internally) and batch-searching it (scoped
    // threads), all through the same shared caches.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..3 {
                    let index = engine.index_corpus(&docs);
                    assert_eq!(index.embedded_docs, ref_index.embedded_docs);
                    let requests: Vec<SearchRequest> =
                        queries.iter().map(|q| SearchRequest::new(q).with_k(5)).collect();
                    let batch = engine.execute_batch(&index, &requests);
                    for (response, want) in batch.responses.iter().zip(&expected) {
                        assert_eq!(&response.results, want);
                    }
                }
            });
        }
    });

    let stats = engine.cache_stats();
    assert!(stats.combined().lookups() > 0, "caches were never consulted");
    assert!(
        stats.groups.evictions > 0,
        "tiny group capacity must evict under this load: {stats:?}"
    );
    assert!(stats.groups.hits > 0, "repeat groups must hit");
}
