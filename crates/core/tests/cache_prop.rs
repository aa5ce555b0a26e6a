//! Property tests: the engine caches never change what a search returns.
//!
//! A cache-enabled engine and a cache-disabled engine, run over the same
//! randomized synthetic corpus and query stream, must produce bit-identical
//! rankings and scores — cold, warm, and with the request-level cache
//! bypass.

use proptest::prelude::*;

use newslink_core::{NewsLink, NewsLinkConfig, SearchRequest};
use newslink_kg::{synth, LabelIndex, NodeId, SynthConfig};

fn entity_pool(world: &synth::SynthWorld) -> Vec<NodeId> {
    world
        .countries
        .iter()
        .chain(&world.provinces)
        .chain(&world.cities)
        .chain(&world.people)
        .chain(&world.organizations)
        .copied()
        .collect()
}

/// Deterministic sentences naming 2–3 pooled entities each.
fn synth_docs(world: &synth::SynthWorld, pool: &[NodeId], n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let a = world.graph.label(pool[(i * 3) % pool.len()]);
            let b = world.graph.label(pool[(i * 5 + 1) % pool.len()]);
            let c = world.graph.label(pool[(i * 7 + 2) % pool.len()]);
            format!("Reports said {a} met {b} while unrest spread near {c}.")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn cached_and_uncached_searches_are_bit_identical(
        seed in 0u64..24,
        beta_raw in any::<f64>(),
        qpicks in prop::collection::vec(any::<usize>(), 2..5),
        k in 1usize..8,
    ) {
        let world = synth::generate(&SynthConfig::small(seed));
        let labels = LabelIndex::build(&world.graph);
        let pool = entity_pool(&world);
        prop_assume!(pool.len() >= 4);
        let docs = synth_docs(&world, &pool, 12);

        let beta = beta_raw.abs().fract();
        let cfg = NewsLinkConfig::default().with_beta(beta);
        let cached = NewsLink::new(&world.graph, &labels, cfg.clone());
        let uncached = NewsLink::new(&world.graph, &labels, cfg.without_cache());

        let index_cached = cached.index_corpus(&docs);
        let index_plain = uncached.index_corpus(&docs);
        prop_assert_eq!(index_cached.embedded_docs, index_plain.embedded_docs);
        prop_assert_eq!(index_plain.cache_stats.lookups(), 0);

        let queries: Vec<String> = qpicks
            .iter()
            .map(|&p| {
                let a = world.graph.label(pool[p % pool.len()]);
                let b = world.graph.label(pool[(p / 7 + 1) % pool.len()]);
                format!("news about {a} and {b}")
            })
            .collect();

        for q in &queries {
            let want = uncached.execute(&index_plain, &SearchRequest::new(q).with_k(k));
            // Cold, then warm (query-memo hit), then explicit bypass.
            let cold = cached.execute(&index_cached, &SearchRequest::new(q).with_k(k));
            let warm = cached.execute(&index_cached, &SearchRequest::new(q).with_k(k));
            let bypass = cached.execute(
                &index_cached,
                &SearchRequest::new(q).with_k(k).without_cache(),
            );
            prop_assert!(warm.cache.query_hit);
            prop_assert!(!bypass.cache.enabled);
            for got in [&cold.results, &warm.results, &bypass.results] {
                prop_assert_eq!(got, &want.results, "query {}", q);
            }
        }
    }
}
