//! Property tests: the [`EmbeddingCache`] group memo is a pure
//! memoization — cached, warm-cached and uncached group embeddings are
//! bit-identical on randomized synthetic worlds, successes and errors
//! alike, for both models.

use proptest::prelude::*;

use newslink_embed::{
    find_lcag, find_tree_embedding, CachedModel, CommonAncestorGraph, EmbedError, EmbeddingCache,
    SearchConfig,
};
use newslink_kg::{synth, LabelIndex, NodeId, SynthConfig};

fn assert_same_graph(a: &CommonAncestorGraph, b: &CommonAncestorGraph) {
    assert_eq!(a.root, b.root, "root");
    assert_eq!(a.labels, b.labels, "labels");
    assert_eq!(a.distances, b.distances, "distances");
    assert_eq!(a.nodes, b.nodes, "nodes");
    assert_eq!(a.edges, b.edges, "edges");
    assert_eq!(a.sources, b.sources, "sources");
}

fn assert_same(
    a: &Result<CommonAncestorGraph, EmbedError>,
    b: &Result<CommonAncestorGraph, EmbedError>,
) {
    match (a, b) {
        (Ok(x), Ok(y)) => assert_same_graph(x, y),
        (Err(x), Err(y)) => assert_eq!(x, y, "error payload"),
        _ => panic!("cached/uncached disagree on success: {a:?} vs {b:?}"),
    }
}

/// Entity nodes worth naming in a query group.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cached_group_embedding_matches_uncached(
        seed in 0u64..64,
        picks in prop::collection::vec(any::<usize>(), 1..5),
        tight_budget in any::<bool>(),
        single_path in any::<bool>(),
    ) {
        let world = synth::generate(&SynthConfig::small(seed));
        let index = LabelIndex::build(&world.graph);
        let pool = entity_pool(&world);
        prop_assume!(!pool.is_empty());
        let labels: Vec<String> = picks
            .iter()
            .map(|&p| world.graph.label(pool[p % pool.len()]).to_string())
            .collect();

        // A binding settled budget truncates the search and `single_path`
        // narrows the DAG; the memo must reproduce both bit-identically.
        let config = SearchConfig {
            max_settled: if tight_budget { 64 } else { 200_000 },
            single_path,
            ..SearchConfig::default()
        };
        let cache = EmbeddingCache::new(128, 128);

        for model in [CachedModel::Lcag, CachedModel::Tree] {
            let uncached = match model {
                CachedModel::Lcag => find_lcag(&world.graph, &index, &labels, &config),
                CachedModel::Tree => {
                    find_tree_embedding(&world.graph, &index, &labels, &config)
                }
            };
            let cold = cache.embed_group(&world.graph, &index, &labels, &config, model);
            assert_same(&cold, &uncached);
            let warm = cache.embed_group(&world.graph, &index, &labels, &config, model);
            assert_same(&warm, &uncached);
        }
        prop_assert!(cache.group_stats().hits >= 2, "warm pass must hit the memo");
    }
}
