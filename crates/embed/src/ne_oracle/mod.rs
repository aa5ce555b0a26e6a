//! The NE oracle: `G*`'s `LabelSearch` and TreeEmb's `TreeSearch`, kept
//! verbatim as they stood before both models shared one frontier, one
//! search loop and one materialiser in [`crate::algo`]. The proptest
//! below holds [`find_lcag`] and [`find_tree_embedding`] field-identical
//! to them on synthetic worlds; a rewrite of the shared loop (a tighter
//! stopping rule, dense search state) must keep it passing.

pub(crate) mod lcag;
pub(crate) mod tree;

use proptest::prelude::*;

use newslink_kg::{reweight_by_predicate_rarity, synth, LabelIndex, NodeId, SynthConfig};
use newslink_util::DetRng;

use crate::algo::{find_lcag, EmbedError, SearchConfig};
use crate::model::CommonAncestorGraph;
use crate::tree::find_tree_embedding;

pub(crate) type Found = Result<CommonAncestorGraph, EmbedError>;

pub(crate) fn assert_same(what: &str, got: &Found, want: &Found) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.root, w.root, "{what}: root");
            assert_eq!(g.labels, w.labels, "{what}: labels");
            assert_eq!(g.distances, w.distances, "{what}: distances");
            assert_eq!(g.nodes, w.nodes, "{what}: nodes");
            assert_eq!(g.edges, w.edges, "{what}: edges");
            assert_eq!(g.sources, w.sources, "{what}: sources");
        }
        (Err(g), Err(w)) => assert_eq!(g, w, "{what}: error payload"),
        _ => panic!("{what}: {got:?}, oracle {want:?}"),
    }
}

/// Entity nodes worth naming in a query group.
pub(crate) fn entity_pool(world: &synth::SynthWorld) -> Vec<NodeId> {
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn both_models_match_the_pre_merge_searches(
        seed in 0u64..1_000,
        weighted in any::<bool>(),
        budget in 1usize..64,
        groups in prop::collection::vec(prop::collection::vec(any::<usize>(), 0..5), 8..9),
    ) {
        let world = synth::generate(&SynthConfig::small(seed));
        let reweighted;
        let graph = if weighted {
            reweighted = reweight_by_predicate_rarity(&world.graph, 0.5);
            &reweighted
        } else {
            &world.graph
        };
        let index = LabelIndex::build(graph);
        let pool = entity_pool(&world);
        prop_assume!(!pool.is_empty());
        // Default and single-path searches, a settled budget that binds
        // (with either predecessor mode), and one source per label.
        let configs = [
            SearchConfig::default(),
            SearchConfig { single_path: true, ..SearchConfig::default() },
            SearchConfig { max_settled: budget, ..SearchConfig::default() },
            SearchConfig { max_settled: budget, single_path: true, ..SearchConfig::default() },
            SearchConfig { max_sources_per_label: 1, ..SearchConfig::default() },
        ];
        for picks in &groups {
            // Empty groups and unknown labels exercise the error payloads.
            let labels: Vec<String> = picks
                .iter()
                .map(|&p| match p % 16 {
                    0 => "no such entity".to_string(),
                    _ => graph.label(pool[p % pool.len()]).to_string(),
                })
                .collect();
            for config in &configs {
                let what = format!("{labels:?} under {config:?}");
                assert_same(
                    &format!("G* of {what}"),
                    &find_lcag(graph, &index, &labels, config),
                    &lcag::find_lcag(graph, &index, &labels, config),
                );
                assert_same(
                    &format!("TreeEmb of {what}"),
                    &find_tree_embedding(graph, &index, &labels, config),
                    &tree::find_tree_embedding(graph, &index, &labels, config),
                );
            }
        }
    }
}

/// Both models against the oracle at perf's graph size
/// (`SynthConfig::scaled(7, 10_000)`): 150 random groups of 1–4 pool
/// entities under the default, `single_path`, budget-limited and
/// one-source configs. Ignored by default (a few seconds in release);
/// `scripts/tier1.sh` runs it.
#[test]
#[ignore]
fn both_models_match_the_pre_merge_searches_at_scale() {
    let world = synth::generate(&SynthConfig::scaled(7, 10_000));
    let graph = &world.graph;
    let index = LabelIndex::build(graph);
    let pool = entity_pool(&world);
    let mut rng = DetRng::new(10_000);
    for _ in 0..150 {
        let labels: Vec<String> = (0..rng.range(1, 5))
            .map(|_| graph.label(*rng.pick(&pool)).to_string())
            .collect();
        let configs = [
            SearchConfig::default(),
            SearchConfig { single_path: true, ..SearchConfig::default() },
            SearchConfig { max_settled: rng.range(1, 400), ..SearchConfig::default() },
            SearchConfig { max_sources_per_label: 1, ..SearchConfig::default() },
        ];
        for config in &configs {
            let what = format!("{labels:?} under {config:?}");
            assert_same(
                &format!("G* of {what}"),
                &find_lcag(graph, &index, &labels, config),
                &lcag::find_lcag(graph, &index, &labels, config),
            );
            assert_same(
                &format!("TreeEmb of {what}"),
                &find_tree_embedding(graph, &index, &labels, config),
                &tree::find_tree_embedding(graph, &index, &labels, config),
            );
        }
    }
}
