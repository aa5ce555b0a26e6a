//! Golden gate for the paper's evaluation (§VII): the seeded `Tiny`
//! tables and figures must stay byte-identical to
//! `tests/golden/paper_tables/`, so a change that moves a single SIM@k
//! or HIT@k fails here.
//!
//! The goldens are exactly what the `repro` example writes, and the same
//! command regenerates them when a change moves a number on purpose (say
//! so in CHANGES.md):
//!
//! ```text
//! NEWSLINK_SCALE=tiny NEWSLINK_REPORT_DIR=tests/golden/paper_tables \
//!     cargo run --release --example repro -- all
//! ```
//!
//! Table VIII and Figure 7 are wall-clock timings and are not pinned.
//! The paper's one qualitative claim that holds at this scale —
//! NewsLink(0.2) HIT@5 ≥ Lucene HIT@5 — is asserted on the goldens, so a
//! re-pin cannot silently invert it.

use std::path::PathBuf;
use std::sync::OnceLock;

use newslink::eval::{
    cnn_context, kaggle_context, run_ablation_coverage, run_ablation_weights, run_case_study,
    run_table_iv, run_table_v, run_table_vii, run_user_study, EvalContext, EvalScale,
};
use serde::{Serialize, Value};

const REGENERATE: &str = "NEWSLINK_SCALE=tiny NEWSLINK_REPORT_DIR=tests/golden/paper_tables \
                          cargo run --release --example repro -- all";

/// The CNN and Kaggle fixtures, built once for every test.
fn fixtures() -> &'static [EvalContext; 2] {
    static FIXTURES: OnceLock<[EvalContext; 2]> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        [
            cnn_context(EvalScale::Tiny),
            kaggle_context(EvalScale::Tiny),
        ]
    })
}

fn corpus_key(ctx: &EvalContext) -> String {
    ctx.corpus.flavor.name().to_lowercase()
}

fn read_golden(file: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/paper_tables")
        .join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Byte-compare `actual` with the golden `file`, showing the first
/// differing line (0-based) on failure.
fn assert_golden(file: &str, actual: &str) {
    let expected = read_golden(file);
    let first = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (e, a))| e != a);
    assert!(
        actual == expected,
        "{file} differs from its golden; first differing (line, (golden, actual)): {first:?}\n\
         If the change is intended, regenerate with\n  {REGENERATE}\nand say so in CHANGES.md."
    );
}

/// Compare `value` with `name.json`, serialised the way
/// `newslink_eval::write_report` writes it.
fn assert_json_golden<T: Serialize>(name: &str, value: &T) {
    let json = serde_json::to_string_pretty(value).expect("serialize report");
    assert_golden(&format!("{name}.json"), &json);
}

#[test]
fn table_iv_matches_golden() {
    for ctx in fixtures() {
        assert_json_golden(&format!("table_iv_{}", corpus_key(ctx)), &run_table_iv(ctx));
    }
}

#[test]
fn table_v_matches_golden() {
    let rows: Vec<_> = fixtures().iter().map(run_table_v).collect();
    assert_json_golden("table_v", &rows);
}

#[test]
fn table_vii_matches_golden() {
    for ctx in fixtures() {
        let scores = run_table_vii(ctx, &[0.2, 0.5, 0.8, 1.0]);
        assert_json_golden(&format!("table_vii_{}", corpus_key(ctx)), &scores);
    }
}

#[test]
fn fig5_user_study_matches_golden() {
    assert_json_golden("fig5", &run_user_study(&fixtures()[0], 10, 20, 0xF165));
}

#[test]
fn fig6_case_study_dot_matches_golden() {
    let cs = run_case_study(&fixtures()[0]).expect("the Tiny CNN fixture has an explainable pair");
    assert_golden("figure6.dot", &cs.dot);
}

#[test]
fn ablation_coverage_matches_golden() {
    assert_json_golden("ablation_coverage", &run_ablation_coverage(&fixtures()[0]));
}

#[test]
fn ablation_weights_matches_golden() {
    assert_json_golden("ablation_weights", &run_ablation_weights(&fixtures()[0]));
}

/// HIT@5 of `method` under `strategy` in a parsed Table IV golden.
fn hit_at_5(table: &Value, method: &str, strategy: &str) -> f64 {
    let row = table
        .as_array()
        .expect("Table IV is a list of rows")
        .iter()
        .find(|r| r["method"].as_str() == Some(method) && r["strategy"].as_str() == Some(strategy))
        .unwrap_or_else(|| panic!("no {method} row for {strategy}"));
    row["hit"]
        .as_array()
        .expect("hit pairs")
        .iter()
        .find(|pair| pair[0].as_i64() == Some(5))
        .and_then(|pair| pair[1].as_f64())
        .unwrap_or_else(|| panic!("no HIT@5 for {method} under {strategy}"))
}

/// Table IV's claim, on the goldens: NewsLink(0.2) finds the source
/// document in its top 5 at least as often as Lucene, in every corpus
/// and query strategy.
#[test]
fn goldens_keep_newslink_hit5_at_least_lucene() {
    for corpus in ["cnn", "kaggle"] {
        let table: Value = serde_json::from_str(&read_golden(&format!("table_iv_{corpus}.json")))
            .expect("Table IV golden parses");
        for strategy in ["density", "random"] {
            let newslink = hit_at_5(&table, "NewsLink(0.2)", strategy);
            let lucene = hit_at_5(&table, "Lucene", strategy);
            assert!(
                newslink >= lucene,
                "{corpus}/{strategy}: NewsLink(0.2) HIT@5 {newslink} < Lucene {lucene}"
            );
        }
    }
}
