//! Reproduce the paper's evaluation (§VII): every table and figure, one
//! target each.
//!
//! Run with: `cargo run --release --example repro -- <target>|all`
//!
//! Targets: `table_iv`, `table_v`, `table_vii`, `table_viii`, `fig5`,
//! `fig6`, `fig7`, `ablation_coverage`, `ablation_weights`.
//!
//! `NEWSLINK_SCALE=tiny|small|medium|large` picks the fixture size
//! (default `small`; EXPERIMENTS.md names the scale of each recorded
//! result). `NEWSLINK_REPORT_DIR=<dir>` also writes each target's raw
//! numbers there as JSON (and Figure 6 as `figure6.dot`). At `tiny` the
//! deterministic reports are the goldens `tests/paper_tables.rs` pins.

use std::cell::OnceCell;
use std::time::Instant;

use newslink::core::EmbeddingModel;
use newslink::corpus::QueryStrategy;
use newslink::eval::{
    banner, cnn_context, compare_hit_at_k, kaggle_context, maybe_report, render_embed_timing,
    render_matching, render_query_timing, render_scores, render_user_study, report_dir,
    run_ablation_coverage, run_ablation_weights, run_case_study, run_fig7, run_table_iv,
    run_table_v, run_table_vii, run_table_viii, run_user_study, AblationResult, EvalContext,
    EvalScale, LuceneMethod, NewsLinkMethod,
};

/// The two corpus fixtures, each built on first use and shared by every
/// target of one run.
struct Fixtures {
    scale: EvalScale,
    cnn: OnceCell<EvalContext>,
    kaggle: OnceCell<EvalContext>,
}

impl Fixtures {
    fn cnn(&self) -> &EvalContext {
        self.cnn.get_or_init(|| cnn_context(self.scale))
    }

    fn both(&self) -> [&EvalContext; 2] {
        [
            self.cnn(),
            self.kaggle.get_or_init(|| kaggle_context(self.scale)),
        ]
    }
}

/// A target's name and the function that prints it.
type Target = (&'static str, fn(&Fixtures));

const TARGETS: [Target; 9] = [
    ("table_iv", table_iv),
    ("table_v", table_v),
    ("table_vii", table_vii),
    ("table_viii", table_viii),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("ablation_coverage", ablation_coverage),
    ("ablation_weights", ablation_weights),
];

fn main() {
    let target = std::env::args().nth(1).unwrap_or_default();
    let selected: Vec<_> = TARGETS
        .iter()
        .filter(|(name, _)| target == "all" || *name == target)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = TARGETS.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: repro <target>|all\ntargets: {}", names.join(", "));
        std::process::exit(2);
    }
    let fixtures = Fixtures {
        scale: EvalScale::from_env(),
        cnn: OnceCell::new(),
        kaggle: OnceCell::new(),
    };
    for (_, run) in selected {
        run(&fixtures);
    }
}

fn corpus_key(ctx: &EvalContext) -> String {
    ctx.corpus.flavor.name().to_lowercase()
}

/// Table IV: SIM@{5,10,20} and HIT@{1,5} for Doc2Vec, SBERT, LDA, QEPRF,
/// Lucene and NewsLink(0.2) under both query strategies, plus a paired
/// bootstrap of NewsLink(0.2) against Lucene on HIT@1 and HIT@5.
fn table_iv(fx: &Fixtures) {
    for ctx in fx.both() {
        banner("Table IV", ctx);
        let start = Instant::now();
        let scores = run_table_iv(ctx);
        maybe_report(&format!("table_iv_{}", corpus_key(ctx)), &scores);
        println!(
            "{}",
            render_scores(&format!("Table IV — {}", ctx.corpus.flavor.name()), &scores)
        );
        println!("(took {:.1}s)", start.elapsed().as_secs_f64());

        let lucene = LuceneMethod::new(ctx);
        let newslink = NewsLinkMethod::new(ctx, 0.2, EmbeddingModel::Lcag);
        let cases = ctx.queries(QueryStrategy::LargestEntityDensity);
        for k in [1usize, 5] {
            if let Some(r) = compare_hit_at_k(&newslink, &lucene, &cases, k, 5000, 0xB007) {
                println!(
                    "HIT@{k} (density): NewsLink(0.2) − Lucene = {:+.4}, paired-bootstrap p = {:.3} ({})",
                    r.observed_diff,
                    r.p_value,
                    if r.significant_at(0.05) { "significant" } else { "not significant" }
                );
            }
        }
    }
}

/// Table V: average entity matching ratio per test query.
fn table_v(fx: &Fixtures) {
    let mut rows = Vec::new();
    for ctx in fx.both() {
        banner("Table V", ctx);
        rows.push(run_table_v(ctx));
    }
    maybe_report("table_v", &rows);
    println!("{}", render_matching(&rows));
}

/// Table VII: NewsLink(β) vs TreeEmb(β) across β ∈ {0.2, 0.5, 0.8, 1.0}.
/// β = 0 reduces to Lucene (Table IV's Lucene row).
fn table_vii(fx: &Fixtures) {
    let betas = [0.2, 0.5, 0.8, 1.0];
    for ctx in fx.both() {
        banner("Table VII", ctx);
        let start = Instant::now();
        let scores = run_table_vii(ctx, &betas);
        maybe_report(&format!("table_vii_{}", corpus_key(ctx)), &scores);
        println!(
            "{}",
            render_scores(
                &format!("Table VII — {}", ctx.corpus.flavor.name()),
                &scores
            )
        );
        println!("(took {:.1}s)", start.elapsed().as_secs_f64());
    }
}

/// Table VIII: per-component query processing time (NLP / NE / NS).
fn table_viii(fx: &Fixtures) {
    let mut rows = Vec::new();
    for ctx in fx.both() {
        banner("Table VIII", ctx);
        let method = NewsLinkMethod::new(ctx, 0.2, EmbeddingModel::Lcag);
        rows.push(run_table_viii(ctx, &method));
    }
    maybe_report("table_viii", &rows);
    println!("{}", render_query_timing(&rows));
}

/// Figure 5: the simulated user study — 20 participants judge 10
/// query/result pairs retrieved with subgraph embeddings only (β = 1).
/// See DESIGN.md §6.7 for the simulation model.
fn fig5(fx: &Fixtures) {
    let ctx = fx.cnn();
    banner("Figure 5", ctx);
    let result = run_user_study(ctx, 10, 20, 0xF165);
    maybe_report("fig5", &result);
    println!("{}", render_user_study(&result));
    println!("pair features (path count / novel entities / embedding size):");
    for p in &result.pairs {
        println!(
            "  docs {:>4} vs {:>4}: paths={:<3} novel={:<3} size={}",
            p.query_doc, p.result_doc, p.path_count, p.novel_entities, p.embedding_size
        );
    }
}

/// Figure 6 + Tables I/II/VI: a worked query/result pair with matched,
/// unmatched and induced entities and rendered relationship paths.
fn fig6(fx: &Fixtures) {
    let ctx = fx.cnn();
    banner("Figure 6 / case study", ctx);
    match run_case_study(ctx) {
        Some(cs) => {
            println!("{cs}");
            if let Some(dir) = report_dir() {
                let path = dir.join("figure6.dot");
                if std::fs::create_dir_all(&dir)
                    .and_then(|()| std::fs::write(&path, &cs.dot))
                    .is_ok()
                {
                    println!("(wrote {} — render with: dot -Tsvg)", path.display());
                }
            }
        }
        None => println!("no explainable pair found at this scale"),
    }
}

/// Figure 7: average embedding time per news document, NewsLink (G*) vs
/// TreeEmb, with the NLP/NE component split.
fn fig7(fx: &Fixtures) {
    let mut rows = Vec::new();
    for ctx in fx.both() {
        banner("Figure 7", ctx);
        rows.push(run_fig7(ctx));
    }
    maybe_report("fig7", &rows);
    println!("{}", render_embed_timing(&rows));
}

fn print_ablation(title: &str, result: &AblationResult) {
    for (label, nodes) in &result.nodes_per_doc {
        println!("{label:<16} avg embedding nodes/doc = {nodes:.2}");
    }
    println!("{}", render_scores(title, &result.scores));
}

/// Ablation (DESIGN.md E8): full-width `G*` against single-path `G*`.
fn ablation_coverage(fx: &Fixtures) {
    banner("Ablation: multi-path coverage", fx.cnn());
    let result = run_ablation_coverage(fx.cnn());
    maybe_report("ablation_coverage", &result);
    print_ablation("Ablation — coverage (β = 1)", &result);
}

/// Ablation (beyond the paper): unit against predicate-rarity weights.
fn ablation_weights(fx: &Fixtures) {
    banner("Ablation: edge weighting", fx.cnn());
    let result = run_ablation_weights(fx.cnn());
    maybe_report("ablation_weights", &result);
    print_ablation("Ablation — edge weighting (β = 1)", &result);
}
