//! The `newslink` command-line tool.
//!
//! ```text
//! newslink generate-world  --scale small|medium|large --seed N --out kg.tsv
//! newslink generate-corpus --world kg.tsv --docs N --flavor cnn|kaggle --seed N --out corpus.txt
//! newslink build-index     --world kg.tsv --corpus corpus.txt --beta B --out index.nlnk
//! newslink search          --world kg.tsv --corpus corpus.txt --index index.nlnk \
//!                          --query "..." --k 10 --explain true
//! newslink serve           --world kg.tsv --corpus corpus.txt --addr 127.0.0.1:8080 \
//!                          [--data-dir DIR] [--shard-index I --shard-count N]
//! newslink serve           --world kg.tsv --mode router --shards "a:7001|a:7002,b:7003"
//! newslink stats           --world kg.tsv
//! ```
//!
//! Corpora are stored one document per line (generated documents contain
//! no newlines).

#![deny(unsafe_code)]

mod args;

use std::path::Path;
use std::process::ExitCode;

use args::Args;
use newslink_core::{
    load_newslink_index, save_newslink_index, Directory, FsDirectory, NewsLink, NewsLinkConfig,
    NewsLinkIndex, StorageBackend, StoreOptions,
};
use newslink_corpus::{generate_corpus, CorpusConfig, CorpusFlavor};
use newslink_embed::{describe_path, summarize_paths};
use newslink_kg::{
    ingest_tsv, normalize_label, synth, triples, write_graph_tsv, FstLabelIndex, GraphStats,
    IngestConfig, LabelIndex, ResolverBackend, SynthConfig,
};
use newslink_serve::{parse_shards, Cluster, ResilienceConfig, ServeConfig, Server};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.positionals().is_empty() {
        eprintln!(
            "error: unexpected arguments {:?} (flags take the form --name value)",
            args.positionals()
        );
        return ExitCode::FAILURE;
    }
    let result = match args.command.as_str() {
        "generate-world" => generate_world(&args),
        "generate-corpus" => generate_corpus_cmd(&args),
        "ingest-tsv" => ingest_tsv_cmd(&args),
        "resolve" => resolve_cmd(&args),
        "build-index" => build_index(&args),
        "search" => search_cmd(&args),
        "serve" => serve_cmd(&args),
        "stats" => stats(&args),
        "" | "help" | "--help" => {
            print!("{}", USAGE);
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
newslink — intuitive news search with knowledge graphs

commands:
  generate-world  --scale small|medium|large|<nodes> --seed N --out kg.tsv
                  [--tsv-out labels.tsv]   also emit a wikidata-entities-index-shaped label TSV
                        (label, degree score, id, aliases, description, type) for ingest-tsv
  generate-corpus --world kg.tsv --docs N --flavor cnn|kaggle --seed N --out corpus.txt
  ingest-tsv      --input labels.tsv --out labels.fst [--spill-dir DIR] [--run-bytes N]
                  [--strict true|false] [--storage heap|mmap]
                        one-pass bounded-memory ingest into the label automaton; malformed
                        lines are quarantined (line-numbered) unless --strict
  resolve         --index labels.fst (--query L | --prefix P) [--storage heap|mmap (default mmap)]
  build-index     --world kg.tsv --corpus corpus.txt --beta B [--segment-docs N] [--storage heap|mmap]
                  [--resolver hash|fst] --out index.nlnk
  search          --world kg.tsv --corpus corpus.txt --index index.nlnk --query Q --k N --explain true|false
                  [--resolver hash|fst]
  serve           --world kg.tsv --corpus corpus.txt [--index index.nlnk] [--addr 127.0.0.1:8080]
                  [--workers N] [--queue-depth N] [--timeout-ms N] [--beta B] [--segment-docs N]
                  [--data-dir DIR]   durable mode: WAL + snapshots under DIR, POST /v1/admin/snapshot to checkpoint
                  [--storage heap|mmap]   snapshot backend: copy into RAM, or memory-map (default heap)
                  [--resolver hash|fst]   label-resolution backend (default hash; fst = automaton)
                  [--shard-index I --shard-count N]   cluster shard: index every Nth corpus document
                        (stripe I) and mint fresh ids on that stripe so shards never collide
                  [--mode router --shards \"a:7001|a:7002,b:7003\"]   cluster router: no local index;
                        scatter each search to one healthy replica per comma-separated shard group
                        (\"|\" separates a group's replicas), merge, and proxy writes to the owner
                  router resilience knobs (see DESIGN.md §6k):
                  [--probe-interval-ms N]   health-prober cadence (default 500)
                  [--probe-failures N]      consecutive probe failures before unhealthy (default 1)
                  [--hedge-after-ms N]      hedge reads after N ms without an answer (0 = off, default off)
                  [--breaker-window N]      per-replica breaker outcome window (default 32; trips at N/4 failures)
                  [--retry-budget R]        retry+hedge tokens minted per primary call (default 0.2)
  stats           --world kg.tsv
";

/// Parse `--storage {heap,mmap}` (default heap).
fn parse_storage(args: &Args) -> Result<StorageBackend, String> {
    match args.get("storage") {
        None => Ok(StorageBackend::default()),
        Some(s) => StorageBackend::parse(s)
            .ok_or_else(|| format!("unknown --storage {s:?} (expected heap or mmap)")),
    }
}

/// Parse `--resolver {hash,fst}` (default hash).
fn parse_resolver(args: &Args) -> Result<ResolverBackend, String> {
    match args.get("resolver") {
        None => Ok(ResolverBackend::default()),
        Some(s) => ResolverBackend::parse(s)
            .ok_or_else(|| format!("unknown --resolver {s:?} (expected hash or fst)")),
    }
}

/// Parse `--scale`: a named preset or a numeric node target.
fn parse_scale(scale: &str, seed: u64) -> Result<SynthConfig, String> {
    match scale {
        "small" => Ok(SynthConfig::small(seed)),
        "medium" => Ok(SynthConfig::medium(seed)),
        "large" => Ok(SynthConfig::large(seed)),
        n => n
            .parse::<usize>()
            .map(|target| SynthConfig::scaled(seed, target))
            .map_err(|_| format!("unknown scale {n:?} (expected small, medium, large, or a node count)")),
    }
}

/// Split a blob path into its parent [`FsDirectory`] and file name, so
/// single-file artifacts go through the atomic-write / zero-copy-open
/// storage seam.
fn blob_dir(path: &str) -> Result<(FsDirectory, String), String> {
    let p = Path::new(path);
    let parent = match p.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let name = p
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| format!("bad path {path:?}"))?
        .to_string();
    let dir = FsDirectory::create(parent).map_err(|e| format!("opening {path}: {e}"))?;
    Ok((dir, name))
}

/// Load a snapshot file through the selected storage backend (strict
/// mode — any damage is an error, same as [`load_newslink_index`]).
fn load_index_with(
    graph: &newslink_kg::KnowledgeGraph,
    path: &str,
    backend: StorageBackend,
) -> Result<NewsLinkIndex, String> {
    let p = Path::new(path);
    let parent = match p.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let name = p
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| format!("bad index path {path:?}"))?;
    let dir = FsDirectory::create(parent).map_err(|e| format!("opening {path}: {e}"))?;
    let (index, _report) = backend
        .reader()
        .read_snapshot(&dir, name, graph, false)
        .map_err(|e| format!("loading index {path} ({backend}): {e}"))?;
    Ok(index)
}

/// Reject flags not in `allowed` (typo guard).
fn check_flags(args: &Args, allowed: &[&str]) -> Result<(), String> {
    for name in args.flag_names() {
        if !allowed.contains(&name) {
            return Err(format!("unknown flag --{name} for {}", args.command));
        }
    }
    Ok(())
}

fn load_world(args: &Args) -> Result<newslink_kg::KnowledgeGraph, String> {
    let path = args.require("world")?;
    triples::load_triples(Path::new(path)).map_err(|e| format!("loading world {path}: {e}"))
}

fn load_corpus_file(path: &str) -> Result<Vec<String>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading corpus {path}: {e}"))?;
    Ok(text.lines().map(str::to_string).collect())
}

fn generate_world(args: &Args) -> Result<(), String> {
    check_flags(args, &["scale", "seed", "out", "tsv-out"])?;
    let seed: u64 = args.get_parsed("seed", 42)?;
    let config = parse_scale(args.get("scale").unwrap_or("small"), seed)?;
    let out = args.require("out")?;
    let world = synth::generate(&config);
    triples::save_triples(&world.graph, Path::new(out))
        .map_err(|e| format!("writing {out}: {e}"))?;
    if let Some(tsv) = args.get("tsv-out") {
        let f = std::fs::File::create(tsv).map_err(|e| format!("creating {tsv}: {e}"))?;
        let mut w = std::io::BufWriter::new(f);
        let lines = write_graph_tsv(&world.graph, &mut w).map_err(|e| format!("writing {tsv}: {e}"))?;
        use std::io::Write as _;
        w.flush().map_err(|e| format!("writing {tsv}: {e}"))?;
        println!("wrote {tsv} ({lines} label lines)");
    }
    println!(
        "wrote {} ({} nodes, {} edges)",
        out,
        world.graph.node_count(),
        world.graph.edge_count()
    );
    Ok(())
}

fn ingest_tsv_cmd(args: &Args) -> Result<(), String> {
    check_flags(args, &["input", "out", "spill-dir", "run-bytes", "strict", "storage"])?;
    let input = args.require("input")?;
    let out = args.require("out")?;
    let backend = parse_storage(args)?;
    let mut cfg = IngestConfig::default();
    if let Some(d) = args.get("spill-dir") {
        cfg.spill_dir = Some(std::path::PathBuf::from(d));
    }
    cfg.run_bytes = args.get_parsed("run-bytes", cfg.run_bytes)?;
    cfg.strict = args.get_parsed("strict", false)?;
    let file = std::fs::File::open(input).map_err(|e| format!("opening {input}: {e}"))?;
    let t = std::time::Instant::now();
    let (index, report) =
        ingest_tsv(std::io::BufReader::new(file), &cfg).map_err(|e| format!("ingesting {input}: {e}"))?;
    let (dir, name) = blob_dir(out)?;
    dir.atomic_write(&name, &index.encode())
        .map_err(|e| format!("writing {out}: {e}"))?;
    // Verification reopen through the requested backend: prove the blob
    // serves the way it was built.
    let bytes = match backend {
        StorageBackend::Mmap => dir.open_bytes(&name),
        _ => dir.read(&name),
    }
    .map_err(|e| format!("reopening {out}: {e}"))?;
    let reopened =
        FstLabelIndex::decode(bytes).map_err(|e| format!("verifying {out} ({backend}): {e}"))?;
    if reopened.node_meta_count() != index.node_meta_count() {
        return Err(format!(
            "verification reopen ({backend}) saw {} nodes, expected {}",
            reopened.node_meta_count(),
            index.node_meta_count()
        ));
    }
    println!("{}", report.summary());
    println!(
        "wrote {out} ({} bytes) in {:.2}s (verified via {backend})",
        index.encode().len(),
        t.elapsed().as_secs_f64(),
    );
    Ok(())
}

fn resolve_cmd(args: &Args) -> Result<(), String> {
    check_flags(args, &["index", "query", "prefix", "storage"])?;
    let path = args.require("index")?;
    // Default mmap: resolution is the cold-start path the automaton
    // exists for, and the mapping serves without decoding.
    let backend = match args.get("storage") {
        None => StorageBackend::Mmap,
        Some(s) => StorageBackend::parse(s)
            .ok_or_else(|| format!("unknown --storage {s:?} (expected heap or mmap)"))?,
    };
    let (dir, name) = blob_dir(path)?;
    let bytes = match backend {
        StorageBackend::Mmap => dir.open_bytes(&name),
        _ => dir.read(&name),
    }
    .map_err(|e| format!("opening {path}: {e}"))?;
    let index = FstLabelIndex::decode(bytes).map_err(|e| format!("loading {path}: {e}"))?;
    let print_nodes = |surface: &str, nodes: &[newslink_kg::NodeId]| {
        for &n in nodes {
            match index.node_meta(n) {
                Some(m) => println!("{surface}\t{}\t{}\t{}", m.id, m.entity_type.as_str(), m.label),
                None => println!("{surface}\tN{}", n.index()),
            }
        }
    };
    match (args.get("query"), args.get("prefix")) {
        (Some(q), None) => {
            use newslink_kg::LabelResolver as _;
            let norm = normalize_label(q);
            let nodes: Vec<_> = index.exact(&norm).collect();
            if nodes.is_empty() {
                println!("no match for {norm:?}");
            } else {
                print_nodes(&norm, &nodes);
            }
        }
        (None, Some(p)) => {
            let norm = normalize_label(p);
            let matches = index.prefix_postings(&norm);
            if matches.is_empty() {
                println!("no surfaces start with {norm:?}");
            }
            for (surface, nodes) in &matches {
                print_nodes(surface, nodes);
            }
        }
        _ => return Err("pass exactly one of --query or --prefix".to_string()),
    }
    Ok(())
}

fn generate_corpus_cmd(args: &Args) -> Result<(), String> {
    check_flags(args, &["world", "scale", "world-seed", "seed", "docs", "flavor", "out"])?;
    let seed: u64 = args.get_parsed("seed", 7)?;
    let docs: usize = args.get_parsed("docs", 500)?;
    let flavor = match args.get("flavor").unwrap_or("cnn") {
        "cnn" => CorpusFlavor::CnnLike,
        "kaggle" => CorpusFlavor::KaggleLike,
        other => return Err(format!("unknown flavor {other:?}")),
    };
    let out = args.require("out")?;
    // Re-generate the world registers (events, participants) from the same
    // seed family the world file was produced with; the corpus generator
    // needs them, and the seed is embedded in the caller's workflow.
    let world_seed: u64 = args.get_parsed("world-seed", 42)?;
    let config = parse_scale(args.get("scale").unwrap_or("small"), world_seed)?;
    let world = synth::generate(&config);
    let corpus = generate_corpus(&world, &CorpusConfig::new(seed, docs, flavor));
    let mut text = String::new();
    for d in &corpus.docs {
        debug_assert!(!d.text.contains('\n'));
        text.push_str(&d.text);
        text.push('\n');
    }
    std::fs::write(out, text).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out} ({} documents)", corpus.len());
    Ok(())
}

fn build_index(args: &Args) -> Result<(), String> {
    check_flags(
        args,
        &["world", "corpus", "beta", "segment-docs", "storage", "resolver", "out"],
    )?;
    let backend = parse_storage(args)?;
    let graph = load_world(args)?;
    let texts = load_corpus_file(args.require("corpus")?)?;
    let beta: f64 = args.get_parsed("beta", 0.2)?;
    // 0 = one segment; any other value shards the build, which also
    // parallelizes it across the configured threads.
    let segment_docs: usize = args.get_parsed("segment-docs", 0)?;
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let labels = LabelIndex::build_backend(&graph, parse_resolver(args)?);
    let engine = NewsLink::new(
        &graph,
        &labels,
        NewsLinkConfig::default()
            .with_beta(beta)
            .with_threads(threads)
            .with_segment_docs(segment_docs),
    );
    let t = std::time::Instant::now();
    let index = engine.index_corpus(&texts);
    let out = args.require("out")?;
    save_newslink_index(&index, &graph, Path::new(out))
        .map_err(|e| format!("writing {out}: {e}"))?;
    // Verification reopen through the requested backend: prove the file
    // loads the way it will be served before declaring success.
    let reopened = load_index_with(&graph, out, backend)?;
    if reopened.doc_count() != index.doc_count() {
        return Err(format!(
            "verification reopen ({backend}) saw {} docs, expected {}",
            reopened.doc_count(),
            index.doc_count()
        ));
    }
    println!(
        "indexed {} docs into {} segment(s) in {:.2}s ({:.1}% embedded), wrote {} (verified via {backend})",
        index.doc_count(),
        index.segment_count(),
        t.elapsed().as_secs_f64(),
        index.embedded_ratio() * 100.0,
        out
    );
    Ok(())
}

fn search_cmd(args: &Args) -> Result<(), String> {
    check_flags(
        args,
        &["world", "corpus", "index", "query", "k", "beta", "explain", "explain-score", "resolver"],
    )?;
    let graph = load_world(args)?;
    let texts = load_corpus_file(args.require("corpus")?)?;
    let query = args.require("query")?;
    let k: usize = args.get_parsed("k", 10)?;
    let beta: f64 = args.get_parsed("beta", 0.2)?;
    let explain: bool = args.get_parsed("explain", false)?;
    let explain_score: bool = args.get_parsed("explain-score", false)?;
    let labels = LabelIndex::build_backend(&graph, parse_resolver(args)?);
    let config = NewsLinkConfig::default().with_beta(beta);
    let engine = NewsLink::new(&graph, &labels, config);
    let index = match args.get("index") {
        Some(path) => load_newslink_index(&graph, Path::new(path))
            .map_err(|e| format!("loading index {path}: {e}"))?,
        None => engine.index_corpus(&texts),
    };
    if index.doc_count() != texts.len() {
        return Err(format!(
            "index holds {} docs but corpus file has {}",
            index.doc_count(),
            texts.len()
        ));
    }
    let outcome = engine.search(&index, query, k);
    if outcome.results.is_empty() {
        println!("no results");
        return Ok(());
    }
    for (rank, hit) in outcome.results.iter().enumerate() {
        let text = &texts[hit.doc.index()];
        println!(
            "{:>2}. doc {:<6} score {:.3}  {}",
            rank + 1,
            hit.doc.0,
            hit.score,
            &text[..text.len().min(90)]
        );
        if explain {
            let paths = engine.explain(&index, &outcome.embedding, hit.doc, 5, 20);
            for p in summarize_paths(&graph, &paths, 3) {
                println!("      {} — {}", p.render(&graph), describe_path(&graph, &p));
            }
        }
        if explain_score {
            let ex = newslink_core::explain_score(
                &graph,
                &labels,
                engine.config(),
                &index,
                query,
                hit.doc,
            );
            for line in ex.to_string().lines() {
                println!("      {line}");
            }
        }
    }
    Ok(())
}

fn serve_cmd(args: &Args) -> Result<(), String> {
    check_flags(
        args,
        &[
            "world", "corpus", "index", "addr", "workers", "queue-depth", "timeout-ms", "beta",
            "segment-docs", "data-dir", "storage", "resolver", "mode", "shards", "shard-index",
            "shard-count", "probe-interval-ms", "probe-failures", "hedge-after-ms",
            "breaker-window", "retry-budget",
        ],
    )?;
    match args.get("mode").unwrap_or("standalone") {
        "standalone" => serve_standalone(args),
        "router" => serve_router(args),
        other => Err(format!(
            "unknown --mode {other:?} (expected standalone or router)"
        )),
    }
}

/// Parse the `--shard-index I --shard-count N` pair, if present. The
/// pair makes a standalone server a cluster shard: it indexes only its
/// stripe of the corpus and mints fresh ids on that stripe.
fn parse_stripe(args: &Args) -> Result<Option<(u32, u32)>, String> {
    match (args.get("shard-index"), args.get("shard-count")) {
        (None, None) => Ok(None),
        (Some(_), None) | (None, Some(_)) => {
            Err("--shard-index and --shard-count must be given together".to_string())
        }
        (Some(i), Some(c)) => {
            let shard: u32 = i.parse().map_err(|e| format!("bad --shard-index: {e}"))?;
            let of: u32 = c.parse().map_err(|e| format!("bad --shard-count: {e}"))?;
            if of == 0 || shard >= of {
                return Err(format!(
                    "--shard-index {shard} out of range for --shard-count {of}"
                ));
            }
            Ok(Some((shard, of)))
        }
    }
}

/// `serve --mode router`: no local index. Scatter each search to one
/// healthy replica per shard group, merge the per-shard top-k under the
/// global-statistics overlay, and proxy writes to the owning group's
/// primary.
fn serve_router(args: &Args) -> Result<(), String> {
    for flag in [
        "corpus",
        "index",
        "data-dir",
        "storage",
        "segment-docs",
        "shard-index",
        "shard-count",
    ] {
        if args.get(flag).is_some() {
            return Err(format!(
                "--{flag} does not apply to --mode router (each shard owns its data; pass it to that shard's serve command)"
            ));
        }
    }
    let graph = load_world(args)?;
    let beta: f64 = args.get_parsed("beta", 0.2)?;
    let labels = LabelIndex::build_backend(&graph, parse_resolver(args)?);
    // The router runs the query-analysis half of the pipeline locally
    // (NLP + NE + embedding), so it needs the same world the shards use.
    let engine = NewsLink::new(
        &graph,
        &labels,
        NewsLinkConfig::default().with_beta(beta).with_auto_threads(),
    );
    let spec = args.require("shards")?;
    let groups = parse_shards(spec).map_err(|e| format!("bad --shards: {e}"))?;
    let replicas: usize = groups.iter().map(Vec::len).sum();
    let resilience = parse_resilience(args)?;
    let cluster = Cluster::with_config(groups, resilience);

    let workers: usize = args.get_parsed("workers", 4)?;
    let queue_depth: usize = args.get_parsed("queue-depth", 64)?;
    let mut serve_config = ServeConfig::default()
        .with_workers(workers)
        .with_queue_depth(queue_depth);
    if let Some(ms) = args.get("timeout-ms") {
        let ms: u64 = ms.parse().map_err(|e| format!("bad --timeout-ms: {e}"))?;
        serve_config = serve_config.with_default_timeout(std::time::Duration::from_millis(ms));
    }
    let addr = args.get("addr").unwrap_or("127.0.0.1:8080");
    let server = Server::bind(addr, serve_config).map_err(|e| format!("binding {addr}: {e}"))?;
    println!(
        "routing {} shard group(s) ({} replica(s)) on http://{} ({} workers, capacity {}) — POST /v1/search scatter-gathers, POST /v1/docs routes to the owning shard's primary; Ctrl-C to stop",
        cluster.groups().len(),
        replicas,
        server.local_addr(),
        server.config().workers,
        server.config().capacity(),
    );
    server
        .run_router(&engine, &cluster)
        .map_err(|e| format!("serving on {addr}: {e}"))
}

/// Parse the router's resilience knobs into a [`ResilienceConfig`],
/// surfacing the typed per-flag errors verbatim (they already carry the
/// flag name, value, and expected range).
fn parse_resilience(args: &Args) -> Result<ResilienceConfig, String> {
    let mut cfg = ResilienceConfig::default();
    for flag in ResilienceConfig::FLAGS {
        let name = flag.trim_start_matches("--");
        if let Some(value) = args.get(name) {
            cfg.apply_flag(flag, value).map_err(|e| e.to_string())?;
        }
    }
    Ok(cfg)
}

fn serve_standalone(args: &Args) -> Result<(), String> {
    if args.get("shards").is_some() {
        return Err("--shards requires --mode router".to_string());
    }
    for flag in ResilienceConfig::FLAGS {
        if args.get(flag.trim_start_matches("--")).is_some() {
            return Err(format!(
                "{flag} requires --mode router (resilience knobs tune the cluster path)"
            ));
        }
    }
    let stripe = parse_stripe(args)?;
    let backend = parse_storage(args)?;
    let graph = load_world(args)?;
    let texts = load_corpus_file(args.require("corpus")?)?;
    let beta: f64 = args.get_parsed("beta", 0.2)?;
    let segment_docs: usize = args.get_parsed("segment-docs", 0)?;
    let labels = LabelIndex::build_backend(&graph, parse_resolver(args)?);
    // `threads = 0` = auto: batch endpoints and the segment builder size
    // their pools to the machine at call time. A single query's NS scan
    // is sequential.
    let config = NewsLinkConfig::default()
        .with_beta(beta)
        .with_auto_threads()
        .with_segment_docs(segment_docs);
    let engine = NewsLink::new(&graph, &labels, config);

    // With --data-dir, the directory's snapshot + WAL are the authority:
    // the corpus (or --index) only seeds a first-ever start. Without it,
    // the index is in-memory only and mutations die with the process.
    let durable = match args.get("data-dir") {
        Some(dir) => {
            // The seed only runs on a first-ever start (no snapshot yet);
            // load --index eagerly in that case so a bad file is a clean
            // error instead of a panic inside the seed closure.
            let dir_path = Path::new(dir);
            let snapshot_exists = dir_path.join("index.nlnk").exists();
            let preloaded = match args.get("index") {
                Some(path) if !snapshot_exists => Some(
                    load_newslink_index(&graph, Path::new(path))
                        .map_err(|e| format!("loading index {path}: {e}"))?,
                ),
                _ => None,
            };
            // `move` takes `preloaded` by value; the engine and corpus
            // are needed after the closure, so capture them by reference.
            let (engine_ref, texts_ref) = (&engine, &texts);
            let seed = move || {
                preloaded.unwrap_or_else(|| {
                    println!("indexing {} documents …", texts_ref.len());
                    match stripe {
                        Some((shard, of)) => engine_ref.index_corpus_sharded(texts_ref, shard, of),
                        None => engine_ref.index_corpus(texts_ref),
                    }
                })
            };
            let options = StoreOptions::new().backend(backend);
            let (store, index) =
                newslink_core::DurableStore::open_with(&engine, dir_path, &options, seed)
                    .map_err(|e| format!("opening data dir {dir}: {e}"))?;
            let report = store.report();
            if report.degraded() {
                eprintln!(
                    "warning: degraded recovery — {} segment(s) quarantined, {} tombstone(s) dropped; serving the {} surviving segment(s)",
                    report.quarantined_segments,
                    report.dropped_tombstones,
                    report.segments_loaded,
                );
            }
            if report.wal_records_replayed + report.wal_records_skipped > 0
                || report.wal_truncated_bytes > 0
            {
                println!(
                    "recovered from {dir}: {} WAL record(s) replayed, {} skipped, {} torn byte(s) truncated",
                    report.wal_records_replayed,
                    report.wal_records_skipped,
                    report.wal_truncated_bytes,
                );
            }
            Some((newslink_serve::DurableState::new(store), index))
        }
        None => None,
    };
    let (durable, index) = match durable {
        Some((state, index)) => (Some(state), index),
        None => (
            None,
            match args.get("index") {
                Some(path) => load_index_with(&graph, path, backend)?,
                None => {
                    println!("indexing {} documents …", texts.len());
                    match stripe {
                        Some((shard, of)) => engine.index_corpus_sharded(&texts, shard, of),
                        None => engine.index_corpus(&texts),
                    }
                }
            },
        ),
    };
    let mut index = index;
    if let Some((shard, of)) = stripe {
        // The stripe is a deployment property, not part of the snapshot
        // or WAL: re-pin the id allocator after every load path so fresh
        // mints stay on this shard's modular stripe.
        index.set_id_stripe(shard, of);
    }
    let index = parking_lot::RwLock::new(index);

    let workers: usize = args.get_parsed("workers", 4)?;
    let queue_depth: usize = args.get_parsed("queue-depth", 64)?;
    let mut serve_config = ServeConfig::default()
        .with_workers(workers)
        .with_queue_depth(queue_depth);
    if let Some(ms) = args.get("timeout-ms") {
        let ms: u64 = ms.parse().map_err(|e| format!("bad --timeout-ms: {e}"))?;
        serve_config = serve_config.with_default_timeout(std::time::Duration::from_millis(ms));
    }
    let addr = args.get("addr").unwrap_or("127.0.0.1:8080");
    let server = Server::bind(addr, serve_config).map_err(|e| format!("binding {addr}: {e}"))?;
    println!(
        "serving {} docs on http://{} ({} workers, capacity {}, {} storage{}{}) — POST /v1/search, POST /v1/search/batch, POST /v1/docs, DELETE /v1/docs/<id>, POST /v1/admin/snapshot, GET /v1/healthz, GET /v1/metrics; Ctrl-C to stop",
        index.read().doc_count(),
        server.local_addr(),
        server.config().workers,
        server.config().capacity(),
        backend,
        if durable.is_some() { ", durable" } else { "" },
        match stripe {
            Some((shard, of)) => format!(", shard {shard}/{of}"),
            None => String::new(),
        },
    );
    server
        .run_durable(&engine, &index, durable.as_ref())
        .map_err(|e| format!("serving on {addr}: {e}"))
}

fn stats(args: &Args) -> Result<(), String> {
    check_flags(args, &["world"])?;
    let graph = load_world(args)?;
    print!("{}", GraphStats::compute(&graph));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Args {
        Args::parse(argv.iter().map(|s| s.to_string())).expect("parse")
    }

    #[test]
    fn serve_rejects_a_removed_flag_by_name() {
        let a = args(&["serve", "--search-threads", "4"]);
        assert_eq!(serve_cmd(&a).unwrap_err(), "unknown flag --search-threads for serve");
    }
}
