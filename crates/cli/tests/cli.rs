//! End-to-end runs of the `newslink` binary: the generate → index →
//! search workflow, and the refusal of commands and flags that no longer
//! exist.

use std::path::PathBuf;
use std::process::{Command, Output};

fn newslink(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_newslink"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn newslink")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("newslink-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn assert_ok(out: &Output, step: &str) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{step} failed: {}\nstdout: {stdout}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn generate_index_and_search() {
    let dir = scratch_dir("workflow");
    let steps: [(&str, &[&str]); 3] = [
        (
            "generate-world",
            &["generate-world", "--scale", "small", "--seed", "42", "--out", "kg.tsv"],
        ),
        (
            "generate-corpus",
            &[
                "generate-corpus", "--world-seed", "42", "--scale", "small", "--docs", "50", "--out",
                "corpus.txt",
            ],
        ),
        (
            "build-index",
            &["build-index", "--world", "kg.tsv", "--corpus", "corpus.txt", "--out", "index.nlnk"],
        ),
    ];
    for (step, args) in steps {
        assert_ok(&newslink(&dir, args), step);
    }
    // Query with the first document's opening words, so a hit is certain.
    let corpus = std::fs::read_to_string(dir.join("corpus.txt")).expect("read corpus");
    let first_doc = corpus.lines().next().expect("one doc");
    let query = first_doc.split_whitespace().take(8).collect::<Vec<_>>().join(" ");
    let stdout = assert_ok(
        &newslink(
            &dir,
            &[
                "search", "--world", "kg.tsv", "--corpus", "corpus.txt", "--index", "index.nlnk",
                "--query", &query, "--k", "3",
            ],
        ),
        "search",
    );
    let first = stdout.lines().next().unwrap_or_default();
    assert!(
        first.trim_start().starts_with("1. doc ") && first.contains(" score "),
        "no ranked line in {stdout:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn removed_commands_and_flags_are_refused() {
    let dir = scratch_dir("refusals");
    let cases: [(&[&str], &str); 8] = [
        (&["ingest-tsv", "--input", "labels.tsv", "--out", "labels.bin"], "unknown command"),
        (&["resolve", "--index", "labels.bin", "--query", "earth"], "unknown command"),
        (&["generate-world", "--out", "kg.tsv", "--tsv-out", "x"], "unknown flag"),
        (&["build-index", "--world", "kg.tsv", "--beta", "0.5"], "unknown flag"),
        (&["generate-corpus", "--world", "kg.tsv", "--out", "corpus.txt"], "unknown flag"),
        (&["search", "--world", "kg.tsv", "--query", "earth", "--resolver", "fst"], "unknown flag"),
        (&["build-index", "--world", "kg.tsv", "--storage", "mmap"], "unknown flag"),
        (&["serve", "--world", "kg.tsv", "--storage", "heap"], "unknown flag"),
    ];
    for (args, want) in cases {
        let out = newslink(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} exited 0");
        assert!(stderr.contains(want), "{args:?}: expected {want:?} in {stderr:?}");
    }
    // Flags are checked before any work: nothing was written.
    assert!(!dir.join("kg.tsv").exists());
    assert!(!dir.join("corpus.txt").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
