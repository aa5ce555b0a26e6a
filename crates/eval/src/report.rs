//! Machine-readable experiment reports.
//!
//! Besides the paper-style text tables, every `repro` example target can
//! dump its raw results as JSON so downstream analysis (plotting,
//! regression tracking across commits) does not have to scrape stdout.
//! Reports are written when the `NEWSLINK_REPORT_DIR` environment
//! variable names a directory; `tests/paper_tables.rs` pins the Tiny
//! ones byte for byte.

use std::path::{Path, PathBuf};

use serde::Serialize;

/// The report directory from `NEWSLINK_REPORT_DIR`, if configured.
pub fn report_dir() -> Option<PathBuf> {
    std::env::var_os("NEWSLINK_REPORT_DIR").map(PathBuf::from)
}

/// Serialize `value` as pretty JSON into `dir/name.json`.
pub fn write_report<T: Serialize>(dir: &Path, name: &str, value: &T) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Write `value` to the configured report directory (no-op without one).
/// Returns the written path, if any; I/O errors are reported to stderr
/// rather than failing the experiment.
pub fn maybe_report<T: Serialize>(name: &str, value: &T) -> Option<PathBuf> {
    let dir = report_dir()?;
    match write_report(&dir, name, value) {
        Ok(path) => Some(path),
        Err(e) => {
            eprintln!("warning: could not write report {name}: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::MatchingRatio;

    #[test]
    fn write_report_round_trips_json() {
        let dir = std::env::temp_dir().join("newslink_report_test");
        let value = MatchingRatio {
            corpus: "CNN".into(),
            ratio: 0.975,
            queries: 60,
        };
        let path = write_report(&dir, "table_v", &value).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"corpus\": \"CNN\""));
        assert!(text.contains("0.975"));
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed["queries"], 60);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn nested_structures_serialize() {
        let dir = std::env::temp_dir().join("newslink_report_test");
        let scores = vec![crate::runner::MethodScores {
            method: "Lucene".into(),
            strategy: "density".into(),
            sim: vec![(5, 0.9)],
            hit: vec![(1, 0.8)],
        }];
        let path = write_report(&dir, "table_iv_cnn", &scores).unwrap();
        let parsed: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(parsed[0]["method"], "Lucene");
        assert_eq!(parsed[0]["sim"][0][0], 5);
        std::fs::remove_file(&path).ok();
    }
}
