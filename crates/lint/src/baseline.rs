//! The committed findings baseline.
//!
//! Pre-existing findings live in `lint-baseline.txt` at the workspace
//! root: one [`crate::Finding::key`] per line (`rule|file|line`),
//! sorted, `#` comments allowed. CI fails on any finding *not* in the
//! baseline, so the debt can only shrink; `--update-baseline` rewrites
//! the file from the current state. The goal state — where this
//! workspace lives — is an **empty** baseline.

use crate::findings::Finding;
use std::collections::BTreeSet;
use std::path::Path;

/// Default baseline file name, resolved against the workspace root.
pub const DEFAULT_FILE: &str = "lint-baseline.txt";

/// Load baseline keys; a missing file is an empty baseline.
pub fn load(path: &Path) -> std::io::Result<BTreeSet<String>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BTreeSet::new()),
        Err(e) => return Err(e),
    };
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect())
}

/// Serialise `findings` as baseline content.
pub fn render(findings: &[Finding]) -> String {
    let keys: BTreeSet<String> = findings.iter().map(Finding::key).collect();
    let mut out = String::from(
        "# mb-lint baseline: pre-existing findings tolerated by CI.\n\
         # One `rule|file|line` key per line. Shrink me to empty; never grow me\n\
         # (fix the finding or suppress it with a justification instead).\n",
    );
    for k in keys {
        out.push_str(&k);
        out.push('\n');
    }
    out
}

/// Split `findings` into (new, baselined) by membership in `baseline`,
/// and report how many baseline keys no longer match anything (stale).
pub fn diff<'f>(
    findings: &'f [Finding],
    baseline: &BTreeSet<String>,
) -> (Vec<&'f Finding>, Vec<&'f Finding>, usize) {
    let mut new = Vec::new();
    let mut old = Vec::new();
    let mut seen = BTreeSet::new();
    for f in findings {
        let k = f.key();
        if baseline.contains(&k) {
            seen.insert(k);
            old.push(f);
        } else {
            new.push(f);
        }
    }
    let stale = baseline.len() - seen.len();
    (new, old, stale)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, line: usize) -> Finding {
        Finding {
            rule,
            file: "a.rs".into(),
            line,
            col: 1,
            message: "m".into(),
            excerpt: "e".into(),
        }
    }

    #[test]
    fn diff_partitions_and_counts_stale() {
        let findings = vec![finding("det-taint", 1), finding("det-taint", 2)];
        let baseline: BTreeSet<String> =
            ["det-taint|a.rs|2".to_string(), "det-taint|gone.rs|9".to_string()].into();
        let (new, old, stale) = diff(&findings, &baseline);
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].line, 1);
        assert_eq!(old.len(), 1);
        assert_eq!(stale, 1);
    }

    #[test]
    fn render_round_trips_through_load() {
        let findings = vec![finding("det-taint", 3), finding("indexing", 3)];
        let text = render(&findings);
        let dir = std::env::temp_dir().join("mb_lint_baseline_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.txt");
        std::fs::write(&path, text).unwrap();
        let keys = load(&path).unwrap();
        assert_eq!(keys.len(), 2);
        assert!(keys.contains("det-taint|a.rs|3"));
        let (new, _, stale) = diff(&findings, &keys);
        assert!(new.is_empty());
        assert_eq!(stale, 0);
    }

    #[test]
    fn missing_file_is_empty() {
        assert!(load(Path::new("/nonexistent/lint-baseline.txt")).unwrap().is_empty());
    }
}
