//! Finding records and their human / JSON renderings.

use std::fmt;

/// Every rule id mb-lint can emit, in catalogue order (DESIGN.md §10).
pub const RULE_IDS: &[&str] = &[
    "panic-reach",
    "indexing",
    "det-taint",
    "lock-order",
    "lock-across-call",
    "unsafe-gate",
    "float-total-order",
    "tape-free",
    "bounded-queue",
    "as-truncation",
    "unbounded-read",
    "alloc-in-hot-loop",
    "suppression",
];

/// True if `rule` is a known rule id (usable in `allow(…)`).
pub fn is_known_rule(rule: &str) -> bool {
    RULE_IDS.contains(&rule)
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id from [`RULE_IDS`].
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (chars).
    pub col: usize,
    /// What is wrong and what to do instead.
    pub message: String,
    /// The offending source excerpt (the matched token or line).
    pub excerpt: String,
}

impl Finding {
    /// Stable identity used for baseline matching. Deliberately
    /// excludes the column and message so small same-line edits and
    /// message rewording do not churn the baseline.
    pub fn key(&self) -> String {
        format!("{}|{}|{}", self.rule, self.file, self.line)
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {} (`{}`)",
            self.file, self.line, self.col, self.rule, self.message, self.excerpt
        )
    }
}

/// Minimal JSON string escaping (the workspace is zero-dependency).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a full machine-readable report.
///
/// Shape: `{"version":1,"total":N,"new":M,"stale_baseline":K,
/// "findings":[{"rule":…,"file":…,"line":…,"col":…,"message":…,
/// "excerpt":…,"new":bool}…]}` — findings sorted by (file, line, col,
/// rule), so output is byte-stable for a given workspace state.
pub fn to_json(findings: &[Finding], new: &[bool], stale_baseline: usize) -> String {
    debug_assert_eq!(findings.len(), new.len());
    let mut out = String::from("{\"version\":1");
    out.push_str(&format!(",\"total\":{}", findings.len()));
    out.push_str(&format!(",\"new\":{}", new.iter().filter(|&&n| n).count()));
    out.push_str(&format!(",\"stale_baseline\":{stale_baseline}"));
    out.push_str(",\"findings\":[");
    for (i, (f, is_new)) in findings.iter().zip(new).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":{},\"file\":{},\"line\":{},\"col\":{},\"message\":{},\"excerpt\":{},\"new\":{}}}",
            escape(f.rule),
            escape(&f.file),
            f.line,
            f.col,
            escape(&f.message),
            escape(&f.excerpt),
            is_new
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_counts() {
        let f = Finding {
            rule: "panic-reach",
            file: "crates/serve/src/queue.rs".into(),
            line: 3,
            col: 7,
            message: "say \"no\"".into(),
            excerpt: "a\tb".into(),
        };
        let j = to_json(&[f], &[true], 2);
        assert!(j.starts_with("{\"version\":1,\"total\":1,\"new\":1,\"stale_baseline\":2"));
        assert!(j.contains("\"say \\\"no\\\"\""));
        assert!(j.contains("\"a\\tb\""));
        assert!(j.ends_with("]}"));
    }

    #[test]
    fn key_ignores_column_and_message() {
        let mut f = Finding {
            rule: "det-taint",
            file: "x.rs".into(),
            line: 9,
            col: 1,
            message: "m".into(),
            excerpt: "e".into(),
        };
        let k = f.key();
        f.col = 40;
        f.message = "other".into();
        assert_eq!(f.key(), k);
    }
}
