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
pub(crate) fn is_known_rule(rule: &str) -> bool {
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
/// Shape: `{"version":2,"total":N,"findings":[{"rule":…,"file":…,
/// "line":…,"col":…,"message":…,"excerpt":…}…]}` — findings sorted by
/// (file, line, col, rule), so output is byte-stable for a given
/// workspace state.
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"version\":2");
    out.push_str(&format!(",\"total\":{}", findings.len()));
    out.push_str(",\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":{},\"file\":{},\"line\":{},\"col\":{},\"message\":{},\"excerpt\":{}}}",
            escape(f.rule),
            escape(&f.file),
            f.line,
            f.col,
            escape(&f.message),
            escape(&f.excerpt)
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
        let j = to_json(&[f]);
        assert!(j.starts_with("{\"version\":2,\"total\":1,\"findings\":["));
        assert!(j.contains("\"say \\\"no\\\"\""));
        assert!(j.contains("\"a\\tb\""));
        assert!(j.ends_with("]}"));
    }
}
