//! Suppression comments.
//!
//! Syntax: `// mb-lint: allow(rule-a, rule-b) -- justification`
//!
//! A suppression on the same line as a finding silences it; a
//! suppression comment standing alone on its line also covers the
//! *next* line (so long justifications can sit above the code). The
//! justification after `--` is **mandatory and non-empty** — an
//! unjustified or malformed suppression is itself a finding
//! (`suppression`), and unknown rule ids are rejected so typos cannot
//! silently disable nothing.

use crate::findings::{is_known_rule, Finding};
use crate::lexer::{LineMap, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// A parsed `mb-lint: allow(…)` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The rule ids inside `allow(…)`, in written order.
    pub rules: Vec<String>,
    /// The text after `--`, trimmed; `None` when the marker is absent.
    pub justification: Option<String>,
}

/// Parse the suppression syntax out of one comment's text, if the
/// `mb-lint:` marker is present. Returns `None` for ordinary comments
/// and `Some(Err(reason))` for a malformed suppression.
pub fn parse_allow(comment: &str) -> Option<Result<Allow, String>> {
    let rest = comment.split_once("mb-lint:")?.1;
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow") else {
        return Some(Err("expected `allow(<rule>, …)` after `mb-lint:`".to_string()));
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Some(Err("expected `(` after `allow`".to_string()));
    };
    let Some((list, rest)) = rest.split_once(')') else {
        return Some(Err("unclosed `allow(` rule list".to_string()));
    };
    let rules: Vec<String> =
        list.split(',').map(|r| r.trim().to_string()).filter(|r| !r.is_empty()).collect();
    if rules.is_empty() {
        return Some(Err("empty `allow()` rule list".to_string()));
    }
    let justification = rest
        .trim_start()
        .strip_prefix("--")
        .map(|j| j.trim().trim_end_matches("*/").trim().to_string());
    Some(Ok(Allow { rules, justification }))
}

/// Suppressions for one file: which rules are allowed on which lines.
#[derive(Debug, Default)]
pub struct Suppressions {
    /// line → rule ids silenced on that line.
    allowed: BTreeMap<usize, BTreeSet<String>>,
}

impl Suppressions {
    /// True if an `allow(rule)` covers `line`: a finding of `rule`
    /// there is silenced, and a taint fact stops there.
    pub(crate) fn allows(&self, rule: &str, line: usize) -> bool {
        self.allowed.get(&line).is_some_and(|rules| rules.contains(rule))
    }
}

/// Scan a file's comment tokens for suppressions. Returns the
/// per-line allow map plus `suppression` findings for malformed,
/// unjustified, or unknown-rule comments.
pub fn collect(
    file: &str,
    src: &str,
    tokens: &[Token],
    map: &LineMap,
) -> (Suppressions, Vec<Finding>) {
    let mut sup = Suppressions::default();
    let mut findings = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if !matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = tok.text(src);
        // Doc comments are documentation, not suppressions — they may
        // legitimately describe the suppression syntax itself.
        if text.starts_with("///")
            || text.starts_with("//!")
            || text.starts_with("/**")
            || text.starts_with("/*!")
        {
            continue;
        }
        let Some(parsed) = parse_allow(text) else { continue };
        let (line, col) = map.line_col(src, tok.start);
        let excerpt = tok.text(src).trim().to_string();
        let mut fail = |message: String| {
            findings.push(Finding {
                rule: "suppression",
                file: file.to_string(),
                line,
                col,
                message,
                excerpt: excerpt.clone(),
            });
        };
        let allow = match parsed {
            Ok(a) => a,
            Err(reason) => {
                fail(format!("malformed suppression: {reason}"));
                continue;
            }
        };
        match &allow.justification {
            None => {
                fail(
                    "suppression lacks a justification: write `mb-lint: allow(rule) -- why`"
                        .to_string(),
                );
                continue;
            }
            Some(j) if j.is_empty() => {
                fail("suppression justification is empty".to_string());
                continue;
            }
            Some(_) => {}
        }
        let unknown: Vec<&String> = allow.rules.iter().filter(|r| !is_known_rule(r)).collect();
        if !unknown.is_empty() {
            fail(format!(
                "unknown rule id(s) in allow(): {}",
                unknown.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(", ")
            ));
            continue;
        }
        // The suppression covers its own line, and — when the comment
        // is the first non-whitespace token on its line — the next one.
        let mut lines = vec![line];
        let alone = tokens[..i]
            .iter()
            .rev()
            .take_while(|t| map.line(t.start) == line || map.line(t.end.saturating_sub(1)) == line)
            .all(|t| t.kind == TokenKind::Whitespace);
        if alone {
            lines.push(map.line(tok.end.saturating_sub(1)) + 1);
        }
        for l in lines {
            sup.allowed.entry(l).or_default().extend(allow.rules.iter().cloned());
        }
    }
    (sup, findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn run(src: &str) -> (Suppressions, Vec<Finding>) {
        let toks = lexer::lex(src);
        let map = LineMap::new(src);
        collect("f.rs", src, &toks, &map)
    }

    #[test]
    fn parses_rules_and_justification() {
        let a = parse_allow("// mb-lint: allow(panic-reach, det-taint) -- init-only path")
            .unwrap()
            .unwrap();
        assert_eq!(a.rules, vec!["panic-reach", "det-taint"]);
        assert_eq!(a.justification.as_deref(), Some("init-only path"));
    }

    #[test]
    fn ordinary_comments_are_ignored() {
        assert!(parse_allow("// nothing to see").is_none());
        let (_, f) = run("// a plain comment\nlet x = 1;\n");
        assert!(f.is_empty());
    }

    #[test]
    fn missing_justification_is_a_finding() {
        let (_, f) = run("let x = 1; // mb-lint: allow(panic-reach)\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "suppression");
        assert!(f[0].message.contains("justification"));
    }

    #[test]
    fn unknown_rule_is_a_finding() {
        let (_, f) = run("// mb-lint: allow(no-such-rule) -- because\n");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("no-such-rule"));
    }

    #[test]
    fn standalone_comment_covers_next_line() {
        let src = "// mb-lint: allow(det-taint) -- lookup only, never iterated\nlet m = 1;\n";
        let (sup, f) = run(src);
        assert!(f.is_empty());
        assert!(sup.allows("det-taint", 1));
        assert!(sup.allows("det-taint", 2));
        assert!(!sup.allows("det-taint", 3));
        assert!(!sup.allows("panic-reach", 2));
    }

    #[test]
    fn trailing_comment_covers_only_its_line() {
        let src =
            "let a = 1;\nlet m = x; // mb-lint: allow(det-taint) -- not iterated\nlet b = 2;\n";
        let (sup, _) = run(src);
        assert!(sup.allows("det-taint", 2));
        assert!(!sup.allows("det-taint", 3));
    }
}
