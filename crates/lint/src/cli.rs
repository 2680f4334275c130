//! The `mb-lint` command line, shared by the standalone binary and the
//! `metablink lint` subcommand.

use crate::findings::{to_json, Finding};
use crate::{baseline, explain, workspace};
use std::path::PathBuf;

/// Parsed command-line options.
#[derive(Debug, Default)]
struct Options {
    root: Option<PathBuf>,
    baseline: Option<PathBuf>,
    json: bool,
    update_baseline: bool,
    explain: Option<String>,
}

const USAGE: &str = "\
mb-lint — static analysis for this workspace's panic-freedom, determinism,
and lock-discipline invariants, at the site and through every call
(DESIGN.md §10).

USAGE:
  mb-lint [--root <dir>] [--baseline <file>] [--json] [--update-baseline]
  mb-lint --explain <rule>

  --root <dir>        workspace root (default: walk up to the [workspace] Cargo.toml)
  --baseline <file>   baseline file (default: <root>/lint-baseline.txt)
  --json              machine-readable report on stdout (a pure function
                      of the workspace's content)
  --update-baseline   rewrite the baseline from the current findings and exit 0
  --explain <rule>    print a rule's contract, example, and suppression form

Exit status: 0 when every finding is baselined, 1 on any new finding,
2 on usage errors, an unreadable or empty root, unreadable workspace files,
or I/O errors.";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                opts.root = Some(it.next().ok_or("--root needs a value")?.into());
            }
            "--baseline" => {
                opts.baseline = Some(it.next().ok_or("--baseline needs a value")?.into());
            }
            "--json" => opts.json = true,
            "--update-baseline" => opts.update_baseline = true,
            "--explain" => {
                opts.explain = Some(it.next().ok_or("--explain needs a rule id")?.clone());
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// Run the linter; returns the process exit code.
pub fn run(args: &[String]) -> u8 {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    if let Some(rule) = &opts.explain {
        return match explain::explain(rule) {
            Ok(text) => {
                println!("{text}");
                0
            }
            Err(msg) => {
                eprintln!("mb-lint: {msg}");
                2
            }
        };
    }
    let root = match opts
        .root
        .or_else(|| std::env::current_dir().ok().and_then(|d| workspace::find_root(&d)))
    {
        Some(r) => r,
        None => {
            eprintln!("mb-lint: no [workspace] Cargo.toml found above the current directory");
            return 2;
        }
    };
    let findings = match workspace::run(&root) {
        Ok(findings) => findings,
        Err(e) => {
            eprintln!("mb-lint: {e}");
            return 2;
        }
    };
    let baseline_path = opts.baseline.unwrap_or_else(|| root.join(baseline::DEFAULT_FILE));

    if opts.update_baseline {
        if let Err(e) = std::fs::write(&baseline_path, baseline::render(&findings)) {
            eprintln!("mb-lint: cannot write {}: {e}", baseline_path.display());
            return 2;
        }
        println!(
            "mb-lint: baseline updated with {} finding(s) at {}",
            findings.len(),
            baseline_path.display()
        );
        return 0;
    }

    let baseline_keys = match baseline::load(&baseline_path) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("mb-lint: cannot read {}: {e}", baseline_path.display());
            return 2;
        }
    };
    let (new, _old, stale) = baseline::diff(&findings, &baseline_keys);

    if opts.json {
        let new_keys: std::collections::BTreeSet<String> = new.iter().map(|f| f.key()).collect();
        let flags: Vec<bool> = findings.iter().map(|f| new_keys.contains(&f.key())).collect();
        println!("{}", to_json(&findings, &flags, stale));
    } else {
        report_human(&findings, &new, stale);
    }
    u8::from(!new.is_empty())
}

fn report_human(findings: &[Finding], new: &[&Finding], stale: usize) {
    for f in findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("mb-lint: clean — no findings.");
    } else {
        println!(
            "mb-lint: {} finding(s), {} new, {} baselined.",
            findings.len(),
            new.len(),
            findings.len() - new.len()
        );
    }
    if stale > 0 {
        println!(
            "mb-lint: {stale} stale baseline entr{} no longer match — run --update-baseline",
            if stale == 1 { "y" } else { "ies" }
        );
    }
    if !new.is_empty() {
        println!("mb-lint: FAIL — new findings are denied (fix or justify with a suppression).");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(parse(&["--frobnicate".to_string()]).is_err());
    }

    #[test]
    fn flags_parse() {
        let o =
            parse(&["--root".to_string(), "/tmp/ws".to_string(), "--json".to_string()]).unwrap();
        assert!(o.json);
        assert_eq!(o.root.as_deref(), Some(std::path::Path::new("/tmp/ws")));
    }

    #[test]
    fn explain_flag_parses() {
        let o = parse(&["--explain".to_string(), "panic-reach".to_string()]).unwrap();
        assert_eq!(o.explain.as_deref(), Some("panic-reach"));
        assert!(parse(&["--explain".to_string()]).is_err());
    }
}
