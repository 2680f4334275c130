//! The `mb-lint` command line, shared by the standalone binary and the
//! `metablink lint` subcommand.

use crate::findings::{to_json, Finding};
use crate::{explain, workspace};
use std::path::PathBuf;

/// Parsed command-line options.
#[derive(Debug, Default)]
struct Options {
    root: Option<PathBuf>,
    json: bool,
    explain: Option<String>,
}

const USAGE: &str = "\
mb-lint — static analysis for this workspace's panic-freedom, determinism,
and lock-discipline invariants, at the site and through every call
(DESIGN.md §10).

USAGE:
  mb-lint [--root <dir>] [--json]
  mb-lint --explain <rule>

  --root <dir>        workspace root (default: walk up to the [workspace] Cargo.toml)
  --json              machine-readable report on stdout (a pure function
                      of the workspace's content)
  --explain <rule>    print a rule's contract, example, and suppression form

Exit status: 0 with no findings, 1 on any finding,
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
            "--json" => opts.json = true,
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
    if opts.json {
        println!("{}", to_json(&findings));
    } else {
        report_human(&findings);
    }
    u8::from(!findings.is_empty())
}

fn report_human(findings: &[Finding]) {
    for f in findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("mb-lint: clean — no findings.");
    } else {
        println!(
            "mb-lint: FAIL — {} finding(s) (fix or justify with a suppression).",
            findings.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_flags_are_rejected() {
        for args in [&["--frobnicate"][..], &["--baseline", "f"], &["--update-baseline"]] {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            assert!(parse(&args).is_err(), "{args:?} must be rejected");
        }
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
