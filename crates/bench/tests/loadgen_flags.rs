//! `loadgen` rejects a flag it does not know, a flag given twice and a
//! flag the chosen mode does not read, with a nonzero exit naming it —
//! before it builds a model, starts a server or connects anywhere —
//! instead of running on defaults.

use std::process::Command;

/// Run `loadgen <args>` and return (exit code, stderr).
fn loadgen(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen")).args(args).output().unwrap();
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn unknown_repeated_and_other_mode_flags_exit_nonzero_naming_the_flag() {
    for (args, offender) in [
        (&["--open-loop", "--qsp", "40"][..], "unknown flag --qsp"),
        (&["--open-loop", "--max-delay-us", "500"][..], "unknown flag --max-delay-us"),
        (&["--addr", "127.0.0.1:9", "--requests", "1", "--requests", "2"][..], "--requests"),
        (&["--open-loop", "--strict", "--open-loop"][..], "--open-loop"),
        (&["--open-loop", "--requests", "5"][..], "--requests does not apply to --open-loop"),
        (&["--addr", "127.0.0.1:9", "--qps", "40"][..], "--qps does not apply to an external run"),
    ] {
        let (code, stderr) = loadgen(args);
        assert!(code.is_some_and(|c| c != 0), "{args:?} must fail; stderr: {stderr}");
        assert!(stderr.starts_with("loadgen: "), "{args:?}: {stderr}");
        assert!(stderr.contains(offender), "{args:?} must name {offender}: {stderr}");
        assert!(!stderr.contains("building model"), "{args:?} ran anyway: {stderr}");
    }
}
