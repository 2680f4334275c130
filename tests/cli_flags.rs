//! `metablink` rejects what it does not understand: an unknown flag, a
//! flag without a value and a stray positional each exit 2 with an
//! `error:` naming the offender, instead of running on defaults.

use std::process::Command;

/// Run `metablink <args>` and return (exit code, stderr).
fn metablink(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_metablink")).args(args).output().unwrap();
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn unknown_valueless_and_stray_arguments_exit_2_naming_the_offender() {
    for (args, offender) in [
        (&["generate", "--sede", "7"][..], "--sede"),
        (&["generate", "--scale", "--seed", "7"][..], "--scale"),
        (&["link", "--surface", "x", "--model"][..], "--model"),
        (&["generate", "small"][..], "\"small\""),
    ] {
        let (code, stderr) = metablink(args);
        assert_eq!(code, Some(2), "{args:?} must be a usage error; stderr: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains(offender), "{args:?} must name {offender}: {stderr}");
        assert!(!stderr.contains("generating benchmark"), "{args:?} ran anyway: {stderr}");
    }
}
