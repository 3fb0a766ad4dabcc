//! The `polite-wifi-d` binary's usage contract: a bad command line
//! exits 2 and names every problem, before anything binds or runs.

use std::process::Command;

fn usage_error(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_polite-wifi-d"))
        .args(args)
        .output()
        .expect("spawn polite-wifi-d");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.ends_with("(try --help)\n"), "{stderr}");
    stderr
}

#[test]
fn a_bad_value_names_the_flag_and_the_value() {
    let stderr = usage_error(&["--workers", "two"]);
    assert!(
        stderr.contains("--workers expects a number, got `two`"),
        "{stderr}"
    );
}

#[test]
fn every_problem_is_named_in_one_message() {
    let stderr = usage_error(&[
        "--prot",
        "7632",
        "--state-dir",
        "--workers",
        "1",
        "--workers",
        "2",
    ]);
    for needle in [
        "unknown flag `--prot`",
        "unexpected argument `7632`",
        "--state-dir needs a value",
        "duplicate flag --workers",
    ] {
        assert!(stderr.contains(needle), "{needle}: {stderr}");
    }
}

#[test]
fn the_journal_capacity_flag_is_gone() {
    let stderr = usage_error(&["--journal-capacity", "16"]);
    assert!(
        stderr.contains("unknown flag `--journal-capacity`"),
        "{stderr}"
    );
}
