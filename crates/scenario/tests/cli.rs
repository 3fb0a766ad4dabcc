//! `exp_run`'s usage errors, spawned as a real process: every mode
//! reads its arguments through the harness's one flag parser, so a
//! misspelled flag exits 2 and is named on stderr.

use std::process::Command;

/// Asserts that `exp_run args` is a usage error: exit status 2 and
/// every `needle` on stderr.
fn assert_usage_error(args: &[&str], needles: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_run"))
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .args(args)
        .output()
        .expect("spawn exp_run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    for needle in needles {
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

#[test]
fn a_misspelled_flag_after_fmt_or_check_is_named() {
    for mode in ["--check", "--fmt"] {
        assert_usage_error(&[mode, "--bogus"], &["unknown flag `--bogus`"]);
        // A good path beside it does not let the flag through.
        assert_usage_error(
            &[mode, "scenarios/fig2_trace.json", "--bogus"],
            &["unknown flag `--bogus`", "(try --help)"],
        );
    }
}

#[test]
fn fmt_or_check_without_a_path_is_a_usage_error() {
    assert_usage_error(&["--check"], &["--check needs at least one scenario path"]);
}

#[test]
fn a_misspelled_run_flag_is_named() {
    assert_usage_error(
        &["scenarios/fig2_trace.json", "--bogus"],
        &["unknown flag `--bogus`"],
    );
}
