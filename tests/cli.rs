//! Integration tests for the `politewifi` CLI binary (spawned as a real
//! process via the path Cargo exports for bin targets).

use std::process::Command;

fn politewifi(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_politewifi"))
        .args(args)
        .output()
        .expect("spawn politewifi")
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = politewifi(&[]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = politewifi(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn quickstart_reports_the_ack() {
    let out = politewifi(&["quickstart", "--seed", "7"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Acknowledgement"), "{stdout}");
    assert!(stdout.contains("victim ACKs sent: 1"), "{stdout}");
}

#[test]
fn quickstart_pcap_round_trips_through_analyze() {
    let dir = std::env::temp_dir();
    for ext in ["pcap", "pcapng"] {
        let path = dir.join(format!("politewifi_cli_test.{ext}"));
        let path_str = path.to_str().unwrap();
        let out = politewifi(&["quickstart", "--out", path_str]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );

        let out = politewifi(&["analyze", path_str]);
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("verified fake→ACK exchanges for aa:bb:bb:bb:bb:bb: 1"),
            "{ext}: {stdout}"
        );
        assert!(stdout.contains("responding victim: f2:6e:0b:11:22:33"));
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn analyze_rejects_garbage_files() {
    let path = std::env::temp_dir().join("politewifi_cli_garbage.bin");
    std::fs::write(&path, b"not a capture at all").unwrap();
    let out = politewifi(&["analyze", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not a pcap"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sifs_command_prints_the_argument() {
    let out = politewifi(&["sifs"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SIFS = 10"));
    assert!(stdout.contains("MISSES"));
    assert!(stdout.contains("70x"));
}

#[test]
fn drain_command_reports_power() {
    let out = politewifi(&["drain", "--rate", "50", "--seconds", "3"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("mW average"), "{stdout}");
    assert!(stdout.contains("Logitech Circle 2"));
}

#[test]
fn bad_flag_value_is_an_error() {
    let out = politewifi(&["drain", "--rate", "lots"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--rate expects a number"));
}

/// Asserts a usage error: exit status 2 and every `needle` on stderr.
fn assert_usage_error(args: &[&str], needles: &[&str]) {
    let out = politewifi(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    for needle in needles {
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(&["sifs", "--bogus"], &["unknown flag `--bogus`"]);
    // A misspelled flag never runs the command at a default.
    assert_usage_error(
        &["drain", "--rat", "100"],
        &["unknown flag `--rat`", "unexpected argument `100`"],
    );
}

#[test]
fn flag_without_value_is_a_usage_error() {
    assert_usage_error(&["quickstart", "--out"], &["--out needs a value"]);
}

#[test]
fn duplicate_flag_is_a_usage_error() {
    assert_usage_error(
        &["drain", "--rate", "5", "--rate", "6"],
        &["duplicate flag --rate"],
    );
}
