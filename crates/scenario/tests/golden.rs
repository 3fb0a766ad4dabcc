//! Golden tests for every committed `scenarios/*.json` file.
//!
//! Four guarantees per file:
//!
//! 1. it parses, and [`ScenarioSpec::to_canonical_json`] reproduces the
//!    committed bytes exactly — so `exp_run --fmt` is a no-op on
//!    everything committed, and the parser/writer pair round-trips;
//! 2. its runner is registered and its file name matches its slug;
//! 3. a `--quick` run produces a byte-identical result envelope at
//!    workers 1, 4 and 8, after masking the `workers` field itself —
//!    the only legitimately worker-dependent value in an envelope (wall
//!    times are printed, never recorded);
//! 4. those masked envelopes hash to the digest pinned for the slug in
//!    [`GOLDENS`] (library code, because the result cache keys on it).
//!    Every value the paper's tables and figures report is in an
//!    envelope, so any change in behaviour fails here, exactly, with no
//!    tolerance.
//!
//! The `goldens!` list at the end of this file names one test per
//! committed scenario; `scenario_files_and_pins_agree` fails if a
//! scenario file, a test and a pin do not match one to one.
//!
//! [`FAULTED_GOLDENS`] pins the same digest, from one
//! `--quick --workers 1` run, under the `urban-drive` and `flaky-dongle`
//! fault profiles, so the fault paths are held exactly too. It covers
//! every scenario whose run crosses the fake-frame stream or the ACK
//! pairing, and leaves out the slow drives.
//!
//! After a deliberate change in behaviour, regenerate both tables with
//! `cargo test --release -p polite-wifi-scenario --test golden --
//! --ignored print_golden_pins --nocapture`, paste its output over the
//! rows in `src/pins.rs`, and say in the commit which envelopes changed
//! and why.

use polite_wifi_obs::json::{self, JsonValue};
use polite_wifi_scenario::pins::{FAULTED_GOLDENS, GOLDENS};
use polite_wifi_scenario::{fnv1a64, runner_names, ScenarioSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

#[test]
fn every_committed_scenario_is_canonical_and_registered() {
    let mut found = 0usize;
    for entry in std::fs::read_dir(scenarios_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let spec = ScenarioSpec::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            spec.to_canonical_json(),
            text,
            "{} is not in canonical form — run `exp_run --fmt` on it",
            path.display()
        );
        assert_eq!(
            path.file_stem().and_then(|s| s.to_str()),
            Some(spec.slug.as_str()),
            "{}: file name and slug must agree",
            path.display()
        );
        assert!(
            runner_names().contains(&spec.runner.as_str()),
            "{}: runner `{}` is not registered",
            path.display(),
            spec.runner
        );
        found += 1;
    }
    assert!(
        found >= 20,
        "expected >= 20 committed scenarios, found {found}"
    );
}

/// Every result envelope written into `dir`, by file name, with its one
/// legitimately worker-dependent value, the `workers` field, masked.
fn normalised_envelopes(dir: &Path) -> BTreeMap<String, JsonValue> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let mut v = json::parse(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if let JsonValue::Obj(fields) = &mut v {
            let workers = fields.iter_mut().find(|(key, _)| key == "workers");
            workers.expect("an envelope records its workers").1 = JsonValue::Num(0.0);
        }
        out.insert(path.file_name().unwrap().to_str().unwrap().to_string(), v);
    }
    out
}

/// Runs `exp_run` on a committed scenario in `--quick` mode under the
/// `faults` profile, plus `extra` flags, with its results in a fresh
/// temp directory named by `tag`. Returns the output and the directory.
fn exp_run(slug: &str, workers: u32, faults: &str, extra: &[&str], tag: &str) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!("polite-wifi-{tag}-{slug}-{faults}-w{workers}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_exp_run"))
        .arg(scenarios_dir().join(format!("{slug}.json")))
        .args(["--quick", "--workers", &workers.to_string()])
        .args(["--faults", faults])
        .args(extra)
        .env("POLITE_WIFI_RESULTS", &dir)
        .output()
        .unwrap();
    (out, dir)
}

/// The masked envelopes of one `--quick` run under the `faults` profile.
fn quick_run(slug: &str, workers: u32, faults: &str) -> BTreeMap<String, JsonValue> {
    let (out, dir) = exp_run(slug, workers, faults, &[], "golden");
    assert!(
        out.status.success(),
        "exp_run {slug} --workers {workers} --faults {faults} failed (exit {:?}):\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let envelopes = normalised_envelopes(&dir);
    assert!(!envelopes.is_empty(), "{slug}: no envelope written");
    let _ = std::fs::remove_dir_all(&dir);
    envelopes
}

/// FNV-1a-64 over every masked envelope in file-name order: the file
/// name, then the envelope re-rendered pretty through `obs::json`.
fn digest(envelopes: &BTreeMap<String, JsonValue>) -> u64 {
    let mut text = String::new();
    for (name, envelope) in envelopes {
        text.push_str(name);
        text.push('\n');
        text.push_str(&json::to_string_pretty(envelope));
        text.push('\n');
    }
    fnv1a64(text.as_bytes())
}

/// Checks worker invariance, then the pinned digest.
fn check_golden(slug: &str) {
    let pin = GOLDENS.iter().find(|row| row.0 == slug).expect("pinned").1;
    let reference = quick_run(slug, 1, "clean");
    for workers in [4, 8] {
        assert_eq!(
            reference,
            quick_run(slug, workers, "clean"),
            "{slug}: envelope differs between --workers 1 and --workers {workers}"
        );
    }
    assert_digest(slug, "clean", &reference, pin);
}

/// Checks one `--workers 1` run under `urban-drive`, then one under
/// `flaky-dongle`, against their pinned digests.
fn check_faulted(slug: &str) {
    let &(_, urban, flaky) = (FAULTED_GOLDENS.iter())
        .find(|row| row.0 == slug)
        .expect("pinned");
    for (faults, pin) in [("urban-drive", urban), ("flaky-dongle", flaky)] {
        assert_digest(slug, faults, &quick_run(slug, 1, faults), pin);
    }
}

/// On a digest mismatch the masked envelopes are left in a temp
/// directory for diffing against a run of the previous commit.
fn assert_digest(slug: &str, faults: &str, envelopes: &BTreeMap<String, JsonValue>, pin: u64) {
    let got = digest(envelopes);
    if got != pin {
        let dir = std::env::temp_dir().join(format!("polite-wifi-golden-mismatch-{slug}-{faults}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (name, envelope) in envelopes {
            std::fs::write(dir.join(name), json::to_string_pretty(envelope)).unwrap();
        }
        panic!(
            "{slug} ({faults}): masked envelope digest is 0x{got:016x}, pinned 0x{pin:016x}; \
             the masked envelopes are in {}",
            dir.display()
        );
    }
}

/// The captures the `pcap` probe writes next to the envelope, pinned by
/// length and FNV-1a-64 (the digests above cover only the envelopes),
/// at one and two workers.
#[test]
fn pcap_bytes_are_pinned() {
    for (slug, len, pin) in [
        ("fig2_trace", 2_569, 0x67178f625998d99b),
        ("fig3_deauth", 2_194, 0x77d07735520fbf55),
    ] {
        for workers in [1, 2] {
            let (out, dir) = exp_run(slug, workers, "clean", &[], "pcap");
            assert!(out.status.success(), "exp_run {slug} failed");
            let bytes = std::fs::read(dir.join(format!("{slug}.pcap"))).unwrap();
            assert_eq!(
                (bytes.len(), fnv1a64(&bytes)),
                (len, pin),
                "{slug} --workers {workers}: pcap bytes moved"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Figure 3's two phases are trials of the generic runner, and the
/// bespoke runners run their trials on the same path, so the harness's
/// chaos hook reaches both: a panic injected into trial 1 degrades into
/// one recorded failure and a non-zero exit, while the surviving trial's
/// metrics still land (`ext_ranging`: one `relative_error` per distance).
#[test]
fn injected_trial_panic_degrades_fig3_into_one_trial_failure() {
    for (slug, trials, samples) in [("fig3_deauth", "2", None), ("ext_ranging", "2", Some(4.0))] {
        let flags = ["--trials", trials, "--inject-trial-panic", "1"];
        let (out, dir) = exp_run(slug, 1, "clean", &flags, "panic");
        assert_eq!(out.status.code(), Some(1), "{slug}");
        let text = std::fs::read_to_string(dir.join(format!("{slug}.json"))).unwrap();
        let envelope = json::parse(&text).unwrap();
        let failures = envelope.get("trial_failures").and_then(JsonValue::as_array);
        let failures = failures.unwrap();
        assert_eq!(failures.len(), 1, "{text}");
        assert_eq!(
            failures[0].get("trial").and_then(JsonValue::as_f64),
            Some(1.0)
        );
        if let Some(samples) = samples {
            assert_eq!(metric_samples(&envelope, "relative_error"), Some(samples));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// How many samples the envelope's `metric` summarises, if recorded.
fn metric_samples(envelope: &JsonValue, metric: &str) -> Option<f64> {
    let metrics = envelope.get("metrics").and_then(JsonValue::as_array)?;
    let named = |m: &&JsonValue| m.get("name").and_then(JsonValue::as_str) == Some(metric);
    metrics.iter().find(named)?.get("samples")?.as_f64()
}

/// Every bespoke runner runs its trials through the harness: a panic
/// injected into a run's only trial is one recorded failure, exit 1 and
/// a failure-only envelope, with no metric and a `null` payload.
#[test]
fn every_bespoke_runner_degrades_an_injected_panic() {
    let bespoke = runner_names()
        .into_iter()
        .filter(|r| !["generic", "wardrive"].contains(r));
    for slug in bespoke {
        let flags = ["--trials", "1", "--inject-trial-panic", "0"];
        let (out, dir) = exp_run(slug, 2, "clean", &flags, "panic-only");
        assert_eq!(out.status.code(), Some(1), "{slug}");
        let text = std::fs::read_to_string(dir.join(format!("{slug}.json"))).unwrap();
        let envelope = json::parse(&text).unwrap();
        let failures = envelope.get("trial_failures").and_then(JsonValue::as_array);
        assert_eq!(failures.map(<[_]>::len), Some(1), "{slug}: {text}");
        let metrics = envelope.get("metrics").and_then(JsonValue::as_array);
        assert_eq!(metrics.map(<[_]>::len), Some(0), "{slug}: {text}");
        assert_eq!(envelope.get("payload"), Some(&JsonValue::Null), "{slug}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The hub runs at the run's seed: `--seed 8` senses another channel
/// than the pinned seed-7 run, so its envelope differs from that row's
/// even with the `seed` field itself masked back to 7.
#[test]
fn sensing_hub_runs_at_the_run_seed() {
    let (out, dir) = exp_run("sensing_hub", 1, "clean", &["--seed", "8"], "seed");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut envelopes = normalised_envelopes(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let JsonValue::Obj(fields) = envelopes.get_mut("sensing_hub.json").unwrap() else {
        panic!("an envelope is an object");
    };
    let seed = fields.iter_mut().find(|(key, _)| key == "seed").unwrap();
    assert_eq!(seed.1, JsonValue::Num(8.0));
    seed.1 = JsonValue::Num(7.0);
    let pin = GOLDENS.iter().find(|row| row.0 == "sensing_hub").unwrap().1;
    assert_ne!(digest(&envelopes), pin, "--seed 8 ran the seed-7 hub");
}

/// A `--trials` override below the spec's case count is a usage error:
/// exit 2 before any trial runs, no envelope written.
#[test]
fn fewer_trials_than_cases_exits_2() {
    let (out, dir) = exp_run("fig3_deauth", 1, "clean", &["--trials", "1"], "trials");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot run all 2 declared cases"),
        "{stderr}"
    );
    assert!(!dir.join("fig3_deauth.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The bespoke runners seed each subject by adding its index to the
/// run's seed. The largest seed wraps instead of overflowing, which a
/// debug build would panic on.
#[test]
fn the_largest_seed_wraps_in_the_bespoke_runners() {
    let max = u64::MAX.to_string();
    for slug in ["ext_ranging", "ext_vitals"] {
        let (out, dir) = exp_run(slug, 2, "clean", &["--seed", &max], "max-seed");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{slug}: {stderr}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn committed_slugs() -> BTreeSet<String> {
    std::fs::read_dir(scenarios_dir())
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().and_then(|e| e.to_str()) == Some("json"))
        .map(|path| path.file_stem().unwrap().to_str().unwrap().to_string())
        .collect()
}

#[test]
fn scenario_files_and_pins_agree() {
    let files = committed_slugs();
    let pinned: BTreeSet<String> = GOLDENS.iter().map(|(s, _)| s.to_string()).collect();
    assert_eq!(pinned.len(), GOLDENS.len(), "a slug is pinned twice");
    let unpinned: Vec<_> = files.difference(&pinned).collect();
    let orphaned: Vec<_> = pinned.difference(&files).collect();
    assert!(
        unpinned.is_empty() && orphaned.is_empty(),
        "scenario files without a golden row: {unpinned:?}; \
         golden rows without a scenario file: {orphaned:?}"
    );
    let pinned: Vec<&str> = GOLDENS.iter().map(|(s, _)| *s).collect();
    assert_eq!(GOLDEN_TESTS, pinned, "every pin needs its `goldens!` test");
}

#[test]
fn faulted_pins_name_committed_scenarios() {
    let files = committed_slugs();
    for (slug, ..) in FAULTED_GOLDENS {
        assert!(
            files.contains(*slug),
            "faulted row `{slug}` has no scenario file"
        );
    }
    let pinned: Vec<&str> = FAULTED_GOLDENS.iter().map(|(s, ..)| *s).collect();
    assert_eq!(
        FAULTED_TESTS, pinned,
        "every pin needs its `faulted_goldens!` test"
    );
}

#[test]
#[ignore = "runs every committed scenario; prints the replacement GOLDENS and FAULTED_GOLDENS rows"]
fn print_golden_pins() {
    for slug in committed_slugs() {
        let pin = digest(&quick_run(&slug, 1, "clean"));
        println!("    (\"{slug}\", 0x{pin:016x}),");
    }
    for (slug, ..) in FAULTED_GOLDENS {
        let [urban, flaky] =
            ["urban-drive", "flaky-dongle"].map(|faults| digest(&quick_run(slug, 1, faults)));
        println!("    (\"{slug}\", 0x{urban:016x}, 0x{flaky:016x}),");
    }
}

/// One row per committed scenario: the test name, the slug and, for the
/// slow ones, why the test is `#[ignore]`d. Generates `GOLDEN_TESTS` and
/// one test per row, which checks the slug's row of [`GOLDENS`].
macro_rules! goldens {
    ($($name:ident: $slug:literal $(, ignore = $why:literal)?;)*) => {
        /// The slug of every row.
        const GOLDEN_TESTS: &[&str] = &[$($slug),*];
        $(
            #[test]
            $(#[ignore = $why])?
            fn $name() {
                check_golden($slug);
            }
        )*
    };
}

goldens! {
    golden_ablation_validate: "ablation_validate";
    golden_battery_life: "battery_life";
    golden_blockack_paralysis: "blockack_paralysis";
    golden_city_wardrive: "city_wardrive", ignore = "minutes-long even with --quick; run with --release -- --ignored";
    golden_ext_classifier: "ext_classifier";
    golden_ext_driveby: "ext_driveby", ignore = "~2 min of simulated driving; run with --release -- --ignored";
    golden_ext_nav_dos: "ext_nav_dos";
    golden_ext_randomization: "ext_randomization";
    golden_ext_ranging: "ext_ranging";
    golden_ext_vitals: "ext_vitals";
    golden_fig2_trace: "fig2_trace";
    golden_fig3_deauth: "fig3_deauth";
    golden_fig5_keystroke: "fig5_keystroke";
    golden_fig6_power: "fig6_power";
    golden_pmf_deauth_matrix: "pmf_deauth_matrix";
    golden_powersave_awake: "powersave_awake";
    golden_sensing_hub: "sensing_hub";
    golden_sifs_timing: "sifs_timing";
    golden_table1_devices: "table1_devices";
    golden_table2_wardrive: "table2_wardrive";
}

/// One row per scenario pinned under faults: the test name and the
/// slug. Generates `FAULTED_TESTS` and one test per row, which checks
/// the slug's row of [`FAULTED_GOLDENS`].
macro_rules! faulted_goldens {
    ($($name:ident: $slug:literal;)*) => {
        /// The slug of every row.
        const FAULTED_TESTS: &[&str] = &[$($slug),*];
        $(
            #[test]
            fn $name() {
                check_faulted($slug);
            }
        )*
    };
}

faulted_goldens! {
    faulted_ablation_validate: "ablation_validate";
    faulted_battery_life: "battery_life";
    faulted_blockack_paralysis: "blockack_paralysis";
    faulted_ext_nav_dos: "ext_nav_dos";
    faulted_ext_ranging: "ext_ranging";
    faulted_ext_vitals: "ext_vitals";
    faulted_fig2_trace: "fig2_trace";
    faulted_fig3_deauth: "fig3_deauth";
    faulted_fig5_keystroke: "fig5_keystroke";
    faulted_fig6_power: "fig6_power";
    faulted_pmf_deauth_matrix: "pmf_deauth_matrix";
    faulted_powersave_awake: "powersave_awake";
    faulted_sensing_hub: "sensing_hub";
    faulted_sifs_timing: "sifs_timing";
    faulted_table1_devices: "table1_devices";
}
