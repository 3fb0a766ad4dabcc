//! Golden tests for every committed `scenarios/*.json` file.
//!
//! Four guarantees per file:
//!
//! 1. it parses, and [`ScenarioSpec::to_canonical_json`] reproduces the
//!    committed bytes exactly — so `exp_run --fmt` is a no-op on
//!    everything committed, and the parser/writer pair round-trips;
//! 2. its runner is registered and its file name matches its slug;
//! 3. a `--quick` run produces a byte-identical result envelope at
//!    workers 1, 4 and 8, after masking the `workers` field itself and
//!    the `wall_seconds` metric — the only legitimately
//!    timing-dependent values in an envelope;
//! 4. those masked envelopes hash to the digest pinned for the slug in
//!    the `goldens!` table at the end of this file. Every value the
//!    paper's tables and figures report is in an envelope, so any change
//!    in behaviour fails here, exactly, with no tolerance.
//!
//! `scenario_files_and_pins_agree` fails if a scenario file has no row
//! in that table or a row has no file.
//!
//! The `faulted_goldens!` table pins the same digest, from one
//! `--quick --workers 1` run, under the `urban-drive` and `flaky-dongle`
//! fault profiles, so the fault paths are held exactly too. It covers
//! every scenario whose run crosses the fake-frame stream or the ACK
//! pairing, and leaves out the slow drives.
//!
//! After a deliberate change in behaviour, regenerate the table with
//! `cargo test --release -p polite-wifi-scenario --test golden --
//! --ignored print_golden_pins --nocapture`, paste its output over the
//! rows, and say in the commit which envelopes changed and why.

use polite_wifi_obs::json::{self, JsonValue};
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

/// Masks the two legitimately worker-dependent values in an envelope:
/// the `workers` field and the `wall_seconds` metric summary.
fn mask_worker_dependent(v: &mut JsonValue) {
    let JsonValue::Obj(fields) = v else { return };
    for (key, val) in fields.iter_mut() {
        match key.as_str() {
            "workers" => *val = JsonValue::Num(0.0),
            "metrics" => {
                let JsonValue::Arr(metrics) = val else {
                    continue;
                };
                for metric in metrics {
                    let JsonValue::Obj(mf) = metric else { continue };
                    if !mf
                        .iter()
                        .any(|(k, v)| k == "name" && v.as_str() == Some("wall_seconds"))
                    {
                        continue;
                    }
                    for (mk, mv) in mf.iter_mut() {
                        if matches!(mk.as_str(), "mean" | "min" | "max" | "total") {
                            *mv = JsonValue::Num(0.0);
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// Every result envelope written into `dir`, by file name, masked.
fn normalised_envelopes(dir: &Path) -> BTreeMap<String, JsonValue> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let mut v = json::parse(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        mask_worker_dependent(&mut v);
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
fn check_golden(slug: &str, pin: u64) {
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

/// Checks one `--workers 1` run under `faults` against its pinned digest.
fn check_faulted(slug: &str, faults: &str, pin: u64) {
    assert_digest(slug, faults, &quick_run(slug, 1, faults), pin);
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

/// Figure 3's two phases are trials of the generic runner, so the
/// harness's chaos hook reaches them: a panic injected into trial 1
/// degrades into one recorded failure and a non-zero exit.
#[test]
fn injected_trial_panic_degrades_fig3_into_one_trial_failure() {
    let inject = ["--inject-trial-panic", "1"];
    let (out, dir) = exp_run("fig3_deauth", 1, "clean", &inject, "panic");
    assert_eq!(out.status.code(), Some(1));
    let text = std::fs::read_to_string(dir.join("fig3_deauth.json")).unwrap();
    let failures = json::parse(&text).unwrap().get("trial_failures").cloned();
    let failures = failures.as_ref().and_then(JsonValue::as_array).unwrap();
    assert_eq!(failures.len(), 1, "{text}");
    assert_eq!(
        failures[0].get("trial").and_then(JsonValue::as_f64),
        Some(1.0)
    );
    let _ = std::fs::remove_dir_all(&dir);
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
    let pinned: BTreeSet<String> = GOLDEN_PINS.iter().map(|(s, ..)| s.to_string()).collect();
    assert_eq!(pinned.len(), GOLDEN_PINS.len(), "a slug is pinned twice");
    let unpinned: Vec<_> = files.difference(&pinned).collect();
    let orphaned: Vec<_> = pinned.difference(&files).collect();
    assert!(
        unpinned.is_empty() && orphaned.is_empty(),
        "scenario files without a golden row: {unpinned:?}; \
         golden rows without a scenario file: {orphaned:?}"
    );
}

#[test]
fn faulted_pins_name_committed_scenarios() {
    let files = committed_slugs();
    for (slug, ..) in FAULTED_PINS {
        assert!(
            files.contains(*slug),
            "faulted row `{slug}` has no scenario file"
        );
    }
}

#[test]
#[ignore = "runs every committed scenario; prints the replacement goldens! and faulted_goldens! rows"]
fn print_golden_pins() {
    for slug in committed_slugs() {
        let pin = digest(&quick_run(&slug, 1, "clean"));
        let ignore = GOLDEN_PINS
            .iter()
            .find_map(|&(s, _, why)| if s == slug { why } else { None })
            .map_or(String::new(), |why| format!(", ignore = {why:?}"));
        println!("    golden_{slug}: \"{slug}\" => 0x{pin:016x}{ignore};");
    }
    for (slug, ..) in FAULTED_PINS {
        let [urban, flaky] =
            ["urban-drive", "flaky-dongle"].map(|faults| digest(&quick_run(slug, 1, faults)));
        println!("    faulted_{slug}: \"{slug}\" => 0x{urban:016x}, 0x{flaky:016x};");
    }
}

macro_rules! some {
    () => {
        None
    };
    ($why:literal) => {
        Some($why)
    };
}

/// One row per committed scenario: the test name, the slug, the digest of
/// its masked `--quick --workers 1` envelopes and, for the slow ones, why
/// the test is `#[ignore]`d. Generates `GOLDEN_PINS` and one test per row.
macro_rules! goldens {
    ($($name:ident: $slug:literal => $pin:literal $(, ignore = $why:literal)?;)*) => {
        /// (slug, pinned digest, ignore reason) per committed scenario.
        const GOLDEN_PINS: &[(&str, u64, Option<&str>)] = &[$(($slug, $pin, some!($($why)?))),*];
        $(
            #[test]
            $(#[ignore = $why])?
            fn $name() {
                check_golden($slug, $pin);
            }
        )*
    };
}

goldens! {
    golden_ablation_validate: "ablation_validate" => 0x0122937b2f627398;
    golden_battery_life: "battery_life" => 0x70d5d762a67f9ebe;
    golden_blockack_paralysis: "blockack_paralysis" => 0xb669ff49d162a2f6;
    golden_city_wardrive: "city_wardrive" => 0x0b831e2968e14171, ignore = "minutes-long even with --quick; run with --release -- --ignored";
    golden_ext_classifier: "ext_classifier" => 0x6e9294be1299cc15;
    golden_ext_driveby: "ext_driveby" => 0x9abebbd7b0e95b71, ignore = "~2 min of simulated driving; run with --release -- --ignored";
    golden_ext_nav_dos: "ext_nav_dos" => 0xc14d14c01429cf73;
    golden_ext_randomization: "ext_randomization" => 0xfbfadb78d6f7e9c8;
    golden_ext_ranging: "ext_ranging" => 0xcffb49862cf4a04f;
    golden_ext_vitals: "ext_vitals" => 0xfaf8a3ae1eabd822;
    golden_fig2_trace: "fig2_trace" => 0xf43543ec7e1e33ef;
    golden_fig3_deauth: "fig3_deauth" => 0xc48d0da873cfc910;
    golden_fig5_keystroke: "fig5_keystroke" => 0xf221b6f25285fe61;
    golden_fig6_power: "fig6_power" => 0x27475db38658750d;
    golden_pmf_deauth_matrix: "pmf_deauth_matrix" => 0x527af751b6e947e7;
    golden_powersave_awake: "powersave_awake" => 0x7ed8fec287a236f2;
    golden_sensing_hub: "sensing_hub" => 0xdb6e0169ef45ee62;
    golden_sifs_timing: "sifs_timing" => 0x582f2e34a7fc6b93;
    golden_table1_devices: "table1_devices" => 0xcd826b9b5edc4f03;
    golden_table2_wardrive: "table2_wardrive" => 0x99c4c4a5f15aa78b;
}

/// One row per scenario pinned under faults: the test name, the slug,
/// and the digest of its masked `--quick --workers 1` envelopes under
/// `urban-drive`, then under `flaky-dongle`. Generates `FAULTED_PINS`
/// and one test per row.
macro_rules! faulted_goldens {
    ($($name:ident: $slug:literal => $urban:literal, $flaky:literal;)*) => {
        /// (slug, urban-drive digest, flaky-dongle digest) per row.
        const FAULTED_PINS: &[(&str, u64, u64)] = &[$(($slug, $urban, $flaky)),*];
        $(
            #[test]
            fn $name() {
                check_faulted($slug, "urban-drive", $urban);
                check_faulted($slug, "flaky-dongle", $flaky);
            }
        )*
    };
}

faulted_goldens! {
    faulted_ablation_validate: "ablation_validate" => 0x2047a1798a278a93, 0x2c45bf1def6fa217;
    faulted_battery_life: "battery_life" => 0x8ecc9b572e310b6e, 0x7507dba53f7c902c;
    faulted_blockack_paralysis: "blockack_paralysis" => 0x42a5c381c44e1c31, 0xf75fb016e667982b;
    faulted_ext_nav_dos: "ext_nav_dos" => 0x7f8d7a7d0aadc300, 0xc606fc7447ad915c;
    faulted_ext_ranging: "ext_ranging" => 0x36fe38d0f8ec98bc, 0xe47aab765eea63d9;
    faulted_ext_vitals: "ext_vitals" => 0xcd6101852f1849c0, 0x859935771601d90f;
    faulted_fig2_trace: "fig2_trace" => 0x814baf9efe18e956, 0x8d8367ac912a593c;
    faulted_fig3_deauth: "fig3_deauth" => 0x570312d5e589bc5c, 0x038ad8221ac354fe;
    faulted_fig5_keystroke: "fig5_keystroke" => 0x5c472961d490aa31, 0x592399bd76f01dcc;
    faulted_fig6_power: "fig6_power" => 0x82a5354683fbb25a, 0x14cf9336a62bcf83;
    faulted_pmf_deauth_matrix: "pmf_deauth_matrix" => 0xf319f242c1393fc6, 0x301745735b5476cd;
    faulted_powersave_awake: "powersave_awake" => 0xa0e7d9665fd6a9fd, 0xe54ad9dd6f2296e3;
    faulted_sensing_hub: "sensing_hub" => 0xf77fb796cdc42657, 0xdff4eb00c3557a14;
    faulted_sifs_timing: "sifs_timing" => 0xd5dfcec62df03f3f, 0x79ccfac9dbb0bf69;
    faulted_table1_devices: "table1_devices" => 0x70024c9ec888d308, 0xa1e2e42b781eebe8;
}
