//! `exp_run SCENARIO.json [flags]` — the single experiment entry point.
//!
//! Reads a scenario file, applies its run defaults, lets the usual
//! harness flags (`--trials/--workers/--seed/--quick/--faults/…`)
//! override them, and dispatches to the runner the spec names.
//!
//! Extra modes:
//! * `exp_run --list` prints every registered runner.
//! * `exp_run --fmt FILE...` rewrites each file in canonical form
//!   (the form the golden tests pin byte-exactly).
//! * `exp_run --check FILE...` validates each file and verifies it is
//!   already canonical, printing one line per file; non-canonical files
//!   name the fields whose order drifted.

use polite_wifi_harness::{FlagSpec, Flags, RunArgs};
use polite_wifi_obs::json::{self, Json, JsonValue};
use polite_wifi_scenario::{run_spec, runner_names, ScenarioSpec};
use std::process::exit;

const USAGE: &str = "usage: exp_run SCENARIO.json [harness flags]\n       \
    exp_run --list | --fmt FILE... | --check FILE...\n\n\
    --trials N runs N trials on every runner, trial t under seed `S ^ t` (trial 0 \
    under --seed S\nitself): metrics hold one sample per completed trial and the \
    payload is the first completed\ntrial's. --workers M fans the trials over M \
    threads, or a lone trial's independent parts.\n\n\
    --quick changes results only through the `quick_*` overrides of a spec's \
    `wardrive`\nsection (a smaller Table 2 population, a shorter city dwell), and \
    such a run writes\n`<slug>_quick`; for every other spec it only labels the \
    envelope `\"quick\": true`.";

/// `--fmt` and `--check` take scenario paths and no flags.
const FILES: FlagSpec = FlagSpec {
    values: &[],
    switches: &[],
    positionals: true,
    usage: USAGE,
};

fn fail(msg: &str) -> ! {
    eprintln!("exp_run: {msg}");
    exit(2);
}

fn load(path: &str) -> ScenarioSpec {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => fail(&format!("cannot read `{path}`: {e}")),
    };
    match ScenarioSpec::parse(&text) {
        Ok(spec) => spec,
        Err(e) => fail(&format!("`{path}`: {e}")),
    }
}

/// The object keys of a JSON document in document order: each key,
/// then the keys inside its value. The parser keeps object fields in
/// document order, so comparing this for the committed text and its
/// canonical re-emission shows which fields moved. Text that does not
/// parse has no keys.
fn key_sequence(text: &str) -> Vec<String> {
    fn walk(value: JsonValue, keys: &mut Vec<String>) {
        match value {
            Json::Obj(fields) => {
                for (key, value) in fields {
                    keys.push(key);
                    walk(value, keys);
                }
            }
            Json::Arr(items) => items.into_iter().for_each(|item| walk(item, keys)),
            _ => {}
        }
    }
    let mut keys = Vec::new();
    if let Ok(doc) = json::parse(text) {
        walk(doc, &mut keys);
    }
    keys
}

/// Why `committed` differs from its canonical re-emission, in terms a
/// scenario author can act on: which fields moved, which appear or
/// vanish under canonicalisation, or — when the key order already
/// matches — that only whitespace drifted.
fn describe_drift(committed: &str, canonical: &str) -> String {
    let got = key_sequence(committed);
    let want = key_sequence(canonical);
    if got == want {
        return "formatting differs (whitespace or indentation)".to_string();
    }
    let mut sorted_got = got.clone();
    let mut sorted_want = want.clone();
    sorted_got.sort();
    sorted_want.sort();
    if sorted_got == sorted_want {
        let mut moved: Vec<&str> = Vec::new();
        for (g, w) in got.iter().zip(want.iter()) {
            if g != w {
                for key in [g.as_str(), w.as_str()] {
                    if !moved.contains(&key) {
                        moved.push(key);
                    }
                }
            }
        }
        return format!("fields re-ordered: {}", moved.join(", "));
    }
    // Canonicalisation adds or drops keys (defaults made explicit);
    // name them rather than misreporting an order problem.
    let mut changed: Vec<&str> = Vec::new();
    for key in want.iter().filter(|k| !got.contains(k)) {
        if !changed.contains(&key.as_str()) {
            changed.push(key);
        }
    }
    for key in got.iter().filter(|k| !want.contains(k)) {
        if !changed.contains(&key.as_str()) {
            changed.push(key);
        }
    }
    format!(
        "fields added or removed by canonicalisation: {}",
        changed.join(", ")
    )
}

/// Run `--fmt`/`--check` over every path; returns the failure count.
fn fmt_or_check(mode: &str, paths: &[String]) -> std::io::Result<usize> {
    let mut failures = 0usize;
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("exp_run: cannot read `{path}`: {e}");
                failures += 1;
                continue;
            }
        };
        let spec = match ScenarioSpec::parse(&text) {
            Ok(spec) => spec,
            Err(e) => {
                eprintln!("exp_run: `{path}`: {e}");
                failures += 1;
                continue;
            }
        };
        let canonical = spec.to_canonical_json();
        if mode == "--fmt" {
            if text == canonical {
                println!("{path}: already canonical");
            } else {
                std::fs::write(path, &canonical)?;
                println!("canonicalised {path}");
            }
        } else if text == canonical {
            println!(
                "{path}: ok (runner `{}`, slug `{}`)",
                spec.runner, spec.slug
            );
        } else {
            eprintln!(
                "{path}: not canonical — {} (fix with `exp_run --fmt {path}`)",
                describe_drift(&text, &canonical)
            );
            failures += 1;
        }
    }
    Ok(failures)
}

fn main() -> std::io::Result<()> {
    let mut argv = std::env::args().skip(1).peekable();
    let first = match argv.peek().map(String::as_str) {
        None | Some("--help") => {
            println!("{USAGE}");
            return Ok(());
        }
        Some("--list") => {
            for name in runner_names() {
                println!("{name}");
            }
            return Ok(());
        }
        Some(mode @ ("--fmt" | "--check")) => {
            let mode = mode.to_string();
            argv.next();
            let mut flags = Flags::parse(&FILES, argv);
            if flags.positionals().is_empty() {
                flags.problem(format!("{mode} needs at least one scenario path"));
            }
            let paths = flags.positionals().to_vec();
            flags.finish_or_exit("exp_run");
            let failures = fmt_or_check(&mode, &paths)?;
            if failures > 0 {
                exit(2);
            }
            return Ok(());
        }
        Some(_) => argv.next().unwrap(),
    };
    let spec = load(&first);
    let args = match RunArgs::parse(argv, spec.run_args()) {
        Ok(args) => args,
        Err(e) => fail(&e),
    };
    // A run the flags make impossible (fewer trials than cases) is a
    // usage error, like a bad flag.
    let status = match run_spec(&spec, args) {
        Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => fail(&e.to_string()),
        status => status?,
    };
    if status != 0 {
        exit(status);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_sequence_is_string_aware_and_ordered() {
        let text = r#"{"b": 1, "a": {"x": ":not-a-key", "y": [2, 3]}, "c": "a"}"#;
        assert_eq!(key_sequence(text), ["b", "a", "x", "y", "c"]);
    }

    #[test]
    fn drift_names_reordered_fields() {
        let committed = r#"{"trials": 3, "seed": 2, "workers": 1}"#;
        let canonical = r#"{"seed": 2, "trials": 3, "workers": 1}"#;
        assert_eq!(
            describe_drift(committed, canonical),
            "fields re-ordered: trials, seed"
        );
    }

    #[test]
    fn drift_names_keys_added_by_canonicalisation() {
        let committed = r#"{"seed": 2}"#;
        let canonical = r#"{"seed": 2, "quick": false}"#;
        assert_eq!(
            describe_drift(committed, canonical),
            "fields added or removed by canonicalisation: quick"
        );
    }

    #[test]
    fn drift_falls_back_to_whitespace_wording() {
        let committed = "{\"seed\":2}";
        let canonical = "{\n  \"seed\": 2\n}";
        assert_eq!(
            describe_drift(committed, canonical),
            "formatting differs (whitespace or indentation)"
        );
    }
}
