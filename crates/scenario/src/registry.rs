//! Maps a spec's `runner` field to the code that executes it, and to
//! the spec sections that code reads; [`run_spec`] is the one start and
//! finish every run goes through.

use crate::experiments::{
    battery_life, ext_classifier, ext_driveby, ext_ranging, ext_vitals, fig5_keystroke, fig6_power,
    sensing_hub,
};
use crate::spec::{AssertionSpec, ScenarioSpec};
use polite_wifi_core::Summary;
use polite_wifi_harness::{AssertionOutcome, Experiment, MetricsLedger, RunArgs};
use polite_wifi_obs::json::ToJson;
use std::collections::BTreeMap;
use std::io;

/// What a runner hands back to [`run_spec`] once its trials are done
/// and its metrics recorded.
pub struct Output {
    /// The envelope's `payload`.
    pub payload: Box<dyn ToJson>,
    /// Each case's merged metrics, which case-scoped assertions read.
    pub by_case: BTreeMap<String, MetricsLedger>,
}

impl Output {
    /// `payload`, with no cases.
    pub fn new(payload: impl ToJson + 'static) -> Output {
        Output {
            payload: Box::new(payload),
            by_case: BTreeMap::new(),
        }
    }
}

type RunnerFn = fn(&ScenarioSpec, &mut Experiment) -> io::Result<Output>;

/// The optional sections the generic runner reads: all but `wardrive`.
const GENERIC: &[&str] = &[
    "run",
    "topology",
    "attacks",
    "probes",
    "cases",
    "assertions",
];
/// The optional sections a bespoke runner reads.
const BESPOKE: &[&str] = &["run", "assertions"];

/// Every registered runner: name → entry point and the optional spec
/// sections it reads (any other is a parse error). `generic` and
/// `wardrive` interpret the spec alone; the rest are the ported paper
/// experiments.
pub(crate) const RUNNERS: &[(&str, RunnerFn, &[&str])] = &[
    ("generic", crate::generic::run, GENERIC),
    (
        "wardrive",
        crate::wardrive::run,
        &["run", "wardrive", "cases", "assertions"],
    ),
    ("battery_life", battery_life::run, BESPOKE),
    ("ext_classifier", ext_classifier::run, BESPOKE),
    ("ext_driveby", ext_driveby::run, BESPOKE),
    ("ext_ranging", ext_ranging::run, BESPOKE),
    ("ext_vitals", ext_vitals::run, BESPOKE),
    ("fig5_keystroke", fig5_keystroke::run, BESPOKE),
    ("fig6_power", fig6_power::run, BESPOKE),
    ("sensing_hub", sensing_hub::run, BESPOKE),
];

/// All registered runner names (for `exp_run --list` and diagnostics).
pub fn runner_names() -> Vec<&'static str> {
    RUNNERS.iter().map(|(name, ..)| *name).collect()
}

/// Why `trials` trials cannot run a spec with `cases` cases: a case
/// that never ran would fail its assertions without being measured.
pub(crate) fn too_few_trials(trials: usize, cases: usize) -> String {
    format!("{trials} trial(s) cannot run all {cases} declared cases: trials must be at least the case count")
}

/// Runs a parsed spec: starts the experiment, hands it to the spec's
/// runner, checks the spec's assertions against the metrics the runner
/// recorded, prints the metric means and verdicts, and writes the
/// envelope. Returns the exit status (non-zero when an enforced
/// assertion fails or the run degraded). A spec naming an unknown
/// runner, or fewer trials than it has cases, is an `InvalidInput`
/// error before anything runs.
pub fn run_spec(spec: &ScenarioSpec, args: RunArgs) -> io::Result<i32> {
    let invalid = |msg| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    let Some((_, run, _)) = RUNNERS.iter().find(|(name, ..)| *name == spec.runner) else {
        return invalid(format!(
            "scenario names unknown runner `{}` (known: {})",
            spec.runner,
            runner_names().join(", ")
        ));
    };
    if args.trials < spec.cases.len() {
        return invalid(too_few_trials(args.trials, spec.cases.len()));
    }
    let mut exp = Experiment::start_with(&spec.name, &spec.paper_ref, args);
    let output = run(spec, &mut exp)?;
    let args = exp.args();

    println!();
    for summary in exp.metrics.summaries() {
        println!("  {:<44} mean: {}", summary.name, summary.mean);
    }
    let clean = args.faults.is_clean();
    let (outcomes, failures) = evaluate(&spec.assertions, &exp.metrics, &output.by_case, clean);
    let enforced = (spec.assertions.iter()).filter(|a| !a.clean_only || clean);
    if !outcomes.is_empty() {
        println!();
    }
    for (o, a) in outcomes.iter().zip(enforced) {
        let verdict = if o.pass { "PASS" } else { "FAIL" };
        let paper = (a.paper.as_ref()).map_or(String::new(), |p| format!("   paper: {p}"));
        println!("  assert {:<40} {verdict}{paper}", o.check);
    }
    let skipped = spec.assertions.len() - outcomes.len();
    if skipped > 0 {
        println!("  ({skipped} clean-only assertion(s) skipped under fault injection)");
    }
    if !failures.is_empty() {
        println!("\nassertion failures: {}", failures.join("; "));
    }
    if !spec.assertions.is_empty() {
        exp.set_assertions(outcomes);
    }

    let slug = match args.quick && spec.quick_overrides() {
        true => format!("{}_quick", spec.slug),
        false => spec.slug.clone(),
    };
    exp.finish_with_status(&slug, &*output.payload)
}

/// `metric <op> value`, the metric wrapped in `min(…)` or `max(…)`
/// when the assertion compares that summary.
fn describe(a: &AssertionSpec, value: f64) -> String {
    let op = a.op.symbol();
    match a.summary {
        Summary::Mean => format!("{} {op} {value}", a.metric),
        Summary::Min => format!("min({}) {op} {value}", a.metric),
        Summary::Max => format!("max({}) {op} {value}", a.metric),
    }
}

/// The summary `a` compares of its metric over `trials`, if recorded.
fn measure(a: &AssertionSpec, trials: &MetricsLedger) -> Option<f64> {
    let summary = trials.summary(&a.metric)?;
    Some(match a.summary {
        Summary::Mean => summary.mean,
        Summary::Min => summary.min,
        Summary::Max => summary.max,
    })
}

/// Checks every assertion the fault profile enforces, each against its
/// own metric over its case's trials (`by_case`) or every trial
/// (`metrics`). Returns the envelope rows and every failure.
fn evaluate(
    assertions: &[AssertionSpec],
    metrics: &MetricsLedger,
    by_case: &BTreeMap<String, MetricsLedger>,
    clean: bool,
) -> (Vec<AssertionOutcome>, Vec<String>) {
    let empty = MetricsLedger::new();
    let trials_of = |case: &Option<String>| match case {
        Some(name) => by_case.get(name).unwrap_or(&empty),
        None => metrics,
    };
    let mut failures = Vec::new();
    let outcomes = assertions
        .iter()
        .filter(|a| !a.clean_only || clean)
        .map(|a| {
            let mut check = describe(a, a.value);
            let measured = measure(a, trials_of(&a.case));
            // `plus_case`: the right-hand side is that case's summary of
            // the metric plus `value`.
            let base = match &a.plus_case {
                Some(plus) => {
                    check += &format!(" + `{plus}`");
                    measure(a, trials_of(&a.plus_case))
                }
                None => Some(0.0),
            };
            let verdict = match (base, measured) {
                (None, _) => Err(format!(
                    "assertion `{check}` compares with an unrecorded metric"
                )),
                (Some(base), None) => Err(format!(
                    "assertion `{}` references unrecorded metric `{}`",
                    describe(a, a.value + base),
                    a.metric
                )),
                (Some(base), Some(actual)) if !a.op.holds(actual, a.value + base) => Err(format!(
                    "assertion `{}` failed: measured {actual}",
                    describe(a, a.value + base)
                )),
                _ => Ok(()),
            };
            let pass = verdict.is_ok();
            let in_case = (a.case.as_ref()).map_or(String::new(), |c| format!(" in `{c}`"));
            check += &in_case;
            failures.extend(verdict.err().map(|e| e + &in_case));
            AssertionOutcome {
                check,
                measured,
                pass,
            }
        })
        .collect();
    (outcomes, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polite_wifi_core::CmpOp;
    use polite_wifi_harness::set_thread_results_dir;
    use polite_wifi_obs::json::{self, JsonValue};

    /// An assertion over `metric` of `summary`, unscoped and enforced
    /// under every fault profile.
    fn assertion(metric: &str, summary: Summary, op: CmpOp, value: f64) -> AssertionSpec {
        AssertionSpec {
            metric: metric.into(),
            summary,
            case: None,
            op,
            value,
            plus_case: None,
            clean_only: false,
            paper: None,
        }
    }

    /// Case-scoped assertions read only their case's trials, and
    /// `plus_case` offsets the bound by another case's mean.
    #[test]
    fn case_assertions_compare_case_means() {
        let ledger = |value: f64| {
            let mut l = MetricsLedger::new();
            l.record("tp", value);
            l
        };
        let mut all = ledger(0.1);
        all.merge(&ledger(0.3));
        let by_case = BTreeMap::from([("slow".into(), ledger(0.1)), ("fast".into(), ledger(0.3))]);
        let assert = |case: &str, op, value, plus_case: Option<&str>| AssertionSpec {
            case: Some(case.into()),
            plus_case: plus_case.map(Into::into),
            ..assertion("tp", Summary::Mean, op, value)
        };
        let assertions = [
            assert("fast", CmpOp::Gt, 0.25, None),
            assert("slow", CmpOp::Le, 0.05, Some("fast")),
            assert("fast", CmpOp::Le, 0.05, Some("slow")),
            assert("fast", CmpOp::Eq, 0.0, Some("missing")),
        ];
        let (outcomes, failures) = evaluate(&assertions, &all, &by_case, true);
        let rows: Vec<(&str, Option<f64>, bool)> = (outcomes.iter())
            .map(|o| (o.check.as_str(), o.measured, o.pass))
            .collect();
        assert_eq!(
            rows,
            [
                ("tp > 0.25 in `fast`", Some(0.3), true),
                ("tp <= 0.05 + `fast` in `slow`", Some(0.1), true),
                ("tp <= 0.05 + `slow` in `fast`", Some(0.3), false),
                ("tp == 0 + `missing` in `fast`", Some(0.3), false),
            ]
        );
        assert_eq!(failures.len(), 2);
        assert!(
            failures[0].ends_with("failed: measured 0.3 in `fast`"),
            "{failures:?}"
        );
        assert!(
            failures[1]
                .contains("`tp == 0 + `missing`` compares with an unrecorded metric in `fast`"),
            "{failures:?}"
        );
    }

    /// `max` bounds every sample from above; `min` and the mean do not.
    /// A NaN sample fails the bound and is reported as measured.
    #[test]
    fn max_assertions_bound_every_sample() {
        let mut ledger = MetricsLedger::new();
        for err in [0.1, 0.5, 0.2] {
            ledger.record("err", err);
        }
        for err in [0.1, f64::NAN, 0.2] {
            ledger.record("nan_err", err);
        }
        let assertions = [
            assertion("err", Summary::Max, CmpOp::Lt, 0.45),
            assertion("err", Summary::Mean, CmpOp::Lt, 0.45),
            assertion("nan_err", Summary::Max, CmpOp::Lt, 0.45),
        ];
        let (outcomes, failures) = evaluate(&assertions, &ledger, &BTreeMap::new(), true);
        let rows: Vec<(&str, Option<f64>, bool)> = (outcomes.iter())
            .map(|o| (o.check.as_str(), o.measured, o.pass))
            .collect();
        let mean = (0.1 + 0.5 + 0.2) / 3.0;
        assert_eq!(
            rows[..2],
            [
                ("max(err) < 0.45", Some(0.5), false),
                ("err < 0.45", Some(mean), true)
            ]
        );
        let (check, measured, pass) = rows[2];
        assert_eq!((check, pass), ("max(nan_err) < 0.45", false));
        assert!(measured.is_some_and(f64::is_nan), "{measured:?}");
        assert_eq!(
            failures,
            [
                "assertion `max(err) < 0.45` failed: measured 0.5",
                "assertion `max(nan_err) < 0.45` failed: measured NaN",
            ]
        );
    }

    /// Every failure is listed, in file order: a failed bound with its
    /// measured value, and a metric no trial recorded.
    #[test]
    fn metric_assertions_aggregate_failures() {
        let mut ledger = MetricsLedger::new();
        ledger.record("a", 2.0);
        ledger.record("b", 0.9);
        ledger.record("c", 3.0);
        ledger.record("c", 0.0);
        let assertions = [
            assertion("a", Summary::Mean, CmpOp::Ge, 1.0),
            assertion("b", Summary::Mean, CmpOp::Lt, 0.5),
            assertion("missing", Summary::Mean, CmpOp::Eq, 0.0),
            // The mean of `c` is 1.5, but one sample is 0.
            assertion("c", Summary::Mean, CmpOp::Gt, 1.0),
            assertion("c", Summary::Min, CmpOp::Gt, 0.0),
        ];
        let (outcomes, failures) = evaluate(&assertions, &ledger, &BTreeMap::new(), true);
        assert_eq!(
            failures,
            [
                "assertion `b < 0.5` failed: measured 0.9",
                "assertion `missing == 0` references unrecorded metric `missing`",
                "assertion `min(c) > 0` failed: measured 0",
            ]
        );
        let measured: Vec<Option<f64>> = outcomes.iter().map(|o| o.measured).collect();
        assert_eq!(measured, [Some(2.0), Some(0.9), None, Some(1.5), Some(0.0)]);
        let passed: Vec<bool> = outcomes.iter().map(|o| o.pass).collect();
        assert_eq!(passed, [true, false, false, true, false]);
    }

    /// A bespoke runner checks its spec's claims too: `fig6_power.json`
    /// plus a claim no idle radio meets runs, exits 1 and writes a
    /// `fail` verdict.
    #[test]
    fn a_failed_claim_on_a_bespoke_runner_is_a_fail_verdict() {
        let text = include_str!("../../../scenarios/fig6_power.json");
        let mut spec = ScenarioSpec::parse(text).unwrap();
        spec.assertions.push(assertion(
            "power_mw_at_0pps",
            Summary::Mean,
            CmpOp::Gt,
            1_000_000.0,
        ));
        let dir = std::env::temp_dir().join("polite-wifi-registry-fail-verdict");
        let _ = std::fs::remove_dir_all(&dir);
        set_thread_results_dir(Some(dir.clone()));
        let args = RunArgs {
            quick: true,
            quiet: true,
            ..spec.run_args()
        };
        let status = run_spec(&spec, args).unwrap();
        set_thread_results_dir(None);
        assert_eq!(status, 1);

        let text = std::fs::read_to_string(dir.join("fig6_power.json")).unwrap();
        let envelope = json::parse(&text).unwrap();
        let verdict = envelope.get("verdict").and_then(JsonValue::as_str);
        assert_eq!(verdict, Some("fail"));
        let rows = envelope.get("assertions").and_then(JsonValue::as_array);
        let last = rows.and_then(|r| r.last()).unwrap();
        let check = last.get("check").and_then(JsonValue::as_str);
        assert_eq!(check, Some("power_mw_at_0pps > 1000000"));
        let passed = |row: &JsonValue| row.get("pass").cloned();
        assert_eq!(passed(last), Some(JsonValue::Bool(false)));
        let rows = rows.unwrap();
        let earlier = &rows[..rows.len() - 1];
        assert!(earlier
            .iter()
            .all(|r| passed(r) == Some(JsonValue::Bool(true))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A trial-count override below the case count is refused before
    /// any trial runs; one trial per case runs.
    #[test]
    fn fewer_trials_than_cases_is_invalid_input() {
        let text = include_str!("../../../scenarios/fig3_deauth.json");
        let spec = ScenarioSpec::parse(text).unwrap();
        assert_eq!(spec.cases.len(), 2);
        let dir = std::env::temp_dir().join("polite-wifi-registry-too-few-trials");
        let _ = std::fs::remove_dir_all(&dir);
        set_thread_results_dir(Some(dir.clone()));
        let args = |trials| RunArgs {
            trials,
            quick: true,
            quiet: true,
            ..spec.run_args()
        };
        let err = run_spec(&spec, args(1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(
            err.to_string()
                .contains("1 trial(s) cannot run all 2 declared cases"),
            "{err}"
        );
        assert!(!dir.join("fig3_deauth.json").exists(), "nothing may run");
        assert_eq!(run_spec(&spec, args(2)).unwrap(), 0);
        set_thread_results_dir(None);
        assert!(dir.join("fig3_deauth.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
