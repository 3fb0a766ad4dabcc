//! Property tests for the scenario parser: malformed specs must be
//! rejected with ONE aggregated, single-line error that ends with the
//! grammar pointer — never a panic, never a partial spec, never a
//! cascade of separate errors.

use polite_wifi_obs::json;
use polite_wifi_scenario::ScenarioSpec;
use proptest::prelude::*;

const GRAMMAR_HINT: &str = "(see DESIGN.md \u{a7}13 for the grammar)";

/// Top-level keys the grammar accepts; generated unknown keys must
/// avoid colliding with them.
const KNOWN_KEYS: &[&str] = &[
    "name",
    "paper_ref",
    "slug",
    "runner",
    "run",
    "topology",
    "attacks",
    "probes",
    "assertions",
    "params",
];

fn valid_slug(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// A minimal, otherwise-valid spec with injection points for the slug
/// and an arbitrary extra top-level key.
fn spec_text(slug: &str, extra_key: Option<&str>) -> String {
    let extra = extra_key
        .map(|k| format!("  {}: 1,\n", json::to_string(k)))
        .unwrap_or_default();
    format!(
        "{{\n{extra}  \"name\": \"T\",\n  \"paper_ref\": \"r\",\n  \"slug\": {},\n  \"runner\": \"sifs_timing\"\n}}",
        json::to_string(slug)
    )
}

// The vendored proptest has no regex string strategies, so the
// generators are built from char vectors.

/// Arbitrary byte soup decoded lossily — exercises both invalid UTF-8
/// shapes (as replacement chars) and random JSON-ish fragments.
fn arb_any_string(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..max)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// `[a-z][a-z0-9_]{0,12}` — a plausible identifier.
fn arb_key() -> impl Strategy<Value = String> {
    const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    (
        0u8..26,
        proptest::collection::vec(0usize..TAIL.len(), 0..12),
    )
        .prop_map(|(first, rest)| {
            let mut s = String::new();
            s.push((b'a' + first) as char);
            s.extend(rest.into_iter().map(|i| TAIL[i] as char));
            s
        })
}

/// Printable-ASCII strings (space through tilde).
fn arb_printable(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..95, 0..max)
        .prop_map(|v| v.into_iter().map(|b| (b + 0x20) as char).collect())
}

/// `[A-Z][A-Z ]{0,8}` — always a slug violation (uppercase), never empty.
fn arb_bad_slug() -> impl Strategy<Value = String> {
    const CS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ ";
    (0u8..26, proptest::collection::vec(0usize..CS.len(), 0..8)).prop_map(|(first, rest)| {
        let mut s = String::new();
        s.push((b'A' + first) as char);
        s.extend(rest.into_iter().map(|i| CS[i] as char));
        s
    })
}

fn assert_single_aggregated_error(err: &str) {
    assert_eq!(err.lines().count(), 1, "error must be one line: {err:?}");
    assert!(
        err.ends_with(GRAMMAR_HINT),
        "error must end with the grammar pointer: {err:?}"
    );
    assert!(err.starts_with("invalid scenario spec: "), "{err:?}");
}

proptest! {
    /// Arbitrary garbage never panics the parser, and when it fails it
    /// fails with the one-line aggregated error shape.
    #[test]
    fn arbitrary_input_never_panics(input in arb_any_string(200)) {
        if let Err(err) = ScenarioSpec::parse(&input) {
            assert_single_aggregated_error(&err);
        }
    }

    /// An unknown top-level key is rejected and named in the error.
    #[test]
    fn unknown_top_level_keys_are_rejected(key in arb_key()) {
        prop_assume!(!KNOWN_KEYS.contains(&key.as_str()));
        let err = ScenarioSpec::parse(&spec_text("ok", Some(&key)))
            .expect_err("unknown key must be rejected");
        assert_single_aggregated_error(&err);
        prop_assert!(
            err.contains(&format!("unknown key `{key}`")),
            "error must name the key: {:?}",
            err
        );
    }

    /// Slugs are accepted iff they are non-empty snake_case.
    #[test]
    fn slug_validation_matches_the_grammar(slug in arb_printable(16)) {
        // A literal backslash or quote survives JSON escaping fine —
        // the property is purely about the snake_case rule.
        let result = ScenarioSpec::parse(&spec_text(&slug, None));
        if valid_slug(&slug) {
            prop_assert!(result.is_ok(), "valid slug {:?} rejected: {:?}", slug, result);
        } else {
            let err = result.expect_err("invalid slug must be rejected");
            assert_single_aggregated_error(&err);
            prop_assert!(err.contains("snake_case"), "{:?}", err);
        }
    }

    /// Several simultaneous problems still produce ONE error line, with
    /// every problem present in it.
    #[test]
    fn multiple_problems_aggregate_into_one_line(
        key in arb_key(),
        slug in arb_bad_slug(),
    ) {
        prop_assume!(!KNOWN_KEYS.contains(&key.as_str()));
        let err = ScenarioSpec::parse(&spec_text(&slug, Some(&key)))
            .expect_err("two problems must be rejected");
        assert_single_aggregated_error(&err);
        prop_assert!(err.contains(&format!("unknown key `{key}`")), "{:?}", err);
        prop_assert!(err.contains("snake_case"), "{:?}", err);
    }
}
