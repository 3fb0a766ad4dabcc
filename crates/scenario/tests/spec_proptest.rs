//! Property tests for the scenario parser: malformed specs must be
//! rejected with ONE aggregated, single-line error that ends with the
//! grammar pointer — never a panic, never a partial spec, never a
//! cascade of separate errors — and every valid spec must survive the
//! canonical writer unchanged.

use polite_wifi_core::injector::{MAX_PAYLOAD_LEN, MAX_RATE_PPS, MAX_STREAM_FRAMES};
use polite_wifi_core::{CmpOp, StatKind, Summary};
use polite_wifi_frame::MacAddr;
use polite_wifi_obs::json;
use polite_wifi_phy::rate::BitRate;
use polite_wifi_phy::Band;
use polite_wifi_scenario::{
    AssertionSpec, AttackSpec, CaseSeed, CaseSpec, Drive, NodeKind, NodeSpec, PopulationSpec,
    ProbeSpec, RunSpec, ScenarioSpec, TopologySpec, WardriveSpec,
};
use polite_wifi_sim::FaultProfile;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

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
    "cases",
    "assertions",
    "wardrive",
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
        "{{\n{extra}  \"name\": \"T\",\n  \"paper_ref\": \"r\",\n  \"slug\": {},\n  \"runner\": \"fig6_power\"\n}}",
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

// ===== Round trip =====

fn pick<T: Clone>(rng: &mut TestRng, options: &[T]) -> T {
    options[rng.below(options.len() as u64) as usize].clone()
}

fn coin(rng: &mut TestRng) -> bool {
    rng.below(2) == 1
}

/// An integer JSON carries exactly (numbers are read as `f64`).
fn int(rng: &mut TestRng) -> u64 {
    let bits = pick(rng, &[4, 30, 53]);
    rng.below(1 << bits)
}

/// A number of each canonical shape: integral, fractional, tiny, huge.
fn num(rng: &mut TestRng) -> f64 {
    let unit = rng.below(1 << 53) as f64 / (1u64 << 53) as f64;
    match rng.below(5) {
        0 => rng.below(2_000) as f64 - 1_000.0,
        1 => (rng.below(4_000) as f64 - 2_000.0) / 4.0,
        2 => (unit - 0.5) * 2e6,
        3 => unit * 1e-7,
        _ => -(unit + 1.0) * 1e20,
    }
}

/// Printable text plus the characters the writer must escape.
fn text(rng: &mut TestRng) -> String {
    const SPECIAL: &[char] = &['"', '\\', '\n', '\t', '\u{1}', 'é', '§'];
    (0..rng.below(12))
        .map(|_| match rng.below(4) {
            0 => pick(rng, SPECIAL),
            _ => (b' ' + rng.below(95) as u8) as char,
        })
        .collect()
}

/// A node; `full` sets every optional field, otherwise each is a coin
/// flip (an access point always names its network). Its blocklist
/// names nodes of `names`.
fn node(rng: &mut TestRng, name: String, full: bool, names: &[String]) -> NodeSpec {
    let some = |rng: &mut TestRng| full || coin(rng);
    let kind = pick(rng, &[NodeKind::Client, NodeKind::Ap, NodeKind::Monitor]);
    let behavior = pick(
        rng,
        &["client", "quiet_ap", "deauthing_ap", "pmf", "validating:40"],
    );
    let octets = rng.next_u64().to_le_bytes();
    NodeSpec {
        name,
        mac: MacAddr::new([
            octets[0], octets[1], octets[2], octets[3], octets[4], octets[5],
        ]),
        kind,
        position: (num(rng), num(rng)),
        behavior: some(rng).then(|| behavior.to_string()),
        band: some(rng).then(|| pick(rng, &[Band::Ghz2, Band::Ghz5])),
        channel: some(rng).then(|| rng.below(256) as u8),
        ssid: (kind == NodeKind::Ap || some(rng)).then(|| text(rng)),
        beacon_interval_us: some(rng).then(|| int(rng)),
        retries: some(rng).then(|| coin(rng)),
        velocity: some(rng).then(|| (num(rng), num(rng))),
        blocklist: match some(rng) {
            true => (0..1 + rng.below(2)).map(|_| pick(rng, names)).collect(),
            false => Vec::new(),
        },
    }
}

/// Attack kind `kind` (0..5) between the declared `names`.
fn attack(rng: &mut TestRng, kind: u64, names: &[String]) -> AttackSpec {
    let node = |rng: &mut TestRng| pick(rng, names);
    let bitrate = pick(rng, &BitRate::ALL);
    // A pace within the injector's bounds: at most MAX_RATE_PPS, and at
    // most MAX_STREAM_FRAMES frames.
    let rate_pps = rng.below(u64::from(MAX_RATE_PPS) + 1) as u32;
    let longest_us = MAX_STREAM_FRAMES * 1_000_000 / u64::from(rate_pps.max(1));
    let (start_us, duration_us) = (int(rng), int(rng).min(longest_us));
    match kind {
        0 => AttackSpec::NullFlood {
            attacker: node(rng),
            victim: node(rng),
            rate_pps,
            start_us,
            duration_us,
            bitrate,
        },
        1 => AttackSpec::RtsFlood {
            attacker: node(rng),
            target: node(rng),
            nav_us: rng.below(1 << 16) as u16,
            rate_pps,
            start_us,
            duration_us,
            bitrate,
        },
        2 => AttackSpec::DeauthFlood {
            attacker: node(rng),
            victim: node(rng),
            forged_ap: node(rng),
            rate_pps,
            start_us,
            duration_us,
            bitrate,
        },
        3 => AttackSpec::BlockAckParalysis {
            attacker: node(rng),
            victim: node(rng),
            spoofed_peer: node(rng),
            jump_to_seq: rng.below(4_096) as u16,
            at_us: start_us,
            bitrate,
        },
        _ => AttackSpec::QosTraffic {
            from: node(rng),
            to: node(rng),
            rate_pps,
            start_us,
            duration_us,
            payload_len: rng.below(MAX_PAYLOAD_LEN as u64 + 1),
            bitrate,
        },
    }
}

/// Probe kind `kind` (0..5) over the declared `names`.
fn probe(rng: &mut TestRng, kind: u64, names: &[String]) -> ProbeSpec {
    let stat = pick(
        rng,
        &[
            "acks_sent",
            "delivered",
            "ba_stale_dropped",
            "tx_count",
            "tx_failures",
            "acks_received",
        ],
    );
    match kind {
        0 => ProbeSpec::AckVerifier {
            attacker: pick(rng, names),
            metric: text(rng),
            latency_metric: coin(rng).then(|| text(rng)),
        },
        3 => ProbeSpec::DeauthSeq { metric: text(rng) },
        4 => ProbeSpec::Pcap {
            node: pick(rng, names),
        },
        1 => ProbeSpec::StationStat {
            node: pick(rng, names),
            stat: StatKind::from_label(stat).expect("a known counter"),
            metric: text(rng),
            per_frames_from: coin(rng).then(|| pick(rng, names)),
        },
        _ => ProbeSpec::Association {
            node: pick(rng, names),
            peer: pick(rng, names),
            metric: text(rng),
        },
    }
}

/// A random valid spec. Whenever it has a topology it runs on the
/// `generic` runner and holds every attack and probe kind, a node with
/// every optional field set, up to two cases, each carrying any of its
/// own sections over the same node names, and assertions, scoped to
/// cases when there are some; references only name declared nodes and
/// cases. Without one it names the `wardrive` runner, with a segment
/// drive at the top level or in its one case, or a bespoke runner,
/// which reads no section of its own.
fn spec(rng: &mut TestRng) -> ScenarioSpec {
    let names: Vec<String> = (0..1 + rng.below(3))
        .map(|i| format!("{}{i}", text(rng)))
        .collect();
    let pairs = |rng: &mut TestRng| -> Vec<(String, String)> {
        (0..rng.below(3))
            .map(|_| (pick(rng, &names), pick(rng, &names)))
            .collect()
    };
    let topology = |rng: &mut TestRng| TopologySpec {
        duration_us: int(rng),
        nodes: (names.iter().enumerate())
            .map(|(i, name)| node(rng, name.clone(), i == 0, &names))
            .collect(),
        links: pairs(rng),
        associations: pairs(rng),
    };
    let top = (rng.below(5) > 0).then(|| topology(rng));
    let (mut attacks, mut probes, mut cases, mut wardrive) =
        (Vec::new(), Vec::new(), Vec::new(), None);
    if top.is_some() {
        attacks = (0..5).map(|kind| attack(rng, kind, &names)).collect();
        probes = (0..5).map(|kind| probe(rng, kind, &names)).collect();
        cases = (0..rng.below(3))
            .map(|_| CaseSpec {
                name: text(rng),
                topology: coin(rng).then(|| topology(rng)),
                attacks: coin(rng).then(|| {
                    let kinds: Vec<u64> = (0..rng.below(3)).map(|_| rng.below(5)).collect();
                    kinds.into_iter().map(|k| attack(rng, k, &names)).collect()
                }),
                probes: coin(rng).then(|| {
                    let kinds: Vec<u64> = (0..1 + rng.below(3)).map(|_| rng.below(5)).collect();
                    kinds.into_iter().map(|k| probe(rng, k, &names)).collect()
                }),
                ..CaseSpec::default()
            })
            .collect();
    }
    let runner = match top {
        Some(_) => "generic",
        None => pick(rng, &["fig6_power", "wardrive"]),
    };
    if runner == "wardrive" && coin(rng) {
        wardrive = Some(segment_drive(rng));
    } else if runner == "wardrive" {
        let name = text(rng);
        let case = |wardrive| CaseSpec {
            name,
            wardrive: Some(wardrive),
            ..CaseSpec::default()
        };
        cases = vec![case(segment_drive(rng))];
    }
    let case_names: Vec<String> = cases.iter().map(|c| c.name.clone()).collect();
    let case = |rng: &mut TestRng| match case_names.is_empty() || coin(rng) {
        true => None,
        false => Some(pick(rng, &case_names)),
    };
    let ops = [
        CmpOp::Ge,
        CmpOp::Gt,
        CmpOp::Le,
        CmpOp::Lt,
        CmpOp::Eq,
        CmpOp::Ne,
    ];
    ScenarioSpec {
        name: text(rng),
        paper_ref: text(rng),
        slug: format!("s_{}", rng.below(1_000)),
        runner: runner.into(),
        run: RunSpec {
            seed: int(rng),
            trials: cases.len().max(1) + rng.below(64) as usize,
            workers: 1 + rng.below(8) as usize,
            quick: coin(rng),
            faults: pick(rng, &FaultProfile::ALL),
            case_seed: match cases.is_empty() || coin(rng) {
                true => CaseSeed::Trial,
                false => CaseSeed::Shared,
            },
        },
        assertions: (0..rng.below(3))
            .map(|_| AssertionSpec {
                metric: text(rng),
                summary: pick(rng, &[Summary::Mean, Summary::Min, Summary::Max]),
                case: case(rng),
                op: pick(rng, &ops),
                value: num(rng),
                plus_case: case(rng),
                clean_only: coin(rng),
                paper: coin(rng).then(|| text(rng)),
            })
            .collect(),
        topology: top,
        wardrive,
        attacks,
        probes,
        cases,
    }
}

/// A random valid `wardrive` section: a drive-through only through a
/// city and never randomised, numbers in their ranges.
fn segment_drive(rng: &mut TestRng) -> WardriveSpec {
    let devices = |rng: &mut TestRng| 1 + rng.below(1_000_000) as usize;
    let (seed, clients, aps) = (int(rng), rng.below(100) as usize, rng.below(100) as usize);
    let vendors = (0..rng.below(3)).map(|_| text(rng)).collect();
    let population = match rng.below(3) {
        0 => PopulationSpec::Table2 { seed },
        1 => PopulationSpec::Table2Slice {
            seed,
            vendors,
            clients,
            aps,
        },
        _ => PopulationSpec::City {
            devices: devices(rng),
        },
    };
    let through = matches!(population, PopulationSpec::City { .. }) && coin(rng);
    let randomized = (!through && coin(rng)).then(|| rng.below(1_001) as f64 / 1e3);
    WardriveSpec {
        population,
        drive: [Drive::Parked, Drive::DriveThrough][through as usize],
        segment_size: 1 + rng.below(4_096) as usize,
        dwell_us: 1 + int(rng),
        randomized,
        mac_seed: randomized.map(|_| int(rng)),
        quick_devices: coin(rng).then(|| devices(rng)),
        quick_dwell_us: coin(rng).then(|| 1 + int(rng)),
    }
}

/// [`spec`] as a strategy.
struct ArbSpec;

impl Strategy for ArbSpec {
    type Value = ScenarioSpec;

    fn generate(&self, rng: &mut TestRng) -> ScenarioSpec {
        spec(rng)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The canonical form parses back to the same spec, and re-writing
    /// that spec reproduces it byte for byte.
    #[test]
    fn canonical_form_round_trips(spec in ArbSpec) {
        let canonical = spec.to_canonical_json();
        let reparsed = ScenarioSpec::parse(&canonical)
            .unwrap_or_else(|e| panic!("canonical form does not parse: {e}\n{canonical}"));
        prop_assert_eq!(&reparsed, &spec);
        prop_assert_eq!(reparsed.to_canonical_json(), canonical);
    }
}

// ===== Raw bytes =====

/// Every committed scenario file, as mutation seeds.
fn committed_scenarios() -> Vec<Vec<u8>> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().and_then(|e| e.to_str()) == Some("json"))
        .collect();
    files.sort();
    files
        .iter()
        .map(|path| std::fs::read(path).unwrap())
        .collect()
}

/// Parses raw bytes (decoded lossily, as a server would). Parsing must
/// not panic; an error keeps the one-line aggregated shape, and an `Ok`
/// spec's canonical bytes parse back to the same spec.
fn check_raw(bytes: &[u8]) {
    match ScenarioSpec::parse(&String::from_utf8_lossy(bytes)) {
        Err(err) => assert_single_aggregated_error(&err),
        Ok(spec) => {
            let canonical = spec.to_canonical_json();
            let reparsed = ScenarioSpec::parse(&canonical)
                .unwrap_or_else(|e| panic!("canonical form does not parse: {e}\n{canonical}"));
            assert_eq!(reparsed, spec);
            assert_eq!(reparsed.to_canonical_json(), canonical);
        }
    }
}

/// One byte edit: overwrite, insert, delete, or copy a run of bytes
/// from elsewhere in the file (which can duplicate keys and values).
fn mutate(bytes: &mut Vec<u8>, op: u8, at: usize, byte: u8, len: usize) {
    if bytes.is_empty() {
        bytes.push(byte);
        return;
    }
    let at = at % bytes.len();
    match op % 4 {
        0 => bytes[at] = byte,
        1 => bytes.insert(at, byte),
        2 => {
            bytes.remove(at);
        }
        _ => {
            let from = (at + len) % bytes.len();
            let run: Vec<u8> = bytes[from..(from + len).min(bytes.len())].to_vec();
            bytes.splice(at..at, run);
        }
    }
}

/// Bytes that matter to the grammar: JSON punctuation, digits, signs,
/// and raw bytes above ASCII.
fn arb_edit_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        proptest::sample::select(b"{}[]:,\"\\-+.0123456789eEtfn ".to_vec()),
        any::<u8>(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes never panic the parser.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        check_raw(&bytes);
    }

    /// Byte mutations of the committed scenario files never panic the
    /// parser, and whatever still parses round-trips canonically.
    #[test]
    fn mutated_scenario_files_never_panic(
        file in any::<usize>(),
        edits in proptest::collection::vec(
            (any::<u8>(), any::<usize>(), arb_edit_byte(), 1usize..24),
            1..6,
        ),
    ) {
        let files = committed_scenarios();
        let mut bytes = files[file % files.len()].clone();
        for (op, at, byte, len) in edits {
            mutate(&mut bytes, op, at, byte, len);
        }
        check_raw(&bytes);
    }
}
