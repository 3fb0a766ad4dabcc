//! Worker-count invariance: parallel execution is a pure optimisation.
//!
//! The harness contract is that `--workers N` changes wall-clock time and
//! nothing else — every derived artifact (scan reports, metric ledgers,
//! serialized JSON) must be byte-identical across worker counts. These
//! tests pin that contract at the root, across the scanner and the
//! Monte-Carlo runner, plus the seed-derivation property it rests on.

use polite_wifi::core::WardriveScanner;
use polite_wifi::devices::{CityPopulation, DeviceSpec};
use polite_wifi::frame::{builder, MacAddr};
use polite_wifi::harness::{derive_trial_seed, MetricsLedger, Runner, ScenarioBuilder};
use polite_wifi::obs::metrics::Histogram;
use polite_wifi::obs::{json, Obs};
use polite_wifi::phy::rate::BitRate;
use proptest::prelude::*;

fn small_city() -> CityPopulation {
    let full = CityPopulation::table2(9);
    let devices: Vec<DeviceSpec> = full.devices.iter().step_by(150).cloned().collect();
    CityPopulation {
        devices,
        registry: full.registry.clone(),
    }
}

#[test]
fn scan_report_is_byte_identical_across_worker_counts() {
    let city = small_city();
    let scanner = WardriveScanner {
        segment_size: 9,
        dwell_us: 1_500_000,
        ..WardriveScanner::default()
    };
    let sequential = scanner.run_sharded(&city, 1);
    assert!(sequential.discovered > 0, "empty survey proves nothing");
    let seq_json = json::to_string(&sequential);
    for workers in [2, 4, 7] {
        let parallel = scanner.run_sharded(&city, workers);
        assert_eq!(sequential, parallel, "report differs at {workers} workers");
        assert_eq!(
            seq_json,
            json::to_string(&parallel),
            "serialized report differs at {workers} workers"
        );
    }
}

#[test]
fn trial_metrics_are_byte_identical_across_worker_counts() {
    // A multi-seed Monte-Carlo run through the scenario layer: each trial
    // stamps a fresh simulator, runs the core attack, and reports its
    // ledger. Merging in trial order must erase the scheduling.
    let victim_mac: MacAddr = "f2:6e:0b:11:22:33".parse().unwrap();
    let mut sb = ScenarioBuilder::new().duration_us(400_000);
    let ap = sb.access_point("68:02:b8:00:00:01".parse().unwrap(), "Net", (2.0, 0.0));
    let victim = sb.client(victim_mac, (0.0, 0.0));
    let attacker = sb.monitor(MacAddr::FAKE, (6.0, 0.0));
    sb.link(victim, ap);

    let run_with = |workers: usize| {
        let ledgers = Runner::new(workers).run_indexed(12, |trial| {
            let mut scenario = sb.build_with_seed(derive_trial_seed(77, trial as u64));
            for i in 0..4u64 {
                scenario.sim.inject(
                    10_000 + i * 50_000,
                    attacker,
                    builder::fake_null_frame(victim_mac, MacAddr::FAKE),
                    BitRate::Mbps1,
                );
            }
            scenario.run();
            let mut ledger = MetricsLedger::new();
            scenario.tap_activity(victim, &mut ledger, "victim");
            ledger.record(
                "acks_sent",
                scenario.sim.station(victim).stats.acks_sent as f64,
            );
            ledger
        });
        let mut merged = MetricsLedger::new();
        for ledger in &ledgers {
            merged.merge(ledger);
        }
        json::to_string(&merged.summaries())
    };

    let sequential = run_with(1);
    assert!(sequential.contains("acks_sent"));
    assert_eq!(sequential, run_with(4), "4-worker ledger differs");
    assert_eq!(sequential, run_with(16), "16-worker ledger differs");
}

#[test]
fn obs_metrics_snapshot_is_byte_identical_across_worker_counts() {
    // The observability scope rides the same contract: per-trial Obs
    // snapshots absorbed in trial order must serialise byte-identically
    // no matter how many workers ran the trials.
    let victim_mac: MacAddr = "f2:6e:0b:11:22:33".parse().unwrap();
    let mut sb = ScenarioBuilder::new().duration_us(400_000);
    let ap = sb.access_point("68:02:b8:00:00:01".parse().unwrap(), "Net", (2.0, 0.0));
    let victim = sb.client(victim_mac, (0.0, 0.0));
    let attacker = sb.monitor(MacAddr::FAKE, (6.0, 0.0));
    sb.link(victim, ap);

    let run_with = |workers: usize| {
        let snapshots = Runner::new(workers).run_indexed(12, |trial| {
            let mut scenario = sb.build_with_seed(derive_trial_seed(77, trial as u64));
            for i in 0..4u64 {
                scenario.sim.inject(
                    10_000 + i * 50_000,
                    attacker,
                    builder::fake_null_frame(victim_mac, MacAddr::FAKE),
                    BitRate::Mbps1,
                );
            }
            scenario.run();
            scenario.observe_activity(victim, "power.victim");
            scenario.sim.take_obs()
        });
        let mut merged = Obs::new();
        for (index, snapshot) in snapshots.iter().enumerate() {
            merged.absorb(snapshot, index as u64);
        }
        merged.metrics_json()
    };

    let sequential = run_with(1);
    assert!(
        sequential.contains("mac.acks_scheduled"),
        "scenario produced no MAC activity:\n{sequential}"
    );
    assert!(sequential.contains("power.victim.sleep_us"));
    assert_eq!(sequential, run_with(2), "2-worker obs snapshot differs");
    assert_eq!(sequential, run_with(8), "8-worker obs snapshot differs");
}

proptest! {
    /// Histogram merge is associative: fold order must not change the
    /// result, or absorbing per-trial snapshots in trial order would not
    /// be enough to erase worker scheduling.
    #[test]
    fn histogram_merge_is_associative(
        a in proptest::collection::vec(any::<u64>(), 0..24),
        b in proptest::collection::vec(any::<u64>(), 0..24),
        c in proptest::collection::vec(any::<u64>(), 0..24),
    ) {
        let hist = |values: &[u64]| {
            let mut h = Histogram::new();
            for &v in values {
                h.observe(v);
            }
            h
        };
        let (ha, hb, hc) = (hist(&a), hist(&b), hist(&c));

        // (a ⊕ b) ⊕ c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a ⊕ (b ⊕ c)
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);

        prop_assert_eq!(&left, &right);

        // And merging is order-independent (commutative), so even a
        // scheduler that merged out of order would converge.
        let mut ba = hb.clone();
        ba.merge(&ha);
        ba.merge(&hc);
        prop_assert_eq!(&left, &ba);

        // The merged histogram agrees with observing everything in one go.
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(&left, &hist(&all));
    }

    /// The per-trial seed derivation never collides within a run: for any
    /// base seed, distinct trial indices must get distinct seeds, or two
    /// trials would silently share a random stream.
    #[test]
    fn derived_trial_seeds_never_collide(
        base in any::<u64>(),
        i in 0u64..100_000,
        j in 0u64..100_000,
    ) {
        prop_assume!(i != j);
        prop_assert_ne!(derive_trial_seed(base, i), derive_trial_seed(base, j));
    }

    /// Trial 0 of base seed S is the sequential run of seed S — the
    /// Monte-Carlo extension of an experiment keeps its published
    /// single-run numbers.
    #[test]
    fn trial_zero_preserves_the_base_seed(base in any::<u64>()) {
        prop_assert_eq!(derive_trial_seed(base, 0), base);
    }
}
