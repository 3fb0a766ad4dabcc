//! Reproducibility: every experiment is a pure function of its seed.
//!
//! This is a substrate-level guarantee the whole evaluation rests on —
//! EXPERIMENTS.md quotes numbers that must regenerate bit-for-bit.

use polite_wifi::core::{
    BatchSensingHub, BatteryDrainAttack, CityReport, CityWardrive, KeystrokeAttack, RetryPolicy,
    ScanReport, SensingHub, WardriveScanner,
};
use polite_wifi::devices::{CityPopulation, DeviceSpec};
use polite_wifi::harness::{derive_trial_seed, Experiment, RunArgs, Runner};
use polite_wifi::obs::{json, Obs, ObsConfig};
use polite_wifi::sensing::MotionScript;
use polite_wifi::sim::FaultProfile;
use polite_wifi_scenario::fnv1a64;

#[test]
fn drain_attack_is_deterministic() {
    let run = || {
        BatteryDrainAttack {
            rate_pps: 150,
            warmup_us: 1_000_000,
            measure_us: 3_000_000,
            seed: 11,
            ..BatteryDrainAttack::default()
        }
        .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn keystroke_attack_is_deterministic() {
    let a = KeystrokeAttack::figure5(13).run();
    let b = KeystrokeAttack::figure5(13).run();
    assert_eq!(a.amplitudes, b.amplitudes);
    assert_eq!(a.keystroke_score, b.keystroke_score);
    // ...and a different seed gives a different channel realisation.
    let c = KeystrokeAttack::figure5(14).run();
    assert_ne!(a.amplitudes, c.amplitudes);
}

#[test]
fn survey_is_deterministic() {
    let full = CityPopulation::table2(3);
    let devices: Vec<DeviceSpec> = full.devices.iter().step_by(200).cloned().collect();
    let slice = CityPopulation {
        devices,
        registry: full.registry.clone(),
    };
    let scanner = WardriveScanner {
        segment_size: 14,
        dwell_us: 1_500_000,
        ..WardriveScanner::default()
    };
    let a = scanner.run(&slice);
    let b = scanner.run(&slice);
    assert_eq!(a, b);
}

#[test]
fn sensing_hub_is_deterministic() {
    let scripts = vec![MotionScript::walk_by(10_000_000, 4_000_000, 6_000_000)];
    let hub = SensingHub {
        rate_pps_per_target: 150,
        subcarrier: 17,
        seed: 21,
        ..SensingHub::default()
    };
    assert_eq!(hub.run(&scripts), hub.run(&scripts));
}

/// The fault layer must not cost determinism: a degraded run under
/// `--faults urban-drive` — retries, fault counters, an injected trial
/// panic and all — writes a byte-identical envelope at every worker
/// count, `TrialFailure` list included.
#[test]
fn faulty_degraded_envelope_is_worker_invariant() {
    let dir = std::env::temp_dir().join("polite-wifi-determinism-faults");
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("POLITE_WIFI_RESULTS", &dir);

    let run = |workers: usize| {
        let args = RunArgs {
            trials: 4,
            workers,
            seed: 2026,
            faults: FaultProfile::UrbanDrive,
            inject_trial_panic: Some(1),
            allow_partial: true,
            ..RunArgs::default()
        };
        let mut exp = Experiment::start_with("determinism: faulty envelope", "none", args);
        let reports: Vec<_> = exp
            .run_trials(|t| {
                BatteryDrainAttack {
                    rate_pps: 120,
                    warmup_us: 500_000,
                    measure_us: 1_500_000,
                    seed: t.seed,
                    faults: FaultProfile::UrbanDrive,
                    ..BatteryDrainAttack::default()
                }
                .run()
            })
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(reports.len(), 3, "exactly the injected trial degrades");
        for m in &reports {
            exp.metrics.record("acks_sent", m.acks_sent as f64);
        }
        let status = exp
            .finish_with_status("faulty_envelope", &reports)
            .expect("envelope written");
        assert_eq!(status, 0, "--allow-partial accepts the injected failure");
        let raw = std::fs::read_to_string(dir.join("faulty_envelope.json")).unwrap();
        // The envelope self-describes its run config, so the recorded
        // worker count (and nothing else) legitimately differs.
        assert!(raw.contains(&format!("\"workers\": {workers}")));
        raw.replace(
            &format!("\"workers\": {workers}"),
            "\"workers\": <normalised>",
        )
    };

    let w1 = run(1);
    let w4 = run(4);
    let w8 = run(8);
    assert!(w1.contains("\"trial_failures\""));
    assert!(w1.contains("injected trial panic (--inject-trial-panic 1)"));
    assert!(w1.contains("\"faults\": \"urban-drive\""));
    assert_eq!(w1, w4, "1-worker and 4-worker envelopes differ");
    assert_eq!(w1, w8, "1-worker and 8-worker envelopes differ");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One trial of the traced urban-drive scenario: a victim, a retrying
/// attacker, the urban-drive fault plan, and a per-trial tracing scope
/// (installed directly on the simulator, independent of the process-wide
/// obs config other tests in this binary may have installed first).
fn traced_urban_trial(seed: u64) -> Obs {
    use polite_wifi::frame::{builder, MacAddr};
    use polite_wifi::mac::StationConfig;
    use polite_wifi::phy::rate::BitRate;
    use polite_wifi::sim::{SimConfig, Simulator};

    let victim_mac: MacAddr = "f2:6e:0b:11:22:33".parse().unwrap();
    let mut sim = Simulator::new(SimConfig::default(), seed);
    *sim.obs_mut() = Obs::with_config(ObsConfig::tracing());
    let _victim = sim.add_node(StationConfig::client(victim_mac), (0.0, 0.0));
    let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (5.0, 0.0));
    sim.set_monitor(attacker, true);
    // Retries stay enabled: a burst-loss drop must grow a causal chain
    // (fault-drop → retry → delivered), not end the exchange.
    sim.install_faults(&FaultProfile::UrbanDrive.plan());
    for i in 0..150u64 {
        sim.inject(
            1_000 + i * 6_000,
            attacker,
            builder::fake_null_frame(victim_mac, MacAddr::FAKE),
            BitRate::Mbps1,
        );
    }
    sim.run_until(1_200_000);
    sim.take_obs()
}

/// Runs the traced scenario at a worker count and merges the per-trial
/// scopes in trial order into one tracing root.
fn traced_urban_run(workers: usize) -> Obs {
    let snapshots = Runner::new(workers)
        .run_indexed(6, |t| traced_urban_trial(derive_trial_seed(4242, t as u64)));
    let mut root = Obs::with_config(ObsConfig::tracing());
    for (i, snap) in snapshots.iter().enumerate() {
        root.absorb(snap, i as u64);
    }
    root
}

/// True when some sampled frame timeline shows the full causal chain of
/// a fault-dropped-then-retried exchange: inject → tx → burst-loss drop
/// (`fate.fer_dropped` arg 1 marks the injected fault) → retry → tx →
/// delivered → ACK scheduled exactly at SIFS → response tx → verify.
fn has_fault_retry_chain(obs: &Obs, sifs_us: u64) -> bool {
    let want: &[(&str, Option<u64>)] = &[
        ("inject", None),
        ("tx", None),
        ("fate.fer_dropped", Some(1)),
        ("retry", None),
        ("tx", None),
        ("fate.delivered", None),
        ("sifs_ack", Some(sifs_us)),
        ("response_tx", None),
        ("ack_rx", None),
    ];
    obs.traces.traces().iter().any(|t| {
        let mut hops = t.hops.iter();
        want.iter().all(|(kind, arg)| {
            hops.by_ref()
                .any(|h| h.kind == *kind && arg.map_or(true, |a| h.arg == a))
        })
    })
}

/// Observability v2's pinned contract: causal frame tracing and the
/// scheduler self-profiler cost nothing in determinism. The merged
/// canonical exports — counters, histograms, the profiler's
/// count/virtual-time attribution, and every sampled frame timeline —
/// are byte-identical at 1, 4 and 8 workers, and at least one timeline
/// shows the full fault-drop → retry → delivered → SIFS-ACK causal
/// chain the tracing layer exists to explain.
#[test]
fn traced_urban_drive_run_is_worker_invariant_with_causal_chains() {
    let w1 = traced_urban_run(1);
    let (metrics1, traces1) = (w1.metrics_json(), w1.frame_traces_json());
    for workers in [4, 8] {
        let w = traced_urban_run(workers);
        assert_eq!(
            metrics1,
            w.metrics_json(),
            "metrics drift at {workers} workers"
        );
        assert_eq!(
            traces1,
            w.frame_traces_json(),
            "frame timelines drift at {workers} workers"
        );
    }

    // The exports actually carry the new subsystems (not vacuously
    // identical): profiler attribution and sampled timelines.
    assert!(metrics1.contains("\"profiler\":{"), "{metrics1}");
    assert!(metrics1.contains("\"arrival\""), "{metrics1}");
    assert!(metrics1.contains("\"frame.fate.delivered\""), "{metrics1}");
    assert!(!w1.traces.traces().is_empty());

    // The paper's SIFS constant, straight from the band tables.
    let sifs_us = polite_wifi::phy::band::Band::Ghz2.sifs_us() as u64;
    assert_eq!(sifs_us, 10);
    assert!(
        has_fault_retry_chain(&w1, sifs_us),
        "no trace shows inject → tx → fault-drop → retry → delivered → \
         SIFS ACK → verify; fates seen: {}",
        w1.frame_traces_json()
    );
}

/// A city drive small enough for a tier-1 test but wide enough to fill
/// many interference cells and the calendar queue's overflow level.
fn mini_city() -> CityWardrive {
    CityWardrive {
        seed: 7,
        devices: 1_500,
        segment_size: 256,
        dwell_us: 400_000,
        area_m: 600.0,
        ..CityWardrive::default()
    }
}

/// The city-scale core's determinism contract (DESIGN.md §11): the
/// 100k-device path — cell grid, calendar queue, SoA arena, per-segment
/// seeds — produces the pinned report and a byte-identical merged
/// metrics export at 1, 4 and 8 workers. Pinned here on a scaled-down
/// city so tier-1 stays fast; the full-size run is
/// `exp_run scenarios/city_wardrive.json` (CI's city-smoke job).
#[test]
fn city_wardrive_envelope_is_worker_invariant() {
    let pinned = CityReport {
        devices: 1_500,
        segments: 9,
        discovered: 119,
        verified: 80,
        events_dispatched: 1_295_390,
        occupied_cells: 144,
        survey_time_us: 7_200_000,
    };
    let run = |workers: usize| {
        let mut obs = Obs::new();
        let report = mini_city().run_observed(workers, &mut obs);
        (report, obs.metrics_json())
    };
    let (report1, metrics1) = run(1);
    assert_eq!(report1, pinned, "mini city drifts from its pin");
    for workers in [4, 8] {
        let (report, metrics) = run(workers);
        assert_eq!(report, pinned, "city report drifts at {workers} workers");
        assert_eq!(metrics1, metrics, "city metrics drift at {workers} workers");
    }
}

/// The city drive's fault path, pinned exactly: the same mini city
/// under `urban-drive` faults, so channel drops, device stalls and the
/// `max_attempts` give-up rule all reach the pinned report and metrics.
#[test]
fn urban_drive_mini_city_is_pinned() {
    let drive = CityWardrive {
        faults: FaultProfile::UrbanDrive,
        ..mini_city()
    };
    let mut obs = Obs::new();
    let report = drive.run_observed(1, &mut obs);
    assert_eq!(
        report,
        CityReport {
            devices: 1_500,
            segments: 9,
            discovered: 67,
            verified: 56,
            events_dispatched: 1_032_208,
            occupied_cells: 144,
            survey_time_us: 7_200_000,
        },
        "urban-drive mini city drifts from its pin"
    );
    let digest = fnv1a64(obs.metrics_json().as_bytes());
    assert_eq!(
        digest, 0xaa91_15c8_dd01_714c,
        "metrics digest 0x{digest:016x} drifts from its pin"
    );
}

/// `CityPopulation::table2(5)`'s first `clients` clients and `aps` APs.
fn mini_population(clients: usize, aps: usize) -> CityPopulation {
    let full = CityPopulation::table2(5);
    let mut devices: Vec<DeviceSpec> = Vec::new();
    devices.extend(full.clients().take(clients).cloned());
    devices.extend(full.aps().take(aps).cloned());
    CityPopulation {
        devices,
        registry: full.registry.clone(),
    }
}

/// The Table 2 survey's fault path, pinned exactly: a congested channel
/// and a policy that quarantines after one failed attempt drive backoff,
/// quarantine and the straggler extension into the pinned report and
/// metrics.
#[test]
fn congested_impatient_survey_is_pinned() {
    let scanner = WardriveScanner {
        segment_size: 10,
        dwell_us: 2_000_000,
        faults: FaultProfile::Congested,
        retry: RetryPolicy {
            free_retries: 0,
            quarantine_after: 1,
            ..RetryPolicy::default()
        },
        ..WardriveScanner::default()
    };
    let mut obs = Obs::new();
    let report = scanner.run_observed(&mini_population(10, 10), 1, &mut obs);
    assert_eq!(
        report,
        ScanReport {
            discovered: 20,
            verified: 19,
            client_counts: vec![("Apple".to_string(), 10)],
            ap_counts: vec![("Hitron".to_string(), 9)],
            total_clients: 10,
            total_aps: 9,
            client_vendor_count: 1,
            ap_vendor_count: 1,
            distinct_vendor_count: 2,
            quarantined: 1,
            pmf_aps: 1,
            survey_time_us: 6_900_000,
        },
        "congested survey drifts from its pin"
    );
    let digest = fnv1a64(obs.metrics_json().as_bytes());
    assert_eq!(
        digest, 0x6e8a_dcd4_22d9_ff55,
        "metrics digest 0x{digest:016x} drifts from its pin"
    );
}

/// The batched sensing pipeline's determinism contract: a 1k-link hub
/// run over the batched kernels — per-link one-subcarrier
/// `sample_amplitudes` rendering (the other subcarriers' noise draws
/// consumed, not computed), `SeriesBatch` conditioning/segmentation,
/// `hub.*` counters — produces the pinned report (by FNV-1a-64 of its
/// JSON) and a byte-identical metrics export at 1, 4 and 8 workers. A
/// lean CSI channel keeps the debug-mode run fast; the full-width
/// channel is the benchmark's `hub` workload.
#[test]
fn batch_sensing_hub_1k_envelope_is_worker_invariant() {
    const PINNED: u64 = 0x0c28_8297_b634_1274;
    let hub = BatchSensingHub {
        links: 1000,
        samples_per_link: 240,
        links_per_batch: 64,
        csi: polite_wifi::phy::csi::CsiConfig {
            subcarriers: 4,
            taps: 3,
            ..Default::default()
        },
        subcarrier: 1,
        ..BatchSensingHub::default()
    };
    let run = |workers: usize| {
        let mut obs = Obs::new();
        let report = hub.run_observed(workers, &mut obs);
        (
            fnv1a64(json::to_string(&report).as_bytes()),
            obs.metrics_json(),
        )
    };
    let (report1, metrics1) = run(1);
    assert_eq!(
        report1, PINNED,
        "hub report digest 0x{report1:016x} drifts from its pin"
    );
    assert!(metrics1.contains("\"hub.links\":1000"), "{metrics1}");
    assert!(metrics1.contains("\"hub.batches\":16"), "{metrics1}");
    for workers in [4, 8] {
        let (report, metrics) = run(workers);
        assert_eq!(report, PINNED, "hub report drifts at {workers} workers");
        assert_eq!(metrics1, metrics, "hub metrics drift at {workers} workers");
    }
}

#[test]
fn population_is_deterministic_but_seed_sensitive() {
    let a = CityPopulation::table2(1);
    let b = CityPopulation::table2(1);
    let c = CityPopulation::table2(2);
    assert_eq!(a.devices, b.devices);
    // Same marginals, different sampled details.
    assert_eq!(a.devices.len(), c.devices.len());
    assert_ne!(
        a.devices.iter().map(|d| d.channel).collect::<Vec<_>>(),
        c.devices.iter().map(|d| d.channel).collect::<Vec<_>>()
    );
}
