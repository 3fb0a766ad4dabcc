//! Property tests on the simulator: conservation and sanity invariants
//! that must hold for arbitrary injection schedules.

use polite_wifi_frame::{builder, MacAddr};
use polite_wifi_mac::StationConfig;
use polite_wifi_phy::band::Band;
use polite_wifi_phy::rate::BitRate;
use polite_wifi_sim::{FaultProfile, PropagationMode, SimConfig, Simulator};
use proptest::prelude::*;

fn victim_mac() -> MacAddr {
    MacAddr::new([0xf2, 0x6e, 0x0b, 0x11, 0x22, 0x33])
}

/// A schedule of (time, rate-index) injections.
fn arb_schedule() -> impl Strategy<Value = Vec<(u64, u8)>> {
    proptest::collection::vec((0u64..3_000_000, 0u8..12), 0..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// ACKs received by the attacker never exceed ACKs sent by the victim,
    /// and both never exceed the number of injected frames.
    #[test]
    fn ack_conservation(schedule in arb_schedule(), seed in 0u64..1000) {
        let mut sim = Simulator::new(SimConfig::default(), seed);
        let victim = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
        let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (5.0, 0.0));
        sim.set_retries(attacker, false);
        let n = schedule.len() as u64;
        for (t, r) in schedule {
            let rate = BitRate::ALL[r as usize % 12];
            sim.inject(t, attacker, builder::fake_null_frame(victim_mac(), MacAddr::FAKE), rate);
        }
        sim.run_until(10_000_000);
        let acks_sent = sim.station(victim).stats.acks_sent;
        let acks_rx = sim.node(attacker).acks_received;
        prop_assert!(acks_sent <= n, "{acks_sent} > {n}");
        prop_assert!(acks_rx <= acks_sent, "{acks_rx} > {acks_sent}");
        // Clean close-range channel: nearly everything goes through.
        prop_assert!(acks_rx + 5 >= n.min(acks_sent), "rx {acks_rx} of {n}");
    }

    /// The radio ledger accounts every microsecond exactly once.
    #[test]
    fn ledger_time_conservation(schedule in arb_schedule(), seed in 0u64..1000) {
        let mut sim = Simulator::new(SimConfig::default(), seed);
        let mut cfg = StationConfig::client(victim_mac());
        cfg.behavior = polite_wifi_mac::Behavior::iot_power_save();
        let victim = sim.add_node(cfg, (0.0, 0.0));
        let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (5.0, 0.0));
        sim.set_retries(attacker, false);
        for (t, _) in schedule {
            sim.inject(t, attacker, builder::fake_null_frame(victim_mac(), MacAddr::FAKE), BitRate::Mbps1);
        }
        let horizon = 5_000_000;
        sim.run_until(horizon);
        for id in [victim, attacker] {
            let totals = sim.node(id).ledger.snapshot(sim.now_us());
            prop_assert_eq!(totals.total_us(), sim.now_us(), "node {:?}", id);
        }
    }

    /// Determinism: identical seeds and schedules give identical stats.
    #[test]
    fn replay_determinism(schedule in arb_schedule(), seed in 0u64..100) {
        let run = |sched: &[(u64, u8)]| {
            let mut sim = Simulator::new(SimConfig::default(), seed);
            let victim = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
            let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (5.0, 0.0));
            for &(t, r) in sched {
                let rate = BitRate::ALL[r as usize % 12];
                sim.inject(t, attacker, builder::fake_null_frame(victim_mac(), MacAddr::FAKE), rate);
            }
            sim.run_until(10_000_000);
            (
                sim.station(victim).stats,
                sim.node(attacker).acks_received,
                sim.global_capture().len(),
            )
        };
        prop_assert_eq!(run(&schedule), run(&schedule));
    }

    /// The city-core equivalence (DESIGN.md §11): for arbitrary
    /// populations, the cell-sharded propagation mode produces exactly
    /// the reception fates of the all-pairs oracle — under a clean
    /// medium and under the urban-drive fault profile alike. The
    /// attacker drives past the population so the grid's mobile list is
    /// exercised, not just the static buckets; mid-run, the attacker
    /// and one static client hop to channel 11 and back, so the index's
    /// retune path is exercised too. The index exists in every mode,
    /// so both runs also report the same occupied cells.
    #[test]
    fn cell_grid_matches_all_pairs_oracle(
        positions in proptest::collection::vec((-600.0f64..600.0, -600.0f64..600.0), 2..20),
        schedule in arb_schedule(),
        seed in 0u64..200,
    ) {
        for profile in [FaultProfile::Clean, FaultProfile::UrbanDrive] {
            let run = |mode: PropagationMode| {
                let cfg = SimConfig { propagation: mode, ..SimConfig::default() };
                let mut sim = Simulator::new(cfg, seed);
                // One AP for beacon/probe traffic, clients elsewhere.
                let mut nodes = Vec::new();
                for (i, &pos) in positions.iter().enumerate() {
                    let mac = MacAddr::new([0xf2, 0x6e, 0x0b, 0, 0, i as u8]);
                    let cfg = if i == 0 {
                        StationConfig::access_point(mac, "GridNet")
                    } else {
                        StationConfig::client(mac)
                    };
                    nodes.push(sim.add_node(cfg, pos));
                }
                let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (-650.0, 0.0));
                sim.set_retries(attacker, false);
                sim.set_velocity(attacker, (13.9, 0.0));
                sim.install_faults(&profile.plan());
                for &(t, r) in &schedule {
                    let mac = MacAddr::new(
                        [0xf2, 0x6e, 0x0b, 0, 0, ((r as usize) % positions.len()) as u8],
                    );
                    let rate = BitRate::ALL[r as usize % 12];
                    sim.inject(t, attacker, builder::fake_null_frame(mac, MacAddr::FAKE), rate);
                }
                let hopper = nodes[nodes.len() - 1];
                for (until, channel) in [(1_000_000, 11), (2_500_000, 6)] {
                    sim.run_until(until);
                    for id in [hopper, attacker] {
                        sim.retune(id, Band::Ghz2, channel);
                    }
                }
                sim.run_until(4_000_000);
                let stats: Vec<_> = nodes.iter().map(|&id| sim.station(id).stats).collect();
                (
                    stats,
                    sim.node(attacker).acks_received,
                    sim.global_capture().len(),
                    sim.events_dispatched(),
                    sim.occupied_cells(),
                    sim.obs().metrics_json(),
                )
            };
            let oracle = run(PropagationMode::OracleAllPairs);
            let grid = run(PropagationMode::CellGrid);
            prop_assert_eq!(&oracle, &grid, "fates diverged under {:?}", profile);
        }
    }

    /// Simulated time never runs backwards and the run always terminates.
    #[test]
    fn time_monotone_and_terminating(schedule in arb_schedule()) {
        let mut sim = Simulator::new(SimConfig::default(), 3);
        let victim = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
        let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (5.0, 0.0));
        let _ = victim;
        for (t, _) in schedule {
            sim.inject(t, attacker, builder::fake_null_frame(victim_mac(), MacAddr::FAKE), BitRate::Mbps1);
        }
        let mut last = 0;
        for step in 1..=10u64 {
            sim.run_until(step * 500_000);
            prop_assert!(sim.now_us() >= last);
            last = sim.now_us();
        }
    }
}
