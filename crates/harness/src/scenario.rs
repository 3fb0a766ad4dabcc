//! Declarative scenario construction.
//!
//! A [`ScenarioBuilder`] records a population (stations with positions
//! and roles), a topology (associations, monitor taps, velocities) and
//! a duration — then stamps out fresh deterministic [`Simulator`]s from
//! that recipe, one per seed. Because the recipe is immutable after
//! declaration, one builder can stamp a simulator per trial with the
//! trial's seed: the foundation of the Monte-Carlo runner.

use polite_wifi_frame::MacAddr;
use polite_wifi_mac::StationConfig;
use polite_wifi_sim::{FaultProfile, NodeId, SimConfig, Simulator};

/// Topology operations applied after node creation.
#[derive(Debug, Clone)]
enum PostOp {
    Monitor(NodeId),
    Associate(NodeId, MacAddr),
    Velocity(NodeId, (f64, f64)),
    Retries(NodeId, bool),
    Block(NodeId, MacAddr),
}

/// A reusable recipe for building simulators.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    duration_us: u64,
    faults: FaultProfile,
    nodes: Vec<(StationConfig, (f64, f64))>,
    ops: Vec<PostOp>,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder::new()
    }
}

impl ScenarioBuilder {
    pub fn new() -> ScenarioBuilder {
        ScenarioBuilder {
            duration_us: 1_000_000,
            faults: FaultProfile::Clean,
            nodes: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Sets how long [`Scenario::run`] advances virtual time.
    pub fn duration_us(mut self, duration_us: u64) -> Self {
        self.duration_us = duration_us;
        self
    }

    /// Applies a chaos profile to every simulator this builder stamps
    /// out. [`FaultProfile::Clean`] (the default) installs nothing, so
    /// fault-free recipes stay byte-identical to pre-fault builds.
    pub fn faults(mut self, faults: FaultProfile) -> Self {
        self.faults = faults;
        self
    }

    /// Adds a station from an explicit config (escape hatch for custom
    /// behaviours). Returns the id the node will have in every simulator
    /// this builder stamps out.
    pub fn station(&mut self, cfg: StationConfig, position: (f64, f64)) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push((cfg, position));
        id
    }

    /// Adds a 2.4 GHz client.
    pub fn client(&mut self, mac: MacAddr, position: (f64, f64)) -> NodeId {
        self.station(StationConfig::client(mac), position)
    }

    /// Adds a beaconing access point.
    pub fn access_point(&mut self, mac: MacAddr, ssid: &str, position: (f64, f64)) -> NodeId {
        self.station(StationConfig::access_point(mac, ssid), position)
    }

    /// Adds a monitor-mode capture station (the attacker's injector).
    pub fn monitor(&mut self, mac: MacAddr, position: (f64, f64)) -> NodeId {
        let id = self.station(StationConfig::client(mac), position);
        self.ops.push(PostOp::Monitor(id));
        id
    }

    /// Marks an existing station as a monitor-mode capture tap.
    pub fn set_monitor(&mut self, id: NodeId) -> &mut Self {
        self.ops.push(PostOp::Monitor(id));
        self
    }

    /// Associates a station to a peer MAC (one direction).
    pub fn associate(&mut self, id: NodeId, peer: MacAddr) -> &mut Self {
        self.ops.push(PostOp::Associate(id, peer));
        self
    }

    /// Associates a client and an AP with each other (both directions —
    /// the usual "already joined" starting state).
    pub fn link(&mut self, client: NodeId, ap: NodeId) -> &mut Self {
        let client_mac = self.nodes[client.0].0.mac;
        let ap_mac = self.nodes[ap.0].0.mac;
        self.ops.push(PostOp::Associate(client, ap_mac));
        self.ops.push(PostOp::Associate(ap, client_mac));
        self
    }

    /// Gives a station a constant velocity (metres/second).
    pub fn velocity(&mut self, id: NodeId, velocity: (f64, f64)) -> &mut Self {
        self.ops.push(PostOp::Velocity(id, velocity));
        self
    }

    /// Enables or disables MAC-layer retries for a station.
    pub fn retries(&mut self, id: NodeId, enabled: bool) -> &mut Self {
        self.ops.push(PostOp::Retries(id, enabled));
        self
    }

    /// Adds a MAC address to a station's manual blocklist.
    pub fn block(&mut self, id: NodeId, addr: MacAddr) -> &mut Self {
        self.ops.push(PostOp::Block(id, addr));
        self
    }

    /// Number of declared stations.
    pub fn population(&self) -> usize {
        self.nodes.len()
    }

    /// Stamps out a simulator with a (e.g. per-trial derived) seed. The
    /// recipe is not consumed: call once per trial.
    pub fn build_with_seed(&self, seed: u64) -> Scenario {
        let mut sim = Simulator::new(SimConfig::default(), seed);
        for (cfg, position) in &self.nodes {
            sim.add_node(cfg.clone(), *position);
        }
        for op in &self.ops {
            match *op {
                PostOp::Monitor(id) => sim.set_monitor(id, true),
                PostOp::Associate(id, peer) => sim.station_mut(id).associate(peer),
                PostOp::Velocity(id, v) => sim.set_velocity(id, v),
                PostOp::Retries(id, enabled) => sim.set_retries(id, enabled),
                PostOp::Block(id, addr) => sim.station_mut(id).block_mac(addr),
            }
        }
        sim.install_faults(&self.faults.plan());
        Scenario {
            sim,
            seed,
            duration_us: self.duration_us,
        }
    }
}

/// A built, ready-to-run simulation plus its provenance.
pub struct Scenario {
    /// The simulator; experiment code drives it directly for anything
    /// the builder doesn't model (injection plans, retunes, joins).
    pub sim: Simulator,
    /// The seed this instance was built with.
    pub seed: u64,
    /// Declared duration for [`run`](Self::run).
    pub duration_us: u64,
}

impl Scenario {
    /// Runs the declared duration and returns the simulator for
    /// inspection.
    pub fn run(&mut self) -> &mut Simulator {
        let until = self.duration_us;
        self.sim.run_until(until);
        &mut self.sim
    }

    /// Feeds a node's radio-state accounting into the simulator's
    /// observability scope as `<prefix>.{sleep,idle,rx,tx}_us` dwell
    /// histograms (via `polite_wifi_power::observe`), so the per-trial
    /// snapshot the harness absorbs carries the energy story too.
    pub fn observe_activity(&mut self, id: NodeId, prefix: &str) {
        let totals = self.sim.activity_totals(id);
        let durations = polite_wifi_power::StateDurations {
            sleep_us: totals.sleep_us,
            idle_us: totals.idle_us,
            rx_us: totals.rx_us,
            tx_us: totals.tx_us,
        };
        polite_wifi_power::observe::record_state_durations(self.sim.obs_mut(), prefix, &durations);
    }

    /// Taps a node's radio-state accounting into a metrics ledger as
    /// `<prefix>_{sleep,idle,rx,tx}_us` samples (the energy model's
    /// inputs).
    pub fn tap_activity(
        &self,
        id: NodeId,
        ledger: &mut crate::ledger::MetricsLedger,
        prefix: &str,
    ) {
        let totals = self.sim.activity_totals(id);
        ledger.record(&format!("{prefix}_sleep_us"), totals.sleep_us as f64);
        ledger.record(&format!("{prefix}_idle_us"), totals.idle_us as f64);
        ledger.record(&format!("{prefix}_rx_us"), totals.rx_us as f64);
        ledger.record(&format!("{prefix}_tx_us"), totals.tx_us as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polite_wifi_frame::builder;
    use polite_wifi_phy::rate::BitRate;

    #[test]
    fn ids_are_assigned_in_declaration_order() {
        let mut b = ScenarioBuilder::new();
        let ap = b.access_point("68:02:b8:00:00:01".parse().unwrap(), "Net", (0.0, 0.0));
        let client = b.client("f2:6e:0b:11:22:33".parse().unwrap(), (3.0, 0.0));
        let tap = b.monitor(MacAddr::FAKE, (5.0, 0.0));
        assert_eq!((ap.0, client.0, tap.0), (0, 1, 2));
        assert_eq!(b.population(), 3);

        let s = b.build_with_seed(7);
        assert_eq!(s.sim.node_count(), 3);
        assert!(s.sim.node(tap).monitor);
    }

    #[test]
    fn same_recipe_same_seed_is_reproducible() {
        let victim_mac: MacAddr = "f2:6e:0b:11:22:33".parse().unwrap();
        let mut b = ScenarioBuilder::new();
        let ap = b.access_point("68:02:b8:00:00:01".parse().unwrap(), "Net", (2.0, 0.0));
        let victim = b.client(victim_mac, (0.0, 0.0));
        let attacker = b.monitor(MacAddr::FAKE, (6.0, 0.0));
        b.link(victim, ap);

        let run = |seed: u64| {
            let mut s = b.build_with_seed(seed);
            let fake = builder::fake_null_frame(victim_mac, MacAddr::FAKE);
            s.sim.inject(10_000, attacker, fake, BitRate::Mbps1);
            s.sim.run_until(200_000);
            (
                s.sim.station(victim).stats.acks_sent,
                s.sim.node(attacker).capture.len(),
            )
        };
        assert_eq!(run(5), run(5));
        // And the victim does ACK the stranger (the paper's core claim).
        assert!(run(5).0 >= 1);
    }
}
