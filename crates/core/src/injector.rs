//! The fake-frame injector.
//!
//! Plays the role of the paper's Scapy program on the RTL8812AU dongle:
//! craft frames whose only valid field is the destination address, and
//! blast them at a victim. Works against any `polite-wifi-sim` simulator.

use polite_wifi_frame::{builder, Frame, MacAddr};
use polite_wifi_phy::rate::BitRate;
use polite_wifi_sim::{NodeId, Simulator};

/// What kind of fake frame to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionKind {
    /// Unencrypted null-function data frames (the paper's default).
    NullData,
    /// Fake RTS frames (the §2.2 fallback that defeats even a
    /// hypothetical validate-before-ACK MAC).
    Rts,
}

/// A planned injection stream.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionPlan {
    /// Victim receiver address.
    pub victim: MacAddr,
    /// Forged transmitter address (`aa:bb:bb:bb:bb:bb` in the paper).
    pub forged_ta: MacAddr,
    /// Frame kind.
    pub kind: InjectionKind,
    /// Injection rate in frames per second.
    pub rate_pps: u32,
    /// Start time in microseconds.
    pub start_us: u64,
    /// Stream duration in microseconds.
    pub duration_us: u64,
    /// Transmit bit rate.
    pub bitrate: BitRate,
}

impl InjectionPlan {
    /// The paper's keystroke-attack stream: 150 null frames per second.
    pub fn keystroke_stream(victim: MacAddr, duration_us: u64) -> InjectionPlan {
        InjectionPlan {
            victim,
            forged_ta: MacAddr::FAKE,
            kind: InjectionKind::NullData,
            rate_pps: 150,
            start_us: 0,
            duration_us,
            bitrate: BitRate::Mbps1,
        }
    }

    /// Number of frames the plan will inject.
    pub fn frame_count(&self) -> u64 {
        if self.rate_pps == 0 {
            return 0;
        }
        self.duration_us * self.rate_pps as u64 / 1_000_000
    }

    /// The injection timestamps, evenly spaced.
    pub fn schedule(&self) -> Vec<u64> {
        let n = self.frame_count();
        if n == 0 {
            return Vec::new();
        }
        let gap = 1_000_000 / self.rate_pps as u64;
        (0..n).map(|i| self.start_us + i * gap).collect()
    }

    /// Builds the fake frame this plan injects.
    pub fn frame(&self) -> Frame {
        match self.kind {
            InjectionKind::NullData => builder::fake_null_frame(self.victim, self.forged_ta),
            InjectionKind::Rts => builder::fake_rts(self.victim, self.forged_ta, 248),
        }
    }
}

/// Drives injection plans into a simulator.
#[derive(Debug, Clone, Copy)]
pub struct FakeFrameInjector {
    /// The attacking node.
    pub attacker: NodeId,
    /// When true the injector fires and forgets (no MAC retries), like
    /// the paper's Scapy tool. When false the attacker retries like a
    /// normal station.
    pub fire_and_forget: bool,
}

impl FakeFrameInjector {
    /// An injector at `attacker` with paper-faithful fire-and-forget
    /// behaviour.
    pub fn new(attacker: NodeId) -> FakeFrameInjector {
        FakeFrameInjector {
            attacker,
            fire_and_forget: true,
        }
    }

    /// Schedules every frame of `plan` into the simulator. Returns the
    /// number of frames scheduled.
    pub fn execute(&self, sim: &mut Simulator, plan: &InjectionPlan) -> u64 {
        sim.set_retries(self.attacker, !self.fire_and_forget);
        let schedule = plan.schedule();
        for &t in &schedule {
            sim.inject(t, self.attacker, plan.frame(), plan.bitrate);
        }
        schedule.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polite_wifi_mac::StationConfig;
    use polite_wifi_sim::SimConfig;

    fn victim_mac() -> MacAddr {
        "f2:6e:0b:11:22:33".parse().unwrap()
    }

    #[test]
    fn schedule_is_evenly_spaced() {
        let plan = InjectionPlan {
            victim: victim_mac(),
            forged_ta: MacAddr::FAKE,
            kind: InjectionKind::NullData,
            rate_pps: 100,
            start_us: 500,
            duration_us: 1_000_000,
            bitrate: BitRate::Mbps1,
        };
        let s = plan.schedule();
        assert_eq!(s.len(), 100);
        assert_eq!(s[0], 500);
        assert!(s.windows(2).all(|w| w[1] - w[0] == 10_000));
    }

    #[test]
    fn zero_rate_plans_nothing() {
        let plan = InjectionPlan {
            victim: victim_mac(),
            forged_ta: MacAddr::FAKE,
            kind: InjectionKind::NullData,
            rate_pps: 0,
            start_us: 0,
            duration_us: 1_000_000,
            bitrate: BitRate::Mbps1,
        };
        assert_eq!(plan.frame_count(), 0);
        assert!(plan.schedule().is_empty());
    }

    #[test]
    fn keystroke_stream_matches_paper_rate() {
        let plan = InjectionPlan::keystroke_stream(victim_mac(), 10_000_000);
        assert_eq!(plan.rate_pps, 150);
        assert_eq!(plan.frame_count(), 1500);
        assert_eq!(plan.forged_ta, MacAddr::FAKE);
    }

    #[test]
    fn executes_against_simulator() {
        let mut sim = Simulator::new(SimConfig::default(), 5);
        let victim = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
        let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (5.0, 0.0));
        let injector = FakeFrameInjector::new(attacker);
        let plan = InjectionPlan {
            victim: victim_mac(),
            forged_ta: MacAddr::FAKE,
            kind: InjectionKind::NullData,
            rate_pps: 50,
            start_us: 0,
            duration_us: 1_000_000,
            bitrate: BitRate::Mbps1,
        };
        let n = injector.execute(&mut sim, &plan);
        assert_eq!(n, 50);
        sim.run_until(2_000_000);
        assert_eq!(sim.station(victim).stats.acks_sent, 50);
    }

    #[test]
    fn rts_plan_elicits_cts() {
        let mut sim = Simulator::new(SimConfig::default(), 5);
        let victim = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
        let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (5.0, 0.0));
        let plan = InjectionPlan {
            victim: victim_mac(),
            forged_ta: MacAddr::FAKE,
            kind: InjectionKind::Rts,
            rate_pps: 20,
            start_us: 0,
            duration_us: 500_000,
            bitrate: BitRate::Mbps1,
        };
        FakeFrameInjector::new(attacker).execute(&mut sim, &plan);
        sim.run_until(1_000_000);
        assert_eq!(sim.station(victim).stats.cts_sent, 10);
        assert_eq!(sim.station(victim).stats.acks_sent, 0);
    }
}
