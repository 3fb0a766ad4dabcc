//! Deterministic discrete-event 802.11 radio simulator.
//!
//! This crate is the stand-in for the paper's over-the-air testbed
//! (RTL8812AU injector, tablets, APs, ESP modules). It connects
//! `polite-wifi-mac` [`Station`](polite_wifi_mac::Station) state machines
//! through a shared [`medium::Medium`] with:
//!
//! * microsecond-resolution virtual time and a calendar-queue scheduler,
//! * one medium that decides who hears each transmission and what it
//!   decodes: it indexes nodes and held transmissions on one grid of
//!   interference cells keyed by channel and position, so a scan visits
//!   only the cells within reach, and senses carrier in distances
//!   ([`PropagationMode`] picks all-pairs or cell-grid enumeration),
//! * log-distance path loss + Rician fading + the SNR→FER link model
//!   deciding every FCS check,
//! * half-duplex radios, carrier sensing, DCF backoff and a
//!   capture-threshold collision model,
//! * transmitter-side ACK timeouts and retries,
//! * per-node radio-state ledgers (for the battery-drain energy model),
//!   and
//! * monitor-mode pcap capture taps (for the Wireshark-style figures).
//!
//! Everything is seeded: the same seed replays the same run bit-for-bit.
//!
//! ```
//! use polite_wifi_sim::{Simulator, SimConfig};
//! use polite_wifi_mac::StationConfig;
//! use polite_wifi_frame::{builder, MacAddr};
//! use polite_wifi_phy::rate::BitRate;
//!
//! let mut sim = Simulator::new(SimConfig::default(), 42);
//! let victim = sim.add_node(
//!     StationConfig::client("f2:6e:0b:11:22:33".parse().unwrap()),
//!     (0.0, 0.0),
//! );
//! let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (5.0, 0.0));
//! sim.set_monitor(attacker, true);
//!
//! let fake = builder::fake_null_frame(sim.station(victim).mac(), MacAddr::FAKE);
//! sim.inject(1_000, attacker, fake, BitRate::Mbps1);
//! sim.run_until(10_000);
//!
//! assert_eq!(sim.station(victim).stats.acks_sent, 1);
//! ```

pub mod arena;
pub mod event;
pub mod faults;
pub mod ledger;
pub mod medium;
pub mod node;
pub mod sim;

pub use arena::NodeArena;
pub use faults::{FaultPlan, FaultProfile, GilbertElliott, SnrDegradation, StallSchedule};
pub use ledger::{ActivityLedger, StateTotals};
pub use medium::{MediumConfig, PropagationMode};
pub use node::NodeId;
pub use sim::{SimConfig, Simulator};

// The parallel trial runner moves whole simulators across worker
// threads; fail the build if any future field (an Rc, a raw pointer)
// silently takes that away.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Simulator>()
};
