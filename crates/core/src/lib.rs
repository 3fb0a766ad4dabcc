//! The Polite WiFi toolkit — the paper's contribution as a library.
//!
//! Everything an experimenter needs to reproduce the paper sits behind
//! this crate:
//!
//! * [`injector`] — the fake-frame injector (the $12 RTL8812AU dongle's
//!   role): unicast null frames or RTS at a configurable rate,
//! * [`verifier`] — pairs injected fakes with the ACKs they elicit
//!   (ACKs carry no transmitter address, so pairing is temporal, exactly
//!   as the paper's third Scapy thread did),
//! * [`scanner`] — the three-stage wardriving pipeline of Section 3
//!   (discover / inject / verify, the paper's three threads as inline
//!   state), sharded across the experiment harness's worker pool with
//!   per-segment derived seeds,
//! * [`drain`] — the battery-drain attack of Section 4.2,
//! * [`keystroke`] — the CSI keystroke/activity sniffer of Section 4.1,
//! * [`sensing_hub`] — the single-device sensing opportunity of
//!   Section 4.3, and
//! * [`analysis`] — the SIFS-vs-decryption feasibility argument of
//!   Section 2.2 in executable form,
//! * [`attack`] — the [`attack::Attack`] /
//!   [`attack::Probe`] / [`attack::Assertion`] trait
//!   layer that declarative scenarios compose attacks and pass/fail
//!   checks from,
//!
//! and two extensions following the paper's future-work pointers:
//!
//! * [`vitals`] — breathing-rate recovery from elicited ACK CSI, and
//! * [`ranging`] — RSSI-based distance estimation to an unassociated
//!   victim (the Wi-Peep direction).

pub mod analysis;
pub mod attack;
pub mod drain;
pub mod injector;
pub mod keystroke;
pub mod ranging;
pub mod retry;
pub mod scanner;
pub mod sensing_hub;
pub mod verifier;
pub mod vitals;

pub use attack::{
    check_all, Assertion, AssociationProbe, Attack, AttackCtx, BlockAckParalysis, CmpOp,
    DeauthFlood, MetricAssertion, NavRtsFlood, Probe, StatKind, StationStatProbe,
};
pub use drain::{BatteryDrainAttack, DrainMeasurement};
pub use injector::{FakeFrameInjector, InjectionKind, InjectionPlan};
pub use keystroke::{KeystrokeAttack, KeystrokeAttackResult};
pub use ranging::{estimate_range, RangeEstimate};
pub use retry::RetryPolicy;
pub use scanner::{CityReport, CityWardrive, ScanReport, Sniffer, WardriveScanner};
pub use sensing_hub::{BatchHubReport, BatchSensingHub, SensingHub, SensingReport};
pub use verifier::{AckVerifier, VerifiedExchange};
pub use vitals::{VitalSignsAttack, VitalSignsResult};
