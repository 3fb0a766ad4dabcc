//! 802.11 MAC state machines — where Polite WiFi lives.
//!
//! The central type is [`Station`], an event-driven (smoltcp-style) state
//! machine. Its receive path implements the order of operations the paper
//! identifies as the root cause of Polite WiFi:
//!
//! 1. FCS check (PHY) — corrupt frames are ignored entirely;
//! 2. receiver-address match — frames for others are ignored;
//! 3. **ACK scheduled at SIFS** (or CTS for an RTS) — *before* any
//!    higher-layer validation, because SIFS (10–16 µs) is far too short to
//!    decrypt anything (see `polite_wifi_phy::timing`);
//! 4. only then do "higher layers" run: duplicate detection, association
//!    checks, 802.11w PMF — and when they reject the frame, the ACK has
//!    already been transmitted.
//!
//! [`behavior::Behavior`] captures the per-device quirks the paper
//! observed: APs that answer fakes with deauthentication bursts yet still
//! ACK (Figure 3), MAC blocklists that provably cannot stop the ACK, PMF
//! networks whose *control* frames stay unprotected, and the power-save
//! logic the battery-drain attack abuses (Figure 6).
//!
//! [`csma`] implements DCF channel access (DIFS + binary exponential
//! backoff) for contending transmitters, and [`dedup`] the receiver
//! duplicate cache.

pub mod actions;
pub mod behavior;
pub mod csma;
pub mod dedup;
pub mod obs;
pub mod station;

pub use actions::{DiscardReason, MacAction, RadioState};
pub use behavior::{Behavior, PowerSave};
pub use station::{JoinState, Role, Station, StationConfig};
