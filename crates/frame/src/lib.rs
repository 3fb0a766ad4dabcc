//! IEEE 802.11 frame model and byte-level codec.
//!
//! This crate implements the subset of IEEE 802.11-2016 framing needed to
//! reproduce the *Polite WiFi* behaviour (Abedi & Abari, HotNets '20) and
//! its surrounding experiments:
//!
//! * the [`MacAddr`] address type with OUI/vendor helpers,
//! * the 2-byte [`FrameControl`] field and every type/subtype it encodes,
//! * management frames ([`mgmt`]): beacons, deauthentication, probe
//!   request/response, authentication, (dis)association and action frames,
//!   with typed [information elements](ie),
//! * control frames ([`control`]): RTS, CTS, ACK, PS-Poll, BlockAck(-Req),
//!   CF-End — the frames the paper shows cannot be protected,
//! * data frames ([`data`]): plain, null-function ("the fake frame" used by
//!   the paper's attacker), and their QoS variants,
//! * the 32-bit frame check sequence ([`fcs`]), and
//! * a unified [`Frame`] enum with lossless `parse` ↔ `encode` round-trips.
//!
//! Frames encode to the exact over-the-air byte layout, so captures written
//! through `polite-wifi-pcap` open cleanly in Wireshark.
//!
//! # Example
//!
//! Build the exact fake frame the paper's attacker injects (an unencrypted
//! null-function data frame whose only valid field is the receiver address)
//! and the ACK the victim answers with:
//!
//! ```
//! use polite_wifi_frame::{builder, Frame, MacAddr};
//!
//! let victim = MacAddr::new([0xf2, 0x6e, 0x0b, 0x11, 0x22, 0x33]);
//! let attacker = MacAddr::FAKE; // aa:bb:bb:bb:bb:bb, as in the paper
//!
//! let fake = builder::fake_null_frame(victim, attacker);
//! let bytes = fake.encode(true);
//! let reparsed = Frame::parse(&bytes, true).unwrap();
//! assert_eq!(reparsed.receiver(), Some(victim));
//!
//! let ack = builder::ack(attacker);
//! assert_eq!(ack.encode(true).len(), 14); // 10-byte ACK + 4-byte FCS
//! ```

pub mod addr;
pub mod builder;
pub mod control;
pub mod data;
pub mod error;
pub mod fcs;
pub mod frame;
pub mod ie;
pub mod mgmt;
pub mod reason;
pub mod seq;

pub use addr::MacAddr;
pub use control::{ControlFrame, FrameControl, FrameType};
pub use data::{DataBody, DataFrame};
pub use error::FrameError;
pub use frame::Frame;
pub use mgmt::{ManagementBody, ManagementFrame};
pub use reason::ReasonCode;
pub use seq::SequenceControl;
