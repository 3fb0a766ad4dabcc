//! The scenario spec: parse, validate, and canonically re-emit.
//!
//! A scenario is one JSON file that composes everything an experiment
//! needs: identity (envelope `name`/`paper_ref`/`slug`), run defaults
//! (seed, trials, workers, quick, fault profile), a population/topology
//! for [`ScenarioBuilder`] or a segment drive (`wardrive`), attacker
//! strategies, defender probes, the cases trials cycle through, and a
//! pass/fail assertion block.
//!
//! Each section, and each attack and probe kind, has **one field list**
//! (a `Section::fields` body; for attacks and probes, the variant's
//! declaration), walked by four visitors:
//!
//! * the reader takes typed values out of the JSON parsed by
//!   `polite-wifi-obs`, works out the allowed keys from the fields it
//!   visited, and rejects malformed specs with **one aggregated error**
//!   listing every problem (the same contract as the harness flag
//!   parser);
//! * the node checker then walks each attack and probe of the typed
//!   spec and checks every `node` field against the topology the
//!   section runs in (a case's own, or the top level's);
//! * the section lister names the optional top-level sections a spec
//!   carries, each of which its runner must read (the
//!   [registry](crate::registry) declares what each runner reads);
//! * the writer re-emits the spec through
//!   [`JsonWriter::pretty`](polite_wifi_obs::json::JsonWriter::pretty)
//!   in field-list order ([`ScenarioSpec::to_canonical_json`]).
//!   Committed `scenarios/*.json` files are kept in canonical form, so
//!   `parse → write` round-trips byte-exact (the golden tests pin this).

use polite_wifi_core::injector::MAX_PAYLOAD_LEN;
use polite_wifi_core::{CmpOp, InjectionPlan, StatKind, Summary};
use polite_wifi_frame::MacAddr;
use polite_wifi_harness::{derive_trial_seed, RunArgs, ScenarioBuilder};
use polite_wifi_obs::json::{self, Json, JsonWriter};
use polite_wifi_phy::rate::BitRate;
use polite_wifi_phy::Band;
use polite_wifi_sim::{FaultProfile, NodeId};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Run-section defaults: the subset of [`RunArgs`] a scenario pins.
/// CLI flags still override every one of them at launch.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Base seed.
    pub seed: u64,
    /// Trial count.
    pub trials: usize,
    /// Worker count.
    pub workers: usize,
    /// Quick mode.
    pub quick: bool,
    /// Fault profile.
    pub faults: FaultProfile,
    /// How the trials of a spec with `cases` are seeded.
    pub case_seed: CaseSeed,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            seed: 7,
            trials: 1,
            workers: 1,
            quick: false,
            faults: FaultProfile::Clean,
            case_seed: CaseSeed::Trial,
        }
    }
}

/// How trial `t` of a spec with `n` cases, which runs case `t mod n`, is
/// seeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseSeed {
    /// `derive_trial_seed(seed, t)`: every trial its own seed (the
    /// default).
    Trial,
    /// `derive_trial_seed(seed, t / n)`: every case of one pass shares
    /// the pass's seed, so one pass runs each case under `seed` itself.
    Shared,
}

impl CaseSeed {
    /// The seed trial `trial` runs under, out of `cases` cases (at
    /// least 1) from base seed `seed`.
    pub fn trial_seed(self, trial: usize, cases: usize, seed: u64) -> u64 {
        let draw = match self {
            CaseSeed::Trial => trial,
            CaseSeed::Shared => trial / cases,
        };
        derive_trial_seed(seed, draw as u64)
    }
}

impl RunSpec {
    /// The [`RunArgs`] these defaults resolve to (remaining fields at
    /// their harness defaults).
    pub fn to_run_args(&self) -> RunArgs {
        RunArgs {
            seed: self.seed,
            trials: self.trials,
            workers: self.workers,
            quick: self.quick,
            faults: self.faults,
            ..RunArgs::default()
        }
    }
}

/// What role a declared node plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An ordinary client station.
    Client,
    /// A beaconing access point.
    Ap,
    /// A monitor-mode capture/injection station (the attacker dongle).
    Monitor,
}

/// One station in the population.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Name other sections refer to this node by.
    pub name: String,
    /// MAC address.
    pub mac: MacAddr,
    /// Role.
    pub kind: NodeKind,
    /// Position in metres.
    pub position: (f64, f64),
    /// Behaviour profile: `client`, `quiet_ap`, `deauthing_ap`,
    /// `iot_power_save`, `pmf`, or `validating:<decode_us>`.
    pub behavior: Option<String>,
    /// Operating band (`2.4` or `5` in the file).
    pub band: Option<Band>,
    /// Channel number.
    pub channel: Option<u8>,
    /// SSID (APs only).
    pub ssid: Option<String>,
    /// Beacon interval override in µs; `0` disables beacons.
    pub beacon_interval_us: Option<u64>,
    /// MAC-retry override.
    pub retries: Option<bool>,
    /// Constant velocity in m/s.
    pub velocity: Option<(f64, f64)>,
    /// Nodes (by name) on this station's manual MAC blocklist.
    pub blocklist: Vec<String>,
}

/// The population/topology section.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopologySpec {
    /// Virtual time the scenario runs for.
    pub duration_us: u64,
    /// Stations, in [`NodeId`] assignment order.
    pub nodes: Vec<NodeSpec>,
    /// Bidirectional client↔AP associations, by node name.
    pub links: Vec<(String, String)>,
    /// One-directional "node trusts peer" associations, by node name.
    pub associations: Vec<(String, String)>,
}

/// Declares an enum section: each variant is one `kind` tag plus one
/// field list, every field naming the [`Visit`] method that reads and
/// writes it (`node` for node names, `req`, or `req_if(rule)`). An
/// optional `check` vets a whole variant once its fields are read.
macro_rules! tagged_section {
    ($(#[$meta:meta])* pub enum $name:ident ($noun:literal $(, check = $check:path)?) {$(
        $(#[$vmeta:meta])* $tag:literal => $variant:ident {$(
            $(#[$fmeta:meta])* $field:ident: $ty:ty = $visit:ident $(($rule:expr))?,
        )*}
    )*}) => {
        $(#[$meta])*
        pub enum $name {$(
            $(#[$vmeta])* $variant {$($(#[$fmeta])* $field: $ty,)*},
        )*}

        impl $name {
            /// Every kind's tag with a blank variant for the reader to fill.
            fn kinds() -> [(&'static str, $name); [$($tag),*].len()] {
                [$(($tag, $name::$variant {$($field: Blank::blank(),)*}),)*]
            }
        }

        impl Section for $name {
            fn blank() -> Self {
                let [(_, first), ..] = Self::kinds();
                first
            }

            fn fields<V: Visit>(&mut self, v: &mut V) {
                if !v.kind($noun, self, &Self::kinds()) {
                    return;
                }
                match self {$(
                    $name::$variant {$($field,)*} => {$(
                        v.$visit(stringify!($field), $field $(, $rule)?);
                    )*}
                )*}
                $(if let Err(why) = $check(self) {
                    v.reject_if(true, &why);
                })?
            }
        }
    };
}

tagged_section! {
    /// An attacker strategy composed from the `polite-wifi-core` trait
    /// layer (plus legitimate background traffic, which shares the
    /// scheduling shape). Every paced stream must keep the injector's
    /// pace bounds.
    #[derive(Debug, Clone, PartialEq)]
    pub enum AttackSpec ("attack", check = check_pace) {
        /// The paper's fake null-function stream.
        "null-flood" => NullFlood {
            /// Injecting node (by name).
            attacker: String = node,
            /// Target node (by name).
            victim: String = node,
            /// Frames per second.
            rate_pps: u32 = req,
            /// First injection time.
            start_us: u64 = req,
            /// Stream duration.
            duration_us: u64 = req,
            /// Transmit bit rate (written as its label, e.g. `1`, `6`, `24`).
            bitrate: BitRate = req,
        }
        /// NAV-stuffing forged RTS.
        "rts-flood" => RtsFlood {
            /// Injecting node.
            attacker: String = node,
            /// Node whose CTS is elicited.
            target: String = node,
            /// NAV reservation per RTS, µs.
            nav_us: u16 = req,
            /// Frames per second.
            rate_pps: u32 = req,
            /// First injection time.
            start_us: u64 = req,
            /// Stream duration.
            duration_us: u64 = req,
            /// Bit rate.
            bitrate: BitRate = req,
        }
        /// Forged unprotected deauthentication flood (arXiv 2602.23513).
        "deauth-flood" => DeauthFlood {
            /// Injecting node.
            attacker: String = node,
            /// The client being kicked.
            victim: String = node,
            /// The AP whose address is forged.
            forged_ap: String = node,
            /// Frames per second.
            rate_pps: u32 = req,
            /// First injection time.
            start_us: u64 = req,
            /// Stream duration.
            duration_us: u64 = req,
            /// Bit rate.
            bitrate: BitRate = req,
        }
        /// Bl0ck-style forged BlockAckReq window jump (arXiv 2302.05899).
        "blockack-paralysis" => BlockAckParalysis {
            /// Injecting node.
            attacker: String = node,
            /// The receiver whose window is jumped.
            victim: String = node,
            /// The associated peer the BAR impersonates.
            spoofed_peer: String = node,
            /// Sequence number the window floor jumps to.
            jump_to_seq: u16 = req_if(|seq| match seq {
                0..=0x0fff => Ok(()),
                _ => Err("must fit 12 bits (0..=4095)".to_string()),
            }),
            /// Injection time.
            at_us: u64 = req,
            /// Bit rate.
            bitrate: BitRate = req,
        }
        /// Legitimate protected QoS traffic between associated stations —
        /// the workload the attacks disrupt.
        "qos-traffic" => QosTraffic {
            /// Sending node.
            from: String = node,
            /// Receiving node.
            to: String = node,
            /// Frames per second.
            rate_pps: u32 = req,
            /// First frame time.
            start_us: u64 = req,
            /// Stream duration.
            duration_us: u64 = req,
            /// Ciphertext length per frame.
            payload_len: u64 = req_if(|len| match usize::try_from(*len) {
                Ok(0..=MAX_PAYLOAD_LEN) => Ok(()),
                _ => Err(format!("must be at most {MAX_PAYLOAD_LEN} bytes, 802.11's largest MSDU")),
            }),
            /// Bit rate.
            bitrate: BitRate = req,
        }
    }
}

impl AttackSpec {
    /// A paced stream's `(rate_pps, start_us, duration_us, bitrate)`;
    /// `None` for the one-shot `blockack-paralysis`.
    pub(crate) fn pace(&self) -> Option<(u32, u64, u64, BitRate)> {
        match *self {
            AttackSpec::NullFlood {
                rate_pps,
                start_us,
                duration_us,
                bitrate,
                ..
            }
            | AttackSpec::RtsFlood {
                rate_pps,
                start_us,
                duration_us,
                bitrate,
                ..
            }
            | AttackSpec::DeauthFlood {
                rate_pps,
                start_us,
                duration_us,
                bitrate,
                ..
            }
            | AttackSpec::QosTraffic {
                rate_pps,
                start_us,
                duration_us,
                bitrate,
                ..
            } => Some((rate_pps, start_us, duration_us, bitrate)),
            AttackSpec::BlockAckParalysis { .. } => None,
        }
    }
}

/// Rejects a paced stream whose rate or frame count is over the
/// injector's bounds ([`InjectionPlan::check_pace`]).
fn check_pace(attack: &AttackSpec) -> Result<(), String> {
    match attack.pace() {
        Some((rate_pps, _, duration_us, _)) => InjectionPlan::check_pace(rate_pps, duration_us),
        None => Ok(()),
    }
}

tagged_section! {
    /// A defender-side measurement.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ProbeSpec ("probe") {
        /// Temporal fake↔ACK pairing over the attacker node's capture;
        /// the verified exchange count is recorded under `metric`.
        "ack-verifier" => AckVerifier {
            /// The attacker node: its address anchors pairing, its
            /// capture is paired.
            attacker: String = node,
            /// Ledger metric name.
            metric: String = req,
            /// Ledger metric each exchange's fake-end → ACK-end latency
            /// (µs) is recorded under.
            latency_metric: Option<String> = opt,
        }
        /// Whether every deauthentication burst repeats one sequence
        /// number (1/0).
        "deauth-seq" => DeauthSeq {
            /// Ledger metric name.
            metric: String = req,
        }
        /// Writes the node's capture to `results/<slug>.pcap` (from the
        /// first trial whose case declares it).
        "pcap" => Pcap {
            /// Node whose capture is written.
            node: String = node,
        }
        /// One station or node counter, recorded under `metric`.
        "station-stat" => StationStat {
            /// Node to read.
            node: String = node,
            /// The counter.
            stat: StatKind = req,
            /// Ledger metric name.
            metric: String = req,
            /// Records the counter per frame that this node's attacks
            /// scheduled in the trial.
            per_frames_from: Option<String> = opt_node,
        }
        /// Whether `node` is still associated with `peer` (1/0).
        "association" => Association {
            /// Node to inspect.
            node: String = node,
            /// Peer node (by name).
            peer: String = node,
            /// Ledger metric name.
            metric: String = req,
        }
    }
}

/// A pass/fail check over a recorded metric's mean, minimum or maximum.
#[derive(Debug, Clone, PartialEq)]
pub struct AssertionSpec {
    /// Metric name.
    pub metric: String,
    /// The summary compared: the mean (the default), the minimum or the
    /// maximum.
    pub summary: Summary,
    /// Checks only the trials of this case (by name); `None`: every
    /// trial.
    pub case: Option<String>,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand side, or with `plus_case` the offset added to it.
    pub value: f64,
    /// Compares against this case's summary of the same metric plus
    /// `value`.
    pub plus_case: Option<String>,
    /// `true`: only enforced under the clean fault profile (fault
    /// injection legitimately perturbs measured values).
    pub clean_only: bool,
    /// What the paper reports for this claim, printed beside the
    /// verdict (e.g. `~10 mW`).
    pub paper: Option<String>,
}

/// One case trials cycle through: trial `t` runs case `t mod n`. Each
/// section a case carries replaces the whole top-level section.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CaseSpec {
    /// Names the case's row in the payload.
    pub name: String,
    /// This case's population/topology.
    pub topology: Option<TopologySpec>,
    /// This case's segment drive.
    pub wardrive: Option<WardriveSpec>,
    /// This case's attacker strategies.
    pub attacks: Option<Vec<AttackSpec>>,
    /// This case's defender probes.
    pub probes: Option<Vec<ProbeSpec>>,
}

/// One case as a trial runs it: the case's own sections, the top-level
/// ones where it carries none.
#[derive(Debug, Clone, Copy)]
pub struct Case<'s> {
    /// The case name (empty when the spec declares no cases).
    pub name: &'s str,
    /// Population/topology.
    pub topology: Option<&'s TopologySpec>,
    /// Segment drive.
    pub wardrive: Option<&'s WardriveSpec>,
    /// Attacker strategies.
    pub attacks: &'s [AttackSpec],
    /// Defender probes.
    pub probes: &'s [ProbeSpec],
}

tagged_section! {
    /// Who a segment drive surveys.
    #[derive(Debug, Clone, PartialEq)]
    pub enum PopulationSpec ("population") {
        /// Table 2's 5,328 devices, clients then APs, generated from
        /// `seed`.
        "table2" => Table2 {
            seed: u64 = req,
        }
        /// The first `clients` clients of `vendors` in Table 2's
        /// population, then its first `aps` APs.
        "table2-slice" => Table2Slice {
            seed: u64 = req,
            vendors: Vec<String> = req,
            clients: usize = req,
            aps: usize = req,
        }
        /// A synthetic city of `devices` devices, generated from the
        /// trial's seed.
        "city" => City {
            devices: usize = req_if(city_size),
        }
    }
}

/// How the survey car meets each segment's devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Parked among them ([`polite_wifi_core::WardriveScanner`]).
    Parked,
    /// Through a `city` ([`polite_wifi_core::CityWardrive`]).
    DriveThrough,
}

/// The `wardrive` section: one segment drive (paper §3), holding every
/// constant that changes its result. What all drives share (fakes per
/// target, retry policy, city area, injection rounds) stays in
/// `polite-wifi-core`.
#[derive(Debug, Clone, PartialEq)]
pub struct WardriveSpec {
    /// Who is surveyed.
    pub population: PopulationSpec,
    /// The drive policy.
    pub drive: Drive,
    /// Devices per neighbourhood segment.
    pub segment_size: usize,
    /// Simulated dwell per segment, µs.
    pub dwell_us: u64,
    /// Share of phone clients given random MACs (parked drives only),
    /// drawn from `mac_seed`.
    pub randomized: Option<f64>,
    /// Seed of the randomised-MAC draw; set with `randomized`.
    pub mac_seed: Option<u64>,
    /// Under `--quick`, the population's size: a city of this many
    /// devices, or a Table 2 population's first `quick_devices`.
    pub quick_devices: Option<usize>,
    /// Under `--quick`, the dwell per segment, µs.
    pub quick_dwell_us: Option<u64>,
}

/// The largest population a `wardrive` section may ask for.
const MAX_DEVICES: usize = 1_000_000;

/// A fully parsed and validated scenario.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioSpec {
    /// Envelope experiment name.
    pub name: String,
    /// Envelope paper reference.
    pub paper_ref: String,
    /// Result file slug (`results/<slug>.json`).
    pub slug: String,
    /// Which executor runs this spec: `generic` (fully interpreted) or
    /// a registered ported-experiment name.
    pub runner: String,
    /// Run-section defaults.
    pub run: RunSpec,
    /// Population/topology (required for `generic`).
    pub topology: Option<TopologySpec>,
    /// Segment drive (required for `wardrive`).
    pub wardrive: Option<WardriveSpec>,
    /// Attacker strategies.
    pub attacks: Vec<AttackSpec>,
    /// Defender probes.
    pub probes: Vec<ProbeSpec>,
    /// Cases trials cycle through (none: every trial runs the top level).
    pub cases: Vec<CaseSpec>,
    /// Pass/fail assertion block.
    pub assertions: Vec<AssertionSpec>,
}

// ===== Labels =====

/// A closed set of labels, read in both directions: label → value when
/// parsing, value → label when writing.
struct Labels<T: 'static>(&'static [(&'static str, T)]);

impl<T: Copy + PartialEq> Labels<T> {
    fn get(&self, label: &str) -> Option<T> {
        self.0.iter().find(|e| e.0 == label).map(|e| e.1)
    }

    fn label(&self, value: T) -> &'static str {
        self.0
            .iter()
            .find(|e| e.1 == value)
            .expect("every value in use has a label")
            .0
    }

    /// "must be `a`, `b` or `c`, got `label`".
    fn wrong(&self, label: &str) -> String {
        let quoted: Vec<String> = self.0.iter().map(|e| format!("`{}`", e.0)).collect();
        let (last, rest) = quoted.split_last().expect("a label table is non-empty");
        format!("must be {} or {last}, got `{label}`", rest.join(", "))
    }
}

const BIT_RATES: Labels<BitRate> = Labels(&[
    ("1", BitRate::Mbps1),
    ("2", BitRate::Mbps2),
    ("5.5", BitRate::Mbps5_5),
    ("6", BitRate::Mbps6),
    ("9", BitRate::Mbps9),
    ("11", BitRate::Mbps11),
    ("12", BitRate::Mbps12),
    ("18", BitRate::Mbps18),
    ("24", BitRate::Mbps24),
    ("36", BitRate::Mbps36),
    ("48", BitRate::Mbps48),
    ("54", BitRate::Mbps54),
]);

const BANDS: Labels<Band> = Labels(&[("2.4", Band::Ghz2), ("5", Band::Ghz5)]);

const NODE_KINDS: Labels<NodeKind> = Labels(&[
    ("client", NodeKind::Client),
    ("ap", NodeKind::Ap),
    ("monitor", NodeKind::Monitor),
]);

/// An assertion's `when`; absent means `always`.
#[derive(Clone, Copy, PartialEq)]
enum When {
    Clean,
    Always,
}

const WHENS: Labels<When> = Labels(&[("clean", When::Clean), ("always", When::Always)]);

const SUMMARIES: Labels<Summary> = Labels(&[
    ("mean", Summary::Mean),
    ("min", Summary::Min),
    ("max", Summary::Max),
]);

const CASE_SEEDS: Labels<CaseSeed> =
    Labels(&[("trial", CaseSeed::Trial), ("shared", CaseSeed::Shared)]);

const DRIVES: Labels<Drive> = Labels(&[
    ("parked", Drive::Parked),
    ("drive-through", Drive::DriveThrough),
]);

/// Parses a bit-rate label (`"1"`, `"5.5"`, `"24"`, …).
pub fn bitrate_from_label(label: &str) -> Option<BitRate> {
    BIT_RATES.get(label)
}

/// Resolves a behaviour-profile label.
pub fn behavior_from_label(label: &str) -> Option<polite_wifi_mac::Behavior> {
    use polite_wifi_mac::Behavior;
    Some(match label {
        "client" => Behavior::client(),
        "quiet_ap" => Behavior::quiet_ap(),
        "deauthing_ap" => Behavior::deauthing_ap(),
        "iot_power_save" => Behavior::iot_power_save(),
        "pmf" => Behavior::pmf_client(),
        _ => {
            let decode_us = label.strip_prefix("validating:")?.parse::<u32>().ok()?;
            Behavior::hypothetical_validating(decode_us)
        }
    })
}

// ===== The field lists =====

/// A JSON object described by one field list, which both the reader and
/// the writer walk.
trait Section: Sized {
    /// The value the reader fills in.
    fn blank() -> Self;
    /// Every field, in canonical order.
    fn fields<V: Visit>(&mut self, v: &mut V);
}

/// One direction of the codec over a section's field list.
trait Visit {
    /// One field. A `required` field missing from the input is a
    /// problem; an optional one keeps the slot's current value, and is
    /// left out of the canonical form while [`Value::omitted`]. `rule`
    /// vets each value the reader parsed. True when the reader read a
    /// value that passed.
    fn field<T: Value>(
        &mut self,
        key: &'static str,
        required: bool,
        slot: &mut T,
        rule: Rule<T>,
    ) -> bool;

    /// A required reference to a node by name.
    fn node(&mut self, key: &'static str, slot: &mut String) {
        self.req(key, slot);
    }

    /// An optional reference to a node by name.
    fn opt_node(&mut self, key: &'static str, slot: &mut Option<String>) {
        self.opt(key, slot);
    }

    /// The `kind` tag of an enum section (`noun` names it in errors).
    /// The reader swaps in the blank variant the tag names; `false`
    /// ends the field list when there is none.
    fn kind<T: Clone>(&mut self, _noun: &str, _slot: &mut T, _: &[(&'static str, T)]) -> bool {
        true
    }
    /// A constraint across fields; `why` follows the section's path.
    fn reject_if(&mut self, _bad: bool, _why: &str) {}

    fn req<T: Value>(&mut self, key: &'static str, slot: &mut T) -> bool {
        self.field(key, true, slot, |_| Ok(()))
    }

    fn req_if<T: Value>(&mut self, key: &'static str, slot: &mut T, rule: Rule<T>) -> bool {
        self.field(key, true, slot, rule)
    }

    fn opt<T: Value>(&mut self, key: &'static str, slot: &mut T) -> bool {
        self.field(key, false, slot, |_| Ok(()))
    }

    fn opt_if<T: Value>(&mut self, key: &'static str, slot: &mut T, rule: Rule<T>) -> bool {
        self.field(key, false, slot, rule)
    }
}

/// A check on a parsed value; the error follows the field's path.
type Rule<T> = fn(&T) -> Result<(), String>;

impl Section for ScenarioSpec {
    fn blank() -> Self {
        ScenarioSpec::default()
    }

    fn fields<V: Visit>(&mut self, v: &mut V) {
        v.req("name", &mut self.name);
        v.req("paper_ref", &mut self.paper_ref);
        v.req_if("slug", &mut self.slug, |slug| {
            let snake = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
            match !slug.is_empty() && slug.chars().all(snake) {
                true => Ok(()),
                false => Err(format!(
                    "must be non-empty snake_case ([a-z0-9_]), got `{slug}`"
                )),
            }
        });
        v.req_if("runner", &mut self.runner, |runner| {
            let known = crate::registry::runner_names();
            match known.contains(&runner.as_str()) {
                true => Ok(()),
                false => Err(format!(
                    "names no registered runner: `{runner}` (known: {})",
                    known.join(", ")
                )),
            }
        });
        v.opt("run", &mut self.run);
        v.opt("topology", &mut self.topology);
        v.opt("wardrive", &mut self.wardrive);
        v.opt("attacks", &mut self.attacks);
        v.opt("probes", &mut self.probes);
        v.opt("cases", &mut self.cases);
        v.opt("assertions", &mut self.assertions);
    }
}

fn at_least_one<T: Default + PartialEq>(n: &T) -> Result<(), String> {
    match *n == T::default() {
        true => Err("must be at least 1".to_string()),
        false => Ok(()),
    }
}

fn city_size(n: &usize) -> Result<(), String> {
    match n {
        1..=MAX_DEVICES => Ok(()),
        _ => Err(format!("must be a whole number in 1..={MAX_DEVICES}")),
    }
}

impl Section for CaseSpec {
    fn blank() -> Self {
        CaseSpec::default()
    }

    fn fields<V: Visit>(&mut self, v: &mut V) {
        v.req("name", &mut self.name);
        v.opt("topology", &mut self.topology);
        v.opt("wardrive", &mut self.wardrive);
        v.opt("attacks", &mut self.attacks);
        v.opt("probes", &mut self.probes);
    }
}

impl Section for WardriveSpec {
    fn blank() -> Self {
        WardriveSpec {
            population: PopulationSpec::blank(),
            drive: Drive::Parked,
            segment_size: 0,
            dwell_us: 0,
            randomized: None,
            mac_seed: None,
            quick_devices: None,
            quick_dwell_us: None,
        }
    }

    fn fields<V: Visit>(&mut self, v: &mut V) {
        v.req("population", &mut self.population);
        v.req("drive", &mut self.drive);
        v.req_if("segment_size", &mut self.segment_size, at_least_one);
        v.req_if("dwell_us", &mut self.dwell_us, at_least_one);
        v.opt_if("randomized", &mut self.randomized, |f| match f {
            Some(f) if !(0.0..=1.0).contains(f) => Err("must be a fraction in [0, 1]".to_string()),
            _ => Ok(()),
        });
        v.opt("mac_seed", &mut self.mac_seed);
        v.opt_if("quick_devices", &mut self.quick_devices, |n| {
            n.as_ref().map_or(Ok(()), city_size)
        });
        v.opt_if("quick_dwell_us", &mut self.quick_dwell_us, |d| {
            d.as_ref().map_or(Ok(()), at_least_one)
        });
        v.reject_if(
            self.randomized.is_some() != self.mac_seed.is_some(),
            "sets `randomized` and `mac_seed` together",
        );
        let city = matches!(self.population, PopulationSpec::City { .. });
        v.reject_if(
            self.drive == Drive::DriveThrough && (!city || self.randomized.is_some()),
            "drives `drive-through` only through a `city` population, without `randomized`",
        );
    }
}

impl Section for RunSpec {
    fn blank() -> Self {
        RunSpec::default()
    }

    fn fields<V: Visit>(&mut self, v: &mut V) {
        v.opt("seed", &mut self.seed);
        v.opt_if("trials", &mut self.trials, at_least_one);
        v.opt_if("workers", &mut self.workers, at_least_one);
        v.opt("quick", &mut self.quick);
        v.opt("faults", &mut self.faults);
        let mut case_seed = (self.case_seed != CaseSeed::Trial).then_some(self.case_seed);
        v.opt("case_seed", &mut case_seed);
        self.case_seed = case_seed.unwrap_or(CaseSeed::Trial);
    }
}

impl Section for TopologySpec {
    fn blank() -> Self {
        TopologySpec::default()
    }

    fn fields<V: Visit>(&mut self, v: &mut V) {
        v.req("duration_us", &mut self.duration_us);
        v.req("nodes", &mut self.nodes);
        v.opt("links", &mut self.links);
        v.opt("associations", &mut self.associations);
    }
}

impl Section for NodeSpec {
    fn blank() -> Self {
        NodeSpec {
            name: String::new(),
            mac: MacAddr::ZERO,
            kind: NodeKind::Client,
            position: (0.0, 0.0),
            behavior: None,
            band: None,
            channel: None,
            ssid: None,
            beacon_interval_us: None,
            retries: None,
            velocity: None,
            blocklist: Vec::new(),
        }
    }

    fn fields<V: Visit>(&mut self, v: &mut V) {
        v.req("name", &mut self.name);
        v.req("mac", &mut self.mac);
        v.req("kind", &mut self.kind);
        v.req("position", &mut self.position);
        v.opt_if("behavior", &mut self.behavior, |b| match b {
            Some(s) if behavior_from_label(s).is_none() => {
                Err(format!("is not a known profile: `{s}`"))
            }
            _ => Ok(()),
        });
        v.opt("band", &mut self.band);
        v.opt("channel", &mut self.channel);
        v.opt("ssid", &mut self.ssid);
        v.opt("beacon_interval_us", &mut self.beacon_interval_us);
        v.opt("retries", &mut self.retries);
        v.opt("velocity", &mut self.velocity);
        v.opt("blocklist", &mut self.blocklist);
        v.reject_if(
            self.kind == NodeKind::Ap && self.ssid.is_none(),
            "is an `ap` and must declare an `ssid`",
        );
    }
}

impl Section for AssertionSpec {
    fn blank() -> Self {
        AssertionSpec {
            metric: String::new(),
            summary: Summary::Mean,
            case: None,
            op: CmpOp::Eq,
            value: 0.0,
            plus_case: None,
            clean_only: false,
            paper: None,
        }
    }

    fn fields<V: Visit>(&mut self, v: &mut V) {
        v.req("metric", &mut self.metric);
        let mut summary = (self.summary != Summary::Mean).then_some(self.summary);
        v.opt("summary", &mut summary);
        self.summary = summary.unwrap_or(Summary::Mean);
        v.opt("case", &mut self.case);
        v.req("op", &mut self.op);
        v.req("value", &mut self.value);
        v.opt("plus_case", &mut self.plus_case);
        let mut when = self.clean_only.then_some(When::Clean);
        v.opt("when", &mut when);
        self.clean_only = when == Some(When::Clean);
        v.opt("paper", &mut self.paper);
    }
}

// ===== Values =====

/// Where a value sits in the document, rendered only into errors:
/// `the spec`, `` `run.seed` ``, `` `topology.nodes[0]`.position[1] ``.
#[derive(Clone, Copy)]
enum Path<'a> {
    Root,
    Field(&'a Path<'a>, &'a str),
    /// An item of a list.
    Index(&'a Path<'a>, usize),
    /// One half of a two-element pair.
    Element(&'a Path<'a>, usize),
}

impl<'a> Path<'a> {
    fn parent(&self) -> &Path<'a> {
        match self {
            Path::Root => self,
            Path::Field(up, _) | Path::Index(up, _) | Path::Element(up, _) => up,
        }
    }

    /// The backquoted head and the tail after it: fields of a list item
    /// and elements of a pair extend the tail, everything else the head.
    fn parts(&self) -> (String, String) {
        let (mut head, mut tail) = match self {
            Path::Root => return (String::new(), String::new()),
            _ => self.parent().parts(),
        };
        match *self {
            Path::Field(up, key) if matches!(up, Path::Index(..)) || !tail.is_empty() => {
                tail += &format!(".{key}");
            }
            Path::Field(_, key) if head.is_empty() => head += key,
            Path::Field(_, key) => head += &format!(".{key}"),
            Path::Index(_, i) if tail.is_empty() => head += &format!("[{i}]"),
            Path::Index(_, i) | Path::Element(_, i) => tail += &format!("[{i}]"),
            Path::Root => {}
        }
        (head, tail)
    }
}

impl fmt::Display for Path<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Path::Root = self {
            return f.write_str("the spec");
        }
        let (head, tail) = self.parts();
        write!(f, "`{head}`{tail}")
    }
}

/// The parsed document: strings are borrowed from the input text.
type Doc<'d> = Json<Cow<'d, str>>;

/// One JSON value type: how it is read (reporting problems) and how it
/// is written in canonical form. Reading copies only the strings it
/// keeps out of the parsed document.
trait Value: Sized {
    fn read(v: &mut Doc, at: &Path, r: &mut Reader) -> Option<Self>;
    /// Takes `&mut` only because sections share their field list with
    /// the reader.
    fn write(&mut self, w: &mut JsonWriter);
    /// Whether an optional field holding this value is left out.
    fn omitted(&self) -> bool {
        false
    }
}

/// A placeholder for an enum section's field, which the reader
/// overwrites.
trait Blank {
    fn blank() -> Self;
}

macro_rules! blanks {
    ($($t:ty => $blank:expr),*) => {$(
        impl Blank for $t {
            fn blank() -> Self {
                $blank
            }
        }
    )*};
}

blanks!(String => String::new(), Option<String> => None, Vec<String> => Vec::new(), u16 => 0, u32 => 0, u64 => 0, usize => 0, BitRate => BitRate::Mbps1, StatKind => StatKind::AcksSent);

/// Canonical number text: integral values without a decimal point.
fn num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 9e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Values read from one JSON scalar: `read` extracts it, or the error
/// says what the value `must be`; `write` emits it.
macro_rules! scalar_values {
    ($($t:ty: $read:expr, $must_be:literal, $write:expr;)*) => {$(
        impl Value for $t {
            fn read(v: &mut Doc, at: &Path, r: &mut Reader) -> Option<Self> {
                let read: fn(&mut Doc) -> Option<$t> = $read;
                read(v).or_else(|| r.problem(format!("{at} must be {}", $must_be)))
            }

            fn write(&mut self, w: &mut JsonWriter) {
                let write: fn(&mut JsonWriter, &$t) = $write;
                write(w, self);
            }
        }
    )*};
}

scalar_values! {
    String: |v| match v { Json::Str(s) => Some(std::mem::take(s).into_owned()), _ => None }, "a string", |w, s| { w.string(s); };
    bool: |v| match v { Json::Bool(b) => Some(*b), _ => None }, "a boolean", |w, b| { w.bool(*b); };
    f64: |v| v.as_f64(), "a number", |w, n| { w.raw(&num(*n)); };
}

macro_rules! unsigned_values {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn read(v: &mut Doc, at: &Path, r: &mut Reader) -> Option<Self> {
                // Numbers are read as `f64`s, exact for integers below
                // 2^53 only: 2^53 + 1 would read back as 2^53.
                let n = match v.as_f64() {
                    Some(n) if n >= 9_007_199_254_740_992.0 => {
                        return r.problem(format!("{at} must be below 2^53 = 9007199254740992"))
                    }
                    Some(n) if n >= 0.0 && n.fract() == 0.0 => n as u64,
                    _ => return r.problem(format!("{at} must be a non-negative integer")),
                };
                let (bits, max) = (<$t>::BITS, <$t>::MAX);
                <$t>::try_from(n)
                    .ok()
                    .or_else(|| r.problem(format!("{at} must fit {bits} bits (0..={max})")))
            }

            fn write(&mut self, w: &mut JsonWriter) {
                w.u64(*self as u64);
            }
        }
    )*};
}

unsigned_values!(u8, u16, u32, u64, usize);

/// Values written as one string label: `parse` resolves it, `wrong`
/// says why a label is rejected, `label` writes it back.
macro_rules! label_values {
    ($($t:ty: $parse:expr, $wrong:expr, $label:expr;)*) => {$(
        impl Value for $t {
            fn read(v: &mut Doc, at: &Path, r: &mut Reader) -> Option<Self> {
                let (parse, wrong): (fn(&str) -> Option<$t>, fn(&str) -> String) = ($parse, $wrong);
                let Some(s) = v.as_str() else {
                    return r.problem(format!("{at} must be a string"));
                };
                parse(s).or_else(|| r.problem(format!("{at} {}", wrong(s))))
            }

            fn write(&mut self, w: &mut JsonWriter) {
                let label: fn(&$t) -> String = $label;
                w.string(&label(self));
            }
        }
    )*};
}

label_values! {
    MacAddr: |s| s.parse().ok(), |s| format!("is not a valid MAC address: `{s}`"), MacAddr::to_string;
    FaultProfile: |s| s.parse().ok(), |s| format!("is not a known profile: `{s}`"), |f| f.name().to_string();
    StatKind: StatKind::from_label, |s| format!("is not a known counter: `{s}`"), |k| k.label().to_string();
    CmpOp: CmpOp::from_symbol, |s| format!("is not a comparison operator: `{s}`"), |op| op.symbol().to_string();
    BitRate: |s| BIT_RATES.get(s), |s| format!("is not a known bit rate: `{s}`"), |b| BIT_RATES.label(*b).to_string();
    Band: |s| BANDS.get(s), |s| BANDS.wrong(s), |b| BANDS.label(*b).to_string();
    NodeKind: |s| NODE_KINDS.get(s), |s| NODE_KINDS.wrong(s), |k| NODE_KINDS.label(*k).to_string();
    When: |s| WHENS.get(s), |s| WHENS.wrong(s), |w| WHENS.label(*w).to_string();
    Summary: |s| SUMMARIES.get(s), |s| SUMMARIES.wrong(s), |m| SUMMARIES.label(*m).to_string();
    CaseSeed: |s| CASE_SEEDS.get(s), |s| CASE_SEEDS.wrong(s), |c| CASE_SEEDS.label(*c).to_string();
    Drive: |s| DRIVES.get(s), |s| DRIVES.wrong(s), |d| DRIVES.label(*d).to_string();
}

/// Reads a two-element array (`shape` names it in errors).
fn read_pair<T: Value>(v: &mut Doc, at: &Path, r: &mut Reader, shape: &str) -> Option<(T, T)> {
    let [x, y] = r.array(v, at)? else {
        return r.problem(format!("{at} must be a two-element {shape} array"));
    };
    let x = T::read(x, &Path::Element(at, 0), r);
    let y = T::read(y, &Path::Element(at, 1), r);
    Some((x?, y?))
}

/// An `[x, y]` coordinate pair, written inline.
impl Value for (f64, f64) {
    fn read(v: &mut Doc, at: &Path, r: &mut Reader) -> Option<Self> {
        read_pair(v, at, r, "[x, y]")
    }

    fn write(&mut self, w: &mut JsonWriter) {
        w.raw(&format!("[{}, {}]", num(self.0), num(self.1)));
    }
}

/// A `[from, to]` pair of node names (a link or association), written
/// inline.
impl Value for (String, String) {
    fn read(v: &mut Doc, at: &Path, r: &mut Reader) -> Option<Self> {
        read_pair(v, at, r, "[from, to]")
    }

    fn write(&mut self, w: &mut JsonWriter) {
        let (from, to) = (json::to_string(&self.0), json::to_string(&self.1));
        w.raw(&format!("[{from}, {to}]"));
    }
}

impl<T: Value> Value for Option<T> {
    fn read(v: &mut Doc, at: &Path, r: &mut Reader) -> Option<Self> {
        T::read(v, at, r).map(Some)
    }

    fn write(&mut self, w: &mut JsonWriter) {
        if let Some(value) = self {
            value.write(w);
        }
    }

    fn omitted(&self) -> bool {
        self.is_none()
    }
}

impl<T: Value> Value for Vec<T> {
    fn read(v: &mut Doc, at: &Path, r: &mut Reader) -> Option<Self> {
        let items = r.array(v, at)?.iter_mut().enumerate();
        Some(
            items
                .filter_map(|(i, v)| T::read(v, &Path::Index(at, i), r))
                .collect(),
        )
    }

    fn write(&mut self, w: &mut JsonWriter) {
        w.begin_array();
        self.iter_mut().for_each(|item| item.write(w));
        w.end_array();
    }

    fn omitted(&self) -> bool {
        self.is_empty()
    }
}

impl<T: Section> Value for T {
    fn read(v: &mut Doc, at: &Path, r: &mut Reader) -> Option<Self> {
        r.section(v, at)
    }

    fn write(&mut self, w: &mut JsonWriter) {
        w.begin_object();
        self.fields(&mut Writer(w));
        w.end_object();
    }
}

// ===== The reader and the writer =====

/// Reader state for one document.
#[derive(Default)]
struct Reader {
    problems: Vec<String>,
}

impl Reader {
    /// Records a problem; `None` lets value readers bail with it.
    fn problem<T>(&mut self, msg: String) -> Option<T> {
        self.problems.push(msg);
        None
    }

    fn array<'v, 'd>(&mut self, v: &'v mut Doc<'d>, at: &Path) -> Option<&'v mut [Doc<'d>]> {
        match v {
            Json::Arr(items) => Some(items),
            _ => self.problem(format!("{at} must be an array")),
        }
    }

    /// Reads the object `v` through `T`'s field list, then reports every
    /// key the list never asked for, ahead of the section's other
    /// problems.
    fn section<T: Section>(&mut self, v: &mut Doc, at: &Path) -> Option<T> {
        let Json::Obj(obj) = v else {
            return self.problem(format!("{at} must be an object"));
        };
        let mark = self.problems.len();
        let mut out = T::blank();
        let mut fields = FieldReader {
            r: self,
            obj,
            at,
            asked: [""; MAX_FIELDS],
            asked_len: 0,
            found: 0,
            known_kind: true,
        };
        out.fields(&mut fields);
        let FieldReader {
            obj,
            asked,
            asked_len,
            found,
            known_kind,
            ..
        } = fields;
        if !known_kind {
            return None;
        }
        if found == obj.len() {
            return Some(out);
        }
        let asked = &asked[..asked_len];
        let unknown: Vec<String> = obj
            .iter()
            .filter(|(key, _)| !asked.contains(&&**key))
            .map(|(key, _)| format!("unknown key `{key}` in {at}"))
            .collect();
        self.problems.splice(mark..mark, unknown);
        Some(out)
    }
}

/// The most fields one field list visits.
const MAX_FIELDS: usize = 16;

/// The reader's visitor over one JSON object.
struct FieldReader<'a, 'p, 'd> {
    r: &'a mut Reader,
    obj: &'a mut [(Cow<'d, str>, Doc<'d>)],
    at: &'a Path<'p>,
    /// The keys the field list asked for, in `asked[..asked_len]`.
    asked: [&'static str; MAX_FIELDS],
    asked_len: usize,
    /// How many keys were found; when it is every key, none is unknown.
    found: usize,
    /// False once an enum section's tag names no kind; its other keys
    /// then go unchecked.
    known_kind: bool,
}

/// The key that tags an enum section's kind.
const KIND: &str = "kind";

impl Visit for FieldReader<'_, '_, '_> {
    fn field<T: Value>(
        &mut self,
        key: &'static str,
        required: bool,
        slot: &mut T,
        rule: Rule<T>,
    ) -> bool {
        self.asked[self.asked_len] = key;
        self.asked_len += 1;
        let Some((_, v)) = self.obj.iter_mut().find(|(k, _)| k == key) else {
            if required {
                let at = self.at;
                self.r
                    .problems
                    .push(format!("{at} is missing required key `{key}`"));
            }
            return false;
        };
        self.found += 1;
        let at = Path::Field(self.at, key);
        let Some(value) = T::read(v, &at, self.r) else {
            return false;
        };
        *slot = value;
        match rule(slot) {
            Ok(()) => true,
            Err(why) => {
                self.r.problems.push(format!("{at} {why}"));
                false
            }
        }
    }

    fn kind<T: Clone>(&mut self, noun: &str, slot: &mut T, kinds: &[(&'static str, T)]) -> bool {
        let mut tag = String::new();
        if !self.req(KIND, &mut tag) {
            self.known_kind = false;
        } else if let Some((_, blank)) = kinds.iter().find(|(label, _)| *label == tag) {
            *slot = blank.clone();
        } else {
            let at = Path::Field(self.at, KIND);
            self.r
                .problems
                .push(format!("{at} is not a known {noun}: `{tag}`"));
            self.known_kind = false;
        }
        self.known_kind
    }

    fn reject_if(&mut self, bad: bool, why: &str) {
        if bad {
            let at = self.at;
            self.r.problems.push(format!("{at} {why}"));
        }
    }
}

/// The writer's visitor: emits each field the list visits.
struct Writer<'w>(&'w mut JsonWriter);

impl Visit for Writer<'_> {
    fn field<T: Value>(
        &mut self,
        key: &'static str,
        required: bool,
        slot: &mut T,
        _: Rule<T>,
    ) -> bool {
        if required || !slot.omitted() {
            self.0.key(key);
            slot.write(self.0);
        }
        true
    }

    fn kind<T: Clone>(&mut self, _: &str, slot: &mut T, kinds: &[(&'static str, T)]) -> bool {
        let variant = std::mem::discriminant(slot);
        let kind = kinds
            .iter()
            .find(|(_, k)| std::mem::discriminant(k) == variant);
        self.0
            .key(KIND)
            .string(kind.expect("every variant has a kind").0);
        true
    }
}

/// Escapes the control characters in a problem report. Keys, names and
/// values quoted from the input may hold them, and the aggregated error
/// stays on one line.
fn one_line(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c.is_control() {
            true => out.extend(c.escape_default()),
            false => out.push(c),
        }
    }
    out
}

impl ScenarioSpec {
    /// Parses and validates a scenario from JSON text, aggregating every
    /// problem into one error.
    pub fn parse(input: &str) -> Result<ScenarioSpec, String> {
        const GRAMMAR: &str = "(see DESIGN.md \u{a7}13 for the grammar)";
        let mut root = json::parse_borrowed(input).map_err(|e| {
            format!(
                "invalid scenario spec: not valid JSON ({}) {GRAMMAR}",
                one_line(&e)
            )
        })?;
        let mut r = Reader::default();
        let Some(mut spec) = r.section::<ScenarioSpec>(&mut root, &Path::Root) else {
            return Err(format!(
                "invalid scenario spec: top level must be an object {GRAMMAR}"
            ));
        };
        let mut problems = r.problems;
        spec.check_nodes(&mut problems);
        spec.check_sections(&mut problems);
        for case in spec.resolved_cases() {
            let of = match spec.cases.is_empty() {
                true => String::new(),
                false => format!(" (case `{}`)", case.name),
            };
            let mut require = |missing: bool, what: &str| {
                if missing {
                    let runner = &spec.runner;
                    problems.push(format!("`runner: {runner}` requires {what}{of}"));
                }
            };
            match spec.runner.as_str() {
                "generic" => {
                    require(case.topology.is_none(), "a `topology` section");
                    require(case.probes.is_empty(), "at least one probe");
                }
                "wardrive" => require(case.wardrive.is_none(), "a `wardrive` section"),
                _ => {}
            }
        }
        match problems.is_empty() {
            true => Ok(spec),
            false => Err(format!(
                "invalid scenario spec: {} {GRAMMAR}",
                one_line(&problems.join("; "))
            )),
        }
    }

    /// Re-emits the spec in canonical form: field-list order, two-space
    /// indent, integral numbers without a decimal point, absent optional
    /// fields and empty lists left out.
    pub fn to_canonical_json(&self) -> String {
        self.clone().into_canonical_json()
    }

    pub(crate) fn into_canonical_json(mut self) -> String {
        let mut w = JsonWriter::pretty();
        self.write(&mut w);
        w.finish() + "\n"
    }

    /// The cases trial `t` runs case `t mod n` of: every declared case,
    /// or the top level as one unnamed case.
    pub fn resolved_cases<'s>(&'s self) -> Vec<Case<'s>> {
        let top = Case {
            name: "",
            topology: self.topology.as_ref(),
            wardrive: self.wardrive.as_ref(),
            attacks: &self.attacks,
            probes: &self.probes,
        };
        if self.cases.is_empty() {
            return vec![top];
        }
        let case = |c: &'s CaseSpec| Case {
            name: &c.name,
            topology: c.topology.as_ref().or(top.topology),
            wardrive: c.wardrive.as_ref().or(top.wardrive),
            attacks: c.attacks.as_deref().unwrap_or(top.attacks),
            probes: c.probes.as_deref().unwrap_or(top.probes),
        };
        self.cases.iter().map(case).collect()
    }

    /// Reports duplicate node names within a topology, and every node
    /// name a topology, attack or probe references that the topology it
    /// runs in lacks. A top-level attack or probe runs in every case
    /// without its own section of that kind.
    fn check_nodes(&mut self, problems: &mut Vec<String>) {
        let ScenarioSpec {
            topology,
            attacks,
            probes,
            cases,
            ..
        } = self;
        let root = Path::Root;
        let top = Path::Field(&root, "topology");
        let top_names = topology.as_ref().map(|t| t.names(&top, problems));
        let top_names = top_names.as_deref().unwrap_or_default();
        if cases.is_empty() {
            check_refs(
                attacks,
                &Path::Field(&root, "attacks"),
                top_names,
                None,
                problems,
            );
            check_refs(
                probes,
                &Path::Field(&root, "probes"),
                top_names,
                None,
                problems,
            );
        }
        let listed = Path::Field(&root, "cases");
        for (i, case) in cases.iter_mut().enumerate() {
            let at = Path::Index(&listed, i);
            let own = case.topology.as_ref();
            let names = own.map(|t| t.names(&Path::Field(&at, "topology"), problems));
            let names = names.as_deref().unwrap_or(top_names);
            let name = Some(case.name.as_str());
            match &mut case.attacks {
                Some(own) => check_refs(own, &Path::Field(&at, "attacks"), names, None, problems),
                None => check_refs(
                    attacks,
                    &Path::Field(&root, "attacks"),
                    names,
                    name,
                    problems,
                ),
            }
            match &mut case.probes {
                Some(own) => check_refs(own, &Path::Field(&at, "probes"), names, None, problems),
                None => check_refs(probes, &Path::Field(&root, "probes"), names, name, problems),
            }
        }
    }

    /// Reports every section, top-level or a case's, that the spec's
    /// runner does not read, a shared case seed without cases, fewer
    /// trials than cases, and each case an assertion names that the spec
    /// does not declare.
    fn check_sections(&mut self, problems: &mut Vec<String>) {
        let registered = crate::registry::RUNNERS
            .iter()
            .find(|(name, ..)| *name == self.runner);
        if let Some(&(runner, _, reads)) = registered {
            self.fields(&mut Unread(runner, reads, problems));
            for case in &mut self.cases {
                case.fields(&mut Unread(runner, reads, problems));
            }
        }
        if self.run.case_seed == CaseSeed::Shared && self.cases.is_empty() {
            problems.push("`run.case_seed` is `shared`, which needs `cases`".to_string());
        }
        if self.run.trials < self.cases.len() {
            problems.push(crate::registry::too_few_trials(
                self.run.trials,
                self.cases.len(),
            ));
        }
        for (i, a) in self.assertions.iter().enumerate() {
            for case in [&a.case, &a.plus_case].into_iter().flatten() {
                if !self.cases.iter().any(|c| &c.name == case) {
                    problems.push(format!("`assertions[{i}]` names unknown case `{case}`"));
                }
            }
        }
    }

    /// Whether `--quick` changes this spec's results: a `wardrive`
    /// section declares `quick_*` overrides. Such a spec writes its
    /// `--quick` envelope as `<slug>_quick`; for every other spec
    /// `--quick` only labels the envelope.
    pub(crate) fn quick_overrides(&self) -> bool {
        let quick = |w: &WardriveSpec| w.quick_devices.is_some() || w.quick_dwell_us.is_some();
        self.resolved_cases()
            .iter()
            .any(|c| c.wardrive.is_some_and(quick))
    }

    /// Builds the [`RunArgs`] defaults this spec pins.
    pub fn run_args(&self) -> RunArgs {
        self.run.to_run_args()
    }
}

/// Reports each node reference of `items` (listed at `at`) that `names`
/// (sorted) lacks, naming the `case` the items run in when they are not
/// its own.
fn check_refs<T: Section>(
    items: &mut [T],
    at: &Path,
    names: &[&str],
    case: Option<&str>,
    problems: &mut Vec<String>,
) {
    for (i, item) in items.iter_mut().enumerate() {
        let at = Path::Index(at, i);
        item.fields(&mut NodeRefs {
            at: &at,
            names,
            case,
            problems,
        });
    }
}

/// The third visitor: checks the `node` fields of one section.
struct NodeRefs<'a, 'p> {
    at: &'a Path<'p>,
    names: &'a [&'a str],
    case: Option<&'a str>,
    problems: &'a mut Vec<String>,
}

impl Visit for NodeRefs<'_, '_> {
    fn field<T: Value>(&mut self, _: &'static str, _: bool, _: &mut T, _: Rule<T>) -> bool {
        true
    }

    fn opt_node(&mut self, key: &'static str, slot: &mut Option<String>) {
        if let Some(name) = slot {
            self.node(key, name);
        }
    }

    fn node(&mut self, _: &'static str, slot: &mut String) {
        if self.names.binary_search(&slot.as_str()).is_err() {
            let at = self.at;
            let case = self
                .case
                .map_or(String::new(), |c| format!(" in case `{c}`"));
            let problem = format!("{at} references unknown node `{slot}`{case}");
            self.problems.push(problem);
        }
    }
}

/// The fourth visitor: reports to `problems` each optional section the
/// spec carries that its runner does not read: `(runner, the sections
/// it reads, problems)`.
struct Unread<'a>(&'a str, &'a [&'a str], &'a mut Vec<String>);

impl Visit for Unread<'_> {
    fn field<T: Value>(
        &mut self,
        key: &'static str,
        required: bool,
        slot: &mut T,
        _: Rule<T>,
    ) -> bool {
        let Unread(runner, reads, problems) = self;
        if !required && !slot.omitted() && !reads.contains(&key) {
            let reads = reads.join("`, `");
            problems.push(format!(
                "runner `{runner}` does not read `{key}` (it reads `{reads}`)"
            ));
        }
        true
    }
}

impl TopologySpec {
    /// Its node names, sorted, after reporting duplicates and each name
    /// a blocklist, link or association references that it lacks.
    fn names(&self, at: &Path, problems: &mut Vec<String>) -> Vec<&str> {
        let mut names: Vec<&str> = self.nodes.iter().map(|n| n.name.as_str()).collect();
        names.sort_unstable();
        let nodes = Path::Field(at, "nodes");
        for pair in names.windows(2).filter(|pair| pair[0] == pair[1]) {
            problems.push(format!("duplicate node name `{}` in {nodes}", pair[0]));
        }
        let mut unknown = |site: &Path, name: &String| {
            if names.binary_search(&name.as_str()).is_err() {
                problems.push(format!("{site} references unknown node `{name}`"));
            }
        };
        for (i, node) in self.nodes.iter().enumerate() {
            node.blocklist
                .iter()
                .for_each(|name| unknown(&Path::Index(&nodes, i), name));
        }
        for (key, pairs) in [("links", &self.links), ("associations", &self.associations)] {
            for (from, to) in pairs {
                unknown(&Path::Field(at, key), from);
                unknown(&Path::Field(at, key), to);
            }
        }
        names
    }

    /// Routes the topology through [`ScenarioBuilder`]: nodes in
    /// declaration order (so [`NodeId`]s are stable), then links, then
    /// one-directional associations, then blocklists.
    pub fn builder(&self, faults: FaultProfile) -> (ScenarioBuilder, BTreeMap<String, NodeId>) {
        use polite_wifi_mac::StationConfig;
        let mut sb = ScenarioBuilder::new()
            .duration_us(self.duration_us)
            .faults(faults);
        let mut ids: BTreeMap<String, NodeId> = BTreeMap::new();
        for n in &self.nodes {
            let mut cfg = match n.kind {
                NodeKind::Ap => StationConfig::access_point(n.mac, n.ssid.as_deref().unwrap_or("")),
                NodeKind::Client | NodeKind::Monitor => StationConfig::client(n.mac),
            };
            if let Some(b) = n.behavior.as_deref().and_then(behavior_from_label) {
                cfg.behavior = b;
            }
            if let Some(b) = n.band {
                cfg.band = b;
            }
            if let Some(c) = n.channel {
                cfg.channel = c;
            }
            if let Some(bi) = n.beacon_interval_us {
                cfg.beacon_interval_us = if bi == 0 { None } else { Some(bi) };
            }
            let id = sb.station(cfg, n.position);
            if n.kind == NodeKind::Monitor {
                sb.set_monitor(id);
            }
            if let Some(r) = n.retries {
                sb.retries(id, r);
            }
            if let Some(v) = n.velocity {
                sb.velocity(id, v);
            }
            ids.insert(n.name.clone(), id);
        }
        for (a, b) in &self.links {
            sb.link(ids[a], ids[b]);
        }
        for (node, peer) in &self.associations {
            sb.associate(ids[node], self.mac_of(peer));
        }
        for n in &self.nodes {
            for blocked in &n.blocklist {
                sb.block(ids[&n.name], self.mac_of(blocked));
            }
        }
        (sb, ids)
    }

    /// The MAC of a named node (validated to exist at parse time).
    pub fn mac_of(&self, name: &str) -> MacAddr {
        self.nodes
            .iter()
            .find(|n| n.name == name)
            .map(|n| n.mac)
            .expect("validated node name")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
  "name": "T",
  "paper_ref": "ref",
  "slug": "t",
  "runner": "generic",
  "run": {
    "seed": 2,
    "trials": 3,
    "workers": 1,
    "quick": false,
    "faults": "clean"
  },
  "topology": {
    "duration_us": 1000,
    "nodes": [
      {
        "name": "ap",
        "mac": "68:02:b8:00:00:01",
        "kind": "ap",
        "position": [2, 0],
        "ssid": "Net"
      },
      {
        "name": "victim",
        "mac": "f2:6e:0b:11:22:33",
        "kind": "client",
        "position": [0, 0]
      }
    ],
    "links": [
      ["victim", "ap"]
    ]
  },
  "probes": [
    {
      "kind": "station-stat",
      "node": "victim",
      "stat": "acks_sent",
      "metric": "acks_sent"
    }
  ]
}
"#;

    #[test]
    fn minimal_spec_parses_and_round_trips_byte_exact() {
        let spec = ScenarioSpec::parse(MINIMAL).expect("parses");
        assert_eq!(spec.name, "T");
        assert_eq!(spec.run.seed, 2);
        assert_eq!(spec.run.trials, 3);
        let topo = spec.topology.as_ref().unwrap();
        assert_eq!(topo.nodes.len(), 2);
        assert_eq!(topo.links, vec![("victim".to_string(), "ap".to_string())]);
        assert_eq!(spec.to_canonical_json(), MINIMAL);
    }

    #[test]
    fn topology_builder_assigns_ids_in_declaration_order() {
        let spec = ScenarioSpec::parse(MINIMAL).unwrap();
        let topo = spec.topology.as_ref().unwrap();
        let (sb, ids) = topo.builder(FaultProfile::Clean);
        assert_eq!(ids["ap"].0, 0);
        assert_eq!(ids["victim"].0, 1);
        assert_eq!(sb.population(), 2);
        let s = sb.build_with_seed(5);
        assert!(s
            .sim
            .station(ids["victim"])
            .is_associated_with(topo.mac_of("ap")));
    }

    #[test]
    fn all_problems_are_aggregated_into_one_error() {
        let bad = r#"{
  "name": "T",
  "slug": "Bad Slug",
  "runner": "generic",
  "run": {"seed": -1, "faults": "volcanic"},
  "topology": {
    "duration_us": 1000,
    "nodes": [
      {"name": "a", "mac": "not-a-mac", "kind": "router", "position": [0, 0]}
    ],
    "links": [["a", "ghost"]]
  },
  "bogus": 1
}"#;
        let err = ScenarioSpec::parse(bad).unwrap_err();
        for needle in [
            "unknown key `bogus`",
            "missing required key `paper_ref`",
            "`slug` must be non-empty snake_case",
            "`run.seed` must be a non-negative integer",
            "`run.faults` is not a known profile: `volcanic`",
            "not a valid MAC address",
            "kind must be `client`, `ap` or `monitor`, got `router`",
            "references unknown node `ghost`",
            "requires at least one probe",
            "see DESIGN.md \u{a7}13",
        ] {
            assert!(err.contains(needle), "missing {needle:?} in {err}");
        }
        // One aggregated error: a single line, problems joined by "; ".
        assert_eq!(err.lines().count(), 1);
    }

    #[test]
    fn unknown_attack_probe_and_op_are_rejected() {
        let bad = r#"{
  "name": "T",
  "paper_ref": "r",
  "slug": "t",
  "runner": "x",
  "attacks": [{"kind": "tsunami"}],
  "probes": [{"kind": "crystal-ball"}],
  "assertions": [{"metric": "m", "op": "~=", "value": 1}]
}"#;
        let err = ScenarioSpec::parse(bad).unwrap_err();
        assert!(err.contains("not a known attack: `tsunami`"), "{err}");
        assert!(err.contains("not a known probe: `crystal-ball`"), "{err}");
        assert!(err.contains("not a comparison operator: `~=`"), "{err}");
    }

    #[test]
    fn unknown_propagation_mode_is_rejected_in_the_aggregated_error() {
        for mode in ["cell_grid", "all_pairs", "psychic"] {
            let bad = MINIMAL.replace(
                "\"duration_us\": 1000,",
                &format!("\"duration_us\": 1000,\n    \"propagation\": \"{mode}\","),
            );
            let err = ScenarioSpec::parse(&bad).unwrap_err();
            assert!(err.contains("unknown key `propagation` in"), "{err}");
            assert_eq!(err.lines().count(), 1);
        }
    }

    #[test]
    fn bitrate_labels_cover_every_variant() {
        for label in [
            "1", "2", "5.5", "6", "9", "11", "12", "18", "24", "36", "48", "54",
        ] {
            assert!(bitrate_from_label(label).is_some(), "{label}");
        }
        assert!(bitrate_from_label("7").is_none());
    }

    #[test]
    fn behavior_labels_resolve() {
        for label in [
            "client",
            "quiet_ap",
            "deauthing_ap",
            "iot_power_save",
            "pmf",
            "validating:40",
        ] {
            assert!(behavior_from_label(label).is_some(), "{label}");
        }
        assert!(behavior_from_label("validating:x").is_none());
        assert!(behavior_from_label("chaotic").is_none());
    }

    #[test]
    fn unregistered_runner_is_rejected_with_the_known_list() {
        let retired = [
            "fig3_deauth",
            "ext_nav_dos",
            "ablation_validate",
            "sifs_timing",
        ];
        for runner in retired {
            let stale = MINIMAL.replace(
                "\"runner\": \"generic\"",
                &format!("\"runner\": \"{runner}\""),
            );
            let err = ScenarioSpec::parse(&stale).unwrap_err();
            assert!(
                err.contains(&format!(
                    "`runner` names no registered runner: `{runner}` (known: generic, "
                )),
                "{err}"
            );
            assert_eq!(err.lines().count(), 1);
        }
    }

    /// `scenarios/fig6_power.json` plus a topology, which its bespoke
    /// runner would never build.
    fn fig6_power_with_a_topology() -> String {
        let text = include_str!("../../../scenarios/fig6_power.json");
        let topology = ",\n  \"topology\": {\"duration_us\": 1000, \"nodes\": []}\n}";
        text.trim_end().strip_suffix("\n}").unwrap().to_string() + topology
    }

    #[test]
    fn sections_the_runner_does_not_read_are_rejected() {
        let reads = "(it reads `run`, `assertions`)";
        rejects(
            &fig6_power_with_a_topology(),
            &format!("`fig6_power` does not read `topology` {reads}"),
        );
        let city = include_str!("../../../scenarios/city_wardrive.json");
        rejects(
            &city.replace("\"wardrive\",", "\"fig6_power\","),
            "does not read `wardrive`",
        );
        let generic = MINIMAL.replace("  ]\n}\n", "  ],\n  \"wardrive\": {}\n}\n");
        rejects(
            &generic,
            "runner `generic` does not read `wardrive` (it reads `run`, `topology`",
        );
        // A case's sections are read by the same runner, and `params` is gone.
        let cased = r#"  "cases": [{"name": "c", "probes": [{"kind": "pcap", "node": "x"}]}],"#;
        let cased = city.replace("  \"assertions\"", &format!("{cased}\n  \"assertions\""));
        rejects(
            &cased,
            "`wardrive` does not read `probes` (it reads `run`, `wardrive`, `cases`",
        );
        let params = city.replace("\n}\n", ",\n  \"params\": {\"devices\": 1000}\n}\n");
        rejects(&params, "unknown key `params` in the spec");
    }

    /// Asserts that `text` fails to parse with one single-line error
    /// naming `problem`.
    fn rejects(text: &str, problem: &str) {
        let err = ScenarioSpec::parse(text).unwrap_err();
        assert!(err.contains(problem), "{problem}: {err}");
        assert_eq!(err.lines().count(), 1);
    }

    /// `scenarios/city_wardrive.json` with its city sized `devices`.
    fn city_of(devices: &str) -> String {
        let city = include_str!("../../../scenarios/city_wardrive.json");
        city.replace("\"devices\": 100000", &format!("\"devices\": {devices}"))
    }

    #[test]
    fn city_size_is_in_the_spec_and_the_cache_key() {
        let [default, million] = ["100000", "1000000"].map(|n| ScenarioSpec::parse(&city_of(n)));
        let (default, million) = (default.unwrap(), million.unwrap());
        let population = &million.wardrive.as_ref().unwrap().population;
        assert_eq!(population, &PopulationSpec::City { devices: 1_000_000 });
        assert_ne!(default.canonical_hash(), million.canonical_hash());
    }

    /// An integer at or above 2^53 is a parse error, not a rounded value:
    /// 2^53 + 1 would read back as 2^53 and share its cache key.
    #[test]
    fn integers_json_cannot_hold_exactly_are_rejected() {
        let fig2 = include_str!("../../../scenarios/fig2_trace.json");
        for (from, to, problem) in [
            ("\"seed\": 2", "\"seed\": 9007199254740993", "`run.seed`"),
            (
                "\"seed\": 2",
                "\"seed\": 18446744073709551616",
                "`run.seed`",
            ),
            ("1500000", "9007199254740992", "`topology.duration_us`"),
        ] {
            let problem = format!("{problem} must be below 2^53 = 9007199254740992");
            rejects(&fig2.replace(from, to), &problem);
        }
        let largest = fig2.replace("\"seed\": 2", "\"seed\": 9007199254740991");
        let spec = ScenarioSpec::parse(&largest).unwrap();
        assert_eq!(spec.run.seed, 9_007_199_254_740_991);
    }

    /// A bad city size is a parse error, for the drive and its `--quick`
    /// override alike; no bad value reaches a run.
    #[test]
    fn bad_devices_are_rejected_not_panicked_on() {
        for bad in ["0", "1.5", "2000000", "-3", "\"many\""] {
            rejects(&city_of(bad), "`wardrive.population.devices` must be");
            let quick = format!("\"quick_dwell_us\": 1, \"quick_devices\": {bad}");
            let quick = city_of("100").replace("\"quick_dwell_us\": 500000", &quick);
            rejects(&quick, "`wardrive.quick_devices` must be");
        }
        rejects(&city_of("0"), "must be a whole number in 1..=1000000");
    }

    #[test]
    fn wardrive_sections_validate_their_numbers_and_policy() {
        let table2 = include_str!("../../../scenarios/table2_wardrive.json");
        // Each row: the committed text, its replacement, the problem.
        for row in [
            r#""segment_size": 48|"segment_size": 0|`wardrive.segment_size` must be at least 1"#,
            r#""dwell_us": 2500000|"dwell_us": 0|`wardrive.dwell_us` must be at least 1"#,
            r#""dwell_us": 2500000|"dwell_us": 1, "randomized": 1.5, "mac_seed": 7|in [0, 1]"#,
            r#""dwell_us": 2500000|"dwell_us": 1, "randomized": 0.5|`randomized` and `mac_seed`"#,
            r#""parked"|"drive-through"|drives `drive-through` only through a `city`"#,
            r#""parked"|"towed"|`wardrive.drive` must be `parked` or `drive-through`"#,
            r#""quick_devices": 500|"quick_dwell_us": 0|`wardrive.quick_dwell_us` must be"#,
            r#""kind": "table2"|"kind": "moon"|not a known population: `moon`"#,
        ] {
            let [from, to, problem] =
                <[&str; 3]>::try_from(row.split('|').collect::<Vec<_>>()).unwrap();
            assert!(table2.contains(from), "{from}");
            rejects(&table2.replacen(from, to, 1), problem);
        }
        let bare =
            table2.split("  \"wardrive\"").next().unwrap().to_string() + "  \"assertions\": []\n}";
        rejects(&bare, "`runner: wardrive` requires a `wardrive` section");
    }

    #[test]
    fn blocklists_and_min_assertions_parse_round_trip_and_build() {
        let text = MINIMAL
            .replace(
                "\"position\": [0, 0]\n",
                "\"position\": [0, 0],\n        \"blocklist\": [\n          \"ap\"\n        ]\n",
            )
            .replace(
                "  ]\n}\n",
                "  ],\n  \"assertions\": [\n    {\n      \"metric\": \"acks_sent\",\n      \
                 \"summary\": \"min\",\n      \"op\": \">\",\n      \"value\": 0\n    }\n  ]\n}\n",
            );
        let spec = ScenarioSpec::parse(&text).expect("parses");
        assert_eq!(spec.to_canonical_json(), text);
        assert_eq!(spec.assertions[0].summary, Summary::Min);
        let topo = spec.topology.as_ref().unwrap();
        let (sb, ids) = topo.builder(FaultProfile::Clean);
        let s = sb.build_with_seed(5);
        assert!(s.sim.station(ids["victim"]).is_blocked(topo.mac_of("ap")));
        assert!(!s.sim.station(ids["ap"]).is_blocked(topo.mac_of("victim")));

        rejects(
            &text.replace("\"min\"", "\"median\""),
            "summary must be `mean`, `min` or `max`, got `median`",
        );
        let err =
            ScenarioSpec::parse(&text.replace("\"ap\"\n        ]", "\"ghost\"]")).unwrap_err();
        assert!(
            err.contains("`topology.nodes[1]` references unknown node `ghost`"),
            "{err}"
        );
    }

    /// MINIMAL plus `cases`: one carrying its own topology (whose node
    /// names may repeat the top level's) and one reading every
    /// top-level section.
    fn with_cases(case_topology_nodes: &str) -> String {
        let cases = format!(
            r#"  ],
  "cases": [
    {{
      "name": "alone",
      "topology": {{
        "duration_us": 5,
        "nodes": [{case_topology_nodes}]
      }}
    }},
    {{
      "name": "probed",
      "probes": [
        {{"kind": "pcap", "node": "ap"}}
      ]
    }}
  ]
}}
"#
        );
        MINIMAL.replace("  ]\n}\n", &cases)
    }

    #[test]
    fn shared_case_seeds_and_case_assertions_need_declared_cases() {
        let victim = r#"{"name": "victim", "mac": "02:00:00:00:00:01", "kind": "client", "position": [0, 0]}"#;
        let shared = |text: &str| {
            text.replace(
                "\"faults\": \"clean\"",
                "\"faults\": \"clean\",\n    \"case_seed\": \"shared\"",
            )
        };
        let assertions = r#"  "assertions": [
    {
      "metric": "acks_sent",
      "case": "alone",
      "op": "<=",
      "value": 0.5,
      "plus_case": "probed"
    }
  ]
}
"#;
        let text = shared(&with_cases(victim)).replace("  ]\n}\n", &format!("  ],\n{assertions}"));
        let spec = ScenarioSpec::parse(&text).expect("parses");
        assert_eq!(spec.run.case_seed, CaseSeed::Shared);
        assert_eq!(spec.assertions[0].case.as_deref(), Some("alone"));
        assert_eq!(spec.assertions[0].plus_case.as_deref(), Some("probed"));
        assert_eq!(
            ScenarioSpec::parse(&spec.to_canonical_json()).unwrap(),
            spec
        );

        let err = ScenarioSpec::parse(&text.replace("\"probed\"\n    }", "\"ghost\"\n    }"))
            .unwrap_err();
        assert!(
            err.contains("`assertions[0]` names unknown case `ghost`"),
            "{err}"
        );
        rejects(
            &shared(MINIMAL),
            "`run.case_seed` is `shared`, which needs `cases`",
        );
        rejects(
            &MINIMAL.replace("\"clean\"", "\"clean\", \"case_seed\": \"pass\""),
            "`run.case_seed` must be `trial` or `shared`, got `pass`",
        );
    }

    /// Each case needs a trial: a spec whose `run.trials` is below its
    /// case count is rejected; one trial per case parses.
    #[test]
    fn trials_must_cover_every_case() {
        let victim = r#"{"name": "victim", "mac": "02:00:00:00:00:01", "kind": "client", "position": [0, 0]}"#;
        let text = with_cases(victim);
        let two = ScenarioSpec::parse(&text.replace("\"trials\": 3", "\"trials\": 2")).unwrap();
        assert_eq!((two.run.trials, two.cases.len()), (2, 2));
        rejects(
            &text.replace("\"trials\": 3", "\"trials\": 1"),
            "1 trial(s) cannot run all 2 declared cases",
        );
    }

    /// `max` and a `paper` label parse, and re-emit in canonical order.
    #[test]
    fn max_summaries_and_paper_labels_round_trip() {
        let text = MINIMAL.replace(
            "  ]\n}\n",
            "  ],\n  \"assertions\": [\n    {\n      \"metric\": \"acks_sent\",\n      \
             \"summary\": \"max\",\n      \"op\": \"<\",\n      \"value\": 0.45,\n      \
             \"when\": \"clean\",\n      \"paper\": \"~10 mW\"\n    }\n  ]\n}\n",
        );
        let spec = ScenarioSpec::parse(&text).expect("parses");
        let a = &spec.assertions[0];
        assert_eq!(a.summary, Summary::Max);
        assert!(a.clean_only);
        assert_eq!(a.paper.as_deref(), Some("~10 mW"));
        assert_eq!(spec.to_canonical_json(), text);
        rejects(
            &text.replace("\"~10 mW\"", "10"),
            "`assertions[0]`.paper must be a string",
        );
    }

    #[test]
    fn per_frame_counters_name_a_node_of_their_topology() {
        let per = MINIMAL.replace(
            "\"metric\": \"acks_sent\"\n",
            "\"metric\": \"acks_sent\",\n      \"per_frames_from\": \"ap\"\n",
        );
        let spec = ScenarioSpec::parse(&per).expect("parses");
        assert_eq!(spec.to_canonical_json(), per);
        rejects(
            &per.replace(
                "\"per_frames_from\": \"ap\"",
                "\"per_frames_from\": \"ghost\"",
            ),
            "`probes[0]` references unknown node `ghost`",
        );
        rejects(
            &per.replace(
                "\"acks_sent\",\n      \"metric",
                "\"tx_counts\",\n      \"metric",
            ),
            "is not a known counter: `tx_counts`",
        );
    }

    #[test]
    fn cases_scope_node_names_and_replace_whole_sections() {
        let victim = r#"{"name": "victim", "mac": "02:00:00:00:00:01", "kind": "client", "position": [0, 0]}"#;
        let spec = ScenarioSpec::parse(&with_cases(victim)).expect("parses");
        let cases = spec.resolved_cases();
        assert_eq!(cases.len(), 2);
        assert_eq!(cases[0].name, "alone");
        assert_eq!(cases[0].topology.unwrap().duration_us, 5);
        assert_eq!(cases[0].probes, &spec.probes[..]);
        assert_eq!(cases[1].topology, spec.topology.as_ref());
        assert!(matches!(cases[1].probes, [ProbeSpec::Pcap { .. }]));
        let canonical = spec.to_canonical_json();
        assert_eq!(ScenarioSpec::parse(&canonical).unwrap(), spec);

        // The top-level probe reads `victim`: a case topology without it
        // breaks that case alone. Case topologies declare their own
        // names, so `ap` may repeat across scopes but not within one.
        let ap = r#"{"name": "ap", "mac": "02:00:00:00:00:02", "kind": "ap", "position": [0, 0], "ssid": "N"}"#;
        let err = ScenarioSpec::parse(&with_cases(ap)).unwrap_err();
        assert!(
            err.contains("`probes[0]` references unknown node `victim` in case `alone`"),
            "{err}"
        );
        assert!(!err.contains("duplicate"), "{err}");
        rejects(
            &with_cases(&format!("{ap}, {ap}, {victim}")),
            "duplicate node name `ap` in `cases[0]`.topology.nodes",
        );
        let err =
            ScenarioSpec::parse(&with_cases(victim).replace("\"ap\"}", "\"nobody\"}")).unwrap_err();
        assert!(
            err.contains("`cases[1]`.probes[0] references unknown node `nobody`"),
            "{err}"
        );
    }

    /// `scenarios/powersave_awake.json` with its null flood paced at
    /// 1,000,000 frames/s for 10^12 µs: 10^12 frames, which would
    /// exhaust memory scheduling them.
    fn hostile_powersave(rate_pps: &str) -> String {
        let text = include_str!("../../../scenarios/powersave_awake.json");
        let flood =
            "\"rate_pps\": 10,\n      \"start_us\": 50000,\n      \"duration_us\": 1500000,";
        assert!(text.contains(flood), "the committed flood changed");
        text.replace(
            flood,
            &format!(
                "\"rate_pps\": {rate_pps},\n      \"start_us\": 50000,\n      \"duration_us\": 1000000000000,"
            ),
        )
    }

    #[test]
    fn hostile_streams_are_rejected_in_the_aggregated_error() {
        let err = ScenarioSpec::parse(&hostile_powersave("1000000")).unwrap_err();
        assert_eq!(err.lines().count(), 1);
        assert!(
            err.contains("`attacks[0]` paces 1000000000000 frames, above the 1000000-frame limit"),
            "{err}"
        );
        rejects(
            &hostile_powersave("1000001"),
            "paces 1000001 frames/s, above the 1000000 frames/s limit",
        );
        let at_the_cap = hostile_powersave("1000000").replace("1000000000000", "1000000");
        assert!(ScenarioSpec::parse(&at_the_cap).is_ok());

        let traffic = include_str!("../../../scenarios/blockack_paralysis.json");
        assert!(traffic.contains("\"payload_len\": 200,"));
        let huge = traffic.replace("\"payload_len\": 200,", "\"payload_len\": 1000000000,");
        rejects(&huge, "payload_len must be at most 2304 bytes");
    }
}
