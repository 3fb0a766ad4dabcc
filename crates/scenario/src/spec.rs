//! The scenario spec: parse, validate, and canonically re-emit.
//!
//! A scenario is one JSON file that composes everything an experiment
//! needs: identity (envelope `name`/`paper_ref`/`slug`), run defaults
//! (seed, trials, workers, quick, fault profile), a population/topology
//! for [`ScenarioBuilder`], attacker strategies, defender probes, and a
//! pass/fail assertion block. Parsing reuses the zero-dependency JSON
//! parser from `polite-wifi-obs` and rejects malformed
//! specs with **one aggregated error** listing every problem, the same
//! contract as the harness flag parser.
//!
//! [`ScenarioSpec::to_canonical_json`] re-emits the spec in a fixed
//! field order and formatting; committed `scenarios/*.json` files are
//! kept in canonical form, so `parse → write` round-trips byte-exact
//! (the golden tests pin this).

use polite_wifi_frame::MacAddr;
use polite_wifi_harness::{RunArgs, ScenarioBuilder};
use polite_wifi_obs::json::{self, parse as parse_json, JsonValue};
use polite_wifi_phy::rate::BitRate;
use polite_wifi_phy::Band;
use polite_wifi_sim::{FaultProfile, NodeId};
use std::collections::BTreeMap;

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
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            seed: 7,
            trials: 1,
            workers: 1,
            quick: false,
            faults: FaultProfile::Clean,
        }
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

impl NodeKind {
    fn label(self) -> &'static str {
        match self {
            NodeKind::Client => "client",
            NodeKind::Ap => "ap",
            NodeKind::Monitor => "monitor",
        }
    }

    fn from_label(label: &str) -> Option<NodeKind> {
        Some(match label {
            "client" => NodeKind::Client,
            "ap" => NodeKind::Ap,
            "monitor" => NodeKind::Monitor,
            _ => return None,
        })
    }
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
    /// Operating band: `2.4` or `5`.
    pub band: Option<String>,
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
}

/// The population/topology section.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    /// Virtual time the scenario runs for.
    pub duration_us: u64,
    /// Receiver-enumeration backend: `all_pairs` (the default) or
    /// `cell_grid` (spatial interference cells, city scale). `None`
    /// leaves [`SimConfig`](polite_wifi_sim::SimConfig) at its default.
    pub propagation: Option<String>,
    /// Stations, in [`NodeId`] assignment order.
    pub nodes: Vec<NodeSpec>,
    /// Bidirectional client↔AP associations, by node name.
    pub links: Vec<(String, String)>,
    /// One-directional "node trusts peer" associations, by node name.
    pub associations: Vec<(String, String)>,
}

/// An attacker strategy composed from the `polite-wifi-core` trait
/// layer (plus legitimate background traffic, which shares the
/// scheduling shape).
#[derive(Debug, Clone, PartialEq)]
pub enum AttackSpec {
    /// The paper's fake null-function stream.
    NullFlood {
        /// Injecting node (by name).
        attacker: String,
        /// Target node (by name).
        victim: String,
        /// Frames per second.
        rate_pps: u32,
        /// First injection time.
        start_us: u64,
        /// Stream duration.
        duration_us: u64,
        /// Transmit bit rate label (e.g. `1`, `6`, `24`).
        bitrate: String,
    },
    /// NAV-stuffing forged RTS.
    RtsFlood {
        /// Injecting node.
        attacker: String,
        /// Node whose CTS is elicited.
        target: String,
        /// NAV reservation per RTS, µs.
        nav_us: u16,
        /// Frames per second.
        rate_pps: u32,
        /// First injection time.
        start_us: u64,
        /// Stream duration.
        duration_us: u64,
        /// Bit rate label.
        bitrate: String,
    },
    /// Forged unprotected deauthentication flood (arXiv 2602.23513).
    DeauthFlood {
        /// Injecting node.
        attacker: String,
        /// The client being kicked.
        victim: String,
        /// The AP whose address is forged.
        forged_ap: String,
        /// Frames per second.
        rate_pps: u32,
        /// First injection time.
        start_us: u64,
        /// Stream duration.
        duration_us: u64,
        /// Bit rate label.
        bitrate: String,
    },
    /// Bl0ck-style forged BlockAckReq window jump (arXiv 2302.05899).
    BlockAckParalysis {
        /// Injecting node.
        attacker: String,
        /// The receiver whose window is jumped.
        victim: String,
        /// The associated peer the BAR impersonates.
        spoofed_peer: String,
        /// Sequence number the window floor jumps to.
        jump_to_seq: u16,
        /// Injection time.
        at_us: u64,
        /// Bit rate label.
        bitrate: String,
    },
    /// Legitimate protected QoS traffic between associated stations —
    /// the workload the attacks disrupt.
    QosTraffic {
        /// Sending node.
        from: String,
        /// Receiving node.
        to: String,
        /// Frames per second.
        rate_pps: u32,
        /// First frame time.
        start_us: u64,
        /// Stream duration.
        duration_us: u64,
        /// Ciphertext length per frame.
        payload_len: u64,
        /// Bit rate label.
        bitrate: String,
    },
}

/// A defender-side measurement.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeSpec {
    /// Temporal fake↔ACK pairing over the global capture.
    AckVerifier {
        /// The attacker node whose forged TA anchors pairing.
        attacker: String,
    },
    /// One `StationStats` counter, recorded under `metric`.
    StationStat {
        /// Node to read.
        node: String,
        /// Counter label (see `StatKind`).
        stat: String,
        /// Ledger metric name.
        metric: String,
    },
    /// Whether `node` is still associated with `peer` (1/0).
    Association {
        /// Node to inspect.
        node: String,
        /// Peer node (by name).
        peer: String,
        /// Ledger metric name.
        metric: String,
    },
}

/// A pass/fail check over recorded metric means.
#[derive(Debug, Clone, PartialEq)]
pub struct AssertionSpec {
    /// Metric name.
    pub metric: String,
    /// Comparison operator symbol.
    pub op: String,
    /// Right-hand side.
    pub value: f64,
    /// `true`: only enforced under the clean fault profile (fault
    /// injection legitimately perturbs measured values).
    pub clean_only: bool,
}

/// A freeform scalar parameter (ported experiments read these).
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

/// A fully parsed and validated scenario.
#[derive(Debug, Clone, PartialEq)]
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
    /// Attacker strategies.
    pub attacks: Vec<AttackSpec>,
    /// Defender probes.
    pub probes: Vec<ProbeSpec>,
    /// Pass/fail assertion block.
    pub assertions: Vec<AssertionSpec>,
    /// Freeform per-experiment parameters.
    pub params: Vec<(String, ParamValue)>,
}

/// Parses a bit-rate label (`"1"`, `"5.5"`, `"24"`, …).
pub fn bitrate_from_label(label: &str) -> Option<BitRate> {
    Some(match label {
        "1" => BitRate::Mbps1,
        "2" => BitRate::Mbps2,
        "5.5" => BitRate::Mbps5_5,
        "6" => BitRate::Mbps6,
        "9" => BitRate::Mbps9,
        "11" => BitRate::Mbps11,
        "12" => BitRate::Mbps12,
        "18" => BitRate::Mbps18,
        "24" => BitRate::Mbps24,
        "36" => BitRate::Mbps36,
        "48" => BitRate::Mbps48,
        "54" => BitRate::Mbps54,
        _ => return None,
    })
}

fn band_from_label(label: &str) -> Option<Band> {
    Some(match label {
        "2.4" => Band::Ghz2,
        "5" => Band::Ghz5,
        _ => return None,
    })
}

/// Resolves a `topology.propagation` label to the PR 6 backend.
pub fn propagation_from_label(label: &str) -> Option<polite_wifi_sim::PropagationMode> {
    use polite_wifi_sim::PropagationMode;
    Some(match label {
        "all_pairs" => PropagationMode::AllPairs,
        "cell_grid" => PropagationMode::CellGrid,
        _ => return None,
    })
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

// ===== Parsing =====

struct Problems(Vec<String>);

impl Problems {
    fn push(&mut self, msg: String) {
        self.0.push(msg);
    }

    fn into_error(self) -> Result<(), String> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "invalid scenario spec: {} (see DESIGN.md \u{a7}13 for the grammar)",
                self.0.join("; ")
            ))
        }
    }
}

fn check_keys(obj: &[(String, JsonValue)], allowed: &[&str], path: &str, p: &mut Problems) {
    for (key, _) in obj {
        if !allowed.contains(&key.as_str()) {
            p.push(format!("unknown key `{key}` in {path}"));
        }
    }
}

fn req<'a>(
    obj: &'a [(String, JsonValue)],
    key: &str,
    path: &str,
    p: &mut Problems,
) -> Option<&'a JsonValue> {
    match obj.iter().find(|(k, _)| k == key) {
        Some((_, v)) => Some(v),
        None => {
            p.push(format!("{path} is missing required key `{key}`"));
            None
        }
    }
}

fn opt<'a>(obj: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_str(v: &JsonValue, path: &str, p: &mut Problems) -> Option<String> {
    match v.as_str() {
        Some(s) => Some(s.to_string()),
        None => {
            p.push(format!("{path} must be a string"));
            None
        }
    }
}

fn as_u64(v: &JsonValue, path: &str, p: &mut Problems) -> Option<u64> {
    match v.as_f64() {
        Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => Some(n as u64),
        _ => {
            p.push(format!("{path} must be a non-negative integer"));
            None
        }
    }
}

fn as_f64(v: &JsonValue, path: &str, p: &mut Problems) -> Option<f64> {
    match v.as_f64() {
        Some(n) => Some(n),
        None => {
            p.push(format!("{path} must be a number"));
            None
        }
    }
}

fn as_bool(v: &JsonValue, path: &str, p: &mut Problems) -> Option<bool> {
    match v {
        JsonValue::Bool(b) => Some(*b),
        _ => {
            p.push(format!("{path} must be a boolean"));
            None
        }
    }
}

fn as_obj<'a>(v: &'a JsonValue, path: &str, p: &mut Problems) -> Option<&'a [(String, JsonValue)]> {
    match v.as_object() {
        Some(o) => Some(o),
        None => {
            p.push(format!("{path} must be an object"));
            None
        }
    }
}

fn as_arr<'a>(v: &'a JsonValue, path: &str, p: &mut Problems) -> Option<&'a [JsonValue]> {
    match v.as_array() {
        Some(a) => Some(a),
        None => {
            p.push(format!("{path} must be an array"));
            None
        }
    }
}

fn as_mac(v: &JsonValue, path: &str, p: &mut Problems) -> Option<MacAddr> {
    let s = as_str(v, path, p)?;
    match s.parse::<MacAddr>() {
        Ok(mac) => Some(mac),
        Err(_) => {
            p.push(format!("{path} is not a valid MAC address: `{s}`"));
            None
        }
    }
}

fn as_pair(v: &JsonValue, path: &str, p: &mut Problems) -> Option<(f64, f64)> {
    let arr = as_arr(v, path, p)?;
    if arr.len() != 2 {
        p.push(format!("{path} must be a two-element [x, y] array"));
        return None;
    }
    Some((
        as_f64(&arr[0], &format!("{path}[0]"), p)?,
        as_f64(&arr[1], &format!("{path}[1]"), p)?,
    ))
}

fn as_name_pair(v: &JsonValue, path: &str, p: &mut Problems) -> Option<(String, String)> {
    let arr = as_arr(v, path, p)?;
    if arr.len() != 2 {
        p.push(format!("{path} must be a two-element [from, to] array"));
        return None;
    }
    Some((
        as_str(&arr[0], &format!("{path}[0]"), p)?,
        as_str(&arr[1], &format!("{path}[1]"), p)?,
    ))
}

fn as_bitrate_label(v: &JsonValue, path: &str, p: &mut Problems) -> Option<String> {
    let s = as_str(v, path, p)?;
    if bitrate_from_label(&s).is_none() {
        p.push(format!("{path} is not a known bit rate: `{s}`"));
        return None;
    }
    Some(s)
}

fn parse_run(v: &JsonValue, p: &mut Problems) -> RunSpec {
    let mut run = RunSpec::default();
    let Some(obj) = as_obj(v, "`run`", p) else {
        return run;
    };
    check_keys(
        obj,
        &["seed", "trials", "workers", "quick", "faults"],
        "`run`",
        p,
    );
    if let Some(v) = opt(obj, "seed") {
        if let Some(n) = as_u64(v, "`run.seed`", p) {
            run.seed = n;
        }
    }
    if let Some(v) = opt(obj, "trials") {
        match as_u64(v, "`run.trials`", p) {
            Some(n) if n >= 1 => run.trials = n as usize,
            Some(_) => p.push("`run.trials` must be at least 1".to_string()),
            None => {}
        }
    }
    if let Some(v) = opt(obj, "workers") {
        match as_u64(v, "`run.workers`", p) {
            Some(n) if n >= 1 => run.workers = n as usize,
            Some(_) => p.push("`run.workers` must be at least 1".to_string()),
            None => {}
        }
    }
    if let Some(v) = opt(obj, "quick") {
        if let Some(b) = as_bool(v, "`run.quick`", p) {
            run.quick = b;
        }
    }
    if let Some(v) = opt(obj, "faults") {
        if let Some(s) = as_str(v, "`run.faults`", p) {
            match s.parse::<FaultProfile>() {
                Ok(f) => run.faults = f,
                Err(_) => p.push(format!("`run.faults` is not a known profile: `{s}`")),
            }
        }
    }
    run
}

fn parse_node(v: &JsonValue, path: &str, p: &mut Problems) -> Option<NodeSpec> {
    let obj = as_obj(v, path, p)?;
    check_keys(
        obj,
        &[
            "name",
            "mac",
            "kind",
            "position",
            "behavior",
            "band",
            "channel",
            "ssid",
            "beacon_interval_us",
            "retries",
            "velocity",
        ],
        path,
        p,
    );
    let name = req(obj, "name", path, p).and_then(|v| as_str(v, &format!("{path}.name"), p));
    let mac = req(obj, "mac", path, p).and_then(|v| as_mac(v, &format!("{path}.mac"), p));
    let kind = req(obj, "kind", path, p)
        .and_then(|v| as_str(v, &format!("{path}.kind"), p))
        .and_then(|s| match NodeKind::from_label(&s) {
            Some(k) => Some(k),
            None => {
                p.push(format!(
                    "{path}.kind must be `client`, `ap` or `monitor`, got `{s}`"
                ));
                None
            }
        });
    let position =
        req(obj, "position", path, p).and_then(|v| as_pair(v, &format!("{path}.position"), p));
    let behavior = opt(obj, "behavior")
        .and_then(|v| as_str(v, &format!("{path}.behavior"), p))
        .and_then(|s| {
            if behavior_from_label(&s).is_none() {
                p.push(format!("{path}.behavior is not a known profile: `{s}`"));
                None
            } else {
                Some(s)
            }
        });
    let band = opt(obj, "band")
        .and_then(|v| as_str(v, &format!("{path}.band"), p))
        .and_then(|s| {
            if band_from_label(&s).is_none() {
                p.push(format!("{path}.band must be `2.4` or `5`, got `{s}`"));
                None
            } else {
                Some(s)
            }
        });
    let channel = opt(obj, "channel")
        .and_then(|v| as_u64(v, &format!("{path}.channel"), p))
        .map(|n| n as u8);
    let ssid = opt(obj, "ssid").and_then(|v| as_str(v, &format!("{path}.ssid"), p));
    let beacon_interval_us = opt(obj, "beacon_interval_us")
        .and_then(|v| as_u64(v, &format!("{path}.beacon_interval_us"), p));
    let retries = opt(obj, "retries").and_then(|v| as_bool(v, &format!("{path}.retries"), p));
    let velocity = opt(obj, "velocity").and_then(|v| as_pair(v, &format!("{path}.velocity"), p));
    let kind = kind?;
    if kind == NodeKind::Ap && ssid.is_none() {
        p.push(format!("{path} is an `ap` and must declare an `ssid`"));
    }
    Some(NodeSpec {
        name: name?,
        mac: mac?,
        kind,
        position: position?,
        behavior,
        band,
        channel,
        ssid,
        beacon_interval_us,
        retries,
        velocity,
    })
}

fn parse_topology(v: &JsonValue, p: &mut Problems) -> Option<TopologySpec> {
    let obj = as_obj(v, "`topology`", p)?;
    check_keys(
        obj,
        &[
            "duration_us",
            "propagation",
            "nodes",
            "links",
            "associations",
        ],
        "`topology`",
        p,
    );
    let duration_us = req(obj, "duration_us", "`topology`", p)
        .and_then(|v| as_u64(v, "`topology.duration_us`", p));
    let propagation = opt(obj, "propagation")
        .and_then(|v| as_str(v, "`topology.propagation`", p))
        .and_then(|s| {
            if propagation_from_label(&s).is_none() {
                p.push(format!(
                    "`topology.propagation` must be `all_pairs` or `cell_grid`, got `{s}`"
                ));
                None
            } else {
                Some(s)
            }
        });
    let mut nodes = Vec::new();
    if let Some(arr) =
        req(obj, "nodes", "`topology`", p).and_then(|v| as_arr(v, "`topology.nodes`", p))
    {
        for (i, nv) in arr.iter().enumerate() {
            if let Some(n) = parse_node(nv, &format!("`topology.nodes[{i}]`"), p) {
                nodes.push(n);
            }
        }
    }
    let mut seen = std::collections::HashSet::new();
    for n in &nodes {
        if !seen.insert(n.name.clone()) {
            p.push(format!(
                "duplicate node name `{}` in `topology.nodes`",
                n.name
            ));
        }
    }
    let mut links = Vec::new();
    if let Some(arr) = opt(obj, "links").and_then(|v| as_arr(v, "`topology.links`", p)) {
        for (i, lv) in arr.iter().enumerate() {
            if let Some(pair) = as_name_pair(lv, &format!("`topology.links[{i}]`"), p) {
                links.push(pair);
            }
        }
    }
    let mut associations = Vec::new();
    if let Some(arr) =
        opt(obj, "associations").and_then(|v| as_arr(v, "`topology.associations`", p))
    {
        for (i, av) in arr.iter().enumerate() {
            if let Some(pair) = as_name_pair(av, &format!("`topology.associations[{i}]`"), p) {
                associations.push(pair);
            }
        }
    }
    for (section, pairs) in [("links", &links), ("associations", &associations)] {
        for (a, b) in pairs {
            for name in [a, b] {
                if !seen.contains(name) {
                    p.push(format!(
                        "`topology.{section}` references unknown node `{name}`"
                    ));
                }
            }
        }
    }
    Some(TopologySpec {
        duration_us: duration_us?,
        propagation,
        nodes,
        links,
        associations,
    })
}

fn parse_attack(v: &JsonValue, path: &str, p: &mut Problems) -> Option<AttackSpec> {
    let obj = as_obj(v, path, p)?;
    let kind = req(obj, "kind", path, p).and_then(|v| as_str(v, &format!("{path}.kind"), p))?;
    let gs = |key: &str, p: &mut Problems| {
        req(obj, key, path, p).and_then(|v| as_str(v, &format!("{path}.{key}"), p))
    };
    let gu = |key: &str, p: &mut Problems| {
        req(obj, key, path, p).and_then(|v| as_u64(v, &format!("{path}.{key}"), p))
    };
    let gbr = |p: &mut Problems| {
        req(obj, "bitrate", path, p)
            .and_then(|v| as_bitrate_label(v, &format!("{path}.bitrate"), p))
    };
    match kind.as_str() {
        "null-flood" => {
            check_keys(
                obj,
                &[
                    "kind",
                    "attacker",
                    "victim",
                    "rate_pps",
                    "start_us",
                    "duration_us",
                    "bitrate",
                ],
                path,
                p,
            );
            Some(AttackSpec::NullFlood {
                attacker: gs("attacker", p)?,
                victim: gs("victim", p)?,
                rate_pps: gu("rate_pps", p)? as u32,
                start_us: gu("start_us", p)?,
                duration_us: gu("duration_us", p)?,
                bitrate: gbr(p)?,
            })
        }
        "rts-flood" => {
            check_keys(
                obj,
                &[
                    "kind",
                    "attacker",
                    "target",
                    "nav_us",
                    "rate_pps",
                    "start_us",
                    "duration_us",
                    "bitrate",
                ],
                path,
                p,
            );
            Some(AttackSpec::RtsFlood {
                attacker: gs("attacker", p)?,
                target: gs("target", p)?,
                nav_us: gu("nav_us", p)? as u16,
                rate_pps: gu("rate_pps", p)? as u32,
                start_us: gu("start_us", p)?,
                duration_us: gu("duration_us", p)?,
                bitrate: gbr(p)?,
            })
        }
        "deauth-flood" => {
            check_keys(
                obj,
                &[
                    "kind",
                    "attacker",
                    "victim",
                    "forged_ap",
                    "rate_pps",
                    "start_us",
                    "duration_us",
                    "bitrate",
                ],
                path,
                p,
            );
            Some(AttackSpec::DeauthFlood {
                attacker: gs("attacker", p)?,
                victim: gs("victim", p)?,
                forged_ap: gs("forged_ap", p)?,
                rate_pps: gu("rate_pps", p)? as u32,
                start_us: gu("start_us", p)?,
                duration_us: gu("duration_us", p)?,
                bitrate: gbr(p)?,
            })
        }
        "blockack-paralysis" => {
            check_keys(
                obj,
                &[
                    "kind",
                    "attacker",
                    "victim",
                    "spoofed_peer",
                    "jump_to_seq",
                    "at_us",
                    "bitrate",
                ],
                path,
                p,
            );
            let jump = gu("jump_to_seq", p)?;
            if jump > 0x0fff {
                p.push(format!("{path}.jump_to_seq must fit 12 bits (0..=4095)"));
                return None;
            }
            Some(AttackSpec::BlockAckParalysis {
                attacker: gs("attacker", p)?,
                victim: gs("victim", p)?,
                spoofed_peer: gs("spoofed_peer", p)?,
                jump_to_seq: jump as u16,
                at_us: gu("at_us", p)?,
                bitrate: gbr(p)?,
            })
        }
        "qos-traffic" => {
            check_keys(
                obj,
                &[
                    "kind",
                    "from",
                    "to",
                    "rate_pps",
                    "start_us",
                    "duration_us",
                    "payload_len",
                    "bitrate",
                ],
                path,
                p,
            );
            Some(AttackSpec::QosTraffic {
                from: gs("from", p)?,
                to: gs("to", p)?,
                rate_pps: gu("rate_pps", p)? as u32,
                start_us: gu("start_us", p)?,
                duration_us: gu("duration_us", p)?,
                payload_len: gu("payload_len", p)?,
                bitrate: gbr(p)?,
            })
        }
        other => {
            p.push(format!("{path}.kind is not a known attack: `{other}`"));
            None
        }
    }
}

fn parse_probe(v: &JsonValue, path: &str, p: &mut Problems) -> Option<ProbeSpec> {
    let obj = as_obj(v, path, p)?;
    let kind = req(obj, "kind", path, p).and_then(|v| as_str(v, &format!("{path}.kind"), p))?;
    let gs = |key: &str, p: &mut Problems| {
        req(obj, key, path, p).and_then(|v| as_str(v, &format!("{path}.{key}"), p))
    };
    match kind.as_str() {
        "ack-verifier" => {
            check_keys(obj, &["kind", "attacker"], path, p);
            Some(ProbeSpec::AckVerifier {
                attacker: gs("attacker", p)?,
            })
        }
        "station-stat" => {
            check_keys(obj, &["kind", "node", "stat", "metric"], path, p);
            let stat = gs("stat", p)?;
            if polite_wifi_core::StatKind::from_label(&stat).is_none() {
                p.push(format!("{path}.stat is not a known counter: `{stat}`"));
                return None;
            }
            Some(ProbeSpec::StationStat {
                node: gs("node", p)?,
                stat,
                metric: gs("metric", p)?,
            })
        }
        "association" => {
            check_keys(obj, &["kind", "node", "peer", "metric"], path, p);
            Some(ProbeSpec::Association {
                node: gs("node", p)?,
                peer: gs("peer", p)?,
                metric: gs("metric", p)?,
            })
        }
        other => {
            p.push(format!("{path}.kind is not a known probe: `{other}`"));
            None
        }
    }
}

fn parse_assertion(v: &JsonValue, path: &str, p: &mut Problems) -> Option<AssertionSpec> {
    let obj = as_obj(v, path, p)?;
    check_keys(obj, &["metric", "op", "value", "when"], path, p);
    let metric = req(obj, "metric", path, p).and_then(|v| as_str(v, &format!("{path}.metric"), p));
    let op = req(obj, "op", path, p)
        .and_then(|v| as_str(v, &format!("{path}.op"), p))
        .and_then(|s| {
            if polite_wifi_core::CmpOp::from_symbol(&s).is_none() {
                p.push(format!("{path}.op is not a comparison operator: `{s}`"));
                None
            } else {
                Some(s)
            }
        });
    let value = req(obj, "value", path, p).and_then(|v| as_f64(v, &format!("{path}.value"), p));
    let clean_only = match opt(obj, "when") {
        None => false,
        Some(v) => match as_str(v, &format!("{path}.when"), p)?.as_str() {
            "clean" => true,
            "always" => false,
            other => {
                p.push(format!(
                    "{path}.when must be `clean` or `always`, got `{other}`"
                ));
                false
            }
        },
    };
    Some(AssertionSpec {
        metric: metric?,
        op: op?,
        value: value?,
        clean_only,
    })
}

impl ScenarioSpec {
    /// Parses and validates a scenario from JSON text, aggregating every
    /// problem into one error.
    pub fn parse(input: &str) -> Result<ScenarioSpec, String> {
        let root = parse_json(input).map_err(|e| {
            format!("invalid scenario spec: not valid JSON ({e}) (see DESIGN.md \u{a7}13 for the grammar)")
        })?;
        let mut p = Problems(Vec::new());
        let obj = match root.as_object() {
            Some(o) => o,
            None => {
                return Err(
                    "invalid scenario spec: top level must be an object (see DESIGN.md \u{a7}13 for the grammar)"
                        .to_string(),
                )
            }
        };
        check_keys(
            obj,
            &[
                "name",
                "paper_ref",
                "slug",
                "runner",
                "run",
                "topology",
                "attacks",
                "probes",
                "assertions",
                "params",
            ],
            "the spec",
            &mut p,
        );
        let name = req(obj, "name", "the spec", &mut p).and_then(|v| as_str(v, "`name`", &mut p));
        let paper_ref = req(obj, "paper_ref", "the spec", &mut p)
            .and_then(|v| as_str(v, "`paper_ref`", &mut p));
        let slug = req(obj, "slug", "the spec", &mut p).and_then(|v| as_str(v, "`slug`", &mut p));
        let runner =
            req(obj, "runner", "the spec", &mut p).and_then(|v| as_str(v, "`runner`", &mut p));
        if let Some(s) = &slug {
            if s.is_empty()
                || !s
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            {
                p.push(format!(
                    "`slug` must be non-empty snake_case ([a-z0-9_]), got `{s}`"
                ));
            }
        }
        let run = match opt(obj, "run") {
            Some(v) => parse_run(v, &mut p),
            None => RunSpec::default(),
        };
        let topology = opt(obj, "topology").and_then(|v| parse_topology(v, &mut p));
        let mut attacks = Vec::new();
        if let Some(arr) = opt(obj, "attacks").and_then(|v| as_arr(v, "`attacks`", &mut p)) {
            for (i, av) in arr.iter().enumerate() {
                if let Some(a) = parse_attack(av, &format!("`attacks[{i}]`"), &mut p) {
                    attacks.push(a);
                }
            }
        }
        let mut probes = Vec::new();
        if let Some(arr) = opt(obj, "probes").and_then(|v| as_arr(v, "`probes`", &mut p)) {
            for (i, pv) in arr.iter().enumerate() {
                if let Some(pr) = parse_probe(pv, &format!("`probes[{i}]`"), &mut p) {
                    probes.push(pr);
                }
            }
        }
        let mut assertions = Vec::new();
        if let Some(arr) = opt(obj, "assertions").and_then(|v| as_arr(v, "`assertions`", &mut p)) {
            for (i, av) in arr.iter().enumerate() {
                if let Some(a) = parse_assertion(av, &format!("`assertions[{i}]`"), &mut p) {
                    assertions.push(a);
                }
            }
        }
        let mut params = Vec::new();
        if let Some(pobj) = opt(obj, "params").and_then(|v| as_obj(v, "`params`", &mut p)) {
            for (key, v) in pobj {
                match v {
                    JsonValue::Num(n) => params.push((key.clone(), ParamValue::Num(*n))),
                    JsonValue::Str(s) => params.push((key.clone(), ParamValue::Str(s.clone()))),
                    JsonValue::Bool(b) => params.push((key.clone(), ParamValue::Bool(*b))),
                    _ => p.push(format!(
                        "`params.{key}` must be a number, string or boolean"
                    )),
                }
            }
        }
        // Cross-references: every node an attack/probe names must exist.
        let node_names: std::collections::HashSet<&str> = topology
            .iter()
            .flat_map(|t| t.nodes.iter().map(|n| n.name.as_str()))
            .collect();
        let mut referenced: Vec<(String, String)> = Vec::new();
        for (i, a) in attacks.iter().enumerate() {
            let refs: Vec<&String> = match a {
                AttackSpec::NullFlood {
                    attacker, victim, ..
                } => vec![attacker, victim],
                AttackSpec::RtsFlood {
                    attacker, target, ..
                } => vec![attacker, target],
                AttackSpec::DeauthFlood {
                    attacker,
                    victim,
                    forged_ap,
                    ..
                } => {
                    vec![attacker, victim, forged_ap]
                }
                AttackSpec::BlockAckParalysis {
                    attacker,
                    victim,
                    spoofed_peer,
                    ..
                } => {
                    vec![attacker, victim, spoofed_peer]
                }
                AttackSpec::QosTraffic { from, to, .. } => vec![from, to],
            };
            for r in refs {
                referenced.push((format!("`attacks[{i}]`"), r.clone()));
            }
        }
        for (i, pr) in probes.iter().enumerate() {
            let refs: Vec<&String> = match pr {
                ProbeSpec::AckVerifier { attacker } => vec![attacker],
                ProbeSpec::StationStat { node, .. } => vec![node],
                ProbeSpec::Association { node, peer, .. } => vec![node, peer],
            };
            for r in refs {
                referenced.push((format!("`probes[{i}]`"), r.clone()));
            }
        }
        for (site, name) in &referenced {
            if !node_names.contains(name.as_str()) {
                p.push(format!("{site} references unknown node `{name}`"));
            }
        }
        if runner.as_deref() == Some("generic") {
            if topology.is_none() {
                p.push("`runner: generic` requires a `topology` section".to_string());
            }
            if probes.is_empty() {
                p.push("`runner: generic` requires at least one probe".to_string());
            }
        }
        p.into_error()?;
        Ok(ScenarioSpec {
            name: name.unwrap(),
            paper_ref: paper_ref.unwrap(),
            slug: slug.unwrap(),
            runner: runner.unwrap(),
            run,
            topology,
            attacks,
            probes,
            assertions,
            params,
        })
    }

    /// Reads a numeric param.
    pub fn param_num(&self, key: &str) -> Option<f64> {
        self.params.iter().find_map(|(k, v)| match v {
            ParamValue::Num(n) if k == key => Some(*n),
            _ => None,
        })
    }

    /// Builds the [`RunArgs`] defaults this spec pins.
    pub fn run_args(&self) -> RunArgs {
        self.run.to_run_args()
    }
}

// ===== Canonical form =====

/// Emits canonical JSON: fixed field order, two-space indent, integral
/// numbers without a decimal point. Committed `scenarios/*.json` files
/// are kept in this form so parse → write round-trips byte-exact.
struct Canon {
    out: String,
    indent: usize,
}

impl Canon {
    fn new() -> Canon {
        Canon {
            out: String::new(),
            indent: 0,
        }
    }

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn num(n: f64) -> String {
        if n.fract() == 0.0 && n.abs() < 9e15 {
            format!("{}", n as i64)
        } else {
            format!("{n}")
        }
    }

    fn str(s: &str) -> String {
        json::to_string(s)
    }
}

fn comma(last: bool) -> &'static str {
    if last {
        ""
    } else {
        ","
    }
}

impl ScenarioSpec {
    /// Re-emits the spec in canonical form (fixed field order,
    /// two-space indent, minimal number formatting).
    pub fn to_canonical_json(&self) -> String {
        let mut c = Canon::new();
        c.line("{");
        c.indent += 1;
        c.line(&format!("\"name\": {},", Canon::str(&self.name)));
        c.line(&format!("\"paper_ref\": {},", Canon::str(&self.paper_ref)));
        c.line(&format!("\"slug\": {},", Canon::str(&self.slug)));
        c.line(&format!("\"runner\": {},", Canon::str(&self.runner)));
        let mut sections: Vec<String> = Vec::new();
        {
            let mut c2 = Canon::new();
            c2.indent = c.indent;
            c2.line("\"run\": {");
            c2.indent += 1;
            c2.line(&format!("\"seed\": {},", self.run.seed));
            c2.line(&format!("\"trials\": {},", self.run.trials));
            c2.line(&format!("\"workers\": {},", self.run.workers));
            c2.line(&format!("\"quick\": {},", self.run.quick));
            c2.line(&format!(
                "\"faults\": {}",
                Canon::str(self.run.faults.name())
            ));
            c2.indent -= 1;
            c2.line("}");
            sections.push(c2.out);
        }
        if let Some(t) = &self.topology {
            let mut c2 = Canon::new();
            c2.indent = c.indent;
            c2.line("\"topology\": {");
            c2.indent += 1;
            c2.line(&format!("\"duration_us\": {},", t.duration_us));
            if let Some(prop) = &t.propagation {
                c2.line(&format!("\"propagation\": {},", Canon::str(prop)));
            }
            let links_follow = !t.links.is_empty() || !t.associations.is_empty();
            c2.line("\"nodes\": [");
            c2.indent += 1;
            for (i, n) in t.nodes.iter().enumerate() {
                c2.line("{");
                c2.indent += 1;
                let mut fields: Vec<String> = vec![
                    format!("\"name\": {}", Canon::str(&n.name)),
                    format!("\"mac\": {}", Canon::str(&n.mac.to_string())),
                    format!("\"kind\": {}", Canon::str(n.kind.label())),
                    format!(
                        "\"position\": [{}, {}]",
                        Canon::num(n.position.0),
                        Canon::num(n.position.1)
                    ),
                ];
                if let Some(b) = &n.behavior {
                    fields.push(format!("\"behavior\": {}", Canon::str(b)));
                }
                if let Some(b) = &n.band {
                    fields.push(format!("\"band\": {}", Canon::str(b)));
                }
                if let Some(ch) = n.channel {
                    fields.push(format!("\"channel\": {ch}"));
                }
                if let Some(s) = &n.ssid {
                    fields.push(format!("\"ssid\": {}", Canon::str(s)));
                }
                if let Some(bi) = n.beacon_interval_us {
                    fields.push(format!("\"beacon_interval_us\": {bi}"));
                }
                if let Some(r) = n.retries {
                    fields.push(format!("\"retries\": {r}"));
                }
                if let Some(v) = n.velocity {
                    fields.push(format!(
                        "\"velocity\": [{}, {}]",
                        Canon::num(v.0),
                        Canon::num(v.1)
                    ));
                }
                let n_fields = fields.len();
                for (j, f) in fields.into_iter().enumerate() {
                    c2.line(&format!("{f}{}", comma(j + 1 == n_fields)));
                }
                c2.indent -= 1;
                c2.line(&format!("}}{}", comma(i + 1 == t.nodes.len())));
            }
            c2.indent -= 1;
            c2.line(&format!("]{}", comma(!links_follow)));
            if !t.links.is_empty() {
                c2.line("\"links\": [");
                c2.indent += 1;
                for (i, (a, b)) in t.links.iter().enumerate() {
                    c2.line(&format!(
                        "[{}, {}]{}",
                        Canon::str(a),
                        Canon::str(b),
                        comma(i + 1 == t.links.len())
                    ));
                }
                c2.indent -= 1;
                c2.line(&format!("]{}", comma(t.associations.is_empty())));
            }
            if !t.associations.is_empty() {
                c2.line("\"associations\": [");
                c2.indent += 1;
                for (i, (a, b)) in t.associations.iter().enumerate() {
                    c2.line(&format!(
                        "[{}, {}]{}",
                        Canon::str(a),
                        Canon::str(b),
                        comma(i + 1 == t.associations.len())
                    ));
                }
                c2.indent -= 1;
                c2.line("]");
            }
            c2.indent -= 1;
            c2.line("}");
            sections.push(c2.out);
        }
        if !self.attacks.is_empty() {
            let mut c2 = Canon::new();
            c2.indent = c.indent;
            c2.line("\"attacks\": [");
            c2.indent += 1;
            for (i, a) in self.attacks.iter().enumerate() {
                let fields: Vec<String> = match a {
                    AttackSpec::NullFlood {
                        attacker,
                        victim,
                        rate_pps,
                        start_us,
                        duration_us,
                        bitrate,
                    } => vec![
                        format!("\"kind\": {}", Canon::str("null-flood")),
                        format!("\"attacker\": {}", Canon::str(attacker)),
                        format!("\"victim\": {}", Canon::str(victim)),
                        format!("\"rate_pps\": {rate_pps}"),
                        format!("\"start_us\": {start_us}"),
                        format!("\"duration_us\": {duration_us}"),
                        format!("\"bitrate\": {}", Canon::str(bitrate)),
                    ],
                    AttackSpec::RtsFlood {
                        attacker,
                        target,
                        nav_us,
                        rate_pps,
                        start_us,
                        duration_us,
                        bitrate,
                    } => vec![
                        format!("\"kind\": {}", Canon::str("rts-flood")),
                        format!("\"attacker\": {}", Canon::str(attacker)),
                        format!("\"target\": {}", Canon::str(target)),
                        format!("\"nav_us\": {nav_us}"),
                        format!("\"rate_pps\": {rate_pps}"),
                        format!("\"start_us\": {start_us}"),
                        format!("\"duration_us\": {duration_us}"),
                        format!("\"bitrate\": {}", Canon::str(bitrate)),
                    ],
                    AttackSpec::DeauthFlood {
                        attacker,
                        victim,
                        forged_ap,
                        rate_pps,
                        start_us,
                        duration_us,
                        bitrate,
                    } => vec![
                        format!("\"kind\": {}", Canon::str("deauth-flood")),
                        format!("\"attacker\": {}", Canon::str(attacker)),
                        format!("\"victim\": {}", Canon::str(victim)),
                        format!("\"forged_ap\": {}", Canon::str(forged_ap)),
                        format!("\"rate_pps\": {rate_pps}"),
                        format!("\"start_us\": {start_us}"),
                        format!("\"duration_us\": {duration_us}"),
                        format!("\"bitrate\": {}", Canon::str(bitrate)),
                    ],
                    AttackSpec::BlockAckParalysis {
                        attacker,
                        victim,
                        spoofed_peer,
                        jump_to_seq,
                        at_us,
                        bitrate,
                    } => vec![
                        format!("\"kind\": {}", Canon::str("blockack-paralysis")),
                        format!("\"attacker\": {}", Canon::str(attacker)),
                        format!("\"victim\": {}", Canon::str(victim)),
                        format!("\"spoofed_peer\": {}", Canon::str(spoofed_peer)),
                        format!("\"jump_to_seq\": {jump_to_seq}"),
                        format!("\"at_us\": {at_us}"),
                        format!("\"bitrate\": {}", Canon::str(bitrate)),
                    ],
                    AttackSpec::QosTraffic {
                        from,
                        to,
                        rate_pps,
                        start_us,
                        duration_us,
                        payload_len,
                        bitrate,
                    } => vec![
                        format!("\"kind\": {}", Canon::str("qos-traffic")),
                        format!("\"from\": {}", Canon::str(from)),
                        format!("\"to\": {}", Canon::str(to)),
                        format!("\"rate_pps\": {rate_pps}"),
                        format!("\"start_us\": {start_us}"),
                        format!("\"duration_us\": {duration_us}"),
                        format!("\"payload_len\": {payload_len}"),
                        format!("\"bitrate\": {}", Canon::str(bitrate)),
                    ],
                };
                c2.line("{");
                c2.indent += 1;
                let n_fields = fields.len();
                for (j, f) in fields.into_iter().enumerate() {
                    c2.line(&format!("{f}{}", comma(j + 1 == n_fields)));
                }
                c2.indent -= 1;
                c2.line(&format!("}}{}", comma(i + 1 == self.attacks.len())));
            }
            c2.indent -= 1;
            c2.line("]");
            sections.push(c2.out);
        }
        if !self.probes.is_empty() {
            let mut c2 = Canon::new();
            c2.indent = c.indent;
            c2.line("\"probes\": [");
            c2.indent += 1;
            for (i, pr) in self.probes.iter().enumerate() {
                let fields: Vec<String> = match pr {
                    ProbeSpec::AckVerifier { attacker } => vec![
                        format!("\"kind\": {}", Canon::str("ack-verifier")),
                        format!("\"attacker\": {}", Canon::str(attacker)),
                    ],
                    ProbeSpec::StationStat { node, stat, metric } => vec![
                        format!("\"kind\": {}", Canon::str("station-stat")),
                        format!("\"node\": {}", Canon::str(node)),
                        format!("\"stat\": {}", Canon::str(stat)),
                        format!("\"metric\": {}", Canon::str(metric)),
                    ],
                    ProbeSpec::Association { node, peer, metric } => vec![
                        format!("\"kind\": {}", Canon::str("association")),
                        format!("\"node\": {}", Canon::str(node)),
                        format!("\"peer\": {}", Canon::str(peer)),
                        format!("\"metric\": {}", Canon::str(metric)),
                    ],
                };
                c2.line("{");
                c2.indent += 1;
                let n_fields = fields.len();
                for (j, f) in fields.into_iter().enumerate() {
                    c2.line(&format!("{f}{}", comma(j + 1 == n_fields)));
                }
                c2.indent -= 1;
                c2.line(&format!("}}{}", comma(i + 1 == self.probes.len())));
            }
            c2.indent -= 1;
            c2.line("]");
            sections.push(c2.out);
        }
        if !self.assertions.is_empty() {
            let mut c2 = Canon::new();
            c2.indent = c.indent;
            c2.line("\"assertions\": [");
            c2.indent += 1;
            for (i, a) in self.assertions.iter().enumerate() {
                let mut fields: Vec<String> = vec![
                    format!("\"metric\": {}", Canon::str(&a.metric)),
                    format!("\"op\": {}", Canon::str(&a.op)),
                    format!("\"value\": {}", Canon::num(a.value)),
                ];
                if a.clean_only {
                    fields.push(format!("\"when\": {}", Canon::str("clean")));
                }
                c2.line("{");
                c2.indent += 1;
                let n_fields = fields.len();
                for (j, f) in fields.into_iter().enumerate() {
                    c2.line(&format!("{f}{}", comma(j + 1 == n_fields)));
                }
                c2.indent -= 1;
                c2.line(&format!("}}{}", comma(i + 1 == self.assertions.len())));
            }
            c2.indent -= 1;
            c2.line("]");
            sections.push(c2.out);
        }
        if !self.params.is_empty() {
            let mut c2 = Canon::new();
            c2.indent = c.indent;
            c2.line("\"params\": {");
            c2.indent += 1;
            for (i, (k, v)) in self.params.iter().enumerate() {
                let value = match v {
                    ParamValue::Num(n) => Canon::num(*n),
                    ParamValue::Str(s) => Canon::str(s),
                    ParamValue::Bool(b) => format!("{b}"),
                };
                c2.line(&format!(
                    "{}: {value}{}",
                    Canon::str(k),
                    comma(i + 1 == self.params.len())
                ));
            }
            c2.indent -= 1;
            c2.line("}");
            sections.push(c2.out);
        }
        let n_sections = sections.len();
        for (i, mut s) in sections.into_iter().enumerate() {
            if i + 1 != n_sections {
                // Splice the separating comma onto the section's closing
                // brace/bracket line.
                let trimmed = s.trim_end().len();
                s.replace_range(trimmed.., ",\n");
            }
            c.out.push_str(&s);
        }
        c.indent -= 1;
        c.line("}");
        c.out
    }
}

impl TopologySpec {
    /// Routes the topology through [`ScenarioBuilder`]: nodes in
    /// declaration order (so [`NodeId`]s are stable), then links, then
    /// one-directional associations.
    pub fn builder(&self, faults: FaultProfile) -> (ScenarioBuilder, BTreeMap<String, NodeId>) {
        use polite_wifi_mac::StationConfig;
        let mut config = polite_wifi_sim::SimConfig::default();
        if let Some(mode) = self.propagation.as_deref().and_then(propagation_from_label) {
            config.propagation = mode;
        }
        let mut sb = ScenarioBuilder::new()
            .config(config)
            .duration_us(self.duration_us)
            .faults(faults);
        let mut ids: BTreeMap<String, NodeId> = BTreeMap::new();
        let mut macs: BTreeMap<String, MacAddr> = BTreeMap::new();
        for n in &self.nodes {
            let mut cfg = match n.kind {
                NodeKind::Ap => StationConfig::access_point(n.mac, n.ssid.as_deref().unwrap_or("")),
                NodeKind::Client | NodeKind::Monitor => StationConfig::client(n.mac),
            };
            if let Some(b) = n.behavior.as_deref().and_then(behavior_from_label) {
                cfg.behavior = b;
            }
            if let Some(b) = n.band.as_deref().and_then(band_from_label) {
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
            macs.insert(n.name.clone(), n.mac);
        }
        for (a, b) in &self.links {
            sb.link(ids[a], ids[b]);
        }
        for (node, peer) in &self.associations {
            sb.associate(ids[node], macs[peer]);
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
    fn propagation_key_parses_threads_and_round_trips() {
        let with_prop = MINIMAL.replace(
            "\"duration_us\": 1000,",
            "\"duration_us\": 1000,\n    \"propagation\": \"cell_grid\",",
        );
        let spec = ScenarioSpec::parse(&with_prop).expect("parses");
        let topo = spec.topology.as_ref().unwrap();
        assert_eq!(topo.propagation.as_deref(), Some("cell_grid"));
        // Canonical writer keeps the key (right after duration_us).
        assert_eq!(spec.to_canonical_json(), with_prop);
        // And the builder threads it into SimConfig.
        let (sb, _) = topo.builder(FaultProfile::Clean);
        assert_eq!(
            sb.build_with_seed(5).sim.config().propagation,
            polite_wifi_sim::PropagationMode::CellGrid
        );
        // Absent key leaves the default (AllPairs) untouched.
        let plain = ScenarioSpec::parse(MINIMAL).unwrap();
        let (sb, _) = plain
            .topology
            .as_ref()
            .unwrap()
            .builder(FaultProfile::Clean);
        assert_eq!(
            sb.build_with_seed(5).sim.config().propagation,
            polite_wifi_sim::PropagationMode::AllPairs
        );
    }

    #[test]
    fn unknown_propagation_mode_is_rejected_in_the_aggregated_error() {
        let bad = MINIMAL.replace(
            "\"duration_us\": 1000,",
            "\"duration_us\": 1000,\n    \"propagation\": \"psychic\",",
        );
        let err = ScenarioSpec::parse(&bad).unwrap_err();
        assert!(
            err.contains(
                "`topology.propagation` must be `all_pairs` or `cell_grid`, got `psychic`"
            ),
            "{err}"
        );
        assert_eq!(err.lines().count(), 1);
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
}
