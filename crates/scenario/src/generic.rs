//! The fully interpreted scenario executor (`"runner": "generic"`).
//!
//! Everything comes from the spec: the topology stamps a
//! [`ScenarioBuilder`], each attack entry composes an
//! [`polite_wifi_core::Attack`] from the core trait layer, each probe
//! entry a [`polite_wifi_core::Probe`] (or the capture a `pcap` probe
//! writes) recording metrics, which [`run_spec`](crate::run_spec)
//! checks the assertion block against. A spec that declares `cases`
//! runs case `t mod n` in trial `t`. No experiment-specific code runs at
//! all — the paper's Figure 2, Table 1 and Figure 3, its §2.2 argument
//! and the related-work scenarios land purely as data files this way.

use crate::registry::Output;
use crate::spec::{AttackSpec, Case, ProbeSpec, ScenarioSpec, TopologySpec};
use polite_wifi_core::{
    AckProbe, AssociationProbe, Attack, BlockAckParalysis, DeauthSeqProbe, InjectionKind,
    InjectionPlan, Probe, StationStatProbe,
};
use polite_wifi_harness::{Experiment, MetricSummary, MetricsLedger, RunArgs, ScenarioBuilder};
use polite_wifi_obs::json::{JsonWriter, ToJson};
use polite_wifi_obs::Obs;
use polite_wifi_pcap::LinkType;
use polite_wifi_sim::NodeId;
use std::collections::BTreeMap;
use std::io;

/// One trial's row in the payload of a spec that declares `cases`.
struct CaseRow {
    name: String,
    attack_frames: u64,
    metrics: Vec<MetricSummary>,
}

polite_wifi_obs::impl_to_json! { CaseRow { name, attack_frames, metrics } }

/// The generic runner's payload. `cases` is written only when the spec
/// declares cases.
struct GenericOutcome {
    attack_frames: u64,
    cases: Option<Vec<CaseRow>>,
}

impl ToJson for GenericOutcome {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .key("attack_frames")
            .value(&self.attack_frames);
        if let Some(cases) = &self.cases {
            w.key("cases").value(cases);
        }
        w.end_object();
    }
}

/// Builds the core-layer attack an [`AttackSpec`] describes and names
/// the node that transmits it. Every paced kind, the legitimate
/// `qos-traffic` included, is an [`InjectionPlan`].
fn build_attack<'s>(spec: &'s AttackSpec, topo: &TopologySpec) -> (&'s str, Box<dyn Attack>) {
    // (sender, receiver, transmitter address, frame kind)
    let (from, to, ta, kind) = match spec {
        AttackSpec::NullFlood {
            attacker, victim, ..
        } => (attacker, victim, attacker, InjectionKind::NullData),
        AttackSpec::RtsFlood {
            attacker,
            target,
            nav_us,
            ..
        } => (
            attacker,
            target,
            attacker,
            InjectionKind::Rts { nav_us: *nav_us },
        ),
        AttackSpec::DeauthFlood {
            attacker,
            victim,
            forged_ap,
            ..
        } => (attacker, victim, forged_ap, InjectionKind::Deauth),
        AttackSpec::QosTraffic {
            from,
            to,
            payload_len,
            ..
        } => {
            let payload_len = *payload_len as usize;
            (from, to, from, InjectionKind::QosData { payload_len })
        }
        AttackSpec::BlockAckParalysis {
            attacker,
            victim,
            spoofed_peer,
            jump_to_seq,
            at_us,
            bitrate,
        } => {
            let bar = BlockAckParalysis {
                victim: topo.mac_of(victim),
                spoofed_peer: topo.mac_of(spoofed_peer),
                jump_to_seq: *jump_to_seq,
                at_us: *at_us,
                bitrate: *bitrate,
            };
            return (attacker, Box::new(bar));
        }
    };
    let (rate_pps, start_us, duration_us, bitrate) = spec.pace().expect("every other kind paces");
    let plan = InjectionPlan {
        victim: topo.mac_of(to),
        forged_ta: topo.mac_of(ta),
        kind,
        rate_pps,
        start_us,
        duration_us,
        bitrate,
    };
    (from, Box::new(plan))
}

/// Builds the core-layer probe a [`ProbeSpec`] describes; `None` for a
/// `pcap` probe, which records no metric. `sent` holds each attack's
/// sender and the frames it scheduled in this trial.
fn build_probe(
    spec: &ProbeSpec,
    topo: &TopologySpec,
    ids: &BTreeMap<String, NodeId>,
    sent: &[(NodeId, u64)],
) -> Option<Box<dyn Probe>> {
    Some(match spec {
        ProbeSpec::AckVerifier {
            attacker,
            metric,
            latency_metric,
        } => Box::new(AckProbe {
            node: ids[attacker],
            attacker: topo.mac_of(attacker),
            metric: metric.clone(),
            latency_metric: latency_metric.clone(),
        }),
        ProbeSpec::DeauthSeq { metric } => Box::new(DeauthSeqProbe {
            metric: metric.clone(),
        }),
        ProbeSpec::StationStat {
            node,
            stat,
            metric,
            per_frames_from,
        } => Box::new(StationStatProbe {
            node: ids[node],
            stat: *stat,
            metric: metric.clone(),
            per_frames: (per_frames_from.as_ref()).map(|from| {
                (sent.iter())
                    .filter(|s| s.0 == ids[from])
                    .map(|s| s.1)
                    .sum()
            }),
        }),
        ProbeSpec::Association { node, peer, metric } => Box::new(AssociationProbe {
            node: ids[node],
            peer: topo.mac_of(peer),
            metric: metric.clone(),
        }),
        ProbeSpec::Pcap { .. } => return None,
    })
}

/// One case, built once and stamped out per trial.
struct Plan<'s> {
    name: &'s str,
    topo: &'s TopologySpec,
    builder: ScenarioBuilder,
    ids: BTreeMap<String, NodeId>,
    attacks: Vec<(NodeId, Box<dyn Attack>)>,
    probes: &'s [ProbeSpec],
    /// The node whose capture a `pcap` probe writes.
    pcap: Option<NodeId>,
}

fn plan<'s>(case: Case<'s>, args: &RunArgs) -> Plan<'s> {
    let topo = case
        .topology
        .expect("validated: generic runner requires a topology");
    let (builder, ids) = topo.builder(args.faults);
    // Attacks launch in spec order: that is the order frames reach
    // `Simulator::inject`, and same-time events dispatch in push order.
    let attacks = (case.attacks.iter())
        .map(|a| {
            let (from, attack) = build_attack(a, topo);
            (ids[from], attack)
        })
        .collect();
    let pcap = case.probes.iter().find_map(|p| match p {
        ProbeSpec::Pcap { node } => Some(ids[node]),
        _ => None,
    });
    Plan {
        name: case.name,
        topo,
        builder,
        ids,
        attacks,
        probes: case.probes,
        pcap,
    }
}

/// Runs a fully spec-driven scenario: trials across the worker pool,
/// metrics merged in trial order (and per case), the first `pcap`
/// capture written next to the envelope.
pub fn run(spec: &ScenarioSpec, exp: &mut Experiment) -> io::Result<Output> {
    let args = exp.args();
    let plans: Vec<Plan> = spec
        .resolved_cases()
        .into_iter()
        .map(|case| plan(case, &args))
        .collect();

    let seed_of = |t| (spec.run.case_seed).trial_seed(t, plans.len(), args.seed);
    let results = exp.run_trials_seeded(seed_of, |ctx| {
        let plan = &plans[ctx.index % plans.len()];
        let mut scenario = plan.builder.build_with_seed(ctx.seed);
        let sent: Vec<(NodeId, u64)> = (plan.attacks.iter())
            .map(|(from, attack)| (*from, attack.launch(&mut scenario.sim, *from)))
            .collect();
        let sim = scenario.run();
        let mut ledger = MetricsLedger::new();
        let probes =
            (plan.probes.iter()).filter_map(|p| build_probe(p, plan.topo, &plan.ids, &sent));
        for probe in probes {
            probe.observe(sim, &mut ledger);
        }
        let pcap = plan
            .pcap
            .map(|node| (sim.node(node).capture).to_pcap_bytes(LinkType::Ieee80211Radiotap));
        let row = CaseRow {
            name: plan.name.to_string(),
            attack_frames: sent.iter().map(|(_, frames)| frames).sum(),
            metrics: ledger.summaries(),
        };
        ((row, pcap), ledger, sim.take_obs())
    });

    let names: Vec<&str> = plans.iter().map(|p| p.name).collect();
    let (trials, by_case) = fold(exp, &names, results);
    let (rows, captures): (Vec<CaseRow>, Vec<_>) = trials.into_iter().unzip();
    let attack_frames = rows.iter().map(|row| row.attack_frames).sum();
    if let Some(bytes) = captures.into_iter().flatten().next() {
        let path = crate::support::ensure_results_dir()?.join(format!("{}.pcap", spec.slug));
        std::fs::write(&path, bytes)?;
        println!("\npcap written to {}", path.display());
    }

    println!();
    println!(
        "scenario `{}`: {} scheduled frame(s)",
        spec.slug, attack_frames
    );
    let cases = (!spec.cases.is_empty()).then_some(rows);
    for row in cases.iter().flatten() {
        println!("  case {:<39} frames: {}", row.name, row.attack_frames);
    }
    Ok(Output {
        by_case,
        ..Output::new(GenericOutcome {
            attack_frames,
            cases,
        })
    })
}

/// Folds trial results in trial order (trial `t` ran case `t mod n`):
/// each completed trial's metrics into the experiment's ledger and its
/// case's, its obs into the experiment's. Returns each completed
/// trial's result and each case's merged metrics. Every runner that
/// cycles through `cases` folds here.
pub(crate) fn fold<T>(
    exp: &mut Experiment,
    names: &[&str],
    results: Vec<Option<(T, MetricsLedger, Obs)>>,
) -> (Vec<T>, BTreeMap<String, MetricsLedger>) {
    let mut trials = Vec::new();
    let mut by_case: BTreeMap<String, MetricsLedger> = BTreeMap::new();
    for (trial, result) in results.into_iter().enumerate() {
        let Some((out, ledger, obs)) = result else {
            continue;
        };
        let name = names[trial % names.len()];
        exp.metrics.merge(&ledger);
        by_case.entry(name.to_string()).or_default().merge(&ledger);
        exp.absorb_obs(obs);
        trials.push(out);
    }
    (trials, by_case)
}

#[cfg(test)]
mod tests {
    use crate::{run_spec, CaseSeed, ScenarioSpec};
    use polite_wifi_harness::{set_thread_results_dir, Experiment, RunArgs};
    use polite_wifi_obs::json::{self, JsonValue};

    /// With shared seeds trial `t` of three cases runs under
    /// `seed ^ (t / 3)`, per trial under `seed ^ t`, whichever worker
    /// runs it; a failed trial records the seed it ran under.
    #[test]
    fn trials_run_under_their_case_seed_at_any_worker_count() {
        let shared = [40, 40, 40, 41, 41, 41, 42];
        let per_trial = [40, 41, 42, 43, 44, 45, 46];
        for workers in [1, 2] {
            for (case_seed, expected) in [(CaseSeed::Shared, shared), (CaseSeed::Trial, per_trial)]
            {
                let args = RunArgs {
                    seed: 40,
                    trials: 7,
                    workers,
                    inject_trial_panic: Some(4),
                    ..RunArgs::default()
                };
                let mut exp = Experiment::start_with("T", "none", args);
                let seed_of = |t| case_seed.trial_seed(t, 3, 40);
                let seen = exp.run_trials_seeded(seed_of, |ctx| (ctx.index % 3, ctx.seed));
                let want: Vec<_> = (0..7)
                    .map(|t| (t != 4).then_some((t % 3, expected[t])))
                    .collect();
                assert_eq!(seen, want, "{case_seed:?} at {workers} workers");
                let failed = exp.trial_failures();
                assert_eq!((failed[0].trial, failed[0].seed), (4, expected[4]));
            }
        }
    }

    /// A flood the victim ACKs, recorded as `acks`, next to a counter
    /// that stays 0, recorded as `acks_sent`: one metric name is a
    /// prefix of the other.
    const PREFIXED: &str = r#"{
  "name": "T: prefixed metric names",
  "paper_ref": "none",
  "slug": "prefixed_metrics",
  "runner": "generic",
  "run": {"seed": 4, "trials": 2},
  "topology": {
    "duration_us": 200000,
    "nodes": [
      {"name": "victim", "mac": "f2:6e:0b:11:22:33", "kind": "client", "position": [0, 0]},
      {"name": "attacker", "mac": "aa:bb:bb:bb:bb:bb", "kind": "monitor", "position": [4, 0],
       "retries": false}
    ]
  },
  "attacks": [
    {"kind": "null-flood", "attacker": "attacker", "victim": "victim",
     "rate_pps": 50, "start_us": 1000, "duration_us": 100000, "bitrate": "6"}
  ],
  "probes": [
    {"kind": "station-stat", "node": "victim", "stat": "acks_sent", "metric": "acks"},
    {"kind": "station-stat", "node": "victim", "stat": "cts_sent", "metric": "acks_sent"}
  ],
  "assertions": [
    {"metric": "acks", "op": ">", "value": 0},
    {"metric": "acks_sent", "op": "==", "value": 0}
  ]
}"#;

    #[test]
    fn each_assertion_reports_its_own_metric() {
        let dir = std::env::temp_dir().join("polite-wifi-generic-prefixed-test");
        let _ = std::fs::remove_dir_all(&dir);
        set_thread_results_dir(Some(dir.clone()));
        let spec = ScenarioSpec::parse(PREFIXED).unwrap();
        let status = run_spec(&spec, spec.run_args()).unwrap();
        set_thread_results_dir(None);
        assert_eq!(status, 0);

        let text = std::fs::read_to_string(dir.join("prefixed_metrics.json")).unwrap();
        let envelope = json::parse(&text).unwrap();
        let rows = envelope.get("assertions");
        let rows: Vec<(&str, f64)> = (rows.and_then(JsonValue::as_array).unwrap().iter())
            .map(|row| {
                let check = row.get("check").and_then(JsonValue::as_str).unwrap();
                (
                    check,
                    row.get("measured").and_then(JsonValue::as_f64).unwrap(),
                )
            })
            .collect();
        assert_eq!(rows, [("acks > 0", 5.0), ("acks_sent == 0", 0.0)]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
