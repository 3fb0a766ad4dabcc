//! The fully interpreted scenario executor (`"runner": "generic"`).
//!
//! Everything comes from the spec: the topology stamps a
//! [`ScenarioBuilder`](polite_wifi_harness::ScenarioBuilder), each attack
//! entry composes an [`polite_wifi_core::Attack`] from the core trait
//! layer, each probe entry a [`polite_wifi_core::Probe`], and the
//! assertion block a set of [`polite_wifi_core::MetricAssertion`]s
//! checked against the recorded metric means. No experiment-specific
//! code runs at all — related-work scenarios land purely as data files.

use crate::spec::{bitrate_from_label, AttackSpec, ProbeSpec, ScenarioSpec, TopologySpec};
use polite_wifi_core::{
    check_all, Assertion, Attack, AttackCtx, BlockAckParalysis, CmpOp, DeauthFlood, InjectionKind,
    InjectionPlan, MetricAssertion, NavRtsFlood, Probe, StatKind, StationStatProbe,
};
use polite_wifi_core::{AckVerifier, AssociationProbe};
use polite_wifi_frame::builder;
use polite_wifi_harness::{Experiment, MetricsLedger, RunArgs};
use polite_wifi_phy::rate::BitRate;
use polite_wifi_sim::{NodeId, Simulator};
use std::collections::BTreeMap;
use std::io;

/// One evaluated assertion, as reported in the envelope payload.
struct AssertionOutcome {
    check: String,
    measured: Option<f64>,
    pass: bool,
}

polite_wifi_obs::impl_to_json! { AssertionOutcome { check, measured, pass } }

/// The generic runner's payload.
struct GenericOutcome {
    attack_frames: u64,
    assertions: Vec<AssertionOutcome>,
    verdict: String,
}

polite_wifi_obs::impl_to_json! { GenericOutcome { attack_frames, assertions, verdict } }

fn rate(label: &str) -> BitRate {
    bitrate_from_label(label).expect("validated at parse time")
}

/// Builds the core-layer attack object an [`AttackSpec`] describes,
/// resolving node names. `QosTraffic` is not an attack (it transmits
/// from a legitimate node) and returns `None`.
fn build_attack(spec: &AttackSpec, topo: &TopologySpec) -> Option<(String, Box<dyn Attack>)> {
    match spec {
        AttackSpec::NullFlood {
            attacker,
            victim,
            rate_pps,
            start_us,
            duration_us,
            bitrate,
        } => Some((
            attacker.clone(),
            Box::new(InjectionPlan {
                victim: topo.mac_of(victim),
                forged_ta: topo.mac_of(attacker),
                kind: InjectionKind::NullData,
                rate_pps: *rate_pps,
                start_us: *start_us,
                duration_us: *duration_us,
                bitrate: rate(bitrate),
            }),
        )),
        AttackSpec::RtsFlood {
            attacker,
            target,
            nav_us,
            rate_pps,
            start_us,
            duration_us,
            bitrate,
        } => Some((
            attacker.clone(),
            Box::new(NavRtsFlood {
                target: topo.mac_of(target),
                forged_ta: topo.mac_of(attacker),
                nav_us: *nav_us,
                rate_pps: *rate_pps,
                start_us: *start_us,
                duration_us: *duration_us,
                bitrate: rate(bitrate),
            }),
        )),
        AttackSpec::DeauthFlood {
            attacker,
            victim,
            forged_ap,
            rate_pps,
            start_us,
            duration_us,
            bitrate,
        } => Some((
            attacker.clone(),
            Box::new(DeauthFlood {
                victim: topo.mac_of(victim),
                forged_ap: topo.mac_of(forged_ap),
                rate_pps: *rate_pps,
                start_us: *start_us,
                duration_us: *duration_us,
                bitrate: rate(bitrate),
            }),
        )),
        AttackSpec::BlockAckParalysis {
            attacker,
            victim,
            spoofed_peer,
            jump_to_seq,
            at_us,
            bitrate,
        } => Some((
            attacker.clone(),
            Box::new(BlockAckParalysis {
                victim: topo.mac_of(victim),
                spoofed_peer: topo.mac_of(spoofed_peer),
                jump_to_seq: *jump_to_seq,
                at_us: *at_us,
                bitrate: rate(bitrate),
            }),
        )),
        AttackSpec::QosTraffic { .. } => None,
    }
}

/// Schedules the legitimate QoS traffic entries directly on the
/// simulator (sequence numbers count up from 0 per stream).
fn schedule_traffic(
    spec: &AttackSpec,
    sim: &mut Simulator,
    topo: &TopologySpec,
    ids: &BTreeMap<String, NodeId>,
) -> u64 {
    let AttackSpec::QosTraffic {
        from,
        to,
        rate_pps,
        start_us,
        duration_us,
        payload_len,
        bitrate,
    } = spec
    else {
        return 0;
    };
    if *rate_pps == 0 {
        return 0;
    }
    let gap = 1_000_000 / *rate_pps as u64;
    let n = duration_us * *rate_pps as u64 / 1_000_000;
    let (src, dst) = (topo.mac_of(from), topo.mac_of(to));
    for i in 0..n {
        sim.inject(
            start_us + i * gap,
            ids[from],
            builder::protected_qos_data(dst, src, src, i as u16, *payload_len as usize),
            rate(bitrate),
        );
    }
    n
}

/// Builds the core-layer probe object a [`ProbeSpec`] describes.
fn build_probe(
    spec: &ProbeSpec,
    topo: &TopologySpec,
    ids: &BTreeMap<String, NodeId>,
) -> Box<dyn Probe> {
    match spec {
        ProbeSpec::AckVerifier { attacker } => Box::new(AckVerifier::new(topo.mac_of(attacker))),
        ProbeSpec::StationStat { node, stat, metric } => Box::new(StationStatProbe {
            node: ids[node],
            stat: StatKind::from_label(stat).expect("validated at parse time"),
            metric: metric.clone(),
        }),
        ProbeSpec::Association { node, peer, metric } => Box::new(AssociationProbe {
            node: ids[node],
            peer: topo.mac_of(peer),
            metric: metric.clone(),
        }),
    }
}

/// Runs a fully spec-driven scenario: trials across the worker pool,
/// metrics merged in trial order, assertions checked against the means.
/// Exit status is non-zero when an enforced assertion fails.
pub fn run(spec: &ScenarioSpec, args: RunArgs) -> io::Result<i32> {
    let mut exp = Experiment::start_with(&spec.name, &spec.paper_ref, args);
    let args = exp.args();
    let topo = spec
        .topology
        .as_ref()
        .expect("validated: generic runner requires a topology");
    let (sb, ids) = topo.builder(args.faults);
    let attacks: Vec<(String, Box<dyn Attack>)> = spec
        .attacks
        .iter()
        .filter_map(|a| build_attack(a, topo))
        .collect();
    let probes: Vec<Box<dyn Probe>> = spec
        .probes
        .iter()
        .map(|p| build_probe(p, topo, &ids))
        .collect();

    let results = exp.run_trials(|ctx| {
        let mut scenario = sb.build_with_seed(ctx.seed);
        let mut frames = 0u64;
        for (attacker, attack) in &attacks {
            let attack_ctx = AttackCtx {
                attacker: ids[attacker],
                seed: ctx.seed,
            };
            frames += attack.launch(&mut scenario.sim, &attack_ctx);
        }
        for t in &spec.attacks {
            frames += schedule_traffic(t, &mut scenario.sim, topo, &ids);
        }
        let sim = scenario.run();
        let mut ledger = MetricsLedger::new();
        for probe in &probes {
            probe.observe(sim, &mut ledger);
        }
        (frames, ledger, sim.take_obs())
    });

    let mut attack_frames = 0u64;
    for result in results.into_iter().flatten() {
        let (frames, ledger, obs) = result;
        attack_frames += frames;
        exp.metrics.merge(&ledger);
        exp.absorb_obs(obs);
    }

    println!();
    println!(
        "scenario `{}`: {} scheduled frame(s)",
        spec.slug, attack_frames
    );
    for summary in exp.metrics.summaries() {
        println!("  {:<44} mean: {}", summary.name, summary.mean);
    }

    // Evaluate the assertion block against per-metric means.
    let enforced: Vec<Box<dyn Assertion>> = spec
        .assertions
        .iter()
        .filter(|a| !a.clean_only || args.faults.is_clean())
        .map(|a| {
            Box::new(MetricAssertion {
                metric: a.metric.clone(),
                op: CmpOp::from_symbol(&a.op).expect("validated at parse time"),
                value: a.value,
            }) as Box<dyn Assertion>
        })
        .collect();
    let metrics = &exp.metrics;
    let lookup = |name: &str| metrics.mean(name);
    let verdict = check_all(&enforced, &lookup);
    let outcomes: Vec<AssertionOutcome> = enforced
        .iter()
        .map(|a| AssertionOutcome {
            check: a.describe(),
            measured: spec
                .assertions
                .iter()
                .find(|s| a.describe().starts_with(&s.metric))
                .and_then(|s| metrics.mean(&s.metric)),
            pass: a.check(&lookup).is_ok(),
        })
        .collect();
    let skipped = spec.assertions.len() - enforced.len();
    println!();
    for o in &outcomes {
        println!(
            "  assert {:<40} {}",
            o.check,
            if o.pass { "PASS" } else { "FAIL" }
        );
    }
    if skipped > 0 {
        println!("  ({skipped} clean-only assertion(s) skipped under fault injection)");
    }
    let verdict_str = match &verdict {
        Ok(()) => "pass".to_string(),
        Err(e) => {
            println!("\nassertion failures: {e}");
            "fail".to_string()
        }
    };

    let payload = GenericOutcome {
        attack_frames,
        assertions: outcomes,
        verdict: verdict_str,
    };
    let status = exp.finish_with_status(&spec.slug, &payload)?;
    Ok(if verdict.is_err() { 1 } else { status })
}
