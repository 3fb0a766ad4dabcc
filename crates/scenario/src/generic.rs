//! The fully interpreted scenario executor (`"runner": "generic"`).
//!
//! Everything comes from the spec: the topology stamps a
//! [`ScenarioBuilder`](polite_wifi_harness::ScenarioBuilder), each attack
//! entry composes an [`polite_wifi_core::Attack`] from the core trait
//! layer, each probe entry a [`polite_wifi_core::Probe`], and the
//! assertion block a set of [`polite_wifi_core::MetricAssertion`]s
//! checked against the recorded metric means. No experiment-specific
//! code runs at all — related-work scenarios land purely as data files.

use crate::spec::{AttackSpec, ProbeSpec, ScenarioSpec, TopologySpec};
use polite_wifi_core::{
    check_all, AckVerifier, Assertion, AssociationProbe, Attack, BlockAckParalysis, InjectionKind,
    InjectionPlan, MetricAssertion, Probe, StationStatProbe,
};
use polite_wifi_harness::{Experiment, MetricsLedger, RunArgs};
use polite_wifi_sim::NodeId;
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

/// Builds the core-layer attack an [`AttackSpec`] describes and names
/// the node that transmits it. Every paced kind, the legitimate
/// `qos-traffic` included, is an [`InjectionPlan`].
pub(crate) fn build_attack<'s>(
    spec: &'s AttackSpec,
    topo: &TopologySpec,
) -> (&'s str, Box<dyn Attack>) {
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
            stat: *stat,
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
    // Attacks launch before legitimate traffic, each in spec order: that
    // is the order frames reach `Simulator::inject`, and same-time
    // events dispatch in push order.
    let mut launch_order: Vec<&AttackSpec> = spec.attacks.iter().collect();
    launch_order.sort_by_key(|a| matches!(a, AttackSpec::QosTraffic { .. }));
    let attacks: Vec<(NodeId, Box<dyn Attack>)> = launch_order
        .into_iter()
        .map(|a| {
            let (from, attack) = build_attack(a, topo);
            (ids[from], attack)
        })
        .collect();
    let probes: Vec<Box<dyn Probe>> = spec
        .probes
        .iter()
        .map(|p| build_probe(p, topo, &ids))
        .collect();

    let results = exp.run_trials(|ctx| {
        let mut scenario = sb.build_with_seed(ctx.seed);
        let frames: u64 = attacks
            .iter()
            .map(|(from, attack)| attack.launch(&mut scenario.sim, *from))
            .sum();
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
                op: a.op,
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
