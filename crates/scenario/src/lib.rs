//! Declarative scenarios: every experiment as a data file.
//!
//! This crate is the workspace's single experiment entry point. A
//! scenario is one JSON file under `scenarios/` composing population,
//! topology, fault profile, attacker strategies, defender probes,
//! pass/fail assertions, trials and seed (grammar: [`spec`], DESIGN.md
//! §13). `exp_run SCENARIO.json` executes any of them through
//! [`run_spec`], the one start and finish of every run: it starts the
//! experiment, dispatches to the spec's runner through the
//! [`registry`], checks the spec's assertions against the metrics the
//! runner recorded, and writes the envelope with their verdict.
//!
//! Three kinds of runner exist:
//!
//! * [`generic`] — fully interpreted: the spec alone drives
//!   [`ScenarioBuilder`](polite_wifi_harness::ScenarioBuilder)
//!   construction, composes attacks/probes from the
//!   `polite-wifi-core` trait layer and cycles trials through its
//!   `cases`. The paper's Figure 2, Table 1 and Figure 3, its §2.2
//!   argument (the RTS fallback, the validate-then-ACK ablation, the
//!   NAV DoS) and the related-work scenarios (Block-Ack paralysis, PMF
//!   deauth resilience, power-save wake-ups) land purely as data files
//!   this way.
//! * [`wardrive`] — the segment drives, interpreted from a `wardrive`
//!   section: Table 2's survey, its MAC-randomisation extension (as
//!   `cases`) and the city-scale drive.
//! * [`experiments`] — bespoke runners whose logic is programmatic
//!   (parameter sweeps, classifiers, the continuous drive-by), each
//!   written as one trial that runs on the same harness trial path as
//!   the other two kinds. Their specs carry identity, run defaults and
//!   assertions.
//!
//! The [`pins`] hold every scenario's pinned envelope digest, which the
//! result-cache key covers.

pub mod experiments;
pub mod generic;
pub mod hash;
pub mod pins;
pub mod registry;
pub mod spec;
pub mod support;
pub mod wardrive;

pub use hash::fnv1a64;
pub use registry::{run_spec, runner_names};
pub use spec::{
    behavior_from_label, bitrate_from_label, AssertionSpec, AttackSpec, Case, CaseSeed, CaseSpec,
    Drive, NodeKind, NodeSpec, PopulationSpec, ProbeSpec, RunSpec, ScenarioSpec, TopologySpec,
    WardriveSpec,
};
