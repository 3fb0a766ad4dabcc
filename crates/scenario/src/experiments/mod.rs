//! The bespoke runners: experiments whose logic neither the generic nor
//! the wardrive runner can express as data (parameter sweeps,
//! classifiers, the continuous drive-by). Each exposes `run(spec, exp)`,
//! which runs its trials inside the
//! [`Experiment`](polite_wifi_harness::Experiment) that
//! [`run_spec`](crate::run_spec) started and records its results as
//! metrics, returning the payload. The spec supplies identity (name,
//! paper_ref, slug), run defaults and the assertions that hold the
//! paper's claims over those metrics; `run_spec` checks the claims and
//! writes the envelope, which the golden tests pin.

pub mod battery_life;
pub mod ext_classifier;
pub mod ext_driveby;
pub mod ext_ranging;
pub mod ext_vitals;
pub mod fig5_keystroke;
pub mod fig6_power;
pub mod sensing_hub;
