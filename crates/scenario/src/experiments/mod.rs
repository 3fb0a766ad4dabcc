//! The bespoke runners: experiments whose logic the generic runner
//! cannot express as data (parameter sweeps, classifiers, city-scale
//! drives). Each exposes `run(spec, args)`; the spec supplies identity
//! (name, paper_ref, slug), run defaults and, for the city, params, the
//! module the logic, and the envelope it writes is pinned by the golden
//! tests.

pub mod battery_life;
pub mod city_wardrive;
pub mod ext_classifier;
pub mod ext_driveby;
pub mod ext_randomization;
pub mod ext_ranging;
pub mod ext_vitals;
pub mod fig5_keystroke;
pub mod fig6_power;
pub mod sensing_hub;
pub mod table2_wardrive;
