//! The ported paper experiments, one module per bespoke runner. Each
//! exposes `run(spec, args)` with the exact pre-port stdout and
//! envelope bytes; the spec supplies identity (name, paper_ref, slug),
//! run defaults and params, the module the logic.

pub mod ablation_validate;
pub mod battery_life;
pub mod city_wardrive;
pub mod ext_classifier;
pub mod ext_driveby;
pub mod ext_nav_dos;
pub mod ext_randomization;
pub mod ext_ranging;
pub mod ext_vitals;
pub mod fig2_trace;
pub mod fig3_deauth;
pub mod fig5_keystroke;
pub mod fig6_power;
pub mod sensing_hub;
pub mod sifs_timing;
pub mod table1_devices;
pub mod table2_wardrive;
