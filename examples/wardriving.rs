//! A pocket-sized wardriving survey (§3): drive past a neighbourhood of
//! the Table 2 city and verify that every discovered device ACKs fakes.
//!
//! The full 5,328-device survey is a committed scenario
//! (`cargo run --release --bin exp_run -- scenarios/table2_wardrive.json`);
//! this example scans a 120-device slice so it finishes in seconds.
//!
//! ```sh
//! cargo run --release --example wardriving
//! ```

use polite_wifi::core::WardriveScanner;
use polite_wifi::devices::{CityPopulation, DeviceSpec};

fn main() {
    let full = CityPopulation::table2(11);
    // A representative slice: every 44th device, preserving variety.
    let devices: Vec<DeviceSpec> = full.devices.iter().step_by(44).take(120).cloned().collect();
    let slice = CityPopulation {
        devices,
        registry: full.registry.clone(),
    };

    println!(
        "Scanning {} devices ({} clients, {} APs)...\n",
        slice.devices.len(),
        slice.clients().count(),
        slice.aps().count()
    );

    let scanner = WardriveScanner::default();
    let report = scanner.run(&slice);

    println!(
        "discovered: {}   verified (sent an ACK to our fake frames): {}",
        report.discovered, report.verified
    );
    println!(
        "survey time: {:.1} simulated seconds\n",
        report.survey_time_us as f64 / 1e6
    );

    println!(
        "{:<16} {:>5}    {:<16} {:>5}",
        "Client vendor", "#", "AP vendor", "#"
    );
    let rows = report
        .client_counts
        .len()
        .max(report.ap_counts.len())
        .min(12);
    for i in 0..rows {
        let c = report
            .client_counts
            .get(i)
            .map(|(v, n)| format!("{v:<16} {n:>5}"))
            .unwrap_or_else(|| " ".repeat(22));
        let a = report
            .ap_counts
            .get(i)
            .map(|(v, n)| format!("{v:<16} {n:>5}"))
            .unwrap_or_default();
        println!("{c}    {a}");
    }

    assert_eq!(
        report.verified, report.discovered,
        "every discovered device must be polite"
    );
    println!(
        "\nAll {} discovered devices responded. Polite WiFi everywhere.",
        report.verified
    );
}
