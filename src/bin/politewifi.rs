//! `politewifi` — command-line front end to the Polite WiFi toolkit.
//!
//! ```text
//! politewifi quickstart [--seed N] [--out FILE.pcap|FILE.pcapng]
//! politewifi drain [--rate PPS] [--seconds S] [--rts] [--seed N]
//! politewifi keystroke [--seed N]
//! politewifi survey [--devices N] [--seed N] [--randomize PCT]
//! politewifi analyze FILE.pcap [--attacker MAC]
//! politewifi sifs
//! ```
//!
//! Each command declares its flags for the harness's shared [`Flags`]
//! parser: a usage error exits 2, a failure while running exits 1.

use polite_wifi::core::{
    analysis, AckVerifier, BatteryDrainAttack, InjectionKind, KeystrokeAttack, WardriveScanner,
};
use polite_wifi::devices::{CityPopulation, DeviceSpec};
use polite_wifi::frame::{builder, MacAddr};
use polite_wifi::harness::{FlagSpec, Flags, ScenarioBuilder};
use polite_wifi::pcap::{capture, read_pcap, read_pcapng, trace, LinkType};
use polite_wifi::phy::rate::BitRate;
use std::process::ExitCode;

const USAGE: &str = "politewifi — the Polite WiFi toolkit (simulation substrate)

USAGE:
    politewifi <command> [options]

COMMANDS:
    quickstart   One fake frame, one ACK: the paper's core observation.
                 [--seed N] [--out FILE.pcap|FILE.pcapng]
    drain        Battery-drain attack against an ESP8266-class victim.
                 [--rate PPS] [--seconds S] [--rts] [--seed N]
    keystroke    The Figure 5 CSI activity/keystroke attack. [--seed N]
    survey       Wardrive a slice of the Table 2 city.
                 [--devices N] [--seed N] [--randomize PCT]
    analyze      Decode a capture and verify fake→ACK exchanges.
                 FILE.pcap|FILE.pcapng [--attacker MAC]
    sifs         Print the SIFS-vs-decryption feasibility analysis.

A usage error exits 2; a failure while running exits 1.
";

const NUM: &str = "a number";
const SEED: (&str, &str) = ("--seed", NUM);

/// One command's flags.
const fn spec(
    values: &'static [(&'static str, &'static str)],
    switches: &'static [&'static str],
) -> FlagSpec {
    FlagSpec {
        values,
        switches,
        positionals: false,
        usage: USAGE,
    }
}

const QUICKSTART: FlagSpec = spec(&[SEED, ("--out", "a file path")], &[]);
const DRAIN: FlagSpec = spec(&[("--rate", NUM), ("--seconds", NUM), SEED], &["--rts"]);
const KEYSTROKE: FlagSpec = spec(&[SEED], &[]);
const SURVEY: FlagSpec = spec(&[("--devices", NUM), SEED, ("--randomize", NUM)], &[]);
const ANALYZE: FlagSpec = FlagSpec {
    positionals: true,
    ..spec(&[("--attacker", "a MAC address")], &[])
};
const SIFS: FlagSpec = spec(&[], &[]);

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let flags = |declared| Flags::parse(declared, argv);
    let result = match command.as_str() {
        "quickstart" => cmd_quickstart(flags(&QUICKSTART)),
        "drain" => cmd_drain(flags(&DRAIN)),
        "keystroke" => cmd_keystroke(flags(&KEYSTROKE)),
        "survey" => cmd_survey(flags(&SURVEY)),
        "analyze" => cmd_analyze(flags(&ANALYZE)),
        "sifs" => cmd_sifs(flags(&SIFS)),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => {
            eprintln!("politewifi: unknown command '{other}'\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("politewifi: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_quickstart(mut flags: Flags) -> Result<(), String> {
    let seed = flags.value("--seed").unwrap_or(2020);
    let out: Option<String> = flags.value("--out");
    flags.finish_or_exit("politewifi");
    let victim_mac: MacAddr = "f2:6e:0b:11:22:33".parse().unwrap();
    let mut sb = ScenarioBuilder::new();
    let victim = sb.client(victim_mac, (0.0, 0.0));
    let attacker = sb.monitor(MacAddr::FAKE, (5.0, 0.0));
    sb.retries(attacker, false);
    let mut sim = sb.build_with_seed(seed).sim;
    sim.inject(
        10_000,
        attacker,
        builder::fake_null_frame(victim_mac, MacAddr::FAKE),
        BitRate::Mbps1,
    );
    sim.run_until(100_000);
    println!("{}", trace::format_capture(&sim.node(attacker).capture));
    println!(
        "victim ACKs sent: {} (no keys, no association, no consent)",
        sim.station(victim).stats.acks_sent
    );
    if let Some(path) = &out {
        let cap = &sim.node(attacker).capture;
        if path.ends_with(".pcapng") {
            cap.write_pcapng_file(path, LinkType::Ieee80211Radiotap)
        } else {
            cap.write_pcap_file(path, LinkType::Ieee80211Radiotap)
        }
        .map_err(|e| format!("writing {path}: {e}"))?;
        println!("capture written to {path}");
    }
    Ok(())
}

fn cmd_drain(mut flags: Flags) -> Result<(), String> {
    let rate = flags.value("--rate").unwrap_or(900);
    let seconds: u64 = flags.value("--seconds").unwrap_or(10);
    let seed = flags.value("--seed").unwrap_or(42);
    let rts = flags.switch("--rts");
    flags.finish_or_exit("politewifi");
    let attack = BatteryDrainAttack {
        rate_pps: rate,
        kind: if rts {
            InjectionKind::Rts { nav_us: 248 }
        } else {
            InjectionKind::NullData
        },
        warmup_us: 3_000_000,
        measure_us: seconds * 1_000_000,
        seed,
        ..BatteryDrainAttack::default()
    };
    let m = attack.run();
    println!(
        "rate {:>4} pps ({}) → {:.1} mW average, slept {:.1}%, {} responses",
        m.rate_pps,
        if rts { "RTS→CTS" } else { "null→ACK" },
        m.average_power_mw,
        m.sleep_fraction * 100.0,
        m.acks_sent
    );
    for p in BatteryDrainAttack::project_batteries(&m) {
        println!(
            "  {:<20} {:>7.1} h under attack ({}x faster than advertised)",
            p.battery.name,
            p.attacked_life_hours,
            p.speedup.round()
        );
    }
    Ok(())
}

fn cmd_keystroke(mut flags: Flags) -> Result<(), String> {
    let seed = flags.value("--seed").unwrap_or(2020);
    flags.finish_or_exit("politewifi");
    let result = KeystrokeAttack::figure5(seed).run();
    println!(
        "measured {} ACKs at {:.1} Hz",
        result.acks_measured, result.sample_rate_hz
    );
    println!("{:<10} {:>10} {:>10}", "phase", "mean", "std");
    for p in &result.phase_stats {
        println!("{:<10} {:>10.4} {:>10.4}", p.label, p.mean, p.std_dev);
    }
    let (hits, _, fa) = result.keystroke_score;
    println!(
        "keystrokes: {hits}/{} detected, {fa} false alarms",
        result.keystrokes_truth
    );
    Ok(())
}

fn cmd_survey(mut flags: Flags) -> Result<(), String> {
    let n: usize = flags.value("--devices").unwrap_or(200);
    let seed = flags.value("--seed").unwrap_or(20);
    let randomize_pct: u64 = flags.value("--randomize").unwrap_or(0);
    flags.finish_or_exit("politewifi");
    let full = CityPopulation::table2(seed);
    let step = (full.devices.len() / n.max(1)).max(1);
    let devices: Vec<DeviceSpec> = full.devices.iter().step_by(step).take(n).cloned().collect();
    let slice = CityPopulation {
        devices,
        registry: full.registry.clone(),
    }
    .with_randomized_client_macs(randomize_pct as f64 / 100.0, seed);
    println!(
        "surveying {} devices ({} clients, {} APs)...",
        slice.devices.len(),
        slice.clients().count(),
        slice.aps().count()
    );
    let report = WardriveScanner {
        seed,
        ..WardriveScanner::default()
    }
    .run(&slice);
    println!(
        "discovered {}, verified {} ({:.1}%) in {:.0} simulated seconds",
        report.discovered,
        report.verified,
        100.0 * report.verified as f64 / report.discovered.max(1) as f64,
        report.survey_time_us as f64 / 1e6
    );
    for (vendor, count) in report.client_counts.iter().take(8) {
        println!("  client {vendor:<24} {count}");
    }
    for (vendor, count) in report.ap_counts.iter().take(8) {
        println!("  AP     {vendor:<24} {count}");
    }
    if report.pmf_aps > 0 {
        println!(
            "  ({} APs advertised 802.11w — polite all the same)",
            report.pmf_aps
        );
    }
    Ok(())
}

fn cmd_analyze(mut flags: Flags) -> Result<(), String> {
    let attacker = flags.value("--attacker").unwrap_or(MacAddr::FAKE);
    if flags.positionals().len() != 1 {
        flags.problem("analyze needs one capture file path");
    }
    let path = flags.positionals().first().cloned().unwrap_or_default();
    flags.finish_or_exit("politewifi");
    let bytes = std::fs::read(&path).map_err(|e| format!("reading {path}: {e}"))?;

    // Try pcapng first, then classic pcap.
    let (link_type, records) = match read_pcapng(&bytes) {
        Ok(f) => (f.link_type, f.records),
        Err(_) => {
            let f = read_pcap(&bytes).map_err(|e| format!("not a pcap/pcapng file: {e}"))?;
            (f.link_type, f.records)
        }
    };

    let mut cap = capture::Capture::new();
    let mut undecodable = 0usize;
    for rec in &records {
        let frame_bytes: &[u8] = match link_type {
            LinkType::Ieee80211Radiotap => {
                match polite_wifi::radiotap::Radiotap::parse(&rec.data) {
                    Ok((_, consumed)) => &rec.data[consumed..],
                    Err(_) => {
                        undecodable += 1;
                        continue;
                    }
                }
            }
            _ => &rec.data,
        };
        match polite_wifi::frame::Frame::parse(frame_bytes, true) {
            Ok(frame) => cap.record_frame(rec.ts_us, &frame),
            Err(_) => undecodable += 1,
        }
    }

    println!("{}", trace::format_capture(&cap));
    if undecodable > 0 {
        println!("({undecodable} records did not decode as 802.11)");
    }
    let verifier = AckVerifier::new(attacker);
    let exchanges = verifier.verify(&cap);
    println!(
        "verified fake→ACK exchanges for {attacker}: {}",
        exchanges.len()
    );
    for v in verifier.responding_victims(&cap) {
        println!("  responding victim: {v}");
    }
    Ok(())
}

fn cmd_sifs(flags: Flags) -> Result<(), String> {
    flags.finish_or_exit("politewifi");
    let report = analysis::sifs_report();
    for (band, sifs) in &report.sifs_us {
        println!("{band}: SIFS = {sifs} µs");
    }
    for (band, sweep) in &report.sweeps {
        for f in sweep {
            println!(
                "  {band}: ACK ready at {:>3} µs vs {:>2} µs budget → {}",
                f.ack_ready_us,
                f.deadline_us,
                if f.misses_deadline { "MISSES" } else { "ok" }
            );
        }
    }
    for (band, speedup) in &report.required_speedup {
        println!("decoder speedup needed on {band}: {speedup:.1}x");
    }
    println!(
        "worst-case overrun: {:.0}x; and forged RTS still elicits CTS regardless",
        analysis::worst_case_overrun()
    );
    Ok(())
}
