//! Seeded input generation: everything a run feeds the program derives
//! from `--seed`, so one seed always produces the same inputs.

/// Independent streams carved out of one `--seed`.
const CITY: u64 = 1;
const HUB: u64 = 2;
const ORDER: u64 = 3;
const SERVE: u64 = 4;

/// SplitMix64 finaliser over `seed` and a stream id.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z =
        (seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 sequence.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0, 0)
    }

    /// Uniform in `lo..=hi`.
    fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// The `CityWardrive` seed for a run.
pub fn city_seed(seed: u64) -> u64 {
    mix(seed, CITY)
}

/// The `BatchSensingHub` seed for a run.
pub fn hub_seed(seed: u64) -> u64 {
    mix(seed, HUB)
}

/// A permutation of `0..n`: the order a catalogue pass runs its
/// scenarios in.
pub fn order(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng(mix(seed, ORDER));
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.between(0, i as u64) as usize);
    }
    v
}

/// Serve spec number `index` of a run: a `generic` null-flood at
/// 200–2000 pps for 1–3 s of simulated time, two trials. Rate and
/// duration step evenly through their ranges with period `period`
/// (`period` ≥ 2), paired by a fixed stride, so every pass of `period`
/// specs asks for the same mix of work whatever the seed; the run seed
/// derives from `seed` and embeds `index`, so the specs of one run are
/// pairwise distinct.
pub fn serve_spec(seed: u64, index: u64, period: u64) -> String {
    let (rate_pps, duration_us) = serve_mix(index, period);
    let run_seed = (mix(seed, SERVE) % 1_000_000) * 1_000_000 + index;
    format!(
        r#"{{
  "name": "serve benchmark job",
  "paper_ref": "none",
  "slug": "serve_bench",
  "runner": "generic",
  "run": {{"seed": {run_seed}, "trials": 2, "workers": 1}},
  "topology": {{
    "duration_us": {topology_us},
    "nodes": [
      {{"name": "ap", "mac": "68:02:b8:00:00:01", "kind": "ap", "position": [2, 0], "ssid": "Net"}},
      {{"name": "victim", "mac": "f2:6e:0b:11:22:33", "kind": "client", "position": [0, 0]}},
      {{"name": "attacker", "mac": "aa:bb:bb:bb:bb:bb", "kind": "monitor", "position": [4, 0]}}
    ],
    "links": [["victim", "ap"]]
  }},
  "attacks": [
    {{"kind": "null-flood", "attacker": "attacker", "victim": "victim",
     "rate_pps": {rate_pps}, "start_us": 1000, "duration_us": {duration_us}, "bitrate": "6"}}
  ],
  "probes": [
    {{"kind": "station-stat", "node": "victim", "stat": "acks_sent", "metric": "acks_sent"}}
  ]
}}"#,
        topology_us = duration_us + 50_000,
    )
}

/// The flood rate (pps) and flood duration (µs) of serve spec `index`.
fn serve_mix(index: u64, period: u64) -> (u64, u64) {
    let k = index % period;
    let rate_pps = 200 + 1800 * k / (period - 1);
    let duration_us = (1000 + 2000 * (7 * k % period) / (period - 1)) * 1000;
    (rate_pps, duration_us)
}

/// The order in which a serve pass hands out its `period` specs: the
/// most flooded frames first, so that the clients, which claim specs
/// from a shared cursor, end a pass together on the smallest jobs.
pub fn serve_order(period: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..period).collect();
    v.sort_by_key(|&k| {
        let (rate_pps, duration_us) = serve_mix(k, period);
        (std::cmp::Reverse(rate_pps * duration_us), k)
    });
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use polite_wifi_scenario::ScenarioSpec;
    use std::collections::BTreeSet;

    #[test]
    fn one_seed_gives_byte_identical_specs() {
        for i in 0..240 {
            assert_eq!(serve_spec(7, i, 40), serve_spec(7, i, 40));
        }
        assert_ne!(serve_spec(7, 0, 40), serve_spec(8, 0, 40));
        // The same work mix every period, under distinct run seeds.
        let attack = |s: &str| s[s.find("\"attacks\"").unwrap()..].to_string();
        assert_eq!(
            attack(&serve_spec(7, 3, 40)),
            attack(&serve_spec(7, 43, 40))
        );
        assert_eq!(attack(&serve_spec(7, 3, 40)), attack(&serve_spec(9, 3, 40)));
        assert_ne!(serve_spec(7, 3, 40), serve_spec(7, 43, 40));
        assert!(serve_spec(1, 0, 40).contains("\"rate_pps\": 200,"));
        assert!(serve_spec(1, 39, 40).contains("\"rate_pps\": 2000,"));
    }

    #[test]
    fn serve_specs_parse_and_hash_distinctly() {
        let mut hashes = BTreeSet::new();
        for i in 0..240 {
            let spec = ScenarioSpec::parse(&serve_spec(3, i, 40))
                .unwrap_or_else(|e| panic!("spec {i} does not parse: {e}"));
            assert_eq!(spec.runner, "generic");
            hashes.insert(spec.canonical_hash());
        }
        assert_eq!(hashes.len(), 240);
    }

    #[test]
    fn order_is_a_seeded_permutation() {
        let a = order(1, 18);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..18).collect::<Vec<_>>());
        assert_eq!(a, order(1, 18));
        assert_ne!(a, order(2, 18));
    }

    #[test]
    fn serve_order_is_a_permutation_largest_first() {
        let v = serve_order(40);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..40).collect::<Vec<_>>());
        let frames: Vec<u64> = v
            .iter()
            .map(|&k| {
                let (rate_pps, duration_us) = serve_mix(k, 40);
                rate_pps * duration_us
            })
            .collect();
        assert!(frames.windows(2).all(|w| w[0] >= w[1]), "{frames:?}");
    }

    #[test]
    fn streams_are_independent() {
        assert_ne!(city_seed(0), hub_seed(0));
        assert_ne!(city_seed(0), city_seed(1));
    }
}
