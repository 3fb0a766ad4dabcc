//! Content addressing for scenario specs.
//!
//! The daemon's result cache is keyed by *what a run computes*, not how
//! it was phrased or scheduled: the canonical JSON re-emission collapses
//! formatting and field order, and normalising `run.workers` to 1
//! collapses the one run parameter that is guaranteed not to change the
//! envelope (the worker-invariance contract the golden tests pin). Seed,
//! trials, quick and fault profile all stay in the hashed bytes — they
//! *do* change results. Identical inputs are byte-identical outputs, so
//! one hash addresses one envelope.

use crate::spec::ScenarioSpec;

/// FNV-1a 64-bit. Zero-dependency and stable across platforms — cache
/// keys must mean the same thing on every machine that shares a store.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl ScenarioSpec {
    /// The workers-invariant content address of this spec: FNV-1a 64
    /// over the canonical JSON with `run.workers` normalised to 1,
    /// rendered as 16 lowercase hex digits.
    pub fn canonical_hash(&self) -> String {
        let mut normalised = self.clone();
        normalised.run.workers = 1;
        format!(
            "{:016x}",
            fnv1a64(normalised.into_canonical_json().as_bytes())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
  "name": "T",
  "paper_ref": "ref",
  "slug": "t",
  "runner": "generic",
  "run": {"seed": 2, "trials": 3, "workers": 1},
  "topology": {
    "duration_us": 1000,
    "nodes": [
      {"name": "ap", "mac": "68:02:b8:00:00:01", "kind": "ap", "position": [2, 0], "ssid": "Net"},
      {"name": "victim", "mac": "f2:6e:0b:11:22:33", "kind": "client", "position": [0, 0]}
    ],
    "links": [["victim", "ap"]]
  },
  "probes": [
    {"kind": "station-stat", "node": "victim", "stat": "acks_sent", "metric": "acks_sent"}
  ]
}"#;

    #[test]
    fn fnv_matches_the_reference_vector() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn hash_ignores_formatting_and_worker_count() {
        let spec = ScenarioSpec::parse(BASE).unwrap();
        // Same spec, canonical form: same hash.
        let canonical = ScenarioSpec::parse(&spec.to_canonical_json()).unwrap();
        assert_eq!(spec.canonical_hash(), canonical.canonical_hash());
        // Same spec at another worker count: same hash.
        let mut reworked = spec.clone();
        reworked.run.workers = 8;
        assert_eq!(spec.canonical_hash(), reworked.canonical_hash());
    }

    #[test]
    fn hash_tracks_everything_that_changes_results() {
        let spec = ScenarioSpec::parse(BASE).unwrap();
        let reseeded = ScenarioSpec {
            run: crate::spec::RunSpec {
                seed: 3,
                ..spec.run.clone()
            },
            ..spec.clone()
        };
        assert_ne!(spec.canonical_hash(), reseeded.canonical_hash());
        let quickened = ScenarioSpec {
            run: crate::spec::RunSpec {
                quick: true,
                ..spec.run.clone()
            },
            ..spec.clone()
        };
        assert_ne!(spec.canonical_hash(), quickened.canonical_hash());
    }

    /// Cache keys outlive builds: a change to the canonical form would
    /// silently orphan every stored result, so one key is pinned.
    #[test]
    fn base_spec_hash_is_pinned() {
        let spec = ScenarioSpec::parse(BASE).unwrap();
        assert_eq!(spec.canonical_hash(), "0dba5c08147b7f9a");
    }

    #[test]
    fn hash_is_sixteen_hex_digits() {
        let h = ScenarioSpec::parse(BASE).unwrap().canonical_hash();
        assert_eq!(h.len(), 16);
        assert!(h
            .chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
    }
}
