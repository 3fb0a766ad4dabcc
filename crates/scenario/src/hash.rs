//! Content addressing for scenario specs.
//!
//! The daemon's result cache is keyed by *what a run computes*, not how
//! it was phrased or scheduled: the canonical JSON re-emission collapses
//! formatting and field order, and normalising `run.workers` to 1
//! collapses the one run parameter that is guaranteed not to change the
//! envelope (the worker-invariance contract the golden tests pin). Seed,
//! trials, quick and fault profile all stay in the hashed bytes — they
//! *do* change results. The engine that runs the spec changes results
//! too, so the key also covers the crate version and the behaviour pins
//! ([`pins`](crate::pins)). Identical inputs on one engine are
//! byte-identical outputs, so one key addresses one envelope.

use crate::spec::ScenarioSpec;

/// FNV-1a 64-bit. Zero-dependency and stable across platforms — cache
/// keys must mean the same thing on every machine that shares a store.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a 64 `hash` over `bytes`.
pub fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl ScenarioSpec {
    /// The workers-invariant content address of the spec alone: FNV-1a
    /// 64 over the canonical JSON with `run.workers` normalised to 1,
    /// rendered as 16 lowercase hex digits.
    pub fn spec_hash(&self) -> String {
        let mut normalised = self.clone();
        normalised.run.workers = 1;
        format!(
            "{:016x}",
            fnv1a64(normalised.into_canonical_json().as_bytes())
        )
    }

    /// The result-cache key: FNV-1a 64 over the crate version, the
    /// [`pin_digest`](crate::pins::pin_digest) (8 little-endian bytes)
    /// and the [`spec_hash`](Self::spec_hash), rendered as 16 lowercase
    /// hex digits. A build with other behaviour pins keys every spec
    /// elsewhere, so it never serves another build's envelopes.
    pub fn canonical_hash(&self) -> String {
        let engine = fnv1a64(env!("CARGO_PKG_VERSION").as_bytes());
        let engine = fnv1a64_extend(engine, &crate::pins::pin_digest().to_le_bytes());
        format!(
            "{:016x}",
            fnv1a64_extend(engine, self.spec_hash().as_bytes())
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

    /// A change to the canonical form would silently re-key every
    /// stored result, so one spec hash is pinned.
    #[test]
    fn base_spec_hash_is_pinned() {
        let spec = ScenarioSpec::parse(BASE).unwrap();
        assert_eq!(spec.spec_hash(), "0dba5c08147b7f9a");
    }

    /// The cache key is the spec hash salted with the crate version and
    /// the behaviour pins, in that order.
    #[test]
    fn cache_key_salts_the_spec_hash_with_the_engine() {
        let spec = ScenarioSpec::parse(BASE).unwrap();
        let mut salted = env!("CARGO_PKG_VERSION").as_bytes().to_vec();
        salted.extend(crate::pins::pin_digest().to_le_bytes());
        salted.extend(b"0dba5c08147b7f9a");
        assert_eq!(spec.canonical_hash(), format!("{:016x}", fnv1a64(&salted)));
        assert_ne!(spec.canonical_hash(), spec.spec_hash());
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
