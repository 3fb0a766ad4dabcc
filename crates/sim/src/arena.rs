//! Hot per-node state in SoA layout, plus the geometry of the
//! interference cell grid.
//!
//! The simulator's inner loops (carrier sense, arrival fan-out,
//! collision scans) touch a handful of per-node fields — position,
//! velocity, tune, transmit power, the radio's timing guards and the
//! pending ACK wait — millions of times per second at city scale.
//! [`NodeArena`] keeps those in parallel `Vec`s indexed by
//! [`NodeId`] so the scans are cache-linear; everything cold (the MAC
//! state machine, queues, captures, ledgers) stays on
//! [`Node`](crate::node::Node).
//!
//! The medium indexes both its receivers and its held transmissions on
//! one grid of uniform cells of its `max_range_m`, keyed by
//! `(tune, cell_x, cell_y)` (`cell_edge_m`, `cell_of`, `CellMap`).

use crate::medium::Tune;
use crate::node::{AckWait, NodeId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Hot per-node state, structure-of-arrays.
#[derive(Debug, Default)]
pub struct NodeArena {
    /// Position at t = 0, in metres.
    position: Vec<(f64, f64)>,
    /// Velocity in metres/second (wardriving cars move; houses do not).
    velocity: Vec<(f64, f64)>,
    /// Band/channel the radio is tuned to (mirrors the station config).
    tune: Vec<Tune>,
    /// The radio is mid-transmission until this time.
    pub tx_busy_until: Vec<u64>,
    /// Virtual carrier sense: the NAV set by overheard Duration fields.
    pub nav_until: Vec<u64>,
    /// Fault injection: frozen (deaf and mute) until this time.
    pub stalled_until: Vec<u64>,
    /// Outstanding ACK wait, if any.
    pub ack_wait: Vec<Option<AckWait>>,
    /// Earliest pending `Poll` event for this node, `u64::MAX` when none
    /// — the keyed modes' poll dedup (one timer chain per node instead
    /// of one per overheard frame).
    pub poll_at: Vec<u64>,
}

impl NodeArena {
    /// An empty arena.
    pub fn new() -> NodeArena {
        NodeArena::default()
    }

    /// Appends a node's hot state; its index is the new `NodeId`.
    pub fn push(&mut self, position: (f64, f64), tune: Tune) {
        self.position.push(position);
        self.velocity.push((0.0, 0.0));
        self.tune.push(tune);
        self.tx_busy_until.push(0);
        self.nav_until.push(0);
        self.stalled_until.push(0);
        self.ack_wait.push(None);
        self.poll_at.push(u64::MAX);
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.position.len()
    }

    /// True when no nodes exist.
    pub fn is_empty(&self) -> bool {
        self.position.is_empty()
    }

    /// A node's t = 0 position in metres.
    pub fn base_position(&self, id: NodeId) -> (f64, f64) {
        self.position[id.0]
    }

    /// A node's velocity in m/s.
    pub fn velocity(&self, id: NodeId) -> (f64, f64) {
        self.velocity[id.0]
    }

    /// Sets a node's velocity in m/s.
    pub fn set_velocity(&mut self, id: NodeId, velocity: (f64, f64)) {
        self.velocity[id.0] = velocity;
    }

    /// The band/channel a node's radio is tuned to.
    pub fn tune(&self, id: NodeId) -> Tune {
        self.tune[id.0]
    }

    /// Records a retune (the caller keeps the station config in sync).
    pub fn set_tune(&mut self, id: NodeId, tune: Tune) {
        self.tune[id.0] = tune;
    }

    /// Position at `now_us`, following the (constant) velocity.
    pub fn position_at(&self, id: NodeId, now_us: u64) -> (f64, f64) {
        let t = now_us as f64 / 1e6;
        let p = self.position[id.0];
        let v = self.velocity[id.0];
        (p.0 + v.0 * t, p.1 + v.1 * t)
    }

    /// Euclidean distance between two nodes at `now_us`, clamped to the
    /// propagation model's 0.1 m near-field floor.
    pub fn distance_between(&self, a: NodeId, b: NodeId, now_us: u64) -> f64 {
        let pa = self.position_at(a, now_us);
        distance_from(pa, self.position_at(b, now_us))
    }

    /// Distance from an arbitrary point to a node at `now_us`, with the
    /// same 0.1 m clamp.
    pub fn distance_to_point(&self, point: (f64, f64), id: NodeId, now_us: u64) -> f64 {
        distance_from(point, self.position_at(id, now_us))
    }

    /// Squared distance from a point to a node at `now_us`, unclamped
    /// and `sqrt`-free — for hot scans that compare against a squared
    /// radius (the radius side applies the 0.1 m near-field floor).
    pub fn distance_sq_to_point(&self, point: (f64, f64), id: NodeId, now_us: u64) -> f64 {
        let p = self.position_at(id, now_us);
        let dx = point.0 - p.0;
        let dy = point.1 - p.1;
        dx * dx + dy * dy
    }
}

/// Clamped Euclidean distance between two points in metres.
fn distance_from(a: (f64, f64), b: (f64, f64)) -> f64 {
    (a.0 - b.0).hypot(a.1 - b.1).max(0.1)
}

/// The interference cell edge for a medium whose propagation cutoff
/// is `max_range_m`: the cutoff itself, floored at 1 m.
pub(crate) fn cell_edge_m(max_range_m: f64) -> f64 {
    max_range_m.max(1.0)
}

/// The interference cell containing `p` on a grid of `cell_m`-metre
/// cells.
pub(crate) fn cell_of(cell_m: f64, p: (f64, f64)) -> (i64, i64) {
    ((p.0 / cell_m).floor() as i64, (p.1 / cell_m).floor() as i64)
}

/// A bucket of the interference grid: one tune in one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CellKey {
    pub tune: Tune,
    pub cell: (i64, i64),
}

impl Hash for CellKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(((self.tune.0 as u64) << 8) | self.tune.1 as u64);
        state.write_u64(self.cell.0 as u64);
        state.write_u64(self.cell.1 as u64);
    }
}

/// A multiply-rotate hasher for [`CellKey`]s. Grid maps are only
/// looked up and pruned, never iterated into a result, so the hash
/// needs no DoS resistance — SipHash costs a visible share of a
/// 9-bucket neighbourhood scan.
#[derive(Debug, Default)]
pub(crate) struct CellHasher(u64);

impl Hasher for CellHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(26) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        // Fold the well-mixed high half into the low bits the table
        // indexes with.
        self.0 ^ (self.0 >> 32)
    }
}

/// A map keyed by grid bucket.
pub(crate) type CellMap<V> = HashMap<CellKey, V, BuildHasherDefault<CellHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use polite_wifi_phy::band::Band;

    const CH6: Tune = (Band::Ghz2, 6);

    fn arena_with(positions: &[(f64, f64)]) -> NodeArena {
        let mut a = NodeArena::new();
        for &p in positions {
            a.push(p, CH6);
        }
        a
    }

    #[test]
    fn distance_is_symmetric_and_clamped() {
        let a = arena_with(&[(0.0, 0.0), (3.0, 4.0)]);
        assert!((a.distance_between(NodeId(0), NodeId(1), 0) - 5.0).abs() < 1e-12);
        assert!((a.distance_between(NodeId(1), NodeId(0), 0) - 5.0).abs() < 1e-12);
        assert!(a.distance_between(NodeId(0), NodeId(0), 0) >= 0.1);
    }

    #[test]
    fn position_follows_velocity() {
        let mut a = arena_with(&[(10.0, 0.0)]);
        a.set_velocity(NodeId(0), (2.0, -1.0));
        let p = a.position_at(NodeId(0), 3_000_000);
        assert!((p.0 - 16.0).abs() < 1e-9);
        assert!((p.1 + 3.0).abs() < 1e-9);
    }
}
