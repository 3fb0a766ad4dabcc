//! The shared radio medium: who hears a transmission, what each
//! receiver decodes, and collisions.

use crate::arena::{cell_edge_m, cell_of, CellKey, CellMap, NodeArena};
use crate::faults::{GilbertElliott, SnrDegradation, FAULT_STREAM};
use crate::node::NodeId;
use polite_wifi_phy::fading::Fading;
use polite_wifi_phy::link;
use polite_wifi_phy::pathloss::{noise_floor_dbm, PathLoss};
use polite_wifi_phy::rate::BitRate;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Radio-environment parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediumConfig {
    /// Large-scale propagation model.
    pub path_loss: PathLoss,
    /// Small-scale fading statistics per frame.
    pub fading: Fading,
    /// Receiver noise figure in dB.
    pub noise_figure_db: f64,
    /// Channel bandwidth in MHz (for the noise floor).
    pub bandwidth_mhz: f64,
    /// Energy-detect / carrier-sense threshold in dBm.
    pub cs_threshold_dbm: f64,
    /// Minimum power ratio (dB) for the stronger of two overlapping frames
    /// to survive (physical-layer capture).
    pub capture_threshold_db: f64,
    /// Hard propagation cutoff in metres, used by the keyed propagation
    /// modes: receivers beyond this range are not evaluated at all
    /// (their mean rx power sits tens of dB below the energy-detect
    /// floor). In every mode it is also the cell edge of the medium's
    /// placement index and active set.
    pub max_range_m: f64,
}

impl Default for MediumConfig {
    fn default() -> Self {
        MediumConfig {
            path_loss: PathLoss::indoor_2ghz4(),
            fading: Fading::Rician { k: 8.0 },
            noise_figure_db: 7.0,
            bandwidth_mhz: 20.0,
            cs_threshold_dbm: -82.0,
            capture_threshold_db: 10.0,
            max_range_m: 400.0,
        }
    }
}

/// How a transmission finds its receivers and how their receptions
/// draw their randomness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PropagationMode {
    /// Every node evaluates every transmission, with fading/FER draws
    /// on the shared sequential propagation stream — the mode every
    /// pinned result was produced under. The default.
    #[default]
    AllPairs,
    /// A scan of every node for the co-tune ones within `max_range_m`,
    /// with the per-reception keyed draw scheme and that cutoff — the
    /// brute-force oracle the cell grid mode is tested against.
    OracleAllPairs,
    /// Spatial interference-cell enumeration with keyed draws: a
    /// transmission only evaluates co-channel receivers in the 3×3
    /// cell neighbourhood around the transmitter (city scale).
    CellGrid,
}

impl PropagationMode {
    /// Whether fading/FER draws are keyed per reception instead of
    /// riding the shared sequential stream.
    pub fn keyed_draws(self) -> bool {
        self != PropagationMode::AllPairs
    }
}

/// A (band, channel) tune — two transmissions interact only when their
/// tunes match. Adjacent-channel leakage is out of scope (documented in
/// DESIGN.md).
pub type Tune = (polite_wifi_phy::band::Band, u8);

/// A transmission currently (or recently) on the air.
#[derive(Debug, Clone)]
pub struct Transmission {
    /// Transmitting node.
    pub from: NodeId,
    /// Start of the frame on the air.
    pub start_us: u64,
    /// End of the frame on the air.
    pub end_us: u64,
    /// Transmit power in dBm.
    pub tx_power_dbm: f64,
    /// Band/channel the frame rides on.
    pub tune: Tune,
}

/// Where a node sits on the medium's grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Site {
    /// Never placed: its transmissions are held like a moving node's,
    /// and the cell grid enumerates it as no one's receiver.
    Unplaced,
    /// The cell of a static node's position.
    Cell((i64, i64)),
    /// The node moves, so its cell changes: it is checked exactly on
    /// every scan.
    Mobile,
}

/// The transmissions still held on the medium, bucketed by where an
/// interferer can be: a scan visits only the buckets within reach of
/// the receiver, never the whole list.
///
/// A static transmitter's entries sit in the `(tune, cell)` bucket of
/// its site; a moving or unplaced transmitter's sit in one
/// always-scanned mobile bucket. Both scans are "any entry matches"
/// predicates, so the order buckets are visited in cannot change an
/// outcome.
#[derive(Debug)]
struct ActiveSet {
    /// Cell edge in metres.
    cell_m: f64,
    buckets: CellMap<Vec<Transmission>>,
    mobile: Vec<Transmission>,
    /// Entries held across all buckets.
    held: usize,
}

impl ActiveSet {
    fn new(cell_m: f64) -> ActiveSet {
        ActiveSet {
            cell_m,
            buckets: CellMap::default(),
            mobile: Vec::new(),
            held: 0,
        }
    }

    /// Holds `tx`, sent from a node at `site`.
    fn push(&mut self, tx: Transmission, site: Site) {
        self.held += 1;
        match site {
            Site::Cell(cell) => {
                let key = CellKey {
                    tune: tx.tune,
                    cell,
                };
                self.buckets.entry(key).or_default().push(tx);
            }
            Site::Mobile | Site::Unplaced => self.mobile.push(tx),
        }
    }

    /// Takes `id`'s held entries to the mobile bucket: it started
    /// moving, so its cell no longer describes where it is.
    fn follow(&mut self, id: NodeId) {
        let mobile = &mut self.mobile;
        self.buckets.retain(|_, bucket| {
            bucket.retain(|t| {
                let stays = t.from != id;
                if !stays {
                    mobile.push(t.clone());
                }
                stays
            });
            !bucket.is_empty()
        });
    }

    /// Drops every entry `keep` rejects, and the buckets it empties.
    fn retain(&mut self, keep: impl Fn(&Transmission) -> bool) {
        self.mobile.retain(&keep);
        let mut held = self.mobile.len();
        self.buckets.retain(|_, bucket| {
            bucket.retain(&keep);
            held += bucket.len();
            !bucket.is_empty()
        });
        self.held = held;
    }

    /// The neighbourhood radius, in cells, that covers every point
    /// within `range_m` of a cell (saturates for an unbounded range).
    fn reach(&self, range_m: f64) -> i64 {
        let cells = (range_m / self.cell_m).ceil();
        if cells < (1u64 << 31) as f64 {
            cells.max(0.0) as i64
        } else {
            i64::MAX
        }
    }

    /// Whether any held entry a receiver at `at` could hear on `tune`,
    /// within `reach` cells, satisfies `hit`. Every co-tune entry whose
    /// transmitter lies within `reach` cell edges of `at` is visited;
    /// others may be.
    fn any_near(
        &self,
        tune: Tune,
        at: (f64, f64),
        reach: i64,
        mut hit: impl FnMut(&Transmission) -> bool,
    ) -> bool {
        if self.mobile.iter().any(&mut hit) {
            return true;
        }
        let (cx, cy) = cell_of(self.cell_m, at);
        let side = reach.saturating_mul(2).saturating_add(1);
        if side.saturating_mul(side) as u64 > self.buckets.len() as u64 {
            // A wider neighbourhood than the set holds buckets: visiting
            // every co-tune bucket is the cheaper superset.
            return self
                .buckets
                .iter()
                .filter(|(key, _)| key.tune == tune)
                .any(|(_, bucket)| bucket.iter().any(&mut hit));
        }
        for dx in -reach..=reach {
            for dy in -reach..=reach {
                let key = CellKey {
                    tune,
                    cell: (cx + dx, cy + dy),
                };
                if let Some(bucket) = self.buckets.get(&key) {
                    if bucket.iter().any(&mut hit) {
                        return true;
                    }
                }
            }
        }
        false
    }
}

/// The shared medium: the one place that decides who hears a
/// transmission and what each receiver decodes. It keeps where every
/// node sits, the transmissions still on the air and the propagation
/// RNG, so link draws are reproducible.
#[derive(Debug)]
pub struct Medium {
    config: MediumConfig,
    propagation: PropagationMode,
    rng: ChaCha8Rng,
    /// Per node, where it sits: the one placement record, for its
    /// transmissions and its receptions alike.
    sites: Vec<Site>,
    /// Static nodes by `(tune, cell)` — the receivers a cell-grid
    /// transmission looks up. Lookups only, never iterated into a
    /// result, so the map costs nothing in determinism; an emptied
    /// bucket is removed.
    listeners: CellMap<Vec<NodeId>>,
    /// Placed nodes that move.
    moving: Vec<NodeId>,
    active: ActiveSet,
    /// When the active set was last pruned.
    last_prune_us: u64,
    /// Carrier-sense reach in cells for the loudest transmit power
    /// registered so far (`loudest_dbm`): no transmission on the set
    /// is sensed beyond it.
    cs_reach: i64,
    loudest_dbm: f64,
    noise_dbm: f64,
    /// Fault decisions draw from this dedicated stream (`seed ^
    /// FAULT_STREAM`), never from `rng`, so a clean plan leaves the
    /// propagation draws — and therefore every result — untouched.
    fault_rng: ChaCha8Rng,
    burst: Option<GilbertElliott>,
    burst_bad: bool,
    snr_faults: SnrDegradation,
    /// Seed for the keyed (per-reception) draw mode: fading and FER
    /// draws come from a ChaCha8 stream keyed on (seed, from, to,
    /// start_us) instead of the shared sequential stream, making each
    /// reception's randomness independent of evaluation *order* — the
    /// property that lets the cell grid skip out-of-range receivers
    /// without perturbing anyone else's draws.
    keyed_seed: u64,
}

/// Mixes one word into a splitmix64 hash state — the keyed-draw mode's
/// per-reception seed derivation.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Outcome of receiving one frame at one receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RxOutcome {
    /// Mean received power in dBm (before fading).
    pub rx_power_dbm: f64,
    /// Post-fading SNR in dB.
    pub snr_db: f64,
    /// Whether the preamble was detectable at all.
    pub detectable: bool,
    /// Whether the FCS check passes (link errors + collisions folded in).
    pub fcs_ok: bool,
    /// Whether an overlapping transmission corrupted this frame.
    pub collided: bool,
    /// Whether injected burst loss corrupted a frame that would
    /// otherwise have decoded (always `false` under a clean plan).
    pub fault_dropped: bool,
}

impl Medium {
    /// A medium with the given config and propagation mode, seeded
    /// deterministically. Every mode indexes nodes and transmissions
    /// on one grid of `max_range_m` cells. Call [`place`](Self::place)
    /// for every node before it transmits or receives.
    pub fn new(config: MediumConfig, propagation: PropagationMode, seed: u64) -> Medium {
        Medium {
            config,
            propagation,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x4d45_4449_554d), // "MEDIUM"
            noise_dbm: noise_floor_dbm(config.bandwidth_mhz, config.noise_figure_db),
            sites: Vec::new(),
            listeners: CellMap::default(),
            moving: Vec::new(),
            active: ActiveSet::new(cell_edge_m(config.max_range_m)),
            last_prune_us: 0,
            cs_reach: 0,
            loudest_dbm: f64::NEG_INFINITY,
            fault_rng: ChaCha8Rng::seed_from_u64(seed ^ FAULT_STREAM),
            burst: None,
            burst_bad: false,
            snr_faults: SnrDegradation::default(),
            keyed_seed: seed ^ 0x004b_4559_4544, // "KEYED"
        }
    }

    /// Installs medium-level faults: burst loss and per-direction SNR
    /// penalties. Passing `None` / a zero degradation restores the clean
    /// medium.
    pub fn set_faults(&mut self, burst: Option<GilbertElliott>, snr: SnrDegradation) {
        self.burst = burst;
        self.burst_bad = false;
        self.snr_faults = snr;
    }

    /// The noise floor in dBm.
    pub fn noise_dbm(&self) -> f64 {
        self.noise_dbm
    }

    /// The configuration.
    pub fn config(&self) -> &MediumConfig {
        &self.config
    }

    /// Records where node `id`, tuned to `tune`, sits: the cell of its
    /// fixed position, or the moving list when it has a velocity. A
    /// node that starts moving takes the transmissions it still holds
    /// to the always-scanned mobile bucket; one that stops leaves them
    /// there (that bucket is scanned from everywhere).
    pub fn place(&mut self, id: NodeId, tune: Tune, position: (f64, f64), moving: bool) {
        if self.sites.len() <= id.0 {
            self.sites.resize(id.0 + 1, Site::Unplaced);
        }
        let site = if moving {
            Site::Mobile
        } else {
            Site::Cell(cell_of(self.active.cell_m, position))
        };
        let was = std::mem::replace(&mut self.sites[id.0], site);
        if was == site {
            return;
        }
        match was {
            Site::Cell(cell) => self.unlist(CellKey { tune, cell }, id),
            Site::Mobile => self.moving.retain(|&n| n != id),
            Site::Unplaced => {}
        }
        if let Site::Cell(cell) = site {
            self.listeners
                .entry(CellKey { tune, cell })
                .or_default()
                .push(id);
        } else {
            self.moving.push(id);
            if matches!(was, Site::Cell(_)) {
                self.active.follow(id);
            }
        }
    }

    /// Moves a static node between tune buckets when its radio retunes
    /// from `old` to `new`; a moving node's tune is checked on every
    /// enumeration instead.
    pub fn retune(&mut self, id: NodeId, old: Tune, new: Tune) {
        if let Some(&Site::Cell(cell)) = self.sites.get(id.0) {
            self.unlist(CellKey { tune: old, cell }, id);
            let key = CellKey { tune: new, cell };
            self.listeners.entry(key).or_default().push(id);
        }
    }

    fn unlist(&mut self, key: CellKey, id: NodeId) {
        if let Some(bucket) = self.listeners.get_mut(&key) {
            bucket.retain(|&n| n != id);
            if bucket.is_empty() {
                self.listeners.remove(&key);
            }
        }
    }

    /// Number of `(tune, cell)` buckets holding a static node (an
    /// occupancy figure for the city metrics).
    pub fn occupied_cells(&self) -> usize {
        self.listeners.len()
    }

    /// Collects into `out`, ascending by `NodeId`, the nodes a
    /// transmission by `from` on `tune`, ending at `end_us` with its
    /// transmitter at `tx_pos`, arrives at:
    ///
    /// * `AllPairs`: every other node;
    /// * `OracleAllPairs`: every other node on `tune` within
    ///   `max_range_m` at `end_us`, by brute force;
    /// * `CellGrid`: the same nodes, found in the 3×3 cell
    ///   neighbourhood of `tx_pos` (which covers every point within one
    ///   cell edge of it) and on the moving list.
    ///
    /// The oracle and the grid apply one predicate in one order, which
    /// is what keeps the two keyed modes draw-for-draw identical.
    pub fn receivers(
        &self,
        from: NodeId,
        tune: Tune,
        tx_pos: (f64, f64),
        end_us: u64,
        arena: &NodeArena,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        let max_range = self.config.max_range_m;
        let hears =
            |id: NodeId| id != from && arena.distance_to_point(tx_pos, id, end_us) <= max_range;
        let everyone = (0..arena.len()).map(NodeId);
        match self.propagation {
            PropagationMode::AllPairs => out.extend(everyone.filter(|&id| id != from)),
            PropagationMode::OracleAllPairs => {
                out.extend(everyone.filter(|&id| arena.tune(id) == tune && hears(id)))
            }
            PropagationMode::CellGrid => {
                let (cx, cy) = cell_of(self.active.cell_m, tx_pos);
                for dx in -1..=1 {
                    for dy in -1..=1 {
                        let key = CellKey {
                            tune,
                            cell: (cx + dx, cy + dy),
                        };
                        // Plain push loops: measured faster on the
                        // city drive than `extend` over a filter.
                        if let Some(bucket) = self.listeners.get(&key) {
                            for &id in bucket {
                                if hears(id) {
                                    out.push(id);
                                }
                            }
                        }
                    }
                }
                for &id in &self.moving {
                    if arena.tune(id) == tune && hears(id) {
                        out.push(id);
                    }
                }
                out.sort_unstable();
            }
        }
    }

    /// Registers a transmission on the air, in the bucket of its
    /// transmitter's site.
    pub fn begin_transmission(&mut self, tx: Transmission) {
        if tx.tx_power_dbm > self.loudest_dbm {
            self.loudest_dbm = tx.tx_power_dbm;
            // A relative 1e-9 margin absorbs rounding, so the reach
            // never leaves out an entry the carrier-sense radius covers.
            let range = self.cs_range_m(tx.tx_power_dbm) * (1.0 + 1e-9);
            self.cs_reach = self.cs_reach.max(self.active.reach(range));
        }
        let site = self.sites.get(tx.from.0).copied().unwrap_or(Site::Unplaced);
        self.active.push(tx, site);
    }

    /// The medium's one prune policy; call it after every event. It
    /// drops held transmissions that ended more than 1 ms before
    /// `now_us` (a grace window that keeps any transmission an arrival
    /// could still need) once 1 s of simulated time has passed since
    /// the last prune. The keyed modes also prune on a 1 ms cadence
    /// while more than 64 are held, to keep the scanned buckets short
    /// at city scale. `AllPairs` keeps its exact 1 s cadence: prune
    /// timing is observable through long-airtime overlaps, and pinned
    /// results depend on it. Purely a function of simulated time and
    /// the active set, so determinism is untouched.
    pub fn prune_due(&mut self, now_us: u64) {
        let since = now_us.saturating_sub(self.last_prune_us);
        if since > 1_000_000
            || (self.propagation.keyed_draws() && self.active.held > 64 && since > 1_000)
        {
            self.prune(now_us);
            self.last_prune_us = now_us;
        }
    }

    fn prune(&mut self, now_us: u64) {
        self.active.retain(|t| t.end_us + 1_000 >= now_us);
    }

    /// Number of transmissions still held, over every bucket.
    pub fn active_len(&self) -> usize {
        self.active.held
    }

    /// Mean received power at distance `d_m` from a transmitter.
    pub fn rx_power_dbm(&self, tx_power_dbm: f64, d_m: f64) -> f64 {
        self.config.path_loss.rx_power_dbm(tx_power_dbm, d_m)
    }

    /// Whether a node at `at` tuned to `tune` senses the channel busy
    /// at `now_us`. `exclude` skips the node's own transmission;
    /// `distance_sq_to` maps an active transmitter to its **squared**
    /// distance from the sensing node, evaluated only for transmissions
    /// held in the buckets within carrier-sense reach of `at`, never per
    /// node. The threshold comparison happens in the distance domain,
    /// against the carrier-sense radius (inverse path loss), so the scan
    /// runs no `log10` or `sqrt` per entry. It agrees with comparing
    /// the received power against the threshold up to the round-trip
    /// error of [`PathLoss::distance_for_loss_db`] (~1e-15 relative).
    pub fn channel_busy(
        &self,
        now_us: u64,
        exclude: NodeId,
        tune: Tune,
        at: (f64, f64),
        distance_sq_to: impl Fn(NodeId) -> f64,
    ) -> bool {
        // One inverse per distinct tx power per call — in practice every
        // transmitter runs the same power, so the transcendentals run once.
        let mut memo = (f64::NAN, 0.0); // (tx_power_dbm, cs_range²)
        self.active.any_near(tune, at, self.cs_reach, |t| {
            if t.from == exclude || t.tune != tune || t.start_us > now_us || now_us >= t.end_us {
                return false;
            }
            if t.tx_power_dbm != memo.0 {
                let r = self.cs_range_m(t.tx_power_dbm);
                memo = (t.tx_power_dbm, r * r);
            }
            // The forward model clamps distances below at 0.1 m; mirror it.
            distance_sq_to(t.from).max(0.01) <= memo.1
        })
    }

    /// Distance within which a transmission at `tx_power_dbm` is sensed
    /// at or above the carrier-sense threshold (0 when it never is).
    fn cs_range_m(&self, tx_power_dbm: f64) -> f64 {
        let budget = tx_power_dbm - self.config.cs_threshold_dbm;
        if budget < self.config.path_loss.loss_db(0.1) {
            return 0.0;
        }
        self.config.path_loss.distance_for_loss_db(budget)
    }

    /// Evaluates the reception of a frame that occupied
    /// `[start_us, end_us]` on the air, at receiver `to`, standing at
    /// `at`, `d_m` metres from the transmitter. `interferer_distance`
    /// maps other nodes to their distance from this receiver. `tune` is
    /// the band/channel the frame rode on; only co-channel interferers
    /// corrupt it.
    ///
    /// Where the draws come from depends on the propagation mode:
    ///
    /// * `AllPairs` rides the shared sequential propagation stream:
    ///   every call consumes exactly one fading draw (plus, lazily, one
    ///   FER draw), so results depend on the global evaluation order.
    ///   This is the legacy contract every pinned result rests on. It
    ///   has no interference cutoff, so the collision scan visits every
    ///   co-tune bucket, wherever the receiver is.
    /// * The keyed modes draw fading and FER from a per-reception
    ///   stream keyed on `(seed, from, to, start_us)` — half-duplex
    ///   radios start at most one transmission per microsecond, so the
    ///   key is collision-free. Outcomes are independent of evaluation
    ///   order, which is what lets the cell grid skip out-of-range
    ///   receivers while staying draw-for-draw identical to the
    ///   all-pairs oracle on the receptions both evaluate. Interferers
    ///   past `max_range_m` do not exist, so the collision scan visits
    ///   only the buckets within that cutoff of `at`.
    ///
    /// The burst-loss fault chain steps sequentially on the dedicated
    /// fault stream in every mode.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_rx(
        &mut self,
        from: NodeId,
        to: NodeId,
        start_us: u64,
        end_us: u64,
        tx_power_dbm: f64,
        d_m: f64,
        psdu_len: usize,
        rate: BitRate,
        tune: Tune,
        at: (f64, f64),
        interferer_distance: impl Fn(NodeId) -> f64,
    ) -> RxOutcome {
        // The body reads `self`'s other fields directly, never through a
        // method, so the sequential stream is borrowed in place.
        let mut keyed_rng;
        let (rng, cutoff) = if self.propagation.keyed_draws() {
            let mut key = splitmix64(self.keyed_seed ^ from.0 as u64);
            key = splitmix64(key ^ to.0 as u64);
            key = splitmix64(key ^ start_us);
            keyed_rng = ChaCha8Rng::seed_from_u64(key);
            (&mut keyed_rng, self.config.max_range_m)
        } else {
            (&mut self.rng, f64::INFINITY)
        };
        let path_loss = self.config.path_loss;
        let rx_power = path_loss.rx_power_dbm(tx_power_dbm, d_m);
        let mut faded = self.config.fading.faded_power_dbm(rx_power, rng);
        // Injected asymmetric link-budget penalty (0 under a clean plan).
        let penalty = self.snr_faults.penalty_db(from.0, to.0);
        if penalty != 0.0 {
            faded -= penalty;
        }
        let snr_db = faded - self.noise_dbm;
        let detectable = faded >= self.config.cs_threshold_dbm && link::detectable(snr_db);

        // Collision check: any other transmission overlapping this frame's
        // airtime whose power at the receiver is within the capture
        // threshold corrupts the frame.
        let reach = self.active.reach(cutoff);
        let collided = self.active.any_near(tune, at, reach, |t| {
            if t.from == from || t.tune != tune {
                return false;
            }
            let overlaps = t.start_us < end_us && start_us < t.end_us;
            if !overlaps {
                return false;
            }
            let d_i = interferer_distance(t.from);
            if d_i > cutoff {
                return false;
            }
            let interferer_power = path_loss.rx_power_dbm(t.tx_power_dbm, d_i);
            faded - interferer_power < self.config.capture_threshold_db
        });

        let fer = link::fer(psdu_len, rate, snr_db);
        // Lazy FER draw: only a frame that passed detection and
        // collision checks consumes a propagation draw. Undetectable or
        // collided receptions must leave the sequential stream exactly
        // where the pre-fault simulator left it, or clean runs stop
        // being byte-identical to pinned results.
        let clean_ok = detectable && !collided && rng.gen::<f64>() >= fer;

        // Burst loss steps its Markov chain on the dedicated fault
        // stream — one step per reception — and only *counts* as a
        // fault drop when it corrupted a frame that would otherwise
        // have decoded.
        let burst_hit = match self.burst {
            Some(ge) => ge.step(&mut self.burst_bad, &mut self.fault_rng),
            None => false,
        };
        let fcs_ok = clean_ok && !burst_hit;
        RxOutcome {
            rx_power_dbm: rx_power,
            snr_db,
            detectable,
            fcs_ok,
            collided,
            fault_dropped: clean_ok && burst_hit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CH6: Tune = (polite_wifi_phy::band::Band::Ghz2, 6);
    const CH11: Tune = (polite_wifi_phy::band::Band::Ghz2, 11);
    const CH36: Tune = (polite_wifi_phy::band::Band::Ghz5, 36);
    const ORIGIN: (f64, f64) = (0.0, 0.0);

    fn medium() -> Medium {
        Medium::new(MediumConfig::default(), PropagationMode::AllPairs, 1)
    }

    #[test]
    fn close_range_reception_is_reliable() {
        let mut m = medium();
        let mut ok = 0;
        for i in 0..200 {
            let out = m.evaluate_rx(
                NodeId(0),
                NodeId(1),
                i * 1000,
                i * 1000 + 400,
                20.0,
                5.0,
                28,
                BitRate::Mbps1,
                CH6,
                ORIGIN,
                |_| f64::INFINITY,
            );
            if out.fcs_ok {
                ok += 1;
            }
        }
        assert!(ok >= 198, "only {ok}/200 at 5 m");
    }

    #[test]
    fn extreme_range_fails() {
        let mut m = medium();
        let out = m.evaluate_rx(
            NodeId(0),
            NodeId(1),
            0,
            400,
            20.0,
            1_000.0,
            28,
            BitRate::Mbps54,
            CH6,
            ORIGIN,
            |_| f64::INFINITY,
        );
        assert!(!out.fcs_ok);
        assert!(!out.detectable);
    }

    #[test]
    fn overlapping_comparable_power_collides() {
        let mut m = medium();
        m.begin_transmission(Transmission {
            from: NodeId(7),
            start_us: 100,
            end_us: 500,
            tx_power_dbm: 20.0,
            tune: CH6,
        });
        // Victim frame overlaps [100,500]; interferer at the same distance.
        let out = m.evaluate_rx(
            NodeId(0),
            NodeId(1),
            200,
            600,
            20.0,
            5.0,
            28,
            BitRate::Mbps1,
            CH6,
            ORIGIN,
            |_| 5.0,
        );
        assert!(out.collided);
        assert!(!out.fcs_ok);
    }

    #[test]
    fn capture_survives_weak_interferer() {
        let mut m = medium();
        m.begin_transmission(Transmission {
            from: NodeId(7),
            start_us: 100,
            end_us: 500,
            tx_power_dbm: 20.0,
            tune: CH6,
        });
        // Interferer is 100 m away (≫ capture threshold below our 2 m frame).
        let out = m.evaluate_rx(
            NodeId(0),
            NodeId(1),
            200,
            600,
            20.0,
            2.0,
            28,
            BitRate::Mbps1,
            CH6,
            ORIGIN,
            |_| 100.0,
        );
        assert!(!out.collided, "strong frame should capture");
    }

    #[test]
    fn cross_channel_interferer_harmless() {
        let mut m = medium();
        m.begin_transmission(Transmission {
            from: NodeId(7),
            start_us: 100,
            end_us: 500,
            tx_power_dbm: 20.0,
            tune: CH36, // different band entirely
        });
        let out = m.evaluate_rx(
            NodeId(0),
            NodeId(1),
            200,
            600,
            20.0,
            5.0,
            28,
            BitRate::Mbps1,
            CH6,
            ORIGIN,
            |_| 5.0,
        );
        assert!(!out.collided, "cross-channel frames must not collide");
    }

    #[test]
    fn carrier_sense_is_per_channel() {
        let mut m = medium();
        m.begin_transmission(Transmission {
            from: NodeId(3),
            start_us: 0,
            end_us: 1_000,
            tx_power_dbm: 20.0,
            tune: CH6,
        });
        assert!(m.channel_busy(500, NodeId(0), CH6, ORIGIN, |_| 25.0));
        assert!(!m.channel_busy(500, NodeId(0), CH36, ORIGIN, |_| 25.0));
    }

    #[test]
    fn non_overlapping_does_not_collide() {
        let mut m = medium();
        m.begin_transmission(Transmission {
            from: NodeId(7),
            start_us: 0,
            end_us: 100,
            tx_power_dbm: 20.0,
            tune: CH6,
        });
        let out = m.evaluate_rx(
            NodeId(0),
            NodeId(1),
            100,
            500,
            20.0,
            5.0,
            28,
            BitRate::Mbps1,
            CH6,
            ORIGIN,
            |_| 5.0,
        );
        assert!(!out.collided);
    }

    #[test]
    fn channel_busy_detection() {
        let mut m = medium();
        m.begin_transmission(Transmission {
            from: NodeId(3),
            start_us: 0,
            end_us: 1_000,
            tx_power_dbm: 20.0,
            tune: CH6,
        });
        assert!(m.channel_busy(500, NodeId(0), CH6, ORIGIN, |_| 25.0));
        assert!(!m.channel_busy(500, NodeId(0), CH6, ORIGIN, |_| 1e8));
        // After the transmission ends the channel is free.
        assert!(!m.channel_busy(1_500, NodeId(0), CH6, ORIGIN, |_| 25.0));
        // A node never senses its own transmission as busy.
        assert!(!m.channel_busy(500, NodeId(3), CH6, ORIGIN, |_| 25.0));
    }

    /// The distance-domain carrier-sense scan must agree with comparing
    /// the received power against the threshold across the sensing
    /// range (it works in distances so the hot path can drop the
    /// per-entry `log10`, not to change physics).
    #[test]
    fn ranged_carrier_sense_matches_exact_scan() {
        let mut m = medium();
        m.begin_transmission(Transmission {
            from: NodeId(3),
            start_us: 0,
            end_us: 1_000,
            tx_power_dbm: 20.0,
            tune: CH6,
        });
        for d in [0.05, 0.5, 5.0, 50.0, 114.0, 116.0, 150.0, 1_000.0] {
            let exact = m.rx_power_dbm(20.0, d) >= m.config().cs_threshold_dbm;
            assert_eq!(
                m.channel_busy(500, NodeId(0), CH6, ORIGIN, |_| d * d),
                exact,
                "disagree at {d} m"
            );
        }
        // The tune, time and exclusion filters still apply.
        assert!(!m.channel_busy(500, NodeId(3), CH6, ORIGIN, |_| 25.0));
        assert!(!m.channel_busy(500, NodeId(0), CH36, ORIGIN, |_| 25.0));
        assert!(!m.channel_busy(1_500, NodeId(0), CH6, ORIGIN, |_| 25.0));
    }

    #[test]
    fn prune_keeps_recent() {
        let mut m = medium();
        m.begin_transmission(Transmission {
            from: NodeId(1),
            start_us: 0,
            end_us: 100,
            tx_power_dbm: 20.0,
            tune: CH6,
        });
        m.prune(500);
        assert_eq!(m.active_len(), 1, "grace window keeps it");
        m.prune(10_000);
        assert_eq!(m.active_len(), 0);
    }

    #[test]
    fn undetectable_rx_consumes_no_fer_draw() {
        // Regression: an undetectable reception must leave the
        // propagation RNG exactly where the pre-fault simulator left it
        // — one fading draw, no FER draw — or every clean result pinned
        // before the fault layer existed silently drifts.
        use rand::SeedableRng;
        let cfg = MediumConfig::default();
        let mut m = Medium::new(cfg, PropagationMode::AllPairs, 42);
        let far = m.evaluate_rx(
            NodeId(0),
            NodeId(1),
            0,
            400,
            20.0,
            5_000.0,
            28,
            BitRate::Mbps1,
            CH6,
            ORIGIN,
            |_| f64::INFINITY,
        );
        assert!(!far.detectable);
        let near = m.evaluate_rx(
            NodeId(0),
            NodeId(1),
            1_000,
            1_400,
            20.0,
            5.0,
            28,
            BitRate::Mbps1,
            CH6,
            ORIGIN,
            |_| f64::INFINITY,
        );

        // Replay the expected draw sequence on a parallel RNG: the far
        // frame fades but never reaches the FER draw.
        let mut rng = ChaCha8Rng::seed_from_u64(42 ^ 0x4d45_4449_554d);
        let far_power = cfg.path_loss.rx_power_dbm(20.0, 5_000.0);
        let _ = cfg.fading.faded_power_dbm(far_power, &mut rng);
        let near_power = cfg.path_loss.rx_power_dbm(20.0, 5.0);
        let faded = cfg.fading.faded_power_dbm(near_power, &mut rng);
        let noise = noise_floor_dbm(cfg.bandwidth_mhz, cfg.noise_figure_db);
        assert!(
            (near.snr_db - (faded - noise)).abs() < 1e-9,
            "far reception shifted the propagation stream: {} vs {}",
            near.snr_db,
            faded - noise
        );
    }

    /// The keyed-draw mode's defining property: a reception's outcome
    /// depends only on its (from, to, start_us) key, not on how many
    /// other receptions were evaluated before it — so skipping
    /// out-of-range receivers cannot perturb anyone else's draws.
    #[test]
    fn keyed_draws_are_order_independent() {
        let eval = |m: &mut Medium, start: u64| {
            m.evaluate_rx(
                NodeId(0),
                NodeId(1),
                start,
                start + 100,
                20.0,
                30.0,
                1500,
                BitRate::Mbps54,
                CH6,
                ORIGIN,
                |_| f64::INFINITY,
            )
        };
        // Run A: evaluate receptions 0..20. Run B: only the even ones.
        let mut a = Medium::new(MediumConfig::default(), PropagationMode::CellGrid, 9);
        let full: Vec<RxOutcome> = (0..20).map(|i| eval(&mut a, i * 1_000)).collect();
        let mut b = Medium::new(MediumConfig::default(), PropagationMode::CellGrid, 9);
        let sparse: Vec<RxOutcome> = (0..20)
            .step_by(2)
            .map(|i| eval(&mut b, i * 1_000))
            .collect();
        for (k, out) in sparse.iter().enumerate() {
            assert_eq!(*out, full[2 * k], "reception {k} drifted");
        }
        // ...and a different medium seed gives different realisations.
        let mut c = Medium::new(MediumConfig::default(), PropagationMode::CellGrid, 10);
        let other: Vec<RxOutcome> = (0..20).map(|i| eval(&mut c, i * 1_000)).collect();
        assert_ne!(full, other);
    }

    /// A medium whose cell edge is two thirds of the carrier-sense
    /// range of a 20 dBm transmitter, so that power's reach spans two
    /// cells.
    fn two_cell_reach_medium() -> (Medium, f64) {
        let probe = medium();
        let cell = probe.cs_range_m(20.0) / 1.5;
        let cfg = MediumConfig {
            max_range_m: cell,
            ..MediumConfig::default()
        };
        (Medium::new(cfg, PropagationMode::CellGrid, 1), cell)
    }

    fn frame_from(id: usize, tx_power_dbm: f64) -> Transmission {
        Transmission {
            from: NodeId(id),
            start_us: 0,
            end_us: 1_000,
            tx_power_dbm,
            tune: CH6,
        }
    }

    #[test]
    fn carrier_sense_reaches_past_the_adjacent_cells() {
        let (mut m, cell) = two_cell_reach_medium();
        m.place(NodeId(3), CH6, (0.5 * cell, 0.5), false);
        m.begin_transmission(frame_from(3, 20.0));
        assert_eq!(m.cs_reach, 2);
        // 1.4 cells east of the transmitter: two cell columns over.
        let at = (1.9 * cell, 0.5);
        let d = 1.4 * cell;
        assert!(m.channel_busy(500, NodeId(0), CH6, at, |_| d * d));
    }

    /// A transmitter that starts moving while the medium still holds
    /// its frames takes them to the mobile bucket: they stay visible
    /// from wherever it has moved to.
    #[test]
    fn held_frames_follow_a_transmitter_that_starts_moving() {
        let (mut m, cell) = two_cell_reach_medium();
        m.place(NodeId(3), CH6, (0.5, 0.5), false);
        m.begin_transmission(frame_from(3, 20.0));
        // Enough other buckets that a scan visits only its own
        // neighbourhood rather than every bucket.
        for i in 10..40 {
            m.place(NodeId(i), CH36, (i as f64 * cell, -5.0 * cell), false);
            m.begin_transmission(Transmission {
                tune: CH36,
                ..frame_from(i, 20.0)
            });
        }
        let far = (20.0 * cell, 0.5);
        assert!(!m.channel_busy(500, NodeId(0), CH6, far, |_| 25.0));
        m.place(NodeId(3), CH6, (0.5, 0.5), true);
        assert_eq!(m.active_len(), 31);
        assert!(m.channel_busy(500, NodeId(0), CH6, far, |_| 25.0));
        let out = m.evaluate_rx(
            NodeId(1),
            NodeId(0),
            100,
            600,
            20.0,
            5.0,
            28,
            BitRate::Mbps1,
            CH6,
            far,
            |_| 5.0,
        );
        assert!(out.collided);
        // Stopping again leaves them where every scan looks.
        m.place(NodeId(3), CH6, (0.5, 0.5), false);
        assert!(m.channel_busy(500, NodeId(0), CH6, far, |_| 25.0));
        m.prune(10_000);
        assert_eq!(m.active_len(), 0);
    }

    mod index_vs_flat {
        use super::*;
        use proptest::prelude::*;

        const NODES: usize = 60;
        /// Nodes from this index on move from the start.
        const FIRST_MOBILE: usize = 52;
        const POWERS: [f64; 3] = [0.0, 10.0, 20.0];
        const TUNES: [Tune; 2] = [CH6, CH36];

        /// Positions are drawn in cell units over a 10×10-cell area.
        fn arb_point() -> impl Strategy<Value = (f64, f64)> {
            (-5.0f64..5.0, -5.0f64..5.0)
        }

        #[derive(Debug, Clone)]
        enum Op {
            Tx {
                from: usize,
                lead_us: u64,
                dur_us: u64,
                power: usize,
                tune: usize,
            },
            Advance(u64),
            Prune,
            /// A node starts moving and is somewhere else at once.
            Move {
                node: usize,
                to: (f64, f64),
            },
            Query {
                rx: usize,
                at: (f64, f64),
                tune: usize,
                from: usize,
                back_us: u64,
                dur_us: u64,
            },
        }

        /// One drawn operation; the class weights transmissions and
        /// queries 4, clock advances 2, prunes and moves 1.
        fn arb_op() -> impl Strategy<Value = Op> {
            (
                0u8..12,
                0..NODES,
                0..NODES,
                0u64..3_000,
                1u64..3_000,
                0..POWERS.len(),
                0..TUNES.len(),
                arb_point(),
            )
                .prop_map(|(class, a, b, t1, t2, power, tune, point)| match class {
                    0..=3 => Op::Tx {
                        from: a,
                        lead_us: t1 % 400,
                        dur_us: t2,
                        power,
                        tune,
                    },
                    4 | 5 => Op::Advance(t1),
                    6 => Op::Prune,
                    7 => Op::Move { node: a, to: point },
                    _ => Op::Query {
                        rx: a,
                        at: point,
                        tune,
                        from: b,
                        back_us: t1,
                        dur_us: t2.min(2_000),
                    },
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The bucketed active set answers every carrier-sense and
            /// collision query exactly as a flat list of the same
            /// transmissions does, across cell boundaries, a reach of
            /// two cells, moving transmitters and pruning; and the
            /// distance-domain carrier sense agrees with the
            /// power-domain threshold away from the range's edge.
            #[test]
            fn cell_index_matches_a_flat_scan(
                start in proptest::collection::vec(arb_point(), NODES..NODES + 1),
                ops in proptest::collection::vec(arb_op(), 1..240),
            ) {
                let (mut indexed, cell) = two_cell_reach_medium();
                // Never placed, so every node counts as moving and every
                // entry sits in the always-scanned mobile bucket.
                let mut unplaced = Medium::new(*indexed.config(), PropagationMode::CellGrid, 1);
                let mut pos: Vec<(f64, f64)> =
                    start.iter().map(|&(x, y)| (x * cell, y * cell)).collect();
                for (i, &p) in pos.iter().enumerate() {
                    indexed.place(NodeId(i), CH6, p, i >= FIRST_MOBILE);
                }
                let cutoff = indexed.config().max_range_m;
                let mut flat: Vec<Transmission> = Vec::new();
                let mut now = 0u64;
                for op in ops {
                    match op {
                        Op::Tx { from, lead_us, dur_us, power, tune } => {
                            let tx = Transmission {
                                from: NodeId(from),
                                start_us: now + lead_us,
                                end_us: now + lead_us + dur_us,
                                tx_power_dbm: POWERS[power],
                                tune: TUNES[tune],
                            };
                            indexed.begin_transmission(tx.clone());
                            unplaced.begin_transmission(tx.clone());
                            flat.push(tx);
                        }
                        Op::Advance(dt) => now += dt,
                        Op::Prune => {
                            indexed.prune(now);
                            unplaced.prune(now);
                            flat.retain(|t| t.end_us + 1_000 >= now);
                        }
                        Op::Move { node, to } => {
                            indexed.place(NodeId(node), CH6, pos[node], true);
                            pos[node] = (to.0 * cell, to.1 * cell);
                        }
                        Op::Query { rx, at, tune, from, back_us, dur_us } => {
                            let at = (at.0 * cell, at.1 * cell);
                            let tune = TUNES[tune];
                            let dist = |n: NodeId| {
                                let p = pos[n.0];
                                (at.0 - p.0).hypot(at.1 - p.1).max(0.1)
                            };
                            let dist_sq = |n: NodeId| {
                                let p = pos[n.0];
                                (at.0 - p.0).powi(2) + (at.1 - p.1).powi(2)
                            };
                            let rx = NodeId(rx);
                            let sensed = |t: &&Transmission| {
                                t.from != rx
                                    && t.tune == tune
                                    && t.start_us <= now
                                    && now < t.end_us
                            };
                            // The power-domain predicate is the oracle the
                            // distance-domain scan must reproduce.
                            let exact = flat.iter().filter(sensed).any(|t| {
                                indexed.rx_power_dbm(t.tx_power_dbm, dist(t.from))
                                    >= indexed.config().cs_threshold_dbm
                            });
                            let ranged = flat.iter().filter(sensed).any(|t| {
                                let r = indexed.cs_range_m(t.tx_power_dbm);
                                dist_sq(t.from).max(0.01) <= r * r
                            });
                            // Entries within rounding of the carrier-sense
                            // range are not judged.
                            let on_edge = flat.iter().filter(sensed).any(|t| {
                                let r = indexed.cs_range_m(t.tx_power_dbm);
                                (dist(t.from) - r).abs() <= 1e-9 * r
                            });
                            if !on_edge {
                                prop_assert_eq!(ranged, exact);
                            }
                            for m in [&indexed, &unplaced] {
                                prop_assert_eq!(m.channel_busy(now, rx, tune, at, dist_sq), ranged);
                            }

                            let from = NodeId(from);
                            let start_us = now.saturating_sub(back_us);
                            let end_us = start_us + dur_us;
                            let d = dist(from);
                            let eval = |m: &mut Medium| {
                                m.evaluate_rx(
                                    from, rx, start_us, end_us, 20.0, d, 100,
                                    BitRate::Mbps1, tune, at, dist,
                                )
                            };
                            let got = eval(&mut indexed);
                            prop_assert_eq!(got, eval(&mut unplaced));
                            // The flat collision predicate, with the faded
                            // power recovered from the outcome; entries
                            // within rounding of the capture edge are not
                            // judged.
                            let faded = got.snr_db + indexed.noise_dbm();
                            let capture = indexed.config().capture_threshold_db;
                            let margins: Vec<f64> = flat
                                .iter()
                                .filter(|t| {
                                    t.from != from
                                        && t.tune == tune
                                        && t.start_us < end_us
                                        && start_us < t.end_us
                                        && dist(t.from) <= cutoff
                                })
                                .map(|t| {
                                    faded - indexed.rx_power_dbm(t.tx_power_dbm, dist(t.from))
                                        - capture
                                })
                                .collect();
                            if margins.iter().all(|m| m.abs() > 1e-9) {
                                prop_assert_eq!(got.collided, margins.iter().any(|&m| m < 0.0));
                            }
                        }
                    }
                    prop_assert_eq!(indexed.active_len(), flat.len());
                    prop_assert_eq!(unplaced.active_len(), flat.len());
                }
            }
        }
    }

    #[test]
    fn determinism_under_seed() {
        let run = |seed: u64| {
            let mut m = Medium::new(MediumConfig::default(), PropagationMode::AllPairs, seed);
            (0..50)
                .map(|i| {
                    m.evaluate_rx(
                        NodeId(0),
                        NodeId(1),
                        i * 1000,
                        i * 1000 + 100,
                        20.0,
                        30.0,
                        1500,
                        BitRate::Mbps54,
                        CH6,
                        ORIGIN,
                        |_| f64::INFINITY,
                    )
                    .fcs_ok
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    /// A cell-grid medium on 100 m cells.
    fn grid_medium() -> Medium {
        let cfg = MediumConfig {
            max_range_m: 100.0,
            ..MediumConfig::default()
        };
        Medium::new(cfg, PropagationMode::CellGrid, 1)
    }

    #[test]
    fn grid_finds_exactly_the_in_range_co_tune_nodes() {
        let mut arena = NodeArena::new();
        let mut m = grid_medium();
        // 0: transmitter at origin; 1: in range; 2: out of range;
        // 3: in range but other channel; 4: moving, in range.
        let spots = [
            (0.0, 0.0),
            (40.0, 0.0),
            (250.0, 0.0),
            (10.0, 10.0),
            (60.0, 0.0),
        ];
        let tunes = [CH6, CH6, CH6, CH11, CH6];
        for (i, (&p, &t)) in spots.iter().zip(&tunes).enumerate() {
            arena.push(p, t);
            m.place(NodeId(i), t, p, i == 4);
        }
        let mut out = Vec::new();
        m.receivers(NodeId(0), CH6, ORIGIN, 0, &arena, &mut out);
        assert_eq!(out, vec![NodeId(1), NodeId(4)]);
        assert_eq!(m.occupied_cells(), 3);
    }

    #[test]
    fn grid_neighbourhood_covers_cell_boundaries() {
        let mut arena = NodeArena::new();
        let mut m = grid_medium();
        // Receiver just across a cell boundary from the transmitter,
        // and another a cell-diagonal away but still in range.
        let spots = [(99.0, 99.0), (101.0, 99.0), (160.0, 160.0)];
        for (i, &p) in spots.iter().enumerate() {
            arena.push(p, CH6);
            m.place(NodeId(i), CH6, p, false);
        }
        let mut out = Vec::new();
        m.receivers(NodeId(0), CH6, (99.0, 99.0), 0, &arena, &mut out);
        assert_eq!(out, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn retune_and_set_moving_keep_buckets_consistent() {
        let mut arena = NodeArena::new();
        let mut m = grid_medium();
        for (i, p) in [(5.0, 5.0), (6.0, 5.0)].into_iter().enumerate() {
            arena.push(p, CH6);
            m.place(NodeId(i), CH6, p, false);
        }

        let mut out = Vec::new();
        m.retune(NodeId(1), CH6, CH11);
        arena.set_tune(NodeId(1), CH11);
        assert_eq!(m.occupied_cells(), 2);
        m.receivers(NodeId(0), CH6, (5.0, 5.0), 0, &arena, &mut out);
        assert!(out.is_empty());
        m.receivers(NodeId(1), CH11, (6.0, 5.0), 0, &arena, &mut out);
        assert!(out.is_empty(), "node 0 stayed on CH6");

        m.place(NodeId(1), CH11, (6.0, 5.0), true);
        arena.set_velocity(NodeId(1), (1.0, 0.0));
        assert_eq!(m.occupied_cells(), 1);
        m.receivers(NodeId(0), CH11, (5.0, 5.0), 0, &arena, &mut out);
        assert_eq!(out, vec![NodeId(1)]);
    }
}
