//! The wardriving survey pipeline (paper §3, Table 2): one segment
//! engine, two drive policies.
//!
//! The paper's rig was a three-thread Scapy program on a laptop with an
//! RTL8812AU dongle: thread 1 discovered nearby devices by sniffing,
//! thread 2 injected fake frames at discovered targets, thread 3 verified
//! the ACKs. This module reproduces that *logic* — the same role
//! inference and temporal fake→ACK pairing, with no ground-truth
//! peeking — once:
//!
//! * thread 1 is [`Sniffer`], thread 3 is [`AckVerifier::pairing`], and
//!   both run over the attacker's capture in one pump;
//! * a private segment engine builds a neighbourhood (the devices within
//!   radio range of the car at one stretch of the drive, all on one
//!   channel), pumps its capture in 250 ms slices and injects thread 2's
//!   fakes on one schedule.
//!
//! The two segment drives differ only in policy:
//!
//! * [`WardriveScanner`] (Table 2): devices ring a parked car; thread 2
//!   backs off and quarantines per [`RetryPolicy`], and the dwell
//!   stretches for stragglers;
//! * [`CityWardrive`]: devices scatter over a city square, the car drives
//!   through at 50 km/h, and thread 2 gives up after `max_attempts`.
//!
//! The `ext_driveby` scenario is not a segment drive. It builds one
//! continuous street simulation through the harness's
//! `ScenarioBuilder`, with the car as a moving monitor node, and reuses
//! only [`Sniffer`] and [`AckVerifier::pairing`] over its capture.
//!
//! The two segment drives partition the city into per-channel segments.
//! Each segment scan is a self-contained function of its own derived
//! seed (`seed ^ segment_index`), the segments fan across the experiment
//! harness's worker pool, and results merge in segment order, so a report
//! is byte-identical whether one worker scanned the whole city or eight
//! split it.

use crate::retry::RetryPolicy;
use crate::verifier::{AckPairing, AckVerifier};
use polite_wifi_devices::{CityPopulation, DeviceSpec};
use polite_wifi_frame::{builder, Frame, MacAddr};
use polite_wifi_harness::{derive_trial_seed, Runner};
use polite_wifi_mac::{Role, StationConfig};
use polite_wifi_obs::{names, Obs};
use polite_wifi_phy::rate::BitRate;
use polite_wifi_sim::{FaultProfile, MediumConfig, NodeId, PropagationMode, SimConfig, Simulator};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, HashMap, HashSet};

/// A discovery: a transmitter address, the role the sniffer *infers*
/// from the frame kind that revealed it (beacons/probe responses mean AP,
/// everything else means client), and whether a beacon advertised 802.11w
/// management-frame protection — the same inference a real wardriving
/// rig makes, with no ground-truth peeking.
pub type Discovery = (MacAddr, Role, bool);

/// Scanner configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WardriveScanner {
    /// Simulation seed.
    pub seed: u64,
    /// Devices per neighbourhood segment (how many are in range at once).
    pub segment_size: usize,
    /// Simulated dwell time per segment, µs.
    pub dwell_us: u64,
    /// Fake frames injected per discovered target.
    pub fakes_per_target: u32,
    /// Channel/device fault profile each segment runs under.
    pub faults: FaultProfile,
    /// Retry/backoff/quarantine policy for pending targets.
    pub retry: RetryPolicy,
}

impl Default for WardriveScanner {
    fn default() -> Self {
        WardriveScanner {
            seed: 20,
            segment_size: 48,
            dwell_us: 2_500_000,
            fakes_per_target: 3,
            faults: FaultProfile::Clean,
            retry: RetryPolicy::default(),
        }
    }
}

/// The survey's outcome — everything Table 2 reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanReport {
    /// Devices whose transmissions the sniffer heard.
    pub discovered: usize,
    /// Devices that verifiably ACKed a fake frame.
    pub verified: usize,
    /// Verified client devices per vendor, descending.
    pub client_counts: Vec<(String, u32)>,
    /// Verified APs per vendor, descending.
    pub ap_counts: Vec<(String, u32)>,
    /// Verified client total.
    pub total_clients: u32,
    /// Verified AP total.
    pub total_aps: u32,
    /// Distinct vendors among verified clients.
    pub client_vendor_count: usize,
    /// Distinct vendors among verified APs.
    pub ap_vendor_count: usize,
    /// Distinct vendors overall.
    pub distinct_vendor_count: usize,
    /// Targets quarantined after exhausting the retry budget or the
    /// per-target verify timeout (always 0 on a clean channel).
    pub quarantined: usize,
    /// Verified APs whose beacons advertised 802.11w (PMF). The paper's
    /// footnote 2: they ACK fakes and answer forged RTS all the same.
    pub pmf_aps: u32,
    /// Simulated survey time, µs.
    pub survey_time_us: u64,
}

polite_wifi_obs::impl_to_json! { ScanReport {
    discovered, verified, client_counts, ap_counts, total_clients, total_aps, client_vendor_count,
    ap_vendor_count, distinct_vendor_count, quarantined, pmf_aps, survey_time_us
} }

/// Thread 1 of the paper's pipeline: discover devices by sniffing.
/// Emits each transmitter address the first time it is heard, with the
/// role inferred from the revealing frame — beacons and probe responses
/// come from APs; everything else is treated as a client.
#[derive(Debug, Clone)]
pub struct Sniffer {
    seen: HashSet<MacAddr>,
}

impl Sniffer {
    /// A sniffer that never reports the attacker's own address.
    pub fn new(attacker: MacAddr) -> Sniffer {
        Sniffer {
            seen: HashSet::from([attacker]),
        }
    }

    /// Feeds one captured frame; returns the discovery it makes, if any.
    /// A PMF beacon from an already-known AP is reported again, since the
    /// PMF flag may arrive on a later beacon than the discovery.
    pub fn observe(&mut self, frame: &Frame) -> Option<Discovery> {
        use polite_wifi_frame::ManagementBody;
        let ta = frame.transmitter()?;
        let (role, pmf) = match frame {
            Frame::Mgmt(m) => match &m.body {
                ManagementBody::Beacon { elements, .. } => {
                    use polite_wifi_frame::ie::{element_id, InformationElement};
                    let pmf = InformationElement::find(elements, element_id::RSN)
                        .is_some_and(|rsn| rsn.rsn_has_pmf());
                    (Role::AccessPoint, pmf)
                }
                ManagementBody::ProbeResponse { .. } => (Role::AccessPoint, false),
                _ => (Role::Client, false),
            },
            _ => (Role::Client, false),
        };
        if !ta.is_unicast() {
            None
        } else if self.seen.insert(ta) {
            Some((ta, role, pmf))
        } else {
            pmf.then_some((ta, role, true))
        }
    }
}

/// Both segment drives advance in slices of this length: run the
/// simulator, pump the capture, inject the next round of fakes.
const SLICE_US: u64 = 250_000;

/// After the last slice a segment runs this much longer, so trailing
/// injections and their ACKs land before the final pump.
const TAIL_US: u64 = 300_000;

/// Thread 2's per-target bookkeeping: how many times a pending target
/// has been injected at, when it may be injected at again (backoff),
/// and when the clock on its verify timeout started.
#[derive(Default)]
struct TargetRetry {
    attempts: u32,
    next_due_us: u64,
    first_attempt_us: Option<u64>,
}

/// One neighbourhood segment mid-scan: the simulated neighbourhood, the
/// attacker's dongle tuned to its channel, and the discover/verify state
/// over the dongle's capture. Both segment drives build, pump and inject
/// through it; what they inject at, and when they stop, is theirs.
struct Segment {
    sim: Simulator,
    attacker: NodeId,
    members: HashSet<MacAddr>,
    sniffer: Sniffer,
    pairing: AckPairing,
    /// Capture frames already pumped.
    pumped: usize,
    /// Every discovery in capture order, PMF re-announcements included.
    discovered: Vec<Discovery>,
    /// Members heard at least once.
    heard: HashSet<MacAddr>,
    /// Verified targets (the first report of each ends its pending entry).
    verified: HashSet<MacAddr>,
    /// Targets thread 2 is injecting at, MAC-ordered so injection times
    /// never depend on hash-map seeding.
    pending: BTreeMap<MacAddr, TargetRetry>,
}

impl Segment {
    /// Builds one segment (all devices share one band/channel). The
    /// attacker's dongle starts at the origin, tuned to the first device,
    /// in monitor mode with retries off, moving at `velocity` if given.
    /// Each device then stands where `place` draws it; each client
    /// probes every 400–700 ms until `probe_horizon_us`. The fault
    /// profile goes in last: stall schedules attach to the first
    /// monitor-mode node, the attacker's dongle.
    fn build(
        config: SimConfig,
        segment: &[&DeviceSpec],
        seed: u64,
        velocity: Option<(f64, f64)>,
        probe_horizon_us: u64,
        faults: FaultProfile,
        mut place: impl FnMut(&mut ChaCha8Rng) -> (f64, f64),
    ) -> Segment {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut sim = Simulator::new(config, rng.gen());
        let mut attacker_cfg = StationConfig::client(MacAddr::FAKE);
        if let Some(first) = segment.first() {
            attacker_cfg.band = first.band;
            attacker_cfg.channel = first.channel;
        }
        let attacker = sim.add_node(attacker_cfg, (0.0, 0.0));
        sim.set_monitor(attacker, true);
        sim.set_retries(attacker, false);
        if let Some(velocity) = velocity {
            sim.set_velocity(attacker, velocity);
        }

        let mut members: HashSet<MacAddr> = HashSet::new();
        for spec in segment {
            let pos = place(&mut rng);
            let mut cfg = StationConfig::client(spec.mac);
            cfg.role = spec.role;
            cfg.band = spec.band;
            cfg.channel = spec.channel;
            cfg.behavior = spec.behavior;
            cfg.ssid = spec.ssid.clone();
            cfg.beacon_interval_us = match spec.role {
                Role::AccessPoint => Some(102_400),
                Role::Client => None,
            };
            let id = sim.add_node(cfg, pos);
            members.insert(spec.mac);
            // Clients reveal themselves with periodic probe requests.
            if spec.role == Role::Client {
                let mut t = rng.gen_range(0..500_000u64);
                let mut seq = 0u16;
                while t < probe_horizon_us {
                    sim.inject(t, id, builder::probe_request(spec.mac, seq), BitRate::Mbps1);
                    seq = seq.wrapping_add(1);
                    t += rng.gen_range(400_000..700_000u64);
                }
            }
        }
        sim.install_faults(&faults.plan());

        Segment {
            sim,
            attacker,
            members,
            sniffer: Sniffer::new(MacAddr::FAKE),
            pairing: AckVerifier::new(MacAddr::FAKE).pairing(),
            pumped: 0,
            discovered: Vec::new(),
            heard: HashSet::new(),
            verified: HashSet::new(),
            pending: BTreeMap::new(),
        }
    }

    /// Runs the segment to `until_us`, then drains the dongle's new
    /// capture through threads 1 and 3: a member heard for the first
    /// time becomes a pending target unless it already verified, and a
    /// verified target leaves the pending set. A member is queued only
    /// once, so a later sighting (a PMF AP re-announces itself on every
    /// beacon) never hands a quarantined target a fresh retry budget.
    fn pump(&mut self, until_us: u64) {
        self.sim.run_until(until_us);
        let frames = self.sim.node(self.attacker).capture.frames();
        for cf in &frames[self.pumped..] {
            if let Some(discovery @ (mac, _, _)) = self.sniffer.observe(&cf.frame) {
                if self.members.contains(&mac)
                    && self.heard.insert(mac)
                    && !self.verified.contains(&mac)
                {
                    self.pending.insert(mac, TargetRetry::default());
                }
                self.discovered.push(discovery);
            }
            if let Some(exchange) = self.pairing.observe(cf.ts_us, &cf.frame) {
                if self.verified.insert(exchange.victim) {
                    self.pending.remove(&exchange.victim);
                }
            }
        }
        self.pumped = frames.len();
    }

    /// Pumps the nominal dwell slice by slice, calling `round` after each
    /// slice to inject the next one's fakes. Returns the time reached.
    fn dwell(&mut self, dwell_us: u64, mut round: impl FnMut(&mut Segment, u64)) -> u64 {
        let mut now = 0;
        while now < dwell_us {
            now += SLICE_US;
            self.pump(now);
            round(self, now);
        }
        now
    }

    /// Injects `fakes` fake null frames at each target, in order, for the
    /// slice starting at `slice_start_us`: target `i`'s fakes start
    /// 2 ms + i × 1.5 ms in and are spread evenly across the slice, so
    /// the gap between them stays under a power-save victim's ~100 ms
    /// wake window.
    fn inject_fakes(&mut self, slice_start_us: u64, targets: &[MacAddr], fakes: u32) {
        let hop = SLICE_US / u64::from(fakes.max(1));
        for (i, mac) in (0u64..).zip(targets) {
            for k in 0..u64::from(fakes) {
                self.sim.inject(
                    slice_start_us + 2_000 + i * 1_500 + k * hop,
                    self.attacker,
                    builder::fake_null_frame(*mac, MacAddr::FAKE),
                    BitRate::Mbps1,
                );
            }
        }
    }
}

/// Plans a drive's segments (see [`plan_channel_segments`]), scans each
/// on a `workers`-thread pool under its derived seed (`seed ^ index`),
/// and folds every segment's observability snapshot into `obs` in
/// segment order. Returns the outcomes in segment order, so everything
/// merged from them is independent of the worker count.
fn scan_segments<T: Send>(
    population: &CityPopulation,
    segment_size: usize,
    seed: u64,
    workers: usize,
    obs: &mut Obs,
    scan: impl Fn(&[&DeviceSpec], u64) -> (T, Obs) + Sync,
) -> Vec<T> {
    let segments = plan_channel_segments(population, segment_size);
    let outcomes = Runner::new(workers).run_indexed(segments.len(), |i| {
        scan(&segments[i], derive_trial_seed(seed, i as u64))
    });
    (0u64..)
        .zip(outcomes)
        .map(|(i, (outcome, segment_obs))| {
            obs.absorb(&segment_obs, i);
            outcome
        })
        .collect()
}

/// What one Table 2 segment scan produced.
struct SegmentOutcome {
    discovered: Vec<Discovery>,
    verified: HashSet<MacAddr>,
    quarantined: Vec<MacAddr>,
    survey_time_us: u64,
}

impl WardriveScanner {
    /// Runs the survey over a population on one worker. Returns the
    /// Table 2 aggregate. Equivalent to `run_sharded(population, 1)` —
    /// and, by construction, to any other worker count.
    pub fn run(&self, population: &CityPopulation) -> ScanReport {
        self.run_sharded(population, 1)
    }

    /// Runs the survey with the city's segments fanned across a worker
    /// pool. Each segment scan is a pure function of the scanner config
    /// and its derived seed (`seed ^ segment_index`), and outcomes merge
    /// in segment order — so every worker count produces byte-identical
    /// reports, and the wall-clock speedup is the only difference.
    pub fn run_sharded(&self, population: &CityPopulation, workers: usize) -> ScanReport {
        self.run_observed(population, workers, &mut Obs::new())
    }

    /// [`run_sharded`](Self::run_sharded), additionally folding every
    /// segment's observability snapshot (fault/retry counters and
    /// histograms) into `obs` in segment order — so an experiment's
    /// envelope reports them byte-identically at any worker count.
    pub fn run_observed(
        &self,
        population: &CityPopulation,
        workers: usize,
        obs: &mut Obs,
    ) -> ScanReport {
        let outcomes = scan_segments(
            population,
            self.segment_size,
            self.seed,
            workers,
            obs,
            |segment, seed| self.scan_segment(segment, seed),
        );

        // --- Merge in segment order (scheduling-independent). ---
        let mut discovered: HashMap<MacAddr, (Role, bool)> = HashMap::new();
        let mut verified: HashSet<MacAddr> = HashSet::new();
        let mut quarantined: HashSet<MacAddr> = HashSet::new();
        let mut survey_time_us = 0u64;
        for outcome in outcomes {
            for (mac, role, pmf) in outcome.discovered {
                let entry = discovered.entry(mac).or_insert((role, pmf));
                entry.1 |= pmf;
            }
            verified.extend(outcome.verified);
            quarantined.extend(outcome.quarantined);
            survey_time_us += outcome.survey_time_us;
        }

        self.aggregate(
            population,
            &discovered,
            &verified,
            quarantined.len(),
            survey_time_us,
        )
    }

    /// Scans one neighbourhood: the devices ring the parked car at
    /// 3–25 m. Thread 2 keeps injecting at every discovered target until
    /// it verifies (power-save targets doze and miss one-shot fakes),
    /// backing off per [`RetryPolicy`] once a target has soaked up its
    /// free retries, and quarantining it when the policy says the channel
    /// has wasted enough injection budget on it.
    fn scan_segment(&self, segment: &[&DeviceSpec], seed: u64) -> (SegmentOutcome, Obs) {
        // Clients keep probing past the nominal dwell, because the dwell
        // is extended for stragglers and the devices keep living their
        // lives meanwhile.
        let mut seg = Segment::build(
            SimConfig::default(),
            segment,
            seed,
            None,
            5 * self.dwell_us + TAIL_US,
            self.faults,
            |rng| {
                let angle: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                let radius: f64 = rng.gen_range(3.0..25.0);
                (radius * angle.cos(), radius * angle.sin())
            },
        );
        let mut quarantined: Vec<MacAddr> = Vec::new();
        let mut now = seg.dwell(self.dwell_us, |seg, now| {
            self.inject_round(seg, &mut quarantined, now, seed);
        });
        // Stragglers: power-save targets doze most of the time and only
        // hear fakes in their brief wake windows, and a device whose
        // every probe collided so far has not even been *heard* yet. The
        // paper's thread 2 keeps injecting while the car is in range —
        // extend the dwell (up to 4x) until every in-range device has
        // been discovered and either verified or quarantined. (Both sets
        // only ever contain segment members, so the comparison is exact.)
        let max_extension = now + 4 * self.dwell_us;
        while seg.verified.len() + quarantined.len() < seg.members.len() && now < max_extension {
            self.inject_round(&mut seg, &mut quarantined, now, seed);
            now += SLICE_US;
            seg.pump(now);
        }
        let tail = now + TAIL_US;
        seg.pump(tail);
        // A quarantined target that verified anyway (a trailing ACK beat
        // the verdict) counts as verified, not quarantined.
        quarantined.retain(|mac| !seg.verified.contains(mac));

        let outcome = SegmentOutcome {
            discovered: std::mem::take(&mut seg.discovered),
            verified: std::mem::take(&mut seg.verified),
            quarantined,
            survey_time_us: tail,
        };
        (outcome, seg.sim.take_obs())
    }

    /// One round of thread 2: injects a slice's worth of fakes at every
    /// pending target whose backoff has elapsed, and retires the targets
    /// the retry policy gives up on.
    fn inject_round(
        &self,
        seg: &mut Segment,
        quarantined: &mut Vec<MacAddr>,
        slice_start_us: u64,
        seed: u64,
    ) {
        let mut due: Vec<MacAddr> = Vec::new();
        let mut expired: Vec<MacAddr> = Vec::new();
        for (mac, state) in seg.pending.iter_mut() {
            let first = state.first_attempt_us.unwrap_or(slice_start_us);
            if self
                .retry
                .should_quarantine(state.attempts, first, slice_start_us)
            {
                expired.push(*mac);
                continue;
            }
            if slice_start_us < state.next_due_us {
                continue; // still backing off
            }
            due.push(*mac);
            state.attempts += 1;
            state.first_attempt_us.get_or_insert(slice_start_us);
            if state.attempts > 1 {
                seg.sim.obs_mut().incr(names::RETRY_ATTEMPTS);
            }
            let delay = self.retry.delay_us(state.attempts, seed ^ mac.to_u64());
            if delay > 0 {
                seg.sim.obs_mut().observe(names::RETRY_BACKOFF_US, delay);
            }
            state.next_due_us = slice_start_us + delay;
        }
        seg.inject_fakes(slice_start_us, &due, self.fakes_per_target);
        for mac in expired {
            seg.pending.remove(&mac);
            quarantined.push(mac);
            seg.sim.obs_mut().incr(names::RETRY_QUARANTINED);
            // Ring-buffer breadcrumb: when in the drive this target fell
            // out of the retry budget (trace_query's timeline view).
            seg.sim
                .obs_mut()
                .event(slice_start_us, 0, "retry.quarantine");
        }
    }

    fn aggregate(
        &self,
        population: &CityPopulation,
        discovered: &HashMap<MacAddr, (Role, bool)>,
        verified: &HashSet<MacAddr>,
        quarantined: usize,
        survey_time_us: u64,
    ) -> ScanReport {
        // Attribution works the way the paper's rig worked: vendor from
        // the OUI registry (so randomised MACs fall into "Unknown") and
        // role from how the device was discovered — no ground truth.
        let mut client_counts: HashMap<String, u32> = HashMap::new();
        let mut ap_counts: HashMap<String, u32> = HashMap::new();
        let mut pmf_aps = 0u32;
        for mac in verified {
            let vendor = population
                .registry
                .vendor_of(*mac)
                .unwrap_or("Unknown (randomised MAC)")
                .to_string();
            let (role, pmf) = discovered
                .get(mac)
                .copied()
                .unwrap_or((Role::Client, false));
            match role {
                Role::Client => *client_counts.entry(vendor).or_default() += 1,
                Role::AccessPoint => {
                    *ap_counts.entry(vendor).or_default() += 1;
                    pmf_aps += u32::from(pmf);
                }
            }
        }
        let sort = |m: HashMap<String, u32>| -> Vec<(String, u32)> {
            let mut v: Vec<(String, u32)> = m.into_iter().collect();
            v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            v
        };
        let client_counts = sort(client_counts);
        let ap_counts = sort(ap_counts);
        let total_clients: u32 = client_counts.iter().map(|(_, c)| c).sum();
        let total_aps: u32 = ap_counts.iter().map(|(_, c)| c).sum();
        let distinct: HashSet<&str> = client_counts
            .iter()
            .chain(ap_counts.iter())
            .map(|(v, _)| v.as_str())
            .collect();

        ScanReport {
            discovered: discovered.len(),
            verified: verified.len(),
            quarantined,
            client_vendor_count: client_counts.len(),
            ap_vendor_count: ap_counts.len(),
            distinct_vendor_count: distinct.len(),
            client_counts,
            ap_counts,
            total_clients,
            total_aps,
            pmf_aps,
            survey_time_us,
        }
    }
}

/// Plans the drive: radios only hear their tuned channel, so the drive
/// visits one channel at a time. Groups a population by (band, channel)
/// and chunks each group into neighbourhood segments of at most
/// `segment_size` devices; the dongle retunes at each segment boundary,
/// like a real wardriving rig's hop plan.
fn plan_channel_segments(
    population: &CityPopulation,
    segment_size: usize,
) -> Vec<Vec<&DeviceSpec>> {
    let mut by_tune: Vec<&DeviceSpec> = population.devices.iter().collect();
    by_tune.sort_by_key(|d| {
        (
            matches!(d.band, polite_wifi_phy::band::Band::Ghz5),
            d.channel,
            d.mac,
        )
    });
    let mut out: Vec<Vec<&DeviceSpec>> = Vec::new();
    for d in by_tune {
        let fits = out.last().is_some_and(|seg: &Vec<&DeviceSpec>| {
            seg.len() < segment_size.max(1) && seg[0].band == d.band && seg[0].channel == d.channel
        });
        if fits {
            out.last_mut().expect("checked").push(d);
        } else {
            out.push(vec![d]);
        }
    }
    out
}

/// The city-scale wardrive (DESIGN.md §11): a synthetic population of up
/// to a million devices, driven through on the spatial-cell simulator
/// core.
///
/// Where [`WardriveScanner`] reproduces the paper's Table 2 census on its
/// exact 5,328-device population, this drive answers the scale question —
/// what the survey costs at city volume. Devices are scattered uniformly
/// over an `area_m`-sided square; the attacker's car starts at its centre
/// and drives at 13.9 m/s (~50 km/h), discovering whatever transmits
/// within the 150 m propagation cutoff, injecting up to
/// `max_attempts × fakes_per_target` fakes per discovered target, and
/// verifying the ACKs with the same temporal pairing as the census rig.
///
/// Every segment is a pure function of `seed ^ segment_index`, so
/// reports and envelopes are byte-identical at any worker count, and the
/// `propagation` knob lets the determinism suite hold the cell grid
/// against its all-pairs oracle on the very same drive.
#[derive(Debug, Clone, Copy)]
pub struct CityWardrive {
    /// Simulation seed.
    pub seed: u64,
    /// Synthetic population size.
    pub devices: usize,
    /// Devices per neighbourhood segment.
    pub segment_size: usize,
    /// Simulated dwell time per segment, µs.
    pub dwell_us: u64,
    /// Side of the square each segment's devices scatter over, metres.
    pub area_m: f64,
    /// Fake frames injected per pending target per 250 ms slice.
    pub fakes_per_target: u32,
    /// Injection rounds before the rig gives up on a target.
    pub max_attempts: u32,
    /// Channel/device fault profile each segment runs under.
    pub faults: FaultProfile,
    /// Propagation backend — [`PropagationMode::CellGrid`] for the real
    /// drive, [`PropagationMode::OracleAllPairs`] when a test wants the
    /// brute-force oracle on the same keyed draws.
    pub propagation: PropagationMode,
}

impl Default for CityWardrive {
    fn default() -> Self {
        CityWardrive {
            seed: 2026,
            devices: 100_000,
            segment_size: 2048,
            dwell_us: 1_000_000,
            area_m: 3_000.0,
            fakes_per_target: 3,
            max_attempts: 3,
            faults: FaultProfile::Clean,
            propagation: PropagationMode::CellGrid,
        }
    }
}

/// What the city drive measured.
#[derive(Debug, Clone, PartialEq)]
pub struct CityReport {
    /// Population size the drive covered.
    pub devices: usize,
    /// Neighbourhood segments the drive was partitioned into.
    pub segments: usize,
    /// Distinct devices the sniffer heard across all segments.
    pub discovered: usize,
    /// Devices that verifiably ACKed a fake frame.
    pub verified: usize,
    /// Scheduler events dispatched across all segments — the numerator
    /// of the events/s throughput figure.
    pub events_dispatched: u64,
    /// Interference cells (per tune) holding a static device, summed
    /// over segments.
    pub occupied_cells: u64,
    /// Simulated survey time, µs, summed over segments.
    pub survey_time_us: u64,
}

polite_wifi_obs::impl_to_json! { CityReport {
    devices, segments, discovered, verified, events_dispatched, occupied_cells, survey_time_us
} }

/// One city segment's outcome.
struct CitySegmentOutcome {
    discovered: usize,
    verified: usize,
    events_dispatched: u64,
    occupied_cells: u64,
    survey_time_us: u64,
}

impl CityWardrive {
    /// The simulator configuration every city segment runs under: the
    /// 150 m urban propagation cutoff with the configured propagation
    /// backend.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            medium: MediumConfig {
                max_range_m: 150.0,
                ..MediumConfig::default()
            },
            propagation: self.propagation,
        }
    }

    /// Runs the drive on one worker.
    pub fn run(&self) -> CityReport {
        self.run_sharded(1)
    }

    /// Runs the drive with segments fanned across a worker pool; the
    /// report is byte-identical at any worker count.
    pub fn run_sharded(&self, workers: usize) -> CityReport {
        self.run_observed(workers, &mut Obs::new())
    }

    /// [`run_sharded`](Self::run_sharded), folding every segment's
    /// observability snapshot into `obs` in segment order.
    pub fn run_observed(&self, workers: usize, obs: &mut Obs) -> CityReport {
        let population = CityPopulation::synthetic_city(self.devices, self.seed);
        let outcomes = scan_segments(
            &population,
            self.segment_size,
            self.seed,
            workers,
            obs,
            |segment, seed| self.scan_segment(segment, seed),
        );

        let mut report = CityReport {
            devices: self.devices,
            segments: outcomes.len(),
            discovered: 0,
            verified: 0,
            events_dispatched: 0,
            occupied_cells: 0,
            survey_time_us: 0,
        };
        for outcome in outcomes {
            report.discovered += outcome.discovered;
            report.verified += outcome.verified;
            report.events_dispatched += outcome.events_dispatched;
            report.occupied_cells += outcome.occupied_cells;
            report.survey_time_us += outcome.survey_time_us;
        }
        report
    }

    /// Scans one neighbourhood segment: the devices scatter over the full
    /// city square and the car drives through the middle, injecting at
    /// each discovered target for at most `max_attempts` rounds.
    fn scan_segment(&self, segment: &[&DeviceSpec], seed: u64) -> (CitySegmentOutcome, Obs) {
        let half = self.area_m / 2.0;
        let mut seg = Segment::build(
            self.sim_config(),
            segment,
            seed,
            Some((13.9, 0.0)), // ~50 km/h, eastbound
            self.dwell_us + TAIL_US,
            self.faults,
            |rng| (rng.gen_range(-half..half), rng.gen_range(-half..half)),
        );
        let now = seg.dwell(self.dwell_us, |seg, now| {
            let mut due: Vec<MacAddr> = Vec::new();
            for (mac, state) in seg.pending.iter_mut() {
                if state.attempts < self.max_attempts {
                    state.attempts += 1;
                    due.push(*mac);
                }
            }
            seg.inject_fakes(now, &due, self.fakes_per_target);
        });
        let tail = now + TAIL_US;
        seg.pump(tail);

        let occupied_cells = seg.sim.occupied_cells() as u64;
        if occupied_cells > 0 {
            seg.sim
                .obs_mut()
                .add(names::SIM_CELLS_OCCUPIED, occupied_cells);
        }
        let outcome = CitySegmentOutcome {
            discovered: seg.heard.len(),
            verified: seg.verified.len(),
            events_dispatched: seg.sim.events_dispatched(),
            occupied_cells,
            survey_time_us: tail,
        };
        (outcome, seg.sim.take_obs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polite_wifi_devices::population::{TABLE2_APS, TABLE2_CLIENTS};

    /// A small synthetic population for fast tests.
    fn mini_population(clients: u32, aps: u32) -> CityPopulation {
        let full = CityPopulation::table2(5);
        let mut devices: Vec<DeviceSpec> = Vec::new();
        devices.extend(full.clients().take(clients as usize).cloned());
        devices.extend(full.aps().take(aps as usize).cloned());
        CityPopulation {
            devices,
            registry: full.registry.clone(),
        }
    }

    #[test]
    fn mini_survey_discovers_and_verifies_everyone() {
        let pop = mini_population(10, 10);
        let scanner = WardriveScanner {
            segment_size: 10,
            dwell_us: 2_000_000,
            ..WardriveScanner::default()
        };
        let report = scanner.run(&pop);
        assert_eq!(report.verified, 20, "report: {report:?}");
        assert_eq!(report.total_clients, 10);
        assert_eq!(report.total_aps, 10);
        // The survey time covers all segments.
        assert!(report.survey_time_us >= 2 * scanner.dwell_us);
    }

    #[test]
    fn verification_rate_is_100_percent_of_discovered_members() {
        // The paper's headline: every discovered device responded.
        let pop = mini_population(15, 15);
        let scanner = WardriveScanner {
            segment_size: 15,
            dwell_us: 2_000_000,
            ..WardriveScanner::default()
        };
        let report = scanner.run(&pop);
        assert_eq!(report.verified, report.discovered.min(30));
    }

    #[test]
    fn vendor_attribution_flows_through() {
        let pop = mini_population(30, 0);
        let scanner = WardriveScanner {
            segment_size: 15,
            dwell_us: 2_000_000,
            ..WardriveScanner::default()
        };
        let report = scanner.run(&pop);
        // The first 30 clients of the deterministic population are all
        // Apple (count 143 ≥ 30).
        assert_eq!(report.client_counts.len(), 1);
        assert_eq!(report.client_counts[0].0, "Apple");
        assert_eq!(report.client_counts[0].1, 30);
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let pop = mini_population(12, 12);
        let scanner = WardriveScanner {
            segment_size: 6,
            dwell_us: 1_500_000,
            ..WardriveScanner::default()
        };
        let sequential = scanner.run_sharded(&pop, 1);
        assert_eq!(sequential, scanner.run_sharded(&pop, 4));
        assert_eq!(sequential, scanner.run(&pop));
    }

    #[test]
    fn faulty_survey_is_worker_invariant_and_counts_retries() {
        let pop = mini_population(8, 8);
        let scanner = WardriveScanner {
            segment_size: 8,
            dwell_us: 1_500_000,
            // One fake per round on a congested channel: roughly half
            // the rounds fail end-to-end, so retries are certain.
            fakes_per_target: 1,
            faults: FaultProfile::Congested,
            ..WardriveScanner::default()
        };
        let mut obs_seq = Obs::new();
        let sequential = scanner.run_observed(&pop, 1, &mut obs_seq);
        let mut obs_par = Obs::new();
        let parallel = scanner.run_observed(&pop, 4, &mut obs_par);
        assert_eq!(sequential, parallel);
        assert_eq!(obs_seq.metrics_json(), obs_par.metrics_json());
        // The impaired channel visibly injected faults and forced the
        // pipeline past one injection round on at least one target.
        assert!(obs_seq.counters.get(names::FAULT_MEDIUM_FRAMES_DROPPED) > 0);
        assert!(obs_seq.counters.get(names::RETRY_ATTEMPTS) > 0);
    }

    #[test]
    fn impatient_policy_quarantines_slow_targets() {
        let pop = mini_population(10, 10);
        let scanner = WardriveScanner {
            segment_size: 10,
            dwell_us: 2_000_000,
            faults: FaultProfile::Congested,
            retry: crate::retry::RetryPolicy {
                free_retries: 0,
                quarantine_after: 1,
                ..crate::retry::RetryPolicy::default()
            },
            ..WardriveScanner::default()
        };
        let report = scanner.run(&pop);
        assert!(report.quarantined > 0, "report: {report:?}");
        assert!(report.verified + report.quarantined <= 20);
        // Quarantine is a retry-budget decision, so it must also be
        // reproducible run-to-run.
        assert_eq!(report, scanner.run(&pop));
    }

    #[test]
    fn quarantine_is_final_for_beaconing_pmf_aps() {
        // A PMF AP re-announces itself on every beacon. Once the retry
        // policy quarantines it, those re-announcements must not queue
        // it again with a fresh retry budget.
        let full = CityPopulation::table2(5);
        let devices: Vec<DeviceSpec> = full
            .aps()
            .filter(|d| d.behavior.pmf)
            .take(20)
            .cloned()
            .collect();
        assert_eq!(devices.len(), 20);
        let pop = CityPopulation {
            devices,
            registry: full.registry.clone(),
        };
        let scanner = WardriveScanner {
            segment_size: 10,
            dwell_us: 2_000_000,
            faults: FaultProfile::Congested,
            retry: crate::retry::RetryPolicy {
                free_retries: 0,
                quarantine_after: 1,
                ..crate::retry::RetryPolicy::default()
            },
            ..WardriveScanner::default()
        };
        let mut obs = Obs::new();
        let report = scanner.run_observed(&pop, 1, &mut obs);
        let verdicts = obs.counters.get(names::RETRY_QUARANTINED);
        assert!(verdicts > 0, "report: {report:?}");
        assert_eq!(
            report.quarantined as u64, verdicts,
            "a quarantined target was queued again: {report:?}"
        );
        assert_eq!(report.verified + report.quarantined, 20);
    }

    #[test]
    fn clean_channel_never_quarantines() {
        let pop = mini_population(10, 10);
        let scanner = WardriveScanner {
            segment_size: 10,
            dwell_us: 2_000_000,
            ..WardriveScanner::default()
        };
        let report = scanner.run(&pop);
        assert_eq!(report.quarantined, 0, "report: {report:?}");
        assert_eq!(report.verified, 20);
    }

    /// A fast city config for tests: a small population on a dense
    /// square so segments still discover and verify someone.
    fn mini_city() -> CityWardrive {
        CityWardrive {
            devices: 600,
            segment_size: 200,
            dwell_us: 500_000,
            area_m: 400.0,
            ..CityWardrive::default()
        }
    }

    #[test]
    fn city_drive_discovers_and_verifies_devices() {
        let report = mini_city().run();
        assert!(report.segments >= 3, "report: {report:?}");
        assert!(report.discovered > 0, "report: {report:?}");
        assert!(report.verified > 0, "report: {report:?}");
        assert!(report.verified <= report.discovered);
        assert!(report.events_dispatched > 0);
        assert!(report.occupied_cells > 0);
    }

    #[test]
    fn city_drive_is_worker_invariant() {
        let drive = mini_city();
        let mut obs_seq = Obs::new();
        let sequential = drive.run_observed(1, &mut obs_seq);
        let mut obs_par = Obs::new();
        let parallel = drive.run_observed(4, &mut obs_par);
        assert_eq!(sequential, parallel);
        assert_eq!(obs_seq.metrics_json(), obs_par.metrics_json());
    }

    #[test]
    fn city_grid_matches_the_all_pairs_oracle() {
        // The cell grid only prunes candidates past the propagation
        // cutoff; reception fates — and therefore the whole report —
        // must match the brute-force oracle on the same keyed draws.
        let grid = mini_city().run();
        let oracle = CityWardrive {
            propagation: PropagationMode::OracleAllPairs,
            ..mini_city()
        }
        .run();
        assert_eq!(grid.discovered, oracle.discovered);
        assert_eq!(grid.verified, oracle.verified);
        assert_eq!(grid.events_dispatched, oracle.events_dispatched);
        // The medium indexes placements in every mode.
        assert!(grid.occupied_cells > 0);
        assert_eq!(oracle.occupied_cells, grid.occupied_cells);
    }

    #[test]
    fn table2_constants_available_for_comparison() {
        // The harness prints measured-vs-paper; make sure the reference
        // rows exist and sum correctly.
        let named: u32 = TABLE2_CLIENTS.iter().map(|(_, c)| c).sum();
        assert_eq!(named, 893);
        let named_aps: u32 = TABLE2_APS.iter().map(|(_, c)| c).sum();
        assert_eq!(named_aps, 3010);
    }
}
