//! The simulator: event loop, transmissions, receptions, retries.

use crate::arena::{CellGrid, NodeArena};
use crate::event::{Event, EventQueue};
use crate::faults::{FaultPlan, StallSchedule};
use crate::medium::{Medium, MediumConfig, RxOutcome, Transmission, Tune};
use crate::node::{AckWait, Node, NodeId, QueuedFrame};
use polite_wifi_frame::{ControlFrame, Frame};
use polite_wifi_mac::{MacAction, RadioState, Station, StationConfig};
use polite_wifi_obs::frametrace::hop;
use polite_wifi_obs::{names, Obs};
use polite_wifi_pcap::capture::Capture;
use polite_wifi_phy::airtime;
use polite_wifi_phy::rate::BitRate;
use polite_wifi_radiotap::{ChannelInfo, Radiotap};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// How a transmission finds its receivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PropagationMode {
    /// Every node evaluates every transmission, with fading/FER draws
    /// on the shared sequential propagation stream — the mode every
    /// pinned result was produced under. The default.
    #[default]
    AllPairs,
    /// All-pairs enumeration with the per-reception keyed draw scheme
    /// and the `max_range_m` cutoff — the brute-force oracle the cell
    /// grid mode is tested against.
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

/// Simulator-wide configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimConfig {
    /// Radio environment.
    pub medium: MediumConfig,
    /// Receiver-enumeration strategy.
    pub propagation: PropagationMode,
}

/// A frame mid-transmission at a node.
#[derive(Debug, Clone)]
struct CurrentTx {
    frame: Frame,
    rate: BitRate,
    is_response: bool,
    start_us: u64,
}

/// Runtime state of a scheduled stall fault: the resolved target plus
/// how many stalls have fired (for the reboot cadence).
#[derive(Debug, Clone, Copy)]
struct StallState {
    node: NodeId,
    schedule: StallSchedule,
    count: u32,
}

/// The discrete-event radio simulator. See the crate docs for an example.
pub struct Simulator {
    config: SimConfig,
    now_us: u64,
    queue: EventQueue,
    nodes: Vec<Node>,
    /// Hot per-node state (positions, tunes, timing guards, ACK waits)
    /// in SoA layout, indexed by `NodeId`.
    hot: NodeArena,
    /// The spatial cell grid, present only in `CellGrid` mode.
    grid: Option<CellGrid>,
    /// Reusable receiver-candidate buffer for the grid fan-out.
    scratch: Vec<NodeId>,
    current_tx: Vec<Option<CurrentTx>>,
    medium: Medium,
    rng: ChaCha8Rng,
    global_capture: Capture,
    next_token: u64,
    last_prune_us: u64,
    obs: Obs,
    seed: u64,
    fault_plan: FaultPlan,
    clock_drift_ppm: f64,
    /// The node whose clock drifts (the attacker's dongle); `None`
    /// disables drift entirely.
    drift_node: Option<NodeId>,
    stall: Option<StallState>,
    /// Next causal trace ID: the injection ordinal within this trial.
    next_trace_id: u64,
    /// Events handled since construction (or the last reset).
    events_dispatched: u64,
}

impl Simulator {
    /// Builds an empty simulator with a deterministic seed.
    pub fn new(config: SimConfig, seed: u64) -> Simulator {
        Simulator {
            config,
            now_us: 0,
            queue: EventQueue::new(),
            nodes: Vec::new(),
            hot: NodeArena::new(),
            grid: (config.propagation == PropagationMode::CellGrid)
                .then(|| CellGrid::new(config.medium.max_range_m)),
            scratch: Vec::new(),
            current_tx: Vec::new(),
            medium: Medium::new(config.medium, seed),
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x5349_4d55_4c41_544f), // "SIMULATO"
            global_capture: Capture::new(),
            next_token: 0,
            last_prune_us: 0,
            obs: Obs::new(),
            seed,
            fault_plan: FaultPlan::clean(),
            clock_drift_ppm: 0.0,
            drift_node: None,
            stall: None,
            next_trace_id: 0,
            events_dispatched: 0,
        }
    }

    /// The configuration this simulator was built with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Events handled since construction (or the last reset).
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Non-empty interference cells on the spatial grid (0 outside
    /// `CellGrid` mode).
    pub fn occupied_cells(&self) -> usize {
        self.grid.as_ref().map_or(0, |g| g.occupied_cells())
    }

    /// The seed this simulator was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault plan this simulator runs under (clean by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Installs a fault plan. Call *after* the scenario's nodes exist:
    /// the device-level faults (stall schedule and clock drift) target
    /// the first monitor-mode node (the attacker's dongle) and are
    /// silently dropped when there is none. A clean plan is a no-op,
    /// leaving the run byte-identical to a simulator without the fault
    /// layer. [`reset`](Self::reset) re-installs the plan for the new
    /// trial.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        self.fault_plan = *plan;
        self.medium.set_faults(plan.burst_loss, plan.snr);
        self.clock_drift_ppm = plan.clock_drift_ppm;
        self.stall = None;
        let dongle = self.nodes.iter().position(|n| n.monitor).map(NodeId);
        self.drift_node = if plan.clock_drift_ppm != 0.0 {
            dongle
        } else {
            None
        };
        if let Some(schedule) = plan.stall {
            if let Some(node) = dongle {
                self.stall = Some(StallState {
                    node,
                    schedule,
                    count: 0,
                });
                self.queue
                    .push(self.now_us + schedule.period_us, Event::StallStart { node });
            }
        }
    }

    /// Applies the configured clock drift to one of `id`'s timer
    /// intervals: the drifting node's timers run slow by
    /// `clock_drift_ppm` parts per million. Identity for every other
    /// node and under a clean plan — drift models the *dongle's* cheap
    /// oscillator, so a victim's SIFS response latency (the
    /// fingerprinting signal) is never perturbed.
    fn drifted(&self, id: NodeId, interval_us: u64) -> u64 {
        if self.drift_node != Some(id) || self.clock_drift_ppm == 0.0 {
            return interval_us;
        }
        interval_us + ((interval_us as f64 * self.clock_drift_ppm) / 1e6).round() as u64
    }

    /// Adds a node at a position (metres) and returns its id.
    pub fn add_node(&mut self, cfg: StationConfig, position: (f64, f64)) -> NodeId {
        let tune = (cfg.band, cfg.channel);
        let station = Station::new(cfg);
        let id = NodeId(self.nodes.len());
        let node = Node::new(station);
        // Bootstrap the station's timers.
        let poll_at = node.station.next_poll_at(self.now_us);
        if let Some(at) = poll_at {
            self.queue.push(at, Event::Poll { node: id });
        }
        self.nodes.push(node);
        self.hot.push(position, tune);
        if self.config.propagation.keyed_draws() {
            // Register the bootstrap chain with the poll dedup.
            self.hot.poll_at[id.0] = poll_at.unwrap_or(u64::MAX);
        }
        if let Some(grid) = &mut self.grid {
            grid.insert(id, tune, position, false);
        }
        self.current_tx.push(None);
        id
    }

    /// Current simulation time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Number of pending events in the queue — a regression guard
    /// against event-chain leaks (a healthy simulation keeps this small
    /// and bounded regardless of how long it has run).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Immutable access to a node's station.
    pub fn station(&self, id: NodeId) -> &Station {
        &self.nodes[id.0].station
    }

    /// Mutable access to a node's station (associate peers, block MACs...).
    pub fn station_mut(&mut self, id: NodeId) -> &mut Station {
        &mut self.nodes[id.0].station
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Puts a node's radio in monitor mode (captures everything it hears).
    pub fn set_monitor(&mut self, id: NodeId, monitor: bool) {
        self.nodes[id.0].monitor = monitor;
    }

    /// Enables or disables transmitter-side retries for a node (the
    /// paper's Scapy injector fires and forgets).
    pub fn set_retries(&mut self, id: NodeId, enabled: bool) {
        self.nodes[id.0].retries_enabled = enabled;
    }

    /// Sets a node's velocity in m/s (constant linear motion from its
    /// configured position).
    pub fn set_velocity(&mut self, id: NodeId, velocity: (f64, f64)) {
        self.hot.set_velocity(id, velocity);
        if let Some(grid) = &mut self.grid {
            let moving = velocity != (0.0, 0.0);
            grid.set_moving(id, self.hot.tune(id), self.hot.base_position(id), moving);
        }
    }

    /// Sets a node's transmit power in dBm.
    pub fn set_tx_power(&mut self, id: NodeId, dbm: f64) {
        self.hot.set_tx_power_dbm(id, dbm);
    }

    /// Enables ARF rate adaptation on a node's queued transmissions.
    pub fn enable_rate_adaptation(&mut self, id: NodeId, arf: polite_wifi_mac::rate_control::Arf) {
        self.nodes[id.0].rate_ctrl = Some(arf);
    }

    /// The ideal-observer capture of every completed transmission.
    pub fn global_capture(&self) -> &Capture {
        &self.global_capture
    }

    /// The propagation model in use (e.g. for inverting RSSI to range).
    pub fn path_loss(&self) -> polite_wifi_phy::pathloss::PathLoss {
        self.medium.config().path_loss
    }

    /// The band/channel a node's radio is tuned to.
    pub fn tune_of(&self, id: NodeId) -> Tune {
        self.hot.tune(id)
    }

    /// Retunes a node's radio (the wardriving dongle hops channels).
    pub fn retune(&mut self, id: NodeId, band: polite_wifi_phy::band::Band, channel: u8) {
        let old = self.hot.tune(id);
        self.nodes[id.0].station.retune(band, channel);
        let new = (band, channel);
        self.hot.set_tune(id, new);
        if let Some(grid) = &mut self.grid {
            grid.retune(id, old, new, self.hot.base_position(id));
        }
    }

    /// Kicks off a client's on-air join sequence (authentication →
    /// association) with the AP at `ap_mac`.
    pub fn start_join(&mut self, client: NodeId, ap_mac: polite_wifi_frame::MacAddr) {
        let actions = self.nodes[client.0].station.start_join(ap_mac);
        self.apply_actions(client, actions, None);
    }

    /// Schedules a frame to be handed to `node`'s transmit queue at
    /// `at_us` (contends via CSMA from then on).
    pub fn inject(&mut self, at_us: u64, node: NodeId, frame: Frame, rate: BitRate) {
        self.queue
            .push(at_us.max(self.now_us), Event::Inject { node, frame, rate });
    }

    /// Like [`Simulator::inject`], but data frames larger than
    /// `threshold` payload bytes are MAC-fragmented first; each fragment
    /// contends (and is acknowledged) separately. Returns the fragment
    /// count.
    pub fn inject_fragmented(
        &mut self,
        at_us: u64,
        node: NodeId,
        frame: Frame,
        rate: BitRate,
        threshold: usize,
    ) -> usize {
        match frame {
            Frame::Data(d) => {
                let frags = polite_wifi_mac::fragment::fragment(&d, threshold);
                let n = frags.len();
                for f in frags {
                    self.inject(at_us, node, Frame::Data(f), rate);
                }
                n
            }
            other => {
                self.inject(at_us, node, other, rate);
                1
            }
        }
    }

    /// Runs the event loop until simulated time reaches `t_us`.
    ///
    /// Every handled event feeds the scheduler self-profiler: the event
    /// kind is attributed the virtual time it advanced the clock by
    /// (deterministic — part of canonical exports) and the wall-clock
    /// time its handler took (machine-dependent — kept out of them).
    pub fn run_until(&mut self, t_us: u64) {
        let mut dispatched = 0u64;
        while let Some(at) = self.queue.peek_time() {
            if at > t_us {
                break;
            }
            let ev = self.queue.pop().expect("peeked");
            let virt_us = ev.at_us.saturating_sub(self.now_us);
            let kind = ev.event.kind_name();
            self.now_us = ev.at_us;
            let t0 = std::time::Instant::now();
            self.handle(ev.event);
            let wall_ns = t0.elapsed().as_nanos() as u64;
            self.obs.prof(kind, virt_us, wall_ns);
            dispatched += 1;
            if self.now_us.saturating_sub(self.last_prune_us) > 1_000_000 {
                self.medium.prune(self.now_us);
                self.last_prune_us = self.now_us;
            } else if self.config.propagation.keyed_draws()
                && self.medium.active_len() > 64
                && self.now_us.saturating_sub(self.last_prune_us) > 1_000
            {
                // City scale: the collision and carrier-sense scans are
                // linear in the active list, so the keyed modes prune
                // aggressively (the grace window in `Medium::prune`
                // keeps any transmission an arrival could still need).
                // The legacy mode keeps its exact 1 s cadence — prune
                // timing is observable through long-airtime overlaps,
                // and pinned results depend on it. Purely a function of
                // simulated time and the active list, so determinism is
                // untouched.
                self.medium.prune(self.now_us);
                self.last_prune_us = self.now_us;
            }
        }
        self.now_us = self.now_us.max(t_us);
        self.events_dispatched += dispatched;
        if dispatched > 0 {
            self.obs.add(names::SIM_EVENTS_DISPATCHED, dispatched);
        }
    }

    /// Runs until the event queue drains completely (useful in tests).
    pub fn run_to_completion(&mut self) {
        self.run_until(u64::MAX);
    }

    /// Resets the simulator to time zero under a new seed, keeping the
    /// declared population: every node is rebuilt from its original
    /// `StationConfig` at its t=0 position, with monitor mode, retry
    /// policy, velocity and transmit power preserved. Station-level
    /// runtime state (associations, joins, power-save, captures,
    /// ledgers) restarts from cold boot — the point is a fresh,
    /// independently-seeded trial over the same scenario.
    pub fn reset(&mut self, seed: u64) {
        let specs: Vec<_> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let id = NodeId(i);
                (
                    n.station.config().clone(),
                    self.hot.base_position(id),
                    self.hot.velocity(id),
                    n.monitor,
                    n.retries_enabled,
                    self.hot.tx_power_dbm(id),
                )
            })
            .collect();
        let plan = self.fault_plan;
        *self = Simulator::new(self.config, seed);
        for (cfg, position, velocity, monitor, retries, tx_power_dbm) in specs {
            let id = self.add_node(cfg, position);
            self.set_velocity(id, velocity);
            self.nodes[id.0].monitor = monitor;
            self.nodes[id.0].retries_enabled = retries;
            self.hot.set_tx_power_dbm(id, tx_power_dbm);
        }
        // The fault plan is part of the scenario, not the trial: the
        // fresh trial runs under the same plan with its new seed.
        if !plan.is_clean() {
            self.install_faults(&plan);
        }
    }

    /// Snapshot of a node's radio-state time accounting up to now —
    /// the tap the harness's metrics ledger reads energy figures from.
    pub fn activity_totals(&self, id: NodeId) -> crate::ledger::StateTotals {
        self.nodes[id.0].ledger.snapshot(self.now_us)
    }

    /// This simulator's observability scope: counters, histograms, spans
    /// and the event ring accumulated since construction (or the last
    /// [`reset`](Self::reset), which starts a fresh scope).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Mutable access to the observability scope, for experiment-level
    /// counters recorded alongside the simulator's own.
    pub fn obs_mut(&mut self) -> &mut Obs {
        &mut self.obs
    }

    /// Takes the accumulated observability scope, leaving a fresh one.
    /// The harness calls this at the end of each trial and absorbs the
    /// snapshot in trial order.
    pub fn take_obs(&mut self) -> Obs {
        std::mem::replace(&mut self.obs, Obs::new())
    }

    /// Records the time since the soliciting frame began transmitting as
    /// a completed `frame.exchange` and bumps `counter`. On a traced
    /// exchange this is the injector's "verify" hop: the response came
    /// back, `arg` carries the round-trip.
    fn note_exchange_done(
        &mut self,
        id: NodeId,
        started_us: u64,
        counter: &str,
        trace: Option<u64>,
    ) {
        let dur = self.now_us.saturating_sub(started_us);
        self.obs.incr(counter);
        self.obs.observe("sim.exchange_rtt_us", dur);
        self.obs
            .span("frame.exchange", id.0 as u64, started_us, dur);
        if let Some(tid) = trace {
            self.obs
                .trace_hop(tid, self.now_us, id.0 as u64, hop::ACK_RX, dur);
        }
    }

    /// Assigns the next trace ID to a frame injected at `node` and, when
    /// the deterministic `(seed, id)` sampling keeps it, opens the trace
    /// with its `inject` hop. Unsampled frames cost one branch.
    fn begin_frame_trace(&mut self, node: NodeId) -> Option<u64> {
        let tid = self.next_trace_id;
        self.next_trace_id += 1;
        if !self.obs.trace_sampled(self.seed, tid) {
            return None;
        }
        self.obs.trace_begin(tid);
        self.obs
            .trace_hop(tid, self.now_us, node.0 as u64, hop::INJECT, 0);
        Some(tid)
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Inject { node, frame, rate } => {
                self.obs.incr("sim.frames_injected");
                let trace = self.begin_frame_trace(node);
                self.nodes[node.0].tx_queue.push_back(QueuedFrame {
                    frame,
                    rate,
                    attempts: 0,
                    trace,
                });
                self.schedule_tx_attempt(node);
            }
            Event::Poll { node } => self.do_poll(node),
            Event::TxAttempt { node } => self.do_tx_attempt(node),
            Event::ResponseTx {
                node,
                frame,
                rate,
                trace,
            } => {
                // A stalled device's firmware schedules no responses —
                // the SIFS-timed ACK/CTS silently never airs.
                if self.is_stalled(node) {
                    self.obs.incr(names::FAULT_DEVICE_RESPONSES_SUPPRESSED);
                    self.obs.incr(names::FRAME_FATE_FAULT_SUPPRESSED);
                    if let Some(tid) = trace {
                        self.obs.trace_hop(
                            tid,
                            self.now_us,
                            node.0 as u64,
                            hop::FATE_FAULT_SUPPRESSED,
                            0,
                        );
                    }
                    return;
                }
                self.start_transmission(node, frame, rate, true, trace);
            }
            Event::StallStart { node } => self.do_stall_start(node),
            Event::StallEnd { node, reboot } => self.do_stall_end(node, reboot),
            Event::TxEnd { node } => self.do_tx_end(node),
            Event::Arrival {
                node,
                from,
                frame,
                rate,
                start_us,
                tune,
                trace,
            } => self.do_arrival(node, from, frame, rate, start_us, tune, trace),
            Event::AckTimeout { node, token } => self.do_ack_timeout(node, token),
        }
    }

    fn do_poll(&mut self, id: NodeId) {
        // This chain is consumed (cleared even on the stall path below,
        // so a stale marker can't block do_stall_end's fresh chain).
        self.hot.poll_at[id.0] = u64::MAX;
        if self.is_stalled(id) {
            // Frozen firmware runs no timers: this poll chain dies here
            // and do_stall_end starts a fresh one on recovery.
            // (Re-queueing it as well would leak one chain per stall.)
            return;
        }
        let now = self.now_us;
        let actions = self.nodes[id.0].station.poll(now);
        self.apply_actions(id, actions, None);
        self.reschedule_poll(id);
    }

    /// True while a fault-injected stall freezes the node.
    fn is_stalled(&self, id: NodeId) -> bool {
        self.now_us < self.hot.stalled_until[id.0]
    }

    fn reschedule_poll(&mut self, id: NodeId) {
        if let Some(at) = self.nodes[id.0].station.next_poll_at(self.now_us) {
            // Never schedule a poll at the current instant again, or a
            // timer that stays due would spin forever. Clock drift
            // stretches the interval (identity under a clean plan).
            let at = at.max(self.now_us + 1);
            let at = self.now_us + self.drifted(id, at - self.now_us);
            if self.config.propagation.keyed_draws() {
                // Poll dedup: reschedule_poll also runs after every
                // received frame, and without this guard each overheard
                // frame would spawn another self-perpetuating poll chain
                // — at city density, hundreds per node. A chain already
                // pending at or before `at` will run and reschedule
                // itself, so this push would be redundant. The legacy
                // mode keeps the duplicate chains: dropping them shifts
                // event sequence numbers, which reorders same-time
                // events and would drift every pinned result.
                if self.hot.poll_at[id.0] <= at {
                    return;
                }
                self.hot.poll_at[id.0] = at;
            }
            self.queue.push(at, Event::Poll { node: id });
        }
    }

    fn do_stall_start(&mut self, id: NodeId) {
        let Some(state) = &mut self.stall else { return };
        if state.node != id {
            return;
        }
        state.count += 1;
        let schedule = state.schedule;
        let reboot = schedule.reboot_every > 0 && state.count % schedule.reboot_every == 0;
        let now = self.now_us;
        self.hot.stalled_until[id.0] = now + schedule.duration_us;
        self.obs.incr(names::FAULT_DEVICE_STALLS);
        self.obs
            .observe(names::FAULT_DEVICE_STALL_US, schedule.duration_us);
        self.obs.event(now, id.0 as u64, "fault.stall");
        self.queue.push(
            now + schedule.duration_us,
            Event::StallEnd { node: id, reboot },
        );
        self.queue
            .push(now + schedule.period_us, Event::StallStart { node: id });
    }

    fn do_stall_end(&mut self, id: NodeId, reboot: bool) {
        let now = self.now_us;
        if reboot {
            // Cold boot: the station state machine restarts from its
            // declared config; queued frames and pending waits are lost.
            let cfg = self.nodes[id.0].station.config().clone();
            let band = cfg.band;
            let node = &mut self.nodes[id.0];
            node.station = Station::new(cfg);
            node.tx_queue.clear();
            node.tx_attempt_pending = false;
            node.csma = polite_wifi_mac::csma::Csma::new(band);
            self.hot.ack_wait[id.0] = None;
            self.obs.incr(names::FAULT_DEVICE_REBOOTS);
            self.obs.event(now, id.0 as u64, "fault.reboot");
        }
        self.reschedule_poll(id);
        self.schedule_tx_attempt(id);
    }

    fn schedule_tx_attempt(&mut self, id: NodeId) {
        let node = &mut self.nodes[id.0];
        if node.tx_attempt_pending || node.tx_queue.is_empty() {
            return;
        }
        node.tx_attempt_pending = true;
        let draw: u16 = self.rng.gen();
        let defer = node.csma.defer_us(draw) as u64;
        self.obs.observe("mac.csma_defer_us", defer);
        self.queue
            .push(self.now_us + defer, Event::TxAttempt { node: id });
    }

    fn do_tx_attempt(&mut self, id: NodeId) {
        self.nodes[id.0].tx_attempt_pending = false;
        if self.nodes[id.0].tx_queue.is_empty() {
            return;
        }
        // A stalled device transmits nothing; try again on recovery.
        if self.is_stalled(id) {
            let at = self.hot.stalled_until[id.0];
            self.nodes[id.0].tx_attempt_pending = true;
            self.queue.push(at, Event::TxAttempt { node: id });
            return;
        }
        // Half-duplex: if mid-transmission, try again after it ends.
        if self.hot.tx_busy_until[id.0] > self.now_us {
            let at = self.hot.tx_busy_until[id.0];
            self.nodes[id.0].tx_attempt_pending = true;
            self.queue.push(at, Event::TxAttempt { node: id });
            return;
        }
        // An outstanding ACK wait means the head frame is in flight.
        if self.hot.ack_wait[id.0].is_some() {
            return;
        }
        // Virtual carrier sense: the NAV set by overheard Duration fields
        // defers contended transmissions (SIFS responses are exempt).
        if self.hot.nav_until[id.0] > self.now_us {
            let at = self.hot.nav_until[id.0];
            self.nodes[id.0].tx_attempt_pending = true;
            self.queue.push(at, Event::TxAttempt { node: id });
            return;
        }
        // Carrier sense: O(active transmissions), distances on demand.
        // The keyed modes take the distance-domain scan (no `log10` or
        // `sqrt` per active entry); the legacy mode keeps the exact
        // power-domain scan its pinned results were produced with.
        let busy = {
            let now = self.now_us;
            let my_pos = self.hot.position_at(id, now);
            let hot = &self.hot;
            if self.config.propagation.keyed_draws() {
                self.medium
                    .channel_busy_ranged(now, id, self.hot.tune(id), |other| {
                        hot.distance_sq_to_point(my_pos, other, now)
                    })
            } else {
                self.medium
                    .channel_busy(now, id, self.hot.tune(id), |other| {
                        hot.distance_to_point(my_pos, other, now)
                    })
            }
        };
        if busy {
            // Busy: back off and retry.
            let draw: u16 = self.rng.gen();
            let defer = self.nodes[id.0].csma.defer_us(draw) as u64;
            self.obs.incr("mac.csma_busy_backoffs");
            self.obs.observe("mac.csma_backoff_us", defer);
            self.nodes[id.0].tx_attempt_pending = true;
            self.queue
                .push(self.now_us + defer, Event::TxAttempt { node: id });
            return;
        }
        let head = self.nodes[id.0].tx_queue.front().cloned().expect("checked");
        let rate = match &self.nodes[id.0].rate_ctrl {
            Some(arf) => arf.rate(),
            None => head.rate,
        };
        let mut frame = head.frame.clone();
        // Mark MAC-level retries.
        if head.attempts > 0 {
            match &mut frame {
                Frame::Data(d) => d.fc.retry = true,
                Frame::Mgmt(m) => m.fc.retry = true,
                Frame::Ctrl(_) => {}
            }
        }
        if let Some(tid) = head.trace {
            self.obs
                .trace_hop(tid, self.now_us, id.0 as u64, hop::TX, head.attempts as u64);
        }
        self.start_transmission(id, frame, rate, false, head.trace);
    }

    fn start_transmission(
        &mut self,
        id: NodeId,
        frame: Frame,
        rate: BitRate,
        is_response: bool,
        trace: Option<u64>,
    ) {
        if !is_response {
            // Initiating a transmission wakes (and keeps awake) a
            // power-save radio; answering with an ACK does not.
            let actions = self.nodes[id.0].station.on_transmit(self.now_us, &frame);
            self.apply_actions(id, actions, trace);
        } else if let Some(tid) = trace {
            self.obs
                .trace_hop(tid, self.now_us, id.0 as u64, hop::RESPONSE_TX, 0);
        }
        let duration = airtime::frame_duration_us(frame.air_len(), rate, false) as u64;
        let end = self.now_us + duration;
        let tx_power = self.hot.tx_power_dbm(id);
        self.hot.tx_busy_until[id.0] = end;
        {
            let node = &mut self.nodes[id.0];
            node.tx_count += 1;
            node.ledger.begin_busy(self.now_us, RadioState::Tx);
        }
        self.current_tx[id.0] = Some(CurrentTx {
            frame: frame.clone(),
            rate,
            is_response,
            start_us: self.now_us,
        });
        let tune = self.hot.tune(id);
        self.medium.begin_transmission(Transmission {
            from: id,
            start_us: self.now_us,
            end_us: end,
            tx_power_dbm: tx_power,
            tune,
        });
        self.queue.push(end, Event::TxEnd { node: id });
        // Receiver fan-out. All modes enumerate effectful receivers in
        // ascending NodeId order; the spatial modes drop receivers past
        // the hard `max_range_m` cutoff (evaluated at arrival time,
        // like the oracle), which in keyed-draw mode cannot perturb
        // anyone else's randomness.
        let start_us = self.now_us;
        let push_arrival = |queue: &mut EventQueue, rx: NodeId| {
            queue.push(
                end,
                Event::Arrival {
                    node: rx,
                    from: id,
                    frame: frame.clone(),
                    rate,
                    start_us,
                    tune,
                    trace,
                },
            );
        };
        match self.config.propagation {
            PropagationMode::AllPairs => {
                for i in 0..self.nodes.len() {
                    if i != id.0 {
                        push_arrival(&mut self.queue, NodeId(i));
                    }
                }
            }
            PropagationMode::OracleAllPairs => {
                let max_range = self.config.medium.max_range_m;
                let tx_pos = self.hot.position_at(id, end);
                for i in 0..self.nodes.len() {
                    if i != id.0 && self.hot.distance_to_point(tx_pos, NodeId(i), end) <= max_range
                    {
                        push_arrival(&mut self.queue, NodeId(i));
                    }
                }
            }
            PropagationMode::CellGrid => {
                let max_range = self.config.medium.max_range_m;
                let tx_pos = self.hot.position_at(id, end);
                let mut cands = std::mem::take(&mut self.scratch);
                self.grid
                    .as_ref()
                    .expect("grid mode")
                    .candidates(tx_pos, tune, id, max_range, end, &self.hot, &mut cands);
                for &rx in &cands {
                    push_arrival(&mut self.queue, rx);
                }
                self.scratch = cands;
            }
        }
    }

    fn do_tx_end(&mut self, id: NodeId) {
        let now = self.now_us;
        self.nodes[id.0].ledger.end_busy(now);
        let tx = match self.current_tx[id.0].take() {
            Some(tx) => tx,
            None => return,
        };
        self.obs.incr("sim.frames_txed");
        self.obs.span(
            if tx.is_response {
                "frame.tx_response"
            } else {
                "frame.tx"
            },
            id.0 as u64,
            tx.start_us,
            now.saturating_sub(tx.start_us),
        );
        // The ideal observer logs every completed transmission.
        self.global_capture.record_frame(now, &tx.frame);
        // A monitor-mode radio also captures its own transmissions, the
        // way a real monitor-mode dongle's sniffer sees injected frames.
        if self.nodes[id.0].monitor {
            self.nodes[id.0].capture.record_frame(now, &tx.frame);
        }

        if tx.is_response {
            return;
        }
        let solicits = tx.frame.solicits_ack() || tx.frame.solicits_cts();
        if solicits && self.nodes[id.0].retries_enabled {
            let token = self.next_token;
            self.next_token += 1;
            self.hot.ack_wait[id.0] = Some(AckWait {
                token,
                satisfied: false,
                started_us: tx.start_us,
            });
            let band = self.nodes[id.0].station.config().band;
            let timeout = airtime::ack_timeout_us(band, tx.rate) as u64;
            self.queue
                .push(now + timeout, Event::AckTimeout { node: id, token });
        } else {
            // Fire-and-forget: the frame is done, move on.
            self.nodes[id.0].tx_queue.pop_front();
            self.schedule_tx_attempt(id);
        }
    }

    fn do_ack_timeout(&mut self, id: NodeId, token: u64) {
        let wait = match &self.hot.ack_wait[id.0] {
            Some(w) if w.token == token => w.clone(),
            _ => return, // stale timeout
        };
        self.hot.ack_wait[id.0] = None;
        if wait.satisfied {
            return;
        }
        let node = &mut self.nodes[id.0];
        // No response: binary exponential backoff, retry or drop.
        if let Some(arf) = &mut node.rate_ctrl {
            arf.on_failure();
        }
        let head_info = node.tx_queue.front().map(|f| (f.trace, f.attempts));
        let keep = node.csma.on_failure();
        if keep {
            if let Some(head) = node.tx_queue.front_mut() {
                head.attempts += 1;
            }
        } else {
            node.tx_queue.pop_front();
            node.tx_failures += 1;
        }
        let now = self.now_us;
        self.obs.incr("sim.ack_timeouts");
        if keep {
            self.obs.incr("sim.tx_retries");
            self.obs.event(now, id.0 as u64, "ack.timeout");
            if let Some((Some(tid), attempts)) = head_info {
                self.obs
                    .trace_hop(tid, now, id.0 as u64, hop::RETRY, attempts as u64 + 1);
            }
        } else {
            self.obs.incr("sim.tx_drops");
            self.obs.event(now, id.0 as u64, "frame.dropped");
            if let Some((trace, attempts)) = head_info {
                self.obs
                    .observe(names::SIM_RETRY_CHAIN_DEPTH, attempts as u64);
                if let Some(tid) = trace {
                    self.obs
                        .trace_hop(tid, now, id.0 as u64, hop::DROP, attempts as u64);
                }
            }
        }
        self.schedule_tx_attempt(id);
    }

    /// Classifies an addressed reception's medium fate — the
    /// `frame.fate.*` taxonomy DESIGN.md §10 documents — bumping the
    /// always-on fate counter and, for a traced frame, recording the
    /// fate hop (`arg` 1 on `fate.fer_dropped` marks the injected
    /// burst-loss fault rather than the channel's intrinsic FER draw).
    fn note_arrival_fate(&mut self, id: NodeId, outcome: &RxOutcome, trace: Option<u64>) {
        let (counter, kind, arg) = if outcome.collided {
            (names::FRAME_FATE_COLLIDED, hop::FATE_COLLIDED, 0)
        } else if outcome.fault_dropped {
            (names::FRAME_FATE_FER_DROPPED, hop::FATE_FER_DROPPED, 1)
        } else if !outcome.detectable {
            (names::FRAME_FATE_UNDETECTED, hop::FATE_UNDETECTED, 0)
        } else if !outcome.fcs_ok {
            (names::FRAME_FATE_FER_DROPPED, hop::FATE_FER_DROPPED, 0)
        } else {
            (names::FRAME_FATE_DELIVERED, hop::FATE_DELIVERED, 0)
        };
        self.obs.incr(counter);
        if let Some(tid) = trace {
            self.obs.trace_hop(tid, self.now_us, id.0 as u64, kind, arg);
        }
    }

    /// Evaluates one reception on the medium, with distances computed
    /// on demand from the arena (no per-arrival allocation). Dispatches
    /// to sequential-stream or keyed draws per the propagation mode.
    fn eval_rx(
        &mut self,
        from: NodeId,
        id: NodeId,
        start_us: u64,
        psdu_len: usize,
        rate: BitRate,
        tune: Tune,
    ) -> RxOutcome {
        let now = self.now_us;
        let my_pos = self.hot.position_at(id, now);
        let d = self.hot.distance_between(id, from, now);
        let tx_power = self.hot.tx_power_dbm(from);
        let hot = &self.hot;
        let dist = |other: NodeId| hot.distance_to_point(my_pos, other, now);
        if self.config.propagation.keyed_draws() {
            self.medium.evaluate_rx_keyed(
                from, id, start_us, now, tx_power, d, psdu_len, rate, tune, dist,
            )
        } else {
            self.medium.evaluate_rx(
                from, id, start_us, now, tx_power, d, psdu_len, rate, tune, dist,
            )
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn do_arrival(
        &mut self,
        id: NodeId,
        from: NodeId,
        frame: Frame,
        rate: BitRate,
        start_us: u64,
        tune: Tune,
        trace: Option<u64>,
    ) {
        let now = self.now_us;
        // A radio tuned elsewhere hears nothing of this frame. This
        // check precedes every draw and fault-chain step, so the
        // all-pairs oracle delivering arrivals to off-tune nodes stays
        // draw-for-draw identical to the grid never scheduling them.
        if self.hot.tune(id) != tune {
            return;
        }
        // Fate hops and counters describe what happened at the frame's
        // *addressed* receiver; bystander copies stay untraced.
        let for_me = frame.receiver() == Some(self.nodes[id.0].station.mac());
        let ftrace = if for_me { trace } else { None };
        // A stalled device's radio is deaf until recovery.
        if self.is_stalled(id) {
            self.obs.incr(names::FAULT_DEVICE_RX_DROPPED_STALLED);
            if for_me {
                self.obs.incr(names::FRAME_FATE_STALL_SWALLOWED);
                if let Some(tid) = ftrace {
                    self.obs
                        .trace_hop(tid, now, id.0 as u64, hop::FATE_STALL_SWALLOWED, 0);
                }
            }
            return;
        }
        // Half-duplex: a radio that was transmitting during any part of
        // the frame cannot have received it.
        if self.hot.tx_busy_until[id.0] > start_us && id != from {
            let own_tx_overlaps = self.hot.tx_busy_until[id.0] > start_us;
            if own_tx_overlaps && self.current_or_recent_tx_overlap(id, start_us) {
                if for_me {
                    self.obs.incr(names::FRAME_FATE_COLLIDED);
                    if let Some(tid) = ftrace {
                        self.obs
                            .trace_hop(tid, now, id.0 as u64, hop::FATE_COLLIDED, 1);
                    }
                }
                return;
            }
        }
        // A dozing radio hears nothing — with one exception: the ACK for
        // the frame it just transmitted. Real radios finish the exchange
        // (PM=1 null → ACK) before powering down; without this, the doze
        // announcement would retry-storm into the attacker's power books.
        if !self.nodes[id.0].station.is_awake() {
            let my_mac = self.nodes[id.0].station.mac();
            let is_my_ack = matches!(
                &frame,
                Frame::Ctrl(ControlFrame::Ack { ra }) if *ra == my_mac
            );
            if is_my_ack && self.hot.ack_wait[id.0].is_some() {
                let outcome = self.eval_rx(from, id, start_us, frame.air_len(), rate, tune);
                if outcome.fault_dropped {
                    self.obs.incr(names::FAULT_MEDIUM_FRAMES_DROPPED);
                }
                self.note_arrival_fate(id, &outcome, ftrace);
                if outcome.fcs_ok {
                    let mut completed_at = None;
                    let depth = self.nodes[id.0]
                        .tx_queue
                        .front()
                        .map(|f| f.attempts)
                        .unwrap_or(0);
                    if let Some(mut wait) = self.hot.ack_wait[id.0].take() {
                        if !wait.satisfied {
                            wait.satisfied = true;
                            completed_at = Some(wait.started_us);
                            let node = &mut self.nodes[id.0];
                            node.acks_received += 1;
                            node.csma.on_success();
                            if let Some(arf) = &mut node.rate_ctrl {
                                arf.on_success();
                            }
                            node.tx_queue.pop_front();
                        } else {
                            self.hot.ack_wait[id.0] = Some(wait);
                        }
                    }
                    if let Some(started_us) = completed_at {
                        self.obs.observe(names::SIM_RETRY_CHAIN_DEPTH, depth as u64);
                        self.note_exchange_done(id, started_us, "sim.acks_received", ftrace);
                        self.schedule_tx_attempt(id);
                    }
                }
            } else if for_me {
                self.obs.incr(names::FRAME_FATE_DOZING);
                if let Some(tid) = ftrace {
                    self.obs
                        .trace_hop(tid, now, id.0 as u64, hop::FATE_DOZING, 0);
                }
            }
            return;
        }

        let outcome = self.eval_rx(from, id, start_us, frame.air_len(), rate, tune);
        if outcome.fault_dropped {
            self.obs.incr(names::FAULT_MEDIUM_FRAMES_DROPPED);
        }
        if for_me {
            self.note_arrival_fate(id, &outcome, ftrace);
        }

        if !outcome.detectable {
            return;
        }

        // Account RX time (the energy model charges for listening to the
        // attacker's frames as well as answering them).
        {
            let node = &mut self.nodes[id.0];
            node.ledger.begin_busy(start_us, RadioState::Rx);
            node.ledger.end_busy(now);
        }

        // Capture taps: monitor nodes record everything that decodes.
        if outcome.fcs_ok && (self.nodes[id.0].monitor || for_me) {
            let cfg = self.nodes[id.0].station.config();
            let chan = match cfg.band {
                polite_wifi_phy::band::Band::Ghz2 => ChannelInfo::ghz2(cfg.channel),
                polite_wifi_phy::band::Band::Ghz5 => ChannelInfo::ghz5(cfg.channel),
            };
            let signal = (self.medium.noise_dbm() + outcome.snr_db) as i8;
            let rt = Radiotap::capture(
                now,
                rate.radiotap_500kbps(),
                chan,
                signal,
                self.medium.noise_dbm() as i8,
            );
            self.nodes[id.0]
                .capture
                .record_with_radiotap(now, rt, &frame);
        }

        // Virtual carrier sense: frames addressed to OTHERS set this
        // node's NAV from their Duration field. This is the mechanism a
        // forged-RTS attacker abuses: the victim's automatic CTS makes
        // every bystander defer (PS-Poll's Duration field is an AID and
        // is exempt).
        if outcome.fcs_ok && !for_me {
            let nav_us = match &frame {
                Frame::Ctrl(ControlFrame::Rts { duration_us, .. })
                | Frame::Ctrl(ControlFrame::Cts { duration_us, .. }) => *duration_us as u64,
                Frame::Ctrl(_) => 0,
                Frame::Data(d) => d.duration as u64,
                Frame::Mgmt(m) => m.duration as u64,
            };
            if nav_us > 0 {
                let nav = &mut self.hot.nav_until[id.0];
                *nav = (*nav).max(now + nav_us);
            }
        }

        // Transmitter-side response matching: an ACK/CTS addressed to me
        // satisfies my outstanding wait.
        if outcome.fcs_ok && for_me {
            let my_mac = self.nodes[id.0].station.mac();
            let is_response_to_me = matches!(
                &frame,
                Frame::Ctrl(ControlFrame::Ack { ra }) if *ra == my_mac
            ) || matches!(
                &frame,
                Frame::Ctrl(ControlFrame::Cts { ra, .. }) if *ra == my_mac
            );
            if is_response_to_me {
                let mut completed_at = None;
                let depth = self.nodes[id.0]
                    .tx_queue
                    .front()
                    .map(|f| f.attempts)
                    .unwrap_or(0);
                if let Some(mut wait) = self.hot.ack_wait[id.0].take() {
                    if !wait.satisfied {
                        wait.satisfied = true;
                        completed_at = Some(wait.started_us);
                        let node = &mut self.nodes[id.0];
                        match &frame {
                            Frame::Ctrl(ControlFrame::Ack { .. }) => node.acks_received += 1,
                            Frame::Ctrl(ControlFrame::Cts { .. }) => node.cts_received += 1,
                            _ => {}
                        }
                        node.csma.on_success();
                        if let Some(arf) = &mut node.rate_ctrl {
                            arf.on_success();
                        }
                        node.tx_queue.pop_front();
                    } else {
                        self.hot.ack_wait[id.0] = Some(wait);
                    }
                } else {
                    // Fire-and-forget senders (retries off — the usual
                    // injection mode) still count their responses.
                    match &frame {
                        Frame::Ctrl(ControlFrame::Ack { .. }) => {
                            self.nodes[id.0].acks_received += 1;
                            self.obs.incr("sim.acks_received");
                        }
                        Frame::Ctrl(ControlFrame::Cts { .. }) => {
                            self.nodes[id.0].cts_received += 1;
                            self.obs.incr("sim.cts_received");
                        }
                        _ => {}
                    }
                    // The attacker-verify hop: the injector saw its
                    // forged frame answered (no wait, so no RTT arg).
                    if let Some(tid) = ftrace {
                        self.obs.trace_hop(tid, now, id.0 as u64, hop::ACK_RX, 0);
                    }
                }
                if let Some(started_us) = completed_at {
                    let counter = match &frame {
                        Frame::Ctrl(ControlFrame::Cts { .. }) => "sim.cts_received",
                        _ => "sim.acks_received",
                    };
                    self.obs.observe(names::SIM_RETRY_CHAIN_DEPTH, depth as u64);
                    self.note_exchange_done(id, started_us, counter, ftrace);
                    self.schedule_tx_attempt(id);
                }
            }
        }

        // Hand the frame to the MAC state machine. Reactions (SIFS
        // responses, enqueued deauth bursts) inherit the causal trace of
        // the frame that provoked them.
        let actions = self.nodes[id.0]
            .station
            .on_receive(now, &frame, outcome.fcs_ok, rate);
        self.apply_actions(id, actions, ftrace);
        self.reschedule_poll(id);
    }

    /// True when the node's own transmission overlapped `[start_us, now]`.
    fn current_or_recent_tx_overlap(&self, id: NodeId, start_us: u64) -> bool {
        // tx_busy_until > start_us means some transmission of ours ended
        // after the incoming frame began.
        self.hot.tx_busy_until[id.0] > start_us
    }

    fn apply_actions(&mut self, id: NodeId, actions: Vec<MacAction>, trace: Option<u64>) {
        let sifs_us = self.nodes[id.0].station.config().band.sifs_us();
        polite_wifi_mac::obs::observe_actions(&mut self.obs, sifs_us, &actions);
        for action in actions {
            match action {
                MacAction::Respond {
                    frame,
                    delay_us,
                    rate,
                } => {
                    if let Some(tid) = trace {
                        self.obs.trace_hop(
                            tid,
                            self.now_us,
                            id.0 as u64,
                            hop::SIFS_ACK,
                            delay_us as u64,
                        );
                    }
                    self.queue.push(
                        self.now_us + self.drifted(id, delay_us as u64),
                        Event::ResponseTx {
                            node: id,
                            frame,
                            rate,
                            trace,
                        },
                    );
                }
                MacAction::Enqueue { frame, rate } => {
                    self.nodes[id.0].tx_queue.push_back(QueuedFrame {
                        frame,
                        rate,
                        attempts: 0,
                        trace,
                    });
                    self.schedule_tx_attempt(id);
                }
                MacAction::Radio(state) => match state {
                    RadioState::Sleep | RadioState::Idle => {
                        let now = self.now_us;
                        let node = &mut self.nodes[id.0];
                        let prev = node.ledger.base_state();
                        node.ledger.set_base(now, state);
                        if prev != state {
                            let dwell = now.saturating_sub(node.last_base_change_us);
                            node.last_base_change_us = now;
                            let dwell_metric = match prev {
                                RadioState::Sleep => "power.dwell_sleep_us",
                                _ => "power.dwell_awake_us",
                            };
                            self.obs.observe(dwell_metric, dwell);
                            self.obs.incr("power.transitions");
                            let label = if state == RadioState::Sleep {
                                "power.doze"
                            } else {
                                "power.wake"
                            };
                            self.obs.event(now, id.0 as u64, label);
                        }
                    }
                    _ => {}
                },
                MacAction::Deliver(_) | MacAction::Discard { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polite_wifi_frame::{builder, MacAddr};
    use polite_wifi_mac::Behavior;

    fn victim_mac() -> MacAddr {
        "f2:6e:0b:11:22:33".parse().unwrap()
    }

    fn two_node_sim() -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(SimConfig::default(), 7);
        let victim = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
        let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (5.0, 0.0));
        sim.set_monitor(attacker, true);
        (sim, victim, attacker)
    }

    #[test]
    fn fake_frame_elicits_ack_end_to_end() {
        let (mut sim, victim, attacker) = two_node_sim();
        let fake = builder::fake_null_frame(victim_mac(), MacAddr::FAKE);
        sim.inject(1_000, attacker, fake, BitRate::Mbps1);
        sim.run_until(50_000);
        assert_eq!(sim.station(victim).stats.acks_sent, 1);
        assert_eq!(sim.node(attacker).acks_received, 1);
    }

    #[test]
    fn obs_records_the_exchange() {
        let (mut sim, _victim, attacker) = two_node_sim();
        let fake = builder::fake_null_frame(victim_mac(), MacAddr::FAKE);
        sim.inject(1_000, attacker, fake, BitRate::Mbps1);
        sim.run_until(50_000);
        let obs = sim.obs();
        assert_eq!(obs.counters.get("sim.frames_injected"), 1);
        assert_eq!(obs.counters.get("sim.acks_received"), 1);
        assert_eq!(obs.counters.get("mac.acks_scheduled"), 1);
        assert_eq!(obs.counters.get("mac.sifs_deadline_met"), 1);
        assert_eq!(obs.counters.get("mac.discard.not_associated"), 1);
        // The ACK was scheduled exactly at the 2.4 GHz SIFS.
        let t = obs.histograms.get("mac.ack_turnaround_us").unwrap();
        assert_eq!((t.count, t.min, t.max), (1, 10, 10));
        // RTT = fake airtime (416 µs) + SIFS (10) + ACK airtime (304).
        let rtt = obs.histograms.get("sim.exchange_rtt_us").unwrap();
        assert_eq!(rtt.max, 416 + 10 + 304);
        // Spans are off without an installed tracing config.
        assert!(obs.spans.is_empty());
    }

    /// A thousand fake-frame exchanges on seed 7, retries off: every
    /// frame is ACKed exactly SIFS after it ends, and the event count is
    /// fixed.
    #[test]
    fn thousand_exchanges_are_pinned() {
        let mut sim = Simulator::new(SimConfig::default(), 7);
        sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
        let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (5.0, 0.0));
        sim.set_retries(attacker, false);
        for i in 0..1000 {
            let fake = builder::fake_null_frame(victim_mac(), MacAddr::FAKE);
            sim.inject(i * 1_000, attacker, fake, BitRate::Mbps1);
        }
        sim.run_until(2_000_000);
        let obs = sim.obs();
        assert_eq!(obs.counters.get("sim.acks_received"), 1000);
        assert_eq!(obs.counters.get("sim.frames_txed"), 2000);
        assert_eq!(obs.counters.get("sim.ack_timeouts"), 0);
        let turnaround = obs.histograms.get("mac.ack_turnaround_us").unwrap();
        assert_eq!(turnaround.mean(), Some(10.0));
        assert_eq!(obs.counters.get("sim.events_dispatched"), 7000);
    }

    #[test]
    fn take_obs_leaves_a_fresh_scope() {
        let (mut sim, _victim, attacker) = two_node_sim();
        let fake = builder::fake_null_frame(victim_mac(), MacAddr::FAKE);
        sim.inject(1_000, attacker, fake, BitRate::Mbps1);
        sim.run_until(50_000);
        let snapshot = sim.take_obs();
        assert!(snapshot.counters.get("sim.frames_txed") >= 2);
        assert!(sim.obs().is_empty());
    }

    #[test]
    fn ack_arrives_sifs_after_frame_end() {
        let (mut sim, _victim, attacker) = two_node_sim();
        let fake = builder::fake_null_frame(victim_mac(), MacAddr::FAKE);
        sim.inject(0, attacker, fake, BitRate::Mbps1);
        sim.run_until(50_000);
        let cap = sim.global_capture();
        assert_eq!(cap.len(), 2);
        let fake_end = cap.frames()[0].ts_us;
        let ack_end = cap.frames()[1].ts_us;
        // ACK occupies SIFS + 304 µs (14 bytes at 1 Mb/s) after frame end.
        assert_eq!(ack_end - fake_end, 10 + 304);
    }

    #[test]
    fn attacker_capture_contains_the_ack() {
        let (mut sim, _victim, attacker) = two_node_sim();
        let fake = builder::fake_null_frame(victim_mac(), MacAddr::FAKE);
        sim.inject(0, attacker, fake, BitRate::Mbps1);
        sim.run_until(50_000);
        let cap = &sim.node(attacker).capture;
        let ack = cap
            .frames()
            .iter()
            .find(|cf| matches!(&cf.frame, Frame::Ctrl(ControlFrame::Ack { ra }) if *ra == MacAddr::FAKE))
            .expect("ACK captured");
        // Received frames carry radiotap metadata; the attacker's own
        // injected frame is logged without it (own TX has no RX info).
        assert!(ack.radiotap.is_some());
        assert!(cap
            .frames()
            .iter()
            .any(|cf| cf.frame.frame_control().is_null_data() && cf.radiotap.is_none()));
    }

    #[test]
    fn injection_burst_all_acked() {
        let (mut sim, victim, attacker) = two_node_sim();
        for i in 0..100u64 {
            let fake = builder::fake_null_frame(victim_mac(), MacAddr::FAKE);
            sim.inject(i * 5_000, attacker, fake, BitRate::Mbps1);
        }
        sim.run_until(2_000_000);
        assert_eq!(sim.station(victim).stats.acks_sent, 100);
        assert_eq!(sim.node(attacker).acks_received, 100);
        assert_eq!(sim.node(attacker).tx_failures, 0);
    }

    #[test]
    fn rts_elicits_cts_end_to_end() {
        let (mut sim, victim, attacker) = two_node_sim();
        let rts = builder::fake_rts(victim_mac(), MacAddr::FAKE, 300);
        sim.inject(0, attacker, rts, BitRate::Mbps1);
        sim.run_until(50_000);
        assert_eq!(sim.station(victim).stats.cts_sent, 1);
        assert_eq!(sim.node(attacker).cts_received, 1);
    }

    #[test]
    fn out_of_range_victim_never_acks() {
        let mut sim = Simulator::new(SimConfig::default(), 7);
        let victim = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
        let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (5_000.0, 0.0));
        let fake = builder::fake_null_frame(victim_mac(), MacAddr::FAKE);
        sim.inject(0, attacker, fake, BitRate::Mbps1);
        sim.run_until(100_000);
        assert_eq!(sim.station(victim).stats.acks_sent, 0);
        assert_eq!(sim.node(attacker).acks_received, 0);
    }

    #[test]
    fn fire_and_forget_does_not_retry() {
        let mut sim = Simulator::new(SimConfig::default(), 7);
        let _victim = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
        let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (3_000.0, 0.0));
        sim.set_retries(attacker, false);
        let fake = builder::fake_null_frame(victim_mac(), MacAddr::FAKE);
        sim.inject(0, attacker, fake, BitRate::Mbps1);
        sim.run_until(1_000_000);
        assert_eq!(sim.node(attacker).tx_count, 1, "exactly one attempt");
    }

    #[test]
    fn retries_happen_when_no_ack() {
        let mut sim = Simulator::new(SimConfig::default(), 7);
        let _victim = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
        // Victim is unreachable; attacker retries up to the limit.
        let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (3_000.0, 0.0));
        let fake = builder::fake_null_frame(victim_mac(), MacAddr::FAKE);
        sim.inject(0, attacker, fake, BitRate::Mbps1);
        sim.run_until(5_000_000);
        assert!(
            sim.node(attacker).tx_count >= 8,
            "tx_count {}",
            sim.node(attacker).tx_count
        );
        assert_eq!(sim.node(attacker).tx_failures, 1);
    }

    #[test]
    fn deauthing_ap_scenario_matches_figure3() {
        let mut sim = Simulator::new(SimConfig::default(), 11);
        let mut ap_cfg = StationConfig::access_point(victim_mac(), "PrivateNet");
        ap_cfg.behavior = Behavior::deauthing_ap();
        ap_cfg.beacon_interval_us = None; // keep the trace clean
        let ap = sim.add_node(ap_cfg, (0.0, 0.0));
        let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (5.0, 0.0));
        sim.set_monitor(attacker, true);
        let fake = builder::fake_null_frame(victim_mac(), MacAddr::FAKE);
        sim.inject(10_000, attacker, fake, BitRate::Mbps1);
        sim.run_until(1_000_000);
        // The AP deauthed AND acked.
        assert_eq!(sim.station(ap).stats.acks_sent, 1);
        assert!(sim.station(ap).stats.deauths_sent >= 3);
        // Attacker's capture contains both deauths and its own ACK.
        let cap = &sim.node(attacker).capture;
        let deauths = cap
            .frames()
            .iter()
            .filter(|cf| cf.frame.info_column().starts_with("Deauthentication"))
            .count();
        assert!(deauths >= 3, "captured {deauths} deauths");
    }

    #[test]
    fn power_save_station_dozes_and_ledger_accounts_it() {
        let mut sim = Simulator::new(SimConfig::default(), 3);
        let mut cfg = StationConfig::client(victim_mac());
        cfg.behavior = Behavior::iot_power_save();
        let iot = sim.add_node(cfg, (0.0, 0.0));
        sim.run_until(1_000_000);
        let totals = sim.node(iot).ledger.snapshot(sim.now_us());
        // Awake 100 ms (idle timeout) plus ~9 beacon windows of 3 ms.
        let awake = totals.idle_us + totals.rx_us + totals.tx_us;
        assert!(
            (100_000..200_000).contains(&awake),
            "awake {awake} µs in 1 s"
        );
        assert!(totals.sleep_us > 800_000, "sleep {} µs", totals.sleep_us);
    }

    #[test]
    fn fake_frame_flood_keeps_radio_awake() {
        let mut sim = Simulator::new(SimConfig::default(), 3);
        let mut cfg = StationConfig::client(victim_mac());
        cfg.behavior = Behavior::iot_power_save();
        let iot = sim.add_node(cfg, (0.0, 0.0));
        let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (5.0, 0.0));
        sim.set_retries(attacker, false);
        // 50 pps for 1 s.
        for i in 0..50u64 {
            let fake = builder::fake_null_frame(victim_mac(), MacAddr::FAKE);
            sim.inject(i * 20_000, attacker, fake, BitRate::Mbps1);
        }
        sim.run_until(1_000_000);
        let totals = sim.node(iot).ledger.snapshot(sim.now_us());
        assert!(
            totals.sleep_us < 120_000,
            "victim slept {} µs under 50 pps flood",
            totals.sleep_us
        );
        assert!(sim.station(iot).stats.acks_sent > 40);
    }

    #[test]
    fn drive_by_attacker_gets_acks_only_in_range() {
        // A wardriving car passes a house: out of range, in range, out
        // again. ACKs arrive only during the middle of the pass.
        let mut sim = Simulator::new(SimConfig::default(), 71);
        let _victim = sim.add_node(StationConfig::client(victim_mac()), (0.0, 10.0));
        // Car starts 400 m west, drives east at 20 m/s along the street.
        let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (-400.0, 0.0));
        sim.set_velocity(attacker, (20.0, 0.0));
        sim.set_retries(attacker, false);
        // Inject 4 fakes per second for 40 s of driving.
        for i in 0..160u64 {
            sim.inject(
                i * 250_000,
                attacker,
                builder::fake_null_frame(victim_mac(), MacAddr::FAKE),
                BitRate::Mbps1,
            );
        }
        sim.run_until(40_000_000);

        let ack_times: Vec<u64> = sim
            .node(attacker)
            .capture
            .frames()
            .iter()
            .filter(|cf| matches!(&cf.frame, Frame::Ctrl(ControlFrame::Ack { .. })))
            .map(|cf| cf.ts_us)
            .collect();
        assert!(!ack_times.is_empty(), "the pass never got in range");
        // Closest approach is at t = 20 s; the indoor detection radius is
        // ~100 m, so ACKs fall within roughly t ∈ [15 s, 25 s].
        let first = *ack_times.first().unwrap();
        let last = *ack_times.last().unwrap();
        assert!(first > 10_000_000, "first ACK at {first} — too early");
        assert!(last < 30_000_000, "last ACK at {last} — too late");
        // And the window straddles the closest approach.
        assert!(first < 20_000_000 && last > 20_000_000);
        // Far fewer than the 160 injected fakes got answered.
        assert!(
            (ack_times.len() as u64) < 100,
            "{} ACKs for a drive-by",
            ack_times.len()
        );
    }

    #[test]
    fn overheard_cts_sets_nav_and_defers_bystander() {
        let mut sim = Simulator::new(SimConfig::default(), 51);
        let victim = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
        let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (5.0, 0.0));
        let bystander_mac: MacAddr = "02:00:00:00:00:66".parse().unwrap();
        let bystander = sim.add_node(StationConfig::client(bystander_mac), (0.0, 5.0));
        sim.set_retries(bystander, false);
        sim.set_retries(attacker, false);

        // Attacker reserves the channel with a huge NAV; the victim's
        // automatic CTS relays the reservation.
        sim.inject(
            0,
            attacker,
            builder::fake_rts(victim_mac(), MacAddr::FAKE, 30_000),
            BitRate::Mbps1,
        );
        // The bystander tries to send shortly after the exchange.
        sim.inject(
            2_000,
            bystander,
            builder::fake_null_frame(victim_mac(), bystander_mac),
            BitRate::Mbps1,
        );
        sim.run_until(60_000);

        // The bystander's frame completed only after the NAV expired
        // (~30 ms), not at ~2.5 ms as it would have without NAV.
        let bystander_tx_end = sim
            .global_capture()
            .frames()
            .iter()
            .find(|cf| cf.frame.transmitter() == Some(bystander_mac))
            .map(|cf| cf.ts_us)
            .expect("bystander transmitted");
        assert!(
            bystander_tx_end > 30_000,
            "bystander transmitted at {bystander_tx_end} µs despite NAV"
        );
        assert!(sim.station(victim).stats.cts_sent >= 1);
    }

    #[test]
    fn arf_climbs_on_a_clean_short_link() {
        use polite_wifi_mac::rate_control::Arf;
        let peer_mac: MacAddr = "02:00:00:00:00:77".parse().unwrap();
        let mut sim = Simulator::new(SimConfig::default(), 41);
        let victim = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
        let peer = sim.add_node(StationConfig::client(peer_mac), (2.0, 0.0));
        sim.station_mut(victim).associate(peer_mac);
        sim.enable_rate_adaptation(peer, Arf::ofdm());
        assert_eq!(
            sim.node(peer).rate_ctrl.as_ref().unwrap().rate(),
            BitRate::Mbps6
        );
        for i in 0..120u64 {
            sim.inject(
                i * 3_000,
                peer,
                builder::protected_qos_data(victim_mac(), peer_mac, peer_mac, i as u16, 100),
                BitRate::Mbps6, // ignored: ARF picks the rate
            );
        }
        sim.run_until(2_000_000);
        // 2 m, clean channel: ARF should have climbed to the top.
        assert_eq!(
            sim.node(peer).rate_ctrl.as_ref().unwrap().rate(),
            BitRate::Mbps54,
            "acks_received {}",
            sim.node(peer).acks_received
        );
        assert!(sim.node(peer).acks_received >= 110);
    }

    #[test]
    fn arf_stays_low_on_a_marginal_link() {
        use polite_wifi_mac::rate_control::Arf;
        let peer_mac: MacAddr = "02:00:00:00:00:78".parse().unwrap();
        let mut sim = Simulator::new(SimConfig::default(), 43);
        let victim = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
        // ~70 m indoors: 48/54 Mb/s frames essentially always fail,
        // mid-ladder rates mostly work.
        let peer = sim.add_node(StationConfig::client(peer_mac), (70.0, 0.0));
        sim.station_mut(victim).associate(peer_mac);
        sim.enable_rate_adaptation(peer, Arf::ofdm());
        for i in 0..150u64 {
            sim.inject(
                i * 10_000,
                peer,
                builder::protected_qos_data(victim_mac(), peer_mac, peer_mac, i as u16, 400),
                BitRate::Mbps6,
            );
        }
        sim.run_until(5_000_000);
        let final_rate = sim.node(peer).rate_ctrl.as_ref().unwrap().rate();
        assert!(
            final_rate.bps() <= BitRate::Mbps36.bps(),
            "marginal link settled at {final_rate:?}"
        );
    }

    #[test]
    fn fragmented_msdu_each_fragment_acked_one_delivery() {
        let ap_mac: MacAddr = "68:02:b8:00:00:01".parse().unwrap();
        let mut sim = Simulator::new(SimConfig::default(), 31);
        let mut ap_cfg = StationConfig::access_point(ap_mac, "Net");
        ap_cfg.beacon_interval_us = None;
        let ap = sim.add_node(ap_cfg, (0.0, 0.0));
        let victim = sim.add_node(StationConfig::client(victim_mac()), (4.0, 0.0));
        sim.station_mut(victim).associate(ap_mac);
        sim.station_mut(ap).associate(victim_mac());

        let frame = builder::protected_qos_data(victim_mac(), ap_mac, ap_mac, 30, 1200);
        let n = sim.inject_fragmented(0, ap, frame, BitRate::Mbps24, 256);
        assert_eq!(n, 5); // 1200 bytes / 256 per fragment
        sim.run_until(2_000_000);

        // Every fragment individually acknowledged, one MSDU delivered.
        assert_eq!(sim.station(victim).stats.acks_sent, 5);
        assert_eq!(sim.station(victim).stats.delivered, 1);
        assert_eq!(sim.node(ap).acks_received, 5);
    }

    #[test]
    fn off_channel_victim_hears_nothing() {
        let mut sim = Simulator::new(SimConfig::default(), 7);
        let mut cfg = StationConfig::client(victim_mac());
        cfg.channel = 11; // attacker stays on the default channel 6
        let victim = sim.add_node(cfg, (0.0, 0.0));
        let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (5.0, 0.0));
        let fake = builder::fake_null_frame(victim_mac(), MacAddr::FAKE);
        sim.inject(0, attacker, fake, BitRate::Mbps1);
        sim.run_until(1_000_000);
        assert_eq!(sim.station(victim).stats.acks_sent, 0);
    }

    #[test]
    fn retuning_brings_victim_into_range() {
        use polite_wifi_phy::band::Band;
        let mut sim = Simulator::new(SimConfig::default(), 7);
        let mut cfg = StationConfig::client(victim_mac());
        cfg.band = Band::Ghz5;
        cfg.channel = 36;
        let victim = sim.add_node(cfg, (0.0, 0.0));
        let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (5.0, 0.0));
        // First fake on the wrong channel, then hop and try again.
        sim.inject(
            0,
            attacker,
            builder::fake_null_frame(victim_mac(), MacAddr::FAKE),
            BitRate::Mbps1,
        );
        sim.run_until(500_000);
        assert_eq!(sim.station(victim).stats.acks_sent, 0);
        sim.retune(attacker, Band::Ghz5, 36);
        assert_eq!(sim.tune_of(attacker), (Band::Ghz5, 36));
        sim.inject(
            500_000,
            attacker,
            builder::fake_null_frame(victim_mac(), MacAddr::FAKE),
            BitRate::Mbps6,
        );
        sim.run_until(1_000_000);
        assert_eq!(sim.station(victim).stats.acks_sent, 1);
    }

    #[test]
    fn co_channel_only_collisions() {
        // Two transmitters on different channels never collide with each
        // other even when both are close to the same receiver.
        let mut sim = Simulator::new(SimConfig::default(), 21);
        let victim = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
        let a1 = sim.add_node(StationConfig::client(MacAddr::FAKE), (4.0, 0.0));
        let mut cfg5 = StationConfig::client("aa:bb:bb:bb:bb:05".parse().unwrap());
        cfg5.band = polite_wifi_phy::band::Band::Ghz5;
        cfg5.channel = 36;
        let a5 = sim.add_node(cfg5, (0.0, 4.0));
        // Both transmit at overlapping times; victim (on 2.4/6) hears a1.
        for i in 0..20u64 {
            sim.inject(
                i * 10_000,
                a1,
                builder::fake_null_frame(victim_mac(), MacAddr::FAKE),
                BitRate::Mbps1,
            );
            sim.inject(
                i * 10_000 + 50, // deliberately overlapping
                a5,
                builder::fake_null_frame(
                    "02:00:00:00:00:aa".parse().unwrap(),
                    "aa:bb:bb:bb:bb:05".parse().unwrap(),
                ),
                BitRate::Mbps6,
            );
        }
        sim.run_until(2_000_000);
        assert_eq!(
            sim.station(victim).stats.acks_sent,
            20,
            "cross-channel traffic must not corrupt co-channel frames"
        );
    }

    #[test]
    fn determinism_same_seed_same_capture() {
        let run = |seed| {
            let mut sim = Simulator::new(SimConfig::default(), seed);
            let _v = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
            let a = sim.add_node(StationConfig::client(MacAddr::FAKE), (8.0, 0.0));
            for i in 0..20u64 {
                let fake = builder::fake_null_frame(victim_mac(), MacAddr::FAKE);
                sim.inject(i * 10_000, a, fake, BitRate::Mbps1);
            }
            sim.run_until(500_000);
            sim.global_capture()
                .frames()
                .iter()
                .map(|cf| cf.ts_us)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn clean_fault_plan_changes_nothing() {
        use crate::faults::FaultProfile;
        let run = |install_clean: bool| {
            let mut sim = Simulator::new(SimConfig::default(), 7);
            let _v = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
            let a = sim.add_node(StationConfig::client(MacAddr::FAKE), (8.0, 0.0));
            sim.set_monitor(a, true);
            if install_clean {
                sim.install_faults(&FaultProfile::Clean.plan());
            }
            for i in 0..30u64 {
                let fake = builder::fake_null_frame(victim_mac(), MacAddr::FAKE);
                sim.inject(i * 10_000, a, fake, BitRate::Mbps1);
            }
            sim.run_until(500_000);
            sim.global_capture()
                .frames()
                .iter()
                .map(|cf| cf.ts_us)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn burst_loss_degrades_the_exchange_and_is_counted() {
        use crate::faults::FaultProfile;
        let run = |profile: FaultProfile| {
            let mut sim = Simulator::new(SimConfig::default(), 7);
            let victim = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
            let a = sim.add_node(StationConfig::client(MacAddr::FAKE), (8.0, 0.0));
            sim.set_monitor(a, true);
            sim.set_retries(a, false);
            sim.install_faults(&profile.plan());
            for i in 0..200u64 {
                let fake = builder::fake_null_frame(victim_mac(), MacAddr::FAKE);
                sim.inject(i * 5_000, a, fake, BitRate::Mbps1);
            }
            sim.run_until(2_000_000);
            let dropped = sim.obs().counters.get("fault.medium.frames_dropped");
            (sim.station(victim).stats.acks_sent, dropped)
        };
        let (clean_acks, clean_dropped) = run(FaultProfile::Clean);
        let (faulty_acks, faulty_dropped) = run(FaultProfile::UrbanDrive);
        assert_eq!(clean_dropped, 0);
        assert!(faulty_dropped > 0, "no burst drops under urban-drive");
        assert!(
            faulty_acks < clean_acks,
            "urban-drive {faulty_acks} acks vs clean {clean_acks}"
        );
        // Degraded, not dead: the attack still works through the noise.
        assert!(faulty_acks > clean_acks / 4);
    }

    #[test]
    fn faulty_runs_are_seed_deterministic() {
        use crate::faults::FaultProfile;
        let run = |seed: u64| {
            let mut sim = Simulator::new(SimConfig::default(), seed);
            let _v = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
            let a = sim.add_node(StationConfig::client(MacAddr::FAKE), (8.0, 0.0));
            sim.set_monitor(a, true);
            sim.install_faults(&FaultProfile::UrbanDrive.plan());
            for i in 0..50u64 {
                let fake = builder::fake_null_frame(victim_mac(), MacAddr::FAKE);
                sim.inject(i * 10_000, a, fake, BitRate::Mbps1);
            }
            sim.run_until(1_000_000);
            sim.global_capture()
                .frames()
                .iter()
                .map(|cf| cf.ts_us)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn flaky_dongle_stalls_and_reboots_the_monitor() {
        use crate::faults::FaultProfile;
        let mut sim = Simulator::new(SimConfig::default(), 7);
        let victim = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
        let a = sim.add_node(StationConfig::client(MacAddr::FAKE), (5.0, 0.0));
        sim.set_monitor(a, true);
        sim.install_faults(&FaultProfile::FlakyDongle.plan());
        for i in 0..300u64 {
            let fake = builder::fake_null_frame(victim_mac(), MacAddr::FAKE);
            sim.inject(i * 100_000, a, fake, BitRate::Mbps1);
        }
        sim.run_until(30_000_000);
        let obs = sim.obs();
        // 30 s at one stall per 2 s: ~14 stalls, ~2 reboots (every 5th).
        assert!(obs.counters.get("fault.device.stalls") >= 10);
        assert!(obs.counters.get("fault.device.reboots") >= 2);
        // The run degrades but completes.
        assert!(sim.station(victim).stats.acks_sent > 100);
    }

    #[test]
    fn stalls_do_not_leak_poll_chains() {
        use crate::faults::FaultProfile;
        // A beaconing monitor dongle under flaky-dongle stalls ~30
        // times in 60 s. A regression once re-queued the stalled poll
        // *and* restarted the chain on recovery, leaking one redundant
        // poll chain (and one pending event) per stall.
        let mut sim = Simulator::new(SimConfig::default(), 7);
        let cfg = StationConfig::access_point("68:02:b8:00:00:07".parse().unwrap(), "Rig");
        let dongle = sim.add_node(cfg, (0.0, 0.0));
        sim.set_monitor(dongle, true);
        sim.install_faults(&FaultProfile::FlakyDongle.plan());
        sim.run_until(60_000_000);
        assert!(
            sim.queue_len() < 12,
            "event queue grew to {} — poll chains leak per stall",
            sim.queue_len()
        );
    }

    #[test]
    fn clock_drift_applies_only_to_the_dongle() {
        use crate::faults::FaultPlan;
        let plan = FaultPlan {
            clock_drift_ppm: 100_000.0, // exaggerated 10% for visibility
            ..FaultPlan::clean()
        };
        let (mut sim, victim, attacker) = two_node_sim();
        sim.install_faults(&plan);
        // The monitor dongle's timers stretch; the victim's do not.
        assert_eq!(sim.drifted(attacker, 1_000), 1_100);
        assert_eq!(sim.drifted(victim, 1_000), 1_000);

        // Without a monitor node, drift has no target and is inert.
        let mut bare = Simulator::new(SimConfig::default(), 7);
        let v = bare.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
        bare.install_faults(&plan);
        assert_eq!(bare.drifted(v, 1_000), 1_000);
    }

    #[test]
    fn clock_drift_never_perturbs_victim_sifs_timing() {
        use crate::faults::FaultPlan;
        // The SIFS-timing fingerprint treats victim response latency as
        // a device signature, so a drifting dongle clock must leave the
        // exchange timeline byte-identical to a clean run.
        let run = |plan: Option<FaultPlan>| {
            let (mut sim, _victim, attacker) = two_node_sim();
            if let Some(p) = plan {
                sim.install_faults(&p);
            }
            let fake = builder::fake_null_frame(victim_mac(), MacAddr::FAKE);
            sim.inject(0, attacker, fake, BitRate::Mbps1);
            sim.run_until(50_000);
            sim.global_capture()
                .frames()
                .iter()
                .map(|cf| cf.ts_us)
                .collect::<Vec<_>>()
        };
        let clean = run(None);
        let drifted = run(Some(FaultPlan {
            clock_drift_ppm: 100_000.0,
            ..FaultPlan::clean()
        }));
        assert_eq!(clean, drifted);
        // The ACK still lands exactly SIFS + ACK airtime after the fake.
        assert_eq!(drifted[1] - drifted[0], 10 + 304);
    }

    #[test]
    fn stall_schedule_without_a_monitor_is_ignored() {
        use crate::faults::FaultProfile;
        let mut sim = Simulator::new(SimConfig::default(), 7);
        let _v = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
        sim.install_faults(&FaultProfile::FlakyDongle.plan());
        sim.run_until(10_000_000);
        assert_eq!(sim.obs().counters.get("fault.device.stalls"), 0);
    }

    #[test]
    fn reset_preserves_the_fault_plan() {
        use crate::faults::FaultProfile;
        let (mut sim, _victim, _attacker) = two_node_sim();
        sim.install_faults(&FaultProfile::UrbanDrive.plan());
        sim.reset(99);
        assert_eq!(sim.seed(), 99);
        assert_eq!(*sim.fault_plan(), FaultProfile::UrbanDrive.plan());
    }

    #[test]
    fn two_attackers_contend_without_livelock() {
        let mut sim = Simulator::new(SimConfig::default(), 13);
        let victim = sim.add_node(StationConfig::client(victim_mac()), (0.0, 0.0));
        let a1 = sim.add_node(StationConfig::client(MacAddr::FAKE), (4.0, 0.0));
        let a2 = sim.add_node(
            StationConfig::client("aa:bb:bb:bb:bb:01".parse().unwrap()),
            (0.0, 4.0),
        );
        for i in 0..50u64 {
            sim.inject(
                i * 2_000,
                a1,
                builder::fake_null_frame(victim_mac(), MacAddr::FAKE),
                BitRate::Mbps1,
            );
            sim.inject(
                i * 2_000 + 500,
                a2,
                builder::fake_null_frame(victim_mac(), "aa:bb:bb:bb:bb:01".parse().unwrap()),
                BitRate::Mbps1,
            );
        }
        sim.run_until(5_000_000);
        // Both attackers eventually delivered everything (retries cover
        // collisions) or dropped a few; the victim acked a lot.
        assert!(sim.station(victim).stats.acks_sent >= 90);
    }
}
