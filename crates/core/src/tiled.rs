//! The cycle engine: one clock, `T ≥ 1` tiles.
//!
//! [`run`] domain-decomposes the torus into `T` contiguous node ranges
//! (tiles). Each tile owns a shard of the fabric ([`Network::shard`]) and
//! the PEs and MPMMU banks whose nodes fall inside it, and one loop,
//! `cycle_loop`, runs every tile for every `T`: drain the cycle's link
//! kills, run the tile's share of the cycle ([`execute_cycle`], the same
//! five phases in the same order), cross the clock edge, then make the
//! end-of-cycle decision ([`Clock::decide`]: termination, cycle limit,
//! watchdog, quiet-cycle fast-forward, deadlock) on the whole system's
//! report.
//!
//! `T = min(host_threads, nodes)`, except that the ideal fabric (which
//! has no shard decomposition) and an injector that cannot be forked per
//! tile ([`FaultInjector::fork_for_tile`]) run on one tile.
//!
//! * **One tile** runs on the calling thread over the whole fabric, with
//!   the caller's sink, injector and meter: no barrier, no outboxes, no
//!   buffering.
//! * **`T > 1` tiles** run one worker thread each, tile 0 on the calling
//!   thread. One spin barrier ([`Phaser`]) per simulated cycle separates
//!   the cycles; **the barrier is the clock edge**: each tile publishes
//!   its report and its exported boundary flits in its own outbox,
//!   crosses the barrier, then imports the flits addressed to it from
//!   every outbox and merges every tile's report. Everything a tile does
//!   between two barriers is the work one tile does for the same
//!   components within one `now`, and the boundary link latches are the
//!   only cross-tile traffic.
//!
//! # Why the result does not depend on `T`
//!
//! * **Flit arbitration does not need cross-tile coordination.** Routers
//!   break same-age ties by flit uid, and
//!   [`medea_noc::network::compose_uid`] derives the uid from
//!   `(cycle, is_bank, node)` — locally computable, globally consistent,
//!   and ordered exactly like a single injection sweep over all nodes.
//! * **Each input latch has exactly one writer.** A router's `(dir)`
//!   input is fed only by its unique neighbor on that link, so exporting
//!   a boundary flit during tile A's tick and importing it into tile B
//!   before B's next route phase reproduces the whole fabric's two-phase
//!   (route-all-then-deliver-all) tick exactly. Outboxes are
//!   double-buffered by round parity so a fast tile's cycle-`t` exports
//!   can never be confused with its neighbor's still-pending cycle-`t−1`
//!   imports.
//! * **All folds are merged in fixed tile-index order.** Statistics
//!   (bucket-wise histogram sums), the watchdog fingerprint (wrapping
//!   sums), the quiet-cycle classification (AND/MIN folds) and the
//!   fault-event tail (sorted by `(cycle, phase, tile)`) are all
//!   order-insensitive or merged in tile order, never in thread-completion
//!   order.
//! * **Every tile makes the same global decision.** [`Clock::decide`]
//!   is a pure function of the merged report and the clock's own history,
//!   so every tile reaches the same verdict and all tiles stop in the
//!   same round; no decision is sent. Link kills are scheduled by cycle,
//!   and every tile's injector fork replays the caller's kill schedule
//!   ([`FaultInjector::fork_for_tile`]), so each tile drains the same
//!   kills at the same cycle by itself; tile 0 alone logs and counts
//!   them.
//!
//! # Which PEs a cycle ticks
//!
//! A tile keeps a wake schedule for its PEs (`Slot`) and ticks a PE only
//! when the tick can change it, as `ProcessingElement::next_tick` says: a
//! PE in a time stall sleeps until the stall ends (a directory probe wakes
//! it earlier), and a PE blocked on the fabric is parked until a flit is
//! delivered to it — woken in the same cycle, before the tick phase — or
//! its bridge's timer expires. A parked blocked PE is credited, at its
//! next tick, the wait counters its skipped ticks would have bumped, one
//! per *executed* cycle (a quiet fast-forward jump executes none, in the
//! reference engine too). Parking depends only on model state, so the
//! ticks executed ([`RunResult::pe_ticks`]) are the same for every `T`.
//! With an active fault injector only time stalls sleep, as the PE-stall
//! hook must be consulted on every cycle a blocked PE would be awake.
//!
//! `tests/parallel_equivalence.rs` pins all of this: identical
//! [`RunResult`]s, error details and trace captures at every thread
//! count, including the golden paper-4×4 fingerprints, and
//! [`System::run_reference`](crate::system::System::run_reference) stays
//! the independent oracle.

use crate::config::SystemConfig;
use crate::system::{
    banks_deliver, banks_inject, banks_quiet, banks_tick, build_banks, build_pes, deadlock_detail,
    delivered_event, finish_result, progress_fingerprint, sample_pes_banks, stall_detail, Bank,
    Kernel, QuietFold, QuietState, RunError, RunResult, FAULT_LOG_CAP,
};
use crate::FabricKind;
use medea_cache::Addr;
use medea_fault::{FaultInjector, FaultStats};
use medea_metrics::Meter;
use medea_noc::coord::Dir;
use medea_noc::flit::{Flit, PacketKind, SubKind};
use medea_noc::ideal::IdealNetwork;
use medea_noc::network::Network;
use medea_noc::{Fabric, FabricStats};
use medea_pe::pe::{NextTick, ProcessingElement};
use medea_sim::ids::NodeId;
use medea_sim::par::Phaser;
use medea_sim::Cycle;
use medea_trace::{NullSink, TraceEvent, TraceSink};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// Run `kernels` to completion on `min(host_threads, nodes)` tiles — one
/// tile for the ideal fabric or an injector that cannot be forked.
pub(crate) fn run<S: TraceSink, I: FaultInjector, M: Meter>(
    cfg: &SystemConfig,
    preload: &[(Addr, u32)],
    kernels: Vec<Kernel>,
    sink: &mut S,
    injector: &mut I,
    meter: &mut M,
) -> Result<RunResult, RunError> {
    let topo = cfg.topology();
    if cfg.fabric() == FabricKind::Ideal {
        return run_one_tile(cfg, IdealNetwork::new(topo), preload, kernels, sink, injector, meter);
    }
    let tiles = cfg.host_threads().min(topo.nodes());
    let forks: Option<Vec<I>> =
        if tiles > 1 { (0..tiles).map(|_| injector.fork_for_tile()).collect() } else { None };
    match forks {
        Some(forks) => {
            // Workers buffer trace events locally (the caller's sink
            // cannot be shared across threads); the buffers are replayed
            // into `sink` after the join, merged in (cycle, tile) order.
            // The dispatch keeps the untraced instantiation free of
            // buffering entirely.
            let (result, trace) = if S::ACTIVE {
                run_tiles::<BufSink, I, M>(cfg, preload, kernels, injector, forks, meter)
            } else {
                run_tiles::<NullSink, I, M>(cfg, preload, kernels, injector, forks, meter)
            };
            for (at, event) in trace {
                sink.record(at, event);
            }
            result
        }
        None => run_one_tile(cfg, Network::new(topo), preload, kernels, sink, injector, meter),
    }
}

/// Everything one tile owns: a contiguous shard of the fabric and the
/// PEs/banks whose nodes fall inside it (rank→node and bank→node maps are
/// monotone, so each tile's lists are contiguous runs of the global
/// rank/bank order).
struct Tile<F> {
    index: usize,
    fabric: F,
    pes: Vec<ProcessingElement>,
    banks: Vec<Bank>,
    /// Global slot offsets of this tile's first PE / bank — the tiles
    /// partition the monotone rank and bank orders, so tile-local index
    /// `i` is global slot `base + i`.
    pe_base: usize,
    bank_base: usize,
    /// Per-PE wake schedule, in tile-local PE order.
    slots: Vec<Slot>,
    live: usize,
    /// Cycles this tile has executed; the index of the current one while
    /// it runs. Quiet fast-forward jumps skip cycles without executing
    /// them (for every engine alike), so parked PEs are credited in
    /// executed cycles, not elapsed ones.
    executed: u64,
    /// PE ticks executed (host work, reported as `RunResult::pe_ticks`).
    pe_ticks: u64,
    /// `(cycle, phase, event)` with phase 0 = link kills, 1 = flit
    /// corruptions, 2 = PE stalls — the within-cycle hook order, so the
    /// merged log sorted by `(cycle, phase, tile)` is the order one tile
    /// would have pushed. Capped at [`FAULT_LOG_CAP`] per tile, which is
    /// provably a superset of the global last-`FAULT_LOG_CAP`.
    fault_log: VecDeque<(Cycle, u8, TraceEvent)>,
}

/// A PE's place in its tile's wake schedule.
///
/// A PE whose tick is provably a no-op is *parked* — not ticked — until
/// its wake cycle (see `ProcessingElement::next_tick`):
///
/// * parked *idle* (a pure time stall, or retired) it sleeps until the
///   stall ends; only a directory probe delivered to it wakes it earlier;
/// * parked *blocked* (a memory wait whose bridge awaits a response or
///   sits out a lock backoff, or a `recv` with no matching packet) it
///   sleeps until its bridge's timer expires or any flit is delivered to
///   it, and the wait counter each skipped tick would have bumped is
///   credited at its next tick (or when the run stops).
///
/// A parked PE has a drained arbiter, so it cannot inject, and skipping
/// its ticks is bit-identical to the reference engine's tick-everything
/// loop. Blocked parking is off under an active fault injector: the
/// PE-stall hook is consulted on every cycle a PE is awake, and skipping
/// those consultations would change the fault schedule.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// The cycle at which the PE must next be ticked.
    wake: Cycle,
    /// While the PE is parked blocked, the tile's executed-cycle index of
    /// its last tick.
    blocked_since: Option<u64>,
    /// Whether the PE ticked this cycle (only a ticked PE can offer a
    /// flit to the fabric).
    ticked: bool,
}

impl Slot {
    /// Credit `pe` with the ticks it skipped while parked blocked, up to
    /// (not including) executed cycle `executed`, and unpark it.
    fn settle(&mut self, pe: &mut ProcessingElement, executed: u64) {
        if let Some(since) = self.blocked_since.take() {
            pe.credit_skipped(executed - since - 1);
        }
    }
}

/// Build one tile per fabric shard, tile `i` owning nodes
/// `starts[i]..starts[i+1]`.
fn build_tiles<F>(
    cfg: &SystemConfig,
    preload: &[(Addr, u32)],
    kernels: Vec<Kernel>,
    starts: &[u16],
    fabrics: Vec<F>,
) -> Vec<Tile<F>> {
    let mut banks = build_banks(cfg, preload);
    let mut pes = build_pes(cfg, kernels);
    // Both lists are in node order, so each tile's share is the tail that
    // starts at its first node: split the tiles off from the last one.
    let mut tiles: Vec<Tile<F>> = fabrics
        .into_iter()
        .enumerate()
        .rev()
        .map(|(index, fabric)| {
            let lo = starts[index] as usize;
            let own_pes = pes.split_off(pes.partition_point(|pe| pe.node().index() < lo));
            let own_banks = banks.split_off(banks.partition_point(|b| b.node.index() < lo));
            Tile {
                index,
                fabric,
                pe_base: pes.len(),
                bank_base: banks.len(),
                slots: vec![Slot::default(); own_pes.len()],
                live: own_pes.len(),
                executed: 0,
                pe_ticks: 0,
                pes: own_pes,
                banks: own_banks,
                fault_log: VecDeque::new(),
            }
        })
        .collect();
    tiles.reverse();
    tiles
}

fn push_fault(log: &mut VecDeque<(Cycle, u8, TraceEvent)>, now: Cycle, phase: u8, ev: TraceEvent) {
    if log.len() == FAULT_LOG_CAP {
        log.pop_front();
    }
    log.push_back((now, phase, ev));
}

/// One tile's share of one simulated cycle.
///
/// 1. deliver flits ejected by the fabric to their node interfaces (PEs
///    first, then every memory bank in bank order);
/// 2. tick every *runnable* PE and bank;
/// 3. inject at most one flit per node into the fabric;
/// 4. tick the fabric.
///
/// Before phase 1 come the sampling catch-up and the cycle's scheduled
/// link kills; phase 5, the end-of-cycle decision, is [`Clock::decide`].
///
/// Always inlined, and a one-tile run holds its tile by value, so the
/// tile lives in the loop's own frame: as an outlined call on a tile
/// inside a `Vec`, the one-tile loop ran about 5% slower on the 4x4
/// Jacobi benchmark workload (2-core x86-64 host).
#[inline(always)]
fn execute_cycle<F: Fabric, S: TraceSink, I: FaultInjector, M: Meter>(
    tile: &mut Tile<F>,
    now: Cycle,
    kills: &[(u16, u8)],
    sink: &mut S,
    injector: &mut I,
    meter: &mut M,
) {
    // 0a. Sampling catch-up: commit every window whose boundary has
    // passed. The loop form makes an idle fast-forward jump emit one
    // window per crossed boundary with frozen state — exactly what
    // cycle-by-cycle execution would have observed. Every tile sees the
    // same `now` sequence, so per-tile meter forks commit windows in
    // lockstep.
    if M::ACTIVE {
        while meter.next_sample() <= now {
            sample_pes_banks(meter, &tile.pes, tile.pe_base, &tile.banks, tile.bank_base);
            meter.commit_window();
        }
    }

    // 0b. Scheduled permanent faults, before any traffic moves. Every
    // tile drains the same kill list from its own injector and kills the
    // link ends its shard owns; tile 0 alone logs the event, once.
    for &(node, dir) in kills {
        if tile.index == 0 {
            let event = TraceEvent::FaultLinkKilled { node, dir };
            if S::ACTIVE {
                sink.record(now, event);
            }
            push_fault(&mut tile.fault_log, now, 0, event);
        }
        tile.fabric.kill_link(NodeId::new(node), Dir::ALL[dir as usize]);
    }

    // 1. Deliver ejections. With the O(1) flit census, a drained fabric
    // skips the per-node ejection polls outright.
    if tile.fabric.in_flight() > 0 {
        for (i, pe) in tile.pes.iter_mut().enumerate() {
            let node = pe.node();
            while let Some(mut flit) = tile.fabric.eject(node) {
                if I::ACTIVE && !flit.kind().is_shared_memory() {
                    if let Some(bit) = injector.corrupt_flit(now, node.index() as u16) {
                        flit.corrupt_payload_bit(bit);
                        let event =
                            TraceEvent::FaultFlitCorrupted { node: node.index() as u16, bit };
                        if S::ACTIVE {
                            sink.record(now, event);
                        }
                        push_fault(&mut tile.fault_log, now, 1, event);
                    }
                }
                if S::ACTIVE {
                    sink.record(now, delivered_event(node, &flit, now));
                }
                // Any delivery can end a blocked PE's wait, and a directory
                // probe must wake even an idle or retired PE: the home bank
                // blocks until it is answered.
                let slot = &mut tile.slots[i];
                if slot.blocked_since.is_some()
                    || (flit.kind() == PacketKind::Coherence && flit.sub() == SubKind::Request)
                {
                    slot.wake = now;
                }
                pe.deliver_traced(flit, now, sink);
            }
        }
    }
    banks_deliver(&mut tile.fabric, &mut tile.banks, now, sink);

    // 2. Tick runnable components (a bank's tick is a no-op while it is
    // idle, so it is skipped then too).
    for (i, (pe, slot)) in tile.pes.iter_mut().zip(&mut tile.slots).enumerate() {
        if I::ACTIVE && slot.wake <= now && !pe.is_done() {
            let stall = injector.pe_stall(now, pe.node().index() as u16);
            if stall > 0 {
                slot.wake = now + Cycle::from(stall);
                let event =
                    TraceEvent::FaultPeStall { node: pe.node().index() as u16, cycles: stall };
                if S::ACTIVE {
                    sink.record(now, event);
                }
                push_fault(&mut tile.fault_log, now, 2, event);
            }
        }
        if slot.wake > now {
            slot.ticked = false;
            continue;
        }
        slot.ticked = true;
        slot.settle(pe, tile.executed);
        let was_done = pe.is_done();
        pe.tick_traced(now, sink);
        tile.pe_ticks += 1;
        if M::ACTIVE {
            // Interval attribution: the recorder charges the span since
            // this PE's previous tick to its previous activity, so skipped
            // (parked) cycles are charged to the state the PE parked in.
            meter.pe_state(tile.pe_base + i, now, pe.activity());
        }
        if !was_done && pe.is_done() {
            tile.live -= 1;
        }
        slot.wake = match pe.next_tick() {
            NextTick::Idle(t) => t.max(now + 1),
            NextTick::Blocked(t) if !I::ACTIVE => {
                slot.blocked_since = Some(tile.executed);
                t.max(now + 1)
            }
            NextTick::Blocked(_) | NextTick::Now => now + 1,
        };
    }
    banks_tick(&mut tile.banks, now, true, sink, injector);

    // 3. Inject (one flit per node per cycle). A skipped PE has a drained
    // arbiter by construction, so only ticked PEs can have traffic to
    // offer. The composite uid the fabric stamps keeps arbitration
    // independent of how the nodes are split into tiles.
    for (pe, slot) in tile.pes.iter_mut().zip(&tile.slots) {
        if !slot.ticked {
            continue;
        }
        if let Some(flit) = pe.select_inject() {
            let kind = flit.kind().code();
            match tile.fabric.try_inject_tagged(pe.node(), flit, now, false) {
                Ok(()) => {
                    if S::ACTIVE {
                        let node = pe.node().index() as u16;
                        sink.record(now, TraceEvent::FlitInjected { node, kind });
                    }
                }
                Err(back) => pe.restore_inject(back),
            }
        }
    }
    banks_inject(&mut tile.fabric, &mut tile.banks, now, sink);

    // 4. Fabric (activity-scheduled internally; a drained fabric ticks in
    // constant time). A shard's boundary latches become exports.
    tile.fabric.tick_metered(now, sink, meter);
    tile.executed += 1;
}

impl<F: Fabric> Tile<F> {
    /// What the end-of-cycle decision needs from this tile, with
    /// `exported` boundary flits already handed to neighbor tiles.
    fn report(&self, now: Cycle, exported: usize, watchdog: bool) -> TileReport {
        let in_flight = self.fabric.in_flight() + exported;
        // A PE parked blocked is not a healthy timed stall: the reference
        // engine ticks it every cycle, and counting it would let parking
        // mask a livelock from the watchdog.
        let (fingerprint, timed_stall) = if watchdog {
            (
                progress_fingerprint(&self.pes, &self.banks),
                self.pes.iter().zip(&self.slots).any(|(pe, slot)| {
                    !pe.is_done() && slot.wake > now + 1 && slot.blocked_since.is_none()
                }),
            )
        } else {
            (0, false)
        };
        let quiet = (in_flight == 0 && banks_quiet(&self.banks)).then(|| QuietFold::of(&self.pes));
        TileReport { live: self.live, in_flight, fingerprint, timed_stall, quiet }
    }

    /// Final snapshot of the tile's own components, then close the
    /// attribution spans and the partial last window at `at` — the same
    /// end cycle every tile uses, so meter forks stay in window lockstep.
    fn finish_meter<M: Meter>(&self, meter: &mut M, at: Cycle) {
        if M::ACTIVE {
            sample_pes_banks(meter, &self.pes, self.pe_base, &self.banks, self.bank_base);
            meter.finish(at);
        }
    }
}

/// What a tile publishes at the end of a cycle; merged over tiles it is
/// the whole system's report.
#[derive(Clone, Default)]
struct TileReport {
    live: usize,
    /// Flits in the tile's fabric plus the boundary flits it exported.
    in_flight: usize,
    /// The tile's share of the watchdog's progress fingerprint.
    fingerprint: u64,
    /// Some live PE is parked in a multi-cycle timed stall.
    timed_stall: bool,
    /// The [`QuietFold`] of the tile's PEs — `Some` exactly when the tile
    /// is drained (no flit in flight, every bank quiet), so the merged
    /// report is `Some` exactly when the whole system is.
    quiet: Option<QuietFold>,
}

impl TileReport {
    fn merge(mut self, other: TileReport) -> TileReport {
        self.live += other.live;
        self.in_flight += other.in_flight;
        self.fingerprint = self.fingerprint.wrapping_add(other.fingerprint);
        self.timed_stall |= other.timed_stall;
        self.quiet = self.quiet.zip(other.quiet).map(|(a, b)| a.merge(b));
        self
    }
}

/// Why the run stopped at the cycle it stopped at (the `RunError` details
/// are assembled once every tile's PEs and banks are back in hand).
enum StopCause {
    Done,
    CycleLimit { in_flight: usize },
    Watchdog { in_flight: usize },
    Deadlock,
}

/// The end-of-cycle decision and the cross-cycle state it keeps.
struct Clock {
    limit: Cycle,
    /// Progress watchdog window (off at 0).
    watchdog: Cycle,
    last_fingerprint: u64,
    last_progress_at: Cycle,
}

impl Clock {
    fn new(cfg: &SystemConfig) -> Self {
        Clock {
            limit: cfg.cycle_limit(),
            watchdog: cfg.resilience().watchdog_cycles,
            last_fingerprint: 0,
            last_progress_at: 0,
        }
    }

    /// The cycle to simulate after `now`, or why the run stops at `now`:
    /// termination, cycle limit, watchdog, then the quiet-cycle
    /// fast-forward or deadlock verdict, in that order.
    fn decide(&mut self, now: Cycle, report: &TileReport) -> Result<Cycle, StopCause> {
        if report.live == 0 {
            return Err(StopCause::Done);
        }
        if now >= self.limit {
            return Err(StopCause::CycleLimit { in_flight: report.in_flight });
        }
        if self.watchdog > 0 {
            if report.fingerprint != self.last_fingerprint {
                self.last_fingerprint = report.fingerprint;
                self.last_progress_at = now;
            } else if report.timed_stall {
                // A PE parked in a multi-cycle timed stall (a long
                // `compute`, a bridge backoff) is healthy, not hung — it
                // will produce work when it wakes, even though another PE
                // polling every cycle keeps the fast-forward jump (which
                // would reset the window) from engaging. A livelock has
                // every live PE spinning at wake = now + 1, so this never
                // masks one.
                self.last_progress_at = now;
            } else if now - self.last_progress_at >= self.watchdog {
                return Err(StopCause::Watchdog { in_flight: report.in_flight });
            }
        }
        if let Some(quiet) = report.quiet {
            match quiet.classify() {
                QuietState::AllTimed { min_wake } => {
                    // Never skip past the cycle limit: the limit check
                    // must still observe the overrun.
                    let t = min_wake.min(self.limit);
                    if t > now + 1 {
                        // The jump is legitimate forward progress (every
                        // PE is provably in a timed stall), so it must not
                        // age the watchdog window.
                        self.last_progress_at = t;
                        return Ok(t);
                    }
                }
                QuietState::Deadlocked => return Err(StopCause::Deadlock),
                QuietState::Mixed => {}
            }
        }
        Ok(now + 1)
    }
}

/// Reassemble global state from the tiles, in tile-index order — which
/// *is* rank order for PEs and bank order for banks, because both maps are
/// monotone in the node index the tiles partition — and turn the stop
/// cause at cycle `at` into the run's outcome.
fn conclude<F: Fabric>(
    cfg: &SystemConfig,
    at: Cycle,
    cause: StopCause,
    tiles: Vec<Tile<F>>,
    fault: FaultStats,
    wall_start: Instant,
) -> Result<RunResult, RunError> {
    let mut pes: Vec<ProcessingElement> = Vec::new();
    let mut banks: Vec<Bank> = Vec::new();
    let mut fstats = FabricStats::default();
    let mut log_entries: Vec<(Cycle, u8, usize, usize, TraceEvent)> = Vec::new();
    let mut pe_ticks = 0;
    for mut tile in tiles {
        // Credit the PEs still parked blocked for the cycles since their
        // last tick, so every statistic read from here on is the one the
        // reference engine would hold. (A finished run has retired every
        // PE; only a run stopped early can leave one parked.)
        for (pe, slot) in tile.pes.iter_mut().zip(&mut tile.slots) {
            slot.settle(pe, tile.executed);
        }
        pe_ticks += tile.pe_ticks;
        fstats.merge(tile.fabric.stats());
        for (seq, &(cycle, phase, event)) in tile.fault_log.iter().enumerate() {
            log_entries.push((cycle, phase, tile.index, seq, event));
        }
        pes.extend(tile.pes);
        banks.extend(tile.banks);
    }
    log_entries.sort_by_key(|&(cycle, phase, ti, seq, _)| (cycle, phase, ti, seq));
    let fault_log: VecDeque<(Cycle, TraceEvent)> = log_entries
        .iter()
        .skip(log_entries.len().saturating_sub(FAULT_LOG_CAP))
        .map(|&(cycle, _, _, _, event)| (cycle, event))
        .collect();
    match cause {
        StopCause::Done => {
            Ok(finish_result(at, &pes, &fstats, &banks, pe_ticks, wall_start, fault))
        }
        StopCause::CycleLimit { in_flight } => Err(RunError::CycleLimit {
            limit: cfg.cycle_limit(),
            detail: stall_detail(&pes, &banks, in_flight, &fault_log),
        }),
        StopCause::Watchdog { in_flight } => Err(RunError::Watchdog {
            at,
            detail: stall_detail(&pes, &banks, in_flight, &fault_log),
        }),
        StopCause::Deadlock => Err(RunError::Deadlock { at, detail: deadlock_detail(&pes) }),
    }
}

/// The one cycle loop, for every tile count: drain the cycle's link kills
/// from the tile's own injector, run the tile's share of the cycle, cross
/// the clock edge, then decide. `edge` returns the whole system's
/// end-of-cycle report, or `None` when another tile panicked (the loop
/// then returns `None` too). Every tile decides on the same report, so
/// all tiles stop in the same round, each flushing its meter at the stop
/// cycle.
///
/// Always inlined, so a one-tile run keeps its tile in its own frame (see
/// [`execute_cycle`]).
#[inline(always)]
fn cycle_loop<F: Fabric, S: TraceSink, I: FaultInjector, M: Meter>(
    cfg: &SystemConfig,
    tile: &mut Tile<F>,
    sink: &mut S,
    injector: &mut I,
    meter: &mut M,
    mut edge: impl FnMut(&mut Tile<F>, Cycle) -> Option<TileReport>,
) -> Option<(Cycle, StopCause)> {
    let mut clock = Clock::new(cfg);
    let mut kills = Vec::new();
    let mut now: Cycle = 0;
    loop {
        // The link kills scheduled at or before `now`, as `(node, dir)`.
        kills.clear();
        if I::ACTIVE {
            while let Some(kill) = injector.take_link_kill(now) {
                kills.push((kill.node, kill.dir & 3));
            }
        }
        execute_cycle(tile, now, &kills, sink, injector, meter);
        let report = edge(tile, now)?;
        match clock.decide(now, &report) {
            Ok(next) => now = next,
            Err(cause) => {
                tile.finish_meter(meter, now);
                return Some((now, cause));
            }
        }
    }
}

/// The one-tile run, on the calling thread: the caller's sink, injector
/// and meter are used directly, and the clock edge is the tile's own
/// report.
fn run_one_tile<F: Fabric, S: TraceSink, I: FaultInjector, M: Meter>(
    cfg: &SystemConfig,
    fabric: F,
    preload: &[(Addr, u32)],
    kernels: Vec<Kernel>,
    sink: &mut S,
    injector: &mut I,
    meter: &mut M,
) -> Result<RunResult, RunError> {
    let nodes = cfg.topology().nodes() as u16;
    let mut tile = build_tiles(cfg, preload, kernels, &[0, nodes], vec![fabric])
        .pop()
        .expect("one fabric builds one tile");
    let wall_start = Instant::now();
    let watchdog = cfg.resilience().watchdog_cycles > 0;
    let (at, cause) = cycle_loop(cfg, &mut tile, sink, injector, meter, |tile, now| {
        Some(tile.report(now, 0, watchdog))
    })
    .expect("a one-tile edge always reports");
    conclude(cfg, at, cause, vec![tile], injector.stats(), wall_start)
}

/// A tile-local trace sink that can surrender its buffered events.
trait WorkerSink: TraceSink + Send {
    /// A fresh, empty sink.
    fn fresh() -> Self;
    /// The `(cycle, event)` stream recorded so far, cycles nondecreasing.
    fn into_events(self) -> Vec<(Cycle, TraceEvent)>;
}

impl WorkerSink for NullSink {
    fn fresh() -> Self {
        NullSink
    }
    fn into_events(self) -> Vec<(Cycle, TraceEvent)> {
        Vec::new()
    }
}

/// Unbounded in-order event buffer for traced multi-tile runs.
struct BufSink(Vec<(Cycle, TraceEvent)>);

impl TraceSink for BufSink {
    const ACTIVE: bool = true;
    fn record(&mut self, at: Cycle, event: TraceEvent) {
        self.0.push((at, event));
    }
}

impl WorkerSink for BufSink {
    fn fresh() -> Self {
        BufSink(Vec::new())
    }
    fn into_events(self) -> Vec<(Cycle, TraceEvent)> {
        self.0
    }
}

/// One worker thread's state in a multi-tile run: its tile plus its own
/// injector fork, meter fork and trace buffer.
struct Worker<LS, I, M> {
    tile: Tile<Network>,
    /// Answers every stateless fault hook like the caller's injector and
    /// replays its link-kill schedule; its stats merge back after the
    /// join.
    injector: I,
    /// A full-size meter fork: it writes only the slots of the
    /// components the tile owns, so absorbing the forks in tile-index
    /// order element-wise-sums to a one-tile recording.
    meter: M,
    sink: LS,
}

/// One boundary flit in transit: `(destination router, input direction,
/// flit)`, exactly the triple [`Network::import`] consumes.
type BoundaryFlit = (u16, u8, Flit);

/// What a tile publishes at the clock edge: its end-of-cycle report and
/// the boundary flits its shard exported to other tiles' routers.
#[derive(Default)]
struct Outbox {
    report: TileReport,
    exports: Vec<BoundaryFlit>,
}

/// Cross-thread state, shared by reference into the scope.
struct Shared {
    phaser: Phaser,
    /// One outbox per tile, double-buffered by round parity
    /// (`[round & 1][tile]`). Round `r` fills and reads buffer `r & 1`;
    /// a tile fills it again only in round `r + 2`, after the barrier of
    /// round `r + 1`, which no tile reaches before it has read round `r`.
    outboxes: [Vec<Mutex<Outbox>>; 2],
    /// Tile boundaries: tile `i` owns nodes `starts[i]..starts[i+1]`.
    starts: Vec<u16>,
    /// First panic payload from any tile; rethrown after the join.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Shared {
    fn store_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = lock(&self.panic);
        if slot.is_none() {
            *slot = Some(payload);
        }
        self.phaser.poison();
    }

    /// Cross the clock edge of `round` for `tile`: publish its outbox,
    /// cross the barrier, import the boundary flits addressed to it and
    /// merge every tile's report in tile order. `None` when another tile
    /// panicked.
    fn edge(
        &self,
        tile: &mut Tile<Network>,
        now: Cycle,
        round: u64,
        watchdog: bool,
    ) -> Option<TileReport> {
        let outboxes = &self.outboxes[(round & 1) as usize];
        {
            let mut outbox = lock(&outboxes[tile.index]);
            let Outbox { report, exports } = &mut *outbox;
            exports.clear();
            exports.extend(tile.fabric.take_exports());
            *report = tile.report(now, exports.len(), watchdog);
        }
        // Tile 0 opens the next round as soon as every other tile has
        // arrived; no tile does serial work at the edge.
        if tile.index == 0 {
            if !self.phaser.wait_followers() {
                return None;
            }
            self.phaser.release();
        } else if !self.phaser.arrive_and_wait(round) {
            return None;
        }
        // Importing before the next cycle's phases is exactly the whole
        // fabric's phase-2 delivery: input latches are untouched until the
        // route phase, and each (router, dir) input has one writer, so the
        // walk order does not matter.
        let own = self.starts[tile.index]..self.starts[tile.index + 1];
        outboxes
            .iter()
            .map(|outbox| {
                let outbox = lock(outbox);
                for &(to, from_dir, flit) in &outbox.exports {
                    if own.contains(&to) {
                        tile.fabric.import(to, from_dir, flit);
                    }
                }
                outbox.report.clone()
            })
            .reduce(TileReport::merge)
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A tile that panicked mid-write poisons the mutex; the payload is
    // rethrown after the join, so the inner data is never trusted.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One tile's run, on a scoped worker thread (tile 0 on the calling
/// thread). A panic poisons the phaser, so every other tile leaves its
/// loop at its next edge; the payload is rethrown after the join.
fn run_worker<LS: WorkerSink, I: FaultInjector, M: Meter>(
    worker: &mut Worker<LS, I, M>,
    shared: &Shared,
    cfg: &SystemConfig,
) -> Option<(Cycle, StopCause)> {
    let watchdog = cfg.resilience().watchdog_cycles > 0;
    let Worker { tile, injector, meter, sink } = worker;
    let mut round = 0;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        cycle_loop(cfg, tile, sink, injector, meter, |tile, now| {
            let report = shared.edge(tile, now, round, watchdog);
            round += 1;
            report
        })
    }));
    outcome.unwrap_or_else(|payload| {
        shared.store_panic(payload);
        None
    })
}

/// The multi-tile run: one tile per thread, tile 0 on the calling thread.
/// Returns the outcome and the merged trace stream.
fn run_tiles<LS: WorkerSink, I: FaultInjector, M: Meter>(
    cfg: &SystemConfig,
    preload: &[(Addr, u32)],
    kernels: Vec<Kernel>,
    injector: &mut I,
    forks: Vec<I>,
    meter: &mut M,
) -> (Result<RunResult, RunError>, Vec<(Cycle, TraceEvent)>) {
    let topo = cfg.topology();
    let tiles = forks.len();
    let starts = tile_starts(cfg, tiles);
    let shards = (0..tiles)
        .map(|i| Network::shard(topo, starts[i] as usize, starts[i + 1] as usize))
        .collect();
    let mut workers: Vec<Worker<LS, I, M>> = build_tiles(cfg, preload, kernels, &starts, shards)
        .into_iter()
        .zip(forks)
        .map(|(tile, injector)| Worker { tile, injector, meter: meter.fork(), sink: LS::fresh() })
        .collect();
    let wall_start = Instant::now();
    let outboxes = || (0..tiles).map(|_| Mutex::new(Outbox::default())).collect();
    let shared = Shared {
        phaser: Phaser::new(tiles),
        outboxes: [outboxes(), outboxes()],
        starts,
        panic: Mutex::new(None),
    };

    let stop = std::thread::scope(|scope| {
        let shared = &shared;
        let (first, rest) = workers.split_first_mut().expect("tiles >= 2");
        for worker in rest {
            scope.spawn(move || run_worker(worker, shared, cfg));
        }
        run_worker(first, shared, cfg)
    });
    if let Some(payload) = lock(&shared.panic).take() {
        resume_unwind(payload);
    }
    let (at, cause) = stop.expect("tiled engine stopped without a cause or a panic");

    let mut fault = injector.stats();
    // Fire the caller's kills through the stop cycle, as a one-tile run
    // would have: a later run with the same injector must not repeat them.
    while injector.take_link_kill(at).is_some() {}
    let mut meters = Vec::with_capacity(tiles);
    let mut traces = Vec::with_capacity(tiles);
    let mut tile_vec = Vec::with_capacity(tiles);
    for worker in workers {
        let mut stats = worker.injector.stats();
        // Every fork drains the whole link-kill schedule; tile 0's counts
        // each kill once.
        if worker.tile.index > 0 {
            stats.links_killed = 0;
        }
        fault.merge(&stats);
        meters.push(worker.meter);
        traces.push(worker.sink.into_events());
        tile_vec.push(worker.tile);
    }
    // Every series slot has exactly one writer, so the element-wise sum
    // of the forks (already flushed at the stop cycle) is bit-identical
    // to a one-tile recording; the caller must NOT finish again.
    meter.absorb(meters);
    (conclude(cfg, at, cause, tile_vec, fault, wall_start), merge_traces(traces))
}

/// Per-cycle cost weight of a node hosting a PE or an MPMMU bank,
/// relative to [`ROUTER_WEIGHT`] for a node that is only a router. Ticking
/// an active component dominates an idle router (drained shards tick in
/// constant time), so busy nodes weigh heavily and the router term mostly
/// breaks ties across fully idle stretches.
const ACTIVE_NODE_WEIGHT: u64 = 16;
/// Baseline weight of every node (its deflection router).
const ROUTER_WEIGHT: u64 = 1;

/// Load-aware tile boundaries: tile `i` owns nodes
/// `starts[i]..starts[i+1]`.
///
/// Boundaries land on the quantiles of the cumulative per-node simulation
/// weight rather than the node count, so a sparsely populated torus (say
/// 10 PEs in the corner of an 8×8) spreads its *busy* nodes over the
/// workers instead of handing them all to tile 0. Clamps keep every tile
/// at least one node wide. The split is a host-side scheduling choice
/// only: results are bit-identical for every boundary placement (pinned
/// by `tests/parallel_equivalence.rs`).
fn tile_starts(cfg: &SystemConfig, tiles: usize) -> Vec<u16> {
    let nodes = cfg.topology().nodes();
    debug_assert!(1 <= tiles && tiles <= nodes);
    let plan = cfg.node_plan();
    let weight = |node: usize| -> u64 {
        let id = NodeId::new(node as u16);
        if plan.is_bank_node(id) || plan.rank_of_node(id).is_some() {
            ROUTER_WEIGHT + ACTIVE_NODE_WEIGHT
        } else {
            ROUTER_WEIGHT
        }
    };
    let mut prefix: Vec<u64> = Vec::with_capacity(nodes + 1);
    prefix.push(0);
    for n in 0..nodes {
        prefix.push(prefix[n] + weight(n));
    }
    let total = prefix[nodes];
    let mut starts: Vec<u16> = Vec::with_capacity(tiles + 1);
    starts.push(0);
    for i in 1..tiles {
        let target = total * i as u64 / tiles as u64;
        let boundary = prefix.partition_point(|&p| p < target);
        // At least one node per tile, and enough nodes left for the rest.
        let lo = starts[i - 1] as usize + 1;
        let hi = nodes - (tiles - i);
        starts.push(boundary.clamp(lo, hi) as u16);
    }
    starts.push(nodes as u16);
    starts
}

/// Merge per-tile trace buffers into one deterministic stream: cycles
/// ascending, ties broken by tile index, each tile's within-cycle order
/// preserved. (Within a cycle a one-tile run interleaves components
/// phase-major, so comparisons across tile counts are per-cycle multiset
/// equality — see `tests/parallel_equivalence.rs`.)
fn merge_traces(per_tile: Vec<Vec<(Cycle, TraceEvent)>>) -> Vec<(Cycle, TraceEvent)> {
    let mut out = Vec::with_capacity(per_tile.iter().map(Vec::len).sum());
    let mut heads = vec![0usize; per_tile.len()];
    loop {
        let mut min_cycle: Option<Cycle> = None;
        for (t, buf) in per_tile.iter().enumerate() {
            if let Some(&(c, _)) = buf.get(heads[t]) {
                min_cycle = Some(min_cycle.map_or(c, |m| m.min(c)));
            }
        }
        let Some(cycle) = min_cycle else { break };
        for (t, buf) in per_tile.iter().enumerate() {
            while let Some(&(c, event)) = buf.get(heads[t]) {
                if c != cycle {
                    break;
                }
                out.push((c, event));
                heads[t] += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use medea_noc::coord::Topology;

    fn active_nodes(cfg: &SystemConfig, lo: u16, hi: u16) -> usize {
        let plan = cfg.node_plan();
        (lo..hi)
            .filter(|&n| {
                let id = NodeId::new(n);
                plan.is_bank_node(id) || plan.rank_of_node(id).is_some()
            })
            .count()
    }

    #[test]
    fn tile_starts_balance_load_not_node_count() {
        // 11 busy nodes (bank 0 + 10 ranks) in the low corner of an 8×8:
        // the old equal-node split (32|32) hands every busy node to tile
        // 0; the weighted split moves the boundary into the busy region.
        let topo = Topology::new(8, 8).unwrap();
        let cfg = SystemConfig::builder().topology(topo).compute_pes(10).build().unwrap();
        let starts = tile_starts(&cfg, 2);
        assert_eq!(starts, [0, starts[1], 64]);
        let t0 = active_nodes(&cfg, starts[0], starts[1]);
        let t1 = active_nodes(&cfg, starts[1], starts[2]);
        assert!(t0 < 11, "tile 0 must not own every busy node (got all {t0})");
        assert!(t1 >= 3, "tile 1 got only {t1} busy nodes");
    }

    #[test]
    fn tile_starts_reduce_to_even_split_when_fully_populated() {
        // All nodes busy → uniform weights → the node-count split.
        let topo = Topology::new(4, 4).unwrap();
        let cfg = SystemConfig::builder().topology(topo).compute_pes(15).build().unwrap();
        assert_eq!(tile_starts(&cfg, 4), [0, 4, 8, 12, 16]);
    }

    #[test]
    fn tile_starts_are_valid_partitions() {
        for (w, h, pes, banks, tiles) in [
            (4u8, 4u8, 15usize, 1usize, 2usize),
            (4, 4, 1, 1, 4),
            (8, 8, 10, 4, 7),
            (4, 4, 2, 2, 16),
        ] {
            let topo = Topology::new(w, h).unwrap();
            let cfg = SystemConfig::builder()
                .topology(topo)
                .compute_pes(pes)
                .memory_banks(banks)
                .build()
                .unwrap();
            let starts = tile_starts(&cfg, tiles);
            assert_eq!(starts.len(), tiles + 1);
            assert_eq!(starts[0], 0);
            assert_eq!(*starts.last().unwrap() as usize, topo.nodes());
            assert!(
                starts.windows(2).all(|p| p[0] < p[1]),
                "{w}x{h}/{tiles} tiles: empty tile in {starts:?}"
            );
        }
    }
}
