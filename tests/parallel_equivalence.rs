//! Equivalence tests for the tiled parallel cycle engine.
//!
//! The tiled engine (`host_threads > 1`) is a *performance* feature with a
//! *correctness* contract: it must be observationally indistinguishable
//! from the sequential engine, bit for bit. These tests pin that contract
//! three ways:
//!
//! * **Numeric equivalence** — for every pinned paper workload and a
//!   seeded mixed op-soup, a run at 2/3/4/7 host threads reproduces the
//!   single-thread `RunResult` counter for counter: cycles, every fabric
//!   counter, the full latency histogram, every per-PE counter and every
//!   per-bank counter, across tori, PE counts and bank counts.
//! * **Golden fingerprints** — the paper-4×4 pins (literal values carried
//!   from `tests/golden_determinism.rs`) hold verbatim at
//!   `host_threads(4)`. The parallel engine is not "equivalent to
//!   itself"; it is equivalent to the pre-parallel engine.
//! * **Trace equivalence** — a `RingSink` capture of a tiled run contains,
//!   per cycle, exactly the same multiset of events as the sequential
//!   capture. Within a cycle the tiled merge is tile-major while the
//!   sequential engine is phase-major, so order inside a cycle is not
//!   pinned — the multiset is.
//!
//! Error paths are part of the contract too: a deadlocked workload must
//! produce the *identical* `RunError` (cycle of detection and diagnostic
//! string included) at every thread count.
//!
//! Faults are pinned the same way: link kills across tile boundaries,
//! flit corruption under resilient eMPI, PE stalls and a watchdog-firing
//! livelock produce the identical `RunResult` or `RunError` (recent-fault
//! tail included) at 1, 2 and 4 host threads, with an injector that can
//! be forked per tile and with one that cannot.

use std::collections::HashMap;

use medea::core::api::PeApi;
use medea::core::system::{kernel, Kernel, RunResult, System};
use medea::core::{
    DeadLink, Empi, FaultConfig, FaultInjector, FaultStats, ResilienceConfig, RunError,
    ScheduledInjector, SystemConfig, Topology,
};
use medea::sim::ids::Rank;
use medea::sim::rng::SplitMix64;
use medea::sim::Cycle;
use medea::trace::{NullSink, RingSink, TraceConfig};

/// Thread counts the tiled engine must match single-thread at: even and
/// odd, dividing and not dividing the node count.
const THREADS: [usize; 4] = [2, 3, 4, 7];

fn cfg(pes: usize, threads: usize) -> SystemConfig {
    SystemConfig::builder()
        .compute_pes(pes)
        .cycle_limit(50_000_000)
        .host_threads(threads)
        .build()
        .unwrap()
}

fn cfg_on(topo: Topology, pes: usize, banks: usize, threads: usize) -> SystemConfig {
    SystemConfig::builder()
        .topology(topo)
        .compute_pes(pes)
        .memory_banks(banks)
        .cycle_limit(50_000_000)
        .host_threads(threads)
        .build()
        .unwrap()
}

/// Full numeric equality over everything a `RunResult` observes.
fn assert_identical(label: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.cycles, b.cycles, "{label}: cycles");
    assert_eq!(a.fabric_delivered, b.fabric_delivered, "{label}: delivered");
    assert_eq!(a.fabric_deflections, b.fabric_deflections, "{label}: deflections");
    assert_eq!(a.fabric_mean_latency, b.fabric_mean_latency, "{label}: mean latency");
    assert_eq!(a.fabric_max_latency, b.fabric_max_latency, "{label}: max latency");
    assert_eq!(a.fabric_latency, b.fabric_latency, "{label}: latency histogram");
    assert_eq!(a.mpmmu.single_reads.get(), b.mpmmu.single_reads.get(), "{label}: mpmmu reads");
    assert_eq!(a.mpmmu.single_writes.get(), b.mpmmu.single_writes.get(), "{label}: mpmmu writes");
    assert_eq!(a.mpmmu.locks_granted.get(), b.mpmmu.locks_granted.get(), "{label}: locks");
    assert_eq!(a.mpmmu.lock_nacks.get(), b.mpmmu.lock_nacks.get(), "{label}: lock nacks");
    assert_eq!(a.mpmmu.busy_cycles.get(), b.mpmmu.busy_cycles.get(), "{label}: mpmmu busy");
    assert_eq!(a.pe.len(), b.pe.len(), "{label}: pe count");
    for (i, (pa, pb)) in a.pe.iter().zip(&b.pe).enumerate() {
        assert_eq!(pa.engine.requests.get(), pb.engine.requests.get(), "{label}: pe{i} requests");
        assert_eq!(
            pa.engine.compute_cycles.get(),
            pb.engine.compute_cycles.get(),
            "{label}: pe{i} compute"
        );
        assert_eq!(pa.engine.mem_cycles.get(), pb.engine.mem_cycles.get(), "{label}: pe{i} mem");
        assert_eq!(pa.engine.send_cycles.get(), pb.engine.send_cycles.get(), "{label}: pe{i} send");
        assert_eq!(
            pa.engine.recv_wait_cycles.get(),
            pb.engine.recv_wait_cycles.get(),
            "{label}: pe{i} recv wait"
        );
        assert_eq!(pa.cache.load_hits.get(), pb.cache.load_hits.get(), "{label}: pe{i} hits");
        assert_eq!(pa.cache.load_misses.get(), pb.cache.load_misses.get(), "{label}: pe{i} misses");
        assert_eq!(
            pa.bridge.transactions.get(),
            pb.bridge.transactions.get(),
            "{label}: pe{i} bridge"
        );
        assert_eq!(
            pa.bridge.lock_retries.get(),
            pb.bridge.lock_retries.get(),
            "{label}: pe{i} lock retries"
        );
        assert_eq!(pa.tie.flits_received.get(), pb.tie.flits_received.get(), "{label}: pe{i} tie");
    }
    assert_eq!(a.banks.len(), b.banks.len(), "{label}: bank count");
    for (ba, bb) in a.banks.iter().zip(&b.banks) {
        assert_eq!(ba.node, bb.node, "{label}: bank node");
        assert_eq!(
            ba.mpmmu.single_reads.get(),
            bb.mpmmu.single_reads.get(),
            "{label}: bank {} reads",
            ba.node
        );
        assert_eq!(
            ba.mpmmu.single_writes.get(),
            bb.mpmmu.single_writes.get(),
            "{label}: bank {} writes",
            ba.node
        );
        assert_eq!(
            ba.mpmmu.busy_cycles.get(),
            bb.mpmmu.busy_cycles.get(),
            "{label}: bank {} busy",
            ba.node
        );
    }
}

// ---------------------------------------------------------------------
// Workloads (shapes shared with tests/golden_determinism.rs)
// ---------------------------------------------------------------------

fn pingpong_kernels() -> Vec<Kernel> {
    let ping: Kernel = kernel(move |api: PeApi| async move {
        for i in 1..=40u32 {
            api.send_to_rank(Rank::new(1), &[i]).await;
            let back = api.recv_from_rank(Rank::new(1)).await;
            assert_eq!(back[0], i);
        }
    });
    let pong: Kernel = kernel(move |api: PeApi| async move {
        for _ in 1..=40u32 {
            let v = api.recv_from_rank(Rank::new(0)).await;
            api.send_to_rank(Rank::new(0), &v).await;
        }
    });
    vec![ping, pong]
}

fn reduce_kernels(ranks: usize) -> Vec<Kernel> {
    (0..ranks)
        .map(|r| {
            kernel(move |api: PeApi| async move {
                let mut comm = Empi::new(api);
                comm.compute(50 + 137 * r as u64).await;
                comm.barrier().await;
                let mine = r as f64 + 0.5;
                let total = if comm.rank().is_master() {
                    let mut acc = mine;
                    for src in 1..comm.ranks() {
                        let v = comm.recv_f64(Rank::new(src as u8)).await[0];
                        acc = comm.fadd(acc, v).await;
                    }
                    for dst in 1..comm.ranks() {
                        comm.send_f64(Rank::new(dst as u8), &[acc]).await;
                    }
                    acc
                } else {
                    comm.send_f64(Rank::new(0), &[mine]).await;
                    comm.recv_f64(Rank::new(0)).await[0]
                };
                let expect = (0..comm.ranks()).map(|k| k as f64 + 0.5).sum::<f64>();
                assert_eq!(total.to_bits(), expect.to_bits());
            })
        })
        .collect()
}

fn gather_kernels(ranks: usize) -> Vec<Kernel> {
    (0..ranks)
        .map(|r| {
            kernel(move |api: PeApi| async move {
                let mut comm = Empi::new(api);
                if r == 0 {
                    for src in 1..comm.ranks() {
                        let got = comm.recv(Rank::new(src as u8)).await;
                        assert_eq!(got.len(), 40);
                    }
                } else {
                    let payload: Vec<u32> = (0..40).map(|i| (r * 1000 + i) as u32).collect();
                    comm.send(Rank::new(0), &payload).await;
                }
            })
        })
        .collect()
}

fn sharedmem_kernels(ranks: usize) -> Vec<Kernel> {
    (0..ranks)
        .map(|r| {
            kernel(move |api: PeApi| async move {
                const COUNTER: u32 = 0x100;
                const LOCK: u32 = 0x200;
                for _ in 0..6 {
                    api.lock(LOCK).await;
                    let v = api.uncached_load_u32(COUNTER).await;
                    api.uncached_store_u32(COUNTER, v + 1).await;
                    api.unlock(LOCK).await;
                }
                api.store_f64(api.private_base(), r as f64).await;
                api.flush_line(api.private_base()).await;
            })
        })
        .collect()
}

/// Seeded mixed op soup + ring exchange + barrier + allreduce: every
/// layer (cache, MPMMU, TIE, collectives) fires with data-dependent
/// timing, so cross-tile arbitration order is genuinely stressed.
fn seeded_kernels(ranks: usize, seed: u64, ops: usize) -> Vec<Kernel> {
    (0..ranks)
        .map(|r| {
            kernel(move |api: PeApi| async move {
                const LOCK: u32 = 0x40;
                const COUNTER: u32 = 0x44;
                let mut comm = Empi::new(api);
                let mut rng = SplitMix64::new(seed ^ (r as u64).wrapping_mul(0x9E37_79B9));
                let base = comm.private_base();
                for i in 0..ops {
                    match rng.next_u64() % 6 {
                        0 => comm.compute(1 + rng.next_u64() % 64).await,
                        1 => {
                            comm.store_u32(base + (i as u32 % 16) * 4, rng.next_u64() as u32).await
                        }
                        2 => {
                            let _ = comm.load_u32(base + (i as u32 % 16) * 4).await;
                        }
                        3 => {
                            comm.flush_line(base).await;
                            comm.invalidate_line(base).await;
                        }
                        4 => {
                            comm.uncached_store_u32(0x80 + r as u32 * 4, i as u32).await;
                            let _ = comm.uncached_load_u32(0x80 + r as u32 * 4).await;
                        }
                        _ => {
                            comm.lock(LOCK).await;
                            let v = comm.uncached_load_u32(COUNTER).await;
                            comm.uncached_store_u32(COUNTER, v + 1).await;
                            comm.unlock(LOCK).await;
                        }
                    }
                }
                if comm.ranks() > 1 {
                    let rank = comm.rank().index();
                    let ranks = comm.ranks();
                    let next = Rank::new(((rank + 1) % ranks) as u8);
                    let prev = Rank::new(((rank + ranks - 1) % ranks) as u8);
                    let payload: Vec<u32> = (0..8).map(|i| (rank * 100 + i) as u32).collect();
                    let got = comm.sendrecv(Some(next), &payload, Some(prev)).await.expect("ring");
                    assert_eq!(got[0] as usize, ((rank + ranks - 1) % ranks) * 100);
                }
                comm.barrier().await;
                let total = comm.allreduce(r as f64 + 0.25).await;
                let expect = (0..comm.ranks()).map(|k| k as f64 + 0.25).sum::<f64>();
                assert_eq!(total.to_bits(), expect.to_bits());
            })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Numeric equivalence
// ---------------------------------------------------------------------

/// The four pinned paper workloads, tiled at every thread count, equal
/// the sequential run counter for counter on the paper 4×4 torus.
#[test]
fn paper_workloads_tiled_match_sequential() {
    type Factory = fn() -> Vec<Kernel>;
    let workloads: [(&str, Factory, usize); 4] = [
        ("pingpong", pingpong_kernels as Factory, 2),
        ("reduce", (|| reduce_kernels(6)) as Factory, 6),
        ("gather", (|| gather_kernels(8)) as Factory, 8),
        ("sharedmem", (|| sharedmem_kernels(5)) as Factory, 5),
    ];
    for (name, kernels, pes) in workloads {
        let seq = System::run(&cfg(pes, 1), &[], kernels()).expect(name);
        for threads in THREADS {
            let tiled = System::run(&cfg(pes, threads), &[], kernels()).expect(name);
            assert_identical(&format!("{name}@{threads}t"), &tiled, &seq);
        }
    }
}

/// Mixed workloads across tori (square, rectangular, minimal), PE
/// counts and multi-bank layouts: tiled == sequential everywhere.
#[test]
fn mixed_workloads_across_topologies_and_banks() {
    let cases: [(u8, u8, usize, usize, u64); 5] = [
        // (cols, rows, pes, banks, seed)
        (4, 4, 8, 1, 0xD1CE),
        (4, 4, 12, 4, 0xBEEF),
        (8, 2, 10, 2, 0xCAFE),
        (2, 4, 6, 2, 0xF00D),
        (2, 2, 3, 1, 0x5EED),
    ];
    for (cols, rows, pes, banks, seed) in cases {
        let topo = Topology::new(cols, rows).expect("valid torus");
        let label = format!("{cols}x{rows}/{pes}pe/{banks}bank");
        let seq = System::run(&cfg_on(topo, pes, banks, 1), &[], seeded_kernels(pes, seed, 12))
            .expect(&label);
        for threads in THREADS {
            let tiled =
                System::run(&cfg_on(topo, pes, banks, threads), &[], seeded_kernels(pes, seed, 12))
                    .unwrap_or_else(|e| panic!("{label}@{threads}t: {e}"));
            assert_identical(&format!("{label}@{threads}t"), &tiled, &seq);
        }
    }
}

/// Requesting more threads than the host has — or than the torus has
/// nodes — degrades gracefully and still matches.
#[test]
fn oversubscribed_thread_counts_still_match() {
    let topo = Topology::new(2, 2).expect("valid torus");
    let seq = System::run(&cfg_on(topo, 3, 1, 1), &[], seeded_kernels(3, 0xA11, 8)).unwrap();
    for threads in [4, 16, 64] {
        let tiled =
            System::run(&cfg_on(topo, 3, 1, threads), &[], seeded_kernels(3, 0xA11, 8)).unwrap();
        assert_identical(&format!("2x2@{threads}t"), &tiled, &seq);
    }
}

// ---------------------------------------------------------------------
// Golden fingerprints at host_threads(4)
// ---------------------------------------------------------------------

/// The paper-4×4 pins from `tests/golden_determinism.rs`, verbatim, at
/// four host threads. This anchors the tiled engine to the *historical*
/// sequential behavior, not merely to the current build's.
#[test]
fn paper_4x4_fingerprints_hold_at_four_threads() {
    type Pin = (&'static str, fn() -> Vec<Kernel>, usize, (u64, u64, u64, Option<u64>));
    let pins: [Pin; 4] = [
        ("pingpong", pingpong_kernels, 2, (320, 80, 0, Some(1))),
        ("reduce", || reduce_kernels(6), 6, (960, 50, 0, Some(3))),
        ("gather", || gather_kernels(8), 8, (695, 343, 5081, Some(187))),
        ("sharedmem", || sharedmem_kernels(5), 5, (2263, 704, 17, Some(5))),
    ];
    for (name, kernels, pes, pin) in pins {
        let run = System::run(&cfg(pes, 4), &[], kernels()).expect(name);
        let got =
            (run.cycles, run.fabric_delivered, run.fabric_deflections, run.fabric_max_latency);
        assert_eq!(got, pin, "{name}: tiled engine drifted from the paper fingerprint");
    }
}

// ---------------------------------------------------------------------
// Trace equivalence
// ---------------------------------------------------------------------

/// Per-cycle event multisets, keyed by the event's `Debug` rendering
/// (`TraceEvent` is `Eq` but not `Ord`/`Hash`, and the rendering is
/// total and injective over the variants).
fn per_cycle_multisets(sink: &RingSink) -> HashMap<Cycle, Vec<String>> {
    let mut by_cycle: HashMap<Cycle, Vec<String>> = HashMap::new();
    for te in sink.iter() {
        by_cycle.entry(te.at).or_default().push(format!("{:?}", te.event));
    }
    for events in by_cycle.values_mut() {
        events.sort();
    }
    by_cycle
}

/// A tiled traced run captures, per cycle, the same multiset of events
/// as the sequential run — the tile-order merge loses only intra-cycle
/// ordering, never events.
#[test]
fn traced_capture_matches_sequential_per_cycle() {
    let build = |threads: usize| {
        SystemConfig::builder()
            .compute_pes(8)
            .memory_banks(2)
            .cycle_limit(50_000_000)
            .trace(TraceConfig::all())
            .host_threads(threads)
            .build()
            .unwrap()
    };
    let mut seq_sink = RingSink::new(1 << 20);
    let seq = System::run_traced(&build(1), &[], seeded_kernels(8, 0x7ACE, 10), &mut seq_sink)
        .expect("sequential traced");
    assert!(seq_sink.dropped() == 0, "ring too small to compare losslessly");
    let seq_events = per_cycle_multisets(&seq_sink);
    for threads in THREADS {
        let mut sink = RingSink::new(1 << 20);
        let tiled =
            System::run_traced(&build(threads), &[], seeded_kernels(8, 0x7ACE, 10), &mut sink)
                .expect("tiled traced");
        assert_identical(&format!("traced@{threads}t"), &tiled, &seq);
        assert_eq!(sink.dropped(), 0);
        assert_eq!(sink.len(), seq_sink.len(), "event count @{threads}t");
        let tiled_events = per_cycle_multisets(&sink);
        assert_eq!(tiled_events, seq_events, "per-cycle event multisets @{threads}t");
    }
}

// ---------------------------------------------------------------------
// Error-path equivalence
// ---------------------------------------------------------------------

/// Two kernels each blocked receiving from the other: the tiled engine
/// must detect the deadlock at the same cycle with the same diagnostic
/// string at every thread count.
#[test]
fn deadlock_detection_is_identical() {
    let kernels = || -> Vec<Kernel> {
        vec![
            kernel(move |api: PeApi| async move {
                let _ = api.recv_from_rank(Rank::new(1)).await;
            }),
            kernel(move |api: PeApi| async move {
                let _ = api.recv_from_rank(Rank::new(0)).await;
            }),
        ]
    };
    let seq = System::run(&cfg(2, 1), &[], kernels()).expect_err("must deadlock");
    for threads in THREADS {
        let tiled = System::run(&cfg(2, threads), &[], kernels()).expect_err("must deadlock");
        assert_eq!(tiled, seq, "RunError @{threads}t");
    }
}

// ---------------------------------------------------------------------
// Fault equivalence
// ---------------------------------------------------------------------

/// A [`ScheduledInjector`] that cannot be split per tile: every hook
/// delegates, and `fork_for_tile` keeps the trait's default `None`, so
/// the engine runs the schedule on one tile whatever `host_threads` asks.
struct Unforkable(ScheduledInjector);

impl FaultInjector for Unforkable {
    const ACTIVE: bool = true;
    fn corrupt_flit(&mut self, now: Cycle, node: u16) -> Option<u8> {
        self.0.corrupt_flit(now, node)
    }
    fn take_link_kill(&mut self, now: Cycle) -> Option<DeadLink> {
        self.0.take_link_kill(now)
    }
    fn bank_drop(&mut self, now: Cycle, bank: u16) -> bool {
        self.0.bank_drop(now, bank)
    }
    fn bank_delay(&mut self, now: Cycle, bank: u16) -> u32 {
        self.0.bank_delay(now, bank)
    }
    fn pe_stall(&mut self, now: Cycle, node: u16) -> u32 {
        self.0.pe_stall(now, node)
    }
    fn stats(&self) -> FaultStats {
        self.0.stats()
    }
}

/// Identical outcomes: the same `RunResult` (including fault and recovery
/// counters), or the same `RunError` down to its `detail` string.
fn assert_same_outcome(
    label: &str,
    a: &Result<RunResult, RunError>,
    b: &Result<RunResult, RunError>,
) {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            assert_identical(label, a, b);
            assert_eq!(a.fault, b.fault, "{label}: fault stats");
            assert_eq!(a.fabric_reroutes, b.fabric_reroutes, "{label}: reroutes");
            assert_eq!(a.retransmits(), b.retransmits(), "{label}: retransmits");
            assert_eq!(a.nacks_sent(), b.nacks_sent(), "{label}: nacks");
            assert_eq!(a.bridge_retries(), b.bridge_retries(), "{label}: bridge retries");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{label}: RunError"),
        (a, b) => panic!("{label}: outcomes differ: {a:?} vs {b:?}"),
    }
}

/// Run `kernels` under `schedule` at 1, 2 and 4 host threads, with a
/// forkable and an unforkable injector, and require every outcome to
/// equal the single-thread forkable one, which is returned for the
/// scenario's own sanity checks.
fn faulted_runs_match(
    name: &str,
    build: impl Fn(usize) -> SystemConfig,
    kernels: impl Fn() -> Vec<Kernel>,
    schedule: FaultConfig,
) -> Result<RunResult, RunError> {
    let run = |threads: usize, forkable: bool| {
        let cfg = build(threads);
        if forkable {
            let mut injector = ScheduledInjector::new(schedule);
            System::run_faulted(&cfg, &[], kernels(), &mut NullSink, &mut injector)
        } else {
            let mut injector = Unforkable(ScheduledInjector::new(schedule));
            System::run_faulted(&cfg, &[], kernels(), &mut NullSink, &mut injector)
        }
    };
    let base = run(1, true);
    for threads in [1, 2, 4] {
        for forkable in [true, false] {
            if threads == 1 && forkable {
                continue;
            }
            let label = format!("{name}@{threads}t forkable={forkable}");
            assert_same_outcome(&label, &run(threads, forkable), &base);
        }
    }
    base
}

/// Two dead links, each with its endpoints in different tiles. With 8
/// PEs the load-aware split puts the tile boundaries at nodes 5 (2 tiles)
/// and 3, 5, 8 (4 tiles), so 4-5 crosses a boundary at both counts, and
/// so does row 1's wrap link 7-4.
#[test]
fn cross_tile_link_kills_match_sequential() {
    let schedule = FaultConfig { seed: 0x11_4C, ..FaultConfig::default() }
        .kill_link(DeadLink { node: 4, dir: 1, at: 30 })
        .kill_link(DeadLink { node: 7, dir: 1, at: 200 });
    let run = faulted_runs_match(
        "link-kill",
        |threads| cfg(8, threads),
        || seeded_kernels(8, 0x4B11, 16),
        schedule,
    )
    .expect("dead links are routed around");
    assert_eq!(run.fault.links_killed, 2);
    assert!(run.fabric_reroutes > 0, "traffic must hit a dead link");
}

/// One injector reused for a second run: every link kill fired in the
/// first run, so the second runs on an intact fabric at every tile count.
#[test]
fn reused_injector_fires_each_link_kill_once() {
    let schedule = FaultConfig { seed: 0x11_4C, ..FaultConfig::default() }
        .kill_link(DeadLink { node: 4, dir: 1, at: 30 })
        .kill_link(DeadLink { node: 7, dir: 1, at: 200 });
    let twice = |threads: usize| {
        let mut injector = ScheduledInjector::new(schedule);
        let mut run = || {
            let kernels = seeded_kernels(8, 0x4B11, 16);
            System::run_faulted(&cfg(8, threads), &[], kernels, &mut NullSink, &mut injector)
        };
        (run(), run())
    };
    let (first, second) = twice(1);
    assert!(first.as_ref().expect("dead links are routed around").fabric_reroutes > 0);
    assert_eq!(second.as_ref().expect("intact fabric").fabric_reroutes, 0);
    for threads in [2, 4] {
        let (a, b) = twice(threads);
        assert_same_outcome(&format!("first run@{threads}t"), &a, &first);
        assert_same_outcome(&format!("second run@{threads}t"), &b, &second);
    }
}

/// Corrupted Message flits, recovered by resilient eMPI's NACK and
/// retransmit; each tile's injector fork draws the corruptions of the
/// PEs it owns.
#[test]
fn flit_corruption_with_resilient_empi_matches_sequential() {
    let build = |threads: usize| {
        SystemConfig::builder()
            .compute_pes(8)
            .cycle_limit(50_000_000)
            .resilience(ResilienceConfig {
                empi_retransmit: true,
                empi_timeout: 10_000,
                ..ResilienceConfig::off()
            })
            .host_threads(threads)
            .build()
            .unwrap()
    };
    let schedule =
        FaultConfig { seed: 0xC0_22, flit_corrupt_ppm: 20_000, ..FaultConfig::default() };
    let run = faulted_runs_match("corruption", build, || gather_kernels(8), schedule)
        .expect("corruption is recovered");
    assert!(run.fault.flits_corrupted > 0, "corruption never fired");
    assert!(run.retransmits() > 0, "corrupted chunks must be retransmitted");
}

/// PE stall windows and bank service delays, drawn by each tile's fork.
#[test]
fn pe_stalls_and_bank_delays_match_sequential() {
    let schedule = FaultConfig {
        seed: 0x57A1,
        pe_stall_ppm: 5_000,
        pe_stall_cycles: 40,
        bank_delay_ppm: 50_000,
        bank_delay_cycles: 25,
        ..FaultConfig::default()
    };
    let run = faulted_runs_match(
        "stalls",
        |threads| cfg_on(Topology::paper_4x4(), 10, 2, threads),
        || seeded_kernels(10, 0x57A1, 16),
        schedule,
    )
    .expect("stalls only slow the run down");
    assert!(run.fault.pe_stalls > 0, "no PE stall fired");
    assert!(run.fault.bank_delays > 0, "no bank delay fired");
}

/// A resilient receiver whose peer never sends NACK-spins until the
/// watchdog fires. Corruptions and a link kill fill the recent-fault
/// tail, which must merge from the tiles' logs to the same string.
#[test]
fn watchdog_error_and_fault_tail_match_sequential() {
    let build = |threads: usize| {
        SystemConfig::builder()
            .compute_pes(2)
            .cycle_limit(50_000_000)
            .resilience(ResilienceConfig {
                empi_retransmit: true,
                empi_timeout: 1_000,
                watchdog_cycles: 40_000,
                ..ResilienceConfig::off()
            })
            .host_threads(threads)
            .build()
            .unwrap()
    };
    let kernels = || -> Vec<Kernel> {
        vec![
            kernel(move |api: PeApi| async move {
                let _ = Empi::new(api).recv(Rank::new(1)).await; // peer never sends
            }),
            kernel(move |api: PeApi| async move {
                Empi::new(api).compute(10).await;
            }),
        ]
    };
    let schedule = FaultConfig { seed: 0xD06, flit_corrupt_ppm: 100_000, ..FaultConfig::default() }
        .kill_link(DeadLink { node: 1, dir: 1, at: 500 });
    let err = faulted_runs_match("watchdog", build, kernels, schedule)
        .expect_err("the livelock must trip the watchdog");
    match &err {
        RunError::Watchdog { detail, .. } => {
            assert!(detail.contains("recent faults"), "fault tail missing: {detail}");
        }
        other => panic!("expected Watchdog, got {other}"),
    }
}
