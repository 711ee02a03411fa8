//! Standalone replays of one traced run, one layer at a time.
//!
//! Each replay drives a fresh instance of one layer's public model with
//! exactly the work the traced run gave it, times only that loop, and then
//! checks that the replay reproduced the run's own counters. A replay that
//! disagrees with the run returns an error instead of a time: its number
//! would describe some other traffic.

use crate::capture::{Access, Delivery, Dispatch, MemOp};
use medea_cache::{CacheStats, FlushOutcome, SetAssocCache, StoreOutcome, LINE_BYTES};
use medea_core::system::RunResult;
use medea_core::SystemConfig;
use medea_mem::{Mpmmu, MpmmuStats};
use medea_noc::flit::{Flit, PacketKind};
use medea_noc::network::Network;
use medea_noc::Fabric;
use medea_pe::bridge::{BridgeOp, BridgeResult, Pif2NocBridge};
use medea_sim::ids::NodeId;
use medea_sim::Cycle;
use medea_trace::event::CacheEventKind;
use std::time::Instant;

/// Host seconds of a replay that reproduced the run's counters.
pub type Timed = Result<f64, String>;

/// Compare named counter pairs, describing the first disagreement.
fn compare(what: &str, pairs: &[(&str, u64, u64)]) -> Result<(), String> {
    match pairs.iter().find(|(_, replay, run)| replay != run) {
        Some((name, replay, run)) => {
            Err(format!("{what}: replay counted {name} = {replay}, the run {run}"))
        }
        None => Ok(()),
    }
}

/// Replay the fabric: re-inject every delivered flit at its original
/// cycle, node and bank tag (all recovered from its uid, see
/// [`medea_noc::network::compose_uid`]) into a fresh [`Network`], tick it,
/// and eject at the cycles and nodes the run ejected. Every ejected flit
/// must be the one the run ejected there, with the same hops and
/// deflections; the fabric totals must match `fabric_delivered` and
/// `fabric_deflections`.
///
/// # Errors
///
/// Describes the first disagreement with the run.
pub fn noc(sys: &SystemConfig, run: &RunResult, deliveries: &[Delivery]) -> Timed {
    let topo = sys.topology();
    // (inject cycle, uid, source node, from bank, destination node) in
    // uid order, which is the engine's injection order within a cycle.
    let mut injects = Vec::with_capacity(deliveries.len());
    for d in deliveries {
        let at = d.uid >> 9;
        if at + d.latency != d.at {
            return Err(format!(
                "noc: flit {:#x} latency {} disagrees with its uid",
                d.uid, d.latency
            ));
        }
        let src = NodeId::new((d.uid & 0xff) as u16);
        injects.push((at, d.uid, src, d.uid & 0x100 != 0, d.node));
    }
    injects.sort_unstable_by_key(|i| i.1);
    let mut ejects = deliveries.to_vec();
    ejects.sort_by_key(|d| d.at);

    let mut net = Network::new(topo);
    let t0 = Instant::now();
    let (mut i, mut e) = (0, 0);
    let mut now: Cycle = injects.first().map_or(0, |x| x.0);
    while i < injects.len() || e < ejects.len() {
        while let Some(d) = ejects.get(e).filter(|d| d.at == now) {
            match net.eject(NodeId::new(d.node)) {
                Some(f)
                    if f.meta.uid == d.uid
                        && f.meta.hops == d.hops
                        && f.meta.deflections == d.deflections => {}
                other => {
                    return Err(format!(
                        "noc: cycle {now} node {} ejected {:?}, the run flit {:#x}",
                        d.node,
                        other.map(|f| f.meta),
                        d.uid
                    ))
                }
            }
            e += 1;
        }
        while let Some(&(_, uid, src, from_bank, dest)) = injects.get(i).filter(|x| x.0 == now) {
            let flit = Flit::message(topo.coord_of(NodeId::new(dest)), src.index() as u8, 0, 0, 0);
            if net.try_inject_tagged(src, flit, now, from_bank).is_err() {
                return Err(format!("noc: cycle {now} refused flit {uid:#x} the run injected"));
            }
            i += 1;
        }
        net.tick(now);
        now = if net.in_flight() > 0 {
            now + 1
        } else {
            let next_inject = injects.get(i).map_or(Cycle::MAX, |x| x.0);
            let next_eject = ejects.get(e).map_or(Cycle::MAX, |d| d.at);
            next_inject.min(next_eject).max(now + 1)
        };
    }
    let secs = t0.elapsed().as_secs_f64();
    let stats = net.stats();
    compare(
        "noc",
        &[
            ("fabric_delivered", stats.delivered, run.fabric_delivered),
            ("fabric_deflections", stats.deflections, run.fabric_deflections),
        ],
    )?;
    Ok(secs)
}

/// Replay the L1s: feed every PE's traced accesses into its own fresh
/// [`SetAssocCache`] of the run's geometry, allocating on misses as the
/// PE does. Every access must hit or miss as it did in the run, and each
/// PE's cache counters must match the run's.
///
/// # Errors
///
/// Describes the first disagreement with the run.
pub fn cache(sys: &SystemConfig, run: &RunResult, accesses: &[Access]) -> Timed {
    let mut l1: Vec<SetAssocCache> =
        (0..sys.topology().nodes()).map(|_| SetAssocCache::new(sys.cache())).collect();
    let mut disagreement: Option<(usize, Access)> = None;
    let t0 = Instant::now();
    for (k, a) in accesses.iter().enumerate() {
        let c = &mut l1[a.node as usize];
        let line = a.addr & !(LINE_BYTES as u32 - 1);
        let agrees = match a.kind {
            CacheEventKind::LoadHit => c.load_word(a.addr).is_some(),
            CacheEventKind::LoadMiss => c.load_word(a.addr).is_none(),
            CacheEventKind::StoreHit => c.store_word(a.addr, 0) == StoreOutcome::Absorbed,
            CacheEventKind::StoreMiss => c.store_word(a.addr, 0) == StoreOutcome::NeedsAllocate,
            CacheEventKind::StoreThrough => c.store_word(a.addr, 0) == StoreOutcome::WriteThrough,
            CacheEventKind::Flush => c.flush_line(a.addr) == FlushOutcome::Clean,
            CacheEventKind::FlushWriteback => {
                matches!(c.flush_line(a.addr), FlushOutcome::Writeback(_))
            }
            CacheEventKind::Invalidate => {
                c.invalidate_line(a.addr);
                true
            }
        };
        if matches!(a.kind, CacheEventKind::LoadMiss | CacheEventKind::StoreMiss) && agrees {
            c.evict_for(line);
            c.fill_line(line, [0; 4]);
        }
        if !agrees && disagreement.is_none() {
            disagreement = Some((k, *a));
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    if let Some((k, a)) = disagreement {
        return Err(format!("cache: access #{k} {a:?} went the other way in the replay"));
    }
    for (node, c) in l1.iter().enumerate() {
        let Some(rank) = sys.rank_of_node(NodeId::new(node as u16)) else { continue };
        let (r, s): (&CacheStats, &CacheStats) = (c.stats(), &run.pe[rank.index()].cache);
        compare(
            &format!("cache (PE {})", rank.index()),
            &[
                ("load_hits", r.load_hits.get(), s.load_hits.get()),
                ("load_misses", r.load_misses.get(), s.load_misses.get()),
                ("store_hits", r.store_hits.get(), s.store_hits.get()),
                ("store_misses", r.store_misses.get(), s.store_misses.get()),
                ("evictions", r.evictions.get(), s.evictions.get()),
                ("writebacks", r.writebacks.get(), s.writebacks.get()),
                ("invalidations", r.invalidations.get(), s.invalidations.get()),
            ],
        )?;
    }
    Ok(secs)
}

/// Pump cycles through a one-PE, one-bank loopback (no fabric) until
/// `done` says the transaction ended.
fn pump(
    bridge: &mut Pif2NocBridge,
    bank: &mut Mpmmu,
    now: &mut Cycle,
    mut done: impl FnMut(&mut Pif2NocBridge) -> Option<Result<(), String>>,
) -> Result<(), String> {
    const STEP_LIMIT: u32 = 100_000;
    for _ in 0..STEP_LIMIT {
        bridge.tick(*now);
        if let Some(flit) = bridge.take_output() {
            bank.handle_incoming(flit).map_err(|_| "mem: bank refused a request")?;
        }
        bank.tick(*now);
        while let Some(flit) = bank.pop_outgoing() {
            bridge.handle_response(flit, *now);
        }
        *now += 1;
        if let Some(outcome) = done(bridge) {
            return outcome;
        }
    }
    Err(format!("mem: transaction did not finish in {STEP_LIMIT} cycles"))
}

/// Replay the memory side: issue every MPMMU dispatch of the run, in
/// dispatch order, from a fresh [`Pif2NocBridge`] of the requesting PE
/// into a fresh [`Mpmmu`] of the bank, with flits handed across directly.
/// Lock requests must be granted or refused as in the run, and each
/// bank's transaction and lock counters must match the run's.
///
/// # Errors
///
/// Describes the first disagreement with the run.
pub fn mem(sys: &SystemConfig, run: &RunResult, dispatches: &[Dispatch]) -> Timed {
    let topo = sys.topology();
    let bank_nodes = sys.bank_nodes();
    let mut banks: Vec<Mpmmu> =
        bank_nodes.iter().map(|&n| Mpmmu::new(topo, n, sys.mpmmu_config())).collect();
    let mut bridges: Vec<Option<Pif2NocBridge>> = (0..topo.nodes())
        .map(|n| {
            let rank = sys.rank_of_node(NodeId::new(n as u16))?;
            Some(Pif2NocBridge::new(sys.bank_map(), n as u8, sys.pe_config(rank).bridge))
        })
        .collect();
    let mut now: Cycle = 0;
    let t0 = Instant::now();
    for (k, d) in dispatches.iter().enumerate() {
        let bank = bank_nodes
            .iter()
            .position(|n| n.index() == d.bank as usize)
            .ok_or_else(|| format!("mem: dispatch #{k} names unknown bank node {}", d.bank))?;
        let bank = &mut banks[bank];
        let bridge = bridges
            .get_mut(d.src as usize)
            .and_then(Option::as_mut)
            .ok_or_else(|| format!("mem: dispatch #{k} from non-PE node {}", d.src))?;
        let retry = bridge.backoff_until();
        if bridge.is_busy()
            && !(retry.is_some() && matches!(d.op, MemOp::LockGranted | MemOp::LockNacked))
        {
            return Err(format!("mem: dispatch #{k} {d:?} while PE {} is mid-transaction", d.src));
        }
        let (addr, line) = (d.addr, d.addr & !(LINE_BYTES as u32 - 1));
        match d.op {
            MemOp::Txn(code) => bridge.start(match PacketKind::from_code(code) {
                Some(PacketKind::SingleRead) => BridgeOp::SingleRead { addr },
                Some(PacketKind::SingleWrite) => BridgeOp::SingleWrite { addr, value: 0 },
                Some(PacketKind::BlockRead) => BridgeOp::BlockRead { line },
                Some(PacketKind::BlockWrite) => BridgeOp::BlockWrite { line, data: [0; 4] },
                other => return Err(format!("mem: dispatch #{k} of kind {other:?}")),
            }),
            // A refused lock retries from the bridge's back-off state.
            MemOp::LockGranted | MemOp::LockNacked => match retry {
                Some(until) => now = now.max(until),
                None => bridge.start(BridgeOp::Lock { addr }),
            },
            MemOp::Unlock => bridge.start(BridgeOp::Unlock { addr }),
        }
        let op = d.op;
        pump(bridge, bank, &mut now, |b| match (op, b.take_result()) {
            (MemOp::LockNacked, Some(r))
            | (MemOp::Unlock, Some(r @ BridgeResult::UnlockRejected)) => {
                Some(Err(format!("mem: dispatch #{k} {op:?} ended {r:?} in the replay")))
            }
            (MemOp::LockNacked, None) => b.backoff_until().map(|_| Ok(())),
            (MemOp::LockGranted, None) if b.backoff_until().is_some() => Some(Err(format!(
                "mem: dispatch #{k} lock granted in the run, refused in the replay"
            ))),
            (_, Some(_)) => Some(Ok(())),
            (_, None) => None,
        })?;
    }
    let secs = t0.elapsed().as_secs_f64();
    for (i, bank) in banks.iter().enumerate() {
        let (r, s): (&MpmmuStats, &MpmmuStats) = (bank.stats(), &run.banks[i].mpmmu);
        compare(
            &format!("mem (bank {i})"),
            &[
                ("single_reads", r.single_reads.get(), s.single_reads.get()),
                ("block_reads", r.block_reads.get(), s.block_reads.get()),
                ("single_writes", r.single_writes.get(), s.single_writes.get()),
                ("block_writes", r.block_writes.get(), s.block_writes.get()),
                ("locks_granted", r.locks_granted.get(), s.locks_granted.get()),
                ("lock_nacks", r.lock_nacks.get(), s.lock_nacks.get()),
                ("unlocks", r.unlocks.get(), s.unlocks.get()),
            ],
        )?;
    }
    Ok(secs)
}
