//! The whole deflection-routed folded-torus fabric.
//!
//! Owns one [`DeflectionRouter`] per node and moves flits between them with
//! single-cycle links. The two-phase tick (route everything, then deliver
//! everything) gives the delta-cycle semantics of the original SystemC
//! model: all routers observe the state left by the previous cycle.
//!
//! The tick is the simulator's hot path and is engineered to be
//! allocation-free and activity-scheduled:
//!
//! * link latches are a persistent double buffer (`latches`), not a
//!   per-cycle collect;
//! * only *active* switches — those holding a latched flit or a pending
//!   injection at the cycle boundary — are routed; an idle switch costs
//!   nothing, which matters because realistic workloads leave most of the
//!   torus dark most of the time;
//! * the fabric-wide flit census ([`Fabric::in_flight`]) is an
//!   incrementally maintained counter, O(1) instead of an all-router scan
//!   (the cycle engine consults it every cycle).

use crate::coord::{Dir, Topology};
use crate::flit::Flit;
use crate::router::DeflectionRouter;
use crate::{Fabric, FabricStats};
use medea_metrics::{Meter, NullMeter};
use medea_sim::{ids::NodeId, Cycle};
use medea_trace::{NullSink, TraceEvent, TraceSink};

/// Arbitration uid for a flit injected at `node` during cycle `now`.
///
/// Routers arbitrate same-age flits by uid (see
/// [`DeflectionRouter::route`]: the sort key is `(injected_at, uid)`), so
/// the uid must reproduce the cycle engine's intra-cycle injection order:
/// within one cycle the engine offers PE flits in rank order, then bank
/// responses in bank order, and both the rank→node and bank→node maps are
/// strictly increasing. Encoding `(is_bank, node)` in the low 9 bits
/// therefore sorts exactly like a shared injection counter would — but is
/// locally computable, which is what lets the cycle engine's tiles assign
/// uids without any cross-tile coordination, so a run's result does not
/// depend on how many tiles it is split into.
///
/// The uid is unique among concurrently-resident flits: a router accepts at
/// most one injection per node per cycle, and no node hosts both a PE and a
/// bank. `injected_at` occupies bits 9.., so cycle counts must stay below
/// 2^55 — comfortably above the configurable cycle limit.
#[inline]
pub fn compose_uid(now: Cycle, from_bank: bool, node: NodeId) -> u64 {
    (now << 9) | ((from_bank as u64) << 8) | node.index() as u64
}

/// Deflection-routed folded-torus network (§II-A), or one contiguous
/// shard of it.
///
/// [`Network::new`] builds the whole fabric. [`Network::shard`] builds the
/// routers of the node range `[lo, hi)` only, for one tile of the cycle
/// engine; the whole fabric is simply the shard over `0..nodes`. A shard
/// ticks exactly like the whole fabric except in phase 2: a latched flit
/// whose receiving switch lives outside the shard is not delivered but
/// queued as an export `(destination node, receiving direction, flit)`.
/// The engine hands exports to the owning shard, which imports them at
/// the start of the next cycle — the same single-cycle link timing the
/// whole fabric implements by calling [`DeflectionRouter::accept`]
/// directly. Because each `(router, direction)` input latch has exactly
/// one possible writer (the unique neighbour on that link), boundary
/// deliveries from different shards can never collide, and import order
/// cannot change the outcome.
///
/// Injection uses [`compose_uid`], so shards assign globally consistent
/// arbitration uids without coordination; statistics are per shard and
/// merge in tile order at the end of a run ([`FabricStats::merge`]).
#[derive(Debug, Clone)]
pub struct Network {
    topo: Topology,
    /// The node range `[lo, hi)` this network owns.
    lo: usize,
    hi: usize,
    routers: Vec<DeflectionRouter>,
    stats: FabricStats,
    /// Flits inside this network (latches + injection registers + ejection
    /// queues): +1 on accepted injection or import, -1 on ejection or
    /// export.
    in_flight: usize,
    /// Per-router output latches, reused every cycle.
    latches: Vec<[Option<Flit>; 4]>,
    /// Routers with work at the next cycle boundary (dedup'd by
    /// `is_active`); swapped with `retired` each tick.
    active: Vec<u16>,
    is_active: Vec<bool>,
    /// Spare buffer holding the previous cycle's working set.
    retired: Vec<u16>,
    /// Boundary deliveries produced by the latest tick: `(destination
    /// node index, receiving direction index, flit)`. Always empty for the
    /// whole fabric.
    exports: Vec<(u16, u8, Flit)>,
}

impl Network {
    /// Build the whole fabric for `topo`.
    pub fn new(topo: Topology) -> Self {
        Self::shard(topo, 0, topo.nodes())
    }

    /// Build the shard of `topo` owning the node range `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or reaches past the last node.
    pub fn shard(topo: Topology, lo: usize, hi: usize) -> Self {
        assert!(lo < hi && hi <= topo.nodes(), "invalid shard range {lo}..{hi}");
        let routers = (lo..hi)
            .map(|i| DeflectionRouter::new(topo, topo.coord_of(NodeId::new(i as u16))))
            .collect();
        let len = hi - lo;
        Network {
            topo,
            lo,
            hi,
            routers,
            stats: FabricStats::default(),
            in_flight: 0,
            latches: vec![[None; 4]; len],
            active: Vec::with_capacity(len),
            is_active: vec![false; len],
            retired: Vec::with_capacity(len),
            exports: Vec::new(),
        }
    }

    /// The topology this network was built for.
    pub const fn topology(&self) -> Topology {
        self.topo
    }

    /// Whether `node` belongs to this network.
    fn owns(&self, node: usize) -> bool {
        (self.lo..self.hi).contains(&node)
    }

    fn mark_active(&mut self, local: usize) {
        if !self.is_active[local] {
            self.is_active[local] = true;
            self.active.push(local as u16);
        }
    }

    /// Accept a boundary delivery produced by a neighbouring shard during
    /// the previous cycle: the flit enters `to`'s input latch from
    /// direction `from_dir`, exactly as [`DeflectionRouter::accept`] would
    /// have during the whole fabric's phase 2.
    pub fn import(&mut self, to: u16, from_dir: u8, flit: Flit) {
        let local = to as usize - self.lo;
        self.routers[local].accept(Dir::ALL[from_dir as usize & 3], flit);
        self.in_flight += 1;
        self.mark_active(local);
    }

    /// Take the boundary deliveries produced by the latest tick. The
    /// returned iterator drains the export buffer, which keeps its
    /// capacity, so a steady exchange allocates nothing.
    pub fn take_exports(&mut self) -> std::vec::Drain<'_, (u16, u8, Flit)> {
        self.exports.drain(..)
    }

    /// [`Fabric::tick`] with NoC events reported to `sink`: per-router
    /// deflections (from [`DeflectionRouter::route_traced`]) and the
    /// per-cycle output-link occupancy of every active router — the raw
    /// series behind per-link heatmaps. With an inactive sink this
    /// monomorphizes to exactly the untraced tick.
    pub fn tick_traced<S: TraceSink>(&mut self, now: Cycle, sink: &mut S) {
        self.tick_metered(now, sink, &mut NullMeter);
    }
}

impl Fabric for Network {
    fn try_inject(&mut self, node: NodeId, flit: Flit, now: Cycle) -> Result<(), Flit> {
        self.try_inject_tagged(node, flit, now, false)
    }

    fn try_inject_tagged(
        &mut self,
        node: NodeId,
        mut flit: Flit,
        now: Cycle,
        from_bank: bool,
    ) -> Result<(), Flit> {
        flit.meta.injected_at = now;
        flit.meta.uid = compose_uid(now, from_bank, node);
        let local = node.index() - self.lo;
        match self.routers[local].try_inject(flit) {
            Ok(()) => {
                self.stats.injected += 1;
                self.in_flight += 1;
                self.mark_active(local);
                Ok(())
            }
            Err(flit) => {
                self.stats.inject_refusals += 1;
                Err(flit)
            }
        }
    }

    fn eject(&mut self, node: NodeId) -> Option<Flit> {
        let flit = self.routers[node.index() - self.lo].eject();
        if flit.is_some() {
            self.in_flight -= 1;
        }
        flit
    }

    fn tick(&mut self, now: Cycle) {
        self.tick_metered(now, &mut NullSink, &mut NullMeter);
    }

    /// Each active router contributes the 4-bit mask of its latched
    /// output directions ([`Meter::link_busy`]), keyed by *global* node
    /// id, so per-shard meters merge by element-wise sum — the
    /// directed-link resolution behind the heatmap report, where the trace
    /// event ([`medea_trace::TraceEvent::LinkLoad`]) only carries the
    /// per-router count. Both guards are associated constants, so either
    /// instrument monomorphizes away independently.
    fn tick_metered<S: TraceSink, M: Meter>(&mut self, now: Cycle, sink: &mut S, meter: &mut M) {
        // This cycle's working set, moved out so the `active` field can
        // start accumulating the next cycle's set into the spare buffer
        // (both buffers are retained — steady state allocates nothing).
        let mut work = std::mem::replace(&mut self.active, std::mem::take(&mut self.retired));
        for &i in &work {
            self.is_active[i as usize] = false;
        }

        // Phase 1: every active router routes its latched flits into the
        // persistent link latches.
        for &i in &work {
            self.latches[i as usize] =
                self.routers[i as usize].route_traced(now, &mut self.stats, sink);
        }

        // Phase 2: deliver over the (single-cycle) links; receiving
        // switches and switches with an undrained injection register form
        // the next working set. A receiving switch outside this shard
        // gets the flit as an export instead.
        for &i in &work {
            let i = i as usize;
            let node = (self.lo + i) as u16;
            if S::ACTIVE || M::ACTIVE {
                // Every *active* router reports its occupancy — zeros
                // included, so a draining router's counter series returns
                // to zero instead of freezing at its last busy value.
                // Idle routers are not in the working set and emit
                // nothing.
                let mut mask = 0u8;
                for (d, latch) in self.latches[i].iter().enumerate() {
                    mask |= u8::from(latch.is_some()) << d;
                }
                if S::ACTIVE {
                    let links = mask.count_ones() as u8;
                    sink.record(now, TraceEvent::LinkLoad { node, links });
                }
                if M::ACTIVE {
                    meter.link_busy(node, mask);
                }
            }
            let from = self.topo.coord_of(NodeId::new(node));
            for dir in Dir::ALL {
                if let Some(flit) = self.latches[i][dir.index()].take() {
                    let to = self.topo.node_of(self.topo.neighbor(from, dir)).index();
                    if self.owns(to) {
                        self.routers[to - self.lo].accept(dir.opposite(), flit);
                        self.mark_active(to - self.lo);
                    } else {
                        self.exports.push((to as u16, dir.opposite().index() as u8, flit));
                        self.in_flight -= 1;
                    }
                }
            }
            if self.routers[i].has_pending_inject() {
                self.mark_active(i);
            }
        }

        work.clear();
        self.retired = work;
    }

    fn in_flight(&self) -> usize {
        self.in_flight
    }

    fn stats(&self) -> &FabricStats {
        &self.stats
    }

    fn node_count(&self) -> usize {
        self.topo.nodes()
    }

    /// Kill the physical link between `node` and its `dir` neighbour, in
    /// both directions: this switch's output port *and* the neighbour's
    /// opposite output port go dead, so each affected switch keeps at
    /// least as many live output ports as live input latches and the
    /// deflection free-port invariant survives. Flits already in flight
    /// are unaffected (they simply route around the gap from now on).
    ///
    /// A shard kills only the endpoints it owns, so a link crossing a
    /// shard boundary dies once every shard has been told about it.
    fn kill_link(&mut self, node: NodeId, dir: Dir) {
        let neighbor = self.topo.node_of(self.topo.neighbor(self.topo.coord_of(node), dir));
        for (end, port) in [(node, dir), (neighbor, dir.opposite())] {
            if self.owns(end.index()) {
                self.routers[end.index() - self.lo].set_link_dead(port);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::PacketKind;

    fn net() -> Network {
        Network::new(Topology::paper_4x4())
    }

    fn run_until_delivered(net: &mut Network, node: NodeId, limit: Cycle) -> (Flit, Cycle) {
        for now in 0..limit {
            net.tick(now);
            if let Some(f) = net.eject(node) {
                return (f, now);
            }
        }
        panic!("flit not delivered within {limit} cycles");
    }

    #[test]
    fn single_flit_minimal_path() {
        let mut n = net();
        let dest = NodeId::new(5); // (1,1): 2 hops from (0,0)
        let flit = Flit::message(n.topology().coord_of(dest), 0, 0, 0, 42);
        n.try_inject(NodeId::new(0), flit, 0).unwrap();
        let (arrived, when) = run_until_delivered(&mut n, dest, 16);
        assert_eq!(arrived.payload(), 42);
        assert_eq!(arrived.meta.hops, 2);
        // 1 cycle to leave the injection register + 1 per hop.
        assert!(when <= 4, "took {when} cycles");
        assert_eq!(n.stats().delivered, 1);
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn wraparound_link_used() {
        let mut n = net();
        // (0,0) -> (3,0) is one westward wrap hop.
        let dest = NodeId::new(3);
        let flit = Flit::message(n.topology().coord_of(dest), 0, 0, 0, 7);
        n.try_inject(NodeId::new(0), flit, 0).unwrap();
        let (arrived, _) = run_until_delivered(&mut n, dest, 16);
        assert_eq!(arrived.meta.hops, 1);
    }

    #[test]
    fn flit_to_self_delivered_locally() {
        let mut n = net();
        let dest = NodeId::new(6);
        let flit = Flit::message(n.topology().coord_of(dest), 0, 0, 0, 9);
        n.try_inject(dest, flit, 0).unwrap();
        // Self-addressed traffic leaves the injection register, is latched
        // at the local router and ejected; it still crosses the switch.
        let (arrived, _) = run_until_delivered(&mut n, dest, 16);
        assert_eq!(arrived.payload(), 9);
    }

    #[test]
    fn all_pairs_deliver() {
        let mut n = net();
        let topo = n.topology();
        // Pending (source, flit) pairs: every ordered pair of distinct nodes.
        let mut pending: Vec<(NodeId, Flit)> = Vec::new();
        for s in 0..topo.nodes() {
            for d in 0..topo.nodes() {
                if s == d {
                    continue;
                }
                let flit = Flit::message(
                    topo.coord_of(NodeId::new(d as u16)),
                    s as u8,
                    0,
                    0,
                    (s * 100 + d) as u32,
                );
                pending.push((NodeId::new(s as u16), flit));
            }
        }
        let expected = pending.len() as u64;
        let mut delivered = 0u64;
        let mut now: Cycle = 0;
        while delivered < expected && now < 5000 {
            // Inject whatever the routers will take this cycle.
            let mut still_pending = Vec::new();
            for (src, flit) in pending {
                match n.try_inject(src, flit, now) {
                    Ok(()) => {}
                    Err(back) => still_pending.push((src, back)),
                }
            }
            pending = still_pending;
            n.tick(now);
            for node in 0..topo.nodes() {
                while n.eject(NodeId::new(node as u16)).is_some() {
                    delivered += 1;
                }
            }
            now += 1;
        }
        assert_eq!(delivered, expected, "all flits must eventually arrive");
        assert_eq!(n.in_flight(), 0);
        assert_eq!(n.stats().delivered, expected);
    }

    #[test]
    fn heavy_contention_is_lossless() {
        // Every node floods node 0; deflection must deliver everything.
        let mut n = net();
        let topo = n.topology();
        let hot = NodeId::new(0);
        let hot_coord = topo.coord_of(hot);
        let mut injected = 0u64;
        let mut delivered = 0u64;
        for now in 0..400 {
            if now < 100 {
                for s in 1..topo.nodes() {
                    let f = Flit::new(
                        hot_coord,
                        PacketKind::Message,
                        crate::flit::SubKind::Data,
                        0,
                        0,
                        s as u8,
                        now as u32,
                    );
                    if n.try_inject(NodeId::new(s as u16), f, now).is_ok() {
                        injected += 1;
                    }
                }
            }
            n.tick(now);
            while n.eject(hot).is_some() {
                delivered += 1;
            }
        }
        assert!(injected > 100, "sanity: {injected} injected");
        assert_eq!(delivered, injected, "hot-potato routing must be lossless");
        assert!(n.stats().deflections > 0, "contention must cause deflections");
    }

    #[test]
    fn killed_link_is_routed_around_losslessly() {
        let mut n = net();
        let topo = n.topology();
        // Kill (0,0)->East; traffic (0,0)->(2,0) would take it.
        n.kill_link(NodeId::new(0), Dir::East);
        let mut injected = 0u64;
        let mut delivered = 0u64;
        for now in 0..600 {
            if now < 50 {
                for s in 0..topo.nodes() {
                    let d = (s + 2) % topo.nodes();
                    let f = Flit::message(
                        topo.coord_of(NodeId::new(d as u16)),
                        s as u8,
                        0,
                        0,
                        now as u32,
                    );
                    if n.try_inject(NodeId::new(s as u16), f, now).is_ok() {
                        injected += 1;
                    }
                }
            }
            n.tick(now);
            for node in 0..topo.nodes() {
                while n.eject(NodeId::new(node as u16)).is_some() {
                    delivered += 1;
                }
            }
        }
        assert!(injected > 100, "sanity: {injected} injected");
        assert_eq!(delivered, injected, "dead link must not lose flits");
        assert!(n.stats().reroutes > 0, "traffic must have been diverted");
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn shard_pair_matches_whole_network() {
        // Two shards exchanging exports through mailboxes must behave
        // bit-identically to the whole fabric: same refusals, same
        // deliveries (uid/hops included), same stats after a tile-order
        // merge. This is the noc-layer half of the tiled engine's
        // determinism argument.
        let topo = Topology::paper_4x4();
        let mut whole = Network::new(topo);
        let mut shards = [Network::shard(topo, 0, 8), Network::shard(topo, 8, 16)];
        let tile_of = |node: usize| usize::from(node >= 8);
        // Boundary flits in flight between cycles, keyed by destination tile.
        let mut mailboxes: [Vec<(u16, u8, Flit)>; 2] = [Vec::new(), Vec::new()];
        for now in 0..400u64 {
            for dest in 0..2 {
                let batch: Vec<_> = mailboxes[dest].drain(..).collect();
                for (to, from_dir, flit) in batch {
                    shards[dest].import(to, from_dir, flit);
                }
            }
            if now < 120 {
                for s in 0..topo.nodes() {
                    let d = (s * 7 + 3) % topo.nodes();
                    if d == s {
                        continue;
                    }
                    let flit = Flit::message(
                        topo.coord_of(NodeId::new(d as u16)),
                        s as u8,
                        0,
                        0,
                        (now * 31 + s as u64) as u32,
                    );
                    let a = whole.try_inject(NodeId::new(s as u16), flit, now).is_ok();
                    let b = shards[tile_of(s)]
                        .try_inject_tagged(NodeId::new(s as u16), flit, now, false)
                        .is_ok();
                    assert_eq!(a, b, "inject divergence at node {s} cycle {now}");
                }
            }
            whole.tick(now);
            for shard in &mut shards {
                shard.tick_traced(now, &mut NullSink);
            }
            for shard in &mut shards {
                for export in shard.take_exports() {
                    mailboxes[tile_of(export.0 as usize)].push(export);
                }
            }
            for node in 0..topo.nodes() {
                loop {
                    let a = whole.eject(NodeId::new(node as u16));
                    let b = shards[tile_of(node)].eject(NodeId::new(node as u16));
                    match (a, b) {
                        (Some(x), Some(y)) => {
                            assert_eq!(x.meta.uid, y.meta.uid);
                            assert_eq!(x.meta.hops, y.meta.hops);
                            assert_eq!(x.payload(), y.payload());
                        }
                        (None, None) => break,
                        (a, b) => {
                            panic!("eject divergence at node {node} cycle {now}: {a:?} vs {b:?}")
                        }
                    }
                }
            }
        }
        assert_eq!(whole.in_flight(), 0, "whole fabric must drain");
        assert_eq!(shards[0].in_flight() + shards[1].in_flight(), 0);
        let mut merged = shards[0].stats().clone();
        merged.merge(shards[1].stats());
        assert!(whole.stats().delivered > 0);
        assert_eq!(merged.delivered, whole.stats().delivered);
        assert_eq!(merged.injected, whole.stats().injected);
        assert_eq!(merged.deflections, whole.stats().deflections);
        assert_eq!(merged.inject_refusals, whole.stats().inject_refusals);
        assert_eq!(merged.reroutes, whole.stats().reroutes);
        assert_eq!(&merged.latency, &whole.stats().latency);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut n = net();
            let topo = n.topology();
            for now in 0..50 {
                for s in 0..topo.nodes() {
                    let d = (s * 7 + 3) % topo.nodes();
                    if d != s {
                        let f = Flit::message(
                            topo.coord_of(NodeId::new(d as u16)),
                            s as u8,
                            0,
                            0,
                            (now * 31 + s as u64) as u32,
                        );
                        let _ = n.try_inject(NodeId::new(s as u16), f, now);
                    }
                }
                n.tick(now);
            }
            (n.stats().delivered, n.stats().deflections, n.in_flight())
        };
        assert_eq!(run(), run());
    }
}
