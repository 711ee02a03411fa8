//! Proof of the zero-allocation claim for the fabric hot path: a counting
//! global allocator observes `try_inject` → `tick` → `eject` cycles under
//! sustained contended traffic and must see no heap activity once the
//! network has been constructed — for the whole fabric and for two shards
//! exchanging boundary flits through mailboxes.
//!
//! The counter is **thread-scoped**: it is armed only on the driving
//! thread for the measured window. A process-global count was flaky —
//! the libtest harness thread occasionally allocates (timer/bookkeeping)
//! concurrently with the measured drive, producing spurious failures
//! unrelated to the fabric (observed at the seed commit too).

use medea_noc::coord::Topology;
use medea_noc::flit::Flit;
use medea_noc::network::Network;
use medea_noc::Fabric;
use medea_sim::ids::NodeId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether allocations on *this* thread count (armed by the test
    /// around its measured window). Const-initialized so reading it from
    /// inside the allocator never itself allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is inside a measured window. `try_with`:
/// allocator calls can arrive during TLS teardown, where access would
/// otherwise panic.
fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn fabric_steady_state_is_allocation_free() {
    let topo = Topology::paper_4x4();
    let mut net = Network::new(topo);

    // Drive every node at every other node round-robin — saturating,
    // deflection-heavy traffic touching every router and both the inject
    // and eject paths.
    let drive = |net: &mut Network, start: u64, cycles: u64| {
        let mut ejected = 0u64;
        for now in start..start + cycles {
            for s in 0..topo.nodes() {
                let d = (s + 1 + (now as usize % (topo.nodes() - 1))) % topo.nodes();
                let flit = Flit::message(topo.coord_of(NodeId::new(d as u16)), s as u8, 0, 0, 7);
                let _ = net.try_inject(NodeId::new(s as u16), flit, now);
            }
            net.tick(now);
            for n in 0..topo.nodes() {
                while net.eject(NodeId::new(n as u16)).is_some() {
                    ejected += 1;
                }
            }
            assert!(net.in_flight() <= topo.nodes() * 13, "census bounded by storage");
        }
        ejected
    };

    // Warm-up: reach steady state (histogram and FIFOs at final footprint).
    drive(&mut net, 0, 200);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let ejected = drive(&mut net, 200, 500);
    COUNTING.with(|c| c.set(false));
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert!(ejected > 1000, "sanity: traffic actually flowed ({ejected} ejected)");
    assert_eq!(
        after - before,
        0,
        "fabric hot path allocated {} times in steady state",
        after - before
    );
    assert!(net.stats().deflections > 0, "sanity: contention exercised the deflection path");
}

/// Offer one flit per node toward a rotating destination — saturating,
/// deflection-heavy traffic touching every router.
fn flit_for(topo: Topology, s: usize, now: u64) -> Flit {
    let d = (s + 1 + (now as usize % (topo.nodes() - 1))) % topo.nodes();
    Flit::message(topo.coord_of(NodeId::new(d as u16)), s as u8, 0, 0, 7)
}

#[test]
fn shard_exchange_steady_state_is_allocation_free() {
    // The two-shard exchange loop of the tiled engine: import last
    // cycle's boundary flits, inject, tick, move exports into the
    // destination tile's mailbox, eject. Mailboxes and export buffers
    // are drained, never replaced, so they keep their capacity.
    let topo = Topology::paper_4x4();
    let mut shards = [Network::shard(topo, 0, 8), Network::shard(topo, 8, 16)];
    let mut mailboxes: [Vec<(u16, u8, Flit)>; 2] = [Vec::new(), Vec::new()];
    let tile_of = |node: usize| usize::from(node >= 8);
    let mut drive = |shards: &mut [Network; 2], start: u64, cycles: u64| {
        let (mut ejected, mut exchanged) = (0u64, 0u64);
        for now in start..start + cycles {
            for (dest, mailbox) in mailboxes.iter_mut().enumerate() {
                for (to, from_dir, flit) in mailbox.drain(..) {
                    shards[dest].import(to, from_dir, flit);
                }
            }
            for s in 0..topo.nodes() {
                let _ = shards[tile_of(s)].try_inject(
                    NodeId::new(s as u16),
                    flit_for(topo, s, now),
                    now,
                );
            }
            for shard in shards.iter_mut() {
                shard.tick(now);
            }
            for shard in shards.iter_mut() {
                for export in shard.take_exports() {
                    mailboxes[tile_of(export.0 as usize)].push(export);
                    exchanged += 1;
                }
            }
            for n in 0..topo.nodes() {
                while shards[tile_of(n)].eject(NodeId::new(n as u16)).is_some() {
                    ejected += 1;
                }
            }
        }
        (ejected, exchanged)
    };

    // Warm-up: reach steady state (histograms, FIFOs, export buffers and
    // mailboxes at their final footprint).
    drive(&mut shards, 0, 200);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let (ejected, exchanged) = drive(&mut shards, 200, 500);
    COUNTING.with(|c| c.set(false));
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert!(ejected > 1000, "sanity: traffic actually flowed ({ejected} ejected)");
    assert!(exchanged > 100, "sanity: flits crossed the shard boundary ({exchanged})");
    assert_eq!(
        after - before,
        0,
        "shard exchange allocated {} times in steady state",
        after - before
    );
}
