//! Worker-pool synchronization for the tiled cycle engine.
//!
//! The parallel engine in `medea-core` domain-decomposes the torus into
//! per-thread tiles and advances all tiles in lockstep, one simulated clock
//! cycle per step. The synchronization shape is a classic *phaser*: every
//! cycle, each tile finishes its share of the cycle, publishes a small
//! report and its boundary flits, and crosses the barrier; tile 0 (on the
//! calling thread) closes each generation by waiting for every other tile
//! and releasing them at once. Past the barrier every tile reads every
//! report and makes the same end-of-cycle decision itself, so no decision
//! travels through the barrier.
//!
//! The barrier *is* the clock edge: no tile can observe another tile's
//! cycle-`T` state until every tile has finished cycle `T`, so cross-tile
//! effects (boundary link latches, in-flight counts, stats) are exchanged
//! at exactly the same simulated time as a one-tile run's intra-cycle
//! phase ordering — which is what keeps a multi-tile run bit-identical to
//! `System::run` on one thread.
//!
//! [`Phaser`] is intentionally tiny and spin-based. Cycle times are in the
//! hundreds of nanoseconds to a few microseconds, so parking (`Condvar`,
//! `std::sync::Barrier`) would dominate the cycle itself; instead followers
//! spin with [`std::hint::spin_loop`] and yield to the OS periodically so
//! oversubscribed hosts still make progress. A `poison` flag gives panics a
//! way out: any participant that unwinds poisons the phaser, every spin loop
//! bails, and the caller re-raises the payload after joining the pool.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Spin every this many iterations before yielding the OS thread, so a
/// follower that arrives while the host is oversubscribed (more workers
/// than cores, e.g. a sweep running multi-threaded engines) cannot starve
/// the worker it is waiting for.
const SPINS_PER_YIELD: u32 = 256;

/// A reusable two-sided spin barrier for one leader plus `n - 1` followers.
///
/// Protocol per cycle (generation):
///
/// 1. followers call [`Phaser::arrive_and_wait`] — publish their data
///    *before* arriving (the `AcqRel` arrival makes it visible), then spin
///    until the leader bumps the generation;
/// 2. the leader calls [`Phaser::wait_followers`], then [`Phaser::release`].
///    Anything the leader does between the two is serial work every
///    follower waits through; the cycle engine does none and releases at
///    once. The split API stays for callers that measure or use that
///    window (the host-speed benchmark's barrier probe).
///
/// All cross-thread data (the engine's tile outboxes) rides on the
/// acquire/release pairs of `arrived` and `generation`, so the shared
/// structures themselves can be plain uncontended `Mutex`es.
#[derive(Debug)]
pub struct Phaser {
    participants: usize,
    arrived: AtomicUsize,
    generation: AtomicU64,
    poison: AtomicBool,
}

impl Phaser {
    /// Phaser for `participants` workers total (leader included).
    pub fn new(participants: usize) -> Self {
        Phaser {
            participants,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            poison: AtomicBool::new(false),
        }
    }

    /// Current generation; a follower snapshots this *before* arriving and
    /// passes it to [`Phaser::arrive_and_wait`].
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Follower side: arrive at the barrier for generation `seen` (from
    /// [`Phaser::generation`]) and spin until the leader releases it.
    /// Returns `false` if the phaser was poisoned, in which case the worker
    /// must abandon the run.
    pub fn arrive_and_wait(&self, seen: u64) -> bool {
        self.arrived.fetch_add(1, Ordering::AcqRel);
        let mut spins = 0u32;
        loop {
            if self.poison.load(Ordering::Acquire) {
                return false;
            }
            if self.generation.load(Ordering::Acquire) != seen {
                return true;
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(SPINS_PER_YIELD) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Leader side: spin until every follower has arrived. Returns `false`
    /// if the phaser was poisoned by a panicking follower.
    pub fn wait_followers(&self) -> bool {
        let mut spins = 0u32;
        loop {
            if self.poison.load(Ordering::Acquire) {
                return false;
            }
            if self.arrived.load(Ordering::Acquire) == self.participants - 1 {
                return true;
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(SPINS_PER_YIELD) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Leader side: open the next generation, releasing every follower
    /// spinning in [`Phaser::arrive_and_wait`]. Must only be called after
    /// [`Phaser::wait_followers`] returned `true`.
    pub fn release(&self) {
        self.arrived.store(0, Ordering::Release);
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Mark the phaser poisoned: every current and future wait returns
    /// `false` immediately. Called from panic handlers on either side.
    pub fn poison(&self) {
        self.poison.store(true, Ordering::Release);
    }

    /// Whether the phaser has been poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.poison.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn lockstep_counting() {
        // 4 workers increment a shared tally once per generation; the
        // barrier must keep them in lockstep for every generation.
        const WORKERS: usize = 4;
        const GENERATIONS: u64 = 200;
        let phaser = Phaser::new(WORKERS);
        let tally = Mutex::new(vec![0u64; WORKERS]);
        std::thread::scope(|scope| {
            for follower in 1..WORKERS {
                let phaser = &phaser;
                let tally = &tally;
                scope.spawn(move || {
                    for _ in 0..GENERATIONS {
                        let seen = phaser.generation();
                        tally.lock().unwrap()[follower] += 1;
                        assert!(phaser.arrive_and_wait(seen));
                    }
                });
            }
            for generation in 0..GENERATIONS {
                tally.lock().unwrap()[0] += 1;
                assert!(phaser.wait_followers());
                {
                    let counts = tally.lock().unwrap();
                    assert!(
                        counts.iter().all(|&c| c == generation + 1),
                        "tile drifted out of lockstep at generation {generation}: {counts:?}"
                    );
                }
                phaser.release();
            }
        });
    }

    #[test]
    fn poison_releases_both_sides() {
        let phaser = Phaser::new(2);
        std::thread::scope(|scope| {
            let handle = {
                let phaser = &phaser;
                scope.spawn(move || {
                    let seen = phaser.generation();
                    phaser.arrive_and_wait(seen)
                })
            };
            assert!(phaser.wait_followers());
            phaser.poison();
            // Never released, yet the follower must come back (with false).
            assert!(!handle.join().unwrap());
            assert!(!phaser.wait_followers());
            assert!(phaser.is_poisoned());
        });
    }
}
