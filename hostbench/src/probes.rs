//! Standalone host-cost probes of the two synchronization layers the
//! cycle engine is built on: the kernel hand-off and the tiled engine's
//! per-cycle barrier.

use medea_sim::coroutine::{Fetched, KernelHost, KernelPort};
use medea_sim::par::Phaser;
use medea_sim::rng::SplitMix64;
use std::time::Instant;

/// Mean host nanoseconds of one [`KernelHost`] round trip (the kernel's
/// request, the engine's fetch and reply, the kernel's resumption) with
/// `kernels` kernels served round-robin, as the engine serves its PEs.
/// Each kernel issues `calls` requests carrying seeded payloads and
/// checks every reply.
///
/// # Panics
///
/// Panics if a kernel sees a wrong reply or panics itself.
pub fn handoff_ns(kernels: usize, calls: usize, seed: u64) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let mut hosts: Vec<KernelHost<u64, u64>> = (0..kernels)
        .map(|k| {
            let start = rng.next_u64();
            KernelHost::spawn(&format!("probe-{k}"), move |port: KernelPort<u64, u64>| {
                let mut v = start;
                for _ in 0..calls {
                    let r = port.call(v).expect("probe host alive");
                    assert_eq!(r, v.wrapping_add(1), "hand-off reply");
                    v = r.rotate_left(7);
                }
            })
        })
        .collect();
    let t0 = Instant::now();
    let mut live = kernels;
    let mut trips = 0u64;
    while live > 0 {
        for host in hosts.iter_mut().filter(|h| !h.is_finished()) {
            match host.fetch() {
                Fetched::Request(v) => {
                    host.reply(v.wrapping_add(1));
                    trips += 1;
                }
                Fetched::Finished => live -= 1,
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    for host in &mut hosts {
        assert!(!host.join(), "hand-off probe kernel panicked");
    }
    assert_eq!(trips, (kernels * calls) as u64, "every request answered");
    secs * 1e9 / trips as f64
}

/// Mean host nanoseconds of one [`Phaser`] crossing (every follower
/// arrives, the leader waits for them and releases the next generation)
/// with `threads` participants; 0 for fewer than two, where the engine
/// runs no barrier.
///
/// # Panics
///
/// Panics if a follower thread panics.
pub fn barrier_ns(threads: usize, crossings: usize) -> f64 {
    if threads < 2 {
        return 0.0;
    }
    let phaser = Phaser::new(threads);
    let mut secs = 0.0;
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(|| while phaser.arrive_and_wait(phaser.generation()) {});
        }
        let t0 = Instant::now();
        for _ in 0..crossings {
            assert!(phaser.wait_followers(), "phaser poisoned");
            phaser.release();
        }
        secs = t0.elapsed().as_secs_f64();
        // Poisoning is the phaser's way out: every follower returns.
        phaser.poison();
    });
    secs * 1e9 / crossings as f64
}
