//! Kernels are futures the engine polls: misuse is loud, early stops
//! drop the suspended kernels, and the request count is exact. (Kernel
//! panics are covered in `empi_system.rs`.)

use medea_core::api::PeApi;
use medea_core::system::{kernel, Kernel, RunError, System};
use medea_core::SystemConfig;
use medea_sim::ids::Rank;
use std::future::Future;
use std::pin::pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::Poll;

fn sys(pes: usize) -> SystemConfig {
    SystemConfig::builder().compute_pes(pes).cycle_limit(10_000_000).build().unwrap()
}

#[test]
#[should_panic(expected = "kernel on n1 panicked: posted a request while another was unanswered")]
fn two_operations_polled_at_once_panic() {
    let _ = System::run(
        &sys(1),
        &[],
        vec![kernel(|api: PeApi| async move {
            let mut a = pin!(api.compute(1));
            let mut b = pin!(api.compute(2));
            std::future::poll_fn(|cx| {
                let _ = a.as_mut().poll(cx);
                let _ = b.as_mut().poll(cx);
                Poll::<()>::Pending
            })
            .await;
        })],
    );
}

#[test]
#[should_panic(expected = "kernel on n1 is pending without a posted request")]
fn awaiting_a_foreign_future_panics() {
    let _ = System::run(
        &sys(1),
        &[],
        vec![kernel(|api: PeApi| async move {
            api.compute(1).await;
            std::future::pending::<()>().await;
        })],
    );
}

/// Counts drops of the kernels that hold a clone of it.
struct DropGuard(Arc<AtomicUsize>);

impl Drop for DropGuard {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn cycle_limit_drops_suspended_kernels() {
    let dropped = Arc::new(AtomicUsize::new(0));
    let kernels: Vec<Kernel> = (0..3)
        .map(|_| {
            let guard = DropGuard(Arc::clone(&dropped));
            kernel(move |api: PeApi| async move {
                let _guard = guard;
                loop {
                    api.compute(1).await;
                }
            })
        })
        .collect();
    let cfg = SystemConfig::builder().compute_pes(3).cycle_limit(500).build().unwrap();
    match System::run(&cfg, &[], kernels) {
        Err(RunError::CycleLimit { limit, .. }) => assert_eq!(limit, 500),
        other => panic!("expected CycleLimit, got {other:?}"),
    }
    assert_eq!(dropped.load(Ordering::SeqCst), 3, "every suspended kernel is dropped");
}

/// Two ranks that each wait for the other: nothing is ever sent.
fn mutual_recv(dropped: &Arc<AtomicUsize>) -> Vec<Kernel> {
    (0..2u8)
        .map(|r| {
            let guard = DropGuard(Arc::clone(dropped));
            kernel(move |api: PeApi| async move {
                let _guard = guard;
                let _ = api.recv_from_rank(Rank::new(1 - r)).await;
            })
        })
        .collect()
}

#[test]
fn deadlock_drops_suspended_kernels() {
    for threads in [1, 2] {
        let dropped = Arc::new(AtomicUsize::new(0));
        let cfg = SystemConfig::builder()
            .compute_pes(2)
            .cycle_limit(1_000_000)
            .host_threads(threads)
            .build()
            .unwrap();
        match System::run(&cfg, &[], mutual_recv(&dropped)) {
            Err(RunError::Deadlock { .. }) => {}
            other => panic!("expected Deadlock with {threads} thread(s), got {other:?}"),
        }
        assert_eq!(dropped.load(Ordering::SeqCst), 2, "{threads} thread(s)");
    }
}

#[test]
fn kernel_that_installs_nothing_finishes_at_once() {
    // The benchmark's set-up path: plain closures that return at once.
    let cfg = sys(15);
    let kernels: Vec<Kernel> = (0..15).map(|_| Box::new(|_api| {}) as Kernel).collect();
    let run = System::run(&cfg, &[], kernels).expect("idle machine");
    assert!(run.cycles <= 1, "idle kernels finish at once, took {} cycles", run.cycles);
    assert!(run.pe.iter().all(|p| p.engine.requests.get() == 0));
}

#[test]
fn hundred_thousand_compute_requests_are_all_served() {
    let run = System::run(
        &sys(1),
        &[],
        vec![kernel(|api: PeApi| async move {
            for _ in 0..100_000 {
                api.compute(1).await;
            }
        })],
    )
    .expect("compute loop");
    assert_eq!(run.pe[0].engine.requests.get(), 100_000);
    assert_eq!(run.pe[0].engine.compute_cycles.get(), 100_000);
}
