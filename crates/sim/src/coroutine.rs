//! Kernel-thread rendezvous: the former SC_THREAD replacement.
//!
//! **Nothing on the simulation engine's path uses this module any more.**
//! Kernels are now futures that their PE polls once per architectural
//! operation (`medea_pe::kernel_if`), with no thread and no channel. The
//! module stays public, unchanged, for the host-speed benchmark's
//! hand-off probe, which measures the cost of the rendezvous below.
//!
//! In the original SystemC model, application code runs inside simulation
//! threads that block on hardware events. We reproduce that execution model
//! with real OS threads: each processing element's kernel runs on its own
//! thread and *rendezvous* with the cycle engine at every architectural
//! operation (load, store, FP op, message op). The engine is the only
//! scheduler — kernel threads never observe each other except through the
//! simulated hardware — so simulations are fully deterministic.
//!
//! The protocol is strict half-duplex:
//!
//! 1. the kernel sends a request (`Req`) and blocks;
//! 2. the engine picks the request up with [`KernelHost::fetch`], simulates
//!    however many cycles the operation takes, then answers with
//!    [`KernelHost::reply`];
//! 3. the kernel resumes, computes (in zero simulated time), and issues the
//!    next request.
//!
//! A kernel that returns closes its channel; `fetch` then reports
//! [`Fetched::Finished`] and the engine retires the PE.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// Error observed by a kernel when the simulation is torn down while the
/// kernel is still running (e.g. the system hit its cycle limit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimAbortedError;

impl std::fmt::Display for SimAbortedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulation engine terminated while kernel was running")
    }
}

impl std::error::Error for SimAbortedError {}

/// The kernel-side endpoint: issue a request, block until the engine
/// answers.
#[derive(Debug)]
pub struct KernelPort<Req, Resp> {
    req_tx: SyncSender<Req>,
    resp_rx: Receiver<Resp>,
}

impl<Req, Resp> KernelPort<Req, Resp> {
    /// Send `req` to the engine and block until it replies.
    ///
    /// # Errors
    ///
    /// Returns [`SimAbortedError`] if the engine was dropped, which happens
    /// only when the simulation is being torn down early.
    pub fn call(&self, req: Req) -> Result<Resp, SimAbortedError> {
        self.req_tx.send(req).map_err(|_| SimAbortedError)?;
        self.resp_rx.recv().map_err(|_| SimAbortedError)
    }
}

/// Result of [`KernelHost::fetch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetched<Req> {
    /// The kernel issued a request and is now blocked awaiting a reply.
    Request(Req),
    /// The kernel function returned; no more requests will arrive.
    Finished,
}

/// The engine-side endpoint owning the kernel thread.
#[derive(Debug)]
pub struct KernelHost<Req, Resp> {
    req_rx: Receiver<Req>,
    resp_tx: SyncSender<Resp>,
    join: Option<JoinHandle<()>>,
    finished: bool,
}

impl<Req: Send + 'static, Resp: Send + 'static> KernelHost<Req, Resp> {
    /// Spawn `kernel` on a dedicated thread and return the engine-side host.
    ///
    /// The kernel receives a [`KernelPort`] for issuing requests. Any panic
    /// inside the kernel is confined to its thread and surfaces as
    /// [`Fetched::Finished`] plus a `true` return from
    /// [`KernelHost::join`].
    pub fn spawn<F>(name: &str, kernel: F) -> Self
    where
        F: FnOnce(KernelPort<Req, Resp>) + Send + 'static,
    {
        // Capacity 1 each way: the protocol is strictly half-duplex, so a
        // single slot is enough and keeps misuse loud (a second unanswered
        // request would deadlock the offending kernel, not corrupt state).
        let (req_tx, req_rx) = sync_channel(1);
        let (resp_tx, resp_rx) = sync_channel(1);
        let port = KernelPort { req_tx, resp_rx };
        let join = std::thread::Builder::new()
            .name(format!("medea-kernel-{name}"))
            .spawn(move || kernel(port))
            .expect("spawning kernel thread");
        KernelHost { req_rx, resp_tx, join: Some(join), finished: false }
    }

    /// Block until the kernel's next request (or its termination).
    ///
    /// Blocking here is sound: the kernel is either about to send (pure
    /// host-time computation) or has returned, so the wait is bounded by
    /// real compute time, never by simulated time.
    pub fn fetch(&mut self) -> Fetched<Req> {
        if self.finished {
            return Fetched::Finished;
        }
        match self.req_rx.recv() {
            Ok(req) => Fetched::Request(req),
            Err(_) => {
                self.finished = true;
                Fetched::Finished
            }
        }
    }

    /// Answer the kernel's outstanding request, unblocking it.
    ///
    /// A reply sent after the kernel exited (possible during teardown) is
    /// silently dropped.
    pub fn reply(&mut self, resp: Resp) {
        let _ = self.resp_tx.send(resp);
    }

    /// Whether the kernel function has returned (observed via `fetch`).
    pub const fn is_finished(&self) -> bool {
        self.finished
    }

    /// Join the kernel thread, returning `true` if it panicked.
    ///
    /// Must only be called once the kernel is unblocked (finished, or the
    /// channels have been dropped).
    pub fn join(&mut self) -> bool {
        match self.join.take() {
            Some(handle) => handle.join().is_err(),
            None => false,
        }
    }
}

impl<Req, Resp> Drop for KernelHost<Req, Resp> {
    fn drop(&mut self) {
        // Wake any kernel blocked in `call` by dropping our channel ends
        // first, then reap the thread so tests never leak.
        let (dead_tx, _) = sync_channel::<Resp>(1);
        self.resp_tx = dead_tx;
        let (_, dead_rx) = sync_channel::<Req>(1);
        self.req_rx = dead_rx;
        if let Some(handle) = self.join.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_reply_roundtrip() {
        let mut host: KernelHost<u32, u32> = KernelHost::spawn("t", |port| {
            let doubled = port.call(21).unwrap();
            assert_eq!(doubled, 42);
        });
        match host.fetch() {
            Fetched::Request(v) => {
                assert_eq!(v, 21);
                host.reply(v * 2);
            }
            Fetched::Finished => panic!("expected a request"),
        }
        assert_eq!(host.fetch(), Fetched::Finished);
        assert!(!host.join());
    }

    #[test]
    fn finished_kernel_reports_finished() {
        let mut host: KernelHost<u32, u32> = KernelHost::spawn("t", |_port| {});
        assert_eq!(host.fetch(), Fetched::Finished);
        assert!(host.is_finished());
    }

    #[test]
    fn many_roundtrips_stay_ordered() {
        let mut host: KernelHost<u64, u64> = KernelHost::spawn("t", |port| {
            for i in 0..100u64 {
                assert_eq!(port.call(i).unwrap(), i + 1);
            }
        });
        while let Fetched::Request(v) = host.fetch() {
            host.reply(v + 1);
        }
        assert!(!host.join());
    }

    #[test]
    fn drop_unblocks_running_kernel() {
        let host: KernelHost<u32, u32> = KernelHost::spawn("t", |port| {
            // The engine never replies; the kernel must observe the abort
            // rather than hang.
            assert_eq!(port.call(1), Err(SimAbortedError));
        });
        drop(host); // must not deadlock
    }

    #[test]
    fn kernel_panic_is_contained() {
        let mut host: KernelHost<u32, u32> = KernelHost::spawn("t", |_port| {
            panic!("kernel bug");
        });
        assert_eq!(host.fetch(), Fetched::Finished);
        assert!(host.join(), "join must report the panic");
    }
}
