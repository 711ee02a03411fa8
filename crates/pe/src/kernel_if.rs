//! The request/response protocol between application kernels and the PE
//! execution engine.
//!
//! Every architectural action a kernel takes is one [`PeRequest`]; the
//! engine simulates its cycle cost and hardware side effects and answers
//! with a [`PeResponse`]. This is the boundary that replaces the Xtensa
//! instruction stream (DESIGN.md §2): compute *between* requests is free
//! (it stands for work already charged via [`PeRequest::Compute`] or the
//! FP requests), everything observable costs simulated time.
//!
//! # Kernels are polled futures
//!
//! The paper's SystemC model runs application code as `SC_THREAD`s. Here
//! a kernel is a [`KernelFuture`] that its PE polls; it owns no thread.
//! [`PePort::call`] posts one request into the port's slot and stays
//! `Pending` until the engine has written the answer, so one poll of the
//! kernel runs it from one architectural operation to the next:
//!
//! 1. the PE polls the kernel (`Waker::noop()`: the engine, not a waker,
//!    decides when to poll again);
//! 2. `Ready` means the kernel returned; `Pending` means a request is
//!    posted, which the PE takes and simulates for however many cycles it
//!    costs;
//! 3. the PE writes the response and polls again.
//!
//! The slot holds one request at a time, so misuse is loud: posting a
//! second request before the first is answered (polling two operations
//! at once) panics, and so does a kernel that is `Pending` with nothing
//! posted (it awaited a future that is not a port operation).

use crate::tie::Packet;
use medea_cache::Addr;
use medea_sim::{ids::NodeId, Cycle};
use medea_trace::KernelOp;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Context, Poll};

/// One architectural operation issued by a kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum PeRequest {
    /// Charge `cycles` of local computation (integer ops, loop control,
    /// local-memory accesses — anything not modeled individually).
    Compute {
        /// Cycles to charge (minimum 1 is enforced).
        cycles: Cycle,
    },
    /// Double-precision add: returns `a + b` after the FP-emulation delay.
    FpAdd {
        /// Left operand.
        a: f64,
        /// Right operand.
        b: f64,
    },
    /// Double-precision subtract: returns `a - b`.
    FpSub {
        /// Left operand.
        a: f64,
        /// Right operand.
        b: f64,
    },
    /// Double-precision multiply: returns `a * b`.
    FpMul {
        /// Left operand.
        a: f64,
        /// Right operand.
        b: f64,
    },
    /// Double-precision divide: returns `a / b`.
    FpDiv {
        /// Dividend.
        a: f64,
        /// Divisor.
        b: f64,
    },
    /// Load a word through the L1 cache.
    LoadWord {
        /// Word-aligned global address.
        addr: Addr,
    },
    /// Store a word through the L1 cache.
    StoreWord {
        /// Word-aligned global address.
        addr: Addr,
        /// Value to store.
        value: u32,
    },
    /// Load a double (two words) through the L1 cache.
    LoadF64 {
        /// Word-aligned global address of the low word.
        addr: Addr,
    },
    /// Store a double (two words) through the L1 cache.
    StoreF64 {
        /// Word-aligned global address of the low word.
        addr: Addr,
        /// Value to store.
        value: f64,
    },
    /// Flush the L1 line containing `addr` (write back if dirty; the
    /// producer-side coherence action of §II-E).
    FlushLine {
        /// Any address within the line.
        addr: Addr,
    },
    /// DII-invalidate the L1 line containing `addr` (the consumer-side
    /// coherence action of §II-E).
    InvalidateLine {
        /// Any address within the line.
        addr: Addr,
    },
    /// Read a word bypassing the cache (uncacheable shared access).
    UncachedLoad {
        /// Word-aligned global address.
        addr: Addr,
    },
    /// Write a word bypassing the cache.
    UncachedStore {
        /// Word-aligned global address.
        addr: Addr,
        /// Value to store.
        value: u32,
    },
    /// Acquire the MPMMU lock on a shared-memory word (blocks, with
    /// automatic Nack-retry, until granted).
    Lock {
        /// Word address to lock.
        addr: Addr,
    },
    /// Release the MPMMU lock on a shared-memory word.
    Unlock {
        /// Word address to unlock.
        addr: Addr,
    },
    /// Send one logical message packet (≤ 16 words) to another node's TIE
    /// interface. Completes when the last flit enters the arbiter
    /// (1 flit/cycle — the TIE port's peak throughput).
    Send {
        /// Destination node.
        dest: NodeId,
        /// Payload words (1..=16).
        payload: Vec<u32>,
    },
    /// Block until a message packet arrives (from `from` if given), then
    /// return it. Charges one cycle per payload word for the
    /// register-to-local-memory copy (Fig. 2-b).
    Recv {
        /// Optional source filter (node index).
        from: Option<u8>,
    },
    /// Non-blocking receive.
    TryRecv {
        /// Optional source filter (node index).
        from: Option<u8>,
    },
    /// Read the current cycle counter (the CCOUNT register equivalent).
    Now,
    /// Kernel-level trace marker delimiting an eMPI operation span.
    ///
    /// Consumed by the engine in **zero simulated cycles** and counted in
    /// **no statistic** — a run's architectural results are bit-identical
    /// whether markers flow or not (pinned by the golden suite and the
    /// trace-equivalence property tests). The engine forwards the marker
    /// to the active trace sink; with tracing off it is discarded.
    TraceSpan {
        /// The operation being delimited.
        op: KernelOp,
        /// `true` opens the span, `false` closes it.
        begin: bool,
    },
    /// Kernel-level resilience counter update: the eMPI layer reports a
    /// recovery action (a retransmitted message or a NACK sent) so the
    /// engine can surface end-to-end recovery totals on `RunResult`.
    ///
    /// Like [`TraceSpan`](PeRequest::TraceSpan) this rides the existing
    /// request/response protocol but is consumed by the engine in
    /// **zero simulated cycles**; it touches only the dedicated
    /// resilience counters, never an architectural statistic, so runs
    /// without recovery events are bit-identical to the pre-fault engine.
    FaultNote {
        /// Messages retransmitted end-to-end after a NACK or timeout.
        retransmits: u32,
        /// Retransmission requests (NACKs) sent to a peer.
        nacks: u32,
    },
}

/// Engine answer to a [`PeRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum PeResponse {
    /// Operation completed with no data.
    Unit,
    /// A loaded word.
    Word(u32),
    /// An FP result or loaded double.
    F64(f64),
    /// A received message packet.
    Packet(Packet),
    /// Result of a non-blocking receive.
    MaybePacket(Option<Packet>),
    /// Current cycle count.
    Time(Cycle),
}

/// A kernel as its PE runs it: a future polled once per architectural
/// operation.
pub type KernelFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// Where a port's single outstanding operation stands.
#[derive(Debug, Default)]
enum Slot {
    /// No operation in flight.
    #[default]
    Idle,
    /// The kernel posted a request the engine has not taken yet.
    Posted(PeRequest),
    /// The engine took the request and is simulating it.
    Serving,
    /// The engine answered; the posting operation has not resumed yet.
    Answered(PeResponse),
}

#[derive(Default)]
struct Shared {
    slot: Slot,
    /// The kernel future, parked here by [`KernelInstaller::install`]
    /// until the PE takes it.
    kernel: Option<KernelFuture>,
}

/// Lock the port state. Every update under the lock is one assignment,
/// so the state stays valid even if a panic poisoned the mutex.
fn lock(shared: &Mutex<Shared>) -> MutexGuard<'_, Shared> {
    shared.lock().unwrap_or_else(|e| e.into_inner())
}

/// The kernel-side endpoint of one PE: post a request, await the answer.
pub struct PePort {
    shared: Arc<Mutex<Shared>>,
}

impl fmt::Debug for PePort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("PePort")
    }
}

impl PePort {
    /// Post `req` and resolve to the engine's answer.
    pub fn call(&self, req: PeRequest) -> Call<'_> {
        Call { port: self, req: Some(req) }
    }

    /// A handle that installs the kernel future driving this port.
    pub fn installer(&self) -> KernelInstaller {
        KernelInstaller(Arc::clone(&self.shared))
    }
}

/// Hands a kernel future to the PE that owns the port it was taken from.
pub struct KernelInstaller(Arc<Mutex<Shared>>);

impl fmt::Debug for KernelInstaller {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("KernelInstaller")
    }
}

impl KernelInstaller {
    /// Make `kernel` the PE's program. A PE whose kernel-building closure
    /// installs nothing runs a kernel that has already finished.
    pub fn install(self, kernel: impl Future<Output = ()> + Send + 'static) {
        lock(&self.0).kernel = Some(Box::pin(kernel));
    }
}

/// The future of one [`PePort::call`].
#[derive(Debug)]
#[must_use = "a port operation does nothing unless awaited"]
pub struct Call<'a> {
    port: &'a PePort,
    /// The request, until the first poll posts it.
    req: Option<PeRequest>,
}

impl Future for Call<'_> {
    type Output = PeResponse;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<PeResponse> {
        let mut shared = lock(&self.port.shared);
        if let Some(req) = self.req.take() {
            if !matches!(shared.slot, Slot::Idle) {
                drop(shared);
                panic!(
                    "posted a request while another was unanswered \
                     (two PE operations polled at once)"
                );
            }
            shared.slot = Slot::Posted(req);
            return Poll::Pending;
        }
        match std::mem::take(&mut shared.slot) {
            Slot::Answered(resp) => Poll::Ready(resp),
            other => {
                shared.slot = other;
                Poll::Pending
            }
        }
    }
}

/// The engine-side endpoint: the kernel future and its port's slot.
pub(crate) struct KernelRunner {
    node: NodeId,
    shared: Arc<Mutex<Shared>>,
    /// `None` once the kernel has returned (or never installed one).
    kernel: Option<KernelFuture>,
}

impl fmt::Debug for KernelRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelRunner")
            .field("node", &self.node)
            .field("finished", &self.kernel.is_none())
            .finish()
    }
}

impl KernelRunner {
    /// Create the port for `node`, let `build` install a kernel through
    /// it, and take that kernel.
    pub(crate) fn new(node: NodeId, build: impl FnOnce(PePort)) -> Self {
        let shared = Arc::new(Mutex::new(Shared::default()));
        build(PePort { shared: Arc::clone(&shared) });
        let kernel = lock(&shared).kernel.take();
        KernelRunner { node, shared, kernel }
    }

    /// Run the kernel to its next request; `None` once it has returned.
    ///
    /// # Panics
    ///
    /// Re-raises a kernel panic as `kernel on {node} panicked: {message}`,
    /// and panics if the kernel is pending without a posted request.
    pub(crate) fn resume(&mut self) -> Option<PeRequest> {
        let kernel = self.kernel.as_mut()?;
        let mut cx = Context::from_waker(std::task::Waker::noop());
        let polled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            kernel.as_mut().poll(&mut cx)
        }));
        match polled {
            Ok(Poll::Ready(())) => {
                self.kernel = None;
                None
            }
            Ok(Poll::Pending) => {
                let mut shared = lock(&self.shared);
                match std::mem::replace(&mut shared.slot, Slot::Serving) {
                    Slot::Posted(req) => Some(req),
                    other => {
                        shared.slot = other;
                        drop(shared);
                        panic!(
                            "kernel on {} is pending without a posted request: \
                             it awaited a future that is not a PE operation",
                            self.node
                        )
                    }
                }
            }
            Err(payload) => {
                // The future is poisoned mid-poll; drop it before unwinding.
                self.kernel = None;
                panic!("kernel on {} panicked: {}", self.node, panic_message(&*payload))
            }
        }
    }

    /// Answer the request the last [`KernelRunner::resume`] returned.
    pub(crate) fn reply(&mut self, resp: PeResponse) {
        let mut shared = lock(&self.shared);
        debug_assert!(matches!(shared.slot, Slot::Serving), "reply without a request");
        shared.slot = Slot::Answered(resp);
    }
}

/// The text of a panic payload (`panic!` with a literal or a format).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(non-string panic payload)")
}

/// Split a double into its (low, high) 32-bit words — the order the two
/// word transactions use on the 32-bit data path.
pub fn f64_to_words(v: f64) -> (u32, u32) {
    let bits = v.to_bits();
    (bits as u32, (bits >> 32) as u32)
}

/// Reassemble a double from its (low, high) words.
pub fn words_to_f64(lo: u32, hi: u32) -> f64 {
    f64::from_bits((hi as u64) << 32 | lo as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_word_roundtrip() {
        for v in [0.0, -1.5, std::f64::consts::PI, f64::MAX, f64::MIN_POSITIVE, -0.0] {
            let (lo, hi) = f64_to_words(v);
            assert_eq!(words_to_f64(lo, hi).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn nan_preserved_bitwise() {
        let v = f64::NAN;
        let (lo, hi) = f64_to_words(v);
        assert!(words_to_f64(lo, hi).is_nan());
    }
}
