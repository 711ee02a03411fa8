//! Processing-element model for the MEDEA reproduction (§II-B).
//!
//! The original PE is a Tensilica Xtensa-LX with three custom attachments,
//! all reproduced here:
//!
//! * [`fpu`] — the double-precision floating-point *emulation acceleration*
//!   cost model (adds/subs average 19 cycles; multiplies 26 cycles with the
//!   "Multiply High" option, 60 without);
//! * [`tie`] — the TIE message-passing interface: a FIFO port straight into
//!   the register file on the send side, and a sequence-number-indexed
//!   double-buffer reassembly unit on the receive side;
//! * [`bridge`] — the pif2NoC bridge translating PIF bus transactions
//!   (single/block read/write, lock/unlock) into NoC flits, with the 4-deep
//!   reorder buffer for out-of-order block-read data;
//! * [`arbiter`] — the NoC-access arbiter between the two interfaces, in
//!   the paper's three build options (plain mux, single FIFO, dual
//!   priority);
//! * [`coherence`] — the L1-side probe responder of the beyond-the-paper
//!   directory-MESI option (answers `Inv`/`Fetch`/`FetchInv` probes;
//!   completely inert under the paper-faithful DII default);
//! * [`pe`] — the PE proper: an L1 cache plus an execution engine that
//!   serves the application kernel's architectural operations
//!   ([`kernel_if::PeRequest`]) cycle by cycle.
//!
//! The instruction stream itself is not simulated; kernels are Rust
//! `async` code whose architectural actions (memory, FP, messaging) are
//! requests the PE serves cycle by cycle. The PE polls its kernel future
//! once per request — the stand-in for the paper's `SC_THREAD`, without a
//! thread (see [`kernel_if`] and DESIGN.md §2 for why this preserves the
//! paper's measured quantities).

pub mod arbiter;
pub mod bridge;
pub mod coherence;
pub mod fpu;
pub mod kernel_if;
pub mod pe;
pub mod tie;
