//! # medea-trace — zero-overhead cross-layer event tracing
//!
//! The paper's entire evaluation (§III) reads latency distributions,
//! deflection behavior and memory-vs-message traffic straight out of the
//! cycle-accurate model; this crate is the reproduction's equivalent
//! observability layer. Every hardware layer — NoC switches, PE/bridge,
//! MPMMU banks, and the kernel/eMPI programming surface — emits typed,
//! timestamped [`TraceEvent`]s into a [`TraceSink`] the cycle engine is
//! *generic* over:
//!
//! * with [`NullSink`] (the default, `System::run`), every emission site
//!   is guarded by the associated constant [`TraceSink::ACTIVE`]` =
//!   false`, so monomorphization deletes the tracing entirely — the hot
//!   path of the zero-allocation engine is provably unperturbed, and a
//!   traced run produces bit-identical architectural results to an
//!   untraced one (pinned by the golden suite);
//! * with [`RingSink`] (`System::run_traced`), events land in a
//!   preallocated ring buffer — steady-state capture allocates nothing
//!   and the newest `capacity` events survive;
//! * with [`FileSink`], events stream to disk through a buffered writer
//!   in the CSV vocabulary — for multi-hundred-M-cycle runs where any
//!   ring would truncate (drop-counter semantics documented in
//!   [`file`]).
//!
//! # Event classes
//!
//! | [`EventClass`] | source layer | events |
//! |--------------|--------------|--------|
//! | `NOC`    | deflection switches + engine | flit inject/deliver/deflect, per-router link load |
//! | `CACHE`  | PE execution engine | L1 hit/miss/write-through, flush, invalidate, reorder-buffer slips |
//! | `MEM`    | MPMMU banks | per-bank transactions, lock acquire/contend/release |
//! | `KERNEL` | engine + eMPI markers | packet send/recv spans, message/collective phase spans |
//! | `FAULT`  | medea-fault injector | flit corruption, link kills, bank drops/delays, PE stalls |
//!
//! # Exporters and the `chrome://tracing` workflow
//!
//! [`chrome::to_chrome_json`] renders a capture in the Chrome
//! `trace_event` JSON format (field mapping documented on the module):
//! one track per node — compute PEs and MPMMU banks alike — with `B`/`E`
//! span pairs for kernel operations, instants for flit/cache/memory
//! events and a `links-busy` counter series per router (the per-cycle
//! link heatmap). To view a trace:
//!
//! ```text
//! cargo run --release -p medea-bench --bin trace_json -- --workload mixed trace.json
//! # then open chrome://tracing (or https://ui.perfetto.dev) and load trace.json:
//! #   - each "node N (rank R)" / "bank B @ node N" row is one torus node;
//! #   - W/S zoom, A/D pan; click a `barrier` span to see its duration;
//! #   - the links-busy counter row per node is the NoC heatmap over time.
//! ```
//!
//! [`csv::to_csv`] writes the same capture as a flat CSV for dataframe
//! tools, and [`analysis::TraceAnalysis`] reduces it to summary
//! observables (per-router peak link load, lock-contention cycles, span
//! totals). [`json::validate`] is the offline JSON syntax checker the CI
//! smoke job and the exporter tests use to prove emitted traces parse.
//!
//! # Zero simulated-time cost, by construction
//!
//! Tracing never changes what the simulator computes, only what it
//! reports. Engine-side events are observations of state transitions
//! that happen anyway; kernel-side span markers ride the existing
//! kernel request/response protocol but are consumed by the engine in zero
//! simulated cycles and update no statistics. `tests/trace_equivalence.rs`
//! property-checks `RunResult` equality between traced and untraced runs
//! on random tori, and the golden suite pins the paper-4×4 fingerprints
//! with tracing both off and on.

pub mod analysis;
pub mod chrome;
pub mod csv;
pub mod event;
pub mod file;
pub mod json;
pub mod sink;

pub use analysis::TraceAnalysis;
pub use event::{
    coh_op_name, packet_kind_name, CacheEventKind, EventClass, KernelOp, TimedEvent, TraceEvent,
};
pub use file::FileSink;
pub use sink::{NullSink, RingSink, TraceConfig, TraceSink};
