//! The architectural-operation API kernels program against.
//!
//! [`PeApi`] wraps the raw request/response port with typed helpers. Every
//! architectural method is an `async fn` that costs simulated time on the
//! owning PE; pure Rust computation between calls is free and stands for
//! work charged explicitly via [`PeApi::compute`] / the FP helpers
//! (DESIGN.md §2). A kernel is an `async` block over its `PeApi`, built
//! with [`crate::system::kernel`]; the PE polls it once per operation.
//!
//! # Panics
//!
//! Awaiting two operations of one `PeApi` at once (for example by polling
//! both futures by hand) panics, naming the node: a PE runs one
//! architectural operation at a time. A run that stops early (cycle
//! limit, deadlock) drops the suspended kernel futures; nothing panics.

use crate::config::{NodePlan, ResilienceConfig};
use crate::empi::CollectiveAlgo;
use crate::layout::MemoryMap;
use medea_cache::{line_of, Addr, LINE_BYTES};
use medea_pe::kernel_if::{Call, KernelInstaller, PePort, PeRequest, PeResponse};
use medea_pe::tie::Packet;
use medea_sim::ids::{NodeId, Rank};
use medea_sim::Cycle;
use medea_trace::KernelOp;

/// Per-kernel handle to the simulated processing element.
#[derive(Debug)]
pub struct PeApi {
    port: PePort,
    rank: Rank,
    ranks: usize,
    layout: MemoryMap,
    plan: NodePlan,
    collective_algo: CollectiveAlgo,
    trace_spans: bool,
    resilience: ResilienceConfig,
}

impl PeApi {
    /// Wrap a raw PE port. Called by the system assembler; kernels receive
    /// the ready-made value. `trace_spans` enables the zero-cost eMPI span
    /// markers (`SystemConfig::trace_kernel_spans`).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        port: PePort,
        rank: Rank,
        ranks: usize,
        layout: MemoryMap,
        plan: NodePlan,
        collective_algo: CollectiveAlgo,
        trace_spans: bool,
        resilience: ResilienceConfig,
    ) -> Self {
        PeApi { port, rank, ranks, layout, plan, collective_algo, trace_spans, resilience }
    }

    /// The resilient-delivery knobs configured on the system — adopted by
    /// [`crate::empi::Empi::new`].
    pub const fn resilience(&self) -> ResilienceConfig {
        self.resilience
    }

    /// The collective algorithm configured on the system — adopted by
    /// [`crate::empi::Empi::new`].
    pub const fn collective_algo(&self) -> CollectiveAlgo {
        self.collective_algo
    }

    fn call(&self, req: PeRequest) -> Call<'_> {
        self.port.call(req)
    }

    /// A handle that installs the kernel future driving this PE.
    pub(crate) fn installer(&self) -> KernelInstaller {
        self.port.installer()
    }

    async fn unit(&self, req: PeRequest) {
        match self.call(req).await {
            PeResponse::Unit => {}
            other => unreachable!("expected Unit, got {other:?}"),
        }
    }

    async fn f64_resp(&self, req: PeRequest) -> f64 {
        match self.call(req).await {
            PeResponse::F64(v) => v,
            other => unreachable!("expected F64, got {other:?}"),
        }
    }

    /// This kernel's eMPI rank.
    pub const fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the system.
    pub const fn ranks(&self) -> usize {
        self.ranks
    }

    /// The system memory map.
    pub const fn layout(&self) -> &MemoryMap {
        &self.layout
    }

    /// Base address of this rank's private (cacheable) segment.
    pub fn private_base(&self) -> Addr {
        self.layout.private_base(self.rank)
    }

    /// The node hosting `rank` (PEs occupy the non-bank nodes in
    /// ascending order; nodes 1..=N on a single-bank system).
    pub fn node_of_rank(&self, rank: Rank) -> NodeId {
        self.plan.node_of_rank(rank)
    }

    /// The application-level source id `rank`'s messages carry: the full
    /// linear node index (the SRC-ID field is sized per topology).
    pub fn src_id_of_rank(&self, rank: Rank) -> u8 {
        self.node_of_rank(rank).index() as u8
    }

    // ---- compute ----

    /// Charge `cycles` of local computation.
    pub async fn compute(&self, cycles: Cycle) {
        self.unit(PeRequest::Compute { cycles }).await;
    }

    /// Double-precision add (19 cycles).
    pub async fn fadd(&self, a: f64, b: f64) -> f64 {
        self.f64_resp(PeRequest::FpAdd { a, b }).await
    }

    /// Double-precision subtract (19 cycles).
    pub async fn fsub(&self, a: f64, b: f64) -> f64 {
        self.f64_resp(PeRequest::FpSub { a, b }).await
    }

    /// Double-precision multiply (26 or 60 cycles per the MulOption).
    pub async fn fmul(&self, a: f64, b: f64) -> f64 {
        self.f64_resp(PeRequest::FpMul { a, b }).await
    }

    /// Double-precision divide.
    pub async fn fdiv(&self, a: f64, b: f64) -> f64 {
        self.f64_resp(PeRequest::FpDiv { a, b }).await
    }

    /// Current cycle count (CCOUNT equivalent; costs one cycle).
    pub async fn now(&self) -> Cycle {
        match self.call(PeRequest::Now).await {
            PeResponse::Time(t) => t,
            other => unreachable!("expected Time, got {other:?}"),
        }
    }

    // ---- cached memory ----

    /// Load a word through the L1 cache.
    pub async fn load_u32(&self, addr: Addr) -> u32 {
        match self.call(PeRequest::LoadWord { addr }).await {
            PeResponse::Word(w) => w,
            other => unreachable!("expected Word, got {other:?}"),
        }
    }

    /// Store a word through the L1 cache.
    pub async fn store_u32(&self, addr: Addr, value: u32) {
        self.unit(PeRequest::StoreWord { addr, value }).await;
    }

    /// Load a double through the L1 cache.
    pub async fn load_f64(&self, addr: Addr) -> f64 {
        self.f64_resp(PeRequest::LoadF64 { addr }).await
    }

    /// Store a double through the L1 cache.
    pub async fn store_f64(&self, addr: Addr, value: f64) {
        self.unit(PeRequest::StoreF64 { addr, value }).await;
    }

    // ---- software coherence (§II-E) ----

    /// Flush the line containing `addr` (write back if dirty).
    pub async fn flush_line(&self, addr: Addr) {
        self.unit(PeRequest::FlushLine { addr }).await;
    }

    /// DII-invalidate the line containing `addr`.
    pub async fn invalidate_line(&self, addr: Addr) {
        self.unit(PeRequest::InvalidateLine { addr }).await;
    }

    /// Flush every line of `[base, base + bytes)`.
    pub async fn flush_region(&self, base: Addr, bytes: u32) {
        let mut line = line_of(base);
        let end = base.saturating_add(bytes);
        while line < end {
            self.flush_line(line).await;
            line += LINE_BYTES as Addr;
        }
    }

    /// Invalidate every line of `[base, base + bytes)`.
    pub async fn invalidate_region(&self, base: Addr, bytes: u32) {
        let mut line = line_of(base);
        let end = base.saturating_add(bytes);
        while line < end {
            self.invalidate_line(line).await;
            line += LINE_BYTES as Addr;
        }
    }

    // ---- uncached shared accesses ----

    /// Read a word bypassing the cache (uncacheable shared data, §II-E).
    pub async fn uncached_load_u32(&self, addr: Addr) -> u32 {
        match self.call(PeRequest::UncachedLoad { addr }).await {
            PeResponse::Word(w) => w,
            other => unreachable!("expected Word, got {other:?}"),
        }
    }

    /// Write a word bypassing the cache.
    pub async fn uncached_store_u32(&self, addr: Addr, value: u32) {
        self.unit(PeRequest::UncachedStore { addr, value }).await;
    }

    /// Read a double with two uncached word transactions.
    pub async fn uncached_load_f64(&self, addr: Addr) -> f64 {
        let lo = self.uncached_load_u32(addr).await;
        let hi = self.uncached_load_u32(addr + 4).await;
        medea_pe::kernel_if::words_to_f64(lo, hi)
    }

    /// Write a double with two uncached word transactions.
    pub async fn uncached_store_f64(&self, addr: Addr, value: f64) {
        let (lo, hi) = medea_pe::kernel_if::f64_to_words(value);
        self.uncached_store_u32(addr, lo).await;
        self.uncached_store_u32(addr + 4, hi).await;
    }

    // ---- atomic sections ----

    /// Acquire the MPMMU lock on `addr` (blocks with Nack-retry).
    pub async fn lock(&self, addr: Addr) {
        self.unit(PeRequest::Lock { addr }).await;
    }

    /// Release the MPMMU lock on `addr`.
    pub async fn unlock(&self, addr: Addr) {
        self.unit(PeRequest::Unlock { addr }).await;
    }

    // ---- raw TIE messaging ----

    /// Send one logical packet (1..=16 words) to `rank`'s TIE interface.
    ///
    /// Payloads are padded to the burst-code granularity `{1,2,4,16}`; the
    /// receiver sees the padded length. The [`crate::empi`] layer adds
    /// framing so variable-length messages survive the padding.
    ///
    /// # Panics
    ///
    /// Panics if the payload is empty or longer than 16 words.
    pub async fn send_to_rank(&self, rank: Rank, payload: &[u32]) {
        let dest = self.node_of_rank(rank);
        self.unit(PeRequest::Send { dest, payload: payload.to_vec() }).await;
    }

    /// Block until a packet from `rank` arrives; returns its (padded)
    /// payload.
    pub async fn recv_from_rank(&self, rank: Rank) -> Vec<u32> {
        let src = self.src_id_of_rank(rank);
        match self.call(PeRequest::Recv { from: Some(src) }).await {
            PeResponse::Packet(p) => p.data,
            other => unreachable!("expected Packet, got {other:?}"),
        }
    }

    /// Block until a packet from anyone arrives.
    pub async fn recv_any(&self) -> (Rank, Vec<u32>) {
        match self.call(PeRequest::Recv { from: None }).await {
            PeResponse::Packet(Packet { src, data, .. }) => {
                let rank = self
                    .plan
                    .rank_of_node(NodeId::new(src as u16))
                    .unwrap_or_else(|| panic!("message from non-PE node {src}"));
                (rank, data)
            }
            other => unreachable!("expected Packet, got {other:?}"),
        }
    }

    // ---- tracing markers ----

    /// Open a kernel-level trace span for `op`.
    ///
    /// A no-op unless the system was built with the `KERNEL` trace class
    /// (`SystemConfigBuilder::trace`); when active, the marker crosses to
    /// the engine in zero simulated cycles and updates no statistic, so
    /// spans never perturb a run. The eMPI layer calls this around its
    /// collectives; kernels may delimit their own phases too.
    pub async fn trace_span_begin(&self, op: KernelOp) {
        if self.trace_spans {
            self.unit(PeRequest::TraceSpan { op, begin: true }).await;
        }
    }

    /// Close the innermost kernel-level trace span for `op`.
    pub async fn trace_span_end(&self, op: KernelOp) {
        if self.trace_spans {
            self.unit(PeRequest::TraceSpan { op, begin: false }).await;
        }
    }

    /// Non-blocking receive from `rank`.
    pub async fn try_recv_from_rank(&self, rank: Rank) -> Option<Vec<u32>> {
        let src = self.src_id_of_rank(rank);
        match self.call(PeRequest::TryRecv { from: Some(src) }).await {
            PeResponse::MaybePacket(p) => p.map(|p| p.data),
            other => unreachable!("expected MaybePacket, got {other:?}"),
        }
    }

    // ---- resilient delivery ----

    /// Blocking receive from `rank` that also reports whether the packet's
    /// payload checksum failed. Fault-free packets always return
    /// `corrupt == false`; only the resilient eMPI path inspects the flag.
    pub async fn recv_from_rank_flagged(&self, rank: Rank) -> (Vec<u32>, bool) {
        let src = self.src_id_of_rank(rank);
        match self.call(PeRequest::Recv { from: Some(src) }).await {
            PeResponse::Packet(p) => (p.data, p.corrupt),
            other => unreachable!("expected Packet, got {other:?}"),
        }
    }

    /// Non-blocking variant of [`PeApi::recv_from_rank_flagged`].
    pub async fn try_recv_from_rank_flagged(&self, rank: Rank) -> Option<(Vec<u32>, bool)> {
        let src = self.src_id_of_rank(rank);
        match self.call(PeRequest::TryRecv { from: Some(src) }).await {
            PeResponse::MaybePacket(p) => p.map(|p| (p.data, p.corrupt)),
            other => unreachable!("expected MaybePacket, got {other:?}"),
        }
    }

    /// Report resilience-protocol activity (retransmitted chunks, NACKs
    /// sent) to the engine's per-PE statistics. Zero simulated cycles.
    pub async fn fault_note(&self, retransmits: u32, nacks: u32) {
        self.unit(PeRequest::FaultNote { retransmits, nacks }).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medea_pe::pe::ProcessingElement;

    // PeApi's behaviour is exercised end-to-end by the system tests; here
    // we only verify the pure helpers.

    #[test]
    fn rank_node_src_mapping() {
        // node_of_rank/src_id_of_rank depend only on rank arithmetic, so a
        // PeApi is checked inside the PE constructor's install hook,
        // without running a kernel.
        let layout = MemoryMap::new(4, 1024, 1024).unwrap();
        let cfg = crate::SystemConfig::builder().compute_pes(4).build().unwrap();
        let plan = cfg.node_plan();
        let rank = Rank::new(2);
        let mut seen = None;
        let mut pe =
            ProcessingElement::new(cfg.pe_config(rank), cfg.topology(), cfg.bank_map(), |port| {
                let api = PeApi::new(
                    port,
                    rank,
                    4,
                    layout,
                    plan,
                    CollectiveAlgo::Linear,
                    false,
                    ResilienceConfig::off(),
                );
                seen = Some((
                    api.node_of_rank(Rank::new(0)),
                    api.node_of_rank(Rank::new(3)),
                    api.src_id_of_rank(Rank::new(2)),
                    api.private_base(),
                ));
            });
        pe.tick(0);
        assert!(pe.is_done(), "a PE whose hook installs no kernel finishes at once");
        let (n0, n3, src2, base) = seen.expect("install hook ran");
        assert_eq!(n0, NodeId::new(1));
        assert_eq!(n3, NodeId::new(4));
        assert_eq!(src2, 3);
        assert_eq!(base, 1024 + 2 * 1024);
    }
}
