//! The traced run's capture sink: keeps exactly the events the layer
//! replays consume, in emission order.

use medea_sim::Cycle;
use medea_trace::event::CacheEventKind;
use medea_trace::{TraceEvent, TraceSink};

/// A flit delivery, as the fabric reported it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Cycle the engine ejected the flit.
    pub at: Cycle,
    /// Ejecting node.
    pub node: u16,
    /// Arbitration uid (`compose_uid` of the injection).
    pub uid: u64,
    /// Inject → eject cycles.
    pub latency: u64,
    /// Routers traversed.
    pub hops: u16,
    /// Deflections suffered.
    pub deflections: u16,
}

/// An L1 access of one PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The PE's node.
    pub node: u16,
    /// What the access did.
    pub kind: CacheEventKind,
    /// Word address.
    pub addr: u32,
}

/// What an MPMMU dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// A read or write transaction with its `TYPE` wire code.
    Txn(u8),
    /// A lock request that was granted.
    LockGranted,
    /// A lock request refused because the lock was held.
    LockNacked,
    /// An unlock.
    Unlock,
}

/// One MPMMU dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// The bank's node.
    pub bank: u16,
    /// Requesting node.
    pub src: u16,
    /// What was dispatched.
    pub op: MemOp,
    /// Target address.
    pub addr: u32,
}

/// Trace sink keeping flit deliveries, L1 accesses and MPMMU dispatches.
#[derive(Debug, Default)]
pub struct Capture {
    /// Flit deliveries in emission order.
    pub deliveries: Vec<Delivery>,
    /// L1 accesses in emission order.
    pub accesses: Vec<Access>,
    /// MPMMU dispatches in emission order.
    pub dispatches: Vec<Dispatch>,
}

impl TraceSink for Capture {
    const ACTIVE: bool = true;

    fn record(&mut self, at: Cycle, event: TraceEvent) {
        match event {
            TraceEvent::FlitDelivered { node, uid, latency, hops, deflections } => {
                self.deliveries.push(Delivery { at, node, uid, latency, hops, deflections });
            }
            TraceEvent::CacheAccess { node, kind, addr } => {
                self.accesses.push(Access { node, kind, addr });
            }
            TraceEvent::MemTxn { bank, src, kind, addr } => {
                self.dispatches.push(Dispatch { bank, src, op: MemOp::Txn(kind), addr });
            }
            TraceEvent::LockAcquired { bank, src, addr } => {
                self.dispatches.push(Dispatch { bank, src, op: MemOp::LockGranted, addr });
            }
            TraceEvent::LockContended { bank, src, addr } => {
                self.dispatches.push(Dispatch { bank, src, op: MemOp::LockNacked, addr });
            }
            TraceEvent::LockReleased { bank, src, addr } => {
                self.dispatches.push(Dispatch { bank, src, op: MemOp::Unlock, addr });
            }
            _ => {}
        }
    }
}
