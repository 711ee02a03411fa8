//! The benchmark's workloads: what each one runs, how its output is
//! checked, and the simulated fingerprint it must reproduce.
//!
//! Every workload runs the paper's default machine path (software DII
//! coherence, one MPMMU bank, faults, metrics and tracing off) through the
//! public `medea_apps` entry points. Their inputs are the paper's fixed
//! ones (the Jacobi boundary grid, the sharing rotation), so the simulated
//! statistics are the same for every seed.

use medea_apps::jacobi::{self, JacobiConfig, JacobiOutcome, JacobiVariant};
use medea_apps::sharing::{self, SharingConfig, SharingOutcome};
use medea_core::system::{Kernel, RunResult, System};
use medea_core::{SystemConfig, Topology, TraceSink};
use medea_mem::MpmmuStats;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a workload simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    /// Hybrid-full-mp Jacobi on an `n × n` grid, 1 warm-up + 1 measured
    /// iteration, final grid collected for validation.
    Jacobi {
        /// Grid side.
        n: usize,
    },
    /// The lock-guarded DII sharing rotation.
    Sharing {
        /// Rotation rounds.
        rounds: usize,
    },
}

/// One benchmark workload: a program on a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Torus side (square tori only).
    pub side: u8,
    /// Compute PEs.
    pub pes: usize,
    /// Host threads of the cycle engine (1 = sequential engine).
    pub host_threads: usize,
    /// The simulated program.
    pub program: Program,
}

/// The named workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "jacobi_hybrid_4x4",
        side: 4,
        pes: 15,
        host_threads: 1,
        program: Program::Jacobi { n: 62 },
    },
    Workload {
        name: "sharing_dii_4x4",
        side: 4,
        pes: 15,
        host_threads: 1,
        program: Program::Sharing { rounds: 768 },
    },
    Workload {
        name: "jacobi_hybrid_8x8_tiled",
        side: 8,
        pes: 63,
        host_threads: 2,
        program: Program::Jacobi { n: 65 },
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The simulated statistics a workload must reproduce exactly. A
/// host-speed change leaves every one of them unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Simulated cycles to completion.
    pub sim_cycles: u64,
    /// Kernel requests served (one engine hand-off each).
    pub requests: u64,
    /// Flits delivered by the fabric.
    pub flits: u64,
    /// Deflection events in the fabric.
    pub deflections: u64,
    /// MPMMU requests dispatched (reads, writes, locks, unlocks).
    pub mem_txns: u64,
    /// Lock requests refused because the lock was held.
    pub lock_nacks: u64,
}

impl Fingerprint {
    /// The fingerprint of a finished run.
    pub fn of(run: &RunResult) -> Self {
        Fingerprint {
            sim_cycles: run.cycles,
            requests: run.pe.iter().map(|p| p.engine.requests.get()).sum(),
            flits: run.fabric_delivered,
            deflections: run.fabric_deflections,
            mem_txns: mem_txns(&run.mpmmu),
            lock_nacks: run.mpmmu.lock_nacks.get(),
        }
    }

    /// The recorded fingerprint of a named workload (see `NOTES.md`).
    pub fn recorded(workload: &str) -> Option<Fingerprint> {
        let fp = |sim_cycles, requests, flits, deflections, mem_txns, lock_nacks| Fingerprint {
            sim_cycles,
            requests,
            flits,
            deflections,
            mem_txns,
            lock_nacks,
        };
        match workload {
            "jacobi_hybrid_4x4" => Some(fp(231_243, 87_186, 36_244, 570, 5_580, 0)),
            "sharing_dii_4x4" => Some(fp(903_489, 69_420, 383_331, 15_918, 145_535, 99_440)),
            "jacobi_hybrid_8x8_tiled" => Some(fp(462_163, 134_739, 98_377, 3_454, 12_285, 0)),
            _ => None,
        }
    }

    /// One-line JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"sim_cycles\": {}, \"requests\": {}, \"flits\": {}, \"deflections\": {}, \
             \"mem_txns\": {}, \"lock_nacks\": {}}}",
            self.sim_cycles,
            self.requests,
            self.flits,
            self.deflections,
            self.mem_txns,
            self.lock_nacks
        )
    }
}

/// Every request an MPMMU dispatched.
pub fn mem_txns(s: &MpmmuStats) -> u64 {
    s.single_reads.get()
        + s.block_reads.get()
        + s.single_writes.get()
        + s.block_writes.get()
        + s.locks_granted.get()
        + s.lock_nacks.get()
        + s.unlocks.get()
        + s.unlock_errors.get()
}

/// A finished run of a workload's program, before its output is checked.
#[derive(Debug)]
pub enum Outcome {
    /// A Jacobi run.
    Jacobi(JacobiOutcome),
    /// A sharing run.
    Sharing(SharingOutcome),
}

impl Outcome {
    /// The engine result.
    pub fn run(&self) -> &RunResult {
        match self {
            Outcome::Jacobi(o) => &o.run,
            Outcome::Sharing(o) => &o.run,
        }
    }
}

/// Text of a caught panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

impl Workload {
    /// The system configuration (paper defaults apart from size and
    /// engine threads).
    ///
    /// # Panics
    ///
    /// Panics if the workload's sizes do not form a valid machine — a bug
    /// in the workload table.
    pub fn config(&self) -> SystemConfig {
        SystemConfig::builder()
            .topology(Topology::new(self.side, self.side).expect("valid square torus"))
            .compute_pes(self.pes)
            .host_threads(self.host_threads)
            .cycle_limit(200_000_000)
            .build()
            .expect("valid workload configuration")
    }

    fn jacobi_config(n: usize) -> JacobiConfig {
        JacobiConfig::new(n, JacobiVariant::HybridFullMp).with_validation()
    }

    /// DDR preload of the program.
    fn preload(&self, sys: &SystemConfig) -> Vec<(medea_cache::Addr, u32)> {
        match self.program {
            Program::Jacobi { n } => jacobi::preload_for(sys, &Self::jacobi_config(n)),
            Program::Sharing { .. } => Vec::new(),
        }
    }

    /// One set-up: config build, preload generation, and a run of the same
    /// machine with kernels that return at once.
    ///
    /// # Errors
    ///
    /// Describes an engine error or panic.
    pub fn setup_once(&self) -> Result<(), String> {
        catch_unwind(AssertUnwindSafe(|| {
            let sys = self.config();
            let preload = self.preload(&sys);
            let kernels: Vec<Kernel> =
                (0..sys.compute_pes()).map(|_| Box::new(|_api| {}) as Kernel).collect();
            System::run(&sys, &preload, kernels).map(|_| ()).map_err(|e| e.to_string())
        }))
        .unwrap_or_else(|p| Err(format!("panic: {}", panic_text(&*p))))
    }

    /// Run the program once through the traced entry point with `sink`
    /// (`NullSink` for an untraced run).
    ///
    /// # Errors
    ///
    /// Describes an engine error or a kernel panic.
    pub fn run_with<S: TraceSink>(&self, sink: &mut S) -> Result<Outcome, String> {
        let sys = self.config();
        let caught = catch_unwind(AssertUnwindSafe(|| match self.program {
            Program::Jacobi { n } => jacobi::run_faulted(
                &sys,
                &Self::jacobi_config(n),
                sink,
                &mut medea_core::NullInjector,
            )
            .map(Outcome::Jacobi),
            Program::Sharing { rounds } => {
                sharing::run_traced(&sys, &SharingConfig { rounds }, sink).map(Outcome::Sharing)
            }
        }));
        match caught {
            Ok(Ok(outcome)) => Ok(outcome),
            Ok(Err(e)) => Err(e.to_string()),
            Err(p) => Err(format!("panic: {}", panic_text(&*p))),
        }
    }

    /// Check a run's output: the Jacobi grid bit-for-bit against the
    /// sequential reference, the sharing counters against the round count.
    ///
    /// # Errors
    ///
    /// Describes the first wrong value.
    pub fn validate(&self, outcome: &Outcome) -> Result<(), String> {
        match (self.program, outcome) {
            (Program::Jacobi { n }, Outcome::Jacobi(o)) => {
                jacobi::validate_against_reference(&Self::jacobi_config(n), o)
            }
            (Program::Sharing { rounds }, Outcome::Sharing(o)) => {
                let want = vec![rounds as u32; self.pes];
                if o.counters != want {
                    return Err(format!("sharing counters {:?}, expected {want:?}", o.counters));
                }
                if o.cycles == 0 {
                    return Err("sharing measured an empty window".to_string());
                }
                Ok(())
            }
            _ => Err("outcome of another program".to_string()),
        }
    }
}
