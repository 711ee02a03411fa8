//! Before/after harness for the cycle-engine hot-path work: measures
//! simulated-cycles-per-second (experiment E8, `RunResult::sim_rate`) for
//! a fixed workload set on both engines —
//!
//! * **before**: [`System::run_reference`], the naive tick-everything
//!   loop behind a `Box<dyn Fabric>` (the seed engine);
//! * **after**: [`System::run`], the zero-allocation, activity-scheduled
//!   engine that parks every PE whose tick cannot change it;
//!
//! — and writes the results to `BENCH_sim_speed.json` (or the path given
//! as the first argument), with the host's core count and the compiler
//! version. Both engines produce bit-identical architectural results
//! (enforced by `tests/golden_determinism.rs` and the `engine_equivalence`
//! unit tests); only wall-clock and the PE ticks executed
//! ([`RunResult::pe_ticks`]) differ. Each row records the PE ticks per
//! simulated cycle of both engines, the host work of the PE-tick layer.
//! Both engines run in this one process, so the speedup is a same-host
//! ratio; `.github/scripts/smoke_gate.py` gates it per row.

use medea_apps::jacobi::{JacobiConfig, JacobiVariant, JacobiWorkload};
use medea_bench::base_builder;
use medea_core::api::PeApi;
use medea_core::explore::Workload as _;
use medea_core::system::{kernel, Kernel, RunResult, System};
use medea_core::{Empi, SystemConfig};
use medea_sim::ids::Rank;

/// Runs per engine; the best (highest) rate is reported to damp noise.
const REPS: usize = 3;

struct Measurement {
    name: &'static str,
    cycles: u64,
    before_cps: f64,
    after_cps: f64,
    before_ticks: u64,
    after_ticks: u64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.after_cps / self.before_cps
    }
}

/// `(cycles, PE ticks, best rate)` over [`REPS`] runs.
fn best_rate(mut run: impl FnMut() -> RunResult) -> (u64, u64, f64) {
    let mut cycles = 0;
    let mut ticks = 0;
    let mut best = 0.0f64;
    for _ in 0..REPS {
        let result = run();
        cycles = result.cycles;
        ticks = result.pe_ticks;
        best = best.max(result.sim_rate());
    }
    (cycles, ticks, best)
}

fn measure(
    name: &'static str,
    cfg: &SystemConfig,
    preload: &[(u32, u32)],
    kernels: impl Fn() -> Vec<Kernel>,
) -> Measurement {
    let (cycles_b, before_ticks, before_cps) =
        best_rate(|| System::run_reference(cfg, preload, kernels()).expect("reference run"));
    let (cycles_a, after_ticks, after_cps) =
        best_rate(|| System::run(cfg, preload, kernels()).expect("optimized run"));
    assert_eq!(cycles_a, cycles_b, "{name}: engines must simulate identical cycle counts");
    Measurement { name, cycles: cycles_a, before_cps, after_cps, before_ticks, after_ticks }
}

fn pingpong_kernels(rounds: u32) -> Vec<Kernel> {
    let ping: Kernel = kernel(move |api: PeApi| async move {
        for i in 1..=rounds {
            api.send_to_rank(Rank::new(1), &[i]).await;
            let back = api.recv_from_rank(Rank::new(1)).await;
            assert_eq!(back[0], i);
        }
    });
    let pong: Kernel = kernel(move |api: PeApi| async move {
        for _ in 1..=rounds {
            let v = api.recv_from_rank(Rank::new(0)).await;
            api.send_to_rank(Rank::new(0), &v).await;
        }
    });
    vec![ping, pong]
}

fn reduce_kernels(ranks: usize, iters: u32) -> Vec<Kernel> {
    (0..ranks)
        .map(|r| {
            kernel(move |api: PeApi| async move {
                let mut comm = Empi::new(api);
                for _ in 0..iters {
                    comm.compute(200 + 37 * r as u64).await;
                    comm.barrier().await;
                    let _ = comm.allreduce(r as f64 + 0.5).await;
                }
            })
        })
        .collect()
}

/// Imbalanced fork-join: the master runs a long sequential phase while
/// the workers sit blocked in `recv`, then fans a token out and the
/// workers do a short parallel phase. The whole-system fast-forward can
/// never fire during the sequential phase (the workers are recv-blocked,
/// not timed), so the naive engine ticks the stalled master — and scans
/// the idle fabric — every one of those cycles. Per-PE wake scheduling
/// is built for exactly this shape.
fn imbalanced_kernels(ranks: usize, iters: u32) -> Vec<Kernel> {
    (0..ranks)
        .map(|r| {
            kernel(move |api: PeApi| async move {
                for _ in 0..iters {
                    if api.rank().is_master() {
                        api.compute(150_000).await;
                        for dst in 1..api.ranks() {
                            api.send_to_rank(Rank::new(dst as u8), &[1]).await;
                        }
                    } else {
                        let _ = api.recv_from_rank(Rank::new(0)).await;
                        api.compute(2_000 + 53 * r as u64).await;
                    }
                }
            })
        })
        .collect()
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_sim_speed.json".to_owned());
    let mut rows: Vec<Measurement> = Vec::new();

    // Jacobi, the paper's workload: FP-stall-heavy with bursts of NoC and
    // MPMMU traffic — the per-PE wake-scheduling showcase.
    {
        let cfg = base_builder().compute_pes(4).cache_bytes(16 * 1024).build().expect("config");
        let workload = JacobiWorkload { jcfg: JacobiConfig::new(16, JacobiVariant::HybridFullMp) };
        let prepared = workload.prepare(&cfg);
        let preload = prepared.preload.clone();
        rows.push(measure("jacobi_16x16_4pe_hybrid", &cfg, &preload, || {
            workload.prepare(&cfg).kernels
        }));
    }

    // The paper's machine and workload: 15 PEs on the 4x4 torus, hybrid
    // Jacobi on the 62x62 grid (the host-speed benchmark's
    // `jacobi_hybrid_4x4`). Most PEs sit blocked in memory waits and
    // receives, the PE-parking showcase.
    {
        let cfg = base_builder().compute_pes(15).build().expect("config");
        let workload = JacobiWorkload { jcfg: JacobiConfig::new(62, JacobiVariant::HybridFullMp) };
        let prepared = workload.prepare(&cfg);
        let preload = prepared.preload.clone();
        rows.push(measure("jacobi_62x62_15pe_hybrid", &cfg, &preload, || {
            workload.prepare(&cfg).kernels
        }));
    }

    // Ping-pong: latency-bound message traffic, fabric almost always
    // near-empty — exercises the activity-scheduled network tick.
    {
        let cfg = base_builder().compute_pes(2).build().expect("config");
        rows.push(measure("pingpong_mp_2000_rounds", &cfg, &[], || pingpong_kernels(2000)));
    }

    // All-reduce with staggered compute: mixed timed stalls and barrier
    // traffic across six ranks.
    {
        let cfg = base_builder().compute_pes(6).build().expect("config");
        rows.push(measure("reduce_6pe_100_iters", &cfg, &[], || reduce_kernels(6, 100)));
    }

    // Imbalanced fork-join: the per-PE wake-scheduling showcase (see
    // `imbalanced_kernels`).
    {
        let cfg = base_builder().compute_pes(8).build().expect("config");
        rows.push(measure("imbalanced_forkjoin_8pe", &cfg, &[], || imbalanced_kernels(8, 4)));
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"sim_speed\",\n");
    json.push_str("  \"metric\": \"simulated_cycles_per_wall_second\",\n");
    json.push_str("  \"before\": \"System::run_reference (naive tick-everything engine)\",\n");
    json.push_str(
        "  \"after\": \"System::run (zero-allocation, activity-scheduled, parked PEs)\",\n",
    );
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    json.push_str(&format!("  \"host_cores\": {cores},\n"));
    json.push_str("  \"host_threads\": 1,\n");
    json.push_str(&format!("  \"rustc\": \"{}\",\n", env!("MEDEA_BENCH_RUSTC")));
    json.push_str(&format!("  \"reps_per_engine\": {REPS},\n"));
    json.push_str("  \"workloads\": [\n");
    for (i, m) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"simulated_cycles\": {}, \"before_cps\": {:.0}, \
             \"after_cps\": {:.0}, \"speedup\": {:.2}, \"before_pe_ticks_per_cycle\": {:.2}, \
             \"after_pe_ticks_per_cycle\": {:.2}}}{}\n",
            m.name,
            m.cycles,
            m.before_cps,
            m.after_cps,
            m.speedup(),
            m.before_ticks as f64 / m.cycles as f64,
            m.after_ticks as f64 / m.cycles as f64,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark json");

    println!("{json}");
    for m in &rows {
        println!(
            "{:<28} {:>12} cycles  before {:>12.0} c/s  after {:>12.0} c/s  speedup {:>5.2}x  \
             PE ticks/cycle {:.2} -> {:.2}",
            m.name,
            m.cycles,
            m.before_cps,
            m.after_cps,
            m.speedup(),
            m.before_ticks as f64 / m.cycles as f64,
            m.after_ticks as f64 / m.cycles as f64,
        );
    }
    let best = rows.iter().map(Measurement::speedup).fold(0.0f64, f64::max);
    assert!(best >= 1.5, "expected at least one workload to improve >= 1.5x, best was {best:.2}x");
    println!("wrote {out_path}");
}
