//! Print the golden-determinism fingerprints of a few fixed workloads —
//! a quick manual probe for engine-rewrite verification (see
//! tests/golden_determinism.rs for the enforced version).

use medea::core::api::PeApi;
use medea::core::system::{kernel, Kernel, System};
use medea::core::{Empi, SystemConfig};
use medea::sim::ids::Rank;

fn cfg(pes: usize) -> SystemConfig {
    SystemConfig::builder().compute_pes(pes).cycle_limit(50_000_000).build().unwrap()
}

fn pingpong_kernels() -> Vec<Kernel> {
    let ping: Kernel = kernel(move |api: PeApi| async move {
        for i in 1..=40u32 {
            api.send_to_rank(Rank::new(1), &[i]).await;
            let back = api.recv_from_rank(Rank::new(1)).await;
            assert_eq!(back[0], i);
        }
    });
    let pong: Kernel = kernel(move |api: PeApi| async move {
        for _ in 1..=40u32 {
            let v = api.recv_from_rank(Rank::new(0)).await;
            api.send_to_rank(Rank::new(0), &v).await;
        }
    });
    vec![ping, pong]
}

// Hand-rolled gather-to-root + broadcast (not `Empi::allreduce`): the
// seed's exact call sequence, so the printed fingerprint stays comparable
// with the known-good values recorded before the communicator redesign.
fn reduce_kernels(ranks: usize) -> Vec<Kernel> {
    (0..ranks)
        .map(|r| {
            kernel(move |api: PeApi| async move {
                let mut comm = Empi::new(api);
                comm.compute(50 + 137 * r as u64).await;
                comm.barrier().await;
                let mine = r as f64 + 0.5;
                if comm.rank().is_master() {
                    let mut acc = mine;
                    for src in 1..comm.ranks() {
                        let v = comm.recv_f64(Rank::new(src as u8)).await[0];
                        acc = comm.fadd(acc, v).await;
                    }
                    for dst in 1..comm.ranks() {
                        comm.send_f64(Rank::new(dst as u8), &[acc]).await;
                    }
                } else {
                    comm.send_f64(Rank::new(0), &[mine]).await;
                    comm.recv_f64(Rank::new(0)).await;
                }
            })
        })
        .collect()
}

fn gather_kernels(ranks: usize) -> Vec<Kernel> {
    (0..ranks)
        .map(|r| {
            kernel(move |api: PeApi| async move {
                let mut comm = Empi::new(api);
                if r == 0 {
                    for src in 1..comm.ranks() {
                        let got = comm.recv(Rank::new(src as u8)).await;
                        assert_eq!(got.len(), 40);
                    }
                } else {
                    let payload: Vec<u32> = (0..40).map(|i| (r * 1000 + i) as u32).collect();
                    comm.send(Rank::new(0), &payload).await;
                }
            })
        })
        .collect()
}

fn main() {
    let p = System::run(&cfg(2), &[], pingpong_kernels()).unwrap();
    println!(
        "pingpong: cycles={} delivered={} deflections={} max_lat={:?}",
        p.cycles, p.fabric_delivered, p.fabric_deflections, p.fabric_max_latency
    );
    let r = System::run(&cfg(6), &[], reduce_kernels(6)).unwrap();
    println!(
        "reduce6:  cycles={} delivered={} deflections={} max_lat={:?}",
        r.cycles, r.fabric_delivered, r.fabric_deflections, r.fabric_max_latency
    );
    let g = System::run(&cfg(8), &[], gather_kernels(8)).unwrap();
    println!(
        "gather8:  cycles={} delivered={} deflections={} max_lat={:?}",
        g.cycles, g.fabric_delivered, g.fabric_deflections, g.fabric_max_latency
    );
}
