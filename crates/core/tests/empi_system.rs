//! End-to-end eMPI properties through the full simulated stack: framed
//! messages of arbitrary length survive the NoC's padding, reordering and
//! the credit window; the full-duplex `sendrecv` engine exchanges
//! windowed messages in both directions at once; collectives agree with
//! their host-side references under every algorithm.

use medea_core::api::PeApi;
use medea_core::system::{kernel, Kernel, System};
use medea_core::{empi, CollectiveAlgo, Empi, SystemConfig, Topology};
use medea_sim::ids::Rank;
use medea_sim::rng::SplitMix64;
use proptest::prelude::*;

fn sys(pes: usize) -> SystemConfig {
    SystemConfig::builder().compute_pes(pes).cycle_limit(100_000_000).build().unwrap()
}

fn sys_on(topology: Topology, pes: usize) -> SystemConfig {
    SystemConfig::builder()
        .topology(topology)
        .compute_pes(pes)
        .cycle_limit(200_000_000)
        .build()
        .unwrap()
}

proptest! {
    // Full-system runs are expensive; a handful of cases is plenty.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any payload length (including the chunking boundaries 15/16/30/31)
    /// round-trips exactly.
    #[test]
    fn framed_messages_roundtrip(len in 0usize..70, seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let payload: Vec<u32> = (0..len).map(|_| rng.next_u64() as u32).collect();
        let expect = payload.clone();
        System::run(
            &sys(2),
            &[],
            vec![
                kernel(move |api: PeApi| async move {
                    let got = Empi::new(api).recv(Rank::new(1)).await;
                    assert_eq!(got, expect);
                }),
                kernel(move |api: PeApi| async move {
                    Empi::new(api).send(Rank::new(0), &payload).await;
                }),
            ],
        )
        .expect("run");
    }

    /// Back-to-back messages between the same pair arrive in order with
    /// no cross-talk.
    #[test]
    fn sequential_messages_stay_ordered(count in 1usize..6, seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let messages: Vec<Vec<u32>> = (0..count)
            .map(|_| {
                let len = 1 + rng.next_below(40) as usize;
                (0..len).map(|_| rng.next_u64() as u32).collect()
            })
            .collect();
        let expect = messages.clone();
        System::run(
            &sys(2),
            &[],
            vec![
                kernel(move |api: PeApi| async move {
                    let mut comm = Empi::new(api);
                    for want in &expect {
                        let got = comm.recv(Rank::new(1)).await;
                        assert_eq!(&got, want);
                    }
                }),
                kernel(move |api: PeApi| async move {
                    let mut comm = Empi::new(api);
                    for m in &messages {
                        comm.send(Rank::new(0), m).await;
                    }
                }),
            ],
        )
        .expect("run");
    }

    /// The framing/credit protocol round-trips for random message lengths
    /// `0..=MAX_MESSAGE_WORDS` between a random rank pair, with both
    /// exchange directions running *concurrently* through `sendrecv` —
    /// the opposite-direction windowed exchange that plain `send`/`recv`
    /// cannot express — on a rectangular (8×2) torus.
    #[test]
    fn sendrecv_exchange_roundtrips_any_length(
        len_ab in 0usize..=empi::MAX_MESSAGE_WORDS,
        len_ba in 0usize..=empi::MAX_MESSAGE_WORDS,
        pair_seed in any::<u64>(),
    ) {
        let pes = 6usize;
        let mut rng = SplitMix64::new(pair_seed);
        let a = rng.next_below(pes as u64) as usize;
        let b = {
            let mut b = rng.next_below(pes as u64) as usize;
            if b == a {
                b = (b + 1) % pes;
            }
            b
        };
        let msg_ab: Vec<u32> = (0..len_ab).map(|_| rng.next_u64() as u32).collect();
        let msg_ba: Vec<u32> = (0..len_ba).map(|_| rng.next_u64() as u32).collect();
        let kernels: Vec<Kernel> = (0..pes)
            .map(|r| {
                let msg_ab = msg_ab.clone();
                let msg_ba = msg_ba.clone();
                kernel(move |api: PeApi| async move {
                    let mut comm = Empi::new(api);
                    if r == a {
                        let peer = Some(Rank::new(b as u8));
                        let got = comm.sendrecv(peer, &msg_ab, peer).await.expect("duplex");
                        assert_eq!(got, msg_ba, "a<-b payload");
                    } else if r == b {
                        let peer = Some(Rank::new(a as u8));
                        let got = comm.sendrecv(peer, &msg_ba, peer).await.expect("duplex");
                        assert_eq!(got, msg_ab, "b<-a payload");
                    }
                })
            })
            .collect();
        System::run(&sys_on(Topology::new(8, 2).unwrap(), pes), &[], kernels)
            .expect("duplex exchange run");
    }

    /// Collectives match their host-side references for random inputs and
    /// roots, under every algorithm.
    #[test]
    fn collectives_match_reference(
        pes in 2usize..9,
        root_seed in any::<u64>(),
        algo_idx in 0usize..3,
    ) {
        let algo = CollectiveAlgo::ALL[algo_idx];
        let mut rng = SplitMix64::new(root_seed);
        let root = Rank::new(rng.next_below(pes as u64) as u8);
        let bcast_msg: Vec<u32> = (0..17).map(|_| rng.next_u64() as u32).collect();
        let values: Vec<f64> = (0..pes).map(|r| r as f64 + 0.25).collect();
        let expect_sum: f64 = values.iter().sum();
        let cfg = SystemConfig::builder()
            .compute_pes(pes)
            .collective_algo(algo)
            .cycle_limit(100_000_000)
            .build()
            .unwrap();
        let kernels: Vec<Kernel> = (0..pes)
            .map(|r| {
                let bcast_msg = bcast_msg.clone();
                let values = values.clone();
                kernel(move |api: PeApi| async move {
                    let mut comm = Empi::new(api);
                    let got = comm.bcast(root, if comm.rank() == root { &bcast_msg } else { &[] }).await;
                    assert_eq!(got, bcast_msg, "bcast at rank {r}");
                    let sum = comm.reduce(root, values[r]).await;
                    if comm.rank() == root {
                        assert_eq!(sum.expect("root").to_bits(), expect_sum.to_bits(), "reduce");
                    }
                    let all = comm.allreduce(values[r]).await;
                    assert_eq!(all.to_bits(), expect_sum.to_bits(), "allreduce at rank {r}");
                    comm.barrier().await;
                    let mine = vec![r as u32; r + 1];
                    if let Some(rows) = comm.gather(root, &mine).await {
                        for (src, row) in rows.iter().enumerate() {
                            assert_eq!(row, &vec![src as u32; src + 1], "gather from {src}");
                        }
                    }
                    let chunks: Vec<Vec<u32>> =
                        (0..comm.ranks()).map(|k| vec![(k * 3) as u32; k + 2]).collect();
                    let chunk = comm.scatter(
                        root,
                        if comm.rank() == root { &chunks } else { &[] },
                    ).await;
                    assert_eq!(chunk, vec![(r * 3) as u32; r + 2], "scatter to {r}");
                })
            })
            .collect();
        System::run(&cfg, &[], kernels).expect("collective run");
    }
}

#[test]
fn chunk_boundary_lengths_exact() {
    // Deterministic sweep of the boundary lengths around the 15-word
    // chunk size and the eager/rendezvous switch (2 chunks = 30 words).
    for len in [0usize, 1, 14, 15, 16, 29, 30, 31, 45, 46, 60, 61] {
        let payload: Vec<u32> = (0..len as u32).map(|i| i * 7 + 1).collect();
        let expect = payload.clone();
        System::run(
            &sys(2),
            &[],
            vec![
                kernel(move |api: PeApi| async move {
                    assert_eq!(Empi::new(api).recv(Rank::new(1)).await, expect, "len {len}");
                }),
                kernel(move |api: PeApi| async move {
                    Empi::new(api).send(Rank::new(0), &payload).await;
                }),
            ],
        )
        .unwrap_or_else(|e| panic!("len {len}: {e}"));
    }
}

#[test]
fn maximum_length_message_roundtrips() {
    // The documented limit is real: a MAX_MESSAGE_WORDS message (256
    // chunks, the full 8-bit chunk-index space) survives the credit
    // window end to end.
    let payload: Vec<u32> =
        (0..empi::MAX_MESSAGE_WORDS as u32).map(|i| i.wrapping_mul(31)).collect();
    let expect = payload.clone();
    System::run(
        &sys(2),
        &[],
        vec![
            kernel(move |api: PeApi| async move {
                assert_eq!(Empi::new(api).recv(Rank::new(1)).await, expect);
            }),
            kernel(move |api: PeApi| async move {
                Empi::new(api).send(Rank::new(0), &payload).await;
            }),
        ],
    )
    .expect("max-length run");
}

#[test]
#[should_panic(expected = "kernel on n2 panicked")]
fn oversized_message_panics() {
    // The sender's kernel panics with the "exceeds the ... limit"
    // diagnostic; the engine surfaces it as a kernel-panic abort instead
    // of limping into a deadlock.
    let payload = vec![0u32; empi::MAX_MESSAGE_WORDS + 1];
    let _ = System::run(
        &sys(2),
        &[],
        vec![
            kernel(move |api: PeApi| async move {
                let _ = Empi::new(api).recv(Rank::new(1)).await;
            }),
            kernel(move |api: PeApi| async move {
                Empi::new(api).send(Rank::new(0), &payload).await;
            }),
        ],
    );
}

#[test]
fn oversized_message_panic_keeps_its_message() {
    // The engine re-raises a kernel panic with the kernel's own message,
    // on one tile and on several, whichever tile the panicking kernel
    // sits in: rank 0 is on n1 (tile 0 at two threads), rank 1 on n2 (the
    // last tile at two threads).
    let kernels = |sender: u8| -> Vec<Kernel> {
        let payload = vec![0u32; empi::MAX_MESSAGE_WORDS + 1];
        let receiver = 1 - sender;
        let recv = kernel(move |api: PeApi| async move {
            let _ = Empi::new(api).recv(Rank::new(sender)).await;
        });
        let send = kernel(move |api: PeApi| async move {
            Empi::new(api).send(Rank::new(receiver), &payload).await;
        });
        if sender == 0 {
            vec![send, recv]
        } else {
            vec![recv, send]
        }
    };
    let tiled =
        |threads| SystemConfig::builder().compute_pes(2).host_threads(threads).build().unwrap();
    for cfg in [sys(2), tiled(2), tiled(4)] {
        for (sender, node) in [(1, "n2"), (0, "n1")] {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                System::run(&cfg, &[], kernels(sender))
            }))
            .expect_err("the oversized send must panic");
            let text = payload.downcast_ref::<String>().expect("formatted panic message");
            let want = format!("kernel on {node} panicked: ");
            assert!(text.starts_with(&want), "{text}");
            assert!(text.contains("exceeds"), "the kernel's own message is kept: {text}");
        }
    }
}

#[test]
fn all_to_one_gather_under_contention() {
    // Every rank simultaneously streams a windowed message to rank 0 —
    // maximum pressure on the ejection channel and the TIE double buffer.
    let pes = 6;
    let kernels: Vec<Kernel> = (0..pes)
        .map(|r| {
            kernel(move |api: PeApi| async move {
                let mut comm = Empi::new(api);
                if r == 0 {
                    for src in 1..comm.ranks() {
                        let got = comm.recv(Rank::new(src as u8)).await;
                        let want: Vec<u32> = (0..50).map(|i| (src * 1000 + i) as u32).collect();
                        assert_eq!(got, want, "message from rank {src}");
                    }
                } else {
                    let payload: Vec<u32> = (0..50).map(|i| (r * 1000 + i) as u32).collect();
                    comm.send(Rank::new(0), &payload).await;
                }
            })
        })
        .collect();
    System::run(&sys(pes), &[], kernels).expect("gather");
}

#[test]
fn chain_of_duplex_exchanges_pipelines() {
    // Every rank simultaneously sendrecvs a windowed (5-chunk) message to
    // its successor while receiving from its predecessor — the Jacobi
    // halo-exchange shape. With the old phased send/recv this serialized;
    // the duplex engine must simply complete it.
    let pes = 8;
    let row: Vec<u32> = (0..70u32).collect();
    let kernels: Vec<Kernel> = (0..pes)
        .map(|r| {
            let row = row.clone();
            kernel(move |api: PeApi| async move {
                let mut comm = Empi::new(api);
                let next = (r + 1 < pes).then(|| Rank::new((r + 1) as u8));
                let prev = (r > 0).then(|| Rank::new((r - 1) as u8));
                let got = comm.sendrecv(next, if next.is_some() { &row } else { &[] }, prev).await;
                match (prev, got) {
                    (Some(_), Some(got)) => assert_eq!(got, row, "rank {r}"),
                    (None, None) => {}
                    (p, g) => panic!("rank {r}: prev {p:?} but got {}", g.is_some()),
                }
            })
        })
        .collect();
    System::run(&sys(pes), &[], kernels).expect("chain exchange");
}

#[test]
fn tree_barrier_beats_linear_at_63_ranks() {
    // The whole point of the pluggable algorithms: on a fully populated
    // 8×8 torus the O(ranks) linear barrier must cost several times the
    // O(log ranks) tree barriers.
    let cycles_for = |algo: CollectiveAlgo| {
        let cfg = SystemConfig::builder()
            .topology(Topology::new(8, 8).unwrap())
            .compute_pes(63)
            .collective_algo(algo)
            .cycle_limit(400_000_000)
            .build()
            .unwrap();
        let kernels: Vec<Kernel> = (0..63)
            .map(|_| {
                kernel(move |api: PeApi| async move {
                    let mut comm = Empi::new(api);
                    for _ in 0..4 {
                        comm.barrier().await;
                    }
                })
            })
            .collect();
        System::run(&cfg, &[], kernels).expect("barrier run").cycles
    };
    let linear = cycles_for(CollectiveAlgo::Linear);
    let tree = cycles_for(CollectiveAlgo::BinomialTree);
    let doubling = cycles_for(CollectiveAlgo::RecursiveDoubling);
    assert!(tree * 3 < linear, "binomial {tree} not ≥3x faster than linear {linear}");
    assert!(doubling * 3 < linear, "doubling {doubling} not ≥3x faster than linear {linear}");
}
