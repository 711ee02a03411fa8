//! Chrome-trace emitter: run one sweep point with tracing on and write
//! the capture as a Chrome `trace_event` JSON file (plus optional CSV),
//! ready for `chrome://tracing` / Perfetto.
//!
//! ```text
//! cargo run --release -p medea-bench --bin trace_json -- \
//!     [--workload pingpong|mixed|jacobi] [--side N] [--pes N] [--banks N] \
//!     [--capacity N] [--csv CSV_PATH] [OUT_PATH]
//! ```
//!
//! Defaults: the paper-4×4 pingpong point, a 1 Mi-event ring, output to
//! `BENCH_trace.json`. `--workload mixed` runs a shared-memory + lock +
//! collective + message kernel set that exercises **all four** event
//! classes (NoC, cache, MPMMU/lock, kernel spans) on one timeline;
//! `--workload jacobi` traces one iteration of the paper's workload.
//! `--side N` picks an N×N torus; `--pes`/`--banks` size the system
//! (defaults: workload-dependent PEs, 1 bank).
//!
//! The emitted JSON is syntax-validated (`medea_trace::json`) before it
//! is written, so the CI artifact is parseable by construction; the run's
//! flit-latency percentiles and a trace summary (event counts per class,
//! peak link load, lock contention) are printed alongside.

use medea_apps::grid::max_ranks;
use medea_apps::jacobi::{JacobiConfig, JacobiVariant, JacobiWorkload};
use medea_apps::workloads::{pingpong_kernels, trace_mix_kernels};
use medea_core::explore::Workload as _;
use medea_core::report::{
    format_deflection_table, format_latency_table, format_lock_contention_table, format_table,
    LatencyRow,
};
use medea_core::system::{Kernel, RunResult, System};
use medea_core::{EventClass, RingSink, SystemConfig, Topology, TraceConfig};
use medea_trace::{chrome, csv, json, TimedEvent, TraceAnalysis};

/// One logical packet per round trip keeps the fabric lively without
/// flooding the ring.
const PINGPONG_ROUNDS: u32 = 40;

/// Lock-guarded counter rounds of the mixed workload.
const MIX_LOCK_ROUNDS: usize = 4;

/// Grid side of `--workload jacobi`.
const JACOBI_GRID: usize = 16;

const USAGE: &str = "usage: trace_json [--workload pingpong|mixed|jacobi] [--side N] [--pes N] \
                     [--banks N] [--capacity N] [--csv CSV_PATH] [OUT_PATH]";

/// Reject a bad invocation: print `msg` and the usage line, exit 2.
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("trace_json: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Parse the value of `flag`, or reject the invocation.
fn number<T: std::str::FromStr>(value: String, flag: &str) -> T {
    value.parse().unwrap_or_else(|_| usage_error(format!("{flag} needs a number, got {value:?}")))
}

struct Args {
    workload: String,
    side: u8,
    pes: Option<usize>,
    banks: usize,
    capacity: usize,
    csv_path: Option<String>,
    out_path: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: "pingpong".to_owned(),
        side: 4,
        pes: None,
        banks: 1,
        capacity: 1 << 20,
        csv_path: None,
        out_path: "BENCH_trace.json".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().unwrap_or_else(|| usage_error(format!("{flag} needs a value")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => args.workload = value(&mut it, "--workload"),
            "--side" => args.side = number(value(&mut it, "--side"), "--side"),
            "--pes" => args.pes = Some(number(value(&mut it, "--pes"), "--pes")),
            "--banks" => args.banks = number(value(&mut it, "--banks"), "--banks"),
            "--capacity" => args.capacity = number(value(&mut it, "--capacity"), "--capacity"),
            "--csv" => args.csv_path = Some(value(&mut it, "--csv")),
            flag if flag.starts_with('-') => usage_error(format!("unknown flag {flag}")),
            path => args.out_path = path.to_owned(),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let topology = Topology::new(args.side, args.side)
        .unwrap_or_else(|e| usage_error(format!("--side {}: {e}", args.side)));
    let free_nodes =
        topology.nodes().checked_sub(args.banks).filter(|n| *n > 0).unwrap_or_else(|| {
            usage_error(format!("--banks {} leaves no PE node on a {topology}", args.banks))
        });
    let default_pes = match args.workload.as_str() {
        "pingpong" => 2,
        "mixed" => 5.min(free_nodes),
        "jacobi" => 4.min(free_nodes),
        other => usage_error(format!("unknown workload {other} (pingpong|mixed|jacobi)")),
    };
    let pes = args.pes.unwrap_or(default_pes);
    match args.workload.as_str() {
        "pingpong" if pes != 2 => {
            usage_error(format!("--workload pingpong runs on 2 PEs, not {pes}"))
        }
        "jacobi" if pes > max_ranks(JACOBI_GRID) => usage_error(format!(
            "--workload jacobi runs on at most {} PEs (one per interior row of its \
             {JACOBI_GRID}x{JACOBI_GRID} grid), not {pes}",
            max_ranks(JACOBI_GRID)
        )),
        _ => {}
    }
    let cfg = SystemConfig::builder()
        .topology(topology)
        .compute_pes(pes)
        .memory_banks(args.banks)
        .cycle_limit(400_000_000)
        .trace(TraceConfig::all())
        .build()
        .unwrap_or_else(|e| usage_error(e));

    let (preload, kernels): (Vec<(u32, u32)>, Vec<Kernel>) = match args.workload.as_str() {
        "pingpong" => (Vec::new(), pingpong_kernels(PINGPONG_ROUNDS)),
        "mixed" => (Vec::new(), trace_mix_kernels(pes, MIX_LOCK_ROUNDS)),
        "jacobi" => {
            let workload = JacobiWorkload {
                jcfg: JacobiConfig::new(JACOBI_GRID, JacobiVariant::HybridFullMp)
                    .with_warmup_iters(0)
                    .with_measured_iters(1),
            };
            let prepared = workload.prepare(&cfg);
            (prepared.preload, prepared.kernels)
        }
        _ => unreachable!("validated above"),
    };

    let mut sink = RingSink::new(args.capacity);
    let result: RunResult =
        System::run_traced(&cfg, &preload, kernels, &mut sink).expect("traced run");
    let events: Vec<TimedEvent> = sink.to_vec();
    assert!(!events.is_empty(), "a traced run must capture events");

    // Track names: ranks for PE nodes, bank indices for bank nodes.
    let plan = cfg.node_plan();
    let bank_nodes = cfg.bank_nodes();
    let doc = chrome::to_chrome_json(&events, |node| {
        let id = medea_sim::ids::NodeId::new(node);
        if let Some(bank) = bank_nodes.iter().position(|b| *b == id) {
            format!("bank {bank} @ node {node}")
        } else if let Some(rank) = plan.rank_of_node(id) {
            format!("node {node} (rank {})", rank.index())
        } else {
            format!("node {node}")
        }
    });
    json::validate(&doc).expect("emitted chrome trace must be valid JSON");
    std::fs::write(&args.out_path, &doc).expect("write trace json");
    if let Some(csv_path) = &args.csv_path {
        std::fs::write(csv_path, csv::to_csv(&events)).expect("write trace csv");
        println!("wrote {csv_path}");
    }

    // Summary: class census, trace analytics, and the run's NoC latency
    // percentiles through the shared report renderers.
    let census = |class: EventClass| {
        events.iter().filter(|t| t.event.class().intersects(class)).count().to_string()
    };
    print!(
        "{}",
        format_table(
            &["events", "dropped", "noc", "cache", "mem", "kernel"],
            &[vec![
                events.len().to_string(),
                sink.dropped().to_string(),
                census(EventClass::NOC),
                census(EventClass::CACHE),
                census(EventClass::MEM),
                census(EventClass::KERNEL),
            ]],
        )
    );
    let analysis = TraceAnalysis::from_events(&events);
    if let Some((node, links)) = analysis.peak_link_load() {
        println!("peak link load: {links}/4 at node {node}");
    }
    let top_deflectors = analysis.top_deflecting_routers(8);
    if !top_deflectors.is_empty() {
        println!("hottest deflecting routers:");
        print!("{}", format_deflection_table(&top_deflectors));
    }
    if analysis.lock_acquires > 0 {
        println!(
            "locks: {} acquired, {} contended, {} contention cycles",
            analysis.lock_acquires, analysis.contended_acquires, analysis.lock_contention_cycles
        );
    }
    if !analysis.lock_contention_by_bank.is_empty() {
        println!("lock contention by bank:");
        print!("{}", format_lock_contention_table(&analysis.lock_contention_by_bank));
    }
    for (op, count, cycles) in &analysis.spans {
        println!("span {op}: {count} completed, {cycles} cycles total");
    }
    let rows: Vec<LatencyRow> = vec![(
        cfg.label(),
        result.flit_latency_p50(),
        result.flit_latency_p99(),
        result.fabric_max_latency,
        result.deflections_per_delivered(),
    )];
    println!("flit latency (cycles):");
    print!("{}", format_latency_table(&rows));
    println!(
        "{} cycles simulated, {} flits delivered; wrote {}",
        result.cycles, result.fabric_delivered, args.out_path
    );
}
