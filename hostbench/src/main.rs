//! `medea-hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, one line per failed operation, and as the
//! last line the result object: `correct`, `attempted`, `failed` and the
//! metrics with their units (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`).

use medea_hostbench::{host, run_traced, run_untraced, workloads, Settings};
use std::process::ExitCode;

struct Args {
    workload: workloads::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; known: {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("medea-hostbench: {e}");
            eprintln!(
                "usage: medea-hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // A sequential-engine run has exactly one runnable thread at a time
    // (the engine or the one kernel it is serving), so its repetitions run
    // pinned to one CPU each: hand-offs then never wait on a cross-CPU
    // wake-up, whose cost depends on where the scheduler put the threads.
    let pin_cpus = if args.workload.host_threads == 1 { host::allowed_cpus() } else { Vec::new() };
    let settings = Settings {
        seed: args.seed,
        seconds: args.seconds,
        handoff_calls: 4000,
        barrier_crossings: 200_000,
        pin_cpus,
    };
    let report = if args.trace {
        run_traced(&args.workload, &settings)
    } else {
        run_untraced(&args.workload, &settings)
    };
    println!("{}", report.provenance_json());
    for f in &report.failures {
        println!("# failed: {f}");
    }
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
