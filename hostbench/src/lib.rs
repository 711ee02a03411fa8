//! Host-speed benchmark of the MEDEA simulator.
//!
//! An untraced run repeats one workload for a fixed time and reports the
//! end-to-end metrics ([`END_TO_END`]). A traced run captures one run's
//! fabric, L1 and MPMMU traffic, replays each layer standalone and times
//! it, probes the hand-off and barrier costs, and reports the per-layer
//! split ([`PER_LAYER`]). `NOTES.md` maps every metric to its layer, the
//! end-to-end metric it should move, and the workload that shows it.

pub mod capture;
pub mod host;
pub mod probes;
pub mod replay;
pub mod workloads;

use capture::Capture;
use host::{median, Interval, Stamp};
use medea_core::NullSink;
use std::time::{Duration, Instant};
use workloads::{Fingerprint, Outcome, Workload};

/// End-to-end metrics (untraced runs): name and unit. The two rates are
/// those of the run's best repetition when it is pinned, of its median
/// repetition otherwise.
pub const END_TO_END: [(&str, &str); 5] = [
    ("sim_cycles_per_s", "1/s"),
    ("sim_cycles_per_cpu_s", "1/s"),
    ("sim_cycles", "cycles"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs): name and unit. Every `*_share` is a
/// replayed or probed host time over the median untraced wall time — an
/// estimate, not an in-engine measurement.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("sim.requests", "count"),
    ("sim.handoff_ns", "ns"),
    ("sim.handoff_share", "fraction"),
    ("noc.flits", "count"),
    ("noc.deflections_per_flit", "1/flit"),
    ("noc.latency_p99", "cycles"),
    ("noc.latency_max", "cycles"),
    ("noc.replay_ns_per_cycle", "ns/cycle"),
    ("noc.replay_share", "fraction"),
    ("cache.accesses", "count"),
    ("cache.l1_miss_rate", "fraction"),
    ("cache.replay_ns_per_access", "ns/access"),
    ("cache.replay_share", "fraction"),
    ("mem.txns", "count"),
    ("mem.lock_nack_ratio", "nack/grant"),
    ("mem.bank_busy_frac", "fraction"),
    ("mem.replay_ns_per_txn", "ns/txn"),
    ("mem.replay_share", "fraction"),
    ("pe.packets_sent", "count"),
    ("pe.recv_wait_frac", "fraction"),
    ("pe.retransmits", "count"),
    ("core.residual_share", "fraction"),
    ("tiled.barrier_ns", "ns"),
    ("tiled.barrier_share", "fraction"),
    ("trace.overhead_s", "s"),
    ("host.steal_s", "s"),
];

/// Untraced repetitions a run makes at the least, however short its time.
pub const MIN_REPS: usize = 3;
/// Set-ups timed after each untraced repetition; `setup_s` is their median.
pub const SETUPS_PER_REP: usize = 3;

/// Benchmark settings from the command line.
#[derive(Debug)]
pub struct Settings {
    /// Workload seed. The simulated inputs are the paper's fixed ones; the
    /// seed drives the hand-off probe's payloads.
    pub seed: u64,
    /// How long the untraced repetitions run.
    pub seconds: f64,
    /// Hand-off probe round trips per kernel.
    pub handoff_calls: usize,
    /// Barrier probe crossings.
    pub barrier_crossings: usize,
    /// CPUs the untraced repetitions are pinned to, one CPU per
    /// repetition in turn; empty leaves the process unpinned. The rates
    /// come from the best repetition when pinned and from the median one
    /// otherwise (see `NOTES.md`).
    pub pin_cpus: Vec<usize>,
}

/// Everything one benchmark run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: untraced runs, traced run, replays.
    pub attempted: u64,
    /// Operations that failed; each has a line in `failures`.
    pub failed: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// Metric name → value, units from [`END_TO_END`] / [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Provenance and noise fields, as `(key, JSON value)`.
    pub provenance: Vec<(&'static str, String)>,
}

impl Report {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, if value.is_finite() { value } else { 0.0 }));
    }

    fn note(&mut self, key: &'static str, value: String) {
        self.provenance.push((key, value));
    }

    /// The unit of a metric this report may carry.
    fn unit(name: &str) -> Option<&'static str> {
        END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name).map(|(_, u)| *u)
    }

    /// The provenance line: host, toolchain, threads, affinity, noise.
    pub fn provenance_json(&self) -> String {
        let fields: Vec<String> =
            self.provenance.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{\"provenance\": {{{}}}}}", fields.join(", "))
    }

    /// The result line, printed last: correctness, operation counts and
    /// every metric with its unit.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v)| {
                format!(
                    "\"{n}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    Self::unit(n).unwrap_or("?")
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON string literal for free text.
fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

fn json_list(values: &[f64]) -> String {
    let v: Vec<String> = values.iter().map(|x| format!("{x}")).collect();
    format!("[{}]", v.join(", "))
}

/// One good untraced repetition.
#[derive(Debug, Clone, Copy)]
struct Rep {
    cycles: u64,
    clocks: Interval,
}

/// Check a finished run: its output (the Jacobi grid bit-for-bit, the
/// sharing counters) and, for a named workload, its simulated fingerprint
/// against the recorded one. An error here makes the run a failed
/// operation.
///
/// # Errors
///
/// Describes the wrong output or the differing fingerprint.
pub fn check(w: &Workload, outcome: &Outcome) -> Result<(), String> {
    w.validate(outcome).map_err(|e| format!("wrong output: {e}"))?;
    let fp = Fingerprint::of(outcome.run());
    match Fingerprint::recorded(w.name) {
        Some(want) if want != fp => Err(format!(
            "simulated fingerprint {} differs from the recorded {}",
            fp.to_json(),
            want.to_json()
        )),
        _ => Ok(()),
    }
}

/// [`check`] one run of a series, which must also repeat the first good
/// run's fingerprint exactly.
fn check_run(
    w: &Workload,
    result: Result<Outcome, String>,
    first: &mut Option<Fingerprint>,
) -> Result<Outcome, String> {
    let outcome = result?;
    check(w, &outcome)?;
    let fp = Fingerprint::of(outcome.run());
    let want = *first.get_or_insert(fp);
    if fp != want {
        return Err(format!(
            "simulated fingerprint {} differs from the first run's {}",
            fp.to_json(),
            want.to_json()
        ));
    }
    Ok(outcome)
}

/// Repeat the untraced run until `seconds` have passed (at least
/// [`MIN_REPS`] times), checking every output and calling `between` after
/// each repetition. Returns the good repetitions and the peak resident
/// memory after the first, which is the process's first simulation.
fn untraced_reps(
    w: &Workload,
    s: &Settings,
    report: &mut Report,
    first: &mut Option<Fingerprint>,
    mut between: impl FnMut(&mut Report),
) -> (Vec<Rep>, f64) {
    let deadline = Instant::now() + Duration::from_secs_f64(s.seconds);
    let mut reps = Vec::new();
    let mut cpus = Vec::new();
    let mut tries = 0;
    let mut peak_rss_mb = 0.0;
    while tries < MIN_REPS || Instant::now() < deadline {
        if !s.pin_cpus.is_empty() {
            let cpu = s.pin_cpus[tries % s.pin_cpus.len()];
            if host::pin_to_cpu(cpu) {
                cpus.push(cpu);
            } else {
                report.fail(format!("pinning to CPU {cpu} failed"));
            }
        }
        tries += 1;
        report.attempted += 1;
        let stamp = Stamp::now();
        let result = w.run_with(&mut NullSink);
        let clocks = stamp.elapsed();
        if tries == 1 {
            // One simulation's high-water mark, as a user running a single
            // simulation sees it: later repetitions and set-ups only add
            // allocator fragmentation that depends on how long the
            // benchmark ran.
            peak_rss_mb = host::peak_rss_mb();
        }
        match check_run(w, result, first) {
            Ok(outcome) => reps.push(Rep { cycles: outcome.run().cycles, clocks }),
            Err(e) => report.fail(format!("untraced run {tries}: {e}")),
        }
        between(report);
    }
    report.note("reps", reps.len().to_string());
    if !cpus.is_empty() {
        report.note("cpus", format!("{cpus:?}"));
    }
    report.note("wall_s", json_list(&reps.iter().map(|r| r.clocks.wall_s).collect::<Vec<_>>()));
    report.note("cpu_s", json_list(&reps.iter().map(|r| r.clocks.cpu_s).collect::<Vec<_>>()));
    report.note("steal_s", json_list(&reps.iter().map(|r| r.clocks.steal_s).collect::<Vec<_>>()));
    (reps, peak_rss_mb)
}

fn provenance(w: &Workload, s: &Settings, traced: bool, report: &mut Report) {
    report.note("workload", json_str(w.name));
    report.note("seed", s.seed.to_string());
    report.note("seconds", s.seconds.to_string());
    report.note("trace", u8::from(traced).to_string());
    report.note("nproc", host::nproc().to_string());
    report.note("rustc", json_str(host::RUSTC));
    report.note("host_threads", w.host_threads.to_string());
    let affinity = if s.pin_cpus.is_empty() {
        format!("none set; allowed {}", host::cpus_allowed())
    } else {
        format!("each repetition pinned to one CPU, in turn over {:?}", s.pin_cpus)
    };
    report.note("cpu_affinity", json_str(&affinity));
}

/// The untraced run: set-up time, then repeated runs for `s.seconds`.
pub fn run_untraced(w: &Workload, s: &Settings) -> Report {
    let mut report = Report::default();
    provenance(w, s, false, &mut report);
    let steal0 = host::steal_s();
    // Set-ups are interleaved with the repetitions, so their median spans
    // the same stretch of host time as the rates.
    let mut setups = Vec::new();
    let setup = |report: &mut Report| {
        for _ in 0..SETUPS_PER_REP {
            report.attempted += 1;
            let t0 = Instant::now();
            match w.setup_once() {
                Ok(()) => setups.push(t0.elapsed().as_secs_f64()),
                Err(e) => report.fail(format!("set-up {}: {e}", setups.len())),
            }
        }
    };
    let mut first = None;
    let (reps, peak_rss_mb) = untraced_reps(w, s, &mut report, &mut first, setup);
    report.note("setup_s", json_list(&setups));
    let cycles = reps.first().map_or(0, |r| r.cycles);
    let rates = |f: fn(&Interval) -> f64| -> Vec<f64> {
        reps.iter().map(|r| r.cycles as f64 / f(&r.clocks)).collect()
    };
    let (wall_rates, cpu_rates) = (rates(|c| c.wall_s), rates(|c| c.cpu_s));
    // Host noise (steal, a busy sibling hyperthread) only ever adds time,
    // and on a shared host it comes in stretches of seconds per CPU. A run
    // pinned to one CPU at a time catches quiet stretches often, so its
    // fastest repetition is the steadiest estimate of the simulator's own
    // speed; a run spread over every CPU rarely has them all quiet for a
    // whole repetition, so there the median is steadier. Both statistics
    // go to the provenance line.
    let best = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    let pick = |v: &[f64]| if s.pin_cpus.is_empty() { median(v) } else { best(v) };
    report.metric("sim_cycles_per_s", pick(&wall_rates));
    report.metric("sim_cycles_per_cpu_s", pick(&cpu_rates));
    report.note("best_sim_cycles_per_s", best(&wall_rates).to_string());
    report.note("median_sim_cycles_per_s", median(&wall_rates).to_string());
    report.note("best_sim_cycles_per_cpu_s", best(&cpu_rates).to_string());
    report.note("median_sim_cycles_per_cpu_s", median(&cpu_rates).to_string());
    report.metric("sim_cycles", cycles as f64);
    report.metric("setup_s", median(&setups));
    report.metric("peak_rss_mb", peak_rss_mb);
    report.note("steal_s_total", (host::steal_s() - steal0).to_string());
    if let Some(fp) = first {
        report.note("fingerprint", fp.to_json());
    }
    report
}

/// The traced run: a median untraced wall time as the base of every
/// share, one captured run, the three layer replays and the two probes.
pub fn run_traced(w: &Workload, s: &Settings) -> Report {
    let mut report = Report::default();
    provenance(w, s, true, &mut report);
    let steal0 = host::steal_s();
    let mut first = None;
    let (reps, _) = untraced_reps(w, s, &mut report, &mut first, |_| {});
    let wall = median(&reps.iter().map(|r| r.clocks.wall_s).collect::<Vec<_>>());

    report.attempted += 1;
    let mut cap = Capture::default();
    let t0 = Instant::now();
    let traced = w.run_with(&mut cap);
    let traced_s = t0.elapsed().as_secs_f64();
    let outcome = match check_run(w, traced, &mut first) {
        Ok(o) => o,
        Err(e) => {
            report.fail(format!("traced run: {e}"));
            return report;
        }
    };
    let run = outcome.run();
    let sys = w.config();
    let cycles = run.cycles as f64;
    let pes = run.pe.len() as f64;
    let sum_pe =
        |f: fn(&medea_pe::pe::PeStats) -> u64| run.pe.iter().map(|p| f(&p.engine)).sum::<u64>();
    let requests = sum_pe(|e| e.requests.get());

    let mut shares = 0.0;
    let mut replayed = |report: &mut Report, name: &str, timed: replay::Timed| -> Option<f64> {
        report.attempted += 1;
        match timed {
            Ok(secs) => {
                shares += secs / wall;
                Some(secs)
            }
            Err(e) => {
                report.fail(format!("{name} replay: {e}"));
                None
            }
        }
    };
    let noc = replayed(&mut report, "noc", replay::noc(&sys, run, &cap.deliveries));
    let cache = replayed(&mut report, "cache", replay::cache(&sys, run, &cap.accesses));
    let mem = replayed(&mut report, "mem", replay::mem(&sys, run, &cap.dispatches));
    let handoff_ns = probes::handoff_ns(w.pes, s.handoff_calls, s.seed);
    let barrier_ns = probes::barrier_ns(w.host_threads, s.barrier_crossings);
    let handoff_share = requests as f64 * handoff_ns * 1e-9 / wall;
    // One barrier crossing per simulated cycle at most (idle fast-forward
    // skips some), so this share is an upper estimate.
    let barrier_share = cycles * barrier_ns * 1e-9 / wall;
    shares += handoff_share + barrier_share;

    let txns = workloads::mem_txns(&run.mpmmu);
    let grants = run.mpmmu.locks_granted.get();
    report.metric("sim.requests", requests as f64);
    report.metric("sim.handoff_ns", handoff_ns);
    report.metric("sim.handoff_share", handoff_share);
    report.metric("noc.flits", run.fabric_delivered as f64);
    report.metric("noc.deflections_per_flit", run.deflections_per_delivered().unwrap_or(0.0));
    report.metric("noc.latency_p99", run.flit_latency_p99().unwrap_or(0) as f64);
    report.metric("noc.latency_max", run.fabric_max_latency.unwrap_or(0) as f64);
    if let Some(secs) = noc {
        report.metric("noc.replay_ns_per_cycle", secs * 1e9 / cycles);
        report.metric("noc.replay_share", secs / wall);
    }
    report.metric("cache.accesses", cap.accesses.len() as f64);
    report.metric("cache.l1_miss_rate", run.l1_miss_rate().unwrap_or(0.0));
    if let Some(secs) = cache {
        report.metric("cache.replay_ns_per_access", secs * 1e9 / cap.accesses.len().max(1) as f64);
        report.metric("cache.replay_share", secs / wall);
    }
    report.metric("mem.txns", txns as f64);
    report.metric(
        "mem.lock_nack_ratio",
        if grants > 0 { run.mpmmu.lock_nacks.get() as f64 / grants as f64 } else { 0.0 },
    );
    report.metric(
        "mem.bank_busy_frac",
        run.mpmmu.busy_cycles.get() as f64 / (cycles * run.banks.len() as f64),
    );
    if let Some(secs) = mem {
        report.metric("mem.replay_ns_per_txn", secs * 1e9 / txns.max(1) as f64);
        report.metric("mem.replay_share", secs / wall);
    }
    report.metric("pe.packets_sent", sum_pe(|e| e.packets_sent.get()) as f64);
    report
        .metric("pe.recv_wait_frac", sum_pe(|e| e.recv_wait_cycles.get()) as f64 / (pes * cycles));
    report.metric("pe.retransmits", run.retransmits() as f64);
    report.metric("core.residual_share", 1.0 - shares);
    report.metric("tiled.barrier_ns", barrier_ns);
    report.metric("tiled.barrier_share", barrier_share);
    report.metric("trace.overhead_s", traced_s - wall);
    report.metric("host.steal_s", host::steal_s() - steal0);
    report.note("median_untraced_wall_s", wall.to_string());
    report.note("traced_wall_s", traced_s.to_string());
    if let Some(fp) = first {
        report.note("fingerprint", fp.to_json());
    }
    report
}
