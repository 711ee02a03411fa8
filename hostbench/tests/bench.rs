//! The benchmark's own checks, on tiny machines: every metric is emitted
//! with its unit under the names `BENCHMARK.json` declares, the layer
//! replays reproduce their runs' counters, and a wrong output is counted
//! as a failed operation.

use medea_hostbench::capture::Capture;
use medea_hostbench::workloads::{Outcome, Program, Workload};
use medea_hostbench::{
    check, replay, run_traced, run_untraced, Report, Settings, END_TO_END, PER_LAYER,
};
use medea_trace::event::CacheEventKind;

fn tiny(
    name: &'static str,
    side: u8,
    pes: usize,
    host_threads: usize,
    program: Program,
) -> Workload {
    Workload { name, side, pes, host_threads, program }
}

fn jacobi_2x2() -> Workload {
    tiny("tiny_jacobi_2x2", 2, 3, 1, Program::Jacobi { n: 8 })
}

fn sharing_2x2() -> Workload {
    tiny("tiny_sharing_2x2", 2, 3, 1, Program::Sharing { rounds: 6 })
}

fn jacobi_4x4_tiled() -> Workload {
    tiny("tiny_jacobi_4x4_tiled", 4, 15, 2, Program::Jacobi { n: 18 })
}

const QUICK: Settings = Settings {
    seed: 7,
    seconds: 0.01,
    handoff_calls: 50,
    barrier_crossings: 1000,
    pin_cpus: Vec::new(),
};

// ---- a minimal JSON reader, enough for BENCHMARK.json and result lines ----

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    List(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => {
                &fields.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no key {key}")).1
            }
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn list(&self) -> &[Json] {
        match self {
            Json::List(v) => v,
            other => panic!("{other:?} is not a list"),
        }
    }
}

fn parse_json(text: &str) -> Json {
    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn value(b: &[u8], i: &mut usize) -> Json {
        skip_ws(b, i);
        match b[*i] {
            b'{' => {
                *i += 1;
                let mut fields = Vec::new();
                loop {
                    skip_ws(b, i);
                    if b[*i] == b'}' {
                        *i += 1;
                        return Json::Obj(fields);
                    }
                    let Json::Str(k) = value(b, i) else { panic!("object key at {i}") };
                    skip_ws(b, i);
                    assert_eq!(b[*i], b':', "colon at {i}");
                    *i += 1;
                    fields.push((k, value(b, i)));
                    skip_ws(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'[' => {
                *i += 1;
                let mut items = Vec::new();
                loop {
                    skip_ws(b, i);
                    if b[*i] == b']' {
                        *i += 1;
                        return Json::List(items);
                    }
                    items.push(value(b, i));
                    skip_ws(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'"' => {
                *i += 1;
                let start = *i;
                while b[*i] != b'"' {
                    *i += if b[*i] == b'\\' { 2 } else { 1 };
                }
                *i += 1;
                Json::Str(String::from_utf8(b[start..*i - 1].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                let word: String = b[*i..]
                    .iter()
                    .take_while(|c| c.is_ascii_alphabetic())
                    .map(|&c| c as char)
                    .collect();
                *i += word.len();
                match word.as_str() {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    w => panic!("bad literal {w}"),
                }
            }
            _ => {
                let start = *i;
                while *i < b.len()
                    && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    *i += 1;
                }
                let text = std::str::from_utf8(&b[start..*i]).expect("ascii number");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text:?}")))
            }
        }
    }
    let mut i = 0;
    let v = value(text.as_bytes(), &mut i);
    skip_ws(text.as_bytes(), &mut i);
    assert_eq!(i, text.len(), "trailing text after JSON value");
    v
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark"))
}

/// `(name, unit)` pairs of one metric section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .list()
        .iter()
        .map(|m| (m.get("name").str().to_string(), m.get("unit").str().to_string()))
        .collect()
}

/// The result line's metrics as `(name, unit)`, checking its shape.
fn emitted(report: &Report) -> Vec<(String, String)> {
    let line = parse_json(&report.result_json());
    match line {
        Json::Obj(ref fields) => {
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
        ref other => panic!("result line is {other:?}"),
    }
    let Json::Obj(metrics) = line.get("metrics") else { panic!("metrics is not an object") };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(matches!(m.get("value"), Json::Num(_)), "{name} value");
            (name.clone(), m.get("unit").str().to_string())
        })
        .collect()
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn metric_tables_match_benchmark_json() {
    let own = |t: &[(&str, &str)]| {
        sorted(t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect())
    };
    assert_eq!(own(&END_TO_END), sorted(declared("end_to_end")));
    assert_eq!(own(&PER_LAYER), sorted(declared("per_layer")));
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .list()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect();
    let ours: Vec<String> =
        medea_hostbench::workloads::WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn untraced_run_emits_every_end_to_end_metric() {
    let report = run_untraced(&jacobi_2x2(), &QUICK);
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(sorted(emitted(&report)), sorted(declared("end_to_end")));
    assert!(report.metrics.iter().all(|(_, v)| *v > 0.0), "{:?}", report.metrics);
    let provenance = parse_json(&report.provenance_json());
    for key in ["nproc", "rustc", "host_threads", "cpu_affinity", "steal_s", "fingerprint"] {
        provenance.get("provenance").get(key);
    }

    let pinned = Settings { pin_cpus: medea_hostbench::host::allowed_cpus(), ..QUICK };
    let report = run_untraced(&jacobi_2x2(), &pinned);
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    parse_json(&report.provenance_json()).get("provenance").get("cpus");
}

#[test]
fn traced_runs_emit_every_per_layer_metric_and_replays_agree() {
    for w in [jacobi_2x2(), sharing_2x2(), jacobi_4x4_tiled()] {
        let report = run_traced(&w, &QUICK);
        assert!(report.failures.is_empty(), "{}: {:?}", w.name, report.failures);
        assert_eq!(sorted(emitted(&report)), sorted(declared("per_layer")), "{}", w.name);
    }
}

#[test]
fn sharing_exercises_locks_and_the_tiled_run_its_barrier() {
    let value = |r: &Report, name: &str| r.metrics.iter().find(|(n, _)| *n == name).expect(name).1;
    let sharing = run_traced(&sharing_2x2(), &QUICK);
    assert!(value(&sharing, "mem.lock_nack_ratio") > 0.0);
    assert_eq!(value(&sharing, "tiled.barrier_ns"), 0.0);
    let tiled = run_traced(&jacobi_4x4_tiled(), &QUICK);
    assert!(value(&tiled, "tiled.barrier_ns") > 0.0);
    assert!(value(&tiled, "noc.flits") > 0.0);
}

#[test]
fn replays_reject_traffic_the_run_did_not_carry() {
    let w = sharing_2x2();
    let mut cap = Capture::default();
    let outcome = w.run_with(&mut cap).expect("tiny sharing run");
    let (sys, run) = (w.config(), outcome.run());
    assert!(replay::noc(&sys, run, &cap.deliveries).is_ok());
    assert!(replay::cache(&sys, run, &cap.accesses).is_ok());
    assert!(replay::mem(&sys, run, &cap.dispatches).is_ok());

    let mut dropped = cap.deliveries.clone();
    dropped.pop();
    assert!(replay::noc(&sys, run, &dropped).is_err(), "a lost delivery must not pass");
    let mut flipped = cap.accesses.clone();
    let miss =
        flipped.iter_mut().find(|a| a.kind == CacheEventKind::LoadMiss).expect("a cold miss");
    miss.kind = CacheEventKind::LoadHit;
    assert!(replay::cache(&sys, run, &flipped).is_err(), "a miss replayed as a hit must not pass");
    let mut missing = cap.dispatches.clone();
    missing.remove(0);
    assert!(replay::mem(&sys, run, &missing).is_err(), "a lost dispatch must not pass");
}

#[test]
fn corrupted_outputs_are_failed_operations() {
    let w = jacobi_2x2();
    let mut out = w.run_with(&mut medea_core::NullSink).expect("tiny Jacobi run");
    assert!(check(&w, &out).is_ok());
    if let Outcome::Jacobi(o) = &mut out {
        let rows = o.interior.as_mut().expect("validation rows");
        rows[0].1[1] = f64::from_bits(rows[0].1[1].to_bits() ^ 1);
    }
    assert!(check(&w, &out).is_err(), "one flipped bit is a wrong grid");

    let s = sharing_2x2();
    let mut out = s.run_with(&mut medea_core::NullSink).expect("tiny sharing run");
    assert!(check(&s, &out).is_ok());
    if let Outcome::Sharing(o) = &mut out {
        o.counters[0] += 1;
    }
    assert!(check(&s, &out).is_err(), "a wrong counter is a wrong output");

    // A run that cannot complete (more ranks than the grid has interior
    // rows) counts as a failed operation, and the result line says so.
    let broken = tiny("tiny_broken", 2, 3, 1, Program::Jacobi { n: 4 });
    let report = run_untraced(&broken, &QUICK);
    assert!(report.failed > 0 && report.failed <= report.attempted);
    assert_eq!(parse_json(&report.result_json()).get("correct"), &Json::Bool(false));
}
