//! Bad invocations of the bench binaries exit with status 2 and the usage
//! line instead of panicking.

use std::process::Command;

/// Run `bin` with `args`; return its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("spawn bench binary");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

fn assert_usage_exit(bin: &str, args: &[&str], why: &str) {
    let (code, stderr) = run(bin, args);
    assert_eq!(code, Some(2), "{args:?} must exit 2 ({why}); stderr: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?} must print the usage line; stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} must not panic; stderr: {stderr}");
}

#[test]
fn trace_json_rejects_bad_invocations() {
    let bin = env!("CARGO_BIN_EXE_trace_json");
    let out = std::env::temp_dir().join("medea_cli_test_trace.json");
    let out = out.to_str().expect("utf-8 temp path");
    assert_usage_exit(
        bin,
        &["--workload", "jacobi", "--side", "8", "--pes", "63", out],
        "63 ranks do not fit the 14 interior rows of the jacobi grid",
    );
    assert_usage_exit(bin, &["--side", "eight", out], "unparsable --side");
    assert_usage_exit(bin, &["--pes", "-1", out], "unparsable --pes");
    assert_usage_exit(bin, &["--side", "0", out], "no such torus");
    assert_usage_exit(bin, &["--pes", "3", out], "pingpong runs on two PEs");
    assert_usage_exit(
        bin,
        &["--side", "2", "--pes", "9", "--workload", "mixed", out],
        "too many PEs",
    );
    assert_usage_exit(bin, &["--pes"], "missing value");
}

#[test]
fn figures_rejects_bad_invocations() {
    let bin = env!("CARGO_BIN_EXE_figures");
    assert_usage_exit(bin, &[], "no experiment");
    assert_usage_exit(bin, &["small", "--size", "sixteen"], "unparsable --size");
    assert_usage_exit(bin, &["small", "--size", "1"], "a grid without interior rows");
    assert_usage_exit(bin, &["small", "--threads", "x"], "unparsable --threads");
    assert_usage_exit(bin, &["no-such-figure"], "unknown experiment");
}
