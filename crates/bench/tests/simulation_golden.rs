//! Golden files pinning the full result JSON, at smoke scale, of the four
//! experiments the Monte-Carlo tile simulator produces: `fig8a`
//! (normalized time vs adder-tree precision), `fig8b` (vs cluster size),
//! `fig10` (the area/power design space) and `hybrid` (mixed-precision
//! schedules).
//!
//! The simulator is seeded and its cycle counts are integers, so its
//! results must not move by a single bit when the batched sampling, the
//! EHU's partition count, the cluster FIFO replay or the sweep engine is
//! restructured; any such drift shows up as a diff here.
//!
//! Deliberate numerical changes: regenerate with
//! `BLESS=1 cargo test -p mpipu-bench --test simulation_golden` and review
//! the diff.

use mpipu_bench::events::NullSink;
use mpipu_bench::experiments::{fig10, fig8a, fig8b, hybrid};
use mpipu_bench::report::Report;
use mpipu_bench::runner::RunCtx;

/// Smoke scale, as `suite --smoke` runs it.
const SCALE: f64 = 0.02;

const NAMES: [&str; 4] = ["fig8a", "fig8b", "fig10", "hybrid"];

fn golden_path(name: &str) -> String {
    format!(
        "{}/tests/golden/{name}_report.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Each experiment at its paper configuration, own fixed seed and the
/// default Monte-Carlo backend.
fn specimen(name: &str) -> String {
    let report: Report = match name {
        "fig8a" => fig8a::run(&fig8a::Config::paper(SCALE)),
        "fig8b" => fig8b::run(&fig8b::Config::paper(SCALE)),
        "fig10" => fig10::run(&fig10::Config::paper(SCALE)),
        "hybrid" => {
            let cfg = hybrid::Config::paper(SCALE);
            hybrid::run(&cfg, &RunCtx::new(cfg.scale, &NullSink))
        }
        _ => unreachable!("no golden file for {name}"),
    };
    report.to_json().to_string_pretty()
}

fn check(name: &str) {
    let path = golden_path(name);
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("cannot read golden file {path}: {e}\n(run the `bless` test below to create it)")
    });
    let got = specimen(name);
    assert!(
        got == golden,
        "{name} report drifted from the golden file.\n\
         If this change is deliberate, regenerate with\n\
         `BLESS=1 cargo test -p mpipu-bench --test simulation_golden` \
         and review the diff.\n\n--- golden ---\n{golden}\n--- got ---\n{got}"
    );
}

#[test]
fn fig8a_report_matches_golden_file() {
    check("fig8a");
}

#[test]
fn fig8b_report_matches_golden_file() {
    check("fig8b");
}

#[test]
fn fig10_report_matches_golden_file() {
    check("fig10");
}

#[test]
fn hybrid_report_matches_golden_file() {
    check("hybrid");
}

/// Regenerates the golden files when `BLESS=1` is set; otherwise a no-op.
#[test]
fn bless() {
    if std::env::var_os("BLESS").is_some() {
        for name in NAMES {
            std::fs::write(golden_path(name), specimen(name)).expect("write golden file");
        }
    }
}
