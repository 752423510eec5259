//! Golden files pinning the full result JSON, at smoke scale, of the four
//! experiments no other golden test covers: `frontier` (the Pareto
//! frontier of the 14,880-point design grid, priced by the analytic
//! backend), `fig7` (the tile area/power breakdown), `fig9` (alignment
//! histograms) and `table1` (multiplier-precision sensitivity).
//!
//! `frontier` is checked twice against the same file: once on its default
//! analytic backend and once through the memoized analytic backend, so a
//! memo cache in front of the class-hoisted closed form can never change
//! a byte of the grid's answer.
//!
//! Deliberate numerical changes: regenerate with
//! `BLESS=1 cargo test -p mpipu-bench --test model_golden` and review
//! the diff.

use mpipu_bench::events::NullSink;
use mpipu_bench::experiments::{fig7, fig9, frontier, table1};
use mpipu_bench::report::Report;
use mpipu_bench::runner::RunCtx;
use mpipu_sim::Backend;

/// Smoke scale, as `suite --smoke` runs it.
const SCALE: f64 = 0.02;

const NAMES: [&str; 4] = ["frontier", "fig7", "fig9", "table1"];

fn golden_path(name: &str) -> String {
    format!(
        "{}/tests/golden/{name}_report.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// `frontier` at its paper configuration on `backend` (`None`: the
/// config's own default).
fn frontier_on(backend: Option<Backend>) -> Report {
    let mut cfg = frontier::Config::paper(SCALE);
    if let Some(b) = backend {
        cfg.backend = b.instantiate();
    }
    frontier::run(&cfg, &RunCtx::new(cfg.scale, &NullSink))
}

/// Each experiment at its paper configuration, own fixed seed and
/// default backend.
fn specimen(name: &str) -> String {
    let report: Report = match name {
        "frontier" => frontier_on(None),
        "fig7" => fig7::run(&fig7::Config::paper(SCALE)),
        "fig9" => fig9::run(&fig9::Config::paper(SCALE)),
        "table1" => table1::run(&table1::Config::paper(SCALE)),
        _ => unreachable!("no golden file for {name}"),
    };
    report.to_json().to_string_pretty()
}

fn check(name: &str, got: &str) {
    let path = golden_path(name);
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("cannot read golden file {path}: {e}\n(run the `bless` test below to create it)")
    });
    assert!(
        got == golden,
        "{name} report drifted from the golden file.\n\
         If this change is deliberate, regenerate with\n\
         `BLESS=1 cargo test -p mpipu-bench --test model_golden` \
         and review the diff.\n\n--- golden ---\n{golden}\n--- got ---\n{got}"
    );
}

#[test]
fn frontier_report_matches_golden_file() {
    check("frontier", &specimen("frontier"));
}

#[test]
fn memoized_analytic_frontier_matches_the_same_golden_file() {
    let got = frontier_on(Some(Backend::MemoizedAnalytic))
        .to_json()
        .to_string_pretty();
    check("frontier", &got);
}

#[test]
fn fig7_report_matches_golden_file() {
    check("fig7", &specimen("fig7"));
}

#[test]
fn fig9_report_matches_golden_file() {
    check("fig9", &specimen("fig9"));
}

#[test]
fn table1_report_matches_golden_file() {
    check("table1", &specimen("table1"));
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
