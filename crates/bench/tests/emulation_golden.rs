//! Golden files pinning the full result JSON, at smoke scale, of the three
//! experiments the bit-accurate datapath emulation produces: `fig3`
//! (approximate FP-IP error sweep), `accuracy` (MLP inference replayed
//! through `IPU(w)`) and `ablation` (pre-shift, accumulator-grid and EHU
//! masking studies).
//!
//! The emulation is exact integer arithmetic, so its results must not move
//! by a single bit when the kernel, the EHU, the accumulator or the DNN
//! replay is restructured; any such drift shows up as a diff here.
//!
//! Deliberate numerical changes: regenerate with
//! `BLESS=1 cargo test -p mpipu-bench --test emulation_golden` and review
//! the diff.

use mpipu_bench::experiments::{ablation, accuracy, fig3};
use mpipu_bench::report::Report;

/// Smoke scale, as `suite --smoke` runs it.
const SCALE: f64 = 0.02;

fn golden_path(name: &str) -> String {
    format!(
        "{}/tests/golden/{name}_report.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Each experiment at its paper configuration and own fixed seed.
fn specimen(name: &str) -> String {
    let report: Report = match name {
        "fig3" => fig3::run(&fig3::Config::paper(SCALE)),
        "accuracy" => accuracy::run(&accuracy::Config::paper(SCALE)),
        "ablation" => ablation::run(&ablation::Config::paper(SCALE)),
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
         `BLESS=1 cargo test -p mpipu-bench --test emulation_golden` \
         and review the diff.\n\n--- golden ---\n{golden}\n--- got ---\n{got}"
    );
}

#[test]
fn fig3_report_matches_golden_file() {
    check("fig3");
}

#[test]
fn accuracy_report_matches_golden_file() {
    check("accuracy");
}

#[test]
fn ablation_report_matches_golden_file() {
    check("ablation");
}

/// Regenerates the golden files when `BLESS=1` is set; otherwise a no-op.
#[test]
fn bless() {
    if std::env::var_os("BLESS").is_some() {
        for name in ["fig3", "accuracy", "ablation"] {
            std::fs::write(golden_path(name), specimen(name)).expect("write golden file");
        }
    }
}
