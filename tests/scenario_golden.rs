//! Golden file pinning `Scenario::run` — the facade's own pricing path,
//! which examples and library users call directly — over a table of
//! small scenarios: both tiles, every `--backend` kind, unscheduled and
//! scheduled (uniform INT, first/last FP16, custom) workloads, zoo and
//! synthetic stacks, a distribution override, and one or four tiles.
//!
//! Each scenario records its label, total and baseline cycles, the bit
//! patterns of `normalized` and `fp_fraction`, and every layer's
//! `(steps, cycles, baseline_cycles)`.
//!
//! Deliberate numerical changes: regenerate with
//! `BLESS=1 cargo test --test scenario_golden` and review the diff.

use mpipu::analysis::dist::Distribution;
use mpipu::sim::{LayerPrecision, Schedule};
use mpipu::{Backend, Scenario, Zoo};
use std::fmt::Write;

/// The schedule kinds a row can carry.
#[derive(Clone, Copy)]
enum Sched {
    None,
    UniformInt4,
    FirstLast,
    Custom,
}

/// Sets a row's workload.
type WithWorkload = fn(Scenario) -> Scenario;

/// `(description, scenario)` for every row of the golden table.
fn table() -> Vec<(String, Scenario)> {
    let workloads: [(&str, WithWorkload); 4] = [
        ("resnet18-fwd", |s| s.workload(Zoo::ResNet18)),
        ("resnet18-bwd", |s| s.workload(Zoo::ResNet18).backward()),
        ("synthetic-32x14x3", |s| s.synthetic(32, 14, 3)),
        ("resnet50-fwd", |s| s.workload(Zoo::ResNet50)),
    ];
    let schedules = [
        ("unscheduled", Sched::None),
        ("uniform-int4", Sched::UniformInt4),
        ("first-last-fp16", Sched::FirstLast),
        ("custom", Sched::Custom),
    ];
    let mut rows = Vec::new();
    for (b, name) in Backend::NAMES.iter().enumerate() {
        for (s, &(sched_name, sched)) in schedules.iter().enumerate() {
            let k = 4 * b + s;
            let (tile, base) = match k % 2 {
                0 => ("small", Scenario::small_tile()),
                _ => ("big", Scenario::big_tile()),
            };
            let (wl_name, with_workload) = workloads[(b + s) % 4];
            let w = [12u32, 16, 10, 14][s];
            let n_tiles = if k % 3 == 0 { 1 } else { 4 };
            let steps = [16usize, 32, 64][k % 3];
            let mut scenario = with_workload(
                base.w(w)
                    .n_tiles(n_tiles)
                    .sample_steps(steps)
                    .seed(k as u64 + 1)
                    .backend(Backend::parse(name).expect("backend name")),
            );
            let dists = k % 5 == 2;
            if dists {
                scenario = scenario.distributions(
                    Distribution::Normal { std: 1.0 },
                    Distribution::Laplace { b: 0.25 },
                );
            }
            let layers = scenario.resolve_workload().layers.len();
            scenario = match sched {
                Sched::None => scenario,
                Sched::UniformInt4 => {
                    scenario.schedule(Schedule::Uniform(LayerPrecision::Int { ka: 1, kb: 1 }))
                }
                Sched::FirstLast => scenario.schedule(Schedule::FirstLastFp16),
                Sched::Custom => scenario.schedule(Schedule::Custom(
                    (0..layers)
                        .map(|l| match l % 3 {
                            0 => LayerPrecision::Fp16,
                            1 => LayerPrecision::Int { ka: 2, kb: 1 },
                            _ => LayerPrecision::Int { ka: 2, kb: 2 },
                        })
                        .collect(),
                )),
            };
            let desc = format!(
                "{name} {tile} w={w} n_tiles={n_tiles} sample_steps={steps} seed={} {wl_name} \
                 {sched_name}{}",
                k + 1,
                if dists {
                    " dists=normal1/laplace0.25"
                } else {
                    ""
                }
            );
            rows.push((desc, scenario));
        }
    }
    rows
}

/// Every row run through `Scenario::run`, rendered as text.
fn specimen() -> String {
    let mut out = String::new();
    for (desc, scenario) in table() {
        let r = scenario.run();
        writeln!(out, "scenario\t{desc}").unwrap();
        writeln!(
            out,
            "result\t{}\t{}\t{}\t{:016x}\t{:016x}",
            r.result.label,
            r.result.total_cycles(),
            r.result.total_baseline_cycles(),
            r.normalized().to_bits(),
            r.fp_fraction.to_bits()
        )
        .unwrap();
        for (i, l) in r.result.layers.iter().enumerate() {
            writeln!(
                out,
                "layer\t{i}\t{}\t{}\t{}",
                l.steps, l.cycles, l.baseline_cycles
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn scenario_run_matches_golden_file() {
    let path = format!(
        "{}/tests/golden/scenario_run.tsv",
        env!("CARGO_MANIFEST_DIR")
    );
    let got = specimen();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden file {path}: {e} (bless it with BLESS=1)"));
    assert!(
        got == golden,
        "Scenario::run drifted from the golden file.\n\
         If this change is deliberate, regenerate with\n\
         `BLESS=1 cargo test --test scenario_golden` and review the diff.\n\n\
         --- golden ---\n{golden}\n--- got ---\n{got}"
    );
}
