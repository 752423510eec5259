//! Canned requests shared by `sweepctl`, the examples, the benchmarks,
//! and the end-to-end tests.

use crate::request::{
    AxisSpec, PassSel, ScenarioSpec, SearchReq, SweepReq, TileSel, TopKSpec, WorkloadSpec, ZooSel,
};
use mpipu_explore::{grid_u32, log2_range};

/// A small demo sweep (372 points, sub-second): ResNet-18, the W axis
/// against three cluster sizes, both software precisions, both passes'
/// distribution pairs.
pub fn demo_sweep() -> SweepReq {
    SweepReq {
        base: ScenarioSpec {
            workload: Some(WorkloadSpec::Zoo(ZooSel::Resnet18)),
            sample_steps: Some(48),
            seed: Some(1),
            ..ScenarioSpec::default()
        },
        axes: vec![
            AxisSpec::W(grid_u32(8, 38, 1)),
            AxisSpec::Cluster(vec![1, 4, 16]),
            AxisSpec::SoftwarePrecision(vec![16, 28]),
            AxisSpec::Dists(vec![PassSel::Fwd.dists(), PassSel::Bwd.dists()]),
        ],
        top_k: Some(TopKSpec {
            objective: "fp_tflops_per_w".to_string(),
            k: 5,
        }),
        chunk: Some(64),
        ..SweepReq::default()
    }
}

/// The frontier experiment's full 14,880-point grid, expressed as a
/// wire request — same base scenario, axes, objectives, and top-10 as
/// `mpipu-bench`'s `frontier` experiment at sample scale `scale`
/// (window steps `max(48, 256 * scale)`).
pub fn frontier_sweep(scale: f64) -> SweepReq {
    let sample_steps = ((256.0 * scale) as usize).max(48);
    SweepReq {
        base: ScenarioSpec {
            workload: Some(WorkloadSpec::Zoo(ZooSel::Resnet18)),
            sample_steps: Some(sample_steps),
            seed: Some(0xF205712E),
            ..ScenarioSpec::default()
        },
        // Tile axis first: a tile swap resets clustering, so the cluster
        // axis must apply after it (mirrors the frontier experiment).
        axes: vec![
            AxisSpec::Tile(vec![TileSel::Small, TileSel::Big]),
            AxisSpec::W(grid_u32(8, 38, 1)),
            AxisSpec::Cluster(log2_range(1, 16)),
            AxisSpec::SoftwarePrecision(vec![16, 28]),
            AxisSpec::NTiles(log2_range(1, 8)),
            AxisSpec::BufferDepth(vec![2, 4, 8]),
            AxisSpec::Dists(vec![PassSel::Fwd.dists(), PassSel::Bwd.dists()]),
        ],
        top_k: Some(TopKSpec {
            objective: "fp_tflops_per_w".to_string(),
            k: 10,
        }),
        chunk: Some(1024),
        ..SweepReq::default()
    }
}

/// The memoization stress grid: 11,780 points where *every* axis value
/// changes the cost-model cache key (tile × W × software precision ×
/// cluster × distribution pair), so a cold sweep pays one alignment DP
/// per point while a warm repeat is pure cache hits on the slab path.
/// The workload is a single synthetic layer: a zoo network would spend
/// most of each point re-materializing its layer table, burying the
/// cache effect under per-point bookkeeping shared by both sweeps.
/// This is the load-test's cold/warm speedup workload — the frontier
/// grid is unsuitable for that measurement because its `n_tiles` and
/// `buffer_depth` axes multiply points without adding cache classes.
pub fn cold_grid_sweep() -> SweepReq {
    SweepReq {
        base: ScenarioSpec {
            workload: Some(WorkloadSpec::Synthetic(64, 14, 1)),
            sample_steps: Some(256),
            seed: Some(1),
            ..ScenarioSpec::default()
        },
        axes: vec![
            AxisSpec::Tile(vec![TileSel::Small, TileSel::Big]),
            AxisSpec::W(grid_u32(8, 38, 1)),
            AxisSpec::SoftwarePrecision((10..=28).collect()),
            AxisSpec::Cluster(log2_range(1, 16)),
            AxisSpec::Dists(vec![PassSel::Fwd.dists(), PassSel::Bwd.dists()]),
        ],
        top_k: Some(TopKSpec {
            objective: "fp_tflops_per_w".to_string(),
            k: 10,
        }),
        chunk: Some(2048),
        tag: Some("cold-grid".to_string()),
        ..SweepReq::default()
    }
}

/// The guided schedule search: per-layer FP16/INT precision schedules
/// over a `layers`-deep synthetic stack — a `2^layers`-point space (at
/// the default 27 layers, ~1.34·10⁸ points, far past any sweep budget)
/// searched with a few hundred evaluations. The daemon admits it on the
/// evaluation budget, not the space size. The synthetic depth tracks
/// `layers` because `schedule_mask` assigns one precision per workload
/// layer (`depth` convs + the classifier).
pub fn schedule_search(layers: u32) -> SearchReq {
    SearchReq {
        base: ScenarioSpec {
            workload: Some(WorkloadSpec::Synthetic(64, 14, layers.max(2) as usize - 1)),
            sample_steps: Some(48),
            seed: Some(1),
            ..ScenarioSpec::default()
        },
        axes: vec![AxisSpec::ScheduleMask(layers)],
        objectives: vec!["fp_slowdown".to_string(), "fp_tflops_per_w".to_string()],
        initial: Some(128),
        rungs: Some(8),
        max_evals: Some(640),
        seed: Some(0x5EA2C4),
        chunk: Some(64),
        tag: Some("schedule-search".to_string()),
        ..SearchReq::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Request, SampleSpec};

    #[test]
    fn schedule_search_round_trips_and_dwarfs_any_sweep_budget() {
        let search = schedule_search(27);
        assert_eq!(search.space_points(), 1 << 27);
        assert!(search.space_points() > 100_000_000);
        let line = Request::Search(search.clone()).to_line();
        assert_eq!(Request::parse(&line), Ok(Request::Search(search)));
    }

    #[test]
    fn presets_round_trip_and_size_correctly() {
        let demo = demo_sweep();
        assert_eq!(demo.points(), 31 * 3 * 2 * 2);
        let frontier = frontier_sweep(1.0);
        assert_eq!(frontier.points(), 14_880);
        assert_eq!(frontier.to_space().len(), 14_880);
        let sampled = SweepReq {
            sample: Some(SampleSpec {
                count: 100,
                seed: 7,
            }),
            ..frontier_sweep(0.02)
        };
        assert_eq!(sampled.points(), 100);
        let cold = cold_grid_sweep();
        assert_eq!(cold.points(), 2 * 31 * 19 * 5 * 2);
        for req in [demo, frontier, sampled, cold] {
            let line = Request::Sweep(req.clone()).to_line();
            assert_eq!(Request::parse(&line), Ok(Request::Sweep(req)));
        }
    }
}

#[cfg(test)]
mod profiling {
    use super::*;
    use crate::request::Request;
    use crate::service::{Limits, Service};
    use mpipu_explore::CancelToken;
    use std::time::Instant;

    /// Diagnostic (run with `--ignored --nocapture`): in-process cold and
    /// warm wall times of the cold-grid preset, no wire involved.
    #[test]
    #[ignore]
    fn cold_grid_in_process_timing() {
        let service = Service::new(Limits::default());
        let req = Request::Sweep(cold_grid_sweep());
        let cancel = CancelToken::new();
        let sink = |_: &mpipu_bench::json::Json| {};
        for run in ["cold", "warm1", "warm2", "warm3"] {
            let t = Instant::now();
            assert!(service.handle(&req, &cancel, &sink));
            eprintln!("{run}: {:?}", t.elapsed());
        }
    }
}
