//! `frontier` — the cost/precision Pareto frontier of a ≥10⁴-point
//! MC-IPU design space, swept through the analytic backend.
//!
//! This is the first artifact in the repository the paper could not have
//! computed with Monte-Carlo sampling alone: §3.3 and §5 frame MC-IPU
//! sizing as a multi-way trade (adder-tree width, tile family, cluster
//! size, software precision, operand statistics) but evaluate a handful
//! of hand-picked points. Here the whole grid — tile family × w ×
//! cluster × software precision × n_tiles × FIFO depth × operand
//! distributions — streams through the exploration engine's slab fast
//! path on a shared analytic backend (closed-form expectations, one DP
//! per parameter equivalence class), and the report *is* the
//! query answer: which designs are Pareto-optimal in (FP slowdown,
//! INT TOPS/mm², FP TFLOPS/W).
//!
//! The sweep defaults to the analytic backend rather than the suite's
//! Monte-Carlo default: closed-form expectations are seed-blind, so
//! overlapping points collapse into one query. An *explicit* `--backend`
//! flag is honored. `memoized-analytic` writes the same bytes as the
//! default (CI diffs the two); `mc` and `memoized` price every point by
//! Monte-Carlo sampling (well under a second for the grid), and the
//! report's notes then say so. Scale (`--smoke`) shrinks only the
//! estimation window, not the swept space.

use super::scaled_by;
use crate::report::{Cell, Report, Table};
use crate::runner::{Experiment, RunCtx};
use mpipu::{Scenario, Zoo};
use mpipu_dnn::zoo::Pass;
use mpipu_explore::{
    grid_u32, log2_range, objectives, Axis, FnSink, FrontierPoint, ParamSpace, ParetoFold,
    SweepEngine, SweepEvent, TileChoice, TopK,
};
use mpipu_sim::cost::pass_distributions;
use mpipu_sim::{Backend, CostBackend};
use std::sync::Arc;

/// Registry entry: runs the design-space sweep at the context's scale.
pub struct Frontier;

impl Experiment for Frontier {
    fn name(&self) -> &str {
        "frontier"
    }
    fn title(&self) -> &str {
        "cost/precision Pareto frontier of a 10^4+ design space (§3.3, §5)"
    }
    fn run(&self, ctx: &RunCtx<'_>) -> Report {
        let mut cfg = Config::paper(ctx.scale);
        cfg.seed = ctx.seed_for(self.name(), cfg.seed);
        // Only an explicit --backend overrides the analytic default; the
        // suite's own default is Monte-Carlo: see the module docs.
        if ctx.backend_explicit {
            cfg.backend = ctx.backend.clone();
        }
        run(&cfg, ctx)
    }
}

/// Parameters of the design-space sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Estimation-window steps per layer (scale-dependent; the analytic
    /// backend's expectations are window-proportional, so this affects
    /// rounding granularity, not which designs win).
    pub sample_steps: usize,
    /// Alignment-plan sampler seed (the analytic backend ignores it, but
    /// the scenario chain still carries one).
    pub seed: u64,
    /// Effective sample scale (recorded in the report).
    pub scale: f64,
    /// Worker threads for the sweep (0 ⇒ one per CPU).
    pub threads: usize,
    /// The shared cost backend — analytic by default; a seed-sensitive
    /// (Monte-Carlo) backend prices every point by sampling.
    pub backend: Arc<dyn CostBackend>,
}

impl Config {
    /// The full-grid configuration at the given sample scale.
    pub fn paper(scale: f64) -> Config {
        let sample_steps = scaled_by(256, 48, scale);
        Config {
            sample_steps,
            seed: 0xF205712E,
            scale: sample_steps as f64 / 256.0,
            threads: 1,
            backend: Backend::Analytic.instantiate(),
        }
    }
}

/// The swept design space: every axis the paper's sizing discussion
/// names, ≥ 10⁴ points total.
pub fn space(cfg: &Config) -> ParamSpace {
    ParamSpace::new(
        Scenario::small_tile()
            .workload(Zoo::ResNet18)
            .sample_steps(cfg.sample_steps)
            .seed(cfg.seed),
    )
    // Tile axis first: a tile swap resets clustering, so the cluster
    // axis must apply after it.
    .axis(Axis::tile(vec![TileChoice::Small, TileChoice::Big]))
    .axis(Axis::W(grid_u32(8, 38, 1)))
    .axis(Axis::cluster(log2_range(1, 16)))
    .axis(Axis::software_precision(vec![16, 28]))
    .axis(Axis::n_tiles(log2_range(1, 8)))
    .axis(Axis::buffer_depth(vec![2, 4, 8]))
    .axis(Axis::distributions(vec![
        pass_distributions(Pass::Forward),
        pass_distributions(Pass::Backward),
    ]))
}

/// Sweep the space, fold the Pareto frontier and a top-10 selection, and
/// report both.
pub fn run(cfg: &Config, ctx: &RunCtx<'_>) -> Report {
    let space = space(cfg);
    let total = space.len();
    let axis_names = space.axis_names();
    let mut report = Report::new(
        "frontier",
        "cost/precision Pareto frontier over the full MC-IPU design grid",
        cfg.seed,
        cfg.scale,
    );

    let objectives = vec![
        objectives::FP_SLOWDOWN,
        objectives::INT_TOPS_PER_MM2,
        objectives::FP_TFLOPS_PER_W,
    ];
    let sink = FnSink(|e: &SweepEvent<'_>| {
        // Every engine event enters the run's machine-readable stream in
        // the shared wire form (`suite --events` ≡ the serve protocol)…
        ctx.sweep_event("frontier", e);
        // …while the human-readable narration stays selective.
        match e {
            // Narrate every fourth chunk plus the last one.
            SweepEvent::ChunkFinished {
                chunk,
                chunks,
                points_done,
                points,
            } if (chunk + 1) % 4 == 0 || chunk + 1 == *chunks => {
                ctx.progress("frontier", &format!("swept {points_done}/{points} designs"));
            }
            SweepEvent::BackendStats {
                hits,
                misses,
                entries,
                ..
            } => {
                ctx.progress(
                    "frontier",
                    &format!("backend dedup: {hits} hits / {misses} misses, {entries} cached"),
                );
            }
            _ => {}
        }
    });
    let (front, fastest) = SweepEngine::new()
        .threads(cfg.threads)
        .chunk_size(1024)
        .backend(cfg.backend.clone())
        .run(
            &space,
            (
                ParetoFold::new(objectives.clone()),
                TopK::new(objectives::FP_TFLOPS_PER_W, 10),
            ),
            &sink,
        );

    let mut summary = Table::new(
        "sweep_summary",
        &["designs_swept", "axes", "frontier_size", "objectives"],
    );
    summary.push_row(vec![
        Cell::from(total),
        Cell::Text(axis_names.join("x")),
        Cell::from(front.len()),
        Cell::Text(
            objectives
                .iter()
                .map(|o| o.name)
                .collect::<Vec<_>>()
                .join(","),
        ),
    ]);
    report.tables.push(summary);

    report.tables.push(frontier_table(
        "pareto_frontier",
        &axis_names,
        &front,
        &objectives,
    ));
    report.tables.push(frontier_table(
        "top10_fp_tflops_per_w",
        &axis_names,
        &fastest,
        &[objectives::FP_TFLOPS_PER_W],
    ));

    let (priced, backend_note) = pricing_notes(cfg.backend.as_ref(), total);
    report.note(priced);
    report.note(
        "objectives: minimize fp_slowdown, maximize int_tops_per_mm2, maximize fp_tflops_per_w; \
         exact dominance, equal-vector designs collapse to the lowest design id",
    );
    report.note(backend_note);
    report.note(
        "claim check (fig10): fine-grained clusters with 12-16b trees populate the frontier's \
         efficiency end",
    );
    report
}

/// The two notes that say how the grid was priced, chosen by whether the
/// backend is seed-blind ([`CostBackend::seed_blind`]), as the sweep
/// engine asks to collapse a workload's layers. Seed-blind backends (the
/// analytic default) answer in closed form; seed-sensitive ones sample.
fn pricing_notes(backend: &dyn CostBackend, total: u64) -> (String, &'static str) {
    if backend.seed_blind() {
        (
            format!(
                "{total} design points swept in closed form \
                 (analytic expectations; seed-blind dedup collapses overlapping points)"
            ),
            "backend defaults to batched analytic (explicit --backend honored): a 10^4+-point grid \
             is only tractable in closed form (fig8a carries the MC cross-check)",
        )
    } else {
        (
            format!(
                "{total} design points priced by Monte-Carlo sampling \
                 (seeded draws; each draw class of a slab is sampled once)"
            ),
            "backend defaults to analytic (explicit --backend honored): this run priced \
             every point by Monte-Carlo, the ground truth of fig8a's cross-check",
        )
    }
}

/// Render a frontier (or top-k) selection as a table: one column per
/// axis, then one per objective.
fn frontier_table(
    title: &str,
    axis_names: &[&'static str],
    points: &[FrontierPoint],
    objectives: &[mpipu_explore::Objective],
) -> Table {
    let mut columns: Vec<&str> = vec!["design_id"];
    columns.extend_from_slice(axis_names);
    columns.extend(objectives.iter().map(|o| o.name));
    let mut table = Table::new(title, &columns);
    for p in points {
        let mut row: Vec<Cell> = vec![Cell::from(p.id.0)];
        row.extend(p.labels.iter().map(|l| Cell::Text(l.clone())));
        row.extend(p.values.iter().map(|&v| Cell::from(v)));
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::NullSink;

    #[test]
    fn notes_say_how_each_kind_of_backend_priced_the_grid() {
        let notes = |b: Backend| pricing_notes(b.instantiate().as_ref(), 14880);
        // Seed-blind backends keep the closed-form wording byte for byte.
        for b in [Backend::Analytic, Backend::MemoizedAnalytic] {
            let (priced, backend) = notes(b);
            assert_eq!(
                priced,
                "14880 design points swept in closed form (analytic expectations; \
                 seed-blind dedup collapses overlapping points)"
            );
            assert!(
                backend.contains("only tractable in closed form"),
                "{backend}"
            );
        }
        // Sampled backends say Monte-Carlo priced the grid and make no
        // tractability claim; mc and memoized mc write the same notes.
        for b in [Backend::MonteCarlo, Backend::Memoized] {
            let (priced, backend) = notes(b);
            assert_eq!(
                priced,
                "14880 design points priced by Monte-Carlo sampling \
                 (seeded draws; each draw class of a slab is sampled once)"
            );
            assert!(
                backend.contains("priced every point by Monte-Carlo"),
                "{backend}"
            );
            for claim in ["closed form", "tractable", "analytic expectations"] {
                assert!(
                    !priced.contains(claim) && !backend.contains(claim),
                    "{claim}"
                );
            }
        }
    }

    #[test]
    fn space_meets_the_ten_thousand_point_floor() {
        let cfg = Config::paper(0.02);
        assert!(
            space(&cfg).len() >= 10_000,
            "frontier must sweep >= 10^4 designs, got {}",
            space(&cfg).len()
        );
    }

    #[test]
    fn frontier_report_is_deterministic_across_engine_threads() {
        let mut one = Config::paper(0.02);
        one.threads = 1;
        let mut eight = Config::paper(0.02);
        eight.threads = 8;
        let a = run(&one, &RunCtx::new(one.scale, &NullSink));
        let b = run(&eight, &RunCtx::new(eight.scale, &NullSink));
        assert_eq!(
            a.to_json().to_string_pretty(),
            b.to_json().to_string_pretty(),
            "frontier must not depend on sweep parallelism"
        );
    }

    #[test]
    fn frontier_is_nonempty_and_within_the_space() {
        let cfg = Config::paper(0.02);
        let report = run(&cfg, &RunCtx::new(cfg.scale, &NullSink));
        let frontier = &report.tables[1];
        assert_eq!(frontier.title, "pareto_frontier");
        assert!(!frontier.rows.is_empty());
        let total = space(&cfg).len();
        for row in &frontier.rows {
            let Cell::Num(id) = row[0] else {
                panic!("design_id column is numeric")
            };
            assert!((id as u64) < total);
        }
        // The summary's frontier size matches the table.
        let Cell::Num(size) = report.tables[0].rows[0][2] else {
            panic!("frontier_size is numeric")
        };
        assert_eq!(size as usize, frontier.rows.len());
    }

    #[test]
    fn no_frontier_point_dominates_another() {
        let cfg = Config::paper(0.02);
        let report = run(&cfg, &RunCtx::new(cfg.scale, &NullSink));
        let table = &report.tables[1];
        let ncols = table.columns.len();
        // Keyed (minimize) objective triples: slowdown, -tops, -tflops.
        let keyed: Vec<[f64; 3]> = table
            .rows
            .iter()
            .map(|r| {
                let v = |i: usize| match r[ncols - 3 + i] {
                    Cell::Num(x) => x,
                    Cell::Text(_) => panic!("objective column is numeric"),
                };
                [v(0), -v(1), -v(2)]
            })
            .collect();
        for (i, a) in keyed.iter().enumerate() {
            for (j, b) in keyed.iter().enumerate() {
                if i == j {
                    continue;
                }
                let dominates =
                    a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y);
                assert!(!dominates, "frontier row {i} dominates row {j}");
            }
        }
    }
}
