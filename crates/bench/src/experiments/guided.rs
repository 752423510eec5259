//! `guided` — successive-halving + surrogate-guided search replacing
//! exhaustive enumeration, validated two ways:
//!
//! 1. **Recall gate** (phase A): on the `frontier` experiment's full
//!    14,880-point grid — small enough to enumerate exactly — the guided
//!    search must recover ≥ 95 % of the exact Pareto frontier while
//!    evaluating < 10 % of the space. Both counters come out of the
//!    search itself and land in the report's `gates` table, which CI
//!    asserts on.
//! 2. **Scale demonstration** (phase B): a per-layer precision-schedule
//!    space over a 27-layer synthetic stack — 2²⁷ ≈ 1.34·10⁸ points, six
//!    orders of magnitude past what the slab sweep enumerates — searched
//!    to a stable (FP-slowdown, FP-coverage) frontier, with the frontier
//!    survivors escalated from the analytic backend to Monte-Carlo
//!    confirmation ([`mpipu_sim::Backend::escalated`]) and the
//!    analytic-vs-MC disagreement reported per point.
//!
//! Everything is byte-deterministic at any thread count (the
//! [`SearchEngine`] contract), so the whole report pins under the
//! fixed-seed golden test.

use super::frontier;
use crate::report::{Cell, Report, Table};
use crate::runner::{Experiment, RunCtx};
use mpipu::Scenario;
use mpipu_explore::{
    objectives, Axis, FnSink, FrontierPoint, Objective, ParamSpace, ParetoFold, SearchConfig,
    SearchEngine, SearchOutcome, Sense, SweepEngine, SweepEvent,
};
use mpipu_sim::{Backend, CostBackend};
use std::collections::HashSet;
use std::sync::Arc;

/// Registry entry: runs both phases at the context's scale.
pub struct Guided;

impl Experiment for Guided {
    fn name(&self) -> &str {
        "guided"
    }
    fn title(&self) -> &str {
        "guided search: successive halving + surrogate vs exhaustive enumeration"
    }
    fn run(&self, ctx: &RunCtx<'_>) -> Report {
        let mut cfg = Config::paper(ctx.scale);
        cfg.seed = ctx.seed_for(self.name(), cfg.seed);
        // Like `frontier`, the search runs on the analytic backend: the
        // suite's Monte-Carlo default is overridden unless the user
        // pinned a backend explicitly.
        if ctx.backend_explicit {
            cfg.backend = ctx.backend.clone();
        }
        run(&cfg, ctx)
    }
}

/// Parameters of both search phases.
#[derive(Debug, Clone)]
pub struct Config {
    /// The phase-A grid (the `frontier` experiment's own configuration,
    /// so "exact" means exactly that sweep).
    pub grid: frontier::Config,
    /// Search seed (every proposal stream derives from it).
    pub seed: u64,
    /// Effective sample scale (recorded in the report).
    pub scale: f64,
    /// Worker threads for sweeps and search rungs.
    pub threads: usize,
    /// The shared analytic cost backend.
    pub backend: Arc<dyn CostBackend>,
    /// Phase-A rung-0 cohort size.
    pub initial: usize,
    /// Phase-A maximum rung count.
    pub rungs: usize,
    /// Phase-A evaluation budget (must stay < 10 % of the grid).
    pub max_evals: u64,
    /// Phase-B schedule-space layer count (space = 2^layers points).
    pub sched_layers: u32,
    /// Phase-B rung-0 cohort size.
    pub sched_initial: usize,
    /// Phase-B maximum rung count.
    pub sched_rungs: usize,
    /// Phase-B evaluation budget.
    pub sched_max_evals: u64,
}

impl Config {
    /// The paper-faithful configuration at the given sample scale.
    pub fn paper(scale: f64) -> Config {
        let grid = frontier::Config::paper(scale);
        let scale = grid.scale;
        Config {
            seed: 0x6D1DED5EA2C4,
            scale,
            threads: 1,
            backend: grid.backend.clone(),
            grid,
            initial: 384,
            rungs: 8,
            max_evals: 1400,
            sched_layers: 27,
            sched_initial: 128,
            sched_rungs: 8,
            sched_max_evals: 640,
        }
    }
}

/// Phase-B space: a 27-layer synthetic stack where every layer
/// independently runs FP16 or INT — 2²⁷ ≈ 1.34·10⁸ schedule points, far
/// past enumeration.
pub fn schedule_space(cfg: &Config) -> ParamSpace {
    ParamSpace::new(
        Scenario::small_tile()
            .synthetic(64, 14, cfg.sched_layers as usize - 1)
            .sample_steps(cfg.grid.sample_steps)
            .seed(cfg.seed),
    )
    .axis(Axis::schedule_mask(cfg.sched_layers))
}

/// FP16 MAC coverage, maximized — the accuracy proxy the schedule
/// search trades against slowdown.
const FP_SHARE: Objective = Objective::new("fp_share", Sense::Maximize, |e| e.fp_fraction);

/// Run both phases and report gates, counters, and escalation deltas.
pub fn run(cfg: &Config, ctx: &RunCtx<'_>) -> Report {
    let mut report = Report::new(
        "guided",
        "guided design-space search: recall gate on the exact grid, then a 10^8-point schedule space",
        cfg.seed,
        cfg.scale,
    );

    // ---- Phase A: exact-vs-guided on the enumerable grid. ----
    let grid = frontier::space(&cfg.grid);
    let total = grid.len();
    let objectives = vec![
        objectives::FP_SLOWDOWN,
        objectives::INT_TOPS_PER_MM2,
        objectives::FP_TFLOPS_PER_W,
    ];
    let sink = FnSink(|e: &SweepEvent<'_>| ctx.sweep_event("guided", e));
    let engine = || {
        SweepEngine::new()
            .threads(cfg.threads)
            .chunk_size(1024)
            .backend(cfg.backend.clone())
    };
    let exact = engine().run(&grid, ParetoFold::new(objectives.clone()), &sink);
    ctx.progress(
        "guided",
        &format!("exact frontier: {} of {total} designs", exact.len()),
    );

    let mut search_cfg = SearchConfig::new(objectives.clone());
    search_cfg.seed = cfg.seed;
    search_cfg.initial = cfg.initial;
    search_cfg.rungs = cfg.rungs;
    search_cfg.max_evals = cfg.max_evals;
    let out = SearchEngine::new(search_cfg)
        .engine(engine())
        .run(&grid, &sink);

    let exact_ids: HashSet<u64> = exact.iter().map(|p| p.id.0).collect();
    let hits = out
        .frontier
        .iter()
        .filter(|p| exact_ids.contains(&p.id.0))
        .count();
    let recall_pct = 100.0 * hits as f64 / exact.len() as f64;
    let eval_pct = 100.0 * out.evaluated as f64 / total as f64;
    ctx.progress(
        "guided",
        &format!(
            "guided: {hits}/{} frontier points recovered from {} evals ({eval_pct:.2}% of grid)",
            exact.len(),
            out.evaluated
        ),
    );

    let mut summary = Table::new(
        "guided_vs_exact",
        &[
            "grid_points",
            "exact_frontier",
            "guided_frontier",
            "frontier_hits",
            "recall_pct",
            "evaluated",
            "eval_pct",
            "proposed",
            "rungs",
        ],
    );
    summary.push_row(vec![
        Cell::from(total),
        Cell::from(exact.len()),
        Cell::from(out.frontier.len()),
        Cell::from(hits),
        Cell::from(recall_pct),
        Cell::from(out.evaluated),
        Cell::from(eval_pct),
        Cell::from(out.proposed),
        Cell::from(out.rungs.len()),
    ]);
    report.tables.push(summary);

    let mut gates = Table::new("gates", &["gate", "threshold", "actual", "pass"]);
    gates.push_row(vec![
        Cell::from("recall_pct_min"),
        Cell::from(95.0),
        Cell::from(recall_pct),
        Cell::from(if recall_pct >= 95.0 { "pass" } else { "FAIL" }),
    ]);
    gates.push_row(vec![
        Cell::from("eval_pct_max"),
        Cell::from(10.0),
        Cell::from(eval_pct),
        Cell::from(if eval_pct < 10.0 { "pass" } else { "FAIL" }),
    ]);
    report.tables.push(gates);

    report.tables.push(rung_table("grid_rungs", &out));

    // ---- Phase B: the 2^27-point per-layer precision-schedule space. ----
    let sched = schedule_space(cfg);
    let sched_objectives = vec![objectives::FP_SLOWDOWN, FP_SHARE];
    let mut sched_cfg = SearchConfig::new(sched_objectives.clone());
    sched_cfg.seed = cfg.seed ^ 0x5C4ED;
    sched_cfg.initial = cfg.sched_initial;
    sched_cfg.rungs = cfg.sched_rungs;
    sched_cfg.max_evals = cfg.sched_max_evals;
    let sched_out = SearchEngine::new(sched_cfg)
        .engine(
            SweepEngine::new()
                .threads(cfg.threads)
                .chunk_size(64)
                .backend(cfg.backend.clone()),
        )
        .confirm_backend(Backend::Analytic.escalated().instantiate())
        .run(&sched, &sink);
    ctx.progress(
        "guided",
        &format!(
            "schedule space: frontier of {} from {} evals in a {}-point space",
            sched_out.frontier.len(),
            sched_out.evaluated,
            sched.len()
        ),
    );

    let mut sched_summary = Table::new(
        "schedule_search",
        &[
            "space_points",
            "evaluated",
            "evals_per_million_points",
            "frontier",
            "rungs",
            "mc_confirmed",
        ],
    );
    sched_summary.push_row(vec![
        Cell::from(sched.len()),
        Cell::from(sched_out.evaluated),
        Cell::from(1e6 * sched_out.evaluated as f64 / sched.len() as f64),
        Cell::from(sched_out.frontier.len()),
        Cell::from(sched_out.rungs.len()),
        Cell::from(sched_out.confirmations.len()),
    ]);
    report.tables.push(sched_summary);
    report.tables.push(rung_table("schedule_rungs", &sched_out));

    let mut esc = Table::new(
        "mc_escalation",
        &[
            "design_id",
            "schedule",
            "fp_slowdown_analytic",
            "fp_slowdown_mc",
            "fp_share",
            "max_rel_delta",
        ],
    );
    for (c, p) in sched_out.confirmations.iter().zip(&sched_out.frontier) {
        esc.push_row(vec![
            Cell::from(c.id.0),
            Cell::Text(p.labels.join("")),
            Cell::from(c.analytic[0]),
            Cell::from(c.confirmed[0]),
            Cell::from(c.analytic[1]),
            Cell::from(c.max_rel_delta),
        ]);
    }
    report.tables.push(esc);

    report.tables.push(frontier_points_table(
        "schedule_frontier",
        &sched_out.frontier,
        &sched_objectives,
    ));

    report.note(format!(
        "phase A: guided search on the frontier grid — {hits}/{} exact frontier points \
         recovered ({recall_pct:.1}%) evaluating {}/{total} designs ({eval_pct:.2}%)",
        exact.len(),
        out.evaluated
    ));
    report.note(format!(
        "phase B: {}-point per-layer precision-schedule space (2^{} masks over a \
         {}-layer synthetic stack) searched with {} evaluations; frontier survivors \
         escalated analytic -> Monte-Carlo",
        sched.len(),
        cfg.sched_layers,
        cfg.sched_layers,
        sched_out.evaluated
    ));
    report.note(
        "byte-deterministic at any thread count: seeded proposal streams, ascending-id \
         cohort folds, id-tie-broken pruning (see DESIGN.md, 'Guided search')",
    );
    report
}

/// Per-rung accounting table shared by both phases.
fn rung_table(title: &str, out: &SearchOutcome) -> Table {
    let mut t = Table::new(
        title,
        &["rung", "proposed", "evaluated", "frontier", "survivors"],
    );
    for r in &out.rungs {
        t.push_row(vec![
            Cell::from(r.rung),
            Cell::from(r.proposed),
            Cell::from(r.evaluated),
            Cell::from(r.frontier),
            Cell::from(r.survivors),
        ]);
    }
    t
}

/// The recovered frontier, one row per point.
fn frontier_points_table(title: &str, points: &[FrontierPoint], objectives: &[Objective]) -> Table {
    let mut columns = vec!["design_id", "schedule"];
    columns.extend(objectives.iter().map(|o| o.name));
    let mut t = Table::new(title, &columns);
    for p in points {
        let mut row = vec![Cell::from(p.id.0), Cell::Text(p.labels.join(""))];
        row.extend(p.values.iter().map(|&v| Cell::from(v)));
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::NullSink;

    #[test]
    fn schedule_space_exceeds_one_hundred_million_points() {
        let cfg = Config::paper(0.02);
        assert!(
            schedule_space(&cfg).len() >= 100_000_000,
            "schedule space must exceed 10^8 points, got {}",
            schedule_space(&cfg).len()
        );
    }

    #[test]
    fn recall_gate_holds_across_search_seeds() {
        // The CLI mixes the config seed through `RunCtx::seed_for`, so
        // the gate must hold for arbitrary seeds, not one lucky one.
        let cfg = Config::paper(0.02);
        let grid = frontier::space(&cfg.grid);
        let objectives = vec![
            objectives::FP_SLOWDOWN,
            objectives::INT_TOPS_PER_MM2,
            objectives::FP_TFLOPS_PER_W,
        ];
        let engine = || {
            SweepEngine::new()
                .threads(cfg.threads)
                .chunk_size(1024)
                .backend(cfg.backend.clone())
        };
        let exact = engine().run(
            &grid,
            ParetoFold::new(objectives.clone()),
            &mpipu_explore::NullSweepSink,
        );
        let exact_ids: HashSet<u64> = exact.iter().map(|p| p.id.0).collect();
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX, cfg.seed] {
            let mut sc = SearchConfig::new(objectives.clone());
            sc.seed = seed;
            sc.initial = cfg.initial;
            sc.rungs = cfg.rungs;
            sc.max_evals = cfg.max_evals;
            let out = SearchEngine::new(sc)
                .engine(engine())
                .run(&grid, &mpipu_explore::NullSweepSink);
            let hits = out
                .frontier
                .iter()
                .filter(|p| exact_ids.contains(&p.id.0))
                .count();
            let recall = 100.0 * hits as f64 / exact.len() as f64;
            assert!(
                recall >= 95.0,
                "seed {seed:#x}: recall {recall:.1}% < 95% ({hits}/{})",
                exact.len()
            );
            assert!(
                (out.evaluated as f64) < 0.10 * grid.len() as f64,
                "seed {seed:#x}: {} evals >= 10% of {}",
                out.evaluated,
                grid.len()
            );
        }
    }

    #[test]
    fn recall_and_budget_gates_pass_at_smoke_scale() {
        let cfg = Config::paper(0.02);
        let report = run(&cfg, &RunCtx::new(cfg.scale, &NullSink));
        let gates = report
            .tables
            .iter()
            .find(|t| t.title == "gates")
            .expect("gates table");
        for row in &gates.rows {
            let Cell::Text(gate) = &row[0] else {
                panic!("gate name is text")
            };
            let Cell::Text(pass) = &row[3] else {
                panic!("pass column is text")
            };
            assert_eq!(pass, "pass", "{gate} failed: {row:?}");
        }
    }

    #[test]
    fn guided_report_is_deterministic_across_engine_threads() {
        let mut one = Config::paper(0.02);
        one.threads = 1;
        let mut eight = Config::paper(0.02);
        eight.threads = 8;
        let a = run(&one, &RunCtx::new(one.scale, &NullSink));
        let b = run(&eight, &RunCtx::new(eight.scale, &NullSink));
        assert_eq!(
            a.to_json().to_string_pretty(),
            b.to_json().to_string_pretty(),
            "guided search must not depend on sweep parallelism"
        );
    }

    #[test]
    fn escalation_table_rows_match_the_schedule_frontier() {
        let cfg = Config::paper(0.02);
        let report = run(&cfg, &RunCtx::new(cfg.scale, &NullSink));
        let esc = report
            .tables
            .iter()
            .find(|t| t.title == "mc_escalation")
            .expect("mc_escalation table");
        let front = report
            .tables
            .iter()
            .find(|t| t.title == "schedule_frontier")
            .expect("schedule_frontier table");
        assert_eq!(esc.rows.len(), front.rows.len());
        assert!(!esc.rows.is_empty(), "schedule frontier must be non-empty");
        for (e, f) in esc.rows.iter().zip(&front.rows) {
            assert_eq!(e[0], f[0], "escalation rows follow frontier id order");
            let Cell::Num(delta) = e[5] else {
                panic!("max_rel_delta is numeric")
            };
            assert!(delta.is_finite() && delta >= 0.0);
        }
    }
}
