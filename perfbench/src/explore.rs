//! The in-process design-space exploration workloads, one operation
//! kind each, every operation on a fresh batched-analytic backend so
//! caches start empty:
//!
//! * `explore_sweep`: the cold 14,880-point frontier grid through
//!   `SweepEngine` with Pareto and top-10 folds — no searcher;
//! * `explore_search`: the guided search of that grid (1,400 evals);
//! * `explore_schedule`: the guided search of the 2^27-point
//!   `schedule_mask` space (640 evals) — the only one off the slab path.
//!
//! The two searches are configured exactly as the `search/*` records of
//! the `hotpath` bench.
//!
//! These are the paper's fixed design spaces and their outputs are
//! pinned byte for byte, so the seed does not change them.

use crate::adapters::{TracedBackend, TracedFold, TracedSearcher, TracedSink};
use crate::trace::{by_name, Tracer};
use crate::{golden, matches_golden, stats, Args, Outcome};
use mpipu_bench::experiments::{frontier, guided};
use mpipu_bench::suite::SMOKE_SCALE;
use mpipu_explore::{
    objectives, BoxSearcher, FrontierPoint, NeighborSearcher, NullSweepSink, Objective, ParamSpace,
    ParetoFold, SearchConfig, SearchEngine, SearchOutcome, Searcher, SurrogateSearcher,
    SweepEngine, SweepSink, TopK, UniformSearcher,
};
use mpipu_serve::wire::{search_result_json, sweep_result_json};
use mpipu_sim::{Backend, CostBackend};
use std::sync::Arc;
use std::time::Instant;

const GOLDEN: &str = include_str!("../golden/explore.txt");

fn grid_objectives() -> Vec<Objective> {
    vec![
        objectives::FP_SLOWDOWN,
        objectives::INT_TOPS_PER_MM2,
        objectives::FP_TFLOPS_PER_W,
    ]
}

fn names(objs: &[Objective]) -> Vec<String> {
    objs.iter().map(|o| o.name.to_string()).collect()
}

/// `SearchEngine::new`'s default searcher stack, built here so the
/// traced pass can wrap each searcher.
pub fn default_searchers(seed: u64) -> Vec<Box<dyn Searcher>> {
    vec![
        Box::new(UniformSearcher::new(seed)),
        Box::new(NeighborSearcher::new()),
        Box::new(BoxSearcher::new(seed)),
        Box::new(SurrogateSearcher::new(seed, 8)),
    ]
}

/// The tracer hooks of one traced operation; `None` runs untraced.
type Hooks<'a> = Option<&'a Arc<Tracer>>;

fn backend(hooks: Hooks<'_>) -> Arc<dyn CostBackend> {
    let b = Backend::AnalyticBatched.instantiate();
    match hooks {
        Some(t) => TracedBackend::wrap(b, t),
        None => b,
    }
}

/// The three operations and their fixed inputs.
pub struct Ops {
    cfg: guided::Config,
    grid: ParamSpace,
    sched: ParamSpace,
}

impl Ops {
    pub fn new() -> Ops {
        let cfg = guided::Config::paper(SMOKE_SCALE);
        let grid = frontier::space(&cfg.grid);
        let sched = guided::schedule_space(&cfg);
        Ops { cfg, grid, sched }
    }

    /// Cold full-grid sweep; returns the encoded frontier and top-10.
    pub fn sweep(&self, hooks: Hooks<'_>) -> (String, Vec<FrontierPoint>) {
        let objs = grid_objectives();
        let fold = (
            ParetoFold::new(objs.clone()),
            TopK::new(objectives::FP_TFLOPS_PER_W, 10),
        );
        let engine = SweepEngine::new()
            .threads(1)
            .chunk_size(1024)
            .backend(backend(hooks));
        let (front, top) = match hooks {
            None => engine.run(&self.grid, fold, &NullSweepSink),
            Some(t) => t.span("explore.sweep", || {
                engine.run(
                    &self.grid,
                    TracedFold::wrap(fold, t),
                    &TracedSink::wrap(&NullSweepSink, t),
                )
            }),
        };
        let line = sweep_result_json(None, self.grid.len(), &names(&objs), &front, Some(&top));
        (line.to_string_compact(), front)
    }

    fn search(&self, space: &ParamSpace, cfg: SearchConfig, hooks: Hooks<'_>) -> SearchOutcome {
        let seed = cfg.seed;
        let engine = SearchEngine::new(cfg).engine(SweepEngine::new().backend(backend(hooks)));
        match hooks {
            None => engine.run(space, &NullSweepSink),
            Some(t) => {
                let searchers = default_searchers(seed)
                    .into_iter()
                    .map(|s| TracedSearcher::wrap(s, t))
                    .collect();
                let sink = TracedSink::wrap(&NullSweepSink, t);
                let sink: &dyn SweepSink = &sink;
                t.span("search.run", || {
                    engine.searchers(searchers).run(space, sink)
                })
            }
        }
    }

    /// Guided search of the grid; returns the encoded result and outcome.
    pub fn grid_search(&self, hooks: Hooks<'_>) -> (String, SearchOutcome) {
        let objs = grid_objectives();
        let mut sc = SearchConfig::new(objs.clone());
        sc.seed = self.cfg.seed;
        sc.initial = self.cfg.initial;
        sc.rungs = self.cfg.rungs;
        sc.max_evals = self.cfg.max_evals;
        let out = self.search(&self.grid, sc, hooks);
        let line = search_result_json(None, self.grid.len(), &names(&objs), &out);
        (line.to_string_compact(), out)
    }

    /// Guided search of the 2^27 schedule space.
    pub fn schedule_search(&self, hooks: Hooks<'_>) -> (String, SearchOutcome) {
        let objs = vec![objectives::FP_SLOWDOWN, objectives::FP_TFLOPS_PER_W];
        let mut sc = SearchConfig::new(objs.clone());
        sc.seed = self.cfg.seed;
        sc.initial = self.cfg.sched_initial;
        sc.rungs = self.cfg.sched_rungs;
        sc.max_evals = self.cfg.sched_max_evals;
        let out = self.search(&self.sched, sc, hooks);
        let line = search_result_json(None, self.sched.len(), &names(&objs), &out);
        (line.to_string_compact(), out)
    }

    /// One operation of `workload`; returns its encoded output.
    fn op(&self, workload: &str, hooks: Hooks<'_>) -> String {
        match workload {
            "explore_sweep" => self.sweep(hooks).0,
            "explore_search" => self.grid_search(hooks).0,
            "explore_schedule" => self.schedule_search(hooks).0,
            other => unreachable!("not an explore workload: {other}"),
        }
    }
}

/// Every pinned output (for `digests`).
pub fn outputs() -> Vec<(String, String)> {
    let ops = Ops::new();
    ["explore_sweep", "explore_search", "explore_schedule"]
        .into_iter()
        .map(|w| (format!("{w}/result"), ops.op(w, None)))
        .collect()
}

/// The frontier alone, encoded, for the guided == exhaustive check.
fn frontier_text(front: &[FrontierPoint]) -> String {
    sweep_result_json(None, 0, &names(&grid_objectives()), front, None).to_string_compact()
}

pub fn run(args: &Args, out: &mut Outcome) {
    let w = args.workload.as_str();
    let gold = golden(GOLDEN);
    // Set-up: the spaces plus one warm-up operation.
    let setup = || {
        let ops = Ops::new();
        std::hint::black_box(ops.op(w, None));
        ops
    };
    let ops = out.timed_setup(setup);
    // The oracle's exhaustive frontier, which the guided search must
    // recover; computed outside the timed set-up.
    let exact = frontier_text(&ops.sweep(None).1);
    let key = format!("{w}/result");
    out.timed_window(args.seconds, 3, |_| {
        if w != "explore_search" {
            return matches_golden(&gold, &key, &ops.op(w, None));
        }
        let (text, outcome) = ops.grid_search(None);
        matches_golden(&gold, &key, &text)?;
        if frontier_text(&outcome.frontier) != exact {
            return Err("guided frontier differs from the exhaustive frontier".into());
        }
        Ok(())
    });
    out.repeat_setup(setup, drop);
    if args.trace {
        traced(args, out, &ops, &gold, &exact);
    }
}

/// The traced pass runs all three operations in turn, whichever of them
/// the workload times, so the explore, search and batch-backend layers
/// are measured on every explore workload.
fn traced(
    args: &Args,
    out: &mut Outcome,
    ops: &Ops,
    gold: &std::collections::BTreeMap<String, (u64, usize)>,
    exact: &str,
) {
    let w = args.workload.as_str();
    let tracer = Arc::new(Tracer::new());
    let budget = (args.seconds / 4.0).max(0.5);
    let mut traced_ms: [Vec<f64>; 3] = Default::default();
    let mut outcomes = Vec::new();
    let mut checks = Vec::new();
    let root = tracer.open(w);
    let start = Instant::now();
    while traced_ms[0].len() < 3 || start.elapsed().as_secs_f64() < budget {
        let t = Instant::now();
        let (text, _) = ops.sweep(Some(&tracer));
        traced_ms[0].push(t.elapsed().as_secs_f64() * 1e3);
        checks.push(matches_golden(gold, "explore_sweep/result", &text));
        let t = Instant::now();
        let (text, grid) = ops.grid_search(Some(&tracer));
        traced_ms[1].push(t.elapsed().as_secs_f64() * 1e3);
        checks.push(matches_golden(gold, "explore_search/result", &text));
        checks.push(if frontier_text(&grid.frontier) == exact {
            Ok(())
        } else {
            Err("guided frontier differs from the exhaustive frontier".into())
        });
        let t = Instant::now();
        let (text, sched) = ops.schedule_search(Some(&tracer));
        traced_ms[2].push(t.elapsed().as_secs_f64() * 1e3);
        checks.push(matches_golden(gold, "explore_schedule/result", &text));
        outcomes = vec![grid, sched];
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    tracer.close(root);
    out.spans = tracer.spans();
    for c in checks {
        out.check(c.is_ok(), || format!("traced op: {}", c.unwrap_err()));
    }

    let names = by_name(&out.spans);
    let points = ops.grid.len() as f64;
    out.set("explore.points", points);
    let sweep_self = out.share_of_root("explore.sweep");
    out.set("explore.sweep_self_pct", sweep_self);
    let sweep_s = names
        .get("explore.sweep")
        .map_or(f64::NAN, |e| e.1 as f64 / 1e9);
    out.set(
        "explore.points_per_s",
        points * traced_ms[0].len() as f64 / sweep_s,
    );
    // Search counts are of one grid search plus one schedule search.
    let search_self = out.share_of_root("search.run");
    out.set("search.self_pct", search_self);
    let sum = |f: fn(&SearchOutcome) -> u64| outcomes.iter().map(f).sum::<u64>() as f64;
    let proposed = sum(|o| o.proposed);
    let evaluated = sum(|o| o.evaluated);
    let polish = sum(|o| o.polish_evaluated);
    out.set("search.proposed", proposed);
    out.set("search.evaluated", evaluated);
    out.set("search.polish_evaluated", polish);
    // Rung evaluations per proposal: the rest were duplicates or already
    // visited. Polish points are evaluated without proposals.
    out.set("search.useful_ratio", (evaluated - polish) / proposed);
    for (name, o) in ["grid", "schedule"].iter().zip(&outcomes) {
        out.line(format!(
            "{name} search: {} proposed, {} evaluated ({} in polish), frontier {}, {} confirmations",
            o.proposed,
            o.evaluated,
            o.polish_evaluated,
            o.frontier.len(),
            o.confirmations.len()
        ));
    }
    let own = ["explore_sweep", "explore_search", "explore_schedule"]
        .iter()
        .position(|x| *x == w)
        .expect("an explore workload");
    let untraced = stats::median(&out.ops_ms);
    out.finish_trace(untraced, stats::median(&traced_ms[own]), wall_ms);
}
