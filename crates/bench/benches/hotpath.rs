//! Hot-path benchmark suite: the Monte-Carlo tile simulator's cost
//! pipeline (EHU partition count, the batched backend on a real slab, the
//! cluster FIFO replay), the sweep/serve/search paths, plus the
//! end-to-end smoke-suite wall-clock.
//!
//! Unlike the other bench targets this one has a custom `main`: after the
//! criterion groups run it drains the harness's records and writes a
//! versioned `BENCH_v1.json` at the workspace root (override the path
//! with `BENCH_OUT`), which CI uploads as an artifact and gates against
//! `results/bench-baseline.json` (see the `bench_gate` binary).

use criterion::{criterion_group, Criterion, Throughput};
use mpipu::{Scenario, Zoo};
use mpipu_analysis::dist::{Distribution, ExpSampler};
use mpipu_bench::events::NullSink;
use mpipu_bench::experiments::frontier;
use mpipu_bench::json::Json;
use mpipu_bench::registry::Registry;
use mpipu_bench::runner::{run_parallel, RunCtx, RunOptions};
use mpipu_bench::suite::SMOKE_SCALE;
use mpipu_datapath::Ehu;
use mpipu_explore::{Axis, Collect, NullSweepSink, ParamSpace, SweepEngine};
use mpipu_sim::{simulate_clusters, Backend, CostBackend, CostQuery, MonteCarlo};
use std::sync::Mutex;

/// Pre-sample `count` product-exponent vectors of width `n` (backward
/// tensors: the widest alignment spread, the worst case for the sort).
fn product_vectors(count: usize, n: usize) -> Vec<Vec<Option<i32>>> {
    let mut s = ExpSampler::new(Distribution::BackwardLike, 0xBE7C);
    (0..count)
        .map(|_| {
            (0..n)
                .map(|_| match (s.sample_exp(), s.sample_exp()) {
                    (Some(a), Some(b)) => Some(a + b),
                    _ => None,
                })
                .collect()
        })
        .collect()
}

/// EHU partition count: optimized bucket scan vs the retained sort-based
/// reference, over a rotating set of sampled backward-tensor vectors.
fn bench_ehu(c: &mut Criterion) {
    let vectors = product_vectors(256, 16);
    let ehu = Ehu::new(28);
    let sp = 3; // w = 12: the paper's most partition-heavy design
    let mut g = c.benchmark_group("ehu");
    g.throughput(Throughput::Elements(16));
    let mut i = 0;
    g.bench_function("partition_count/bucket", |b| {
        b.iter(|| {
            i = (i + 1) % vectors.len();
            ehu.partition_count(&vectors[i], sp)
        })
    });
    let mut i = 0;
    g.bench_function("partition_count/sort", |b| {
        b.iter(|| {
            i = (i + 1) % vectors.len();
            ehu.plan(&vectors[i]).partitions_naive(sp).len() as u32
        })
    });
    g.finish();
}

/// A Monte-Carlo backend that records every query it answers — how the
/// bench below captures the exact slab a sweep hands the backend.
#[derive(Debug, Default)]
struct Recorder(Mutex<Vec<CostQuery>>);

impl CostBackend for Recorder {
    fn name(&self) -> &'static str {
        "mc"
    }

    fn estimate_batch(&self, queries: &[CostQuery], out: &mut [f64]) {
        self.0.lock().unwrap().extend_from_slice(queries);
        MonteCarlo.estimate_batch(queries, out);
    }
}

/// The batched Monte-Carlo backend on the slab of fig8a's 16-input family
/// at smoke scale (5 widths × 4 study cases, one query per layer): every
/// draw class sampled once, every query priced from its class's draws.
fn bench_monte_carlo(c: &mut Criterion) {
    use mpipu_bench::experiments::fig8a;
    use mpipu_dnn::zoo::Workload;

    let cfg = fig8a::Config::paper(SMOKE_SCALE);
    let recorder = std::sync::Arc::new(Recorder::default());
    let space = ParamSpace::new(
        Scenario::big_tile()
            .software_precision(cfg.software_precision)
            .n_tiles(cfg.n_tiles)
            .sample_steps(cfg.sample_steps)
            .seed(cfg.seed),
    )
    .axis(Axis::w(cfg.precisions.clone()))
    .axis(Axis::workloads(Workload::paper_study_cases()));
    SweepEngine::new().threads(1).backend(recorder.clone()).run(
        &space,
        Collect::new(),
        &NullSweepSink,
    );
    let slab = std::mem::take(&mut *recorder.0.lock().unwrap());
    let mut out = vec![0.0f64; slab.len()];
    let mut g = c.benchmark_group("monte_carlo");
    g.throughput(Throughput::Elements(slab.len() as u64));
    g.bench_function("estimate_batch/fig8a_16_input", |b| {
        b.iter(|| MonteCarlo.estimate_batch(&slab, &mut out))
    });
    g.finish();
}

/// The cluster FIFO timing engine on a paper-scale layer window: 4
/// clusters of 16 IPUs over 512 steps, each step costing 9 × the EHU
/// partition count of the cluster's worst sampled backward-tensor vector
/// at `w = 12`.
fn bench_engine(c: &mut Criterion) {
    let (clusters, steps, ipus) = (4, 512, 16);
    let vectors = product_vectors(clusters * steps * ipus, 16);
    let ehu = Ehu::new(28);
    let mut costs = vec![Vec::with_capacity(steps); clusters];
    for (i, members) in vectors.chunks(ipus).enumerate() {
        let worst = members.iter().map(|v| ehu.partition_count(v, 3)).max();
        costs[i % clusters].push(9 * worst.unwrap());
    }
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(steps as u64));
    g.bench_function("simulate_clusters/4x512", |b| {
        b.iter(|| simulate_clusters(&costs, 4))
    });
    g.finish();
}

/// ISSUE 4 acceptance benchmark: a fig8-style precision sweep (5 widths
/// × ResNet-18 fwd + bwd) through the Monte-Carlo backend at smoke scale
/// versus the memoized analytic backend. The analytic path must be
/// ≥ 50× faster (numbers recorded in README "Benchmarks").
fn bench_fig8_sweep(c: &mut Criterion) {
    fn sweep(base: &Scenario) -> f64 {
        let mut total = 0.0;
        for backward in [false, true] {
            for &w in &[12u32, 16, 20, 24, 28] {
                let s = base.clone().w(w);
                let s = if backward { s.backward() } else { s };
                total += s.run().normalized();
            }
        }
        total
    }
    let mut g = c.benchmark_group("fig8_sweep");
    // 10 design points, smoke-scale sampling window (the `--smoke` floor).
    let mc = Scenario::small_tile()
        .workload(Zoo::ResNet18)
        .sample_steps(64)
        .seed(1);
    g.bench_function("mc_smoke", |b| b.iter(|| sweep(&mc)));
    // The clones inside `sweep` share the base scenario's memoized
    // backend, so steady-state iterations measure the sweep's cached
    // arithmetic — exactly how a large design-space exploration runs.
    let analytic = mc.clone().backend(Backend::MemoizedAnalytic);
    g.bench_function("analytic_memoized", |b| b.iter(|| sweep(&analytic)));
    g.finish();
}

/// The slab path's acceptance benchmark: the full 14 880-point
/// `frontier` grid through the analytic backend — whole axis-contiguous
/// chunks per `estimate_batch` call, one alignment DP per parameter
/// equivalence class. The acceptance bound is ≤ 10 ms per full-grid
/// sweep (≥ 30× over the 368 ms point-at-a-time sweep it replaced),
/// held by the CI gate's `--require` bound on this record.
fn bench_frontier_sweep_batched(c: &mut Criterion) {
    let cfg = frontier::Config::paper(SMOKE_SCALE);
    let points = frontier::space(&cfg).len();
    let mut g = c.benchmark_group("frontier_sweep_batched");
    g.throughput(Throughput::Elements(points));
    g.bench_function("analytic_batched_full_grid", |b| {
        b.iter(|| {
            // A fresh config — and with it a fresh backend — per
            // iteration, so every sweep recomputes its equivalence-class
            // DPs from cold, exactly like a suite run.
            let cfg = frontier::Config::paper(SMOKE_SCALE);
            let report = frontier::run(&cfg, &RunCtx::new(cfg.scale, &NullSink));
            assert!(!report.tables.is_empty());
            report.tables.len()
        })
    });
    g.finish();
}

/// ISSUE 8 acceptance benchmark: the full frontier grid served through
/// the `mpipu-serve` service layer (request dispatch, admission, fair
/// share, streaming fold) against a warm process-wide cache — the
/// steady-state cost of answering a repeat sweep query. Held to an
/// absolute ceiling by the CI gate's `--require` bound.
fn bench_frontier_serve(c: &mut Criterion) {
    use mpipu_explore::CancelToken;
    use mpipu_serve::{presets, Limits, Request, Service};

    let service = Service::new(Limits::default());
    let req = Request::Sweep(presets::frontier_sweep(SMOKE_SCALE));
    let points = presets::frontier_sweep(SMOKE_SCALE).points();
    let cancel = CancelToken::new();
    let sink = |_: &Json| {};
    // Warm the shared backend once: the record measures the serve path,
    // not the first client's cache fill.
    assert!(service.handle(&req, &cancel, &sink), "warm-up sweep failed");
    let mut g = c.benchmark_group("frontier_serve");
    g.throughput(Throughput::Elements(points));
    g.bench_function("warm_full_grid", |b| {
        b.iter(|| service.handle(&req, &cancel, &sink))
    });
    g.finish();
}

/// ISSUE 10 acceptance benchmarks: guided search. `schedule_space_640`
/// is the headline — a 2^27-point per-layer precision-schedule space
/// (~9000 frontier grids; no sweep finishes it) searched to a stable
/// frontier on a 640-evaluation budget through the batched analytic
/// backend, fresh per iteration. The acceptance bound ("a 10⁸-point
/// space to a stable frontier in under a minute") is held by the CI
/// gate's `--require` ceiling on this record. `grid_1400` is the
/// recall workload: the guided search of the exact 14 880-point
/// frontier grid at its committed 1400-evaluation budget.
fn bench_search(c: &mut Criterion) {
    use mpipu_bench::experiments::guided;
    use mpipu_explore::{NullSweepSink, SearchConfig, SearchEngine, SweepEngine};

    let cfg = guided::Config::paper(SMOKE_SCALE);
    let mut g = c.benchmark_group("search");
    g.throughput(Throughput::Elements(cfg.sched_max_evals));
    g.bench_function("schedule_space_640", |b| {
        b.iter(|| {
            let mut search = SearchConfig::new(vec![
                mpipu_explore::objectives::FP_SLOWDOWN,
                mpipu_explore::objectives::FP_TFLOPS_PER_W,
            ]);
            search.initial = cfg.sched_initial;
            search.rungs = cfg.sched_rungs;
            search.max_evals = cfg.sched_max_evals;
            search.seed = cfg.seed;
            let out = SearchEngine::new(search)
                .engine(SweepEngine::new().backend(Backend::Analytic.instantiate()))
                .run(&guided::schedule_space(&cfg), &NullSweepSink);
            assert!(!out.frontier.is_empty());
            out.evaluated
        })
    });
    g.finish();

    let grid_points = frontier::space(&cfg.grid).len();
    let mut g = c.benchmark_group("search_grid");
    g.throughput(Throughput::Elements(grid_points));
    g.bench_function("grid_1400", |b| {
        b.iter(|| {
            let mut search = SearchConfig::new(vec![
                mpipu_explore::objectives::FP_SLOWDOWN,
                mpipu_explore::objectives::INT_TOPS_PER_MM2,
                mpipu_explore::objectives::FP_TFLOPS_PER_W,
            ]);
            search.initial = cfg.initial;
            search.rungs = cfg.rungs;
            search.max_evals = cfg.max_evals;
            search.seed = cfg.seed;
            let out = SearchEngine::new(search)
                .engine(SweepEngine::new().backend(Backend::Analytic.instantiate()))
                .run(&frontier::space(&cfg.grid), &NullSweepSink);
            assert!(!out.frontier.is_empty());
            out.evaluated
        })
    });
    g.finish();
}

/// Wall-clock of the full experiment registry at smoke scale (what CI's
/// smoke step runs), without writing result files.
fn bench_suite(c: &mut Criterion) {
    c.bench_function("suite/smoke", |b| {
        b.iter(|| {
            let registry = Registry::builtin();
            let opts = RunOptions {
                threads: 0,
                out_dir: None,
                scale: SMOKE_SCALE,
                ..RunOptions::default()
            };
            let outcomes = run_parallel(&registry.experiments(), &opts, &NullSink);
            assert!(outcomes.iter().all(|o| o.result.is_ok()));
            outcomes.len()
        })
    });
}

criterion_group!(
    benches,
    bench_ehu,
    bench_monte_carlo,
    bench_engine,
    bench_fig8_sweep,
    bench_frontier_sweep_batched,
    bench_frontier_serve,
    bench_search,
    bench_suite
);

/// Schema version of the `BENCH_*.json` trajectory document (also in the
/// file name).
const BENCH_SCHEMA_VERSION: u32 = 1;

fn main() {
    benches();
    let records = criterion::take_records();
    // In smoke (`--test`) mode nothing was timed: don't clobber the
    // trajectory file with nulls.
    if records.iter().all(|r| r.ns_per_iter.is_none()) {
        return;
    }
    let doc = Json::obj([
        ("schema_version", Json::from(BENCH_SCHEMA_VERSION)),
        ("suite", Json::str("hotpath")),
        (
            "benches",
            Json::Arr(
                records
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("name", Json::str(&r.name)),
                            (
                                "ns_per_iter",
                                r.ns_per_iter.map(Json::Num).unwrap_or(Json::Null),
                            ),
                            ("iters", Json::from(r.iters)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = std::env::var("BENCH_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../BENCH_v{BENCH_SCHEMA_VERSION}.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    std::fs::write(&path, doc.to_string_pretty())
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("[bench] wrote {path}");
}
