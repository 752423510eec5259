//! The open experiment abstraction and the parallel runner.
//!
//! [`Experiment`] is an object-safe trait: anything that can name itself
//! and produce a [`Report`] from a [`RunCtx`] is an experiment. The
//! builtin paper artifacts implement it in `experiments/*`; downstream
//! scenarios implement it in their own files and register through
//! [`crate::registry::Registry::register`] — no edits here or in
//! `suite.rs` required.
//!
//! [`run_parallel`] executes a set of experiments across a fixed-size
//! pool of worker threads (scoped `std::thread` — the build environment
//! has no registry access, so no `rayon`; the work shape is a handful of
//! coarse tasks, for which a work-stealing pool would be overkill anyway)
//! and streams lifecycle [`Event`]s to a [`Sink`] as they happen.
//!
//! Determinism: every builtin experiment derives its configuration (and
//! seed) from `RunCtx` the same way on every run, so results are
//! identical no matter how many threads run the suite or in which order
//! the pool picks tasks up. Worker threads never share RNG state.

use crate::events::{Event, Sink};
use crate::report::Report;
use mpipu_sim::{Backend, CostBackend};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// An experiment: a named, self-describing unit of work producing a
/// structured [`Report`]. Object-safe — the registry stores
/// `Box<dyn Experiment>`.
pub trait Experiment: Send + Sync {
    /// Registry name (`fig3`, `hybrid`, …) — also the JSON file stem.
    fn name(&self) -> &str;

    /// One-line description shown by `suite --list`.
    fn title(&self) -> &str;

    /// Execute at the context's scale/seed, streaming progress through
    /// the context's sink.
    fn run(&self, ctx: &RunCtx<'_>) -> Report;
}

/// Everything an experiment needs from its environment: sample scale,
/// optional seed override, the cost-estimation backend, and the event
/// sink.
pub struct RunCtx<'a> {
    /// Sample-count scale (1.0 = paper scale).
    pub scale: f64,
    /// Optional seed override. `None` runs each experiment's canonical
    /// (paper) seed; `Some(s)` derives a distinct per-experiment seed
    /// from `s` — see [`RunCtx::seed_for`].
    pub seed: Option<u64>,
    /// The cost-estimation backend the performance experiments route
    /// their `Scenario`s through (`.cost_backend(ctx.backend.clone())`).
    /// One instance is shared by every experiment of a run, so a
    /// memoized backend pools its cache across the whole suite.
    pub backend: Arc<dyn CostBackend>,
    /// Whether the run's backend was chosen *explicitly* (the suite's
    /// `--backend` flag) rather than defaulted. Experiments that pick
    /// their own backend for tractability (`frontier` sweeps its 10⁴⁺
    /// grid through the batched analytic backend) honor an explicit
    /// choice and ignore the default.
    pub backend_explicit: bool,
    /// Event sink for progress reporting.
    pub sink: &'a dyn Sink,
}

impl<'a> RunCtx<'a> {
    /// A context at the given scale with no seed override and the
    /// default Monte-Carlo backend.
    pub fn new(scale: f64, sink: &'a dyn Sink) -> Self {
        RunCtx {
            scale,
            seed: None,
            backend: Backend::MonteCarlo.instantiate(),
            backend_explicit: false,
            sink,
        }
    }

    /// The seed an experiment should run with: its canonical `default`
    /// when no override is set, otherwise a per-experiment stream derived
    /// by mixing the override with the experiment name (so overridden
    /// suites still give every experiment an independent seed).
    pub fn seed_for(&self, name: &str, default: u64) -> u64 {
        match self.seed {
            None => default,
            Some(s) => s ^ fnv1a(name.as_bytes()),
        }
    }

    /// Publish a progress event.
    pub fn progress(&self, name: &str, message: &str) {
        self.sink.event(&Event::Progress { name, message });
    }

    /// Publish a sweep-engine event under this experiment's name — the
    /// bridge from an experiment's internal [`mpipu_explore::SweepEngine`]
    /// run into the suite's event stream, in the shared wire form
    /// ([`crate::sweep_wire`]).
    pub fn sweep_event(&self, name: &str, event: &mpipu_explore::SweepEvent<'_>) {
        self.sink.event(&Event::Sweep { name, sweep: event });
    }
}

/// FNV-1a — a stable, dependency-free string hash for seed derivation
/// (must never change: overridden-seed results are reproducible too).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Options for [`run_parallel`].
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker threads (0 ⇒ one per available CPU, capped at the number
    /// of experiments).
    pub threads: usize,
    /// Directory for JSON results; `None` skips writing.
    pub out_dir: Option<PathBuf>,
    /// Sample-count scale handed to every experiment.
    pub scale: f64,
    /// Optional seed override handed to every experiment.
    pub seed: Option<u64>,
    /// Cost-estimation backend, instantiated once and shared by every
    /// experiment of the run.
    pub backend: Backend,
    /// Whether `backend` was chosen explicitly (CLI `--backend`) rather
    /// than defaulted — forwarded to [`RunCtx::backend_explicit`].
    pub backend_explicit: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            threads: 0,
            out_dir: Some(PathBuf::from("results")),
            scale: 1.0,
            seed: None,
            backend: Backend::MonteCarlo,
            backend_explicit: false,
        }
    }
}

/// What happened to one experiment.
#[derive(Debug)]
pub struct RunOutcome {
    /// Registry name.
    pub name: String,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// The report, or the panic message if the experiment died.
    pub result: Result<Report, String>,
    /// Where the JSON landed, when requested and successful.
    pub json_path: Option<PathBuf>,
}

/// Run `experiments` across a worker pool, streaming events to `sink`;
/// returns outcomes in input order regardless of scheduling.
pub fn run_parallel(
    experiments: &[&dyn Experiment],
    opts: &RunOptions,
    sink: &dyn Sink,
) -> Vec<RunOutcome> {
    // One backend instance for the whole run: memoized backends pool
    // their cache across experiments and worker threads.
    run_on_backend(experiments, opts, &opts.backend.instantiate(), sink)
}

/// [`run_parallel`] on a caller-instantiated backend — the form for
/// callers that want to inspect the backend afterwards (the suite binary
/// reads its [`mpipu_sim::CacheStats`] for `--text` output). Ignores
/// `opts.backend`.
pub fn run_on_backend(
    experiments: &[&dyn Experiment],
    opts: &RunOptions,
    backend: &Arc<dyn CostBackend>,
    sink: &dyn Sink,
) -> Vec<RunOutcome> {
    if let Some(dir) = &opts.out_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create results dir {}: {e}", dir.display()));
    }
    let total = experiments.len();
    let threads = effective_threads(opts.threads, total);
    let t0 = Instant::now();
    sink.event(&Event::SuiteStarted {
        total,
        threads,
        scale: opts.scale,
    });

    let next = AtomicUsize::new(0);
    let outcomes: Mutex<Vec<Option<RunOutcome>>> = Mutex::new((0..total).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(exp) = experiments.get(i).copied() else {
                    break;
                };
                let outcome = run_one(exp, i, total, opts, backend, sink);
                outcomes.lock().unwrap()[i] = Some(outcome);
            });
        }
    });

    let outcomes: Vec<RunOutcome> = outcomes
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|o| o.expect("worker pool completed every slot"))
        .collect();
    // Surface the shared backend's cache effectiveness once, after every
    // experiment has stopped querying it.
    if let Some(stats) = backend.cache_stats() {
        sink.event(&Event::BackendStats {
            backend: backend.name(),
            inner: stats.inner,
            hits: stats.hits,
            misses: stats.misses,
            entries: stats.entries,
        });
    }
    let failed = outcomes.iter().filter(|o| o.result.is_err()).count();
    sink.event(&Event::SuiteFinished {
        ok: outcomes.len() - failed,
        failed,
        wall: t0.elapsed(),
    });
    outcomes
}

fn effective_threads(requested: usize, work_items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let n = if requested == 0 { hw } else { requested };
    n.clamp(1, work_items.max(1))
}

fn run_one(
    exp: &dyn Experiment,
    index: usize,
    total: usize,
    opts: &RunOptions,
    backend: &Arc<dyn CostBackend>,
    sink: &dyn Sink,
) -> RunOutcome {
    let name = exp.name().to_string();
    sink.event(&Event::ExperimentStarted {
        name: &name,
        index,
        total,
    });
    let ctx = RunCtx {
        scale: opts.scale,
        seed: opts.seed,
        backend: backend.clone(),
        backend_explicit: opts.backend_explicit,
        sink,
    };
    let t0 = Instant::now();
    // `payload.as_ref()`, not `&payload`: a `&Box<dyn Any>` would itself
    // coerce to `&dyn Any` wrapping the box, and every downcast would
    // miss (losing the panic message).
    let result = catch_unwind(AssertUnwindSafe(|| exp.run(&ctx)))
        .map_err(|payload| panic_message(payload.as_ref()));
    let wall = t0.elapsed();
    let json_path = match (&result, opts.out_dir.as_deref()) {
        (Ok(report), Some(dir)) => {
            let path = dir.join(format!("{name}.json"));
            std::fs::write(&path, report.to_json().to_string_pretty())
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            Some(path)
        }
        _ => None,
    };
    sink.event(&Event::ExperimentFinished {
        name: &name,
        index,
        total,
        wall,
        report: result.as_ref().ok(),
        error: result.as_ref().err().map(String::as_str),
        json_path: json_path.as_deref().map(Path::new),
    });
    RunOutcome {
        name,
        wall,
        result,
        json_path,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "experiment panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{CollectSink, NullSink};

    struct Probe {
        name: &'static str,
        fail: bool,
    }

    impl Experiment for Probe {
        fn name(&self) -> &str {
            self.name
        }
        fn title(&self) -> &str {
            "probe"
        }
        fn run(&self, ctx: &RunCtx<'_>) -> Report {
            ctx.progress(self.name, "working");
            if self.fail {
                panic!("probe {} exploded", self.name);
            }
            Report::new(self.name, "probe", ctx.seed_for(self.name, 7), ctx.scale)
        }
    }

    #[test]
    fn thread_count_clamps_to_work() {
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 9), 2);
        assert!(effective_threads(0, 9) >= 1);
        assert_eq!(effective_threads(4, 0), 1);
    }

    #[test]
    fn runner_streams_events_and_orders_outcomes() {
        let a = Probe {
            name: "alpha",
            fail: false,
        };
        let b = Probe {
            name: "beta",
            fail: true,
        };
        let sink = CollectSink::new();
        let opts = RunOptions {
            threads: 2,
            out_dir: None,
            scale: 0.5,
            ..RunOptions::default()
        };
        let outcomes = run_parallel(&[&a, &b], &opts, &sink);
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].name, "alpha");
        assert!(outcomes[0].result.is_ok());
        assert_eq!(outcomes[1].name, "beta");
        let err = outcomes[1].result.as_ref().unwrap_err();
        assert!(err.contains("beta exploded"), "{err}");

        let events = sink.take();
        assert_eq!(events.first().unwrap().kind, "suite_started");
        assert_eq!(events.last().unwrap().kind, "suite_finished");
        assert_eq!(events.last().unwrap().ok, Some(false));
        let finished_ok: Vec<_> = events
            .iter()
            .filter(|e| e.kind == "experiment_finished")
            .collect();
        assert_eq!(finished_ok.len(), 2);
        assert_eq!(
            events.iter().filter(|e| e.kind == "progress").count(),
            2,
            "both probes emit progress"
        );
    }

    #[test]
    fn memoizing_runs_emit_backend_stats_before_suite_finished() {
        let probe = Probe {
            name: "delta",
            fail: false,
        };
        let sink = CollectSink::new();
        let opts = RunOptions {
            threads: 1,
            out_dir: None,
            backend: Backend::MemoizedAnalytic,
            ..RunOptions::default()
        };
        run_parallel(&[&probe], &opts, &sink);
        let events = sink.take();
        let stats_at = events
            .iter()
            .position(|e| e.kind == "backend_stats")
            .expect("memoized backend reports stats");
        assert_eq!(events[stats_at].name.as_deref(), Some("memoized"));
        assert_eq!(
            events.last().unwrap().kind,
            "suite_finished",
            "stats precede the suite summary"
        );

        // Plain backends stay silent.
        let sink = CollectSink::new();
        run_parallel(
            &[&probe],
            &RunOptions {
                threads: 1,
                out_dir: None,
                ..RunOptions::default()
            },
            &sink,
        );
        assert!(sink.take().iter().all(|e| e.kind != "backend_stats"));
    }

    #[test]
    fn seed_override_derives_distinct_per_experiment_streams() {
        let ctx = RunCtx::new(1.0, &NullSink);
        assert_eq!(ctx.seed_for("fig3", 0x5eed), 0x5eed);
        let overridden = RunCtx {
            seed: Some(99),
            ..RunCtx::new(1.0, &NullSink)
        };
        let a = overridden.seed_for("fig3", 0x5eed);
        let b = overridden.seed_for("fig9", 9);
        assert_ne!(a, 0x5eed, "override must replace the default");
        assert_ne!(a, b, "distinct experiments get distinct streams");
        // Stable derivation: same inputs, same seed, forever.
        assert_eq!(a, overridden.seed_for("fig3", 123));
    }

    #[test]
    fn run_ctx_scale_reaches_reports() {
        let probe = Probe {
            name: "gamma",
            fail: false,
        };
        let opts = RunOptions {
            threads: 1,
            out_dir: None,
            scale: 0.25,
            seed: Some(5),
            ..RunOptions::default()
        };
        let outcomes = run_parallel(&[&probe], &opts, &NullSink);
        let report = outcomes[0].result.as_ref().unwrap();
        assert_eq!(report.scale, 0.25);
        assert_ne!(report.seed, 7, "seed override must be applied");
    }
}
