//! The service layer: typed requests in, wire events out.
//!
//! [`Service`] sits between the request schema and the exploration
//! engine, and owns everything that makes the daemon *multi-tenant*:
//!
//! * **One shared backend.** Every request prices points through a
//!   single process-wide [`Memoized`]-wrapped [`AnalyticBatched`]
//!   backend, so a sweep warmed by one client serves every other
//!   client's overlapping points from cache.
//! * **Admission control.** At most [`Limits::max_sweeps`] sweeps run
//!   concurrently; excess sweeps queue (politely — the wait polls the
//!   request's cancel token).
//! * **Fair-share scheduling.** Running sweeps draw chunk permits from
//!   one [`FairShare`] pool sized to the engine thread count, so a
//!   14k-point frontier sweep and a 300-point probe progress together.
//! * **Budgets and cancellation.** Per-request point budgets are checked
//!   before admission; wall-clock budgets become a deadline on the
//!   request's [`CancelToken`]; a client disconnect cancels mid-sweep
//!   via the same token. All cooperative, all chunk-grained — a sweep
//!   that completes is byte-identical to the in-process engine path.
//!
//! [`Service::handle`] is transport-free: it takes a request plus an
//! `emit` callback and never touches a socket, which is what makes the
//! end-to-end tests (and [`reference_sweep_result`], the byte-identity
//! oracle) cheap to write.

use crate::fair::FairShare;
use crate::request::{EvalReq, Request, SearchReq, SweepReq, WireError};
use crate::wire;
use mpipu_bench::json::Json;
use mpipu_bench::registry::Registry;
use mpipu_bench::sweep_wire::sweep_event_json;
use mpipu_explore::{
    CancelToken, Collect, DesignId, FnSink, Fold, FrontierPoint, NullSweepSink, ParamSpace,
    ParetoFold, PointEval, SearchConfig, SearchEngine, SweepEngine, SweepEvent, TopK,
};
use mpipu_sim::{AnalyticBatched, CacheStats, CostBackend, Memoized};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Every sweepable wire axis name, in catalog order.
pub const AXIS_NAMES: [&str; 10] = [
    "w",
    "software_precision",
    "cluster",
    "buffer_depth",
    "n_tiles",
    "tile",
    "workload",
    "pass",
    "dists",
    "schedule_mask",
];

/// Server-side resource limits (per-request budgets are min-combined
/// with the client's own).
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Engine worker threads per sweep (0 = one per CPU, resolved at
    /// [`Service::new`]).
    pub engine_threads: usize,
    /// Sweeps admitted concurrently; excess requests queue.
    pub max_sweeps: usize,
    /// Hard per-sweep point budget.
    pub max_points: u64,
    /// Hard per-sweep wall-clock budget in ms (0 = unlimited).
    pub max_ms: u64,
    /// Engine chunk size when the request does not choose one.
    pub default_chunk: usize,
    /// `pareto_update` cadence (points) when the request does not
    /// choose one.
    pub default_progress_every: u64,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            engine_threads: 0,
            max_sweeps: 8,
            max_points: 4_000_000,
            max_ms: 120_000,
            default_chunk: 1024,
            default_progress_every: 4096,
        }
    }
}

/// A snapshot of the service's lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests received (all kinds, including failed ones).
    pub requests: u64,
    /// `eval` requests served.
    pub evals: u64,
    /// `sweep` requests admitted.
    pub sweeps: u64,
    /// `search` requests admitted.
    pub searches: u64,
    /// Sweeps that stopped early (disconnect or deadline).
    pub sweeps_cancelled: u64,
    /// Points folded by completed sweeps.
    pub points_swept: u64,
    /// Points evaluated by completed searches.
    pub points_searched: u64,
    /// Requests that ended in an error event.
    pub errors: u64,
    /// Sweeps currently admitted (running or draining).
    pub active_sweeps: u64,
}

#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    evals: AtomicU64,
    sweeps: AtomicU64,
    searches: AtomicU64,
    sweeps_cancelled: AtomicU64,
    points_swept: AtomicU64,
    points_searched: AtomicU64,
    errors: AtomicU64,
}

/// Counting semaphore bounding concurrently admitted sweeps.
#[derive(Debug)]
struct Admission {
    max: usize,
    active: Mutex<usize>,
    cv: Condvar,
}

impl Admission {
    fn new(max: usize) -> Admission {
        Admission {
            max: max.max(1),
            active: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Block until admitted or `cancel` fires (checked every 25ms).
    fn acquire(&self, cancel: &CancelToken) -> Result<AdmissionPermit<'_>, WireError> {
        let mut active = self.active.lock().unwrap();
        loop {
            if cancel.is_cancelled() {
                return Err(WireError::cancelled(
                    "request cancelled while queued for admission",
                ));
            }
            if *active < self.max {
                *active += 1;
                return Ok(AdmissionPermit { admission: self });
            }
            let (guard, _) = self
                .cv
                .wait_timeout(active, Duration::from_millis(25))
                .unwrap();
            active = guard;
        }
    }

    fn active(&self) -> usize {
        *self.active.lock().unwrap()
    }
}

struct AdmissionPermit<'a> {
    admission: &'a Admission,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut active = self.admission.active.lock().unwrap();
        *active = active.saturating_sub(1);
        drop(active);
        self.admission.cv.notify_all();
    }
}

/// How a journal warm-start went: reported on every `stats` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalInfo {
    /// The journal file the cache was preloaded from.
    pub path: String,
    /// Completed units the journal held.
    pub units: usize,
    /// Memo entries actually added to the cache.
    pub entries: usize,
    /// Wall-clock load time in milliseconds.
    pub load_ms: u64,
}

/// The shared, transport-free request handler. One per daemon; every
/// connection borrows the same instance (it is `Send + Sync`).
pub struct Service {
    backend: Arc<dyn CostBackend>,
    memo: Arc<Memoized>,
    journal: Option<JournalInfo>,
    catalog: Vec<(String, String)>,
    fair: Arc<FairShare>,
    admission: Admission,
    limits: Limits,
    counters: Counters,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("backend", &self.backend.name())
            .field("limits", &self.limits)
            .finish_non_exhaustive()
    }
}

impl Default for Service {
    fn default() -> Service {
        Service::new(Limits::default())
    }
}

impl Service {
    /// A service with one fresh memoized batched-analytic backend.
    pub fn new(mut limits: Limits) -> Service {
        if limits.engine_threads == 0 {
            limits.engine_threads = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
        }
        let registry = Registry::builtin();
        let catalog = registry
            .experiments()
            .iter()
            .map(|e| (e.name().to_string(), e.title().to_string()))
            .collect();
        let memo = Arc::new(Memoized::new(Arc::new(AnalyticBatched::new())));
        Service {
            backend: memo.clone(),
            memo,
            journal: None,
            catalog,
            fair: FairShare::new(limits.engine_threads),
            admission: Admission::new(limits.max_sweeps),
            limits,
            counters: Counters::default(),
        }
    }

    /// The process-wide shared cost backend.
    pub fn backend(&self) -> &Arc<dyn CostBackend> {
        &self.backend
    }

    /// The same backend, typed — the journal warm-start / export handle.
    pub fn memo(&self) -> &Arc<Memoized> {
        &self.memo
    }

    /// Warm-start the shared cache from a sweep journal's memo entries
    /// (see [`crate::journal`]); `stats` lines report the outcome from
    /// then on. Call before sharing the service with the server.
    pub fn preload_journal(&mut self, path: &std::path::Path) -> Result<JournalInfo, String> {
        let t = Instant::now();
        let (units, entries) = crate::shard::warm_start(&self.memo, path)?;
        let info = JournalInfo {
            path: path.display().to_string(),
            units,
            entries,
            load_ms: t.elapsed().as_millis() as u64,
        };
        self.journal = Some(info.clone());
        Ok(info)
    }

    /// The active limits (threads resolved).
    pub fn limits(&self) -> Limits {
        self.limits
    }

    /// Lifetime counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: self.counters.requests.load(Ordering::Relaxed),
            evals: self.counters.evals.load(Ordering::Relaxed),
            sweeps: self.counters.sweeps.load(Ordering::Relaxed),
            searches: self.counters.searches.load(Ordering::Relaxed),
            sweeps_cancelled: self.counters.sweeps_cancelled.load(Ordering::Relaxed),
            points_swept: self.counters.points_swept.load(Ordering::Relaxed),
            points_searched: self.counters.points_searched.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            active_sweeps: self.admission.active() as u64,
        }
    }

    /// Parse and serve one request line: the full per-line server loop
    /// minus the socket. Emits the response events (ending with `done`)
    /// through `emit`; returns the `done` flag. Malformed lines and
    /// panicking handlers become structured `error` events — this method
    /// never panics and never skips the terminal `done`.
    pub fn handle_line(
        &self,
        line: &str,
        cancel: &CancelToken,
        emit: &(dyn Fn(&Json) + Sync),
    ) -> bool {
        match Request::parse(line) {
            Ok(req) => match catch_unwind(AssertUnwindSafe(|| self.handle(&req, cancel, emit))) {
                Ok(ok) => ok,
                Err(_) => {
                    self.counters.errors.fetch_add(1, Ordering::Relaxed);
                    emit(&wire::error_json(&WireError::internal(
                        "request handler panicked; see server log",
                    )));
                    emit(&wire::done_json(false));
                    false
                }
            },
            Err(err) => {
                self.counters.requests.fetch_add(1, Ordering::Relaxed);
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                emit(&wire::error_json(&err));
                emit(&wire::done_json(false));
                false
            }
        }
    }

    /// Serve one parsed request, emitting its response events (ending
    /// with `done`). Returns the `done` flag.
    pub fn handle(
        &self,
        req: &Request,
        cancel: &CancelToken,
        emit: &(dyn Fn(&Json) + Sync),
    ) -> bool {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let outcome = match req {
            Request::List => {
                let names: Vec<&str> = AXIS_NAMES.to_vec();
                emit(&wire::catalog_json(
                    &self.catalog,
                    &names,
                    self.backend.name(),
                ));
                Ok(())
            }
            Request::Stats => {
                emit(&wire::stats_json(
                    &self.metrics(),
                    self.backend.cache_stats().as_ref(),
                    self.journal.as_ref(),
                ));
                Ok(())
            }
            Request::Eval(e) => self.eval(e, emit),
            Request::Sweep(s) => self.sweep(s, cancel, emit),
            Request::Search(s) => self.search(s, cancel, emit),
        };
        match outcome {
            Ok(()) => {
                emit(&wire::done_json(true));
                true
            }
            Err(err) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                emit(&wire::error_json(&err));
                emit(&wire::done_json(false));
                false
            }
        }
    }

    fn eval(&self, req: &EvalReq, emit: &(dyn Fn(&Json) + Sync)) -> Result<(), WireError> {
        self.counters.evals.fetch_add(1, Ordering::Relaxed);
        let start = self.backend.cache_stats();
        let space = checked_space(ParamSpace::new(req.scenario.to_scenario()))?;
        let eval = SweepEngine::new()
            .backend(self.backend.clone())
            .run_ids(&space, &[DesignId(0)], Collect::new(), &NullSweepSink)
            .pop()
            .ok_or_else(|| WireError::internal("empty parameter space"))?;
        self.emit_cache_delta(start.as_ref(), emit);
        emit(&wire::eval_result_json(
            req.tag.as_deref(),
            &eval_outcome(&eval),
        ));
        Ok(())
    }

    fn sweep(
        &self,
        req: &SweepReq,
        cancel: &CancelToken,
        emit: &(dyn Fn(&Json) + Sync),
    ) -> Result<(), WireError> {
        let objectives = req.resolve_objectives()?;
        let top_k = req
            .top_k
            .as_ref()
            .map(|t| -> Result<TopK, WireError> {
                let obj = crate::request::objective_by_name(&t.objective)
                    .ok_or_else(|| WireError::bad_request("unknown top_k objective"))?;
                Ok(TopK::new(obj, t.k))
            })
            .transpose()?;
        let points = req.points();
        let budget = self
            .limits
            .max_points
            .min(req.max_points.unwrap_or(u64::MAX));
        if points > budget {
            return Err(WireError::budget(format!(
                "sweep declares {points} points, budget is {budget}"
            )));
        }
        let space = checked_space(req.to_space())?;

        // The wall-clock budget covers queueing too: derive the deadline
        // token before admission so a sweep cannot dodge its budget by
        // waiting in line.
        let token = self.deadline_token(cancel, req.max_ms);

        let _permit = self.admission.acquire(&token)?;
        self.counters.sweeps.fetch_add(1, Ordering::Relaxed);

        let ticket = self.fair.ticket(token.clone());
        let start = self.backend.cache_stats();
        let finished = AtomicBool::new(false);
        let points_done = AtomicU64::new(0);
        let sink = FnSink(|event: &SweepEvent<'_>| match event {
            // The engine reports the shared backend's *cumulative*
            // counters; on a multi-tenant backend only this request's
            // delta is meaningful, and we emit it ourselves below.
            SweepEvent::BackendStats { .. } => {}
            SweepEvent::ChunkFinished {
                points_done: done, ..
            } => {
                points_done.store(*done, Ordering::Relaxed);
                emit(&sweep_event_json(event));
            }
            SweepEvent::Finished { .. } => {
                finished.store(true, Ordering::Relaxed);
                emit(&sweep_event_json(event));
            }
            SweepEvent::Cancelled {
                points_done: done, ..
            } => {
                points_done.store(*done, Ordering::Relaxed);
                emit(&sweep_event_json(event));
            }
            _ => emit(&sweep_event_json(event)),
        });
        let engine = SweepEngine::new()
            .threads(self.limits.engine_threads)
            .chunk_size(req.chunk.unwrap_or(self.limits.default_chunk))
            .backend(self.backend.clone())
            .cancel_token(token.clone())
            .governor(ticket);
        let fold = StreamingFold {
            pareto: ParetoFold::new(objectives),
            top: top_k,
            every: req
                .progress_every
                .unwrap_or(self.limits.default_progress_every),
            emit,
        };
        let (front, top) = match &req.sample {
            Some(s) => engine.run_ids(&space, &space.sample_ids(s.count, s.seed), fold, &sink),
            None => engine.run(&space, fold, &sink),
        };
        self.emit_cache_delta(start.as_ref(), emit);

        if !finished.load(Ordering::Relaxed) {
            self.counters
                .sweeps_cancelled
                .fetch_add(1, Ordering::Relaxed);
            return Err(WireError::cancelled(format!(
                "sweep stopped after {}/{points} points",
                points_done.load(Ordering::Relaxed)
            )));
        }
        self.counters
            .points_swept
            .fetch_add(points, Ordering::Relaxed);
        emit(&wire::sweep_result_json(
            req.tag.as_deref(),
            points,
            &req.objectives,
            &front,
            top.as_deref(),
        ));
        Ok(())
    }

    fn search(
        &self,
        req: &SearchReq,
        cancel: &CancelToken,
        emit: &(dyn Fn(&Json) + Sync),
    ) -> Result<(), WireError> {
        let cfg = search_config(req)?;
        // Admission budgets the *evaluations*, not the declared space:
        // a search over a 2^27-point space is welcome as long as it only
        // prices a few thousand of them.
        let budget = self.limits.max_points;
        if cfg.max_evals > budget {
            return Err(WireError::budget(format!(
                "search budgets {} evaluations, budget is {budget}",
                cfg.max_evals
            )));
        }
        let space = checked_space(req.to_space())?;
        let token = self.deadline_token(cancel, req.max_ms);
        let _permit = self.admission.acquire(&token)?;
        self.counters.searches.fetch_add(1, Ordering::Relaxed);

        let space_points = req.space_points();
        let ticket = self.fair.ticket(token.clone());
        let start = self.backend.cache_stats();
        let engine = SweepEngine::new()
            .threads(self.limits.engine_threads)
            .chunk_size(req.chunk.unwrap_or(self.limits.default_chunk))
            .backend(self.backend.clone())
            .cancel_token(token.clone())
            .governor(ticket);
        let out = SearchEngine::new(cfg)
            .engine(engine)
            .run(&space, &NullSweepSink);
        self.emit_cache_delta(start.as_ref(), emit);

        if token.is_cancelled() {
            // A cancelled search still returns an outcome (whatever the
            // rungs had folded), but a partial frontier is not a frontier
            // — report the stop instead of a wrong answer.
            self.counters
                .sweeps_cancelled
                .fetch_add(1, Ordering::Relaxed);
            return Err(WireError::cancelled(format!(
                "search stopped after {} evaluations",
                out.evaluated
            )));
        }
        self.counters
            .points_searched
            .fetch_add(out.evaluated, Ordering::Relaxed);
        emit(&wire::search_result_json(
            req.tag.as_deref(),
            space_points,
            &req.objectives,
            &out,
        ));
        Ok(())
    }

    /// Min-combine the server's and the request's wall-clock budgets
    /// into a deadline on the request's cancel token (0 = unlimited).
    fn deadline_token(&self, cancel: &CancelToken, req_ms: Option<u64>) -> CancelToken {
        let ms = match (self.limits.max_ms, req_ms) {
            (0, None) => None,
            (0, Some(c)) => Some(c),
            (s, None) => Some(s),
            (s, Some(c)) => Some(s.min(c)),
        };
        match ms {
            Some(ms) => cancel.deadline_at(Instant::now() + Duration::from_millis(ms)),
            None => cancel.clone(),
        }
    }

    /// Emit this request's share of the shared cache's counters as a
    /// `sweep_backend_stats` line (cumulative totals are meaningless to
    /// a single tenant).
    fn emit_cache_delta(&self, start: Option<&CacheStats>, emit: &(dyn Fn(&Json) + Sync)) {
        if let (Some(start), Some(now)) = (start, self.backend.cache_stats()) {
            let d = now.delta_since(start);
            emit(&sweep_event_json(&SweepEvent::BackendStats {
                backend: self.backend.name(),
                inner: d.inner,
                hits: d.hits,
                misses: d.misses,
                entries: d.entries,
            }));
        }
    }
}

/// Refuse a space the engine would panic on — schedules that do not fit
/// its workloads, tile geometry no design can be priced at
/// ([`ParamSpace::check`]) — as a `bad_request` carrying the reason.
pub(crate) fn checked_space(space: ParamSpace) -> Result<ParamSpace, WireError> {
    space
        .check()
        .map_err(|e| WireError::bad_request(e.to_string()))?;
    Ok(space)
}

fn eval_outcome(eval: &PointEval) -> wire::EvalOutcome {
    wire::EvalOutcome {
        cycles: eval.cycles,
        baseline_cycles: eval.baseline_cycles,
        normalized: eval.normalized,
        fp_fraction: eval.fp_fraction,
        metrics: (
            eval.metrics.int_tops_per_mm2,
            eval.metrics.int_tops_per_w,
            eval.metrics.fp_tflops_per_mm2,
            eval.metrics.fp_tflops_per_w,
        ),
    }
}

/// Pareto + optional top-k fold that emits incremental `pareto_update`
/// lines every `every` accepted points (0 disables).
struct StreamingFold<'a> {
    pareto: ParetoFold,
    top: Option<TopK>,
    every: u64,
    emit: &'a (dyn Fn(&Json) + Sync),
}

impl Fold for StreamingFold<'_> {
    type Output = (Vec<FrontierPoint>, Option<Vec<FrontierPoint>>);

    fn accept(&mut self, eval: &PointEval) {
        self.pareto.accept(eval);
        if let Some(top) = &mut self.top {
            top.accept(eval);
        }
        if self.every > 0 && self.pareto.seen().is_multiple_of(self.every) {
            (self.emit)(&wire::pareto_update_json(
                self.pareto.seen(),
                self.pareto.front_len(),
            ));
        }
    }

    fn finish(self) -> Self::Output {
        (self.pareto.finish(), self.top.map(TopK::finish))
    }
}

/// The byte-identity oracle: run `req` through a fresh in-process
/// engine (its own memoized batched backend, no sharing, no governor,
/// no cancellation) at `threads` threads and return the `result` line
/// the server would emit. The e2e tests and `sweepctl verify` compare
/// this — compact-serialized — against the served line, byte for byte.
pub fn reference_sweep_result(req: &SweepReq, threads: usize) -> Result<Json, WireError> {
    let objectives = req.resolve_objectives()?;
    let top_k = req
        .top_k
        .as_ref()
        .map(|t| {
            crate::request::objective_by_name(&t.objective)
                .map(|obj| TopK::new(obj, t.k))
                .ok_or_else(|| WireError::bad_request("unknown top_k objective"))
        })
        .transpose()?;
    let space = checked_space(req.to_space())?;
    let backend: Arc<dyn CostBackend> = Arc::new(Memoized::new(Arc::new(AnalyticBatched::new())));
    let engine = SweepEngine::new()
        .threads(threads.max(1))
        .chunk_size(req.chunk.unwrap_or(Limits::default().default_chunk))
        .backend(backend);
    let noop: &(dyn Fn(&Json) + Sync) = &|_| {};
    let fold = StreamingFold {
        pareto: ParetoFold::new(objectives),
        top: top_k,
        every: 0,
        emit: noop,
    };
    let (front, top) = match &req.sample {
        Some(s) => engine.run_ids(
            &space,
            &space.sample_ids(s.count, s.seed),
            fold,
            &NullSweepSink,
        ),
        None => engine.run(&space, fold, &NullSweepSink),
    };
    Ok(wire::sweep_result_json(
        req.tag.as_deref(),
        req.points(),
        &req.objectives,
        &front,
        top.as_deref(),
    ))
}

/// Resolve a search request's knobs onto the library defaults — shared
/// by the served path and [`reference_search_result`] so the two can
/// never drift.
fn search_config(req: &SearchReq) -> Result<SearchConfig, WireError> {
    let mut cfg = SearchConfig::new(req.resolve_objectives()?);
    if let Some(v) = req.initial {
        cfg.initial = v;
    }
    if let Some(v) = req.rungs {
        cfg.rungs = v;
    }
    if let Some(v) = req.keep {
        cfg.keep_fraction = v;
    }
    if let Some(v) = req.max_evals {
        cfg.max_evals = v;
    }
    if let Some(v) = req.seed {
        cfg.seed = v;
    }
    Ok(cfg)
}

/// The search byte-identity oracle: run `req` through a fresh
/// in-process engine (own memoized batched backend, no sharing, no
/// governor, no cancellation) at `threads` threads and return the
/// `result` line the server would emit. Guided search promises the same
/// bytes at any thread count; the e2e tests hold the served line to it.
pub fn reference_search_result(req: &SearchReq, threads: usize) -> Result<Json, WireError> {
    let cfg = search_config(req)?;
    let backend: Arc<dyn CostBackend> = Arc::new(Memoized::new(Arc::new(AnalyticBatched::new())));
    let engine = SweepEngine::new()
        .threads(threads.max(1))
        .chunk_size(req.chunk.unwrap_or(Limits::default().default_chunk))
        .backend(backend);
    let out = SearchEngine::new(cfg)
        .engine(engine)
        .run(&checked_space(req.to_space())?, &NullSweepSink);
    Ok(wire::search_result_json(
        req.tag.as_deref(),
        req.space_points(),
        &req.objectives,
        &out,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{AxisSpec, ScenarioSpec};

    fn small_sweep() -> SweepReq {
        SweepReq {
            base: ScenarioSpec {
                sample_steps: Some(16),
                ..ScenarioSpec::default()
            },
            axes: vec![AxisSpec::W(vec![8, 12]), AxisSpec::Cluster(vec![1, 4])],
            chunk: Some(1),
            progress_every: Some(0),
            ..SweepReq::default()
        }
    }

    fn collect(service: &Service, req: &Request) -> (bool, Vec<Json>) {
        let events = Mutex::new(Vec::new());
        let ok = service.handle(req, &CancelToken::new(), &|j: &Json| {
            events.lock().unwrap().push(j.clone())
        });
        (ok, events.into_inner().unwrap())
    }

    fn event_name(j: &Json) -> String {
        j.get("event").and_then(Json::as_str).unwrap().to_string()
    }

    #[test]
    fn list_and_stats_respond() {
        let service = Service::new(Limits::default());
        let (ok, events) = collect(&service, &Request::List);
        assert!(ok);
        assert_eq!(event_name(&events[0]), "catalog");
        let (ok, events) = collect(&service, &Request::Stats);
        assert!(ok);
        assert_eq!(event_name(&events[0]), "stats");
        assert_eq!(service.metrics().requests, 2);
    }

    #[test]
    fn eval_emits_cache_delta_and_result() {
        let service = Service::new(Limits::default());
        let req = Request::Eval(EvalReq {
            scenario: ScenarioSpec {
                w: Some(12),
                sample_steps: Some(16),
                ..ScenarioSpec::default()
            },
            tag: Some("probe".to_string()),
        });
        let (ok, events) = collect(&service, &req);
        assert!(ok);
        let names: Vec<String> = events.iter().map(event_name).collect();
        assert_eq!(names, ["sweep_backend_stats", "result", "done"]);
        assert_eq!(events[1].get("tag").and_then(Json::as_str), Some("probe"));
        // A second identical eval is all cache hits.
        let (_, events) = collect(&service, &req);
        let delta = &events[0];
        assert_eq!(delta.get("misses").and_then(Json::as_f64), Some(0.0));
        assert!(delta.get("hits").and_then(Json::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn sweep_matches_the_reference_byte_for_byte() {
        let service = Service::new(Limits {
            engine_threads: 3,
            ..Limits::default()
        });
        let req = small_sweep();
        let (ok, events) = collect(&service, &Request::Sweep(req.clone()));
        assert!(ok, "{events:?}");
        let served = events
            .iter()
            .find(|j| event_name(j) == "result")
            .expect("result line")
            .to_string_compact();
        for threads in [1, 4] {
            let reference = reference_sweep_result(&req, threads)
                .unwrap()
                .to_string_compact();
            assert_eq!(served, reference, "threads={threads}");
        }
        assert_eq!(service.metrics().points_swept, 4);
    }

    fn small_search() -> crate::request::SearchReq {
        crate::request::SearchReq {
            base: ScenarioSpec {
                // schedule_mask assigns one precision per layer, so the
                // base workload must have exactly `layers` of them: a
                // 9-deep synthetic stack plus its classifier is 10.
                workload: Some(crate::request::WorkloadSpec::Synthetic(16, 8, 9)),
                sample_steps: Some(16),
                ..ScenarioSpec::default()
            },
            axes: vec![AxisSpec::ScheduleMask(10)],
            initial: Some(32),
            rungs: Some(3),
            max_evals: Some(128),
            seed: Some(7),
            ..crate::request::SearchReq::default()
        }
    }

    #[test]
    fn search_matches_the_reference_at_any_thread_count() {
        let service = Service::new(Limits {
            engine_threads: 3,
            ..Limits::default()
        });
        let req = small_search();
        let (ok, events) = collect(&service, &Request::Search(req.clone()));
        assert!(ok, "{events:?}");
        let served = events
            .iter()
            .find(|j| event_name(j) == "result")
            .expect("result line");
        assert_eq!(served.get("kind").and_then(Json::as_str), Some("search"));
        assert_eq!(
            served.get("space_points").and_then(Json::as_f64),
            Some(1024.0)
        );
        let evaluated = served.get("evaluated").and_then(Json::as_f64).unwrap();
        assert!(evaluated <= 128.0, "budget respected: {evaluated}");
        let served = served.to_string_compact();
        for threads in [1, 4] {
            let reference = reference_search_result(&req, threads)
                .unwrap()
                .to_string_compact();
            assert_eq!(served, reference, "threads={threads}");
        }
        let m = service.metrics();
        assert_eq!(m.searches, 1);
        assert_eq!(m.points_searched, evaluated as u64);
    }

    #[test]
    fn over_budget_searches_are_rejected_on_evals_not_space_size() {
        let service = Service::new(Limits {
            max_points: 100,
            ..Limits::default()
        });
        // A space far beyond max_points is fine as long as the
        // evaluation budget fits.
        let ok_req = crate::request::SearchReq {
            max_evals: Some(64),
            ..small_search()
        };
        let (ok, events) = collect(&service, &Request::Search(ok_req));
        assert!(ok, "{events:?}");
        // But an evaluation budget over the limit is refused up front.
        let big = crate::request::SearchReq {
            max_evals: Some(101),
            ..small_search()
        };
        let (ok, events) = collect(&service, &Request::Search(big));
        assert!(!ok);
        assert_eq!(event_name(&events[0]), "error");
        assert_eq!(events[0].get("code").and_then(Json::as_str), Some("budget"));
        assert_eq!(service.metrics().searches, 1, "second never admitted");
    }

    #[test]
    fn over_budget_sweeps_are_rejected_before_admission() {
        let service = Service::new(Limits {
            max_points: 3,
            ..Limits::default()
        });
        let (ok, events) = collect(&service, &Request::Sweep(small_sweep()));
        assert!(!ok);
        assert_eq!(event_name(&events[0]), "error");
        assert_eq!(events[0].get("code").and_then(Json::as_str), Some("budget"));
        assert_eq!(service.metrics().sweeps, 0, "never admitted");
    }

    #[test]
    fn pre_cancelled_requests_never_reach_admission() {
        let service = Service::new(Limits::default());
        let cancel = CancelToken::new();
        cancel.cancel();
        let events = Mutex::new(Vec::new());
        let ok = service.handle(&Request::Sweep(small_sweep()), &cancel, &|j: &Json| {
            events.lock().unwrap().push(j.clone())
        });
        assert!(!ok);
        let events = events.into_inner().unwrap();
        let error = events
            .iter()
            .find(|j| event_name(j) == "error")
            .expect("error line");
        assert_eq!(error.get("code").and_then(Json::as_str), Some("cancelled"));
        assert_eq!(service.metrics().sweeps, 0, "never admitted");
    }

    #[test]
    fn mid_sweep_cancellation_stops_at_the_next_chunk() {
        // One engine worker, one-point chunks: the worker checks the
        // token between chunks, so cancelling from the first chunk
        // event deterministically stops the sweep partway.
        let service = Service::new(Limits {
            engine_threads: 1,
            ..Limits::default()
        });
        let cancel = CancelToken::new();
        let events = Mutex::new(Vec::new());
        let canceller = cancel.clone();
        let ok = service.handle(&Request::Sweep(small_sweep()), &cancel, &|j: &Json| {
            if event_name(j) == "sweep_chunk" {
                canceller.cancel();
            }
            events.lock().unwrap().push(j.clone())
        });
        assert!(!ok);
        let events = events.into_inner().unwrap();
        assert!(
            events.iter().any(|j| event_name(j) == "sweep_cancelled"),
            "{events:?}"
        );
        let error = events
            .iter()
            .find(|j| event_name(j) == "error")
            .expect("error line");
        assert_eq!(error.get("code").and_then(Json::as_str), Some("cancelled"));
        assert_eq!(service.metrics().sweeps_cancelled, 1);
        assert_eq!(
            service.metrics().points_swept,
            0,
            "partial sweeps don't count"
        );
    }

    #[test]
    fn deadline_zero_budget_cancels() {
        let service = Service::new(Limits::default());
        let req = SweepReq {
            max_ms: Some(0),
            ..small_sweep()
        };
        let (ok, events) = collect(&service, &Request::Sweep(req));
        assert!(!ok);
        assert!(events.iter().any(|j| event_name(j) == "error"));
    }
}
