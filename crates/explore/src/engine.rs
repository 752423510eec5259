//! The streaming sweep engine.
//!
//! [`SweepEngine`] evaluates design points of a [`ParamSpace`] — all of
//! them ([`SweepEngine::run`]), a contiguous id range
//! ([`SweepEngine::run_range`]), or an explicit id list such as a seeded
//! sample or a search cohort ([`SweepEngine::run_ids`]) — and folds the
//! results incrementally through a [`Fold`]: the grid is never
//! materialized, so a million-point sweep costs the fold's state, not
//! the grid's.
//!
//! ## One evaluation path
//!
//! All three entry points share one chunked driver over an id source.
//! Every chunk is priced by the slab evaluator (`slab.rs`): its points'
//! cost queries are gathered into one [`CostBackend::estimate_batch`]
//! call and scattered back with the simulator's exact arithmetic, for
//! uniform-FP16 and mixed-precision (scheduled) points alike. There is
//! no per-point fallback in library code; the per-point reference lives
//! in the property tests as the oracle the slab must match bit for bit.
//!
//! ## Determinism
//!
//! Workers pull fixed-size chunks of the id source from an atomic
//! counter and evaluate them independently; finished chunks pass through
//! a reorder buffer that folds them strictly in chunk order. Every point
//! evaluation is a deterministic function of its scenario (backends are
//! deterministic in their cache key), so the fold observes an identical
//! sequence — and produces byte-identical output — no matter how many
//! threads run the sweep. A sweep that needs one worker runs on the
//! calling thread. CI diffs suite results across thread counts to hold
//! this contract.
//!
//! ## Backend sharing
//!
//! [`SweepEngine::backend`] routes every point through one shared
//! `Arc<dyn CostBackend>`. With a memoized backend this is where sweep
//! dedup happens: overlapping points (same tile/w/precision/dists — and
//! for the analytic backend, any seed) collapse into cache hits, which
//! is what makes 10⁴⁺-point explorations cheap. The engine reports the
//! final counters through [`SweepEvent::BackendStats`].

use crate::control::{CancelToken, ChunkGovernor};
use crate::events::{SweepEvent, SweepSink};
use crate::slab::SlabPlan;
use crate::space::{DesignId, LabelTable, ParamSpace};
use mpipu_hw::DesignMetrics;
use mpipu_sim::CostBackend;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One point's per-axis value indices, viewed into a slab shared by its
/// whole evaluation chunk — cloning or dropping a [`PointEval`] must not
/// touch the heap (a sweep folds millions and discards almost all).
#[derive(Debug, Clone)]
pub struct Coords {
    slab: Arc<[usize]>,
    start: usize,
    len: usize,
}

impl Coords {
    /// The coordinates as a slice, in axis declaration order.
    pub fn as_slice(&self) -> &[usize] {
        &self.slab[self.start..self.start + self.len]
    }

    /// A view of `points` consecutive coordinate rows sharing one slab
    /// (the slab evaluator's layout; `slab.len() == points * axes`).
    pub(crate) fn rows(slab: Arc<[usize]>, points: usize) -> impl Iterator<Item = Coords> {
        let axes = slab.len().checked_div(points).unwrap_or(0);
        (0..points).map(move |i| Coords {
            slab: slab.clone(),
            start: i * axes,
            len: axes,
        })
    }
}

impl From<Vec<usize>> for Coords {
    fn from(v: Vec<usize>) -> Coords {
        Coords {
            len: v.len(),
            slab: v.into(),
            start: 0,
        }
    }
}

impl std::ops::Deref for Coords {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        self.as_slice()
    }
}

impl PartialEq for Coords {
    fn eq(&self, other: &Coords) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Coords {}

/// One evaluated design point — the record folds consume. Deliberately a
/// summary (not the per-layer result): a sweep folds millions of these.
#[derive(Debug, Clone)]
pub struct PointEval {
    /// Rank in the swept space.
    pub id: DesignId,
    /// Per-axis value indices, in axis declaration order.
    pub coords: Coords,
    /// The run's shared axis-value label table (see
    /// [`ParamSpace::label_table`]); the point's own labels are
    /// `table.label(a, coords[a])` — [`PointEval::labels`] spells that
    /// out. One `Arc` clone per point instead of a materialized label
    /// vector: a sweep folds millions of these and most are discarded
    /// unread.
    pub label_table: Arc<LabelTable>,
    /// Total workload cycles.
    pub cycles: u64,
    /// Total baseline (38-bit tree) cycles.
    pub baseline_cycles: u64,
    /// `cycles / baseline_cycles` — the paper's normalized execution
    /// time (≥ 1 clamping is left to consumers).
    pub normalized: f64,
    /// FP16 share of baseline MAC work (1.0 for unscheduled scenarios).
    pub fp_fraction: f64,
    /// Area/power efficiency of the design at this slowdown.
    pub metrics: DesignMetrics,
}

impl PointEval {
    /// One axis value's label.
    pub fn label(&self, axis: usize) -> Arc<str> {
        self.label_table.label(axis, self.coords[axis])
    }

    /// The point's per-axis labels, in axis declaration order.
    pub fn labels(&self) -> impl Iterator<Item = Arc<str>> + '_ {
        self.coords
            .iter()
            .enumerate()
            .map(|(a, &c)| self.label_table.label(a, c))
    }
}

/// An incremental consumer of sweep results. The engine calls
/// [`Fold::accept`] once per point, in [`DesignId`]-sequence order, then
/// [`Fold::finish`] exactly once.
pub trait Fold {
    /// What the fold produces.
    type Output;

    /// Observe one evaluated point.
    fn accept(&mut self, eval: &PointEval);

    /// Produce the result after the last point.
    fn finish(self) -> Self::Output;
}

/// Two folds over one sweep, each observing every point (compose further
/// by nesting tuples).
impl<A: Fold, B: Fold> Fold for (A, B) {
    type Output = (A::Output, B::Output);

    fn accept(&mut self, eval: &PointEval) {
        self.0.accept(eval);
        self.1.accept(eval);
    }

    fn finish(self) -> Self::Output {
        (self.0.finish(), self.1.finish())
    }
}

/// A fold that may be absent (an optional top-k selection, say).
impl<F: Fold> Fold for Option<F> {
    type Output = Option<F::Output>;

    fn accept(&mut self, eval: &PointEval) {
        if let Some(fold) = self {
            fold.accept(eval);
        }
    }

    fn finish(self) -> Self::Output {
        self.map(F::finish)
    }
}

/// Collects every evaluation (in fold order). For small sweeps only —
/// this is exactly the grid materialization the engine otherwise avoids.
#[derive(Debug, Default)]
pub struct Collect {
    evals: Vec<PointEval>,
}

impl Collect {
    /// An empty collector.
    pub fn new() -> Collect {
        Collect::default()
    }
}

impl Fold for Collect {
    type Output = Vec<PointEval>;

    fn accept(&mut self, eval: &PointEval) {
        self.evals.push(eval.clone());
    }

    fn finish(self) -> Self::Output {
        self.evals
    }
}

/// Counts evaluated points (the cheapest possible fold).
#[derive(Debug, Default)]
pub struct Count(u64);

impl Count {
    /// A zeroed counter.
    pub fn new() -> Count {
        Count::default()
    }
}

impl Fold for Count {
    type Output = u64;

    fn accept(&mut self, _eval: &PointEval) {
        self.0 += 1;
    }

    fn finish(self) -> Self::Output {
        self.0
    }
}

/// The streaming, chunked, scoped-thread sweep runner.
#[derive(Debug, Clone)]
pub struct SweepEngine {
    threads: usize,
    chunk_size: usize,
    backend: Option<Arc<dyn CostBackend>>,
    cancel: Option<CancelToken>,
    governor: Option<Arc<dyn ChunkGovernor>>,
}

impl Default for SweepEngine {
    fn default() -> Self {
        SweepEngine::new()
    }
}

impl SweepEngine {
    /// A single-threaded engine with a 256-point chunk size and no
    /// backend override (each scenario keeps its own backend).
    pub fn new() -> SweepEngine {
        SweepEngine {
            threads: 1,
            chunk_size: 256,
            backend: None,
            cancel: None,
            governor: None,
        }
    }

    /// Set the worker-thread count (0 ⇒ one per available CPU).
    pub fn threads(mut self, n: usize) -> SweepEngine {
        self.threads = n;
        self
    }

    /// Set the chunk size (floored at 1). Chunks are the unit of work
    /// distribution *and* of progress reporting.
    pub fn chunk_size(mut self, n: usize) -> SweepEngine {
        self.chunk_size = n.max(1);
        self
    }

    /// Route every swept scenario through one shared cost backend (the
    /// sweep-dedup seam — pass a memoized backend here).
    pub fn backend(mut self, backend: Arc<dyn CostBackend>) -> SweepEngine {
        self.backend = Some(backend);
        self
    }

    /// Stop the sweep cooperatively when `token` fires (client
    /// disconnect, wall-clock budget). Workers check between chunks; a
    /// stopped sweep emits [`SweepEvent::Cancelled`] instead of
    /// [`SweepEvent::Finished`] and the fold's output covers only the
    /// contiguous prefix of chunks folded so far.
    pub fn cancel_token(mut self, token: CancelToken) -> SweepEngine {
        self.cancel = Some(token);
        self
    }

    /// Ration this sweep's chunk evaluations through a (possibly shared)
    /// governor — the fair-share seam for hosts running many sweeps on
    /// one machine. A denied permit stops the sweep like a cancellation.
    pub fn governor(mut self, governor: Arc<dyn ChunkGovernor>) -> SweepEngine {
        self.governor = Some(governor);
        self
    }

    /// Sweep the full cartesian product, folding in id order.
    ///
    /// # Panics
    /// Panics when a point of the space cannot be priced: a precision
    /// schedule that does not fit a workload, or an unsound tile
    /// geometry (see [`ParamSpace::check`]).
    pub fn run<F: Fold + Send>(
        &self,
        space: &ParamSpace,
        fold: F,
        sink: &dyn SweepSink,
    ) -> F::Output
    where
        F::Output: Send,
    {
        self.drive(space, space.len(), DesignId, fold, sink)
    }

    /// Sweep the contiguous id range `[lo, hi)`, folding in id order —
    /// the shard work-unit path, bit-identical to the corresponding
    /// stretch of a full sweep.
    ///
    /// # Panics
    /// Panics when the range is inverted or reaches past the space, or
    /// on a space that cannot be priced (as [`SweepEngine::run`]).
    pub fn run_range<F: Fold + Send>(
        &self,
        space: &ParamSpace,
        lo: u64,
        hi: u64,
        fold: F,
        sink: &dyn SweepSink,
    ) -> F::Output
    where
        F::Output: Send,
    {
        assert!(lo <= hi && hi <= space.len(), "unit range out of bounds");
        self.drive(space, hi - lo, |rank| DesignId(lo + rank), fold, sink)
    }

    /// Sweep an explicit id list — a seeded sample
    /// ([`ParamSpace::sample_ids`]), a search cohort, a single point —
    /// folding in list order. Each point evaluates exactly as it does in
    /// a full sweep.
    ///
    /// # Panics
    /// Panics when an id is out of range, or on a space that cannot be
    /// priced (as [`SweepEngine::run`]).
    pub fn run_ids<F: Fold + Send>(
        &self,
        space: &ParamSpace,
        ids: &[DesignId],
        fold: F,
        sink: &dyn SweepSink,
    ) -> F::Output
    where
        F::Output: Send,
    {
        self.drive(
            space,
            ids.len() as u64,
            |rank| ids[rank as usize],
            fold,
            sink,
        )
    }

    /// The chunked driver over the id source `id_of(0..total)`: workers
    /// pull `[lo, hi)` rank ranges from an atomic counter, price each
    /// through the slab plan, and a reorder buffer folds finished chunks
    /// strictly in chunk order — the byte-determinism contract is
    /// enforced here. A sweep that needs one worker runs it on the
    /// calling thread.
    fn drive<F: Fold + Send>(
        &self,
        space: &ParamSpace,
        total: u64,
        id_of: impl Fn(u64) -> DesignId + Sync,
        fold: F,
        sink: &dyn SweepSink,
    ) -> F::Output
    where
        F::Output: Send,
    {
        let plan = SlabPlan::new(space, self.backend.as_ref())
            .unwrap_or_else(|e| panic!("invalid scenario: {e}"));
        let threads = effective_threads(self.threads, total, self.chunk_size);
        let chunk = self.chunk_size as u64;
        let chunks = total.div_ceil(chunk) as usize;
        sink.event(&SweepEvent::Started {
            points: total,
            chunks,
            threads,
        });
        let t0 = Instant::now();

        struct Merge<F> {
            next: usize,
            pending: BTreeMap<usize, Vec<PointEval>>,
            fold: F,
            done: u64,
        }
        let merge = Mutex::new(Merge {
            next: 0,
            pending: BTreeMap::new(),
            fold,
            done: 0,
        });
        let next_chunk = AtomicUsize::new(0);
        let aborted = AtomicBool::new(false);

        let work = || loop {
            // Cancellation and fair-share permits are consulted strictly
            // *between* chunks: a sweep that runs to completion folds the
            // identical sequence with or without them.
            if self.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
                aborted.store(true, Ordering::Relaxed);
                break;
            }
            if let Some(g) = &self.governor {
                if !g.acquire() {
                    aborted.store(true, Ordering::Relaxed);
                    break;
                }
            }
            let c = next_chunk.fetch_add(1, Ordering::Relaxed);
            if c >= chunks {
                if let Some(g) = &self.governor {
                    g.release();
                }
                break;
            }
            let lo = c as u64 * chunk;
            let hi = total.min(lo + chunk);
            let evals = plan.evaluate(&(lo..hi).map(&id_of).collect::<Vec<_>>());
            if let Some(g) = &self.governor {
                // Release before merging: the permit rations the
                // evaluation work, not the (cheap) fold.
                g.release();
            }
            // Fold strictly in chunk order: park out-of-order chunks,
            // drain the contiguous prefix. The buffer holds at most
            // ~`threads` chunks.
            let mut guard = merge.lock().expect("merge state poisoned");
            let m = &mut *guard;
            m.pending.insert(c, evals);
            while let Some(ready) = m.pending.remove(&m.next) {
                for eval in &ready {
                    m.fold.accept(eval);
                }
                m.done += ready.len() as u64;
                sink.event(&SweepEvent::ChunkFinished {
                    chunk: m.next,
                    chunks,
                    points_done: m.done,
                    points: total,
                });
                m.next += 1;
            }
        };
        if threads == 1 {
            work();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(work);
                }
            });
        }

        if let Some(backend) = &self.backend {
            if let Some(stats) = backend.cache_stats() {
                sink.event(&SweepEvent::BackendStats {
                    backend: backend.name(),
                    inner: stats.inner,
                    hits: stats.hits,
                    misses: stats.misses,
                    entries: stats.entries,
                });
            }
        }
        let merge = merge.into_inner().expect("merge state poisoned");
        // A cancel that lands after the last chunk folded changed
        // nothing — the sweep is complete, report it as such.
        if aborted.into_inner() && merge.done < total {
            sink.event(&SweepEvent::Cancelled {
                points_done: merge.done,
                points: total,
                wall: t0.elapsed(),
            });
        } else {
            debug_assert_eq!(merge.done, total, "every chunk folded");
            sink.event(&SweepEvent::Finished {
                points: total,
                wall: t0.elapsed(),
            });
        }
        merge.fold.finish()
    }
}

fn effective_threads(requested: usize, total: u64, chunk_size: usize) -> usize {
    let n = match requested {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    // More threads than chunks would idle immediately.
    let chunks = total.div_ceil(chunk_size.max(1) as u64);
    n.clamp(1, chunks.clamp(1, 1024) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::Axis;
    use crate::events::{FnSink, NullSweepSink};
    use mpipu::{Backend, Scenario, Zoo};

    fn space() -> ParamSpace {
        ParamSpace::new(
            Scenario::small_tile()
                .workload(Zoo::ResNet18)
                .sample_steps(16)
                .backend(Backend::Analytic),
        )
        .axis(Axis::w(vec![12, 16, 20, 24]))
        .axis(Axis::cluster(vec![1, 4]))
    }

    fn collect(engine: &SweepEngine) -> Vec<PointEval> {
        engine.run(&space(), Collect::new(), &NullSweepSink)
    }

    #[test]
    fn collect_is_in_id_order_and_complete() {
        let evals = collect(&SweepEngine::new().chunk_size(3));
        assert_eq!(evals.len(), 8);
        let ids: Vec<u64> = evals.iter().map(|e| e.id.0).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
        assert!(evals.iter().all(|e| e.normalized >= 1.0));
    }

    #[test]
    fn run_range_matches_the_full_sweep_slice() {
        let space = space();
        let full = SweepEngine::new().run(&space, Collect::new(), &NullSweepSink);
        for (lo, hi) in [(0u64, 8u64), (0, 3), (3, 8), (5, 5), (2, 6)] {
            let range = SweepEngine::new().threads(2).chunk_size(2).run_range(
                &space,
                lo,
                hi,
                Collect::new(),
                &NullSweepSink,
            );
            assert_eq!(range.len(), (hi - lo) as usize);
            for (a, b) in range.iter().zip(&full[lo as usize..hi as usize]) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.cycles, b.cycles);
                assert_eq!(a.normalized.to_bits(), b.normalized.to_bits());
                assert_eq!(
                    a.labels().collect::<Vec<_>>(),
                    b.labels().collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "unit range out of bounds")]
    fn run_range_rejects_out_of_bounds_ranges() {
        SweepEngine::new().run_range(&space(), 4, 9, Collect::new(), &NullSweepSink);
    }

    #[test]
    fn thread_count_does_not_change_the_folded_sequence() {
        let one = collect(&SweepEngine::new().threads(1).chunk_size(2));
        let many = collect(&SweepEngine::new().threads(8).chunk_size(2));
        assert_eq!(one.len(), many.len());
        for (a, b) in one.iter().zip(&many) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.normalized.to_bits(), b.normalized.to_bits());
        }
    }

    #[test]
    fn chunk_events_fire_in_order_with_monotone_progress() {
        use std::sync::Mutex;
        let seen = Mutex::new(Vec::new());
        let sink = FnSink(|e: &SweepEvent<'_>| {
            if let SweepEvent::ChunkFinished {
                chunk, points_done, ..
            } = e
            {
                seen.lock().unwrap().push((*chunk, *points_done));
            }
        });
        SweepEngine::new()
            .threads(4)
            .chunk_size(2)
            .run(&space(), Count::new(), &sink);
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 4, "8 points / chunk 2");
        assert_eq!(
            seen,
            vec![(0, 2), (1, 4), (2, 6), (3, 8)],
            "in order, monotone"
        );
    }

    #[test]
    fn shared_memoized_backend_dedupes_and_reports_stats() {
        use std::sync::Mutex;
        let memo = Backend::MemoizedAnalytic.instantiate();
        let stats = Mutex::new(None);
        let sink = FnSink(|e: &SweepEvent<'_>| {
            if let SweepEvent::BackendStats { hits, misses, .. } = e {
                *stats.lock().unwrap() = Some((*hits, *misses));
            }
        });
        let n = SweepEngine::new()
            .backend(memo)
            .run(&space(), Count::new(), &sink);
        assert_eq!(n, 8);
        let (hits, misses) = stats.into_inner().unwrap().expect("stats event");
        // The memoized key is seed-blind, so the slab gather collapses a
        // workload's same-window layers into one query per design point
        // *before* the cache sees them: the cache records exactly one
        // miss per distinct design and no redundant layer traffic.
        assert_eq!(
            (hits, misses),
            (0, 8),
            "slab pre-dedup must leave one query per design point"
        );
    }

    #[test]
    fn sampled_sweep_is_reproducible_and_duplicate_free() {
        let engine = SweepEngine::new().threads(2).chunk_size(4);
        let sampled = |count| {
            let space = space();
            engine.run_ids(
                &space,
                &space.sample_ids(count, 9),
                Collect::new(),
                &NullSweepSink,
            )
        };
        let (a, b) = (sampled(5), sampled(5));
        assert_eq!(a.len(), 5);
        assert!(
            a.windows(2).all(|w| w[0].id < w[1].id),
            "ascending, no duplicates"
        );
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.cycles, y.cycles);
        }
        // Oversampling clamps to the whole space.
        assert_eq!(sampled(16).len(), 8);
    }

    #[test]
    fn tuple_fold_feeds_both() {
        let (n, evals) =
            SweepEngine::new().run(&space(), (Count::new(), Collect::new()), &NullSweepSink);
        assert_eq!(n, 8);
        assert_eq!(evals.len(), 8);
    }

    #[test]
    fn slab_fast_path_matches_scalar_reference_and_reports_stats() {
        use std::sync::Mutex;
        let stats = Mutex::new(None);
        let sink = FnSink(|e: &SweepEvent<'_>| {
            if let SweepEvent::BackendStats {
                backend,
                hits,
                misses,
                ..
            } = e
            {
                *stats.lock().unwrap() = Some((backend.to_string(), *hits, *misses));
            }
        });
        let backend = Backend::Analytic.instantiate();
        let space = space();
        let slab = SweepEngine::new()
            .backend(backend.clone())
            .chunk_size(3)
            .run(&space, Collect::new(), &sink);
        assert_eq!(slab.len(), 8);
        for a in &slab {
            // The reference: lower the point and run it on its own.
            let spec = space.point(a.id).unwrap();
            let scenario = spec.scenario.cost_backend(backend.clone());
            let r = scenario.run();
            assert_eq!(
                a.labels().map(|l| l.to_string()).collect::<Vec<_>>(),
                spec.labels
            );
            assert_eq!(a.cycles, r.result.total_cycles());
            assert_eq!(a.baseline_cycles, r.result.total_baseline_cycles());
            assert_eq!(a.normalized.to_bits(), r.normalized().to_bits());
            assert_eq!(
                a.metrics.fp_tflops_per_w.to_bits(),
                scenario.metrics(r.normalized()).fp_tflops_per_w.to_bits()
            );
        }
        let (backend, hits, misses) = stats.into_inner().unwrap().expect("stats event");
        assert_eq!(backend, "analytic");
        // 8 designs over 4 w values share 4 DP classes (cluster size
        // scales after the DP): every class is computed exactly once.
        assert!(
            misses < 8,
            "slab sweep must share DP classes: {hits} hits, {misses} misses"
        );
    }

    #[test]
    fn run_ids_matches_the_full_sweep_on_arbitrary_lists() {
        let space = space();
        let engine = SweepEngine::new()
            .backend(Backend::Analytic.instantiate())
            .chunk_size(3);
        let full = engine.run(&space, Collect::new(), &NullSweepSink);
        // Non-contiguous, non-monotone, repeating list: the evaluator
        // must decode each id rather than assume consecutive ranks.
        let ids: Vec<DesignId> = [6u64, 0, 3, 5, 5, 1, 2].map(DesignId).to_vec();
        let listed = engine.run_ids(&space, &ids, Collect::new(), &NullSweepSink);
        assert_eq!(listed.len(), ids.len());
        for (a, id) in listed.iter().zip(&ids) {
            let b = &full[id.0 as usize];
            assert_eq!(a.id, *id);
            assert_eq!(&a.coords, &b.coords);
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.normalized.to_bits(), b.normalized.to_bits());
            assert_eq!(
                a.metrics.fp_tflops_per_w.to_bits(),
                b.metrics.fp_tflops_per_w.to_bits()
            );
        }
    }

    #[test]
    fn one_thread_evaluates_and_folds_on_the_calling_thread() {
        use mpipu_sim::{CostQuery, Schedule};
        use std::sync::Mutex;
        use std::thread::ThreadId;

        /// Records the thread of every backend call.
        #[derive(Debug)]
        struct Spy(Arc<dyn CostBackend>, Mutex<Vec<ThreadId>>);
        impl CostBackend for Spy {
            fn name(&self) -> &'static str {
                "spy"
            }
            fn estimate_batch(&self, queries: &[CostQuery], out: &mut [f64]) {
                self.1.lock().unwrap().push(std::thread::current().id());
                self.0.estimate_batch(queries, out)
            }
        }
        /// Records the thread of every accepted point.
        struct Where(Vec<ThreadId>);
        impl Fold for Where {
            type Output = Vec<ThreadId>;
            fn accept(&mut self, _eval: &PointEval) {
                self.0.push(std::thread::current().id());
            }
            fn finish(self) -> Vec<ThreadId> {
                self.0
            }
        }

        let spy = Arc::new(Spy(Backend::Analytic.instantiate(), Mutex::new(Vec::new())));
        let space = space().axis(Axis::schedule(vec![Schedule::FirstLastFp16]));
        let folded = SweepEngine::new()
            .threads(1)
            .chunk_size(3)
            .backend(spy.clone())
            .run(&space, Where(Vec::new()), &NullSweepSink);
        let me = std::thread::current().id();
        assert_eq!(folded.len(), 8);
        assert!(folded.iter().all(|t| *t == me), "folded off-thread");
        let priced = spy.1.lock().unwrap();
        assert_eq!(priced.len(), 3, "one slab per chunk");
        assert!(priced.iter().all(|t| *t == me), "evaluated off-thread");
    }

    #[test]
    fn pre_cancelled_sweep_folds_nothing_and_reports_cancelled() {
        use crate::control::CancelToken;
        use std::sync::Mutex;
        let token = CancelToken::new();
        token.cancel();
        let outcome = Mutex::new(None);
        let sink = FnSink(|e: &SweepEvent<'_>| match e {
            SweepEvent::Cancelled {
                points_done,
                points,
                ..
            } => *outcome.lock().unwrap() = Some((*points_done, *points)),
            SweepEvent::Finished { .. } => panic!("cancelled sweep must not report Finished"),
            _ => {}
        });
        let n = SweepEngine::new()
            .threads(4)
            .chunk_size(2)
            .cancel_token(token)
            .run(&space(), Count::new(), &sink);
        assert_eq!(n, 0, "no chunk may be folded");
        assert_eq!(outcome.into_inner().unwrap(), Some((0, 8)));
    }

    #[test]
    fn governor_denial_stops_the_sweep_after_the_granted_chunks() {
        use crate::control::ChunkGovernor;
        use std::sync::Mutex;

        /// Grants a fixed number of permits, then denies forever.
        #[derive(Debug)]
        struct Ration(AtomicUsize);
        impl ChunkGovernor for Ration {
            fn acquire(&self) -> bool {
                self.0
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                        left.checked_sub(1)
                    })
                    .is_ok()
            }
            fn release(&self) {}
        }

        let outcome = Mutex::new(None);
        let sink = FnSink(|e: &SweepEvent<'_>| {
            if let SweepEvent::Cancelled {
                points_done,
                points,
                ..
            } = e
            {
                *outcome.lock().unwrap() = Some((*points_done, *points));
            }
        });
        // 8 points / chunk 2 = 4 chunks; one thread granted 2 permits
        // folds exactly chunks 0 and 1 before the denial stops it.
        let n = SweepEngine::new()
            .threads(1)
            .chunk_size(2)
            .governor(Arc::new(Ration(AtomicUsize::new(2))))
            .run(&space(), Count::new(), &sink);
        assert_eq!(n, 4);
        assert_eq!(outcome.into_inner().unwrap(), Some((4, 8)));
    }

    #[test]
    fn permissive_governor_and_live_token_change_nothing() {
        use crate::control::{CancelToken, ChunkGovernor};

        #[derive(Debug)]
        struct Unlimited;
        impl ChunkGovernor for Unlimited {
            fn acquire(&self) -> bool {
                true
            }
            fn release(&self) {}
        }

        let plain = collect(&SweepEngine::new().threads(4).chunk_size(2));
        let governed = collect(
            &SweepEngine::new()
                .threads(4)
                .chunk_size(2)
                .cancel_token(CancelToken::new())
                .governor(Arc::new(Unlimited)),
        );
        assert_eq!(plain.len(), governed.len());
        for (a, b) in plain.iter().zip(&governed) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.normalized.to_bits(), b.normalized.to_bits());
        }
    }

    #[test]
    fn evaluate_single_point_matches_sweep() {
        let engine = SweepEngine::new();
        let evals = collect(&engine);
        let solo = engine.run_ids(&space(), &[DesignId(3)], Collect::new(), &NullSweepSink);
        assert_eq!(solo.len(), 1);
        assert_eq!(solo[0].cycles, evals[3].cycles);
    }
}
