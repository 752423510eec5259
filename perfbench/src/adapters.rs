//! Delegating adapters over the program's public traits.
//!
//! Each adapter forwards every trait method to the wrapped value and only
//! times the calls into the tracer, so a traced pass computes exactly
//! what an untraced one does; the output oracle checks that it does.

use crate::trace::Tracer;
use mpipu_explore::search::{SearchState, Survivor};
use mpipu_explore::{DesignId, Fold, ParamSpace, PointEval, Searcher, SweepEvent, SweepSink};
use mpipu_sim::{CacheKey, CacheStats, CostBackend, CostQuery};
use std::sync::Arc;

/// [`CostBackend`] adapter. Scalar queries are recorded as `sim.mc`
/// (Monte-Carlo) or `sim.scalar` (any other backend), slabs as
/// `sim.batch`.
#[derive(Debug)]
pub struct TracedBackend {
    inner: Arc<dyn CostBackend>,
    tracer: Arc<Tracer>,
    scalar: &'static str,
}

impl TracedBackend {
    pub fn wrap(inner: Arc<dyn CostBackend>, tracer: &Arc<Tracer>) -> Arc<dyn CostBackend> {
        let scalar = if inner.name() == "mc" {
            "sim.mc"
        } else {
            "sim.scalar"
        };
        Arc::new(TracedBackend {
            inner,
            tracer: Arc::clone(tracer),
            scalar,
        })
    }
}

impl CostBackend for TracedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn window_cycles(&self, q: &CostQuery) -> f64 {
        self.tracer
            .time(self.scalar, 1, || self.inner.window_cycles(q))
    }

    fn cache_key(&self, q: &CostQuery) -> CacheKey {
        self.inner.cache_key(q)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }

    fn estimate_batch(&self, queries: &[CostQuery], out: &mut [f64]) {
        let name = if self.scalar == "sim.mc" {
            "sim.mc"
        } else {
            "sim.batch"
        };
        self.tracer.time(name, queries.len() as u64, || {
            self.inner.estimate_batch(queries, out)
        })
    }
}

/// [`Searcher`] adapter: `propose` is recorded as
/// `search.propose.<name>`, `observe` as `search.observe`.
pub struct TracedSearcher {
    inner: Box<dyn Searcher>,
    tracer: Arc<Tracer>,
    propose: &'static str,
}

impl TracedSearcher {
    pub fn wrap(inner: Box<dyn Searcher>, tracer: &Arc<Tracer>) -> Box<dyn Searcher> {
        let propose = match inner.name() {
            "uniform" => "search.propose.uniform",
            "neighbor" => "search.propose.neighbor",
            "box" => "search.propose.box",
            "surrogate" => "search.propose.surrogate",
            _ => "search.propose.other",
        };
        Box::new(TracedSearcher {
            inner,
            tracer: Arc::clone(tracer),
            propose,
        })
    }
}

impl Searcher for TracedSearcher {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn propose(
        &mut self,
        space: &ParamSpace,
        state: &SearchState<'_>,
        budget: usize,
    ) -> Vec<DesignId> {
        let t = std::time::Instant::now();
        let ids = self.inner.propose(space, state, budget);
        self.tracer.add(self.propose, t.elapsed(), ids.len() as u64);
        ids
    }

    fn observe(&mut self, space: &ParamSpace, evals: &[Survivor]) {
        self.tracer.time("search.observe", evals.len() as u64, || {
            self.inner.observe(space, evals)
        })
    }

    fn weight(&self) -> usize {
        self.inner.weight()
    }
}

/// [`Fold`] adapter: `accept` and `finish` are recorded as `explore.fold`.
pub struct TracedFold<F> {
    inner: F,
    tracer: Arc<Tracer>,
}

impl<F> TracedFold<F> {
    pub fn wrap(inner: F, tracer: &Arc<Tracer>) -> TracedFold<F> {
        TracedFold {
            inner,
            tracer: Arc::clone(tracer),
        }
    }
}

impl<F: Fold> Fold for TracedFold<F> {
    type Output = F::Output;

    fn accept(&mut self, eval: &PointEval) {
        let inner = &mut self.inner;
        self.tracer.time("explore.fold", 1, || inner.accept(eval))
    }

    fn finish(self) -> F::Output {
        let inner = self.inner;
        self.tracer.time("explore.fold", 0, || inner.finish())
    }
}

/// [`SweepSink`] adapter: every event is recorded as `explore.sink`;
/// the items of a `Finished` event are the points it reports.
pub struct TracedSink<'a> {
    inner: &'a dyn SweepSink,
    tracer: Arc<Tracer>,
}

impl<'a> TracedSink<'a> {
    pub fn wrap(inner: &'a dyn SweepSink, tracer: &Arc<Tracer>) -> TracedSink<'a> {
        TracedSink {
            inner,
            tracer: Arc::clone(tracer),
        }
    }
}

impl SweepSink for TracedSink<'_> {
    fn event(&self, event: &SweepEvent<'_>) {
        let points = match event {
            SweepEvent::Finished { points, .. } => *points,
            _ => 0,
        };
        self.tracer
            .time("explore.sink", points, || self.inner.event(event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::by_name;
    use mpipu_explore::{
        objectives, NullSweepSink, ParetoFold, SearchConfig, SearchEngine, SweepEngine, TopK,
    };
    use mpipu_serve::presets;
    use mpipu_serve::wire::{search_result_json, sweep_result_json};
    use mpipu_sim::slab::AnalyticBatched;
    use mpipu_sim::Backend;

    fn small_space() -> ParamSpace {
        let mut req = presets::demo_sweep();
        req.axes.truncate(3);
        req.to_space()
    }

    fn objective_names() -> Vec<String> {
        ["fp_slowdown", "int_tops_per_mm2", "fp_tflops_per_w"]
            .map(String::from)
            .to_vec()
    }

    fn sweep(
        space: &ParamSpace,
        backend: Arc<dyn CostBackend>,
        tracer: Option<&Arc<Tracer>>,
    ) -> String {
        let objs = vec![
            objectives::FP_SLOWDOWN,
            objectives::INT_TOPS_PER_MM2,
            objectives::FP_TFLOPS_PER_W,
        ];
        let fold = (
            ParetoFold::new(objs),
            TopK::new(objectives::FP_TFLOPS_PER_W, 5),
        );
        let engine = SweepEngine::new().chunk_size(64);
        let (front, top) = match tracer {
            None => engine.backend(backend).run(space, fold, &NullSweepSink),
            Some(t) => engine.backend(TracedBackend::wrap(backend, t)).run(
                space,
                TracedFold::wrap(fold, t),
                &TracedSink::wrap(&NullSweepSink, t),
            ),
        };
        sweep_result_json(None, space.len(), &objective_names(), &front, Some(&top))
            .to_string_compact()
    }

    #[test]
    fn traced_sweep_is_byte_identical_on_every_backend_path() {
        let space = small_space();
        let tracer = Arc::new(Tracer::new());
        for backend in [
            Backend::AnalyticBatched,
            Backend::Analytic,
            Backend::MonteCarlo,
        ] {
            let plain = sweep(&space, backend.instantiate(), None);
            let traced = sweep(&space, backend.instantiate(), Some(&tracer));
            assert_eq!(plain, traced, "{backend:?}");
        }
        let names = by_name(&tracer.spans());
        assert!(names["sim.batch"].3 > 0, "slab queries were recorded");
        assert!(names["sim.mc"].2 > 0, "Monte-Carlo queries were recorded");
        assert_eq!(names["explore.fold"].3, 3 * space.len());
        assert!(names["explore.sink"].2 > 0);
    }

    #[test]
    fn traced_search_is_byte_identical_including_schedules() {
        for space in [small_space(), presets::schedule_search(10).to_space()] {
            let run = |tracer: Option<&Arc<Tracer>>| {
                let mut cfg =
                    SearchConfig::new(vec![objectives::FP_SLOWDOWN, objectives::FP_TFLOPS_PER_W]);
                cfg.initial = 32;
                cfg.max_evals = 96;
                let backend: Arc<dyn CostBackend> = Arc::new(AnalyticBatched::new());
                let mut engine = SearchEngine::new(cfg);
                let out = match tracer {
                    None => engine
                        .engine(SweepEngine::new().backend(backend))
                        .run(&space, &NullSweepSink),
                    Some(t) => {
                        engine = engine.searchers(
                            crate::explore::default_searchers(0xC0FFEE)
                                .into_iter()
                                .map(|s| TracedSearcher::wrap(s, t))
                                .collect(),
                        );
                        engine
                            .engine(SweepEngine::new().backend(TracedBackend::wrap(backend, t)))
                            .run(&space, &TracedSink::wrap(&NullSweepSink, t))
                    }
                };
                let names = ["fp_slowdown", "fp_tflops_per_w"].map(String::from);
                search_result_json(None, space.len(), &names, &out).to_string_compact()
            };
            let tracer = Arc::new(Tracer::new());
            assert_eq!(run(None), run(Some(&tracer)));
            let names = by_name(&tracer.spans());
            assert!(names.keys().any(|k| k.starts_with("search.propose.")));
        }
    }
}
