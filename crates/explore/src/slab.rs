//! The sweep engine's evaluator: price a chunk of design points of a
//! [`ParamSpace`] as one batched backend call.
//!
//! [`SlabPlan::new`] checks that every point of the space can be priced
//! — schedules that fit their workloads, sound tile geometry
//! ([`ParamSpace::check`]) — and hoists everything
//! rank-independent: per-axis label tables, the shared cost backend, and
//! whether that backend is seed-blind ([`CostBackend::seed_blind`]).
//!
//! [`SlabPlan::evaluate`] then walks a list of design ids — consecutive
//! ids step like a mixed-radix odometer, reapplying only the axes whose
//! coordinate changed via the same [`Axis::apply`] that
//! [`ParamSpace::point`] uses — and splits evaluation into three passes:
//!
//! 1. **Gather** — resolve each point's workload/geometry/schedule to a
//!    cached [`WorkloadPlan`], the simulator's own per-layer accounting
//!    (the one `Scenario::run` builds), and append the plan's cost
//!    queries to one slab. INT layers need no query; for seed-blind
//!    backends, a point's FP16 layers sharing a sampling window share
//!    one query.
//! 2. **Estimate** — a single [`CostBackend::estimate_batch`] call over
//!    the whole chunk's slab.
//! 3. **Scatter** — total every [`PointEval`] through
//!    [`WorkloadPlan::total`], then its metrics through the hoisted
//!    [`MetricsFactors`].
//!
//! Bit-identity with a per-point, per-layer reference loop is the
//! contract (property-tested in `tests/proptests.rs`, which checks
//! `Scenario::run` against the same loop); the slab changes how often
//! shared math runs, never the math itself.

use crate::axis::Axis;
use crate::engine::PointEval;
use crate::space::{DesignId, LabelTable, ParamSpace, SpaceError};
use mpipu::Scenario;
use mpipu_analysis::dist::Distribution;
use mpipu_dnn::zoo::Workload;
use mpipu_hw::MetricsFactors;
use mpipu_sim::cost::pass_distributions;
use mpipu_sim::{CostBackend, CostQuery, LayerPrecision, SimDesign, SimOptions, WorkloadPlan};
use std::collections::HashMap;
use std::sync::Arc;

/// One scatter-pass memo slot: `(table index, qbase cycle bits)` key
/// mapped to the `(total cycles, normalized)` it produced.
type TotalsMemoSlot = Option<(usize, u64, (u64, f64))>;

/// Everything rank-independent about one sweep.
pub(crate) struct SlabPlan<'s> {
    space: &'s ParamSpace,
    backend: Arc<dyn CostBackend>,
    /// [`CostBackend::seed_blind`], asked once per sweep.
    seed_blind: bool,
    /// The space's label table, shared into every [`PointEval`].
    labels: Arc<LabelTable>,
    /// Axes whose coordinate changes the resolved workload
    /// ([`Axis::Workload`] / [`Axis::Pass`]).
    wl_axes: Vec<usize>,
    opts: SimOptions,
}

impl<'s> SlabPlan<'s> {
    /// Plan a sweep of `space`, refusing one with a point that cannot be
    /// priced ([`ParamSpace::check`]).
    pub(crate) fn new(
        space: &'s ParamSpace,
        override_backend: Option<&Arc<dyn CostBackend>>,
    ) -> Result<SlabPlan<'s>, SpaceError> {
        space.check()?;
        let lowered = space.base().try_lower()?;
        let backend = override_backend
            .cloned()
            .unwrap_or_else(|| lowered.backend.clone());
        let labels = space.label_table();
        let wl_axes = space
            .axes()
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a, Axis::Workload(_) | Axis::Pass(_)))
            .map(|(i, _)| i)
            .collect();
        Ok(SlabPlan {
            space,
            seed_blind: backend.seed_blind(),
            backend,
            labels,
            wl_axes,
            opts: lowered.opts,
        })
    }

    /// Evaluate design ids (in list order) through the three-pass
    /// pipeline — the engine's chunk unit. Consecutive ids walk the
    /// odometer; arbitrary jumps just reapply a wider axis suffix.
    pub(crate) fn evaluate(&self, ids: &[DesignId]) -> Vec<PointEval> {
        Worker::new(self).ids(ids)
    }
}

/// `(workload, tile c/k/h/w unroll + n_tiles, schedule)` — what a
/// point's [`WorkloadPlan`] depends on.
type TableKey = (usize, [usize; 5], Option<usize>);

/// One point's fully-derived evaluation inputs — reused verbatim when a
/// step only moves an axis that cannot change them.
#[derive(Clone, Copy)]
struct Derived {
    design: SimDesign,
    table: usize,
    factors: MetricsFactors,
    dists: (Distribution, Distribution),
}

/// A gathered-but-not-yet-priced design point (its coordinates live in
/// the chunk's shared coordinate slab).
struct Pending {
    table: usize,
    factors: MetricsFactors,
    /// This point's first query in the chunk slab.
    qbase: usize,
}

/// Per-chunk evaluator: the odometer plus value caches. Fresh per chunk
/// (caches refill from a handful of axis values; the expensive math
/// lives behind the shared backend's own caches).
struct Worker<'p, 's> {
    plan: &'p SlabPlan<'s>,
    workloads: Vec<(Vec<usize>, Arc<Workload>)>,
    tables: Vec<WorkloadPlan>,
    table_ids: HashMap<TableKey, usize>,
    factors: HashMap<(u32, usize, bool), MetricsFactors>,
    /// Materialized schedules, consecutive duplicates shared.
    schedules: Vec<Vec<LayerPrecision>>,
}

impl<'p, 's> Worker<'p, 's> {
    fn new(plan: &'p SlabPlan<'s>) -> Worker<'p, 's> {
        Worker {
            plan,
            workloads: Vec::new(),
            tables: Vec::new(),
            table_ids: HashMap::new(),
            factors: HashMap::new(),
            schedules: Vec::new(),
        }
    }

    fn workload_id(&mut self, coords: &[usize], scenario: &Scenario) -> usize {
        if self.plan.wl_axes.is_empty() {
            // No workload/pass axes: every point shares one workload.
            if self.workloads.is_empty() {
                self.workloads
                    .push((Vec::new(), Arc::new(scenario.resolve_workload())));
            }
            return 0;
        }
        let key: Vec<usize> = self.plan.wl_axes.iter().map(|&i| coords[i]).collect();
        match self.workloads.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                self.workloads
                    .push((key, Arc::new(scenario.resolve_workload())));
                self.workloads.len() - 1
            }
        }
    }

    fn table_id(&mut self, key: TableKey, design: &SimDesign) -> usize {
        if let Some(&t) = self.table_ids.get(&key) {
            return t;
        }
        let (wid, _, schedule) = key;
        self.tables.push(WorkloadPlan::new(
            design,
            &self.workloads[wid].1,
            schedule.map(|s| self.schedules[s].as_slice()),
            &self.plan.opts,
            self.plan.seed_blind,
        ));
        self.table_ids.insert(key, self.tables.len() - 1);
        self.tables.len() - 1
    }

    /// Materialize the scenario's schedule against workload `wid` (the
    /// plan checked that every schedule fits).
    fn schedule_id(&mut self, wid: usize, scenario: &Scenario) -> Option<usize> {
        let schedule = scenario
            .precision_schedule()?
            .try_materialize(&self.workloads[wid].1)
            .expect("schedules checked by SlabPlan::new");
        if self.schedules.last() != Some(&schedule) {
            self.schedules.push(schedule);
        }
        Some(self.schedules.len() - 1)
    }

    fn ids(mut self, ids: &[DesignId]) -> Vec<PointEval> {
        let plan = self.plan;
        let axes = plan.space.axes();
        let n = axes.len();
        let Some(&first) = ids.first() else {
            return Vec::new();
        };
        let mut coords = plan.space.coords(first).expect("slab id in range");
        // Scratch row for the next id's decoded coordinates (diffed
        // against `coords` to find the leftmost changed axis — for
        // consecutive ids this reproduces the mixed-radix odometer's
        // carry position exactly).
        let mut next = vec![0usize; n];

        // Axes whose values touch exactly one field of the derived
        // evaluation inputs: a distribution override swaps `dists`, a
        // buffer-depth move rewrites `tile.buffer_depth` (the plan, its
        // key, the schedule, and the metrics factors are all blind to
        // both). For the contiguous *tail* of such axes, every
        // point patches the value onto `Derived` directly — writing the
        // very value `Axis::apply` would have pushed through the
        // scenario — so the odometer never has to apply or reapply a
        // fast-tail axis.
        enum FastAxis<'a> {
            Dists(&'a [(Distribution, Distribution)]),
            Buffer(&'a [usize]),
        }
        let mut fast_lo = n;
        let mut fast_tail: Vec<FastAxis<'_>> = Vec::new();
        while fast_lo > 0 {
            match &axes[fast_lo - 1] {
                Axis::Distributions(v) => fast_tail.push(FastAxis::Dists(v)),
                Axis::BufferDepth(v) => fast_tail.push(FastAxis::Buffer(v)),
                _ => break,
            }
            fast_lo -= 1;
        }
        fast_tail.reverse(); // fast_tail[i - fast_lo] pairs with axes[i]

        // states[i] = base with axes[..i] applied — the odometer only
        // rebuilds the suffix whose coordinates changed, and the fast
        // tail never enters the scenario at all.
        let mut states: Vec<Scenario> = Vec::with_capacity(fast_lo + 1);
        states.push(plan.space.base().clone());
        for i in 0..fast_lo {
            let next = axes[i].apply(coords[i], states[i].clone());
            states.push(next);
        }

        // Pass 1 — gather. No per-point `try_lower`: the plan already
        // checked every schedule, and no axis can touch the sampling
        // options, so `Scenario::design`, the distribution override, and
        // the materialized schedule are the whole lowering.
        // Seed-blind single-window points gather one query each, so the
        // chunk's point count is almost always the exact slab length.
        let mut queries: Vec<CostQuery> = Vec::with_capacity(ids.len());
        let mut pending: Vec<Pending> = Vec::with_capacity(ids.len());
        // All points' coordinates, row-major in one slab the chunk's
        // `PointEval`s share — no per-point coordinate allocation.
        let mut coord_slab: Vec<usize> = Vec::with_capacity(ids.len() * n);
        let mut derived: Option<Derived> = None;
        let mut last_table: Option<(TableKey, usize)> = None;
        let mut last_factors: Option<((u32, usize, bool), MetricsFactors)> = None;
        // First axis whose coordinate changed since the previous point
        // (everything, for the chunk's first point).
        let mut changed = 0usize;
        for k in 0..ids.len() {
            let d = match derived {
                Some(mut d) if changed >= fast_lo => {
                    for i in changed..n {
                        match fast_tail[i - fast_lo] {
                            FastAxis::Dists(v) => d.dists = v[coords[i]],
                            FastAxis::Buffer(v) => d.design.tile.buffer_depth = v[coords[i]],
                        }
                    }
                    derived = Some(d);
                    d
                }
                _ => {
                    let scenario = &states[fast_lo];
                    let design = scenario.design();
                    let wid = self.workload_id(&coords, scenario);
                    let dists: (Distribution, Distribution) = scenario
                        .distribution_override()
                        .unwrap_or_else(|| pass_distributions(self.workloads[wid].1.pass));
                    let tkey = (
                        wid,
                        [
                            design.tile.c_unroll,
                            design.tile.k_unroll,
                            design.tile.h_unroll,
                            design.tile.w_unroll,
                            design.n_tiles,
                        ],
                        self.schedule_id(wid, scenario),
                    );
                    let table = match last_table {
                        Some((k, t)) if k == tkey => t,
                        _ => {
                            let t = self.table_id(tkey, &design);
                            last_table = Some((tkey, t));
                            t
                        }
                    };
                    let dp = scenario.design_point();
                    let fkey = (dp.w, dp.cluster_size, dp.big);
                    let factors = match last_factors {
                        Some((k, f)) if k == fkey => f,
                        _ => {
                            let f = *self
                                .factors
                                .entry(fkey)
                                .or_insert_with(|| dp.metrics_factors());
                            last_factors = Some((fkey, f));
                            f
                        }
                    };
                    let mut d = Derived {
                        design,
                        table,
                        factors,
                        dists,
                    };
                    // `states` stops at `fast_lo`: stamp the fast-tail
                    // axes' current values the same way a fast step does.
                    for i in fast_lo..n {
                        match fast_tail[i - fast_lo] {
                            FastAxis::Dists(v) => d.dists = v[coords[i]],
                            FastAxis::Buffer(v) => d.design.tile.buffer_depth = v[coords[i]],
                        }
                    }
                    derived = Some(d);
                    d
                }
            };
            let qbase = queries.len();
            queries.extend(self.tables[d.table].queries(&d.design, d.dists));
            coord_slab.extend_from_slice(&coords);
            pending.push(Pending {
                table: d.table,
                factors: d.factors,
                qbase,
            });

            if k + 1 < ids.len() {
                // Step to the next id: decode it, find the leftmost
                // changed axis, and reapply only that suffix. A move
                // within the fast tail skips the reapply entirely: the
                // next point patches `Derived` instead of reading
                // `states[n]`, and any later wider step rebuilds the
                // stale suffix from the still-valid prefix. (A repeated
                // id diffs to `changed == n` and reuses `Derived`
                // untouched.)
                let mut rank = ids[k + 1].0;
                assert!(rank < plan.space.len(), "slab id in range");
                for (slot, axis) in next.iter_mut().zip(axes).rev() {
                    let radix = axis.len() as u64;
                    *slot = (rank % radix) as usize;
                    rank /= radix;
                }
                let j = coords
                    .iter()
                    .zip(&next)
                    .position(|(a, b)| a != b)
                    .unwrap_or(n);
                coords.copy_from_slice(&next);
                changed = j;
                if j < fast_lo {
                    for i in j..fast_lo {
                        states[i + 1] = axes[i].apply(coords[i], states[i].clone());
                    }
                }
            }
        }

        // Pass 2 — one batched estimate for the whole chunk (an all-INT
        // chunk has nothing to price).
        let mut cycles = vec![0.0f64; queries.len()];
        if !queries.is_empty() {
            plan.backend.estimate_batch(&queries, &mut cycles);
        }

        // Pass 3 — scatter back into PointEvals through each point's
        // plan. A point's total is a pure function of
        // (plan, per-slot cycles); buffer-depth and n-tiles moves leave
        // the cycles untouched, so the query stream revisits the same
        // few inputs back to back — a two-deep memo (the stream
        // alternates fwd/bwd distributions) skips the layer loop for
        // all but the first sighting of each single-slot value.
        let mut totals: [TotalsMemoSlot; 2] = [None, None];
        let points = pending.len();
        let coord_rows = crate::engine::Coords::rows(coord_slab.into(), points);
        pending
            .into_iter()
            .zip(coord_rows)
            .enumerate()
            .map(|(i, (p, coords))| {
                let table = &self.tables[p.table];
                // An all-INT point has no slot to key on.
                let memoable = table.slot_count() == 1;
                let key = (p.table, memoable.then(|| cycles[p.qbase].to_bits()));
                let hit = if !memoable {
                    None
                } else if matches!(totals[0], Some((t, b, _)) if (t, Some(b)) == key) {
                    totals[0].map(|(_, _, r)| r)
                } else if matches!(totals[1], Some((t, b, _)) if (t, Some(b)) == key) {
                    totals.swap(0, 1);
                    totals[0].map(|(_, _, r)| r)
                } else {
                    None
                };
                let (total, normalized) = hit.unwrap_or_else(|| {
                    let total = table.total(&cycles[p.qbase..]);
                    let normalized = total as f64 / table.total_baseline().max(1) as f64;
                    if let (t, Some(b)) = key {
                        totals.swap(0, 1);
                        totals[0] = Some((t, b, (total, normalized)));
                    }
                    (total, normalized)
                });
                PointEval {
                    id: ids[i],
                    coords,
                    label_table: plan.labels.clone(),
                    cycles: total,
                    baseline_cycles: table.total_baseline(),
                    normalized,
                    fp_fraction: table.fp_fraction(),
                    metrics: p.factors.at(normalized.max(1.0)),
                }
            })
            .collect()
    }
}
