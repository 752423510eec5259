//! Exact Pareto-frontier and top-k folds over sweep evaluations.
//!
//! Dominance is strict: point `a` dominates `b` when `a` is at least as
//! good on every objective and strictly better on one (objectives are
//! compared in keyed, smaller-is-better form — see
//! [`crate::Objective::keyed`]). Points with *exactly equal* objective
//! vectors collapse to the lowest [`DesignId`] among them, and top-k
//! ties rank the lower id first. Each fold holds that rule in one
//! insertion that [`Fold::accept`] and `absorb` share, so its output is
//! canonical and independent of the order points arrive in.

use crate::engine::{Fold, PointEval};
use crate::objective::Objective;
use crate::space::DesignId;

/// One design on the Pareto frontier (or in a top-k selection).
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// The design's id in the swept space.
    pub id: DesignId,
    /// The design's per-axis labels.
    pub labels: Vec<String>,
    /// Objective values in the fold's objective order, *original* sense
    /// (not keyed).
    pub values: Vec<f64>,
}

impl FrontierPoint {
    /// `eval` as a frontier point over `objectives`.
    fn of(eval: &PointEval, objectives: &[Objective]) -> FrontierPoint {
        FrontierPoint {
            id: eval.id,
            labels: eval.labels().map(|l| l.to_string()).collect(),
            values: objectives.iter().map(|o| o.value(eval)).collect(),
        }
    }
}

/// `a` strictly dominates `b` (both in keyed, minimize form).
pub(crate) fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strict = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strict = true;
        }
    }
    strict
}

/// Incremental exact Pareto-frontier fold over the given objectives.
#[derive(Debug)]
pub struct ParetoFold {
    objectives: Vec<Objective>,
    /// `(keyed values, frontier point)` for every currently
    /// non-dominated design.
    front: Vec<(Vec<f64>, FrontierPoint)>,
    /// Reused keyed-values buffer — most points are dominated and
    /// rejected, so the per-point vector never hits the heap for them.
    scratch: Vec<f64>,
    seen: u64,
}

impl ParetoFold {
    /// A fold over one or more objectives.
    ///
    /// # Panics
    /// Panics on an empty objective list.
    pub fn new(objectives: Vec<Objective>) -> ParetoFold {
        assert!(!objectives.is_empty(), "pareto fold needs objectives");
        ParetoFold {
            objectives,
            front: Vec::new(),
            scratch: Vec::new(),
            seen: 0,
        }
    }

    /// The objectives this fold ranks by, in column order.
    pub fn objectives(&self) -> &[Objective] {
        &self.objectives
    }

    /// Points folded so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Current frontier size — cheap enough to read after every accept,
    /// which is how live consumers (the serve daemon's incremental
    /// Pareto updates) report progress without cloning the frontier.
    pub fn front_len(&self) -> usize {
        self.front.len()
    }

    /// A copy of the current frontier in canonical ([`DesignId`]) order
    /// without consuming the fold — what [`Fold::finish`] would return
    /// right now. The guided search engine reads this between rungs to
    /// steer proposals while the fold keeps accumulating.
    pub fn snapshot(&self) -> Vec<FrontierPoint> {
        let mut out: Vec<FrontierPoint> = self.front.iter().map(|(_, p)| p.clone()).collect();
        out.sort_by_key(|p| p.id);
        out
    }

    /// Fold an already-selected frontier point (a shard-merge step).
    ///
    /// Keyed values are recomputed from the point's stored
    /// original-sense values ([`Objective::key_of`] — bit-exact) and go
    /// through the same insertion as [`Fold::accept`]. Absorbing every
    /// unit's finished frontier, in any unit order, therefore yields the
    /// exact single-fold frontier: a point dominated inside its unit is
    /// transitively dominated by a survivor of that unit's frontier, and
    /// an exact-duplicate class still lands on its lowest id. The
    /// shard-merge proptests hold this for every grouping and arrival
    /// order.
    ///
    /// Does not advance [`ParetoFold::seen`] — absorbed points were
    /// counted by the fold that first accepted them.
    pub fn absorb(&mut self, point: &FrontierPoint) {
        assert_eq!(
            point.values.len(),
            self.objectives.len(),
            "absorbed point has wrong objective arity"
        );
        self.scratch.clear();
        self.scratch.extend(
            self.objectives
                .iter()
                .zip(&point.values)
                .map(|(o, &v)| o.key_of(v)),
        );
        self.insert(point.id, |_| point.clone());
    }

    /// The one insertion, for design `id` with its keyed values in
    /// `scratch`: dropped when an incumbent dominates it, replacing an
    /// incumbent with the same keyed values only when `id` is lower, and
    /// otherwise joining the frontier and evicting what it dominates.
    /// `point` builds the frontier point only when it is kept.
    fn insert(&mut self, id: DesignId, point: impl FnOnce(&[Objective]) -> FrontierPoint) {
        let keyed = &self.scratch;
        // The frontier is an antichain, so an equal incumbent and a
        // dominating one never both exist: the first hit decides.
        for (k, p) in &mut self.front {
            if dominates(k, keyed) {
                return;
            }
            if k == keyed {
                if id < p.id {
                    *p = point(&self.objectives);
                }
                return;
            }
        }
        self.front.retain(|(k, _)| !dominates(keyed, k));
        self.front.push((keyed.clone(), point(&self.objectives)));
    }
}

impl Fold for ParetoFold {
    /// The frontier, sorted by [`DesignId`] (canonical order).
    type Output = Vec<FrontierPoint>;

    fn accept(&mut self, eval: &PointEval) {
        self.seen += 1;
        self.scratch.clear();
        self.scratch
            .extend(self.objectives.iter().map(|o| o.keyed(eval)));
        self.insert(eval.id, |objectives| FrontierPoint::of(eval, objectives));
    }

    fn finish(self) -> Self::Output {
        let mut out: Vec<FrontierPoint> = self.front.into_iter().map(|(_, p)| p).collect();
        out.sort_by_key(|p| p.id);
        out
    }
}

/// Keeps the `k` best points by one objective (keyed order, ties broken
/// by lowest [`DesignId`] for determinism).
#[derive(Debug)]
pub struct TopK {
    objective: Objective,
    k: usize,
    /// Sorted ascending by `(keyed value, id)`.
    best: Vec<(f64, FrontierPoint)>,
}

impl TopK {
    /// Keep the `k` best designs by `objective`.
    ///
    /// # Panics
    /// Panics when `k` is zero.
    pub fn new(objective: Objective, k: usize) -> TopK {
        assert!(k > 0, "top-k selection needs k >= 1");
        TopK {
            objective,
            k,
            best: Vec::with_capacity(k + 1),
        }
    }

    /// Fold an already-selected top-k point (a shard-merge step).
    ///
    /// The key is recomputed from the point's stored value (bit-exact —
    /// see [`Objective::key_of`]). The final selection is the k smallest
    /// `(keyed, id)` pairs of everything folded, which is
    /// insertion-order independent; the global top-k is a subset of the
    /// union of per-unit top-ks (a globally selected point is at least
    /// as good within its own unit), so absorbing each unit's finished
    /// selection reproduces the single-fold result exactly.
    pub fn absorb(&mut self, point: &FrontierPoint) {
        assert_eq!(
            point.values.len(),
            1,
            "top-k points carry exactly the ranking objective's value"
        );
        self.insert(self.objective.key_of(point.values[0]), point.id, || {
            point.clone()
        });
    }

    /// The one insertion: keeps the `k` smallest `(keyed, id)` pairs in
    /// order. `point` builds the entry only when it is kept.
    fn insert(&mut self, keyed: f64, id: DesignId, point: impl FnOnce() -> FrontierPoint) {
        if self.best.len() == self.k {
            let (worst, worst_point) = self.best.last().expect("k >= 1");
            if keyed > *worst || (keyed == *worst && id >= worst_point.id) {
                return;
            }
        }
        let at = self
            .best
            .partition_point(|(v, p)| *v < keyed || (*v == keyed && p.id < id));
        self.best.insert(at, (keyed, point()));
        self.best.truncate(self.k);
    }
}

impl Fold for TopK {
    /// Best-first (then lowest-id) selection, length ≤ k.
    type Output = Vec<FrontierPoint>;

    fn accept(&mut self, eval: &PointEval) {
        let objective = self.objective;
        self.insert(objective.keyed(eval), eval.id, || {
            FrontierPoint::of(eval, &[objective])
        });
    }

    fn finish(self) -> Self::Output {
        self.best.into_iter().map(|(_, p)| p).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{objectives, Sense};
    use mpipu_hw::DesignMetrics;

    fn eval(id: u64, normalized: f64, tops: f64) -> PointEval {
        use std::sync::Arc;
        PointEval {
            id: DesignId(id),
            coords: vec![id as usize].into(),
            label_table: Arc::new(
                vec![(0..=id)
                    .map(|i| Arc::from(format!("p{i}").as_str()))
                    .collect()]
                .into(),
            ),
            cycles: (normalized * 1000.0) as u64,
            baseline_cycles: 1000,
            normalized,
            fp_fraction: 1.0,
            metrics: DesignMetrics {
                int_tops_per_mm2: tops,
                int_tops_per_w: tops,
                fp_tflops_per_mm2: tops,
                fp_tflops_per_w: tops,
            },
        }
    }

    fn fold_all(points: &[PointEval]) -> Vec<FrontierPoint> {
        let mut fold = ParetoFold::new(vec![objectives::FP_SLOWDOWN, objectives::INT_TOPS_PER_MM2]);
        for p in points {
            fold.accept(p);
        }
        fold.finish()
    }

    #[test]
    fn dominated_points_are_dropped_and_trade_offs_kept() {
        // (slowdown min, tops max): a=(1.0, 10) b=(2.0, 20) trade off;
        // c=(2.5, 15) is dominated by b; d=(1.0, 10) duplicates a.
        let front = fold_all(&[
            eval(0, 1.0, 10.0),
            eval(1, 2.0, 20.0),
            eval(2, 2.5, 15.0),
            eval(3, 1.0, 10.0),
        ]);
        let ids: Vec<u64> = front.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(front[0].values, vec![1.0, 10.0], "original sense kept");
    }

    #[test]
    fn later_better_point_evicts_earlier_ones() {
        let front = fold_all(&[
            eval(0, 2.0, 10.0),
            eval(1, 1.5, 10.0),
            eval(2, 1.0, 10.0), // dominates both
        ]);
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].id, DesignId(2));
    }

    #[test]
    fn ties_collapse_to_the_lowest_id_in_any_order() {
        // Equal-vector twins arriving high-id first land on id 1, the
        // representative the exhaustive (ascending-id) fold keeps.
        let points = [eval(7, 1.0, 10.0), eval(1, 1.0, 10.0), eval(4, 1.0, 10.0)];
        let mut fold = ParetoFold::new(vec![objectives::FP_SLOWDOWN, objectives::INT_TOPS_PER_MM2]);
        for p in &points {
            fold.accept(p);
        }
        assert_eq!(fold.seen(), 3);
        let front = fold.finish();
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].id, DesignId(1), "lowest id wins the tie class");
        // Dominance handling is unchanged: a strictly better point still
        // evicts, a dominated one is still dropped.
        let front = fold_all(&[eval(3, 2.0, 10.0), eval(5, 1.0, 10.0), eval(6, 3.0, 5.0)]);
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].id, DesignId(5));
    }

    #[test]
    fn single_objective_frontier_is_the_min_set() {
        let mut fold = ParetoFold::new(vec![objectives::FP_SLOWDOWN]);
        for p in [eval(0, 1.5, 0.0), eval(1, 1.2, 0.0), eval(2, 1.9, 0.0)] {
            fold.accept(&p);
        }
        let front = fold.finish();
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].id, DesignId(1));
    }

    #[test]
    fn top_k_keeps_best_with_deterministic_ties() {
        let mut top = TopK::new(objectives::FP_SLOWDOWN, 2);
        for p in [
            eval(5, 1.3, 0.0),
            eval(1, 1.1, 0.0),
            eval(4, 1.1, 0.0), // ties id 1; higher id loses
            eval(2, 1.2, 0.0),
        ] {
            top.accept(&p);
        }
        let best = top.finish();
        let ids: Vec<u64> = best.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![1, 4]);
        assert_eq!(best[0].values, vec![1.1]);
    }

    #[test]
    fn top_k_maximizing_objective() {
        let mut top = TopK::new(objectives::INT_TOPS_PER_MM2, 2);
        for p in [eval(0, 1.0, 5.0), eval(1, 1.0, 9.0), eval(2, 1.0, 7.0)] {
            top.accept(&p);
        }
        let ids: Vec<u64> = top.finish().iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![1, 2], "best first");
    }

    #[test]
    fn custom_objective_senses_compose() {
        const CHEAP: crate::Objective =
            crate::Objective::new("baseline", Sense::Minimize, |e| e.baseline_cycles as f64);
        let mut fold = ParetoFold::new(vec![CHEAP]);
        fold.accept(&eval(0, 1.0, 1.0));
        assert_eq!(fold.seen(), 1);
        assert_eq!(fold.finish().len(), 1);
    }
}
