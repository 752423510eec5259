//! Sharding primitives: `DesignId`-range work units and the exact
//! shard-merge.
//!
//! A sharded sweep splits a [`crate::ParamSpace`] into contiguous
//! id-range **units** ([`partition_units`]), evaluates each unit
//! independently (any process, any order — see
//! [`crate::SweepEngine::run_range`]), and merges the per-unit
//! [`ParetoFold`]/[`TopK`] outputs back into the single-sweep result.
//! [`ShardMerge`] is that merge: it absorbs each unit result as it
//! arrives, so the merged output is byte-identical to one in-process
//! fold regardless of worker count, completion order, or which units
//! were replayed from a journal.
//!
//! Exactness rests on two properties the proptests pin down:
//!
//! * **Pareto**: dominance is transitive and exact duplicates collapse
//!   to the lowest id in any order, so a unit's *finished frontier*
//!   carries everything the global fold needs from that unit —
//!   absorbing frontiers in any order equals folding every raw point.
//! * **Top-k**: the final selection is the k smallest `(keyed, id)`
//!   pairs, and every globally selected point survives its own unit's
//!   top-k, so merging per-unit selections loses nothing.

use crate::engine::Fold;
use crate::pareto::{FrontierPoint, ParetoFold, TopK};
use std::collections::HashSet;

/// One contiguous stretch of design ids, `[lo, hi)` — the unit of work
/// distribution, journaling, and resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitRange {
    /// Rank in the canonical (ascending-id) unit order.
    pub index: usize,
    /// First design id in the unit.
    pub lo: u64,
    /// One past the last design id.
    pub hi: u64,
}

impl UnitRange {
    /// Points in the unit.
    pub fn points(&self) -> u64 {
        self.hi - self.lo
    }
}

/// Split `total` design points into units of `unit_points` ids each
/// (the last unit takes the remainder). `unit_points` is floored at 1.
pub fn partition_units(total: u64, unit_points: u64) -> Vec<UnitRange> {
    let step = unit_points.max(1);
    (0..total.div_ceil(step))
        .map(|i| UnitRange {
            index: i as usize,
            lo: i * step,
            hi: total.min((i + 1) * step),
        })
        .collect()
}

/// One unit's fold output: its finished Pareto frontier and (when the
/// sweep selects one) its finished top-k.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitFold {
    /// The unit's Pareto frontier, sorted by id (a [`ParetoFold`]
    /// `finish` output).
    pub front: Vec<FrontierPoint>,
    /// The unit's top-k selection, best first (a [`TopK`] `finish`
    /// output); `None` when the sweep has no top-k.
    pub top: Option<Vec<FrontierPoint>>,
}

/// The exact shard-merge: absorbs each [`UnitFold`] on arrival, in any
/// order — the folds' one tie rule makes the result independent of it.
#[derive(Debug)]
pub struct ShardMerge {
    pareto: ParetoFold,
    top: Option<TopK>,
    /// Indices of the units absorbed so far.
    merged: HashSet<usize>,
}

impl ShardMerge {
    /// A merge producing the same output as folding every point through
    /// `pareto` (and `top`, when given).
    pub fn new(pareto: ParetoFold, top: Option<TopK>) -> ShardMerge {
        ShardMerge {
            pareto,
            top,
            merged: HashSet::new(),
        }
    }

    /// Offer one unit's fold output, absorbed at once. Idempotent per
    /// index: a repeated offer is ignored — first completion wins.
    pub fn offer(&mut self, index: usize, fold: UnitFold) {
        if !self.merged.insert(index) {
            return;
        }
        for p in &fold.front {
            self.pareto.absorb(p);
        }
        if let (Some(top), Some(points)) = (self.top.as_mut(), &fold.top) {
            for p in points {
                top.absorb(p);
            }
        }
    }

    /// Units merged into the folds so far.
    pub fn merged(&self) -> usize {
        self.merged.len()
    }

    /// Current merged frontier size (progress reporting).
    pub fn front_len(&self) -> usize {
        self.pareto.front_len()
    }

    /// Finish the folds.
    ///
    /// # Panics
    /// Panics when the merged unit indices leave a gap — the caller
    /// failed to deliver a contiguous unit sequence.
    pub fn finish(self) -> (Vec<FrontierPoint>, Option<Vec<FrontierPoint>>) {
        // `n` distinct indices are exactly `0..n` unless one below `n`
        // is missing.
        if let Some(gap) = (0..self.merged.len()).find(|i| !self.merged.contains(i)) {
            panic!("shard merge finished without unit {gap}, below a merged unit");
        }
        (self.pareto.finish(), self.top.map(TopK::finish))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_the_space_exactly() {
        let units = partition_units(10, 4);
        assert_eq!(units.len(), 3);
        assert_eq!(
            units
                .iter()
                .map(|u| (u.index, u.lo, u.hi))
                .collect::<Vec<_>>(),
            vec![(0, 0, 4), (1, 4, 8), (2, 8, 10)]
        );
        assert_eq!(units.iter().map(UnitRange::points).sum::<u64>(), 10);
        assert_eq!(partition_units(0, 4), Vec::new());
        assert_eq!(partition_units(3, 0).len(), 3, "unit size floored at 1");
        let one = partition_units(5, 100);
        assert_eq!(one.len(), 1);
        assert_eq!((one[0].lo, one[0].hi), (0, 5));
    }

    fn unit(id: u64, slowdown: f64) -> UnitFold {
        UnitFold {
            front: vec![FrontierPoint {
                id: crate::DesignId(id),
                labels: vec![],
                values: vec![slowdown],
            }],
            top: None,
        }
    }

    fn slowdown_merge() -> ShardMerge {
        ShardMerge::new(
            ParetoFold::new(vec![crate::objective::objectives::FP_SLOWDOWN]),
            None,
        )
    }

    #[test]
    fn merge_absorbs_on_arrival_and_dedupes_offers() {
        let mut m = slowdown_merge();
        m.offer(2, unit(20, 3.0));
        assert_eq!(m.merged(), 1, "absorbed without waiting for unit 0");
        m.offer(0, unit(0, 1.0));
        assert_eq!(m.merged(), 2);
        m.offer(1, unit(10, 2.0));
        assert_eq!(m.merged(), 3);
        m.offer(1, unit(11, 0.1)); // duplicate completion: ignored
        assert_eq!(m.merged(), 3);
        let (front, top) = m.finish();
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].id, crate::DesignId(0));
        assert!(top.is_none());
    }

    #[test]
    #[should_panic(expected = "shard merge finished without unit 1")]
    fn finish_refuses_a_gap_in_the_merged_units() {
        let mut m = slowdown_merge();
        m.offer(0, unit(0, 1.0));
        m.offer(2, unit(20, 3.0));
        m.finish();
    }
}
