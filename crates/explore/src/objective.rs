//! Objective extraction: named, directed quantities read off a
//! [`PointEval`] — the values Pareto folds and top-k selections rank by.

use crate::engine::PointEval;

/// Whether smaller or larger values of an objective are better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Smaller is better (cycles, slowdown).
    Minimize,
    /// Larger is better (throughput, efficiency).
    Maximize,
}

/// A named, directed objective over sweep evaluations.
///
/// The extractor is a plain `fn` so objectives are `Copy` constants (see
/// [`objectives`]); custom objectives compose the same way:
///
/// ```
/// use mpipu_explore::{Objective, Sense};
///
/// const FP_SHARE: Objective =
///     Objective::new("fp_fraction", Sense::Minimize, |e| e.fp_fraction);
/// assert_eq!(FP_SHARE.name, "fp_fraction");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Objective {
    /// Stable name (report column header).
    pub name: &'static str,
    /// Optimization direction.
    pub sense: Sense,
    extract: fn(&PointEval) -> f64,
}

impl Objective {
    /// Define an objective.
    pub const fn new(name: &'static str, sense: Sense, extract: fn(&PointEval) -> f64) -> Self {
        Objective {
            name,
            sense,
            extract,
        }
    }

    /// The objective's raw value for one evaluation.
    pub fn value(&self, eval: &PointEval) -> f64 {
        (self.extract)(eval)
    }

    /// The value mapped so that *smaller is always better* — the form
    /// dominance checks and rankings compare.
    pub fn keyed(&self, eval: &PointEval) -> f64 {
        match self.sense {
            Sense::Minimize => self.value(eval),
            Sense::Maximize => -self.value(eval),
        }
    }

    /// Map an already-extracted original-sense value to keyed form —
    /// exactly [`Objective::keyed`] for `value == self.value(eval)`.
    /// Negation is a sign-bit flip, so re-keying a stored value (e.g. a
    /// [`crate::FrontierPoint`] crossing a shard boundary) is bit-exact.
    pub fn key_of(&self, value: f64) -> f64 {
        match self.sense {
            Sense::Minimize => value,
            Sense::Maximize => -value,
        }
    }
}

/// The builtin objective catalog over [`PointEval`] fields.
pub mod objectives {
    use super::{Objective, Sense};

    /// Total workload cycles (smaller is better).
    pub const CYCLES: Objective = Objective::new("cycles", Sense::Minimize, |e| e.cycles as f64);

    /// Execution time normalized to the 38-bit-tree baseline — the
    /// paper's FP-slowdown quantity (smaller is better).
    pub const FP_SLOWDOWN: Objective =
        Objective::new("fp_slowdown", Sense::Minimize, |e| e.normalized);

    /// FP16 share of baseline MAC work (smaller means more quantized).
    pub const FP_FRACTION: Objective =
        Objective::new("fp_fraction", Sense::Minimize, |e| e.fp_fraction);

    /// Peak INT4 throughput density, TOPS/mm² (larger is better).
    pub const INT_TOPS_PER_MM2: Objective =
        Objective::new("int_tops_per_mm2", Sense::Maximize, |e| {
            e.metrics.int_tops_per_mm2
        });

    /// Peak INT4 power efficiency, TOPS/W (larger is better).
    pub const INT_TOPS_PER_W: Objective = Objective::new("int_tops_per_w", Sense::Maximize, |e| {
        e.metrics.int_tops_per_w
    });

    /// Effective FP16 throughput density, TFLOPS/mm² (larger is better).
    pub const FP_TFLOPS_PER_MM2: Objective =
        Objective::new("fp_tflops_per_mm2", Sense::Maximize, |e| {
            e.metrics.fp_tflops_per_mm2
        });

    /// Effective FP16 power efficiency, TFLOPS/W (larger is better).
    pub const FP_TFLOPS_PER_W: Objective =
        Objective::new("fp_tflops_per_w", Sense::Maximize, |e| {
            e.metrics.fp_tflops_per_w
        });

    /// The whole catalog, in catalog order (the daemon's `list` order).
    pub const ALL: [Objective; 7] = [
        CYCLES,
        FP_SLOWDOWN,
        FP_FRACTION,
        INT_TOPS_PER_MM2,
        INT_TOPS_PER_W,
        FP_TFLOPS_PER_MM2,
        FP_TFLOPS_PER_W,
    ];

    /// The catalog objective with this [`Objective::name`].
    pub fn by_name(name: &str) -> Option<Objective> {
        ALL.into_iter().find(|o| o.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::DesignId;
    use mpipu_hw::DesignMetrics;

    fn eval(normalized: f64, tops: f64) -> PointEval {
        PointEval {
            id: DesignId(0),
            coords: Vec::new().into(),
            label_table: std::sync::Arc::new(vec![].into()),
            cycles: 100,
            baseline_cycles: 80,
            normalized,
            fp_fraction: 1.0,
            metrics: DesignMetrics {
                int_tops_per_mm2: tops,
                int_tops_per_w: 1.0,
                fp_tflops_per_mm2: 2.0,
                fp_tflops_per_w: 3.0,
            },
        }
    }

    #[test]
    fn keyed_flips_maximize_only() {
        let e = eval(1.5, 30.0);
        assert_eq!(objectives::FP_SLOWDOWN.value(&e), 1.5);
        assert_eq!(objectives::FP_SLOWDOWN.keyed(&e), 1.5);
        assert_eq!(objectives::INT_TOPS_PER_MM2.value(&e), 30.0);
        assert_eq!(objectives::INT_TOPS_PER_MM2.keyed(&e), -30.0);
        assert_eq!(objectives::CYCLES.value(&e), 100.0);
    }

    #[test]
    fn every_catalog_name_resolves_to_itself() {
        for o in objectives::ALL {
            assert_eq!(objectives::by_name(o.name).map(|b| b.name), Some(o.name));
        }
        assert!(objectives::by_name("speed").is_none());
    }
}
