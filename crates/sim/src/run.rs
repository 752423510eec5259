//! Top-level workload simulation: layers → estimated step costs → timing.
//!
//! [`WorkloadPlan`] is the one per-layer accounting of a workload on a
//! design: each layer's broadcast steps, estimation window and seed,
//! what an INT layer costs, and how an FP16 layer's window estimate
//! scales to its true step count. [`Lowered::execute`] (and so
//! `mpipu::Scenario::run` and [`run_workload`]) prices one workload as a
//! single [`CostBackend::estimate_batch`] over the plan's query slots;
//! the sweep engine (`mpipu-explore`) builds the same plan per point and
//! prices a whole chunk of points in one slab. [`Lowered`] is the
//! fully-resolved form the `mpipu::Scenario` builder produces: design
//! point + estimation options + cost backend + optional distribution
//! override + optional schedule.

use crate::backend::{CostBackend, CostQuery, MonteCarlo};
use crate::cost::{pass_distributions, BASELINE_CYCLES_PER_STEP};
use crate::mixed::{LayerPrecision, MixedResult, Schedule};
use crate::result::{LayerResult, WorkloadResult};
use crate::tile::TileConfig;
use mpipu_analysis::dist::Distribution;
use mpipu_dnn::zoo::Workload;
use std::sync::Arc;

/// A complete accelerator design point for the performance experiments.
#[derive(Debug, Clone, Copy)]
pub struct SimDesign {
    /// Tile geometry and clustering.
    pub tile: TileConfig,
    /// MC-IPU adder-tree precision `w`.
    pub w: u32,
    /// Software precision (16 = FP16 accumulation, 28 = FP32).
    pub software_precision: u32,
    /// Number of tiles sharing the K dimension (the paper uses 4).
    pub n_tiles: usize,
}

impl SimDesign {
    /// The paper's Baseline1: four small tiles with 38-bit adder trees.
    pub fn baseline1() -> Self {
        SimDesign {
            tile: TileConfig::small(),
            w: 38,
            software_precision: 28,
            n_tiles: 4,
        }
    }

    /// The paper's Baseline2: four big tiles with 38-bit adder trees.
    pub fn baseline2() -> Self {
        SimDesign {
            tile: TileConfig::big(),
            w: 38,
            software_precision: 28,
            n_tiles: 4,
        }
    }
}

/// Monte-Carlo options.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Steps sampled per layer (results scale to the true step count).
    pub sample_steps: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            sample_steps: 512,
            seed: 0xC0FFEE,
        }
    }
}

/// Broadcast steps one layer takes on the design's tile geometry.
fn layer_steps(design: &SimDesign, shape: &mpipu_dnn::shape::ConvShape) -> u64 {
    shape.tile_steps(
        design.tile.c_unroll,
        design.tile.k_unroll * design.n_tiles,
        design.tile.h_unroll,
        design.tile.w_unroll,
    )
}

/// One layer of a [`WorkloadPlan`].
#[derive(Debug, Clone, Copy)]
struct PlanLayer {
    /// The query slot pricing an FP16 layer; `None` for an INT layer.
    slot: Option<usize>,
    /// Broadcast steps per instance.
    steps: u64,
    /// Baseline cycles per instance — also an INT layer's cycles, since
    /// INT layers never stall.
    baseline: u64,
    /// The estimation window, as the divisor of the scaling.
    window_f: f64,
    /// Layer multiplicity, pre-widened for the u64 totals.
    weight: u64,
}

impl PlanLayer {
    /// Cycles per instance, given every slot's window cycles.
    fn cycles(&self, window_cycles: &[f64]) -> u64 {
        match self.slot {
            // Scale the estimation window to the layer's true step count.
            Some(slot) => (window_cycles[slot] * self.steps as f64 / self.window_f).round() as u64,
            None => self.baseline,
        }
    }
}

/// The per-layer accounting of one workload on one design: everything a
/// run needs except the window cycles its FP16 layers' queries return,
/// so it does not depend on `w`, the software precision, clustering,
/// buffering or the operand distributions.
///
/// An INT layer costs `steps · ka · kb` cycles and is its own baseline
/// (§3.2). An FP16 layer is priced on a window of `min(steps,
/// sample_steps)` steps with a seed that mixes the layer index into
/// [`SimOptions::seed`]; its window cycles scale by `steps / window` and
/// round, against a baseline of 9 cycles per step. Each FP16 layer gets
/// its own query slot, except that a seed-blind backend
/// ([`CostBackend::seed_blind`]) answers every layer sharing a window
/// from one slot.
#[derive(Debug, Clone)]
pub struct WorkloadPlan {
    layers: Vec<PlanLayer>,
    /// Distinct query slots as `(window, seed)`.
    slots: Vec<(usize, u64)>,
    total_baseline: u64,
    fp_fraction: f64,
}

impl WorkloadPlan {
    /// Plan `workload` on `design`, with one precision per layer from
    /// `schedule` (`None`: every layer FP16, reported as an FP16 share of
    /// exactly 1).
    ///
    /// # Panics
    /// Panics if `schedule` does not assign one precision per layer.
    pub fn new(
        design: &SimDesign,
        workload: &Workload,
        schedule: Option<&[LayerPrecision]>,
        opts: &SimOptions,
        seed_blind: bool,
    ) -> WorkloadPlan {
        let layer_count = workload.layers.len();
        assert!(
            schedule.is_none_or(|s| s.len() == layer_count),
            "one precision per layer required"
        );
        let mut layers = Vec::with_capacity(layer_count);
        let mut slots: Vec<(usize, u64)> = Vec::new();
        let (mut total_baseline, mut fp_baseline) = (0u64, 0u64);
        for (li, &(shape, multiplicity)) in workload.layers.iter().enumerate() {
            let steps = layer_steps(design, &shape);
            let window = (steps as usize).min(opts.sample_steps).max(1);
            let weight = multiplicity as u64;
            let (slot, baseline) = match schedule.map_or(LayerPrecision::Fp16, |s| s[li]) {
                LayerPrecision::Int { ka, kb } => (None, steps * u64::from(ka * kb)),
                LayerPrecision::Fp16 => {
                    let seed = opts.seed ^ (li as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    let slot = match slots.iter().position(|&(w, _)| w == window) {
                        Some(s) if seed_blind => s,
                        _ => {
                            slots.push((window, seed));
                            slots.len() - 1
                        }
                    };
                    let baseline = steps * u64::from(BASELINE_CYCLES_PER_STEP);
                    fp_baseline += baseline * weight;
                    (Some(slot), baseline)
                }
            };
            total_baseline += baseline * weight;
            layers.push(PlanLayer {
                slot,
                steps,
                baseline,
                window_f: window as f64,
                weight,
            });
        }
        let fp_fraction = match schedule {
            None => 1.0,
            Some(_) => fp_baseline as f64 / total_baseline.max(1) as f64,
        };
        WorkloadPlan {
            layers,
            slots,
            total_baseline,
            fp_fraction,
        }
    }

    /// The query of every slot, in slot order, at a design point and its
    /// `(activation, weight)` distributions.
    pub fn queries(
        &self,
        design: &SimDesign,
        dists: (Distribution, Distribution),
    ) -> impl Iterator<Item = CostQuery> + '_ {
        let design = *design;
        self.slots.iter().map(move |&(window, seed)| CostQuery {
            tile: design.tile,
            w: design.w,
            software_precision: design.software_precision,
            dists,
            window,
            seed,
        })
    }

    /// Number of query slots (0 for an all-INT workload).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Total cycles, `window_cycles[i]` answering slot `i`: every layer's
    /// cycles times its multiplicity, summed in layer order.
    pub fn total(&self, window_cycles: &[f64]) -> u64 {
        self.layers
            .iter()
            .map(|l| l.cycles(window_cycles) * l.weight)
            .sum()
    }

    /// Total baseline cycles (× multiplicity).
    pub fn total_baseline(&self) -> u64 {
        self.total_baseline
    }

    /// The FP16 share of baseline work (1 for an unscheduled plan).
    pub fn fp_fraction(&self) -> f64 {
        self.fp_fraction
    }
}

/// Simulate a workload on a design; returns per-layer and aggregate
/// normalized execution times (the Fig 8 quantities). Uses the default
/// Monte-Carlo backend; route a [`Lowered`] through
/// [`Lowered::execute`] to select another.
pub fn run_workload(design: &SimDesign, workload: &Workload, opts: &SimOptions) -> WorkloadResult {
    Lowered {
        design: *design,
        opts: *opts,
        dists: None,
        schedule: None,
        backend: Arc::new(MonteCarlo),
    }
    .execute(workload)
    .result
}

/// A fully-lowered scenario: everything the simulator needs to execute a
/// workload, produced by the `mpipu::Scenario` builder's `lower()` and
/// consumable directly for custom sweeps.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// The accelerator design point.
    pub design: SimDesign,
    /// Estimation options (window size, seed).
    pub opts: SimOptions,
    /// Optional `(activation, weight)` distribution override; `None`
    /// samples the workload pass's default family.
    pub dists: Option<(Distribution, Distribution)>,
    /// Optional per-layer precision schedule; `None` runs uniform FP16.
    pub schedule: Option<Schedule>,
    /// The cost-estimation backend FP16 layers flow through. Cloning a
    /// `Lowered` shares the backend (and so a memoized backend's cache).
    pub backend: Arc<dyn CostBackend>,
}

impl Lowered {
    /// Execute the lowered scenario on a workload: plan it, price every
    /// query slot in one [`CostBackend::estimate_batch`], and total.
    ///
    /// Uniform-FP16 scenarios report `fp_fraction = 1.0`; scheduled
    /// scenarios report the FP16 share of baseline MAC work.
    ///
    /// # Panics
    /// Panics if a [`Schedule::Custom`] does not assign one precision per
    /// layer.
    pub fn execute(&self, workload: &Workload) -> MixedResult {
        let schedule = self.schedule.as_ref().map(|s| s.materialize(workload));
        let plan = WorkloadPlan::new(
            &self.design,
            workload,
            schedule.as_deref(),
            &self.opts,
            self.backend.seed_blind(),
        );
        let dists = self
            .dists
            .unwrap_or_else(|| pass_distributions(workload.pass));
        let queries: Vec<CostQuery> = plan.queries(&self.design, dists).collect();
        let mut window_cycles = vec![0.0f64; queries.len()];
        self.backend.estimate_batch(&queries, &mut window_cycles);
        let label = match schedule {
            None => workload.label(),
            Some(_) => format!("{}-mixed", workload.label()),
        };
        let layers = workload
            .layers
            .iter()
            .zip(&plan.layers)
            .map(|(&(shape, multiplicity), l)| LayerResult {
                shape,
                multiplicity,
                steps: l.steps,
                cycles: l.cycles(&window_cycles),
                baseline_cycles: l.baseline,
            })
            .collect();
        MixedResult {
            result: WorkloadResult { label, layers },
            fp_fraction: plan.fp_fraction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpipu_dnn::zoo::{resnet18, Pass};

    fn quick_opts() -> SimOptions {
        SimOptions {
            sample_steps: 96,
            seed: 1,
        }
    }

    #[test]
    fn baseline_designs_are_near_unity() {
        // A 38-bit tree (sp = 29 ≥ software precision 28) never
        // multi-cycles, so the normalized time is exactly 1.
        let r = run_workload(
            &SimDesign::baseline2(),
            &resnet18(Pass::Forward),
            &quick_opts(),
        );
        assert!(
            (r.normalized() - 1.0).abs() < 1e-9,
            "baseline normalized {}",
            r.normalized()
        );
    }

    #[test]
    fn narrow_trees_slow_down_and_order_correctly() {
        let wl = resnet18(Pass::Forward);
        let norm = |w: u32| {
            let d = SimDesign {
                tile: TileConfig::small(),
                w,
                software_precision: 28,
                n_tiles: 4,
            };
            run_workload(&d, &wl, &quick_opts()).normalized()
        };
        let (n12, n16, n28) = (norm(12), norm(16), norm(28));
        assert!(n12 >= n16 && n16 >= n28, "{n12} {n16} {n28}");
        assert!(n12 > 1.05, "12-bit tree should pay a penalty, got {n12}");
        assert!(n28 < 1.6, "28-bit tree should be near baseline, got {n28}");
    }

    #[test]
    fn backward_pays_more_than_forward() {
        let d = SimDesign {
            tile: TileConfig::small(),
            w: 16,
            software_precision: 28,
            n_tiles: 4,
        };
        let f = run_workload(&d, &resnet18(Pass::Forward), &quick_opts()).normalized();
        let b = run_workload(&d, &resnet18(Pass::Backward), &quick_opts()).normalized();
        assert!(b > f, "bwd {b} fwd {f}");
    }

    #[test]
    fn clustering_reduces_slowdown() {
        let wl = resnet18(Pass::Backward);
        let norm = |cluster: usize| {
            let d = SimDesign {
                tile: TileConfig::big().with_cluster_size(cluster),
                w: 16,
                software_precision: 28,
                n_tiles: 4,
            };
            run_workload(&d, &wl, &quick_opts()).normalized()
        };
        let full = norm(16);
        let fine = norm(1);
        assert!(fine <= full, "cluster=1 {fine} vs cluster=16 {full}");
    }

    #[test]
    fn sixteen_input_ipus_stall_more_than_eight() {
        // Paper §4.3: "since 8-input MC-IPUs have fewer products, it is
        // less likely that they need multiple cycles."
        let wl = resnet18(Pass::Backward);
        let d8 = SimDesign {
            tile: TileConfig::small(),
            w: 12,
            software_precision: 28,
            n_tiles: 4,
        };
        let d16 = SimDesign {
            tile: TileConfig::big(),
            w: 12,
            software_precision: 28,
            n_tiles: 4,
        };
        let n8 = run_workload(&d8, &wl, &quick_opts()).normalized();
        let n16 = run_workload(&d16, &wl, &quick_opts()).normalized();
        assert!(n16 >= n8, "16-input {n16} vs 8-input {n8}");
    }

    #[test]
    fn fp16_software_precision_never_multicycles_at_w16() {
        // §4.3: "IPUs with a 16b or larger adder tree take exactly one
        // cycle per nibble iteration" under FP16 accumulation… with
        // sp(16) = 7 and software precision 16, alignments in [7, 16]
        // still partition. The paper's statement refers to designs whose
        // precision ≥ software precision: use w = 25 (sp = 16).
        let d = SimDesign {
            tile: TileConfig::small(),
            w: 25,
            software_precision: 16,
            n_tiles: 4,
        };
        let r = run_workload(&d, &resnet18(Pass::Forward), &quick_opts());
        assert!((r.normalized() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn layer_steps_scale_with_geometry() {
        let r = run_workload(
            &SimDesign::baseline1(),
            &resnet18(Pass::Forward),
            &quick_opts(),
        );
        // conv1 (C=3 → 1 chunk ×49 taps) vs fc (512→1000).
        assert!(r.layers[0].steps > 0);
        let total: u64 = r.layers.iter().map(|l| l.steps).sum();
        assert!(total > 100_000);
    }

    #[test]
    fn plan_shares_a_window_slot_only_when_seed_blind() {
        let wl = resnet18(Pass::Forward);
        let d = SimDesign::baseline1();
        let plan = |schedule: Option<&[LayerPrecision]>, blind| {
            WorkloadPlan::new(&d, &wl, schedule, &quick_opts(), blind)
        };
        // Seed-sensitive: one slot per FP16 layer, each with its own seed.
        let seeded = plan(None, false);
        assert_eq!(seeded.slot_count(), wl.layers.len());
        let seeds: std::collections::HashSet<u64> =
            seeded.slots.iter().map(|&(_, seed)| seed).collect();
        assert_eq!(seeds.len(), wl.layers.len());
        // Seed-blind: one slot per distinct window, the same totals.
        let blind = plan(None, true);
        let mut windows: Vec<usize> = seeded.slots.iter().map(|&(w, _)| w).collect();
        windows.sort_unstable();
        windows.dedup();
        assert_eq!(blind.slot_count(), windows.len());
        assert!(blind.slot_count() < seeded.slot_count());
        let per_window = |p: &WorkloadPlan| -> Vec<f64> {
            p.slots.iter().map(|&(w, _)| 9.0 * w as f64).collect()
        };
        assert_eq!(
            blind.total(&per_window(&blind)),
            seeded.total(&per_window(&seeded))
        );
        assert_eq!(blind.total(&per_window(&blind)), blind.total_baseline());
        // All INT: no slot, and every layer is its own baseline.
        let int8 = vec![LayerPrecision::Int { ka: 2, kb: 2 }; wl.layers.len()];
        let int = plan(Some(&int8), true);
        assert_eq!(int.slot_count(), 0);
        assert_eq!(int.total(&[]), int.total_baseline());
        assert_eq!(int.fp_fraction(), 0.0);
        assert_eq!(blind.fp_fraction(), 1.0);
    }
}
