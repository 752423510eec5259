//! The unified design-point builder: one fluent chain composing tile
//! family, adder-tree precision, accumulator format, workload, value
//! distribution, precision schedule, seed, and sample scale.
//!
//! Before this layer existed, every performance study hand-assembled an
//! `IpuConfig`/`TileConfig` + `SimDesign` + `SimOptions` pile and threaded
//! distribution choices separately. A [`Scenario`] names the whole design
//! point once and lowers it through [`mpipu_sim::Lowered`]:
//!
//! ```
//! use mpipu::{Scenario, Zoo};
//!
//! let r = Scenario::big_tile()
//!     .w(12)
//!     .workload(Zoo::ResNet18)
//!     .seed(7)
//!     .sample_steps(16) // smoke scale; defaults to the paper's 512
//!     .run();
//! assert!(r.normalized() >= 1.0);
//! ```
//!
//! Scheduled (mixed-precision) execution and custom workloads compose the
//! same way:
//!
//! ```
//! use mpipu::sim::{LayerPrecision, Schedule};
//! use mpipu::Scenario;
//!
//! let hybrid = Scenario::small_tile()
//!     .w(12)
//!     .cluster(1)
//!     .synthetic(64, 14, 4)
//!     .schedule(Schedule::FirstLastFp16)
//!     .sample_steps(16)
//!     .run();
//! assert!(hybrid.fp_fraction > 0.0 && hybrid.fp_fraction < 1.0);
//!
//! let all_int = Scenario::small_tile()
//!     .synthetic(64, 14, 4)
//!     .schedule(Schedule::Uniform(LayerPrecision::Int { ka: 1, kb: 1 }))
//!     .sample_steps(16)
//!     .run();
//! assert_eq!(all_int.fp_fraction, 0.0);
//! ```

use mpipu_analysis::dist::Distribution;
use mpipu_datapath::AccFormat;
use mpipu_dnn::zoo::{inception_v3, resnet18, resnet50, synthetic_stack, Pass, Workload};
use mpipu_hw::{DesignMetrics, DesignPoint};
use mpipu_sim::{
    Backend, CostBackend, Lowered, MixedResult, Schedule, ScheduleError, SimDesign, SimOptions,
    TileConfig,
};
use std::sync::Arc;

/// Model-zoo workloads a scenario can name directly (each resolved with
/// the scenario's [`Pass`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Zoo {
    /// ResNet-18 at 224×224.
    ResNet18,
    /// ResNet-50 at 224×224.
    ResNet50,
    /// InceptionV3 at 299×299.
    InceptionV3,
}

/// The workload a scenario executes.
#[derive(Debug, Clone)]
enum WorkloadChoice {
    /// A zoo network, resolved with the scenario's pass.
    Zoo(Zoo),
    /// A parametric synthetic stack `(channels, spatial, depth)`.
    Synthetic(usize, usize, usize),
    /// An explicit layer table (carries its own pass).
    Custom(Workload),
}

/// A complete, self-describing experiment scenario.
///
/// Construct with [`Scenario::big_tile`] / [`Scenario::small_tile`] /
/// [`Scenario::tile`], refine with the fluent setters, and finish with
/// [`Scenario::run`] (execute) or [`Scenario::lower`] (inspect the
/// resolved simulator inputs). Defaults are the paper's baselines: 38-bit
/// adder tree, FP32 accumulation (software precision 28), four tiles, no
/// clustering, ResNet-18 forward, 512 sampled steps, seed `0xC0FFEE`.
#[derive(Debug, Clone)]
pub struct Scenario {
    tile: TileConfig,
    big: bool,
    w: u32,
    software_precision: u32,
    n_tiles: usize,
    pass: Pass,
    workload: WorkloadChoice,
    schedule: Option<Schedule>,
    dists: Option<(Distribution, Distribution)>,
    sample_steps: usize,
    seed: u64,
    backend: Arc<dyn CostBackend>,
}

/// Paper-default Monte-Carlo steps sampled per layer.
const DEFAULT_SAMPLE_STEPS: usize = 512;
/// Floor on sampled steps when scaling down with [`Scenario::scale`].
const MIN_SAMPLE_STEPS: usize = 64;

impl Scenario {
    fn with_tile(tile: TileConfig, big: bool) -> Scenario {
        Scenario {
            tile,
            big,
            w: 38,
            software_precision: 28,
            n_tiles: 4,
            pass: Pass::Forward,
            workload: WorkloadChoice::Zoo(Zoo::ResNet18),
            schedule: None,
            dists: None,
            sample_steps: DEFAULT_SAMPLE_STEPS,
            seed: 0xC0FFEE,
            backend: Backend::MonteCarlo.instantiate(),
        }
    }

    /// Start from the paper's big tile (16-input IPUs, `(16,16,2,2)`).
    pub fn big_tile() -> Scenario {
        Scenario::with_tile(TileConfig::big(), true)
    }

    /// Start from the paper's small tile (8-input IPUs, `(8,8,2,2)`).
    pub fn small_tile() -> Scenario {
        Scenario::with_tile(TileConfig::small(), false)
    }

    /// Start from an explicit tile geometry. The tile counts as "big"
    /// for the hardware model when it unrolls ≥ 16 input channels.
    pub fn tile(tile: TileConfig) -> Scenario {
        Scenario::with_tile(tile, tile.c_unroll >= 16)
    }

    /// Replace the tile geometry mid-chain, keeping every other setting —
    /// the form parameter sweeps over tile families use. The new tile
    /// carries its own cluster size and buffer depth, so apply
    /// [`Scenario::cluster`] / [`Scenario::buffer_depth`] *after* this.
    pub fn tile_config(mut self, tile: TileConfig) -> Scenario {
        self.tile = tile;
        self.big = tile.c_unroll >= 16;
        self
    }

    /// Set the MC-IPU adder-tree precision `w`.
    pub fn w(mut self, w: u32) -> Scenario {
        self.w = w;
        self
    }

    /// Set the software (accumulation) precision directly.
    pub fn software_precision(mut self, p: u32) -> Scenario {
        self.software_precision = p;
        self
    }

    /// Set the accumulator format: FP16 ⇒ software precision 16,
    /// FP32 ⇒ 28 (the paper's §3.1 requirement pairs).
    pub fn accumulator(self, acc: AccFormat) -> Scenario {
        self.software_precision(match acc {
            AccFormat::Fp16 => 16,
            AccFormat::Fp32 => 28,
        })
    }

    /// Set the cluster size (§3.3 intra-tile clustering).
    ///
    /// # Panics
    /// Panics unless the size divides the tile's IPU count.
    pub fn cluster(mut self, size: usize) -> Scenario {
        self.tile = self.tile.with_cluster_size(size);
        self
    }

    /// Set the per-cluster input FIFO depth.
    pub fn buffer_depth(mut self, depth: usize) -> Scenario {
        self.tile = self.tile.with_buffer_depth(depth);
        self
    }

    /// Set the number of tiles sharing the K dimension.
    pub fn n_tiles(mut self, n: usize) -> Scenario {
        self.n_tiles = n;
        self
    }

    /// Select a model-zoo workload (resolved with the scenario's pass).
    pub fn workload(mut self, zoo: Zoo) -> Scenario {
        self.workload = WorkloadChoice::Zoo(zoo);
        self
    }

    /// Select a parametric synthetic stack: `depth` 3×3 convolutions at
    /// `channels` channels on a `spatial`² feature map plus a classifier.
    pub fn synthetic(mut self, channels: usize, spatial: usize, depth: usize) -> Scenario {
        self.workload = WorkloadChoice::Synthetic(channels, spatial, depth);
        self
    }

    /// Supply an explicit workload (it carries its own pass).
    pub fn custom_workload(mut self, workload: Workload) -> Scenario {
        self.workload = WorkloadChoice::Custom(workload);
        self
    }

    /// Set the pass for zoo/synthetic workloads.
    pub fn pass(mut self, pass: Pass) -> Scenario {
        self.pass = pass;
        self
    }

    /// Shorthand for `.pass(Pass::Backward)`.
    pub fn backward(self) -> Scenario {
        self.pass(Pass::Backward)
    }

    /// Attach a per-layer precision schedule (mixed INT/FP execution).
    pub fn schedule(mut self, schedule: Schedule) -> Scenario {
        self.schedule = Some(schedule);
        self
    }

    /// Override the `(activation, weight)` value distributions the
    /// Monte-Carlo cost model samples from (defaults follow the pass).
    pub fn distributions(mut self, act: Distribution, wgt: Distribution) -> Scenario {
        self.dists = Some((act, wgt));
        self
    }

    /// Select the cost-estimation backend by name: Monte-Carlo sampling
    /// (the default), closed-form analytic expectations, or memoized
    /// variants of either.
    ///
    /// ```
    /// use mpipu::{Backend, Scenario, Zoo};
    ///
    /// let analytic = Scenario::small_tile()
    ///     .w(12)
    ///     .workload(Zoo::ResNet18)
    ///     .backend(Backend::Analytic)
    ///     .run()
    ///     .normalized();
    /// let sampled = Scenario::small_tile()
    ///     .w(12)
    ///     .workload(Zoo::ResNet18)
    ///     .sample_steps(128)
    ///     .run()
    ///     .normalized();
    /// assert!((analytic - sampled).abs() / sampled < 0.15);
    /// ```
    pub fn backend(mut self, backend: Backend) -> Scenario {
        self.backend = backend.instantiate();
        self
    }

    /// Supply a cost-estimation backend instance directly — the open
    /// end of the seam: custom estimators, or a shared
    /// [`mpipu_sim::Memoized`] whose cache several scenario chains pool
    /// (cloned `Scenario`s already share their backend, so a sweep built
    /// from one base chain pools automatically).
    pub fn cost_backend(mut self, backend: Arc<dyn CostBackend>) -> Scenario {
        self.backend = backend;
        self
    }

    /// Set the alignment-plan sampler seed.
    pub fn seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Set the Monte-Carlo steps sampled per layer explicitly.
    pub fn sample_steps(mut self, steps: usize) -> Scenario {
        self.sample_steps = steps.max(1);
        self
    }

    /// Scale the sampled step count relative to the paper's 512
    /// (floored at 64) — the suite's `--smoke`/`--quick`/`--full` knob.
    pub fn scale(self, scale: f64) -> Scenario {
        let steps = ((DEFAULT_SAMPLE_STEPS as f64 * scale) as usize).max(MIN_SAMPLE_STEPS);
        self.sample_steps(steps)
    }

    /// The accelerator design point this scenario describes.
    pub fn design(&self) -> SimDesign {
        SimDesign {
            tile: self.tile,
            w: self.w,
            software_precision: self.software_precision,
            n_tiles: self.n_tiles,
        }
    }

    /// Resolve the workload choice into a concrete layer table.
    pub fn resolve_workload(&self) -> Workload {
        match &self.workload {
            WorkloadChoice::Zoo(Zoo::ResNet18) => resnet18(self.pass),
            WorkloadChoice::Zoo(Zoo::ResNet50) => resnet50(self.pass),
            WorkloadChoice::Zoo(Zoo::InceptionV3) => inception_v3(self.pass),
            WorkloadChoice::Synthetic(c, s, d) => synthetic_stack(*c, *s, *d, self.pass),
            WorkloadChoice::Custom(w) => w.clone(),
        }
    }

    /// The synthetic stack's `(channels, spatial, depth)`, when the
    /// scenario runs one — checkable before
    /// [`Scenario::resolve_workload`], which panics on a stack with a
    /// zero dimension.
    pub fn synthetic_dims(&self) -> Option<(usize, usize, usize)> {
        match self.workload {
            WorkloadChoice::Synthetic(c, s, d) => Some((c, s, d)),
            _ => None,
        }
    }

    /// The lowered form without schedule validation (shared by
    /// [`Scenario::try_lower`] and [`Scenario::run`], which validates
    /// implicitly when the schedule materializes against the workload).
    fn lowered_unchecked(&self) -> Lowered {
        Lowered {
            design: self.design(),
            opts: SimOptions {
                sample_steps: self.sample_steps,
                seed: self.seed,
            },
            dists: self.dists,
            schedule: self.schedule.clone(),
            backend: self.backend.clone(),
        }
    }

    /// Lower into the simulator's fully-resolved form, reporting an
    /// invalid scenario (a [`Schedule::Custom`] whose length does not
    /// match the resolved workload's layer count) as an error instead of
    /// deferring the failure to execution time.
    pub fn try_lower(&self) -> Result<Lowered, ScheduleError> {
        if let Some(schedule @ Schedule::Custom(_)) = &self.schedule {
            schedule.try_materialize(&self.resolve_workload())?;
        }
        Ok(self.lowered_unchecked())
    }

    /// Lower into the simulator's fully-resolved form (design point +
    /// options + backend + distribution override + schedule) without
    /// executing.
    ///
    /// # Panics
    /// Panics if the scenario is invalid (see [`Scenario::try_lower`]).
    pub fn lower(&self) -> Lowered {
        self.try_lower()
            .unwrap_or_else(|e| panic!("invalid scenario: {e}"))
    }

    /// Execute the scenario: lower it and simulate the resolved
    /// workload. Resolves the workload once — an invalid custom schedule
    /// still fails with the [`ScheduleError`] message when it
    /// materializes against that workload.
    pub fn run(&self) -> MixedResult {
        self.lowered_unchecked().execute(&self.resolve_workload())
    }

    /// The `(activation, weight)` distribution override, if one was set
    /// via [`Scenario::distributions`] — `None` falls back to the
    /// pass-derived distributions at lowering time.
    pub fn distribution_override(&self) -> Option<(Distribution, Distribution)> {
        self.dists
    }

    /// The per-layer precision schedule, if one was set via
    /// [`Scenario::schedule`] — `None` runs every layer FP16.
    pub fn precision_schedule(&self) -> Option<&Schedule> {
        self.schedule.as_ref()
    }

    /// The hardware-model design point `(w, cluster, family)`.
    pub fn design_point(&self) -> DesignPoint {
        DesignPoint {
            w: self.w,
            cluster_size: self.tile.cluster_size,
            big: self.big,
        }
    }

    /// Area/power efficiency metrics at a given FP slowdown (usually the
    /// `normalized()` of a [`Scenario::run`], clamped to ≥ 1).
    pub fn metrics(&self, fp_slowdown: f64) -> DesignMetrics {
        self.design_point().metrics(fp_slowdown.max(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpipu_sim::run_workload;

    fn quick(s: Scenario) -> Scenario {
        s.sample_steps(32)
    }

    #[test]
    fn builder_matches_hand_assembled_design() {
        // The byte-for-byte determinism contract: a Scenario chain must
        // reproduce exactly what the hand-assembled pile produced.
        let s = quick(Scenario::small_tile().w(16).seed(0xC0FFEE)).workload(Zoo::ResNet18);
        let via_builder = s.run();
        let direct = run_workload(
            &SimDesign {
                tile: TileConfig::small(),
                w: 16,
                software_precision: 28,
                n_tiles: 4,
            },
            &resnet18(Pass::Forward),
            &SimOptions {
                sample_steps: 32,
                seed: 0xC0FFEE,
            },
        );
        assert_eq!(via_builder.result.total_cycles(), direct.total_cycles());
        assert_eq!(
            via_builder.result.total_baseline_cycles(),
            direct.total_baseline_cycles()
        );
    }

    #[test]
    fn accumulator_sets_software_precision() {
        assert_eq!(
            Scenario::big_tile()
                .accumulator(AccFormat::Fp16)
                .design()
                .software_precision,
            16
        );
        assert_eq!(
            Scenario::big_tile()
                .accumulator(AccFormat::Fp32)
                .design()
                .software_precision,
            28
        );
    }

    #[test]
    fn scale_maps_to_sampled_steps_with_floor() {
        assert_eq!(
            Scenario::big_tile().scale(1.0).lower().opts.sample_steps,
            512
        );
        assert_eq!(
            Scenario::big_tile().scale(0.02).lower().opts.sample_steps,
            64
        );
        assert_eq!(
            Scenario::big_tile().scale(4.0).lower().opts.sample_steps,
            2048
        );
    }

    #[test]
    fn cluster_and_family_reach_the_design_point() {
        let s = Scenario::big_tile().w(16).cluster(4);
        let dp = s.design_point();
        assert!(dp.big);
        assert_eq!(dp.cluster_size, 4);
        assert_eq!(s.design().tile.cluster_size, 4);
        assert!(!Scenario::small_tile().design_point().big);
        assert!(Scenario::tile(TileConfig::big()).design_point().big);
    }

    #[test]
    fn backward_is_slower_than_forward_through_the_builder() {
        let base = quick(Scenario::big_tile().w(12)).workload(Zoo::ResNet18);
        let f = base.clone().run().normalized();
        let b = base.backward().run().normalized();
        assert!(b > f, "bwd {b} fwd {f}");
    }

    #[test]
    fn distribution_override_changes_sampled_costs() {
        let base = quick(Scenario::big_tile().w(12)).synthetic(32, 14, 2);
        let narrow = base
            .clone()
            .distributions(
                Distribution::Uniform { scale: 1.0 },
                Distribution::Uniform { scale: 1.0 },
            )
            .run()
            .normalized();
        let wide = base
            .distributions(Distribution::BackwardLike, Distribution::BackwardLike)
            .run()
            .normalized();
        assert!(
            wide > narrow,
            "wide-dynamic-range operands must stall more: {wide} vs {narrow}"
        );
    }

    #[test]
    fn analytic_backend_tracks_monte_carlo_through_the_builder() {
        let base = Scenario::small_tile().w(12).workload(Zoo::ResNet18);
        let mc = quick(base.clone()).run().normalized();
        let analytic = base.backend(Backend::Analytic).run().normalized();
        assert!(
            (analytic - mc).abs() / mc < 0.15,
            "analytic {analytic} vs MC {mc}"
        );
    }

    #[test]
    fn cloned_scenarios_share_a_memoized_backend() {
        let memo = Arc::new(mpipu_sim::Memoized::new(Arc::new(
            mpipu_sim::AnalyticBatched::new(),
        )));
        let base = quick(Scenario::small_tile().workload(Zoo::ResNet18))
            .cost_backend(memo.clone() as Arc<dyn CostBackend>);
        let a = base.clone().w(12).run().normalized();
        let b = base.clone().w(12).run().normalized();
        assert_eq!(a, b);
        assert!(memo.hits() > 0, "second sweep point must hit the cache");
        // A different design point misses (and is then cached too).
        let misses_before = memo.misses();
        base.w(16).run();
        assert!(memo.misses() > misses_before);
    }

    #[test]
    fn try_lower_rejects_mismatched_custom_schedules() {
        use mpipu_sim::LayerPrecision;
        let bad = Scenario::small_tile()
            .workload(Zoo::ResNet18)
            .schedule(Schedule::Custom(vec![LayerPrecision::Fp16; 3]));
        let err = bad.try_lower().unwrap_err();
        assert_eq!(err.got, 3);
        assert!(err.expected > 3);
        assert!(err.workload.contains("resnet18"), "{}", err.workload);
        // Valid schedules still lower.
        assert!(Scenario::small_tile()
            .schedule(Schedule::FirstLastFp16)
            .try_lower()
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid scenario: one precision per layer")]
    fn lower_panics_with_the_schedule_error_message() {
        use mpipu_sim::LayerPrecision;
        Scenario::small_tile()
            .workload(Zoo::ResNet18)
            .schedule(Schedule::Custom(vec![LayerPrecision::Fp16]))
            .lower();
    }

    #[test]
    fn tile_config_replaces_geometry_and_family() {
        let s = Scenario::small_tile().w(12).tile_config(TileConfig::big());
        assert!(s.design_point().big);
        assert_eq!(s.design().tile, TileConfig::big());
        assert_eq!(s.design().w, 12, "other settings survive the swap");
        let back = s.tile_config(TileConfig::small());
        assert!(!back.design_point().big);
    }

    #[test]
    fn metrics_clamp_slowdown() {
        let s = Scenario::big_tile().w(16).cluster(1);
        let m = s.metrics(0.5); // sub-unity slowdown clamps to 1
        assert!(m.int_tops_per_mm2 > 0.0);
    }
}
