//! Mixed-precision network scheduling: per-layer INT/FP execution.
//!
//! The paper's motivation (§1, Appendix B) is networks where most layers
//! are INT-quantized and a few remain FP16 ("hybrid approaches where a few
//! layers are kept in FP and the rest are quantized to integer"), and §3.3
//! notes that the first consideration when sizing the MC-IPU is "the INT
//! and FP operations percentage split". This module names each layer's
//! precision assignment and the result that reports the split and the
//! blended execution time. A scheduled run is a [`crate::Lowered`]
//! carrying a [`Schedule`]; [`crate::WorkloadPlan`] prices its INT
//! layers at `ka·kb` cycles per step and its FP16 layers through the
//! cost backend.

use crate::result::WorkloadResult;
use mpipu_dnn::zoo::Workload;

/// Per-layer numeric assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerPrecision {
    /// INT with `ka`/`kb`-nibble operands: `ka·kb` cycles per step,
    /// alignment-free.
    Int {
        /// Activation nibbles (INT4 = 1, INT8 = 2, …).
        ka: u32,
        /// Weight nibbles.
        kb: u32,
    },
    /// FP16 with the design's software precision.
    Fp16,
}

impl LayerPrecision {
    /// Label for reports.
    pub fn label(&self) -> String {
        match self {
            LayerPrecision::Int { ka, kb } => format!("int{}x{}", 4 * ka, 4 * kb),
            LayerPrecision::Fp16 => "fp16".to_string(),
        }
    }
}

/// A reusable per-layer precision policy. Where a `Vec<LayerPrecision>`
/// is tied to one workload's layer count, a `Schedule` describes the
/// *rule* and is materialized against any workload — the form the
/// `Scenario` builder carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Schedule {
    /// Every layer runs at the same precision.
    Uniform(LayerPrecision),
    /// First and last layers FP16 (the quantization-sensitive ones),
    /// everything else INT4 — the hybrid split the paper motivates.
    FirstLastFp16,
    /// An explicit per-layer assignment (must match the workload's layer
    /// count when materialized).
    Custom(Vec<LayerPrecision>),
}

impl Schedule {
    /// Resolve the policy into one [`LayerPrecision`] per workload layer,
    /// reporting a [`Schedule::Custom`] length mismatch as an error
    /// instead of panicking — the form sweep engines and builders that
    /// validate user input should call.
    pub fn try_materialize(
        &self,
        workload: &Workload,
    ) -> Result<Vec<LayerPrecision>, ScheduleError> {
        match self {
            Schedule::Uniform(p) => Ok(vec![*p; workload.layers.len()]),
            Schedule::FirstLastFp16 => Ok(first_last_fp16(workload)),
            Schedule::Custom(assignment) => {
                if assignment.len() != workload.layers.len() {
                    return Err(ScheduleError {
                        got: assignment.len(),
                        expected: workload.layers.len(),
                        workload: workload.label(),
                    });
                }
                Ok(assignment.clone())
            }
        }
    }

    /// Resolve the policy into one [`LayerPrecision`] per workload layer.
    ///
    /// # Panics
    /// Panics if a [`Schedule::Custom`] assignment length does not match
    /// the workload's layer count; [`Schedule::try_materialize`] is the
    /// non-panicking form.
    pub fn materialize(&self, workload: &Workload) -> Vec<LayerPrecision> {
        self.try_materialize(workload)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Label for reports: `uniform-int4x4`, `first-last-fp16`, `custom`.
    pub fn label(&self) -> String {
        match self {
            Schedule::Uniform(p) => format!("uniform-{}", p.label()),
            Schedule::FirstLastFp16 => "first-last-fp16".to_string(),
            Schedule::Custom(_) => "custom".to_string(),
        }
    }
}

/// A [`Schedule::Custom`] assignment did not match its workload's layer
/// count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleError {
    /// Layer precisions the custom schedule assigns.
    pub got: usize,
    /// Layers the workload actually has.
    pub expected: usize,
    /// The workload's label, for the error message.
    pub workload: String,
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "one precision per layer required: custom schedule assigns {} \
             layer precision(s) but workload {:?} has {} layers",
            self.got, self.workload, self.expected
        )
    }
}

impl std::error::Error for ScheduleError {}

/// Outcome of a mixed-precision run.
#[derive(Debug, Clone)]
pub struct MixedResult {
    /// Per-layer results (cycles include INT layers).
    pub result: WorkloadResult,
    /// Fraction of MAC work executed in FP16 (by baseline cycles).
    pub fp_fraction: f64,
}

impl MixedResult {
    /// Execution time normalized to the baseline — delegates to the
    /// underlying [`WorkloadResult`].
    pub fn normalized(&self) -> f64 {
        self.result.normalized()
    }
}

/// A common hybrid assignment: first and last layers FP16 (the
/// quantization-sensitive ones), everything else INT4 — the split the
/// paper's intro motivates.
pub fn first_last_fp16(workload: &Workload) -> Vec<LayerPrecision> {
    let n = workload.layers.len();
    (0..n)
        .map(|i| {
            if i == 0 || i + 1 == n {
                LayerPrecision::Fp16
            } else {
                LayerPrecision::Int { ka: 1, kb: 1 }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MonteCarlo;
    use crate::run::{Lowered, SimDesign, SimOptions};
    use crate::tile::TileConfig;
    use mpipu_dnn::zoo::{resnet18, Pass};
    use std::sync::Arc;

    fn design(w: u32) -> SimDesign {
        SimDesign {
            tile: TileConfig::small(),
            w,
            software_precision: 28,
            n_tiles: 4,
        }
    }

    fn opts() -> SimOptions {
        SimOptions {
            sample_steps: 64,
            seed: 3,
        }
    }

    /// `assignment` as a [`Schedule::Custom`] through
    /// [`Lowered::execute`] on the Monte-Carlo backend.
    fn run_custom(
        design: &SimDesign,
        workload: &Workload,
        assignment: &[LayerPrecision],
        opts: &SimOptions,
    ) -> MixedResult {
        Lowered {
            design: *design,
            opts: *opts,
            dists: None,
            schedule: Some(Schedule::Custom(assignment.to_vec())),
            backend: Arc::new(MonteCarlo),
        }
        .execute(workload)
    }

    #[test]
    fn all_int4_runs_at_one_cycle_per_step() {
        let wl = resnet18(Pass::Forward);
        let assignment = vec![LayerPrecision::Int { ka: 1, kb: 1 }; wl.layers.len()];
        let r = run_custom(&design(12), &wl, &assignment, &opts());
        assert_eq!(r.fp_fraction, 0.0);
        assert!((r.result.normalized() - 1.0).abs() < 1e-12);
        let total_steps: u64 = r
            .result
            .layers
            .iter()
            .map(|l| l.steps * l.multiplicity as u64)
            .sum();
        assert_eq!(
            r.result.total_cycles(),
            total_steps,
            "INT4 is one cycle per step"
        );
    }

    #[test]
    fn int8_costs_four_int4_cycles() {
        let wl = resnet18(Pass::Forward);
        let a4 = vec![LayerPrecision::Int { ka: 1, kb: 1 }; wl.layers.len()];
        let a8 = vec![LayerPrecision::Int { ka: 2, kb: 2 }; wl.layers.len()];
        let r4 = run_custom(&design(12), &wl, &a4, &opts());
        let r8 = run_custom(&design(12), &wl, &a8, &opts());
        assert_eq!(r8.result.total_cycles(), 4 * r4.result.total_cycles());
    }

    #[test]
    fn hybrid_fp_fraction_is_small_but_positive() {
        let wl = resnet18(Pass::Forward);
        let assignment = first_last_fp16(&wl);
        let r = run_custom(&design(12), &wl, &assignment, &opts());
        // conv1 + fc are a small share of MACs but a larger share of
        // cycles (FP16 steps cost 9 baseline cycles vs 1 for INT4).
        assert!(
            r.fp_fraction > 0.0 && r.fp_fraction < 0.8,
            "fp fraction {}",
            r.fp_fraction
        );
        // Hybrid total sits between all-INT4 and all-FP16.
        let all_int = run_custom(
            &design(12),
            &wl,
            &vec![LayerPrecision::Int { ka: 1, kb: 1 }; wl.layers.len()],
            &opts(),
        );
        let all_fp = run_custom(
            &design(12),
            &wl,
            &vec![LayerPrecision::Fp16; wl.layers.len()],
            &opts(),
        );
        assert!(r.result.total_cycles() > all_int.result.total_cycles());
        assert!(r.result.total_cycles() < all_fp.result.total_cycles());
    }

    #[test]
    fn narrow_tree_only_hurts_the_fp_layers() {
        let wl = resnet18(Pass::Forward);
        let assignment = first_last_fp16(&wl);
        let r12 = run_custom(&design(12), &wl, &assignment, &opts());
        let r28 = run_custom(&design(28), &wl, &assignment, &opts());
        // INT layers are identical; only the FP16 share grows.
        let delta = r12.result.total_cycles() as f64 / r28.result.total_cycles() as f64;
        assert!(delta >= 1.0);
        assert!(
            delta < 1.0 + 4.0 * r12.fp_fraction,
            "slowdown {delta} exceeds the FP share bound"
        );
    }

    #[test]
    #[should_panic(expected = "one precision per layer")]
    fn wrong_assignment_length_panics() {
        let wl = resnet18(Pass::Forward);
        run_custom(&design(12), &wl, &[LayerPrecision::Fp16], &opts());
    }

    #[test]
    fn labels() {
        assert_eq!(LayerPrecision::Int { ka: 1, kb: 1 }.label(), "int4x4");
        assert_eq!(LayerPrecision::Int { ka: 2, kb: 3 }.label(), "int8x12");
        assert_eq!(LayerPrecision::Fp16.label(), "fp16");
        assert_eq!(
            Schedule::Uniform(LayerPrecision::Fp16).label(),
            "uniform-fp16"
        );
        assert_eq!(Schedule::FirstLastFp16.label(), "first-last-fp16");
    }

    #[test]
    fn schedule_materializes_against_any_workload() {
        let wl = resnet18(Pass::Forward);
        let n = wl.layers.len();
        let uniform = Schedule::Uniform(LayerPrecision::Int { ka: 1, kb: 1 }).materialize(&wl);
        assert_eq!(uniform.len(), n);
        assert!(uniform
            .iter()
            .all(|p| *p == LayerPrecision::Int { ka: 1, kb: 1 }));
        let hybrid = Schedule::FirstLastFp16.materialize(&wl);
        assert_eq!(hybrid, first_last_fp16(&wl));
        let custom = Schedule::Custom(hybrid.clone()).materialize(&wl);
        assert_eq!(custom, hybrid);
    }

    #[test]
    #[should_panic(expected = "one precision per layer")]
    fn custom_schedule_length_mismatch_panics() {
        Schedule::Custom(vec![LayerPrecision::Fp16]).materialize(&resnet18(Pass::Forward));
    }

    #[test]
    fn try_materialize_reports_mismatch_as_error() {
        let wl = resnet18(Pass::Forward);
        let err = Schedule::Custom(vec![LayerPrecision::Fp16])
            .try_materialize(&wl)
            .unwrap_err();
        assert_eq!(err.got, 1);
        assert_eq!(err.expected, wl.layers.len());
        assert_eq!(err.workload, wl.label());
        let msg = err.to_string();
        assert!(msg.contains("one precision per layer"), "{msg}");
        assert!(msg.contains(&wl.label()), "{msg}");
        assert!(
            msg.contains(&wl.layers.len().to_string()) && msg.contains("assigns 1"),
            "{msg}"
        );
    }

    #[test]
    fn try_materialize_matches_materialize_when_valid() {
        let wl = resnet18(Pass::Forward);
        for schedule in [
            Schedule::Uniform(LayerPrecision::Fp16),
            Schedule::FirstLastFp16,
            Schedule::Custom(first_last_fp16(&wl)),
        ] {
            assert_eq!(
                schedule.try_materialize(&wl).unwrap(),
                schedule.materialize(&wl)
            );
        }
    }

    #[test]
    fn scheduled_run_matches_explicit_assignment() {
        let wl = resnet18(Pass::Forward);
        let lowered = Lowered {
            design: design(12),
            opts: opts(),
            dists: None,
            schedule: Some(Schedule::FirstLastFp16),
            backend: Arc::new(MonteCarlo),
        };
        let via_schedule = lowered.execute(&wl);
        let explicit = run_custom(&design(12), &wl, &first_last_fp16(&wl), &opts());
        assert_eq!(
            via_schedule.result.total_cycles(),
            explicit.result.total_cycles()
        );
        assert_eq!(via_schedule.fp_fraction, explicit.fp_fraction);
    }

    #[test]
    fn uniform_lowered_execute_matches_run_workload() {
        let wl = resnet18(Pass::Forward);
        let lowered = Lowered {
            design: design(12),
            opts: opts(),
            dists: None,
            schedule: None,
            backend: Arc::new(MonteCarlo),
        };
        let r = lowered.execute(&wl);
        let direct = crate::run::run_workload(&design(12), &wl, &opts());
        assert_eq!(r.result.total_cycles(), direct.total_cycles());
        assert_eq!(r.fp_fraction, 1.0);
        assert_eq!(r.normalized(), direct.normalized());
    }
}
