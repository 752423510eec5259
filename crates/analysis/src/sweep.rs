//! The Fig 3 experiment: error of the approximate FP-IP versus IPU
//! precision, for FP16 and FP32 accumulators.
//!
//! For each sampled vector pair the approximate result (our bit-accurate
//! `IPU(precision)` emulation) is compared against the FP32-CPU reference
//! (sequential f32 FMA). Three metrics are reported per precision, exactly
//! as in the paper: median absolute error, median absolute relative error
//! in percent, and the median (and mean) number of contaminated bits.

use crate::dist::{Distribution, Sampler};
use mpipu_datapath::{
    contaminated_bits_f32, contaminated_bits_fp16, f32_cpu_dot, metrics, AccFormat, FpOperand, Ipu,
    IpuConfig,
};
use mpipu_fp::{Fp16, FpFormat};

/// Configuration of one precision sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Input distribution.
    pub dist: Distribution,
    /// Accumulator format under study.
    pub acc: AccFormat,
    /// Inner-product length (the paper's IPUs use 8 or 16).
    pub n: usize,
    /// Number of sampled vector pairs per precision.
    pub samples: usize,
    /// IPU precisions to sweep.
    pub precisions: Vec<u32>,
    /// RNG seed.
    pub seed: u64,
}

impl SweepConfig {
    /// The paper's sweep for a given distribution and accumulator:
    /// precisions 8..=30, n = 16.
    pub fn paper(dist: Distribution, acc: AccFormat, samples: usize) -> Self {
        SweepConfig {
            dist,
            acc,
            n: 16,
            samples,
            precisions: (8..=30).collect(),
            seed: 0x5eed,
        }
    }
}

/// One row of the Fig 3 series (one precision).
#[derive(Debug, Clone, Copy)]
pub struct PrecisionRow {
    /// IPU precision (adder-tree width / max alignment).
    pub precision: u32,
    /// Median absolute error vs the FP32-CPU reference.
    pub median_abs_err: f64,
    /// Median absolute relative error, percent.
    pub median_rel_err_pct: f64,
    /// Median contaminated bits.
    pub median_contaminated: f64,
    /// Mean contaminated bits (the paper quotes mean 0.5 at precision 16).
    pub mean_contaminated: f64,
}

/// Run a precision sweep (the Fig 3 experiment).
///
/// One pass over the sample pairs: each pair is drawn, decoded and
/// priced by the FP32-CPU reference once, then run on every precision's
/// unit, so every precision sees identical inputs (paired comparison,
/// as in the paper).
pub fn precision_sweep(cfg: &SweepConfig) -> Vec<PrecisionRow> {
    /// One precision's unit and its per-sample error series.
    struct Series {
        ipu: Ipu,
        abs_errs: Vec<f64>,
        rel_errs: Vec<f64>,
        contam: Vec<f64>,
    }
    let mut series: Vec<Series> = cfg
        .precisions
        .iter()
        .map(|&p| Series {
            ipu: Ipu::new(IpuConfig {
                n: cfg.n,
                w: p,
                software_precision: p,
                acc: cfg.acc,
                headroom_l: 10,
            }),
            abs_errs: Vec::with_capacity(cfg.samples),
            rel_errs: Vec::with_capacity(cfg.samples),
            contam: Vec::with_capacity(cfg.samples),
        })
        .collect();
    let decode =
        |v: &[Fp16]| -> Vec<FpOperand> { v.iter().map(|&x| FpOperand::from_fp16(x)).collect() };
    let mut sampler = Sampler::new(cfg.dist, cfg.seed);
    for _ in 0..cfg.samples {
        let (a, b) = (sampler.sample_vec(cfg.n), sampler.sample_vec(cfg.n));
        let reference = f32_cpu_dot(&a, &b);
        let ref16 = Fp16::from_f32(reference);
        let (a, b) = (decode(&a), decode(&b));
        for s in &mut series {
            s.ipu.reset();
            s.ipu.fp_ip_accumulate_decoded(&a, &b);
            let (approx_val, bits) = match cfg.acc {
                AccFormat::Fp16 => {
                    let r = s.ipu.read_fp16();
                    (r.to_f64(), contaminated_bits_fp16(r, ref16))
                }
                AccFormat::Fp32 => {
                    let r = s.ipu.read_f32();
                    (r as f64, contaminated_bits_f32(r, reference))
                }
            };
            s.abs_errs
                .push(metrics::abs_error(approx_val, reference as f64));
            s.rel_errs
                .push(metrics::rel_error(approx_val, reference as f64));
            s.contam.push(bits as f64);
        }
    }
    cfg.precisions
        .iter()
        .zip(series)
        .map(|(&precision, s)| PrecisionRow {
            precision,
            median_abs_err: metrics::median(&s.abs_errs),
            median_rel_err_pct: metrics::median(&s.rel_errs),
            median_contaminated: metrics::median(&s.contam),
            mean_contaminated: metrics::mean(&s.contam),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(dist: Distribution, acc: AccFormat) -> Vec<PrecisionRow> {
        precision_sweep(&SweepConfig {
            dist,
            acc,
            n: 16,
            samples: 400,
            precisions: vec![8, 12, 16, 20, 24, 26, 28],
            seed: 7,
        })
    }

    #[test]
    fn error_is_monotone_nonincreasing_in_precision() {
        let rows = sweep(Distribution::Normal { std: 1.0 }, AccFormat::Fp32);
        for w in rows.windows(2) {
            assert!(
                w[1].median_abs_err <= w[0].median_abs_err * 1.05 + 1e-12,
                "abs err rose from p={} ({}) to p={} ({})",
                w[0].precision,
                w[0].median_abs_err,
                w[1].precision,
                w[1].median_contaminated
            );
        }
    }

    #[test]
    fn fp16_acc_converges_by_precision_16() {
        // Paper: at 16-bit IPU precision the FP16-accumulator errors are
        // below 1e-6 and the median contaminated bits is 0.
        let rows = sweep(Distribution::Normal { std: 1.0 }, AccFormat::Fp16);
        let p16 = rows.iter().find(|r| r.precision == 16).unwrap();
        assert_eq!(p16.median_contaminated, 0.0);
        // FP16 has its own rounding floor; "error" here is vs the FP32 CPU
        // value, so the floor is FP16 quantization (~1e-3 relative). The
        // claim that holds is: precision ≥ 16 adds nothing over FP16
        // rounding itself — i.e. errors stop improving.
        let p20 = rows.iter().find(|r| r.precision == 20).unwrap();
        assert!((p16.median_abs_err - p20.median_abs_err).abs() <= p16.median_abs_err * 0.2 + 1e-9);
    }

    #[test]
    fn fp32_acc_converges_by_precision_26() {
        let rows = sweep(Distribution::Laplace { b: 1.0 }, AccFormat::Fp32);
        let p26 = rows.iter().find(|r| r.precision == 26).unwrap();
        assert!(
            p26.median_rel_err_pct < 1e-4,
            "rel err {} too high",
            p26.median_rel_err_pct
        );
        let p8 = rows.iter().find(|r| r.precision == 8).unwrap();
        assert!(p8.median_rel_err_pct > p26.median_rel_err_pct);
    }

    #[test]
    fn contaminated_bits_floor_by_precision_28() {
        // The sequential-f32 CPU reference itself rounds per FMA, so even
        // an exact datapath differs from it in the last bit or two. The
        // paper's claim is that the *minimum* median is reached at 27–28b:
        // precision 28 must match the floor set by an effectively exact
        // datapath (precision 60 here).
        let rows = precision_sweep(&SweepConfig {
            dist: Distribution::Normal { std: 1.0 },
            acc: AccFormat::Fp32,
            n: 16,
            samples: 400,
            precisions: vec![8, 28, 60],
            seed: 7,
        });
        let p8 = &rows[0];
        let p28 = &rows[1];
        let floor = &rows[2];
        assert_eq!(p28.median_contaminated, floor.median_contaminated);
        assert!(p28.median_contaminated <= 2.0);
        assert!(p8.median_contaminated > p28.median_contaminated);
    }

    #[test]
    fn uniform_distribution_also_converges() {
        let rows = sweep(Distribution::Uniform { scale: 1.0 }, AccFormat::Fp32);
        let last = rows.last().unwrap();
        assert!(last.median_rel_err_pct < 1e-4);
    }

    #[test]
    fn paired_sampling_is_deterministic() {
        let cfg = SweepConfig {
            dist: Distribution::Normal { std: 1.0 },
            acc: AccFormat::Fp32,
            n: 8,
            samples: 50,
            precisions: vec![16],
            seed: 123,
        };
        let a = precision_sweep(&cfg);
        let b = precision_sweep(&cfg);
        assert_eq!(a[0].median_abs_err, b[0].median_abs_err);
    }
}
