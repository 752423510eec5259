//! `IPU(w)` — the approximate single-cycle-per-iteration inner-product unit
//! (paper §2, Fig 1, Fig 2).
//!
//! An `IPU(w)` has `n` 5-bit signed multipliers, a local right shifter per
//! lane that can shift-and-truncate by up to `w` bits, a `w`-bit adder
//! tree, and the non-normalized accumulator. FP16 operations take nine
//! nibble iterations (3 nibbles × 3 nibbles); an INT operation of `Ka`- and
//! `Kb`-nibble operands takes `Ka·Kb` iterations, one cycle each.

use crate::accum::Accumulator;
use crate::config::{AccFormat, IpuConfig};
use crate::ehu::Ehu;
use crate::kernel::{nibble_shift, FpOperand, Lanes, FP16_ITERATIONS};
use crate::lane;
use mpipu_fp::{FixedPoint, Fp16, FpFormat, Nibbles};

/// Signedness of an INT-mode operand vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntSignedness {
    /// Two's-complement signed operands.
    Signed,
    /// Unsigned operands (the 5th multiplier bit absorbs the range).
    Unsigned,
}

/// Result of a completed (single-shot) FP inner product.
#[derive(Debug, Clone, Copy)]
pub struct FpIpResult {
    /// Exact accumulator contents after the operation.
    pub fixed: FixedPoint,
    /// Write-back rounded to FP16.
    pub fp16: Fp16,
    /// Write-back rounded to FP32.
    pub f32: f32,
    /// Datapath cycles consumed (9 for a plain IPU).
    pub cycles: u64,
}

/// The approximate inner-product unit.
///
/// Holds accumulator state so callers can chain multiple vector pairs into
/// one output pixel (`fp_ip_accumulate` / `int_ip_accumulate`), or use the
/// single-shot helpers that reset first.
///
/// # Example
///
/// ```
/// use mpipu_datapath::{Ipu, IpuConfig};
/// use mpipu_fp::{Fp16, FpFormat};
///
/// // A 16-input IPU with a 28-bit adder tree and FP32 accumulation.
/// let mut ipu = Ipu::new(IpuConfig::big(28));
/// let a: Vec<Fp16> = (1..=4).map(|i| Fp16::from_f32(i as f32)).collect();
/// let b = vec![Fp16::from_f32(0.5); 4];
/// let r = ipu.fp_ip(&a, &b);
/// assert_eq!(r.f32, 5.0);   // 0.5 · (1 + 2 + 3 + 4)
/// assert_eq!(r.cycles, 9);  // 9 nibble iterations, single partition
/// ```
#[derive(Debug, Clone)]
pub struct Ipu {
    cfg: IpuConfig,
    acc: Accumulator,
    cycles: u64,
    lanes: Lanes,
}

impl Ipu {
    /// Build an IPU from a validated configuration.
    pub fn new(cfg: IpuConfig) -> Self {
        cfg.validate();
        Ipu {
            cfg,
            acc: Accumulator::new(cfg),
            cycles: 0,
            lanes: Lanes::new(cfg.n),
        }
    }

    /// The unit's configuration.
    pub fn config(&self) -> &IpuConfig {
        &self.cfg
    }

    /// Total cycles consumed since the last [`Ipu::reset`].
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Borrow the accumulator (e.g. to inspect overflow flags).
    pub fn accumulator(&self) -> &Accumulator {
        &self.acc
    }

    /// Clear accumulator and cycle counter.
    pub fn reset(&mut self) {
        self.acc.reset();
        self.cycles = 0;
    }

    /// The unit's EHU: stage 4 masks alignments beyond both the software
    /// precision and the `w`-bit shifter range.
    fn ehu(&self) -> Ehu {
        Ehu::new(self.cfg.software_precision.min(self.cfg.w))
    }

    /// One FP16 inner product, accumulated on top of existing state.
    /// Returns the cycles consumed (always 9: one per nibble iteration).
    ///
    /// Decodes both vectors into the unit's scratch and runs
    /// [`Ipu::fp_ip_accumulate_decoded`]'s kernel; neither allocates once
    /// the unit is built.
    ///
    /// # Panics
    /// Panics if the vectors differ in length, exceed the lane count, or
    /// hold an infinity or NaN.
    pub fn fp_ip_accumulate(&mut self, a: &[Fp16], b: &[Fp16]) -> u64 {
        let ehu = self.ehu();
        self.lanes.load_fp16(ehu, a, b);
        self.run_iterations()
    }

    /// [`Ipu::fp_ip_accumulate`] over operands decoded by the caller — for
    /// operands reused across many inner products, such as layer weights.
    pub fn fp_ip_accumulate_decoded(&mut self, a: &[FpOperand], b: &[FpOperand]) -> u64 {
        let ehu = self.ehu();
        self.lanes.load(ehu, a, b);
        self.run_iterations()
    }

    /// Drive all nine nibble iterations over the loaded live lanes.
    ///
    /// This is the `FP_IP` loop of paper Fig 2: for each `(i, j)` the lanes
    /// multiply, locally align (shift-truncate to the `w`-bit window), the
    /// adder tree sums, and the accumulator applies the nibble-significance
    /// shift `4·((2−i)+(2−j))`. An op with no live lane still spends its
    /// nine cycles but leaves the accumulator untouched.
    fn run_iterations(&mut self) -> u64 {
        let w = self.cfg.w;
        let live = &self.lanes.live;
        if !live.is_empty() {
            for i in (0..3).rev() {
                for j in (0..3).rev() {
                    let sum = live.iter().map(|l| l.window(i, j, l.shift, w)).sum();
                    self.acc
                        .add_fp(sum, self.lanes.max_exp, nibble_shift(i, j), 0);
                }
            }
        }
        self.cycles += FP16_ITERATIONS;
        FP16_ITERATIONS
    }

    /// Single-shot FP16 inner product: reset, run, read out.
    pub fn fp_ip(&mut self, a: &[Fp16], b: &[Fp16]) -> FpIpResult {
        self.reset();
        let cycles = self.fp_ip_accumulate(a, b);
        FpIpResult {
            fixed: self.acc.fixed(),
            fp16: self.acc.read_fp16(),
            f32: self.acc.read_f32(),
            cycles,
        }
    }

    /// Read the FP accumulator in the configured write-back format,
    /// widened to `f64` for convenience.
    pub fn read_fp(&self) -> f64 {
        match self.cfg.acc {
            AccFormat::Fp16 => self.acc.read_fp16().to_f64(),
            AccFormat::Fp32 => self.acc.read_f32() as f64,
        }
    }

    /// Exact accumulator contents.
    pub fn read_fixed(&self) -> FixedPoint {
        self.acc.fixed()
    }

    /// Write-back rounded to FP32.
    pub fn read_f32(&self) -> f32 {
        self.acc.read_f32()
    }

    /// Write-back rounded to FP16.
    pub fn read_fp16(&self) -> Fp16 {
        self.acc.read_fp16()
    }

    /// One INT inner product accumulated on top of existing state.
    ///
    /// `ka`/`kb` are the nibble counts of the operand types (INT4 = 1,
    /// INT8 = 2, INT12 = 3, INT16 = 4); the operation takes `ka·kb`
    /// cycles (paper §2.1).
    pub fn int_ip_accumulate(
        &mut self,
        a: &[i32],
        b: &[i32],
        ka: usize,
        kb: usize,
        sa: IntSignedness,
        sb: IntSignedness,
    ) -> u64 {
        assert_eq!(a.len(), b.len());
        assert!(a.len() <= self.cfg.n);
        let dec = |v: &[i32], k: usize, s: IntSignedness| -> Vec<Nibbles> {
            v.iter()
                .map(|&x| Nibbles::from_int(x, k, matches!(s, IntSignedness::Signed)))
                .collect()
        };
        let na = dec(a, ka, sa);
        let nb = dec(b, kb, sb);
        let mut spent = 0;
        for i in 0..ka {
            for j in 0..kb {
                let mut sum: i64 = 0;
                for (x, y) in na.iter().zip(&nb) {
                    sum += i64::from(lane::mul5x5(x.n[i], y.n[j]));
                }
                self.acc.add_int(sum, i, j);
                spent += 1;
            }
        }
        self.cycles += spent;
        spent
    }

    /// Single-shot INT inner product: reset, run, return the exact value.
    pub fn int_ip(
        &mut self,
        a: &[i32],
        b: &[i32],
        ka: usize,
        kb: usize,
        sa: IntSignedness,
        sb: IntSignedness,
    ) -> i128 {
        self.reset();
        self.int_ip_accumulate(a, b, ka, kb, sa, sb);
        self.acc.read_int()
    }

    /// INT accumulator contents.
    pub fn read_int(&self) -> i128 {
        self.acc.read_int()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{exact_dot_fp16, f64_dot};
    use mpipu_fp::FpFormat;

    fn fp16v(v: &[f32]) -> Vec<Fp16> {
        v.iter().map(|&x| Fp16::from_f32(x)).collect()
    }

    #[test]
    fn int4_single_cycle_dot() {
        let mut ipu = Ipu::new(IpuConfig::big(16));
        let a = [1, -2, 3, -4, 5, -6, 7, -8];
        let b = [7, 6, 5, 4, 3, 2, 1, 0];
        let expect: i128 = a.iter().zip(&b).map(|(&x, &y)| (x * y) as i128).sum();
        let c = ipu.int_ip(&a, &b, 1, 1, IntSignedness::Signed, IntSignedness::Signed);
        assert_eq!(c, expect);
        assert_eq!(ipu.cycles(), 1);
    }

    #[test]
    fn int8_by_int12_takes_six_cycles() {
        // Paper §2.1: INT8 × INT12 needs 2·3 = 6 nibble iterations.
        let mut ipu = Ipu::new(IpuConfig::big(16));
        let a = [100, -128, 127, 55];
        let b = [2000, -2048, 2047, -999];
        let expect: i128 = a.iter().zip(&b).map(|(&x, &y)| (x * y) as i128).sum();
        let c = ipu.int_ip(&a, &b, 2, 3, IntSignedness::Signed, IntSignedness::Signed);
        assert_eq!(c, expect);
        assert_eq!(ipu.cycles(), 6);
    }

    #[test]
    fn int16_unsigned_exact() {
        let mut ipu = Ipu::new(IpuConfig::big(16));
        let a = [65535, 12345, 0, 40000];
        let b = [65535, 54321, 99, 2];
        let expect: i128 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| (x as i128) * (y as i128))
            .sum();
        let c = ipu.int_ip(
            &a,
            &b,
            4,
            4,
            IntSignedness::Unsigned,
            IntSignedness::Unsigned,
        );
        assert_eq!(c, expect);
        assert_eq!(ipu.cycles(), 16);
    }

    #[test]
    fn fp16_identity_products_exact_with_wide_tree() {
        let mut ipu = Ipu::new(IpuConfig::big(38));
        let a = fp16v(&[1.0, 2.0, -3.0, 0.5]);
        let b = fp16v(&[1.0, 1.0, 1.0, 1.0]);
        let r = ipu.fp_ip(&a, &b);
        assert_eq!(r.cycles, 9);
        assert_eq!(r.f32, 0.5);
        assert_eq!(r.fixed.to_f64(), 0.5);
    }

    #[test]
    fn fp16_matches_exact_reference_when_alignment_small() {
        // All inputs in [1, 2): product exponents within [0, 2], so a
        // 28-bit tree is exact (Proposition 1) and the accumulator keeps
        // every bit.
        let a = fp16v(&[1.5, 1.25, 1.75, 1.0, 1.125, 1.0625, 1.5, 1.9375]);
        let b = fp16v(&[1.0, 1.5, 1.25, 1.75, 1.9375, 1.0, 1.125, 1.0625]);
        let mut ipu = Ipu::new(IpuConfig::small(28));
        let r = ipu.fp_ip(&a, &b);
        let exact = exact_dot_fp16(&a, &b).to_f64();
        assert_eq!(r.fixed.to_f64(), exact);
        assert_eq!(r.f32, exact as f32);
    }

    #[test]
    fn fp16_zero_lanes_are_skipped() {
        let a = fp16v(&[0.0, 1e-7, 2.0]);
        let b = fp16v(&[5.0, 0.0, 3.0]);
        let mut ipu = Ipu::new(IpuConfig::big(28));
        let r = ipu.fp_ip(&a, &b);
        assert_eq!(r.f32, 6.0);
    }

    #[test]
    fn fp16_subnormal_inputs() {
        let tiny = f32::from(Fp16(0x0001)); // 2^-24
        let a = fp16v(&[tiny, tiny]);
        let b = fp16v(&[1.0, 1.0]);
        let mut ipu = Ipu::new(IpuConfig::big(38));
        let r = ipu.fp_ip(&a, &b);
        assert_eq!(r.fixed.to_f64(), 2.0 * 2f64.powi(-24));
    }

    #[test]
    fn fp16_all_zero_op_keeps_accumulator() {
        let mut ipu = Ipu::new(IpuConfig::big(28));
        ipu.fp_ip_accumulate(&fp16v(&[1.0]), &fp16v(&[1.0]));
        let before = ipu.read_fixed().to_f64();
        ipu.fp_ip_accumulate(&fp16v(&[0.0, 0.0]), &fp16v(&[0.0, 3.0]));
        assert_eq!(ipu.read_fixed().to_f64(), before);
    }

    #[test]
    fn fp16_accumulate_across_ops() {
        let mut ipu = Ipu::new(IpuConfig::big(28));
        for _ in 0..8 {
            ipu.fp_ip_accumulate(&fp16v(&[1.0, 2.0]), &fp16v(&[3.0, 4.0]));
        }
        assert_eq!(ipu.read_f32(), 8.0 * 11.0);
        assert_eq!(ipu.cycles(), 72);
    }

    #[test]
    fn narrow_tree_truncates_small_products() {
        // One dominant product and one tiny one: with w = 12 the tiny
        // product's bits fall off the window; with w = 38 they survive.
        let a = fp16v(&[1024.0, 1.0 / 1024.0]);
        let b = fp16v(&[1.0, 1.0]);
        let exact = f64_dot(&a, &b);
        let mut narrow = Ipu::new(IpuConfig::big(12));
        let mut wide = Ipu::new(IpuConfig::big(38));
        let rn = narrow.fp_ip(&a, &b).fixed.to_f64();
        let rw = wide.fp_ip(&a, &b).fixed.to_f64();
        assert_eq!(rw, exact);
        assert!((rn - exact).abs() > 0.0, "narrow tree should truncate");
        assert!((rn - exact).abs() / exact < 1e-3);
    }

    #[test]
    fn widest_valid_tree_is_exact_on_worst_case_vector() {
        // w + t = 64: sixteen (−2047)·(−2047) products, the largest adder-tree
        // sum a 16-lane unit can form, still fit the 64-bit sum.
        let v = fp16v(&[-2047.0; 16]);
        let r = Ipu::new(IpuConfig::big(60)).fp_ip(&v, &v);
        assert_eq!(r.fixed.to_f64(), 67_043_344.0);
    }

    #[test]
    #[should_panic(expected = "exceeds the")]
    fn oversized_vector_panics() {
        let mut ipu = Ipu::new(IpuConfig::small(16));
        let v = fp16v(&[1.0; 9]);
        ipu.fp_ip(&v, &v);
    }
}
