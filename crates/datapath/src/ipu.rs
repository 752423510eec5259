//! The inner-product unit: `IPU(w)` (paper §2, Fig 1, Fig 2) and the
//! multi-cycle `MC-IPU(w)` (§3.2, Fig 4/5).
//!
//! A unit has `n` 5-bit signed multipliers, a local right shifter per lane
//! that can shift-and-truncate by up to `w` bits, a `w`-bit adder tree, and
//! the non-normalized accumulator. FP16 operations take nine nibble
//! iterations (3 nibbles × 3 nibbles); an INT operation of `Ka`- and
//! `Kb`-nibble operands takes `Ka·Kb` iterations, one cycle each.
//!
//! An `MC-IPU(w)` ([`Ipu::multi_cycle`]) keeps the narrow tree but serves
//! alignments up to the *software precision* by splitting each nibble
//! iteration into cycles. With partition width `sp` ([`partition_width`],
//! shared with the cycle model: the safe precision `w − 9`), cycle `k`
//! serves the products whose alignment lies in `[k·sp, (k+1)·sp)`:
//!
//! * lanes outside partition `k` are masked (the per-multiplier AND gates);
//! * surviving lanes shift locally by `s − k·sp` (< `sp`, hence exact by
//!   Proposition 1);
//! * the adder-tree result carries an extra post-shift of `k·sp`
//!   (`extra_sh_mnt` in Fig 4) into the accumulator.
//!
//! A tree as wide as the software precision takes one cycle per iteration
//! (§4.3), so `IPU(w)` ([`Ipu::new`]) is `MC-IPU(w)` with its software
//! precision clipped to `w`. [`McSchedule`] holds the cycles an op takes.

use crate::accum::Accumulator;
use crate::config::{AccFormat, IpuConfig};
use crate::ehu::{partition_bits, Ehu};
use crate::kernel::{nibble_shift, FpOperand, Lanes, FP16_ITERATIONS};
use crate::lane;
use crate::theory::partition_width;
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
    /// Datapath cycles consumed (9 for a single-partition op).
    pub cycles: u64,
}

/// Cycle schedule of one FP inner product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McSchedule {
    /// Non-empty alignment partitions as a bitmask: bit `k` is set when
    /// cycle `k` of each nibble iteration serves some lane. An op with no
    /// live lane idles one cycle in partition 0. FP16 alignments never
    /// exceed 58 bits, so every partition index fits.
    pub partition_mask: u64,
    /// Cycles each of the nine nibble iterations takes.
    pub cycles_per_iteration: u32,
    /// Nibble iterations per FP16 operation (9 = 3×3).
    pub iterations: u32,
    /// Total cycles: `iterations · cycles_per_iteration`.
    pub total_cycles: u64,
}

impl McSchedule {
    fn new(partition_mask: u64) -> Self {
        let cycles_per_iteration = partition_mask.count_ones();
        McSchedule {
            partition_mask,
            cycles_per_iteration,
            iterations: FP16_ITERATIONS as u32,
            total_cycles: FP16_ITERATIONS * u64::from(cycles_per_iteration),
        }
    }

    /// The non-empty alignment partitions, ascending.
    pub fn partitions(&self) -> impl Iterator<Item = u32> {
        partition_bits(self.partition_mask)
    }
}

/// The inner-product unit.
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
    /// The widest alignment EHU stage 4 serves.
    reach: u32,
}

impl Ipu {
    /// Build an `IPU(w)` from a validated configuration: EHU stage 4 masks
    /// alignments beyond both the software precision and the `w`-bit
    /// shifter range, so every op takes one cycle per nibble iteration.
    pub fn new(cfg: IpuConfig) -> Self {
        Self::build(cfg, cfg.software_precision.min(cfg.w))
    }

    /// Build an `MC-IPU(w)` from a validated configuration. The
    /// configuration's `software_precision` may exceed `w` — that is the
    /// whole point of the multi-cycle design.
    pub fn multi_cycle(cfg: IpuConfig) -> Self {
        Self::build(cfg, cfg.software_precision)
    }

    fn build(cfg: IpuConfig, reach: u32) -> Self {
        cfg.validate();
        Ipu {
            cfg,
            acc: Accumulator::new(cfg),
            cycles: 0,
            lanes: Lanes::new(cfg.n),
            reach,
        }
    }

    /// The unit's configuration.
    pub fn config(&self) -> &IpuConfig {
        &self.cfg
    }

    /// `true` when the adder tree covers every alignment stage 4 serves —
    /// the unit then takes one cycle per nibble iteration (§4.3: "IPUs
    /// with a 16b or larger adder tree take exactly one cycle per nibble
    /// iteration" under FP16 accumulation). Always so for [`Ipu::new`].
    fn single_cycle(&self) -> bool {
        self.cfg.w >= self.reach
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

    fn ehu(&self) -> Ehu {
        Ehu::new(self.reach)
    }

    /// Plan the cycle schedule for a pair of FP16 vectors without
    /// executing.
    pub fn schedule(&self, a: &[Fp16], b: &[Fp16]) -> McSchedule {
        self.lanes.check(a.len(), b.len());
        let exps = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| FpOperand::from_fp16(x).product_exp(FpOperand::from_fp16(y)));
        let (_, shifts) = self.ehu().align(exps);
        self.schedule_of(shifts.flatten())
    }

    /// Schedule for the live lanes' alignments; a single-cycle unit never
    /// looks at them.
    fn schedule_of(&self, live_shifts: impl Iterator<Item = u32>) -> McSchedule {
        if self.single_cycle() {
            return McSchedule::new(1);
        }
        let width = partition_width(self.cfg.w, self.reach);
        let mask = live_shifts.fold(0u64, |mask, s| mask | 1 << (s / width));
        McSchedule::new(mask.max(1))
    }

    /// One FP16 inner product, accumulated on top of existing state.
    /// Returns the schedule executed: 9 cycles for a single-partition op.
    ///
    /// Decodes both vectors into the unit's scratch and runs
    /// [`Ipu::fp_ip_accumulate_decoded`]'s kernel; neither allocates once
    /// the unit is built.
    ///
    /// # Panics
    /// Panics if the vectors differ in length, exceed the lane count, or
    /// hold an infinity or NaN.
    pub fn fp_ip_accumulate(&mut self, a: &[Fp16], b: &[Fp16]) -> McSchedule {
        let ehu = self.ehu();
        self.lanes.load_fp16(ehu, a, b);
        self.run_iterations()
    }

    /// [`Ipu::fp_ip_accumulate`] over operands decoded by the caller — for
    /// operands reused across many inner products, such as layer weights.
    pub fn fp_ip_accumulate_decoded(&mut self, a: &[FpOperand], b: &[FpOperand]) -> McSchedule {
        let ehu = self.ehu();
        self.lanes.load(ehu, a, b);
        self.run_iterations()
    }

    /// Drive all nine nibble iterations over the loaded live lanes.
    ///
    /// This is the `FP_IP` loop of paper Fig 2: for each `(i, j)` the lanes
    /// multiply, locally align (shift-truncate to the `w`-bit window), the
    /// adder tree sums, and the accumulator applies the nibble-significance
    /// shift `4·((2−i)+(2−j))`. An op with a live lane outside partition 0
    /// runs one cycle per occupied partition of each iteration instead. An
    /// op with no live lane still spends its nine cycles but leaves the
    /// accumulator untouched.
    fn run_iterations(&mut self) -> McSchedule {
        let sched = self.schedule_of(self.lanes.live.iter().map(|l| l.shift));
        let (w, width) = (self.cfg.w, partition_width(self.cfg.w, self.reach));
        let (live, max_exp) = (&self.lanes.live, self.lanes.max_exp);
        if sched.partition_mask != 1 {
            for i in (0..3).rev() {
                for j in (0..3).rev() {
                    for k in sched.partitions() {
                        // Cycle k: mask lanes outside [k·width, (k+1)·width),
                        // shift the rest locally by the remainder.
                        let sum = live
                            .iter()
                            .filter(|l| l.shift / width == k)
                            .map(|l| l.window(i, j, l.shift - k * width, w))
                            .sum();
                        self.acc.add_fp(sum, max_exp, nibble_shift(i, j), k * width);
                    }
                }
            }
        } else if !live.is_empty() {
            // Every live lane sits in partition 0 and aligns by its own
            // shift: no lane to mask, no post-shift.
            for i in (0..3).rev() {
                for j in (0..3).rev() {
                    let sum = live.iter().map(|l| l.window(i, j, l.shift, w)).sum();
                    self.acc.add_fp(sum, max_exp, nibble_shift(i, j), 0);
                }
            }
        }
        self.cycles += sched.total_cycles;
        sched
    }

    /// Single-shot FP16 inner product: reset, run, read out.
    pub fn fp_ip(&mut self, a: &[Fp16], b: &[Fp16]) -> FpIpResult {
        self.reset();
        let sched = self.fp_ip_accumulate(a, b);
        FpIpResult {
            fixed: self.acc.fixed(),
            fp16: self.acc.read_fp16(),
            f32: self.acc.read_f32(),
            cycles: sched.total_cycles,
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

    #[test]
    fn single_partition_matches_plain_ipu_bit_exact() {
        // All alignments below sp ⇒ one cycle per iteration and identical
        // numerics to IPU(w).
        let a = fp16v(&[1.5, 1.25, -1.75, 1.0625]);
        let b = fp16v(&[1.0, -1.5, 1.25, 1.75]);
        let cfg = IpuConfig::small(16);
        let mut mc = Ipu::multi_cycle(cfg);
        let mut ipu = Ipu::new(cfg);
        let rm = mc.fp_ip(&a, &b);
        let ri = ipu.fp_ip(&a, &b);
        assert_eq!(rm.fixed, ri.fixed);
        assert_eq!(rm.cycles, 9);
        assert_eq!(ri.cycles, 9);
    }

    #[test]
    fn fig4_walkthrough_two_cycles() {
        // Exponent spread (10, 2, 3, 8) with sp = 5 (w = 14): alignments
        // (0, 8, 7, 2) ⇒ partitions {0, 1} ⇒ 2 cycles per iteration.
        let a = fp16v(&[1024.0, 4.0, 8.0, 256.0]);
        let b = fp16v(&[1.0, 1.0, 1.0, 1.0]);
        let cfg = IpuConfig {
            n: 4,
            w: 14,
            software_precision: 28,
            acc: AccFormat::Fp32,
            headroom_l: 10,
        };
        let mc = Ipu::multi_cycle(cfg);
        let sched = mc.schedule(&a, &b);
        assert_eq!(sched.partitions().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(sched.total_cycles, 18);
    }

    #[test]
    fn multi_cycle_result_is_exact_for_spread_exponents() {
        // Alignment 28 with w = 12 would truncate everything on a plain
        // IPU; the MC-IPU recovers the small product exactly.
        let a = fp16v(&[1024.0, 1.0 / 1024.0, 512.0]);
        let b = fp16v(&[1024.0, 1.0 / 256.0, 2.0]);
        let cfg = IpuConfig {
            n: 3,
            w: 12,
            software_precision: 28,
            acc: AccFormat::Fp32,
            headroom_l: 10,
        };
        let mut mc = Ipu::multi_cycle(cfg);
        let r = mc.fp_ip(&a, &b);
        let exact = exact_dot_fp16(&a, &b).to_f64();
        // Product exponents are 20, −18 and 10 ⇒ alignments 0, 38, 10.
        // The 38-bit alignment exceeds the 28-bit software precision, so
        // EHU stage 4 masks that lane; the other two are exact despite the
        // 12-bit adder tree thanks to multi-cycling.
        let kept = 1024.0 * 1024.0 + 512.0 * 2.0;
        assert_eq!(r.fixed.to_f64(), kept);
        assert_eq!(exact, kept + 2f64.powi(-18));
    }

    #[test]
    fn masked_lanes_cost_no_cycles() {
        let a = fp16v(&[1024.0, 1.0 / 1024.0]);
        let b = fp16v(&[1024.0, 1.0 / 256.0]);
        let cfg = IpuConfig {
            n: 2,
            w: 12,
            software_precision: 28,
            acc: AccFormat::Fp32,
            headroom_l: 10,
        };
        let mc = Ipu::multi_cycle(cfg);
        // Shifts 0 and 38 → lane 1 masked → single partition.
        let sched = mc.schedule(&a, &b);
        assert_eq!(sched.partitions().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn deep_alignment_multi_cycle_recovers_accuracy() {
        // Products at alignment 20: IPU(12) truncates them entirely
        // (window is 12 bits); MC-IPU(12) serves them in partition 6 and
        // keeps the value.
        let big = 512.0f32; // exp 9 ⇒ product exp 18 with itself
        let small = 2.0f32.powi(-5); // product with itself: exp -10
        let a = fp16v(&[big, small]);
        let b = fp16v(&[big, small]);
        let exact = exact_dot_fp16(&a, &b).to_f64();
        let cfg = IpuConfig {
            n: 2,
            w: 12,
            software_precision: 28,
            acc: AccFormat::Fp32,
            headroom_l: 10,
        };
        let mut mc = Ipu::multi_cycle(cfg);
        let r = mc.fp_ip(&a, &b);
        assert_eq!(r.fixed.to_f64(), exact);
        assert!(r.cycles > 9, "required multiple cycles, got {}", r.cycles);
    }

    #[test]
    fn schedule_cycles_scale_with_spread() {
        let cfg = IpuConfig::small(12).with_software_precision(28);
        let mc = Ipu::multi_cycle(cfg);
        // sp = 3. Alignments 0..=27 across 8 lanes ⇒ up to 8 partitions.
        let a = fp16v(&[65504.0, 1.0, 0.5, 0.25, 0.125, 0.0625, 2.0, 4.0]);
        let b = fp16v(&[1.0; 8]);
        let sched = mc.schedule(&a, &b);
        assert!(sched.cycles_per_iteration >= 3);
        assert_eq!(sched.total_cycles, 9 * sched.cycles_per_iteration as u64);
    }

    #[test]
    fn int_mode_unaffected_by_mc() {
        let cfg = IpuConfig::small(12);
        let mut mc = Ipu::multi_cycle(cfg);
        let a = [1, 2, 3, 4];
        let b = [5, 6, 7, -8];
        let r = mc.int_ip(&a, &b, 1, 1, IntSignedness::Signed, IntSignedness::Signed);
        assert_eq!(r, 5 + 12 + 21 - 32);
        assert_eq!(mc.cycles(), 1);
    }

    #[test]
    fn accumulate_multiple_ops_tracks_cycles() {
        let cfg = IpuConfig::small(16).with_software_precision(28);
        let mut mc = Ipu::multi_cycle(cfg);
        let a = fp16v(&[2.0, 3.0]);
        let b = fp16v(&[4.0, 5.0]);
        let s1 = mc.fp_ip_accumulate(&a, &b);
        let s2 = mc.fp_ip_accumulate(&a, &b);
        assert_eq!(mc.read_f32(), 2.0 * 23.0);
        assert_eq!(mc.cycles(), s1.total_cycles + s2.total_cycles);
    }
}
