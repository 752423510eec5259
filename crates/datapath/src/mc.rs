//! `MC-IPU(w)` — the multi-cycle inner-product unit (paper §3.2, Fig 4/5).
//!
//! An MC-IPU keeps the narrow `w`-bit adder tree but serves alignments up
//! to the *software precision* by decomposing each nibble iteration into
//! multiple cycles. With safe precision `sp = w − 9`, cycle `k` serves the
//! products whose alignment lies in `[k·sp, (k+1)·sp)`:
//!
//! * lanes outside partition `k` are masked (the per-multiplier AND gates);
//! * surviving lanes shift locally by `s − k·sp` (< `sp`, hence exact by
//!   Proposition 1);
//! * the adder-tree result carries an extra post-shift of `k·sp`
//!   (`extra_sh_mnt` in Fig 4) into the accumulator.
//!
//! Numerically an MC-IPU is therefore at least as accurate as a
//! single-cycle `IPU(software_precision)`; the price is FP throughput,
//! captured by [`McSchedule`].

use crate::accum::Accumulator;
use crate::config::IpuConfig;
use crate::ehu::{partition_bits, Ehu};
use crate::ipu::{FpIpResult, IntSignedness, Ipu};
use crate::kernel::{nibble_shift, FpOperand, Lanes, FP16_ITERATIONS};
use mpipu_fp::{FixedPoint, Fp16};

/// Cycle schedule of one FP inner product on an MC-IPU.
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

/// The multi-cycle IPU.
#[derive(Debug, Clone)]
pub struct McIpu {
    cfg: IpuConfig,
    acc: Accumulator,
    cycles: u64,
    lanes: Lanes,
}

impl McIpu {
    /// Build an MC-IPU from a validated configuration. The configuration's
    /// `software_precision` may exceed `w` — that is the whole point of the
    /// multi-cycle design.
    pub fn new(cfg: IpuConfig) -> Self {
        cfg.validate();
        McIpu {
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

    /// Safe precision `sp = w − 9`.
    pub fn safe_precision(&self) -> u32 {
        self.cfg.safe_precision()
    }

    /// Total cycles consumed since the last [`McIpu::reset`].
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Clear accumulator and cycle counter.
    pub fn reset(&mut self) {
        self.acc.reset();
        self.cycles = 0;
    }

    /// Borrow the accumulator.
    pub fn accumulator(&self) -> &Accumulator {
        &self.acc
    }

    fn ehu(&self) -> Ehu {
        Ehu::new(self.cfg.software_precision)
    }

    /// Plan the cycle schedule for a pair of FP16 vectors without
    /// executing — used by the performance simulator, which only needs
    /// cycle counts.
    pub fn schedule(&self, a: &[Fp16], b: &[Fp16]) -> McSchedule {
        self.lanes.check(a.len(), b.len());
        let exps = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| FpOperand::from_fp16(x).product_exp(FpOperand::from_fp16(y)));
        let (_, shifts) = self.ehu().align(exps);
        self.schedule_of(shifts.flatten())
    }

    /// `true` when the adder tree already covers the software precision —
    /// the unit then runs as a plain approximate IPU, one cycle per nibble
    /// iteration (§4.3: "IPUs with a 16b or larger adder tree take exactly
    /// one cycle per nibble iteration" under FP16 accumulation).
    pub fn single_cycle(&self) -> bool {
        self.cfg.w >= self.cfg.software_precision
    }

    /// Alignment width each cycle serves: the safe precision, or — in
    /// single-cycle mode — a window wider than any alignment, so every
    /// live lane lands in partition 0 and aligns locally.
    fn window(&self) -> u32 {
        if self.single_cycle() {
            u32::MAX
        } else {
            self.safe_precision()
        }
    }

    /// Schedule for the live lanes' alignments.
    fn schedule_of(&self, live_shifts: impl Iterator<Item = u32>) -> McSchedule {
        let window = self.window();
        let mask = live_shifts.fold(0u64, |mask, s| mask | 1 << (s / window));
        McSchedule::new(mask.max(1))
    }

    /// One FP16 inner product, accumulated on top of existing state.
    /// Returns the schedule actually executed. Allocates nothing once the
    /// unit is built.
    pub fn fp_ip_accumulate(&mut self, a: &[Fp16], b: &[Fp16]) -> McSchedule {
        let ehu = self.ehu();
        self.lanes.load_fp16(ehu, a, b);
        let live = &self.lanes.live;
        let sched = self.schedule_of(live.iter().map(|l| l.shift));
        let (w, window) = (self.cfg.w, self.window());
        if !live.is_empty() {
            for i in (0..3).rev() {
                for j in (0..3).rev() {
                    for k in sched.partitions() {
                        // Cycle k: mask lanes outside [k·window, (k+1)·window),
                        // shift the rest locally by the remainder.
                        let sum = live
                            .iter()
                            .filter(|l| l.shift / window == k)
                            .map(|l| l.window(i, j, l.shift - k * window, w))
                            .sum();
                        self.acc
                            .add_fp(sum, self.lanes.max_exp, nibble_shift(i, j), k * window);
                    }
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

    /// INT mode is unchanged from the plain IPU (the MC machinery only
    /// affects FP alignment); provided for convenience so a tile can be
    /// built from MC-IPUs alone.
    pub fn int_ip(
        &mut self,
        a: &[i32],
        b: &[i32],
        ka: usize,
        kb: usize,
        sa: IntSignedness,
        sb: IntSignedness,
    ) -> i128 {
        let mut ipu = Ipu::new(self.cfg);
        let r = ipu.int_ip(a, b, ka, kb, sa, sb);
        self.cycles += ipu.cycles();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AccFormat;
    use crate::reference::exact_dot_fp16;
    use mpipu_fp::FpFormat;

    fn fp16v(v: &[f32]) -> Vec<Fp16> {
        v.iter().map(|&x| Fp16::from_f32(x)).collect()
    }

    #[test]
    fn single_partition_matches_plain_ipu_bit_exact() {
        // All alignments below sp ⇒ one cycle per iteration and identical
        // numerics to IPU(w).
        let a = fp16v(&[1.5, 1.25, -1.75, 1.0625]);
        let b = fp16v(&[1.0, -1.5, 1.25, 1.75]);
        let cfg = IpuConfig::small(16);
        let mut mc = McIpu::new(cfg);
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
        let mc = McIpu::new(cfg);
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
        let mut mc = McIpu::new(cfg);
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
        let mc = McIpu::new(cfg);
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
        let mut mc = McIpu::new(cfg);
        let r = mc.fp_ip(&a, &b);
        assert_eq!(r.fixed.to_f64(), exact);
        assert!(r.cycles > 9, "required multiple cycles, got {}", r.cycles);
    }

    #[test]
    fn schedule_cycles_scale_with_spread() {
        let cfg = IpuConfig::small(12).with_software_precision(28);
        let mc = McIpu::new(cfg);
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
        let mut mc = McIpu::new(cfg);
        let a = [1, 2, 3, 4];
        let b = [5, 6, 7, -8];
        let r = mc.int_ip(&a, &b, 1, 1, IntSignedness::Signed, IntSignedness::Signed);
        assert_eq!(r, 5 + 12 + 21 - 32);
        assert_eq!(mc.cycles(), 1);
    }

    #[test]
    fn accumulate_multiple_ops_tracks_cycles() {
        let cfg = IpuConfig::small(16).with_software_precision(28);
        let mut mc = McIpu::new(cfg);
        let a = fp16v(&[2.0, 3.0]);
        let b = fp16v(&[4.0, 5.0]);
        let s1 = mc.fp_ip_accumulate(&a, &b);
        let s2 = mc.fp_ip_accumulate(&a, &b);
        assert_eq!(mc.read_f32(), 2.0 * 23.0);
        assert_eq!(mc.cycles(), s1.total_cycles + s2.total_cycles);
    }
}
