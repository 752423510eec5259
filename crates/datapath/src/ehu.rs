//! Exponent Handling Unit (EHU) — paper §2.2 and Fig 5.
//!
//! The EHU runs once per FP inner-product operation (its result is shared
//! by all nibble iterations, which is why one EHU can be time-multiplexed
//! across several IPUs). Its five stages are:
//!
//! 1. element-wise sum of the operands' unbiased exponents → product
//!    exponents;
//! 2. maximum of the product exponents;
//! 3. per-product alignment = `max − exp`;
//! 4. mask products whose alignment exceeds the *software precision*
//!    (they cannot affect the accumulator's kept bits);
//! 5. *(MC-IPU only)* iterate: each cycle `k` serves the products whose
//!    alignment falls in the safe-precision window
//!    `[k·sp, (k+1)·sp)`, tracking a `serv` bit per product.

/// The alignment plan the EHU hands to the datapath.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignmentPlan {
    /// Maximum product exponent (the adder-tree exponent).
    pub max_exp: i32,
    /// Per-lane alignment: `Some(shift)` for live lanes, `None` for lanes
    /// masked by stage 4 (alignment > software precision) or with a zero
    /// operand.
    pub shifts: Vec<Option<u32>>,
}

impl AlignmentPlan {
    /// Number of live (unmasked) lanes.
    pub fn live_lanes(&self) -> usize {
        self.shifts.iter().filter(|s| s.is_some()).count()
    }

    /// The MC-IPU partition index of each live lane for safe precision
    /// `sp`: lane with alignment `s` executes in cycle `⌊s / sp⌋`.
    pub fn partition_of(&self, lane: usize, sp: u32) -> Option<u32> {
        self.shifts[lane].map(|s| s / sp.max(1))
    }

    /// The occupied partitions as a bitmask (bit `k` set ⇔ some live lane
    /// executes in cycle `k`), or `None` when a partition index exceeds
    /// 63 and the bounded bucket scan does not apply.
    ///
    /// For FP16 product exponents the alignment range is bounded (stage 4
    /// masks anything beyond the software precision, itself ≤ 28 for FP32
    /// accumulation), so every partition index fits in a `u64` mask and
    /// the scan is a single O(n) pass with zero allocation.
    pub fn partition_mask(&self, sp: u32) -> Option<u64> {
        partition_mask(self.shifts.iter().copied(), sp)
    }

    /// The set of non-empty partitions (sorted ascending) for safe
    /// precision `sp` — the number of cycles an MC-IPU spends per nibble
    /// iteration (paper §3.2). Empty input ⇒ one (idle) cycle.
    ///
    /// Counting-sort fast path: scan the lanes once into a partition
    /// bitmask and read the sorted set out of it (O(n + range), no
    /// comparison sort). Falls back to [`Self::partitions_naive`] in the
    /// unbounded case (partition index ≥ 64), which cannot arise from
    /// stage-4-masked FP16 plans.
    pub fn partitions(&self, sp: u32) -> Vec<u32> {
        match self.partition_mask(sp) {
            Some(mask) => mask_to_partitions(mask),
            None => self.partitions_naive(sp),
        }
    }

    /// Sort-based reference implementation of [`Self::partitions`],
    /// retained as the equivalence oracle for the property tests and as
    /// the benchmark baseline.
    pub fn partitions_naive(&self, sp: u32) -> Vec<u32> {
        let mut ks: Vec<u32> = self
            .shifts
            .iter()
            .flatten()
            .map(|&s| s / sp.max(1))
            .collect();
        ks.sort_unstable();
        ks.dedup();
        if ks.is_empty() {
            ks.push(0);
        }
        ks
    }

    /// Cycles per nibble iteration for an MC-IPU with safe precision `sp`.
    ///
    /// Zero allocation on the bounded fast path: the stage-5 count
    /// ([`occupied_windows`]) of the plan's alignment set.
    pub fn cycles(&self, sp: u32) -> u32 {
        match alignment_set(self.shifts.iter().copied()) {
            Some(set) => occupied_windows(set, sp),
            None => self.partitions_naive(sp).len() as u32,
        }
    }
}

/// Collect live alignments into an alignment set (bit `s` set ⇔ some lane
/// aligns by `s`); `None` if any alignment is ≥ 64 (caller falls back to
/// the sort path).
fn alignment_set(shifts: impl Iterator<Item = Option<u32>>) -> Option<u64> {
    let mut set = 0u64;
    for s in shifts.flatten() {
        if s >= u64::BITS {
            return None;
        }
        set |= 1 << s;
    }
    Some(set)
}

/// EHU stage 5 on an alignment set: the number of safe-precision windows
/// `[k·sp, (k+1)·sp)` holding at least one alignment — the cycles an
/// MC-IPU spends per nibble iteration. An empty set (no live lane) idles
/// one cycle. `sp = 0` is treated as 1.
///
/// The one definition of the count: [`AlignmentPlan::cycles`],
/// [`Ehu::partition_count`] and the Monte-Carlo simulator all call it.
pub fn occupied_windows(alignments: u64, sp: u32) -> u32 {
    // Windows at or past 64 alignments hold nothing: clamp so the
    // smearing below stays within the word.
    let sp = sp.clamp(1, u64::BITS);
    // Smear every alignment down over the `sp − 1` positions below it
    // (bit `i` becomes the OR of bits `i..i + width`, widening until
    // `width = sp`), so bit `k·sp` ends up set iff window `k` is occupied.
    let mut smeared = alignments;
    let mut width = 1;
    while width < sp {
        let step = width.min(sp - width);
        smeared |= smeared >> step;
        width += step;
    }
    (smeared & WINDOW_STARTS[sp as usize]).count_ones().max(1)
}

/// `WINDOW_STARTS[sp]` has bit `k·sp` set for every window starting below
/// alignment 64.
const WINDOW_STARTS: [u64; 65] = {
    let mut table = [0u64; 65];
    let mut sp = 1;
    while sp <= 64 {
        let mut start = 0;
        while start < 64 {
            table[sp] |= 1 << start;
            start += sp;
        }
        sp += 1;
    }
    table
};

/// Bucket-scan the live alignments into a partition bitmask; `None` if
/// any partition index is ≥ 64 (caller falls back to the sort path).
fn partition_mask(shifts: impl Iterator<Item = Option<u32>>, sp: u32) -> Option<u64> {
    let sp = sp.max(1);
    let mut mask = 0u64;
    for s in shifts.flatten() {
        let k = s / sp;
        if k >= u64::BITS {
            return None;
        }
        mask |= 1 << k;
    }
    Some(mask)
}

/// Expand a partition bitmask into the ascending partition list (empty
/// mask ⇒ the single idle partition 0).
fn mask_to_partitions(mask: u64) -> Vec<u32> {
    if mask == 0 {
        return vec![0];
    }
    partition_bits(mask).collect()
}

/// The set bits of a partition bitmask, ascending.
pub(crate) fn partition_bits(mut mask: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let k = mask.trailing_zeros();
            mask &= mask - 1;
            k
        })
    })
}

/// Bit offset of product exponent `p` in the set form taken by
/// [`Ehu::align_set`]: FP16 product exponents span `[-28, 30]`, so bit
/// `p + PRODUCT_EXP_BIAS` lies in 0..=58.
pub const PRODUCT_EXP_BIAS: i32 = 28;

/// The exponent handling unit.
///
/// Stateless; [`Ehu::plan`] is a pure function of the product exponents.
#[derive(Debug, Clone, Copy)]
pub struct Ehu {
    /// Software precision: stage-4 masking threshold.
    pub software_precision: u32,
}

impl Ehu {
    /// Create an EHU with the given stage-4 masking threshold.
    pub fn new(software_precision: u32) -> Self {
        Ehu { software_precision }
    }

    /// EHU stages 1–4 for one FP inner product, shared by [`Ehu::plan`]
    /// and the datapath kernels: the adder-tree exponent (0 when no product
    /// is live) and each lane's alignment, `None` for a zero operand or a
    /// lane masked by stage 4. `product_exps` yields the stage-1 product
    /// exponents as [`Ehu::plan`] takes them; it is walked twice, once for
    /// the maximum and once by the returned alignments.
    pub(crate) fn align<I>(&self, product_exps: I) -> (i32, impl Iterator<Item = Option<u32>>)
    where
        I: Iterator<Item = Option<i32>> + Clone,
    {
        let max_exp = product_exps.clone().flatten().max().unwrap_or(0);
        let software_precision = self.software_precision;
        let shifts = product_exps.map(move |e| {
            e.and_then(|e| {
                let s = (max_exp - e) as u32;
                // Stage 4: beyond the software precision the product
                // cannot reach the accumulator's kept bits.
                (s <= software_precision).then_some(s)
            })
        });
        (max_exp, shifts)
    }

    /// EHU stages 2–4 on the set form of one inner product's product
    /// exponents: `product_exps` has bit `p + PRODUCT_EXP_BIAS` set for
    /// every live product exponent `p` (FP16 products span `[-28, 30]`,
    /// so bits 0..=58). Lanes with equal exponents collapse into one bit,
    /// which no later stage can tell apart. Returns the alignment set:
    /// bit `s` set ⇔ some live lane aligns by `s ≤ software_precision`.
    /// Stage 2 is the highest set bit; the empty set (every lane dead)
    /// maps to the empty set.
    pub fn align_set(&self, product_exps: u64) -> u64 {
        if product_exps == 0 {
            return 0;
        }
        let max = u64::BITS - 1 - product_exps.leading_zeros();
        // Stage 3: reversing the word maps bit `b` to `63 − b`, and the
        // shift moves the maximum to alignment 0 — bit `max − b`.
        let aligned = product_exps.reverse_bits() >> (u64::BITS - 1 - max);
        // Stage 4: keep alignments `0..=software_precision`.
        match 1u64.checked_shl(self.software_precision.saturating_add(1)) {
            Some(limit) => aligned & (limit - 1),
            None => aligned,
        }
    }

    /// Compute the alignment plan for one FP inner product.
    ///
    /// `product_exps[k]` is the unbiased exponent of product `k`
    /// (`exp(a_k) + exp(b_k)`), or `None` when either operand is zero —
    /// zero operands contribute nothing and must not win the max (a
    /// hardware EHU gates them with the operand-zero flags).
    pub fn plan(&self, product_exps: &[Option<i32>]) -> AlignmentPlan {
        let (max_exp, shifts) = self.align(product_exps.iter().copied());
        AlignmentPlan {
            max_exp,
            shifts: shifts.collect(),
        }
    }

    /// Cycles per nibble iteration for safe precision `sp`, straight from
    /// the product exponents.
    ///
    /// Equivalent to `self.plan(product_exps).cycles(sp)` but with zero
    /// allocation: stages 2–4 (`Ehu::align`) collected into an
    /// alignment set, then the stage-5 count ([`occupied_windows`]).
    /// Falls back to the allocating plan when an alignment reaches 64,
    /// which stage-4 masking rules out for any real FP16 configuration.
    pub fn partition_count(&self, product_exps: &[Option<i32>], sp: u32) -> u32 {
        let (_, shifts) = self.align(product_exps.iter().copied());
        match alignment_set(shifts) {
            Some(set) => occupied_windows(set, sp),
            None => self.plan(product_exps).partitions_naive(sp).len() as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exps(v: &[i32]) -> Vec<Option<i32>> {
        v.iter().map(|&e| Some(e)).collect()
    }

    #[test]
    fn walkthrough_example_fig4() {
        // Paper Fig 4: exponents (10, 2, 3, 8) ⇒ alignments (0, 8, 7, 2);
        // with sp = 5 products A,D run in cycle 0 and B,C in cycle 1.
        let plan = Ehu::new(28).plan(&exps(&[10, 2, 3, 8]));
        assert_eq!(plan.max_exp, 10);
        assert_eq!(plan.shifts, vec![Some(0), Some(8), Some(7), Some(2)]);
        assert_eq!(plan.partitions(5), vec![0, 1]);
        assert_eq!(plan.cycles(5), 2);
        assert_eq!(plan.partition_of(0, 5), Some(0));
        assert_eq!(plan.partition_of(1, 5), Some(1));
        assert_eq!(plan.partition_of(2, 5), Some(1));
        assert_eq!(plan.partition_of(3, 5), Some(0));
    }

    #[test]
    fn stage4_masks_beyond_software_precision() {
        let plan = Ehu::new(16).plan(&exps(&[0, -17, -16, -30]));
        assert_eq!(plan.max_exp, 0);
        assert_eq!(plan.shifts, vec![Some(0), None, Some(16), None]);
        assert_eq!(plan.live_lanes(), 2);
    }

    #[test]
    fn zero_operands_do_not_win_max() {
        let plan = Ehu::new(28).plan(&[Some(-5), None, Some(-9)]);
        assert_eq!(plan.max_exp, -5);
        assert_eq!(plan.shifts, vec![Some(0), None, Some(4)]);
    }

    #[test]
    fn all_zero_vector_yields_idle_single_cycle() {
        let plan = Ehu::new(28).plan(&[None, None]);
        assert_eq!(plan.live_lanes(), 0);
        assert_eq!(plan.cycles(7), 1);
    }

    #[test]
    fn uniform_exponents_take_one_cycle() {
        let plan = Ehu::new(28).plan(&exps(&[3; 16]));
        assert_eq!(plan.cycles(3), 1);
        assert_eq!(plan.cycles(19), 1);
    }

    #[test]
    fn worst_case_fp16_spread_needs_many_cycles() {
        // Max product exponent 30, min −28 ⇒ alignment 58; with sp = 3
        // (w = 12) and software precision 28, alignments 0 and 28 live.
        let plan = Ehu::new(28).plan(&exps(&[30, -28, 2]));
        assert_eq!(plan.shifts, vec![Some(0), None, Some(28)]);
        assert_eq!(plan.partitions(3), vec![0, 9]);
    }

    #[test]
    fn bucket_scan_agrees_with_naive_sort() {
        let cases: &[&[i32]] = &[
            &[10, 2, 3, 8],
            &[0, -17, -16, -30],
            &[30, -28, 2],
            &[3; 16],
            &[5],
        ];
        for &exps_raw in cases {
            let plan = Ehu::new(28).plan(&exps(exps_raw));
            for sp in 1..=29 {
                assert_eq!(
                    plan.partitions(sp),
                    plan.partitions_naive(sp),
                    "exps {exps_raw:?} sp {sp}"
                );
                assert_eq!(plan.cycles(sp), plan.partitions_naive(sp).len() as u32);
            }
        }
    }

    #[test]
    fn partition_count_matches_plan_cycles() {
        let ehu = Ehu::new(28);
        let vectors: &[&[Option<i32>]] = &[
            &[Some(10), Some(2), Some(3), Some(8)],
            &[Some(-5), None, Some(-9)],
            &[None, None],
            &[Some(30), Some(-28), Some(2)],
        ];
        for &v in vectors {
            for sp in [1, 3, 5, 7, 11, 29] {
                assert_eq!(
                    ehu.partition_count(v, sp),
                    ehu.plan(v).cycles(sp),
                    "{v:?} sp {sp}"
                );
            }
        }
    }

    #[test]
    fn set_form_prices_the_walkthrough_like_the_plan() {
        // Fig 4 as a product-exponent set: alignments {0, 2, 7, 8}.
        let ehu = Ehu::new(28);
        let set = [10, 2, 3, 8]
            .iter()
            .fold(0u64, |s, &e| s | 1 << (e + PRODUCT_EXP_BIAS));
        let aligned = ehu.align_set(set);
        assert_eq!(aligned, 1 | 1 << 2 | 1 << 7 | 1 << 8);
        assert_eq!(occupied_windows(aligned, 5), 2);
        assert_eq!(occupied_windows(aligned, 1), 4);
        // Stage 4 drops alignments past the software precision, and an
        // all-dead vector idles one cycle.
        assert_eq!(Ehu::new(7).align_set(set), 1 | 1 << 2 | 1 << 7);
        assert_eq!(ehu.align_set(0), 0);
        assert_eq!(occupied_windows(0, 5), 1);
        // The widest FP16 spread: products 30 and −28 align by 58.
        let wide = 1u64 << 58 | 1;
        assert_eq!(Ehu::new(64).align_set(wide), wide);
        assert_eq!(occupied_windows(wide, u32::MAX), 1);
    }

    #[test]
    fn huge_alignments_fall_back_to_sort_path() {
        // software precision far beyond the u64 mask: partition indices
        // up to 1000 force the naive fallback on both entry points.
        let ehu = Ehu::new(10_000);
        let v = exps(&[0, -1000, -400]);
        let plan = ehu.plan(&v);
        assert_eq!(plan.partition_mask(1), None);
        assert_eq!(plan.partitions(1), vec![0, 400, 1000]);
        assert_eq!(plan.cycles(1), 3);
        assert_eq!(ehu.partition_count(&v, 1), 3);
    }

    #[test]
    fn partition_boundary_is_half_open() {
        // Alignment exactly k·sp belongs to partition k.
        let plan = Ehu::new(28).plan(&exps(&[10, 5, 10 - 5 - 4]));
        assert_eq!(plan.shifts, vec![Some(0), Some(5), Some(9)]);
        assert_eq!(plan.partition_of(1, 5), Some(1));
        assert_eq!(plan.partition_of(2, 5), Some(1));
    }
}
