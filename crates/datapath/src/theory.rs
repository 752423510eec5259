//! Analytical results: Theorem 1 (absolute error bound of the approximate
//! nibble iteration), Proposition 1 (safe precision), and the MC-IPU
//! partition width the datapath and the cycle model in `mpipu-sim` share.

/// Safe precision of an `IPU(w)`: alignments strictly below `w − 9` are
/// served exactly by the local shifter (Proposition 1). Saturates at 1 for
/// pathologically narrow trees so partitioning never divides by zero.
pub fn safe_precision(w: u32) -> u32 {
    w.saturating_sub(9).max(1)
}

/// The MC-IPU partition width (EHU stage 5) for adder-tree width `w` under
/// stage-4 software precision `software_precision`: a lane aligned by `s`
/// runs in cycle `⌊s / width⌋` of each nibble iteration. A tree as wide as
/// the software precision serves every alignment `s ≤ software_precision`
/// in one cycle; a narrower one partitions by the safe precision.
#[inline]
pub fn partition_width(w: u32, software_precision: u32) -> u32 {
    if w >= software_precision {
        software_precision.saturating_add(1)
    } else {
        safe_precision(w)
    }
}

/// Theorem 1, as printed in the paper: the absolute error of
/// `approx_nibble_iteration(i, j, precision)` over `n` FP16 product pairs
/// with maximum product exponent `max` is at most
///
/// ```text
/// 225 · 2^(4(i+j) − 22) · 2^(max − precision) · (n − 1)
/// ```
///
/// The constant 225 assumes nibble magnitudes of at most 15 (as in the
/// paper's proof outline).
pub fn theorem1_bound(i: u32, j: u32, precision: u32, max_exp: i32, n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    225.0
        * ((4 * (i + j)) as f64 - 22.0).exp2()
        * ((max_exp - precision as i32) as f64).exp2()
        * (n - 1) as f64
}

/// A slightly looser but airtight variant of the Theorem 1 bound.
///
/// Three corrections to the printed constant:
///
/// * the signed top slice `N2` reaches −16, so a single nibble product
///   reaches magnitude 256 (= (−16)·(−16)), not 225;
/// * every lane can err, not just `n − 1`: truncation toward −∞ loses up
///   to one unit in the last kept place even on lanes that are not
///   shifted out entirely;
/// * the per-lane error is dominated by the *window grain*: the `w`-bit
///   window keeps the product down to weight `2^(10−w)` on the product
///   grid, so a kept lane's truncation reaches `2^10 · 2^−precision` —
///   larger than the fully-masked-product term `256 · 2^−precision`.
///   Hence the constant `1024 = 2^10`.
///
/// Our property tests verify the emulated datapath against this bound for
/// every nibble iteration.
pub fn theorem1_bound_tight(i: u32, j: u32, precision: u32, max_exp: i32, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    1024.0
        * ((4 * (i + j)) as f64 - 22.0).exp2()
        * ((max_exp - precision as i32) as f64).exp2()
        * n as f64
}

/// Remark 1: iterations of the most significant nibbles (largest `i + j`)
/// dominate the absolute error. Returns the nibble-pair order sorted by
/// decreasing error significance.
pub fn error_significance_order() -> [(u32, u32); 9] {
    let mut pairs = [(0u32, 0u32); 9];
    let mut idx = 0;
    for i in 0..3 {
        for j in 0..3 {
            pairs[idx] = (i, j);
            idx += 1;
        }
    }
    pairs.sort_by_key(|&(i, j)| std::cmp::Reverse(i + j));
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safe_precision_matches_paper() {
        assert_eq!(safe_precision(12), 3);
        assert_eq!(safe_precision(14), 5); // Fig 4 walk-through: sp = 5
        assert_eq!(safe_precision(16), 7);
        assert_eq!(safe_precision(28), 19);
        assert_eq!(safe_precision(9), 1);
    }

    #[test]
    fn bound_is_zero_for_single_lane() {
        assert_eq!(theorem1_bound(2, 2, 16, 0, 1), 0.0);
    }

    #[test]
    fn bound_scales_with_nibble_significance() {
        // Remark 1: doubling i+j by 1 scales the bound by 2^4.
        let b00 = theorem1_bound(0, 0, 16, 0, 16);
        let b01 = theorem1_bound(0, 1, 16, 0, 16);
        let b22 = theorem1_bound(2, 2, 16, 0, 16);
        assert_eq!(b01 / b00, 16.0);
        assert_eq!(b22 / b00, 2f64.powi(16));
    }

    #[test]
    fn bound_halves_per_extra_precision_bit() {
        let b16 = theorem1_bound(2, 2, 16, 0, 16);
        let b17 = theorem1_bound(2, 2, 17, 0, 16);
        assert_eq!(b16 / b17, 2.0);
    }

    #[test]
    fn tight_bound_dominates_printed_bound() {
        for p in 8..30 {
            for n in 2..32 {
                assert!(theorem1_bound_tight(2, 2, p, 5, n) >= theorem1_bound(2, 2, p, 5, n));
            }
        }
    }

    #[test]
    fn significance_order_starts_at_2_2() {
        let order = error_significance_order();
        assert_eq!(order[0], (2, 2));
        assert_eq!(order[8], (0, 0));
        assert_eq!(order[1].0 + order[1].1, 3);
    }
}
