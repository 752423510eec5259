//! Nibble decomposition of operands for the 5b×5b multiplier array.
//!
//! The IPU's multipliers are 5-bit signed. A 12-bit signed magnitude
//! `M[11:0]` is decomposed into three 5-bit operands (paper §2.2):
//!
//! ```text
//! N2 = { M11 .. M7 }      — signed slice, carries the sign
//! N1 = { 0, M6 .. M3 }    — unsigned slice, zero-extended
//! N0 = { 0, M2 .. M0, 0 } — unsigned slice, pre-shifted LEFT by one
//! ```
//!
//! which satisfies the exact identity
//! `M = N2·2^7 + N1·2^3 + N0·2^{-1}` — the trailing zero in `N0` is the
//! paper's "implicit left shift of operands" that preserves one extra bit
//! through the right-shift/truncate alignment path.
//!
//! INT-mode operands use the plain radix-16 split ([`Nibbles::from_int`]):
//! the most-significant nibble is a signed 5-bit slice (or zero-extended
//! for unsigned operands) and all lower nibbles are unsigned 4-bit slices.

use crate::magnitude::SignedMagnitude;

/// Weight (log2) of each FP-mode nibble within the signed magnitude:
/// `M = Σ N_i · 2^WEIGHT[i]` with `N0` pre-shifted left by one.
pub const FP_NIBBLE_WEIGHTS: [i32; 3] = [-1, 3, 7];

/// Number of nibbles an FP16 signed magnitude decomposes into.
pub const FP16_NIBBLES: usize = 3;

/// The FP-mode split `[N0, N1, N2]` (least significant first) of a 12-bit
/// signed magnitude `m`: the one definition every FP16 decode uses.
///
/// # Panics
/// Panics if `m` does not fit 12 bits two's complement.
#[inline]
pub fn fp16_nibbles(m: i32) -> [i8; FP16_NIBBLES] {
    assert!(
        (-2048..=2047).contains(&m),
        "FP16 signed magnitude must fit 12 bits, got {m}"
    );
    let n2 = (m >> 7) as i8; // arithmetic: signed top slice
    let n1 = ((m >> 3) & 0xf) as i8; // zero-extended
    let n0 = ((m & 0x7) as i8) << 1; // pre-shifted left
    [n0, n1, n2]
}

/// A multi-nibble operand: little-endian vector of 5-bit signed multiplier
/// inputs plus the operand's exponent metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nibbles {
    /// Nibble values, least significant first. Each fits a 5-bit signed
    /// multiplier input: `[-16, 15]`.
    pub n: Vec<i8>,
    /// `true` if this is the FP decomposition (N0 pre-shifted left by 1).
    pub fp_preshift: bool,
}

impl Nibbles {
    /// FP16 decomposition: `{N2, N1, N0}` from a 12-bit signed magnitude.
    ///
    /// # Panics
    /// Panics if `sm.m` does not fit 12 bits two's complement.
    pub fn from_fp16_magnitude(sm: SignedMagnitude) -> Self {
        Nibbles {
            n: fp16_nibbles(sm.m).to_vec(),
            fp_preshift: true,
        }
    }

    /// INT-mode decomposition into `k` 4-bit nibbles.
    ///
    /// For `signed` operands the top nibble is an arithmetic (sign-carrying)
    /// slice; for unsigned operands every nibble is a plain 4-bit slice —
    /// the 5th multiplier bit absorbs the unsigned range (paper §2:
    /// "INT4 IPU multiplications, both signed or unsigned").
    ///
    /// # Panics
    /// Panics if `v` does not fit `4k` bits in the requested signedness.
    pub fn from_int(v: i32, k: usize, signed: bool) -> Self {
        assert!((1..=8).contains(&k), "nibble count {k} out of range");
        let bits = 4 * k as u32;
        if signed {
            let lo = -(1i64 << (bits - 1));
            let hi = (1i64 << (bits - 1)) - 1;
            assert!(
                (lo..=hi).contains(&(v as i64)),
                "{v} does not fit INT{bits} signed"
            );
        } else {
            assert!(
                v >= 0 && (v as i64) < (1i64 << bits),
                "{v} does not fit INT{bits} unsigned"
            );
        }
        let mut n = Vec::with_capacity(k);
        for i in 0..k {
            let nib = if i + 1 == k && signed {
                // Top slice: arithmetic shift keeps the sign.
                ((v << (32 - bits)) >> (32 - 4)) as i8
            } else {
                ((v >> (4 * i)) & 0xf) as i8
            };
            n.push(nib);
        }
        Nibbles {
            n,
            fp_preshift: false,
        }
    }

    /// Number of nibbles.
    pub fn len(&self) -> usize {
        self.n.len()
    }

    /// `true` if there are no nibbles (never produced by constructors).
    pub fn is_empty(&self) -> bool {
        self.n.is_empty()
    }

    /// Reconstruct the integer value (inverse of the decomposition).
    pub fn reconstruct(&self) -> i64 {
        if self.fp_preshift {
            // M·2 = N2·2^8 + N1·2^4 + N0 — evaluate at doubled scale to
            // stay integral, then halve.
            let doubled: i64 = self
                .n
                .iter()
                .enumerate()
                .map(|(i, &nib)| (nib as i64) << (4 * i))
                .sum();
            debug_assert_eq!(doubled & 1, 0);
            doubled >> 1
        } else {
            self.n
                .iter()
                .enumerate()
                .map(|(i, &nib)| (nib as i64) << (4 * i))
                .sum()
        }
    }

    /// The weight (log2 of positional scale) of nibble `i` relative to the
    /// operand's LSB grid, as used in product alignment.
    pub fn weight(&self, i: usize) -> i32 {
        if self.fp_preshift {
            FP_NIBBLE_WEIGHTS[i]
        } else {
            4 * i as i32
        }
    }
}

/// Generic signed-magnitude decomposition for arbitrary formats
/// (paper §5 / Appendix B: BF16 and TF32 support).
///
/// A `mag_bits`-wide signed magnitude is sliced from the top: a 5-bit
/// signed slice, then 4-bit unsigned slices. When the final slice has at
/// most 3 payload bits it is pre-shifted left by one (the FP16 `N0`
/// trick); otherwise it is zero-extended. Slice weights step by 4, which
/// is what lets the accumulator reuse its uniform `4·Δ` shift grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenericNibbles {
    /// Nibble values, least significant first (each fits 5-bit signed).
    pub n: Vec<i8>,
    /// Positional weight (log2) of each nibble; `weights[i+1] − weights[i]
    /// = 4`.
    pub weights: Vec<i32>,
}

impl GenericNibbles {
    /// Decompose a `mag_bits`-wide signed magnitude.
    ///
    /// # Panics
    /// Panics if `m` does not fit `mag_bits` bits two's complement, or if
    /// `mag_bits` is not in `6..=13`.
    pub fn from_magnitude(m: i32, mag_bits: u32) -> Self {
        assert!(
            (6..=13).contains(&mag_bits),
            "magnitude width {mag_bits} unsupported"
        );
        let lo = -(1i32 << (mag_bits - 1));
        let hi = (1i32 << (mag_bits - 1)) - 1;
        assert!((lo..=hi).contains(&m), "{m} does not fit {mag_bits} bits");
        // Top slice keeps 5 signed bits; the remainder splits on a 4-bit
        // grid anchored at the top, so the lowest slice holds
        // `low_bits mod 4` bits (or 4 when it divides evenly).
        let low_bits = mag_bits - 5;
        let k = (low_bits as usize).div_ceil(4) + 1;
        let mut n = Vec::with_capacity(k);
        let mut weights = Vec::with_capacity(k);
        let mut consumed = 0u32;
        while consumed < low_bits {
            let this = match low_bits % 4 {
                r if consumed == 0 && r != 0 => r,
                _ => 4,
            };
            let val = ((m >> consumed) & ((1 << this) - 1)) as i8;
            if this <= 3 {
                // Pre-shift to preserve one extra bit through truncation.
                n.push(val << 1);
                weights.push(consumed as i32 - 1);
            } else {
                n.push(val);
                weights.push(consumed as i32);
            }
            consumed += this;
        }
        n.push((m >> consumed) as i8); // signed top slice
        weights.push(consumed as i32);
        GenericNibbles { n, weights }
    }

    /// Number of nibbles (iterations per operand).
    pub fn len(&self) -> usize {
        self.n.len()
    }

    /// `true` if empty (never produced by the constructor).
    pub fn is_empty(&self) -> bool {
        self.n.is_empty()
    }

    /// Weight of the most significant slice.
    pub fn top_weight(&self) -> i32 {
        *self.weights.last().unwrap()
    }

    /// Reconstruct the signed magnitude (inverse of the decomposition).
    pub fn reconstruct(&self) -> i64 {
        self.n
            .iter()
            .zip(&self.weights)
            .map(|(&nib, &w)| {
                if w >= 0 {
                    (nib as i64) << w
                } else {
                    debug_assert_eq!(nib & 1, 0);
                    (nib as i64) >> (-w)
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fp16, FpFormat};

    #[test]
    fn fp16_nibble_identity_all_values() {
        for bits in 0u16..=u16::MAX {
            let x = Fp16(bits);
            if x.is_non_finite() {
                continue;
            }
            let sm = SignedMagnitude::from_fp16(x).unwrap();
            let nb = Nibbles::from_fp16_magnitude(sm);
            assert_eq!(nb.reconstruct(), sm.m as i64, "bits {bits:#06x}");
        }
    }

    #[test]
    fn fp16_nibbles_fit_5bit_signed_multiplier() {
        for m in -2047i32..=2047 {
            let nb = Nibbles::from_fp16_magnitude(SignedMagnitude { m, exp: 0 });
            assert!((-16..=15).contains(&(nb.n[2] as i32)), "N2 of {m}");
            assert!((0..=15).contains(&(nb.n[1] as i32)), "N1 of {m}");
            assert!((0..=14).contains(&(nb.n[0] as i32)), "N0 of {m}");
            assert_eq!(nb.n[0] & 1, 0, "N0 trailing zero of {m}");
        }
    }

    #[test]
    fn fp16_nibble_weights() {
        let nb = Nibbles::from_fp16_magnitude(SignedMagnitude { m: 123, exp: 0 });
        assert_eq!(nb.weight(0), -1);
        assert_eq!(nb.weight(1), 3);
        assert_eq!(nb.weight(2), 7);
        // Identity via weights: M = Σ N_i 2^{w_i}  (N0's -1 compensates the
        // pre-shift).
        let m: f64 = (0..3)
            .map(|i| nb.n[i] as f64 * (nb.weight(i) as f64).exp2())
            .sum();
        assert_eq!(m, 123.0);
    }

    #[test]
    fn int8_signed_decomposition() {
        for v in -128i32..=127 {
            let nb = Nibbles::from_int(v, 2, true);
            assert_eq!(nb.reconstruct(), v as i64, "{v}");
            assert!((-8..=7).contains(&(nb.n[1] as i32)));
            assert!((0..=15).contains(&(nb.n[0] as i32)));
        }
    }

    #[test]
    fn int8_unsigned_decomposition() {
        for v in 0i32..=255 {
            let nb = Nibbles::from_int(v, 2, false);
            assert_eq!(nb.reconstruct(), v as i64);
            assert!(nb.n.iter().all(|&x| (0..=15).contains(&(x as i32))));
        }
    }

    #[test]
    fn int12_and_int16_roundtrip_samples() {
        for &v in &[-2048i32, -1, 0, 1, 2047, -1234, 999] {
            assert_eq!(Nibbles::from_int(v, 3, true).reconstruct(), v as i64);
        }
        for &v in &[-32768i32, 32767, -20000, 12345] {
            assert_eq!(Nibbles::from_int(v, 4, true).reconstruct(), v as i64);
        }
        for &v in &[0i32, 15, 255, 4095, 65535] {
            assert_eq!(Nibbles::from_int(v, 4, false).reconstruct(), v as i64);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn int4_overflow_panics() {
        let _ = Nibbles::from_int(8, 1, true);
    }

    #[test]
    fn int4_boundaries() {
        assert_eq!(Nibbles::from_int(-8, 1, true).reconstruct(), -8);
        assert_eq!(Nibbles::from_int(7, 1, true).reconstruct(), 7);
        assert_eq!(Nibbles::from_int(15, 1, false).reconstruct(), 15);
    }
}

#[cfg(test)]
mod generic_tests {
    use super::*;
    use crate::{Bf16, Fp16, FpFormat, SignedMagnitude, Tf32};

    #[test]
    fn fp16_generic_matches_dedicated_decomposition() {
        for m in -2047i32..=2047 {
            let g = GenericNibbles::from_magnitude(m, 12);
            let d = Nibbles::from_fp16_magnitude(SignedMagnitude { m, exp: 0 });
            assert_eq!(g.n, d.n, "m = {m}");
            assert_eq!(g.weights, vec![-1, 3, 7]);
            assert_eq!(g.reconstruct(), m as i64);
        }
    }

    #[test]
    fn bf16_magnitudes_use_two_nibbles() {
        // BF16 magnitude: 1.man7 + sign = 9 bits ⇒ 2 nibbles ⇒ the four
        // nibble iterations the paper quotes for BF16 (Appendix B).
        for bits in 0u16..=u16::MAX {
            let x = Bf16(bits);
            if x.is_non_finite() {
                continue;
            }
            let mag = x.magnitude() as i32;
            let m = if x.sign() { -mag } else { mag };
            let g = GenericNibbles::from_magnitude(m, 9);
            assert_eq!(g.len(), 2, "bits {bits:#06x}");
            assert_eq!(g.reconstruct(), m as i64);
            assert!(g.n.iter().all(|&v| (-16..=15).contains(&(v as i32))));
        }
    }

    #[test]
    fn tf32_magnitudes_use_three_nibbles() {
        for bits in (0u32..(1 << 19)).step_by(13) {
            let x = Tf32(bits);
            if x.is_non_finite() {
                continue;
            }
            let mag = x.magnitude() as i32;
            let m = if x.sign() { -mag } else { mag };
            let g = GenericNibbles::from_magnitude(m, 12);
            assert_eq!(g.len(), 3);
            assert_eq!(g.reconstruct(), m as i64);
        }
    }

    #[test]
    fn top_weight_positions() {
        assert_eq!(GenericNibbles::from_magnitude(100, 12).top_weight(), 7);
        assert_eq!(GenericNibbles::from_magnitude(100, 9).top_weight(), 4);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn magnitude_range_checked() {
        GenericNibbles::from_magnitude(256, 9);
    }

    #[test]
    fn fp16_all_finite_roundtrip() {
        for bits in (0u16..=u16::MAX).step_by(3) {
            let x = Fp16(bits);
            if x.is_non_finite() {
                continue;
            }
            let sm = SignedMagnitude::from_fp16(x).unwrap();
            let g = GenericNibbles::from_magnitude(sm.m, 12);
            assert_eq!(g.reconstruct(), sm.m as i64);
        }
    }
}
