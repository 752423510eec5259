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
