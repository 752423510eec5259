//! The FP16 kernel state of the inner-product unit: decoded operands and
//! the per-lane scratch the nibble iterations run over.
//!
//! Each operand is decoded once into an [`FpOperand`] — its `{N0, N1, N2}`
//! nibble split and its exponent. EHU stages 1–4 ([`Ehu::align`]) turn the
//! operand pairs into lane alignments, and [`Lanes`] keeps only the live
//! lanes, in scratch the unit allocates at construction: after that an FP16
//! inner product touches no heap, and the nine nibble iterations skip
//! masked and zero lanes entirely.

use crate::ehu::Ehu;
use crate::lane;
use mpipu_fp::nibble::FP16_NIBBLES;
use mpipu_fp::{fp16_nibbles, Fp16, SignedMagnitude};

/// Nibble iterations of one FP16 inner product (3 nibbles × 3 nibbles).
pub(crate) const FP16_ITERATIONS: u64 = 9;

/// Accumulator shift of nibble iteration `(i, j)`: `4·((2−i)+(2−j))`.
#[inline]
pub(crate) fn nibble_shift(i: usize, j: usize) -> u32 {
    4 * ((2 - i) + (2 - j)) as u32
}

/// One FP16 operand decoded for the multiplier lanes: its nibble split and
/// unbiased exponent.
///
/// A caller that feeds the same operand to many inner products (a weight
/// reused across samples) decodes it once and passes decoded slices to
/// [`crate::Ipu::fp_ip_accumulate_decoded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpOperand {
    nibbles: [i8; FP16_NIBBLES],
    /// `None` for zero, which neither wins the EHU maximum nor occupies an
    /// alignment slot. Otherwise in the FP16 range `[-14, 15]`, so product
    /// alignments never exceed 58 bits.
    exp: Option<i32>,
}

impl FpOperand {
    /// Decode a finite FP16 value.
    ///
    /// # Panics
    /// Panics on infinities and NaNs: the datapath assumes neither enters
    /// it (paper Appendix A.2).
    pub fn from_fp16(x: Fp16) -> Self {
        let sm = SignedMagnitude::from_fp16(x).expect("finite input required");
        FpOperand {
            nibbles: fp16_nibbles(sm.m),
            exp: (!sm.is_zero()).then_some(sm.exp),
        }
    }

    /// EHU stage 1: the exponent of the product `self · rhs`, `None` when
    /// either operand is zero.
    pub(crate) fn product_exp(self, rhs: Self) -> Option<i32> {
        Some(self.exp? + rhs.exp?)
    }
}

/// A live lane: both operands' nibbles and the lane's EHU alignment.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lane {
    a: [i8; FP16_NIBBLES],
    b: [i8; FP16_NIBBLES],
    pub(crate) shift: u32,
}

impl Lane {
    /// Multiply nibble `i` of `a` by nibble `j` of `b`, shift the product
    /// right by `local` and truncate it to the `w`-bit window.
    #[inline]
    pub(crate) fn window(&self, i: usize, j: usize, local: u32, w: u32) -> i64 {
        lane::shift_truncate(lane::mul5x5(self.a[i], self.b[j]), local, w)
    }
}

/// Per-lane scratch of one FP16 inner product, sized to the unit's lane
/// count once.
#[derive(Debug, Clone)]
pub(crate) struct Lanes {
    n: usize,
    /// Decode buffers for callers that pass raw FP16 vectors.
    a: Vec<FpOperand>,
    b: Vec<FpOperand>,
    /// The live lanes of the current inner product, in lane order.
    pub(crate) live: Vec<Lane>,
    /// EHU stage 2: the adder-tree exponent of the current inner product.
    pub(crate) max_exp: i32,
}

impl Lanes {
    /// Scratch for an `n`-lane unit.
    pub(crate) fn new(n: usize) -> Self {
        Lanes {
            n,
            a: Vec::with_capacity(n),
            b: Vec::with_capacity(n),
            live: Vec::with_capacity(n),
            max_exp: 0,
        }
    }

    /// Decode raw FP16 vectors into the scratch, then [`Lanes::load`] them.
    pub(crate) fn load_fp16(&mut self, ehu: Ehu, a: &[Fp16], b: &[Fp16]) {
        self.check(a.len(), b.len());
        self.a.clear();
        self.a.extend(a.iter().map(|&x| FpOperand::from_fp16(x)));
        self.b.clear();
        self.b.extend(b.iter().map(|&x| FpOperand::from_fp16(x)));
        self.max_exp = load_live(&mut self.live, ehu, &self.a, &self.b);
    }

    /// Run EHU stages 1–4 over one inner product's operands and keep the
    /// live lanes.
    pub(crate) fn load(&mut self, ehu: Ehu, a: &[FpOperand], b: &[FpOperand]) {
        self.check(a.len(), b.len());
        self.max_exp = load_live(&mut self.live, ehu, a, b);
    }

    /// Panic unless `a`- and `b`-long vectors fit the unit as one op.
    pub(crate) fn check(&self, a: usize, b: usize) {
        assert_eq!(a, b, "operand vectors must match");
        assert!(
            a <= self.n,
            "vector of {a} exceeds the {}-lane unit",
            self.n
        );
    }
}

/// Fill `live` (within its capacity) with the lanes EHU stage 4 keeps;
/// returns the adder-tree exponent.
fn load_live(live: &mut Vec<Lane>, ehu: Ehu, a: &[FpOperand], b: &[FpOperand]) -> i32 {
    let (max_exp, shifts) = ehu.align(a.iter().zip(b).map(|(x, y)| x.product_exp(*y)));
    live.clear();
    live.extend(a.iter().zip(b).zip(shifts).filter_map(|((x, y), s)| {
        Some(Lane {
            a: x.nibbles,
            b: y.nibbles,
            shift: s?,
        })
    }));
    max_exp
}
