//! # `mpipu-fp` — bit-level floating-point formats for the mixed-precision IPU
//!
//! This crate provides the numeric substrate for the MLSys 2021 paper
//! *"Rethinking Floating Point Overheads for Mixed Precision DNN
//! Accelerators"*: software (bit-exact) implementations of the floating-point
//! formats the inner-product unit (IPU) consumes, plus the operand
//! decompositions the datapath performs.
//!
//! The key objects are:
//!
//! * [`Fp16`], [`Bf16`], [`Tf32`] — storage formats with IEEE-754-style
//!   semantics (normals, subnormals, ±Inf, NaN) and round-to-nearest-even
//!   conversions from/to `f32`/`f64`.
//! * [`SignedMagnitude`] — the 12-bit two's-complement *signed magnitude*
//!   `M[11:0]` of an FP16 operand together with its unbiased exponent; this
//!   is exactly the operand representation fed to the IPU's multipliers
//!   (paper §2.2, "Converting numbers").
//! * [`Nibbles`] — the `{N2, N1, N0}` decomposition of a signed magnitude
//!   into three 5-bit multiplier operands, with the implicit left shift of
//!   `N0` that preserves one extra bit through right-shift alignment.
//! * [`round`] — fixed-point → FP16/FP32 renormalization with
//!   round-to-nearest-even, used by the accumulator write-back path.
//!
//! Everything is deterministic and allocation-free; all invariants carry
//! property tests in the crate's test suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod magnitude;
pub mod nibble;
pub mod round;

pub use format::{Bf16, Fp16, FpClass, FpFormat, Tf32};
pub use magnitude::SignedMagnitude;
pub use nibble::{fp16_nibbles, Nibbles};
pub use round::{round_to_f32_rne, round_to_fp16_rne, FixedPoint};

/// Range of the unbiased exponent of a single FP16 value: `[-14, 15]`
/// (subnormals share `-14`; see paper Appendix A.2).
pub const FP16_EXP_RANGE: (i32, i32) = (-14, 15);

/// Range of the unbiased exponent of a *product* of two FP16 values:
/// `[-28, 30]`, hence a worst-case alignment of 58 bits (paper §1, §2.2).
pub const FP16_PRODUCT_EXP_RANGE: (i32, i32) = (-28, 30);

/// Worst-case alignment (exponent difference) between two FP16 products.
pub const FP16_MAX_ALIGNMENT: u32 = (FP16_PRODUCT_EXP_RANGE.1 - FP16_PRODUCT_EXP_RANGE.0) as u32;
