//! # `mpipu-datapath` — bit-accurate mixed-precision IPU / MC-IPU emulation
//!
//! This crate implements, bit-for-bit, the inner-product unit (IPU)
//! microarchitecture of *"Rethinking Floating Point Overheads for Mixed
//! Precision DNN Accelerators"* (MLSys 2021), §2–§3:
//!
//! * **INT mode** — intrinsic INT4 (signed or unsigned) dot products in one
//!   cycle, and INT8/INT12/INT16 via temporal *nibble iterations*
//!   (`Ka × Kb` cycles for `Ka`/`Kb`-nibble operands).
//! * **FP mode** — FP16 dot products decomposed into nibble
//!   iterations over 12-bit signed magnitudes, with exponent alignment
//!   through the **exponent handling unit** ([`ehu::Ehu`]), per-lane local
//!   right-shift-and-truncate ([`lane`]), a `w`-bit adder tree, and a
//!   non-normalized fixed-point **accumulator** ([`accum::Accumulator`])
//!   that replaces left shifts with a swap + right shift.
//! * **`IPU(w)`** ([`ipu::Ipu`]) — the approximate single-cycle-per-iteration
//!   unit: only the `w` most significant bits of each aligned product are
//!   kept (paper Fig 2). Its FP16 kernel runs on operands decoded once
//!   ([`FpOperand`]) and on per-lane scratch allocated with the unit.
//! * **`MC-IPU(w)`** ([`mc::McIpu`]) — the multi-cycle unit of §3.2: products
//!   are partitioned by required alignment into *safe-precision*-sized
//!   windows and summed over multiple cycles, trading FP throughput for a
//!   narrow adder tree.
//! * **References & metrics** ([`mod@reference`], [`metrics`]) — exact
//!   fixed-point dot products, FP32-CPU-style references, absolute/relative
//!   error, and the paper's "contaminated bits" metric.
//! * **Theory** ([`theory`]) — Theorem 1 absolute-error bound and
//!   Proposition 1 (safe precision).
//!
//! The emulation is exact in the sense that every architecturally lossy
//! step (window truncation, accumulator alignment truncation, register
//! clipping) happens exactly where the hardware performs it, and nowhere
//! else; all other arithmetic is carried in wide integers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accum;
pub mod config;
pub mod ehu;
pub mod ipu;
mod kernel;
pub mod lane;
pub mod mc;
pub mod metrics;
pub mod reference;
pub mod theory;

pub use accum::Accumulator;
pub use config::{AccFormat, IpuConfig};
pub use ehu::{AlignmentPlan, Ehu};
pub use ipu::{FpIpResult, IntSignedness, Ipu};
pub use kernel::FpOperand;
pub use mc::{McIpu, McSchedule};
pub use metrics::{abs_error, contaminated_bits_f32, contaminated_bits_fp16, rel_error};
pub use reference::{exact_dot_fp16, f32_cpu_dot, f64_dot};
pub use theory::{safe_precision, theorem1_bound, theorem1_bound_tight};
