//! # `mpipu-sim` — cycle-accurate convolution tile simulator
//!
//! Models the paper's convolution tile (§4.1, Fig 6): a weight-stationary
//! array of MC-IPUs unrolled over `(C, K, H, Wo)`, grouped into clusters
//! with private input/output buffers (§3.3). The simulator reproduces the
//! paper's performance experiments:
//!
//! * **Fig 8(a)** — normalized execution time versus MC-IPU adder-tree
//!   precision for ResNet-18/50 and InceptionV3 forward passes and the
//!   ResNet-18 backward pass;
//! * **Fig 8(b)** — the effect of cluster size at fixed precision.
//!
//! ## Model
//!
//! Work is expressed in broadcast *steps*: each step delivers one
//! activation vector group to every IPU of the tile (one inner product per
//! IPU). An FP16 step costs `9 × (non-empty alignment partitions)` cycles
//! on an MC-IPU (§3.2); a `Ka×Kb`-nibble INT step costs `Ka·Kb` cycles.
//! All IPUs within a cluster advance in lock step (the slowest IPU stalls
//! its cluster); clusters decouple through input FIFOs of configurable
//! depth, and the tile-level broadcast stalls when any FIFO is full —
//! exactly the stall semantics of §3.3.
//!
//! Per-step costs flow through a pluggable [`backend::CostBackend`]:
//! the default [`backend::MonteCarlo`] samples operand exponents from the
//! workload's value distributions (the paper samples real tensors; see
//! `DESIGN.md` for the substitution) and prices them with the *same* EHU
//! rule as the bit-accurate datapath, drawing once per draw class of a
//! query slab ([`cost`]); [`slab::AnalyticBatched`] computes the
//! expected step cost in closed form from the exponent PMFs, once per
//! equivalence class of a slab; and [`backend::Memoized`] caches either
//! across sweeps. The simulator assumes an ideal memory hierarchy, as
//! the paper does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cost;
pub mod engine;
pub mod mixed;
pub mod result;
pub mod run;
pub mod slab;
pub mod tile;

pub use backend::{
    Backend, CacheKey, CacheStats, CostBackend, CostQuery, Memoized, MonteCarlo, StepCost,
    CACHE_KEY_WORDS,
};
pub use cost::BASELINE_CYCLES_PER_STEP;
pub use engine::{constant_stream_cycles, simulate_clusters};
pub use mixed::{first_last_fp16, run_mixed, LayerPrecision, MixedResult, Schedule, ScheduleError};
pub use result::{LayerResult, WorkloadResult};
pub use run::{layer_steps, run_workload, Lowered, SimDesign, SimOptions};
pub use slab::AnalyticBatched;
pub use tile::TileConfig;
