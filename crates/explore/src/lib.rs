//! # `mpipu-explore` — design-space exploration engine
//!
//! The paper's central question (§3.3, §5) is how to *size* the MC-IPU —
//! adder-tree width, tile geometry, cluster size, software precision,
//! INT/FP split — against accuracy and cycle cost. This crate turns that
//! question into a first-class query over the `mpipu::Scenario` builder:
//!
//! * [`ParamSpace`] / [`Axis`] — a typed model of the swept parameters
//!   (grid, list, log-range values per axis) with a stable [`DesignId`]
//!   per point, cartesian-product iteration, and random sampling;
//! * [`SweepEngine`] — a streaming, chunked, scoped-thread runner that
//!   prices each chunk of points in one batched call on a shared
//!   `Arc<dyn CostBackend>` (bit-identical to running every point
//!   through `Scenario::run`; memoized backends dedupe overlapping
//!   points automatically), and folds results incrementally instead of
//!   materializing the grid;
//! * [`Objective`] / [`ParetoFold`] / [`TopK`] — objective extraction
//!   over [`PointEval`]s plus an exact Pareto-frontier fold and top-k
//!   selection.
//!
//! ```
//! use mpipu::{Backend, Scenario, Zoo};
//! use mpipu_explore::{
//!     objectives, Axis, NullSweepSink, ParamSpace, ParetoFold, SweepEngine,
//! };
//!
//! let space = ParamSpace::new(
//!     Scenario::small_tile()
//!         .workload(Zoo::ResNet18)
//!         .sample_steps(64)
//!         .backend(Backend::MemoizedAnalytic),
//! )
//! .axis(Axis::w(vec![12, 16, 20, 24, 28]))
//! .axis(Axis::cluster(vec![1, 4, 8]));
//! assert_eq!(space.len(), 15);
//!
//! let front = SweepEngine::new().run(
//!     &space,
//!     ParetoFold::new(vec![objectives::FP_SLOWDOWN, objectives::INT_TOPS_PER_MM2]),
//!     &NullSweepSink,
//! );
//! assert!(!front.is_empty() && front.len() <= 15);
//! ```
//!
//! Determinism is a hard contract: the fold observes points in
//! [`DesignId`] order no matter how many worker threads evaluate chunks,
//! so every fold output is byte-stable across thread counts. See
//! `DESIGN.md` ("The exploration engine") for the architecture.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod axis;
pub mod control;
pub mod engine;
pub mod events;
pub mod objective;
pub mod pareto;
pub mod search;
pub mod shard;
mod slab;
pub mod space;

pub use axis::{grid_u32, log2_range, Axis, TileChoice, WorkloadSel};
pub use control::{CancelToken, ChunkGovernor};
pub use engine::{Collect, Count, Fold, PointEval, SweepEngine};
pub use events::{FnSink, NullSweepSink, SweepEvent, SweepSink};
pub use objective::{objectives, Objective, Sense};
pub use pareto::{pareto_front, FrontierPoint, ParetoFold, TopK};
pub use search::{
    BoxSearcher, Confirmation, NeighborSearcher, RungStats, SearchConfig, SearchEngine,
    SearchOutcome, SearchState, Searcher, SurrogateSearcher, Survivor, UniformSearcher,
};
pub use shard::{partition_units, ShardMerge, UnitFold, UnitRange};
pub use space::{DesignId, DesignPointSpec, LabelTable, ParamSpace};
