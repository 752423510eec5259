//! The service's JSONL request schema: typed requests, a strict parser,
//! and a canonical emitter.
//!
//! One request per line; every request is a JSON object whose `req`
//! field names the kind:
//!
//! | `req` | meaning |
//! |-------|---------|
//! | `list` | catalog: experiments, axes, objectives, backend |
//! | `stats` | server counters + shared-cache counters |
//! | `eval` | price one scenario |
//! | `sweep` | sweep a declared parameter space, streaming progress |
//! | `search` | guided search over a declared parameter space |
//!
//! Every type reads and writes through the crate's one wire codec, so
//! [`Request::parse`] is strict — unknown fields, wrong types, unknown
//! labels, and empty axes are structured [`WireError`]s, never panics —
//! and [`Request::to_json`] emits the canonical form, so
//! `parse(emit(r)) == r` for every representable request (held by a
//! property test). Each closed label set is one [`Label`] table.
//! Convenience sugar is accepted on input and canonicalized away:
//! `{"axis":"w","grid":[lo,hi,step]}` and `{"axis":"cluster","log2":[lo,hi]}`
//! expand to explicit value lists, and a dists value may be the
//! shorthand `"fwd"`/`"bwd"` for the pass-derived distribution pair.
//!
//! The `schedule` axis is deliberately *not* in wire v1: it carries an
//! open-ended policy type, so a policy-scheduled sweep stays an
//! in-process (library) affair (`schedule_mask` is on the wire).

pub use crate::codec::Label;
use crate::codec::{optional_fields, str_at, Fields, Obj, Path, Wire};
use mpipu::{Scenario, Zoo};
use mpipu_analysis::dist::Distribution;
use mpipu_bench::json::Json;
use mpipu_dnn::zoo::Pass;
use mpipu_explore::{
    grid_u32, log2_range, objectives, Axis, Objective, ParamSpace, ParetoFold, TileChoice, TopK,
    WorkloadSel,
};
use mpipu_sim::cost::pass_distributions;
use mpipu_sim::TileConfig;
use std::mem::discriminant;

/// Machine-readable error category carried on the wire (`error` events'
/// `code` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON or not a known request shape.
    Parse,
    /// The request was well-formed but semantically invalid.
    BadRequest,
    /// The request exceeded a budget (max points) before starting.
    Budget,
    /// The sweep stopped early: client disconnect or wall-clock deadline.
    Cancelled,
    /// The server failed internally while serving the request.
    Internal,
}

impl ErrorCode {
    /// The stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Budget => "budget",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A structured request/serving error — the body of an `error` wire
/// event. Malformed input maps here; it never panics a worker or drops
/// a connection.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Category (stable wire name via [`ErrorCode::name`]).
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    fn of(code: ErrorCode, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
        }
    }

    /// A [`ErrorCode::Parse`] error.
    pub fn parse(message: impl Into<String>) -> WireError {
        WireError::of(ErrorCode::Parse, message)
    }

    /// A [`ErrorCode::BadRequest`] error.
    pub fn bad_request(message: impl Into<String>) -> WireError {
        WireError::of(ErrorCode::BadRequest, message)
    }

    /// A [`ErrorCode::Budget`] error.
    pub fn budget(message: impl Into<String>) -> WireError {
        WireError::of(ErrorCode::Budget, message)
    }

    /// A [`ErrorCode::Cancelled`] error.
    pub fn cancelled(message: impl Into<String>) -> WireError {
        WireError::of(ErrorCode::Cancelled, message)
    }

    /// An [`ErrorCode::Internal`] error.
    pub fn internal(message: impl Into<String>) -> WireError {
        WireError::of(ErrorCode::Internal, message)
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.name(), self.message)
    }
}

impl std::error::Error for WireError {}

/// Default sweep objectives (the frontier experiment's triple).
pub const DEFAULT_OBJECTIVES: [&str; 3] = ["fp_slowdown", "int_tops_per_mm2", "fp_tflops_per_w"];

fn default_objectives() -> Vec<String> {
    DEFAULT_OBJECTIVES.map(String::from).to_vec()
}

/// Resolve a wire objective name against [`objectives::ALL`].
fn objective(name: &str) -> Result<Objective, WireError> {
    objectives::by_name(name).ok_or_else(|| {
        let catalog: Vec<&str> = objectives::ALL.iter().map(|o| o.name).collect();
        WireError::bad_request(format!(
            "unknown objective {name:?} (catalog: {})",
            catalog.join(", ")
        ))
    })
}

/// Resolve a non-empty list of objective names (shared by the sweep and
/// search requests).
fn resolve_objective_names(names: &[String]) -> Result<Vec<Objective>, WireError> {
    if names.is_empty() {
        return Err(WireError::bad_request("objectives must not be empty"));
    }
    names.iter().map(|name| objective(name)).collect()
}

/// Tile family selector (`"small"` / `"big"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileSel {
    /// The paper's small tile.
    Small,
    /// The paper's big tile.
    Big,
}

impl Label for TileSel {
    const NOUN: &'static str = "tile";
    const LABELS: &'static [(TileSel, &'static str)] =
        &[(TileSel::Small, "small"), (TileSel::Big, "big")];
}

impl TileSel {
    /// The exploration-axis tile choice this selects.
    pub fn to_choice(self) -> TileChoice {
        match self {
            TileSel::Small => TileChoice::Small,
            TileSel::Big => TileChoice::Big,
        }
    }
}

/// Pass selector (`"fwd"` / `"bwd"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassSel {
    /// Forward pass.
    Fwd,
    /// Backward pass.
    Bwd,
}

impl Label for PassSel {
    const NOUN: &'static str = "pass";
    const LABELS: &'static [(PassSel, &'static str)] =
        &[(PassSel::Fwd, "fwd"), (PassSel::Bwd, "bwd")];
}

impl PassSel {
    /// The simulator pass this selects.
    pub fn to_pass(self) -> Pass {
        match self {
            PassSel::Fwd => Pass::Forward,
            PassSel::Bwd => Pass::Backward,
        }
    }

    /// The pass's own `(activation, weight)` distribution pair — what a
    /// `"fwd"`/`"bwd"` dists value names.
    pub(crate) fn dists(self) -> DistPair {
        let (act, wgt) = pass_distributions(self.to_pass());
        (DistSpec::from_dist(act), DistSpec::from_dist(wgt))
    }
}

/// Model-zoo selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZooSel {
    /// ResNet-18.
    Resnet18,
    /// ResNet-50.
    Resnet50,
    /// Inception-v3.
    Inceptionv3,
}

impl Label for ZooSel {
    const NOUN: &'static str = "zoo model";
    const LABELS: &'static [(ZooSel, &'static str)] = &[
        (ZooSel::Resnet18, "resnet18"),
        (ZooSel::Resnet50, "resnet50"),
        (ZooSel::Inceptionv3, "inceptionv3"),
    ];
}

impl ZooSel {
    /// The zoo model this selects.
    pub fn to_zoo(self) -> Zoo {
        match self {
            ZooSel::Resnet18 => Zoo::ResNet18,
            ZooSel::Resnet50 => Zoo::ResNet50,
            ZooSel::Inceptionv3 => Zoo::InceptionV3,
        }
    }
}

/// Workload selector: a zoo model or a parametric synthetic stack.
///
/// Wire form: `{"zoo":"resnet18"}` or `{"synthetic":[channels, spatial,
/// depth]}`. Custom layer tables are not representable on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// A model-zoo network (resolved with the scenario's pass).
    Zoo(ZooSel),
    /// A synthetic stack `(channels, spatial, depth)`.
    Synthetic(usize, usize, usize),
}

impl Wire for WorkloadSpec {
    fn write(&self) -> Json {
        match *self {
            WorkloadSpec::Zoo(z) => Fields::default().put("zoo", &z),
            WorkloadSpec::Synthetic(c, s, d) => Fields::default().put("synthetic", &[c, s, d]),
        }
        .into()
    }

    fn read(j: &Json, at: Path<'_>) -> Result<WorkloadSpec, WireError> {
        let o = Obj::open(j, at, &["zoo", "synthetic"])?;
        match (o.raw("zoo"), o.raw("synthetic")) {
            (Some(_), None) => Ok(WorkloadSpec::Zoo(o.req("zoo")?)),
            (None, Some(_)) => {
                let [c, s, d] = o.req("synthetic")?;
                Ok(WorkloadSpec::Synthetic(c, s, d))
            }
            _ => Err(WireError::bad_request(format!(
                "{at} must have exactly one of \"zoo\" or \"synthetic\""
            ))),
        }
    }
}

impl WorkloadSpec {
    /// The exploration-axis workload this selects.
    pub fn to_sel(self) -> WorkloadSel {
        match self {
            WorkloadSpec::Zoo(z) => WorkloadSel::Zoo(z.to_zoo()),
            WorkloadSpec::Synthetic(c, s, d) => WorkloadSel::Synthetic(c, s, d),
        }
    }
}

/// An operand-exponent distribution, wire form `{"kind": ...}` with
/// kind-specific parameters (`scale`, `std`, `b`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DistSpec {
    /// Uniform exponents over `[-scale, scale)`.
    Uniform {
        /// Exponent half-range.
        scale: f64,
    },
    /// Normal exponents with the given standard deviation.
    Normal {
        /// Exponent standard deviation.
        std: f64,
    },
    /// Laplace exponents with diversity `b`.
    Laplace {
        /// Laplace diversity parameter.
        b: f64,
    },
    /// The fitted ResNet-18 activation shape.
    Resnet18,
    /// The fitted ResNet-50 activation shape.
    Resnet50,
    /// The fitted backward-gradient shape.
    Backward,
    /// The fitted weight shape.
    Weight,
}

/// A distribution kind: its wire label, the key of its one parameter
/// (`""` for the fitted shapes, which have none), and its constructor.
type DistKind = (&'static str, &'static str, fn(f64) -> DistSpec);

/// The distribution kinds' label table.
const DIST_KINDS: [DistKind; 7] = [
    ("uniform", "scale", |scale| DistSpec::Uniform { scale }),
    ("normal", "std", |std| DistSpec::Normal { std }),
    ("laplace", "b", |b| DistSpec::Laplace { b }),
    ("resnet18", "", |_| DistSpec::Resnet18),
    ("resnet50", "", |_| DistSpec::Resnet50),
    ("backward", "", |_| DistSpec::Backward),
    ("weight", "", |_| DistSpec::Weight),
];

impl Wire for DistSpec {
    fn write(&self) -> Json {
        let param = match *self {
            DistSpec::Uniform { scale } => scale,
            DistSpec::Normal { std } => std,
            DistSpec::Laplace { b } => b,
            _ => 0.0,
        };
        let (kind, key, _) = DIST_KINDS
            .iter()
            .find(|(_, _, make)| discriminant(&make(param)) == discriminant(self))
            .expect("every kind is in the table");
        let out = Fields::default().put("kind", *kind);
        match *key {
            "" => out,
            key => out.put(key, &param),
        }
        .into()
    }

    fn read(j: &Json, at: Path<'_>) -> Result<DistSpec, WireError> {
        let o = Obj::open(j, at, &["kind", "scale", "std", "b"])?;
        let kind = str_at(o.need("kind")?, at.key("kind"))?;
        let Some(&(_, key, make)) = DIST_KINDS.iter().find(|(label, _, _)| *label == kind) else {
            let kinds: Vec<&str> = DIST_KINDS.iter().map(|(label, _, _)| *label).collect();
            return Err(WireError::bad_request(format!(
                "unknown distribution kind {kind:?} (expected {})",
                kinds.join(", ")
            )));
        };
        if key.is_empty() {
            o.only(&["kind"])?;
            return Ok(make(0.0));
        }
        o.only(&["kind", key])?;
        Ok(make(o.req(key)?))
    }
}

impl DistSpec {
    /// The analysis-layer distribution this selects.
    pub fn to_dist(self) -> Distribution {
        match self {
            DistSpec::Uniform { scale } => Distribution::Uniform { scale },
            DistSpec::Normal { std } => Distribution::Normal { std },
            DistSpec::Laplace { b } => Distribution::Laplace { b },
            DistSpec::Resnet18 => Distribution::Resnet18Like,
            DistSpec::Resnet50 => Distribution::Resnet50Like,
            DistSpec::Backward => Distribution::BackwardLike,
            DistSpec::Weight => Distribution::WeightLike,
        }
    }

    /// The wire spec of an analysis-layer distribution (total: every
    /// library distribution is representable).
    pub fn from_dist(d: Distribution) -> DistSpec {
        match d {
            Distribution::Uniform { scale } => DistSpec::Uniform { scale },
            Distribution::Normal { std } => DistSpec::Normal { std },
            Distribution::Laplace { b } => DistSpec::Laplace { b },
            Distribution::Resnet18Like => DistSpec::Resnet18,
            Distribution::Resnet50Like => DistSpec::Resnet50,
            Distribution::BackwardLike => DistSpec::Backward,
            Distribution::WeightLike => DistSpec::Weight,
        }
    }
}

/// An `(activation, weight)` distribution pair, wire form
/// `{"act":{...},"wgt":{...}}` (or `"fwd"`/`"bwd"` on input, for that
/// pass's own pair).
pub type DistPair = (DistSpec, DistSpec);

impl Wire for DistPair {
    fn write(&self) -> Json {
        Fields::default()
            .put("act", &self.0)
            .put("wgt", &self.1)
            .into()
    }

    fn read(j: &Json, at: Path<'_>) -> Result<DistPair, WireError> {
        if j.as_str().is_some() {
            return Ok(PassSel::read(j, at)?.dists());
        }
        let o = Obj::open(j, at, &["act", "wgt"])?;
        // A missing half is reported ahead of a malformed one.
        o.need("act")?;
        o.need("wgt")?;
        Ok((o.req("act")?, o.req("wgt")?))
    }
}

/// A scenario described field-by-field; unset fields keep the
/// [`Scenario`] builder's defaults. This is both the `eval` request body
/// and the `sweep` request's base point.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioSpec {
    /// Tile family (default small).
    pub tile: Option<TileSel>,
    /// Adder-tree width.
    pub w: Option<u32>,
    /// Stage-4 software precision.
    pub software_precision: Option<u32>,
    /// IPUs per cluster.
    pub cluster: Option<usize>,
    /// Cluster FIFO depth.
    pub buffer_depth: Option<usize>,
    /// Tiles per chip.
    pub n_tiles: Option<usize>,
    /// Workload selection.
    pub workload: Option<WorkloadSpec>,
    /// Pass (forward/backward).
    pub pass: Option<PassSel>,
    /// Explicit `(activation, weight)` distributions.
    pub dists: Option<DistPair>,
    /// Alignment-plan sampler seed.
    pub seed: Option<u64>,
    /// Estimation-window steps per layer.
    pub sample_steps: Option<usize>,
}

optional_fields!(ScenarioSpec {
    tile,
    w,
    software_precision,
    cluster,
    buffer_depth,
    n_tiles,
    workload,
    pass,
    dists,
    seed,
    sample_steps,
});

impl ScenarioSpec {
    /// Build the scenario chain (unset fields keep builder defaults).
    pub fn to_scenario(&self) -> Scenario {
        let mut s = match self.tile {
            Some(TileSel::Big) => Scenario::big_tile(),
            _ => Scenario::small_tile(),
        };
        if let Some(w) = self.w {
            s = s.w(w);
        }
        if let Some(p) = self.software_precision {
            s = s.software_precision(p);
        }
        if self.cluster.is_some() || self.buffer_depth.is_some() {
            // Written raw, not through the asserting scenario setters: a
            // misfit value must reach `checked_space` as a `bad_request`
            // instead of panicking the handler.
            let tile = s.design().tile;
            s = s.tile_config(TileConfig {
                cluster_size: self.cluster.unwrap_or(tile.cluster_size),
                buffer_depth: self.buffer_depth.unwrap_or(tile.buffer_depth),
                ..tile
            });
        }
        if let Some(n) = self.n_tiles {
            s = s.n_tiles(n);
        }
        match self.workload {
            Some(WorkloadSpec::Zoo(z)) => s = s.workload(z.to_zoo()),
            Some(WorkloadSpec::Synthetic(c, sp, d)) => s = s.synthetic(c, sp, d),
            None => {}
        }
        if let Some(p) = self.pass {
            s = s.pass(p.to_pass());
        }
        if let Some((act, wgt)) = self.dists {
            s = s.distributions(act.to_dist(), wgt.to_dist());
        }
        if let Some(seed) = self.seed {
            s = s.seed(seed);
        }
        if let Some(steps) = self.sample_steps {
            s = s.sample_steps(steps);
        }
        s
    }
}

/// Declare [`AxisSpec`] from one table of its value-list axes — variant,
/// element type, wire name, and the exploration axis it builds — plus the
/// `schedule_mask` axis, which carries a width instead of a value list.
/// The catalog ([`AxisSpec::NAMES`]), `name`, `len`, the codec, and
/// `to_axis` all read this one table.
macro_rules! axis_specs {
    ($($(#[$doc:meta])* $var:ident($elem:ty) = $name:literal => |$v:ident| $axis:expr,)*) => {
        /// One swept axis with explicit values, wire form
        /// `{"axis": <name>, "values": [...]}`. Reading also accepts
        /// `"grid": [lo, hi, step]` (for `w`) and `"log2": [lo, hi]` (for
        /// `cluster` / `n_tiles`) range sugar, canonicalized to value lists.
        #[derive(Debug, Clone, PartialEq)]
        pub enum AxisSpec {
            $($(#[$doc])* $var(Vec<$elem>),)*
            /// Per-layer INT/FP16 precision masks over this many layers —
            /// `2^layers` points, wire form `{"axis":"schedule_mask","layers":N}`.
            /// Unlike the policy-valued `schedule` axis (still not in wire
            /// v1), a mask axis is a closed, enumerable value set, which is
            /// what the `search` request needs to address points by
            /// [`mpipu_explore::DesignId`].
            ScheduleMask(u32),
        }

        impl AxisSpec {
            /// Every wire axis name, in catalog order.
            pub const NAMES: &'static [&'static str] = &[$($name,)* "schedule_mask"];

            /// The axis's stable wire name (identical to [`Axis::name`]).
            pub fn name(&self) -> &'static str {
                match self {
                    $(AxisSpec::$var(_) => $name,)*
                    AxisSpec::ScheduleMask(_) => "schedule_mask",
                }
            }

            /// Number of values on the axis.
            pub fn len(&self) -> usize {
                match self {
                    $(AxisSpec::$var(v) => v.len(),)*
                    AxisSpec::ScheduleMask(layers) => 1usize << layers,
                }
            }

            /// Whether the axis has no values (rejected by the parser).
            pub fn is_empty(&self) -> bool {
                self.len() == 0
            }

            /// Build the exploration axis.
            pub fn to_axis(&self) -> Axis {
                match self {
                    $(AxisSpec::$var($v) => $axis,)*
                    AxisSpec::ScheduleMask(layers) => Axis::schedule_mask(*layers),
                }
            }

            /// The canonical wire object after its `axis` name.
            fn write_values(&self, out: Fields) -> Fields {
                match self {
                    $(AxisSpec::$var(v) => out.put("values", v),)*
                    AxisSpec::ScheduleMask(layers) => out.put("layers", layers),
                }
            }

            /// Read the value list of the axis named `name`.
            fn read_values(name: &str, values: &Json, at: Path<'_>) -> Result<AxisSpec, WireError> {
                match name {
                    $($name => Ok(AxisSpec::$var(Wire::read(values, at)?)),)*
                    "schedule" => Err(WireError::bad_request(
                        "the schedule axis is not part of wire v1 (use the library directly)",
                    )),
                    other => Err(WireError::bad_request(format!(
                        "unknown axis {other:?} (expected {})",
                        AxisSpec::NAMES.join(", ")
                    ))),
                }
            }
        }
    };
}

axis_specs! {
    /// Adder-tree widths.
    W(u32) = "w" => |v| Axis::w(v.clone()),
    /// Stage-4 software precisions.
    SoftwarePrecision(u32) = "software_precision" => |v| Axis::software_precision(v.clone()),
    /// Cluster sizes.
    Cluster(usize) = "cluster" => |v| Axis::cluster(v.clone()),
    /// FIFO depths.
    BufferDepth(usize) = "buffer_depth" => |v| Axis::buffer_depth(v.clone()),
    /// Tiles per chip.
    NTiles(usize) = "n_tiles" => |v| Axis::n_tiles(v.clone()),
    /// Tile families.
    Tile(TileSel) = "tile" => |v| Axis::tile(v.iter().map(|t| t.to_choice()).collect()),
    /// Workloads.
    Workload(WorkloadSpec) = "workload" => |v| Axis::workload(v.iter().map(|w| w.to_sel()).collect()),
    /// Passes.
    Pass(PassSel) = "pass" => |v| Axis::pass(v.iter().map(|p| p.to_pass()).collect()),
    /// `(activation, weight)` distribution pairs.
    Dists(DistPair) = "dists" => |v| {
        Axis::distributions(v.iter().map(|(a, w)| (a.to_dist(), w.to_dist())).collect())
    },
}

impl Wire for AxisSpec {
    fn write(&self) -> Json {
        let out = Fields::default().put("axis", self.name());
        self.write_values(out).into()
    }

    fn read(j: &Json, at: Path<'_>) -> Result<AxisSpec, WireError> {
        let o = Obj::open(j, at, &["axis", "values", "grid", "log2", "layers"])?;
        let name = str_at(o.need("axis")?, at.key("axis"))?;
        if name == "schedule_mask" {
            o.only(&["axis", "layers"])?;
            let layers = o.req("layers")?;
            if !(1..=48).contains(&layers) {
                return Err(WireError::bad_request(
                    "schedule_mask layers must be in 1..=48",
                ));
            }
            return Ok(AxisSpec::ScheduleMask(layers));
        }
        let misplaced = |what: &str, owner: &str| {
            Err(WireError::bad_request(format!(
                "\"{what}\" is only defined for the {owner} axis, not {name:?}"
            )))
        };
        if o.raw("layers").is_some() {
            return misplaced("layers", "\"schedule_mask\"");
        }
        let spec = match (o.raw("values"), o.raw("grid"), o.raw("log2")) {
            (Some(values), None, None) => AxisSpec::read_values(name, values, at.key("values"))?,
            (None, Some(_), None) => {
                if name != "w" {
                    return misplaced("grid", "\"w\"");
                }
                let [lo, hi, step] = o.req("grid")?;
                if step == 0 || lo > hi {
                    return Err(WireError::bad_request(
                        "axis.grid must be [lo, hi, step] with lo <= hi and step >= 1",
                    ));
                }
                AxisSpec::W(grid_u32(lo, hi, step))
            }
            (None, None, Some(_)) => {
                let [lo, hi]: [usize; 2] = o.req("log2")?;
                if !lo.is_power_of_two() || !hi.is_power_of_two() || lo > hi {
                    return Err(WireError::bad_request(
                        "axis.log2 must be [lo, hi], powers of two with lo <= hi",
                    ));
                }
                match name {
                    "cluster" => AxisSpec::Cluster(log2_range(lo, hi)),
                    "n_tiles" => AxisSpec::NTiles(log2_range(lo, hi)),
                    _ => return misplaced("log2", "\"cluster\"/\"n_tiles\""),
                }
            }
            _ => {
                return Err(WireError::bad_request(format!(
                    "axis {name:?} must have exactly one of \"values\", \"grid\", or \"log2\""
                )))
            }
        };
        if spec.is_empty() {
            return Err(WireError::bad_request(format!(
                "axis {name:?} has no values"
            )));
        }
        Ok(spec)
    }
}

/// Resolve a declared space: the base scenario refined by each axis in
/// order (shared by the sweep and search requests).
fn space_of(base: &ScenarioSpec, axes: &[AxisSpec]) -> ParamSpace {
    axes.iter()
        .fold(ParamSpace::new(base.to_scenario()), |space, axis| {
            space.axis(axis.to_axis())
        })
}

/// Random subsampling of the declared space, wire form
/// `{"count": N, "seed": S}` (uniform without replacement — see
/// [`ParamSpace::sample_ids`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSpec {
    /// Number of sampled points.
    pub count: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl Wire for SampleSpec {
    fn write(&self) -> Json {
        Fields::default()
            .put("count", &self.count)
            .put("seed", &self.seed)
            .into()
    }

    fn read(j: &Json, at: Path<'_>) -> Result<SampleSpec, WireError> {
        let o = Obj::open(j, at, &["count", "seed"])?;
        Ok(SampleSpec {
            count: o.nonzero("count")?.ok_or_else(|| o.missing("count"))?,
            seed: o.opt("seed")?.unwrap_or_default(),
        })
    }
}

/// Top-k selection riding along the Pareto fold, wire form
/// `{"objective": <name>, "k": N}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKSpec {
    /// Catalog objective to rank by.
    pub objective: String,
    /// Selection size.
    pub k: usize,
}

impl Wire for TopKSpec {
    fn write(&self) -> Json {
        Fields::default()
            .put("objective", &self.objective)
            .put("k", &self.k)
            .into()
    }

    fn read(j: &Json, at: Path<'_>) -> Result<TopKSpec, WireError> {
        let o = Obj::open(j, at, &["objective", "k"])?;
        let objective_name: String = o.req("objective")?;
        objective(&objective_name)?;
        Ok(TopKSpec {
            objective: objective_name,
            k: o.nonzero("k")?.ok_or_else(|| o.missing("k"))?,
        })
    }
}

/// The `eval` request: price one scenario.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EvalReq {
    /// The scenario to price.
    pub scenario: ScenarioSpec,
    /// Client-chosen tag echoed on the result line.
    pub tag: Option<String>,
}

/// The `sweep` request: sweep a declared space, streaming progress and
/// incremental Pareto updates, then a `result` line.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReq {
    /// The base scenario the axes refine.
    pub base: ScenarioSpec,
    /// Swept axes, in declaration order (the first is the design id's
    /// most significant digit; a tile axis should come before a cluster
    /// axis, since a tile swap resets clustering).
    pub axes: Vec<AxisSpec>,
    /// Objective names (catalog-validated; defaults to
    /// [`DEFAULT_OBJECTIVES`] when absent on the wire).
    pub objectives: Vec<String>,
    /// Optional top-k selection alongside the frontier.
    pub top_k: Option<TopKSpec>,
    /// Optional seeded subsampling (distinct points, ascending ids).
    pub sample: Option<SampleSpec>,
    /// Client-side point budget (min'd with the server's).
    pub max_points: Option<u64>,
    /// Client-side wall-clock budget in ms (min'd with the server's).
    pub max_ms: Option<u64>,
    /// Engine chunk size override.
    pub chunk: Option<usize>,
    /// Emit a `pareto_update` line every this many folded points
    /// (0 disables; server default otherwise).
    pub progress_every: Option<u64>,
    /// Client-chosen tag echoed on the result line.
    pub tag: Option<String>,
}

impl Default for SweepReq {
    fn default() -> SweepReq {
        SweepReq {
            base: ScenarioSpec::default(),
            axes: Vec::new(),
            objectives: default_objectives(),
            top_k: None,
            sample: None,
            max_points: None,
            max_ms: None,
            chunk: None,
            progress_every: None,
            tag: None,
        }
    }
}

impl SweepReq {
    /// Resolve the declared space (base scenario + axes in order).
    ///
    /// # Panics
    /// Panics on an empty axis — unreachable for parsed requests (the
    /// parser rejects them).
    pub fn to_space(&self) -> ParamSpace {
        space_of(&self.base, &self.axes)
    }

    /// Points the request will evaluate (sample count, or the full
    /// cartesian product).
    pub fn points(&self) -> u64 {
        match &self.sample {
            Some(s) => s.count as u64,
            None => self.axes.iter().map(|a| a.len() as u64).product(),
        }
    }

    /// Resolve the objective names against the catalog.
    pub fn resolve_objectives(&self) -> Result<Vec<Objective>, WireError> {
        resolve_objective_names(&self.objectives)
    }

    /// The request's folds: the Pareto fold over its objectives and the
    /// optional top-k selection (shared by the served, reference, and
    /// sharded sweeps).
    pub(crate) fn folds(&self) -> Result<(ParetoFold, Option<TopK>), WireError> {
        let top = match &self.top_k {
            Some(t) => Some(TopK::new(objective(&t.objective)?, t.k)),
            None => None,
        };
        Ok((ParetoFold::new(self.resolve_objectives()?), top))
    }
}

/// The `search` request: guided (successive-halving + surrogate) search
/// over a declared space — the space may be far too large to sweep
/// (admission is on the evaluation *budget*, not the point count), and
/// the response is one `result` line with the recovered frontier plus
/// per-rung accounting. Unset knobs keep the library's
/// [`mpipu_explore::SearchConfig`] defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReq {
    /// The base scenario the axes refine.
    pub base: ScenarioSpec,
    /// Searched axes, in declaration order.
    pub axes: Vec<AxisSpec>,
    /// Objective names (catalog-validated; defaults to
    /// [`DEFAULT_OBJECTIVES`] when absent on the wire).
    pub objectives: Vec<String>,
    /// Rung-0 cohort size.
    pub initial: Option<usize>,
    /// Maximum rung count.
    pub rungs: Option<usize>,
    /// Successive-halving keep fraction, in `(0, 1]`.
    pub keep: Option<f64>,
    /// Evaluation budget (admission-checked against the server's
    /// point budget).
    pub max_evals: Option<u64>,
    /// Proposal-stream seed.
    pub seed: Option<u64>,
    /// Client-side wall-clock budget in ms (min'd with the server's).
    pub max_ms: Option<u64>,
    /// Engine chunk size override.
    pub chunk: Option<usize>,
    /// Client-chosen tag echoed on the result line.
    pub tag: Option<String>,
}

impl Default for SearchReq {
    fn default() -> SearchReq {
        SearchReq {
            base: ScenarioSpec::default(),
            axes: Vec::new(),
            objectives: default_objectives(),
            initial: None,
            rungs: None,
            keep: None,
            max_evals: None,
            seed: None,
            max_ms: None,
            chunk: None,
            tag: None,
        }
    }
}

impl SearchReq {
    /// Resolve the declared space (base scenario + axes in order).
    pub fn to_space(&self) -> ParamSpace {
        space_of(&self.base, &self.axes)
    }

    /// Points in the declared space (the search touches far fewer).
    pub fn space_points(&self) -> u64 {
        self.axes.iter().map(|a| a.len() as u64).product()
    }

    /// Resolve the objective names against the catalog.
    pub fn resolve_objectives(&self) -> Result<Vec<Objective>, WireError> {
        resolve_objective_names(&self.objectives)
    }
}

/// A parsed service request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Catalog query.
    List,
    /// Counter snapshot query.
    Stats,
    /// Price one scenario.
    Eval(EvalReq),
    /// Sweep a declared space.
    Sweep(SweepReq),
    /// Guided search over a declared space.
    Search(SearchReq),
}

impl Request {
    /// Parse one request line. Strict: malformed JSON, unknown shapes,
    /// unknown fields, and invalid values are structured [`WireError`]s.
    pub fn parse(line: &str) -> Result<Request, WireError> {
        let j = Json::parse(line.trim()).map_err(|e| {
            WireError::parse(format!("invalid JSON at byte {}: {}", e.offset, e.message))
        })?;
        let o = Obj::any(&j, Path::Root("request"))?;
        let kind = o
            .raw("req")
            .ok_or_else(|| WireError::parse("request is missing \"req\""))?;
        Ok(match str_at(kind, Path::Root("request").key("req"))? {
            "list" => {
                o.only(&[])?;
                Request::List
            }
            "stats" => {
                o.only(&[])?;
                Request::Stats
            }
            "eval" => {
                o.only(&["scenario", "tag"])?;
                Request::Eval(EvalReq {
                    scenario: o.opt("scenario")?.unwrap_or_default(),
                    tag: o.opt("tag")?,
                })
            }
            "sweep" => Request::Sweep(read_sweep(&o)?),
            "search" => Request::Search(read_search(&o)?),
            other => {
                return Err(WireError::parse(format!(
                    "unknown request kind {other:?} (expected list, stats, eval, sweep, or search)"
                )))
            }
        })
    }

    /// The canonical wire object ([`Request::parse`] inverts this).
    pub fn to_json(&self) -> Json {
        match self {
            Request::List => Fields::default().put("req", "list"),
            Request::Stats => Fields::default().put("req", "stats"),
            Request::Eval(e) => Fields::default()
                .put("req", "eval")
                .put("scenario", &e.scenario)
                .opt("tag", &e.tag),
            Request::Sweep(s) => space_fields("sweep", &s.base, &s.axes, &s.objectives)
                .opt("top_k", &s.top_k)
                .opt("sample", &s.sample)
                .opt("max_points", &s.max_points)
                .opt("max_ms", &s.max_ms)
                .opt("chunk", &s.chunk)
                .opt("progress_every", &s.progress_every)
                .opt("tag", &s.tag),
            Request::Search(s) => space_fields("search", &s.base, &s.axes, &s.objectives)
                .opt("initial", &s.initial)
                .opt("rungs", &s.rungs)
                .opt("keep", &s.keep)
                .opt("max_evals", &s.max_evals)
                .opt("seed", &s.seed)
                .opt("max_ms", &s.max_ms)
                .opt("chunk", &s.chunk)
                .opt("tag", &s.tag),
        }
        .into()
    }

    /// The canonical wire line (compact, no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().to_string_compact()
    }
}

/// The fields a sweep and a search open with: the kind, then the
/// declared space and its objectives.
fn space_fields(
    kind: &str,
    base: &ScenarioSpec,
    axes: &[AxisSpec],
    objectives: &[String],
) -> Fields {
    Fields::default()
        .put("req", kind)
        .put("base", base)
        .put("axes", axes)
        .put("objectives", objectives)
}

/// Read the axes and objectives a sweep and a search share. The base
/// scenario comes later, after each kind's own knobs: the reading order
/// decides which error a line with several is refused for.
fn read_axes_and_objectives(o: &Obj<'_>) -> Result<(Vec<AxisSpec>, Vec<String>), WireError> {
    let axes = o.opt("axes")?.unwrap_or_default();
    let objectives = o.opt("objectives")?.unwrap_or_else(default_objectives);
    resolve_objective_names(&objectives)?;
    Ok((axes, objectives))
}

fn read_sweep(o: &Obj<'_>) -> Result<SweepReq, WireError> {
    o.only(&[
        "base",
        "axes",
        "objectives",
        "top_k",
        "sample",
        "max_points",
        "max_ms",
        "chunk",
        "progress_every",
        "tag",
    ])?;
    let (axes, objectives) = read_axes_and_objectives(o)?;
    Ok(SweepReq {
        axes,
        objectives,
        top_k: o.opt("top_k")?,
        sample: o.opt("sample")?,
        base: o.opt("base")?.unwrap_or_default(),
        max_points: o.opt("max_points")?,
        max_ms: o.opt("max_ms")?,
        chunk: o.opt("chunk")?,
        progress_every: o.opt("progress_every")?,
        tag: o.opt("tag")?,
    })
}

fn read_search(o: &Obj<'_>) -> Result<SearchReq, WireError> {
    o.only(&[
        "base",
        "axes",
        "objectives",
        "initial",
        "rungs",
        "keep",
        "max_evals",
        "seed",
        "max_ms",
        "chunk",
        "tag",
    ])?;
    let (axes, objectives) = read_axes_and_objectives(o)?;
    if axes.is_empty() {
        return Err(WireError::bad_request(
            "search requires at least one axis (a zero-dimensional space has nothing to search)",
        ));
    }
    let initial = o.nonzero("initial")?;
    let rungs = o.nonzero("rungs")?;
    let keep = o.opt("keep")?;
    if keep.is_some_and(|k: f64| !(k > 0.0 && k <= 1.0)) {
        return Err(WireError::bad_request("keep must be in (0, 1]"));
    }
    Ok(SearchReq {
        axes,
        objectives,
        initial,
        rungs,
        keep,
        max_evals: o.nonzero("max_evals")?,
        base: o.opt("base")?.unwrap_or_default(),
        seed: o.opt("seed")?,
        max_ms: o.opt("max_ms")?,
        chunk: o.opt("chunk")?,
        tag: o.opt("tag")?,
    })
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_through_the_canonical_form() {
        let reqs = [
            Request::List,
            Request::Stats,
            Request::Eval(EvalReq {
                scenario: ScenarioSpec {
                    tile: Some(TileSel::Big),
                    w: Some(12),
                    workload: Some(WorkloadSpec::Zoo(ZooSel::Resnet18)),
                    pass: Some(PassSel::Bwd),
                    seed: Some(7),
                    ..ScenarioSpec::default()
                },
                tag: Some("point-a".to_string()),
            }),
            Request::Sweep(SweepReq {
                axes: vec![
                    AxisSpec::Tile(vec![TileSel::Small, TileSel::Big]),
                    AxisSpec::W(vec![8, 12, 16]),
                    AxisSpec::Dists(vec![(DistSpec::Resnet18, DistSpec::Weight)]),
                ],
                top_k: Some(TopKSpec {
                    objective: "fp_tflops_per_w".to_string(),
                    k: 5,
                }),
                sample: Some(SampleSpec { count: 64, seed: 3 }),
                max_ms: Some(1000),
                ..SweepReq::default()
            }),
            Request::Search(SearchReq {
                axes: vec![AxisSpec::ScheduleMask(27), AxisSpec::W(vec![8, 12])],
                initial: Some(128),
                rungs: Some(8),
                keep: Some(0.5),
                max_evals: Some(640),
                seed: Some(9),
                max_ms: Some(5000),
                tag: Some("sched".to_string()),
                ..SearchReq::default()
            }),
        ];
        for req in reqs {
            let line = req.to_line();
            assert_eq!(Request::parse(&line), Ok(req.clone()), "line {line}");
        }
    }

    #[test]
    fn sugar_canonicalizes_to_explicit_values() {
        let line = r#"{"req":"sweep","axes":[
            {"axis":"w","grid":[8,12,2]},
            {"axis":"cluster","log2":[1,8]},
            {"axis":"dists","values":["fwd","bwd"]}
        ]}"#
        .replace('\n', " ");
        let Request::Sweep(s) = Request::parse(&line).unwrap() else {
            panic!("sweep expected")
        };
        assert_eq!(s.axes[0], AxisSpec::W(vec![8, 10, 12]));
        assert_eq!(s.axes[1], AxisSpec::Cluster(vec![1, 2, 4, 8]));
        assert_eq!(
            s.axes[2],
            AxisSpec::Dists(vec![
                (DistSpec::Resnet18, DistSpec::Weight),
                (DistSpec::Backward, DistSpec::Weight),
            ])
        );
        // The emitted canonical form has no sugar left and round-trips.
        let canonical = Request::Sweep(s.clone()).to_line();
        assert!(!canonical.contains("grid") && !canonical.contains("log2"));
        assert_eq!(Request::parse(&canonical), Ok(Request::Sweep(s)));
    }

    #[test]
    fn malformed_lines_are_structured_errors() {
        let cases = [
            ("not json at all", ErrorCode::Parse),
            ("{\"req\":\"sweep\"", ErrorCode::Parse), // truncated
            ("[1,2,3]", ErrorCode::Parse),
            ("{\"no_req\":1}", ErrorCode::Parse),
            ("{\"req\":\"frobnicate\"}", ErrorCode::Parse),
            ("{\"req\":\"list\",\"extra\":1}", ErrorCode::BadRequest),
            (
                "{\"req\":\"eval\",\"scenario\":{\"tile\":\"medium\"}}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"req\":\"eval\",\"scenario\":{\"clustre\":4}}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"req\":\"sweep\",\"axes\":[{\"axis\":\"w\",\"values\":[]}]}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"req\":\"sweep\",\"axes\":[{\"axis\":\"schedule\",\"values\":[]}]}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"req\":\"sweep\",\"objectives\":[\"speed\"]}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"req\":\"sweep\",\"axes\":[{\"axis\":\"w\"}]}",
                ErrorCode::BadRequest,
            ),
            // Search: axes are mandatory, knobs are validated, and the
            // schedule_mask sugar stays exclusive to its own axis kind.
            ("{\"req\":\"search\"}", ErrorCode::BadRequest),
            (
                "{\"req\":\"search\",\"axes\":[{\"axis\":\"w\",\"layers\":4}]}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"req\":\"search\",\"axes\":[{\"axis\":\"schedule_mask\",\"layers\":0}]}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"req\":\"search\",\"axes\":[{\"axis\":\"schedule_mask\",\"layers\":49}]}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"req\":\"search\",\"axes\":[{\"axis\":\"w\",\"values\":[8]}],\"keep\":0}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"req\":\"search\",\"axes\":[{\"axis\":\"w\",\"values\":[8]}],\"max_evals\":0}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"req\":\"search\",\"axes\":[{\"axis\":\"w\",\"values\":[8]}],\"sample\":{}}",
                ErrorCode::BadRequest,
            ),
        ];
        for (line, code) in cases {
            let err = Request::parse(line).expect_err(line);
            assert_eq!(err.code, code, "line {line}: {}", err.message);
        }
    }

    #[test]
    fn scenario_spec_builds_the_expected_chain() {
        let spec = ScenarioSpec {
            tile: Some(TileSel::Big),
            w: Some(16),
            cluster: Some(4),
            workload: Some(WorkloadSpec::Zoo(ZooSel::Resnet18)),
            pass: Some(PassSel::Bwd),
            sample_steps: Some(32),
            ..ScenarioSpec::default()
        };
        let s = spec.to_scenario();
        assert_eq!(s.design().w, 16);
        assert_eq!(s.design().tile.cluster_size, 4);
        // Pricing it runs end to end.
        assert!(s.run().result.total_cycles() > 0);
    }

    #[test]
    fn sweep_points_and_space_agree() {
        let req = SweepReq {
            axes: vec![AxisSpec::W(vec![8, 12]), AxisSpec::Cluster(vec![1, 2, 4])],
            ..SweepReq::default()
        };
        assert_eq!(req.points(), 6);
        assert_eq!(req.to_space().len(), 6);
        let sampled = SweepReq {
            sample: Some(SampleSpec { count: 17, seed: 1 }),
            ..req
        };
        assert_eq!(sampled.points(), 17);
    }

    #[test]
    fn schedule_mask_axis_declares_an_exponential_space() {
        let req = SearchReq {
            axes: vec![AxisSpec::ScheduleMask(27)],
            ..SearchReq::default()
        };
        assert_eq!(req.space_points(), 1 << 27);
        assert!(req.space_points() > 100_000_000);
        let space = req.to_space();
        assert_eq!(space.len(), 1 << 27);
        assert_eq!(space.axes()[0].name(), "schedule_mask");
    }

    #[test]
    fn objective_catalog_is_total() {
        let names: Vec<String> = objectives::ALL.iter().map(|o| o.name.to_string()).collect();
        let resolved = resolve_objective_names(&names).unwrap();
        assert!(resolved.iter().zip(&names).all(|(o, n)| o.name == n));
        assert!(resolve_objective_names(&default_objectives()).is_ok());
        assert!(objective("nope").is_err());
    }
}
