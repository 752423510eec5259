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
//!
//! [`Request::parse`] is strict — unknown fields, wrong types, unknown
//! enum labels, and empty axes are structured [`WireError`]s, never
//! panics — and [`Request::to_json`] emits the canonical form, so
//! `parse(emit(r)) == r` for every representable request (held by a
//! property test). Convenience sugar is accepted on input and
//! canonicalized away: `{"axis":"w","grid":[lo,hi,step]}` and
//! `{"axis":"cluster","log2":[lo,hi]}` expand to explicit value lists,
//! and a dists-axis entry may be the shorthand `"fwd"`/`"bwd"` for the
//! pass-derived distribution pair.
//!
//! The `schedule` axis is deliberately *not* in wire v1: it carries an
//! open-ended policy type, so a policy-scheduled sweep stays an
//! in-process (library) affair (`schedule_mask` is on the wire).

use mpipu::{Scenario, Zoo};
use mpipu_analysis::dist::Distribution;
use mpipu_bench::json::Json;
use mpipu_dnn::zoo::Pass;
use mpipu_explore::{grid_u32, objectives, Axis, Objective, ParamSpace, TileChoice, WorkloadSel};

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

/// Every objective name the wire accepts, in catalog order.
pub const OBJECTIVE_NAMES: [&str; 7] = [
    "cycles",
    "fp_slowdown",
    "fp_fraction",
    "int_tops_per_mm2",
    "int_tops_per_w",
    "fp_tflops_per_mm2",
    "fp_tflops_per_w",
];

/// Default sweep objectives (the frontier experiment's triple).
pub const DEFAULT_OBJECTIVES: [&str; 3] = ["fp_slowdown", "int_tops_per_mm2", "fp_tflops_per_w"];

/// Resolve a wire objective name against the builtin catalog.
pub fn objective_by_name(name: &str) -> Option<Objective> {
    Some(match name {
        "cycles" => objectives::CYCLES,
        "fp_slowdown" => objectives::FP_SLOWDOWN,
        "fp_fraction" => objectives::FP_FRACTION,
        "int_tops_per_mm2" => objectives::INT_TOPS_PER_MM2,
        "int_tops_per_w" => objectives::INT_TOPS_PER_W,
        "fp_tflops_per_mm2" => objectives::FP_TFLOPS_PER_MM2,
        "fp_tflops_per_w" => objectives::FP_TFLOPS_PER_W,
        _ => return None,
    })
}

/// Tile family selector (`"small"` / `"big"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileSel {
    /// The paper's small tile.
    Small,
    /// The paper's big tile.
    Big,
}

impl TileSel {
    /// The stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            TileSel::Small => "small",
            TileSel::Big => "big",
        }
    }

    fn parse(label: &str) -> Result<TileSel, WireError> {
        match label {
            "small" => Ok(TileSel::Small),
            "big" => Ok(TileSel::Big),
            other => Err(WireError::bad_request(format!(
                "unknown tile {other:?} (expected \"small\" or \"big\")"
            ))),
        }
    }

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

impl PassSel {
    /// The stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            PassSel::Fwd => "fwd",
            PassSel::Bwd => "bwd",
        }
    }

    fn parse(label: &str) -> Result<PassSel, WireError> {
        match label {
            "fwd" => Ok(PassSel::Fwd),
            "bwd" => Ok(PassSel::Bwd),
            other => Err(WireError::bad_request(format!(
                "unknown pass {other:?} (expected \"fwd\" or \"bwd\")"
            ))),
        }
    }

    /// The simulator pass this selects.
    pub fn to_pass(self) -> Pass {
        match self {
            PassSel::Fwd => Pass::Forward,
            PassSel::Bwd => Pass::Backward,
        }
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

impl ZooSel {
    /// The stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            ZooSel::Resnet18 => "resnet18",
            ZooSel::Resnet50 => "resnet50",
            ZooSel::Inceptionv3 => "inceptionv3",
        }
    }

    fn parse(label: &str) -> Result<ZooSel, WireError> {
        match label {
            "resnet18" => Ok(ZooSel::Resnet18),
            "resnet50" => Ok(ZooSel::Resnet50),
            "inceptionv3" => Ok(ZooSel::Inceptionv3),
            other => Err(WireError::bad_request(format!(
                "unknown zoo model {other:?} (expected resnet18, resnet50, or inceptionv3)"
            ))),
        }
    }

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

impl WorkloadSpec {
    fn to_json(self) -> Json {
        match self {
            WorkloadSpec::Zoo(z) => Json::obj([("zoo", Json::str(z.label()))]),
            WorkloadSpec::Synthetic(c, s, d) => Json::obj([(
                "synthetic",
                Json::Arr(vec![Json::from(c), Json::from(s), Json::from(d)]),
            )]),
        }
    }

    fn parse(j: &Json) -> Result<WorkloadSpec, WireError> {
        let fields = as_obj(j, "workload")?;
        check_keys(fields, &["zoo", "synthetic"], "workload")?;
        match (field(fields, "zoo"), field(fields, "synthetic")) {
            (Some(z), None) => Ok(WorkloadSpec::Zoo(ZooSel::parse(as_str(
                z,
                "workload.zoo",
            )?)?)),
            (None, Some(s)) => {
                let arr = s
                    .as_arr()
                    .ok_or_else(|| WireError::bad_request("workload.synthetic must be an array"))?;
                if arr.len() != 3 {
                    return Err(WireError::bad_request(
                        "workload.synthetic must be [channels, spatial, depth]",
                    ));
                }
                Ok(WorkloadSpec::Synthetic(
                    as_usize(&arr[0], "workload.synthetic[0]")?,
                    as_usize(&arr[1], "workload.synthetic[1]")?,
                    as_usize(&arr[2], "workload.synthetic[2]")?,
                ))
            }
            _ => Err(WireError::bad_request(
                "workload must have exactly one of \"zoo\" or \"synthetic\"",
            )),
        }
    }

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

impl DistSpec {
    fn kind(self) -> &'static str {
        match self {
            DistSpec::Uniform { .. } => "uniform",
            DistSpec::Normal { .. } => "normal",
            DistSpec::Laplace { .. } => "laplace",
            DistSpec::Resnet18 => "resnet18",
            DistSpec::Resnet50 => "resnet50",
            DistSpec::Backward => "backward",
            DistSpec::Weight => "weight",
        }
    }

    fn to_json(self) -> Json {
        let mut fields = vec![("kind".to_string(), Json::str(self.kind()))];
        match self {
            DistSpec::Uniform { scale } => fields.push(("scale".to_string(), Json::Num(scale))),
            DistSpec::Normal { std } => fields.push(("std".to_string(), Json::Num(std))),
            DistSpec::Laplace { b } => fields.push(("b".to_string(), Json::Num(b))),
            _ => {}
        }
        Json::Obj(fields)
    }

    fn parse(j: &Json) -> Result<DistSpec, WireError> {
        let fields = as_obj(j, "distribution")?;
        let kind = as_str(
            field(fields, "kind")
                .ok_or_else(|| WireError::bad_request("distribution is missing \"kind\""))?,
            "distribution.kind",
        )?;
        let param = |name: &str| -> Result<f64, WireError> {
            check_keys(fields, &["kind", name], "distribution")?;
            field(fields, name)
                .and_then(Json::as_f64)
                .filter(|x| x.is_finite())
                .ok_or_else(|| {
                    WireError::bad_request(format!(
                        "distribution kind {kind:?} needs a finite numeric \"{name}\""
                    ))
                })
        };
        match kind {
            "uniform" => Ok(DistSpec::Uniform {
                scale: param("scale")?,
            }),
            "normal" => Ok(DistSpec::Normal { std: param("std")? }),
            "laplace" => Ok(DistSpec::Laplace { b: param("b")? }),
            "resnet18" | "resnet50" | "backward" | "weight" => {
                check_keys(fields, &["kind"], "distribution")?;
                Ok(match kind {
                    "resnet18" => DistSpec::Resnet18,
                    "resnet50" => DistSpec::Resnet50,
                    "backward" => DistSpec::Backward,
                    _ => DistSpec::Weight,
                })
            }
            other => Err(WireError::bad_request(format!(
                "unknown distribution kind {other:?}"
            ))),
        }
    }

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
/// `{"act":{...},"wgt":{...}}`.
pub type DistPair = (DistSpec, DistSpec);

fn dist_pair_to_json(pair: &DistPair) -> Json {
    Json::obj([("act", pair.0.to_json()), ("wgt", pair.1.to_json())])
}

fn parse_dist_pair(j: &Json) -> Result<DistPair, WireError> {
    // Sugar: "fwd"/"bwd" is the pass-derived distribution pair.
    if let Some(label) = j.as_str() {
        let pass = PassSel::parse(label)?;
        let (act, wgt) = mpipu_sim::cost::pass_distributions(pass.to_pass());
        return Ok((DistSpec::from_dist(act), DistSpec::from_dist(wgt)));
    }
    let fields = as_obj(j, "dists")?;
    check_keys(fields, &["act", "wgt"], "dists")?;
    let act =
        field(fields, "act").ok_or_else(|| WireError::bad_request("dists is missing \"act\""))?;
    let wgt =
        field(fields, "wgt").ok_or_else(|| WireError::bad_request("dists is missing \"wgt\""))?;
    Ok((DistSpec::parse(act)?, DistSpec::parse(wgt)?))
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

const SCENARIO_KEYS: [&str; 11] = [
    "tile",
    "w",
    "software_precision",
    "cluster",
    "buffer_depth",
    "n_tiles",
    "workload",
    "pass",
    "dists",
    "seed",
    "sample_steps",
];

impl ScenarioSpec {
    /// The canonical wire object (set fields only, fixed order).
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = Vec::new();
        let mut push = |key: &str, value: Option<Json>| {
            if let Some(v) = value {
                fields.push((key.to_string(), v));
            }
        };
        push("tile", self.tile.map(|t| Json::str(t.label())));
        push("w", self.w.map(Json::from));
        push(
            "software_precision",
            self.software_precision.map(Json::from),
        );
        push("cluster", self.cluster.map(Json::from));
        push("buffer_depth", self.buffer_depth.map(Json::from));
        push("n_tiles", self.n_tiles.map(Json::from));
        push("workload", self.workload.map(WorkloadSpec::to_json));
        push("pass", self.pass.map(|p| Json::str(p.label())));
        push("dists", self.dists.as_ref().map(dist_pair_to_json));
        push("seed", self.seed.map(Json::from));
        push("sample_steps", self.sample_steps.map(Json::from));
        Json::Obj(fields)
    }

    /// Parse a wire scenario object (strict: unknown fields error).
    pub fn parse(j: &Json) -> Result<ScenarioSpec, WireError> {
        let fields = as_obj(j, "scenario")?;
        check_keys(fields, &SCENARIO_KEYS, "scenario")?;
        Ok(ScenarioSpec {
            tile: field(fields, "tile")
                .map(|v| TileSel::parse(as_str(v, "scenario.tile")?))
                .transpose()?,
            w: field(fields, "w")
                .map(|v| as_u32(v, "scenario.w"))
                .transpose()?,
            software_precision: field(fields, "software_precision")
                .map(|v| as_u32(v, "scenario.software_precision"))
                .transpose()?,
            cluster: field(fields, "cluster")
                .map(|v| as_usize(v, "scenario.cluster"))
                .transpose()?,
            buffer_depth: field(fields, "buffer_depth")
                .map(|v| as_usize(v, "scenario.buffer_depth"))
                .transpose()?,
            n_tiles: field(fields, "n_tiles")
                .map(|v| as_usize(v, "scenario.n_tiles"))
                .transpose()?,
            workload: field(fields, "workload")
                .map(WorkloadSpec::parse)
                .transpose()?,
            pass: field(fields, "pass")
                .map(|v| PassSel::parse(as_str(v, "scenario.pass")?))
                .transpose()?,
            dists: field(fields, "dists").map(parse_dist_pair).transpose()?,
            seed: field(fields, "seed")
                .map(|v| as_u64(v, "scenario.seed"))
                .transpose()?,
            sample_steps: field(fields, "sample_steps")
                .map(|v| as_usize(v, "scenario.sample_steps"))
                .transpose()?,
        })
    }

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
        if let Some(c) = self.cluster {
            s = s.cluster(c);
        }
        if let Some(d) = self.buffer_depth {
            s = s.buffer_depth(d);
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

/// One swept axis with explicit values, wire form
/// `{"axis": <name>, "values": [...]}`. [`AxisSpec::parse`] also accepts
/// `"grid": [lo, hi, step]` (for `w`) and `"log2": [lo, hi]` (for
/// `cluster` / `n_tiles`) range sugar, canonicalized to value lists.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisSpec {
    /// Adder-tree widths.
    W(Vec<u32>),
    /// Stage-4 software precisions.
    SoftwarePrecision(Vec<u32>),
    /// Cluster sizes.
    Cluster(Vec<usize>),
    /// FIFO depths.
    BufferDepth(Vec<usize>),
    /// Tiles per chip.
    NTiles(Vec<usize>),
    /// Tile families.
    Tile(Vec<TileSel>),
    /// Workloads.
    Workload(Vec<WorkloadSpec>),
    /// Passes.
    Pass(Vec<PassSel>),
    /// `(activation, weight)` distribution pairs.
    Dists(Vec<DistPair>),
    /// Per-layer INT/FP16 precision masks over this many layers —
    /// `2^layers` points, wire form `{"axis":"schedule_mask","layers":N}`.
    /// Unlike the policy-valued `schedule` axis (still not in wire v1),
    /// a mask axis is a closed, enumerable value set, which is what the
    /// `search` request needs to address points by [`mpipu_explore::DesignId`].
    ScheduleMask(u32),
}

impl AxisSpec {
    /// The axis's stable wire name (identical to [`Axis::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            AxisSpec::W(_) => "w",
            AxisSpec::SoftwarePrecision(_) => "software_precision",
            AxisSpec::Cluster(_) => "cluster",
            AxisSpec::BufferDepth(_) => "buffer_depth",
            AxisSpec::NTiles(_) => "n_tiles",
            AxisSpec::Tile(_) => "tile",
            AxisSpec::Workload(_) => "workload",
            AxisSpec::Pass(_) => "pass",
            AxisSpec::Dists(_) => "dists",
            AxisSpec::ScheduleMask(_) => "schedule_mask",
        }
    }

    /// Number of values on the axis.
    pub fn len(&self) -> usize {
        match self {
            AxisSpec::W(v) => v.len(),
            AxisSpec::SoftwarePrecision(v) => v.len(),
            AxisSpec::Cluster(v) => v.len(),
            AxisSpec::BufferDepth(v) => v.len(),
            AxisSpec::NTiles(v) => v.len(),
            AxisSpec::Tile(v) => v.len(),
            AxisSpec::Workload(v) => v.len(),
            AxisSpec::Pass(v) => v.len(),
            AxisSpec::Dists(v) => v.len(),
            AxisSpec::ScheduleMask(layers) => 1usize << layers,
        }
    }

    /// Whether the axis has no values (rejected by the parser).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The canonical wire object.
    pub fn to_json(&self) -> Json {
        if let AxisSpec::ScheduleMask(layers) = self {
            return Json::obj([
                ("axis", Json::str("schedule_mask")),
                ("layers", Json::from(*layers)),
            ]);
        }
        let values = match self {
            AxisSpec::W(v) => v.iter().copied().map(Json::from).collect(),
            AxisSpec::SoftwarePrecision(v) => v.iter().copied().map(Json::from).collect(),
            AxisSpec::Cluster(v) => v.iter().copied().map(Json::from).collect(),
            AxisSpec::BufferDepth(v) => v.iter().copied().map(Json::from).collect(),
            AxisSpec::NTiles(v) => v.iter().copied().map(Json::from).collect(),
            AxisSpec::Tile(v) => v.iter().map(|t| Json::str(t.label())).collect(),
            AxisSpec::Workload(v) => v.iter().map(|w| w.to_json()).collect(),
            AxisSpec::Pass(v) => v.iter().map(|p| Json::str(p.label())).collect(),
            AxisSpec::Dists(v) => v.iter().map(dist_pair_to_json).collect(),
            AxisSpec::ScheduleMask(_) => unreachable!("handled above"),
        };
        Json::obj([
            ("axis", Json::str(self.name())),
            ("values", Json::Arr(values)),
        ])
    }

    /// Parse a wire axis object (strict; accepts `grid`/`log2` sugar).
    pub fn parse(j: &Json) -> Result<AxisSpec, WireError> {
        let fields = as_obj(j, "axis")?;
        check_keys(
            fields,
            &["axis", "values", "grid", "log2", "layers"],
            "axis",
        )?;
        let name = as_str(
            field(fields, "axis")
                .ok_or_else(|| WireError::bad_request("axis entry is missing \"axis\""))?,
            "axis.axis",
        )?;
        if name == "schedule_mask" {
            check_keys(fields, &["axis", "layers"], "schedule_mask axis")?;
            let layers = as_u32(
                field(fields, "layers")
                    .ok_or_else(|| WireError::bad_request("schedule_mask axis needs \"layers\""))?,
                "axis.layers",
            )?;
            if !(1..=48).contains(&layers) {
                return Err(WireError::bad_request(
                    "schedule_mask layers must be in 1..=48",
                ));
            }
            return Ok(AxisSpec::ScheduleMask(layers));
        }
        if field(fields, "layers").is_some() {
            return Err(WireError::bad_request(format!(
                "\"layers\" is only defined for the \"schedule_mask\" axis, not {name:?}"
            )));
        }
        let values = field(fields, "values");
        let grid = field(fields, "grid");
        let log2 = field(fields, "log2");
        if values.iter().count() + grid.iter().count() + log2.iter().count() != 1 {
            return Err(WireError::bad_request(format!(
                "axis {name:?} must have exactly one of \"values\", \"grid\", or \"log2\""
            )));
        }
        let spec = if let Some(g) = grid {
            if name != "w" {
                return Err(WireError::bad_request(format!(
                    "\"grid\" sugar is only defined for the \"w\" axis, not {name:?}"
                )));
            }
            let arr = triple_u32(g, "axis.grid")?;
            if arr[2] == 0 || arr[0] > arr[1] {
                return Err(WireError::bad_request(
                    "axis.grid must be [lo, hi, step] with lo <= hi and step >= 1",
                ));
            }
            AxisSpec::W(grid_u32(arr[0], arr[1], arr[2]))
        } else if let Some(l) = log2 {
            let arr = pair_usize(l, "axis.log2")?;
            if !arr[0].is_power_of_two() || !arr[1].is_power_of_two() || arr[0] > arr[1] {
                return Err(WireError::bad_request(
                    "axis.log2 must be [lo, hi], powers of two with lo <= hi",
                ));
            }
            let values = mpipu_explore::log2_range(arr[0], arr[1]);
            match name {
                "cluster" => AxisSpec::Cluster(values),
                "n_tiles" => AxisSpec::NTiles(values),
                other => {
                    return Err(WireError::bad_request(format!(
                        "\"log2\" sugar is only defined for \"cluster\"/\"n_tiles\", not {other:?}"
                    )))
                }
            }
        } else {
            let arr = values
                .and_then(Json::as_arr)
                .ok_or_else(|| WireError::bad_request("axis.values must be an array"))?;
            let u32s = |what| -> Result<Vec<u32>, WireError> {
                arr.iter().map(|v| as_u32(v, what)).collect()
            };
            let usizes = |what| -> Result<Vec<usize>, WireError> {
                arr.iter().map(|v| as_usize(v, what)).collect()
            };
            match name {
                "w" => AxisSpec::W(u32s("axis w values")?),
                "software_precision" => {
                    AxisSpec::SoftwarePrecision(u32s("axis software_precision values")?)
                }
                "cluster" => AxisSpec::Cluster(usizes("axis cluster values")?),
                "buffer_depth" => AxisSpec::BufferDepth(usizes("axis buffer_depth values")?),
                "n_tiles" => AxisSpec::NTiles(usizes("axis n_tiles values")?),
                "tile" => AxisSpec::Tile(
                    arr.iter()
                        .map(|v| TileSel::parse(as_str(v, "axis tile value")?))
                        .collect::<Result<_, _>>()?,
                ),
                "workload" => AxisSpec::Workload(
                    arr.iter()
                        .map(WorkloadSpec::parse)
                        .collect::<Result<_, _>>()?,
                ),
                "pass" => AxisSpec::Pass(
                    arr.iter()
                        .map(|v| PassSel::parse(as_str(v, "axis pass value")?))
                        .collect::<Result<_, _>>()?,
                ),
                "dists" => {
                    AxisSpec::Dists(arr.iter().map(parse_dist_pair).collect::<Result<_, _>>()?)
                }
                "schedule" => {
                    return Err(WireError::bad_request(
                        "the schedule axis is not part of wire v1 (use the library directly)",
                    ))
                }
                other => return Err(WireError::bad_request(format!("unknown axis {other:?}"))),
            }
        };
        if spec.is_empty() {
            return Err(WireError::bad_request(format!(
                "axis {:?} has no values",
                spec.name()
            )));
        }
        Ok(spec)
    }

    /// Build the exploration axis.
    pub fn to_axis(&self) -> Axis {
        match self {
            AxisSpec::W(v) => Axis::w(v.clone()),
            AxisSpec::SoftwarePrecision(v) => Axis::software_precision(v.clone()),
            AxisSpec::Cluster(v) => Axis::cluster(v.clone()),
            AxisSpec::BufferDepth(v) => Axis::buffer_depth(v.clone()),
            AxisSpec::NTiles(v) => Axis::n_tiles(v.clone()),
            AxisSpec::Tile(v) => Axis::tile(v.iter().map(|t| t.to_choice()).collect()),
            AxisSpec::Workload(v) => Axis::workload(v.iter().map(|w| w.to_sel()).collect()),
            AxisSpec::Pass(v) => Axis::pass(v.iter().map(|p| p.to_pass()).collect()),
            AxisSpec::Dists(v) => {
                Axis::distributions(v.iter().map(|(a, w)| (a.to_dist(), w.to_dist())).collect())
            }
            AxisSpec::ScheduleMask(layers) => Axis::schedule_mask(*layers),
        }
    }
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

/// Top-k selection riding along the Pareto fold, wire form
/// `{"objective": <name>, "k": N}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKSpec {
    /// Catalog objective to rank by.
    pub objective: String,
    /// Selection size.
    pub k: usize,
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
            objectives: DEFAULT_OBJECTIVES.iter().map(|s| s.to_string()).collect(),
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
        let mut space = ParamSpace::new(self.base.to_scenario());
        for axis in &self.axes {
            space = space.axis(axis.to_axis());
        }
        space
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
}

/// Resolve a list of objective names against the catalog (shared by the
/// sweep and search requests).
fn resolve_objective_names(names: &[String]) -> Result<Vec<Objective>, WireError> {
    if names.is_empty() {
        return Err(WireError::bad_request("objectives must not be empty"));
    }
    names
        .iter()
        .map(|name| {
            objective_by_name(name).ok_or_else(|| {
                WireError::bad_request(format!(
                    "unknown objective {name:?} (catalog: {})",
                    OBJECTIVE_NAMES.join(", ")
                ))
            })
        })
        .collect()
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
            objectives: DEFAULT_OBJECTIVES.iter().map(|s| s.to_string()).collect(),
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
        let mut space = ParamSpace::new(self.base.to_scenario());
        for axis in &self.axes {
            space = space.axis(axis.to_axis());
        }
        space
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
        let fields = as_obj(&j, "request")?;
        let kind = as_str(
            field(fields, "req").ok_or_else(|| WireError::parse("request is missing \"req\""))?,
            "req",
        )?;
        match kind {
            "list" => {
                check_keys(fields, &["req"], "list request")?;
                Ok(Request::List)
            }
            "stats" => {
                check_keys(fields, &["req"], "stats request")?;
                Ok(Request::Stats)
            }
            "eval" => {
                check_keys(fields, &["req", "scenario", "tag"], "eval request")?;
                Ok(Request::Eval(EvalReq {
                    scenario: field(fields, "scenario")
                        .map(ScenarioSpec::parse)
                        .transpose()?
                        .unwrap_or_default(),
                    tag: field(fields, "tag")
                        .map(|v| as_str(v, "tag").map(str::to_string))
                        .transpose()?,
                }))
            }
            "sweep" => parse_sweep(fields).map(Request::Sweep),
            "search" => parse_search(fields).map(Request::Search),
            other => Err(WireError::parse(format!(
                "unknown request kind {other:?} (expected list, stats, eval, sweep, or search)"
            ))),
        }
    }

    /// The canonical wire object ([`Request::parse`] inverts this).
    pub fn to_json(&self) -> Json {
        match self {
            Request::List => Json::obj([("req", Json::str("list"))]),
            Request::Stats => Json::obj([("req", Json::str("stats"))]),
            Request::Eval(e) => {
                let mut fields = vec![
                    ("req".to_string(), Json::str("eval")),
                    ("scenario".to_string(), e.scenario.to_json()),
                ];
                if let Some(tag) = &e.tag {
                    fields.push(("tag".to_string(), Json::str(tag)));
                }
                Json::Obj(fields)
            }
            Request::Sweep(s) => {
                let mut fields = vec![
                    ("req".to_string(), Json::str("sweep")),
                    ("base".to_string(), s.base.to_json()),
                    (
                        "axes".to_string(),
                        Json::Arr(s.axes.iter().map(AxisSpec::to_json).collect()),
                    ),
                    (
                        "objectives".to_string(),
                        Json::Arr(s.objectives.iter().map(Json::str).collect()),
                    ),
                ];
                if let Some(t) = &s.top_k {
                    fields.push((
                        "top_k".to_string(),
                        Json::obj([
                            ("objective", Json::str(&t.objective)),
                            ("k", Json::from(t.k)),
                        ]),
                    ));
                }
                if let Some(sm) = &s.sample {
                    fields.push((
                        "sample".to_string(),
                        Json::obj([
                            ("count", Json::from(sm.count)),
                            ("seed", Json::from(sm.seed)),
                        ]),
                    ));
                }
                let mut push = |key: &str, value: Option<Json>| {
                    if let Some(v) = value {
                        fields.push((key.to_string(), v));
                    }
                };
                push("max_points", s.max_points.map(Json::from));
                push("max_ms", s.max_ms.map(Json::from));
                push("chunk", s.chunk.map(Json::from));
                push("progress_every", s.progress_every.map(Json::from));
                push("tag", s.tag.as_ref().map(Json::str));
                Json::Obj(fields)
            }
            Request::Search(s) => {
                let mut fields = vec![
                    ("req".to_string(), Json::str("search")),
                    ("base".to_string(), s.base.to_json()),
                    (
                        "axes".to_string(),
                        Json::Arr(s.axes.iter().map(AxisSpec::to_json).collect()),
                    ),
                    (
                        "objectives".to_string(),
                        Json::Arr(s.objectives.iter().map(Json::str).collect()),
                    ),
                ];
                let mut push = |key: &str, value: Option<Json>| {
                    if let Some(v) = value {
                        fields.push((key.to_string(), v));
                    }
                };
                push("initial", s.initial.map(Json::from));
                push("rungs", s.rungs.map(Json::from));
                push("keep", s.keep.map(Json::from));
                push("max_evals", s.max_evals.map(Json::from));
                push("seed", s.seed.map(Json::from));
                push("max_ms", s.max_ms.map(Json::from));
                push("chunk", s.chunk.map(Json::from));
                push("tag", s.tag.as_ref().map(Json::str));
                Json::Obj(fields)
            }
        }
    }

    /// The canonical wire line (compact, no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().to_string_compact()
    }
}

fn parse_sweep(fields: &[(String, Json)]) -> Result<SweepReq, WireError> {
    check_keys(
        fields,
        &[
            "req",
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
        ],
        "sweep request",
    )?;
    let axes = match field(fields, "axes") {
        Some(v) => v
            .as_arr()
            .ok_or_else(|| WireError::bad_request("axes must be an array"))?
            .iter()
            .map(AxisSpec::parse)
            .collect::<Result<Vec<_>, _>>()?,
        None => Vec::new(),
    };
    let objectives = match field(fields, "objectives") {
        Some(v) => {
            let names: Vec<String> = v
                .as_arr()
                .ok_or_else(|| WireError::bad_request("objectives must be an array"))?
                .iter()
                .map(|n| as_str(n, "objective name").map(str::to_string))
                .collect::<Result<_, _>>()?;
            if names.is_empty() {
                return Err(WireError::bad_request("objectives must not be empty"));
            }
            for name in &names {
                if objective_by_name(name).is_none() {
                    return Err(WireError::bad_request(format!(
                        "unknown objective {name:?} (catalog: {})",
                        OBJECTIVE_NAMES.join(", ")
                    )));
                }
            }
            names
        }
        None => DEFAULT_OBJECTIVES.iter().map(|s| s.to_string()).collect(),
    };
    let top_k = field(fields, "top_k")
        .map(|v| -> Result<TopKSpec, WireError> {
            let f = as_obj(v, "top_k")?;
            check_keys(f, &["objective", "k"], "top_k")?;
            let objective = as_str(
                field(f, "objective")
                    .ok_or_else(|| WireError::bad_request("top_k is missing \"objective\""))?,
                "top_k.objective",
            )?
            .to_string();
            if objective_by_name(&objective).is_none() {
                return Err(WireError::bad_request(format!(
                    "unknown top_k objective {objective:?}"
                )));
            }
            let k = as_usize(
                field(f, "k").ok_or_else(|| WireError::bad_request("top_k is missing \"k\""))?,
                "top_k.k",
            )?;
            if k == 0 {
                return Err(WireError::bad_request("top_k.k must be >= 1"));
            }
            Ok(TopKSpec { objective, k })
        })
        .transpose()?;
    let sample = field(fields, "sample")
        .map(|v| -> Result<SampleSpec, WireError> {
            let f = as_obj(v, "sample")?;
            check_keys(f, &["count", "seed"], "sample")?;
            let count = as_usize(
                field(f, "count")
                    .ok_or_else(|| WireError::bad_request("sample is missing \"count\""))?,
                "sample.count",
            )?;
            if count == 0 {
                return Err(WireError::bad_request("sample.count must be >= 1"));
            }
            Ok(SampleSpec {
                count,
                seed: field(f, "seed")
                    .map(|s| as_u64(s, "sample.seed"))
                    .transpose()?
                    .unwrap_or(0),
            })
        })
        .transpose()?;
    Ok(SweepReq {
        base: field(fields, "base")
            .map(ScenarioSpec::parse)
            .transpose()?
            .unwrap_or_default(),
        axes,
        objectives,
        top_k,
        sample,
        max_points: field(fields, "max_points")
            .map(|v| as_u64(v, "max_points"))
            .transpose()?,
        max_ms: field(fields, "max_ms")
            .map(|v| as_u64(v, "max_ms"))
            .transpose()?,
        chunk: field(fields, "chunk")
            .map(|v| as_usize(v, "chunk"))
            .transpose()?,
        progress_every: field(fields, "progress_every")
            .map(|v| as_u64(v, "progress_every"))
            .transpose()?,
        tag: field(fields, "tag")
            .map(|v| as_str(v, "tag").map(str::to_string))
            .transpose()?,
    })
}

fn parse_search(fields: &[(String, Json)]) -> Result<SearchReq, WireError> {
    check_keys(
        fields,
        &[
            "req",
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
        ],
        "search request",
    )?;
    let axes = match field(fields, "axes") {
        Some(v) => v
            .as_arr()
            .ok_or_else(|| WireError::bad_request("axes must be an array"))?
            .iter()
            .map(AxisSpec::parse)
            .collect::<Result<Vec<_>, _>>()?,
        None => Vec::new(),
    };
    if axes.is_empty() {
        return Err(WireError::bad_request(
            "search requires at least one axis (a zero-dimensional space has nothing to search)",
        ));
    }
    let objectives = match field(fields, "objectives") {
        Some(v) => {
            let names: Vec<String> = v
                .as_arr()
                .ok_or_else(|| WireError::bad_request("objectives must be an array"))?
                .iter()
                .map(|n| as_str(n, "objective name").map(str::to_string))
                .collect::<Result<_, _>>()?;
            resolve_objective_names(&names)?;
            names
        }
        None => DEFAULT_OBJECTIVES.iter().map(|s| s.to_string()).collect(),
    };
    let initial = field(fields, "initial")
        .map(|v| as_usize(v, "initial"))
        .transpose()?;
    if initial == Some(0) {
        return Err(WireError::bad_request("initial must be >= 1"));
    }
    let rungs = field(fields, "rungs")
        .map(|v| as_usize(v, "rungs"))
        .transpose()?;
    if rungs == Some(0) {
        return Err(WireError::bad_request("rungs must be >= 1"));
    }
    let keep = field(fields, "keep")
        .map(|v| {
            let k = v
                .as_f64()
                .ok_or_else(|| WireError::bad_request("keep must be a number"))?;
            if !(k > 0.0 && k <= 1.0) {
                return Err(WireError::bad_request("keep must be in (0, 1]"));
            }
            Ok(k)
        })
        .transpose()?;
    let max_evals = field(fields, "max_evals")
        .map(|v| as_u64(v, "max_evals"))
        .transpose()?;
    if max_evals == Some(0) {
        return Err(WireError::bad_request("max_evals must be >= 1"));
    }
    Ok(SearchReq {
        base: field(fields, "base")
            .map(ScenarioSpec::parse)
            .transpose()?
            .unwrap_or_default(),
        axes,
        objectives,
        initial,
        rungs,
        keep,
        max_evals,
        seed: field(fields, "seed")
            .map(|v| as_u64(v, "seed"))
            .transpose()?,
        max_ms: field(fields, "max_ms")
            .map(|v| as_u64(v, "max_ms"))
            .transpose()?,
        chunk: field(fields, "chunk")
            .map(|v| as_usize(v, "chunk"))
            .transpose()?,
        tag: field(fields, "tag")
            .map(|v| as_str(v, "tag").map(str::to_string))
            .transpose()?,
    })
}

// ---- strict-parse helpers -------------------------------------------------

fn as_obj<'a>(j: &'a Json, what: &str) -> Result<&'a [(String, Json)], WireError> {
    match j {
        Json::Obj(fields) => Ok(fields),
        _ => Err(WireError::parse(format!("{what} must be a JSON object"))),
    }
}

fn field<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn check_keys(fields: &[(String, Json)], allowed: &[&str], what: &str) -> Result<(), WireError> {
    for (k, _) in fields {
        if !allowed.contains(&k.as_str()) {
            return Err(WireError::bad_request(format!(
                "unknown field {k:?} in {what} (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn as_str<'a>(j: &'a Json, what: &str) -> Result<&'a str, WireError> {
    j.as_str()
        .ok_or_else(|| WireError::bad_request(format!("{what} must be a string")))
}

fn as_u64(j: &Json, what: &str) -> Result<u64, WireError> {
    match j {
        Json::UInt(u) => Ok(*u),
        _ => Err(WireError::bad_request(format!(
            "{what} must be a non-negative integer"
        ))),
    }
}

fn as_usize(j: &Json, what: &str) -> Result<usize, WireError> {
    usize::try_from(as_u64(j, what)?)
        .map_err(|_| WireError::bad_request(format!("{what} is out of range")))
}

fn as_u32(j: &Json, what: &str) -> Result<u32, WireError> {
    u32::try_from(as_u64(j, what)?)
        .map_err(|_| WireError::bad_request(format!("{what} is out of range")))
}

fn triple_u32(j: &Json, what: &str) -> Result<[u32; 3], WireError> {
    let arr = j
        .as_arr()
        .ok_or_else(|| WireError::bad_request(format!("{what} must be a 3-element array")))?;
    if arr.len() != 3 {
        return Err(WireError::bad_request(format!(
            "{what} must have exactly 3 elements"
        )));
    }
    Ok([
        as_u32(&arr[0], what)?,
        as_u32(&arr[1], what)?,
        as_u32(&arr[2], what)?,
    ])
}

fn pair_usize(j: &Json, what: &str) -> Result<[usize; 2], WireError> {
    let arr = j
        .as_arr()
        .ok_or_else(|| WireError::bad_request(format!("{what} must be a 2-element array")))?;
    if arr.len() != 2 {
        return Err(WireError::bad_request(format!(
            "{what} must have exactly 2 elements"
        )));
    }
    Ok([as_usize(&arr[0], what)?, as_usize(&arr[1], what)?])
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
        for name in OBJECTIVE_NAMES {
            assert!(objective_by_name(name).is_some(), "{name}");
        }
        assert!(objective_by_name("nope").is_none());
    }
}
