//! [`ParamSpace`]: a base scenario plus typed axes, with a stable
//! [`DesignId`] per cartesian-product point.
//!
//! The id is the point's mixed-radix rank with the *first* declared axis
//! most significant (row-major: the last axis varies fastest), so ids are
//! stable properties of the declared space — independent of iteration
//! order, thread scheduling, and sampling. Folding sweep results in id
//! order is what makes every engine output byte-deterministic.

use crate::axis::Axis;
use mpipu::datapath::check_adder_tree;
use mpipu::Scenario;
use mpipu_sim::{LayerPrecision, Schedule, ScheduleError, TileConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// Largest axis whose labels are materialized eagerly. Wider axes (a
/// 2^27-value schedule mask) render labels on demand instead — a sweep
/// touches a vanishing fraction of such an axis, and materializing it
/// would cost more than the sweep.
const DENSE_LABEL_LIMIT: usize = 4096;

/// One axis's label column: either every label pre-rendered, or the axis
/// itself, rendering on demand.
#[derive(Debug)]
enum LabelColumn {
    Dense(Vec<Arc<str>>),
    Lazy(Axis),
}

/// The shared axis-value label table every [`crate::PointEval`] of a
/// sweep references. Small axes pre-render their labels once per run;
/// axes too wide to materialize (see [`crate::Axis::schedule_mask`])
/// render each requested label on demand from the axis definition, so
/// the table's footprint is bounded by the *narrow* axes regardless of
/// how large the space is.
#[derive(Debug)]
pub struct LabelTable {
    columns: Vec<LabelColumn>,
}

impl LabelTable {
    fn build(axes: &[Axis]) -> LabelTable {
        LabelTable {
            columns: axes
                .iter()
                .map(|a| {
                    if a.len() <= DENSE_LABEL_LIMIT {
                        LabelColumn::Dense((0..a.len()).map(|i| Arc::from(a.label(i))).collect())
                    } else {
                        LabelColumn::Lazy(a.clone())
                    }
                })
                .collect(),
        }
    }

    /// Number of axis columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// The label of value `value` on axis `axis`.
    ///
    /// # Panics
    /// Panics when `axis` or `value` is out of range.
    pub fn label(&self, axis: usize, value: usize) -> Arc<str> {
        match &self.columns[axis] {
            LabelColumn::Dense(v) => v[value].clone(),
            LabelColumn::Lazy(a) => Arc::from(a.label(value)),
        }
    }
}

/// A fully-materialized table (every column dense) — the form test
/// helpers build by hand.
impl From<Vec<Vec<Arc<str>>>> for LabelTable {
    fn from(columns: Vec<Vec<Arc<str>>>) -> LabelTable {
        LabelTable {
            columns: columns.into_iter().map(LabelColumn::Dense).collect(),
        }
    }
}

/// The most MAC work (all layers × multiplicity) a workload may carry:
/// over 10⁴× the largest zoo network, and far enough inside `u64` that
/// every step and cycle count derived from it stays in range.
const MAX_WORKLOAD_MACS: u64 = 1 << 48;

/// Why a space cannot be swept ([`ParamSpace::check`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpaceError {
    /// A precision schedule does not fit a workload the space reaches.
    Schedule(ScheduleError),
    /// A geometry no design can be priced at: a cluster size that does
    /// not divide a reached tile's IPU count, a zero buffer depth, a
    /// tile count that is zero or overflows the tiles' K unrolling, an
    /// adder-tree width no IPU of a reached tile can be built with, or a
    /// workload that is degenerate or past 2^48 MACs.
    Geometry(String),
}

impl std::fmt::Display for SpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpaceError::Schedule(e) => e.fmt(f),
            SpaceError::Geometry(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for SpaceError {}

impl From<ScheduleError> for SpaceError {
    fn from(e: ScheduleError) -> SpaceError {
        SpaceError::Schedule(e)
    }
}

/// A tile's own cluster size and buffer depth must be priceable.
fn check_tile(tile: &TileConfig) -> Result<(), SpaceError> {
    check_cluster(tile.cluster_size, tile.ipus())?;
    check_at_least_one(tile.buffer_depth, "buffer depth")
}

fn check_cluster(size: usize, ipus: usize) -> Result<(), SpaceError> {
    if size >= 1 && ipus.is_multiple_of(size) {
        return Ok(());
    }
    Err(SpaceError::Geometry(format!(
        "cluster size {size} must divide the IPU count {ipus} of every tile it reaches"
    )))
}

fn check_at_least_one(value: usize, what: &str) -> Result<(), SpaceError> {
    if value >= 1 {
        return Ok(());
    }
    Err(SpaceError::Geometry(format!("{what} must be at least 1")))
}

/// `n` tiles share the K dimension: `n × k_unroll` must not overflow.
fn check_n_tiles(n: usize, k_unroll: usize) -> Result<(), SpaceError> {
    check_at_least_one(n, "n_tiles")?;
    n.checked_mul(k_unroll).map(drop).ok_or_else(|| {
        SpaceError::Geometry(format!(
            "n_tiles {n} overflows the tiles' combined K unrolling"
        ))
    })
}

/// A scenario's workload must stay within [`MAX_WORKLOAD_MACS`], and a
/// synthetic stack needs every dimension (checked first: resolving a
/// degenerate stack panics).
fn check_workload(scenario: &Scenario) -> Result<(), SpaceError> {
    if let Some((c, s, d)) = scenario.synthetic_dims() {
        if c == 0 || s == 0 || d == 0 {
            return Err(SpaceError::Geometry(format!(
                "synthetic stack [{c}, {s}, {d}] must have every dimension at least 1"
            )));
        }
    }
    let workload = scenario.resolve_workload();
    let macs = workload.layers.iter().try_fold(0u64, |total, (l, m)| {
        [l.k, l.h_out, l.w_out, l.r, l.s, *m]
            .iter()
            .try_fold(l.c as u64, |macs, &x| macs.checked_mul(x as u64))
            .and_then(|layer| total.checked_add(layer))
    });
    match macs {
        Some(macs) if macs <= MAX_WORKLOAD_MACS => Ok(()),
        _ => Err(SpaceError::Geometry(format!(
            "workload {} needs more than {MAX_WORKLOAD_MACS} MACs, past what the cycle model prices",
            workload.label()
        ))),
    }
}

/// Stable identifier of one design point within its [`ParamSpace`]: the
/// row-major rank in the cartesian product.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DesignId(pub u64);

/// One fully-resolved design point: its id, per-axis coordinates and
/// labels, and the scenario chain ready to run.
#[derive(Debug, Clone)]
pub struct DesignPointSpec {
    /// Rank in the space's cartesian product.
    pub id: DesignId,
    /// Per-axis value indices, in axis declaration order.
    pub coords: Vec<usize>,
    /// Per-axis value labels, in axis declaration order.
    pub labels: Vec<String>,
    /// The base scenario with every axis value applied.
    pub scenario: Scenario,
}

/// A typed parameter space: a base [`Scenario`] refined by a list of
/// [`Axis`] values, enumerating `∏ axis.len()` design points.
#[derive(Debug, Clone)]
pub struct ParamSpace {
    base: Scenario,
    axes: Vec<Axis>,
}

impl ParamSpace {
    /// A space containing exactly the base scenario (no axes yet).
    pub fn new(base: Scenario) -> ParamSpace {
        ParamSpace {
            base,
            axes: Vec::new(),
        }
    }

    /// Add an axis (builder style). Axes apply to the base scenario in
    /// declaration order; the first axis is the id's most significant
    /// digit.
    ///
    /// # Panics
    /// Panics on an empty axis (it would collapse the space to nothing).
    pub fn axis(mut self, axis: Axis) -> ParamSpace {
        assert!(!axis.is_empty(), "axis {:?} has no values", axis.name());
        self.axes.push(axis);
        self
    }

    /// The base scenario the axes refine.
    pub fn base(&self) -> &Scenario {
        &self.base
    }

    /// The declared axes, in order.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// The axis names, in order (report column headers).
    pub fn axis_names(&self) -> Vec<&'static str> {
        self.axes.iter().map(Axis::name).collect()
    }

    /// The shared axis-value label table (`table.label(axis, value)`)
    /// every [`crate::PointEval`] of a sweep references — one allocation
    /// per run instead of one label vector per point.
    pub fn label_table(&self) -> Arc<LabelTable> {
        Arc::new(LabelTable::build(&self.axes))
    }

    /// Number of design points in the cartesian product.
    pub fn len(&self) -> u64 {
        self.axes.iter().map(|a| a.len() as u64).product()
    }

    /// Whether the space is empty (never: axes are non-empty and an
    /// axis-free space still holds the base point).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decode an id into per-axis coordinates (`None` when out of range).
    pub fn coords(&self, id: DesignId) -> Option<Vec<usize>> {
        if id.0 >= self.len() {
            return None;
        }
        let mut rank = id.0;
        let mut coords = vec![0usize; self.axes.len()];
        for (slot, axis) in coords.iter_mut().zip(&self.axes).rev() {
            let n = axis.len() as u64;
            *slot = (rank % n) as usize;
            rank /= n;
        }
        Some(coords)
    }

    /// Resolve an id into a fully-applied design point (`None` when out
    /// of range).
    pub fn point(&self, id: DesignId) -> Option<DesignPointSpec> {
        let coords = self.coords(id)?;
        let mut scenario = self.base.clone();
        let mut labels = Vec::with_capacity(self.axes.len());
        for (axis, &i) in self.axes.iter().zip(&coords) {
            labels.push(axis.label(i));
            scenario = axis.apply(i, scenario);
        }
        Some(DesignPointSpec {
            id,
            coords,
            labels,
            scenario,
        })
    }

    /// Iterate the full cartesian product in id order.
    pub fn iter(&self) -> impl Iterator<Item = DesignPointSpec> + '_ {
        (0..self.len()).map(|r| self.point(DesignId(r)).expect("rank in range"))
    }

    /// Encode per-axis coordinates back into the point's [`DesignId`] —
    /// the inverse of [`ParamSpace::coords`]. `None` when the arity is
    /// wrong or any coordinate is out of its axis's range.
    pub fn id_of(&self, coords: &[usize]) -> Option<DesignId> {
        if coords.len() != self.axes.len() {
            return None;
        }
        let mut rank = 0u64;
        for (axis, &c) in self.axes.iter().zip(coords) {
            if c >= axis.len() {
                return None;
            }
            rank = rank * axis.len() as u64 + c as u64;
        }
        Some(DesignId(rank))
    }

    /// Check that every point's precision schedule — from the last
    /// [`Axis::Schedule`] / [`Axis::ScheduleMask`] axis, else the base
    /// scenario — assigns exactly one precision per layer of every
    /// workload the [`Axis::Workload`] / [`Axis::Pass`] axes reach (a
    /// mask axis by its width, never by enumeration). The sweep engine
    /// refuses spaces that fail; hosts taking spaces from users (the
    /// daemon) call this to reject them up front.
    pub fn check_schedules(&self) -> Result<(), ScheduleError> {
        let last = self.axes.iter().rev().find_map(|a| match a {
            Axis::Schedule(v) => Some(v.clone()),
            Axis::ScheduleMask { layers } => Some(vec![Schedule::Custom(vec![
                LayerPrecision::Fp16;
                *layers as usize
            ])]),
            _ => None,
        });
        let base = self.base.precision_schedule().map(|s| vec![s.clone()]);
        let Some(schedules) = last.or(base) else {
            return Ok(());
        };
        let mut reached = vec![self.base.clone()];
        for axis in self
            .axes
            .iter()
            .filter(|a| matches!(a, Axis::Workload(_) | Axis::Pass(_)))
        {
            reached = reached
                .iter()
                .flat_map(|s| (0..axis.len()).map(|i| axis.apply(i, s.clone())))
                .collect();
        }
        for scenario in &reached {
            let workload = scenario.resolve_workload();
            for schedule in &schedules {
                schedule.try_materialize(&workload)?;
            }
        }
        Ok(())
    }

    /// Check that every point of the space can be priced: its geometry is
    /// sound and its schedules fit its workloads
    /// ([`ParamSpace::check_schedules`]). Every workload — the base
    /// scenario's or a [`Axis::Workload`] value — must stay within
    /// 2^48 MACs, and a synthetic stack needs every dimension.
    /// Every cluster size — the base tile's, a [`crate::TileChoice`]'s
    /// own, or a [`Axis::Cluster`] value — must divide the IPU count of
    /// every tile it reaches; buffer depths and tile counts must be at
    /// least 1, and no tile count may overflow a reached tile's K
    /// unrolling. Every adder-tree width — the base scenario's or a
    /// [`Axis::W`] value — must build an IPU on every reached tile
    /// ([`mpipu::datapath::check_adder_tree`]: at least 4 bits, and
    /// `w + ⌈log2 lanes⌉ ≤ 64`). Axis values are checked per axis, never
    /// by enumerating their product. The sweep engine refuses spaces
    /// that fail; hosts taking spaces from users (the daemon) call this
    /// to reject them up front.
    pub fn check(&self) -> Result<(), SpaceError> {
        check_workload(&self.base)?;
        let design = self.base.design();
        check_tile(&design.tile)?;
        // An n_tiles value or a width meets every tile the space reaches.
        let choices = self.axes.iter().flat_map(|axis| match axis {
            Axis::Tile(choices) => choices.as_slice(),
            _ => &[],
        });
        let (k_unroll, lanes) = choices.fold(
            (design.tile.k_unroll, design.tile.c_unroll),
            |(k, lanes), c| (k.max(c.config().k_unroll), lanes.max(c.config().c_unroll)),
        );
        check_n_tiles(design.n_tiles, k_unroll)?;
        check_adder_tree(design.w, lanes).map_err(SpaceError::Geometry)?;
        // Distinct IPU counts of the tiles reachable so far: a cluster
        // axis applies to whichever tile the earlier axes left in place.
        let mut ipu_counts = vec![design.tile.ipus()];
        for axis in &self.axes {
            match axis {
                Axis::Workload(_) => {
                    for i in 0..axis.len() {
                        check_workload(&axis.apply(i, self.base.clone()))?;
                    }
                }
                Axis::Tile(choices) => {
                    ipu_counts.clear();
                    for tile in choices.iter().map(|c| c.config()) {
                        check_tile(&tile)?;
                        if !ipu_counts.contains(&tile.ipus()) {
                            ipu_counts.push(tile.ipus());
                        }
                    }
                }
                Axis::Cluster(sizes) => {
                    for &size in sizes {
                        for &ipus in &ipu_counts {
                            check_cluster(size, ipus)?;
                        }
                    }
                }
                Axis::BufferDepth(depths) => {
                    for &depth in depths {
                        check_at_least_one(depth, "buffer depth")?;
                    }
                }
                Axis::NTiles(counts) => {
                    for &n in counts {
                        check_n_tiles(n, k_unroll)?;
                    }
                }
                Axis::W(widths) => {
                    for &w in widths {
                        check_adder_tree(w, lanes).map_err(SpaceError::Geometry)?;
                    }
                }
                _ => {}
            }
        }
        // Last: fitting a schedule resolves every reached workload, which
        // panics on a degenerate synthetic stack.
        Ok(self.check_schedules()?)
    }

    /// Draw `count` *distinct* design ids uniformly at random (without
    /// replacement — duplicates would waste backend queries), seeded and
    /// therefore reproducible. Uses Floyd's algorithm, so the cost is
    /// `O(count)` even when the space is astronomically larger than the
    /// sample. `count` is clamped to the space size; ids come back
    /// sorted ascending (the engines' canonical fold order).
    pub fn sample_ids(&self, count: usize, seed: u64) -> Vec<DesignId> {
        let total = self.len();
        let count = (count as u64).min(total);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut chosen: HashSet<u64> = HashSet::with_capacity(count as usize);
        // Floyd: for j in total-count..total, draw r in [0, j]; take r
        // unless already taken, else take j. Every count-subset is
        // equally likely, and only `count` draws are made.
        for j in (total - count)..total {
            let r = rng.gen_range(0..=j);
            if !chosen.insert(r) {
                chosen.insert(j);
            }
        }
        let mut ids: Vec<DesignId> = chosen.into_iter().map(DesignId).collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::{TileChoice, WorkloadSel};
    use mpipu::Zoo;

    fn space() -> ParamSpace {
        ParamSpace::new(Scenario::small_tile().sample_steps(16))
            .axis(Axis::w(vec![12, 16, 20]))
            .axis(Axis::cluster(vec![1, 4]))
    }

    #[test]
    fn len_is_the_axis_product_and_axisless_space_is_one_point() {
        assert_eq!(space().len(), 6);
        let solo = ParamSpace::new(Scenario::small_tile());
        assert_eq!(solo.len(), 1);
        let p = solo.point(DesignId(0)).unwrap();
        assert!(p.coords.is_empty() && p.labels.is_empty());
        assert!(solo.point(DesignId(1)).is_none());
    }

    #[test]
    fn coords_decode_row_major() {
        let s = space();
        // id = w_index * 2 + cluster_index.
        assert_eq!(s.coords(DesignId(0)).unwrap(), vec![0, 0]);
        assert_eq!(s.coords(DesignId(1)).unwrap(), vec![0, 1]);
        assert_eq!(s.coords(DesignId(2)).unwrap(), vec![1, 0]);
        assert_eq!(s.coords(DesignId(5)).unwrap(), vec![2, 1]);
        assert_eq!(s.coords(DesignId(6)), None);
    }

    #[test]
    fn points_apply_axes_in_order() {
        let s = space();
        let p = s.point(DesignId(3)).unwrap(); // w=16, cluster=4
        assert_eq!(p.labels, vec!["16".to_string(), "4".to_string()]);
        assert_eq!(p.scenario.design().w, 16);
        assert_eq!(p.scenario.design().tile.cluster_size, 4);
    }

    #[test]
    fn iter_visits_every_point_once_in_id_order() {
        let s = space();
        let ids: Vec<u64> = s.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn sampling_is_seeded_distinct_and_in_range() {
        let s = ParamSpace::new(Scenario::small_tile())
            .axis(Axis::w_grid(8, 38, 1))
            .axis(Axis::cluster(vec![1, 2, 4, 8]))
            .axis(Axis::workload(vec![WorkloadSel::Zoo(Zoo::ResNet18)]));
        let a = s.sample_ids(32, 7);
        let b = s.sample_ids(32, 7);
        assert_eq!(a, b, "same seed, same draw");
        assert_eq!(a.len(), 32);
        assert!(a.iter().all(|id| id.0 < s.len()));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
        let c = s.sample_ids(32, 8);
        assert_ne!(a, c, "different seed, different draw");
    }

    #[test]
    fn oversampling_clamps_to_the_whole_space_in_id_order() {
        let s = space(); // 6 points
        let all = s.sample_ids(100, 3);
        assert_eq!(all, (0..6).map(DesignId).collect::<Vec<_>>());
        assert!(s.sample_ids(0, 3).is_empty());
    }

    #[test]
    fn id_of_inverts_coords() {
        let s = space();
        for id in 0..s.len() {
            let coords = s.coords(DesignId(id)).unwrap();
            assert_eq!(s.id_of(&coords), Some(DesignId(id)));
        }
        assert_eq!(s.id_of(&[0]), None, "wrong arity");
        assert_eq!(s.id_of(&[0, 2]), None, "coordinate out of range");
    }

    #[test]
    fn wide_axes_render_labels_lazily_and_match_dense_rendering() {
        let s = ParamSpace::new(Scenario::small_tile().synthetic(16, 7, 12))
            .axis(Axis::w(vec![12, 16]))
            .axis(Axis::schedule_mask(13)); // 8192 values > dense limit
        let table = s.label_table();
        assert_eq!(table.width(), 2);
        assert_eq!(&*table.label(0, 1), "16");
        assert_eq!(&*table.label(1, 0x1a2b), s.axes()[1].label(0x1a2b));
    }

    #[test]
    fn schedules_are_checked_against_every_reached_workload() {
        use mpipu_sim::{LayerPrecision, Schedule};
        let base = Scenario::small_tile().workload(Zoo::ResNet18); // 12 layers
        assert_eq!(space().check_schedules(), Ok(()));
        let mask = |layers| ParamSpace::new(base.clone()).axis(Axis::schedule_mask(layers));
        assert_eq!(mask(12).check_schedules(), Ok(()));
        let err = mask(5).check_schedules().unwrap_err();
        assert_eq!((err.got, err.expected), (5, 12));
        assert!(err.to_string().contains("one precision per layer"), "{err}");

        // A custom schedule fitting one workload of a workload axis but
        // not the other is caught; the last schedule axis wins.
        let custom = Schedule::Custom(vec![LayerPrecision::Fp16; 5]);
        let two =
            ParamSpace::new(base.clone().schedule(custom.clone())).axis(Axis::workload(vec![
                WorkloadSel::Synthetic(8, 7, 4),
                WorkloadSel::Zoo(Zoo::ResNet18),
            ]));
        let err = two.check_schedules().unwrap_err();
        assert_eq!((err.got, err.expected), (5, 12));
        let overridden = two
            .clone()
            .axis(Axis::schedule(vec![Schedule::FirstLastFp16]));
        assert_eq!(overridden.check_schedules(), Ok(()));
        assert!(overridden
            .axis(Axis::schedule(vec![custom]))
            .check_schedules()
            .is_err());
    }

    #[test]
    fn check_refuses_geometries_no_tile_can_be_priced_at() {
        let base = Scenario::small_tile();
        let space = |axis: Axis| ParamSpace::new(base.clone()).axis(axis);
        let geometry = |space: ParamSpace| match space.check() {
            Err(SpaceError::Geometry(msg)) => msg,
            other => panic!("expected a geometry error, got {other:?}"),
        };
        // The small tile has 32 IPUs, the big one 64.
        assert!(geometry(space(Axis::cluster(vec![4, 3]))).contains("cluster size 3"));
        assert!(geometry(space(Axis::buffer_depth(vec![2, 0]))).contains("buffer depth"));
        assert!(geometry(space(Axis::n_tiles(vec![0]))).contains("n_tiles"));
        assert!(geometry(ParamSpace::new(base.clone().n_tiles(0))).contains("n_tiles"));
        let raw = TileConfig {
            cluster_size: 5,
            ..TileConfig::small()
        };
        assert!(geometry(ParamSpace::new(base.clone().tile_config(raw))).contains("size 5"));
        // A cluster axis is checked against whichever tiles reach it: 64
        // divides the big tile only.
        let tiles = space(Axis::tile(vec![TileChoice::Small, TileChoice::Big]));
        assert!(tiles.clone().axis(Axis::cluster(vec![16])).check().is_ok());
        assert!(geometry(tiles.axis(Axis::cluster(vec![64]))).contains("size 64"));
        let big = space(Axis::tile(vec![TileChoice::Big]));
        assert_eq!(big.axis(Axis::cluster(vec![64])).check(), Ok(()));
        // Schedule misfits still surface as schedule errors.
        let mask = space(Axis::schedule_mask(5));
        assert!(matches!(mask.check(), Err(SpaceError::Schedule(_))));
    }

    #[test]
    fn check_refuses_workloads_the_cycle_model_cannot_price() {
        let base = Scenario::small_tile();
        let geometry = |space: ParamSpace| match space.check() {
            Err(SpaceError::Geometry(msg)) => msg,
            other => panic!("expected a geometry error, got {other:?}"),
        };
        let synthetic = |c, s, d| ParamSpace::new(base.clone().synthetic(c, s, d));
        for (c, s, d) in [(0, 14, 2), (64, 0, 2), (64, 14, 0)] {
            assert!(geometry(synthetic(c, s, d)).contains("synthetic stack"));
        }
        assert!(geometry(synthetic(100_000, 100_000, 100_000)).contains("MACs"));
        assert!(synthetic(64, 14, 26).check().is_ok());
        let axis = Axis::workload(vec![WorkloadSel::Synthetic(0, 14, 2)]);
        assert!(geometry(ParamSpace::new(base.clone()).axis(axis)).contains("synthetic"));
        // The small tile unrolls K by 8: 2^61 tiles wrap the product to 0.
        let huge = 1usize << 61;
        assert!(geometry(ParamSpace::new(base.clone().n_tiles(huge))).contains("n_tiles"));
        let axis = Axis::n_tiles(vec![1, huge]);
        assert!(geometry(ParamSpace::new(base.clone()).axis(axis)).contains("n_tiles"));
        // Only reached tiles count: 2^60 fits the small tile's 8, not the
        // big tile's 16.
        let n = ParamSpace::new(base.n_tiles(1 << 60));
        assert!(n.clone().check().is_ok());
        let big = n.axis(Axis::tile(vec![TileChoice::Big]));
        assert!(geometry(big).contains("n_tiles"));
    }

    #[test]
    fn check_refuses_widths_no_ipu_can_be_built_with() {
        let base = Scenario::small_tile();
        let geometry = |space: ParamSpace| match space.check() {
            Err(SpaceError::Geometry(msg)) => msg,
            other => panic!("expected a geometry error, got {other:?}"),
        };
        let w = |w| ParamSpace::new(base.clone().w(w));
        assert!(geometry(w(0)).contains("at least 4 bits"));
        assert!(geometry(w(3)).contains("at least 4 bits"));
        assert!(w(4).check().is_ok());
        let axis = Axis::w(vec![12, 3]);
        assert!(geometry(ParamSpace::new(base.clone()).axis(axis)).contains("at least 4 bits"));
        // 8 lanes grow the sum by 3 bits, 16 lanes by 4: w = 61 fits the
        // small tile alone, and no space that reaches the big tile.
        assert!(w(61).check().is_ok());
        let big = w(61).axis(Axis::tile(vec![TileChoice::Small, TileChoice::Big]));
        assert!(geometry(big).contains("w + t = 65 bits"));
        let axis = Axis::w(vec![60, 61]);
        let big = ParamSpace::new(Scenario::big_tile()).axis(axis);
        assert!(geometry(big).contains("w + t = 65 bits"));
        assert!(ParamSpace::new(Scenario::big_tile().w(60)).check().is_ok());
    }

    #[test]
    #[should_panic(expected = "has no values")]
    fn empty_axis_is_rejected() {
        ParamSpace::new(Scenario::small_tile()).axis(Axis::w(vec![]));
    }
}
