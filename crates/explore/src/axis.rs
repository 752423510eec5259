//! Typed parameter axes over the `Scenario` builder's knobs.
//!
//! Each [`Axis`] names one builder setter and carries the list of values
//! it sweeps. Value lists come from explicit `Vec`s ([`Axis::w`], …),
//! linear grids ([`grid_u32`], [`Axis::w_grid`]), or log ranges
//! ([`log2_range`], [`Axis::cluster_log2`]). Axes apply to a scenario in
//! declaration order — relevant when axes interact, e.g. a
//! [`Axis::Tile`] swap resets the tile's cluster size, so declare the
//! cluster axis *after* the tile axis.

use mpipu::{Scenario, Zoo};
use mpipu_analysis::dist::Distribution;
use mpipu_dnn::zoo::{Pass, Workload};
use mpipu_sim::{LayerPrecision, Schedule, TileConfig};

/// A tile-geometry choice a [`Axis::Tile`] axis sweeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TileChoice {
    /// The paper's small tile (8-input IPUs, `(8,8,2,2)`).
    Small,
    /// The paper's big tile (16-input IPUs, `(16,16,2,2)`).
    Big,
    /// An explicit geometry.
    Custom(TileConfig),
}

impl TileChoice {
    /// The tile configuration this choice names.
    pub fn config(&self) -> TileConfig {
        match self {
            TileChoice::Small => TileConfig::small(),
            TileChoice::Big => TileConfig::big(),
            TileChoice::Custom(t) => *t,
        }
    }

    fn label(&self) -> String {
        match self {
            TileChoice::Small => "small".to_string(),
            TileChoice::Big => "big".to_string(),
            TileChoice::Custom(t) => format!(
                "({},{},{},{})",
                t.c_unroll, t.k_unroll, t.h_unroll, t.w_unroll
            ),
        }
    }
}

/// A workload choice a [`Axis::Workload`] axis sweeps (mirrors the
/// `Scenario` builder's workload setters).
#[derive(Debug, Clone)]
pub enum WorkloadSel {
    /// A model-zoo network, resolved with the scenario's pass.
    Zoo(Zoo),
    /// A parametric synthetic stack `(channels, spatial, depth)`.
    Synthetic(usize, usize, usize),
    /// An explicit layer table (carries its own pass).
    Custom(Workload),
}

impl WorkloadSel {
    fn label(&self) -> String {
        match self {
            WorkloadSel::Zoo(Zoo::ResNet18) => "resnet18".to_string(),
            WorkloadSel::Zoo(Zoo::ResNet50) => "resnet50".to_string(),
            WorkloadSel::Zoo(Zoo::InceptionV3) => "inceptionv3".to_string(),
            WorkloadSel::Synthetic(c, s, d) => format!("synthetic-c{c}-s{s}-d{d}"),
            WorkloadSel::Custom(w) => w.label(),
        }
    }
}

/// One swept parameter: which `Scenario` knob it drives and the values
/// it takes. An axis with `n` values contributes a factor `n` to the
/// parameter space's cartesian product.
#[derive(Debug, Clone)]
pub enum Axis {
    /// MC-IPU adder-tree precision `w`.
    W(Vec<u32>),
    /// Software (accumulation) precision.
    SoftwarePrecision(Vec<u32>),
    /// Intra-tile cluster size (§3.3).
    Cluster(Vec<usize>),
    /// Per-cluster input FIFO depth.
    BufferDepth(Vec<usize>),
    /// Tiles sharing the K dimension.
    NTiles(Vec<usize>),
    /// Tile geometry / family.
    Tile(Vec<TileChoice>),
    /// The executed workload.
    Workload(Vec<WorkloadSel>),
    /// Forward/backward pass (zoo and synthetic workloads).
    Pass(Vec<Pass>),
    /// Per-layer precision schedule.
    Schedule(Vec<Schedule>),
    /// Every per-layer INT4/FP16 assignment over `layers` layers as one
    /// axis of `2^layers` values: value `m`'s bit `l` set means layer
    /// `l` runs FP16, clear means INT4. The axis that opens the paper's
    /// real schedule space (≥ 10⁸ points for a 27-layer workload) —
    /// far too wide to enumerate, which is exactly what
    /// [`crate::search::SearchEngine`] exists for.
    ScheduleMask {
        /// Number of layers the mask covers — must equal the workload's
        /// layer count (validated when a point is lowered).
        layers: u32,
    },
    /// `(activation, weight)` value-distribution override.
    Distributions(Vec<(Distribution, Distribution)>),
}

impl Axis {
    /// Sweep the adder-tree precision over an explicit list.
    pub fn w(values: Vec<u32>) -> Axis {
        Axis::W(values)
    }

    /// Sweep the adder-tree precision over the inclusive grid
    /// `lo, lo+step, …, ≤ hi`.
    pub fn w_grid(lo: u32, hi: u32, step: u32) -> Axis {
        Axis::W(grid_u32(lo, hi, step))
    }

    /// Sweep the software precision over an explicit list.
    pub fn software_precision(values: Vec<u32>) -> Axis {
        Axis::SoftwarePrecision(values)
    }

    /// Sweep the cluster size over an explicit list.
    pub fn cluster(values: Vec<usize>) -> Axis {
        Axis::Cluster(values)
    }

    /// Sweep the cluster size over powers of two `lo, 2lo, …, ≤ hi`.
    pub fn cluster_log2(lo: usize, hi: usize) -> Axis {
        Axis::Cluster(log2_range(lo, hi))
    }

    /// Sweep the input FIFO depth over an explicit list.
    pub fn buffer_depth(values: Vec<usize>) -> Axis {
        Axis::BufferDepth(values)
    }

    /// Sweep the tile count over an explicit list.
    pub fn n_tiles(values: Vec<usize>) -> Axis {
        Axis::NTiles(values)
    }

    /// Sweep the tile geometry.
    pub fn tile(values: Vec<TileChoice>) -> Axis {
        Axis::Tile(values)
    }

    /// Sweep the workload.
    pub fn workload(values: Vec<WorkloadSel>) -> Axis {
        Axis::Workload(values)
    }

    /// Sweep explicit layer tables (the form the paper experiments use).
    pub fn workloads(values: Vec<Workload>) -> Axis {
        Axis::Workload(values.into_iter().map(WorkloadSel::Custom).collect())
    }

    /// Sweep the pass (forward/backward).
    pub fn pass(values: Vec<Pass>) -> Axis {
        Axis::Pass(values)
    }

    /// Sweep the precision schedule.
    pub fn schedule(values: Vec<Schedule>) -> Axis {
        Axis::Schedule(values)
    }

    /// Sweep every INT4/FP16 per-layer assignment over `layers` layers
    /// (`2^layers` values — see [`Axis::ScheduleMask`]).
    ///
    /// # Panics
    /// Panics when `layers` is zero or above 48 (the mask must fit the
    /// space's u64 id with room for sibling axes).
    pub fn schedule_mask(layers: u32) -> Axis {
        assert!(
            (1..=48).contains(&layers),
            "schedule mask covers 1..=48 layers, got {layers}"
        );
        Axis::ScheduleMask { layers }
    }

    /// Sweep the `(activation, weight)` distribution override.
    pub fn distributions(values: Vec<(Distribution, Distribution)>) -> Axis {
        Axis::Distributions(values)
    }

    /// The axis's stable name (a report column header).
    pub fn name(&self) -> &'static str {
        match self {
            Axis::W(_) => "w",
            Axis::SoftwarePrecision(_) => "software_precision",
            Axis::Cluster(_) => "cluster",
            Axis::BufferDepth(_) => "buffer_depth",
            Axis::NTiles(_) => "n_tiles",
            Axis::Tile(_) => "tile",
            Axis::Workload(_) => "workload",
            Axis::Pass(_) => "pass",
            Axis::Schedule(_) => "schedule",
            Axis::ScheduleMask { .. } => "schedule_mask",
            Axis::Distributions(_) => "dists",
        }
    }

    /// Number of values on this axis.
    pub fn len(&self) -> usize {
        match self {
            Axis::W(v) => v.len(),
            Axis::SoftwarePrecision(v) => v.len(),
            Axis::Cluster(v) => v.len(),
            Axis::BufferDepth(v) => v.len(),
            Axis::NTiles(v) => v.len(),
            Axis::Tile(v) => v.len(),
            Axis::Workload(v) => v.len(),
            Axis::Pass(v) => v.len(),
            Axis::Schedule(v) => v.len(),
            Axis::ScheduleMask { layers } => 1usize << layers,
            Axis::Distributions(v) => v.len(),
        }
    }

    /// Whether the axis has no values (such an axis would collapse the
    /// whole space; [`crate::ParamSpace::axis`] rejects it).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Human-readable label of value `i` (a report cell).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn label(&self, i: usize) -> String {
        match self {
            Axis::W(v) => v[i].to_string(),
            Axis::SoftwarePrecision(v) => v[i].to_string(),
            Axis::Cluster(v) => v[i].to_string(),
            Axis::BufferDepth(v) => v[i].to_string(),
            Axis::NTiles(v) => v[i].to_string(),
            Axis::Tile(v) => v[i].label(),
            Axis::Workload(v) => v[i].label(),
            Axis::Pass(v) => match v[i] {
                Pass::Forward => "fwd".to_string(),
                Pass::Backward => "bwd".to_string(),
            },
            Axis::Schedule(v) => v[i].label(),
            Axis::ScheduleMask { layers } => {
                assert!(i < 1usize << layers, "mask value out of range");
                // Fixed-width hex: one digit per 4 layers, so labels
                // sort and align across the whole axis.
                format!("m{:0width$x}", i, width = layers.div_ceil(4) as usize)
            }
            Axis::Distributions(v) => format!("{:?}/{:?}", v[i].0, v[i].1),
        }
    }

    /// Apply value `i` to a scenario chain.
    ///
    /// # Panics
    /// Panics if `i` is out of range, or if the value itself is invalid
    /// for the scenario (e.g. a cluster size that does not divide the
    /// tile's IPU count — the same contract as the builder setter).
    pub fn apply(&self, i: usize, scenario: Scenario) -> Scenario {
        match self {
            Axis::W(v) => scenario.w(v[i]),
            Axis::SoftwarePrecision(v) => scenario.software_precision(v[i]),
            Axis::Cluster(v) => scenario.cluster(v[i]),
            Axis::BufferDepth(v) => scenario.buffer_depth(v[i]),
            Axis::NTiles(v) => scenario.n_tiles(v[i]),
            Axis::Tile(v) => scenario.tile_config(v[i].config()),
            Axis::Workload(v) => match &v[i] {
                WorkloadSel::Zoo(z) => scenario.workload(*z),
                WorkloadSel::Synthetic(c, s, d) => scenario.synthetic(*c, *s, *d),
                WorkloadSel::Custom(w) => scenario.custom_workload(w.clone()),
            },
            Axis::Pass(v) => scenario.pass(v[i]),
            Axis::Schedule(v) => scenario.schedule(v[i].clone()),
            Axis::ScheduleMask { layers } => {
                assert!(i < 1usize << layers, "mask value out of range");
                let assignment: Vec<LayerPrecision> = (0..*layers)
                    .map(|l| {
                        if i >> l & 1 == 1 {
                            LayerPrecision::Fp16
                        } else {
                            LayerPrecision::Int { ka: 1, kb: 1 }
                        }
                    })
                    .collect();
                scenario.schedule(Schedule::Custom(assignment))
            }
            Axis::Distributions(v) => scenario.distributions(v[i].0, v[i].1),
        }
    }
}

/// The inclusive linear grid `lo, lo+step, …, ≤ hi`.
///
/// # Panics
/// Panics if `step == 0` or `lo > hi`.
pub fn grid_u32(lo: u32, hi: u32, step: u32) -> Vec<u32> {
    assert!(step > 0, "grid step must be positive");
    assert!(lo <= hi, "empty grid: lo {lo} > hi {hi}");
    (lo..=hi).step_by(step as usize).collect()
}

/// The log-range `lo, 2·lo, 4·lo, …, ≤ hi` (powers of two from `lo`).
///
/// # Panics
/// Panics if `lo == 0` or `lo > hi`.
pub fn log2_range(lo: usize, hi: usize) -> Vec<usize> {
    assert!(lo > 0, "log range must start above zero");
    assert!(lo <= hi, "empty log range: lo {lo} > hi {hi}");
    let mut out = Vec::new();
    let mut v = lo;
    while v <= hi {
        out.push(v);
        match v.checked_mul(2) {
            Some(next) => v = next,
            None => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_and_log_ranges() {
        assert_eq!(grid_u32(8, 16, 4), vec![8, 12, 16]);
        assert_eq!(grid_u32(8, 15, 4), vec![8, 12]);
        assert_eq!(grid_u32(8, 8, 1), vec![8]);
        assert_eq!(log2_range(1, 16), vec![1, 2, 4, 8, 16]);
        assert_eq!(log2_range(3, 20), vec![3, 6, 12]);
    }

    #[test]
    #[should_panic(expected = "grid step must be positive")]
    fn zero_step_grid_panics() {
        grid_u32(1, 2, 0);
    }

    #[test]
    fn axis_names_lengths_labels() {
        let w = Axis::w_grid(12, 28, 4);
        assert_eq!(w.name(), "w");
        assert_eq!(w.len(), 5);
        assert_eq!(w.label(0), "12");
        let tile = Axis::tile(vec![TileChoice::Small, TileChoice::Big]);
        assert_eq!(tile.label(1), "big");
        let wl = Axis::workload(vec![
            WorkloadSel::Zoo(Zoo::ResNet18),
            WorkloadSel::Synthetic(64, 14, 4),
        ]);
        assert_eq!(wl.label(0), "resnet18");
        assert_eq!(wl.label(1), "synthetic-c64-s14-d4");
        assert_eq!(
            Axis::pass(vec![Pass::Forward, Pass::Backward]).label(1),
            "bwd"
        );
    }

    #[test]
    fn schedule_mask_axis_enumerates_every_assignment() {
        let m = Axis::schedule_mask(5);
        assert_eq!(m.name(), "schedule_mask");
        assert_eq!(m.len(), 32);
        assert_eq!(m.label(0), "m00");
        assert_eq!(m.label(0b10110), "m16");
        // Bit l drives layer l: mask 0b00101 runs layers 0 and 2 FP16.
        let base = Scenario::small_tile().synthetic(8, 7, 4); // 5 layers
        let s = m.apply(0b00101, base);
        let workload = s.resolve_workload();
        let lowered = s.try_lower().unwrap();
        let sched = lowered.schedule.expect("mask installs a schedule");
        let mat = sched.try_materialize(&workload).unwrap();
        let fp: Vec<bool> = mat.iter().map(|p| *p == LayerPrecision::Fp16).collect();
        assert_eq!(fp, vec![true, false, true, false, false]);
    }

    #[test]
    #[should_panic(expected = "schedule mask covers 1..=48 layers")]
    fn oversized_schedule_mask_is_rejected() {
        Axis::schedule_mask(49);
    }

    #[test]
    fn apply_reaches_the_design() {
        let base = Scenario::small_tile();
        let s = Axis::w(vec![14]).apply(0, base.clone());
        assert_eq!(s.design().w, 14);
        let s = Axis::cluster(vec![2]).apply(0, base.clone());
        assert_eq!(s.design().tile.cluster_size, 2);
        let s = Axis::tile(vec![TileChoice::Big]).apply(0, base.clone());
        assert!(s.design_point().big);
        let s = Axis::n_tiles(vec![7]).apply(0, base);
        assert_eq!(s.design().n_tiles, 7);
    }

    #[test]
    fn tile_axis_resets_clustering_when_applied_after() {
        // Documented ordering hazard: the tile swap carries its own
        // cluster size, so a cluster axis must come after a tile axis.
        let base = Scenario::small_tile().cluster(2);
        let s = Axis::tile(vec![TileChoice::Big]).apply(0, base);
        assert_eq!(s.design().tile.cluster_size, TileConfig::big().cluster_size);
    }
}
