//! Property tests for the Pareto fold — the frontier is a subset of the
//! input, contains no dominated point, matches the batch oracle
//! [`pareto_front`], and does not depend on the order points arrive in —
//! and for the sweep engine, whose slab evaluation (and
//! `Scenario::run`, which shares its per-layer plan) must be
//! bit-identical to a per-point, per-layer oracle over arbitrary
//! parameter spaces, id sources, and chunk boundaries.

use mpipu_explore::{DesignId, Fold, ParamSpace, ShardMerge, TopK, UnitFold};
use mpipu_explore::{FrontierPoint, Objective, ParetoFold, PointEval, Sense};
use mpipu_hw::DesignMetrics;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `a` strictly dominates `b` under minimization — an independent
/// re-statement of the library's dominance rule.
fn dominates(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
}

/// The exact Pareto frontier of a point set in minimize form: indices
/// of the non-dominated points, in input order, with exact duplicates
/// collapsed to their first occurrence. The batch oracle the incremental
/// [`ParetoFold`] is checked against.
fn pareto_front(points: &[Vec<f64>]) -> Vec<usize> {
    let mut front: Vec<usize> = Vec::new();
    for (i, candidate) in points.iter().enumerate() {
        if front
            .iter()
            .any(|&j| dominates(&points[j], candidate) || points[j] == *candidate)
        {
            continue;
        }
        front.retain(|&j| !dominates(candidate, &points[j]));
        front.push(i);
    }
    front
}

#[test]
fn pareto_front_helper_minimizes() {
    let pts = vec![
        vec![1.0, 2.0],
        vec![2.0, 1.0],
        vec![2.0, 2.0], // dominated
        vec![1.0, 2.0], // duplicate
    ];
    assert_eq!(pareto_front(&pts), vec![0, 1]);
    assert_eq!(pareto_front(&[]), Vec::<usize>::new());
}

/// Quantize to a small value lattice so duplicates and exact ties occur
/// often (the interesting cases for canonicalization).
fn lattice(x: f64) -> f64 {
    (x * 4.0).round() / 4.0
}

fn points_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..4, prop::collection::vec(0.0f64..4.0, 0..40)).prop_map(|(dim, flat)| {
        flat.chunks_exact(dim)
            .map(|c| c.iter().copied().map(lattice).collect())
            .collect()
    })
}

fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut out: Vec<T> = items.to_vec();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..out.len()).rev() {
        let j = rng.gen_range(0..=i);
        out.swap(i, j);
    }
    out
}

/// Run the two objective columns of a point list through [`ParetoFold`]
/// (ids follow input order, so permutations get different ids — which
/// the canonical frontier must not care about).
fn fold_points(points: &[Vec<f64>]) -> Vec<FrontierPoint> {
    const OBJS: [Objective; 3] = [
        Objective::new("o0", Sense::Minimize, |e: &PointEval| {
            e.metrics.int_tops_per_mm2
        }),
        Objective::new("o1", Sense::Minimize, |e: &PointEval| {
            e.metrics.int_tops_per_w
        }),
        Objective::new("o2", Sense::Minimize, |e: &PointEval| {
            e.metrics.fp_tflops_per_mm2
        }),
    ];
    let dim = points.first().map_or(1, Vec::len);
    let mut fold = ParetoFold::new(OBJS[..dim].to_vec());
    for (i, p) in points.iter().enumerate() {
        fold.accept(&make_eval(i, p));
    }
    fold.finish()
}

/// One synthetic evaluation: id follows input order, objective columns
/// land in the metrics fields the test objectives extract.
fn make_eval(i: usize, p: &[f64]) -> PointEval {
    let get = |k: usize| p.get(k).copied().unwrap_or(0.0);
    PointEval {
        id: DesignId(i as u64),
        coords: vec![i].into(),
        label_table: std::sync::Arc::new(
            vec![(0..=i)
                .map(|j| std::sync::Arc::from(format!("{j}").as_str()))
                .collect()]
            .into(),
        ),
        cycles: 1,
        baseline_cycles: 1,
        normalized: 1.0,
        fp_fraction: 1.0,
        metrics: DesignMetrics {
            int_tops_per_mm2: get(0),
            int_tops_per_w: get(1),
            fp_tflops_per_mm2: get(2),
            fp_tflops_per_w: 0.0,
        },
    }
}

/// Mixed-sense objectives for the shard-merge laws: the Maximize column
/// exercises the bit-exact re-keying ([`Objective::key_of`]) absorbed
/// points go through.
const MERGE_OBJS: [Objective; 3] = [
    Objective::new("m0", Sense::Minimize, |e: &PointEval| {
        e.metrics.int_tops_per_mm2
    }),
    Objective::new("m1", Sense::Maximize, |e: &PointEval| {
        e.metrics.int_tops_per_w
    }),
    Objective::new("m2", Sense::Minimize, |e: &PointEval| {
        e.metrics.fp_tflops_per_mm2
    }),
];

/// Byte-exact view of a frontier in its native order: `(id, value
/// bits)` per point.
fn exact(front: &[FrontierPoint]) -> Vec<(u64, Vec<u64>)> {
    front
        .iter()
        .map(|p| (p.id.0, p.values.iter().map(|v| v.to_bits()).collect()))
        .collect()
}

/// Fold every point in id order through one `ParetoFold` + `TopK` — the
/// in-process result sharded runs must reproduce.
fn single_fold(points: &[Vec<f64>], dim: usize, k: usize) -> UnitFold {
    let mut pareto = ParetoFold::new(MERGE_OBJS[..dim].to_vec());
    let mut top = TopK::new(MERGE_OBJS[1], k);
    for (i, p) in points.iter().enumerate() {
        let e = make_eval(i, p);
        pareto.accept(&e);
        top.accept(&e);
    }
    UnitFold {
        front: pareto.finish(),
        top: Some(top.finish()),
    }
}

/// Fold each `unit_size`-point stretch independently (its own fresh
/// folds), returning per-unit finished outputs in canonical order.
fn unit_folds(points: &[Vec<f64>], dim: usize, k: usize, unit_size: usize) -> Vec<UnitFold> {
    points
        .chunks(unit_size.max(1))
        .enumerate()
        .map(|(u, chunk)| {
            let mut pareto = ParetoFold::new(MERGE_OBJS[..dim].to_vec());
            let mut top = TopK::new(MERGE_OBJS[1], k);
            for (j, p) in chunk.iter().enumerate() {
                let e = make_eval(u * unit_size.max(1) + j, p);
                pareto.accept(&e);
                top.accept(&e);
            }
            UnitFold {
                front: pareto.finish(),
                top: Some(top.finish()),
            }
        })
        .collect()
}

/// Canonical view of a frontier: the sorted multiset of value vectors
/// (bit-exact — the lattice keeps values representable).
fn canon(front: &[FrontierPoint]) -> Vec<Vec<u64>> {
    let mut rows: Vec<Vec<u64>> = front
        .iter()
        .map(|p| p.values.iter().map(|v| v.to_bits()).collect())
        .collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frontier_is_a_subset_with_no_dominated_point(
        points in points_strategy(),
    ) {
        let front = fold_points(&points);
        prop_assert!(front.len() <= points.len());
        for p in &front {
            // Subset: the frontier point's values are the input point's
            // values at its id.
            let original = &points[p.id.0 as usize];
            prop_assert_eq!(&p.values, original);
            // No input point dominates a frontier point.
            for q in &points {
                prop_assert!(
                    !dominates(q, &p.values),
                    "{:?} dominates frontier point {:?}", q, p.values
                );
            }
        }
        // Completeness: every non-dominated distinct value vector is on
        // the frontier.
        let expected = pareto_front(&points);
        prop_assert_eq!(front.len(), expected.len());
    }

    #[test]
    fn frontier_is_permutation_invariant(
        points in points_strategy(),
        seed in proptest::prelude::any::<u64>(),
    ) {
        let base = fold_points(&points);
        let perm = fold_points(&shuffled(&points, seed));
        prop_assert_eq!(canon(&base), canon(&perm));
    }

    #[test]
    fn incremental_fold_matches_batch_helper(
        points in points_strategy(),
    ) {
        let fold_values = canon(&fold_points(&points));
        let mut batch: Vec<Vec<u64>> = pareto_front(&points)
            .into_iter()
            .map(|i| points[i].iter().map(|v| v.to_bits()).collect())
            .collect();
        batch.sort();
        prop_assert_eq!(fold_values, batch);
    }

    /// One tie rule: the same evaluations (same ids), folded in id order
    /// and in a shuffled order, give the same frontier and top-k — ids,
    /// order, and value bits.
    #[test]
    fn folds_are_independent_of_arrival_order(
        points in points_strategy(),
        k in 1usize..5,
        seed in any::<u64>(),
    ) {
        let dim = points.first().map_or(1, Vec::len);
        let evals: Vec<PointEval> = points
            .iter()
            .enumerate()
            .map(|(i, p)| make_eval(i, p))
            .collect();
        let fold = |order: &[PointEval]| {
            let mut pareto = ParetoFold::new(MERGE_OBJS[..dim].to_vec());
            let mut top = TopK::new(MERGE_OBJS[1], k);
            for e in order {
                pareto.accept(e);
                top.accept(e);
            }
            (exact(&pareto.finish()), exact(&top.finish()))
        };
        prop_assert_eq!(fold(&evals), fold(&shuffled(&evals, seed)));
    }

    /// Shard-merge law: splitting the id sequence into units of
    /// any size, folding each unit independently, and merging the unit
    /// outputs — offered in arbitrary arrival order — equals the single
    /// in-process fold *exactly* (ids, order, and value bits), for both
    /// the Pareto frontier and the top-k selection.
    #[test]
    fn shard_merge_equals_single_fold_for_any_unit_size(
        points in points_strategy(),
        unit_size in 1usize..9,
        k in 1usize..5,
        seed in any::<u64>(),
    ) {
        let dim = points.first().map_or(1, Vec::len);
        let reference = single_fold(&points, dim, k);
        let units = unit_folds(&points, dim, k, unit_size);
        let mut merge = ShardMerge::new(
            ParetoFold::new(MERGE_OBJS[..dim].to_vec()),
            Some(TopK::new(MERGE_OBJS[1], k)),
        );
        let order = shuffled(&(0..units.len()).collect::<Vec<_>>(), seed);
        for u in order {
            merge.offer(u, units[u].clone());
        }
        prop_assert_eq!(merge.merged(), units.len());
        let (front, top) = merge.finish();
        prop_assert_eq!(exact(&front), exact(&reference.front));
        prop_assert_eq!(
            exact(&top.unwrap()),
            exact(reference.top.as_ref().unwrap())
        );
    }

    /// Merge associativity: grouping consecutive units into super-units,
    /// merging each group with its own `ShardMerge`, then merging the
    /// group results, still equals the single fold — per-unit and
    /// merge-of-merges shardings are interchangeable.
    #[test]
    fn shard_merge_is_associative_across_groupings(
        points in points_strategy(),
        unit_size in 1usize..6,
        group in 1usize..4,
        k in 1usize..5,
    ) {
        let dim = points.first().map_or(1, Vec::len);
        let reference = single_fold(&points, dim, k);
        let units = unit_folds(&points, dim, k, unit_size);
        let groups: Vec<UnitFold> = units
            .chunks(group)
            .map(|chunk| {
                let mut inner = ShardMerge::new(
                    ParetoFold::new(MERGE_OBJS[..dim].to_vec()),
                    Some(TopK::new(MERGE_OBJS[1], k)),
                );
                for (j, u) in chunk.iter().enumerate() {
                    inner.offer(j, u.clone());
                }
                let (front, top) = inner.finish();
                UnitFold { front, top }
            })
            .collect();
        let mut outer = ShardMerge::new(
            ParetoFold::new(MERGE_OBJS[..dim].to_vec()),
            Some(TopK::new(MERGE_OBJS[1], k)),
        );
        for (g, fold) in groups.into_iter().enumerate() {
            outer.offer(g, fold);
        }
        let (front, top) = outer.finish();
        prop_assert_eq!(exact(&front), exact(&reference.front));
        prop_assert_eq!(
            exact(&top.unwrap()),
            exact(reference.top.as_ref().unwrap())
        );
    }
}

/// The per-point reference evaluator: the simulator's per-layer rule
/// written out one layer and one query at a time, on the sweep's shared
/// backend. An INT layer costs `steps · ka · kb` cycles and is its own
/// baseline; an FP16 layer costs its window's cycles scaled to its true
/// step count and rounded, against 9 baseline cycles per step. Both
/// users of the library's one per-layer plan — the engine's slab and
/// `Scenario::run` — must match it bit for bit.
fn oracle(
    space: &ParamSpace,
    backend: &std::sync::Arc<dyn mpipu_sim::CostBackend>,
    id: DesignId,
) -> PointEval {
    use mpipu_sim::cost::pass_distributions;
    use mpipu_sim::{CostQuery, LayerPrecision};

    let spec = space.point(id).expect("design id in range");
    let scenario = spec.scenario.cost_backend(backend.clone());
    let lowered = scenario.lower();
    let (design, opts) = (lowered.design, lowered.opts);
    let workload = scenario.resolve_workload();
    let dists = lowered
        .dists
        .unwrap_or_else(|| pass_distributions(workload.pass));
    let schedule = lowered.schedule.map(|s| s.materialize(&workload));
    let (mut cycles, mut baseline_cycles, mut fp_baseline) = (0u64, 0u64, 0u64);
    for (li, &(shape, multiplicity)) in workload.layers.iter().enumerate() {
        let t = design.tile;
        let steps = shape.tile_steps(
            t.c_unroll,
            t.k_unroll * design.n_tiles,
            t.h_unroll,
            t.w_unroll,
        );
        let m = multiplicity as u64;
        let (layer, baseline) = match schedule.as_ref().map_or(LayerPrecision::Fp16, |s| s[li]) {
            LayerPrecision::Int { ka, kb } => {
                let c = steps * u64::from(ka * kb);
                (c, c)
            }
            LayerPrecision::Fp16 => {
                let window = (steps as usize).min(opts.sample_steps).max(1);
                let q = CostQuery {
                    tile: t,
                    w: design.w,
                    software_precision: design.software_precision,
                    dists,
                    window,
                    seed: opts.seed ^ (li as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                };
                let c = (backend.window_cycles(&q) * steps as f64 / window as f64).round();
                fp_baseline += 9 * steps * m;
                (c as u64, 9 * steps)
            }
        };
        cycles += layer * m;
        baseline_cycles += baseline * m;
    }
    let normalized = cycles as f64 / baseline_cycles.max(1) as f64;
    let fp_fraction = match schedule {
        None => 1.0,
        Some(_) => fp_baseline as f64 / baseline_cycles.max(1) as f64,
    };
    PointEval {
        id,
        coords: spec.coords.into(),
        label_table: space.label_table(),
        cycles,
        baseline_cycles,
        normalized,
        fp_fraction,
        metrics: scenario.metrics(normalized),
    }
}

/// Every field of two evaluations, bit for bit.
fn same_eval(a: &PointEval, b: &PointEval) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.id, b.id);
    prop_assert_eq!(&a.coords, &b.coords);
    prop_assert_eq!(
        a.labels().collect::<Vec<_>>(),
        b.labels().collect::<Vec<_>>()
    );
    prop_assert_eq!(a.cycles, b.cycles, "id {:?}", a.id);
    prop_assert_eq!(a.baseline_cycles, b.baseline_cycles);
    prop_assert_eq!(a.normalized.to_bits(), b.normalized.to_bits());
    prop_assert_eq!(a.fp_fraction.to_bits(), b.fp_fraction.to_bits());
    let bits = |e: &PointEval| {
        [
            e.metrics.int_tops_per_mm2.to_bits(),
            e.metrics.int_tops_per_w.to_bits(),
            e.metrics.fp_tflops_per_mm2.to_bits(),
            e.metrics.fp_tflops_per_w.to_bits(),
        ]
    };
    prop_assert_eq!(bits(a), bits(b));
    Ok(())
}

/// A four-layer workload whose sampling windows differ (8, 2, 2, 1 at
/// 8 sampled steps on the small tile) and whose layers repeat — so
/// seed-blind windows collapse across layers and multiplicities weigh
/// the totals.
fn four_layer_workload() -> mpipu_dnn::zoo::Workload {
    use mpipu_dnn::shape::ConvShape;
    use mpipu_dnn::zoo::{Network, Pass, Workload};
    Workload {
        network: Network::Synthetic,
        pass: Pass::Forward,
        layers: vec![
            (ConvShape::square(8, 8, 3, 4, 1), 1),
            (ConvShape::fc(8, 64), 2),
            (ConvShape::square(16, 8, 1, 2, 1), 1),
            (ConvShape::fc(8, 10), 3),
        ],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The engine's three entry points — `run`, `run_range` and
    /// `run_ids` — and every point's own `Scenario::run` evaluate
    /// bit-identically to the per-point oracle over arbitrary axes
    /// (schedules and schedule masks included), id ranges and lists,
    /// chunk boundaries, thread counts, and backends: analytic, memoized
    /// analytic, and the seed-sensitive Monte-Carlo backend.
    #[test]
    fn slab_sweep_is_bit_identical_to_scalar_reference(
        w_mask in 1usize..8,
        cluster_mask in 1usize..4,
        swp_mask in 1usize..4,
        pass_mask in 1usize..4,
        with_dist_axis in any::<bool>(),
        schedule_sel in 0usize..3,
        schedule_mask in 1usize..32,
        custom_bits in any::<u16>(),
        deep in any::<bool>(),
        backend_sel in 0usize..3,
        range in (any::<u64>(), any::<u64>()),
        picks in prop::collection::vec(any::<u64>(), 0..30),
        chunk in 1usize..=7,
        threads in 1usize..=4,
    ) {
        use mpipu::{Backend, Scenario, Zoo};
        use mpipu_analysis::dist::Distribution;
        use mpipu_dnn::zoo::Pass;
        use mpipu_explore::{Axis, Collect, NullSweepSink, SweepEngine};
        use mpipu_sim::{LayerPrecision, Schedule};

        let backend = [
            Backend::Analytic,
            Backend::MemoizedAnalytic,
            Backend::MonteCarlo,
        ][backend_sel]
        .instantiate();
        // A 2^layers mask axis only on the four-layer workload; the
        // schedule list on either.
        let deep = deep && schedule_sel != 2;
        let base = Scenario::small_tile().sample_steps(8).cost_backend(backend.clone());
        let (base, layers) = if deep {
            (base.workload(Zoo::ResNet18), 12)
        } else {
            (base.custom_workload(four_layer_workload()), 4)
        };
        let custom: Vec<LayerPrecision> = (0..layers)
            .map(|l| match (custom_bits >> l) & 1 {
                1 => LayerPrecision::Fp16,
                _ => LayerPrecision::Int { ka: 1 + (l as u32 % 2), kb: 1 },
            })
            .collect();
        let schedules = vec![
            Schedule::FirstLastFp16,
            Schedule::Uniform(LayerPrecision::Int { ka: 1, kb: 1 }),
            Schedule::Uniform(LayerPrecision::Int { ka: 2, kb: 2 }),
            Schedule::Uniform(LayerPrecision::Fp16),
            Schedule::Custom(custom),
        ];

        let mut space = ParamSpace::new(base)
            .axis(Axis::w(masked(&[8u32, 16, 38], w_mask)))
            .axis(Axis::cluster(masked(&[1usize, 8], cluster_mask)))
            .axis(Axis::software_precision(masked(&[16u32, 28], swp_mask)))
            .axis(Axis::pass(masked(&[Pass::Forward, Pass::Backward], pass_mask)));
        space = match schedule_sel {
            1 => space.axis(Axis::schedule(
                schedules
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| schedule_mask & (1 << i) != 0)
                    .map(|(_, s)| s)
                    .collect(),
            )),
            2 => space.axis(Axis::schedule_mask(layers as u32)),
            _ => space,
        };
        if with_dist_axis {
            space = space.axis(Axis::distributions(vec![(
                Distribution::Normal { std: 1.0 },
                Distribution::WeightLike,
            )]));
        }

        let len = space.len();
        let want: Vec<PointEval> = (0..len).map(|i| oracle(&space, &backend, DesignId(i))).collect();
        // `Scenario::run` builds the same plan for one point at a time.
        for want in &want {
            let spec = space.point(want.id).expect("design id in range");
            let r = spec.scenario.cost_backend(backend.clone()).run();
            prop_assert_eq!(r.result.total_cycles(), want.cycles, "id {:?}", want.id);
            prop_assert_eq!(r.result.total_baseline_cycles(), want.baseline_cycles);
            prop_assert_eq!(r.normalized().to_bits(), want.normalized.to_bits());
            prop_assert_eq!(r.fp_fraction.to_bits(), want.fp_fraction.to_bits());
        }
        let engine = SweepEngine::new()
            .threads(threads)
            .chunk_size(chunk)
            .backend(backend.clone());

        let all = engine.run(&space, Collect::new(), &NullSweepSink);
        prop_assert_eq!(all.len(), want.len());
        for (a, b) in all.iter().zip(&want) {
            same_eval(a, b)?;
        }

        let (lo, hi) = {
            let (a, b) = (range.0 % (len + 1), range.1 % (len + 1));
            (a.min(b), a.max(b))
        };
        let stretch = engine.run_range(&space, lo, hi, Collect::new(), &NullSweepSink);
        prop_assert_eq!(stretch.len() as u64, hi - lo);
        for (a, b) in stretch.iter().zip(&want[lo as usize..hi as usize]) {
            same_eval(a, b)?;
        }

        // Unsorted, duplicated, possibly empty.
        let ids: Vec<DesignId> = picks.iter().map(|p| DesignId(p % len)).collect();
        let listed = engine.run_ids(&space, &ids, Collect::new(), &NullSweepSink);
        prop_assert_eq!(listed.len(), ids.len());
        for (a, id) in listed.iter().zip(&ids) {
            same_eval(a, &want[id.0 as usize])?;
        }
    }
}

/// The non-empty subset of `all` selected by the mask's bits.
fn masked<T: Copy>(all: &[T], mask: usize) -> Vec<T> {
    all.iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, &v)| v)
        .collect()
}

/// A small analytic space shaped by two axis masks (guaranteed
/// non-empty; 1–20 points).
fn small_space(w_mask: usize, cluster_mask: usize) -> ParamSpace {
    use mpipu::{Backend, Scenario, Zoo};
    use mpipu_explore::Axis;
    ParamSpace::new(
        Scenario::small_tile()
            .workload(Zoo::ResNet18)
            .sample_steps(8)
            .backend(Backend::Analytic),
    )
    .axis(Axis::w(masked(&[8u32, 12, 16, 25, 38], w_mask)))
    .axis(Axis::cluster(masked(&[1usize, 2, 4, 8], cluster_mask)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ISSUE 10 satellite: `ParamSpace::sample_ids` draws *without*
    /// replacement — every draw is distinct, in range, ascending, and
    /// seed-reproducible, and oversampling clamps to the whole space.
    #[test]
    fn sampling_is_distinct_in_range_and_seed_stable(
        w_mask in 1usize..32,
        cluster_mask in 1usize..16,
        count in 0usize..40,
        seed in any::<u64>(),
    ) {
        let space = small_space(w_mask, cluster_mask);
        let ids = space.sample_ids(count, seed);
        prop_assert_eq!(ids.len() as u64, (count as u64).min(space.len()));
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "not strictly ascending");
        prop_assert!(ids.iter().all(|id| id.0 < space.len()));
        prop_assert_eq!(&ids, &space.sample_ids(count, seed));
        if count >= space.len() as usize {
            let all: Vec<DesignId> = (0..space.len()).map(DesignId).collect();
            prop_assert_eq!(&ids, &all);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// ISSUE 10: with pruning disabled (one rung, keep-fraction 1.0, an
    /// initial cohort covering the space) the guided search degenerates
    /// to exhaustive enumeration and its frontier is *bit-identical* —
    /// ids, labels, and value bits — to the exhaustive `ParetoFold`
    /// sweep, whatever the seed.
    #[test]
    fn degenerate_guided_search_equals_exhaustive_fold(
        w_mask in 1usize..32,
        cluster_mask in 1usize..16,
        seed in any::<u64>(),
        threads in 1usize..=4,
    ) {
        use mpipu_explore::{
            objectives, NullSweepSink, SearchConfig, SearchEngine, SweepEngine,
        };

        let space = small_space(w_mask, cluster_mask);
        let objs = vec![objectives::FP_SLOWDOWN, objectives::INT_TOPS_PER_MM2];
        let reference = SweepEngine::new()
            .threads(threads)
            .run(&space, ParetoFold::new(objs.clone()), &NullSweepSink);

        let mut cfg = SearchConfig::new(objs);
        cfg.rungs = 1;
        cfg.keep_fraction = 1.0;
        cfg.initial = space.len() as usize;
        cfg.max_evals = space.len();
        cfg.seed = seed;
        let out = SearchEngine::new(cfg)
            .engine(SweepEngine::new().threads(threads).chunk_size(3))
            .run(&space, &NullSweepSink);

        prop_assert_eq!(out.evaluated, space.len());
        prop_assert_eq!(exact(&out.frontier), exact(&reference));
        for (a, b) in out.frontier.iter().zip(&reference) {
            prop_assert_eq!(&a.labels, &b.labels);
        }
    }
}

/// Mixes a rung and stream index into a base seed: a re-statement of
/// the library's proposal-stream seeding, so the oracle below scores the
/// same candidate pool as the searcher it checks.
fn stream_seed(seed: u64, rung: usize, stream: u64) -> u64 {
    seed ^ (rung as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ stream.wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

/// The sort-based k-NN surrogate, kept as the oracle of
/// `SurrogateSearcher`: for every pool candidate it sorts the whole
/// history by `(distance total order, insertion index)`, keeps the first
/// k, accumulates them in that order, and scores the prediction by
/// domination count then keyed sum.
struct SortingSurrogate {
    seed: u64,
    k: usize,
    /// `(normalized coords, keyed objectives)` per observed point.
    history: Vec<(Vec<f64>, Vec<f64>)>,
}

impl SortingSurrogate {
    fn normalize(space: &ParamSpace, coords: &[usize]) -> Vec<f64> {
        use mpipu_explore::Axis;
        coords
            .iter()
            .zip(space.axes())
            .map(|(&c, a)| match a {
                Axis::ScheduleMask { layers } => c.count_ones() as f64 / f64::from(*layers),
                _ => {
                    let n = a.len();
                    if n <= 1 {
                        0.0
                    } else {
                        c as f64 / (n - 1) as f64
                    }
                }
            })
            .collect()
    }

    fn predict(&self, x: &[f64]) -> Vec<f64> {
        let mut near: Vec<(f64, usize)> = self
            .history
            .iter()
            .enumerate()
            .map(|(i, (c, _))| {
                let d2: f64 = c.iter().zip(x).map(|(a, b)| (a - b) * (a - b)).sum();
                (d2, i)
            })
            .collect();
        near.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        near.truncate(self.k);
        let dim = self.history[near[0].1].1.len();
        let mut acc = vec![0.0f64; dim];
        let mut wsum = 0.0f64;
        for &(d2, i) in &near {
            let w = 1.0 / (d2 + 1e-9);
            wsum += w;
            for (slot, v) in acc.iter_mut().zip(&self.history[i].1) {
                *slot += w * v;
            }
        }
        for slot in &mut acc {
            *slot /= wsum;
        }
        acc
    }

    /// The candidate pool a round at `rung` with `budget` scores.
    fn pool(&self, space: &ParamSpace, rung: usize, budget: usize) -> Vec<DesignId> {
        space.sample_ids(budget.saturating_mul(8), stream_seed(self.seed, rung, 2))
    }
}

impl mpipu_explore::Searcher for SortingSurrogate {
    fn name(&self) -> &'static str {
        "sorting-surrogate"
    }

    fn propose(
        &mut self,
        space: &ParamSpace,
        state: &mpipu_explore::SearchState<'_>,
        budget: usize,
    ) -> Vec<DesignId> {
        if self.history.is_empty() || state.frontier.is_empty() {
            return Vec::new();
        }
        let mut scored: Vec<(usize, f64, DesignId)> = self
            .pool(space, state.rung, budget)
            .into_iter()
            .filter(|id| !state.visited.contains(&id.0))
            .map(|id| {
                let coords = space.coords(id).expect("sampled id in range");
                let pred = self.predict(&Self::normalize(space, &coords));
                let dominated = state
                    .frontier_keyed
                    .iter()
                    .filter(|k| dominates(k, &pred))
                    .count();
                let sum: f64 = pred.iter().sum();
                (dominated, sum, id)
            })
            .collect();
        scored.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
        scored.truncate(budget);
        scored.into_iter().map(|(_, _, id)| id).collect()
    }

    fn observe(&mut self, space: &ParamSpace, evals: &[mpipu_explore::Survivor]) {
        for s in evals {
            self.history
                .push((Self::normalize(space, &s.coords), s.keyed.clone()));
        }
    }
}

/// One proposal round of the surrogate test: observed `(id pick, keyed
/// values)` pairs, free frontier vectors, how many frontier vectors to
/// pin on the oracle's own predictions, visited picks, and the budget.
type SurrogateRound = (Vec<(u64, Vec<f64>)>, Vec<Vec<f64>>, usize, Vec<u64>, usize);

fn surrogate_round() -> impl Strategy<Value = SurrogateRound> {
    let keyed = || prop::collection::vec(0.0f64..4.0, 3);
    (
        prop::collection::vec((0u64..24, keyed()), 0..24),
        prop::collection::vec(keyed(), 0..4),
        0usize..4,
        prop::collection::vec(any::<u64>(), 0..40),
        0usize..=64,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `SurrogateSearcher` (flat history, bounded k-best pass, one
    /// prediction per bit-distinct normalized vector per round) proposes
    /// the same ids in the same order as the sorting oracle, over
    /// arbitrary spaces with and without a `schedule_mask` axis,
    /// histories with repeated coordinates and equal distances, frontiers,
    /// visited sets, k and budgets, round after round. Some frontier
    /// vectors sit exactly on the oracle's predictions, so a prediction
    /// one ulp off changes a domination count.
    #[test]
    fn surrogate_proposals_match_the_sorting_oracle(
        w_mask in 1usize..32,
        cluster_mask in 1usize..16,
        mask_layers in 0u32..=8,
        mask_first in any::<bool>(),
        dim in 1usize..=3,
        k in 1usize..=10,
        seed in any::<u64>(),
        rounds in prop::collection::vec(surrogate_round(), 1..4),
    ) {
        use mpipu::Scenario;
        use mpipu_explore::{Axis, SearchState, Searcher, SurrogateSearcher, Survivor};
        use std::collections::HashSet;

        let mask = (mask_layers > 0).then(|| Axis::schedule_mask(mask_layers));
        let mut space = ParamSpace::new(Scenario::small_tile());
        if let (Some(m), true) = (&mask, mask_first) {
            space = space.axis(m.clone());
        }
        space = space
            .axis(Axis::w(masked(&[8u32, 12, 16, 25, 38], w_mask)))
            .axis(Axis::cluster(masked(&[1usize, 2, 4, 8], cluster_mask)));
        if let (Some(m), false) = (mask, mask_first) {
            space = space.axis(m);
        }
        let len = space.len();
        let keyed = |v: &[f64]| -> Vec<f64> { v[..dim].iter().copied().map(lattice).collect() };

        let mut fast = SurrogateSearcher::new(seed, k);
        let mut oracle = SortingSurrogate { seed, k, history: Vec::new() };
        for (rung, (observed, free, pinned, visited, budget)) in rounds.iter().enumerate() {
            // 24 picks spread over the space: small spaces repeat
            // coordinates, and lattice keyed values repeat distances.
            let survivors: Vec<Survivor> = observed
                .iter()
                .map(|(pick, v)| {
                    let id = DesignId(pick * 7919 % len);
                    Survivor { id, coords: space.coords(id).expect("in range"), keyed: keyed(v) }
                })
                .collect();
            fast.observe(&space, &survivors);
            oracle.observe(&space, &survivors);

            let mut frontier_keyed: Vec<Vec<f64>> = free.iter().map(|v| keyed(v)).collect();
            let pool = oracle.pool(&space, rung, *budget);
            if !oracle.history.is_empty() && !pool.is_empty() {
                for j in 0..*pinned {
                    let id = pool[j * pool.len() / pinned];
                    let x = SortingSurrogate::normalize(&space, &space.coords(id).expect("in range"));
                    frontier_keyed.push(oracle.predict(&x));
                }
            }
            let frontier: Vec<FrontierPoint> = frontier_keyed
                .iter()
                .enumerate()
                .map(|(i, v)| FrontierPoint { id: DesignId(i as u64), labels: Vec::new(), values: v.clone() })
                .collect();
            let visited: HashSet<u64> = visited.iter().map(|v| v % len).collect();
            let state = SearchState {
                rung,
                frontier: &frontier,
                frontier_keyed: &frontier_keyed,
                survivors: &survivors,
                visited: &visited,
            };
            prop_assert_eq!(
                fast.propose(&space, &state, *budget),
                oracle.propose(&space, &state, *budget),
                "round {}", rung
            );
        }
    }
}
