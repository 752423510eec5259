//! Property-based invariants of the timing engine, the Monte-Carlo and
//! analytic cost backends, and the per-query oracle the batched
//! Monte-Carlo batch is checked against.

use mpipu_analysis::dist::Distribution;
use mpipu_dnn::zoo::Pass;
use mpipu_sim::{simulate_clusters, CostBackend, CostQuery, Memoized, MonteCarlo, TileConfig};
use oracle::CostModel;
use proptest::prelude::*;
use std::sync::Arc;

/// The per-query Monte-Carlo pipeline: a fresh draw for every query, one
/// step at a time, priced per IPU through [`mpipu_datapath::Ehu`]. It is
/// the oracle for `MonteCarlo::estimate_batch`, which shares one draw
/// per draw class across a slab; [`oracle::reference`] is the older
/// value-sampling pipeline it was itself checked against.
mod oracle {
    use mpipu_analysis::dist::{Distribution, ExpSampler};
    use mpipu_datapath::Ehu;
    use mpipu_dnn::zoo::Pass;
    use mpipu_sim::cost::{pass_distributions, safe_precision};
    use mpipu_sim::TileConfig;

    /// Cluster costs of one broadcast step from explicit operand
    /// exponents: `act_exps` is pixel-major `pixels × n`, `wgt_exps`
    /// k-major `k_unroll × n`; `out` (one slot per cluster, zeroed by the
    /// caller) accumulates the per-cluster max.
    pub fn step_costs_from_exps(
        ehu: &Ehu,
        sp: u32,
        tile: &TileConfig,
        act_exps: &[Option<i32>],
        wgt_exps: &[Option<i32>],
        out: &mut [u32],
    ) {
        let n = tile.c_unroll;
        let pixels = tile.pixels();
        let mut prod = vec![None; n];
        for k in 0..tile.k_unroll {
            let wgt = &wgt_exps[k * n..(k + 1) * n];
            for pixel in 0..pixels {
                let act = &act_exps[pixel * n..(pixel + 1) * n];
                for ((p, &a), &w) in prod.iter_mut().zip(act).zip(wgt) {
                    *p = match (a, w) {
                        (Some(a), Some(w)) => Some(a + w),
                        _ => None,
                    };
                }
                // Clusters partition individual MC-IPUs, k-major.
                let cluster = (k * pixels + pixel) / tile.cluster_size;
                out[cluster] = out[cluster].max(9 * ehu.partition_count(&prod, sp));
            }
        }
    }

    /// Samples step costs for one query's tile design.
    #[derive(Debug)]
    pub struct CostModel {
        act: ExpSampler,
        wgt: ExpSampler,
        ehu: Ehu,
        sp: u32,
        tile: TileConfig,
    }

    impl CostModel {
        /// A model sampling the pass's default distribution pair.
        pub fn new(tile: TileConfig, w: u32, swp: u32, pass: Pass, seed: u64) -> Self {
            Self::with_distributions(tile, w, swp, pass_distributions(pass), seed)
        }

        /// A model sampling an explicit `(activation, weight)` pair,
        /// seeded as `MonteCarlo` seeds a query's draw class.
        pub fn with_distributions(
            tile: TileConfig,
            w: u32,
            swp: u32,
            (act, wgt): (Distribution, Distribution),
            seed: u64,
        ) -> Self {
            CostModel {
                act: ExpSampler::new(act, seed),
                wgt: ExpSampler::new(wgt, seed ^ 0x9e37_79b9),
                ehu: Ehu::new(swp),
                sp: safe_precision(w, swp),
                tile,
            }
        }

        /// `steps` steps of costs, grouped by cluster:
        /// `per_cluster[cluster][step]`.
        pub fn sample_steps(&mut self, steps: usize) -> Vec<Vec<u32>> {
            let t = self.tile;
            let mut acts = vec![None; t.pixels() * t.c_unroll];
            let mut wgts = vec![None; t.k_unroll * t.c_unroll];
            let mut per_cluster = vec![Vec::with_capacity(steps); t.clusters()];
            for _ in 0..steps {
                // Activations per spatial position, then weights per
                // filter — the draw order of `MonteCarlo`.
                self.act.fill(&mut acts);
                self.wgt.fill(&mut wgts);
                let mut step = vec![0u32; t.clusters()];
                step_costs_from_exps(&self.ehu, self.sp, &t, &acts, &wgts, &mut step);
                for (stream, cost) in per_cluster.iter_mut().zip(step) {
                    stream.push(cost);
                }
            }
            per_cluster
        }
    }

    /// The value-sampling pipeline: FP16 values drawn, rounded and
    /// decoded per operand, priced by the allocating alignment plan and
    /// the sort-based partition list.
    pub mod reference {
        use mpipu_analysis::dist::Sampler;
        use mpipu_datapath::Ehu;
        use mpipu_dnn::zoo::Pass;
        use mpipu_fp::SignedMagnitude;
        use mpipu_sim::cost::{pass_distributions, safe_precision};
        use mpipu_sim::TileConfig;

        /// [`super::step_costs_from_exps`] through `Ehu::plan` and
        /// `partitions_naive`.
        pub fn step_costs_from_exps(
            ehu: &Ehu,
            sp: u32,
            tile: &TileConfig,
            act_exps: &[Option<i32>],
            wgt_exps: &[Option<i32>],
            out: &mut [u32],
        ) {
            let n = tile.c_unroll;
            let pixels = tile.pixels();
            for k in 0..tile.k_unroll {
                let wgt = &wgt_exps[k * n..(k + 1) * n];
                for pixel in 0..pixels {
                    let act = &act_exps[pixel * n..(pixel + 1) * n];
                    let prod: Vec<Option<i32>> =
                        act.iter().zip(wgt).map(|(&a, &w)| Some(a? + w?)).collect();
                    let cycles = 9 * ehu.plan(&prod).partitions_naive(sp).len() as u32;
                    let cluster = (k * pixels + pixel) / tile.cluster_size;
                    out[cluster] = out[cluster].max(cycles);
                }
            }
        }

        /// Draws full FP16 *values* and decodes their exponents per step.
        #[derive(Debug)]
        pub struct ReferenceCostModel {
            act: Sampler,
            wgt: Sampler,
            ehu: Ehu,
            sp: u32,
            tile: TileConfig,
        }

        impl ReferenceCostModel {
            /// Same parameters as [`super::CostModel::new`].
            pub fn new(tile: TileConfig, w: u32, swp: u32, pass: Pass, seed: u64) -> Self {
                let (act, wgt) = pass_distributions(pass);
                ReferenceCostModel {
                    act: Sampler::new(act, seed),
                    wgt: Sampler::new(wgt, seed ^ 0x9e37_79b9),
                    ehu: Ehu::new(swp),
                    sp: safe_precision(w, swp),
                    tile,
                }
            }

            fn sample_exp(s: &mut Sampler) -> Option<i32> {
                SignedMagnitude::from_fp16(s.sample_fp16())
                    .filter(|sm| !sm.is_zero())
                    .map(|sm| sm.exp)
            }

            /// `steps` steps of costs, grouped by cluster.
            pub fn sample_steps(&mut self, steps: usize) -> Vec<Vec<u32>> {
                let t = self.tile;
                let mut per_cluster = vec![Vec::with_capacity(steps); t.clusters()];
                for _ in 0..steps {
                    let acts: Vec<Option<i32>> = (0..t.pixels() * t.c_unroll)
                        .map(|_| Self::sample_exp(&mut self.act))
                        .collect();
                    let wgts: Vec<Option<i32>> = (0..t.k_unroll * t.c_unroll)
                        .map(|_| Self::sample_exp(&mut self.wgt))
                        .collect();
                    let mut step = vec![0u32; t.clusters()];
                    step_costs_from_exps(&self.ehu, self.sp, &t, &acts, &wgts, &mut step);
                    for (stream, cost) in per_cluster.iter_mut().zip(step) {
                        stream.push(cost);
                    }
                }
                per_cluster
            }
        }
    }
}

/// The oracle's answer to one query: its own fresh draw, then the
/// cluster FIFO replay.
fn oracle_window_cycles(q: &CostQuery) -> f64 {
    let mut model =
        CostModel::with_distributions(q.tile, q.w, q.software_precision, q.dists, q.seed);
    simulate_clusters(&model.sample_steps(q.window), q.tile.buffer_depth) as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Total time is at least the slowest cluster's serial work and at
    /// most lock-step execution (sum of per-step maxima) plus the pipeline
    /// fill.
    #[test]
    fn engine_bounds(
        streams in prop::collection::vec(
            prop::collection::vec(1u32..60, 1..80), 1..5),
        depth in 1usize..16,
    ) {
        let steps = streams.iter().map(Vec::len).min().unwrap();
        let trimmed: Vec<Vec<u32>> =
            streams.iter().map(|s| s[..steps].to_vec()).collect();
        let t = simulate_clusters(&trimmed, depth);
        let slowest: u64 = trimmed
            .iter()
            .map(|s| s.iter().map(|&c| u64::from(c)).sum())
            .max()
            .unwrap();
        let lockstep: u64 = (0..steps)
            .map(|i| trimmed.iter().map(|s| u64::from(s[i])).max().unwrap())
            .sum();
        prop_assert!(t >= slowest, "t {t} < slowest {slowest}");
        prop_assert!(
            t <= lockstep + steps as u64,
            "t {t} > lockstep {lockstep} + fill"
        );
    }

    /// Deeper buffers never slow execution down.
    #[test]
    fn engine_monotone_in_depth(
        a in prop::collection::vec(1u32..40, 4..64),
        b in prop::collection::vec(1u32..40, 4..64),
    ) {
        let n = a.len().min(b.len());
        let streams = [a[..n].to_vec(), b[..n].to_vec()];
        let mut prev = u64::MAX;
        for depth in [1usize, 2, 4, 8, 32] {
            let t = simulate_clusters(&streams, depth);
            prop_assert!(t <= prev, "depth {depth}: {t} > {prev}");
            prev = t;
        }
    }

    /// Uniform streams are insensitive to buffering and exactly serial.
    #[test]
    fn engine_uniform_streams_are_serial(
        cost in 1u32..64,
        steps in 1usize..128,
        clusters in 1usize..6,
        depth in 1usize..8,
    ) {
        let streams = vec![vec![cost; steps]; clusters];
        let t = simulate_clusters(&streams, depth);
        // Issue bandwidth (1 step/cycle) binds only when cost = 1.
        let expect = (cost as u64 * steps as u64).max(steps as u64);
        prop_assert_eq!(t, expect);
    }

    /// Cost-model outputs are valid multiples of 9 and bounded by the
    /// worst-case partition count.
    #[test]
    fn cost_model_outputs_are_valid(w in 10u32..30, seed in 0u64..500) {
        let tile = TileConfig::small();
        let mut m = CostModel::new(tile, w, 28, Pass::Backward, seed);
        let costs = m.sample_steps(16);
        let sp = if w >= 28 { 29 } else { (w - 9).max(1) };
        let max_partitions = 28 / sp + 1;
        for stream in &costs {
            for &c in stream {
                prop_assert_eq!(c % 9, 0, "cost {} not a 9-multiple", c);
                prop_assert!(c / 9 >= 1 && c / 9 <= max_partitions,
                    "cost {} exceeds {} partitions", c, max_partitions);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ISSUE 4: the analytic backend's expected step cost is *exact* for
    /// single-IPU clusters (IPU lanes draw independent operands in the
    /// Monte-Carlo model too), so the MC sample mean must land within CLT
    /// distance — 6σ/√N, with σ from the analytic law itself — of the
    /// closed form for arbitrary tile geometry, adder width, accumulator
    /// precision, and distribution family (both passes' default pairs
    /// plus the three parametric families).
    #[test]
    fn analytic_expected_step_cost_matches_monte_carlo_mean(
        c_unroll in 2usize..=16,
        k_unroll in 1usize..=4,
        h_unroll in 1usize..=2,
        w_unroll in 1usize..=2,
        w in 10u32..=30,
        fp32 in any::<bool>(),
        dist_sel in 0usize..5,
        seed in 0u64..1000,
    ) {
        use mpipu_sim::{cost, StepCost};

        let software_precision = if fp32 { 28 } else { 16 };
        let dists = match dist_sel {
            0 => cost::pass_distributions(Pass::Forward),
            1 => cost::pass_distributions(Pass::Backward),
            2 => (
                Distribution::Uniform { scale: 3.0 },
                Distribution::Uniform { scale: 0.5 },
            ),
            3 => (
                Distribution::Normal { std: 2.0 },
                Distribution::Laplace { b: 0.7 },
            ),
            _ => (
                Distribution::Laplace { b: 1.5 },
                Distribution::Normal { std: 0.1 },
            ),
        };
        let tile = TileConfig {
            c_unroll,
            k_unroll,
            h_unroll,
            w_unroll,
            cluster_size: 1,
            buffer_depth: 4,
            weight_buffer_depth: 9,
        };
        let step = StepCost::new(&tile, w, software_precision, dists);
        let steps = 300;
        let mut model =
            CostModel::with_distributions(tile, w, software_precision, dists, seed);
        let flat: Vec<u32> = model.sample_steps(steps).concat();
        let mc = flat.iter().map(|&c| f64::from(c)).sum::<f64>() / flat.len() as f64;
        // Per-step costs are correlated *across* IPUs (shared operand
        // vectors), so only the step count is credited as sample size.
        let tol = 6.0 * (step.cluster_variance() / steps as f64).sqrt() + 1e-9;
        prop_assert!(
            (mc - step.cluster_mean()).abs() <= tol,
            "tile {:?} w {} swp {} dists {:?}: MC mean {} vs analytic {} (tol {})",
            tile, w, software_precision, dists, mc, step.cluster_mean(), tol
        );
    }
}

/// The distribution pairs the batched-backend properties sweep: both
/// passes' defaults plus a parametric pair (distinct PMFs, so the
/// per-class product-exponent hoist is actually exercised).
fn slab_dists(sel: usize) -> (Distribution, Distribution) {
    use mpipu_sim::cost::pass_distributions;
    match sel {
        0 => pass_distributions(Pass::Forward),
        1 => pass_distributions(Pass::Backward),
        _ => (
            Distribution::Normal { std: 1.3 },
            Distribution::Laplace { b: 0.9 },
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The analytic backend's contract: `AnalyticBatched::estimate_batch`
    /// over an arbitrary parameter sub-slab — a mixed-radix grid of
    /// `(w, software precision, cluster size, window)` values in axis
    /// order, split at arbitrary chunk boundaries — is bit-identical to
    /// the closed form of each query on its own,
    /// `constant_stream_cycles(window, StepCost::new(..).cluster_mean())`.
    /// This is the license for the sweep engine to hand whole chunks to
    /// the backend.
    #[test]
    fn batched_analytic_matches_scalar_over_random_sub_slabs(
        ws in prop::collection::vec(8u32..=38, 1..4),
        swp_fp32s in prop::collection::vec(any::<bool>(), 1..3),
        cluster_log2s in prop::collection::vec(0u32..=4, 1..3),
        windows in prop::collection::vec(1usize..600, 1..3),
        big in any::<bool>(),
        dist_sel in 0usize..3,
        chunk in 1usize..40,
        seed in any::<u64>(),
    ) {
        use mpipu_sim::{constant_stream_cycles, AnalyticBatched, StepCost};

        let base = if big { TileConfig::big() } else { TileConfig::small() };
        let dists = slab_dists(dist_sel);
        let swps: Vec<u32> = swp_fp32s.iter().map(|&fp32| if fp32 { 28 } else { 16 }).collect();
        let mut queries = Vec::new();
        for &w in &ws {
            for &swp in &swps {
                for &cl in &cluster_log2s {
                    for &window in &windows {
                        queries.push(CostQuery {
                            tile: base.with_cluster_size(1 << cl),
                            w,
                            software_precision: swp,
                            dists,
                            window,
                            seed,
                        });
                    }
                }
            }
        }
        let batched = AnalyticBatched::new();
        let mut out = vec![0.0f64; queries.len()];
        for (qs, os) in queries.chunks(chunk).zip(out.chunks_mut(chunk)) {
            batched.estimate_batch(qs, os);
        }
        for (q, got) in queries.iter().zip(&out) {
            let step = StepCost::new(&q.tile, q.w, q.software_precision, q.dists);
            let want = constant_stream_cycles(q.window as u64, step.cluster_mean());
            prop_assert_eq!(
                got.to_bits(), want.to_bits(),
                "w {} swp {} cluster {} window {}: batched {} vs closed form {}",
                q.w, q.software_precision, q.tile.cluster_size, q.window, got, want
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The oracle's per-IPU pricing (`Ehu::partition_count`, whose
    /// stage-5 count is the one `MonteCarlo` uses) and the value-sampling
    /// reference (`Ehu::plan` + `partitions_naive`) produce *identical*
    /// cycle counts from the same operand exponents.
    #[test]
    fn optimized_cost_pipeline_matches_reference(
        seed in 0u64..10_000,
        sp in 1u32..=30,
        swp in any::<bool>().prop_map(|fp32| if fp32 { 28u32 } else { 16 }),
        cluster_log2 in 0u32..=5,
    ) {
        use mpipu_analysis::dist::ExpSampler;
        use mpipu_datapath::Ehu;

        let tile = TileConfig::small().with_cluster_size(1 << cluster_log2);
        let (n, pixels, k) = (tile.c_unroll, tile.pixels(), tile.k_unroll);
        let mut s = ExpSampler::new(Distribution::BackwardLike, seed);
        let mut acts = vec![None; pixels * n];
        let mut wgts = vec![None; k * n];
        s.fill(&mut acts);
        s.fill(&mut wgts);
        let ehu = Ehu::new(swp);
        let mut fast = vec![0u32; tile.clusters()];
        let mut slow = vec![0u32; tile.clusters()];
        oracle::step_costs_from_exps(&ehu, sp, &tile, &acts, &wgts, &mut fast);
        oracle::reference::step_costs_from_exps(&ehu, sp, &tile, &acts, &wgts, &mut slow);
        prop_assert_eq!(fast, slow);
    }
}

/// The table-driven oracle and the value-sampling reference draw from
/// the same exponent law; their mean cluster costs must agree closely
/// (different RNG streams, same law).
#[test]
fn reference_model_has_same_statistics() {
    let tile = TileConfig::small();
    let opt = CostModel::new(tile, 12, 28, Pass::Backward, 3)
        .sample_steps(400)
        .concat();
    let refc = oracle::reference::ReferenceCostModel::new(tile, 12, 28, Pass::Backward, 3)
        .sample_steps(400)
        .concat();
    let mean = |v: &[u32]| v.iter().map(|&c| f64::from(c)).sum::<f64>() / v.len() as f64;
    let (mo, mr) = (mean(&opt), mean(&refc));
    assert!(
        (mo - mr).abs() / mr < 0.06,
        "table-driven mean {mo} vs reference mean {mr}"
    );
}

/// An operand distribution from a family index and a scale parameter.
fn any_dist(kind: usize, param: f64) -> Distribution {
    match kind {
        0 => Distribution::Uniform { scale: param },
        1 => Distribution::Normal { std: param },
        2 => Distribution::Laplace { b: param },
        3 => Distribution::Resnet18Like,
        4 => Distribution::Resnet50Like,
        5 => Distribution::BackwardLike,
        _ => Distribution::WeightLike,
    }
}

/// A deterministic permutation of `slab` keyed by `seed`.
fn shuffle<T>(slab: &mut Vec<T>, seed: u64) {
    let mix = |i: u64| {
        let mut z = (i ^ seed).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^ (z >> 31)
    };
    let mut keyed: Vec<(u64, T)> = slab
        .drain(..)
        .enumerate()
        .map(|(i, q)| (mix(i as u64), q))
        .collect();
    keyed.sort_by_key(|&(k, _)| k);
    slab.extend(keyed.into_iter().map(|(_, q)| q));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `MonteCarlo::estimate_batch`, which samples each draw class of a
    /// slab once and prices every query of the class from that sample,
    /// answers every query bit for bit like the per-query oracle — on
    /// shuffled slabs mixing both tiles' cluster sizes and buffer depths,
    /// `w`, software precisions, random distributions, shared and
    /// distinct windows and seeds, and exact duplicates. A one-query
    /// batch, `window_cycles` and `Memoized(MonteCarlo)` agree too.
    #[test]
    fn monte_carlo_batch_matches_per_query_oracle(
        big in any::<bool>(),
        specs in prop::collection::vec(
            (4u32..=40, 0u32..=64, 0u32..=6, 1usize..=8, 0usize..3, 0usize..4),
            1..=10,
        ),
        dist_specs in prop::collection::vec(((0usize..7, 0.05f64..8.0), (0usize..7, 0.05f64..8.0)), 3),
        windows in prop::collection::vec(1usize..=70, 2),
        seeds in prop::collection::vec(any::<u64>(), 2),
        dups in prop::collection::vec(any::<usize>(), 0..4),
        order in any::<u64>(),
    ) {
        let base = if big { TileConfig::big() } else { TileConfig::small() };
        let widest = base.ipus().trailing_zeros();
        let dists: Vec<(Distribution, Distribution)> = dist_specs
            .iter()
            .map(|&((ak, ap), (wk, wp))| (any_dist(ak, ap), any_dist(wk, wp)))
            .collect();
        let mut slab: Vec<CostQuery> = specs
            .iter()
            .map(|&(w, swp, cluster_log2, depth, d, draw)| CostQuery {
                tile: TileConfig {
                    cluster_size: 1 << cluster_log2.min(widest),
                    buffer_depth: depth,
                    ..base
                },
                w,
                software_precision: swp,
                dists: dists[d],
                window: windows[draw % 2],
                seed: seeds[draw / 2],
            })
            .collect();
        for &d in &dups {
            slab.push(slab[d % slab.len()]);
        }
        shuffle(&mut slab, order);

        let mut batch = vec![0.0f64; slab.len()];
        MonteCarlo.estimate_batch(&slab, &mut batch);
        let memo = Memoized::new(Arc::new(MonteCarlo));
        let mut memoized = vec![0.0f64; slab.len()];
        memo.estimate_batch(&slab, &mut memoized);
        for (i, q) in slab.iter().enumerate() {
            let want = oracle_window_cycles(q);
            prop_assert_eq!(
                batch[i].to_bits(), want.to_bits(),
                "slot {}: {:?}: batch {} vs oracle {}", i, q, batch[i], want
            );
            let mut one = [0.0f64];
            MonteCarlo.estimate_batch(std::slice::from_ref(q), &mut one);
            prop_assert_eq!(one[0].to_bits(), want.to_bits());
            prop_assert_eq!(MonteCarlo.window_cycles(q).to_bits(), want.to_bits());
            prop_assert_eq!(memoized[i].to_bits(), want.to_bits());
        }
    }
}
