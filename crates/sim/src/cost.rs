//! Monte-Carlo step-cost sampling — the batch loop behind
//! [`crate::MonteCarlo`].
//!
//! For each broadcast step the tile sees one activation vector per spatial
//! position and one weight vector per filter (k index). The cost of the
//! step for IPU `(k, pixel)` is `9 ×` the number of occupied alignment
//! windows of its product exponents — computed with the *same* EHU rule
//! as the bit-accurate datapath ([`Ehu::align_set`] for stages 2–4,
//! [`occupied_windows`] for stage 5, over the datapath's own
//! [`partition_width`]). A cluster spends the max over its
//! IPUs, and the cluster FIFO replay ([`simulate_clusters`]) turns the
//! per-cluster step streams into a window's cycles.
//!
//! Operand *exponents* are drawn straight from the workload's distribution
//! family through precomputed alias tables ([`ExpSampler`]; forward:
//! ReLU-truncated activations × Laplace weights; backward: wide-dynamic-
//! range gradients — see `mpipu-analysis::dist`).
//!
//! The draws depend only on a query's *draw class*: the tile unrolls, the
//! operand distributions, the window and the seed. `w`, the software
//! precision, the cluster size and the buffer depth only change how those
//! draws are priced. So [`crate::MonteCarlo`]'s batch:
//!
//! 1. groups a slab by draw class and samples each class once, recording
//!    every IPU's live product exponents per step as a `u64` set (bit
//!    `p + 28`);
//! 2. prices the sets once per `(software precision, partition width)`;
//! 3. answers each distinct `(software precision, partition width, cluster
//!    size, buffer depth)` once; duplicate queries reuse the answer.
//!
//! Every answer is a function of its own query alone, so the composition
//! of a slab never changes a result. `tests/proptests.rs` keeps the
//! per-query pipeline (one fresh draw per query) as the oracle and checks
//! the batch loop against it bit for bit.

use crate::backend::{dist_key, CostQuery};
use crate::engine::simulate_clusters;
use mpipu_analysis::dist::{Distribution, ExpSampler};
use mpipu_datapath::ehu::{occupied_windows, PRODUCT_EXP_BIAS};
use mpipu_datapath::theory::partition_width;
use mpipu_datapath::Ehu;
use mpipu_dnn::zoo::Pass;
use std::collections::HashMap;

/// Cycles a baseline (wide-tree, single-cycle-per-iteration) IPU spends
/// per FP16 broadcast step: the 9 nibble iterations of §3.2.
pub const BASELINE_CYCLES_PER_STEP: u32 = 9;

/// The distribution pair (activations, weights) a pass samples from —
/// the resolution every [`crate::backend::CostBackend`] query goes
/// through when no explicit override is set.
pub fn pass_distributions(pass: Pass) -> (Distribution, Distribution) {
    match pass {
        Pass::Forward => (Distribution::Resnet18Like, Distribution::WeightLike),
        Pass::Backward => (Distribution::BackwardLike, Distribution::WeightLike),
    }
}

/// The query fields that decide the sampled exponents: queries of one
/// class see the very same draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DrawClass {
    /// Tile `(c, k, h, w)` unrolls: lanes, filters and pixels per step.
    unrolls: [usize; 4],
    act: (u8, u64),
    wgt: (u8, u64),
    window: usize,
    seed: u64,
}

impl DrawClass {
    fn of(q: &CostQuery) -> DrawClass {
        let t = &q.tile;
        DrawClass {
            unrolls: [t.c_unroll, t.k_unroll, t.h_unroll, t.w_unroll],
            act: dist_key(q.dists.0),
            wgt: dist_key(q.dists.1),
            window: q.window,
            seed: q.seed,
        }
    }
}

/// The query fields that decide how a class's draws are priced, in
/// pricing order: `(software precision, partition width)` fixes every
/// IPU's step costs, the cluster size their per-cluster maxima, and the
/// buffer depth the FIFO replay.
type PriceKey = (u32, u32, usize, usize);

fn price_key(q: &CostQuery) -> PriceKey {
    (
        q.software_precision,
        partition_width(q.w, q.software_precision),
        q.tile.cluster_size,
        q.tile.buffer_depth,
    )
}

/// Estimate a slab of queries: `out[i]` receives the cycles `queries[i]`'s
/// tile spends retiring its window of sampled steps.
///
/// # Panics
/// Panics if `queries.len() != out.len()`, if a cluster size does not
/// divide its tile's IPU count, or on a buffer depth of 0.
pub(crate) fn estimate_batch(queries: &[CostQuery], out: &mut [f64]) {
    assert_eq!(
        queries.len(),
        out.len(),
        "estimate_batch: slab length mismatch"
    );
    let mut class_ids: HashMap<DrawClass, usize> = HashMap::new();
    let mut classes: Vec<Vec<(PriceKey, usize)>> = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let (ipus, cluster) = (q.tile.ipus(), q.tile.cluster_size);
        // Refused, never priced: a misfit cluster size would silently
        // drop the tail IPUs from the cluster maxima below.
        assert!(
            cluster >= 1 && ipus.is_multiple_of(cluster),
            "cluster size {cluster} must divide the IPU count {ipus}"
        );
        assert!(q.tile.buffer_depth >= 1, "buffer depth must be at least 1");
        let id = *class_ids.entry(DrawClass::of(q)).or_insert_with(|| {
            classes.push(Vec::new());
            classes.len() - 1
        });
        classes[id].push((price_key(q), i));
    }

    // One class's draws are resident at a time: `sets` holds `window ×
    // ipus` words (256 KB for 512 steps of the big tile).
    let mut sets: Vec<u64> = Vec::new();
    let mut cycles: Vec<u32> = Vec::new();
    let mut streams: Vec<Vec<u32>> = Vec::new();
    for mut members in classes {
        // Sorting groups equal prefixes, so each pricing stage runs
        // once per distinct prefix and duplicates reuse the answer.
        members.sort_unstable();
        let first = &queries[members[0].1];
        draw_sets(first, &mut sets);
        let ipus = first.tile.ipus();
        let mut priced = None;
        let mut clustered = None;
        let mut answered: Option<(PriceKey, f64)> = None;
        for (key, i) in members {
            let (swp, sp, cluster, depth) = key;
            let total = match answered {
                Some((k, total)) if k == key => total,
                _ => {
                    if priced != Some((swp, sp)) {
                        price_sets(&sets, Ehu::new(swp), sp, &mut cycles);
                        priced = Some((swp, sp));
                        clustered = None;
                    }
                    if clustered != Some(cluster) {
                        cluster_maxima(&cycles, ipus, cluster, &mut streams);
                        clustered = Some(cluster);
                    }
                    let total = simulate_clusters(&streams, depth) as f64;
                    answered = Some((key, total));
                    total
                }
            };
            out[i] = total;
        }
    }
}

/// Draw one class's `q.window` steps into `sets` (step-major, IPU index
/// `k · pixels + pixel` within a step): each word holds the IPU's live
/// product exponents as a set, bit `p + PRODUCT_EXP_BIAS`.
fn draw_sets(q: &CostQuery, sets: &mut Vec<u64>) {
    let tile = &q.tile;
    let (n, pixels) = (tile.c_unroll, tile.pixels());
    let mut act = ExpSampler::new(q.dists.0, q.seed);
    let mut wgt = ExpSampler::new(q.dists.1, q.seed ^ 0x9e37_79b9);
    let mut act_exps = vec![None; pixels * n];
    let mut wgt_exps = vec![None; tile.k_unroll * n];
    sets.clear();
    sets.reserve(q.window * tile.ipus());
    for _ in 0..q.window {
        // Activation exponents per spatial position (shared by all
        // filters), then weight exponents per filter (shared across
        // pixels).
        act.fill(&mut act_exps);
        wgt.fill(&mut wgt_exps);
        for k in 0..tile.k_unroll {
            let wgt = &wgt_exps[k * n..(k + 1) * n];
            for pixel in 0..pixels {
                sets.push(product_set(&act_exps[pixel * n..(pixel + 1) * n], wgt));
            }
        }
    }
}

/// EHU stage 1 in set form: the live product exponents of one IPU
/// (a lane is dead when either operand is an exact zero).
fn product_set(act: &[Option<i32>], wgt: &[Option<i32>]) -> u64 {
    act.iter().zip(wgt).fold(0u64, |set, pair| match pair {
        (Some(a), Some(w)) => set | 1u64 << (a + w + PRODUCT_EXP_BIAS),
        _ => set,
    })
}

/// Price every IPU step of a class: `9 ×` the occupied windows of its
/// alignment set (the 9 nibble iterations each take that many cycles).
fn price_sets(sets: &[u64], ehu: Ehu, sp: u32, cycles: &mut Vec<u32>) {
    cycles.clear();
    cycles.extend(
        sets.iter()
            .map(|&set| 9 * occupied_windows(ehu.align_set(set), sp)),
    );
}

/// Per-cluster step streams: cluster `c` holds IPUs `c · size ..
/// (c + 1) · size` (k-major), and pays the max over them each step.
fn cluster_maxima(cycles: &[u32], ipus: usize, size: usize, streams: &mut Vec<Vec<u32>>) {
    let clusters = ipus / size;
    streams.resize_with(clusters, Vec::new);
    streams.iter_mut().for_each(Vec::clear);
    if clusters == 0 {
        return;
    }
    for step in cycles.chunks_exact(ipus) {
        for (stream, members) in streams.iter_mut().zip(step.chunks_exact(size)) {
            stream.push(members.iter().copied().max().unwrap_or(0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CostBackend, MonteCarlo};
    use crate::tile::TileConfig;

    fn query(tile: TileConfig, w: u32, pass: Pass, seed: u64, window: usize) -> CostQuery {
        CostQuery {
            tile,
            w,
            software_precision: 28,
            dists: pass_distributions(pass),
            window,
            seed,
        }
    }

    /// Cycles of one `window`-step layer window. The paper tiles run as
    /// one cluster by default, so this is the sum of the step costs.
    fn total(tile: TileConfig, w: u32, pass: Pass, seed: u64, window: usize) -> f64 {
        MonteCarlo.window_cycles(&query(tile, w, pass, seed, window))
    }

    /// One-step windows under seeds `0..count`: on a one-cluster tile each
    /// is one independent draw of the cluster's step cost.
    fn step_samples(tile: TileConfig, w: u32, pass: Pass, count: u64) -> Vec<f64> {
        let slab: Vec<CostQuery> = (0..count).map(|s| query(tile, w, pass, s, 1)).collect();
        let mut out = vec![0.0; slab.len()];
        MonteCarlo.estimate_batch(&slab, &mut out);
        out
    }

    #[test]
    fn forward_costs_stay_low_at_w20() {
        // Fig 9(a): forward alignments cluster near zero (sp(20) = 11
        // covers nearly all of them), so even the per-cluster max over
        // 32 IPUs is mostly a single partition.
        let steps = step_samples(TileConfig::small(), 20, Pass::Forward, 300);
        let single = steps.iter().filter(|&&c| c == 9.0).count();
        assert!(
            single * 2 > steps.len(),
            "expected mostly 9-cycle steps, got {single}/{}",
            steps.len()
        );
        // At w = 16 (sp = 7) the average cluster cost remains under three
        // partitions for forward tensors.
        let mean = total(TileConfig::small(), 16, Pass::Forward, 1, 300) / 300.0;
        assert!(mean < 27.0, "mean forward cluster cost {mean}");
    }

    #[test]
    fn backward_costs_exceed_forward() {
        let fwd = total(TileConfig::small(), 12, Pass::Forward, 1, 300);
        let bwd = total(TileConfig::small(), 12, Pass::Backward, 1, 300);
        assert!(bwd > fwd, "bwd {bwd} fwd {fwd}");
    }

    #[test]
    fn wider_tree_never_costs_more() {
        let cost = |w: u32| total(TileConfig::small(), w, Pass::Backward, 7, 200);
        let (c12, c16, c28) = (cost(12), cost(16), cost(28));
        assert!(c12 >= c16, "{c12} vs {c16}");
        assert!(c16 >= c28, "{c16} vs {c28}");
    }

    #[test]
    fn w28_rarely_multicycles() {
        let steps = step_samples(TileConfig::small(), 28, Pass::Forward, 200);
        let multi = steps.iter().filter(|&&c| c > 9.0).count();
        assert!(multi * 10 < steps.len(), "{multi} multi-cycle steps");
    }

    #[test]
    fn smaller_clusters_have_no_larger_max_costs() {
        // Same draws (one draw class): the max over one IPU never
        // exceeds the max over the 16-IPU cluster holding it, and the
        // FIFO replay is monotone in the step costs.
        let cost = |cluster: usize| {
            let tile = TileConfig::big().with_cluster_size(cluster);
            total(tile, 12, Pass::Backward, 3, 200)
        };
        assert!(cost(1) <= cost(16), "{} vs {}", cost(1), cost(16));
    }

    #[test]
    fn deterministic_by_seed() {
        let q = query(TileConfig::small(), 12, Pass::Forward, 5, 50);
        assert_eq!(MonteCarlo.window_cycles(&q), MonteCarlo.window_cycles(&q));
        let mut out = [0.0; 3];
        let other = CostQuery { seed: 6, ..q };
        MonteCarlo.estimate_batch(&[q, other, q], &mut out);
        assert_eq!(out[0], out[2]);
        assert_eq!(out[0], MonteCarlo.window_cycles(&q));
        assert_eq!(out[1], MonteCarlo.window_cycles(&other));
    }

    #[test]
    fn optimized_and_reference_cost_identical_from_same_exps() {
        // Feed the set pipeline and the allocating plan + sort reference
        // the same exponent vectors: cycle counts must be *identical*
        // (the batch-vs-oracle proptest covers whole slabs).
        let mut s = ExpSampler::new(Distribution::BackwardLike, 11);
        let mut acts = vec![None; 16];
        let mut wgts = vec![None; 16];
        for _ in 0..64 {
            s.fill(&mut acts);
            s.fill(&mut wgts);
            let prod: Vec<Option<i32>> = acts
                .iter()
                .zip(&wgts)
                .map(|(&a, &w)| Some(a? + w?))
                .collect();
            let set = product_set(&acts, &wgts);
            for swp in [16, 28] {
                let ehu = Ehu::new(swp);
                for sp in [1, 3, 7, 19, 29] {
                    let mut fast = Vec::new();
                    price_sets(&[set], ehu, sp, &mut fast);
                    let slow = 9 * ehu.plan(&prod).partitions_naive(sp).len() as u32;
                    assert_eq!(fast, [slow], "swp {swp} sp {sp}");
                }
            }
        }
    }
}
