//! The analytic cost backend, batched — [`AnalyticBatched`].
//!
//! It answers the cost question (expected cycles to retire a window of
//! broadcast steps) in closed form — the arithmetic of
//! [`crate::backend::StepCost`] — but structured around
//! [`crate::CostBackend::estimate_batch`] so that a whole slab of
//! queries — e.g. one axis-contiguous chunk of a design-space sweep —
//! shares the expensive math instead of recomputing it per point:
//!
//! * Queries collapse into **DP equivalence classes** (`DpClass`): the
//!   sequential-binomial partition-count DP depends only on the IPU lane
//!   count, the safe precision `sp(w, swp)`, the software precision, and
//!   the operand-distribution pair. Everything else (cluster size,
//!   buffer depth, window length, seed) scales or selects *after* the
//!   DP. The operand PMFs and the product-exponent convolution are
//!   hoisted one level further: once per distribution pair.
//! * Along a `w` axis the class is piecewise constant — the DP depends
//!   on `w` only through `sp(w, swp)` — so the class cache reuses one DP
//!   across each `sp` plateau (every `w ≤ 10`, for instance, maps to
//!   `sp = 1`).
//! * Per-cluster expected step costs for all cluster sizes a slab needs
//!   are filled in one pass over the partition PMF by
//!   `cluster_means_multi` — lanes laid out structure-of-arrays so the
//!   inner loop autovectorizes, with each lane performing exactly the
//!   op sequence of [`crate::backend::StepCost::cluster_mean`], keeping results
//!   bit-identical per lane.
//!
//! Bit-identity with the one-query closed form
//! (`constant_stream_cycles(window, StepCost::new(..).cluster_mean())`)
//! is a hard contract, property-tested in `tests/proptests.rs`: hoisting
//! means calling the same functions *fewer times* with identical inputs,
//! never reassociating the floating-point arithmetic inside them.

use crate::backend::{
    dist_key, ipu_partition_pmf, product_exponent_pmf, CacheKey, CacheStats, CostBackend,
    CostQuery, PROD_EXPS,
};
use crate::cost::safe_precision;
use crate::engine::constant_stream_cycles;
use mpipu_analysis::dist::Distribution;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The inputs the partition-count DP actually depends on — queries with
/// equal `DpClass` share one DP run (and, per cluster size, one expected
/// step cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DpClass {
    /// IPU lane count (`tile.c_unroll`).
    lanes: usize,
    /// Effective safe precision `sp(w, software_precision)` — the only
    /// channel through which `w` reaches the DP.
    sp: u32,
    /// Software (accumulation) precision.
    software_precision: u32,
    act: (u8, u64),
    wgt: (u8, u64),
}

impl DpClass {
    /// The equivalence class of a query.
    fn of(q: &CostQuery) -> DpClass {
        DpClass {
            lanes: q.tile.c_unroll,
            sp: safe_precision(q.w, q.software_precision),
            software_precision: q.software_precision,
            act: dist_key(q.dists.0),
            wgt: dist_key(q.dists.1),
        }
    }
}

/// Expected cluster step costs (`9·E[max partition count]` over
/// `cluster_sizes[l]` iid IPUs) for several cluster sizes in a single
/// pass over the partition PMF.
///
/// Lanes are laid out structure-of-arrays (`prev[lane]`, `acc[lane]`)
/// so the inner loop is a straight-line pass over contiguous `f64`
/// lanes; per lane the op sequence is exactly
/// [`crate::backend::StepCost::cluster_mean`]'s (same shared `cdf` accumulation, same
/// `powi`/multiply/add order), so each lane's result is bit-identical
/// to the scalar computation.
fn cluster_means_multi(pmf: &[f64], cluster_sizes: &[usize]) -> Vec<f64> {
    let lanes = cluster_sizes.len();
    let mut prev = vec![0.0f64; lanes];
    let mut acc = vec![0.0f64; lanes];
    let mut cdf = 0.0f64;
    for (j, &p) in pmf.iter().enumerate() {
        cdf += p;
        let clamped = cdf.min(1.0);
        let weight = (9.0 * (j + 1) as f64).powi(1);
        for l in 0..lanes {
            let pow = clamped.powi(cluster_sizes[l] as i32);
            acc[l] += weight * (pow - prev[l]);
            prev[l] = pow;
        }
    }
    acc
}

/// A distribution's cache identity (see `backend::dist_key`).
type DistKey = (u8, u64);

/// A cached product-exponent PMF: `(mass below the tracked range,
/// per-exponent probabilities)` — `product_exponent_pmf`'s output.
type ProductPmf = (f64, [f64; PROD_EXPS]);

/// The analytic backend (CLI name `analytic`; [`crate::Backend::Analytic`]).
///
/// See the module docs for the hoisting structure. All caches are value
/// caches of deterministic pure functions, shared across threads behind
/// `RwLock`s; racing fills are benign (both sides compute the same
/// bits).
pub struct AnalyticBatched {
    /// Product-exponent PMFs, one per distribution pair.
    products: RwLock<HashMap<(DistKey, DistKey), Arc<ProductPmf>>>,
    /// Partition-count PMFs, one per DP equivalence class.
    classes: RwLock<HashMap<DpClass, Arc<Vec<f64>>>>,
    /// Expected cluster step costs, one per (class, cluster size).
    means: RwLock<HashMap<(DpClass, usize), f64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for AnalyticBatched {
    fn default() -> Self {
        AnalyticBatched::new()
    }
}

impl AnalyticBatched {
    /// A backend with empty caches.
    pub fn new() -> AnalyticBatched {
        AnalyticBatched {
            products: RwLock::new(HashMap::new()),
            classes: RwLock::new(HashMap::new()),
            means: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The class's partition PMF, computing (and caching) it on first
    /// sight. Returns whether this call ran the DP.
    fn class_pmf(
        &self,
        class: DpClass,
        dists: (Distribution, Distribution),
    ) -> (Arc<Vec<f64>>, bool) {
        if let Some(pmf) = self.classes.read().unwrap().get(&class) {
            return (pmf.clone(), false);
        }
        let pkey = (class.act, class.wgt);
        // The read guard must drop before the write acquire below — a
        // `match` on the guarded lookup would keep it alive into the
        // miss arm and self-deadlock.
        let cached = self.products.read().unwrap().get(&pkey).cloned();
        let product = match cached {
            Some(p) => p,
            None => {
                let p = Arc::new(product_exponent_pmf(dists.0, dists.1));
                self.products.write().unwrap().insert(pkey, p.clone());
                p
            }
        };
        let pmf = Arc::new(ipu_partition_pmf(
            class.lanes,
            class.sp,
            class.software_precision,
            product.0,
            &product.1,
        ));
        self.classes.write().unwrap().insert(class, pmf.clone());
        (pmf, true)
    }

    /// Expected cluster step cost for `(class, cluster)`, filling the
    /// mean cache for every cluster size in `wanted` at once (the SoA
    /// kernel's slab form). Returns whether the DP ran.
    fn fill_means(
        &self,
        class: DpClass,
        dists: (Distribution, Distribution),
        wanted: &[usize],
    ) -> bool {
        let missing: Vec<usize> = {
            let means = self.means.read().unwrap();
            wanted
                .iter()
                .copied()
                .filter(|&c| !means.contains_key(&(class, c)))
                .collect()
        };
        if missing.is_empty() {
            return false;
        }
        let (pmf, ran_dp) = self.class_pmf(class, dists);
        let values = cluster_means_multi(&pmf, &missing);
        let mut means = self.means.write().unwrap();
        for (&c, &m) in missing.iter().zip(&values) {
            means.insert((class, c), m);
        }
        ran_dp
    }
}

impl std::fmt::Debug for AnalyticBatched {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalyticBatched")
            .field("classes", &self.classes.read().unwrap().len())
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish()
    }
}

impl CostBackend for AnalyticBatched {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn window_cycles(&self, q: &CostQuery) -> f64 {
        let mut out = [0.0f64];
        self.estimate_batch(std::slice::from_ref(q), &mut out);
        out[0]
    }

    /// Seed-blind: the expectation does not depend on the sampling seed,
    /// so every layer and every seed of a design point shares one cache
    /// entry.
    fn cache_key(&self, q: &CostQuery) -> CacheKey {
        CacheKey::new(self.name(), q, false)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(CacheStats {
            inner: "analytic",
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.classes.read().unwrap().len(),
        })
    }

    fn estimate_batch(&self, queries: &[CostQuery], out: &mut [f64]) {
        assert_eq!(
            queries.len(),
            out.len(),
            "estimate_batch: slab length mismatch"
        );
        // Pass 1 — classify every query. Distinct classes and, per
        // class, the distinct cluster sizes this slab needs. A sweep's
        // fastest axis often alternates between two values (e.g.
        // forward/backward distributions), so the memo keeps the last
        // *two* classes before falling back to the linear scan.
        let mut classes: Vec<(DpClass, (Distribution, Distribution))> = Vec::new();
        let mut clusters_of: Vec<Vec<usize>> = Vec::new();
        let mut tags: Vec<(u32, u32)> = Vec::with_capacity(queries.len());
        let mut memo: [Option<(DpClass, u32)>; 2] = [None, None];
        for q in queries {
            let class = DpClass::of(q);
            let id = match memo {
                [Some((c, id)), _] if c == class => id,
                [_, Some((c, id))] if c == class => {
                    memo.swap(0, 1);
                    id
                }
                _ => {
                    let id = match classes.iter().position(|(c, _)| *c == class) {
                        Some(i) => i as u32,
                        None => {
                            classes.push((class, q.dists));
                            clusters_of.push(Vec::new());
                            (classes.len() - 1) as u32
                        }
                    };
                    memo = [Some((class, id)), memo[0]];
                    id
                }
            };
            let cluster = q.tile.cluster_size;
            let of = &mut clusters_of[id as usize];
            let cpos = match of.iter().position(|&c| c == cluster) {
                Some(p) => p,
                None => {
                    of.push(cluster);
                    of.len() - 1
                }
            };
            tags.push((id, cpos as u32));
        }

        // Pass 2 — per class, fill every missing (class, cluster) mean
        // through the SoA kernel, then snapshot the slab's means into a
        // dense lock-free local table indexed by the pass-1 tags.
        let mut fresh = 0u64;
        let mut local: Vec<Vec<f64>> = Vec::with_capacity(classes.len());
        for ((class, dists), clusters) in classes.iter().zip(&clusters_of) {
            if self.fill_means(*class, *dists, clusters) {
                fresh += 1;
            }
            let means = self.means.read().unwrap();
            local.push(clusters.iter().map(|&c| means[&(*class, c)]).collect());
        }
        self.misses.fetch_add(fresh, Ordering::Relaxed);
        self.hits.fetch_add(
            (queries.len() as u64).saturating_sub(fresh),
            Ordering::Relaxed,
        );

        // Pass 3 — emit: the window only scales the expectation, exactly
        // as the one-query closed form's final step.
        for ((slot, q), &(id, cpos)) in out.iter_mut().zip(queries).zip(&tags) {
            *slot = constant_stream_cycles(q.window as u64, local[id as usize][cpos as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::StepCost;
    use crate::cost::pass_distributions;
    use crate::tile::TileConfig;
    use mpipu_dnn::zoo::Pass;

    fn query(tile: TileConfig, w: u32, swp: u32, pass: Pass, window: usize) -> CostQuery {
        CostQuery {
            tile,
            w,
            software_precision: swp,
            dists: pass_distributions(pass),
            window,
            seed: 0,
        }
    }

    #[test]
    fn batched_is_bit_identical_to_scalar_analytic() {
        let mut queries = Vec::new();
        for w in [8u32, 10, 12, 16, 20, 25, 28, 38] {
            for swp in [16u32, 28] {
                for tile in [TileConfig::small(), TileConfig::big().with_cluster_size(4)] {
                    for pass in [Pass::Forward, Pass::Backward] {
                        queries.push(query(tile, w, swp, pass, 48));
                    }
                }
            }
        }
        // The oracle: the closed form of each query on its own.
        let closed_form = |q: &CostQuery| {
            let step = StepCost::new(&q.tile, q.w, q.software_precision, q.dists);
            constant_stream_cycles(q.window as u64, step.cluster_mean())
        };
        let batched = AnalyticBatched::new();
        let mut out = vec![0.0; queries.len()];
        batched.estimate_batch(&queries, &mut out);
        for (q, got) in queries.iter().zip(&out) {
            assert_eq!(
                got.to_bits(),
                closed_form(q).to_bits(),
                "w={} swp={}",
                q.w,
                q.software_precision
            );
        }
        // The scalar entry point routes through the same caches.
        for q in &queries {
            assert_eq!(batched.window_cycles(q).to_bits(), closed_form(q).to_bits());
        }
    }

    #[test]
    fn soa_kernel_matches_step_cost_per_lane() {
        for pass in [Pass::Forward, Pass::Backward] {
            for (w, swp) in [(12u32, 28u32), (16, 28), (14, 16), (38, 28)] {
                let sizes = [1usize, 2, 4, 8, 16];
                let step = |c: usize| {
                    StepCost::new(
                        &TileConfig::big().with_cluster_size(c),
                        w,
                        swp,
                        pass_distributions(pass),
                    )
                };
                let pmf = step(1).partitions_pmf;
                let multi = cluster_means_multi(&pmf, &sizes);
                for (&c, &m) in sizes.iter().zip(&multi) {
                    assert_eq!(
                        m.to_bits(),
                        step(c).cluster_mean().to_bits(),
                        "cluster {c} w={w} swp={swp} {pass:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn stats_count_class_computations_as_misses() {
        let b = AnalyticBatched::new();
        let qs = vec![query(TileConfig::small(), 12, 28, Pass::Forward, 48); 10];
        let mut out = vec![0.0; qs.len()];
        b.estimate_batch(&qs, &mut out);
        let s = b.cache_stats().unwrap();
        assert_eq!((s.inner, s.misses, s.entries), ("analytic", 1, 1));
        assert_eq!(s.hits, 9);
        // A repeat slab is all hits.
        b.estimate_batch(&qs, &mut out);
        let s = b.cache_stats().unwrap();
        assert_eq!((s.misses, s.hits), (1, 19));
    }

    #[test]
    fn cache_key_is_seed_blind() {
        let b = AnalyticBatched::new();
        let q = query(TileConfig::small(), 12, 28, Pass::Forward, 48);
        assert_eq!(b.cache_key(&q), b.cache_key(&CostQuery { seed: 77, ..q }));
    }
}
