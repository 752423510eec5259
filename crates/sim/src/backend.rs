//! Pluggable cost-estimation backends — the [`CostBackend`] seam.
//!
//! Every performance number the simulator reports reduces to one
//! quantity: the cycles a tile spends retiring a window of broadcast
//! steps under a given operand-exponent distribution. [`CostBackend`] is
//! the object-safe seam that produces it, with three implementations:
//!
//! * [`MonteCarlo`] — the default and the ground truth: draw operand
//!   exponents per step and replay the cluster FIFOs
//!   ([`crate::simulate_clusters`]). Its [`CostBackend::estimate_batch`] samples
//!   each draw class of a slab once and prices every query of the class
//!   from that one sample ([`crate::cost`]); `window_cycles` is a
//!   one-query batch.
//! * [`crate::slab::AnalyticBatched`] — no RNG at all: the *exact*
//!   per-IPU partition-count distribution is computed in closed form
//!   from the two operands' FP16 exponent PMFs
//!   ([`Distribution::exponent_buckets`] — the same exact rounding-bucket
//!   integrals the Monte-Carlo alias tables are built from), the
//!   per-cluster lock-step cost is the order-statistics max over that
//!   distribution, and the window cost is `steps × E[cluster max]`
//!   ([`StepCost`] is that closed form for one design point). The
//!   backend hoists the PMFs and the partition-count DP once per
//!   equivalence class of queries, so a fig8-style sweep is a handful of
//!   table convolutions instead of millions of RNG draws. See
//!   `DESIGN.md` ("The analytic cost backend") for the derivation and
//!   the precise exact-vs-approximate accounting.
//! * [`Memoized`] — a concurrent cache wrapping either backend, keyed on
//!   [`CostBackend::cache_key`], so sweeps and the experiment suite stop
//!   recomputing identical design points. Memoization is transparent:
//!   results are bit-identical to the inner backend's.
//!
//! The seam is threaded through every consumer: `run.rs`/`mixed.rs`
//! estimate FP16 layers through `&dyn CostBackend`, [`crate::Lowered`]
//! carries an `Arc<dyn CostBackend>`, the `mpipu::Scenario` builder
//! selects one with `.backend(Backend::Analytic)`, and the suite CLI
//! exposes `--backend {mc,analytic,memoized,memoized-analytic}`.

use crate::cost::safe_precision;
use crate::tile::TileConfig;
use mpipu_analysis::dist::Distribution;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One fully-resolved cost question: estimate the cycles a tile spends
/// retiring `window` broadcast steps of one FP16 layer.
///
/// The caller (`run::sampled_fp16_layer`) has already resolved the
/// workload pass into a concrete `(activation, weight)` distribution
/// pair and derived the per-layer RNG seed; backends that do not sample
/// ([`crate::slab::AnalyticBatched`]) simply ignore `seed`.
#[derive(Debug, Clone, Copy)]
pub struct CostQuery {
    /// Tile geometry and clustering.
    pub tile: TileConfig,
    /// MC-IPU adder-tree precision `w`.
    pub w: u32,
    /// Software precision (16 = FP16 accumulation, 28 = FP32).
    pub software_precision: u32,
    /// `(activation, weight)` operand distributions.
    pub dists: (Distribution, Distribution),
    /// Broadcast steps to estimate (the sampled layer window).
    pub window: usize,
    /// Layer-derived RNG seed (sampling backends only).
    pub seed: u64,
}

/// An object-safe cost-estimation strategy.
///
/// Implementations must be `Send + Sync`: one backend instance is shared
/// across the parallel suite's worker threads (and across every layer of
/// every design point in a sweep, which is what makes [`Memoized`]
/// effective).
pub trait CostBackend: fmt::Debug + Send + Sync {
    /// Short machine-readable name (`mc`, `analytic`, …).
    fn name(&self) -> &'static str;

    /// Estimated cycles to retire `q.window` broadcast steps.
    ///
    /// [`MonteCarlo`] returns an exact integer (as `f64`); the analytic
    /// backend returns the expectation, which is generally fractional.
    /// Callers scale by `true_steps / window` and round once at the end.
    fn window_cycles(&self, q: &CostQuery) -> f64;

    /// The key under which [`Memoized`] may share this backend's answer.
    ///
    /// The default is the full query including the seed — always safe.
    /// Seed-blind backends override it to widen sharing (e.g. the
    /// analytic backend drops the seed, so every layer of a workload hits
    /// the same entry).
    fn cache_key(&self, q: &CostQuery) -> CacheKey {
        CacheKey::new(self.name(), q, true)
    }

    /// Memoization counters, when this backend (or a layer inside it)
    /// caches — `None` for plain backends. Lets sweep runners and the
    /// suite surface cache effectiveness without downcasting through the
    /// object-safe seam.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// Estimate a whole slab of queries at once: `out[i]` receives the
    /// [`CostBackend::window_cycles`] answer for `queries[i]`.
    ///
    /// The default loops over `window_cycles` — always correct, never
    /// faster. Batched backends ([`MonteCarlo`],
    /// [`crate::slab::AnalyticBatched`]) override it to hoist work
    /// shared between queries; results must stay bit-identical to the
    /// scalar path, so callers (the sweep engine's slab fast path) may
    /// pick freely between the two.
    ///
    /// # Panics
    /// Panics if `queries.len() != out.len()`.
    fn estimate_batch(&self, queries: &[CostQuery], out: &mut [f64]) {
        assert_eq!(
            queries.len(),
            out.len(),
            "estimate_batch: slab length mismatch"
        );
        for (slot, q) in out.iter_mut().zip(queries) {
            *slot = self.window_cycles(q);
        }
    }
}

/// A memoizing backend's observable cache state (see
/// [`CostBackend::cache_stats`]). Counters are scheduling-dependent under
/// concurrency (racing threads may both miss the same key), so they
/// belong in progress events and logs, never in deterministic result
/// files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// The caching backend's inner backend name (`mc`, `analytic`, …).
    pub inner: &'static str,
    /// Queries served from the cache.
    pub hits: u64,
    /// Queries computed by the inner backend.
    pub misses: u64,
    /// Distinct design points currently cached.
    pub entries: usize,
}

impl CacheStats {
    /// The counter change since an earlier snapshot — the per-request
    /// view of a process-wide shared cache, where cumulative process
    /// totals would misattribute every prior request's traffic.
    ///
    /// `hits`/`misses` subtract saturating (the counters are monotone;
    /// saturation only guards a mismatched snapshot pair). `entries`
    /// stays absolute: cache population is a process-level property, not
    /// attributable to one request. Under concurrent requests the deltas
    /// are approximate (racing requests' traffic interleaves); for a
    /// serially-issued request they are exact.
    pub fn delta_since(&self, start: &CacheStats) -> CacheStats {
        CacheStats {
            inner: self.inner,
            hits: self.hits.saturating_sub(start.hits),
            misses: self.misses.saturating_sub(start.misses),
            entries: self.entries,
        }
    }
}

/// A hashable digest of a [`CostQuery`] (plus the answering backend's
/// name, so one cache can serve heterogeneous backends without mixing
/// their numerics).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    backend: &'static str,
    tile: [u64; 7],
    w: u32,
    software_precision: u32,
    act: (u8, u64),
    wgt: (u8, u64),
    window: usize,
    /// `None` for seed-blind backends.
    seed: Option<u64>,
}

impl CacheKey {
    /// Digest `q`; `seed_sensitive = false` widens sharing across seeds.
    pub fn new(backend: &'static str, q: &CostQuery, seed_sensitive: bool) -> CacheKey {
        let t = &q.tile;
        CacheKey {
            backend,
            tile: [
                t.c_unroll as u64,
                t.k_unroll as u64,
                t.h_unroll as u64,
                t.w_unroll as u64,
                t.cluster_size as u64,
                t.buffer_depth as u64,
                t.weight_buffer_depth as u64,
            ],
            w: q.w,
            software_precision: q.software_precision,
            act: dist_key(q.dists.0),
            wgt: dist_key(q.dists.1),
            window: q.window,
            seed: seed_sensitive.then_some(q.seed),
        }
    }

    /// Whether this key shares entries across seeds (analytic backends).
    /// Only seed-blind entries are worth persisting: they answer every
    /// future query for the same design point.
    pub fn seed_blind(&self) -> bool {
        self.seed.is_none()
    }

    /// The answering backend's name (the interning domain of
    /// [`CacheKey::from_words`]).
    pub fn backend_name(&self) -> &'static str {
        self.backend
    }

    /// Flatten every non-name field to a fixed word vector — the
    /// journal/wire form. All `f64`-derived fields are already stored as
    /// bit patterns, so the round trip through
    /// [`CacheKey::from_words`] is exact.
    pub fn to_words(&self) -> [u64; CACHE_KEY_WORDS] {
        let t = &self.tile;
        [
            t[0],
            t[1],
            t[2],
            t[3],
            t[4],
            t[5],
            t[6],
            u64::from(self.w),
            u64::from(self.software_precision),
            u64::from(self.act.0),
            self.act.1,
            u64::from(self.wgt.0),
            self.wgt.1,
            self.window as u64,
            u64::from(self.seed.is_some()),
            self.seed.unwrap_or(0),
        ]
    }

    /// Rebuild a key from [`CacheKey::to_words`] output. The backend
    /// name is interned against the known backend set; an unknown name
    /// (or wrong word count / out-of-range field) returns `None` — a
    /// journal from a future schema should be skipped, not trusted.
    pub fn from_words(backend: &str, words: &[u64]) -> Option<CacheKey> {
        let backend = intern_backend_name(backend)?;
        let w: &[u64; CACHE_KEY_WORDS] = words.try_into().ok()?;
        Some(CacheKey {
            backend,
            tile: [w[0], w[1], w[2], w[3], w[4], w[5], w[6]],
            w: u32::try_from(w[7]).ok()?,
            software_precision: u32::try_from(w[8]).ok()?,
            act: (u8::try_from(w[9]).ok()?, w[10]),
            wgt: (u8::try_from(w[11]).ok()?, w[12]),
            window: usize::try_from(w[13]).ok()?,
            seed: match w[14] {
                0 => None,
                1 => Some(w[15]),
                _ => return None,
            },
        })
    }
}

/// Word count of [`CacheKey::to_words`].
pub const CACHE_KEY_WORDS: usize = 16;

/// Map a backend name back to its `&'static str` — only names a backend
/// in this crate actually reports are accepted. Journals written before
/// the analytic backends merged name the batched one `analytic-batched`;
/// its values are bit-identical, so they read as `analytic`.
fn intern_backend_name(name: &str) -> Option<&'static str> {
    let name = if name == "analytic-batched" {
        "analytic"
    } else {
        name
    };
    ["mc", "analytic", "memoized"]
        .into_iter()
        .find(|n| *n == name)
}

/// Hashable digest of a [`Distribution`]: discriminant + parameter bits
/// (`f64` fields are compared exactly, by bit pattern).
pub(crate) fn dist_key(d: Distribution) -> (u8, u64) {
    match d {
        Distribution::Uniform { scale } => (0, scale.to_bits()),
        Distribution::Normal { std } => (1, std.to_bits()),
        Distribution::Laplace { b } => (2, b.to_bits()),
        Distribution::Resnet18Like => (3, 0),
        Distribution::Resnet50Like => (4, 0),
        Distribution::BackwardLike => (5, 0),
        Distribution::WeightLike => (6, 0),
    }
}

/// Named backend selection — the form CLI flags and the
/// `mpipu::Scenario` builder accept, instantiated once per run so a
/// whole sweep shares one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Monte-Carlo sampling (the default; bit-identical to the
    /// pre-seam simulator).
    MonteCarlo,
    /// Closed-form expected step costs (no RNG), priced by
    /// [`crate::slab::AnalyticBatched`].
    Analytic,
    /// Memoized Monte-Carlo: bit-identical to [`Backend::MonteCarlo`],
    /// with repeated design points served from the cache.
    Memoized,
    /// Memoized analytic: the fast path for large sweeps.
    MemoizedAnalytic,
}

impl Backend {
    /// Every accepted `--backend` name, in presentation order.
    pub const NAMES: [&'static str; 4] = ["mc", "analytic", "memoized", "memoized-analytic"];

    /// The former name of [`Backend::Analytic`], kept only because the
    /// frozen benchmark (`perfbench/`) names it; it goes with the next
    /// benchmark change.
    #[allow(non_upper_case_globals)]
    pub const AnalyticBatched: Backend = Backend::Analytic;

    /// Parse a CLI name (`mc`, `analytic`, `memoized`,
    /// `memoized-analytic`).
    pub fn parse(name: &str) -> Option<Backend> {
        match name {
            "mc" => Some(Backend::MonteCarlo),
            "analytic" => Some(Backend::Analytic),
            "memoized" => Some(Backend::Memoized),
            "memoized-analytic" => Some(Backend::MemoizedAnalytic),
            _ => None,
        }
    }

    /// The CLI name ([`Backend::parse`] round-trips it).
    pub fn name(self) -> &'static str {
        match self {
            Backend::MonteCarlo => "mc",
            Backend::Analytic => "analytic",
            Backend::Memoized => "memoized",
            Backend::MemoizedAnalytic => "memoized-analytic",
        }
    }

    /// Instantiate the backend. Call once per run and share the `Arc`:
    /// cloning the `Arc` (not re-instantiating) is what lets memoized
    /// backends pool their cache across layers, sweep points, and
    /// parallel experiments.
    pub fn instantiate(self) -> Arc<dyn CostBackend> {
        use crate::slab::AnalyticBatched;
        match self {
            Backend::MonteCarlo => Arc::new(MonteCarlo),
            Backend::Analytic => Arc::new(AnalyticBatched::new()),
            Backend::Memoized => Arc::new(Memoized::new(Arc::new(MonteCarlo))),
            Backend::MemoizedAnalytic => Arc::new(Memoized::new(Arc::new(AnalyticBatched::new()))),
        }
    }

    /// The higher-fidelity backend a search escalates this one's
    /// frontier survivors to: every analytic variant maps to its
    /// Monte-Carlo counterpart (memoization preserved), and the MC
    /// variants — already highest fidelity — map to themselves.
    pub fn escalated(self) -> Backend {
        match self {
            Backend::Analytic => Backend::MonteCarlo,
            Backend::MemoizedAnalytic => Backend::Memoized,
            Backend::MonteCarlo => Backend::MonteCarlo,
            Backend::Memoized => Backend::Memoized,
        }
    }
}

/// The Monte-Carlo backend: sampled operand exponents priced by the EHU
/// rule, plus the cluster-FIFO replay ([`crate::cost`] has the batch loop).
///
/// Every query is answered from its own draw class's sample, so a query's
/// answer never depends on the slab it arrives in.
#[derive(Debug, Default, Clone, Copy)]
pub struct MonteCarlo;

impl CostBackend for MonteCarlo {
    fn name(&self) -> &'static str {
        "mc"
    }

    fn window_cycles(&self, q: &CostQuery) -> f64 {
        let mut out = [0.0f64];
        self.estimate_batch(std::slice::from_ref(q), &mut out);
        out[0]
    }

    /// # Panics
    /// Panics if `queries.len() != out.len()`, if a cluster size does not
    /// divide its tile's IPU count, or on a buffer depth of 0.
    fn estimate_batch(&self, queries: &[CostQuery], out: &mut [f64]) {
        crate::cost::estimate_batch(queries, out);
    }
}

/// Product exponents of two finite FP16 operands span `[-28, 30]`
/// (operand exponents are `[-14, 15]` each, subnormals included).
const PROD_EXP_MIN: i32 = -28;
/// See [`PROD_EXP_MIN`].
const PROD_EXP_MAX: i32 = 30;
/// Number of representable product-exponent values.
pub(crate) const PROD_EXPS: usize = (PROD_EXP_MAX - PROD_EXP_MIN + 1) as usize;

/// The exact per-IPU step-cost distribution of one design point, plus
/// its per-cluster order-statistics summary — the analytic backend's
/// closed form for a single query, public so tests and notebooks can
/// interrogate it.
///
/// Exactness contract (derivation in `DESIGN.md`):
///
/// * the per-IPU partition-count distribution is **exact** (lanes within
///   an IPU draw independent operands in the MC model too);
/// * the per-cluster lock-step max treats the cluster's IPUs as
///   independent, while the MC model shares activation vectors across
///   filters and weight vectors across pixels — an **approximation**
///   that slightly overestimates the expected max (positively correlated
///   maxima are smaller than independent ones);
/// * cluster streams are treated as decoupled (`steps × E[max]`), which
///   is exact for a single cluster and ignores cross-cluster FIFO
///   coupling otherwise.
#[derive(Debug, Clone)]
pub struct StepCost {
    /// `partitions_pmf[j]` = probability that one IPU's step occupies
    /// `j + 1` alignment partitions, i.e. costs `9·(j + 1)` cycles.
    pub partitions_pmf: Vec<f64>,
    /// IPUs whose lock-step max forms the cluster's step cost.
    pub cluster_size: usize,
}

impl StepCost {
    /// Compute the distribution for a design point: convolve the two
    /// operands' exact FP16 exponent PMFs into the product-exponent PMF,
    /// then roll the EHU's window partitioning (stage-4 masking
    /// included) into the exact occupied-partition-count law.
    pub fn new(
        tile: &TileConfig,
        w: u32,
        software_precision: u32,
        dists: (Distribution, Distribution),
    ) -> StepCost {
        let (dead, live) = product_exponent_pmf(dists.0, dists.1);
        let sp = safe_precision(w, software_precision);
        let partitions_pmf = ipu_partition_pmf(tile.c_unroll, sp, software_precision, dead, &live);
        StepCost {
            partitions_pmf,
            cluster_size: tile.cluster_size,
        }
    }

    /// Expected cycles of one *cluster's* step: `9 · E[max over
    /// cluster_size iid partition counts]` (the order-statistics
    /// correction for per-cluster lock-step).
    pub fn cluster_mean(&self) -> f64 {
        self.cluster_moment(1)
    }

    /// Variance of the cluster step cost (in cycles²) — the statistical
    /// tolerance the cross-validation tests derive their bounds from.
    pub fn cluster_variance(&self) -> f64 {
        let m1 = self.cluster_moment(1);
        (self.cluster_moment(2) - m1 * m1).max(0.0)
    }

    /// `E[(9 · max partition count)^k]` over `cluster_size` iid IPUs.
    fn cluster_moment(&self, k: u32) -> f64 {
        let c = self.cluster_size as i32;
        let mut cdf = 0.0;
        let mut prev = 0.0;
        let mut acc = 0.0;
        for (j, &p) in self.partitions_pmf.iter().enumerate() {
            cdf += p;
            let pow = cdf.min(1.0).powi(c);
            acc += (9.0 * (j + 1) as f64).powi(k as i32) * (pow - prev);
            prev = pow;
        }
        acc
    }
}

/// An operand's exact FP16 exponent PMF: `(zero mass, p[e + 14])` for
/// unbiased exponents `e ∈ [-14, 15]`.
fn operand_pmf(d: Distribution) -> (f64, [f64; 30]) {
    let mut zero = 0.0;
    let mut p = [0.0f64; 30];
    for (v, mass) in d.exponent_buckets() {
        match v {
            None => zero += mass,
            Some(e) => p[(e + 14) as usize] += mass,
        }
    }
    // The buckets integrate to 1 within float dust; normalize exactly so
    // the n-th powers below stay probabilities.
    let total = zero + p.iter().sum::<f64>();
    for q in p.iter_mut() {
        *q /= total;
    }
    (zero / total, p)
}

/// The product-exponent PMF of an independent operand pair:
/// `(dead-lane mass, live[e - PROD_EXP_MIN])`.
pub(crate) fn product_exponent_pmf(
    act: Distribution,
    wgt: Distribution,
) -> (f64, [f64; PROD_EXPS]) {
    let (za, pa) = operand_pmf(act);
    let (zw, pw) = operand_pmf(wgt);
    let mut live = [0.0f64; PROD_EXPS];
    for (i, &a) in pa.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        for (j, &b) in pw.iter().enumerate() {
            // exponents (i − 14) + (j − 14) = (i + j) − 28 → index i + j.
            live[i + j] += a * b;
        }
    }
    // A lane is dead when either operand is an exact zero.
    (za + zw - za * zw, live)
}

/// Binomial coefficients `C[a][b]` for `b ≤ a ≤ n`, as `f64`.
fn pascal(n: usize) -> Vec<Vec<f64>> {
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    for a in 0..=n {
        let mut row = vec![1.0f64; a + 1];
        for b in 1..a {
            row[b] = rows[a - 1][b - 1] + rows[a - 1][b];
        }
        rows.push(row);
    }
    rows
}

/// The exact PMF of the number of occupied alignment partitions of one
/// `n`-lane IPU: `out[j]` = P[`j + 1` partitions occupied].
///
/// Derivation (see `DESIGN.md` for the prose version): condition on the
/// max product exponent `m`. Partition 0 is occupied by the max lane
/// itself; partition `k ≥ 1` is occupied iff some lane lands in the
/// exponent window `W_k(m) = {e : k·sp ≤ m − e ≤ min((k+1)·sp − 1,
/// swp)}`. With iid lanes the window occupancy counts are multinomial,
/// so the occupied-count law follows from a sequential-binomial DP over
/// windows; the `max = m` conditioning is the difference of the DP
/// closed under lane space `≤ m` and under `≤ m` minus the mass at `m`
/// (windows never contain `m`, so the DP itself is shared and only the
/// leftover-mass factor differs).
pub(crate) fn ipu_partition_pmf(
    n: usize,
    sp: u32,
    swp: u32,
    dead: f64,
    live: &[f64; PROD_EXPS],
) -> Vec<f64> {
    let sp = sp.max(1) as usize; // same guard as `occupied_windows`

    // No FP16 alignment exceeds `PROD_EXPS − 1`: windows beyond it can
    // never be occupied, so a wider software precision changes nothing
    // but the size of the tables below.
    let swp = (swp as usize).min(PROD_EXPS - 1);
    let top_partition = swp / sp; // windows 1..=top_partition exist
    let choose = pascal(n);
    let mut out = vec![0.0f64; top_partition + 1];

    // F(m): per-lane mass of "dead or exponent ≤ m".
    let mut cum = [0.0f64; PROD_EXPS];
    let mut acc = dead;
    for (idx, &p) in live.iter().enumerate() {
        acc += p;
        cum[idx] = acc;
    }

    // All lanes dead: the idle single partition.
    out[0] += dead.powi(n as i32);

    // The DP matrix, laid out j-major (`g[j · rows + t]`) so the hot
    // inner update below writes a stride-1 run of lane counts. Pure
    // layout: every cell sees the same additions in the same order as
    // the t-major layout, so the result is bit-identical.
    let rows = n + 1;
    let mut g = vec![0.0f64; rows * (top_partition + 1)];
    let mut windows: Vec<f64> = Vec::with_capacity(top_partition);
    let mut powers = vec![0.0f64; n + 1];
    for m in 0..PROD_EXPS {
        let q_m = live[m];
        if q_m <= 0.0 {
            continue;
        }
        // Window masses W_k(m), k ≥ 1 (zero-mass windows can never be
        // occupied and are skipped by the DP).
        windows.clear();
        let mut sum_q = 0.0;
        for k in 1..=top_partition {
            let lo_align = k * sp;
            let hi_align = ((k + 1) * sp - 1).min(swp);
            let lo_e = m as i64 - hi_align as i64;
            let hi_e = m as i64 - lo_align as i64;
            let mut mass = 0.0;
            for e in lo_e.max(0)..=hi_e {
                mass += live[e as usize];
            }
            sum_q += mass;
            windows.push(mass);
        }

        // Sequential-binomial DP: g[j·rows + t] = (unnormalized) measure
        // of "t lanes landed in windows processed so far, occupying j of
        // them". Cells with j > t are identically zero (occupying j
        // windows takes at least j lanes), so the j scan caps at t.
        g.iter_mut().for_each(|v| *v = 0.0);
        g[0] = 1.0;
        let mut occupied_max = 0usize;
        let mut lanes_max = 0usize;
        for &qk in windows.iter().filter(|&&qk| qk > 0.0) {
            // powers[u] = qk^u via the same sequential multiply chain the
            // in-loop accumulator used — hoisted once per window, which
            // also frees the inner update of its loop-carried dependency
            // (each `dst[u]` add is now independent and vectorizable).
            let mut qpow = 1.0;
            for p in powers.iter_mut().take(n + 1).skip(1) {
                qpow *= qk;
                *p = qpow;
            }
            // j-major sweep: source column j is one contiguous row of
            // `g`, destination column j+1 the next — both stay hot in
            // cache. The per-cell accumulation order is untouched
            // (sources for any destination live in one column and are
            // still visited in descending t), so results stay
            // bit-identical to the t-major form.
            for j in (0..=occupied_max.min(lanes_max)).rev() {
                let (src, dst_col) = g.split_at_mut((j + 1) * rows);
                let src = &src[j * rows..];
                let dst_col = &mut dst_col[..rows];
                for t in (j..=lanes_max).rev() {
                    let base = src[t];
                    if base == 0.0 {
                        continue;
                    }
                    let un = n - t;
                    // Skip the leading 1.0 of the binomial row and of
                    // the power table: exact-length slices so the
                    // element-wise multiply-add vectorizes without
                    // bounds checks.
                    let ch = &choose[un][1..];
                    let pw = &powers[1..=un];
                    for ((d, &c), &p) in dst_col[t + 1..t + 1 + un].iter_mut().zip(ch).zip(pw) {
                        *d += base * c * p;
                    }
                }
            }
            occupied_max = (occupied_max + 1).min(top_partition);
            lanes_max = n;
        }

        // Close the DP with the leftover mass: r1 counts every lane
        // configuration with all lanes ≤ m, r0 those that additionally
        // avoid exponent m — their difference is exactly "max = m".
        let f_m = cum[m];
        let r1 = (f_m - sum_q).max(0.0);
        let r0 = (f_m - q_m - sum_q).max(0.0);
        for t in 0..=lanes_max {
            let rest = (n - t) as i32;
            let weight = r1.powi(rest) - r0.powi(rest);
            if weight <= 0.0 {
                continue;
            }
            for (j, slot) in out.iter_mut().enumerate().take(occupied_max.min(t) + 1) {
                let base = g[j * rows + t];
                if base > 0.0 {
                    *slot += base * weight;
                }
            }
        }
    }

    // The {all dead} ∪ {max = m} events partition the sample space;
    // renormalize away the accumulated float dust.
    let total: f64 = out.iter().sum();
    debug_assert!((total - 1.0).abs() < 1e-6, "partition pmf total {total}");
    for p in out.iter_mut() {
        *p /= total;
    }
    out
}

/// A tiny multiply-rotate hasher (the rustc-hash scheme) for the memo
/// cache. [`CacheKey`] is ~14 machine words of well-spread numeric
/// fields hashed once per slab slot, and the standard library's
/// SipHash dominates warm-sweep lookups when every slot is a distinct
/// key. Keys are internal — never attacker-chosen — so HashDoS
/// resistance buys nothing here.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

/// A concurrent memoization layer over any [`CostBackend`].
///
/// Keys come from the inner backend's [`CostBackend::cache_key`], so a
/// seed-blind inner backend shares entries across seeds while the
/// Monte-Carlo backend only ever shares exact repeats — memoized results
/// are bit-identical to uncached ones either way (both backends are
/// deterministic functions of their key).
pub struct Memoized {
    inner: Arc<dyn CostBackend>,
    cache: RwLock<HashMap<CacheKey, f64, FxBuildHasher>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// When enabled, every insertion is also appended here — the
    /// journaling seam: a sweep worker drains the log after each work
    /// unit to persist exactly the entries that unit computed.
    logging: AtomicBool,
    log: Mutex<Vec<(CacheKey, f64)>>,
}

impl Memoized {
    /// Wrap `inner` with an empty cache.
    pub fn new(inner: Arc<dyn CostBackend>) -> Memoized {
        Memoized {
            inner,
            cache: RwLock::new(HashMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            logging: AtomicBool::new(false),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Start recording every insertion (see [`Memoized::drain_insert_log`]).
    pub fn enable_insert_log(&self) {
        self.logging.store(true, Ordering::Relaxed);
    }

    /// Take the entries inserted since the last drain (in insertion
    /// order; empty while logging is off). Racing computations of the
    /// same key may log it twice — both carry the same value, so
    /// downstream [`Memoized::preload`] stays idempotent.
    pub fn drain_insert_log(&self) -> Vec<(CacheKey, f64)> {
        std::mem::take(&mut *self.log.lock().unwrap())
    }

    /// Snapshot every cached entry, sorted by key words for a
    /// deterministic export (`HashMap` iteration order is not).
    pub fn export_entries(&self) -> Vec<(CacheKey, f64)> {
        let mut entries: Vec<(CacheKey, f64)> = self
            .cache
            .read()
            .unwrap()
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect();
        entries.sort_by(|(a, _), (b, _)| {
            (a.backend_name(), a.to_words()).cmp(&(b.backend_name(), b.to_words()))
        });
        entries
    }

    /// Bulk-insert previously exported entries (a journal warm-start).
    /// Returns the number of entries newly added; existing keys keep
    /// their value — a live cache outranks a journal.
    pub fn preload(&self, entries: impl IntoIterator<Item = (CacheKey, f64)>) -> usize {
        let mut cache = self.cache.write().unwrap();
        let before = cache.len();
        for (key, value) in entries {
            cache.entry(key).or_insert(value);
        }
        cache.len() - before
    }

    fn log_insert(&self, key: &CacheKey, value: f64) {
        if self.logging.load(Ordering::Relaxed) {
            self.log.lock().unwrap().push((key.clone(), value));
        }
    }

    /// Queries served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Queries that had to be computed by the inner backend.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct design points currently cached.
    pub fn len(&self) -> usize {
        self.cache.read().unwrap().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for Memoized {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memoized")
            .field("inner", &self.inner)
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl CostBackend for Memoized {
    fn name(&self) -> &'static str {
        "memoized"
    }

    fn window_cycles(&self, q: &CostQuery) -> f64 {
        let key = self.inner.cache_key(q);
        if let Some(&cycles) = self.cache.read().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return cycles;
        }
        // Racing threads may compute the same entry twice; both arrive
        // at the same value (backends are deterministic in their key),
        // so the last insert is harmless.
        let cycles = self.inner.window_cycles(q);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.log_insert(&key, cycles);
        self.cache.write().unwrap().insert(key, cycles);
        cycles
    }

    /// Delegate to the inner backend: nesting memoization layers must
    /// not fragment the key space.
    fn cache_key(&self, q: &CostQuery) -> CacheKey {
        self.inner.cache_key(q)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(CacheStats {
            inner: self.inner.name(),
            hits: self.hits(),
            misses: self.misses(),
            entries: self.len(),
        })
    }

    /// Batch-aware memoization: serve cached slots from the cache, then
    /// forward the *distinct* uncached queries to the inner backend in
    /// one [`CostBackend::estimate_batch`] call.
    ///
    /// This keeps a memoization layer transparent on the sweep engine's
    /// slab fast path: batched inner backends ([`MonteCarlo`],
    /// [`crate::slab::AnalyticBatched`]) guarantee each query's batch
    /// answer is a function of that query alone, so evaluating the miss
    /// subset is bit-identical to evaluating the full slab — and to the
    /// scalar [`CostBackend::window_cycles`] path. Duplicate keys inside
    /// one slab count as hits (the scalar path would compute the first
    /// and hit on the rest), so `hits + misses` still advances by
    /// `queries.len()`.
    fn estimate_batch(&self, queries: &[CostQuery], out: &mut [f64]) {
        assert_eq!(
            queries.len(),
            out.len(),
            "estimate_batch: slab length mismatch"
        );
        let keys: Vec<CacheKey> = queries.iter().map(|q| self.inner.cache_key(q)).collect();
        let mut miss_idx: Vec<usize> = Vec::new();
        {
            let cache = self.cache.read().unwrap();
            for (i, key) in keys.iter().enumerate() {
                match cache.get(key) {
                    Some(&cycles) => out[i] = cycles,
                    None => miss_idx.push(i),
                }
            }
        }
        if miss_idx.is_empty() {
            self.hits.fetch_add(queries.len() as u64, Ordering::Relaxed);
            return;
        }
        // Collapse duplicate keys within the slab: one inner computation
        // per distinct design point.
        let mut slot_of_key: HashMap<&CacheKey, usize> = HashMap::new();
        let mut unique: Vec<usize> = Vec::new();
        let slots: Vec<usize> = miss_idx
            .iter()
            .map(|&i| {
                *slot_of_key.entry(&keys[i]).or_insert_with(|| {
                    unique.push(i);
                    unique.len() - 1
                })
            })
            .collect();
        let miss_queries: Vec<CostQuery> = unique.iter().map(|&i| queries[i]).collect();
        let mut miss_out = vec![0.0f64; miss_queries.len()];
        self.inner.estimate_batch(&miss_queries, &mut miss_out);
        self.hits.fetch_add(
            (queries.len() - miss_queries.len()) as u64,
            Ordering::Relaxed,
        );
        self.misses
            .fetch_add(miss_queries.len() as u64, Ordering::Relaxed);
        {
            let mut cache = self.cache.write().unwrap();
            for (&i, &cycles) in unique.iter().zip(&miss_out) {
                self.log_insert(&keys[i], cycles);
                cache.insert(keys[i].clone(), cycles);
            }
        }
        for (&i, &slot) in miss_idx.iter().zip(&slots) {
            out[i] = miss_out[slot];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slab::AnalyticBatched;
    use mpipu_dnn::zoo::Pass;

    /// The closed form of one query, one design point at a time — the
    /// oracle the analytic backend's class-hoisted answers must equal.
    fn closed_form(q: &CostQuery) -> f64 {
        let step = StepCost::new(&q.tile, q.w, q.software_precision, q.dists);
        crate::engine::constant_stream_cycles(q.window as u64, step.cluster_mean())
    }

    fn query(tile: TileConfig, w: u32, pass: Pass, seed: u64) -> CostQuery {
        CostQuery {
            tile,
            w,
            software_precision: 28,
            dists: crate::cost::pass_distributions(pass),
            window: 64,
            seed,
        }
    }

    #[test]
    fn monte_carlo_backend_matches_inline_pipeline() {
        use crate::engine::simulate_clusters;
        use mpipu_analysis::dist::ExpSampler;
        use mpipu_datapath::Ehu;

        let tile = TileConfig::small().with_cluster_size(8);
        let q = query(tile, 12, Pass::Backward, 42);
        let via_backend = MonteCarlo.window_cycles(&q);
        // Per step: pixel-major activations, then k-major weights; each
        // IPU pays 9 × its EHU partition count, each cluster the max.
        let (n, pixels) = (tile.c_unroll, tile.pixels());
        let mut act = ExpSampler::new(q.dists.0, q.seed);
        let mut wgt = ExpSampler::new(q.dists.1, q.seed ^ 0x9e37_79b9);
        let mut acts = vec![None; pixels * n];
        let mut wgts = vec![None; tile.k_unroll * n];
        let ehu = Ehu::new(q.software_precision);
        let sp = safe_precision(q.w, q.software_precision);
        let mut streams = vec![Vec::new(); tile.clusters()];
        for _ in 0..q.window {
            act.fill(&mut acts);
            wgt.fill(&mut wgts);
            let mut step = vec![0u32; tile.clusters()];
            for k in 0..tile.k_unroll {
                for pixel in 0..pixels {
                    let prod: Vec<Option<i32>> = (0..n)
                        .map(|i| Some(acts[pixel * n + i]? + wgts[k * n + i]?))
                        .collect();
                    let cluster = (k * pixels + pixel) / tile.cluster_size;
                    step[cluster] = step[cluster].max(9 * ehu.partition_count(&prod, sp));
                }
            }
            for (stream, cost) in streams.iter_mut().zip(step) {
                stream.push(cost);
            }
        }
        let direct = simulate_clusters(&streams, tile.buffer_depth) as f64;
        assert_eq!(via_backend, direct);
    }

    #[test]
    fn analytic_is_exactly_nine_cycles_when_tree_covers_software_precision() {
        // w ≥ software precision ⇒ sp = swp + 1 ⇒ a single partition
        // always: the analytic law collapses to a point mass.
        for (w, swp) in [(38u32, 28u32), (28, 28), (25, 16)] {
            let step = StepCost::new(
                &TileConfig::big(),
                w,
                swp,
                crate::cost::pass_distributions(Pass::Backward),
            );
            assert_eq!(step.partitions_pmf.len(), 1);
            assert!((step.cluster_mean() - 9.0).abs() < 1e-9, "w={w} swp={swp}");
            assert!(step.cluster_variance() < 1e-9);
        }
    }

    #[test]
    fn partition_range_is_capped_at_the_widest_fp16_alignment() {
        // Alignments never exceed 58, so software precisions past it
        // price exactly like 58 — in at most 59 pmf entries.
        let dists = crate::cost::pass_distributions(Pass::Backward);
        let tile = TileConfig::small();
        for w in [12u32, 16] {
            let at58 = StepCost::new(&tile, w, 58, dists);
            for swp in [10_000_000u32, u32::MAX] {
                let step = StepCost::new(&tile, w, swp, dists);
                assert!(step.partitions_pmf.len() <= 59, "swp {swp}");
                assert_eq!(
                    step.cluster_mean().to_bits(),
                    at58.cluster_mean().to_bits(),
                    "w {w} swp {swp}"
                );
            }
        }
        // w ≥ swp at u32::MAX: the safe precision saturates instead of
        // overflowing, and one partition covers everything.
        let full = StepCost::new(&tile, u32::MAX, u32::MAX, dists);
        assert_eq!(full.partitions_pmf.len(), 1);
    }

    /// `E[partition count]` by the direct inclusion formula
    /// `E[K] = d^n + Σ_m Σ_k P[max = m ∧ partition k occupied]`, an
    /// independent derivation the DP must agree with.
    fn expected_partitions_direct(
        n: usize,
        sp: u32,
        swp: u32,
        dead: f64,
        live: &[f64; PROD_EXPS],
    ) -> f64 {
        let sp = sp.max(1) as usize;
        let swp = swp as usize;
        let ni = n as i32;
        let mut cum = [0.0f64; PROD_EXPS];
        let mut acc = dead;
        for (idx, &p) in live.iter().enumerate() {
            acc += p;
            cum[idx] = acc;
        }
        let mut e = dead.powi(ni); // all-dead idle partition
        for m in 0..PROD_EXPS {
            if live[m] <= 0.0 {
                continue;
            }
            let f1 = cum[m];
            let f0 = f1 - live[m];
            let p_max = f1.powi(ni) - f0.powi(ni);
            e += p_max; // partition 0: always occupied given max = m
            for k in 1..=(swp / sp) {
                let lo_e = m as i64 - (((k + 1) * sp - 1).min(swp)) as i64;
                let hi_e = m as i64 - (k * sp) as i64;
                let mut q = 0.0;
                for idx in lo_e.max(0)..=hi_e {
                    q += live[idx as usize];
                }
                // P[max = m ∧ W_k occupied] = P[max = m] − P[max = m ∧ W_k empty].
                e += p_max - ((f1 - q).powi(ni) - (f0 - q).powi(ni));
            }
        }
        e
    }

    #[test]
    fn partition_pmf_mean_matches_direct_inclusion_formula() {
        for (w, swp) in [(12u32, 28u32), (16, 28), (20, 28), (16, 16), (10, 28)] {
            for pass in [Pass::Forward, Pass::Backward] {
                let (act, wgt) = crate::cost::pass_distributions(pass);
                let (dead, live) = product_exponent_pmf(act, wgt);
                let sp = safe_precision(w, swp);
                let pmf = ipu_partition_pmf(8, sp, swp, dead, &live);
                let from_pmf: f64 = pmf
                    .iter()
                    .enumerate()
                    .map(|(j, &p)| (j + 1) as f64 * p)
                    .sum();
                let direct = expected_partitions_direct(8, sp, swp, dead, &live);
                assert!(
                    (from_pmf - direct).abs() < 1e-9,
                    "w={w} swp={swp} {pass:?}: pmf mean {from_pmf} vs direct {direct}"
                );
            }
        }
    }

    /// MC mean cluster step cost over `steps` steps: on a one-cluster
    /// tile the window's cycles are exactly the sum of its step costs.
    fn mc_step_mean(tile: TileConfig, w: u32, pass: Pass, seed: u64, steps: usize) -> f64 {
        assert_eq!(tile.clusters(), 1, "one cluster: cycles sum the steps");
        let q = CostQuery {
            window: steps,
            ..query(tile, w, pass, seed)
        };
        MonteCarlo.window_cycles(&q) / steps as f64
    }

    #[test]
    fn analytic_matches_monte_carlo_mean_on_single_ipu_clusters() {
        // cluster_size = 1 removes the only approximation (independent
        // IPUs within a cluster): the analytic expectation is exact, so
        // the MC sample mean must land within CLT distance of it. One
        // 8-lane IPU is its own single cluster.
        for (w, pass, seed) in [
            (12u32, Pass::Backward, 7u64),
            (16, Pass::Backward, 8),
            (12, Pass::Forward, 9),
            (20, Pass::Forward, 10),
        ] {
            let tile = TileConfig {
                k_unroll: 1,
                h_unroll: 1,
                w_unroll: 1,
                ..TileConfig::small()
            }
            .with_cluster_size(1);
            let dists = crate::cost::pass_distributions(pass);
            let step = StepCost::new(&tile, w, 28, dists);
            let steps = 600;
            let mc_mean = mc_step_mean(tile, w, pass, seed, steps);
            let tol = 6.0 * (step.cluster_variance() / steps as f64).sqrt() + 1e-9;
            assert!(
                (mc_mean - step.cluster_mean()).abs() <= tol,
                "w={w} {pass:?}: MC {mc_mean} vs analytic {} (tol {tol})",
                step.cluster_mean()
            );
        }
    }

    #[test]
    fn analytic_tracks_monte_carlo_within_documented_tolerance_when_clustered() {
        // Full-tile clusters share operand vectors between IPUs, which
        // the analytic order-statistics max ignores: document (and pin)
        // that the approximation stays within 10% on the paper designs.
        // A 16-IPU cluster of the big tile spans 4 filters × 4 pixels —
        // exactly the one cluster of a 4-filter big tile.
        let big_cluster16 = TileConfig {
            k_unroll: 4,
            ..TileConfig::big()
        }
        .with_cluster_size(16);
        for (tile, w, pass) in [
            (TileConfig::small(), 12u32, Pass::Backward),
            (TileConfig::small(), 16, Pass::Forward),
            (TileConfig::big(), 12, Pass::Backward),
            (big_cluster16, 16, Pass::Backward),
        ] {
            let dists = crate::cost::pass_distributions(pass);
            let step = StepCost::new(&tile, w, 28, dists);
            let mc_mean = mc_step_mean(tile, w, pass, 3, 800);
            let rel = (step.cluster_mean() - mc_mean).abs() / mc_mean;
            assert!(
                rel < 0.10,
                "{tile:?} w={w} {pass:?}: MC {mc_mean} vs analytic {} ({:.1}% off)",
                step.cluster_mean(),
                100.0 * rel
            );
        }
    }

    #[test]
    fn analytic_window_scales_linearly() {
        let q64 = query(TileConfig::small(), 12, Pass::Backward, 0);
        let q512 = CostQuery { window: 512, ..q64 };
        let analytic = AnalyticBatched::new();
        let a = analytic.window_cycles(&q64);
        let b = analytic.window_cycles(&q512);
        assert_eq!(a.to_bits(), closed_form(&q64).to_bits());
        assert!((b / a - 8.0).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn memoized_is_bit_identical_and_caches() {
        let memo = Memoized::new(Arc::new(MonteCarlo));
        let q = query(TileConfig::small(), 16, Pass::Backward, 11);
        let first = memo.window_cycles(&q);
        assert_eq!((memo.hits(), memo.misses()), (0, 1));
        let again = memo.window_cycles(&q);
        assert_eq!(
            first.to_bits(),
            again.to_bits(),
            "cache must be transparent"
        );
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        assert_eq!(first, MonteCarlo.window_cycles(&q));
        // A different seed is a different Monte-Carlo design point.
        let other = CostQuery { seed: 12, ..q };
        memo.window_cycles(&other);
        assert_eq!((memo.hits(), memo.misses()), (1, 2));
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn memoized_analytic_shares_across_seeds_and_nesting_is_idempotent() {
        let inner = Arc::new(Memoized::new(Arc::new(AnalyticBatched::new())));
        let memo = Memoized::new(inner.clone());
        let q = query(TileConfig::small(), 12, Pass::Forward, 1);
        let a = memo.window_cycles(&q);
        let b = memo.window_cycles(&CostQuery { seed: 999, ..q });
        assert_eq!(a.to_bits(), b.to_bits(), "analytic keys are seed-blind");
        assert_eq!(memo.hits(), 1, "second seed must hit the outer cache");
        // The outer layer delegates cache_key to the inner chain, so
        // both layers agree on one key per design point.
        assert_eq!(memo.len(), 1);
        assert_eq!(inner.len(), 1);
    }

    #[test]
    fn cache_stats_expose_memoization_and_stay_none_elsewhere() {
        assert_eq!(MonteCarlo.cache_stats(), None);
        // The analytic backend reports its own class-cache counters: one
        // DP class computed, then served.
        let analytic = AnalyticBatched::new();
        let q = query(TileConfig::small(), 12, Pass::Forward, 1);
        analytic.window_cycles(&q);
        analytic.window_cycles(&q);
        let stats = analytic.cache_stats().expect("class-cache counters");
        assert_eq!(stats.inner, "analytic");
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        let memo = Memoized::new(Arc::new(AnalyticBatched::new()));
        memo.window_cycles(&q);
        memo.window_cycles(&q);
        let stats = memo.cache_stats().expect("memoized backends report stats");
        assert_eq!(stats.inner, "analytic");
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn cache_stats_delta_isolates_one_requests_traffic() {
        let memo = Memoized::new(Arc::new(AnalyticBatched::new()));
        // Request A: two distinct points, one repeated.
        let qa = query(TileConfig::small(), 12, Pass::Forward, 1);
        let qb = query(TileConfig::small(), 16, Pass::Forward, 1);
        memo.window_cycles(&qa);
        memo.window_cycles(&qa);
        memo.window_cycles(&qb);
        let before = memo.cache_stats().unwrap();
        assert_eq!((before.hits, before.misses, before.entries), (1, 2, 2));
        // Request B: re-query both points — pure hits on the shared cache.
        memo.window_cycles(&qa);
        memo.window_cycles(&qb);
        let after = memo.cache_stats().unwrap();
        let delta = after.delta_since(&before);
        assert_eq!(delta.inner, "analytic");
        assert_eq!(
            (delta.hits, delta.misses),
            (2, 0),
            "cumulative counters must not leak into the per-request delta"
        );
        assert_eq!(delta.entries, 2, "entries stay absolute (process-wide)");
        // A mismatched pair saturates instead of wrapping.
        let wild = before.delta_since(&after);
        assert_eq!((wild.hits, wild.misses), (0, 0));
    }

    #[test]
    fn memoized_estimate_batch_serves_hits_and_dedupes_within_the_slab() {
        let memo = Memoized::new(Arc::new(AnalyticBatched::new()));
        let qa = query(TileConfig::small(), 12, Pass::Forward, 1);
        let qb = query(TileConfig::small(), 16, Pass::Forward, 2);
        // Seed it with qa so the batch sees a pre-existing entry.
        let solo = memo.window_cycles(&qa);
        // Slab: cached qa, new qb, a seed-variant duplicate of qb (the
        // analytic key is seed-blind), and qa again.
        let slab = [qa, qb, CostQuery { seed: 99, ..qb }, qa];
        let mut out = [0.0f64; 4];
        memo.estimate_batch(&slab, &mut out);
        assert_eq!(out[0].to_bits(), solo.to_bits());
        assert_eq!(out[3].to_bits(), solo.to_bits());
        assert_eq!(out[1].to_bits(), out[2].to_bits(), "seed-blind dup");
        assert_eq!(out[1].to_bits(), closed_form(&qb).to_bits());
        // 4 slab queries: 1 inner computation (qb), 3 hits (two cached
        // qa slots + the within-slab duplicate); hits + misses advances
        // by the slab length.
        assert_eq!((memo.hits(), memo.misses()), (3, 2));
        assert_eq!(memo.len(), 2);
        // An all-hit slab touches only the hit counter.
        memo.estimate_batch(&slab, &mut out);
        assert_eq!((memo.hits(), memo.misses()), (7, 2));
    }

    #[test]
    fn backend_names_round_trip() {
        assert_eq!(
            Backend::NAMES,
            ["mc", "analytic", "memoized", "memoized-analytic"]
        );
        for name in Backend::NAMES {
            let b = Backend::parse(name).expect(name);
            assert_eq!(b.name(), name);
            assert_eq!(
                b.instantiate().name(),
                match b {
                    Backend::MemoizedAnalytic => "memoized",
                    other => other.name(),
                }
            );
        }
        assert_eq!(Backend::parse("montecarlo"), None);
        // The batched backend's former name is an alias const, not a name.
        assert_eq!(Backend::parse("analytic-batched"), None);
        assert_eq!(Backend::AnalyticBatched, Backend::Analytic);
        let memo = Backend::MemoizedAnalytic.instantiate();
        assert_eq!(memo.cache_stats().map(|s| s.inner), Some("analytic"));
    }

    #[test]
    fn escalation_maps_analytic_variants_to_seeded_counterparts() {
        assert_eq!(Backend::Analytic.escalated(), Backend::MonteCarlo);
        assert_eq!(Backend::MemoizedAnalytic.escalated(), Backend::Memoized);
        // Highest-fidelity backends are fixed points, so escalation is
        // idempotent across the whole enum.
        for name in Backend::NAMES {
            let b = Backend::parse(name).unwrap();
            assert_eq!(b.escalated().escalated(), b.escalated(), "{name}");
        }
    }

    #[test]
    fn default_estimate_batch_matches_scalar_calls_for_every_backend() {
        let queries: Vec<CostQuery> = [
            query(TileConfig::small(), 12, Pass::Forward, 3),
            query(TileConfig::small(), 16, Pass::Backward, 4),
            query(TileConfig::big(), 20, Pass::Forward, 5),
            CostQuery {
                window: 17,
                ..query(
                    TileConfig::big().with_cluster_size(4),
                    14,
                    Pass::Backward,
                    6,
                )
            },
        ]
        .to_vec();
        for b in Backend::NAMES.map(|n| Backend::parse(n).unwrap().instantiate()) {
            let mut out = vec![0.0; queries.len()];
            b.estimate_batch(&queries, &mut out);
            for (q, got) in queries.iter().zip(&out) {
                assert_eq!(
                    got.to_bits(),
                    b.window_cycles(q).to_bits(),
                    "{}: batch vs scalar",
                    b.name()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "slab length mismatch")]
    fn estimate_batch_rejects_mismatched_slabs() {
        let q = query(TileConfig::small(), 12, Pass::Forward, 0);
        MonteCarlo.estimate_batch(&[q, q], &mut [0.0]);
    }

    #[test]
    fn cache_key_distinguishes_distribution_parameters() {
        let q = query(TileConfig::small(), 12, Pass::Forward, 1);
        let narrow = CostQuery {
            dists: (
                Distribution::Uniform { scale: 1.0 },
                Distribution::Uniform { scale: 1.0 },
            ),
            ..q
        };
        let wide = CostQuery {
            dists: (
                Distribution::Uniform { scale: 2.0 },
                Distribution::Uniform { scale: 1.0 },
            ),
            ..q
        };
        assert_ne!(
            AnalyticBatched::new().cache_key(&narrow),
            AnalyticBatched::new().cache_key(&wide)
        );
        assert_ne!(
            MonteCarlo.cache_key(&q),
            AnalyticBatched::new().cache_key(&q)
        );
    }

    #[test]
    fn cache_key_word_round_trip_is_exact() {
        // Seed-blind and seed-sensitive keys, with non-integral f64
        // distribution parameters (the bit-pattern hazard).
        let q = CostQuery {
            dists: (
                Distribution::Normal { std: 0.1 },
                Distribution::Laplace { b: 2.5 },
            ),
            ..query(TileConfig::big(), 17, Pass::Forward, 9)
        };
        for key in [
            AnalyticBatched::new().cache_key(&q),
            MonteCarlo.cache_key(&q),
        ] {
            let words = key.to_words();
            let back = CacheKey::from_words(key.backend_name(), &words).expect("round trip");
            assert_eq!(back, key);
        }
        assert!(AnalyticBatched::new().cache_key(&q).seed_blind());
        assert!(!MonteCarlo.cache_key(&q).seed_blind());
        assert!(CacheKey::from_words("no-such-backend", &[0; CACHE_KEY_WORDS]).is_none());
        // The batched backend's name before the analytic backends merged
        // reads as today's: its values are bit-identical.
        let key = AnalyticBatched::new().cache_key(&q);
        assert_eq!(
            CacheKey::from_words("analytic-batched", &key.to_words()),
            Some(key)
        );
        assert!(CacheKey::from_words("analytic", &[0; 3]).is_none());
    }

    #[test]
    fn memoized_export_preload_and_insert_log() {
        let memo = Memoized::new(Arc::new(AnalyticBatched::new()));
        memo.enable_insert_log();
        let a = query(TileConfig::small(), 12, Pass::Forward, 0);
        let b = query(TileConfig::small(), 16, Pass::Backward, 0);
        let va = memo.window_cycles(&a);
        let _ = memo.window_cycles(&b);
        // The log holds exactly the two inserts; draining empties it.
        let logged = memo.drain_insert_log();
        assert_eq!(logged.len(), 2);
        assert_eq!(logged[0].0, AnalyticBatched::new().cache_key(&a));
        assert_eq!(logged[0].1, va);
        assert!(memo.drain_insert_log().is_empty());
        // A hit logs nothing.
        let _ = memo.window_cycles(&a);
        assert!(memo.drain_insert_log().is_empty());

        // Export is deterministic and preload rebuilds a warm cache.
        let exported = memo.export_entries();
        assert_eq!(exported, memo.export_entries());
        assert_eq!(exported.len(), 2);
        let fresh = Memoized::new(Arc::new(AnalyticBatched::new()));
        assert_eq!(fresh.preload(exported.clone()), 2);
        assert_eq!(fresh.preload(exported), 0, "idempotent");
        assert_eq!(fresh.window_cycles(&a), va);
        assert_eq!(fresh.hits(), 1, "preloaded entry served from cache");
        assert_eq!(fresh.misses(), 0);
    }

    #[test]
    fn memoized_batch_inserts_are_logged_once_per_distinct_key() {
        let memo = Memoized::new(Arc::new(AnalyticBatched::new()));
        memo.enable_insert_log();
        let a = query(TileConfig::small(), 12, Pass::Forward, 0);
        let b = query(TileConfig::small(), 14, Pass::Forward, 0);
        let mut out = [0.0; 3];
        memo.estimate_batch(&[a, b, a], &mut out);
        let logged = memo.drain_insert_log();
        assert_eq!(logged.len(), 2, "duplicate key collapsed in-batch");
        assert_eq!(out[0], out[2]);
    }
}
