//! Guided design-space search: successive halving over surrogate- and
//! neighborhood-proposed candidate cohorts, with an active-learning
//! escalation loop — the layer that recovers a Pareto frontier from
//! spaces far too large to enumerate (a 27-layer precision-schedule
//! axis alone is 2^27 ≈ 1.3·10⁸ points).
//!
//! ## Shape
//!
//! A [`SearchEngine`] runs rungs. Each rung asks its [`Searcher`]s to
//! propose a candidate cohort (uniform exploration, frontier-neighbor
//! expansion, and a k-NN surrogate ranking a seeded pool — all
//! hand-rolled, no dependencies), prices the cohort through
//! [`SweepEngine::run_ids`] (one slab `estimate_batch` call per chunk,
//! schedule spaces included), folds every evaluation into one running
//! [`ParetoFold`], and then prunes: survivors are the top
//! `keep_fraction` of the pool by domination count — the
//! successive-halving step that keeps later, narrower rungs focused on
//! the promising region. After the rungs, frontier survivors are
//! optionally *escalated* to a confirmation backend (Monte-Carlo via
//! the same `CostBackend` seam) and each confirmation reports its
//! analytic-vs-confirmed delta.
//!
//! ## Determinism
//!
//! Byte-determinism at any thread count follows the `SweepEngine`
//! discipline: every proposal stream is seeded (rung- and
//! searcher-indexed), cohorts are deduplicated and folded in ascending
//! [`DesignId`] order, pruning ranks break ties by id, and the k-NN
//! surrogate orders neighbors by `(distance bits, insertion index)`.
//! No step consults wall-clock, thread identity, or map iteration
//! order.
//!
//! ## Degradation
//!
//! With pruning disabled (one rung, `keep_fraction` 1.0, an initial
//! cohort at least the space size) the uniform proposer emits every id
//! ascending and the searcher is *bit-identical* to the exhaustive
//! [`ParetoFold`] sweep — property-tested, so guidance can never
//! silently diverge from enumeration.

use crate::axis::Axis;
use crate::engine::{Collect, Fold, SweepEngine};
use crate::events::SweepSink;
use crate::objective::Objective;
use crate::pareto::{dominates, FrontierPoint, ParetoFold};
use crate::space::{DesignId, ParamSpace};
use mpipu_sim::CostBackend;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// Widest breadth-first ball the polish phase expands around the
/// frontier before declaring a fixpoint final. Radius resets to 1
/// whenever a round improves the frontier, so wide balls are only paid
/// for when ring-1 has genuinely dried up.
const POLISH_MAX_RADIUS: usize = 3;

/// Mixes a rung and stream index into a base seed (splitmix-style odd
/// constants — stable across runs, distinct across streams).
fn stream_seed(seed: u64, rung: usize, stream: u64) -> u64 {
    seed ^ (rung as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ stream.wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

/// Visit every single-move neighbor of `coords` — ±1 per ordinary
/// axis, every single-bit flip on a [`Axis::ScheduleMask`] — in
/// canonical (axis, lower-side-first) order.
fn ring1(space: &ParamSpace, coords: &[usize], mut visit: impl FnMut(DesignId)) {
    let mut scratch = coords.to_vec();
    for (a, axis) in space.axes().iter().enumerate() {
        let c = coords[a];
        let steps: Vec<usize> = match axis {
            Axis::ScheduleMask { layers } => (0..*layers).map(|l| c ^ (1usize << l)).collect(),
            _ => (c > 0)
                .then(|| c - 1)
                .into_iter()
                .chain((c + 1 < axis.len()).then_some(c + 1))
                .collect(),
        };
        for next in steps {
            scratch[a] = next;
            if let Some(id) = space.id_of(&scratch) {
                visit(id);
            }
        }
        scratch[a] = c;
    }
}

/// Byte-exact frontier signature: `(id, value bits)` per point.
fn signature(front: &[FrontierPoint]) -> Vec<(u64, Vec<u64>)> {
    front
        .iter()
        .map(|p| (p.id.0, p.values.iter().map(|v| v.to_bits()).collect()))
        .collect()
}

/// One pruning survivor: an evaluated point the next rung's proposers
/// may expand around.
#[derive(Debug, Clone)]
pub struct Survivor {
    /// The design's id.
    pub id: DesignId,
    /// Decoded per-axis coordinates.
    pub coords: Vec<usize>,
    /// Objective values in keyed (smaller-is-better) form.
    pub keyed: Vec<f64>,
}

/// What a [`Searcher`] sees when proposing a rung's candidates.
#[derive(Debug)]
pub struct SearchState<'a> {
    /// Zero-based rung index.
    pub rung: usize,
    /// The running Pareto frontier, in canonical id order.
    pub frontier: &'a [FrontierPoint],
    /// The frontier's objective vectors re-keyed to smaller-is-better
    /// form (parallel to `frontier`; bit-exact — see
    /// [`Objective::key_of`]).
    pub frontier_keyed: &'a [Vec<f64>],
    /// The previous rung's pruning survivors, best first.
    pub survivors: &'a [Survivor],
    /// Ids already evaluated (the engine filters proposals against this
    /// set anyway; exposed so proposers can avoid wasting their budget).
    pub visited: &'a HashSet<u64>,
}

/// A candidate-proposal strategy. Implementations must be deterministic
/// functions of `(space, state, budget)` plus their own seeded state —
/// the engine's byte-determinism contract rests on it.
pub trait Searcher {
    /// Short stable name (for rung diagnostics).
    fn name(&self) -> &'static str;

    /// Propose up to `budget` candidate ids for this rung, best first.
    /// Duplicates and already-visited ids are filtered by the engine.
    fn propose(
        &mut self,
        space: &ParamSpace,
        state: &SearchState<'_>,
        budget: usize,
    ) -> Vec<DesignId>;

    /// Observe a rung's evaluated survivors-to-be (the incremental
    /// refit hook; default: ignore).
    fn observe(&mut self, space: &ParamSpace, evals: &[Survivor]) {
        let _ = (space, evals);
    }

    /// Cohort slots this searcher claims per round-robin pass (its
    /// budget share relative to the other searchers; default 1).
    fn weight(&self) -> usize {
        1
    }
}

/// Seeded uniform exploration: `budget` distinct ids per rung via
/// [`ParamSpace::sample_ids`] (Floyd sampling — `O(budget)` no matter
/// how large the space). With the whole space as budget it degenerates
/// to exhaustive ascending enumeration, which is what the degradation
/// proptest pins.
#[derive(Debug)]
pub struct UniformSearcher {
    seed: u64,
}

impl UniformSearcher {
    /// A uniform proposer drawing from `seed`'s stream.
    pub fn new(seed: u64) -> UniformSearcher {
        UniformSearcher { seed }
    }
}

impl Searcher for UniformSearcher {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn propose(
        &mut self,
        space: &ParamSpace,
        state: &SearchState<'_>,
        budget: usize,
    ) -> Vec<DesignId> {
        space.sample_ids(budget, stream_seed(self.seed, state.rung, 1))
    }
}

/// Frontier-neighbor expansion: single-coordinate moves around every
/// survivor, breadth first — all ±1 moves across all survivors and
/// axes, then ±2, ±3, … out to the whole coordinate line
/// (Pareto-optimal grid points cluster along coordinate lines, but
/// with gaps wider than ±1). A [`Axis::ScheduleMask`] coordinate
/// contributes its single-bit flips at distance 1. Deterministic:
/// distance, then survivor rank, then axis declaration order, then the
/// lower side.
#[derive(Debug, Default)]
pub struct NeighborSearcher;

impl NeighborSearcher {
    /// A neighbor proposer.
    pub fn new() -> NeighborSearcher {
        NeighborSearcher
    }
}

impl Searcher for NeighborSearcher {
    fn name(&self) -> &'static str {
        "neighbor"
    }

    // Frontier expansion is the workhorse once a frontier exists — give
    // it the largest cohort share.
    fn weight(&self) -> usize {
        4
    }

    fn propose(
        &mut self,
        space: &ParamSpace,
        state: &SearchState<'_>,
        budget: usize,
    ) -> Vec<DesignId> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        let mut coords = Vec::new();
        let ring = space.axes().iter().map(Axis::len).max().unwrap_or(1);
        'outer: for d in 1..ring.max(2) {
            for s in state.survivors {
                for (a, axis) in space.axes().iter().enumerate() {
                    let c = s.coords[a];
                    let steps: Vec<usize> = match axis {
                        Axis::ScheduleMask { layers } if d == 1 => {
                            (0..*layers).map(|l| c ^ (1usize << l)).collect()
                        }
                        Axis::ScheduleMask { .. } => Vec::new(),
                        _ => (c >= d)
                            .then(|| c - d)
                            .into_iter()
                            .chain((c + d < axis.len()).then_some(c + d))
                            .collect(),
                    };
                    for next in steps {
                        coords.clear();
                        coords.extend_from_slice(&s.coords);
                        coords[a] = next;
                        let Some(id) = space.id_of(&coords) else {
                            continue;
                        };
                        if !state.visited.contains(&id.0) && seen.insert(id.0) {
                            out.push(id);
                            if out.len() >= budget {
                                break 'outer;
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// Trust-region exploitation: the current frontier's axis-aligned
/// coordinate bounding box is where undiscovered Pareto points
/// overwhelmingly live (optimal grid designs share most coordinates).
/// Small boxes are enumerated exhaustively in ascending id order;
/// large ones are sampled with a seeded per-axis stream.
#[derive(Debug)]
pub struct BoxSearcher {
    seed: u64,
}

impl BoxSearcher {
    /// A box proposer drawing from `seed`'s stream.
    pub fn new(seed: u64) -> BoxSearcher {
        BoxSearcher { seed }
    }
}

impl Searcher for BoxSearcher {
    fn name(&self) -> &'static str {
        "box"
    }

    fn weight(&self) -> usize {
        2
    }

    fn propose(
        &mut self,
        space: &ParamSpace,
        state: &SearchState<'_>,
        budget: usize,
    ) -> Vec<DesignId> {
        if state.frontier.is_empty() || budget == 0 {
            return Vec::new();
        }
        let n = space.axes().len();
        let mut lo = vec![usize::MAX; n];
        let mut hi = vec![0usize; n];
        for p in state.frontier {
            let coords = space.coords(p.id).expect("frontier id in range");
            for (a, &c) in coords.iter().enumerate() {
                lo[a] = lo[a].min(c);
                hi[a] = hi[a].max(c);
            }
        }
        let volume: u128 = lo
            .iter()
            .zip(&hi)
            .map(|(&l, &h)| (h - l + 1) as u128)
            .product();

        let mut out = Vec::new();
        if volume <= budget.saturating_mul(4) as u128 {
            // Enumerate the whole box; row-major coordinate order is
            // ascending id order.
            let mut coords = lo.clone();
            loop {
                if let Some(id) = space.id_of(&coords) {
                    if !state.visited.contains(&id.0) {
                        out.push(id);
                        if out.len() >= budget {
                            break;
                        }
                    }
                }
                // Odometer step within [lo, hi].
                let mut a = n;
                loop {
                    if a == 0 {
                        return out;
                    }
                    a -= 1;
                    if coords[a] < hi[a] {
                        coords[a] += 1;
                        break;
                    }
                    coords[a] = lo[a];
                }
            }
        } else {
            let mut rng = SmallRng::seed_from_u64(stream_seed(self.seed, state.rung, 3));
            let mut seen = HashSet::new();
            let mut coords = vec![0usize; n];
            for _ in 0..budget.saturating_mul(8) {
                for (a, c) in coords.iter_mut().enumerate() {
                    *c = rng.gen_range(lo[a]..=hi[a]);
                }
                let Some(id) = space.id_of(&coords) else {
                    continue;
                };
                if !state.visited.contains(&id.0) && seen.insert(id.0) {
                    out.push(id);
                    if out.len() >= budget {
                        break;
                    }
                }
            }
        }
        out
    }
}

/// A k-nearest-neighbor surrogate over decoded, axis-normalized
/// coordinates: every evaluated point is a training sample; a proposal
/// round scores a seeded candidate pool by the surrogate's predicted
/// keyed objectives — first by how many current frontier points
/// dominate the prediction, then by predicted keyed sum — and keeps the
/// best. Refit is incremental (a `Vec` push per observation); no
/// matrices, no dependencies.
#[derive(Debug)]
pub struct SurrogateSearcher {
    seed: u64,
    k: usize,
    /// Candidate-pool oversampling factor relative to the budget.
    pool_factor: usize,
    /// `(normalized coords, keyed objectives)` per observed point.
    history: Vec<(Vec<f64>, Vec<f64>)>,
}

impl SurrogateSearcher {
    /// A surrogate proposer with `k` neighbors drawing its candidate
    /// pools from `seed`'s stream.
    pub fn new(seed: u64, k: usize) -> SurrogateSearcher {
        SurrogateSearcher {
            seed,
            k: k.max(1),
            pool_factor: 8,
            history: Vec::new(),
        }
    }

    fn normalize(space: &ParamSpace, coords: &[usize]) -> Vec<f64> {
        coords
            .iter()
            .zip(space.axes())
            .map(|(&c, a)| match a {
                // Treat a schedule mask by FP16-layer count, not by the
                // meaningless integer value of the bit pattern.
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

    /// Inverse-distance-weighted k-NN prediction of the keyed objective
    /// vector at `x`. Deterministic: neighbors rank by `(distance,
    /// insertion index)`.
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
}

impl Searcher for SurrogateSearcher {
    fn name(&self) -> &'static str {
        "surrogate"
    }

    fn propose(
        &mut self,
        space: &ParamSpace,
        state: &SearchState<'_>,
        budget: usize,
    ) -> Vec<DesignId> {
        if self.history.is_empty() || state.frontier.is_empty() {
            return Vec::new(); // nothing learned yet — rung 0 is uniform's
        }
        let pool = space.sample_ids(
            budget.saturating_mul(self.pool_factor),
            stream_seed(self.seed, state.rung, 2),
        );
        let mut scored: Vec<(usize, f64, DesignId)> = pool
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

    fn observe(&mut self, space: &ParamSpace, evals: &[Survivor]) {
        for s in evals {
            self.history
                .push((Self::normalize(space, &s.coords), s.keyed.clone()));
        }
    }
}

/// Per-rung accounting, reported in [`SearchOutcome::rungs`].
#[derive(Debug, Clone, PartialEq)]
pub struct RungStats {
    /// Zero-based rung index.
    pub rung: usize,
    /// Raw proposals across all searchers (before dedup/visited
    /// filtering).
    pub proposed: u64,
    /// Cohort size actually evaluated.
    pub evaluated: u64,
    /// Frontier size after folding the rung.
    pub frontier: usize,
    /// Survivor-pool size after pruning.
    pub survivors: usize,
}

/// One frontier point's escalation to the confirmation backend.
#[derive(Debug, Clone, PartialEq)]
pub struct Confirmation {
    /// The design's id.
    pub id: DesignId,
    /// Objective values from the search (analytic) evaluation,
    /// original sense.
    pub analytic: Vec<f64>,
    /// Objective values re-evaluated on the confirmation backend.
    pub confirmed: Vec<f64>,
    /// Largest relative disagreement across the objectives.
    pub max_rel_delta: f64,
}

/// Everything a guided search produces.
#[derive(Debug)]
pub struct SearchOutcome {
    /// The recovered Pareto frontier, canonical id order.
    pub frontier: Vec<FrontierPoint>,
    /// Distinct design points evaluated (excluding confirmations).
    pub evaluated: u64,
    /// Raw proposals across all rungs and searchers.
    pub proposed: u64,
    /// Per-rung accounting.
    pub rungs: Vec<RungStats>,
    /// Polish rounds run after the rungs (ring-1 fixpoint iterations).
    pub polish_rounds: usize,
    /// Points evaluated by the polish phase (included in `evaluated`).
    pub polish_evaluated: u64,
    /// Escalation results (empty when no confirmation backend is set).
    pub confirmations: Vec<Confirmation>,
}

/// Guided-search tuning knobs.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Objectives the frontier is ranked by.
    pub objectives: Vec<Objective>,
    /// Rung-0 cohort size.
    pub initial: usize,
    /// Maximum number of rungs.
    pub rungs: usize,
    /// Fraction of the survivor pool kept per rung (1.0 disables
    /// pruning).
    pub keep_fraction: f64,
    /// Hard ceiling on evaluated points across all rungs.
    pub max_evals: u64,
    /// Seed for every proposal stream.
    pub seed: u64,
    /// Stop after this many consecutive rungs with a byte-identical
    /// frontier (0 disables early stopping).
    pub stable_rungs: usize,
}

impl SearchConfig {
    /// Defaults: 256-point initial cohort, 6 rungs, keep 0.5, budget
    /// 4·initial, early-stop after 2 stable rungs.
    ///
    /// # Panics
    /// Panics on an empty objective list.
    pub fn new(objectives: Vec<Objective>) -> SearchConfig {
        assert!(!objectives.is_empty(), "search needs objectives");
        SearchConfig {
            objectives,
            initial: 256,
            rungs: 6,
            keep_fraction: 0.5,
            max_evals: 1024,
            seed: 0xC0FFEE,
            stable_rungs: 2,
        }
    }
}

/// The guided search driver: rungs of propose → price → fold → prune,
/// then escalation. See the module docs for the determinism argument.
pub struct SearchEngine {
    config: SearchConfig,
    engine: SweepEngine,
    confirm: Option<Arc<dyn CostBackend>>,
    searchers: Vec<Box<dyn Searcher>>,
}

impl SearchEngine {
    /// A search with the default searcher stack (uniform + neighbor +
    /// frontier bounding box + k-NN surrogate, k = 8) over a
    /// single-threaded [`SweepEngine`].
    pub fn new(config: SearchConfig) -> SearchEngine {
        let seed = config.seed;
        SearchEngine {
            config,
            engine: SweepEngine::new(),
            confirm: None,
            searchers: vec![
                Box::new(UniformSearcher::new(seed)),
                Box::new(NeighborSearcher::new()),
                Box::new(BoxSearcher::new(seed)),
                Box::new(SurrogateSearcher::new(seed, 8)),
            ],
        }
    }

    /// Drive rung evaluations through this [`SweepEngine`] (thread
    /// count, chunking, shared cost backend).
    pub fn engine(mut self, engine: SweepEngine) -> SearchEngine {
        self.engine = engine;
        self
    }

    /// Escalate frontier survivors to this backend after the rungs (the
    /// analytic → Monte-Carlo active-learning loop).
    pub fn confirm_backend(mut self, backend: Arc<dyn CostBackend>) -> SearchEngine {
        self.confirm = Some(backend);
        self
    }

    /// Replace the searcher stack.
    ///
    /// # Panics
    /// Panics on an empty stack.
    pub fn searchers(mut self, searchers: Vec<Box<dyn Searcher>>) -> SearchEngine {
        assert!(!searchers.is_empty(), "search needs at least one searcher");
        self.searchers = searchers;
        self
    }

    /// Run the search. Sweep events from every rung (and the escalation
    /// pass) stream through `sink`.
    pub fn run(mut self, space: &ParamSpace, sink: &dyn SweepSink) -> SearchOutcome {
        let cfg = &self.config;
        let mut fold = ParetoFold::new(cfg.objectives.clone());
        let mut visited: HashSet<u64> = HashSet::new();
        let mut survivors: Vec<Survivor> = Vec::new();
        let mut frontier: Vec<FrontierPoint> = Vec::new();
        let mut frontier_keyed: Vec<Vec<f64>> = Vec::new();
        let mut rungs: Vec<RungStats> = Vec::new();
        let mut proposed_total = 0u64;
        let mut evaluated = 0u64;
        let mut stable = 0usize;
        let mut prev_front: Vec<(u64, Vec<u64>)> = Vec::new();

        for rung in 0..cfg.rungs {
            let shrink = cfg.keep_fraction.powi(rung as i32);
            let planned = ((cfg.initial as f64 * shrink).ceil() as u64).max(1);
            let remaining = cfg.max_evals.saturating_sub(evaluated);
            let budget = planned.min(remaining) as usize;
            if budget == 0 {
                break;
            }

            // Propose: round-robin across searchers so every strategy
            // gets cohort share, dedup in arrival order, then sort
            // ascending — the canonical fold order.
            let state = SearchState {
                rung,
                frontier: &frontier,
                frontier_keyed: &frontier_keyed,
                survivors: &survivors,
                visited: &visited,
            };
            let proposals: Vec<Vec<DesignId>> = self
                .searchers
                .iter_mut()
                .map(|s| {
                    let p = s.propose(space, &state, budget);
                    proposed_total += p.len() as u64;
                    p
                })
                .collect();
            let mut cohort: Vec<DesignId> = Vec::with_capacity(budget);
            let mut taken: HashSet<u64> = HashSet::with_capacity(budget);
            let mut cursors = vec![0usize; proposals.len()];
            let weights: Vec<usize> = self.searchers.iter().map(|s| s.weight().max(1)).collect();
            'fill: loop {
                let mut progressed = false;
                for ((list, cursor), &weight) in proposals.iter().zip(&mut cursors).zip(&weights) {
                    let mut claimed = 0;
                    while *cursor < list.len() && claimed < weight {
                        let id = list[*cursor];
                        *cursor += 1;
                        if id.0 < space.len() && !visited.contains(&id.0) && taken.insert(id.0) {
                            cohort.push(id);
                            progressed = true;
                            claimed += 1;
                            if cohort.len() >= budget {
                                break 'fill;
                            }
                        }
                    }
                }
                if !progressed {
                    break;
                }
            }
            if cohort.is_empty() {
                break; // every proposer is exhausted
            }
            cohort.sort_unstable();

            // Price the whole cohort and fold in ascending id order. A
            // rung that evaluates nothing was cancelled: end the rungs.
            let evals = self.engine.run_ids(space, &cohort, Collect::new(), sink);
            if evals.is_empty() {
                break;
            }
            let mut rung_survivors: Vec<Survivor> = Vec::with_capacity(evals.len());
            for eval in &evals {
                fold.accept_canonical(eval);
                visited.insert(eval.id.0);
                rung_survivors.push(Survivor {
                    id: eval.id,
                    coords: eval.coords.to_vec(),
                    keyed: cfg.objectives.iter().map(|o| o.keyed(eval)).collect(),
                });
            }
            evaluated += evals.len() as u64;
            for s in &mut self.searchers {
                s.observe(space, &rung_survivors);
            }

            // Prune: keep the top fraction of (previous survivors ∪
            // cohort) by domination count, ties by keyed sum then id —
            // the successive-halving step. Survivors come out best
            // first, which is the order the neighbor proposer spends
            // its budget in.
            let mut pool = std::mem::take(&mut survivors);
            pool.append(&mut rung_survivors);
            let mut rank: Vec<(usize, u64, f64)> = pool
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let dom = pool
                        .iter()
                        .filter(|t| dominates(&t.keyed, &s.keyed))
                        .count();
                    (i, dom as u64, s.keyed.iter().sum::<f64>())
                })
                .collect();
            rank.sort_by(|a, b| {
                a.1.cmp(&b.1)
                    .then(a.2.total_cmp(&b.2))
                    .then(pool[a.0].id.cmp(&pool[b.0].id))
            });
            let keep =
                ((pool.len() as f64 * cfg.keep_fraction).ceil() as usize).clamp(1, pool.len());
            let mut slots: Vec<Option<Survivor>> = pool.into_iter().map(Some).collect();
            survivors = rank[..keep]
                .iter()
                .map(|r| slots[r.0].take().expect("unique rank index"))
                .collect();

            frontier = fold.snapshot();
            frontier_keyed = frontier
                .iter()
                .map(|p| {
                    cfg.objectives
                        .iter()
                        .zip(&p.values)
                        .map(|(o, &v)| o.key_of(v))
                        .collect()
                })
                .collect();
            rungs.push(RungStats {
                rung,
                proposed: proposals.iter().map(|p| p.len() as u64).sum(),
                evaluated: evals.len() as u64,
                frontier: frontier.len(),
                survivors: survivors.len(),
            });

            // Early stop on a byte-stable frontier.
            let signature = signature(&frontier);
            if signature == prev_front {
                stable += 1;
                if cfg.stable_rungs > 0 && stable >= cfg.stable_rungs {
                    break;
                }
            } else {
                stable = 0;
                prev_front = signature;
            }
        }

        // Polish: evaluate the complete ring-1 neighborhood of every
        // frontier point, iterating to a fixpoint (or the budget's
        // end). This collapses equal-value tie classes onto their
        // canonical lowest-id representative — the exhaustive fold's
        // tie rule — and absorbs adjacent dominating designs the
        // pruned rungs stepped over.
        let mut polish_rounds = 0usize;
        let mut polish_evaluated = 0u64;
        let mut radius = 1usize;
        loop {
            let remaining = cfg.max_evals.saturating_sub(evaluated);
            if remaining == 0 {
                break;
            }
            let snapshot = fold.snapshot();
            let before = signature(&snapshot);
            // Breadth-first ball of `radius` ring-1 hops around the
            // frontier; only unvisited ids are priced, but expansion
            // passes through visited ones so the ball stays connected.
            let mut ring: Vec<DesignId> = Vec::new();
            let mut expanded: HashSet<u64> = snapshot.iter().map(|p| p.id.0).collect();
            let mut layer: Vec<Vec<usize>> = snapshot
                .iter()
                .map(|p| space.coords(p.id).expect("frontier id in range"))
                .collect();
            for _ in 0..radius {
                let mut next: Vec<Vec<usize>> = Vec::new();
                for coords in &layer {
                    ring1(space, coords, |id| {
                        if expanded.insert(id.0) {
                            if !visited.contains(&id.0) {
                                ring.push(id);
                            }
                            next.push(space.coords(id).expect("ring id in range"));
                        }
                    });
                }
                layer = next;
            }
            if ring.is_empty() {
                if radius < POLISH_MAX_RADIUS {
                    radius += 1;
                    continue;
                }
                break;
            }
            ring.sort_unstable();
            ring.truncate(remaining as usize);
            let evals = self.engine.run_ids(space, &ring, Collect::new(), sink);
            for eval in &evals {
                fold.accept_canonical(eval);
                visited.insert(eval.id.0);
            }
            evaluated += evals.len() as u64;
            polish_evaluated += evals.len() as u64;
            polish_rounds += 1;
            if signature(&fold.snapshot()) == before {
                // A fixpoint at this radius: widen the ball before
                // giving up — equal-value tie walks and off-frontier
                // optima can sit a couple of hops out.
                if radius < POLISH_MAX_RADIUS {
                    radius += 1;
                } else {
                    break;
                }
            } else {
                radius = 1;
            }
        }

        let frontier: Vec<FrontierPoint> = fold.finish();
        let confirmations = match &self.confirm {
            None => Vec::new(),
            Some(backend) => {
                let confirm_ids: Vec<DesignId> = frontier.iter().map(|p| p.id).collect();
                let engine = self.engine.clone().backend(backend.clone());
                let confirmed = engine.run_ids(space, &confirm_ids, Collect::new(), sink);
                frontier
                    .iter()
                    .zip(&confirmed)
                    .map(|(p, c)| {
                        let confirmed: Vec<f64> =
                            cfg.objectives.iter().map(|o| o.value(c)).collect();
                        let max_rel_delta = p
                            .values
                            .iter()
                            .zip(&confirmed)
                            .map(|(a, b)| {
                                let scale = a.abs().max(b.abs()).max(1e-12);
                                (a - b).abs() / scale
                            })
                            .fold(0.0f64, f64::max);
                        Confirmation {
                            id: p.id,
                            analytic: p.values.clone(),
                            confirmed,
                            max_rel_delta,
                        }
                    })
                    .collect()
            }
        };

        SearchOutcome {
            frontier,
            evaluated,
            proposed: proposed_total,
            rungs,
            polish_rounds,
            polish_evaluated,
            confirmations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::grid_u32;
    use crate::events::NullSweepSink;
    use crate::objective::objectives;
    use mpipu::{Backend, Scenario, Zoo};

    fn space() -> ParamSpace {
        ParamSpace::new(
            Scenario::small_tile()
                .workload(Zoo::ResNet18)
                .sample_steps(16)
                .backend(Backend::Analytic),
        )
        .axis(Axis::w(grid_u32(8, 38, 2)))
        .axis(Axis::cluster(vec![1, 2, 4, 8]))
    }

    fn objectives() -> Vec<Objective> {
        vec![objectives::FP_SLOWDOWN, objectives::INT_TOPS_PER_MM2]
    }

    fn exact_frontier(space: &ParamSpace) -> Vec<FrontierPoint> {
        SweepEngine::new().run(space, ParetoFold::new(objectives()), &NullSweepSink)
    }

    fn assert_bit_identical(a: &[FrontierPoint], b: &[FrontierPoint]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.labels, y.labels);
            let xb: Vec<u64> = x.values.iter().map(|v| v.to_bits()).collect();
            let yb: Vec<u64> = y.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(xb, yb, "values at id {}", x.id.0);
        }
    }

    #[test]
    fn degenerate_search_is_bit_identical_to_exhaustive_enumeration() {
        let space = space();
        let mut cfg = SearchConfig::new(objectives());
        cfg.rungs = 1;
        cfg.keep_fraction = 1.0;
        cfg.initial = space.len() as usize;
        cfg.max_evals = space.len();
        let out = SearchEngine::new(cfg).run(&space, &NullSweepSink);
        assert_eq!(out.evaluated, space.len());
        assert_bit_identical(&out.frontier, &exact_frontier(&space));
    }

    #[test]
    fn pruned_search_recovers_the_frontier_with_a_fraction_of_the_evals() {
        let space = space();
        let exact = exact_frontier(&space);
        let mut cfg = SearchConfig::new(objectives());
        cfg.initial = 12;
        cfg.rungs = 5;
        cfg.max_evals = space.len() / 2;
        let out = SearchEngine::new(cfg).run(&space, &NullSweepSink);
        assert!(out.evaluated < space.len(), "search must not enumerate");
        assert!(!out.rungs.is_empty() && out.proposed >= out.evaluated);
        // Every guided frontier point carries exact (bit-identical)
        // objective values, so matching ids imply matching points.
        let exact_ids: HashSet<u64> = exact.iter().map(|p| p.id.0).collect();
        let hits = out
            .frontier
            .iter()
            .filter(|p| exact_ids.contains(&p.id.0))
            .count();
        assert!(
            hits * 2 >= exact.len(),
            "recall collapsed: {hits}/{} of the exact frontier",
            exact.len()
        );
    }

    #[test]
    fn search_is_byte_deterministic_across_thread_counts() {
        let space = space();
        let run = |threads: usize| {
            let mut cfg = SearchConfig::new(objectives());
            cfg.initial = 16;
            cfg.max_evals = 128;
            SearchEngine::new(cfg)
                .engine(SweepEngine::new().threads(threads).chunk_size(5))
                .run(&space, &NullSweepSink)
        };
        let (a, b) = (run(1), run(4));
        assert_bit_identical(&a.frontier, &b.frontier);
        assert_eq!(a.evaluated, b.evaluated);
        assert_eq!(a.proposed, b.proposed);
        assert_eq!(a.rungs, b.rungs);
    }

    #[test]
    fn escalation_confirms_every_frontier_point_and_reports_deltas() {
        let space = space();
        let mut cfg = SearchConfig::new(objectives());
        cfg.initial = 16;
        cfg.max_evals = 64;
        let out = SearchEngine::new(cfg)
            .confirm_backend(Backend::Analytic.escalated().instantiate())
            .run(&space, &NullSweepSink);
        assert_eq!(out.confirmations.len(), out.frontier.len());
        for (c, p) in out.confirmations.iter().zip(&out.frontier) {
            assert_eq!(c.id, p.id);
            assert_eq!(c.analytic, p.values);
            assert_eq!(c.confirmed.len(), c.analytic.len());
            assert!(c.max_rel_delta.is_finite() && c.max_rel_delta >= 0.0);
        }
        // MC and analytic genuinely disagree somewhere — the delta
        // column is informative, not identically zero.
        assert!(out.confirmations.iter().any(|c| c.max_rel_delta > 0.0));
    }

    #[test]
    fn stable_frontier_stops_the_rung_loop_early() {
        let space = space();
        let mut cfg = SearchConfig::new(objectives());
        cfg.initial = space.len() as usize; // rung 0 sees everything
        cfg.rungs = 10;
        cfg.max_evals = u64::MAX;
        cfg.stable_rungs = 2;
        let out = SearchEngine::new(cfg).run(&space, &NullSweepSink);
        // Rung 0 exhausts the space; later rungs have nothing fresh to
        // evaluate, so the loop ends long before rung 10.
        assert!(out.rungs.len() < 10, "ran {} rungs", out.rungs.len());
        assert_bit_identical(&out.frontier, &exact_frontier(&space));
    }

    #[test]
    fn cancelled_search_ends_its_rungs_without_panicking() {
        let cancel = crate::CancelToken::new();
        cancel.cancel();
        let engine = SweepEngine::new().cancel_token(cancel);
        let out = SearchEngine::new(SearchConfig::new(objectives()))
            .engine(engine)
            .run(&space(), &NullSweepSink);
        assert_eq!(out.evaluated, 0);
        assert!(out.frontier.is_empty() && out.rungs.is_empty());
    }

    #[test]
    #[should_panic(expected = "search needs objectives")]
    fn empty_objectives_are_rejected() {
        SearchConfig::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "search needs at least one searcher")]
    fn empty_searcher_stack_is_rejected() {
        SearchEngine::new(SearchConfig::new(objectives())).searchers(Vec::new());
    }
}
