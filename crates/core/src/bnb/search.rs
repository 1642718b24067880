//! The branch-and-bound search.
//!
//! # Search tree
//!
//! * **Roots** are ordered service pairs `(a, b)` sorted by pair cost
//!   `w(a,b) = c_a + σ_a·t_{a,b}` — the (finalized) first term of any plan
//!   beginning `a, b`. Once the next unexplored pair satisfies `w ≥ ρ`
//!   (the incumbent), no better plan can exist (Lemma 1) and the search
//!   exits. This realizes the paper's "at most n(n−1) prefixes of size
//!   two" observation.
//! * A node of the tree is a partial plan; the child chosen at *level* `m`
//!   fills plan position `m`. Successor candidates of the last service `u`
//!   are tried in **ascending `t_{u,j}`** ("the less expensive WS with
//!   respect to the last service that has not been investigated yet").
//!   This ordering is what makes Lemma-3 pruning sound: once a finalized
//!   term of `u` reaches `ρ`, every untried successor of `u` yields an
//!   even larger term.
//!
//! # Per-node checks (in order)
//!
//! 1. `ε ≥ ρ` → prune (Lemma 1, monotone `ε`), with Lemma-3 back-jump.
//! 2. complete plan → candidate, update `ρ`, back-jump.
//! 3. `ε ≥ ε̄` → Lemma-2 closure: every completion costs exactly `ε`;
//!    record one (greedy feasible completion), update `ρ`, back-jump.
//! 4. optional optimistic completion bound `≥ ρ` → prune (extension).
//!
//! # Back-jumping (Lemma 3)
//!
//! After a candidate/prune, the search scans the partial plan's finalized
//! terms for the **earliest** position `b` with `term(b) ≥ ρ` and resumes
//! choosing position `b` directly: every completion of the prefix up to
//! and including the bottleneck service would finalize `b`'s term with an
//! untried (hence at least as expensive) successor, so the whole subtree
//! is dominated. The prefixes discarded this way are exactly the paper's
//! `V` structure; we count them in [`SearchStats`] instead of storing
//! them.

use crate::bitset::BitSet;
use crate::bnb::config::BnbConfig;
use crate::bnb::context::{IncrementalBounds, SearchContext};
use crate::bnb::stats::SearchStats;
use crate::cost::bottleneck_cost;
use crate::instance::QueryInstance;
use crate::plan::Plan;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Outcome of a branch-and-bound run: the best plan found, its bottleneck
/// cost, and the search statistics.
#[derive(Debug, Clone)]
pub struct BnbResult {
    plan: Plan,
    cost: f64,
    stats: SearchStats,
}

impl BnbResult {
    /// The best plan found.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The plan's bottleneck cost (Eq. 1), recomputed from scratch.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Statistics of the search.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// Whether the search completed within its budgets, proving optimality.
    pub fn is_proven_optimal(&self) -> bool {
        self.stats.proven_optimal
    }

    /// Consumes the result, returning the plan.
    pub fn into_plan(self) -> Plan {
        self.plan
    }
}

/// Finds the optimal linear ordering with the paper's default
/// configuration.
///
/// # Examples
///
/// ```
/// use dsq_core::{optimize, CommMatrix, QueryInstance, Service};
///
/// let inst = QueryInstance::from_parts(
///     vec![Service::new(1.0, 0.2), Service::new(1.0, 0.9)],
///     CommMatrix::uniform(2, 0.5),
/// )?;
/// let result = optimize(&inst);
/// assert!(result.is_proven_optimal());
/// assert_eq!(result.plan().len(), 2);
/// # Ok::<(), dsq_core::ModelError>(())
/// ```
pub fn optimize(instance: &QueryInstance) -> BnbResult {
    optimize_with(instance, &BnbConfig::paper())
}

/// Finds the optimal linear ordering under the given configuration.
///
/// Every configuration returns an optimal plan unless a node or time
/// budget interrupts the search, in which case the best plan found so far
/// is returned with [`BnbResult::is_proven_optimal`] `== false`.
pub fn optimize_with(instance: &QueryInstance, config: &BnbConfig) -> BnbResult {
    let ctx = SearchContext::new(instance);
    Searcher::new(instance, &ctx, config.clone()).run()
}

/// Finds the optimal linear ordering using `threads` worker threads that
/// share one incumbent.
///
/// Root pairs (already sorted by pair cost) are claimed from a shared
/// queue; each worker runs the same lemma-driven depth-first search with
/// its incumbent `ρ` synchronized through an atomic cell, so a bound
/// found by one worker immediately prunes the others. The returned
/// statistics are summed across workers; `elapsed` is wall-clock time.
///
/// Sharing `ρ` can only shrink it faster than the sequential search, so
/// every pruning rule stays sound and the result is identical in cost.
/// When the search completes (no budget interruption), the returned
/// **plan** is also deterministic: a final replay pass with the proven
/// optimal cost as a pinned bound re-derives the plan the *sequential*
/// search order records first, so the result does not depend on worker
/// scheduling or thread count. Node/time budgets apply **per worker**,
/// and a budget-interrupted run skips the replay (its plan is then
/// whichever incumbent happened to be best).
///
/// # Examples
///
/// ```
/// use dsq_core::{optimize, optimize_parallel, BnbConfig};
/// use std::num::NonZeroUsize;
///
/// # let inst = dsq_core::QueryInstance::from_parts(
/// #     (0..8).map(|i| dsq_core::Service::new(1.0 + i as f64 * 0.3, 0.8)).collect(),
/// #     dsq_core::CommMatrix::from_fn(8, |i, j| ((3 * i + j) % 5) as f64 * 0.2),
/// # ).unwrap();
/// let sequential = optimize(&inst);
/// let parallel = optimize_parallel(&inst, &BnbConfig::paper(), NonZeroUsize::new(4).unwrap());
/// assert_eq!(sequential.cost(), parallel.cost());
/// ```
pub fn optimize_parallel(
    instance: &QueryInstance,
    config: &BnbConfig,
    threads: NonZeroUsize,
) -> BnbResult {
    let threads = threads.get().min(instance.len().max(1));
    if threads <= 1 || instance.len() <= 2 {
        return optimize_with(instance, config);
    }
    let started = Instant::now();
    let next_root = AtomicUsize::new(0);
    // The cache-friendly context (flat parameter arrays, sorted successor
    // rows) and the globally sorted root list are built once and shared by
    // every worker, instead of paying the O(n² log n) setup per thread.
    let ctx = SearchContext::new(instance);
    let setup = Searcher::new(instance, &ctx, config.clone());
    let roots = setup.sorted_roots();
    // Warm start: the seed plan bounds every worker from the first node
    // (workers pull it through the shared cell) and survives as the
    // result if nothing beats it.
    let incumbent_seed = setup.incumbent_seed();
    let shared_rho = AtomicU64::new(match &incumbent_seed {
        Some((_, cost)) => cost.to_bits(),
        None => f64::INFINITY.to_bits(),
    });

    // (best order + cost, per-worker stats).
    type WorkerOutcome = (Option<(Vec<usize>, f64)>, SearchStats);
    let worker_results: Vec<WorkerOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let ctx = &ctx;
                let roots = &roots;
                let shared_rho = &shared_rho;
                let next_root = &next_root;
                let cfg = config.clone();
                scope.spawn(move || {
                    let mut searcher = Searcher::new(instance, ctx, cfg);
                    searcher.shared_rho = Some(shared_rho);
                    if searcher.cfg.seed_with_greedy {
                        if let Some((order, cost)) = searcher.greedy_plan() {
                            searcher.publish_incumbent(cost);
                            searcher.rho = cost;
                            searcher.best = Some(order);
                        }
                    }
                    loop {
                        let idx = next_root.fetch_add(1, Ordering::Relaxed);
                        if idx >= roots.len() {
                            break;
                        }
                        let (a, b, w) = roots[idx];
                        searcher.sync_rho();
                        if w >= searcher.rho {
                            // Roots are sorted: nothing later can help.
                            searcher.stats.roots_pruned += 1;
                            break;
                        }
                        searcher.stats.roots_explored += 1;
                        searcher.explore_root(a, b, w);
                        if searcher.interrupted {
                            break;
                        }
                    }
                    let best = searcher.best.take().map(|order| {
                        let plan = Plan::new(order.clone()).expect("valid permutation");
                        let cost = bottleneck_cost(instance, &plan);
                        (order, cost)
                    });
                    searcher.stats.proven_optimal = !searcher.interrupted;
                    (best, searcher.stats)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker does not panic")).collect()
    });

    let mut stats = SearchStats { proven_optimal: true, ..SearchStats::default() };
    let mut best: Option<(Vec<usize>, f64)> = incumbent_seed;
    for (candidate, worker_stats) in worker_results {
        stats.merge(&worker_stats);
        if let Some((order, cost)) = candidate {
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((order, cost));
            }
        }
    }
    let (mut order, mut cost) = best.unwrap_or_else(|| {
        let fallback = Searcher::new(instance, &ctx, config.clone());
        let (order, cost) = fallback.greedy_plan().expect("acyclic precedence admits a plan");
        stats.proven_optimal = false;
        (order, cost)
    });
    if stats.proven_optimal {
        // The workers proved `cost` optimal, but *which* optimal plan won
        // the race depends on scheduling. Replay the sequential search
        // order with the optimum as a pinned bound to pick the canonical
        // one, so results are reproducible across runs and thread counts.
        if let Some(canonical) = deterministic_optimum(instance, &ctx, config, cost) {
            let plan = Plan::new(canonical.clone()).expect("replay produces valid permutations");
            cost = bottleneck_cost(instance, &plan);
            order = canonical;
        }
    }
    stats.elapsed = started.elapsed();
    BnbResult { plan: Plan::new(order).expect("search produces valid permutations"), cost, stats }
}

/// Re-derives the canonical optimal plan for a **proven** optimal cost:
/// the plan the sequential search order records first. Runs the ordinary
/// search with the incumbent pinned to the smallest float above
/// `optimal`, so `ε ≥ ρ` prunes exactly the subtrees containing no
/// optimal plan (the bound is perfect, making the pass cheap) and the
/// first candidate recorded — cost `≤ optimal`, hence `== optimal` — is
/// the sequential winner; [`Searcher::halt_on_candidate`] stops there.
/// Greedy / warm-start seeds participate exactly as in the sequential
/// search so that an already-optimal seed is returned unchanged, keeping
/// warm and cold results bit-identical.
fn deterministic_optimum(
    instance: &QueryInstance,
    ctx: &SearchContext,
    config: &BnbConfig,
    optimal: f64,
) -> Option<Vec<usize>> {
    let cfg = BnbConfig { node_limit: None, time_limit: None, ..config.clone() };
    let mut searcher = Searcher::new(instance, ctx, cfg);
    searcher.apply_seeds();
    searcher.rho = searcher.rho.min(next_up(optimal));
    searcher.halt_on_candidate = true;
    let roots = searcher.sorted_roots();
    for &(a, b, w) in &roots {
        if searcher.halted || w >= searcher.rho {
            break;
        }
        searcher.stats.roots_explored += 1;
        searcher.explore_root(a, b, w);
    }
    searcher.best.take()
}

/// The smallest `f64` strictly greater than a non-negative finite value
/// (a stand-in for `f64::next_up`, which stabilized after this
/// workspace's minimum supported Rust version).
fn next_up(x: f64) -> f64 {
    debug_assert!(x.is_finite() && x >= 0.0);
    f64::from_bits(x.to_bits() + 1)
}

struct Searcher<'a> {
    inst: &'a QueryInstance,
    /// Shared immutable search data: flat parameter arrays, sorted
    /// successor rows, loose-mode row maxima. Built once per optimization
    /// (and shared across parallel workers).
    ctx: &'a SearchContext,
    cfg: BnbConfig,
    n: usize,
    // --- mutable search state ---
    plan: Vec<usize>,
    /// Placed/remaining sets plus the incrementally-maintained
    /// inflation/shrink selectivity products feeding the bounds.
    state: IncrementalBounds,
    /// `prefix[k]` = Π σ of `plan[0..k]` (so `prefix[0] == 1`).
    prefix: Vec<f64>,
    /// `terms[k]` = finalized term of position `k` (`k ≤ plan.len()-2`).
    terms: Vec<f64>,
    /// `eps_fin[k]` = running max of `terms[0..=k]`.
    eps_fin: Vec<f64>,
    /// Candidate cursor per level.
    cand_idx: Vec<usize>,
    rho: f64,
    best: Option<Vec<usize>>,
    stats: SearchStats,
    started: Instant,
    interrupted: bool,
    /// Replay mode (see [`deterministic_optimum`]): stop the search at
    /// the first recorded candidate instead of exhausting the tree.
    halt_on_candidate: bool,
    /// Set once a candidate has been recorded in replay mode.
    halted: bool,
    /// Incumbent cell shared between parallel workers (bit-encoded `f64`;
    /// non-negative floats order identically to their bit patterns, so
    /// `fetch_min` on bits is a numeric min).
    shared_rho: Option<&'a AtomicU64>,
}

impl<'a> Searcher<'a> {
    fn new(inst: &'a QueryInstance, ctx: &'a SearchContext, cfg: BnbConfig) -> Self {
        let n = inst.len();
        Searcher {
            inst,
            ctx,
            cfg,
            n,
            plan: Vec::with_capacity(n),
            state: IncrementalBounds::new(ctx),
            prefix: Vec::with_capacity(n),
            terms: Vec::with_capacity(n),
            eps_fin: Vec::with_capacity(n),
            cand_idx: vec![0; n + 1],
            rho: f64::INFINITY,
            best: None,
            stats: SearchStats { proven_optimal: true, ..SearchStats::default() },
            started: Instant::now(),
            interrupted: false,
            halt_on_candidate: false,
            halted: false,
            shared_rho: None,
        }
    }

    /// The validated warm-start seed from the configuration: the seed
    /// plan's indices and its cost on **this** instance. A seed of the
    /// wrong length or violating the precedence constraints is ignored
    /// (warm starts must never make the search unsound).
    fn incumbent_seed(&self) -> Option<(Vec<usize>, f64)> {
        let plan = self.cfg.initial_incumbent.as_ref()?;
        if plan.len() != self.n {
            return None;
        }
        if let Some(dag) = self.inst.precedence() {
            if !plan.satisfies(dag) {
                return None;
            }
        }
        let cost = bottleneck_cost(self.inst, plan);
        Some((plan.indices(), cost))
    }

    /// Primes `ρ`/`best` from the configured seeds — greedy first, then
    /// the warm-start incumbent — keeping strict improvements only.
    /// Shared by [`run`](Self::run) and [`deterministic_optimum`]: the
    /// replay must mirror the main search's seeding exactly, or the
    /// warm≡cold and thread-count-determinism guarantees break.
    fn apply_seeds(&mut self) {
        if self.cfg.seed_with_greedy {
            if let Some((order, cost)) = self.greedy_plan() {
                if cost < self.rho {
                    self.rho = cost;
                    self.best = Some(order);
                }
            }
        }
        if let Some((order, cost)) = self.incumbent_seed() {
            if cost < self.rho {
                self.rho = cost;
                self.best = Some(order);
            }
        }
    }

    /// Pulls a tighter incumbent published by another worker, if any.
    fn sync_rho(&mut self) {
        if let Some(cell) = self.shared_rho {
            let global = f64::from_bits(cell.load(Ordering::Relaxed));
            if global < self.rho {
                self.rho = global;
            }
        }
    }

    /// Publishes an improved incumbent cost to the shared cell.
    fn publish_incumbent(&self, cost: f64) {
        if let Some(cell) = self.shared_rho {
            // `abs` normalizes -0.0; costs are never negative.
            cell.fetch_min(cost.abs().to_bits(), Ordering::Relaxed);
        }
    }

    /// All feasible root pairs `(a, b, w)` sorted ascending by pair cost
    /// `w = c_a + σ_a·t_{a,b}`.
    fn sorted_roots(&self) -> Vec<(usize, usize, f64)> {
        let mut roots: Vec<(usize, usize, f64)> = Vec::new();
        for a in 0..self.n {
            if !self.first_position_feasible(a) {
                continue;
            }
            for b in 0..self.n {
                if a == b || !self.second_position_feasible(a, b) {
                    continue;
                }
                let w = self.ctx.cost(a) + self.ctx.selectivity(a) * self.ctx.transfer(a, b);
                roots.push((a, b, w));
            }
        }
        roots.sort_by(|x, y| x.2.total_cmp(&y.2));
        roots
    }

    fn run(mut self) -> BnbResult {
        if self.n == 1 {
            return self.finish(vec![0]);
        }

        self.apply_seeds();

        // Root pairs sorted by pair cost (the plan's first term).
        let roots = self.sorted_roots();

        for (idx, &(a, b, w)) in roots.iter().enumerate() {
            if self.interrupted {
                break;
            }
            if w >= self.rho {
                self.stats.roots_pruned += (roots.len() - idx) as u64;
                break;
            }
            self.stats.roots_explored += 1;
            self.explore_root(a, b, w);
        }

        let order = match self.best.take() {
            Some(order) => order,
            // Budgets can interrupt before any candidate is recorded; fall
            // back to a greedy plan so callers always receive one.
            None => self.greedy_plan().expect("acyclic precedence admits a plan").0,
        };
        self.finish(order)
    }

    fn finish(mut self, order: Vec<usize>) -> BnbResult {
        self.stats.elapsed = self.started.elapsed();
        self.stats.proven_optimal = !self.interrupted;
        let plan = Plan::new(order).expect("search produces valid permutations");
        let cost = bottleneck_cost(self.inst, &plan);
        BnbResult { plan, cost, stats: self.stats }
    }

    /// Depth-first exploration of the subtree rooted at the pair `(a, b)`.
    fn explore_root(&mut self, a: usize, b: usize, w: f64) {
        self.plan.clear();
        self.state.reset(self.ctx);
        self.prefix.clear();
        self.terms.clear();
        self.eps_fin.clear();

        self.plan.extend([a, b]);
        self.state.push(self.ctx, a);
        self.state.push(self.ctx, b);
        self.prefix.extend([1.0, self.ctx.selectivity(a)]);
        self.terms.push(w);
        self.eps_fin.push(w);
        self.cand_idx[2] = 0;

        let mut entering = true;
        loop {
            if self.halted {
                return;
            }
            if self.budget_exhausted() {
                self.interrupted = true;
                return;
            }
            if entering {
                entering = false;
                if !self.enter_node() {
                    // Node was pruned or completed; `enter_node` already
                    // repositioned the search (or exhausted the root).
                    if self.plan.len() < 2 {
                        return;
                    }
                    continue;
                }
                self.cand_idx[self.plan.len()] = 0;
            }

            match self.next_child() {
                Some(j) => {
                    self.push(j);
                    entering = true;
                }
                None => {
                    // Level exhausted: abandon this node, resume the parent.
                    if !self.pop_one() {
                        return;
                    }
                }
            }
        }
    }

    /// Entry checks for the current node. Returns `true` if the node
    /// should be expanded, `false` if it was pruned/closed (in which case
    /// the plan has already been rewound; a plan shorter than 2 means the
    /// root is exhausted).
    fn enter_node(&mut self) -> bool {
        self.stats.nodes_visited += 1;
        self.sync_rho();
        let m = self.plan.len();
        self.stats.max_depth = self.stats.max_depth.max(m);
        let last = self.plan[m - 1];
        let proc_term = self.prefix[m - 1] * self.ctx.cost(last);
        let eps = self.eps_fin[m - 2].max(proc_term);

        if eps >= self.rho {
            self.stats.prunes_incumbent += 1;
            self.rewind();
            return false;
        }

        if m == self.n {
            let final_term = self.prefix[m - 1]
                * (self.ctx.cost(last) + self.ctx.selectivity(last) * self.ctx.sink_cost(last));
            let total = self.eps_fin[m - 2].max(final_term);
            if total < self.rho {
                self.rho = total;
                self.best = Some(self.plan.clone());
                self.stats.candidates_recorded += 1;
                self.publish_incumbent(total);
                if self.halt_on_candidate {
                    self.halted = true;
                }
            }
            self.rewind();
            return false;
        }

        let prefix_last = self.prefix[m - 1];
        if self.cfg.use_epsilon_bar
            && self.ctx.epsilon_bar_at_most(
                &self.state,
                last,
                prefix_last,
                self.cfg.tight_epsilon_bar,
                eps,
            )
        {
            // Lemma 2: every completion of this prefix costs exactly ε.
            self.stats.lemma2_closures += 1;
            if eps < self.rho {
                let full = self.greedy_completion();
                debug_assert!(
                    {
                        let plan = Plan::new(full.clone()).expect("completion is a permutation");
                        let actual = bottleneck_cost(self.inst, &plan);
                        (actual - eps).abs() <= 1e-9 * eps.max(1.0)
                    },
                    "Lemma-2 closure must equal the completion's true cost"
                );
                self.rho = eps;
                self.best = Some(full);
                self.stats.candidates_recorded += 1;
                self.publish_incumbent(eps);
                if self.halt_on_candidate {
                    self.halted = true;
                }
            }
            self.rewind();
            return false;
        }

        if self.cfg.use_lower_bound
            && self.ctx.completion_lower_bound_reaches(&self.state, last, prefix_last, self.rho)
        {
            self.stats.prunes_lower_bound += 1;
            // The bound covers every completion of this node, but says
            // nothing about siblings: plain backtrack, no back-jump.
            self.pop_one();
            return false;
        }

        true
    }

    /// Next feasible successor at the current level, honouring the
    /// cheapest-transfer-first order and the incumbent cut-off.
    fn next_child(&mut self) -> Option<usize> {
        let m = self.plan.len();
        let u = self.plan[m - 1];
        let prefix_u = self.prefix[m - 1];
        let (c_u, s_u) = (self.ctx.cost(u), self.ctx.selectivity(u));
        let succ = self.ctx.successors_ascending(u);
        while self.cand_idx[m] < succ.len() {
            let j = succ[self.cand_idx[m]] as usize;
            self.cand_idx[m] += 1;
            if self.state.is_placed(j) || !self.feasible_next(j) {
                continue;
            }
            let term_u = prefix_u * (c_u + s_u * self.ctx.transfer(u, j));
            if term_u >= self.rho {
                // Successors are sorted by transfer cost: all remaining
                // candidates finalize an even larger term. Exhaust level.
                self.cand_idx[m] = succ.len();
                return None;
            }
            return Some(j);
        }
        None
    }

    fn push(&mut self, j: usize) {
        let m = self.plan.len();
        let u = self.plan[m - 1];
        let term_u = self.prefix[m - 1]
            * (self.ctx.cost(u) + self.ctx.selectivity(u) * self.ctx.transfer(u, j));
        self.terms.push(term_u);
        let top = self.eps_fin.last().copied().unwrap_or(0.0);
        self.eps_fin.push(top.max(term_u));
        self.prefix.push(self.prefix[m - 1] * self.ctx.selectivity(u));
        self.plan.push(j);
        self.state.push(self.ctx, j);
        self.stats.nodes_expanded += 1;
    }

    /// Abandons the current node and resumes its parent's candidate
    /// iteration. Returns `false` when that would step into the root pair
    /// (root exhausted).
    fn pop_one(&mut self) -> bool {
        if self.plan.len() <= 2 {
            self.plan.clear();
            return false;
        }
        self.truncate_to(self.plan.len() - 1);
        true
    }

    /// Lemma-3 rewind: resume choosing the earliest position whose
    /// finalized term already reaches `ρ`; plain backtrack otherwise.
    fn rewind(&mut self) {
        if self.cfg.use_backjump {
            if let Some(b) = self.terms.iter().position(|&t| t >= self.rho) {
                let m = self.plan.len();
                // A plain backtrack would resume at level m-1; the jump
                // resumes at level b (positions b..m-1 discarded at once).
                if b < m - 1 {
                    self.stats.backjumps += 1;
                    self.stats.backjump_levels_saved += (m - 1 - b) as u64;
                }
                if b <= 1 {
                    // The dominated prefix reaches into the root pair:
                    // the whole root is exhausted.
                    self.plan.clear();
                } else {
                    self.truncate_to(b);
                }
                return;
            }
        }
        self.pop_one();
    }

    fn truncate_to(&mut self, len: usize) {
        debug_assert!(len >= 2 && len <= self.plan.len());
        while self.plan.len() > len {
            let j = self.plan.pop().expect("plan is non-empty while truncating");
            self.state.pop(j);
        }
        self.prefix.truncate(len);
        self.terms.truncate(len - 1);
        self.eps_fin.truncate(len - 1);
    }

    fn feasible_next(&self, j: usize) -> bool {
        match self.inst.precedence() {
            Some(dag) => dag.is_ready(j, self.state.placed()),
            None => true,
        }
    }

    fn first_position_feasible(&self, a: usize) -> bool {
        match self.inst.precedence() {
            Some(dag) => dag.predecessors(a).is_empty(),
            None => true,
        }
    }

    fn second_position_feasible(&self, a: usize, b: usize) -> bool {
        match self.inst.precedence() {
            Some(dag) => dag.predecessors(b).iter().all(|p| p == a),
            None => true,
        }
    }

    /// Completes the current partial plan greedily (cheapest feasible
    /// successor first). Used for Lemma-2 closures, where every feasible
    /// completion has the same cost.
    fn greedy_completion(&self) -> Vec<usize> {
        let mut order = self.plan.clone();
        let mut placed = self.state.placed().clone();
        while order.len() < self.n {
            let u = *order.last().expect("partial plan is non-empty");
            let next = self
                .ctx
                .successors_ascending(u)
                .iter()
                .map(|&j| j as usize)
                .find(|&j| {
                    !placed.contains(j)
                        && self.inst.precedence().is_none_or(|dag| dag.is_ready(j, &placed))
                })
                .expect("acyclic precedence always leaves a ready service");
            order.push(next);
            placed.insert(next);
        }
        order
    }

    /// Full greedy plan: best cheapest-successor chain over all feasible
    /// starting services. Used for seeding and as a budget-exhaustion
    /// fallback.
    fn greedy_plan(&self) -> Option<(Vec<usize>, f64)> {
        let mut best: Option<(Vec<usize>, f64)> = None;
        for start in 0..self.n {
            if !self.first_position_feasible(start) {
                continue;
            }
            let mut order = vec![start];
            let mut placed = BitSet::new(self.n);
            placed.insert(start);
            while order.len() < self.n {
                let u = *order.last().expect("non-empty");
                let next =
                    self.ctx.successors_ascending(u).iter().map(|&j| j as usize).find(|&j| {
                        !placed.contains(j)
                            && self.inst.precedence().is_none_or(|dag| dag.is_ready(j, &placed))
                    });
                match next {
                    Some(j) => {
                        order.push(j);
                        placed.insert(j);
                    }
                    None => break,
                }
            }
            if order.len() < self.n {
                continue;
            }
            let plan = Plan::new(order.clone()).expect("greedy chain is a permutation");
            let cost = bottleneck_cost(self.inst, &plan);
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((order, cost));
            }
        }
        best
    }

    fn budget_exhausted(&self) -> bool {
        if let Some(limit) = self.cfg.node_limit {
            if self.stats.nodes_visited >= limit {
                return true;
            }
        }
        if let Some(limit) = self.cfg.time_limit {
            // Clock reads are cheap relative to node work at these sizes;
            // check every node for responsive budgets.
            if self.started.elapsed() >= limit {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommMatrix;
    use crate::precedence::PrecedenceDag;
    use crate::service::Service;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Reference: exhaustive search over all feasible permutations.
    fn brute_force(inst: &QueryInstance) -> (Vec<usize>, f64) {
        let n = inst.len();
        let mut best: Option<(Vec<usize>, f64)> = None;
        let mut order: Vec<usize> = Vec::new();
        let mut used = vec![false; n];
        fn recurse(
            inst: &QueryInstance,
            order: &mut Vec<usize>,
            used: &mut Vec<bool>,
            best: &mut Option<(Vec<usize>, f64)>,
        ) {
            let n = inst.len();
            if order.len() == n {
                let plan = Plan::new(order.clone()).unwrap();
                let cost = bottleneck_cost(inst, &plan);
                if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                    *best = Some((order.clone(), cost));
                }
                return;
            }
            for s in 0..n {
                if used[s] {
                    continue;
                }
                if let Some(dag) = inst.precedence() {
                    let placed: BitSet = {
                        let mut b = BitSet::new(n);
                        for &o in order.iter() {
                            b.insert(o);
                        }
                        b
                    };
                    if !dag.is_ready(s, &placed) {
                        continue;
                    }
                }
                used[s] = true;
                order.push(s);
                recurse(inst, order, used, best);
                order.pop();
                used[s] = false;
            }
        }
        recurse(inst, &mut order, &mut used, &mut best);
        best.expect("at least one feasible plan")
    }

    fn random_instance(rng: &mut StdRng, n: usize, opts: (bool, bool, bool)) -> QueryInstance {
        let (proliferative, precedence, sinks) = opts;
        let services: Vec<Service> = (0..n)
            .map(|_| {
                let hi = if proliferative { 2.5 } else { 1.0 };
                Service::new(rng.gen_range(0.01..4.0), rng.gen_range(0.05..hi))
            })
            .collect();
        let comm =
            CommMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { rng.gen_range(0.0..3.0) });
        let mut builder = QueryInstance::builder().services(services).comm(comm);
        if sinks {
            builder = builder.sink((0..n).map(|_| rng.gen_range(0.0..1.0)).collect());
        }
        if precedence {
            let mut dag = PrecedenceDag::new(n).unwrap();
            for a in 0..n {
                for b in (a + 1)..n {
                    if rng.gen_bool(0.2) {
                        dag.add_edge(a, b).unwrap();
                    }
                }
            }
            builder = builder.precedence(dag);
        }
        builder.build().unwrap()
    }

    fn assert_close(a: f64, b: f64, what: &str) {
        assert!((a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0), "{what}: {a} vs {b}");
    }

    #[test]
    fn single_service() {
        let inst = QueryInstance::builder()
            .service(Service::new(2.0, 0.5))
            .comm(CommMatrix::zeros(1))
            .sink(vec![3.0])
            .build()
            .unwrap();
        let result = optimize(&inst);
        assert_eq!(result.plan().indices(), vec![0]);
        assert_close(result.cost(), 3.5, "single service cost");
        assert!(result.is_proven_optimal());
    }

    #[test]
    fn two_services_pick_cheaper_order() {
        // WS0 expensive and non-selective, WS1 cheap filter: filter first.
        let inst = QueryInstance::from_parts(
            vec![Service::new(10.0, 1.0), Service::new(1.0, 0.1)],
            CommMatrix::uniform(2, 0.0),
        )
        .unwrap();
        let result = optimize(&inst);
        assert_eq!(result.plan().indices(), vec![1, 0]);
        assert_close(result.cost(), 1.0, "filter-first cost");
    }

    #[test]
    fn matches_brute_force_across_families_and_configs() {
        let configs = [
            BnbConfig::paper(),
            BnbConfig::incumbent_only(),
            BnbConfig::without_epsilon_bar(),
            BnbConfig::without_backjump(),
            BnbConfig::extended(),
            BnbConfig { tight_epsilon_bar: false, ..BnbConfig::paper() },
        ];
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..120 {
            let n = rng.gen_range(2..7);
            let opts = (trial % 2 == 0, trial % 3 == 0, trial % 5 == 0);
            let inst = random_instance(&mut rng, n, opts);
            let (_, expected) = brute_force(&inst);
            for cfg in &configs {
                let result = optimize_with(&inst, cfg);
                assert!(result.is_proven_optimal());
                assert_close(result.cost(), expected, &format!("trial {trial} cfg {cfg:?}"));
                // Returned plan must actually achieve the reported cost.
                assert_close(
                    bottleneck_cost(&inst, result.plan()),
                    result.cost(),
                    "reported cost matches plan",
                );
                if let Some(dag) = inst.precedence() {
                    assert!(result.plan().satisfies(dag), "precedence respected");
                }
            }
        }
    }

    #[test]
    fn bottleneck_tsp_reduction_case() {
        // σ = 1, c = 0: pure bottleneck TSP path. Optimal = minimize the
        // largest edge used.
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..40 {
            let n = rng.gen_range(3..7);
            let services: Vec<Service> = (0..n).map(|_| Service::new(0.0, 1.0)).collect();
            let comm =
                CommMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { rng.gen_range(1.0..10.0) });
            let inst = QueryInstance::from_parts(services, comm).unwrap();
            let (_, expected) = brute_force(&inst);
            let result = optimize(&inst);
            assert_close(result.cost(), expected, "BTSP case");
        }
    }

    #[test]
    fn precedence_chain_forces_unique_plan() {
        let mut dag = PrecedenceDag::new(4).unwrap();
        dag.add_edge(3, 2).unwrap();
        dag.add_edge(2, 1).unwrap();
        dag.add_edge(1, 0).unwrap();
        let inst = QueryInstance::builder()
            .services((0..4).map(|i| Service::new(1.0 + i as f64, 0.5)))
            .comm(CommMatrix::uniform(4, 1.0))
            .precedence(dag)
            .build()
            .unwrap();
        let result = optimize(&inst);
        assert_eq!(result.plan().indices(), vec![3, 2, 1, 0]);
        assert!(result.is_proven_optimal());
    }

    #[test]
    fn node_budget_interrupts_but_returns_a_plan() {
        // Seed chosen (for the vendored xoshiro-based StdRng stream) so the
        // unbudgeted search visits tens of nodes; a tiny node budget must
        // then interrupt it. Degenerate draws where the greedy incumbent is
        // proven optimal from the root bounds would never hit the budget.
        let mut rng = StdRng::seed_from_u64(31);
        let inst = random_instance(&mut rng, 9, (false, false, false));
        let cfg = BnbConfig::paper().with_node_limit(3);
        let result = optimize_with(&inst, &cfg);
        assert!(!result.is_proven_optimal());
        assert_eq!(result.plan().len(), 9);
        // The fallback/best plan must be properly costed.
        assert_close(bottleneck_cost(&inst, result.plan()), result.cost(), "budget plan cost");
    }

    #[test]
    fn stats_are_consistent() {
        let mut rng = StdRng::seed_from_u64(11);
        let inst = random_instance(&mut rng, 8, (true, false, true));
        let full = optimize_with(&inst, &BnbConfig::paper());
        let weak = optimize_with(&inst, &BnbConfig::incumbent_only());
        assert_close(full.cost(), weak.cost(), "same optimum across configs");
        let s = full.stats();
        assert!(s.nodes_visited > 0);
        assert!(s.roots_explored >= 1);
        assert!(s.max_depth <= 8);
        assert!(s.candidates_recorded >= 1);
        assert!(s.elapsed.as_nanos() > 0);
        // The full configuration never visits more nodes than the
        // incumbent-only ablation on the same instance.
        assert!(
            s.nodes_visited <= weak.stats().nodes_visited,
            "pruning must not increase visited nodes: {} vs {}",
            s.nodes_visited,
            weak.stats().nodes_visited
        );
    }

    #[test]
    fn proliferative_selectivities_are_handled() {
        // A proliferative service placed early inflates downstream load;
        // check B&B still matches brute force on a crafted instance where
        // the inflation matters.
        let inst = QueryInstance::from_parts(
            vec![Service::new(0.1, 4.0), Service::new(2.0, 0.5), Service::new(0.5, 1.0)],
            CommMatrix::from_rows(vec![
                vec![0.0, 0.2, 2.0],
                vec![0.1, 0.0, 0.3],
                vec![1.0, 0.4, 0.0],
            ])
            .unwrap(),
        )
        .unwrap();
        let (_, expected) = brute_force(&inst);
        let result = optimize(&inst);
        assert_close(result.cost(), expected, "proliferative instance");
    }

    #[test]
    fn greedy_seed_does_not_change_the_answer() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..30 {
            let inst = random_instance(&mut rng, 6, (false, false, false));
            let plain = optimize_with(&inst, &BnbConfig::paper());
            let seeded =
                optimize_with(&inst, &BnbConfig { seed_with_greedy: true, ..BnbConfig::paper() });
            assert_close(plain.cost(), seeded.cost(), "seeding preserves optimum");
        }
    }

    #[test]
    fn parallel_matches_sequential_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(2025);
        for trial in 0..40 {
            let n = rng.gen_range(2..9);
            let opts = (trial % 2 == 0, trial % 3 == 0, trial % 4 == 0);
            let inst = random_instance(&mut rng, n, opts);
            let sequential = optimize(&inst);
            for threads in [1usize, 2, 4] {
                let parallel = optimize_parallel(
                    &inst,
                    &BnbConfig::paper(),
                    NonZeroUsize::new(threads).expect("non-zero"),
                );
                assert!(parallel.is_proven_optimal());
                assert_close(
                    parallel.cost(),
                    sequential.cost(),
                    &format!("trial {trial} threads {threads}"),
                );
                assert_close(
                    bottleneck_cost(&inst, parallel.plan()),
                    parallel.cost(),
                    "parallel plan achieves reported cost",
                );
                if let Some(dag) = inst.precedence() {
                    assert!(parallel.plan().satisfies(dag));
                }
            }
        }
    }

    #[test]
    fn parallel_handles_hard_instances() {
        // BTSP-hard core: the search does real work, workers share bounds.
        let mut rng = StdRng::seed_from_u64(4);
        let services: Vec<Service> = (0..11).map(|_| Service::new(0.0, 1.0)).collect();
        let comm =
            CommMatrix::from_fn(11, |i, j| if i == j { 0.0 } else { rng.gen_range(1.0..100.0) });
        let inst = QueryInstance::from_parts(services, comm).unwrap();
        let sequential = optimize(&inst);
        let parallel =
            optimize_parallel(&inst, &BnbConfig::paper(), NonZeroUsize::new(3).expect("nz"));
        assert_close(parallel.cost(), sequential.cost(), "hard instance");
        assert!(parallel.stats().nodes_visited > 0);
        assert!(parallel.stats().roots_explored >= 1);
    }

    #[test]
    fn parallel_respects_per_worker_budgets() {
        // BTSP-hard instance: the search cannot terminate within two
        // visited nodes per worker, so the budget must interrupt it.
        let mut rng = StdRng::seed_from_u64(6);
        let services: Vec<Service> = (0..9).map(|_| Service::new(0.0, 1.0)).collect();
        let comm =
            CommMatrix::from_fn(9, |i, j| if i == j { 0.0 } else { rng.gen_range(1.0..100.0) });
        let inst = QueryInstance::from_parts(services, comm).unwrap();
        let cfg = BnbConfig::paper().with_node_limit(2);
        let result = optimize_parallel(&inst, &cfg, NonZeroUsize::new(2).expect("nz"));
        assert!(!result.is_proven_optimal());
        assert_eq!(result.plan().len(), 9);
    }

    #[test]
    fn warm_start_from_the_optimum_is_bit_identical_and_cheaper() {
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..25 {
            let inst = random_instance(&mut rng, 7, (trial % 2 == 0, false, trial % 3 == 0));
            let cold = optimize_with(&inst, &BnbConfig::paper());
            let warm_cfg = BnbConfig::paper().with_initial_incumbent(cold.plan().clone());
            let warm = optimize_with(&inst, &warm_cfg);
            assert_eq!(warm.plan(), cold.plan(), "trial {trial}");
            assert_eq!(warm.cost().to_bits(), cold.cost().to_bits(), "trial {trial}");
            assert!(
                warm.stats().nodes_visited <= cold.stats().nodes_visited,
                "warm start must not enlarge the tree: {} vs {}",
                warm.stats().nodes_visited,
                cold.stats().nodes_visited
            );
            assert!(warm.is_proven_optimal());
        }
    }

    #[test]
    fn warm_start_from_a_suboptimal_plan_matches_cold_search() {
        let mut rng = StdRng::seed_from_u64(123);
        for trial in 0..25 {
            let inst = random_instance(&mut rng, 7, (false, false, false));
            let cold = optimize_with(&inst, &BnbConfig::paper());
            let seed = Plan::identity(7);
            let seed_cost = bottleneck_cost(&inst, &seed);
            let warm =
                optimize_with(&inst, &BnbConfig::paper().with_initial_incumbent(seed.clone()));
            assert_close(warm.cost(), cold.cost(), "warm never worse than cold");
            if seed_cost > cold.cost() {
                // A strictly suboptimal seed only tightens pruning: the
                // search trajectory to the first optimal candidate is
                // unchanged, so the plan is bit-identical.
                assert_eq!(warm.plan(), cold.plan(), "trial {trial}");
            } else {
                // The seed itself was optimal; it is returned as-is.
                assert_eq!(warm.plan(), &seed);
            }
        }
    }

    #[test]
    fn infeasible_or_mismatched_incumbents_are_ignored() {
        let mut rng = StdRng::seed_from_u64(9);
        let inst = random_instance(&mut rng, 6, (false, true, false));
        let cold = optimize_with(&inst, &BnbConfig::paper());
        // Wrong length: ignored.
        let warm =
            optimize_with(&inst, &BnbConfig::paper().with_initial_incumbent(Plan::identity(4)));
        assert_eq!(warm.plan(), cold.plan());
        // Precedence-violating seeds are ignored rather than poisoning ρ
        // with an infeasible (possibly too-low) bound.
        if let Some(dag) = inst.precedence() {
            let violating = (0..6).rev().collect::<Vec<_>>();
            if !Plan::new(violating.clone()).unwrap().satisfies(dag) {
                let warm = optimize_with(
                    &inst,
                    &BnbConfig::paper().with_initial_incumbent(Plan::new(violating).unwrap()),
                );
                assert_eq!(warm.plan(), cold.plan());
                assert!(warm.plan().satisfies(dag));
            }
        }
    }

    #[test]
    fn parallel_plans_are_thread_count_independent() {
        let mut rng = StdRng::seed_from_u64(2026);
        for trial in 0..15 {
            let n = rng.gen_range(5..10);
            let inst = random_instance(&mut rng, n, (trial % 2 == 0, false, trial % 3 == 0));
            let reference = optimize_parallel(
                &inst,
                &BnbConfig::paper(),
                NonZeroUsize::new(1).expect("non-zero"),
            );
            for threads in [2usize, 3, 4] {
                let parallel = optimize_parallel(
                    &inst,
                    &BnbConfig::paper(),
                    NonZeroUsize::new(threads).expect("non-zero"),
                );
                assert_eq!(
                    parallel.plan(),
                    reference.plan(),
                    "trial {trial}: plan must not depend on thread count"
                );
                assert_eq!(parallel.cost().to_bits(), reference.cost().to_bits());
            }
        }
    }

    #[test]
    fn zero_communication_reduces_to_uniform_case() {
        // With t ≡ 0 the problem is the classical selective-ordering one;
        // sanity-check a known-optimal structure: cheap strong filters go
        // first when costs are equal.
        let inst = QueryInstance::from_parts(
            vec![Service::new(1.0, 0.9), Service::new(1.0, 0.1), Service::new(1.0, 0.5)],
            CommMatrix::zeros(3),
        )
        .unwrap();
        let result = optimize(&inst);
        // Every order starts with a term of 1.0 (first service, prefix 1)
        // and all selectivities are ≤ 1, so the optimum is exactly 1.0.
        assert_close(result.cost(), 1.0, "uniform-free optimum");
    }
}
