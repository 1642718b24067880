//! Cache-friendly shared search data and the incremental bound engine.
//!
//! The branch-and-bound hot path tests Lemma 2 (`ε ≥ ε̄`) and, optionally,
//! the optimistic completion bound at every node. Doing that against
//! [`QueryInstance`] directly costs an accessor indirection per
//! parameter, an `O(n)` product rebuild per bound, and — in tight mode —
//! an `O(|R|²)` max scan per node. This module replaces all of that with
//! three pieces:
//!
//! * [`SearchContext`] — an immutable, per-instance snapshot built **once**
//!   per `optimize` call (and shared by every worker of
//!   [`optimize_parallel`](crate::optimize_parallel)): flat structure-of-
//!   arrays copies of cost/selectivity/sink, the row-major transfer matrix,
//!   the loose-mode row maxima, and per-row successor lists pre-sorted
//!   ascending by transfer. "Max/min transfer into the remaining set"
//!   becomes a first-remaining-entry scan of a sorted row (from its end
//!   for the max) — `O(1)` while that end of the row is unplaced,
//!   `O(depth)` worst case when the search has placed exactly the row's
//!   cheapest/most-expensive entries — instead of an unconditional `O(n)`
//!   loop.
//! * Term walkers and predicates. Each bound is the `max` of `|R| + 1`
//!   terms produced lazily by one private walker, the single source of its
//!   formula. [`SearchContext::epsilon_bar`] and
//!   [`SearchContext::completion_lower_bound`] fold the whole walk;
//!   the search instead calls [`SearchContext::epsilon_bar_at_most`] and
//!   [`SearchContext::completion_lower_bound_reaches`], which stop at the
//!   first deciding term and agree with the full comparison exactly, ties
//!   and NaN terms included.
//! * [`IncrementalBounds`] — the mutable per-worker state: the placed /
//!   remaining sets plus stacks of the inflation (`Π σ>1` over remaining)
//!   and shrink (`Π σ<1` over remaining) selectivity products, updated in
//!   `O(1)` on [`push`](IncrementalBounds::push) and restored **exactly**
//!   on [`pop`](IncrementalBounds::pop) (pops truncate the stack rather
//!   than multiplying back, so no rounding error accumulates across
//!   backtracks; only the divisions along the current path — at most `n`
//!   of them — can drift, keeping the products within a few ulps of the
//!   closed-form recomputation).
//!
//! The closed-form bound definitions these accelerate are retained in the
//! `bounds` module as `#[cfg(test)]` reference oracles; the property tests
//! at the bottom of this file pin every incremental quantity to them within
//! `1e-12` relative error across random push/pop/rewind sequences, and pin
//! each predicate to the comparison against its full value.

use crate::bitset::BitSet;
use crate::instance::QueryInstance;

/// Immutable, cache-friendly snapshot of a [`QueryInstance`] for the
/// branch-and-bound search: flat parameter arrays plus pre-sorted per-row
/// transfer orderings.
///
/// Built once per optimization and shared (by reference) across all
/// parallel workers. This type is exported for the workspace benchmarks
/// and the experiment harness; it is not a stability-guaranteed API.
#[derive(Debug, Clone)]
pub struct SearchContext {
    n: usize,
    cost: Box<[f64]>,
    selectivity: Box<[f64]>,
    sink: Box<[f64]>,
    /// Row-major `n × n` transfer costs `t_{i,j}`.
    transfer: Box<[f64]>,
    /// Loose-mode row maxima `max(max_{l≠j} t_{j,l}, sink_j)`.
    row_max: Box<[f64]>,
    /// `n` rows of `n-1` successor indices, ascending by `t_{u,·}`.
    succ_asc: Box<[u32]>,
    /// `Π σ_j` over **all** services with `σ_j > 1`.
    total_inflation: f64,
    /// `Π σ_j` over all services with `0 < σ_j < 1` (zeros tracked apart).
    total_shrink: f64,
    /// Number of services with `σ_j == 0`.
    total_zero_sel: u32,
}

impl SearchContext {
    /// Builds the context: `O(n² log n)` for the per-row sorts, done once.
    pub fn new(inst: &QueryInstance) -> Self {
        let n = inst.len();
        let cost: Box<[f64]> = (0..n).map(|i| inst.cost(i)).collect();
        let selectivity: Box<[f64]> = (0..n).map(|i| inst.selectivity(i)).collect();
        let sink: Box<[f64]> = inst.sink_costs().into();
        let mut transfer = Vec::with_capacity(n * n);
        for i in 0..n {
            transfer.extend_from_slice(inst.comm().row(i));
        }

        let row_max: Box<[f64]> = (0..n)
            .map(|j| {
                let mut m = sink[j];
                for l in 0..n {
                    if l != j {
                        m = m.max(transfer[j * n + l]);
                    }
                }
                m
            })
            .collect();

        let stride = n.saturating_sub(1);
        let mut succ_asc = Vec::with_capacity(n * stride);
        for u in 0..n {
            let mut row: Vec<u32> = (0..n as u32).filter(|&j| j as usize != u).collect();
            row.sort_by(|&a, &b| {
                transfer[u * n + a as usize].total_cmp(&transfer[u * n + b as usize])
            });
            succ_asc.extend_from_slice(&row);
        }

        let mut total_inflation = 1.0;
        let mut total_shrink = 1.0;
        let mut total_zero_sel = 0u32;
        for &s in selectivity.iter() {
            if s > 1.0 {
                total_inflation *= s;
            } else if s == 0.0 {
                total_zero_sel += 1;
            } else if s < 1.0 {
                total_shrink *= s;
            }
        }

        SearchContext {
            n,
            cost,
            selectivity,
            sink,
            transfer: transfer.into(),
            row_max,
            succ_asc: succ_asc.into(),
            total_inflation,
            total_shrink,
            total_zero_sel,
        }
    }

    /// Number of services.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Contexts are never empty (instances aren't); always `false`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Per-tuple processing cost `c_i`.
    #[inline]
    pub fn cost(&self, i: usize) -> f64 {
        self.cost[i]
    }

    /// Selectivity `σ_i`.
    #[inline]
    pub fn selectivity(&self, i: usize) -> f64 {
        self.selectivity[i]
    }

    /// Sink delivery cost of service `i`.
    #[inline]
    pub fn sink_cost(&self, i: usize) -> f64 {
        self.sink[i]
    }

    /// Transfer cost `t_{i,j}` (row-major flat lookup).
    #[inline]
    pub fn transfer(&self, i: usize, j: usize) -> f64 {
        self.transfer[i * self.n + j]
    }

    /// Loose-mode row maximum `max(max_{l≠j} t_{j,l}, sink_j)`.
    #[inline]
    pub fn row_max(&self, j: usize) -> f64 {
        self.row_max[j]
    }

    /// Successors of `u` (all services except `u`), cheapest transfer
    /// first — the candidate-expansion order that makes Lemma-3 sound.
    #[inline]
    pub fn successors_ascending(&self, u: usize) -> &[u32] {
        let stride = self.n - 1;
        &self.succ_asc[u * stride..(u + 1) * stride]
    }

    /// `max_{l ∈ remaining, l ≠ u} t_{u,l}`: first remaining entry of the
    /// ascending row walked from its end — `O(1)` while the most
    /// expensive successor is unplaced, `O(#placed)` worst case — or `0.0`
    /// when no such `l` exists (transfers are non-negative, so the `0.0`
    /// floor is absorbed by the caller's `max`).
    #[inline]
    pub fn max_transfer_to(&self, u: usize, remaining: &BitSet) -> f64 {
        for &l in self.successors_ascending(u).iter().rev() {
            if remaining.contains(l as usize) {
                return self.transfer[u * self.n + l as usize];
            }
        }
        0.0
    }

    /// `min_{l ∈ remaining, l ≠ u} t_{u,l}`: first remaining entry of the
    /// ascending row, or `+∞` when no such `l` exists.
    #[inline]
    pub fn min_transfer_to(&self, u: usize, remaining: &BitSet) -> f64 {
        for &l in self.successors_ascending(u) {
            if remaining.contains(l as usize) {
                return self.transfer[u * self.n + l as usize];
            }
        }
        f64::INFINITY
    }

    /// The terms whose maximum is [`epsilon_bar`](Self::epsilon_bar), in
    /// evaluation order: the last placed service's, then one per remaining
    /// service in ascending index order. This is the one source of the
    /// formula: `epsilon_bar` folds it with `max`,
    /// [`epsilon_bar_at_most`](Self::epsilon_bar_at_most) stops at the
    /// first term above `ε`. Terms are computed lazily, so a caller that
    /// stops early skips the remaining row scans.
    #[inline]
    fn epsilon_bar_terms<'s>(
        &'s self,
        state: &'s IncrementalBounds,
        last: usize,
        prefix_last: f64,
        tight: bool,
    ) -> impl Iterator<Item = f64> + 's {
        let remaining = state.remaining();
        debug_assert!(!remaining.is_empty(), "ε̄ is only defined for incomplete plans");
        let p = prefix_last * self.selectivity[last];
        let inflation = state.inflation();

        let max_t_last =
            if tight { self.max_transfer_to(last, remaining) } else { self.row_max[last] };
        let first = prefix_last * (self.cost[last] + self.selectivity[last] * max_t_last);

        std::iter::once(first).chain(remaining.iter().map(move |j| {
            let sigma_j = self.selectivity[j];
            let max_out = if tight {
                self.sink[j].max(self.max_transfer_to(j, remaining))
            } else {
                self.row_max[j]
            };
            let inflation_j = if sigma_j > 1.0 { inflation / sigma_j } else { inflation };
            p * inflation_j * (self.cost[j] + sigma_j * max_out)
        }))
    }

    /// Upper bound `ε̄` on any not-yet-finalized term of any completion
    /// (Lemma 2's companion measure), evaluated from the incremental state.
    ///
    /// Semantics are identical to the closed-form definition (see the
    /// `bounds` reference module): the last placed service `u` completes
    /// with some successor in the remaining set `R`, every remaining `j`
    /// sees at most `P` inflated by the remaining proliferative
    /// selectivities other than its own, and `j`'s output goes to
    /// `R∖{j}` or the sink. With `tight == false` the per-row maxima come
    /// from the precomputed whole-row table instead of the remaining set.
    ///
    /// Cost: `|R| + 1` row-maximum lookups, each `O(1)` while the most
    /// expensive entry of its sorted row is unplaced and `O(depth)` worst
    /// case. The search decides Lemma 2 with the early-exit
    /// [`epsilon_bar_at_most`](Self::epsilon_bar_at_most) instead; this
    /// value serves the oracle tests and the benchmarks.
    pub fn epsilon_bar(
        &self,
        state: &IncrementalBounds,
        last: usize,
        prefix_last: f64,
        tight: bool,
    ) -> f64 {
        self.epsilon_bar_terms(state, last, prefix_last, tight)
            .reduce(f64::max)
            .expect("the last placed service contributes a term")
    }

    /// The Lemma-2 closure test `eps >= epsilon_bar(..)`, decided without
    /// evaluating `ε̄` in full: the walk stops at the first term above
    /// `eps`, which on most nodes is the first one.
    ///
    /// The decision is exactly the comparison's, ties included. `f64::max`
    /// skips a NaN operand (a selectivity product overflowed to `∞` times
    /// a term whose `c + σ·t` is zero), so `ε̄` is the largest term that is
    /// a number, and NaN only when every term is NaN; hence `eps >= ε̄`
    /// holds iff at least one term is a number and no such term exceeds
    /// `eps`.
    pub fn epsilon_bar_at_most(
        &self,
        state: &IncrementalBounds,
        last: usize,
        prefix_last: f64,
        tight: bool,
        eps: f64,
    ) -> bool {
        self.epsilon_bar_terms(state, last, prefix_last, tight)
            .try_fold(false, |closes, term| {
                if term <= eps {
                    Some(true)
                } else if term.is_nan() {
                    Some(closes)
                } else {
                    None
                }
            })
            .unwrap_or(false)
    }

    /// The terms whose maximum is
    /// [`completion_lower_bound`](Self::completion_lower_bound), in the
    /// order of [`epsilon_bar_terms`](Self::epsilon_bar_terms), and the one
    /// source of its formula.
    #[inline]
    fn completion_lower_bound_terms<'s>(
        &'s self,
        state: &'s IncrementalBounds,
        last: usize,
        prefix_last: f64,
    ) -> impl Iterator<Item = f64> + 's {
        let remaining = state.remaining();
        debug_assert!(!remaining.is_empty());
        let p = prefix_last * self.selectivity[last];
        let shrink = state.shrink();

        let min_t_last = self.min_transfer_to(last, remaining);
        let first = prefix_last * (self.cost[last] + self.selectivity[last] * min_t_last);

        std::iter::once(first).chain(remaining.iter().map(move |j| {
            let sigma_j = self.selectivity[j];
            let min_out = self.sink[j].min(self.min_transfer_to(j, remaining));
            let shrink_j = if sigma_j < 1.0 && sigma_j > 0.0 {
                state.shrink_excluding(sigma_j)
            } else {
                shrink
            };
            p * shrink_j * (self.cost[j] + sigma_j * min_out)
        }))
    }

    /// Optimistic lower bound on the bottleneck cost of any completion of
    /// the current partial plan (the `use_lower_bound` extension),
    /// evaluated from the incremental state. Mirror image of
    /// [`epsilon_bar`](Self::epsilon_bar): every remaining service is
    /// charged its best case. The search prunes with the early-exit
    /// [`completion_lower_bound_reaches`](Self::completion_lower_bound_reaches)
    /// instead; this value serves the oracle tests and the benchmarks.
    pub fn completion_lower_bound(
        &self,
        state: &IncrementalBounds,
        last: usize,
        prefix_last: f64,
    ) -> f64 {
        self.completion_lower_bound_terms(state, last, prefix_last)
            .reduce(f64::max)
            .expect("the last placed service contributes a term")
    }

    /// The lower-bound prune test `completion_lower_bound(..) >= rho`,
    /// stopping at the first term that reaches `rho`. Exact, ties
    /// included: the NaN-skipping `max` reaches `rho` iff some term does
    /// (a NaN term reaches nothing).
    pub fn completion_lower_bound_reaches(
        &self,
        state: &IncrementalBounds,
        last: usize,
        prefix_last: f64,
        rho: f64,
    ) -> bool {
        self.completion_lower_bound_terms(state, last, prefix_last).any(|term| term >= rho)
    }
}

/// Incrementally-maintained search-path state: placed/remaining sets and
/// the inflation/shrink selectivity products over the remaining services.
///
/// Products are kept as **stacks** aligned with the search path: a
/// [`push`](Self::push) appends one value derived from the previous top in
/// `O(1)`, and a [`pop`](Self::pop) truncates, restoring the pre-push value
/// bit-for-bit. Exported alongside [`SearchContext`] for benchmarks; not a
/// stability-guaranteed API.
#[derive(Debug, Clone)]
pub struct IncrementalBounds {
    placed: BitSet,
    remaining: BitSet,
    /// `products[d]` = the remaining-set products after `d` pushes; one
    /// stack of one small `Copy` frame keeps a push to a single append.
    products: Vec<Products>,
}

/// One stack frame of remaining-set selectivity products.
#[derive(Debug, Clone, Copy)]
struct Products {
    /// `Π σ>1` over the remaining services.
    inflation: f64,
    /// `Π 0<σ<1` over the remaining services (zeros counted apart).
    shrink: f64,
    /// Number of remaining services with `σ == 0`.
    zero_sel: u32,
}

impl IncrementalBounds {
    /// Fresh state over `ctx`: nothing placed, everything remaining.
    pub fn new(ctx: &SearchContext) -> Self {
        let n = ctx.len();
        let mut state = IncrementalBounds {
            placed: BitSet::new(n),
            remaining: BitSet::new(n),
            products: Vec::with_capacity(n + 1),
        };
        state.reset(ctx);
        state
    }

    /// Returns to the nothing-placed state in `O(n / 64)`.
    pub fn reset(&mut self, ctx: &SearchContext) {
        self.placed.clear();
        self.remaining.insert_all();
        self.products.clear();
        self.products.push(Products {
            inflation: ctx.total_inflation,
            shrink: ctx.total_shrink,
            zero_sel: ctx.total_zero_sel,
        });
    }

    #[inline]
    fn top(&self) -> &Products {
        self.products.last().expect("stack never empty")
    }

    /// Marks `j` placed, dividing its selectivity out of the remaining
    /// products. `O(1)`.
    #[inline]
    pub fn push(&mut self, ctx: &SearchContext, j: usize) {
        debug_assert!(!self.placed.contains(j), "push of already-placed service {j}");
        self.placed.insert(j);
        self.remaining.remove(j);
        let s = ctx.selectivity[j];
        let mut frame = *self.top();
        if s > 1.0 {
            frame.inflation /= s;
        } else if s == 0.0 {
            frame.zero_sel -= 1;
        } else if s < 1.0 {
            frame.shrink /= s;
        }
        self.products.push(frame);
    }

    /// Unplaces `j` (the most recently pushed service), restoring the
    /// previous products exactly by truncating the stack. `O(1)`.
    #[inline]
    pub fn pop(&mut self, j: usize) {
        debug_assert!(self.placed.contains(j), "pop of unplaced service {j}");
        debug_assert!(self.products.len() > 1, "pop without matching push");
        self.placed.remove(j);
        self.remaining.insert(j);
        self.products.pop();
    }

    /// Whether service `j` is placed.
    #[inline]
    pub fn is_placed(&self, j: usize) -> bool {
        self.placed.contains(j)
    }

    /// The placed set (for precedence-readiness checks).
    #[inline]
    pub fn placed(&self) -> &BitSet {
        &self.placed
    }

    /// The remaining set `R` (complement of placed).
    #[inline]
    pub fn remaining(&self) -> &BitSet {
        &self.remaining
    }

    /// Number of placed services.
    #[inline]
    pub fn placed_len(&self) -> usize {
        self.products.len() - 1
    }

    /// `Π σ_j` over remaining services with `σ_j > 1` (the proliferative
    /// inflation factor of `ε̄`).
    #[inline]
    pub fn inflation(&self) -> f64 {
        self.top().inflation
    }

    /// `Π σ_j` over remaining services with `σ_j < 1` (the shrink factor
    /// of the completion lower bound; `0.0` when a remaining selectivity
    /// is zero, matching the closed-form product).
    #[inline]
    pub fn shrink(&self) -> f64 {
        let top = self.top();
        if top.zero_sel > 0 {
            0.0
        } else {
            top.shrink
        }
    }

    /// The shrink product with one remaining factor `sigma ∈ (0, 1)`
    /// divided back out (the per-service `shrink_j` of the lower bound).
    #[inline]
    fn shrink_excluding(&self, sigma: f64) -> f64 {
        let top = self.top();
        if top.zero_sel > 0 {
            0.0
        } else {
            top.shrink / sigma
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::bounds;
    use crate::comm::CommMatrix;
    use crate::service::Service;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_instance(rng: &mut StdRng, n: usize, proliferative: bool) -> QueryInstance {
        let services: Vec<Service> = (0..n)
            .map(|_| {
                let sigma_max = if proliferative { 3.0 } else { 1.0 };
                let sigma = if rng.gen_bool(0.1) { 0.0 } else { rng.gen_range(0.05..sigma_max) };
                Service::new(rng.gen_range(0.01..5.0), sigma)
            })
            .collect();
        let comm =
            CommMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { rng.gen_range(0.0..4.0) });
        let sink: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        QueryInstance::builder().services(services).comm(comm).sink(sink).build().unwrap()
    }

    fn assert_within(a: f64, b: f64, what: &str) {
        assert!(
            (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0),
            "{what}: incremental {a} vs reference {b}"
        );
    }

    /// Closed-form inflation product over the unplaced services.
    fn reference_inflation(inst: &QueryInstance, placed: &BitSet) -> f64 {
        let mut inflation = 1.0;
        for j in 0..inst.len() {
            if !placed.contains(j) && inst.selectivity(j) > 1.0 {
                inflation *= inst.selectivity(j);
            }
        }
        inflation
    }

    /// Closed-form shrink product over the unplaced services (zeros
    /// collapse the product, as in `completion_lower_bound`).
    fn reference_shrink(inst: &QueryInstance, placed: &BitSet) -> f64 {
        let mut shrink = 1.0;
        for j in 0..inst.len() {
            if !placed.contains(j) && inst.selectivity(j) < 1.0 {
                shrink *= inst.selectivity(j);
            }
        }
        shrink
    }

    /// Closed-form `max(max_{l∈R∖{u}} t_{u,l})` with a `0.0` floor, and
    /// the matching min with a `+∞` floor.
    fn reference_row_extrema(inst: &QueryInstance, placed: &BitSet, u: usize) -> (f64, f64) {
        let (mut max_t, mut min_t) = (0.0_f64, f64::INFINITY);
        for l in 0..inst.len() {
            if l != u && !placed.contains(l) {
                max_t = max_t.max(inst.transfer(u, l));
                min_t = min_t.min(inst.transfer(u, l));
            }
        }
        (max_t, min_t)
    }

    /// Compares every incremental quantity against the closed-form
    /// oracles at the current search position.
    fn check_against_reference(
        inst: &QueryInstance,
        ctx: &SearchContext,
        state: &IncrementalBounds,
        plan: &[usize],
        row_max: &[f64],
    ) {
        let n = inst.len();
        let placed = state.placed();
        assert_eq!(state.placed_len(), plan.len());
        for j in 0..n {
            assert_eq!(placed.contains(j), plan.contains(&j), "placed set tracks the plan");
            assert_eq!(
                state.remaining().contains(j),
                !plan.contains(&j),
                "remaining is the complement"
            );
        }

        assert_within(state.inflation(), reference_inflation(inst, placed), "inflation");
        assert_within(state.shrink(), reference_shrink(inst, placed), "shrink");

        // Row extrema over the remaining set are exact (same floats, found
        // through the sorted rows instead of a scan).
        for u in 0..n {
            let (max_ref, min_ref) = reference_row_extrema(inst, placed, u);
            assert_eq!(ctx.max_transfer_to(u, state.remaining()), max_ref, "row {u} max");
            assert_eq!(ctx.min_transfer_to(u, state.remaining()), min_ref, "row {u} min");
        }

        // Full bounds, against the retained closed-form implementations.
        if !plan.is_empty() && plan.len() < n {
            let last = *plan.last().unwrap();
            let mut prefix_last = 1.0;
            for &s in &plan[..plan.len() - 1] {
                prefix_last *= inst.selectivity(s);
            }
            for tight in [true, false] {
                let fast = ctx.epsilon_bar(state, last, prefix_last, tight);
                let slow = bounds::epsilon_bar(inst, placed, last, prefix_last, tight, row_max);
                assert_within(fast, slow, &format!("ε̄ tight={tight}"));
            }
            let fast = ctx.completion_lower_bound(state, last, prefix_last);
            let slow = bounds::completion_lower_bound(inst, placed, last, prefix_last);
            assert_within(fast, slow, "completion lower bound");
            check_predicates(ctx, state, last, prefix_last);
        }
    }

    /// The neighbours one ulp below and above a non-negative `x`.
    fn ulp_neighbours(x: f64) -> [f64; 2] {
        if x == 0.0 {
            [-f64::from_bits(1), f64::from_bits(1)]
        } else if x == f64::INFINITY {
            [f64::MAX, x]
        } else {
            [f64::from_bits(x.to_bits() - 1), f64::from_bits(x.to_bits() + 1)]
        }
    }

    /// Thresholds that probe a predicate at its edges: every term's exact
    /// value, one ulp either side of it, and `0` and `∞`.
    fn thresholds(terms: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0, f64::INFINITY];
        for &term in terms.iter().filter(|t| !t.is_nan()) {
            out.push(term);
            out.extend(ulp_neighbours(term));
        }
        out
    }

    /// The early-exit predicates decide exactly as comparing against the
    /// full values: `eps >= ε̄` and `lb >= ρ`, at every threshold.
    fn check_predicates(
        ctx: &SearchContext,
        state: &IncrementalBounds,
        last: usize,
        prefix_last: f64,
    ) {
        for tight in [true, false] {
            let terms: Vec<f64> = ctx.epsilon_bar_terms(state, last, prefix_last, tight).collect();
            let ebar = ctx.epsilon_bar(state, last, prefix_last, tight);
            for eps in thresholds(&terms) {
                assert_eq!(
                    ctx.epsilon_bar_at_most(state, last, prefix_last, tight, eps),
                    eps >= ebar,
                    "tight={tight}: eps {eps:e} against ε̄ {ebar:e} (terms {terms:?})"
                );
            }
        }
        let terms: Vec<f64> = ctx.completion_lower_bound_terms(state, last, prefix_last).collect();
        let lb = ctx.completion_lower_bound(state, last, prefix_last);
        for rho in thresholds(&terms) {
            assert_eq!(
                ctx.completion_lower_bound_reaches(state, last, prefix_last, rho),
                lb >= rho,
                "ρ {rho:e} against lower bound {lb:e} (terms {terms:?})"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Random push/pop/rewind walks: the incremental engine tracks the
        /// closed-form oracles at every step, in both selectivity regimes,
        /// and the closure and prune predicates agree with comparing
        /// against the full bound values.
        #[test]
        fn incremental_engine_matches_reference_oracles(
            seed in 0u64..u64::MAX,
            n in 3usize..10,
            proliferative in 0u32..2,
            steps in 20usize..60,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let inst = random_instance(&mut rng, n, proliferative == 1);
            let ctx = SearchContext::new(&inst);
            let row_max = bounds::row_maxima(&inst);
            let mut state = IncrementalBounds::new(&ctx);
            let mut plan: Vec<usize> = Vec::new();

            check_against_reference(&inst, &ctx, &state, &plan, &row_max);
            for _ in 0..steps {
                match rng.gen_range(0..4u32) {
                    // Push a random unplaced service.
                    0 | 1 => {
                        if plan.len() < n {
                            let unplaced: Vec<usize> = state.remaining().iter().collect();
                            let j = unplaced[rng.gen_range(0..unplaced.len())];
                            state.push(&ctx, j);
                            plan.push(j);
                        }
                    }
                    // Pop the most recent service.
                    2 => {
                        if let Some(j) = plan.pop() {
                            state.pop(j);
                        }
                    }
                    // Rewind (multi-level truncation, as after Lemma 3).
                    _ => {
                        if !plan.is_empty() {
                            let keep = rng.gen_range(0..plan.len());
                            while plan.len() > keep {
                                state.pop(plan.pop().unwrap());
                            }
                        }
                    }
                }
                check_against_reference(&inst, &ctx, &state, &plan, &row_max);
            }

            // A reset must return to the pristine state.
            state.reset(&ctx);
            plan.clear();
            check_against_reference(&inst, &ctx, &state, &plan, &row_max);
        }
    }

    #[test]
    fn context_mirrors_instance_parameters() {
        let mut rng = StdRng::seed_from_u64(7);
        let inst = random_instance(&mut rng, 6, true);
        let ctx = SearchContext::new(&inst);
        assert_eq!(ctx.len(), 6);
        assert!(!ctx.is_empty());
        let row_max = bounds::row_maxima(&inst);
        for (i, &expected_row_max) in row_max.iter().enumerate() {
            assert_eq!(ctx.cost(i), inst.cost(i));
            assert_eq!(ctx.selectivity(i), inst.selectivity(i));
            assert_eq!(ctx.sink_cost(i), inst.sink_cost(i));
            assert_eq!(ctx.row_max(i), expected_row_max);
            for j in 0..6 {
                assert_eq!(ctx.transfer(i, j), inst.transfer(i, j));
            }
        }
    }

    #[test]
    fn sorted_rows_are_permutations_in_transfer_order() {
        let mut rng = StdRng::seed_from_u64(11);
        let inst = random_instance(&mut rng, 7, false);
        let ctx = SearchContext::new(&inst);
        for u in 0..7 {
            let asc = ctx.successors_ascending(u);
            assert_eq!(asc.len(), 6);
            let mut sorted: Vec<u32> = asc.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..7u32).filter(|&j| j as usize != u).collect::<Vec<_>>());
            assert!(asc
                .windows(2)
                .all(|w| ctx.transfer(u, w[0] as usize) <= ctx.transfer(u, w[1] as usize)));
        }
    }

    #[test]
    fn predicates_follow_the_nan_skipping_max() {
        // Zero costs, transfers and sinks with selectivities whose
        // products overflow: a term multiplies `∞` by `0` and is NaN.
        let n = 5;
        let inst =
            QueryInstance::from_parts(vec![Service::new(0.0, 1e200); n], CommMatrix::zeros(n))
                .unwrap();
        let ctx = SearchContext::new(&inst);
        let mut state = IncrementalBounds::new(&ctx);
        state.push(&ctx, 0);
        state.push(&ctx, 1);

        // Prefix (0, 1): the first term is a number (0), every term of a
        // remaining service is NaN, so `ε̄ == 0` and `ε = 0` closes.
        let terms: Vec<f64> = ctx.epsilon_bar_terms(&state, 1, 1e200, true).collect();
        assert_eq!(terms[0], 0.0);
        assert!(terms[1..].iter().all(|t| t.is_nan()));
        assert_eq!(ctx.epsilon_bar(&state, 1, 1e200, true), 0.0);
        assert!(ctx.epsilon_bar_at_most(&state, 1, 1e200, true, 0.0));
        check_predicates(&ctx, &state, 1, 1e200);

        // Prefix (0, 1, 2): the prefix product itself is `∞`, every term
        // is NaN, `ε̄` is NaN and nothing closes.
        state.push(&ctx, 2);
        let prefix_last = 1e200 * 1e200;
        assert!(ctx.epsilon_bar_terms(&state, 2, prefix_last, true).all(f64::is_nan));
        assert!(ctx.epsilon_bar(&state, 2, prefix_last, true).is_nan());
        for eps in [0.0, 1.0, f64::INFINITY, f64::NAN] {
            assert!(!ctx.epsilon_bar_at_most(&state, 2, prefix_last, true, eps));
            assert!(!ctx.completion_lower_bound_reaches(&state, 2, prefix_last, eps));
        }
        check_predicates(&ctx, &state, 2, prefix_last);
    }

    #[test]
    fn zero_selectivity_collapses_shrink_until_placed() {
        let inst = QueryInstance::from_parts(
            vec![Service::new(1.0, 0.0), Service::new(1.0, 0.5), Service::new(1.0, 2.0)],
            CommMatrix::uniform(3, 1.0),
        )
        .unwrap();
        let ctx = SearchContext::new(&inst);
        let mut state = IncrementalBounds::new(&ctx);
        assert_eq!(state.shrink(), 0.0, "zero σ remaining collapses the product");
        assert!((state.inflation() - 2.0).abs() < 1e-15);
        state.push(&ctx, 0);
        assert!((state.shrink() - 0.5).abs() < 1e-15, "placing the zero restores the product");
        state.pop(0);
        assert_eq!(state.shrink(), 0.0);
    }

    #[test]
    fn single_service_context_is_degenerate_but_valid() {
        let inst = QueryInstance::builder()
            .service(Service::new(1.0, 0.5))
            .comm(CommMatrix::zeros(1))
            .sink(vec![2.0])
            .build()
            .unwrap();
        let ctx = SearchContext::new(&inst);
        assert_eq!(ctx.successors_ascending(0).len(), 0);
        assert_eq!(ctx.row_max(0), 2.0);
        let state = IncrementalBounds::new(&ctx);
        assert_eq!(ctx.max_transfer_to(0, state.remaining()), 0.0);
        assert_eq!(ctx.min_transfer_to(0, state.remaining()), f64::INFINITY);
    }
}
