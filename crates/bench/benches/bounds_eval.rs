//! Micro-benchmarks of the per-node bound evaluations — the hot path of
//! the branch-and-bound search. Measures tight and loose `ε̄`, the
//! optimistic completion lower bound, the incremental push/pop
//! maintenance itself, and, at a btsp-hard node, the early-exit Lemma-2
//! closure predicate the search runs in place of the full `ε̄`, all
//! against the shared [`SearchContext`].
//!
//! [`SearchContext`]: dsq_core::bnb::SearchContext

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsq_bench::bench_instance;
use dsq_core::bnb::{IncrementalBounds, SearchContext};
use dsq_core::{optimize, QueryInstance};
use dsq_workloads::Family;
use std::hint::black_box;

/// A mid-search position: the first half of the services placed in index
/// order, mirroring a depth-`n/2` node of the search tree.
fn half_placed(ctx: &SearchContext) -> (IncrementalBounds, usize, f64) {
    let n = ctx.len();
    let mut state = IncrementalBounds::new(ctx);
    let mut prefix_last = 1.0;
    for j in 0..n / 2 {
        if j > 0 {
            prefix_last *= ctx.selectivity(j - 1);
        }
        state.push(ctx, j);
    }
    (state, n / 2 - 1, prefix_last)
}

/// A node on the optimal plan's path: its first half placed, as a
/// search reaches it with the incumbent near the optimum. Returns the
/// state, the last placed service, its prefix product and the prefix's
/// `ε` (the running max of its finalized terms and the last service's
/// processing term).
fn on_optimal_path(
    inst: &QueryInstance,
    ctx: &SearchContext,
) -> (IncrementalBounds, usize, f64, f64) {
    let plan = optimize(inst).into_plan().indices();
    let half = &plan[..ctx.len() / 2];
    let mut state = IncrementalBounds::new(ctx);
    let (mut prefix, mut eps) = (1.0, 0.0_f64);
    for pair in half.windows(2) {
        let (u, j) = (pair[0], pair[1]);
        eps = eps.max(prefix * (ctx.cost(u) + ctx.selectivity(u) * ctx.transfer(u, j)));
        prefix *= ctx.selectivity(u);
    }
    for &j in half {
        state.push(ctx, j);
    }
    let last = half[half.len() - 1];
    (state, last, prefix, eps.max(prefix * ctx.cost(last)))
}

fn bench_bounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("bounds_eval");
    for n in [8usize, 16, 32] {
        let inst = bench_instance(Family::UniformRandom, n);
        let ctx = SearchContext::new(&inst);
        let (state, last, prefix_last) = half_placed(&ctx);

        group.bench_with_input(BenchmarkId::new("tight_epsilon_bar", n), &n, |b, _| {
            b.iter(|| black_box(ctx.epsilon_bar(black_box(&state), last, prefix_last, true)))
        });
        group.bench_with_input(BenchmarkId::new("loose_epsilon_bar", n), &n, |b, _| {
            b.iter(|| black_box(ctx.epsilon_bar(black_box(&state), last, prefix_last, false)))
        });
        group.bench_with_input(BenchmarkId::new("completion_lower_bound", n), &n, |b, _| {
            b.iter(|| black_box(ctx.completion_lower_bound(black_box(&state), last, prefix_last)))
        });
        group.bench_with_input(BenchmarkId::new("push_pop", n), &n, |b, _| {
            let mut walker = state.clone();
            // Toggle the last unplaced service in and out: one O(1)
            // product update plus two bit flips per direction.
            let j = n - 1;
            b.iter(|| {
                walker.push(&ctx, black_box(j));
                walker.pop(black_box(j));
            })
        });
        group.bench_with_input(BenchmarkId::new("context_build", n), &n, |b, _| {
            b.iter(|| black_box(SearchContext::new(black_box(&inst))))
        });
    }

    // The search's Lemma-2 test at a btsp-hard node, next to the full `ε̄`
    // it replaces. The node does not close, as almost none do, and the
    // predicate stops at the first term above `ε`.
    let n = 12;
    let inst = bench_instance(Family::BtspHard, n);
    let ctx = SearchContext::new(&inst);
    let (state, last, prefix_last, eps) = on_optimal_path(&inst, &ctx);
    assert!(!ctx.epsilon_bar_at_most(&state, last, prefix_last, true, eps));
    let id = format!("btsp-n{n}");
    group.bench_with_input(BenchmarkId::new("tight_epsilon_bar", &id), &n, |b, _| {
        b.iter(|| black_box(ctx.epsilon_bar(black_box(&state), last, prefix_last, true)))
    });
    group.bench_with_input(BenchmarkId::new("closure_predicate", &id), &n, |b, _| {
        b.iter(|| {
            black_box(ctx.epsilon_bar_at_most(black_box(&state), last, prefix_last, true, eps))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = dsq_bench::quick_criterion!();
    targets = bench_bounds
}
criterion_main!(benches);
