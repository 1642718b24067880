//! E3's timing series: how much wall-clock each pruning lemma buys on the
//! bottleneck-TSP hard core, where the search actually works for its
//! answer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsq_bench::bench_instance;
use dsq_core::{optimize_with, BnbConfig};
use dsq_workloads::Family;
use std::hint::black_box;

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("pruning_ablation");
    let configs: [(&str, BnbConfig); 5] = [
        ("incumbent-only", BnbConfig::incumbent_only()),
        ("no-backjump", BnbConfig::without_backjump()),
        ("no-epsilon-bar", BnbConfig::without_epsilon_bar()),
        ("paper", BnbConfig::paper()),
        ("extended", BnbConfig::extended()),
    ];
    for n in [10usize, 12] {
        let inst = bench_instance(Family::BtspHard, n);
        for (name, cfg) in &configs {
            group.bench_with_input(BenchmarkId::new(*name, format!("btsp-n{n}")), &n, |b, _| {
                b.iter(|| black_box(optimize_with(black_box(&inst), cfg)))
            });
        }
    }
    // Larger hard instances only for the configurations that test the
    // tight Lemma-2 closure at every node — the hot path the incremental
    // bound engine and the early-exit closure predicate target. The weak
    // ablations would take minutes here without telling us anything new.
    for n in [14usize, 16] {
        let inst = bench_instance(Family::BtspHard, n);
        for (name, cfg) in &configs {
            if !cfg.use_epsilon_bar || !cfg.tight_epsilon_bar {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(*name, format!("btsp-n{n}")), &n, |b, _| {
                b.iter(|| black_box(optimize_with(black_box(&inst), cfg)))
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = dsq_bench::quick_criterion!();
    targets = bench_ablation
}
criterion_main!(benches);
