//! E13's timing series: the serving layer's request costs — instance
//! parsing, fingerprint computation, validated cache hits, cache misses
//! with their write-back, whole drifting-stream batches and a batch of
//! cold optimizations — at the production-relevant n = 12, with parsing
//! and fingerprinting also at n = 6 and 32.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dsq_core::{
    format_instance, optimize_with, parse_instance, BnbConfig, CanonicalKey, Quantization,
};
use dsq_service::{optimize_batch, BatchOptions, CacheConfig, PlanCache};
use dsq_workloads::{generate, DriftConfig, DriftStream, Family};
use std::hint::black_box;
use std::num::NonZeroUsize;

const N: usize = 12;
/// Requests in the `cold_optimize` batch.
const COLD_BATCH: u64 = 64;

fn cache_config() -> CacheConfig {
    // Same knobs as experiment E13.
    CacheConfig { quantization: Quantization::new(0.2), ..CacheConfig::default() }
}

fn stream(family: Family, n: usize, requests: usize) -> Vec<dsq_core::QueryInstance> {
    DriftStream::new(DriftConfig::new(family, n, 23, requests)).collect()
}

fn bench_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_throughput");
    let requests = stream(Family::BtspHard, N, 48);
    let config = BnbConfig::paper();

    // The daemon's front end for every request: the text of an instance
    // document, then its fingerprint.
    for n in [6, N, 32] {
        let text = format_instance(&generate(Family::Clustered, n, 5));
        group.bench_with_input(BenchmarkId::new("parse_instance", n), &text, |b, text| {
            b.iter(|| black_box(parse_instance(black_box(text)).expect("parses")))
        });
    }
    for n in [6, N, 32] {
        // At n = 12 this is `requests[0]`: a stream's first request does
        // not depend on its length.
        let inst = stream(Family::BtspHard, n, 1).remove(0);
        group.bench_with_input(BenchmarkId::new("fingerprint", n), &inst, |b, inst| {
            let quantization = Quantization::new(0.2);
            b.iter(|| black_box(CanonicalKey::new(black_box(inst), &quantization)))
        });
    }

    // Validated hit path: fingerprint + transport + exact-cost check,
    // cycling through drifted occurrences of the warmed base queries.
    let cache = PlanCache::new(cache_config());
    for inst in &requests {
        cache.serve(inst, &config);
    }
    let mut next = 0usize;
    group.bench_function(BenchmarkId::new("cache_hit", format!("btsp-n{N}")), |b| {
        b.iter(|| {
            let inst = &requests[next % requests.len()];
            next += 1;
            black_box(cache.serve(black_box(inst), &config))
        })
    });

    // Miss path: lookup, search and write-back of primary and alias.
    // The pool is cycled through a cache that holds a fraction of it, so
    // every key has been evicted before it comes back and each request
    // misses. Clustered instances keep the search short enough that the
    // write-back shows.
    let pool: Vec<_> = (0..256).map(|seed| generate(Family::Clustered, N, seed)).collect();
    let misses = PlanCache::new(CacheConfig {
        shards: 1,
        capacity_per_shard: 64,
        probes: 2,
        ..cache_config()
    });
    let mut next = 0usize;
    group.bench_function(BenchmarkId::new("cache_miss", format!("clustered-n{N}")), |b| {
        b.iter(|| {
            let inst = &pool[next % pool.len()];
            next += 1;
            black_box(misses.serve(black_box(inst), &config))
        })
    });
    assert_eq!(misses.stats().hits + misses.stats().warm_starts, 0, "every request must miss");

    // Whole-batch throughput, cold caches each iteration: the number the
    // serving layer quotes (requests per second including the misses).
    for workers in [1usize, 4] {
        let options = BatchOptions {
            workers: NonZeroUsize::new(workers).expect("non-zero"),
            config: config.clone(),
        };
        group.throughput(Throughput::Elements(requests.len() as u64));
        group.bench_function(BenchmarkId::new("batch_stream", format!("w{workers}")), |b| {
            b.iter(|| {
                let cache = PlanCache::new(cache_config());
                black_box(optimize_batch(&cache, black_box(&requests), &options))
            })
        });
    }

    // Cold searches over a fixed batch of distinct btsp-hard requests: the
    // search time's tail is long (p99 16–19× the median at n = 12), so
    // a single instance says little about the typical request.
    let cold: Vec<_> = (0..COLD_BATCH).map(|seed| generate(Family::BtspHard, N, seed)).collect();
    group.throughput(Throughput::Elements(COLD_BATCH));
    group.bench_with_input(
        BenchmarkId::new("cold_optimize", format!("btsp-n{N}")),
        &cold,
        |b, cold| {
            b.iter(|| {
                for inst in cold {
                    black_box(optimize_with(black_box(inst), &config));
                }
            })
        },
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = dsq_bench::quick_criterion!();
    targets = bench_serving
}
criterion_main!(benches);
