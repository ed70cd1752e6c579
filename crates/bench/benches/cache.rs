//! Criterion micro-benchmarks for the client-side caches: ring-buffer insert
//! and lookup throughput, and LRU insert/eviction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use khameleon_core::cache::{LruCache, RingCache};
use khameleon_core::types::{BlockRef, RequestId};

fn blk(req: u32, idx: u32) -> BlockRef {
    BlockRef::new(RequestId(req), idx)
}

fn bench_ring_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("ring_cache_insert");
    for &capacity in &[512usize, 4_096] {
        group.bench_with_input(
            BenchmarkId::from_parameter(capacity),
            &capacity,
            |b, &capacity| {
                b.iter_batched(
                    || RingCache::new(capacity),
                    |mut cache| {
                        for i in 0..10_000u32 {
                            cache.insert(blk(i % 500, i % 20));
                        }
                        cache
                    },
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

fn bench_ring_lookup(c: &mut Criterion) {
    let mut cache = RingCache::new(4_096);
    for i in 0..20_000u32 {
        cache.insert(blk(i % 500, i % 20));
    }
    c.bench_function("ring_cache_prefix_lookup", |b| {
        b.iter(|| {
            let mut total = 0u32;
            for r in 0..500u32 {
                total += cache.prefix_len(RequestId(r));
            }
            total
        });
    });
}

fn bench_lru(c: &mut Criterion) {
    c.bench_function("lru_insert_evict", |b| {
        b.iter_batched(
            || LruCache::new(50_000_000),
            |mut cache| {
                for i in 0..2_000u32 {
                    cache.insert(RequestId(i), 20, 20, 1_600_000);
                    cache.get(RequestId(i / 2));
                }
                cache
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

criterion_group!(benches, bench_ring_insert, bench_ring_lookup, bench_lru);
criterion_main!(benches);
