//! Criterion micro-benchmarks of the serving read path (DESIGN.md §3.10):
//! the pre-store scalar scan and the `RepStore` kernel at a batch of one
//! and at a 16-query micro-batch, at K ∈ {16, 64} over n ∈ {20k, 200k}
//! companies.
//!
//! Threads are pinned to 1 so the numbers compare *kernels*, not
//! parallelism — the same no-parallelism-credit rule the `hlm-bench`
//! phase-6 gate uses. Blocked-kernel ids report the per-iteration time of a
//! 16-query micro-batch; divide by 16 for per-query cost.

use criterion::{criterion_group, criterion_main, Criterion};
use hlm_core::repstore::RepStore;
use hlm_core::{top_k_similar_scalar, DistanceMetric};
use hlm_datagen::blob_matrix;
use std::cell::Cell;
use std::sync::Arc;

const DIMS: usize = 16;
const CENTERS: usize = 64;
const BATCH: usize = 16;

fn bench_query_path(c: &mut Criterion) {
    // Kernel comparison only: no parallelism credit.
    hlm_engine::set_threads(1);
    let metric = DistanceMetric::Cosine;
    for n in [20_000usize, 200_000] {
        let reps = Arc::new(blob_matrix(n, DIMS, CENTERS, 20190326));
        let store = RepStore::flat(Arc::clone(&reps), metric);
        let queries: Vec<usize> = (0..BATCH).map(|i| (i * 997) % n).collect();
        let mut group = c.benchmark_group(&format!("query_path_n{}k", n / 1000));
        group.sample_size(10);
        for k in [16usize, 64] {
            let turn = Cell::new(0usize);
            group.bench_function(&format!("scalar_f64_k{k}"), |b| {
                b.iter(|| {
                    let i = turn.get();
                    turn.set((i + 1) % BATCH);
                    std::hint::black_box(top_k_similar_scalar(&reps, queries[i], k, metric))
                })
            });
            let turn = Cell::new(0usize);
            group.bench_function(&format!("store_f64_k{k}"), |b| {
                b.iter(|| {
                    let i = turn.get();
                    turn.set((i + 1) % BATCH);
                    std::hint::black_box(store.top_k_batch(&queries[i..=i], k, |_| true))
                })
            });
            group.bench_function(&format!("blocked_f64_k{k}_batch{BATCH}"), |b| {
                b.iter(|| std::hint::black_box(store.top_k_batch(&queries, k, |_| true)))
            });
        }
        group.finish();
    }
    hlm_engine::set_threads(0);
}

criterion_group!(benches, bench_query_path);
criterion_main!(benches);
