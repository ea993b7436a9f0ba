//! Criterion micro-benchmarks of the substrates: data generation,
//! aggregation, clustering, t-SNE, similarity search and the evaluation
//! harness plumbing.

use criterion::{criterion_group, criterion_main, Criterion};
use hlm_cluster::{kmeans, silhouette_score, tsne, KmeansOptions, TsneOptions};
use hlm_core::{DistanceMetric, RepStore};
use hlm_corpus::tfidf::TfIdf;
use hlm_datagen::GeneratorConfig;
use std::hint::black_box;
use std::sync::Arc;

fn bench_datagen(c: &mut Criterion) {
    let mut group = c.benchmark_group("datagen");
    group.sample_size(20);
    group.bench_function("generate_1000_companies", |b| {
        b.iter(|| hlm_datagen::generate(black_box(&GeneratorConfig::with_size_and_seed(1000, 9))))
    });
    group.finish();
}

fn bench_corpus_ops(c: &mut Criterion) {
    let corpus = hlm_datagen::generate(&GeneratorConfig::with_size_and_seed(2000, 9));
    let ids: Vec<_> = corpus.ids().collect();
    c.bench_function("binary_matrix_2000x38", |b| {
        b.iter(|| corpus.binary_matrix())
    });
    c.bench_function("tfidf_fit_and_transform_2000", |b| {
        b.iter(|| {
            let t = TfIdf::fit(&corpus, &ids);
            t.matrix_for(&corpus, &ids)
        })
    });
    c.bench_function("document_frequencies_2000", |b| {
        b.iter(|| corpus.document_frequencies())
    });
}

fn bench_clustering(c: &mut Criterion) {
    let corpus = hlm_datagen::generate(&GeneratorConfig::with_size_and_seed(600, 9));
    let ids: Vec<_> = corpus.ids().collect();
    let m = corpus.binary_matrix_for(&ids);
    c.bench_function("kmeans_k10_600x38", |b| {
        b.iter(|| kmeans(black_box(&m), &KmeansOptions::new(10)))
    });
    let res = kmeans(&m, &KmeansOptions::new(10));
    let mut group = c.benchmark_group("silhouette");
    group.sample_size(20);
    group.bench_function("silhouette_600x38", |b| {
        b.iter(|| silhouette_score(black_box(&m), &res.assignments))
    });
    group.finish();
}

fn bench_tsne(c: &mut Criterion) {
    // 38 products in 3-D topic space, the Figure-8 workload.
    let emb = hlm_linalg::Matrix::from_fn(38, 3, |i, j| ((i * 7 + j * 3) % 11) as f64 / 11.0);
    let mut group = c.benchmark_group("tsne");
    group.sample_size(10);
    group.bench_function("tsne_38_products_300_iters", |b| {
        b.iter(|| {
            tsne(
                black_box(&emb),
                &TsneOptions {
                    n_iters: 300,
                    perplexity: 5.0,
                    ..Default::default()
                },
            )
        })
    });
    group.finish();
}

fn bench_similarity(c: &mut Criterion) {
    let corpus = hlm_datagen::generate(&GeneratorConfig::with_size_and_seed(5000, 9));
    let ids: Vec<_> = corpus.ids().collect();
    let reps = Arc::new(corpus.binary_matrix_for(&ids));
    for (name, metric) in [
        ("top_k_similar_5000x38_cosine", DistanceMetric::Cosine),
        ("top_k_similar_5000x38_euclidean", DistanceMetric::Euclidean),
    ] {
        let store = RepStore::flat(Arc::clone(&reps), metric);
        c.bench_function(name, |b| {
            b.iter(|| store.top_k_batch(black_box(&[17]), 10, |_| true))
        });
    }
}

fn bench_linalg(c: &mut Criterion) {
    use hlm_linalg::{Cholesky, Matrix};
    let n = 64;
    let base = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 13) as f64 / 13.0);
    let mut spd = base.matmul(&base.transpose());
    for i in 0..n {
        spd.add_at(i, i, n as f64);
    }
    c.bench_function("matmul_64x64", |b| b.iter(|| base.matmul(black_box(&base))));
    c.bench_function("cholesky_64x64", |b| {
        b.iter(|| Cholesky::decompose(black_box(&spd)).expect("spd"))
    });
}

fn bench_svd_gmm_cocluster(c: &mut Criterion) {
    use hlm_cluster::{spectral_cocluster, Gmm, GmmOptions};
    use hlm_linalg::truncated_svd;
    let corpus = hlm_datagen::generate(&GeneratorConfig::with_size_and_seed(600, 9));
    let ids: Vec<_> = corpus.ids().collect();
    let binary = corpus.binary_matrix_for(&ids);

    c.bench_function("truncated_svd_rank3_600x38", |b| {
        b.iter(|| truncated_svd(black_box(&binary), 3, 1))
    });
    let mut group = c.benchmark_group("cocluster_gmm");
    group.sample_size(10);
    group.bench_function("spectral_cocluster_k5_600x38", |b| {
        b.iter(|| spectral_cocluster(black_box(&binary), 5, 1))
    });
    let emb = hlm_linalg::Matrix::from_fn(38, 3, |i, j| ((i * 5 + j) % 7) as f64 / 7.0);
    group.bench_function("gmm_fit_k3_38x3", |b| {
        b.iter(|| Gmm::fit(black_box(&emb), &GmmOptions::new(3)))
    });
    let gmm = Gmm::fit(&emb, &GmmOptions::new(3));
    let rows: Vec<&[f64]> = (0..10).map(|i| emb.row(i)).collect();
    group.bench_function("fisher_vector_10_products", |b| {
        b.iter(|| gmm.fisher_vector(black_box(&rows)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_datagen,
    bench_corpus_ops,
    bench_clustering,
    bench_tsne,
    bench_similarity,
    bench_linalg,
    bench_svd_gmm_cocluster
);
criterion_main!(benches);
