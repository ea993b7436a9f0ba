//! Criterion micro-benchmarks of the two Gibbs token-sampler kernels —
//! dense scan and LightLDA-style alias tables with Metropolis-Hastings
//! correction — across the topic counts where `SamplerChoice::Auto`
//! switches between them (dense up to `SamplerChoice::DENSE_MAX_TOPICS`,
//! alias-MH above), with one point on each side of that crossover.
//!
//! Each benchmark times a short fixed-sweep fit on the same synthetic
//! corpus, so the numbers compare kernels, not convergence. Like
//! `bench_linalg_small`, this is the regression guard for the kernel
//! crossover: the forced choices let CI catch a kernel that regresses at
//! a topic count `Auto` would not route to it.

use criterion::{criterion_group, criterion_main, Criterion};
use hlm_lda::{GibbsTrainer, LdaConfig, SamplerChoice, WeightedDoc};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VOCAB: usize = 38;

/// A fixed 200-document corpus over the paper's 38-product vocabulary.
fn corpus() -> Vec<WeightedDoc> {
    let mut rng = StdRng::seed_from_u64(20190326);
    (0..200)
        .map(|_| {
            let len = rng.gen_range(4..16);
            (0..len).map(|_| (rng.gen_range(0..VOCAB), 1.0)).collect()
        })
        .collect()
}

fn cfg(k: usize, sampler: SamplerChoice) -> LdaConfig {
    LdaConfig {
        n_topics: k,
        vocab_size: VOCAB,
        // Short fixed schedule: enough sweeps to exercise steady-state
        // tables, few enough that one fit is a sensible criterion sample.
        n_iters: 4,
        burn_in: 2,
        sample_lag: 1,
        seed: 7,
        sampler,
        ..Default::default()
    }
}

fn bench_samplers(c: &mut Criterion) {
    let docs = corpus();
    let mut group = c.benchmark_group("gibbs_samplers");
    group.sample_size(10);
    let crossover = SamplerChoice::DENSE_MAX_TOPICS;
    for k in [3usize, 16, crossover, crossover + 8, 256] {
        for (name, sampler) in [
            ("dense", SamplerChoice::Dense),
            ("alias", SamplerChoice::AliasMh),
        ] {
            group.bench_function(&format!("{name}_k{k}"), |b| {
                b.iter(|| {
                    let model = GibbsTrainer::new(cfg(k, sampler)).fit(&docs);
                    std::hint::black_box(model)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_samplers);
criterion_main!(benches);
