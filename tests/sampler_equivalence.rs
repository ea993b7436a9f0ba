//! Statistical equivalence of the Gibbs sampler kernels: the alias-MH
//! sampler approximates the collapsed conditional with sweep-stale topic
//! totals and corrects with Metropolis–Hastings, so it is *not*
//! bit-identical to the exact dense kernel — the contract is statistical.
//! Fitted on the same corpus over independent seeds, its held-out
//! document-completion perplexity must land within the exact dense
//! sampler's bootstrap confidence interval (EXPERIMENTS.md, sampler
//! equivalence). Every seed is fixed, so the test is deterministic: it
//! either demonstrates the equivalence or the kernel changed.

use hlm_eval::bootstrap_mean_ci;
use hlm_lda::{document_completion_perplexity, GibbsTrainer, LdaConfig, SamplerChoice};
use hlm_tests::{test_corpus, test_split};

const SEEDS: u64 = 8;

#[test]
fn alias_mh_perplexity_matches_dense_within_bootstrap_ci() {
    let corpus = test_corpus(400, 3);
    let split = test_split(&corpus);
    let train = hlm_core::representations::binary_docs(&corpus, &split.train);
    let test = hlm_core::representations::binary_docs(&corpus, &split.test);

    // Forcing both kernels at the same K = 32 compares samplers, not
    // topic counts.
    let ppl = |sampler: SamplerChoice, seed: u64| {
        let cfg = LdaConfig {
            n_topics: 32,
            vocab_size: corpus.vocab().len(),
            n_iters: 160,
            burn_in: 80,
            sample_lag: 5,
            seed,
            beta: 0.1,
            sampler,
            ..Default::default()
        };
        document_completion_perplexity(&GibbsTrainer::new(cfg).fit(&train), &test)
    };

    let dense: Vec<f64> = (0..SEEDS)
        .map(|i| ppl(SamplerChoice::Dense, 100 + i))
        .collect();
    let alias: Vec<f64> = (0..SEEDS)
        .map(|i| ppl(SamplerChoice::AliasMh, 200 + i))
        .collect();

    let d = bootstrap_mean_ci(&dense, 0.95, 2000, 42);
    let a = bootstrap_mean_ci(&alias, 0.95, 2000, 43);
    assert!(d.mean.is_finite() && a.mean.is_finite());

    // Two-sample overlap: the interval around each mean must cover the
    // other mean's distance. This is the claim BENCH_pr8.json's speedup
    // numbers rest on — faster is only a win if the model is as good.
    let diff = (a.mean - d.mean).abs();
    let tol = a.half_width + d.half_width;
    assert!(
        diff <= tol,
        "alias-MH perplexity {:.4} ± {:.4} is not within the dense sampler's \
         bootstrap CI {:.4} ± {:.4} (diff {:.4} > tol {:.4})",
        a.mean,
        a.half_width,
        d.mean,
        d.half_width,
        diff,
        tol
    );

    // Both must also actually model the data: better than the uniform
    // baseline over the vocabulary.
    let uniform = corpus.vocab().len() as f64;
    assert!(a.mean < uniform && d.mean < uniform);
}
