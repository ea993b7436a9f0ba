//! The Section-6 sales application, end to end: LDA representations feeding
//! similar-company search with filters and whitespace recommendations.

use hlm_core::representations::lda_representations;
use hlm_core::{CompanyFilter, CoreError, DistanceMetric, SalesApplication};
use hlm_corpus::CompanyId;
use hlm_engine::{Engine, EngineError, ModelKind, TrainPlan};
use hlm_tests::{quick_lda, test_corpus};

fn build_app(n: usize, seed: u64) -> SalesApplication {
    let corpus = test_corpus(n, seed);
    let ids: Vec<_> = corpus.ids().collect();
    let (lda, docs) = quick_lda(&corpus, &ids, 3);
    let reps = lda_representations(&lda, &docs);
    Engine::new(corpus)
        .sales_app(reps, DistanceMetric::Cosine)
        .expect("representations match the corpus")
}

#[test]
fn similar_companies_share_the_install_base_profile() {
    let app = build_app(400, 51);
    // Queries with substantial install bases so overlap is meaningful. The
    // property is aggregate: averaged over several queries, the top-10
    // similar companies must have a higher Jaccard overlap with the query's
    // install base than the average company does (Jaccard controls for
    // install-base size, unlike a raw shared-product count). A single query
    // can lose narrowly — the 3-topic LDA representation is lossy — but the
    // mean over many queries cannot.
    let queries: Vec<CompanyId> = app
        .corpus()
        .iter()
        .filter(|(_, c)| c.product_count() >= 10)
        .map(|(id, _)| id)
        .take(10)
        .collect();
    assert!(queries.len() >= 5, "substantial companies exist");

    let mut sim_mean_total = 0.0;
    let mut all_mean_total = 0.0;
    for &query in &queries {
        let similar = app
            .find_similar(query, 10, &CompanyFilter::default())
            .expect("id in range");
        assert_eq!(similar.len(), 10);
        let query_set: std::collections::HashSet<_> = app
            .corpus()
            .company(query)
            .product_set()
            .into_iter()
            .collect();
        let jaccard = |id: CompanyId| -> f64 {
            let other: std::collections::HashSet<_> =
                app.corpus().company(id).product_set().into_iter().collect();
            let inter = query_set.intersection(&other).count() as f64;
            let union = query_set.union(&other).count() as f64;
            inter / union
        };
        sim_mean_total += similar.iter().map(|s| jaccard(s.id)).sum::<f64>() / similar.len() as f64;
        all_mean_total += app
            .corpus()
            .ids()
            .filter(|&id| id != query)
            .map(jaccard)
            .sum::<f64>()
            / (app.corpus().len() - 1) as f64;
    }
    let sim_mean = sim_mean_total / queries.len() as f64;
    let all_mean = all_mean_total / queries.len() as f64;
    assert!(
        sim_mean > all_mean,
        "similar Jaccard {sim_mean} must beat corpus average {all_mean}"
    );
}

#[test]
fn whitespace_recommendations_match_similar_company_inventories() {
    let app = build_app(400, 52);
    let query = CompanyId(11);
    let recs = app
        .recommend_whitespace(query, 15, &CompanyFilter::default())
        .expect("id in range");
    assert!(!recs.is_empty());
    let similar = app
        .find_similar(query, 15, &CompanyFilter::default())
        .expect("id in range");
    // Every recommended product is owned by at least one similar company.
    for r in &recs {
        let owners = similar
            .iter()
            .filter(|s| app.corpus().company(s.id).owns(r.product))
            .count();
        assert_eq!(
            owners, r.owners_among_similar,
            "owner count for {}",
            r.product
        );
        assert!(owners >= 1);
    }
}

#[test]
fn filters_compose() {
    let app = build_app(600, 53);
    let query = CompanyId(0);
    let all = app
        .find_similar(query, 600, &CompanyFilter::default())
        .expect("id in range");
    let country = app.corpus().company(all[0].id).country;
    let industry = app.corpus().company(all[0].id).industry;

    let filtered = app
        .find_similar(
            query,
            600,
            &CompanyFilter {
                country: Some(country),
                industry: Some(industry),
                ..Default::default()
            },
        )
        .expect("id in range");
    assert!(
        !filtered.is_empty(),
        "the closest match itself satisfies the filter"
    );
    for s in &filtered {
        let c = app.corpus().company(s.id);
        assert_eq!(c.country, country);
        assert_eq!(c.industry, industry);
    }
    assert!(filtered.len() < all.len());

    // Employee-range filter.
    let big_only = app
        .find_similar(
            query,
            600,
            &CompanyFilter {
                employees: Some((500, u32::MAX)),
                ..Default::default()
            },
        )
        .expect("id in range");
    for s in &big_only {
        assert!(app.corpus().company(s.id).employees >= 500);
    }
}

#[test]
fn results_are_deterministic() {
    let a = build_app(200, 54);
    let b = build_app(200, 54);
    let fa = a
        .find_similar(CompanyId(3), 5, &CompanyFilter::default())
        .expect("id in range");
    let fb = b
        .find_similar(CompanyId(3), 5, &CompanyFilter::default())
        .expect("id in range");
    assert_eq!(
        fa.iter().map(|s| s.id).collect::<Vec<_>>(),
        fb.iter().map(|s| s.id).collect::<Vec<_>>()
    );
    let ra = a
        .recommend_whitespace(CompanyId(3), 10, &CompanyFilter::default())
        .expect("id in range");
    let rb = b
        .recommend_whitespace(CompanyId(3), 10, &CompanyFilter::default())
        .expect("id in range");
    assert_eq!(
        ra.iter().map(|r| r.product).collect::<Vec<_>>(),
        rb.iter().map(|r| r.product).collect::<Vec<_>>()
    );
}

#[test]
fn bad_inputs_surface_typed_errors_not_panics() {
    let corpus = test_corpus(120, 55);
    let n = corpus.len();
    let ids: Vec<_> = corpus.ids().collect();
    let (lda, docs) = quick_lda(&corpus, &ids, 3);
    let reps = lda_representations(&lda, &docs);
    let engine = Engine::new(corpus);

    // Representation matrix with the wrong number of rows.
    let truncated = hlm_linalg::Matrix::zeros(n - 1, 3);
    match engine.sales_app(truncated, DistanceMetric::Cosine) {
        Err(EngineError::Core(CoreError::RepresentationMismatch { rows, companies })) => {
            assert_eq!((rows, companies), (n - 1, n));
        }
        _ => panic!("mismatched rows must yield RepresentationMismatch"),
    }

    // Queries outside the corpus fail with the offending id.
    let app = engine
        .sales_app(reps, DistanceMetric::Cosine)
        .expect("shapes match");
    let bogus = CompanyId(n as u32);
    match app.find_similar(bogus, 5, &CompanyFilter::default()) {
        Err(CoreError::CompanyOutOfRange { id, len }) => {
            assert_eq!((id, len), (n as u32, n));
        }
        _ => panic!("out-of-range query must yield CompanyOutOfRange"),
    }
    assert!(app
        .recommend_whitespace(bogus, 5, &CompanyFilter::default())
        .is_err());

    // Unknown model names are rejected with the offending string preserved.
    match "markov-chain".parse::<ModelKind>() {
        Err(EngineError::UnknownModelKind(name)) => assert_eq!(name, "markov-chain"),
        _ => panic!("unknown model kinds must be rejected"),
    }
}

#[test]
fn serving_cache_memoizes_and_is_invalidated_on_retrain() {
    let corpus = test_corpus(250, 63);
    let ids: Vec<_> = corpus.ids().collect();
    let (lda, docs) = quick_lda(&corpus, &ids, 3);
    let reps = lda_representations(&lda, &docs);
    let engine = Engine::new(corpus);
    let app = engine
        .sales_app(reps, DistanceMetric::Cosine)
        .expect("shapes match");
    let query = CompanyId(7);
    let filter = CompanyFilter::default();

    // First query populates the shared cache; the replayed answer is
    // identical to the computed one.
    assert!(engine.serving_cache().is_empty());
    let cold = app.find_similar(query, 5, &filter).expect("id in range");
    assert_eq!(engine.serving_cache().len(), 1);
    let warm = app.find_similar(query, 5, &filter).expect("id in range");
    assert_eq!(cold, warm, "cache hit must replay the computed answer");
    assert_eq!(engine.serving_cache().len(), 1, "a hit must not re-insert");

    // Any training run invalidates: the generation advances and every
    // memoized entry is dropped, so post-retrain applications can never
    // serve rankings computed against the old model.
    let generation = engine.serving_cache().generation();
    let spec =
        hlm_engine::ModelSpec::Ngram(hlm_ngram::NgramConfig::unigram(app.corpus().vocab().len()));
    engine
        .train(&spec, &ids, hlm_corpus::Month(i32::MAX), TrainPlan::new())
        .expect("unigram spec is valid");
    assert!(engine.serving_cache().generation() > generation);
    assert!(engine.serving_cache().is_empty());

    // A fresh application built after the retrain gets correct answers and
    // repopulates the cache under the new generation; the pre-retrain app
    // still answers correctly (recomputing under its stale generation).
    let app2 = engine
        .sales_app(
            hlm_core::representations::raw_binary(app.corpus(), &ids),
            DistanceMetric::Cosine,
        )
        .expect("shapes match");
    let fresh = app2.find_similar(query, 5, &filter).expect("id in range");
    assert_eq!(engine.serving_cache().len(), 1);
    assert_eq!(
        fresh,
        app2.find_similar(query, 5, &filter).expect("id in range")
    );
    let stale = app.find_similar(query, 5, &filter).expect("id in range");
    assert_eq!(stale, cold, "stale app recomputes the same answer");
}
