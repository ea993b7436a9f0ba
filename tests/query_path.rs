//! The serving read path, end to end: byte-identical exact rankings through
//! every entry point (filtered scans and the nearest-neighbour diagnostics
//! included), and a chunked scan fan-out that is independent of the thread
//! count.

use hlm_core::representations::raw_binary;
use hlm_core::{
    neighbor_label_agreement, popularity_bias, top_k_similar_scalar, CompanyFilter, DistanceMetric,
    RepStore, SalesApplication, ServingCache,
};
use hlm_corpus::{CompanyId, Corpus};
use hlm_datagen::blob_matrix;
use hlm_linalg::Matrix;
use std::sync::Arc;

/// The application's exact paths — single scan, filtered scan, blocked
/// batch — all return byte-identical rankings to the scalar reference.
#[test]
fn application_read_path_is_byte_identical_to_scalar_reference() {
    let corpus = hlm_datagen::generate(&hlm_datagen::GeneratorConfig::with_size_and_seed(250, 13));
    let reps = Arc::new(blob_matrix(250, 8, 5, 99));
    let app = SalesApplication::new(Arc::new(corpus), Arc::clone(&reps), DistanceMetric::Cosine)
        .expect("matching rows");
    let queries: Vec<CompanyId> = (0..40).map(CompanyId).collect();
    let batch = app
        .find_similar_batch(&queries, 10, &CompanyFilter::default())
        .expect("in range");
    for (i, &q) in queries.iter().enumerate() {
        let reference = top_k_similar_scalar(&reps, q.index(), 10, DistanceMetric::Cosine);
        let single = app
            .find_similar(q, 10, &CompanyFilter::default())
            .expect("in range");
        assert_eq!(single.len(), reference.len());
        for (s, &(r, d)) in single.iter().zip(&reference) {
            assert_eq!(s.id.index(), r);
            assert_eq!(s.distance.to_bits(), d.to_bits());
        }
        assert_eq!(batch[i], single, "blocked batch == single for query {q:?}");
    }
}

/// Ids and distance bits of each ranking.
fn bits(rankings: &[Vec<(usize, f64)>]) -> Vec<Vec<(usize, u64)>> {
    rankings
        .iter()
        .map(|ranked| ranked.iter().map(|&(r, d)| (r, d.to_bits())).collect())
        .collect()
}

/// `RepStore::top_k_batch`'s fan-out over fixed row chunks, on a flat store
/// with a row predicate: 20,000 rows make three chunks, and with the
/// parallelism threshold forced to zero the pool engages at 4 threads and
/// stays serial at 1. Both runs agree in ids and distance bits, and both
/// equal the scalar oracle over every row, filtered by the same predicate
/// and cut to k. The 20 queries scanned as one batch, whose chunk winners
/// merge per query in chunk order, give the same bits at both settings.
#[test]
fn flat_scan_fan_out_is_thread_count_independent() {
    const K: usize = 10;
    let reps = Arc::new(blob_matrix(20_000, 8, 16, 31));
    let n = reps.rows();
    let queries: Vec<usize> = (0..20).map(|i| i * 997 + 1).collect();
    let filter = |r: usize| !r.is_multiple_of(3);
    let keep = |q: usize, r: usize| r != q && filter(r);
    for metric in [DistanceMetric::Cosine, DistanceMetric::Euclidean] {
        let store = RepStore::flat(Arc::clone(&reps), metric);
        let scan = || -> Vec<Vec<(usize, f64)>> {
            queries
                .iter()
                .map(|&q| store.top_k_batch(&[q], K, |r| keep(q, r)).remove(0))
                .collect()
        };
        hlm_par::set_par_threshold(Some(0));
        hlm_par::set_threads(1);
        let serial = scan();
        let serial_batch = store.top_k_batch(&queries, K, filter);
        hlm_par::set_threads(4);
        let parallel = scan();
        let parallel_batch = store.top_k_batch(&queries, K, filter);
        hlm_par::set_threads(0);
        hlm_par::set_par_threshold(None);
        for batch in [&serial_batch, &parallel_batch] {
            assert_eq!(bits(batch), bits(&serial), "{metric:?} batch of 20");
        }
        for ((&q, s), p) in queries.iter().zip(&serial).zip(&parallel) {
            assert_eq!(s.len(), p.len(), "{metric:?} q={q}");
            for (a, b) in s.iter().zip(p) {
                assert_eq!(a.0, b.0, "{metric:?} q={q}");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "{metric:?} q={q}");
            }
            let oracle: Vec<(usize, f64)> = top_k_similar_scalar(&reps, q, n - 1, metric)
                .into_iter()
                .filter(|&(r, _)| keep(q, r))
                .take(K)
                .collect();
            assert_eq!(s.len(), K, "{metric:?} q={q}");
            for got in [s, p] {
                assert_eq!(got.len(), oracle.len(), "{metric:?} q={q}");
                for (&(r, d), &(er, ed)) in got.iter().zip(&oracle) {
                    assert_eq!(r, er, "{metric:?} q={q}");
                    assert_eq!(d.to_bits(), ed.to_bits(), "{metric:?} q={q} r={r}");
                }
            }
        }
    }
}

/// A generated corpus with its raw binary representations. Install bases
/// share many products, so binary rows tie exactly under both metrics and
/// every nearest-neighbour ranking here leans on the row-id tie-break.
fn binary_corpus(n: usize, seed: u64) -> (Arc<Corpus>, Arc<Matrix>) {
    let corpus = hlm_datagen::generate(&hlm_datagen::GeneratorConfig::with_size_and_seed(n, seed));
    let ids: Vec<CompanyId> = corpus.ids().collect();
    let reps = raw_binary(&corpus, &ids);
    (Arc::new(corpus), Arc::new(reps))
}

/// A filtered exact scan equals the scalar oracle over every row, filtered
/// by `CompanyFilter::matches` and cut to k, in ids and distance bits:
/// under an industry filter and an employee-range filter, for both
/// metrics, from queries that pass the filter and queries that do not.
#[test]
fn filtered_scan_equals_scalar_oracle_filtered_and_cut_to_k() {
    let (corpus, reps) = binary_corpus(300, 23);
    let n = corpus.len();
    let mut by_industry = std::collections::BTreeMap::new();
    for c in corpus.companies() {
        *by_industry.entry(c.industry).or_insert(0usize) += 1;
    }
    let (&industry, _) = by_industry
        .iter()
        .max_by_key(|&(_, &count)| count)
        .expect("non-empty corpus");
    let mut employees: Vec<u32> = corpus.companies().iter().map(|c| c.employees).collect();
    employees.sort_unstable();
    let filters = [
        CompanyFilter {
            industry: Some(industry),
            ..Default::default()
        },
        CompanyFilter {
            employees: Some((employees[n / 4], employees[3 * n / 4])),
            ..Default::default()
        },
    ];
    const K: usize = 10;
    for metric in [DistanceMetric::Cosine, DistanceMetric::Euclidean] {
        let app = SalesApplication::new(Arc::clone(&corpus), Arc::clone(&reps), metric)
            .expect("matching rows");
        for filter in &filters {
            for q in [0usize, 7, 150, 299] {
                let got = app
                    .find_similar(CompanyId(q as u32), K, filter)
                    .expect("in range");
                let oracle: Vec<(usize, f64)> = top_k_similar_scalar(&reps, q, n - 1, metric)
                    .into_iter()
                    .filter(|&(r, _)| filter.matches(&corpus, CompanyId(r as u32)))
                    .take(K)
                    .collect();
                assert_eq!(got.len(), K, "{metric:?} {filter:?} q={q}");
                assert_eq!(got.len(), oracle.len(), "{metric:?} {filter:?} q={q}");
                for (s, &(r, d)) in got.iter().zip(&oracle) {
                    assert_eq!(s.id.index(), r, "{metric:?} {filter:?} q={q}");
                    assert_eq!(
                        s.distance.to_bits(),
                        d.to_bits(),
                        "{metric:?} {filter:?} q={q} r={r}"
                    );
                }
            }
            // The same queries, one of them twice, as one batch: on the app
            // as built, then through a cache, cold and warm.
            let batch: Vec<CompanyId> = [0u32, 7, 150, 299, 7].map(CompanyId).to_vec();
            let oracle: Vec<Vec<(usize, u64)>> = batch
                .iter()
                .map(|q| {
                    top_k_similar_scalar(&reps, q.index(), n - 1, metric)
                        .into_iter()
                        .filter(|&(r, _)| filter.matches(&corpus, CompanyId(r as u32)))
                        .take(K)
                        .map(|(r, d)| (r, d.to_bits()))
                        .collect()
                })
                .collect();
            let cache = Arc::new(ServingCache::new(1_000));
            let cached = SalesApplication::new(Arc::clone(&corpus), Arc::clone(&reps), metric)
                .expect("matching rows")
                .with_cache(Arc::clone(&cache));
            for (pass, app) in [("uncached", &app), ("cold", &cached), ("warm", &cached)] {
                let answers = app.find_similar_batch(&batch, K, filter).expect("in range");
                let got: Vec<Vec<(usize, u64)>> = answers
                    .iter()
                    .map(|a| {
                        a.iter()
                            .map(|s| (s.id.index(), s.distance.to_bits()))
                            .collect()
                    })
                    .collect();
                assert_eq!(got, oracle, "{metric:?} {filter:?} {pass} batch");
            }
            assert_eq!(cache.len(), 4, "one answer per distinct query");
        }
    }
}

/// `popularity_bias` and `neighbor_label_agreement` keep their bits on the
/// tie-heavy raw binary rows, under both metrics. The constants were
/// recorded from the scan these diagnostics ran on before they moved onto a
/// flat `RepStore`; a change in the nearest-neighbour tie-break moves them.
#[test]
fn neighbour_diagnostics_keep_their_bits_on_binary_rows() {
    let (corpus, reps) = binary_corpus(300, 23);
    let ids: Vec<CompanyId> = corpus.ids().collect();
    let labels: Vec<usize> = ids
        .iter()
        .map(|&id| corpus.company(id).industry.0 as usize % 3)
        .collect();
    // Bias 0.4530360531309298 and 0.46864864864864864, agreement 286/300
    // and 275/300.
    let pinned = [
        (
            DistanceMetric::Cosine,
            0x3fdc_fe8a_ee06_ccff,
            0x3fee_81b4_e81b_4e82,
        ),
        (
            DistanceMetric::Euclidean,
            0x3fdd_fe56_e6d0_acb2,
            0x3fed_5555_5555_5555,
        ),
    ];
    let got = pinned.map(|(metric, _, _)| {
        let bias = popularity_bias(&corpus, &ids, &reps, metric);
        let agreement = neighbor_label_agreement(&reps, &labels, metric);
        (metric, bias.to_bits(), agreement.to_bits())
    });
    assert_eq!(
        got, pinned,
        "(metric, popularity_bias bits, neighbor_label_agreement bits)"
    );
}
