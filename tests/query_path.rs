//! The PR-10 serving read path, end to end: cell-major `RepStore` remap
//! round-trips, byte-identical exact rankings through every entry point
//! (filtered scans and the nearest-neighbour diagnostics included), and
//! thread-count-independent fan-out.

use hlm_core::representations::raw_binary;
use hlm_core::{
    neighbor_label_agreement, popularity_bias, top_k_similar_scalar, ClusteredIndex, CompanyFilter,
    DistanceMetric, SalesApplication,
};
use hlm_corpus::{CompanyId, Corpus};
use hlm_linalg::Matrix;
use std::sync::Arc;

/// Gaussian-ish blobs around `centers` well-separated centroids — the shape
/// IVF assumes.
fn blob_matrix(rows: usize, dims: usize, centers: usize, seed: u64) -> Matrix {
    let mut state = seed.max(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let centroids: Vec<Vec<f64>> = (0..centers)
        .map(|_| (0..dims).map(|_| next() * 10.0).collect())
        .collect();
    let mut m = Matrix::zeros(rows, dims);
    for i in 0..rows {
        let c = &centroids[i % centers];
        for (j, &cj) in c.iter().enumerate() {
            m.set(i, j, cj + (next() - 0.5) * 0.5);
        }
    }
    m
}

/// The cell-major remap must round-trip (store row → original CompanyId →
/// store row) and pruned queries must surface *original* row ids — checked
/// at 1 and 3 probes against a brute-force scan restricted to the probed
/// rows' ids.
#[test]
fn cell_major_remap_round_trips_at_one_and_three_probes() {
    let mut reps = blob_matrix(300, 8, 6, 42);
    // Degenerate shapes ride along: a zero row and a duplicate pair.
    for j in 0..8 {
        reps.set(5, j, 0.0);
        let v = reps.get(10, j);
        reps.set(11, j, v);
    }
    for metric in [DistanceMetric::Cosine, DistanceMetric::Euclidean] {
        let index = ClusteredIndex::build(reps.clone(), 6, metric, 7).expect("valid cell count");
        let store = index.store();
        assert_eq!(store.n_cells(), 6);
        assert_eq!(store.len(), 300);
        for orig in 0..300 {
            let s = store.store_row(orig);
            assert_eq!(store.original_row(s), orig, "store row {s} must map back");
            assert_eq!(
                store.row_by_original(orig),
                reps.row(orig),
                "row {orig}: reordered data must hold the original vector"
            );
        }
        for n_probe in [1usize, 3] {
            for q in [0usize, 5, 11, 299] {
                let got = index.query_row(q, 10, n_probe);
                // Every returned id is an original row, not a store row:
                // recompute its distance from the original matrix and demand
                // bit-equality.
                for &(r, d) in &got {
                    assert_ne!(r, q);
                    let expect = metric.distance(reps.row(q), reps.row(r));
                    assert_eq!(
                        d.to_bits(),
                        expect.to_bits(),
                        "{metric:?} probe={n_probe} q={q} r={r}"
                    );
                }
                // Ascending with deterministic tie-breaks.
                for pair in got.windows(2) {
                    assert!(
                        pair[0].1 < pair[1].1 || (pair[0].1 == pair[1].1 && pair[0].0 < pair[1].0)
                    );
                }
            }
        }
        // Full probe is byte-identical to the pre-store scalar scan.
        for q in [0usize, 5, 11, 299] {
            let exact = top_k_similar_scalar(&reps, q, 10, metric);
            let full = index.query_row(q, 10, index.n_cells());
            assert_eq!(exact.len(), full.len());
            for (e, f) in exact.iter().zip(&full) {
                assert_eq!(e.0, f.0, "{metric:?} q={q}");
                assert_eq!(e.1.to_bits(), f.1.to_bits(), "{metric:?} q={q}");
            }
        }
    }
}

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

/// The hlm-par fan-out over probed cells is bit-identical at any thread
/// count (the PR-3 contract), even with the parallelism threshold forced
/// to zero so the pool genuinely engages.
#[test]
fn scan_fan_out_is_thread_count_independent() {
    let reps = blob_matrix(2_000, 8, 16, 5);
    let index = ClusteredIndex::build(reps, 16, DistanceMetric::Cosine, 3).expect("valid");
    hlm_par::set_par_threshold(Some(0));
    hlm_par::set_threads(1);
    let serial: Vec<_> = (0..20).map(|q| index.query_row(q * 97, 10, 16)).collect();
    hlm_par::set_threads(4);
    let parallel: Vec<_> = (0..20).map(|q| index.query_row(q * 97, 10, 16)).collect();
    hlm_par::set_threads(0);
    hlm_par::set_par_threshold(None);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.len(), p.len());
        for (a, b) in s.iter().zip(p) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
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

/// `recall_at_k_many` must agree with the one-width diagnostic while
/// computing the exact set once, and both must keep the NaN-on-empty
/// contract.
#[test]
fn recall_diagnostics_agree_across_forms() {
    let reps = blob_matrix(600, 8, 8, 77);
    let index = ClusteredIndex::build(reps, 8, DistanceMetric::Cosine, 2).expect("valid");
    let queries: Vec<usize> = (0..600).step_by(23).collect();
    let many = index.recall_at_k_many(&queries, 10, &[1, 4, 8]);
    assert_eq!(many[0], index.recall_at_k(&queries, 10, 1));
    assert_eq!(many[1], index.recall_at_k(&queries, 10, 4));
    assert!((many[2] - 1.0).abs() < 1e-12, "full probe is exact");
    assert!(
        index.recall_at_k(&[], 10, 1).is_nan(),
        "NaN on empty queries"
    );
}
