//! Output checks: every 200 body is parsed and validated against the
//! corpus, and a reference model built in-process from the same inputs
//! gives the exact f64 neighbours the server's answers are scored against.

use hlm_corpus::{CompanyId, Corpus};
use hlm_lda::LdaModel;
use serde::Value;

use crate::inputs::{Op, K};

/// Member `key` of a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A JSON number as `f64`.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    let member = field(v, key);
    member
        .and_then(as_f64)
        .ok_or_else(|| format!("{key}: expected a number, got {member:?}"))
}

/// The `generation` an answer reports.
pub fn generation(body: &[u8]) -> Option<u64> {
    let v: Value = serde_json::from_str(std::str::from_utf8(body).ok()?).ok()?;
    num(&v, "generation").ok().map(|g| g as u64)
}

fn list<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match field(v, key) {
        Some(Value::Seq(items)) => Ok(items),
        other => Err(format!("{key}: expected a list, got {other:?}")),
    }
}

/// A similar-companies answer: `(id, distance)` in rank order.
pub type Neighbours = Vec<(u32, f64)>;

/// Generation window a response must fall in: at least the generation of
/// the last swap answered before the request was sent, at most that of the
/// last swap sent before its answer arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenWindow {
    /// Lowest acceptable generation.
    pub lo: u64,
    /// Highest acceptable generation.
    pub hi: u64,
}

/// Why a 200 answer does not count as a success.
#[derive(Debug, Clone, PartialEq)]
pub enum Fail {
    /// The recommender fell back to its degraded path (the reason given):
    /// a failed request, but a well-formed answer.
    Degraded(String),
    /// The body is wrong: an output check failed.
    Invalid(String),
    /// A status other than 200 (0: the transport failed): a failed request.
    Status(u16),
}

impl From<String> for Fail {
    fn from(msg: String) -> Self {
        Fail::Invalid(msg)
    }
}

impl From<&str> for Fail {
    fn from(msg: &str) -> Self {
        Fail::Invalid(msg.to_string())
    }
}

/// Validates one 200 body for `op` about `company`. Returns the neighbours
/// of a similar answer (empty for other kinds).
pub fn validate(
    op: Op,
    company: u32,
    body: &[u8],
    corpus: &Corpus,
    generation: GenWindow,
) -> Result<Neighbours, Fail> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    let v: Value = serde_json::from_str(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let n = corpus.len();
    let m = corpus.vocab().len();
    if op == Op::Swap {
        return Ok(num(&v, "generation").map(|_| Vec::new())?);
    }
    let g = num(&v, "generation")? as u64;
    if g < generation.lo || g > generation.hi {
        return Err(Fail::Invalid(format!(
            "generation {g} outside [{}, {}]",
            generation.lo, generation.hi
        )));
    }
    match op {
        Op::Similar => {
            if num(&v, "query")? as u32 != company || num(&v, "k")? as usize != K {
                return Err("query or k does not echo the request".into());
            }
            let results = list(&v, "results")?;
            if results.len() != K.min(n - 1) {
                return Err(Fail::Invalid(format!(
                    "{} results, expected {K}",
                    results.len()
                )));
            }
            let mut out = Vec::with_capacity(results.len());
            for r in results {
                let id = num(r, "id")?;
                let d = num(r, "distance")?;
                if id < 0.0 || id >= n as f64 || id.fract() != 0.0 {
                    return Err(Fail::Invalid(format!("id {id} out of range")));
                }
                let id = id as u32;
                if id == company {
                    return Err("query company returned as its own neighbour".into());
                }
                if !d.is_finite() || out.last().is_some_and(|&(_, prev)| d < prev) {
                    return Err(Fail::Invalid(format!(
                        "distance {d} not finite and ascending"
                    )));
                }
                if out.iter().any(|&(seen, _)| seen == id) {
                    return Err(Fail::Invalid(format!("id {id} repeated")));
                }
                out.push((id, d));
            }
            Ok(out)
        }
        Op::Whitespace => {
            if num(&v, "query")? as u32 != company || num(&v, "k")? as usize != K {
                return Err("query or k does not echo the request".into());
            }
            let owned = corpus.company(CompanyId(company)).product_set();
            let mut prev = f64::INFINITY;
            let mut seen = vec![false; m];
            for r in list(&v, "results")? {
                let p = num(r, "product")? as usize;
                let score = num(r, "score")?;
                let owners = num(r, "owners")?;
                if p >= m || seen[p] || owned.iter().any(|o| o.index() == p) {
                    return Err(Fail::Invalid(format!(
                        "product {p} out of range, repeated or owned"
                    )));
                }
                seen[p] = true;
                if !(score.is_finite() && score > 0.0 && score <= 1.0 + 1e-12 && score <= prev) {
                    return Err(Fail::Invalid(format!(
                        "score {score} not in (0, 1] and descending"
                    )));
                }
                prev = score;
                if !(1.0..=K as f64).contains(&owners) {
                    return Err(Fail::Invalid(format!("owners {owners} outside 1..={K}")));
                }
            }
            Ok(Vec::new())
        }
        Op::Recommend => {
            match field(&v, "degraded") {
                Some(Value::Null) => {}
                other => return Err(Fail::Degraded(format!("{other:?}"))),
            }
            let top = list(&v, "top")?;
            if top.len() != K.min(m) {
                return Err(Fail::Invalid(format!(
                    "{} recommendations, expected {K}",
                    top.len()
                )));
            }
            let mut prev = f64::INFINITY;
            let mut seen = vec![false; m];
            for r in top {
                let p = num(r, "product")? as usize;
                let score = num(r, "score")?;
                if p >= m || seen[p] {
                    return Err(Fail::Invalid(format!(
                        "product {p} out of range or repeated"
                    )));
                }
                seen[p] = true;
                if !score.is_finite() || score > prev {
                    return Err(Fail::Invalid(format!(
                        "score {score} not finite and descending"
                    )));
                }
                prev = score;
            }
            Ok(Vec::new())
        }
        Op::Swap => unreachable!("handled above"),
    }
}

/// Cosine distance as the serving path defines it: `1 − clamp(cos)`, and
/// 1 when either vector is zero.
fn cosine_distance(a: &[f64], b: &[f64], na: f64, nb: f64) -> f64 {
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    1.0 - (dot / (na * nb)).clamp(-1.0, 1.0)
}

/// The exact f64 scan: every row scored against `query`, query excluded,
/// ordered by (distance, id). Returns all distances and the top `k`.
pub fn exact_scan(reps: &hlm_linalg::Matrix, query: usize, k: usize) -> (Vec<f64>, Neighbours) {
    let norm = |r: &[f64]| r.iter().map(|x| x * x).sum::<f64>().sqrt();
    let q = reps.row(query);
    let nq = norm(q);
    let dist: Vec<f64> = reps
        .iter_rows()
        .map(|r| cosine_distance(q, r, nq, norm(r)))
        .collect();
    let mut order: Vec<usize> = (0..dist.len()).filter(|&i| i != query).collect();
    order.sort_by(|&a, &b| dist[a].total_cmp(&dist[b]).then(a.cmp(&b)));
    let top = order
        .into_iter()
        .take(k)
        .map(|i| (i as u32, dist[i]))
        .collect();
    (dist, top)
}

/// Absolute slack under which two cosine distances count as tied.
const TIE: f64 = 1e-12;

/// Recall@k of `served` against the exact scan: an id counts when it is in
/// the exact top k or ties the k-th exact distance. Also checks that each
/// served distance equals the exact one for that id.
pub fn recall(
    reps: &hlm_linalg::Matrix,
    query: usize,
    served: &Neighbours,
) -> Result<(usize, usize), String> {
    let (dist, top) = exact_scan(reps, query, K);
    let kth = top.last().map_or(f64::INFINITY, |&(_, d)| d);
    let mut hits = 0;
    for &(id, d) in served {
        let exact = dist[id as usize];
        if (exact - d).abs() > 1e-9 {
            return Err(format!(
                "company {query}: served distance {d} to {id} differs from exact {exact}"
            ));
        }
        if top.iter().any(|&(t, _)| t == id) || exact <= kth + TIE {
            hits += 1;
        }
    }
    Ok((hits, top.len()))
}

/// Document-completion perplexity of `model` on held-out companies.
pub fn heldout_perplexity(model: &LdaModel, heldout: &Corpus) -> f64 {
    let ids: Vec<CompanyId> = heldout.ids().collect();
    let docs = hlm_core::representations::binary_docs(heldout, &ids);
    hlm_lda::document_completion_perplexity(model, &docs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;

    fn any_gen() -> GenWindow {
        GenWindow {
            lo: 0,
            hi: u64::MAX,
        }
    }

    #[test]
    fn similar_body_checks() {
        let corpus = inputs::corpus(50, 1);
        let results: Vec<String> = (1..=10)
            .map(|i| format!("{{\"id\":{i},\"distance\":0.{i:02}}}"))
            .collect();
        let body = format!(
            "{{\"query\":0,\"k\":10,\"generation\":2,\"model\":\"LDA3\",\"results\":[{}]}}",
            results.join(",")
        );
        let ok = validate(Op::Similar, 0, body.as_bytes(), &corpus, any_gen()).unwrap();
        assert_eq!(ok.len(), 10);
        assert_eq!(ok[0], (1, 0.01));
        // Wrong generation, wrong query, self-match.
        let window = GenWindow { lo: 3, hi: 3 };
        assert!(validate(Op::Similar, 0, body.as_bytes(), &corpus, window).is_err());
        assert!(validate(Op::Similar, 1, body.as_bytes(), &corpus, any_gen()).is_err());
        let selfish = body.replace("\"id\":1,", "\"id\":0,");
        assert!(validate(Op::Similar, 0, selfish.as_bytes(), &corpus, any_gen()).is_err());
        // Descending distances.
        let unordered = body.replace("0.01", "0.99");
        assert!(validate(Op::Similar, 0, unordered.as_bytes(), &corpus, any_gen()).is_err());
        assert!(validate(Op::Similar, 0, b"not json", &corpus, any_gen()).is_err());
    }

    #[test]
    fn degraded_recommendation_fails() {
        let corpus = inputs::corpus(20, 1);
        let top: Vec<String> = (0..10)
            .map(|p| format!("{{\"product\":{p},\"score\":{}}}", 1.0 - p as f64 / 20.0))
            .collect();
        let body = |deg: &str| {
            format!(
                "{{\"generation\":1,\"model\":\"LDA3\",\"degraded\":{deg},\"top\":[{}]}}",
                top.join(",")
            )
        };
        assert!(validate(
            Op::Recommend,
            0,
            body("null").as_bytes(),
            &corpus,
            any_gen()
        )
        .is_ok());
        let slow = body("\"primary missed its deadline\"");
        assert!(matches!(
            validate(Op::Recommend, 0, slow.as_bytes(), &corpus, any_gen()),
            Err(Fail::Degraded(why)) if why.contains("deadline")
        ));
    }

    #[test]
    fn exact_scan_and_recall_count_ties() {
        let reps = hlm_linalg::Matrix::from_rows(&[
            &[1.0, 0.0],
            &[1.0, 0.0],
            &[2.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 1.0],
        ]);
        let (_, top) = exact_scan(&reps, 0, 2);
        assert_eq!(top, vec![(1, 0.0), (2, 0.0)]);
        // Row 2 ties row 1 exactly, so either order is a full hit.
        let (dist, _) = exact_scan(&reps, 0, 10);
        let served = vec![(2, 0.0), (1, 0.0), (4, dist[4]), (3, dist[3])];
        assert_eq!(recall(&reps, 0, &served).unwrap().0, 4);
        let wrong = vec![(3, 0.0)];
        assert!(recall(&reps, 0, &wrong).is_err());
    }
}
