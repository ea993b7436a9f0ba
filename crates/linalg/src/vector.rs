//! Free functions over `&[f64]` slices: inner products, norms and the
//! distances used for company similarity (Equation 5 of the paper allows any
//! vector distance; the workspace uses Euclidean and cosine).

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "dot length mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    // Four independent accumulators break the serial add dependency chain
    // so the FPU pipelines; the fixed lane structure keeps results
    // deterministic for a given length.
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_b = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
        s0 += ca[0] * cb[0];
        s1 += ca[1] * cb[1];
        s2 += ca[2] * cb[2];
        s3 += ca[3] * cb[3];
    }
    let mut tail = 0.0;
    for (&x, &y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        tail += x * y;
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// In-place `a += alpha * b`.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn axpy(a: &mut [f64], alpha: f64, b: &[f64]) {
    assert_eq!(a.len(), b.len(), "axpy length mismatch");
    // 4-way unroll: each lane writes a distinct element, so unlike `dot`
    // there is no reassociation — results are identical to the naive loop.
    let mut chunks_a = a.chunks_exact_mut(4);
    let mut chunks_b = b.chunks_exact(4);
    for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
        ca[0] += alpha * cb[0];
        ca[1] += alpha * cb[1];
        ca[2] += alpha * cb[2];
        ca[3] += alpha * cb[3];
    }
    for (x, &y) in chunks_a
        .into_remainder()
        .iter_mut()
        .zip(chunks_b.remainder())
    {
        *x += alpha * y;
    }
}

/// In-place scaling `a *= alpha`.
#[inline]
pub fn scale(a: &mut [f64], alpha: f64) {
    a.iter_mut().for_each(|x| *x *= alpha);
}

/// Squared Euclidean distance.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn euclidean_distance_sq(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance length mismatch");
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance.
#[inline]
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
    euclidean_distance_sq(a, b).sqrt()
}

/// Cosine distance `1 - cos(a, b)`, in `[0, 2]`.
///
/// The distance between any vector and the zero vector is defined as 1
/// (maximal dissimilarity short of opposition), which keeps downstream
/// similarity search total over degenerate company representations.
#[inline]
pub fn cosine_distance(a: &[f64], b: &[f64]) -> f64 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    // Clamp to counter floating-point drift outside [-1, 1].
    let cos = (dot(a, b) / (na * nb)).clamp(-1.0, 1.0);
    1.0 - cos
}

/// Normalizes `a` to unit L2 norm in place; zero vectors are left unchanged.
#[inline]
pub fn normalize(a: &mut [f64]) {
    let n = norm(a);
    if n != 0.0 {
        scale(a, 1.0 / n);
    }
}

/// Arithmetic mean, or 0 for an empty slice.
#[inline]
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Index of the maximum element, or `None` for an empty slice.
///
/// NaN elements never win the comparison.
pub fn argmax(a: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &x) in a.iter().enumerate() {
        match best {
            Some((_, bx)) if x.partial_cmp(&bx) != Some(std::cmp::Ordering::Greater) => {}
            _ if x.is_nan() => {}
            _ => best = Some((i, x)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distances() {
        assert!((euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert!(cosine_distance(&[1.0, 0.0], &[0.0, 1.0]) - 1.0 < 1e-12);
        assert!((cosine_distance(&[1.0, 1.0], &[-1.0, -1.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_zero_vector_is_defined() {
        assert_eq!(cosine_distance(&[0.0, 0.0], &[1.0, 2.0]), 1.0);
        assert_eq!(cosine_distance(&[0.0], &[0.0]), 1.0);
    }

    #[test]
    fn normalize_unit() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((norm(&v) - 1.0).abs() < 1e-12);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn argmax_behaviour() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[1.0, 5.0, 3.0]), Some(1));
        assert_eq!(argmax(&[f64::NAN, 2.0]), Some(1));
        // Ties resolve to the first occurrence.
        assert_eq!(argmax(&[7.0, 7.0]), Some(0));
    }

    #[test]
    fn axpy_and_mean() {
        let mut a = vec![1.0, 2.0];
        axpy(&mut a, 2.0, &[1.0, 1.0]);
        assert_eq!(a, vec![3.0, 4.0]);
        assert_eq!(mean(&a), 3.5);
        assert_eq!(mean(&[]), 0.0);
    }

    proptest! {
        #[test]
        fn cosine_distance_in_range(a in prop::collection::vec(-10.0f64..10.0, 1..8)) {
            let b: Vec<f64> = a.iter().map(|x| x * 2.0 + 1.0).collect();
            let d = cosine_distance(&a, &b);
            prop_assert!((-1e-12..=2.0 + 1e-12).contains(&d));
        }

        #[test]
        fn self_cosine_distance_is_zero(a in prop::collection::vec(0.1f64..10.0, 1..8)) {
            prop_assert!(cosine_distance(&a, &a) < 1e-9);
        }

        #[test]
        fn triangle_inequality_euclidean(
            a in prop::collection::vec(-5.0f64..5.0, 3),
            b in prop::collection::vec(-5.0f64..5.0, 3),
            c in prop::collection::vec(-5.0f64..5.0, 3),
        ) {
            let ab = euclidean_distance(&a, &b);
            let bc = euclidean_distance(&b, &c);
            let ac = euclidean_distance(&a, &c);
            prop_assert!(ac <= ab + bc + 1e-9);
        }
    }
}
