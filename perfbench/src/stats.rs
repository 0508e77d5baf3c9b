//! Order statistics over timing samples.

/// The `q`-quantile of `values` (0 ≤ q ≤ 1), interpolating linearly
/// between the two closest ranks of the sorted sample; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The median of `values`; NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::SplitMix64;

    #[test]
    fn quantile_agrees_with_a_sorted_reference() {
        let mut rng = SplitMix64::new(7);
        for n in [1usize, 2, 3, 10, 101, 1000] {
            let values: Vec<f64> = (0..n).map(|_| rng.next_f64() * 1e3).collect();
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            // At ranks that fall exactly on a sample the quantile is that
            // sample.
            for (i, &v) in sorted.iter().enumerate() {
                let q = if n == 1 { 0.5 } else { i as f64 / (n - 1) as f64 };
                let got = quantile(&values, q);
                assert!((got - v).abs() <= 1e-12 * v.abs().max(1.0), "n={n} i={i}: {got} vs {v}");
            }
            // Between ranks it lies between the neighbouring samples.
            for q in [0.01, 0.25, 0.5, 0.9, 0.99] {
                let v = quantile(&values, q);
                let lo = sorted[(q * (n - 1) as f64).floor() as usize];
                let hi = sorted[(q * (n - 1) as f64).ceil() as usize];
                assert!(lo <= v && v <= hi, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
