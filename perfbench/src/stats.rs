//! Small statistics helpers: quantiles, medians and means.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by nearest rank; `NaN` for
/// an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Requests (or calls) per slice of a tail-latency estimate.
pub const TAIL_SLICE: usize = 250;

/// The median, over consecutive `TAIL_SLICE`-sample slices of
/// `values` (in recording order), of each slice's `q`-quantile: the tail
/// of a typical quarter second, which the multi-millisecond stalls a
/// shared host imposes now and then cannot move. Fewer samples than one
/// slice give the plain quantile.
pub fn sliced_quantile(values: &[f64], q: f64) -> f64 {
    if values.len() < TAIL_SLICE {
        return quantile(values, q);
    }
    let tails: Vec<f64> = values
        .chunks_exact(TAIL_SLICE)
        .map(|slice| quantile(slice, q))
        .collect();
    median(&tails)
}

/// The median of `values`; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values`; `NaN` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The mean of the middle half of `values` (a quarter of them dropped
/// from each end): averages over the placements a run's rounds drew,
/// without letting one disturbed round move it. `NaN` for an empty
/// slice.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    mean(&sorted[cut..sorted.len() - cut])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.99), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[100.0, 2.0, 3.0, -50.0]), 2.5);
        assert_eq!(interquartile_mean(&[4.0]), 4.0);
    }
}
