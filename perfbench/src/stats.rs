//! Order statistics over measured samples.

/// The `q`-quantile (`0.0..=1.0`) of `values` by nearest rank on a
/// sorted copy; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[rank]
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_pick_nearest_rank() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(median(&v), 51.0);
        assert_eq!(quantile(&v, 0.9), 91.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 101.0);
        assert_eq!(median(&[]), 0.0);
    }
}
