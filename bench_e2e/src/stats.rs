//! Summary statistics.

use std::collections::BTreeMap;

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The fastest sample of each piece of work a run repeats, by key (a
/// request input, a net's pipeline stage).
///
/// Of repeats of identical work, the fastest is the one least disturbed by
/// other work on the host.
#[derive(Debug, Clone)]
pub struct Fastest<K: Ord>(BTreeMap<K, f64>);

impl<K: Ord> Default for Fastest<K> {
    fn default() -> Self {
        Self(BTreeMap::new())
    }
}

impl<K: Ord> Fastest<K> {
    /// Records one sample of the work `key`.
    pub fn add(&mut self, key: K, sample: f64) {
        let best = self.0.entry(key).or_insert(f64::INFINITY);
        *best = best.min(sample);
    }

    /// The fastest sample of every key, in key order.
    pub fn values(&self) -> Vec<f64> {
        self.0.values().copied().collect()
    }

    /// Sum of the fastest samples over keys.
    pub fn sum(&self) -> f64 {
        self.0.values().sum()
    }

    /// Number of keys sampled.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// The mean sample of each piece of work a run repeats, by key.
#[derive(Debug, Clone)]
pub struct Mean<K: Ord>(BTreeMap<K, (f64, u64)>);

impl<K: Ord> Default for Mean<K> {
    fn default() -> Self {
        Self(BTreeMap::new())
    }
}

impl<K: Ord> Mean<K> {
    /// Records one sample of the work `key`.
    pub fn add(&mut self, key: K, sample: f64) {
        let (sum, n) = self.0.entry(key).or_insert((0.0, 0));
        *sum += sample;
        *n += 1;
    }

    /// The mean sample of every key, in key order.
    pub fn means(&self) -> impl Iterator<Item = (K, f64)> + '_
    where
        K: Copy,
    {
        self.0.iter().map(|(&k, &(sum, n))| (k, sum / n as f64))
    }

    /// Sum of the mean samples over keys.
    pub fn sum(&self) -> f64 {
        self.0.values().map(|&(sum, n)| sum / n as f64).sum()
    }

    /// Whether no key was sampled.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn fastest_keeps_each_keys_minimum() {
        let mut f = Fastest::default();
        f.add(2, 5.0);
        f.add(1, 3.0);
        f.add(2, 4.0);
        f.add(1, 6.0);
        assert_eq!(f.values(), vec![3.0, 4.0]);
        assert_eq!(f.sum(), 7.0);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn mean_sums_each_keys_mean() {
        let mut m = Mean::default();
        m.add(1, 2.0);
        m.add(1, 4.0);
        m.add(2, 5.0);
        assert_eq!(m.sum(), 8.0);
    }
}
