//! Small numeric helpers shared by every workload: percentiles, the metric
//! table a run reports, and the anchor hash used as a determinism canary.

use std::collections::BTreeMap;

/// Stand-in for an infinite latency in the printed JSON (JSON has no
/// infinity): a percentile that lands on a failed request reads as this many
/// milliseconds, so it misses any latency limit.
pub const MISS_MS: f64 = 1e9;

/// Nearest-rank percentile (`p` in 0..=1) of an ascending slice; NaN when
/// empty.  Failed requests enter as `f64::INFINITY` and sort last.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending (NaN-free input) and returns it.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    values
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Named metric values with their units, in name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, (f64, String)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: impl Into<String>) {
        self.0.insert(name.into(), (value, unit.into()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    pub fn get_with_unit(&self, name: &str) -> Option<(f64, &str)> {
        self.0.get(name).map(|(v, u)| (*v, u.as_str()))
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    /// Removes and returns the metrics whose names start with `prefix`.
    pub fn take_prefix(&mut self, prefix: &str) -> Metrics {
        let names: Vec<String> = self
            .0
            .keys()
            .filter(|n| n.starts_with(prefix))
            .cloned()
            .collect();
        Metrics(
            names
                .into_iter()
                .filter_map(|n| self.0.remove_entry(&n))
                .collect(),
        )
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// Renders `{"name": {"value": v, "unit": "u"}, ...}` with every digit
    /// of each value (shortest round-trip form).  A non-finite value — a
    /// percentile over failed requests — prints as [`MISS_MS`].
    pub fn to_json(&self) -> String {
        let members: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { MISS_MS };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", members.join(", "))
    }
}

/// `(steal, total)` CPU ticks of the whole machine from `/proc/stat`; `None`
/// where there is no procfs.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// FNV-1a over a sequence of `u64` words — the anchor hash.
pub fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// splitmix64: derives independent sub-seeds from the run seed.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn failures_sort_last_and_print_as_misses() {
        let v = sorted(vec![3.0, f64::INFINITY, 1.0, 2.0]);
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert!(percentile(&v, 0.99).is_infinite());
        let mut m = Metrics::default();
        m.set("warm_p99_ms", f64::INFINITY, "ms");
        m.set("a", 0.1, "s");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 0.1, \"unit\": \"s\"}, \
             \"warm_p99_ms\": {\"value\": 1000000000.0, \"unit\": \"ms\"}}"
        );
    }

    #[test]
    fn anchor_hash_sees_order_and_values() {
        let a = fnv1a_words([1, 2, 3]);
        assert_eq!(a, fnv1a_words([1, 2, 3]));
        assert_ne!(a, fnv1a_words([1, 3, 2]));
        assert_ne!(a, fnv1a_words([1, 2, 4]));
    }

    #[test]
    fn sub_seeds_differ_per_stream_and_seed() {
        assert_ne!(mix_seed(1, 0), mix_seed(1, 1));
        assert_ne!(mix_seed(1, 0), mix_seed(2, 0));
        assert_eq!(mix_seed(7, 3), mix_seed(7, 3));
    }
}
