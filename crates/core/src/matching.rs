//! One-to-one matching extraction from an alignment matrix.
//!
//! The paper predicts, for every source node, the highest-scoring target node
//! (a many-to-one rule, Section IV-E).  Downstream applications often need a
//! *one-to-one* correspondence instead — every target node used at most once.
//! [`greedy_matching`] (and [`greedy_matching_topk`] for the `Large` tier's
//! top-k artifact) sorts all pairs by score and accepts greedily: simple and
//! `O(n_s · n_t · log)`, but it can be locally sub-optimal.  Both return
//! source-indexed assignments compatible with
//! [`crate::pipeline::HtcResult::alignment`].

use crate::topk::TopKRows;
use htc_linalg::DenseMatrix;

/// A one-to-one (partial) matching: `target_of[s]` is the target assigned to
/// source `s`, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct Matching {
    target_of: Vec<Option<usize>>,
    total_score: f64,
}

impl Matching {
    /// The target matched to source `s`, if any.
    pub fn target_of(&self, s: usize) -> Option<usize> {
        self.target_of.get(s).copied().flatten()
    }

    /// Iterates over all matched `(source, target)` pairs.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.target_of
            .iter()
            .enumerate()
            .filter_map(|(s, t)| t.map(|t| (s, t)))
    }

    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.target_of.iter().filter(|t| t.is_some()).count()
    }

    /// True when no pair is matched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of the alignment scores of the matched pairs.
    pub fn total_score(&self) -> f64 {
        self.total_score
    }

    /// Fraction of matched pairs that agree with `ground_truth`
    /// (`target_of[s] == truth[s]`), measured over the ground-truth anchors.
    pub fn accuracy_against(&self, ground_truth: &htc_graph::perturb::GroundTruth) -> f64 {
        let anchors: Vec<(usize, usize)> = ground_truth.anchors().collect();
        if anchors.is_empty() {
            return 0.0;
        }
        let correct = anchors
            .iter()
            .filter(|&&(s, t)| self.target_of(s) == Some(t))
            .count();
        correct as f64 / anchors.len() as f64
    }
}

/// Greedy maximum-weight matching: repeatedly accept the highest-scoring
/// remaining pair whose source and target are both unmatched.
pub fn greedy_matching(alignment: &DenseMatrix) -> Matching {
    let (ns, nt) = alignment.shape();
    let mut pairs: Vec<(usize, usize, f64)> = Vec::with_capacity(ns * nt);
    for s in 0..ns {
        for (t, &v) in alignment.row(s).iter().enumerate() {
            pairs.push((s, t, v));
        }
    }
    pairs.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
    let mut target_of = vec![None; ns];
    let mut used_target = vec![false; nt];
    let mut used_source = vec![false; ns];
    let mut total = 0.0;
    let mut matched = 0usize;
    let max_pairs = ns.min(nt);
    for (s, t, v) in pairs {
        if matched == max_pairs {
            break;
        }
        if used_source[s] || used_target[t] {
            continue;
        }
        used_source[s] = true;
        used_target[t] = true;
        target_of[s] = Some(t);
        total += v;
        matched += 1;
    }
    Matching {
        target_of,
        total_score: total,
    }
}

/// Greedy maximum-weight matching over a [`TopKRows`] candidate artifact —
/// the `Large`-tier matcher.  Identical policy to [`greedy_matching`]
/// (accept the highest-scoring remaining pair whose endpoints are free) but
/// it only ever considers the O(n_s · k) retained candidates instead of
/// materialising all n_s · n_t pairs.  Sources whose entire candidate list is
/// taken by better-scoring rows stay unmatched — with dense input (k ≥ n_t)
/// they would have been pushed onto some leftover target; at scale that
/// fallback is exactly the kind of noise-floor assignment the retention is
/// meant to drop.
pub fn greedy_matching_topk(candidates: &TopKRows) -> Matching {
    let (ns, nt) = candidates.shape();
    let mut pairs: Vec<(usize, usize, f64)> = Vec::with_capacity(candidates.num_candidates());
    for s in 0..ns {
        for (t, v) in candidates.row(s) {
            pairs.push((s, t, v));
        }
    }
    // Stable sort over row-major candidate order: equal scores resolve
    // towards the lower (source, candidate-rank) pair, deterministically.
    pairs.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
    let mut target_of = vec![None; ns];
    let mut used_target = vec![false; nt];
    let mut used_source = vec![false; ns];
    let mut total = 0.0;
    let mut matched = 0usize;
    let max_pairs = ns.min(nt);
    for (s, t, v) in pairs {
        if matched == max_pairs {
            break;
        }
        if used_source[s] || used_target[t] {
            continue;
        }
        used_source[s] = true;
        used_target[t] = true;
        target_of[s] = Some(t);
        total += v;
        matched += 1;
    }
    Matching {
        target_of,
        total_score: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htc_graph::perturb::GroundTruth;
    use proptest::prelude::*;

    fn square(data: Vec<f64>) -> DenseMatrix {
        let n = (data.len() as f64).sqrt() as usize;
        DenseMatrix::from_vec(n, n, data).unwrap()
    }

    #[test]
    fn greedy_picks_obvious_assignment() {
        let m = square(vec![0.9, 0.1, 0.2, 0.8]);
        let matching = greedy_matching(&m);
        assert_eq!(matching.target_of(0), Some(0));
        assert_eq!(matching.target_of(1), Some(1));
        assert_eq!(matching.len(), 2);
        assert!((matching.total_score() - 1.7).abs() < 1e-12);
    }

    #[test]
    fn greedy_is_one_to_one_on_rectangular_matrices() {
        let m = DenseMatrix::from_vec(3, 2, vec![0.9, 0.8, 0.7, 0.6, 0.5, 0.4]).unwrap();
        let matching = greedy_matching(&m);
        assert_eq!(matching.len(), 2);
        let targets: Vec<usize> = matching.pairs().map(|(_, t)| t).collect();
        let mut dedup = targets.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), targets.len());
    }

    #[test]
    fn accuracy_against_partial_ground_truth() {
        let m = square(vec![1.0, 0.0, 0.0, 1.0]);
        let matching = greedy_matching(&m);
        let gt = GroundTruth::new(vec![Some(0), Some(0)]);
        assert_eq!(matching.accuracy_against(&gt), 0.5);
        assert_eq!(
            matching.accuracy_against(&GroundTruth::new(vec![None, None])),
            0.0
        );
    }

    #[test]
    fn topk_greedy_matches_dense_greedy_when_k_covers_all() {
        use crate::topk::TopKRowsBuilder;
        let m =
            DenseMatrix::from_vec(3, 3, vec![0.9, 0.1, 0.2, 0.8, 0.7, 0.3, 0.1, 0.6, 0.5]).unwrap();
        let mut builder = TopKRowsBuilder::new(3, 3);
        for r in 0..3 {
            builder.push_row(m.row(r));
        }
        let topk = builder.finish();
        let dense = greedy_matching(&m);
        let sparse = greedy_matching_topk(&topk);
        let dense_pairs: Vec<_> = dense.pairs().collect();
        let sparse_pairs: Vec<_> = sparse.pairs().collect();
        assert_eq!(dense_pairs, sparse_pairs);
        assert!((dense.total_score() - sparse.total_score()).abs() < 1e-12);
    }

    #[test]
    fn topk_greedy_is_one_to_one_under_truncation() {
        use crate::topk::TopKRowsBuilder;
        // Both sources retain only target 0; greedy gives it to the higher
        // score and leaves the other source unmatched (no dense fallback).
        let mut builder = TopKRowsBuilder::new(3, 1);
        builder.push_row(&[0.9, 0.0, 0.0]);
        builder.push_row(&[0.8, 0.0, 0.0]);
        let matching = greedy_matching_topk(&builder.finish());
        assert_eq!(matching.target_of(0), Some(0));
        assert_eq!(matching.target_of(1), None);
        assert_eq!(matching.len(), 1);
    }

    #[test]
    fn empty_matrices_are_handled() {
        let empty = DenseMatrix::zeros(0, 0);
        assert!(greedy_matching(&empty).is_empty());
        let no_targets = DenseMatrix::zeros(3, 0);
        assert!(greedy_matching(&no_targets).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Property: greedy extraction returns a one-to-one matching.
        #[test]
        fn greedy_matchings_are_one_to_one(
            seed in 0u64..1000, ns in 1usize..8, nt in 1usize..8
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let data: Vec<f64> = (0..ns * nt).map(|_| rng.gen_range(0.0..1.0)).collect();
            let m = DenseMatrix::from_vec(ns, nt, data).unwrap();
            let matching = greedy_matching(&m);
            let mut targets: Vec<usize> = matching.pairs().map(|(_, t)| t).collect();
            let before = targets.len();
            targets.sort_unstable();
            targets.dedup();
            prop_assert_eq!(targets.len(), before);
            prop_assert!(matching.len() <= ns.min(nt));
        }
    }
}
