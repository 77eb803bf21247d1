//! Ranking and classification metrics.

/// Area under the precision-recall curve, computed as average precision:
/// `AP = Σ_k P(k) · rel(k) / |positives|` over the score-descending ordering.
/// Ties are broken pessimistically (negatives first) so the metric never
/// benefits from degenerate constant scores.
pub fn average_precision(scored: &[(f32, bool)]) -> f64 {
    let num_pos = scored.iter().filter(|(_, l)| *l).count();
    if num_pos == 0 {
        return 0.0;
    }
    let mut sorted: Vec<(f32, bool)> = scored.to_vec();
    // descending by score; among ties, negatives first (pessimistic)
    sorted.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut hits = 0usize;
    let mut ap = 0.0f64;
    for (k, (_, label)) in sorted.iter().enumerate() {
        if *label {
            hits += 1;
            ap += hits as f64 / (k + 1) as f64;
        }
    }
    ap / num_pos as f64
}

/// Mean reciprocal rank of 1-based ranks.
pub fn mean_reciprocal_rank(ranks: &[usize]) -> f64 {
    if ranks.is_empty() {
        return 0.0;
    }
    ranks.iter().map(|&r| 1.0 / r as f64).sum::<f64>() / ranks.len() as f64
}

/// Fraction of 1-based ranks within the top `n`.
pub fn hits_at(ranks: &[usize], n: usize) -> f64 {
    if ranks.is_empty() {
        return 0.0;
    }
    ranks.iter().filter(|&&r| r <= n).count() as f64 / ranks.len() as f64
}

/// The 1-based rank of the ground truth among candidates: one plus the
/// number of strictly better candidates, plus half the ties (rounded up) —
/// the standard "random" tie-breaking estimate.
pub fn rank_of(gt_score: f32, candidate_scores: &[f32]) -> usize {
    let better = candidate_scores.iter().filter(|&&s| s > gt_score).count();
    let ties = candidate_scores.iter().filter(|&&s| s == gt_score).count();
    1 + better + ties.div_ceil(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ap_perfect_ranking_is_one() {
        let scored = vec![(0.9, true), (0.8, true), (0.3, false), (0.1, false)];
        assert!((average_precision(&scored) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ap_worst_ranking() {
        // positives at ranks 3 and 4: AP = (1/3 + 2/4)/2 = 5/12
        let scored = vec![(0.9, false), (0.8, false), (0.3, true), (0.1, true)];
        assert!((average_precision(&scored) - 5.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn ap_interleaved_hand_computed() {
        // order: + - + - : AP = (1/1 + 2/3)/2 = 5/6
        let scored = vec![(0.9, true), (0.8, false), (0.7, true), (0.6, false)];
        assert!((average_precision(&scored) - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn ap_ties_are_pessimistic() {
        // all same score: negatives ordered first
        let scored = vec![(0.5, true), (0.5, false), (0.5, false)];
        // ordering: -, -, + -> AP = 1/3
        assert!((average_precision(&scored) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ap_orders_nan_scores_totally_instead_of_inconsistently() {
        // `total_cmp` puts a positive NaN above every number: a diverged
        // model's NaN-scored negatives push the positive down, deterministically
        let scored: Vec<(f32, bool)> =
            (0..40).map(|i| (if i % 2 == 0 { f32::NAN } else { i as f32 }, i == 39)).collect();
        assert!((average_precision(&scored) - 1.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn ap_empty_and_no_positives() {
        assert_eq!(average_precision(&[]), 0.0);
        assert_eq!(average_precision(&[(0.3, false)]), 0.0);
    }

    #[test]
    fn mrr_values() {
        assert!((mean_reciprocal_rank(&[1, 2, 4]) - (1.0 + 0.5 + 0.25) / 3.0).abs() < 1e-12);
        assert_eq!(mean_reciprocal_rank(&[]), 0.0);
        assert_eq!(mean_reciprocal_rank(&[1, 1]), 1.0);
    }

    #[test]
    fn hits_values() {
        let ranks = [1, 5, 11, 50];
        assert_eq!(hits_at(&ranks, 10), 0.5);
        assert_eq!(hits_at(&ranks, 1), 0.25);
        assert_eq!(hits_at(&ranks, 100), 1.0);
        assert_eq!(hits_at(&[], 10), 0.0);
    }

    #[test]
    fn rank_of_counts_better_and_ties() {
        assert_eq!(rank_of(0.9, &[0.1, 0.2, 0.3]), 1);
        assert_eq!(rank_of(0.2, &[0.1, 0.5, 0.9]), 3);
        assert_eq!(rank_of(0.5, &[0.5, 0.5, 0.1]), 2); // 0 better + ceil(2/2)=1
        assert_eq!(rank_of(0.0, &[]), 1);
    }
}
