//! Candidate sharding and exact top-k merging.
//!
//! The router's correctness argument lives here, and it is short:
//!
//! 1. Served scores are **bit-identical** to offline scoring (the engine's
//!    determinism contract), so which replica scores a candidate cannot
//!    change its score.
//! 2. [`shard_slices`] partitions the candidate list into disjoint,
//!    covering, contiguous slices — every candidate is scored exactly once.
//! 3. [`merge_ranked`] orders `(entity, score)` pairs with **the
//!    comparator** the serving engine's `RANK` uses — the same function, not
//!    a copy (descending score, ties toward the smaller entity id) — and
//!    truncates to `k`.
//!
//! Therefore the merged top-k over any set of scored slices is bit-identical
//! to ranking the union of those slices in one place. When a shard is lost,
//! the merge over the survivors is exactly the offline ranking of the
//! surviving candidate subset — no wrong entries, no duplicates.

use rmpi_serve::rank_top_k;

/// Split `candidates` into `n` contiguous slices whose lengths differ by at
/// most one (the first `len % n` slices carry the extra element). Slices are
/// disjoint and cover the input in order; with fewer candidates than shards
/// the tail slices are empty.
pub fn shard_slices(candidates: &[u32], n: usize) -> Vec<&[u32]> {
    assert!(n > 0, "at least one shard");
    let base = candidates.len() / n;
    let extra = candidates.len() % n;
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let len = base + usize::from(i < extra);
        out.push(&candidates[start..start + len]);
        start += len;
    }
    out
}

/// Order `(entity, score)` pairs best-first and truncate to `k` — a call to
/// the serving engine's own [`rank_top_k`], so the merge cannot drift from
/// a replica's `RANK`: `NaN` scores (which the engine never serves, so they
/// can only be a damaged shard reply) are dropped, then descending score
/// under `f32::total_cmp`, ties toward the smaller entity id.
pub fn merge_ranked(entries: Vec<(u32, f32)>, k: usize) -> Vec<(u32, f32)> {
    rank_top_k(entries, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_are_disjoint_covering_and_balanced() {
        for len in [0usize, 1, 5, 8, 24, 97] {
            for n in [1usize, 2, 3, 7, 16] {
                let candidates: Vec<u32> = (0..len as u32).collect();
                let slices = shard_slices(&candidates, n);
                assert_eq!(slices.len(), n);
                let flat: Vec<u32> = slices.iter().flat_map(|s| s.iter().copied()).collect();
                assert_eq!(flat, candidates, "cover in order (len={len}, n={n})");
                let (min, max) = slices
                    .iter()
                    .fold((usize::MAX, 0), |(lo, hi), s| (lo.min(s.len()), hi.max(s.len())));
                assert!(max - min <= 1, "balanced within one (len={len}, n={n})");
            }
        }
    }

    #[test]
    fn merge_matches_a_single_global_sort() {
        let entries =
            vec![(3u32, 0.5f32), (1, 0.75), (9, 0.5), (0, -1.0), (7, 2.5), (4, 0.75), (2, 0.5)];
        let merged = merge_ranked(entries.clone(), 4);
        // ties at 0.75 and 0.5 break toward the smaller id
        assert_eq!(merged, vec![(7, 2.5), (1, 0.75), (4, 0.75), (2, 0.5)]);
        // truncation only ever drops the tail of the full ordering
        let full = merge_ranked(entries, usize::MAX);
        assert_eq!(full[..4], merged[..]);
    }

    /// Regression: `sort_by` on Rust >= 1.81 may panic when the comparator
    /// is not a total order, which NaN-compares-Equal is not (NaN ties by
    /// id while numbers order by score — transitivity breaks). Damaged
    /// replies must be dropped, never sorted.
    #[test]
    fn nan_scores_from_a_damaged_reply_are_dropped_without_panicking() {
        let entries = vec![
            (0u32, f32::NAN),
            (1, 1.5f32),
            (2, f32::NAN),
            (3, -0.5),
            (4, 1.5),
            (5, f32::NAN),
            (6, f32::NEG_INFINITY),
        ];
        let merged = merge_ranked(entries, usize::MAX);
        assert_eq!(merged, vec![(1, 1.5), (4, 1.5), (3, -0.5), (6, f32::NEG_INFINITY)]);
    }

    /// The router's merge and the engine's `RANK` are one comparator: over
    /// `NaN`, signed zeros and infinities both produce the same total order.
    #[test]
    fn merge_agrees_with_the_engine_comparator_on_nan_signed_zero_and_infinities() {
        use rmpi_kg::EntityId;
        let scores =
            [f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, 1.5, -f32::NAN, 0.0, 1.5];
        let entries: Vec<(u32, f32)> = (0u32..).zip(scores).collect();
        let merged = merge_ranked(entries.clone(), usize::MAX);
        let bits = |ranked: &[(u32, f32)]| -> Vec<(u32, u32)> {
            ranked.iter().map(|&(e, s)| (e, s.to_bits())).collect()
        };
        // +0.0 ranks above -0.0 (`total_cmp`), equal scores by ascending id
        let expected = [
            (3, f32::INFINITY),
            (5, 1.5),
            (8, 1.5),
            (1, 0.0),
            (7, 0.0),
            (2, -0.0),
            (4, f32::NEG_INFINITY),
        ];
        assert_eq!(bits(&merged), bits(&expected));
        let engine_side =
            rank_top_k(entries.iter().map(|&(e, s)| (EntityId(e), s)).collect(), usize::MAX);
        let engine_side: Vec<(u32, f32)> = engine_side.into_iter().map(|(e, s)| (e.0, s)).collect();
        assert_eq!(bits(&engine_side), bits(&merged));
        assert_eq!(bits(&merge_ranked(entries, 3)), bits(&expected[..3]));
    }

    #[test]
    fn merge_of_shard_parts_equals_merge_of_the_union() {
        let all: Vec<(u32, f32)> =
            (0..30u32).map(|e| (e, ((e * 7919) % 13) as f32 * 0.25)).collect();
        let ids: Vec<u32> = all.iter().map(|&(e, _)| e).collect();
        for n in [1usize, 2, 3, 5] {
            let slices = shard_slices(&ids, n);
            let mut scattered = Vec::new();
            for slice in slices {
                // each shard contributes its slice's pairs in its own order
                let mut part: Vec<(u32, f32)> = slice.iter().map(|&e| all[e as usize]).collect();
                part.reverse();
                scattered.extend(part);
            }
            assert_eq!(
                merge_ranked(scattered, 10),
                merge_ranked(all.clone(), 10),
                "scatter order must not matter (n={n})"
            );
        }
    }
}
