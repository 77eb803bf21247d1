//! Out-of-core training: an on-disk [`StoreReader`] as a source for the one
//! loop in [`crate::trainer`] ([`crate::Trainer::train_store`]).
//!
//! The store source differs from the in-memory one in two answers, and only
//! those:
//!
//! * **Order — the target list is the store itself.** Every stored triple is
//!   a training target, addressed by its record index. Shuffling a
//!   ten-million-element index vector per epoch would cost 80 MB, so the
//!   epoch order comes from a seeded *format-preserving permutation*
//!   (`IndexPermutation`: a four-round Feistel network over the smallest
//!   even-bit domain covering the index range, cycle-walked back into
//!   `[0, n)`). O(1) memory, deterministic in `(seed, epoch)`, and every
//!   index appears exactly once per epoch.
//! * **Pin — adjacency is loaded per score.** Before each of a sample's two
//!   scores the source pins the [`crate::ScoringModel::context_radius`]-hop
//!   neighbourhood of that triple's endpoints into the worker thread's
//!   recycled view ([`with_thread_view`]), so `score_on_tape` sees exactly
//!   the subgraph it would have read from an in-memory CSR. Peak memory is
//!   bounded by the pinned neighbourhood, the block cache and the model —
//!   never by graph size. Negatives are filtered against the reader, which
//!   needs no pin.
//!
//! Everything else — batching, per-sample RNG keying, the ordered fold, Adam,
//! validation, early stopping, checkpoints and resume, every
//! [`crate::DivergencePolicy`], [`crate::TrainEvent`]s — is the loop's, so it
//! cannot differ: store-backed training is bit-identical across thread
//! counts, resumes bit-identically after a crash, and equals in-memory
//! training over the same triples in the same order (a unit test below pins
//! the last, `tests/{parallel_determinism,crash_resume}.rs` the others). A
//! store read that fails in a worker panics with the store's error and so
//! fails that batch ([`crate::TrainEvent::BatchFailed`]), not the run.

use crate::trainer::{trainer_metrics, TrainSource};
use rand::rngs::StdRng;
use rmpi_kg::{GraphAccess, Triple};
use rmpi_store::{with_thread_view, StoreReader};
use rmpi_subgraph::NegativeSampler;
use std::time::Instant;

/// SplitMix64 finaliser: the Feistel round function's mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded bijection on `[0, n)` in O(1) memory: a balanced four-round
/// Feistel network over `[0, 2^(2h))` (the smallest even-bit domain covering
/// `n`, so at most `4n`), cycle-walked until the image lands below `n`.
/// Four rounds of a keyed PRF make the permutation indistinguishable from
/// random for shuffling purposes; cycle-walking terminates because the walk
/// stays inside one cycle of a finite permutation that contains its in-range
/// starting point.
#[derive(Clone, Copy, Debug)]
pub(crate) struct IndexPermutation {
    n: u64,
    half_bits: u32,
    half_mask: u64,
    keys: [u64; 4],
}

impl IndexPermutation {
    /// The permutation of `[0, n)` selected by `seed`. `n` must be positive.
    pub(crate) fn new(n: u64, seed: u64) -> Self {
        assert!(n > 0, "empty index range");
        let bits = (64 - (n.max(2) - 1).leading_zeros()).max(2);
        let half_bits = bits.div_ceil(2);
        let mut keys = [0u64; 4];
        let mut s = seed;
        for k in &mut keys {
            s = splitmix64(s);
            *k = s;
        }
        IndexPermutation { n, half_bits, half_mask: (1u64 << half_bits) - 1, keys }
    }

    /// Where index `i` lands; `i` must be below `n`.
    pub(crate) fn apply(&self, i: u64) -> u64 {
        debug_assert!(i < self.n, "index {i} outside [0, {})", self.n);
        let mut x = i;
        loop {
            x = self.feistel(x);
            if x < self.n {
                return x;
            }
        }
    }

    fn feistel(&self, x: u64) -> u64 {
        let mut l = x >> self.half_bits;
        let mut r = x & self.half_mask;
        for &k in &self.keys {
            let f = splitmix64(r ^ k) & self.half_mask;
            (l, r) = (r, l ^ f);
        }
        (l << self.half_bits) | r
    }
}

impl TrainSource for StoreReader {
    type Order = IndexPermutation;

    fn num_targets(&self) -> usize {
        self.num_triples()
    }

    fn epoch_order(&self, seed: u64) -> IndexPermutation {
        IndexPermutation::new(self.num_triples() as u64, seed)
    }

    fn target(&self, order: &IndexPermutation, pos: usize) -> Triple {
        self.triple_at(order.apply(pos as u64))
            .unwrap_or_else(|e| panic!("store read failed (target): {e}"))
    }

    fn sampler(&self) -> NegativeSampler {
        NegativeSampler::from_pool(self.present_entities())
    }

    fn corrupt(&self, sampler: &NegativeSampler, pos: Triple, rng: &mut StdRng) -> Triple {
        // membership tests go to the reader, whatever is pinned — here, nothing
        with_thread_view(self, |view| sampler.corrupt(pos, &*view, rng))
    }

    fn with_graph<R>(
        &self,
        target: Triple,
        radius: usize,
        f: impl FnOnce(&dyn GraphAccess) -> R,
    ) -> R {
        with_thread_view(self, |view| {
            let pin_start = Instant::now();
            view.pin(target.head, target.tail, radius)
                .unwrap_or_else(|e| panic!("store read failed (pin): {e}"));
            trainer_metrics().pin.record_duration(pin_start.elapsed());
            f(&*view)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RmpiConfig;
    use crate::model::RmpiModel;
    use crate::test_common::{tiny_data, tiny_store};
    use crate::traits::ScoringModel;
    use crate::{TrainConfig, Trainer};
    use rmpi_autograd::ParamStore;

    #[test]
    fn index_permutation_is_a_bijection() {
        for n in [1u64, 2, 3, 7, 64, 100, 1000] {
            for seed in [0u64, 1, 42] {
                let perm = IndexPermutation::new(n, seed);
                let mut image: Vec<u64> = (0..n).map(|i| perm.apply(i)).collect();
                image.sort_unstable();
                assert!(image.iter().copied().eq(0..n), "n={n} seed={seed}");
            }
        }
        // Different seeds give different orders (n big enough to collide
        // only with negligible probability).
        let a: Vec<u64> = (0..100).map(|i| IndexPermutation::new(100, 1).apply(i)).collect();
        let b: Vec<u64> = (0..100).map(|i| IndexPermutation::new(100, 2).apply(i)).collect();
        assert_ne!(a, b);
    }

    fn params_of<M: ScoringModel>(model: &M) -> Vec<(String, Vec<f32>)> {
        let store: &ParamStore = model.param_store();
        store.ids().map(|id| (store.name(id).to_owned(), store.value(id).data().to_vec())).collect()
    }

    #[test]
    fn streaming_training_is_thread_count_invariant_and_learns() {
        let (_, _, valid) = tiny_data();
        let (dir, reader) = tiny_store("threads");
        let cfg = TrainConfig {
            epochs: 3,
            max_samples_per_epoch: 120,
            max_valid_samples: 60,
            patience: 0,
            seed: 7,
            threads: 1,
            ..Default::default()
        };
        let mk = || {
            RmpiModel::new(RmpiConfig { dim: 12, edge_dropout: 0.2, ..Default::default() }, 8, 0)
        };

        let mut m1 = mk();
        let r1 = Trainer::new(cfg).train_store(&mut m1, &reader, &valid);
        let mut m4 = mk();
        let r4 =
            Trainer::new(TrainConfig { threads: 4, ..cfg }).train_store(&mut m4, &reader, &valid);

        assert_eq!(r1.epoch_losses, r4.epoch_losses, "losses must be bit-identical");
        assert_eq!(r1.valid_accuracy, r4.valid_accuracy);
        assert_eq!(params_of(&m1), params_of(&m4), "params must be bit-identical");
        assert!(
            r1.epoch_losses.last().unwrap() < r1.epoch_losses.first().unwrap(),
            "loss should drop: {:?}",
            r1.epoch_losses
        );
        assert!(r1.best_accuracy() > 0.5, "accuracy {:?}", r1.valid_accuracy);
        assert_eq!(r1.skipped_batches, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
