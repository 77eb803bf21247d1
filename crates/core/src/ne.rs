//! Disclosing-subgraph neighbourhood aggregation — the NE module
//! (paper §III-F, Eq. 13–14).
//!
//! When the enclosing subgraph is empty there is nothing for message passing
//! to reason over; the one-hop *disclosing* neighbourhood of the target
//! relation node still carries discriminative signal (e.g. the relations a
//! plausible head entity participates in). The module attends over the
//! *initial* embeddings of those neighbour relations.

use rand::rngs::StdRng;
use rmpi_autograd::{init, ParamId, ParamStore, Tape, Var};

/// The NE module's single linear transform `W^d`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct NeWeights {
    /// `(dim, dim)` transform applied to every node.
    pub(crate) wd: ParamId,
}

impl NeWeights {
    /// Register `W^d`.
    pub(crate) fn new(store: &mut ParamStore, dim: usize, rng: &mut StdRng) -> Self {
        NeWeights { wd: store.create("ne_wd", init::xavier_uniform(&[dim, dim], rng)) }
    }
}

/// Eq. 13–14: attention-weighted aggregation of the disclosing one-hop
/// neighbour embeddings. `h0` is the sample's `(rows, dim)` initial-feature
/// table; `target_row` and `neighbor_rows` pick the target relation's and the
/// neighbour relations' rows of it. Returns a zero vector when the
/// neighbourhood is empty.
///
/// All neighbours go through `W^d` in one `X · W^dᵀ` product and their logits
/// through one `matvec` — per neighbour the same chunked dots as transforming
/// and scoring each on its own.
pub(crate) fn disclosing_aggregate(
    tape: &mut Tape,
    store: &ParamStore,
    weights: NeWeights,
    h0: Var,
    target_row: usize,
    neighbor_rows: &[usize],
    leaky_slope: f32,
) -> Var {
    if neighbor_rows.is_empty() {
        let dim = tape.value(h0).cols();
        return tape.constant_with(&[dim], |zeros| zeros.resize(dim, 0.0));
    }
    let wd = tape.param(store, weights.wd);
    let h_target0 = tape.row(h0, target_row);
    let q = tape.matvec(wd, h_target0);
    let neighbors0 = tape.gather(h0, neighbor_rows);
    let transformed = tape.matmul_nt(neighbors0, wd);
    let logits = tape.matvec(transformed, q);
    let act = tape.leaky_relu(logits, leaky_slope);
    let att = tape.softmax(act);
    let pooled = tape.vecmat(att, transformed);
    tape.relu(pooled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rmpi_autograd::gradcheck::check_gradients;
    use rmpi_autograd::Tensor;

    #[test]
    fn empty_neighborhood_gives_zeros() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let w = NeWeights::new(&mut store, 4, &mut rng);
        let mut tape = Tape::new();
        let h0 = tape.constant(Tensor::matrix(1, 4, vec![1.0; 4]));
        let out = disclosing_aggregate(&mut tape, &store, w, h0, 0, &[], 0.2);
        assert_eq!(tape.value(out).data(), &[0.0; 4]);
    }

    #[test]
    fn output_is_nonnegative_dim_vector() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let w = NeWeights::new(&mut store, 5, &mut rng);
        let mut tape = Tape::new();
        let h0 = tape.constant(init::normal(&[3, 5], 1.0, &mut rng));
        let out = disclosing_aggregate(&mut tape, &store, w, h0, 0, &[1, 2], 0.2);
        let v = tape.value(out);
        assert_eq!(v.shape(), &[5]);
        assert!(v.data().iter().all(|&x| x >= 0.0), "ReLU output must be nonnegative");
    }

    #[test]
    fn attention_prefers_similar_neighbors() {
        // With W^d = I, a neighbour equal to the target should receive more
        // attention weight than an orthogonal one — verify via the pooled
        // output leaning towards the similar neighbour's direction.
        let mut store = ParamStore::new();
        let dim = 4;
        let eye = {
            let mut t = Tensor::zeros(&[dim, dim]);
            for i in 0..dim {
                t.row_mut(i)[i] = 1.0;
            }
            t
        };
        let wd = store.create("ne_wd", eye);
        let w = NeWeights { wd };
        let mut tape = Tape::new();
        // rows: target, a neighbour equal to it, an orthogonal neighbour
        let h0 = tape.constant(Tensor::matrix(
            3,
            dim,
            vec![2.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0],
        ));
        let out = disclosing_aggregate(&mut tape, &store, w, h0, 0, &[1, 2], 0.2);
        let v = tape.value(out);
        assert!(v.data()[0] > v.data()[1], "similar neighbour should dominate: {v:?}");
    }

    #[test]
    fn gradcheck_ne_module() {
        check_gradients(
            &[
                (
                    "ne_wd",
                    Tensor::matrix(3, 3, vec![0.5, -0.1, 0.2, 0.3, 0.4, -0.2, 0.1, 0.0, 0.6]),
                ),
                // rows: target, two neighbours
                ("h0", Tensor::matrix(3, 3, vec![0.4, -0.3, 0.2, 0.1, 0.5, -0.4, -0.2, 0.3, 0.7])),
            ],
            |tape, store| {
                let w = NeWeights { wd: store.get("ne_wd").unwrap() };
                let h0 = tape.param(store, store.get("h0").unwrap());
                // a neighbour sharing the target's own relation row is legal
                let out = disclosing_aggregate(tape, store, w, h0, 0, &[1, 2, 0], 0.2);
                let s = tape.sigmoid(out);
                tape.sum(s)
            },
        );
    }
}
