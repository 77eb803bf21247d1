//! First-order optimisers over a [`ParamStore`].

use crate::params::ParamStore;
use crate::tensor::Tensor;

/// A checkpointable snapshot of [`Adam`]'s internal state: the step count
/// and the first/second moment buffers, indexed by parameter index.
#[derive(Clone, Debug, Default)]
pub struct AdamState {
    /// Steps taken so far (drives bias correction).
    pub t: u64,
    /// First-moment estimates per parameter.
    pub m: Vec<Tensor>,
    /// Second-moment estimates per parameter.
    pub v: Vec<Tensor>,
}

/// Adam's exponential decay for the first moment.
const BETA1: f32 = 0.9;
/// Adam's exponential decay for the second moment.
const BETA2: f32 = 0.999;
/// Adam's numerical stabiliser.
const EPS: f32 = 1e-8;

/// Adam (Kingma & Ba, 2015) with bias correction — the paper's optimiser
/// (lr 1e-3).
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with standard betas (0.9 / 0.999) and eps 1e-8.
    pub fn new(lr: f32) -> Self {
        Adam { lr, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Snapshot the optimiser's internal state (step count + moment buffers)
    /// for checkpointing. Restoring the snapshot with [`Adam::restore_state`]
    /// continues the update sequence bit-identically.
    pub fn export_state(&self) -> AdamState {
        AdamState { t: self.t, m: self.m.clone(), v: self.v.clone() }
    }

    /// Replace the optimiser's internal state with a snapshot taken by
    /// [`Adam::export_state`] (the learning rate is kept as configured).
    pub fn restore_state(&mut self, state: AdamState) {
        self.t = state.t;
        self.m = state.m;
        self.v = state.v;
    }

    /// Apply one update using the store's accumulated gradients.
    ///
    /// Moment buffers are allocated lazily, keyed by parameter index; newly
    /// created parameters (e.g. lazily-registered relation embeddings) get
    /// fresh zero moments.
    pub fn step(&mut self, store: &mut ParamStore) {
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        let lr = self.lr;
        let (m, v) = (&mut self.m, &mut self.v);
        store.for_each_mut(|i, value, grad| {
            while m.len() <= i {
                m.push(Tensor::zeros(value.shape()));
                v.push(Tensor::zeros(value.shape()));
            }
            let mi = &mut m[i];
            let vi = &mut v[i];
            for k in 0..value.len() {
                let g = grad.data()[k];
                let md = &mut mi.data_mut()[k];
                *md = BETA1 * *md + (1.0 - BETA1) * g;
                let vd = &mut vi.data_mut()[k];
                *vd = BETA2 * *vd + (1.0 - BETA2) * g * g;
                let mhat = *md / bc1;
                let vhat = *vd / bc2;
                value.data_mut()[k] -= lr * mhat / (vhat.sqrt() + EPS);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    /// Minimise f(x) = (x - 3)^2 and check convergence.
    fn quadratic_loss(store: &ParamStore) -> (Tape, crate::tape::Var) {
        let mut tape = Tape::new();
        let x = tape.param(store, store.get("x").unwrap());
        let c = tape.constant(Tensor::scalar(3.0));
        let d = tape.sub(x, c);
        let sq = tape.mul(d, d);
        let loss = tape.sum(sq);
        (tape, loss)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        store.create("x", Tensor::scalar(0.0));
        let mut opt = Adam::new(0.1);
        for _ in 0..300 {
            store.zero_grad();
            let (tape, loss) = quadratic_loss(&store);
            tape.backward(loss, &mut store);
            opt.step(&mut store);
        }
        let x = store.value(store.get("x").unwrap()).item();
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn adam_handles_lazily_added_params() {
        let mut store = ParamStore::new();
        store.create("a", Tensor::scalar(1.0));
        let mut opt = Adam::new(0.05);
        for step in 0..200 {
            if step == 50 {
                store.create("b", Tensor::scalar(-1.0));
            }
            store.zero_grad();
            let mut tape = Tape::new();
            let a = tape.param(&store, store.get("a").unwrap());
            let mut loss = {
                let sq = tape.mul(a, a);
                tape.sum(sq)
            };
            if let Some(bid) = store.get("b") {
                let b = tape.param(&store, bid);
                let sqb = tape.mul(b, b);
                let sb = tape.sum(sqb);
                loss = tape.add(loss, sb);
            }
            tape.backward(loss, &mut store);
            opt.step(&mut store);
        }
        assert!(store.value(store.get("a").unwrap()).item().abs() < 0.05);
        assert!(store.value(store.get("b").unwrap()).item().abs() < 0.15);
    }
}
