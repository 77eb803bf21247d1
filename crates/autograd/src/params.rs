//! Named trainable parameters with accumulated gradients.
//!
//! # Shared values, copy on write
//!
//! Each value is held as an `Arc<Tensor>`, and [`crate::Tape::param`] records
//! a handle to it rather than a copy: a forward pass reads the relation table
//! and every `W_e` in place. Writers ([`ParamStore::value_mut`],
//! `ParamStore::for_each_mut`, so every optimiser step) write in place too
//! when the store holds the only handle, and copy the value first when a tape
//! still holds one — the tape keeps reading the values it recorded. So the
//! rule is: **reset or drop a tape before stepping, or the step copies** the
//! parameters that tape recorded. Every such copy is counted
//! ([`crate::counters::param_copies`]).
//!
//! Cloning a store copies every value: a clone never shares storage with
//! its original, so snapshots (best-epoch weights, checkpoints) do not turn
//! the next optimiser step into a copy.

use crate::counters;
use crate::tensor::Tensor;
use std::collections::HashMap;
use std::sync::Arc;

/// Handle to one parameter inside a [`ParamStore`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The parameter's dense index (stable for the store's lifetime).
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuild a handle from a dense index (crate-internal: used by
    /// [`crate::GradBuffer`] iteration, which stores gradients by index).
    pub(crate) fn from_index(i: usize) -> Self {
        ParamId(i)
    }
}

/// A flat registry of named parameters, their values and their gradients.
///
/// Gradients *accumulate* across [`crate::Tape::backward`] calls until
/// [`ParamStore::zero_grad`] — which is what makes mini-batching by gradient
/// accumulation (one tape per sample) correct.
///
/// Values are shared with the tapes that record them; see the module docs
/// for when a write copies.
#[derive(Debug, Default)]
pub struct ParamStore {
    names: Vec<String>,
    by_name: HashMap<String, ParamId>,
    values: Vec<Arc<Tensor>>,
    grads: Vec<Tensor>,
}

impl Clone for ParamStore {
    /// A deep copy: the clone's values share nothing with the original's.
    fn clone(&self) -> Self {
        ParamStore {
            names: self.names.clone(),
            by_name: self.by_name.clone(),
            values: self.values.iter().map(|v| Arc::new(Tensor::clone(v))).collect(),
            grads: self.grads.clone(),
        }
    }
}

/// Write access to one shared value: in place when `value` is the only
/// handle, otherwise on a counted private copy.
fn unshare(value: &mut Arc<Tensor>) -> &mut Tensor {
    if Arc::get_mut(value).is_none() {
        counters::record_param_copy();
    }
    Arc::make_mut(value)
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new parameter. Panics if the name is taken (parameter
    /// creation is a model-construction-time activity; collisions are bugs).
    pub fn create(&mut self, name: &str, value: Tensor) -> ParamId {
        assert!(!self.by_name.contains_key(name), "parameter {name:?} already exists");
        let id = ParamId(self.values.len());
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        self.grads.push(Tensor::zeros(value.shape()));
        self.values.push(Arc::new(value));
        id
    }

    /// Fetch an existing parameter id by name.
    pub fn get(&self, name: &str) -> Option<ParamId> {
        self.by_name.get(name).copied()
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// The shared handle to a parameter's value — what a tape records.
    pub(crate) fn shared(&self, id: ParamId) -> &Arc<Tensor> {
        &self.values[id.0]
    }

    /// Mutable value (used by optimisers and by schema-vector injection).
    /// Copies the value first if a tape still holds it (module docs).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        unshare(&mut self.values[id.0])
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// Add `delta` into the parameter's gradient accumulator.
    pub fn accumulate_grad(&mut self, id: ParamId, delta: &Tensor) {
        self.grads[id.0].axpy(1.0, delta);
    }

    /// Reset all gradients to zero.
    pub fn zero_grad(&mut self) {
        for g in &mut self.grads {
            g.zero_();
        }
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar weights across all parameters.
    pub fn num_weights(&self) -> usize {
        self.values.iter().map(|v| v.len()).sum()
    }

    /// The name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterate ids in creation order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len()).map(ParamId)
    }

    /// Apply `f(value, grad)` to every parameter — the optimiser entry point.
    /// A value a tape still holds is copied first (module docs).
    pub(crate) fn for_each_mut(&mut self, mut f: impl FnMut(usize, &mut Tensor, &Tensor)) {
        for (i, (value, grad)) in self.values.iter_mut().zip(&self.grads).enumerate() {
            f(i, unshare(value), grad);
        }
    }

    /// Global L2 norm of all gradients (for clipping / diagnostics).
    pub fn grad_norm(&self) -> f32 {
        self.grads.iter().map(|g| g.data().iter().map(|x| x * x).sum::<f32>()).sum::<f32>().sqrt()
    }

    /// Scale every gradient by `c` in place (batch averaging, gradient
    /// clipping).
    pub fn scale_grads(&mut self, c: f32) {
        for x in self.grads.iter_mut().flat_map(Tensor::data_mut) {
            *x *= c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_lookup() {
        let mut s = ParamStore::new();
        let w = s.create("w", Tensor::vector(vec![1.0, 2.0]));
        assert_eq!(s.get("w"), Some(w));
        assert_eq!(s.get("x"), None);
        assert_eq!(s.value(w).data(), &[1.0, 2.0]);
        assert_eq!(s.name(w), "w");
        assert_eq!(s.len(), 1);
        assert_eq!(s.num_weights(), 2);
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_name_panics() {
        let mut s = ParamStore::new();
        s.create("w", Tensor::scalar(0.0));
        s.create("w", Tensor::scalar(1.0));
    }

    #[test]
    fn grads_accumulate_and_reset() {
        let mut s = ParamStore::new();
        let w = s.create("w", Tensor::vector(vec![0.0, 0.0]));
        s.accumulate_grad(w, &Tensor::vector(vec![1.0, 2.0]));
        s.accumulate_grad(w, &Tensor::vector(vec![1.0, 2.0]));
        assert_eq!(s.grad(w).data(), &[2.0, 4.0]);
        assert!((s.grad_norm() - (4.0f32 + 16.0).sqrt()).abs() < 1e-6);
        s.scale_grads(0.5);
        assert_eq!(s.grad(w).data(), &[1.0, 2.0]);
        s.zero_grad();
        assert_eq!(s.grad(w).data(), &[0.0, 0.0]);
    }

    #[test]
    fn scale_grads_scales_in_place() {
        let mut s = ParamStore::new();
        let w = s.create("w", Tensor::zeros(&[2, 3]));
        s.accumulate_grad(w, &Tensor::matrix(2, 3, vec![1.0, -2.0, 0.5, 3.0, 0.0, -0.25]));
        let want: Vec<f32> = s.grad(w).data().iter().map(|g| g * 0.3).collect();
        let buffer = s.grad(w).data().as_ptr();
        s.scale_grads(0.3);
        assert_eq!(s.grad(w).data(), &want[..], "the same products as g * 0.3");
        assert_eq!(s.grad(w).data().as_ptr(), buffer, "no new gradient tensor");
    }

    /// A clone and its original never see each other's writes, whichever of
    /// the two is written, through `value_mut` or an optimiser step.
    #[test]
    fn clones_are_independent_in_both_directions() {
        use crate::optim::Adam;
        let mut original = ParamStore::new();
        let w = original.create("w", Tensor::vector(vec![1.0, 2.0]));
        let b = original.create("b", Tensor::scalar(0.5));
        original.accumulate_grad(w, &Tensor::vector(vec![0.5, -0.5]));
        original.accumulate_grad(b, &Tensor::scalar(1.0));
        let snapshot = |s: &ParamStore| -> Vec<Vec<f32>> {
            s.ids().map(|id| s.value(id).data().to_vec()).collect()
        };

        let clone = original.clone();
        original.value_mut(w).data_mut()[0] = 9.0;
        Adam::new(0.1).step(&mut original);
        assert_eq!(snapshot(&clone), vec![vec![1.0, 2.0], vec![0.5]]);

        let mut clone = original.clone();
        let before = snapshot(&original);
        clone.value_mut(b).data_mut()[0] = -7.0;
        Adam::new(0.1).step(&mut clone);
        assert_eq!(snapshot(&original), before);
        assert_ne!(snapshot(&clone), before);
    }

    /// A store written while a tape holds its values copies them (and counts
    /// it); the tape goes on reading what it recorded.
    #[test]
    fn writes_under_a_live_tape_copy_and_leave_the_tape_alone() {
        let mut s = ParamStore::new();
        let w = s.create("w", Tensor::vector(vec![1.0, 2.0]));
        let mut tape = crate::Tape::new();
        let wv = tape.param(&s, w);
        let before = counters::param_copies();
        s.value_mut(w).data_mut()[0] = 5.0;
        // >= (not ==): parallel tests in this binary may copy too
        assert!(counters::param_copies() > before, "a shared value is copied before a write");
        assert_eq!(tape.value(wv).data(), &[1.0, 2.0]);
        assert_eq!(s.value(w).data(), &[5.0, 2.0]);
    }
}
