//! Detachable gradient buffers.
//!
//! [`crate::Tape::backward_into`] writes parameter gradients into a
//! [`GradBuffer`] instead of mutating the [`ParamStore`] directly. That one
//! change is what makes the whole engine data-parallel: the forward/backward
//! pass then needs only `&ParamStore` (read-only, `Sync`), so any number of
//! workers can run samples concurrently and hand back one buffer each.
//!
//! Buffers are merged with a *deterministic ordered reduce*: the trainer adds
//! per-sample buffers into the store in sample-index order, so the sequence
//! of floating-point additions is exactly the sequence the sequential loop
//! performs — parallel and sequential training produce bit-identical
//! parameters (see `DESIGN.md`, "Threading model").

use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Per-parameter gradient accumulator detached from any [`ParamStore`].
///
/// Slots are allocated lazily: a sample's subgraph usually touches a small
/// subset of the parameters (gathered relation embeddings, the layers it
/// actually ran), and untouched parameters cost nothing.
#[derive(Clone, Debug, Default)]
pub struct GradBuffer {
    slots: Vec<Option<Tensor>>,
}

impl GradBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` into the slot for `id`. A first contribution takes
    /// `delta`'s storage (leaving `delta` empty), later ones read it — the
    /// backward pass's recycled gradient slots lose a buffer once per
    /// parameter, not once per use.
    pub(crate) fn add_from(&mut self, id: ParamId, delta: &mut Tensor) {
        let i = id.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        match &mut self.slots[i] {
            Some(existing) => existing.axpy(1.0, delta),
            slot @ None => *slot = Some(std::mem::take(delta)),
        }
    }

    /// The accumulated gradient for `id`, if any op touched it.
    pub fn get(&self, id: ParamId) -> Option<&Tensor> {
        self.slots.get(id.index()).and_then(Option::as_ref)
    }

    /// `true` when no gradient has been recorded.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    /// Iterate recorded gradients in parameter-index order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Tensor)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|t| (ParamId::from_index(i), t)))
    }

    /// Add every recorded gradient into the store's accumulators, in
    /// parameter-index order (the ordered-reduce step).
    pub fn add_to(&self, store: &mut ParamStore) {
        for (id, g) in self.iter() {
            store.accumulate_grad(id, g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store3() -> (ParamStore, ParamId, ParamId, ParamId) {
        let mut s = ParamStore::new();
        let a = s.create("a", Tensor::vector(vec![0.0, 0.0]));
        let b = s.create("b", Tensor::scalar(0.0));
        let c = s.create("c", Tensor::vector(vec![0.0; 3]));
        (s, a, b, c)
    }

    #[test]
    fn accumulates_in_index_order() {
        let (_, a, _, c) = store3();
        let mut x = GradBuffer::new();
        assert!(x.is_empty());
        x.add_from(c, &mut Tensor::vector(vec![1.0, 1.0, 1.0]));
        x.add_from(a, &mut Tensor::vector(vec![1.0, 2.0]));
        let mut second = Tensor::vector(vec![0.5, 0.5]);
        x.add_from(a, &mut second);
        assert!(!x.is_empty());
        assert_eq!(x.get(a).unwrap().data(), &[1.5, 2.5]);
        assert_eq!(second.data(), &[0.5, 0.5], "a later contribution is read, not taken");
        assert_eq!(x.get(c).unwrap().data(), &[1.0, 1.0, 1.0]);
        let ids: Vec<usize> = x.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, vec![a.index(), c.index()], "iteration is index-ordered");
    }

    #[test]
    fn add_to_matches_direct_accumulation() {
        let (mut store, a, b, _) = store3();
        let mut buf = GradBuffer::new();
        buf.add_from(b, &mut Tensor::scalar(3.0));
        buf.add_from(a, &mut Tensor::vector(vec![1.0, -1.0]));
        buf.add_to(&mut store);
        buf.add_to(&mut store);
        assert_eq!(store.grad(a).data(), &[2.0, -2.0]);
        assert_eq!(store.grad(b).data(), &[6.0]);
    }
}
