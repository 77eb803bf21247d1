//! Central finite-difference gradient checking.
//!
//! Used throughout the workspace's test suites to validate that every
//! backward rule — and every model built from them — produces correct
//! gradients. f32 precision limits accuracy to roughly 1e-2 relative
//! tolerance with the default epsilon, which is ample to catch a wrong or
//! missing gradient term (those show up as order-of-magnitude errors).

use crate::params::ParamStore;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Default perturbation size for finite differences.
pub(crate) const DEFAULT_EPS: f32 = 1e-2;
/// Default tolerance on the combined relative/absolute error.
pub(crate) const DEFAULT_TOL: f32 = 2e-2;

/// Compare analytic gradients with central finite differences and panic with
/// a diagnostic on mismatch.
///
/// `params` lists the named tensors to create; `f` builds the forward pass on
/// a fresh tape and returns the scalar loss variable.
pub fn check_gradients(params: &[(&str, Tensor)], f: impl Fn(&mut Tape, &ParamStore) -> Var) {
    check_gradients_with(params, f, DEFAULT_EPS, DEFAULT_TOL)
}

/// [`check_gradients`] with explicit epsilon and tolerance.
pub fn check_gradients_with(
    params: &[(&str, Tensor)],
    f: impl Fn(&mut Tape, &ParamStore) -> Var,
    eps: f32,
    tol: f32,
) {
    let mut store = ParamStore::new();
    for (name, t) in params {
        store.create(name, t.clone());
    }

    // analytic gradients
    store.zero_grad();
    let mut tape = Tape::new();
    let loss = f(&mut tape, &store);
    tape.backward(loss, &mut store);
    let analytic: Vec<Tensor> = store.ids().map(|id| store.grad(id).clone()).collect();

    // finite differences
    for (pi, id) in store.ids().collect::<Vec<_>>().into_iter().enumerate() {
        let n = store.value(id).len();
        for k in 0..n {
            let orig = store.value(id).data()[k];

            store.value_mut(id).data_mut()[k] = orig + eps;
            let mut tp = Tape::new();
            let lp = f(&mut tp, &store);
            let plus = tp.value(lp).item();

            store.value_mut(id).data_mut()[k] = orig - eps;
            let mut tm = Tape::new();
            let lm = f(&mut tm, &store);
            let minus = tm.value(lm).item();

            store.value_mut(id).data_mut()[k] = orig;

            let numeric = (plus - minus) / (2.0 * eps);
            let a = analytic[pi].data()[k];
            let err = (a - numeric).abs() / (1.0 + a.abs().max(numeric.abs()));
            assert!(
                err <= tol,
                "gradient mismatch for param {:?} element {k}: analytic {a}, numeric {numeric} (err {err})",
                store.name(id),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_for_correct_gradient() {
        check_gradients(&[("x", Tensor::vector(vec![0.5, -1.5]))], |tape, store| {
            let x = tape.param(store, store.get("x").unwrap());
            let s = tape.sigmoid(x);
            tape.sum(s)
        });
    }

    #[test]
    #[should_panic(expected = "gradient mismatch")]
    fn catches_wrong_gradient() {
        // A forward function that is *not* differentiable-consistent across
        // calls: uses the parameter value only on the analytic pass shape but
        // a constant otherwise would be contrived; instead check that an
        // intentionally non-smooth mismatch is caught by comparing f(x)=|x|
        // near 0 where finite differences disagree with the relu-style
        // subgradient convention used analytically.
        check_gradients_with(
            &[("x", Tensor::vector(vec![1e-4]))],
            |tape, store| {
                let x = tape.param(store, store.get("x").unwrap());
                // |x| built as relu(x) + relu(-x); analytic grad at +1e-4 is 1,
                // numeric central difference at eps=1e-2 is ~0 -> mismatch.
                let n = tape.scale(x, -1.0);
                let a = tape.relu(x);
                let b = tape.relu(n);
                let s = tape.add(a, b);
                tape.sum(s)
            },
            1e-2,
            1e-3,
        );
    }
}
