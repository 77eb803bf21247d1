//! Per-thread reusable scratch buffers, keyed by type.
//!
//! Hot loops (training workers, serving scorers) need working buffers —
//! gradient tables, BFS state, staging vectors — that are expensive to
//! allocate per call but awkward to thread through every signature. This
//! module gives each thread a lazily-created instance of any `Default +
//! 'static` scratch type, looked up by `TypeId`:
//!
//! ```
//! #[derive(Default)]
//! struct MyScratch { buf: Vec<u64> }
//!
//! let n = rmpi_runtime::with_scratch(|s: &mut MyScratch| {
//!     s.buf.clear();
//!     s.buf.extend(0..4u64);
//!     s.buf.len()
//! });
//! assert_eq!(n, 4);
//! ```
//!
//! Buffers persist for the thread's lifetime, so a pool worker that scores
//! thousands of samples pays each scratch type's allocation once. Because the
//! storage is thread-local there is no synchronisation on the hot path; the
//! only cost per access is one `HashMap<TypeId, _>` probe.
//!
//! Reentrancy: `with_scratch::<T>` panics if called recursively for the same
//! `T` on the same thread (the inner call would alias the outer's `&mut`).
//! Nested calls for *different* types are fine.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;

thread_local! {
    static SCRATCH: RefCell<HashMap<TypeId, Box<dyn Any>>> = RefCell::new(HashMap::new());
}

/// Run `f` with this thread's instance of scratch type `T`, creating it via
/// `Default` on first use. The instance (and whatever capacity it has grown)
/// is retained for subsequent calls on the same thread.
pub fn with_scratch<T: Default + 'static, R>(f: impl FnOnce(&mut T) -> R) -> R {
    SCRATCH.with(|cell| {
        // Take the box out of the map so `f` can itself call `with_scratch`
        // for a different type without hitting the RefCell twice.
        let mut boxed: Box<dyn Any> = {
            let mut map = cell.borrow_mut();
            map.remove(&TypeId::of::<T>()).unwrap_or_else(|| Box::new(T::default()))
        };
        let r = f(boxed.downcast_mut::<T>().expect("scratch type keyed by TypeId"));
        cell.borrow_mut().insert(TypeId::of::<T>(), boxed);
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct A(Vec<u8>);
    #[derive(Default)]
    struct B(String);

    #[test]
    fn scratch_persists_capacity_across_calls() {
        with_scratch(|a: &mut A| {
            a.0.clear();
            a.0.reserve(1024);
        });
        let cap = with_scratch(|a: &mut A| a.0.capacity());
        assert!(cap >= 1024, "capacity {cap} should persist");
    }

    #[test]
    fn different_types_get_different_instances() {
        with_scratch(|a: &mut A| a.0.push(7));
        with_scratch(|b: &mut B| b.0.push('x'));
        let (la, lb) = (with_scratch(|a: &mut A| a.0.len()), with_scratch(|b: &mut B| b.0.len()));
        assert!(la >= 1);
        assert!(lb >= 1);
    }

    #[test]
    fn nested_calls_for_different_types_work() {
        let out = with_scratch(|a: &mut A| {
            a.0.push(1);
            with_scratch(|b: &mut B| {
                b.0.push('y');
                b.0.len()
            }) + a.0.len()
        });
        assert!(out >= 2);
    }

    #[test]
    fn threads_do_not_share_scratch() {
        with_scratch(|a: &mut A| a.0.push(1));
        let other = std::thread::spawn(|| with_scratch(|a: &mut A| a.0.len())).join().unwrap();
        assert_eq!(other, 0, "fresh thread starts with a fresh scratch");
    }
}
