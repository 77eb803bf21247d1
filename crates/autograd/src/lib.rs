//! From-scratch dense tensors and reverse-mode automatic differentiation.
//!
//! The RMPI models need a small, predictable subset of what PyTorch provides:
//! dense `f32` tensors of rank 1–2, the ops used by relational message
//! passing (matmul, elementwise arithmetic, ReLU/LeakyReLU/sigmoid/tanh,
//! softmax, concat/stack/gather, reductions), reverse-mode gradients
//! and the Adam optimiser. This crate implements exactly that:
//!
//! * [`Tensor`] — inline shape + row-major `Vec<f32>` storage with checked ops;
//! * [`Tape`] — a gradient tape: forward calls record nodes, [`Tape::backward`]
//!   walks them in reverse and routes gradients into a [`ParamStore`]; a
//!   reset tape keeps its node storage, so a warm forward allocates nothing;
//! * [`ParamStore`] — named trainable parameters with accumulated gradients,
//!   shared with the tapes that read them and copied on write only while a
//!   tape still holds them;
//! * [`optim`] — Adam;
//! * [`init`] — Xavier-uniform and normal initialisers;
//! * [`gradcheck`] — central-finite-difference gradient verification used
//!   throughout the test suite.
//!
//! Every differentiable op's backward rule is validated against finite
//! differences in its module tests, so models built on top can trust the
//! gradients unconditionally.
//!
//! ```
//! use rmpi_autograd::{optim::Adam, ParamStore, Tape, Tensor};
//!
//! // minimise f(x) = (x - 3)^2 with Adam
//! let mut store = ParamStore::new();
//! let x = store.create("x", Tensor::scalar(0.0));
//! let mut opt = Adam::new(0.1);
//! for _ in 0..300 {
//!     store.zero_grad();
//!     let mut tape = Tape::new();
//!     let xv = tape.param(&store, x);
//!     let c = tape.constant(Tensor::scalar(3.0));
//!     let d = tape.sub(xv, c);
//!     let sq = tape.mul(d, d);
//!     let loss = tape.sum(sq);
//!     tape.backward(loss, &mut store);
//!     drop(tape); // a tape still alive here would make the step copy `x`
//!     opt.step(&mut store);
//! }
//! assert!((store.value(x).item() - 3.0).abs() < 1e-2);
//! ```

#![warn(missing_docs)]

pub mod counters;
pub(crate) mod grad;
pub mod gradcheck;
pub mod init;
pub mod io;
pub mod kernels;
pub mod optim;
pub(crate) mod params;
pub(crate) mod tape;
pub(crate) mod tensor;

pub use grad::GradBuffer;
pub use io::{atomic_write_bytes, load_params, save_params, CheckpointError};
pub use params::{ParamId, ParamStore};
pub use tape::{BackwardScratch, Retained, Tape, Var};
pub use tensor::Tensor;
