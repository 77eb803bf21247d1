//! Gradient tape: eager forward evaluation with recorded ops, reverse-mode
//! backward pass.
//!
//! A [`Tape`] is built per forward pass (per training sample) — or reused
//! across samples via [`Tape::reset`], which keeps the node arena's capacity.
//! Every op method computes its value immediately and records a node;
//! [`Tape::backward_into`] seeds the loss gradient, walks the nodes in
//! reverse and writes parameter gradients into a detached [`GradBuffer`]
//! (so the whole pass needs only `&ParamStore` and can run on any worker
//! thread). [`Tape::backward`] is the single-threaded convenience wrapper
//! that folds the buffer straight into a store. Tapes are cheap `Vec`s — no
//! `Rc`/`RefCell` graph plumbing — because subgraph models rebuild the graph
//! for every sample anyway.
//!
//! Binary elementwise ops (`add`, `sub`, `mul`) support one special broadcast:
//! a one-element operand is broadcast against the other side, with the
//! corresponding gradient summed on the way back. That is the only broadcast
//! the models need (scalar gates and attention weights).

use crate::counters;
use crate::grad::GradBuffer;
use crate::kernels::dot_chunked;
use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Handle to a node on a [`Tape`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Var(usize);

#[derive(Clone, Debug)]
enum Op {
    Constant,
    Param(ParamId),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    AddScalar(Var),
    MatMul(Var, Var),
    MatMulNt(Var, Var),
    MatVec(Var, Var),
    VecMat(Var, Var),
    Dot(Var, Var),
    Relu(Var),
    LeakyRelu(Var, f32),
    Sigmoid(Var),
    Tanh(Var),
    Softmax(Var),
    SegmentSoftmax { logits: Var, members: Vec<usize>, offsets: Vec<usize> },
    SegmentSum { rows: Var, weights: Option<Var>, members: Vec<usize>, offsets: Vec<usize> },
    Sum(Var),
    Mean(Var),
    Concat(Vec<Var>),
    Stack(Vec<Var>),
    Row(Var, usize),
    Gather(Var, Vec<usize>),
    Index(Var, usize),
    Transpose(Var),
    Dropout(Var, Vec<f32>),
}

struct Node {
    op: Op,
    value: Tensor,
}

/// The gradient tape. See module docs.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// A fresh, empty tape.
    pub fn new() -> Self {
        Tape { nodes: Vec::with_capacity(256) }
    }

    fn push(&mut self, op: Op, value: Tensor) -> Var {
        self.nodes.push(Node { op, value });
        Var(self.nodes.len() - 1)
    }

    /// The current value of a variable.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Drop all recorded nodes but keep the arena's capacity, so one tape can
    /// be reused across the samples of a batch without reallocating.
    pub fn reset(&mut self) {
        self.nodes.clear();
    }

    // ------------------------------------------------------------------ leaves

    /// Record a non-trainable constant.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(Op::Constant, value)
    }

    /// Record a trainable parameter (value copied from the store).
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.push(Op::Param(id), store.value(id).clone())
    }

    // --------------------------------------------------------- elementwise ops

    fn bcast(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        if a.shape() == b.shape() {
            let data = a.data().iter().zip(b.data()).map(|(&x, &y)| f(x, y)).collect();
            Tensor::matrix_or_vector(a.shape(), data)
        } else if b.len() == 1 {
            let s = b.data()[0];
            a.map(|x| f(x, s))
        } else if a.len() == 1 {
            let s = a.data()[0];
            b.map(|y| f(s, y))
        } else {
            panic!(
                "shape mismatch {:?} vs {:?} (only scalar broadcast supported)",
                a.shape(),
                b.shape()
            );
        }
    }

    /// `a + b` (same shape, or one side a one-element tensor).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = Self::bcast(self.value(a), self.value(b), |x, y| x + y);
        self.push(Op::Add(a, b), v)
    }

    /// `a - b` (same broadcast rule as [`Tape::add`]).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = Self::bcast(self.value(a), self.value(b), |x, y| x - y);
        self.push(Op::Sub(a, b), v)
    }

    /// Elementwise `a * b` (same broadcast rule as [`Tape::add`]).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = Self::bcast(self.value(a), self.value(b), |x, y| x * y);
        self.push(Op::Mul(a, b), v)
    }

    /// `c * a` for a compile-time constant `c`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = self.value(a).scale(c);
        self.push(Op::Scale(a, c), v)
    }

    /// `a + c` elementwise for a constant `c`.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let v = self.value(a).map(|x| x + c);
        self.push(Op::AddScalar(a), v)
    }

    // ------------------------------------------------------------ linear algebra

    /// Matrix product `(m,k) x (k,n)`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push(Op::MatMul(a, b), v)
    }

    /// `a · bᵀ` with `b` stored un-transposed: `(m,k) x (n,k)ᵀ -> (m,n)`.
    ///
    /// Row `j` of the result is bit-identical to `matvec(b, a[j])`: both are
    /// one [`dot_chunked`](crate::kernels) per element over the same two
    /// contiguous rows, operands swapped — which is what lets a batch of
    /// per-row `matvec`s collapse into one product without moving a score.
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul_nt(self.value(b));
        self.push(Op::MatMulNt(a, b), v)
    }

    /// Matrix-vector product `(m,k) x [k] -> [m]`.
    pub fn matvec(&mut self, a: Var, x: Var) -> Var {
        let v = self.value(a).matvec(self.value(x));
        self.push(Op::MatVec(a, x), v)
    }

    /// Vector-matrix product `[k] x (k,n) -> [n]`.
    pub fn vecmat(&mut self, x: Var, a: Var) -> Var {
        let v = self.value(x).vecmat(self.value(a));
        self.push(Op::VecMat(x, a), v)
    }

    /// Dot product of two rank-1 variables, as a one-element tensor.
    pub fn dot(&mut self, x: Var, y: Var) -> Var {
        let v = Tensor::scalar(self.value(x).dot(self.value(y)));
        self.push(Op::Dot(x, y), v)
    }

    /// Transpose of a rank-2 variable.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.value(a).transpose();
        self.push(Op::Transpose(a), v)
    }

    // ---------------------------------------------------------------- activations

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push(Op::Relu(a), v)
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        let v = self.value(a).map(|x| if x >= 0.0 { x } else { slope * x });
        self.push(Op::LeakyRelu(a, slope), v)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(Op::Sigmoid(a), v)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::tanh);
        self.push(Op::Tanh(a), v)
    }

    /// Numerically stable softmax over a rank-1 variable.
    pub fn softmax(&mut self, a: Var) -> Var {
        let x = self.value(a);
        assert_eq!(x.shape().len(), 1, "softmax requires rank 1");
        let max = x.data().iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = x.data().iter().map(|&v| (v - max).exp()).collect();
        let z: f32 = exps.iter().sum();
        let v = Tensor::vector(exps.into_iter().map(|e| e / z).collect());
        self.push(Op::Softmax(a), v)
    }

    // ------------------------------------------------------------- segmented ops

    /// [`Tape::softmax`] applied independently to each segment of a gathered
    /// logit vector.
    ///
    /// Element `e` of the result (length `members.len()`) belongs to the
    /// segment `s` with `offsets[s] <= e < offsets[s + 1]` and is the softmax,
    /// over that segment, of `logits[members[e]]`. An index may repeat within
    /// and across segments; empty segments contribute nothing. Each segment
    /// runs the rank-1 softmax's exact arithmetic (max by fold, `exp(v − max)`,
    /// left-fold normaliser, divide), so the values are bit-identical to
    /// gathering the segment and calling [`Tape::softmax`] on it.
    pub fn segment_softmax(&mut self, logits: Var, members: &[usize], offsets: &[usize]) -> Var {
        let x = self.value(logits);
        assert_eq!(x.shape().len(), 1, "segment_softmax requires rank-1 logits");
        check_segments(members, offsets, x.len());
        let x = x.data();
        let mut out = vec![0.0f32; members.len()];
        for seg in offsets.windows(2) {
            let (idx, out) = (&members[seg[0]..seg[1]], &mut out[seg[0]..seg[1]]);
            let max = idx.iter().map(|&i| x[i]).fold(f32::NEG_INFINITY, f32::max);
            for (o, &i) in out.iter_mut().zip(idx) {
                *o = (x[i] - max).exp();
            }
            let z: f32 = out.iter().sum();
            for o in out.iter_mut() {
                *o /= z;
            }
        }
        let op =
            Op::SegmentSoftmax { logits, members: members.to_vec(), offsets: offsets.to_vec() };
        self.push(op, Tensor::vector(out))
    }

    /// Per-segment weighted row sum: row `s` of the `(segments, d)` result is
    /// `Σ_e w[e] · rows[members[e]]` over `offsets[s] <= e < offsets[s + 1]`,
    /// with `w` all ones when `weights` is `None`.
    ///
    /// Each segment accumulates from zero in member order and skips members
    /// whose weight is exactly zero — [`Tape::vecmat`]'s arithmetic, so row
    /// `s` is bit-identical to `vecmat(w[segment], stack(rows[members]))`. An
    /// empty segment yields a zero row; a row index may repeat within and
    /// across segments.
    pub fn segment_sum(
        &mut self,
        rows: Var,
        weights: Option<Var>,
        members: &[usize],
        offsets: &[usize],
    ) -> Var {
        let t = self.value(rows);
        let d = t.cols();
        check_segments(members, offsets, t.rows());
        let w = weights.map(|w| self.value(w));
        if let Some(w) = w {
            assert_eq!(w.shape(), &[members.len()], "segment_sum needs one weight per member");
        }
        counters::record(
            2 * (members.len() * d) as u64,
            4 * (members.len() * (d + 1) + (offsets.len() - 1) * d) as u64,
        );
        let mut out = vec![0.0f32; (offsets.len() - 1) * d];
        if d > 0 {
            for (seg, acc) in offsets.windows(2).zip(out.chunks_exact_mut(d)) {
                for (e, &m) in (seg[0]..).zip(&members[seg[0]..seg[1]]) {
                    let a = w.map_or(1.0, |w| w.data()[e]);
                    if a == 0.0 {
                        continue;
                    }
                    for (o, b) in acc.iter_mut().zip(t.row(m)) {
                        *o += a * b;
                    }
                }
            }
        }
        let op =
            Op::SegmentSum { rows, weights, members: members.to_vec(), offsets: offsets.to_vec() };
        self.push(op, Tensor::matrix(offsets.len() - 1, d, out))
    }

    // ----------------------------------------------------------------- reductions

    /// Sum of all elements, as a one-element tensor.
    pub fn sum(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).sum());
        self.push(Op::Sum(a), v)
    }

    /// Mean of all elements, as a one-element tensor.
    pub fn mean(&mut self, a: Var) -> Var {
        let t = self.value(a);
        let v = Tensor::scalar(t.sum() / t.len() as f32);
        self.push(Op::Mean(a), v)
    }

    // -------------------------------------------------------------- restructuring

    /// Concatenate rank-1 variables into one longer vector.
    pub fn concat(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat of zero vars");
        let mut data = Vec::new();
        for &p in parts {
            let t = self.value(p);
            assert_eq!(t.shape().len(), 1, "concat requires rank-1 inputs");
            data.extend_from_slice(t.data());
        }
        self.push(Op::Concat(parts.to_vec()), Tensor::vector(data))
    }

    /// Stack `n` rank-1 variables of length `d` into an `(n, d)` matrix.
    pub fn stack(&mut self, rows: &[Var]) -> Var {
        assert!(!rows.is_empty(), "stack of zero vars");
        let d = self.value(rows[0]).len();
        let mut data = Vec::with_capacity(rows.len() * d);
        for &r in rows {
            let t = self.value(r);
            assert_eq!(t.shape(), &[d], "stack rows must share length {d}");
            data.extend_from_slice(t.data());
        }
        self.push(Op::Stack(rows.to_vec()), Tensor::matrix(rows.len(), d, data))
    }

    /// Select row `i` of a rank-2 variable as a vector.
    pub fn row(&mut self, m: Var, i: usize) -> Var {
        let v = Tensor::vector(self.value(m).row(i).to_vec());
        self.push(Op::Row(m, i), v)
    }

    /// Select multiple rows of a rank-2 variable (embedding lookup). Repeated
    /// indices are allowed; their gradients scatter-add.
    pub fn gather(&mut self, m: Var, indices: &[usize]) -> Var {
        let t = self.value(m);
        let c = t.cols();
        let mut data = Vec::with_capacity(indices.len() * c);
        for &i in indices {
            data.extend_from_slice(t.row(i));
        }
        let v = Tensor::matrix(indices.len(), c, data);
        self.push(Op::Gather(m, indices.to_vec()), v)
    }

    /// Select element `i` of a rank-1 variable, as a one-element tensor.
    pub fn index(&mut self, x: Var, i: usize) -> Var {
        let v = Tensor::scalar(self.value(x).data()[i]);
        self.push(Op::Index(x, i), v)
    }

    /// Inverted dropout: elements are zeroed with probability `rate` and the
    /// survivors scaled by `1/(1-rate)`. The mask is sampled here and stored
    /// for the backward pass. `rate == 0` records a pass-through node.
    pub fn dropout<R: rand::Rng>(&mut self, a: Var, rate: f32, rng: &mut R) -> Var {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0,1)");
        let t = self.value(a);
        let keep = 1.0 - rate;
        let mask: Vec<f32> = (0..t.len())
            .map(|_| if rate > 0.0 && rng.gen::<f32>() < rate { 0.0 } else { 1.0 / keep })
            .collect();
        let data = t.data().iter().zip(&mask).map(|(x, m)| x * m).collect();
        let v = Tensor::matrix_or_vector(t.shape(), data);
        self.push(Op::Dropout(a, mask), v)
    }

    // ------------------------------------------------------------------ backward

    /// Reverse-mode gradient pass from `loss` (which must be one element),
    /// accumulating parameter gradients into `store`.
    ///
    /// Convenience wrapper over [`Tape::backward_into`] for single-threaded
    /// callers: runs the pass into a fresh [`GradBuffer`] and folds it into
    /// the store immediately.
    pub fn backward(&self, loss: Var, store: &mut ParamStore) {
        let mut buf = GradBuffer::new();
        self.backward_into(loss, &mut buf);
        buf.add_to(store);
    }

    /// Reverse-mode gradient pass from `loss` (which must be one element),
    /// writing parameter gradients into `out`.
    ///
    /// The tape and the buffer are both detached from any [`ParamStore`], so
    /// this needs no mutable access to shared state: worker threads run
    /// forward + `backward_into` against `&ParamStore` and hand their buffers
    /// back for a deterministic ordered reduce (see [`GradBuffer`]).
    ///
    /// Allocates a fresh node-gradient table per call; hot loops should hold
    /// a [`BackwardScratch`] and use [`Tape::backward_into_with`] instead.
    pub fn backward_into(&self, loss: Var, out: &mut GradBuffer) {
        let mut scratch = BackwardScratch::new();
        self.backward_into_with(loss, &mut scratch, out);
    }

    /// [`Tape::backward_into`] with a caller-owned node-gradient table.
    ///
    /// The scratch's backing vector is reused across calls (a backward pass
    /// leaves every slot empty), so repeated passes over same-sized tapes
    /// skip the per-call table allocation. The gradient values produced are
    /// bit-identical to [`Tape::backward_into`]: the walk order and the
    /// accumulation order do not depend on the scratch's history.
    pub fn backward_into_with(
        &self,
        loss: Var,
        scratch: &mut BackwardScratch,
        out: &mut GradBuffer,
    ) {
        assert_eq!(self.value(loss).len(), 1, "backward seed must be a one-element tensor");
        let mut grads = std::mem::take(&mut scratch.grads);
        grads.clear();
        grads.resize_with(loss.0 + 1, || None);
        grads[loss.0] = Some(Tensor::scalar(1.0));

        for i in (0..=loss.0).rev() {
            let g = match grads[i].take() {
                Some(g) => g,
                None => continue,
            };
            let node = &self.nodes[i];
            match &node.op {
                Op::Constant => {}
                Op::Param(id) => out.add_assign(*id, g),
                Op::Add(a, b) => {
                    self.bcast_back(&mut grads, *a, &g, 1.0);
                    self.bcast_back(&mut grads, *b, &g, 1.0);
                }
                Op::Sub(a, b) => {
                    self.bcast_back(&mut grads, *a, &g, 1.0);
                    self.bcast_back(&mut grads, *b, &g, -1.0);
                }
                Op::Mul(a, b) => {
                    let (va, vb) = (self.value(*a), self.value(*b));
                    let ga = Self::bcast(&g, vb, |x, y| x * y);
                    let gb = Self::bcast(&g, va, |x, y| x * y);
                    self.bcast_back_tensor(&mut grads, *a, ga);
                    self.bcast_back_tensor(&mut grads, *b, gb);
                }
                Op::Scale(a, c) => accumulate(&mut grads, *a, g.scale(*c)),
                Op::AddScalar(a) => accumulate(&mut grads, *a, g),
                Op::MatMul(a, b) => {
                    let (va, vb) = (self.value(*a), self.value(*b));
                    // grad_a = g·bᵀ and grad_b = aᵀ·g via the transpose-free
                    // blocked kernels (no intermediate transpose allocation).
                    accumulate(&mut grads, *a, g.matmul_nt(vb));
                    accumulate(&mut grads, *b, va.matmul_tn(&g));
                }
                Op::MatMulNt(a, b) => {
                    let (va, vb) = (self.value(*a), self.value(*b));
                    // c = a·bᵀ: grad_a = g·b and grad_b = gᵀ·a
                    accumulate(&mut grads, *a, g.matmul(vb));
                    accumulate(&mut grads, *b, g.matmul_tn(va));
                }
                Op::MatVec(a, x) => {
                    let (va, vx) = (self.value(*a), self.value(*x));
                    // y = A x: dA_ij = g_i * x_j ; dx = A^T g
                    let (m, k) = (va.rows(), va.cols());
                    let mut da = vec![0.0f32; m * k];
                    for r in 0..m {
                        let gi = g.data()[r];
                        if gi != 0.0 {
                            for c in 0..k {
                                da[r * k + c] = gi * vx.data()[c];
                            }
                        }
                    }
                    accumulate(&mut grads, *a, Tensor::matrix(m, k, da));
                    // dx = Aᵀg computed as the row-combination g·A — walks A
                    // by contiguous rows instead of materialising Aᵀ.
                    accumulate(&mut grads, *x, g.vecmat(va));
                }
                Op::VecMat(x, a) => {
                    let (vx, va) = (self.value(*x), self.value(*a));
                    // y = x A: dx = A g ; dA_ij = x_i * g_j
                    accumulate(&mut grads, *x, va.matvec(&g));
                    let (k, n) = (va.rows(), va.cols());
                    let mut da = vec![0.0f32; k * n];
                    for r in 0..k {
                        let xi = vx.data()[r];
                        if xi != 0.0 {
                            for c in 0..n {
                                da[r * n + c] = xi * g.data()[c];
                            }
                        }
                    }
                    accumulate(&mut grads, *a, Tensor::matrix(k, n, da));
                }
                Op::Dot(x, y) => {
                    let s = g.item();
                    let (vx, vy) = (self.value(*x), self.value(*y));
                    accumulate(&mut grads, *x, vy.scale(s));
                    accumulate(&mut grads, *y, vx.scale(s));
                }
                Op::Relu(a) => {
                    let va = self.value(*a);
                    let gd = g
                        .data()
                        .iter()
                        .zip(va.data())
                        .map(|(&gi, &x)| if x > 0.0 { gi } else { 0.0 })
                        .collect();
                    accumulate(&mut grads, *a, Tensor::matrix_or_vector(va.shape(), gd));
                }
                Op::LeakyRelu(a, slope) => {
                    let va = self.value(*a);
                    let gd = g
                        .data()
                        .iter()
                        .zip(va.data())
                        .map(|(&gi, &x)| if x >= 0.0 { gi } else { gi * slope })
                        .collect();
                    accumulate(&mut grads, *a, Tensor::matrix_or_vector(va.shape(), gd));
                }
                Op::Sigmoid(a) => {
                    let out = &node.value;
                    let gd = g
                        .data()
                        .iter()
                        .zip(out.data())
                        .map(|(&gi, &s)| gi * s * (1.0 - s))
                        .collect();
                    accumulate(&mut grads, *a, Tensor::matrix_or_vector(out.shape(), gd));
                }
                Op::Tanh(a) => {
                    let out = &node.value;
                    let gd = g
                        .data()
                        .iter()
                        .zip(out.data())
                        .map(|(&gi, &t)| gi * (1.0 - t * t))
                        .collect();
                    accumulate(&mut grads, *a, Tensor::matrix_or_vector(out.shape(), gd));
                }
                Op::Softmax(a) => {
                    let s = &node.value;
                    let inner: f32 = g.data().iter().zip(s.data()).map(|(&gi, &si)| gi * si).sum();
                    let gd =
                        g.data().iter().zip(s.data()).map(|(&gi, &si)| si * (gi - inner)).collect();
                    accumulate(&mut grads, *a, Tensor::vector(gd));
                }
                Op::SegmentSoftmax { logits, members, offsets } => {
                    // the rank-1 softmax rule per segment, scattered back to
                    // the gathered positions
                    let (s, g) = (node.value.data(), g.data());
                    let mut t = Tensor::zeros(self.value(*logits).shape());
                    let gd = t.data_mut();
                    for seg in offsets.windows(2) {
                        let r = seg[0]..seg[1];
                        let inner: f32 =
                            g[r.clone()].iter().zip(&s[r.clone()]).map(|(&gi, &si)| gi * si).sum();
                        for e in r {
                            gd[members[e]] += s[e] * (g[e] - inner);
                        }
                    }
                    accumulate(&mut grads, *logits, t);
                }
                Op::SegmentSum { rows, weights, members, offsets } => {
                    // out_s = Σ w_e · rows[m_e]: d rows[m_e] += w_e · g_s and
                    // d w_e = g_s · rows[m_e]
                    let vr = self.value(*rows);
                    let d = vr.cols();
                    let w = weights.map(|w| self.value(w).data());
                    counters::record(
                        (2 + 2 * w.is_some() as u64) * (members.len() * d) as u64,
                        4 * (2 * members.len() * d + g.len()) as u64,
                    );
                    let mut dr = Tensor::zeros(vr.shape());
                    let mut dw = w.map(|_| vec![0.0f32; members.len()]);
                    if d > 0 {
                        for (seg, gs) in offsets.windows(2).zip(g.data().chunks_exact(d)) {
                            for (e, &m) in (seg[0]..).zip(&members[seg[0]..seg[1]]) {
                                let a = w.map_or(1.0, |w| w[e]);
                                if a != 0.0 {
                                    for (o, &gv) in dr.row_mut(m).iter_mut().zip(gs) {
                                        *o += a * gv;
                                    }
                                }
                                if let Some(dw) = &mut dw {
                                    dw[e] = dot_chunked(gs, vr.row(m));
                                }
                            }
                        }
                    }
                    accumulate(&mut grads, *rows, dr);
                    if let (Some(wv), Some(dw)) = (weights, dw) {
                        accumulate(&mut grads, *wv, Tensor::vector(dw));
                    }
                }
                Op::Sum(a) => {
                    let va = self.value(*a);
                    accumulate(&mut grads, *a, Tensor::full(va.shape(), g.item()));
                }
                Op::Mean(a) => {
                    let va = self.value(*a);
                    accumulate(
                        &mut grads,
                        *a,
                        Tensor::full(va.shape(), g.item() / va.len() as f32),
                    );
                }
                Op::Concat(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let n = self.value(p).len();
                        accumulate(&mut grads, p, Tensor::vector(g.data()[off..off + n].to_vec()));
                        off += n;
                    }
                }
                Op::Stack(rows) => {
                    let d = self.value(rows[0]).len();
                    for (r, &p) in rows.iter().enumerate() {
                        accumulate(
                            &mut grads,
                            p,
                            Tensor::vector(g.data()[r * d..(r + 1) * d].to_vec()),
                        );
                    }
                }
                Op::Row(m, i) => {
                    let vm = self.value(*m);
                    let mut t = Tensor::zeros(vm.shape());
                    t.row_mut(*i).copy_from_slice(g.data());
                    accumulate(&mut grads, *m, t);
                }
                Op::Gather(m, indices) => {
                    let vm = self.value(*m);
                    let c = vm.cols();
                    let mut t = Tensor::zeros(vm.shape());
                    for (r, &i) in indices.iter().enumerate() {
                        let row = t.row_mut(i);
                        for (dst, src) in row.iter_mut().zip(&g.data()[r * c..(r + 1) * c]) {
                            *dst += src;
                        }
                    }
                    accumulate(&mut grads, *m, t);
                }
                Op::Index(x, i) => {
                    let vx = self.value(*x);
                    let mut t = Tensor::zeros(vx.shape());
                    t.data_mut()[*i] = g.item();
                    accumulate(&mut grads, *x, t);
                }
                Op::Transpose(a) => accumulate(&mut grads, *a, g.transpose()),
                Op::Dropout(a, mask) => {
                    let gd = g.data().iter().zip(mask).map(|(&gi, &m)| gi * m).collect();
                    let va = self.value(*a);
                    accumulate(&mut grads, *a, Tensor::matrix_or_vector(va.shape(), gd));
                }
            }
        }
        // Hand the (now all-None) table back for the next pass.
        scratch.grads = grads;
    }

    /// Accumulate `g * sign` into `target`'s gradient slot, collapsing a
    /// broadcast (target was a one-element tensor) by summation.
    fn bcast_back(&self, grads: &mut [Option<Tensor>], target: Var, g: &Tensor, sign: f32) {
        self.bcast_back_tensor(grads, target, g.scale(sign));
    }

    fn bcast_back_tensor(&self, grads: &mut [Option<Tensor>], target: Var, g: Tensor) {
        let vt = self.value(target);
        let g = if vt.len() == 1 && g.len() != 1 { Tensor::scalar(g.sum()) } else { g };
        accumulate(grads, target, g);
    }
}

/// Reusable node-gradient table for [`Tape::backward_into_with`].
///
/// Holds the per-node `Option<Tensor>` slots a backward pass walks; keeping
/// one of these per worker thread (or per training loop) amortises the table
/// allocation across samples. The pass drains every slot, so reuse carries no
/// state between calls — only capacity.
#[derive(Debug, Default)]
pub struct BackwardScratch {
    grads: Vec<Option<Tensor>>,
}

impl BackwardScratch {
    /// An empty scratch; the table grows to the tape's size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of node slots currently allocated (capacity metric for tests).
    pub fn capacity(&self) -> usize {
        self.grads.capacity()
    }
}

/// Validate a segment layout: `offsets` is a non-decreasing partition of
/// `0..members.len()` and every member indexes below `bound`.
fn check_segments(members: &[usize], offsets: &[usize], bound: usize) {
    assert_eq!(offsets.first(), Some(&0), "segment offsets must start at 0");
    assert_eq!(
        offsets.last(),
        Some(&members.len()),
        "segment offsets must end at the member count"
    );
    assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "segment offsets must not decrease");
    assert!(members.iter().all(|&m| m < bound), "segment member out of range (bound {bound})");
}

fn accumulate(grads: &mut [Option<Tensor>], v: Var, g: Tensor) {
    match &mut grads[v.0] {
        Some(existing) => existing.axpy(1.0, &g),
        slot @ None => *slot = Some(g),
    }
}

impl Tensor {
    /// Internal helper: rebuild a tensor with `shape` from raw `data`.
    pub(crate) fn matrix_or_vector(shape: &[usize], data: Vec<f32>) -> Tensor {
        match shape.len() {
            1 => Tensor::vector(data),
            2 => Tensor::matrix(shape[0], shape[1], data),
            _ => unreachable!("rank limited to 1/2"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use crate::params::ParamStore;

    fn store_with(name: &str, t: Tensor) -> (ParamStore, ParamId) {
        let mut s = ParamStore::new();
        let id = s.create(name, t);
        (s, id)
    }

    #[test]
    fn forward_values() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::vector(vec![1.0, -2.0]));
        let r = tape.relu(a);
        assert_eq!(tape.value(r).data(), &[1.0, 0.0]);
        let l = tape.leaky_relu(a, 0.1);
        assert_eq!(tape.value(l).data(), &[1.0, -0.2]);
        let s = tape.softmax(a);
        let sv = tape.value(s).data().to_vec();
        assert!((sv.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(sv[0] > sv[1]);
    }

    #[test]
    fn scalar_broadcast_add_mul() {
        let mut tape = Tape::new();
        let v = tape.constant(Tensor::vector(vec![1.0, 2.0, 3.0]));
        let s = tape.constant(Tensor::scalar(10.0));
        let a = tape.add(v, s);
        assert_eq!(tape.value(a).data(), &[11.0, 12.0, 13.0]);
        let m = tape.mul(s, v);
        assert_eq!(tape.value(m).data(), &[10.0, 20.0, 30.0]);
    }

    #[test]
    fn simple_chain_backward() {
        // loss = sum(relu(W x)) for W = [[1,-1],[2,0]], x = [3, 4]
        let (mut store, w) = store_with("w", Tensor::matrix(2, 2, vec![1.0, -1.0, 2.0, 0.0]));
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        let x = tape.constant(Tensor::vector(vec![3.0, 4.0]));
        let y = tape.matvec(wv, x); // [-1, 6]
        let r = tape.relu(y); // [0, 6]
        let loss = tape.sum(r);
        assert_eq!(tape.value(loss).item(), 6.0);
        tape.backward(loss, &mut store);
        // only second row active: dW = [[0,0],[3,4]]
        assert_eq!(store.grad(w).data(), &[0.0, 0.0, 3.0, 4.0]);
    }

    #[test]
    fn grads_accumulate_across_tapes() {
        let (mut store, w) = store_with("w", Tensor::vector(vec![2.0]));
        for _ in 0..3 {
            let mut tape = Tape::new();
            let wv = tape.param(&store, w);
            let loss = tape.sum(wv);
            tape.backward(loss, &mut store);
        }
        assert_eq!(store.grad(w).data(), &[3.0]);
    }

    #[test]
    fn gradcheck_matmul_chain() {
        check_gradients(
            &[
                ("a", Tensor::matrix(2, 3, vec![0.5, -0.2, 0.3, 0.1, 0.7, -0.4])),
                ("b", Tensor::matrix(3, 2, vec![0.2; 6])),
            ],
            |tape, store| {
                let a = tape.param(store, store.get("a").unwrap());
                let b = tape.param(store, store.get("b").unwrap());
                let c = tape.matmul(a, b);
                let t = tape.tanh(c);
                tape.sum(t)
            },
        );
    }

    #[test]
    fn gradcheck_attention_like_block() {
        // softmax over dots, weighted sum via vecmat — the RMPI attention shape
        check_gradients(
            &[
                ("q", Tensor::vector(vec![0.3, -0.5, 0.8])),
                (
                    "k",
                    Tensor::matrix(
                        4,
                        3,
                        vec![0.1, 0.2, -0.3, 0.5, -0.1, 0.4, -0.2, 0.3, 0.6, 0.05, -0.4, 0.2],
                    ),
                ),
            ],
            |tape, store| {
                let q = tape.param(store, store.get("q").unwrap());
                let k = tape.param(store, store.get("k").unwrap());
                let scores = tape.matvec(k, q);
                let lr = tape.leaky_relu(scores, 0.2);
                let att = tape.softmax(lr);
                let pooled = tape.vecmat(att, k);
                let sig = tape.sigmoid(pooled);
                tape.sum(sig)
            },
        );
    }

    #[test]
    fn gradcheck_restructuring_ops() {
        check_gradients(
            &[("m", Tensor::matrix(3, 2, vec![0.5, -0.2, 0.3, 0.1, 0.7, -0.4]))],
            |tape, store| {
                let m = tape.param(store, store.get("m").unwrap());
                let r0 = tape.row(m, 0);
                let r2 = tape.row(m, 2);
                let cat = tape.concat(&[r0, r2]);
                let g = tape.gather(m, &[1, 1, 2]);
                let t = tape.transpose(g);
                let flat = tape.sum(t);
                let s = tape.sum(cat);
                let both = tape.add(flat, s);
                tape.mean(both)
            },
        );
    }

    #[test]
    fn gradcheck_stack_index_dot() {
        check_gradients(
            &[("x", Tensor::vector(vec![0.4, -0.3])), ("y", Tensor::vector(vec![0.2, 0.9]))],
            |tape, store| {
                let x = tape.param(store, store.get("x").unwrap());
                let y = tape.param(store, store.get("y").unwrap());
                let st = tape.stack(&[x, y]);
                let d = tape.dot(x, y);
                let i = tape.index(x, 1);
                let sm = tape.sum(st);
                let a = tape.add(d, i);
                let b = tape.add(a, sm);
                let sc = tape.scale(b, 0.5);
                tape.add_scalar(sc, 1.0)
            },
        );
    }

    #[test]
    fn gradcheck_sub_mul_broadcast() {
        check_gradients(
            &[("x", Tensor::vector(vec![0.4, -0.3, 0.8])), ("s", Tensor::scalar(0.7))],
            |tape, store| {
                let x = tape.param(store, store.get("x").unwrap());
                let s = tape.param(store, store.get("s").unwrap());
                let d = tape.sub(x, s);
                let m = tape.mul(d, s);
                let sg = tape.sigmoid(m);
                tape.sum(sg)
            },
        );
    }

    #[test]
    fn dropout_zero_rate_is_identity() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::vector(vec![1.0, 2.0]));
        let d = tape.dropout(a, 0.0, &mut rng);
        assert_eq!(tape.value(d).data(), &[1.0, 2.0]);
    }

    #[test]
    fn dropout_preserves_expectation() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 20_000;
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::vector(vec![1.0; n]));
        let d = tape.dropout(a, 0.5, &mut rng);
        let mean = tape.value(d).sum() / n as f32;
        assert!((mean - 1.0).abs() < 0.05, "inverted dropout mean {mean}");
    }

    #[test]
    fn backward_through_dropout_respects_mask() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let (mut store, w) = store_with("w", Tensor::vector(vec![1.0; 8]));
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        let d = tape.dropout(wv, 0.5, &mut rng);
        let loss = tape.sum(d);
        tape.backward(loss, &mut store);
        // gradient equals the mask: zeros where dropped, 2.0 where kept
        for (&g, &v) in store.grad(w).data().iter().zip(tape.value(d).data()) {
            assert_eq!(g, v); // input was all ones
        }
    }

    #[test]
    #[should_panic(expected = "one-element")]
    fn backward_requires_scalar_loss() {
        let mut store = ParamStore::new();
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::vector(vec![1.0, 2.0]));
        tape.backward(a, &mut store);
    }

    #[test]
    fn backward_into_matches_backward() {
        let make = |tape: &mut Tape, store: &ParamStore, w: ParamId| {
            let wv = tape.param(store, w);
            let x = tape.constant(Tensor::vector(vec![0.3, -0.8]));
            let y = tape.matvec(wv, x);
            let t = tape.tanh(y);
            tape.sum(t)
        };
        let (mut store, w) = store_with("w", Tensor::matrix(2, 2, vec![0.5, -0.2, 0.1, 0.9]));
        let mut tape = Tape::new();
        let loss = make(&mut tape, &store, w);
        tape.backward(loss, &mut store);

        let mut buf = crate::GradBuffer::new();
        let mut tape2 = Tape::new();
        let loss2 = make(&mut tape2, &store, w);
        tape2.backward_into(loss2, &mut buf);
        assert_eq!(buf.get(w).unwrap().data(), store.grad(w).data());
    }

    #[test]
    fn reset_keeps_tape_usable() {
        let (mut store, w) = store_with("w", Tensor::vector(vec![2.0, 3.0]));
        let mut tape = Tape::new();
        for _ in 0..3 {
            tape.reset();
            assert!(tape.is_empty());
            let wv = tape.param(&store, w);
            let s = tape.mul(wv, wv);
            let loss = tape.sum(s);
            tape.backward(loss, &mut store);
            assert_eq!(tape.len(), 3);
        }
        // three identical passes accumulated: dL/dw = 3 * 2w
        assert_eq!(store.grad(w).data(), &[12.0, 18.0]);
    }

    #[test]
    fn gradcheck_matmul_blocked_shapes() {
        // shapes that are not multiples of the kernel tile sizes, so the
        // blocked nn/nt/tn paths all hit their edge-handling code
        let a: Vec<f32> = (0..5 * 7).map(|i| ((i * 37 % 19) as f32 - 9.0) / 23.0).collect();
        let b: Vec<f32> = (0..7 * 3).map(|i| ((i * 53 % 17) as f32 - 8.0) / 19.0).collect();
        check_gradients(
            &[("a", Tensor::matrix(5, 7, a)), ("b", Tensor::matrix(7, 3, b))],
            |tape, store| {
                let a = tape.param(store, store.get("a").unwrap());
                let b = tape.param(store, store.get("b").unwrap());
                let c = tape.matmul(a, b);
                let t = tape.tanh(c);
                tape.sum(t)
            },
        );
    }

    /// Segment layout shared by the segmented-op tests: an empty segment, a
    /// one-member segment, a row repeated within a segment (2, 2) and across
    /// segments (0, 3).
    const MEMBERS: [usize; 8] = [0, 3, 1, 2, 2, 4, 3, 0];
    const OFFSETS: [usize; 6] = [0, 2, 2, 3, 6, 8];

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn segment_softmax_is_softmax_per_segment_bit_for_bit() {
        for logits in [
            vec![0.3, -1.2, 2.5, 0.7, -0.4],
            vec![1.5; 5],                       // all equal
            vec![1e4, -1e4, 1e4, -1e4, 0.0],    // exp underflows to exactly 0
            vec![-1e4, -1e4, -1e4, -1e4, -1e4], // all far below zero
        ] {
            let mut tape = Tape::new();
            let x = tape.constant(Tensor::vector(logits.clone()));
            let seg = tape.segment_softmax(x, &MEMBERS, &OFFSETS);
            let got = tape.value(seg).data().to_vec();
            assert_eq!(got.len(), MEMBERS.len());
            assert!(got.iter().all(|v| v.is_finite()), "{logits:?} -> {got:?}");
            for w in OFFSETS.windows(2).filter(|w| w[0] < w[1]) {
                let picked: Vec<f32> = MEMBERS[w[0]..w[1]].iter().map(|&i| logits[i]).collect();
                let p = tape.constant(Tensor::vector(picked));
                let want = tape.softmax(p);
                assert_eq!(
                    bits(&got[w[0]..w[1]]),
                    bits(tape.value(want).data()),
                    "segment {w:?} of {logits:?}"
                );
            }
        }
    }

    #[test]
    fn segment_sum_is_vecmat_per_segment_bit_for_bit() {
        let rows: Vec<f32> = (0..5 * 3).map(|i| ((i * 37 % 19) as f32 - 9.0) / 7.0).collect();
        // attention-like weights with an exact zero (vecmat skips it)
        let att = vec![0.25, 0.75, 1.0, 0.5, 0.0, 0.5, 0.125, 0.875];
        for weights in [None, Some(att)] {
            let mut tape = Tape::new();
            let r = tape.constant(Tensor::matrix(5, 3, rows.clone()));
            let w = weights.clone().map(|w| tape.constant(Tensor::vector(w)));
            let out = tape.segment_sum(r, w, &MEMBERS, &OFFSETS);
            assert_eq!(tape.value(out).shape(), &[OFFSETS.len() - 1, 3]);
            for (s, seg) in OFFSETS.windows(2).enumerate() {
                let got = tape.value(out).row(s).to_vec();
                if seg[0] == seg[1] {
                    assert_eq!(got, vec![0.0; 3], "empty segment is a zero row");
                    continue;
                }
                let picked = tape.gather(r, &MEMBERS[seg[0]..seg[1]]);
                let wv = match &weights {
                    Some(w) => w[seg[0]..seg[1]].to_vec(),
                    None => vec![1.0; seg[1] - seg[0]],
                };
                let wv = tape.constant(Tensor::vector(wv));
                let want = tape.vecmat(wv, picked);
                assert_eq!(bits(&got), bits(tape.value(want).data()), "segment {s}");
            }
        }
    }

    #[test]
    fn matmul_nt_is_the_stack_of_per_row_matvecs_bit_for_bit() {
        // shapes around the 8-lane chunk of the dot kernel
        for (m, k, n) in [(1, 1, 1), (4, 7, 3), (5, 8, 8), (3, 9, 2), (6, 32, 32), (2, 33, 5)] {
            let a: Vec<f32> = (0..m * k).map(|i| ((i * 37 % 23) as f32 - 11.0) / 13.0).collect();
            let b: Vec<f32> = (0..n * k).map(|i| ((i * 53 % 29) as f32 - 14.0) / 17.0).collect();
            let mut tape = Tape::new();
            let av = tape.constant(Tensor::matrix(m, k, a));
            let bv = tape.constant(Tensor::matrix(n, k, b));
            let prod = tape.matmul_nt(av, bv);
            let per_row: Vec<Var> = (0..m)
                .map(|j| {
                    let x = tape.row(av, j);
                    tape.matvec(bv, x)
                })
                .collect();
            let stacked = tape.stack(&per_row);
            assert_eq!(tape.value(prod).shape(), &[m, n]);
            assert_eq!(
                bits(tape.value(prod).data()),
                bits(tape.value(stacked).data()),
                "{m}x{k} · ({n}x{k})ᵀ"
            );
        }
    }

    #[test]
    fn segment_sum_reports_its_work() {
        let before = crate::counters::snapshot();
        let mut tape = Tape::new();
        let r = tape.constant(Tensor::zeros(&[5, 3]));
        tape.segment_sum(r, None, &MEMBERS, &OFFSETS);
        let after = crate::counters::snapshot();
        // >= (not ==): parallel tests in this binary also issue kernel calls
        assert!(after.flops >= before.flops + 2 * 8 * 3, "2·E·dim flops");
        assert!(after.bytes > before.bytes);
    }

    #[test]
    #[should_panic(expected = "segment offsets must end at the member count")]
    fn segment_layout_is_validated() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::vector(vec![0.0; 3]));
        tape.segment_softmax(x, &[0, 1, 2], &[0, 2]);
    }

    #[test]
    fn gradcheck_matmul_nt() {
        let a: Vec<f32> = (0..5 * 9).map(|i| ((i * 37 % 19) as f32 - 9.0) / 23.0).collect();
        let b: Vec<f32> = (0..3 * 9).map(|i| ((i * 53 % 17) as f32 - 8.0) / 19.0).collect();
        check_gradients(
            &[("a", Tensor::matrix(5, 9, a)), ("b", Tensor::matrix(3, 9, b))],
            |tape, store| {
                let a = tape.param(store, store.get("a").unwrap());
                let b = tape.param(store, store.get("b").unwrap());
                let c = tape.matmul_nt(a, b);
                let t = tape.tanh(c);
                tape.sum(t)
            },
        );
    }

    #[test]
    fn gradcheck_segment_softmax() {
        check_gradients(
            &[
                ("x", Tensor::vector(vec![0.3, -0.5, 0.8, 0.1, -0.2])),
                ("mix", Tensor::vector(vec![0.9, -0.4, 0.3, 0.7, -0.6, 0.2, 0.5, -0.8])),
            ],
            |tape, store| {
                let x = tape.param(store, store.get("x").unwrap());
                let mix = tape.param(store, store.get("mix").unwrap());
                let s = tape.segment_softmax(x, &MEMBERS, &OFFSETS);
                // a non-uniform read-out: softmax rows sum to one, so a plain
                // sum would have zero gradient everywhere
                let m = tape.mul(s, mix);
                tape.sum(m)
            },
        );
    }

    #[test]
    fn gradcheck_segment_sum_with_and_without_weights() {
        let rows: Vec<f32> = (0..5 * 3).map(|i| ((i * 37 % 19) as f32 - 9.0) / 11.0).collect();
        for weighted in [false, true] {
            check_gradients(
                &[
                    ("rows", Tensor::matrix(5, 3, rows.clone())),
                    ("w", Tensor::vector(vec![0.2, 0.8, 1.0, 0.5, 0.3, 0.2, 0.6, 0.4])),
                ],
                |tape, store| {
                    let r = tape.param(store, store.get("rows").unwrap());
                    let w = tape.param(store, store.get("w").unwrap());
                    let out = tape.segment_sum(r, weighted.then_some(w), &MEMBERS, &OFFSETS);
                    let t = tape.tanh(out);
                    tape.sum(t)
                },
            );
        }
    }

    #[test]
    fn gradcheck_batched_attention_block() {
        // gather → matmul_nt → logits → segmented softmax → segmented sum: the
        // shape of one (layer, edge type) of relational message passing
        let h: Vec<f32> = (0..5 * 3).map(|i| ((i * 41 % 17) as f32 - 8.0) / 13.0).collect();
        check_gradients(
            &[
                ("h", Tensor::matrix(5, 3, h)),
                ("w", Tensor::matrix(3, 3, vec![0.5, -0.1, 0.2, 0.3, 0.4, -0.2, 0.1, 0.0, 0.6])),
            ],
            |tape, store| {
                let h = tape.param(store, store.get("h").unwrap());
                let w = tape.param(store, store.get("w").unwrap());
                let q = tape.row(h, 0);
                let dots = tape.matvec(h, q);
                let logits = tape.leaky_relu(dots, 0.2);
                let msgs = tape.matmul_nt(h, w);
                let att = tape.segment_softmax(logits, &MEMBERS, &OFFSETS);
                let out = tape.segment_sum(msgs, Some(att), &MEMBERS, &OFFSETS);
                let t = tape.tanh(out);
                tape.sum(t)
            },
        );
    }

    #[test]
    fn diamond_dependency_sums_gradients() {
        // loss = sum(x * x) -> dL/dx = 2x
        let (mut store, x) = store_with("x", Tensor::vector(vec![3.0, -1.0]));
        let mut tape = Tape::new();
        let xv = tape.param(&store, x);
        let sq = tape.mul(xv, xv);
        let loss = tape.sum(sq);
        tape.backward(loss, &mut store);
        assert_eq!(store.grad(x).data(), &[6.0, -2.0]);
    }
}
