//! Gradient tape: eager forward evaluation with recorded ops, reverse-mode
//! backward pass.
//!
//! Every op method computes its value immediately and records a node;
//! [`Tape::backward_into`] seeds the loss gradient, walks the nodes in
//! reverse and writes parameter gradients into a detached [`GradBuffer`]
//! (so the whole pass needs only `&ParamStore` and can run on any worker
//! thread). [`Tape::backward`] is the single-threaded convenience wrapper
//! that folds the buffer straight into a store. Tapes are flat `Vec`s of
//! nodes — no `Rc`/`RefCell` graph plumbing — because subgraph models
//! rebuild the graph for every sample anyway.
//!
//! # Memory
//!
//! A tape owns its memory and allocates only while it grows.
//! [`Tape::param`] records a shared handle to the store's value instead of
//! a copy (see [`ParamStore`]'s module docs for what that means for a write
//! while the tape is alive). [`Tape::reset`] ends a recording but keeps its
//! storage: the node table; the index record, one `Vec` every node appends
//! its integer operands to (gather rows, segment members and offsets,
//! concat/stack parts); and every value buffer, handed back
//! to spares sorted into power-of-two size classes that the next recording's
//! nodes draw from. Each class settles at the most buffers of its size one
//! recording holds at once, so what a tape keeps is bounded by a recording's
//! high-water mark, not by how many recordings it made or how they varied;
//! once warm, a forward allocates nothing. Constants are copied into a spare
//! ([`Tape::constant_with`] fills it in place), so no buffer is handed in
//! from outside and the storage never turns over. Backward draws its
//! gradient tensors from spares of the same kind in a [`BackwardScratch`].
//! [`Tape::retained`] reports what is kept.
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
use std::sync::Arc;

/// Handle to a node on a [`Tape`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Var(usize);

/// A run of the tape's index record ([`Tape`]'s `index`).
#[derive(Clone, Copy, Debug)]
struct Span {
    start: usize,
    end: usize,
}

impl Span {
    fn of(self, index: &[usize]) -> &[usize] {
        &index[self.start..self.end]
    }
}

/// A node's operation. Variable-length operands are runs of the tape's
/// index record.
#[derive(Clone, Copy, Debug, Default)]
enum Op {
    #[default]
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
    SegmentSoftmax {
        logits: Var,
        members: Span,
        offsets: Span,
    },
    SegmentSum {
        rows: Var,
        weights: Option<Var>,
        members: Span,
        offsets: Span,
    },
    Sum(Var),
    Mean(Var),
    /// The parts' node indices.
    Concat(Span),
    /// The rows' node indices.
    Stack(Span),
    Row(Var, usize),
    Gather(Var, Span),
}

/// One recorded node. Its slot outlives the recording: the next one
/// overwrites it, after the value buffer went back to the tape's spares.
#[derive(Default)]
struct Node {
    op: Op,
    /// The value of every node but a `Param` node, in a buffer drawn from
    /// the spares.
    value: Tensor,
    /// A `Param` node's value: the store's own, shared.
    param: Option<Arc<Tensor>>,
}

impl Node {
    fn value(&self) -> &Tensor {
        self.param.as_deref().unwrap_or(&self.value)
    }
}

/// The value of `v` among the recorded nodes.
fn val(recorded: &[Node], v: Var) -> &Tensor {
    recorded[v.0].value()
}

/// What a [`Tape`] keeps between recordings ([`Tape::retained`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Retained {
    /// Node slots: the longest recording's node count.
    pub slots: usize,
    /// Heap buffers kept: the values (in use or spare) and the index record.
    pub(crate) buffers: usize,
    /// Bytes held: node table, spare lists and buffer capacities.
    pub(crate) bytes: usize,
}

/// Free buffers by size class: class `c` holds buffers of at least `2^c`
/// elements — what a finished recording hands back and the next one draws
/// from.
///
/// A request for `n` elements takes a buffer of its class, `n` rounded up to
/// a power of two, or allocates one of exactly that size; a returned buffer
/// joins the class its capacity covers. Each class therefore settles at the
/// most buffers of its size one recording holds at once, and once every kind
/// of recording has been seen the spares stop changing: taking and giving
/// are a push and a pop, with no search and no growth.
#[derive(Debug)]
struct Spare<T>(Vec<Vec<Vec<T>>>);

impl<T> Default for Spare<T> {
    fn default() -> Self {
        Spare(Vec::new())
    }
}

impl<T> Spare<T> {
    /// An empty buffer with room for `n` elements.
    fn take(&mut self, n: usize) -> Vec<T> {
        if n == 0 {
            return Vec::new();
        }
        let class = n.next_power_of_two().trailing_zeros() as usize;
        self.0.get_mut(class).and_then(Vec::pop).unwrap_or_else(|| Vec::with_capacity(1 << class))
    }

    /// Keep `buf`'s storage for a later [`Spare::take`].
    fn give(&mut self, mut buf: Vec<T>) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        let class = buf.capacity().ilog2() as usize;
        if self.0.len() <= class {
            self.0.resize_with(class + 1, Vec::new);
        }
        self.0[class].push(buf);
    }

    /// Buffers kept and their bytes.
    fn retained(&self) -> (usize, usize) {
        let classes = self.0.iter();
        let buffers: usize = classes.clone().map(Vec::len).sum();
        let elements: usize = classes.clone().flatten().map(Vec::capacity).sum();
        let lists: usize = classes.map(Vec::capacity).sum();
        (buffers, elements * std::mem::size_of::<T>() + lists * std::mem::size_of::<Vec<T>>())
    }
}

/// The gradient tape. See module docs.
#[derive(Default)]
pub struct Tape {
    /// `nodes[..len]` is the current recording; the slots past it are kept
    /// for the next one.
    nodes: Vec<Node>,
    len: usize,
    /// Value buffers between recordings.
    spare: Spare<f32>,
    /// The recording's integer operands, appended node by node: gather
    /// rows, segment members and offsets, concat/stack parts.
    index: Vec<usize>,
}

impl Tape {
    /// A fresh, empty tape.
    pub fn new() -> Self {
        Tape { nodes: Vec::with_capacity(64), ..Tape::default() }
    }

    /// Record one node of `len` value elements: the slot at the next
    /// position gets a spare buffer with room for them, then `f` reads its
    /// inputs from the recorded nodes, fills the slot and names the op.
    fn record(&mut self, len: usize, f: impl FnOnce(&[Node], &mut Node) -> Op) -> Var {
        if self.len == self.nodes.len() {
            self.nodes.push(Node::default());
        }
        let (recorded, free) = self.nodes.split_at_mut(self.len);
        let node = &mut free[0];
        // empty unless an earlier recording panicked half-way through it
        let left = std::mem::replace(node.value.storage(), self.spare.take(len));
        self.spare.give(left);
        node.op = f(recorded, node);
        self.len += 1;
        Var(self.len - 1)
    }

    /// Append `items` to the index record.
    fn push_index(&mut self, items: impl IntoIterator<Item = usize>) -> Span {
        let start = self.index.len();
        self.index.extend(items);
        Span { start, end: self.index.len() }
    }

    /// Element count of `v`'s value.
    fn len_of(&self, v: Var) -> usize {
        self.value(v).len()
    }

    /// Last dimension of `v`'s value (its columns, or a vector's length).
    fn last_dim(&self, v: Var) -> usize {
        self.value(v).shape().last().copied().unwrap_or(0)
    }

    /// The current value of a variable.
    pub fn value(&self, v: Var) -> &Tensor {
        val(&self.nodes[..self.len], v)
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// End the recording: drop every node and release the parameter handles
    /// it holds, but keep the node storage for the next recording (module
    /// docs). Reset or drop a tape before an optimiser step, or the step
    /// copies the parameters it recorded.
    pub fn reset(&mut self) {
        for node in &mut self.nodes[..self.len] {
            node.param = None;
            self.spare.give(std::mem::take(node.value.storage()));
        }
        self.len = 0;
        self.index.clear();
    }

    /// The storage this tape keeps for reuse.
    pub fn retained(&self) -> Retained {
        let (spares, spare_bytes) = self.spare.retained();
        let values = self.nodes.iter().filter(|n| n.value.capacity_bytes() > 0);
        let value_bytes: usize = self.nodes.iter().map(|n| n.value.capacity_bytes()).sum();
        let index_bytes = self.index.capacity() * std::mem::size_of::<usize>();
        Retained {
            slots: self.nodes.len(),
            buffers: spares + values.count() + usize::from(index_bytes > 0),
            bytes: self.nodes.capacity() * std::mem::size_of::<Node>()
                + spare_bytes
                + value_bytes
                + index_bytes,
        }
    }

    // ------------------------------------------------------------------ leaves

    /// Record a non-trainable constant (copied into the node's own storage).
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.constant_with(value.shape(), |data| data.extend_from_slice(value.data()))
    }

    /// Record a non-trainable constant of `shape` whose elements `fill`
    /// appends to the node's emptied buffer — the allocation-free way to
    /// record one.
    pub fn constant_with(&mut self, shape: &[usize], fill: impl FnOnce(&mut Vec<f32>)) -> Var {
        let want: usize = shape.iter().product();
        self.record(want, |_, node| {
            let data = node.value.refill(shape);
            fill(data);
            assert_eq!(data.len(), want, "constant of shape {shape:?} filled with {}", data.len());
            Op::Constant
        })
    }

    /// Record a trainable parameter: a shared handle to the store's value,
    /// read in place.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.record(0, |_, node| {
            node.param = Some(Arc::clone(store.shared(id)));
            Op::Param(id)
        })
    }

    // --------------------------------------------------------- elementwise ops

    /// `f(a, b)` elementwise into `out`, with the one-element broadcast.
    fn bcast(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32, out: &mut Tensor) {
        if a.shape() == b.shape() {
            out.refill(a.shape()).extend(a.data().iter().zip(b.data()).map(|(&x, &y)| f(x, y)));
        } else if b.len() == 1 {
            let s = b.data()[0];
            a.map_into(|x| f(x, s), out);
        } else if a.len() == 1 {
            let s = a.data()[0];
            b.map_into(|y| f(s, y), out);
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
        let len = self.len_of(a).max(self.len_of(b));
        self.record(len, |n, node| {
            Self::bcast(val(n, a), val(n, b), |x, y| x + y, &mut node.value);
            Op::Add(a, b)
        })
    }

    /// `a - b` (same broadcast rule as [`Tape::add`]).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let len = self.len_of(a).max(self.len_of(b));
        self.record(len, |n, node| {
            Self::bcast(val(n, a), val(n, b), |x, y| x - y, &mut node.value);
            Op::Sub(a, b)
        })
    }

    /// Elementwise `a * b` (same broadcast rule as [`Tape::add`]).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let len = self.len_of(a).max(self.len_of(b));
        self.record(len, |n, node| {
            Self::bcast(val(n, a), val(n, b), |x, y| x * y, &mut node.value);
            Op::Mul(a, b)
        })
    }

    /// `c * a` for a compile-time constant `c`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        self.record(self.len_of(a), |n, node| {
            val(n, a).map_into(|x| x * c, &mut node.value);
            Op::Scale(a, c)
        })
    }

    /// `a + c` elementwise for a constant `c`.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        self.record(self.len_of(a), |n, node| {
            val(n, a).map_into(|x| x + c, &mut node.value);
            Op::AddScalar(a)
        })
    }

    // ------------------------------------------------------------ linear algebra

    /// Matrix product `(m,k) x (k,n)`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let len = self.value(a).rows() * self.last_dim(b);
        self.record(len, |n, node| {
            val(n, a).matmul_into(val(n, b), &mut node.value);
            Op::MatMul(a, b)
        })
    }

    /// `a · bᵀ` with `b` stored un-transposed: `(m,k) x (n,k)ᵀ -> (m,n)`.
    ///
    /// Row `j` of the result is bit-identical to `matvec(b, a[j])`: both are
    /// one [`dot_chunked`](crate::kernels) per element over the same two
    /// contiguous rows, operands swapped — which is what lets a batch of
    /// per-row `matvec`s collapse into one product without moving a score.
    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        let len = self.value(a).rows() * self.value(b).rows();
        self.record(len, |n, node| {
            val(n, a).matmul_nt_into(val(n, b), &mut node.value);
            Op::MatMulNt(a, b)
        })
    }

    /// Matrix-vector product `(m,k) x [k] -> [m]`.
    pub fn matvec(&mut self, a: Var, x: Var) -> Var {
        self.record(self.value(a).rows(), |n, node| {
            val(n, a).matvec_into(val(n, x), &mut node.value);
            Op::MatVec(a, x)
        })
    }

    /// Vector-matrix product `[k] x (k,n) -> [n]`.
    pub fn vecmat(&mut self, x: Var, a: Var) -> Var {
        self.record(self.last_dim(a), |n, node| {
            val(n, x).vecmat_into(val(n, a), &mut node.value);
            Op::VecMat(x, a)
        })
    }

    /// Dot product of two rank-1 variables, as a one-element tensor.
    pub fn dot(&mut self, x: Var, y: Var) -> Var {
        self.record(1, |n, node| {
            let d = val(n, x).dot(val(n, y));
            node.value.refill(&[1]).push(d);
            Op::Dot(x, y)
        })
    }

    // ---------------------------------------------------------------- activations

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        self.record(self.len_of(a), |n, node| {
            val(n, a).map_into(|x| x.max(0.0), &mut node.value);
            Op::Relu(a)
        })
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        self.record(self.len_of(a), |n, node| {
            val(n, a).map_into(|x| if x >= 0.0 { x } else { slope * x }, &mut node.value);
            Op::LeakyRelu(a, slope)
        })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.record(self.len_of(a), |n, node| {
            val(n, a).map_into(|x| 1.0 / (1.0 + (-x).exp()), &mut node.value);
            Op::Sigmoid(a)
        })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.record(self.len_of(a), |n, node| {
            val(n, a).map_into(f32::tanh, &mut node.value);
            Op::Tanh(a)
        })
    }

    /// Numerically stable softmax over a rank-1 variable.
    pub fn softmax(&mut self, a: Var) -> Var {
        self.record(self.len_of(a), |n, node| {
            let x = val(n, a);
            assert_eq!(x.shape().len(), 1, "softmax requires rank 1");
            let max = x.data().iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let out = node.value.refill(x.shape());
            out.extend(x.data().iter().map(|&v| (v - max).exp()));
            let z: f32 = out.iter().sum();
            for o in out.iter_mut() {
                *o /= z;
            }
            Op::Softmax(a)
        })
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
        let (member_span, offset_span) =
            (self.push_index(members.iter().copied()), self.push_index(offsets.iter().copied()));
        self.record(members.len(), |n, node| {
            let x = val(n, logits);
            assert_eq!(x.shape().len(), 1, "segment_softmax requires rank-1 logits");
            check_segments(members, offsets, x.len());
            let x = x.data();
            let out = node.value.refill_with(&[members.len()], 0.0);
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
            Op::SegmentSoftmax { logits, members: member_span, offsets: offset_span }
        })
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
        let len = offsets.len().saturating_sub(1) * self.last_dim(rows);
        let (member_span, offset_span) =
            (self.push_index(members.iter().copied()), self.push_index(offsets.iter().copied()));
        self.record(len, |n, node| {
            let t = val(n, rows);
            let d = t.cols();
            check_segments(members, offsets, t.rows());
            let w = weights.map(|w| val(n, w));
            if let Some(w) = w {
                assert_eq!(w.shape(), &[members.len()], "segment_sum needs one weight per member");
            }
            counters::record(
                2 * (members.len() * d) as u64,
                4 * (members.len() * (d + 1) + (offsets.len() - 1) * d) as u64,
            );
            let out = node.value.refill_with(&[offsets.len() - 1, d], 0.0);
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
            Op::SegmentSum { rows, weights, members: member_span, offsets: offset_span }
        })
    }

    // ----------------------------------------------------------------- reductions

    /// Sum of all elements, as a one-element tensor.
    pub fn sum(&mut self, a: Var) -> Var {
        self.record(1, |n, node| {
            let s = val(n, a).sum();
            node.value.refill(&[1]).push(s);
            Op::Sum(a)
        })
    }

    /// Mean of all elements, as a one-element tensor.
    pub fn mean(&mut self, a: Var) -> Var {
        self.record(1, |n, node| {
            let t = val(n, a);
            let m = t.sum() / t.len() as f32;
            node.value.refill(&[1]).push(m);
            Op::Mean(a)
        })
    }

    // -------------------------------------------------------------- restructuring

    /// Concatenate rank-1 variables into one longer vector.
    pub fn concat(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat of zero vars");
        let len = parts.iter().map(|&p| self.len_of(p)).sum();
        let span = self.push_index(parts.iter().map(|p| p.0));
        self.record(len, |n, node| {
            let mut total = 0;
            for &p in parts {
                let t = val(n, p);
                assert_eq!(t.shape().len(), 1, "concat requires rank-1 inputs");
                total += t.len();
            }
            let data = node.value.refill(&[total]);
            for &p in parts {
                data.extend_from_slice(val(n, p).data());
            }
            Op::Concat(span)
        })
    }

    /// Stack `n` rank-1 variables of length `d` into an `(n, d)` matrix.
    pub fn stack(&mut self, rows: &[Var]) -> Var {
        assert!(!rows.is_empty(), "stack of zero vars");
        let span = self.push_index(rows.iter().map(|r| r.0));
        self.record(rows.len() * self.len_of(rows[0]), |n, node| {
            let d = val(n, rows[0]).len();
            let data = node.value.refill(&[rows.len(), d]);
            for &r in rows {
                let t = val(n, r);
                assert_eq!(t.shape(), &[d], "stack rows must share length {d}");
                data.extend_from_slice(t.data());
            }
            Op::Stack(span)
        })
    }

    /// Select row `i` of a rank-2 variable as a vector.
    pub fn row(&mut self, m: Var, i: usize) -> Var {
        self.record(self.last_dim(m), |n, node| {
            let row = val(n, m).row(i);
            node.value.refill(&[row.len()]).extend_from_slice(row);
            Op::Row(m, i)
        })
    }

    /// Select multiple rows of a rank-2 variable (embedding lookup). Repeated
    /// indices are allowed; their gradients scatter-add.
    pub fn gather(&mut self, m: Var, indices: &[usize]) -> Var {
        let span = self.push_index(indices.iter().copied());
        self.record(indices.len() * self.last_dim(m), |n, node| {
            let t = val(n, m);
            let data = node.value.refill(&[indices.len(), t.cols()]);
            for &i in indices {
                data.extend_from_slice(t.row(i));
            }
            Op::Gather(m, span)
        })
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

    /// [`Tape::backward_into`] with caller-owned gradient storage.
    ///
    /// The scratch keeps the gradient storage of earlier passes and reuses
    /// it (a pass leaves no gradient live), so repeated passes over similar
    /// tapes allocate only the parameter gradients they hand to `out`. The
    /// gradient values produced are bit-identical to
    /// [`Tape::backward_into`]: the walk order and the accumulation order do
    /// not depend on the scratch's history.
    pub fn backward_into_with(
        &self,
        loss: Var,
        scratch: &mut BackwardScratch,
        out: &mut GradBuffer,
    ) {
        let (nodes, index) = (&self.nodes[..self.len], &self.index[..]);
        assert_eq!(val(nodes, loss).len(), 1, "backward seed must be a one-element tensor");
        let BackwardScratch { grads, live, spare, tmp, tmp_w } = scratch;
        if grads.len() <= loss.0 {
            grads.resize_with(loss.0 + 1, Tensor::default);
        }
        live.clear();
        live.resize(loss.0 + 1, false);
        *grads[loss.0].storage() = spare.take(1);
        grads[loss.0].refill(&[1]).push(1.0);
        live[loss.0] = true;

        for i in (0..=loss.0).rev() {
            if !std::mem::replace(&mut live[i], false) {
                continue;
            }
            let (below, at) = grads.split_at_mut(i);
            let g = &mut at[0];
            let mut sink = Sink { nodes, grads: below, live: &mut live[..i], spare: &mut *spare };
            let node = &nodes[i];
            let v = |x: Var| val(nodes, x);
            match node.op {
                Op::Constant => {}
                Op::Param(id) => {
                    // a first contribution hands `g`'s storage to `out`; a new
                    // buffer of its size replaces it, so the spares keep their
                    // shape and the next pass finds every size it needs
                    let size = g.storage().capacity();
                    out.add_from(id, g);
                    if g.storage().capacity() == 0 {
                        *g.storage() = Vec::with_capacity(size);
                    }
                }
                Op::Add(a, b) | Op::Sub(a, b) => {
                    let sign_b = if matches!(node.op, Op::Sub(..)) { -1.0 } else { 1.0 };
                    for (t, sign) in [(a, 1.0), (b, sign_b)] {
                        sink.add_bcast(t, tmp, |d| g.map_into(|x| x * sign, d));
                    }
                }
                Op::Mul(a, b) => {
                    sink.add_bcast(a, tmp, |d| Self::bcast(g, v(b), |x, y| x * y, d));
                    sink.add_bcast(b, tmp, |d| Self::bcast(g, v(a), |x, y| x * y, d));
                }
                Op::Scale(a, c) => sink.add(a, tmp, |d| g.map_into(|x| x * c, d)),
                Op::AddScalar(a) => sink.put(a, g),
                Op::MatMul(a, b) => {
                    // grad_a = g·bᵀ and grad_b = aᵀ·g via the transpose-free
                    // blocked kernels (no intermediate transpose allocation).
                    sink.add(a, tmp, |d| g.matmul_nt_into(v(b), d));
                    sink.add(b, tmp, |d| v(a).matmul_tn_into(g, d));
                }
                Op::MatMulNt(a, b) => {
                    // c = a·bᵀ: grad_a = g·b and grad_b = gᵀ·a
                    sink.add(a, tmp, |d| g.matmul_into(v(b), d));
                    sink.add(b, tmp, |d| g.matmul_tn_into(v(a), d));
                }
                Op::MatVec(a, x) => {
                    let (va, vx) = (v(a), v(x));
                    // y = A x: dA_ij = g_i * x_j ; dx = A^T g
                    let (m, k) = (va.rows(), va.cols());
                    sink.add(a, tmp, |d| {
                        let da = d.refill_with(&[m, k], 0.0);
                        for r in 0..m {
                            let gi = g.data()[r];
                            if gi != 0.0 {
                                for c in 0..k {
                                    da[r * k + c] = gi * vx.data()[c];
                                }
                            }
                        }
                    });
                    // dx = Aᵀg computed as the row-combination g·A — walks A
                    // by contiguous rows instead of materialising Aᵀ.
                    sink.add(x, tmp, |d| g.vecmat_into(va, d));
                }
                Op::VecMat(x, a) => {
                    let (vx, va) = (v(x), v(a));
                    // y = x A: dx = A g ; dA_ij = x_i * g_j
                    sink.add(x, tmp, |d| va.matvec_into(g, d));
                    let (k, n) = (va.rows(), va.cols());
                    sink.add(a, tmp, |d| {
                        let da = d.refill_with(&[k, n], 0.0);
                        for r in 0..k {
                            let xi = vx.data()[r];
                            if xi != 0.0 {
                                for c in 0..n {
                                    da[r * n + c] = xi * g.data()[c];
                                }
                            }
                        }
                    });
                }
                Op::Dot(x, y) => {
                    let s = g.item();
                    sink.add(x, tmp, |d| v(y).map_into(|e| e * s, d));
                    sink.add(y, tmp, |d| v(x).map_into(|e| e * s, d));
                }
                Op::Relu(a) => {
                    let va = v(a);
                    sink.add(a, tmp, |d| {
                        d.refill(va.shape()).extend(
                            g.data()
                                .iter()
                                .zip(va.data())
                                .map(|(&gi, &x)| if x > 0.0 { gi } else { 0.0 }),
                        )
                    });
                }
                Op::LeakyRelu(a, slope) => {
                    let va = v(a);
                    sink.add(a, tmp, |d| {
                        d.refill(va.shape()).extend(g.data().iter().zip(va.data()).map(
                            |(&gi, &x)| {
                                if x >= 0.0 {
                                    gi
                                } else {
                                    gi * slope
                                }
                            },
                        ))
                    });
                }
                Op::Sigmoid(a) => {
                    let out = node.value();
                    sink.add(a, tmp, |d| {
                        d.refill(out.shape()).extend(
                            g.data().iter().zip(out.data()).map(|(&gi, &s)| gi * s * (1.0 - s)),
                        )
                    });
                }
                Op::Tanh(a) => {
                    let out = node.value();
                    sink.add(a, tmp, |d| {
                        d.refill(out.shape()).extend(
                            g.data().iter().zip(out.data()).map(|(&gi, &t)| gi * (1.0 - t * t)),
                        )
                    });
                }
                Op::Softmax(a) => {
                    let s = node.value();
                    let inner: f32 = g.data().iter().zip(s.data()).map(|(&gi, &si)| gi * si).sum();
                    sink.add(a, tmp, |d| {
                        d.refill(&[g.len()]).extend(
                            g.data().iter().zip(s.data()).map(|(&gi, &si)| si * (gi - inner)),
                        )
                    });
                }
                Op::SegmentSoftmax { logits, members, offsets } => {
                    // the rank-1 softmax rule per segment, scattered back to
                    // the gathered positions
                    let (members, offsets) = (members.of(index), offsets.of(index));
                    let (s, g) = (node.value().data(), g.data());
                    sink.add(logits, tmp, |d| {
                        let gd = d.refill_with(v(logits).shape(), 0.0);
                        for seg in offsets.windows(2) {
                            let r = seg[0]..seg[1];
                            let inner: f32 = g[r.clone()]
                                .iter()
                                .zip(&s[r.clone()])
                                .map(|(&gi, &si)| gi * si)
                                .sum();
                            for e in r {
                                gd[members[e]] += s[e] * (g[e] - inner);
                            }
                        }
                    });
                }
                Op::SegmentSum { rows, weights, members, offsets } => {
                    // out_s = Σ w_e · rows[m_e]: d rows[m_e] += w_e · g_s and
                    // d w_e = g_s · rows[m_e]
                    let (members, offsets) = (members.of(index), offsets.of(index));
                    let vr = v(rows);
                    let d = vr.cols();
                    let w = weights.map(|w| v(w).data());
                    counters::record(
                        (2 + 2 * w.is_some() as u64) * (members.len() * d) as u64,
                        4 * (2 * members.len() * d + g.len()) as u64,
                    );
                    let dr = tmp.refill_with(vr.shape(), 0.0);
                    let mut dw = w.map(|_| tmp_w.refill_with(&[members.len()], 0.0));
                    if d > 0 {
                        for (seg, gs) in offsets.windows(2).zip(g.data().chunks_exact(d)) {
                            for (e, &m) in (seg[0]..).zip(&members[seg[0]..seg[1]]) {
                                let a = w.map_or(1.0, |w| w[e]);
                                if a != 0.0 {
                                    for (o, &gv) in dr[m * d..(m + 1) * d].iter_mut().zip(gs) {
                                        *o += a * gv;
                                    }
                                }
                                if let Some(dw) = &mut dw {
                                    dw[e] = dot_chunked(gs, vr.row(m));
                                }
                            }
                        }
                    }
                    sink.put(rows, tmp);
                    if let Some(wv) = weights {
                        sink.put(wv, tmp_w);
                    }
                }
                Op::Sum(a) => sink.add(a, tmp, |d| {
                    d.refill_with(v(a).shape(), g.item());
                }),
                Op::Mean(a) => {
                    let va = v(a);
                    sink.add(a, tmp, |d| {
                        d.refill_with(va.shape(), g.item() / va.len() as f32);
                    });
                }
                Op::Concat(parts) => {
                    let mut off = 0;
                    for &p in parts.of(index) {
                        let n = v(Var(p)).len();
                        let part = &g.data()[off..off + n];
                        sink.add(Var(p), tmp, |d| d.refill(&[n]).extend_from_slice(part));
                        off += n;
                    }
                }
                Op::Stack(rows) => {
                    let rows = rows.of(index);
                    let d = v(Var(rows[0])).len();
                    for (r, &p) in rows.iter().enumerate() {
                        let row = &g.data()[r * d..(r + 1) * d];
                        sink.add(Var(p), tmp, |t| t.refill(&[d]).extend_from_slice(row));
                    }
                }
                Op::Row(m, i) => sink.add(m, tmp, |d| {
                    d.refill_with(v(m).shape(), 0.0);
                    d.row_mut(i).copy_from_slice(g.data());
                }),
                Op::Gather(m, rows) => {
                    let c = v(m).cols();
                    sink.add(m, tmp, |d| {
                        d.refill_with(v(m).shape(), 0.0);
                        for (r, &i) in rows.of(index).iter().enumerate() {
                            let row = d.row_mut(i);
                            for (dst, src) in row.iter_mut().zip(&g.data()[r * c..(r + 1) * c]) {
                                *dst += src;
                            }
                        }
                    });
                }
            }
            // consumed: its storage serves the next gradient to go live
            sink.spare.give(std::mem::take(g.storage()));
        }
    }
}

/// Where one backward step sends its contributions: the gradient slots of
/// the nodes below it, which take their storage from the spares when they
/// go live.
struct Sink<'a> {
    nodes: &'a [Node],
    grads: &'a mut [Tensor],
    live: &'a mut [bool],
    spare: &'a mut Spare<f32>,
}

impl Sink<'_> {
    /// Make `v`'s slot live with room for its gradient; `false` when it
    /// already was.
    fn go_live(&mut self, v: Var) -> bool {
        if std::mem::replace(&mut self.live[v.0], true) {
            return false;
        }
        *self.grads[v.0].storage() = self.spare.take(val(self.nodes, v).len());
        true
    }

    /// Add a contribution to `v`'s gradient: `f` writes it straight into
    /// the slot when it is the first, otherwise into `tmp`, which is then
    /// added to the slot.
    fn add(&mut self, v: Var, tmp: &mut Tensor, f: impl FnOnce(&mut Tensor)) {
        if self.go_live(v) {
            f(&mut self.grads[v.0]);
        } else {
            f(tmp);
            self.grads[v.0].axpy(1.0, tmp);
        }
    }

    /// [`Sink::add`], collapsing a broadcast by summation when `v` is a
    /// one-element tensor.
    fn add_bcast(&mut self, v: Var, tmp: &mut Tensor, f: impl FnOnce(&mut Tensor)) {
        if val(self.nodes, v).len() != 1 {
            return self.add(v, tmp, f);
        }
        f(tmp);
        if tmp.len() != 1 {
            let s = tmp.sum();
            tmp.refill(&[1]).push(s);
        }
        self.put(v, tmp);
    }

    /// Add an already computed contribution `g` to `v`'s gradient.
    fn put(&mut self, v: Var, g: &Tensor) {
        if self.go_live(v) {
            self.grads[v.0].refill(g.shape()).extend_from_slice(g.data());
        } else {
            self.grads[v.0].axpy(1.0, g);
        }
    }
}

/// Reusable gradient storage for [`Tape::backward_into_with`].
///
/// Holds a gradient slot per node position, the spare buffers a slot takes
/// when its gradient goes live and hands back once the walk has consumed
/// it, and the buffers later contributions are computed in before they are
/// added. The spares settle at the most gradients one pass holds at once.
/// Keeping one of these per worker thread (or per training loop) amortises
/// the storage across samples. A pass leaves no gradient live, so reuse
/// carries no state between calls — only capacity.
#[derive(Debug, Default)]
pub struct BackwardScratch {
    grads: Vec<Tensor>,
    live: Vec<bool>,
    spare: Spare<f32>,
    /// Where a node's second and later contributions are computed.
    tmp: Tensor,
    /// A segment sum's weight gradient, computed alongside its row gradient.
    tmp_w: Tensor,
}

impl BackwardScratch {
    /// An empty scratch; the storage grows to the tape's size on first use.
    pub fn new() -> Self {
        Self::default()
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
                let flat = tape.sum(g);
                let s = tape.sum(cat);
                let both = tape.add(flat, s);
                tape.mean(both)
            },
        );
    }

    #[test]
    fn gradcheck_stack_dot() {
        check_gradients(
            &[("x", Tensor::vector(vec![0.4, -0.3])), ("y", Tensor::vector(vec![0.2, 0.9]))],
            |tape, store| {
                let x = tape.param(store, store.get("x").unwrap());
                let y = tape.param(store, store.get("y").unwrap());
                let st = tape.stack(&[x, y]);
                let d = tape.dot(x, y);
                let sm = tape.sum(st);
                let b = tape.add(d, sm);
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

    /// Every op kind once, over inputs whose sizes depend on `n`, with a
    /// parameter and a constant among the leaves; returns the loss.
    fn every_op(tape: &mut Tape, store: &ParamStore, n: usize) -> Var {
        let w = tape.param(store, store.get("w").unwrap());
        let xs: Vec<f32> = (0..n * 3).map(|i| ((i * 37 % 19) as f32 - 9.0) / 7.0).collect();
        let x = tape.constant(Tensor::matrix(n, 3, xs));
        let s = tape.constant_with(&[1], |d| d.push(0.5));
        let h = tape.matmul_nt(x, w);
        let m = tape.matmul(h, w);
        let rows: Vec<usize> = (0..n).rev().chain(0..n).collect();
        let g = tape.gather(m, &rows);
        let q = tape.row(g, 0);
        let logits = tape.matvec(g, q);
        let lr = tape.leaky_relu(logits, 0.2);
        let offsets = [0, n, 2 * n];
        let att = tape.segment_softmax(lr, &rows, &offsets);
        let seg = tape.segment_sum(g, Some(att), &rows, &offsets);
        let plain = tape.segment_sum(g, None, &rows, &offsets);
        let both = tape.add(seg, plain);
        let r0 = tape.row(both, 0);
        let r1 = tape.row(both, 1);
        let sm = tape.softmax(r0);
        let v = tape.vecmat(sm, w);
        let cat = tape.concat(&[v, r1]);
        let st = tape.stack(&[v, r1]);
        let sg = tape.sigmoid(cat);
        let th = tape.tanh(sg);
        let rl = tape.relu(th);
        let sc = tape.scale(rl, 1.5);
        let sh = tape.add_scalar(sc, -0.1);
        let sub = tape.sub(sh, s);
        let mul = tape.mul(sub, s);
        let dot = tape.dot(mul, cat);
        let mean = tape.mean(st);
        let total = tape.sum(mul);
        let b = tape.add(dot, mean);
        tape.add(b, total)
    }

    fn value_and_grad_bits(tape: &Tape, loss: Var, scratch: &mut BackwardScratch) -> Vec<u32> {
        let mut buf = crate::GradBuffer::new();
        tape.backward_into_with(loss, scratch, &mut buf);
        let mut bits = vec![tape.value(loss).item().to_bits()];
        bits.extend(buf.iter().flat_map(|(_, g)| g.data().iter().map(|v| v.to_bits())));
        bits
    }

    /// A tape and a backward scratch reused across recordings of different
    /// sizes compute exactly what fresh ones compute.
    #[test]
    fn recycled_storage_records_and_differentiates_the_same_bits() {
        let (store, _) =
            store_with("w", Tensor::matrix(3, 3, (0..9).map(|i| i as f32 / 9.0 - 0.4).collect()));
        let mut tape = Tape::new();
        let mut scratch = BackwardScratch::new();
        for n in [4, 1, 7, 2, 7, 3] {
            tape.reset();
            let loss = every_op(&mut tape, &store, n);
            let reused = value_and_grad_bits(&tape, loss, &mut scratch);
            let mut fresh_tape = Tape::new();
            let fresh_loss = every_op(&mut fresh_tape, &store, n);
            let fresh = value_and_grad_bits(&fresh_tape, fresh_loss, &mut BackwardScratch::new());
            assert_eq!(reused, fresh, "n = {n}");
        }
    }

    /// Recording the same mix of samples again leaves the kept storage
    /// exactly where the first round put it.
    #[test]
    fn retained_storage_plateaus() {
        let (store, _) = store_with("w", Tensor::matrix(3, 3, vec![0.1; 9]));
        let mut tape = Tape::new();
        let round = |tape: &mut Tape| {
            for n in [5, 2, 9, 1] {
                every_op(tape, &store, n);
                tape.reset();
            }
            tape.retained()
        };
        let first = round(&mut tape);
        assert_eq!(first.slots, every_op(&mut Tape::new(), &store, 1).0 + 1);
        assert!(first.buffers > first.slots, "values and index records are kept");
        for _ in 0..3 {
            assert_eq!(round(&mut tape), first);
        }
    }

    #[test]
    fn reset_releases_parameter_handles() {
        let (store, w) = store_with("w", Tensor::vector(vec![1.0, 2.0]));
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        tape.param(&store, w);
        assert_eq!(Arc::strong_count(store.shared(w)), 3, "two nodes read the store's value");
        assert_eq!(tape.value(wv).data().as_ptr(), store.value(w).data().as_ptr(), "no copy");
        tape.reset();
        assert_eq!(Arc::strong_count(store.shared(w)), 1);
    }

    #[test]
    #[should_panic(expected = "filled with 2")]
    fn constant_with_checks_its_fill() {
        Tape::new().constant_with(&[2, 2], |d| d.extend([1.0, 2.0]));
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
