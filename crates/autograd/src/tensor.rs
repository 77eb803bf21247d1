//! Dense row-major `f32` tensors of rank 1 or 2.
//!
//! Shapes are validated eagerly with panics — in a training loop a shape
//! mismatch is a programming error, never data-dependent, so failing fast is
//! the right contract (matching ndarray/PyTorch semantics).
//!
//! The shape lives inline (two dimensions and a rank), so the only heap
//! block a tensor owns is its data. Every op that produces a tensor has an
//! `_into` form that writes into an existing tensor and reuses its buffer —
//! the [`crate::Tape`] records into recycled node storage through those; the
//! allocating forms are one-line wrappers over them, so both compute the
//! same bits.

use crate::counters;
use crate::kernels::dot_chunked;
use std::fmt;

/// A dense tensor: a rank-1 or rank-2 shape and row-major `data`.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    /// `[len, 0]` for a vector, `[rows, cols]` for a matrix.
    dims: [usize; 2],
    rank: u8,
    data: Vec<f32>,
}

impl Default for Tensor {
    /// The empty vector (owns no allocation).
    fn default() -> Self {
        Tensor { dims: [0, 0], rank: 1, data: Vec::new() }
    }
}

/// Inline `(dims, rank)` of a rank-1/2 `shape`.
fn dims_of(shape: &[usize]) -> ([usize; 2], u8) {
    match *shape {
        [n] => ([n, 0], 1),
        [r, c] => ([r, c], 2),
        _ => panic!("only rank 1/2 supported, got {shape:?}"),
    }
}

impl Tensor {
    /// Rank-1 tensor from raw data.
    pub fn vector(data: Vec<f32>) -> Self {
        Tensor { dims: [data.len(), 0], rank: 1, data }
    }

    /// Rank-2 tensor from raw row-major data; `data.len()` must equal `rows * cols`.
    pub fn matrix(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length {} != {rows}x{cols}", data.len());
        Tensor { dims: [rows, cols], rank: 2, data }
    }

    /// All-zero tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor::full(shape, 0.0)
    }

    /// Tensor of the given shape filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let (dims, rank) = dims_of(shape);
        Tensor { dims, rank, data: vec![value; shape.iter().product()] }
    }

    /// A single-element rank-1 tensor (the representation used for scalars).
    pub fn scalar(value: f32) -> Self {
        Tensor::vector(vec![value])
    }

    /// Rebuild a tensor with `shape` from raw `data`.
    pub(crate) fn matrix_or_vector(shape: &[usize], data: Vec<f32>) -> Tensor {
        match *shape {
            [_] => Tensor::vector(data),
            [r, c] => Tensor::matrix(r, c, data),
            _ => unreachable!("rank limited to 1/2"),
        }
    }

    /// Take `shape` and hand out the emptied data buffer (capacity kept); the
    /// caller refills it with exactly `shape`'s element count.
    pub(crate) fn refill(&mut self, shape: &[usize]) -> &mut Vec<f32> {
        (self.dims, self.rank) = dims_of(shape);
        self.data.clear();
        &mut self.data
    }

    /// Take `shape` with every element `value`, reusing the data buffer.
    pub(crate) fn refill_with(&mut self, shape: &[usize], value: f32) -> &mut [f32] {
        let n = shape.iter().product();
        let data = self.refill(shape);
        data.resize(n, value);
        data
    }

    /// Bytes of data storage this tensor holds (its capacity, not its length).
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }

    /// The data buffer itself, for storage to be moved in and out.
    pub(crate) fn storage(&mut self) -> &mut Vec<f32> {
        &mut self.data
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw data slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The single element of a one-element tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "item() on tensor of shape {:?}", self.shape());
        self.data[0]
    }

    /// Number of rows (rank-2) or elements (rank-1).
    pub fn rows(&self) -> usize {
        self.dims[0]
    }

    /// Number of columns of a rank-2 tensor.
    pub fn cols(&self) -> usize {
        assert_eq!(self.rank, 2, "cols() on rank-{} tensor", self.rank);
        self.dims[1]
    }

    /// Row `i` of a rank-2 tensor as a slice.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.rank, 2);
        let c = self.dims[1];
        &self.data[i * c..(i + 1) * c]
    }

    /// Mutable row `i` of a rank-2 tensor.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert_eq!(self.rank, 2);
        let c = self.dims[1];
        &mut self.data[i * c..(i + 1) * c]
    }

    /// Elementwise addition (shapes must match).
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        counters::record(self.len() as u64, 12 * self.len() as u64);
        self.zip_map(other, |a, b| a + b)
    }

    /// In-place elementwise `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "axpy shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        counters::record(2 * self.len() as u64, 12 * self.len() as u64);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let mut out = Tensor::default();
        out.refill(self.shape()).extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
        out
    }

    /// Apply `f` elementwise, into `out`'s storage.
    pub(crate) fn map_into(&self, f: impl Fn(f32) -> f32, out: &mut Tensor) {
        out.refill(self.shape()).extend(self.data.iter().map(|&a| f(a)));
    }

    /// Matrix product of two rank-2 tensors: `(m,k) x (k,n) -> (m,n)`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul`] into `out`'s storage.
    pub(crate) fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rank, 2, "matmul lhs must be rank 2");
        assert_eq!(other.rank, 2, "matmul rhs must be rank 2");
        let ([m, k], [k2, n]) = (self.dims, other.dims);
        assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
        let o = out.refill_with(&[m, n], 0.0);
        crate::kernels::matmul_nn(m, k, n, &self.data, &other.data, o);
    }

    /// `self · otherᵀ` into `out`'s storage, without materialising the
    /// transpose: `(m,k) x (n,k)ᵀ -> (m,n)`. This is the `grad_a = g·bᵀ`
    /// backward rule.
    pub(crate) fn matmul_nt_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rank, 2, "matmul_nt lhs must be rank 2");
        assert_eq!(other.rank, 2, "matmul_nt rhs must be rank 2");
        let ([m, k], [n, k2]) = (self.dims, other.dims);
        assert_eq!(k, k2, "matmul_nt inner dims {k} vs {k2}");
        let o = out.refill_with(&[m, n], 0.0);
        crate::kernels::matmul_nt(m, k, n, &self.data, &other.data, o);
    }

    /// `selfᵀ · other` into `out`'s storage, without materialising the
    /// transpose: `(k,m)ᵀ x (k,n) -> (m,n)`. This is the `grad_b = aᵀ·g`
    /// backward rule.
    pub(crate) fn matmul_tn_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rank, 2, "matmul_tn lhs must be rank 2");
        assert_eq!(other.rank, 2, "matmul_tn rhs must be rank 2");
        let ([k, m], [k2, n]) = (self.dims, other.dims);
        assert_eq!(k, k2, "matmul_tn inner dims {k} vs {k2}");
        let o = out.refill_with(&[m, n], 0.0);
        crate::kernels::matmul_tn(m, k, n, &self.data, &other.data, o);
    }

    /// Matrix-vector product: `(m,k) x [k] -> [m]`.
    ///
    /// Each output element is a multi-accumulator chunked dot of a contiguous
    /// matrix row against `x`.
    pub fn matvec(&self, x: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.matvec_into(x, &mut out);
        out
    }

    /// [`Tensor::matvec`] into `out`'s storage.
    pub(crate) fn matvec_into(&self, x: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rank, 2);
        assert_eq!(x.rank, 1);
        let [m, k] = self.dims;
        assert_eq!(k, x.dims[0], "matvec inner dims {k} vs {}", x.dims[0]);
        counters::record(2 * (m * k) as u64, 4 * (m * k + k + m) as u64);
        let o = out.refill_with(&[m], 0.0);
        if k > 0 {
            for (o, row) in o.iter_mut().zip(self.data.chunks_exact(k)) {
                *o = dot_chunked(row, &x.data);
            }
        }
    }

    /// Vector-matrix product: `[k] x (k,n) -> [n]`.
    pub fn vecmat(&self, m: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.vecmat_into(m, &mut out);
        out
    }

    /// [`Tensor::vecmat`] into `out`'s storage.
    pub(crate) fn vecmat_into(&self, m: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rank, 1);
        assert_eq!(m.rank, 2);
        let k = self.dims[0];
        assert_eq!(k, m.dims[0], "vecmat inner dims {k} vs {}", m.dims[0]);
        let n = m.dims[1];
        counters::record(2 * (k * n) as u64, 4 * (k * n + k + n) as u64);
        let o = out.refill_with(&[n], 0.0);
        if n > 0 {
            for (&a, brow) in self.data.iter().zip(m.data.chunks_exact(n)) {
                if a == 0.0 {
                    continue;
                }
                for (o, b) in o.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
    }

    /// Dot product of two rank-1 tensors (multi-accumulator chunked
    /// reduction: deterministic, reassociated relative to a strict left
    /// fold).
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.rank, 1);
        assert_eq!(self.shape(), other.shape(), "dot shape mismatch");
        counters::record(2 * self.len() as u64, 8 * self.len() as u64);
        dot_chunked(&self.data, &other.data)
    }

    /// Transpose of a rank-2 tensor.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.rank, 2);
        let [m, n] = self.dims;
        let mut out = Tensor::default();
        let o = out.refill_with(&[n, m], 0.0);
        for i in 0..m {
            for j in 0..n {
                o[j * m + i] = self.data[i * n + j];
            }
        }
        out
    }

    /// Sum of all elements (chunked 8-lane reduction; deterministic,
    /// reassociated relative to a strict left fold).
    pub fn sum(&self) -> f32 {
        let mut acc = [0.0f32; 8];
        let chunks = self.data.chunks_exact(8);
        let rem = chunks.remainder();
        for c in chunks {
            let c: &[f32; 8] = c.try_into().unwrap();
            for l in 0..8 {
                acc[l] += c[l];
            }
        }
        let mut tail = 0.0f32;
        for &v in rem {
            tail += v;
        }
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
    }

    /// Euclidean norm of all elements (same chunked reduction as [`Tensor::sum`]).
    pub fn norm(&self) -> f32 {
        let mut acc = [0.0f32; 8];
        let chunks = self.data.chunks_exact(8);
        let rem = chunks.remainder();
        for c in chunks {
            let c: &[f32; 8] = c.try_into().unwrap();
            for l in 0..8 {
                acc[l] += c[l] * c[l];
            }
        }
        let mut tail = 0.0f32;
        for &v in rem {
            tail += v * v;
        }
        (((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail)
            .sqrt()
    }

    /// Set all elements to zero (reuse allocation).
    pub(crate) fn zero_(&mut self) {
        self.data.iter_mut().for_each(|a| *a = 0.0);
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape())?;
        if self.len() <= 8 {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "[{:?}, ...; {}]", &self.data[..8.min(self.len())], self.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let v = Tensor::vector(vec![1.0, 2.0, 3.0]);
        assert_eq!(v.shape(), &[3]);
        assert_eq!(v.len(), 3);
        let m = Tensor::matrix(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
        assert_eq!(Tensor::zeros(&[2, 3]).len(), 6);
        assert_eq!(Tensor::full(&[2], 5.0).data(), &[5.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "matrix data length")]
    fn bad_matrix_size_panics() {
        Tensor::matrix(2, 2, vec![1.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::vector(vec![1.0, 2.0]);
        let b = Tensor::vector(vec![3.0, 5.0]);
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        let mut m = Tensor::default();
        a.map_into(|x| x + 1.0, &mut m);
        assert_eq!(m.data(), &[2.0, 3.0]);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c.data(), &[7.0, 12.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::matrix(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::matrix(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matvec_vecmat_dot() {
        let a = Tensor::matrix(2, 3, vec![1., 0., 2., 0., 1., 1.]);
        let x = Tensor::vector(vec![1., 2., 3.]);
        assert_eq!(a.matvec(&x).data(), &[7., 5.]);
        let y = Tensor::vector(vec![1., 1.]);
        assert_eq!(y.vecmat(&a).data(), &[1., 1., 3.]);
        assert_eq!(x.dot(&x), 14.0);
    }

    #[test]
    fn matmul_nt_tn_match_explicit_transpose() {
        let a = Tensor::matrix(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::matrix(4, 3, (1..=12).map(|x| x as f32).collect());
        let mut out = Tensor::default();
        a.matmul_nt_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b.transpose()));
        let c = Tensor::matrix(2, 4, (1..=8).map(|x| x as f32).collect());
        a.matmul_tn_into(&c, &mut out);
        assert_eq!(out, a.transpose().matmul(&c));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::matrix(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let t = a.transpose();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.row(0), &[1.0, 4.0]);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn reductions() {
        let a = Tensor::vector(vec![3.0, 4.0]);
        assert_eq!(a.sum(), 7.0);
        assert!((a.norm() - 5.0).abs() < 1e-6);
        let mut b = a.clone();
        b.zero_();
        assert_eq!(b.sum(), 0.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        Tensor::vector(vec![1.0]).add(&Tensor::vector(vec![1.0, 2.0]));
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::matrix(2, 3, vec![0.0; 6]);
        let b = Tensor::matrix(2, 2, vec![0.0; 4]);
        a.matmul(&b);
    }
}
