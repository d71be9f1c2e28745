//! Dense row-major `f32` matrices and the hand-rolled kernels the autodiff
//! graph dispatches to.
//!
//! Everything in this crate is 2-D: a vector is an `(n, 1)` or `(1, n)`
//! matrix, a scalar is `(1, 1)`, and a sequence batch is flattened to
//! `(batch * seq, d)` by the caller. This keeps the kernel surface small
//! while covering every operator the START paper needs (Eqs. 1-17).

use std::fmt;

/// Threshold (in multiply-adds) from which the matmul kernels shard output
/// rows across threads with `crossbeam::scope` (see `dispatch_rows`).
const PARALLEL_FLOPS: usize = 1 << 22;

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Array {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Array {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Array({}x{})", self.rows, self.cols)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Array {
    /// Create an array filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create an array filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Wrap an existing buffer. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape {rows}x{cols}");
        Self { rows, cols, data }
    }

    /// A `(1, 1)` scalar.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    /// Build from a row-major closure.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Scalar value of a `(1, 1)` array.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() on non-scalar {}x{}", self.rows, self.cols);
        self.data[0]
    }

    /// Reinterpret the buffer under a new shape with the same element count.
    pub fn reshaped(mut self, rows: usize, cols: usize) -> Self {
        assert_eq!(
            self.data.len(),
            rows * cols,
            "reshape {}x{} -> {rows}x{cols}",
            self.rows,
            self.cols
        );
        self.rows = rows;
        self.cols = cols;
        self
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise map, consuming self.
    pub fn map(mut self, f: impl Fn(f32) -> f32) -> Self {
        for v in &mut self.data {
            *v = f(*v);
        }
        self
    }

    /// `self += other` (same shape).
    pub fn add_assign(&mut self, other: &Array) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += alpha * other` (same shape).
    pub fn axpy(&mut self, alpha: f32, other: &Array) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// `self *= alpha`.
    pub fn scale_assign(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

/// Worker count for the parallel kernel paths, derived from
/// `available_parallelism` exactly once and reused by every call.
fn kernel_threads() -> usize {
    static THREADS: start_sync::OnceLock<usize> = start_sync::OnceLock::new();
    *THREADS
        .get_or_init(|| std::thread::available_parallelism().map_or(4, |p| p.get()).min(8))
        .max(&1)
}

/// Run a matmul row kernel over `m` output rows of width `n` and inner
/// dimension `k`: serially below `PARALLEL_FLOPS` multiply-adds (or under 8
/// rows), else sharded into contiguous row chunks across threads. `body`
/// gets each output chunk and its first row. This is the one dispatch rule
/// of all three matmul kernels, so the threshold and the thread count live
/// in one place.
fn dispatch_rows(
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    body: impl Fn(&mut [f32], usize) + Sync,
) {
    if m * k * n < PARALLEL_FLOPS || m < 8 {
        body(out, 0);
        return;
    }
    let threads = kernel_threads();
    let chunk = m.div_ceil(threads);
    // chunks_mut(0) panics opaquely; fail with the actual dimensions instead.
    assert!(chunk * n > 0, "parallel matmul over an empty chunk ({m} rows x {n} cols)");
    crossbeam::scope(|s| {
        for (t, out_chunk) in out.chunks_mut(chunk * n).enumerate() {
            let body = &body;
            s.spawn(move |_| body(out_chunk, t * chunk));
        }
    })
    .unwrap_or_else(|e| std::panic::resume_unwind(e));
}

/// `out = a @ b`, **overwriting** `out` — every element is assigned before it
/// is read, so `out` may come from
/// [`crate::pool::BufferPool::take_uninit_overwritten`] with arbitrary
/// contents. Row-major blocked ikj loop, 4-wide over the inner dimension;
/// shards rows across threads when large.
pub fn matmul_into_ow(a: &Array, b: &Array, out: &mut Array) {
    assert_eq!(a.cols, b.rows, "matmul shape mismatch {:?} @ {:?}", a.shape(), b.shape());
    let (m, k, n) = (a.rows, a.cols, b.cols);
    assert_eq!(out.shape(), (m, n), "matmul output shape mismatch");
    let be = crate::backend::active();
    dispatch_rows(&mut out.data, m, k, n, |chunk, row0| {
        be.matmul_rows(&a.data, &b.data, chunk, row0, k, n);
    });
}

/// `out = a @ b` into a fresh array. See [`matmul_into_ow`] for the kernel.
pub fn matmul(a: &Array, b: &Array) -> Array {
    let mut out = Array::zeros(a.rows, b.cols);
    matmul_into_ow(a, b, &mut out);
    out
}

/// Blocked ikj microkernel: 4 rows of `b` are combined per pass over the
/// output row, so each `out` element gets 4 multiply-adds per load/store.
/// No zero-skip on `a`: the branch defeats vectorization on dense data
/// (DESIGN.md §9). The first inner block assigns instead of accumulating,
/// so `out` never has to be zero-filled.
pub(crate) fn matmul_rows_impl(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    row0: usize,
    k: usize,
    n: usize,
) {
    let rows = out.len() / n;
    for i in 0..rows {
        let arow = &a[(row0 + i) * k..(row0 + i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        let mut p = 0;
        if k >= 4 {
            let (a0, a1, a2, a3) = (arow[0], arow[1], arow[2], arow[3]);
            let b0 = &b[..n];
            let b1 = &b[n..2 * n];
            let b2 = &b[2 * n..3 * n];
            let b3 = &b[3 * n..4 * n];
            for ((((o, &v0), &v1), &v2), &v3) in orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                *o = a0 * v0 + a1 * v1 + a2 * v2 + a3 * v3;
            }
            p = 4;
        } else if k >= 1 {
            let a0 = arow[0];
            for (o, &bv) in orow.iter_mut().zip(&b[..n]) {
                *o = a0 * bv;
            }
            p = 1;
        } else {
            orow.fill(0.0);
        }
        while p + 4 <= k {
            let (a0, a1, a2, a3) = (arow[p], arow[p + 1], arow[p + 2], arow[p + 3]);
            let b0 = &b[p * n..(p + 1) * n];
            let b1 = &b[(p + 1) * n..(p + 2) * n];
            let b2 = &b[(p + 2) * n..(p + 3) * n];
            let b3 = &b[(p + 3) * n..(p + 4) * n];
            for ((((o, &v0), &v1), &v2), &v3) in orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                *o += a0 * v0 + a1 * v1 + a2 * v2 + a3 * v3;
            }
            p += 4;
        }
        for (pp, &av) in arow.iter().enumerate().skip(p) {
            let brow = &b[pp * n..(pp + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// `out = a @ b^T` without materializing the transpose, **overwriting**
/// `out`; see [`matmul_into_ow`] for the uninit-buffer contract.
pub fn matmul_bt_into_ow(a: &Array, b: &Array, out: &mut Array) {
    assert_eq!(a.cols, b.cols, "matmul_bt shape mismatch {:?} @ {:?}^T", a.shape(), b.shape());
    let (m, k, n) = (a.rows, a.cols, b.rows);
    assert_eq!(out.shape(), (m, n), "matmul_bt output shape mismatch");
    let be = crate::backend::active();
    dispatch_rows(&mut out.data, m, k, n, |chunk, row0| {
        be.matmul_bt_rows(&a.data, &b.data, chunk, row0, k, n);
    });
}

/// `out = a @ b^T` into a fresh array.
pub fn matmul_bt(a: &Array, b: &Array) -> Array {
    let mut out = Array::zeros(a.rows, b.rows);
    matmul_bt_into_ow(a, b, &mut out);
    out
}

/// Blocked dot-product microkernel: 4 rows of `b` share one pass over the
/// `a` row, giving 4 independent accumulator chains. The finished sums are
/// assigned into `out`, so the buffer's prior contents are irrelevant.
pub(crate) fn matmul_bt_rows_impl(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    row0: usize,
    k: usize,
    n: usize,
) {
    let rows = out.len() / n;
    for i in 0..rows {
        let arow = &a[(row0 + i) * k..(row0 + i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        let mut j = 0;
        while j + 4 <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for ((((&x, &y0), &y1), &y2), &y3) in arow.iter().zip(b0).zip(b1).zip(b2).zip(b3) {
                s0 += x * y0;
                s1 += x * y1;
                s2 += x * y2;
                s3 += x * y3;
            }
            orow[j] = s0;
            orow[j + 1] = s1;
            orow[j + 2] = s2;
            orow[j + 3] = s3;
            j += 4;
        }
        for jj in j..n {
            orow[jj] = dot_scalar(arow, &b[jj * k..(jj + 1) * k]);
        }
    }
}

/// `out = a^T @ b` without materializing the transpose, **overwriting**
/// `out`; see [`matmul_into_ow`] for the uninit-buffer contract. Output rows
/// are columns of `a`.
pub fn matmul_at_into_ow(a: &Array, b: &Array, out: &mut Array) {
    assert_eq!(a.rows, b.rows, "matmul_at shape mismatch {:?}^T @ {:?}", a.shape(), b.shape());
    let (m, k, n) = (a.cols, a.rows, b.cols);
    assert_eq!(out.shape(), (m, n), "matmul_at output shape mismatch");
    let be = crate::backend::active();
    dispatch_rows(&mut out.data, m, k, n, |chunk, row0| {
        be.matmul_at_rows(&a.data, &b.data, chunk, row0, k, m, n);
    });
}

/// `out = a^T @ b` into a fresh array.
pub fn matmul_at(a: &Array, b: &Array) -> Array {
    let mut out = Array::zeros(a.cols, b.cols);
    matmul_at_into_ow(a, b, &mut out);
    out
}

/// Blocked kernel for `a^T @ b`: output row `i` reads column `i` of `a`
/// (stride `m`) 4 inner-dim steps at a time, combining 4 rows of `b` per
/// pass over the output row. The first block assigns (see
/// [`matmul_rows_impl`]).
pub(crate) fn matmul_at_rows_impl(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    row0: usize,
    k: usize,
    m: usize,
    n: usize,
) {
    let rows = out.len() / n;
    for i in 0..rows {
        let col = row0 + i;
        let orow = &mut out[i * n..(i + 1) * n];
        let mut p = 0;
        if k >= 4 {
            let (a0, a1, a2, a3) = (a[col], a[m + col], a[2 * m + col], a[3 * m + col]);
            let b0 = &b[..n];
            let b1 = &b[n..2 * n];
            let b2 = &b[2 * n..3 * n];
            let b3 = &b[3 * n..4 * n];
            for ((((o, &v0), &v1), &v2), &v3) in orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                *o = a0 * v0 + a1 * v1 + a2 * v2 + a3 * v3;
            }
            p = 4;
        } else if k >= 1 {
            let a0 = a[col];
            for (o, &bv) in orow.iter_mut().zip(&b[..n]) {
                *o = a0 * bv;
            }
            p = 1;
        } else {
            orow.fill(0.0);
        }
        while p + 4 <= k {
            let (a0, a1, a2, a3) =
                (a[p * m + col], a[(p + 1) * m + col], a[(p + 2) * m + col], a[(p + 3) * m + col]);
            let b0 = &b[p * n..(p + 1) * n];
            let b1 = &b[(p + 1) * n..(p + 2) * n];
            let b2 = &b[(p + 2) * n..(p + 3) * n];
            let b3 = &b[(p + 3) * n..(p + 4) * n];
            for ((((o, &v0), &v1), &v2), &v3) in orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                *o += a0 * v0 + a1 * v1 + a2 * v2 + a3 * v3;
            }
            p += 4;
        }
        for pp in p..k {
            let av = a[pp * m + col];
            let brow = &b[pp * n..(pp + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Dot product through the active [`crate::backend::Backend`].
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    crate::backend::active().dot(a, b)
}

/// Dot product with 4 independent accumulator chains (unrolled over
/// `chunks_exact(4)`), so the compiler can keep 4 FMA pipes busy. The
/// scalar backend's kernel — never dispatches.
#[inline]
pub(crate) fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for (x, y) in ac.by_ref().zip(bc.by_ref()) {
        s0 += x[0] * y[0];
        s1 += x[1] * y[1];
        s2 += x[2] * y[2];
        s3 += x[3] * y[3];
    }
    let mut tail = 0.0f32;
    for (x, y) in ac.remainder().iter().zip(bc.remainder()) {
        tail += x * y;
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// `out += alpha * x`; the axpy core of the fused attention kernel's
/// context accumulation. The scalar backend's kernel — never dispatches.
#[inline]
pub(crate) fn axpy_scalar(alpha: f32, x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    for (o, &v) in out.iter_mut().zip(x) {
        *o += alpha * v;
    }
}

/// `out += Σ_p alpha[p] * b[p*n .. p*n+n]` — the 1×k×n matmul core shared
/// by the fused attention kernel's score and `d_attn` passes. Same 4-wide
/// row-blocking as [`matmul`], so a score row runs at axpy speed instead of
/// dot-product speed. The scalar backend's kernel — never dispatches.
#[inline]
pub(crate) fn gemv_rows_scalar(alpha: &[f32], b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(out.len(), n);
    debug_assert!(b.len() >= alpha.len() * n);
    let mut p = 0;
    while p + 4 <= alpha.len() {
        let (a0, a1, a2, a3) = (alpha[p], alpha[p + 1], alpha[p + 2], alpha[p + 3]);
        let b0 = &b[p * n..(p + 1) * n];
        let b1 = &b[(p + 1) * n..(p + 2) * n];
        let b2 = &b[(p + 2) * n..(p + 3) * n];
        let b3 = &b[(p + 3) * n..(p + 4) * n];
        for ((((o, &v0), &v1), &v2), &v3) in out.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
            *o += a0 * v0 + a1 * v1 + a2 * v2 + a3 * v3;
        }
        p += 4;
    }
    for (pp, &a) in alpha.iter().enumerate().skip(p) {
        axpy_scalar(a, &b[pp * n..(pp + 1) * n], out);
    }
}

/// Strided-row variant of [`gemv_rows_scalar`]: `out += Σ_p alpha[p] *
/// b[p*stride .. p*stride + out.len()]`. This is how the fused attention
/// kernel runs per-head column-segment products (stride `d`, width `dh`)
/// without materializing the head slice.
#[inline]
pub(crate) fn gemv_rows_strided_scalar(alpha: &[f32], b: &[f32], stride: usize, out: &mut [f32]) {
    let w = out.len();
    debug_assert!(alpha.is_empty() || b.len() >= (alpha.len() - 1) * stride + w);
    let mut p = 0;
    while p + 4 <= alpha.len() {
        let (a0, a1, a2, a3) = (alpha[p], alpha[p + 1], alpha[p + 2], alpha[p + 3]);
        let b0 = &b[p * stride..p * stride + w];
        let b1 = &b[(p + 1) * stride..(p + 1) * stride + w];
        let b2 = &b[(p + 2) * stride..(p + 2) * stride + w];
        let b3 = &b[(p + 3) * stride..(p + 3) * stride + w];
        for ((((o, &v0), &v1), &v2), &v3) in out.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
            *o += a0 * v0 + a1 * v1 + a2 * v2 + a3 * v3;
        }
        p += 4;
    }
    for (pp, &a) in alpha.iter().enumerate().skip(p) {
        axpy_scalar(a, &b[pp * stride..pp * stride + w], out);
    }
}

/// Transpose `src` (rows × cols, row-major) into `dst` (cols × rows).
#[inline]
fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    for (r, row) in src.chunks_exact(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
}

/// Fused multi-head attention forward (Eq. 7 dataflow, all heads).
///
/// `q`, `k`, `v` are the already-projected `(t, d)` matrices; head `h` reads
/// column segment `h*dh..(h+1)*dh` where `dh = d / heads`. `k` is first
/// transposed into `scratch` (one `(d, t)` buffer for the whole call) so the
/// score pass runs as one dense `Q_head · Kᵀ_head` matmul per head straight
/// into the head's `attn` block; each score row is
/// then scaled, biased and exp-normalized in place, and the context is
/// accumulated via axpy over a contiguous per-head copy of `v` (a `(t, dh)`
/// panel that stays L1-resident instead of striding across all of `v`).
///
/// `mask`, when present, is the `(heads*t, t)` *scaled* dropout keep-mask
/// (entries `0` or `1/(1-p)`); it weights the context accumulation but
/// `attn` always stores the pre-dropout row-softmax probabilities — the
/// backward pass needs them undropped.
///
/// `attn` must be `(heads*t, t)` (fully overwritten); `out` must be a
/// zeroed `(t, d)` buffer (accumulated into); `scratch` is resized to
/// `d*t + t + 2*t*dh` internally (the `kᵀ` transpose, one weight row, and
/// the per-head `v`/`q` panels).
#[allow(clippy::too_many_arguments)]
pub fn mh_attention_forward(
    q: &Array,
    k: &Array,
    v: &Array,
    bias: Option<&Array>,
    heads: usize,
    scale: f32,
    mask: Option<&Array>,
    attn: &mut Array,
    out: &mut Array,
    scratch: &mut Vec<f32>,
) {
    let (t, d) = q.shape();
    assert_eq!(k.shape(), (t, d), "mh_attention k shape mismatch");
    assert_eq!(v.shape(), (t, d), "mh_attention v shape mismatch");
    assert!(heads > 0 && d % heads == 0, "model dim {d} not divisible by {heads} heads");
    if let Some(b) = bias {
        assert_eq!(b.shape(), (t, t), "mh_attention bias must be (t, t)");
    }
    if let Some(m) = mask {
        assert_eq!(m.shape(), (heads * t, t), "mh_attention mask must be (heads*t, t)");
    }
    assert_eq!(attn.shape(), (heads * t, t), "mh_attention attn buffer shape");
    assert_eq!(out.shape(), (t, d), "mh_attention out buffer shape");
    let dh = d / heads;
    let be = crate::backend::active();
    scratch.clear();
    scratch.resize(d * t + t + 2 * t * dh, 0.0);
    let (kt, rest) = scratch.split_at_mut(d * t);
    let (wrow, rest) = rest.split_at_mut(t);
    let (vh, qh) = rest.split_at_mut(t * dh);
    // kt[p][j] = k[j][p]; row p of kt is column p of k, contiguous.
    transpose_into(&k.data, t, d, kt);
    for h in 0..heads {
        let lo = h * dh;
        let kt_head = &kt[lo * t..(lo + dh) * t];
        copy_head_panel(&v.data, d, lo, dh, vh);
        copy_head_panel(&q.data, d, lo, dh, qh);
        // Pass 1: raw scores for the whole head at once —
        // S = Q_head · Kᵀ_head as a dense matmul into the attn block.
        let ablock = &mut attn.data[h * t * t..(h + 1) * t * t];
        be.matmul_rows(qh, kt_head, ablock, 0, dh, t);
        for i in 0..t {
            let arow = &mut ablock[i * t..(i + 1) * t];
            // Passes 2+3: scale + bias, then a stable exp-normalize.
            be.scale_bias_softmax_row(arow, scale, bias.map(|b| b.row(i)));
            // Pass 4: context accumulation over the contiguous v panel,
            // dropout folded into the weight row.
            let orow = &mut out.data[i * d + lo..i * d + lo + dh];
            match mask.map(|m| m.row(h * t + i)) {
                Some(m) => {
                    for ((w, &a), &mv) in wrow.iter_mut().zip(arow.iter()).zip(m) {
                        *w = a * mv;
                    }
                    be.gemv_rows(wrow, vh, dh, orow);
                }
                None => be.gemv_rows(arow, vh, dh, orow),
            }
        }
    }
}

/// Hand-written backward for [`mh_attention_forward`].
///
/// Uses the cached pre-dropout probabilities `attn` and recomputes nothing
/// else. Per head `h` (segment `lo..lo+dh`) and query row `i`, with
/// `m = mask` (or all-ones) and `g = d(loss)/d(out)`:
///
/// ```text
/// d_attn[j]  = (g_i . v_j) * m[i][j]            // through dropout
/// dv_j      += (attn[i][j] * m[i][j]) * g_i     // context is linear in v
/// s          = d_attn . attn_row                // softmax Jacobian contraction
/// dscore[j]  = attn[i][j] * (d_attn[j] - s)
/// dbias[i]  += dscore                           // bias enters pre-softmax
/// dq_i      += scale * sum_j dscore[j] * k_j
/// dk_j      += scale * dscore[j] * q_i
/// ```
///
/// The `d_attn` pass runs in gemv form against a `vᵀ` transpose; everything
/// downstream is restructured into dense matmuls so the backend's blocked
/// kernels carry the flops. Per head the kernel materializes the scaled
/// dscore matrix `S` and the dropped weight matrix `W` *row-major* (all
/// stores contiguous), copies the head's `k`/`q`/`g` column panels into a
/// contiguous `(t, dh)` buffer, and computes
///
/// ```text
/// dq_head += S · K_head        dk_head += Sᵀ · Q_head
/// dv_head += Wᵀ · G_head
/// ```
///
/// with `Sᵀ`/`Wᵀ` produced by cache-blocked in-place transposes — no
/// column-strided scatter stores survive anywhere on the hot path.
///
/// `dq`/`dk`/`dv` (and `dbias` when present) are accumulated into and must
/// be zeroed by the caller; `scratch` is a reusable buffer resized to
/// `d*t + 2*t*t + 2*t*dh` internally (the `vᵀ` transpose, the `S` and `W`
/// matrices, the head panel, and one matmul output panel).
#[allow(clippy::too_many_arguments)]
pub fn mh_attention_backward(
    g_out: &Array,
    q: &Array,
    k: &Array,
    v: &Array,
    attn: &Array,
    mask: Option<&Array>,
    heads: usize,
    scale: f32,
    dq: &mut Array,
    dk: &mut Array,
    dv: &mut Array,
    mut dbias: Option<&mut Array>,
    scratch: &mut Vec<f32>,
) {
    let (t, d) = q.shape();
    assert_eq!(g_out.shape(), (t, d), "mh_attention_backward g_out shape");
    assert_eq!(attn.shape(), (heads * t, t), "mh_attention_backward attn shape");
    assert_eq!(dq.shape(), (t, d), "mh_attention_backward dq shape");
    assert_eq!(dk.shape(), (t, d), "mh_attention_backward dk shape");
    assert_eq!(dv.shape(), (t, d), "mh_attention_backward dv shape");
    if let Some(db) = dbias.as_deref() {
        assert_eq!(db.shape(), (t, t), "mh_attention_backward dbias shape");
    }
    let dh = d / heads;
    let be = crate::backend::active();
    scratch.clear();
    scratch.resize(d * t + 2 * t * t + 2 * t * dh, 0.0);
    let (vt, rest) = scratch.split_at_mut(d * t);
    let (srows, rest) = rest.split_at_mut(t * t);
    let (wrows, rest) = rest.split_at_mut(t * t);
    let (bhead, tmp) = rest.split_at_mut(t * dh);
    // vt[p][j] = v[j][p]; row p of vt is column p of v, contiguous.
    transpose_into(&v.data, t, d, vt);
    for h in 0..heads {
        let lo = h * dh;
        let vt_head = &vt[lo * t..(lo + dh) * t];
        for i in 0..t {
            let grow = &g_out.data[i * d + lo..i * d + lo + dh];
            let arow = attn.row(h * t + i);
            let mrow = mask.map(|m| m.row(h * t + i));
            // d_attn = g_i · vᵀ, gemv form over vᵀ rows, then dropout; the
            // dropped weights land row-major in wrows for the dv matmul.
            let darow = &mut srows[i * t..(i + 1) * t];
            let wrow = &mut wrows[i * t..(i + 1) * t];
            darow.fill(0.0);
            be.gemv_rows(grow, vt_head, t, darow);
            match mrow {
                Some(m) => {
                    for (((da, w), &a), &mv) in
                        darow.iter_mut().zip(wrow.iter_mut()).zip(arow).zip(m)
                    {
                        *da *= mv;
                        *w = a * mv;
                    }
                }
                None => wrow.copy_from_slice(arow),
            }
            let s = be.dot(darow, arow);
            // dscore = attn ∘ (d_attn − s); dbias takes it raw, the in-place
            // rewrite keeps the pre-scaled copy as row i of S.
            match dbias.as_deref_mut() {
                Some(db) => {
                    let dbrow = &mut db.data[i * t..(i + 1) * t];
                    for ((ds, &a), dbv) in darow.iter_mut().zip(arow).zip(dbrow) {
                        let raw = a * (*ds - s);
                        *dbv += raw;
                        *ds = raw * scale;
                    }
                }
                None => {
                    for (ds, &a) in darow.iter_mut().zip(arow) {
                        *ds = a * (*ds - s) * scale;
                    }
                }
            }
        }
        // dq_head += S · K_head (panel copied contiguous, result added back
        // through the head's column stride).
        copy_head_panel(&k.data, d, lo, dh, bhead);
        be.matmul_rows(srows, bhead, tmp, 0, t, dh);
        add_head_panel(tmp, &mut dq.data, d, lo, dh);
        // dk_head += Sᵀ · Q_head and dv_head += Wᵀ · G_head, transposing
        // S/W in place (cache-blocked) so both run as row-major matmuls.
        transpose_square_inplace(srows, t);
        copy_head_panel(&q.data, d, lo, dh, bhead);
        be.matmul_rows(srows, bhead, tmp, 0, t, dh);
        add_head_panel(tmp, &mut dk.data, d, lo, dh);
        transpose_square_inplace(wrows, t);
        copy_head_panel(&g_out.data, d, lo, dh, bhead);
        be.matmul_rows(wrows, bhead, tmp, 0, t, dh);
        add_head_panel(tmp, &mut dv.data, d, lo, dh);
    }
}

/// Copy a `(t, dh)` column panel (`src[.., lo..lo+dh]` of a `(t, d)`
/// row-major matrix) into a contiguous buffer.
#[inline]
fn copy_head_panel(src: &[f32], d: usize, lo: usize, dh: usize, dst: &mut [f32]) {
    for (r, drow) in dst.chunks_exact_mut(dh).enumerate() {
        drow.copy_from_slice(&src[r * d + lo..r * d + lo + dh]);
    }
}

/// Accumulate a contiguous `(t, dh)` panel back into the `lo..lo+dh` column
/// segment of a `(t, d)` row-major matrix.
#[inline]
fn add_head_panel(src: &[f32], dst: &mut [f32], d: usize, lo: usize, dh: usize) {
    for (r, srow) in src.chunks_exact(dh).enumerate() {
        for (o, &x) in dst[r * d + lo..r * d + lo + dh].iter_mut().zip(srow) {
            *o += x;
        }
    }
}

/// Cache-blocked in-place transpose of a square `(n, n)` row-major matrix:
/// swaps 32×32 blocks pairwise so each pass touches two small tiles instead
/// of striding a full column through the cache.
fn transpose_square_inplace(m: &mut [f32], n: usize) {
    const B: usize = 32;
    debug_assert_eq!(m.len(), n * n);
    let mut i0 = 0;
    while i0 < n {
        let iend = (i0 + B).min(n);
        for i in i0..iend {
            for j in (i + 1)..iend {
                m.swap(i * n + j, j * n + i);
            }
        }
        let mut j0 = iend;
        while j0 < n {
            let jend = (j0 + B).min(n);
            for i in i0..iend {
                for j in j0..jend {
                    m.swap(i * n + j, j * n + i);
                }
            }
            j0 += B;
        }
        i0 += B;
    }
}

/// Numerically stable in-place row softmax (active backend).
pub fn softmax_rows_inplace(x: &mut Array) {
    let be = crate::backend::active();
    let cols = x.cols;
    for row in x.data.chunks_mut(cols) {
        be.softmax_row(row);
    }
}

/// Numerically stable row log-softmax (active backend).
pub fn log_softmax_rows(x: &Array) -> Array {
    let mut out = x.clone();
    let be = crate::backend::active();
    let cols = out.cols;
    for row in out.data.chunks_mut(cols) {
        be.log_softmax_row(row);
    }
    out
}

/// Standardize every row of `x` in place (`(x - mean) / sqrt(var + eps)`),
/// appending each row's reciprocal standard deviation to `rstds` — the
/// layernorm forward the graph caches for its backward pass.
pub fn layer_norm_rows_inplace(x: &mut Array, eps: f32, rstds: &mut Vec<f32>) {
    let be = crate::backend::active();
    let cols = x.cols;
    for row in x.data.chunks_mut(cols) {
        rstds.push(be.layer_norm_row(row, eps));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn matmul_matches_manual() {
        let a = Array::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Array::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_bt_and_at_agree_with_explicit_transpose() {
        let a = Array::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.5 - 1.0);
        let b = Array::from_fn(5, 3, |r, c| (r + c) as f32 * 0.25);
        let via_bt = matmul_bt(&a, &b);
        let via_t = matmul(&a, &b.transposed());
        assert_eq!(via_bt, via_t);

        let c = Array::from_fn(4, 5, |r, c| (r as f32 - c as f32) * 0.1);
        let via_at = matmul_at(&a, &c);
        let via_t2 = matmul(&a.transposed(), &c);
        for (x, y) in via_at.data().iter().zip(via_t2.data()) {
            assert!(approx(*x, *y));
        }
    }

    #[test]
    fn matmul_bt_parallel_path_agrees_with_explicit_transpose() {
        // 64 * 512 * 256 = 8.4M multiply-adds: past PARALLEL_FLOPS, so this
        // exercises the threaded row-sharded path of matmul_bt.
        let (m, k, n) = (64, 512, 256);
        assert!(m * k * n >= PARALLEL_FLOPS && m >= 8);
        let a = Array::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 13) as f32 * 0.21 - 1.3);
        let b = Array::from_fn(n, k, |r, c| ((r * 17 + c * 3) % 11) as f32 * 0.13 - 0.7);
        let via_bt = matmul_bt(&a, &b);
        let via_t = matmul(&a, &b.transposed());
        assert_eq!(via_bt.shape(), (m, n));
        for (x, y) in via_bt.data().iter().zip(via_t.data()) {
            assert!((x - y).abs() < 1e-3 * (1.0 + x.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut x = Array::from_fn(3, 4, |r, c| (r * c) as f32 - 2.0);
        softmax_rows_inplace(&mut x);
        for r in 0..3 {
            let s: f32 = x.row(r).iter().sum();
            assert!(approx(s, 1.0));
            assert!(x.row(r).iter().all(|v| *v >= 0.0));
        }
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let x = Array::from_fn(2, 5, |r, c| (c as f32) * 0.3 - r as f32);
        let ls = log_softmax_rows(&x);
        let mut sm = x.clone();
        softmax_rows_inplace(&mut sm);
        for (a, b) in ls.data().iter().zip(sm.data()) {
            assert!(approx(a.exp(), *b));
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Array::from_fn(3, 7, |r, c| (r * 7 + c) as f32);
        assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Array::from_fn(2, 6, |r, c| (r * 6 + c) as f32);
        let b = a.clone().reshaped(3, 4);
        assert_eq!(a.data(), b.data());
        assert_eq!(b.shape(), (3, 4));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Array::zeros(2, 3);
        let b = Array::zeros(2, 3);
        matmul(&a, &b);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Array::full(2, 2, 1.0);
        let b = Array::full(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[2.0; 4]);
        a.scale_assign(2.0);
        assert_eq!(a.data(), &[4.0; 4]);
    }
}
