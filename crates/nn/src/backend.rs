//! The kernel `Backend` seam: one trait between the tape/graph layers and
//! the microkernel implementations, so alternate kernels (explicit SIMD
//! today, quantized or offloaded kernels tomorrow) slot in without touching
//! the tape, the liveness planner, the gradcheck registry, or any caller of
//! `start_nn::array`.
//!
//! Two implementations ship:
//!
//! - [`ScalarBackend`] — the PR 3 blocked 4-wide scalar loops, unchanged
//!   (they live in `array.rs`; this type only routes to them). This is the
//!   portable fallback and the agreement baseline.
//! - `SimdBackend` (`crate::simd`) — explicit 8-wide f32 vectorization via
//!   AVX2 + FMA `std::arch` intrinsics with register-blocked B-panel
//!   packing and a vectorized exp. Compiled on `x86_64` only and selected
//!   at runtime only when the CPU reports `avx2` **and** `fma`.
//!
//! Selection: the `START_BACKEND` environment variable (`auto` | `simd` |
//! `scalar`, default `auto` = SIMD when available) read once per process,
//! overridable in-process through [`set_backend`] (the bench/test escape
//! hatch `bench_kernels` uses to time both backends). Every dispatch is one
//! relaxed atomic load plus a vtable call per *kernel invocation* (not per
//! element), so the seam costs nothing measurable.
//!
//! Contract for implementors: kernels must be **deterministic** — the same
//! inputs on the same backend produce bitwise-identical outputs on every
//! call (fixed summation trees, no data-dependent shortcuts) — and must
//! agree with [`ScalarBackend`] to ≤ 1e-5 relative error on every shape
//! (enforced by `tests/backend_simd.rs` proptests, including odd
//! non-lane-multiple remainders).

use crate::array;

/// One kernel implementation family. All slice-level row kernels mirror the
/// dispatch layer in `array.rs`: matmuls operate on row-major buffers with
/// an `ow` flag selecting overwrite (`=`) vs accumulate (`+=`) semantics,
/// and row ops transform one row in place.
pub trait Backend: Sync {
    /// Short stable name, reported by benches and `BENCH_kernels.json`.
    fn name(&self) -> &'static str;

    /// `out[i] (+)= a[row0+i] @ b` over `out.len() / n` rows, where `a`
    /// rows have length `k` and `b` is `(k, n)` row-major.
    #[allow(clippy::too_many_arguments)]
    fn matmul_rows(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        row0: usize,
        k: usize,
        n: usize,
        ow: bool,
    );

    /// `out[i] (+)= a[row0+i] @ b^T` where `b` is `(n, k)` row-major.
    #[allow(clippy::too_many_arguments)]
    fn matmul_bt_rows(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        row0: usize,
        k: usize,
        n: usize,
        ow: bool,
    );

    /// `out[i] (+)= column (row0+i) of a @ b` where `a` is `(k, m)`
    /// row-major (so the column has stride `m`) and `b` is `(k, n)`.
    #[allow(clippy::too_many_arguments)]
    fn matmul_at_rows(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        row0: usize,
        k: usize,
        m: usize,
        n: usize,
        ow: bool,
    );

    /// Plain dot product.
    fn dot(&self, a: &[f32], b: &[f32]) -> f32;

    /// `out += alpha * x`.
    fn axpy(&self, alpha: f32, x: &[f32], out: &mut [f32]);

    /// `out += Σ_p alpha[p] * b[p*n .. p*n+n]` — the 1×k×n matmul core of
    /// the fused attention kernel.
    fn gemv_rows(&self, alpha: &[f32], b: &[f32], n: usize, out: &mut [f32]);

    /// Strided-row [`Backend::gemv_rows`]:
    /// `out += Σ_p alpha[p] * b[p*stride .. p*stride + out.len()]`.
    fn gemv_rows_strided(&self, alpha: &[f32], b: &[f32], stride: usize, out: &mut [f32]);

    /// Numerically stable in-place softmax of one row.
    fn softmax_row(&self, row: &mut [f32]) {
        self.scale_bias_softmax_row(row, 1.0, None);
    }

    /// Fused attention row epilogue: `row = softmax(row * scale + bias)`
    /// in place, numerically stable (row-max subtracted).
    fn scale_bias_softmax_row(&self, row: &mut [f32], scale: f32, bias: Option<&[f32]>);

    /// Numerically stable in-place log-softmax of one row.
    fn log_softmax_row(&self, row: &mut [f32]);

    /// Standardize one row in place (`(x - mean) / sqrt(var + eps)`) and
    /// return the reciprocal standard deviation the backward pass caches.
    fn layer_norm_row(&self, row: &mut [f32], eps: f32) -> f32;
}

/// The PR 3 blocked scalar kernels behind the [`Backend`] seam. This is
/// the reference point for every agreement bound and the fallback on CPUs
/// (or architectures) without AVX2 + FMA.
pub struct ScalarBackend;

impl Backend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn matmul_rows(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        row0: usize,
        k: usize,
        n: usize,
        ow: bool,
    ) {
        if ow {
            array::matmul_rows_impl::<true>(a, b, out, row0, k, n);
        } else {
            array::matmul_rows_impl::<false>(a, b, out, row0, k, n);
        }
    }

    fn matmul_bt_rows(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        row0: usize,
        k: usize,
        n: usize,
        ow: bool,
    ) {
        if ow {
            array::matmul_bt_rows_impl::<true>(a, b, out, row0, k, n);
        } else {
            array::matmul_bt_rows_impl::<false>(a, b, out, row0, k, n);
        }
    }

    fn matmul_at_rows(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        row0: usize,
        k: usize,
        m: usize,
        n: usize,
        ow: bool,
    ) {
        if ow {
            array::matmul_at_rows_impl::<true>(a, b, out, row0, k, m, n);
        } else {
            array::matmul_at_rows_impl::<false>(a, b, out, row0, k, m, n);
        }
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        array::dot_scalar(a, b)
    }

    fn axpy(&self, alpha: f32, x: &[f32], out: &mut [f32]) {
        array::axpy_scalar(alpha, x, out);
    }

    fn gemv_rows(&self, alpha: &[f32], b: &[f32], n: usize, out: &mut [f32]) {
        array::gemv_rows_scalar(alpha, b, n, out);
    }

    fn gemv_rows_strided(&self, alpha: &[f32], b: &[f32], stride: usize, out: &mut [f32]) {
        array::gemv_rows_strided_scalar(alpha, b, stride, out);
    }

    fn scale_bias_softmax_row(&self, row: &mut [f32], scale: f32, bias: Option<&[f32]>) {
        // Exactly the pre-seam pass structure: scale+bias tracking the max,
        // then exp-normalize — bit-compatible with the PR 3 fused kernel.
        let mut maxv = f32::NEG_INFINITY;
        match bias {
            Some(br) => {
                for (val, &bv) in row.iter_mut().zip(br) {
                    *val = *val * scale + bv;
                    maxv = maxv.max(*val);
                }
            }
            None if scale == 1.0 => {
                for val in row.iter() {
                    maxv = maxv.max(*val);
                }
            }
            None => {
                for val in row.iter_mut() {
                    *val *= scale;
                    maxv = maxv.max(*val);
                }
            }
        }
        let mut sum = 0.0f32;
        for val in row.iter_mut() {
            *val = (*val - maxv).exp();
            sum += *val;
        }
        let inv = 1.0 / sum;
        for val in row.iter_mut() {
            *val *= inv;
        }
    }

    fn log_softmax_row(&self, row: &mut [f32]) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let lse = max + row.iter().map(|v| (v - max).exp()).sum::<f32>().ln();
        for v in row.iter_mut() {
            *v -= lse;
        }
    }

    fn layer_norm_row(&self, row: &mut [f32], eps: f32) -> f32 {
        let d = row.len() as f32;
        let mean = row.iter().sum::<f32>() / d;
        let var = row.iter().map(|t| (t - mean) * (t - mean)).sum::<f32>() / d;
        let rstd = 1.0 / (var + eps).sqrt();
        for t in row {
            *t = (*t - mean) * rstd;
        }
        rstd
    }
}

/// Which kernel family [`active`] resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Blocked 4-wide scalar loops ([`ScalarBackend`]).
    Scalar,
    /// Explicit AVX2 + FMA 8-wide kernels (`crate::simd`).
    Simd,
}

static SCALAR: ScalarBackend = ScalarBackend;

/// Is the SIMD backend usable on this machine (compiled in **and** the CPU
/// reports the required features)?
pub fn simd_available() -> bool {
    crate::simd::available()
}

/// In-process override: 0 = follow `START_BACKEND` / auto, 1 = scalar,
/// 2 = simd.
static OVERRIDE: start_sync::atomic::AtomicU32 = start_sync::atomic::AtomicU32::new(0);

/// Force a backend for this process (bench/test escape hatch); `None`
/// returns to the `START_BACKEND` / auto default. Returns the previous
/// override. Forcing `Simd` on a machine without AVX2 + FMA still resolves
/// to scalar — the unsupported kernels are never dispatched.
pub fn set_backend(kind: Option<BackendKind>) -> Option<BackendKind> {
    let code = match kind {
        None => 0,
        Some(BackendKind::Scalar) => 1,
        Some(BackendKind::Simd) => 2,
    };
    // relaxed-ok: a bench/test escape hatch flipped between kernel calls;
    // no data is published through this flag.
    match OVERRIDE.swap(code, start_sync::atomic::Ordering::Relaxed) {
        1 => Some(BackendKind::Scalar),
        2 => Some(BackendKind::Simd),
        _ => None,
    }
}

/// The process-default backend from `START_BACKEND` (`auto` | `simd` |
/// `scalar`), resolved once. Unknown values fall back to `auto` so a typo
/// can never silently disable the fast path *and* the safe path.
fn env_default() -> BackendKind {
    static DEFAULT: start_sync::OnceLock<BackendKind> = start_sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let want = std::env::var("START_BACKEND").unwrap_or_default();
        match want.as_str() {
            "scalar" => BackendKind::Scalar,
            _ if simd_available() => BackendKind::Simd,
            _ => BackendKind::Scalar,
        }
    })
}

/// The backend kind the next kernel dispatch will use.
pub fn active_kind() -> BackendKind {
    // relaxed-ok: see set_backend — a mode flag, not a publication channel.
    match OVERRIDE.load(start_sync::atomic::Ordering::Relaxed) {
        1 => BackendKind::Scalar,
        2 if simd_available() => BackendKind::Simd,
        2 => BackendKind::Scalar,
        _ => env_default(),
    }
}

/// Resolve the active backend. Callers with per-row inner loops (the fused
/// attention kernel, row-op sweeps) should call this once per kernel
/// invocation and reuse the reference.
pub fn active() -> &'static dyn Backend {
    match active_kind() {
        BackendKind::Scalar => &SCALAR,
        BackendKind::Simd => crate::simd::backend(),
    }
}

/// The scalar backend, directly — the agreement baseline for tests.
pub fn scalar() -> &'static dyn Backend {
    &SCALAR
}

/// The SIMD backend when this machine can run it — `None` otherwise.
/// Tests use this to compare implementations without flipping the global.
pub fn simd() -> Option<&'static dyn Backend> {
    simd_available().then(crate::simd::backend)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_rowops_match_legacy_shapes() {
        let mut row = [1.0f32, 2.0, 3.0, 4.0];
        ScalarBackend.softmax_row(&mut row);
        let s: f32 = row.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);

        let mut ln = [1.0f32, 2.0, 3.0, 4.0];
        let rstd = ScalarBackend.layer_norm_row(&mut ln, 1e-5);
        assert!(rstd > 0.0);
        let mean: f32 = ln.iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
    }

    #[test]
    fn override_round_trips() {
        let prev = set_backend(Some(BackendKind::Scalar));
        assert_eq!(active_kind(), BackendKind::Scalar);
        assert_eq!(set_backend(prev), Some(BackendKind::Scalar));
    }
}
