//! Explicit-SIMD kernel backend: 8-wide f32 AVX2 + FMA microkernels behind
//! the [`crate::backend::Backend`] seam.
//!
//! Everything here is `x86_64`-only and gated twice: compiled under
//! `#[cfg(target_arch = "x86_64")]`, and dispatched only after
//! `is_x86_feature_detected!("avx2")` **and** `("fma")` report true at
//! runtime (cached by std). On any other architecture this module exports
//! `available() == false` and the scalar backend keeps serving.
//!
//! Kernel shapes (DESIGN.md §14 derives the blocking):
//!
//! - `matmul_rows` — two regimes behind a FLOP threshold. Small shapes run
//!   a direct broadcast-FMA kernel (row of A broadcast element-wise against
//!   8-wide columns of B); large shapes pack B into zero-padded `k × NR`
//!   panels (`NR = 16`, two ymm registers) and run a register-blocked
//!   `MR × NR = 4 × 16` tile with 8 accumulators — the GEBP microkernel
//!   shape, sized so A-broadcasts, B-panel loads, and the accumulator block
//!   all stay in registers.
//! - `matmul_bt_rows` — 4 dot-product accumulators (4 rows of Bᵀ against
//!   one row of A), horizontal-summed once per output element.
//! - `matmul_at_rows` — the direct kernel with A fetched at column stride.
//! - softmax / log-softmax / layernorm — single-pass 8-wide reductions with
//!   a vectorized `exp` evaluated in f64 (two 4-lane halves, degree-7
//!   Horner), correctly rounded to ≲ 0.6 ulp of f32 — tighter than libm
//!   `expf`, so the gradcheck registry's finite-difference noise budget
//!   survives the backend swap. Tails reuse the *same* polynomial in
//!   scalar form so a row's accuracy does not depend on its length mod 8.
//!
//! Determinism: every kernel uses a fixed summation tree — lane-wise
//! accumulation in a fixed number of named accumulators, one horizontal
//! reduction in a fixed order, tails processed last. No data-dependent
//! branching touches arithmetic, so repeated calls are bitwise identical
//! (pinned by `tests/backend_simd.rs`).

#[cfg(target_arch = "x86_64")]
pub(crate) use avx2::{available, backend};

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn available() -> bool {
    false
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn backend() -> &'static dyn crate::backend::Backend {
    // Unreachable in practice (`backend::active` only routes here when
    // `available()` is true) but a safe fallback beats a panic.
    crate::backend::scalar()
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use crate::backend::Backend;
    use core::arch::x86_64::*;
    use std::cell::RefCell;

    /// Register-block width in f32 lanes: two ymm registers.
    const NR: usize = 16;
    /// Register-block height: rows of A per tile.
    const MR: usize = 4;
    /// Below this many FLOPs (`rows * k * n`), `matmul_rows` skips B-panel
    /// packing and runs the direct broadcast-FMA kernel — packing overhead
    /// only amortizes once the panel is reused across enough rows. 32³
    /// keeps the 64³ class (262k FLOPs) on the packed path while the tiny
    /// per-head attention shapes stay direct.
    const PACK_MIN_FLOPS: usize = 32 * 32 * 32;

    pub(crate) fn available() -> bool {
        // std caches the cpuid results behind these macros.
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }

    static SIMD: SimdBackend = SimdBackend;

    pub(crate) fn backend() -> &'static dyn Backend {
        &SIMD
    }

    std::thread_local! {
        /// Per-thread scratch for the packed B panel, reused across calls so
        /// steady-state matmuls never allocate. Thread-local because
        /// `array::dispatch_rows` may run row chunks on scoped threads.
        static PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
        /// Per-thread scratch for the transposed-A copy used by the packed
        /// `matmul_at` path (separate cell: it is alive across a `PACK` use).
        static AT_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    }

    /// AVX2 + FMA kernels. Constructed only through [`backend`], dispatched
    /// only when [`available`] is true, so every `target_feature` call
    /// below runs on a CPU that has the features.
    struct SimdBackend;

    impl Backend for SimdBackend {
        fn name(&self) -> &'static str {
            "simd"
        }

        fn matmul_rows(
            &self,
            a: &[f32],
            b: &[f32],
            out: &mut [f32],
            row0: usize,
            k: usize,
            n: usize,
        ) {
            let rows = out.len().checked_div(n).unwrap_or(0);
            if rows == 0 || k == 0 {
                out.fill(0.0);
                return;
            }
            if rows * k * n < PACK_MIN_FLOPS || n < NR || rows < MR {
                // unsafe-ok: AVX2+FMA guaranteed by the `available()` gate
                // on backend selection; all indexing is bounds-derived.
                unsafe { matmul_rows_direct(a, b, out, row0, k, n) }
            } else {
                PACK.with(|p| {
                    let mut pack = p.borrow_mut();
                    // unsafe-ok: AVX2+FMA guaranteed by the `available()`
                    // gate; the packed panel is sized in safe code above
                    // every raw load.
                    unsafe { matmul_rows_packed(a, b, out, row0, k, n, &mut pack) }
                });
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
        ) {
            if n == 0 {
                return;
            }
            let rows = out.len() / n;
            if rows == 0 || k == 0 {
                out.fill(0.0);
                return;
            }
            if rows * k * n < PACK_MIN_FLOPS || n < NR || rows < MR {
                // unsafe-ok: AVX2+FMA guaranteed by the `available()` gate
                // on backend selection; all indexing is bounds-derived.
                unsafe { matmul_bt_rows_dot(a, b, out, row0, k, n, true) }
            } else {
                PACK.with(|p| {
                    let mut pack = p.borrow_mut();
                    // unsafe-ok: AVX2+FMA guaranteed by the `available()`
                    // gate; the packed panel is sized in safe code above
                    // every raw load.
                    unsafe { matmul_bt_rows_packed(a, b, out, row0, k, n, &mut pack) }
                });
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
        ) {
            let rows = out.len().checked_div(n).unwrap_or(0);
            if rows == 0 || k == 0 {
                out.fill(0.0);
                return;
            }
            if rows * k * n < PACK_MIN_FLOPS || n < NR || rows < MR {
                // unsafe-ok: AVX2+FMA guaranteed by the `available()` gate
                // on backend selection; all indexing is bounds-derived.
                unsafe { matmul_at_rows_avx(a, b, out, row0, k, m, n) }
            } else {
                // Big shapes: materialize the needed Aᵀ rows once with a
                // cache-blocked transpose, then reuse the packed matmul —
                // the tile pass streams contiguous A instead of striding
                // columns through the cache for every output row.
                AT_BUF.with(|bf| {
                    let mut at = bf.borrow_mut();
                    at.clear();
                    at.resize(rows * k, 0.0);
                    const TB: usize = 32;
                    let mut i0 = 0;
                    while i0 < rows {
                        let iend = (i0 + TB).min(rows);
                        let mut p0 = 0;
                        while p0 < k {
                            let pend = (p0 + TB).min(k);
                            for i in i0..iend {
                                let col = row0 + i;
                                for p in p0..pend {
                                    at[i * k + p] = a[p * m + col];
                                }
                            }
                            p0 += TB;
                        }
                        i0 += TB;
                    }
                    PACK.with(|p| {
                        let mut pack = p.borrow_mut();
                        // unsafe-ok: AVX2+FMA guaranteed by the
                        // `available()` gate; the transposed copy and the
                        // packed panel are sized in safe code above.
                        unsafe { matmul_rows_packed(&at, b, out, 0, k, n, &mut pack) }
                    });
                });
            }
        }

        fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
            // unsafe-ok: AVX2+FMA guaranteed by the `available()` gate on
            // backend selection; loads stay inside `min(a.len(), b.len())`.
            unsafe { dot_avx(a, b) }
        }

        fn axpy(&self, alpha: f32, x: &[f32], out: &mut [f32]) {
            // unsafe-ok: AVX2+FMA guaranteed by the `available()` gate on
            // backend selection; loads stay inside the shorter slice.
            unsafe { axpy_avx(alpha, x, out) }
        }

        fn gemv_rows(&self, alpha: &[f32], b: &[f32], n: usize, out: &mut [f32]) {
            // unsafe-ok: AVX2+FMA guaranteed by the `available()` gate on
            // backend selection; row offsets are bounds-derived.
            unsafe { gemv_rows_avx(alpha, b, n, out) }
        }

        fn gemv_rows_strided(&self, alpha: &[f32], b: &[f32], stride: usize, out: &mut [f32]) {
            // unsafe-ok: AVX2+FMA guaranteed by the `available()` gate on
            // backend selection; row offsets are bounds-derived.
            unsafe { gemv_rows_strided_avx(alpha, b, stride, out) }
        }

        fn scale_bias_softmax_row(&self, row: &mut [f32], scale: f32, bias: Option<&[f32]>) {
            // unsafe-ok: AVX2+FMA guaranteed by the `available()` gate on
            // backend selection; bias length is asserted equal to the row.
            unsafe { scale_bias_softmax_row_avx(row, scale, bias) }
        }

        fn log_softmax_row(&self, row: &mut [f32]) {
            // unsafe-ok: AVX2+FMA guaranteed by the `available()` gate on
            // backend selection; single-slice sweeps only.
            unsafe { log_softmax_row_avx(row) }
        }

        fn layer_norm_row(&self, row: &mut [f32], eps: f32) -> f32 {
            // unsafe-ok: AVX2+FMA guaranteed by the `available()` gate on
            // backend selection; single-slice sweeps only.
            unsafe { layer_norm_row_avx(row, eps) }
        }
    }

    // ---- reduction helpers -------------------------------------------------

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum8(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let q = _mm_add_ps(lo, hi);
        let q = _mm_add_ps(q, _mm_movehl_ps(q, q));
        let q = _mm_add_ss(q, _mm_shuffle_ps(q, q, 0b0000_0001));
        _mm_cvtss_f32(q)
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hmax8(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let q = _mm_max_ps(lo, hi);
        let q = _mm_max_ps(q, _mm_movehl_ps(q, q));
        let q = _mm_max_ss(q, _mm_shuffle_ps(q, q, 0b0000_0001));
        _mm_cvtss_f32(q)
    }

    // ---- vectorized exp ----------------------------------------------------
    //
    // exp(x) = 2^n · exp(r), n = round(x·log2 e), r = x − n·ln2, evaluated
    // **in f64** (each 8-lane f32 vector splits into two 4-lane f64 halves)
    // with a degree-7 Taylor/Horner polynomial on r ∈ [−ln2/2, ln2/2]. In
    // f64 the reduction is exact to far below f32 resolution and the poly
    // truncation is ≈ 5e-9 relative, so the single f64→f32 conversion at
    // the end dominates: the result is correctly rounded to ≲ 0.6 ulp —
    // *tighter* than libm `expf`, which keeps the finite-difference noise
    // budget of the gradcheck registry intact under the SIMD backend. The
    // clamp to [−87, 88] keeps 2^n a normal f32 and avoids inf.

    const EXP_HI: f32 = 88.0;
    const EXP_LO: f32 = -87.0;
    const LOG2E_D: f64 = std::f64::consts::LOG2_E;
    const LN2_D: f64 = std::f64::consts::LN_2;
    /// 1.5·2^52 — adding and subtracting rounds an f64 to the nearest
    /// integer (ties-to-even, the FPU default) for |x| < 2^51.
    const ROUND_MAGIC_D: f64 = 6_755_399_441_055_744.0;
    /// Taylor coefficients 1/7! … 1/2!, Horner order.
    const EXP_D: [f64; 6] = [1.0 / 5040.0, 1.0 / 720.0, 1.0 / 120.0, 1.0 / 24.0, 1.0 / 6.0, 0.5];

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp4d(x: __m256d) -> __m256d {
        let magic = _mm256_set1_pd(ROUND_MAGIC_D);
        let t = _mm256_fmadd_pd(x, _mm256_set1_pd(LOG2E_D), magic);
        let n = _mm256_sub_pd(t, magic);
        let r = _mm256_fnmadd_pd(n, _mm256_set1_pd(LN2_D), x);
        let mut y = _mm256_set1_pd(EXP_D[0]);
        y = _mm256_fmadd_pd(y, r, _mm256_set1_pd(EXP_D[1]));
        y = _mm256_fmadd_pd(y, r, _mm256_set1_pd(EXP_D[2]));
        y = _mm256_fmadd_pd(y, r, _mm256_set1_pd(EXP_D[3]));
        y = _mm256_fmadd_pd(y, r, _mm256_set1_pd(EXP_D[4]));
        y = _mm256_fmadd_pd(y, r, _mm256_set1_pd(EXP_D[5]));
        y = _mm256_fmadd_pd(y, r, _mm256_set1_pd(1.0));
        y = _mm256_fmadd_pd(y, r, _mm256_set1_pd(1.0));
        // 2^n via the exponent field; n ∈ [−126, 128] after the f32 clamp.
        let ni = _mm256_cvtpd_epi32(n);
        let nl = _mm256_cvtepi32_epi64(ni);
        let bits = _mm256_slli_epi64(_mm256_add_epi64(nl, _mm256_set1_epi64x(1023)), 52);
        _mm256_mul_pd(y, _mm256_castsi256_pd(bits))
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp8(x: __m256) -> __m256 {
        let x = _mm256_min_ps(_mm256_set1_ps(EXP_HI), _mm256_max_ps(_mm256_set1_ps(EXP_LO), x));
        let lo = _mm256_cvtps_pd(_mm256_castps256_ps128(x));
        let hi = _mm256_cvtps_pd(_mm256_extractf128_ps(x, 1));
        let rl = _mm256_cvtpd_ps(exp4d(lo));
        let rh = _mm256_cvtpd_ps(exp4d(hi));
        _mm256_set_m128(rh, rl)
    }

    /// Scalar mirror of [`exp8`], same constants and operation order, so
    /// row tails carry the same accuracy as the vector body. Inside the
    /// `target_feature` kernels `mul_add` compiles to the same FMA.
    #[inline]
    fn exp1(x: f32) -> f32 {
        let x = f64::from(x.clamp(EXP_LO, EXP_HI));
        let t = x.mul_add(LOG2E_D, ROUND_MAGIC_D);
        let n = t - ROUND_MAGIC_D;
        let r = (-n).mul_add(LN2_D, x);
        let mut y = EXP_D[0];
        y = y.mul_add(r, EXP_D[1]);
        y = y.mul_add(r, EXP_D[2]);
        y = y.mul_add(r, EXP_D[3]);
        y = y.mul_add(r, EXP_D[4]);
        y = y.mul_add(r, EXP_D[5]);
        y = y.mul_add(r, 1.0);
        y = y.mul_add(r, 1.0);
        (y * f64::from_bits((((n as i64) + 1023) as u64) << 52)) as f32
    }

    // ---- dot / axpy / gemv -------------------------------------------------

    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot_avx(a: &[f32], b: &[f32]) -> f32 {
        let len = a.len().min(b.len());
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 32 <= len {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 8)),
                _mm256_loadu_ps(pb.add(i + 8)),
                acc1,
            );
            acc2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 16)),
                _mm256_loadu_ps(pb.add(i + 16)),
                acc2,
            );
            acc3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 24)),
                _mm256_loadu_ps(pb.add(i + 24)),
                acc3,
            );
            i += 32;
        }
        while i + 8 <= len {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
            i += 8;
        }
        let mut sum = hsum8(_mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3)));
        while i < len {
            sum = a[i].mul_add(b[i], sum);
            i += 1;
        }
        sum
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn axpy_avx(alpha: f32, x: &[f32], out: &mut [f32]) {
        let len = x.len().min(out.len());
        let av = _mm256_set1_ps(alpha);
        let px = x.as_ptr();
        let po = out.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= len {
            let o = _mm256_fmadd_ps(av, _mm256_loadu_ps(px.add(i)), _mm256_loadu_ps(po.add(i)));
            _mm256_storeu_ps(po.add(i), o);
            i += 8;
        }
        while i < len {
            out[i] = alpha.mul_add(x[i], out[i]);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemv_rows_avx(alpha: &[f32], b: &[f32], n: usize, out: &mut [f32]) {
        gemv_rows_strided_core(alpha, b, n, n.min(out.len()), out)
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemv_rows_strided_avx(alpha: &[f32], b: &[f32], stride: usize, out: &mut [f32]) {
        let width = out.len();
        gemv_rows_strided_core(alpha, b, stride, width, out)
    }

    /// `out[..width] += Σ_p alpha[p] · b[p·stride ..][..width]`, four p at a
    /// time so each 8-wide column segment is loaded/stored once per block.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemv_rows_strided_core(
        alpha: &[f32],
        b: &[f32],
        stride: usize,
        width: usize,
        out: &mut [f32],
    ) {
        let rows = alpha.len();
        debug_assert!(rows == 0 || (rows - 1) * stride + width <= b.len());
        let pb = b.as_ptr();
        let po = out.as_mut_ptr();
        let mut p = 0;
        while p + 4 <= rows {
            let a0 = _mm256_set1_ps(alpha[p]);
            let a1 = _mm256_set1_ps(alpha[p + 1]);
            let a2 = _mm256_set1_ps(alpha[p + 2]);
            let a3 = _mm256_set1_ps(alpha[p + 3]);
            let r0 = pb.add(p * stride);
            let r1 = pb.add((p + 1) * stride);
            let r2 = pb.add((p + 2) * stride);
            let r3 = pb.add((p + 3) * stride);
            let mut j = 0;
            while j + 8 <= width {
                let mut o = _mm256_loadu_ps(po.add(j));
                o = _mm256_fmadd_ps(a0, _mm256_loadu_ps(r0.add(j)), o);
                o = _mm256_fmadd_ps(a1, _mm256_loadu_ps(r1.add(j)), o);
                o = _mm256_fmadd_ps(a2, _mm256_loadu_ps(r2.add(j)), o);
                o = _mm256_fmadd_ps(a3, _mm256_loadu_ps(r3.add(j)), o);
                _mm256_storeu_ps(po.add(j), o);
                j += 8;
            }
            while j < width {
                let mut o = out[j];
                o = alpha[p].mul_add(*r0.add(j), o);
                o = alpha[p + 1].mul_add(*r1.add(j), o);
                o = alpha[p + 2].mul_add(*r2.add(j), o);
                o = alpha[p + 3].mul_add(*r3.add(j), o);
                out[j] = o;
                j += 1;
            }
            p += 4;
        }
        while p < rows {
            let av = _mm256_set1_ps(alpha[p]);
            let r = pb.add(p * stride);
            let mut j = 0;
            while j + 8 <= width {
                let o = _mm256_fmadd_ps(av, _mm256_loadu_ps(r.add(j)), _mm256_loadu_ps(po.add(j)));
                _mm256_storeu_ps(po.add(j), o);
                j += 8;
            }
            while j < width {
                out[j] = alpha[p].mul_add(*r.add(j), out[j]);
                j += 1;
            }
            p += 1;
        }
    }

    // ---- matmul kernels ----------------------------------------------------

    /// Direct broadcast-FMA kernel: for each output row, walk A's row in
    /// blocks of 4, broadcasting each element against 8-wide segments of the
    /// matching B row. An upfront zero-fill (so the pool's NaN-poison is
    /// always cleared) is followed by plain accumulation.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn matmul_rows_direct(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        row0: usize,
        k: usize,
        n: usize,
    ) {
        let rows = out.len() / n;
        debug_assert!((row0 + rows) * k <= a.len() && k * n <= b.len());
        out.fill(0.0);
        let pb = b.as_ptr();
        for i in 0..rows {
            let arow = &a[(row0 + i) * k..(row0 + i) * k + k];
            let orow = &mut out[i * n..(i + 1) * n];
            let po = orow.as_mut_ptr();
            let mut p = 0;
            while p + 4 <= k {
                let a0 = _mm256_set1_ps(arow[p]);
                let a1 = _mm256_set1_ps(arow[p + 1]);
                let a2 = _mm256_set1_ps(arow[p + 2]);
                let a3 = _mm256_set1_ps(arow[p + 3]);
                let r0 = pb.add(p * n);
                let r1 = pb.add((p + 1) * n);
                let r2 = pb.add((p + 2) * n);
                let r3 = pb.add((p + 3) * n);
                let mut j = 0;
                while j + 8 <= n {
                    let mut o = _mm256_loadu_ps(po.add(j));
                    o = _mm256_fmadd_ps(a0, _mm256_loadu_ps(r0.add(j)), o);
                    o = _mm256_fmadd_ps(a1, _mm256_loadu_ps(r1.add(j)), o);
                    o = _mm256_fmadd_ps(a2, _mm256_loadu_ps(r2.add(j)), o);
                    o = _mm256_fmadd_ps(a3, _mm256_loadu_ps(r3.add(j)), o);
                    _mm256_storeu_ps(po.add(j), o);
                    j += 8;
                }
                while j < n {
                    let mut o = orow[j];
                    o = arow[p].mul_add(*r0.add(j), o);
                    o = arow[p + 1].mul_add(*r1.add(j), o);
                    o = arow[p + 2].mul_add(*r2.add(j), o);
                    o = arow[p + 3].mul_add(*r3.add(j), o);
                    orow[j] = o;
                    j += 1;
                }
                p += 4;
            }
            while p < k {
                let av = _mm256_set1_ps(arow[p]);
                let r = pb.add(p * n);
                let mut j = 0;
                while j + 8 <= n {
                    let o =
                        _mm256_fmadd_ps(av, _mm256_loadu_ps(r.add(j)), _mm256_loadu_ps(po.add(j)));
                    _mm256_storeu_ps(po.add(j), o);
                    j += 8;
                }
                while j < n {
                    orow[j] = arow[p].mul_add(*r.add(j), orow[j]);
                    j += 1;
                }
                p += 1;
            }
        }
    }

    /// Packed register-blocked kernel: B is repacked into `k × NR` panels
    /// (last panel zero-padded) so the inner loop streams contiguous,
    /// reused-per-row-block memory; each `MR × NR` tile keeps 8 ymm
    /// accumulators live across the whole k loop.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn matmul_rows_packed(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        row0: usize,
        k: usize,
        n: usize,
        pack: &mut Vec<f32>,
    ) {
        let rows = out.len() / n;
        debug_assert!((row0 + rows) * k <= a.len() && k * n <= b.len());
        let panels = n.div_ceil(NR);
        pack.clear();
        pack.resize(panels * k * NR, 0.0);
        for jp in 0..panels {
            let j0 = jp * NR;
            let w = NR.min(n - j0);
            for p in 0..k {
                let dst = (jp * k + p) * NR;
                pack[dst..dst + w].copy_from_slice(&b[p * n + j0..p * n + j0 + w]);
            }
        }
        out.fill(0.0);
        let i = packed_tile_pass(a, pack, out, row0, k, n);
        if i < rows {
            // Remainder rows take the direct kernel over the original B.
            matmul_rows_direct(a, b, &mut out[i * n..rows * n], row0 + i, k, n);
        }
    }

    /// The shared `MR × NR` register-blocked accumulation pass over
    /// pre-packed B panels. Accumulates into `out` (callers zero-fill for
    /// overwrite) and returns the number of rows processed (a multiple of
    /// `MR`; remainder rows are the caller's job).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn packed_tile_pass(
        a: &[f32],
        pack: &[f32],
        out: &mut [f32],
        row0: usize,
        k: usize,
        n: usize,
    ) -> usize {
        let rows = out.len() / n;
        let panels = n.div_ceil(NR);
        debug_assert!(pack.len() >= panels * k * NR);
        let pa = a.as_ptr();
        let po = out.as_mut_ptr();
        let pk = pack.as_ptr();
        let mut i = 0;
        while i + MR <= rows {
            for jp in 0..panels {
                let j0 = jp * NR;
                let w = NR.min(n - j0);
                let panel = pk.add(jp * k * NR);
                let mut c00 = _mm256_setzero_ps();
                let mut c01 = _mm256_setzero_ps();
                let mut c10 = _mm256_setzero_ps();
                let mut c11 = _mm256_setzero_ps();
                let mut c20 = _mm256_setzero_ps();
                let mut c21 = _mm256_setzero_ps();
                let mut c30 = _mm256_setzero_ps();
                let mut c31 = _mm256_setzero_ps();
                let a0 = pa.add((row0 + i) * k);
                let a1 = pa.add((row0 + i + 1) * k);
                let a2 = pa.add((row0 + i + 2) * k);
                let a3 = pa.add((row0 + i + 3) * k);
                for p in 0..k {
                    let b0 = _mm256_loadu_ps(panel.add(p * NR));
                    let b1 = _mm256_loadu_ps(panel.add(p * NR + 8));
                    let v0 = _mm256_set1_ps(*a0.add(p));
                    c00 = _mm256_fmadd_ps(v0, b0, c00);
                    c01 = _mm256_fmadd_ps(v0, b1, c01);
                    let v1 = _mm256_set1_ps(*a1.add(p));
                    c10 = _mm256_fmadd_ps(v1, b0, c10);
                    c11 = _mm256_fmadd_ps(v1, b1, c11);
                    let v2 = _mm256_set1_ps(*a2.add(p));
                    c20 = _mm256_fmadd_ps(v2, b0, c20);
                    c21 = _mm256_fmadd_ps(v2, b1, c21);
                    let v3 = _mm256_set1_ps(*a3.add(p));
                    c30 = _mm256_fmadd_ps(v3, b0, c30);
                    c31 = _mm256_fmadd_ps(v3, b1, c31);
                }
                let tiles = [[c00, c01], [c10, c11], [c20, c21], [c30, c31]];
                for (r, tile) in tiles.iter().enumerate() {
                    store_tile_row(po.add((i + r) * n + j0), tile, w);
                }
            }
            i += MR;
        }
        i
    }

    /// Packed B-transposed kernel: `out = A · Bᵀ` with B row-major
    /// `(n, k)`. B is transposed straight into `k × NR` panels (reading 16
    /// B rows as parallel sequential streams), after which the product is an
    /// ordinary packed matmul — the same near-peak tile pass as
    /// [`matmul_rows_packed`] instead of horizontal-sum dot products.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn matmul_bt_rows_packed(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        row0: usize,
        k: usize,
        n: usize,
        pack: &mut Vec<f32>,
    ) {
        let rows = out.len() / n;
        debug_assert!((row0 + rows) * k <= a.len() && n * k <= b.len());
        let panels = n.div_ceil(NR);
        pack.clear();
        pack.resize(panels * k * NR, 0.0);
        for jp in 0..panels {
            let j0 = jp * NR;
            let w = NR.min(n - j0);
            let base = jp * k * NR;
            for c in 0..w {
                let brow = &b[(j0 + c) * k..(j0 + c) * k + k];
                for (p, &v) in brow.iter().enumerate() {
                    pack[base + p * NR + c] = v;
                }
            }
        }
        out.fill(0.0);
        let i = packed_tile_pass(a, pack, out, row0, k, n);
        if i < rows {
            matmul_bt_rows_dot(a, b, &mut out[i * n..rows * n], row0 + i, k, n, false);
        }
    }

    /// Accumulate one `1 × NR` accumulator pair into `w` output lanes.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn store_tile_row(dst: *mut f32, tile: &[__m256; 2], w: usize) {
        if w == NR {
            _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), tile[0]));
            _mm256_storeu_ps(dst.add(8), _mm256_add_ps(_mm256_loadu_ps(dst.add(8)), tile[1]));
        } else {
            let mut buf = [0.0f32; NR];
            _mm256_storeu_ps(buf.as_mut_ptr(), tile[0]);
            _mm256_storeu_ps(buf.as_mut_ptr().add(8), tile[1]);
            for (c, &v) in buf.iter().enumerate().take(w) {
                *dst.add(c) += v;
            }
        }
    }

    /// `out[i][j] (+)= a[row0+i] · b[j]` with B row-major `(n, k)` — four
    /// output columns share each A load, one horizontal sum per element.
    /// Used for small shapes (`ow`: assign) and, accumulating onto the
    /// zero-filled rows, for packed-path remainder rows.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn matmul_bt_rows_dot(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        row0: usize,
        k: usize,
        n: usize,
        ow: bool,
    ) {
        let rows = out.len() / n;
        debug_assert!((row0 + rows) * k <= a.len() && n * k <= b.len());
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        for i in 0..rows {
            let ar = pa.add((row0 + i) * k);
            let orow = &mut out[i * n..(i + 1) * n];
            let mut j = 0;
            while j + 4 <= n {
                let r0 = pb.add(j * k);
                let r1 = pb.add((j + 1) * k);
                let r2 = pb.add((j + 2) * k);
                let r3 = pb.add((j + 3) * k);
                let mut s0 = _mm256_setzero_ps();
                let mut s1 = _mm256_setzero_ps();
                let mut s2 = _mm256_setzero_ps();
                let mut s3 = _mm256_setzero_ps();
                let mut p = 0;
                while p + 8 <= k {
                    let av = _mm256_loadu_ps(ar.add(p));
                    s0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(r0.add(p)), s0);
                    s1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(r1.add(p)), s1);
                    s2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(r2.add(p)), s2);
                    s3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(r3.add(p)), s3);
                    p += 8;
                }
                let mut d0 = hsum8(s0);
                let mut d1 = hsum8(s1);
                let mut d2 = hsum8(s2);
                let mut d3 = hsum8(s3);
                while p < k {
                    let av = *ar.add(p);
                    d0 = av.mul_add(*r0.add(p), d0);
                    d1 = av.mul_add(*r1.add(p), d1);
                    d2 = av.mul_add(*r2.add(p), d2);
                    d3 = av.mul_add(*r3.add(p), d3);
                    p += 1;
                }
                if ow {
                    orow[j] = d0;
                    orow[j + 1] = d1;
                    orow[j + 2] = d2;
                    orow[j + 3] = d3;
                } else {
                    orow[j] += d0;
                    orow[j + 1] += d1;
                    orow[j + 2] += d2;
                    orow[j + 3] += d3;
                }
                j += 4;
            }
            while j < n {
                let r = pb.add(j * k);
                let mut s = _mm256_setzero_ps();
                let mut p = 0;
                while p + 8 <= k {
                    s = _mm256_fmadd_ps(_mm256_loadu_ps(ar.add(p)), _mm256_loadu_ps(r.add(p)), s);
                    p += 8;
                }
                let mut d = hsum8(s);
                while p < k {
                    d = (*ar.add(p)).mul_add(*r.add(p), d);
                    p += 1;
                }
                if ow {
                    orow[j] = d;
                } else {
                    orow[j] += d;
                }
                j += 1;
            }
        }
    }

    /// `out[i] = column (row0+i) of A @ B` — the direct kernel with A
    /// broadcast at column stride `m` (A is `(k, m)` row-major).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn matmul_at_rows_avx(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        row0: usize,
        k: usize,
        m: usize,
        n: usize,
    ) {
        let rows = out.len() / n;
        debug_assert!(k * m <= a.len() && k * n <= b.len() && row0 + rows <= m);
        out.fill(0.0);
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        for i in 0..rows {
            let col = pa.add(row0 + i);
            let orow = &mut out[i * n..(i + 1) * n];
            let po = orow.as_mut_ptr();
            let mut p = 0;
            while p + 4 <= k {
                let a0 = _mm256_set1_ps(*col.add(p * m));
                let a1 = _mm256_set1_ps(*col.add((p + 1) * m));
                let a2 = _mm256_set1_ps(*col.add((p + 2) * m));
                let a3 = _mm256_set1_ps(*col.add((p + 3) * m));
                let r0 = pb.add(p * n);
                let r1 = pb.add((p + 1) * n);
                let r2 = pb.add((p + 2) * n);
                let r3 = pb.add((p + 3) * n);
                let mut j = 0;
                while j + 8 <= n {
                    let mut o = _mm256_loadu_ps(po.add(j));
                    o = _mm256_fmadd_ps(a0, _mm256_loadu_ps(r0.add(j)), o);
                    o = _mm256_fmadd_ps(a1, _mm256_loadu_ps(r1.add(j)), o);
                    o = _mm256_fmadd_ps(a2, _mm256_loadu_ps(r2.add(j)), o);
                    o = _mm256_fmadd_ps(a3, _mm256_loadu_ps(r3.add(j)), o);
                    _mm256_storeu_ps(po.add(j), o);
                    j += 8;
                }
                while j < n {
                    let mut o = orow[j];
                    o = (*col.add(p * m)).mul_add(*r0.add(j), o);
                    o = (*col.add((p + 1) * m)).mul_add(*r1.add(j), o);
                    o = (*col.add((p + 2) * m)).mul_add(*r2.add(j), o);
                    o = (*col.add((p + 3) * m)).mul_add(*r3.add(j), o);
                    orow[j] = o;
                    j += 1;
                }
                p += 4;
            }
            while p < k {
                let av = _mm256_set1_ps(*col.add(p * m));
                let r = pb.add(p * n);
                let mut j = 0;
                while j + 8 <= n {
                    let o =
                        _mm256_fmadd_ps(av, _mm256_loadu_ps(r.add(j)), _mm256_loadu_ps(po.add(j)));
                    _mm256_storeu_ps(po.add(j), o);
                    j += 8;
                }
                while j < n {
                    orow[j] = (*col.add(p * m)).mul_add(*r.add(j), orow[j]);
                    j += 1;
                }
                p += 1;
            }
        }
    }

    // ---- row ops -----------------------------------------------------------

    #[target_feature(enable = "avx2,fma")]
    unsafe fn scale_bias_softmax_row_avx(row: &mut [f32], scale: f32, bias: Option<&[f32]>) {
        let n = row.len();
        if n == 0 {
            return;
        }
        let p = row.as_mut_ptr();
        // Pass 1: apply scale (+bias) and find the row max.
        let mut maxv;
        let mut mv = _mm256_set1_ps(f32::NEG_INFINITY);
        let sv = _mm256_set1_ps(scale);
        let mut i = 0;
        match bias {
            Some(br) => {
                debug_assert!(br.len() >= n);
                let pbias = br.as_ptr();
                while i + 8 <= n {
                    let v = _mm256_fmadd_ps(
                        _mm256_loadu_ps(p.add(i)),
                        sv,
                        _mm256_loadu_ps(pbias.add(i)),
                    );
                    _mm256_storeu_ps(p.add(i), v);
                    mv = _mm256_max_ps(mv, v);
                    i += 8;
                }
                maxv = hmax8(mv);
                while i < n {
                    let v = row[i].mul_add(scale, br[i]);
                    row[i] = v;
                    maxv = maxv.max(v);
                    i += 1;
                }
            }
            None if scale == 1.0 => {
                while i + 8 <= n {
                    mv = _mm256_max_ps(mv, _mm256_loadu_ps(p.add(i)));
                    i += 8;
                }
                maxv = hmax8(mv);
                while i < n {
                    maxv = maxv.max(row[i]);
                    i += 1;
                }
            }
            None => {
                while i + 8 <= n {
                    let v = _mm256_mul_ps(_mm256_loadu_ps(p.add(i)), sv);
                    _mm256_storeu_ps(p.add(i), v);
                    mv = _mm256_max_ps(mv, v);
                    i += 8;
                }
                maxv = hmax8(mv);
                while i < n {
                    row[i] *= scale;
                    maxv = maxv.max(row[i]);
                    i += 1;
                }
            }
        }
        // Pass 2: exponentiate shifted values, accumulate the sum.
        let mxv = _mm256_set1_ps(maxv);
        let mut sumv = _mm256_setzero_ps();
        i = 0;
        while i + 8 <= n {
            let e = exp8(_mm256_sub_ps(_mm256_loadu_ps(p.add(i)), mxv));
            _mm256_storeu_ps(p.add(i), e);
            sumv = _mm256_add_ps(sumv, e);
            i += 8;
        }
        let mut sum = hsum8(sumv);
        while i < n {
            let e = exp1(row[i] - maxv);
            row[i] = e;
            sum += e;
            i += 1;
        }
        // Pass 3: normalize.
        let inv = 1.0 / sum;
        let iv = _mm256_set1_ps(inv);
        i = 0;
        while i + 8 <= n {
            _mm256_storeu_ps(p.add(i), _mm256_mul_ps(_mm256_loadu_ps(p.add(i)), iv));
            i += 8;
        }
        while i < n {
            row[i] *= inv;
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn log_softmax_row_avx(row: &mut [f32]) {
        let n = row.len();
        if n == 0 {
            return;
        }
        let p = row.as_mut_ptr();
        let mut mv = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut i = 0;
        while i + 8 <= n {
            mv = _mm256_max_ps(mv, _mm256_loadu_ps(p.add(i)));
            i += 8;
        }
        let mut maxv = hmax8(mv);
        while i < n {
            maxv = maxv.max(row[i]);
            i += 1;
        }
        let mxv = _mm256_set1_ps(maxv);
        let mut sumv = _mm256_setzero_ps();
        i = 0;
        while i + 8 <= n {
            sumv = _mm256_add_ps(sumv, exp8(_mm256_sub_ps(_mm256_loadu_ps(p.add(i)), mxv)));
            i += 8;
        }
        let mut sum = hsum8(sumv);
        while i < n {
            sum += exp1(row[i] - maxv);
            i += 1;
        }
        let lse = maxv + sum.ln();
        let lv = _mm256_set1_ps(lse);
        i = 0;
        while i + 8 <= n {
            _mm256_storeu_ps(p.add(i), _mm256_sub_ps(_mm256_loadu_ps(p.add(i)), lv));
            i += 8;
        }
        while i < n {
            row[i] -= lse;
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn layer_norm_row_avx(row: &mut [f32], eps: f32) -> f32 {
        let n = row.len();
        if n == 0 {
            return 1.0;
        }
        let p = row.as_mut_ptr();
        let d = n as f32;
        let mut sv = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            sv = _mm256_add_ps(sv, _mm256_loadu_ps(p.add(i)));
            i += 8;
        }
        let mut sum = hsum8(sv);
        while i < n {
            sum += row[i];
            i += 1;
        }
        let mean = sum / d;
        let mnv = _mm256_set1_ps(mean);
        let mut vv = _mm256_setzero_ps();
        i = 0;
        while i + 8 <= n {
            let c = _mm256_sub_ps(_mm256_loadu_ps(p.add(i)), mnv);
            vv = _mm256_fmadd_ps(c, c, vv);
            i += 8;
        }
        let mut varsum = hsum8(vv);
        while i < n {
            let c = row[i] - mean;
            varsum = c.mul_add(c, varsum);
            i += 1;
        }
        let rstd = 1.0 / (varsum / d + eps).sqrt();
        let rv = _mm256_set1_ps(rstd);
        i = 0;
        while i + 8 <= n {
            _mm256_storeu_ps(
                p.add(i),
                _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(p.add(i)), mnv), rv),
            );
            i += 8;
        }
        while i < n {
            row[i] = (row[i] - mean) * rstd;
            i += 1;
        }
        rstd
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn exp_poly_matches_libm() {
            if !available() {
                return;
            }
            for i in -870..=880 {
                let x = i as f32 / 10.0;
                // unsafe-ok: guarded by `available()` above.
                let got = unsafe {
                    let v = exp8(_mm256_set1_ps(x));
                    let mut buf = [0.0f32; 8];
                    _mm256_storeu_ps(buf.as_mut_ptr(), v);
                    buf[0]
                };
                let want = x.exp();
                let rel = (got - want).abs() / want.max(f32::MIN_POSITIVE);
                assert!(rel < 3e-7, "exp({x}): got {got}, want {want}, rel {rel}");
                let scalar = exp1(x);
                let srel = (scalar - want).abs() / want.max(f32::MIN_POSITIVE);
                assert!(srel < 3e-7, "exp1({x}): got {scalar}, want {want}");
            }
        }

        #[test]
        fn dot_matches_scalar() {
            if !available() {
                return;
            }
            let a: Vec<f32> = (0..100).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f32> = (0..100).map(|i| (i as f32 * 0.61).cos()).collect();
            // unsafe-ok: guarded by `available()` above.
            let got = unsafe { dot_avx(&a, &b) };
            let want: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((got - want).abs() < 1e-4, "{got} vs {want}");
        }
    }
}
