//! Backend-seam contract tests: the SIMD kernels must agree with the
//! blocked-scalar reference backend on arbitrary (especially odd/remainder)
//! shapes, be bitwise deterministic run-to-run, and leave end-to-end
//! training numerics within the acceptance envelope.
//!
//! Kernel-level properties use the backend *objects* directly
//! (`backend::scalar()` / `backend::simd()`) so they never touch the
//! process-global selection; the end-to-end tests that do flip the global
//! via `set_backend` serialize on a mutex and restore the default.
//!
//! On machines without AVX2+FMA `backend::simd()` is `None` and the SIMD
//! halves of these tests self-skip — the scalar path is then the active
//! backend and is covered by the rest of the suite.

use std::sync::Mutex;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use start_nn::array::Array;
use start_nn::backend::{self, BackendKind};
use start_nn::gradcheck::{check_grad, DEFAULT_TOL};
use start_nn::graph::Graph;
use start_nn::layers::TransformerEncoderLayer;
use start_nn::params::{GradStore, ParamStore};

/// Guards the tests that flip the process-global backend selection.
static GLOBAL_BACKEND: Mutex<()> = Mutex::new(());

/// Agreement bound: ≤1e-5 relative (with a unit absolute floor so
/// near-zero entries compare absolutely).
fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-5 * (1.0 + a.abs().max(b.abs()))
}

fn fill_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect()
}

/// Dimension strategy biased toward remainder-heavy sizes: 1, odd values,
/// and non-multiples of the 4/8/16 block widths all occur.
fn dim() -> impl Strategy<Value = usize> {
    1usize..=37
}

fn assert_rows_agree(label: &str, s: &[f32], v: &[f32]) {
    for (i, (a, b)) in s.iter().zip(v).enumerate() {
        assert!(close(*a, *b), "{label}[{i}]: scalar {a} vs simd {b}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three matmul kernel families agree with the scalar reference on
    /// arbitrary shapes, overwriting a prefilled output buffer, at a
    /// nonzero row offset.
    #[test]
    fn matmul_kernels_agree((m, k, n, row0, seed) in
        (dim(), dim(), dim(), 0usize..=3, any::<u64>()))
    {
        let Some(simd) = backend::simd() else { return Ok(()) };
        let sc = backend::scalar();
        let a = fill_vec((row0 + m) * k, seed);
        let b = fill_vec(k * n, seed ^ 1);
        let bt = fill_vec(n * k, seed ^ 2);
        let at = fill_vec(k * (row0 + m), seed ^ 3);
        let init = fill_vec(m * n, seed ^ 4);

        for (label, run) in [
            ("matmul", 0usize), ("matmul_bt", 1), ("matmul_at", 2),
        ] {
            let mut os = init.clone();
            let mut ov = init.clone();
            match run {
                0 => {
                    sc.matmul_rows(&a, &b, &mut os, row0, k, n);
                    simd.matmul_rows(&a, &b, &mut ov, row0, k, n);
                }
                1 => {
                    sc.matmul_bt_rows(&a, &bt, &mut os, row0, k, n);
                    simd.matmul_bt_rows(&a, &bt, &mut ov, row0, k, n);
                }
                _ => {
                    sc.matmul_at_rows(&at, &b, &mut os, row0, k, row0 + m, n);
                    simd.matmul_at_rows(&at, &b, &mut ov, row0, k, row0 + m, n);
                }
            }
            assert_rows_agree(label, &os, &ov);
        }
    }

    /// dot / axpy / both gemv forms agree on odd lengths.
    #[test]
    fn vector_kernels_agree((len, n, seed) in (dim(), dim(), any::<u64>())) {
        let Some(simd) = backend::simd() else { return Ok(()) };
        let sc = backend::scalar();
        let x = fill_vec(len, seed);
        let y = fill_vec(len, seed ^ 1);

        let ds = sc.dot(&x, &y);
        let dv = simd.dot(&x, &y);
        prop_assert!(close(ds, dv), "dot: {ds} vs {dv}");

        let mut os = fill_vec(len, seed ^ 2);
        let mut ov = os.clone();
        sc.axpy(0.7, &x, &mut os);
        simd.axpy(0.7, &x, &mut ov);
        assert_rows_agree("axpy", &os, &ov);

        let b = fill_vec(len * n, seed ^ 3);
        let mut os = fill_vec(n, seed ^ 4);
        let mut ov = os.clone();
        sc.gemv_rows(&x, &b, n, &mut os);
        simd.gemv_rows(&x, &b, n, &mut ov);
        assert_rows_agree("gemv_rows", &os, &ov);

        // Strided form: stride > width so rows overlap nothing.
        let stride = n + 3;
        let bs = fill_vec(len * stride + n, seed ^ 5);
        let mut os = fill_vec(n, seed ^ 6);
        let mut ov = os.clone();
        sc.gemv_rows_strided(&x, &bs, stride, &mut os);
        simd.gemv_rows_strided(&x, &bs, stride, &mut ov);
        assert_rows_agree("gemv_rows_strided", &os, &ov);
    }

    /// Row epilogues (softmax family, layernorm) agree on odd widths,
    /// including the fused scale+bias softmax used by attention.
    #[test]
    fn row_kernels_agree((w, seed, scale) in (dim(), any::<u64>(), 0.1f32..2.0)) {
        let Some(simd) = backend::simd() else { return Ok(()) };
        let sc = backend::scalar();
        let row = fill_vec(w, seed);
        let bias = fill_vec(w, seed ^ 1);

        let mut rs = row.clone();
        let mut rv = row.clone();
        sc.scale_bias_softmax_row(&mut rs, scale, Some(&bias));
        simd.scale_bias_softmax_row(&mut rv, scale, Some(&bias));
        assert_rows_agree("scale_bias_softmax", &rs, &rv);

        let mut rs = row.clone();
        let mut rv = row.clone();
        sc.softmax_row(&mut rs);
        simd.softmax_row(&mut rv);
        assert_rows_agree("softmax", &rs, &rv);

        let mut rs = row.clone();
        let mut rv = row.clone();
        sc.log_softmax_row(&mut rs);
        simd.log_softmax_row(&mut rv);
        assert_rows_agree("log_softmax", &rs, &rv);

        let mut rs = row.clone();
        let mut rv = row.clone();
        let ss = sc.layer_norm_row(&mut rs, 1e-5);
        let sv = simd.layer_norm_row(&mut rv, 1e-5);
        prop_assert!(close(ss, sv), "rstd: {ss} vs {sv}");
        assert_rows_agree("layer_norm", &rs, &rv);
    }

    /// The SIMD path is bitwise deterministic: identical inputs produce
    /// identical bits run-to-run (fixed summation trees, no data-dependent
    /// shortcuts).
    #[test]
    fn simd_kernels_are_bitwise_deterministic((m, k, n, seed) in
        (dim(), dim(), dim(), any::<u64>()))
    {
        let Some(simd) = backend::simd() else { return Ok(()) };
        let a = fill_vec(m * k, seed);
        let b = fill_vec(k * n, seed ^ 1);

        let mut o1 = vec![f32::NAN; m * n];
        let mut o2 = vec![f32::NAN; m * n];
        simd.matmul_rows(&a, &b, &mut o1, 0, k, n);
        simd.matmul_rows(&a, &b, &mut o2, 0, k, n);
        prop_assert_eq!(
            o1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            o2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        let mut r1 = a.clone();
        let mut r2 = a.clone();
        simd.scale_bias_softmax_row(&mut r1, 0.3, None);
        simd.scale_bias_softmax_row(&mut r2, 0.3, None);
        prop_assert_eq!(
            r1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            r2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}

fn encoder_step(kind: BackendKind) -> (f32, Vec<f32>) {
    let prev = backend::set_backend(Some(kind));
    let mut rng = StdRng::seed_from_u64(7);
    let mut store = ParamStore::new();
    let layer = TransformerEncoderLayer::new(&mut store, &mut rng, "enc", 48, 4, 96, 0.0);
    let x = Array::from_fn(33, 48, |r, c| ((r * 48 + c) as f32 * 0.61).sin());
    let bias = Array::from_fn(33, 33, |r, c| (r as f32 - c as f32) * 0.03);

    let mut g = Graph::new(&store, true);
    let xi = g.input(x);
    let bi = g.input(bias);
    let mut step_rng = StdRng::seed_from_u64(99);
    let y = layer.forward(&mut g, xi, Some(bi), &mut step_rng);
    let sq = g.mul(y, y);
    let loss = g.mean_all(sq);
    let mut grads = GradStore::new(&store);
    g.backward(loss, &mut grads);
    let lv = g.value(loss).item();
    let gv = store
        .ids()
        .flat_map(|id| grads.get(id).map_or_else(Vec::new, |a| a.data().to_vec()))
        .collect();
    backend::set_backend(prev);
    (lv, gv)
}

/// End-to-end acceptance: a full encoder-layer step (odd t=33, fused
/// attention + bias, fwd+bwd) under the SIMD backend matches the scalar
/// backend to ≤1e-4 on the loss and closely on every parameter gradient.
#[test]
fn encoder_step_matches_across_backends() {
    if backend::simd().is_none() {
        return;
    }
    let _lock = GLOBAL_BACKEND.lock().unwrap();
    let (ls, gs) = encoder_step(BackendKind::Scalar);
    let (lv, gv) = encoder_step(BackendKind::Simd);
    assert!((ls - lv).abs() <= 1e-4 * (1.0 + ls.abs()), "loss diverged: scalar {ls} vs simd {lv}");
    assert_eq!(gs.len(), gv.len());
    for (i, (a, b)) in gs.iter().zip(&gv).enumerate() {
        assert!(
            (a - b).abs() <= 1e-3 * (1.0 + a.abs().max(b.abs())),
            "grad[{i}] diverged: scalar {a} vs simd {b}"
        );
    }
}

/// Finite-difference gradcheck of the fused-attention path with the SIMD
/// backend forced on — the tightest consumer of kernel accuracy (the
/// vector exp must stay well under the central-difference noise floor).
#[test]
fn gradcheck_fused_attention_under_simd() {
    if backend::simd().is_none() {
        return;
    }
    let _lock = GLOBAL_BACKEND.lock().unwrap();
    let prev = backend::set_backend(Some(BackendKind::Simd));
    let report = check_grad(6, 8, false, DEFAULT_TOL, |g, p| {
        let k = g.relu(p);
        let v = g.scale(p, 0.6);
        let y = g.mh_attention(p, k, v, None, 2, 0.0, &mut StdRng::seed_from_u64(3));
        g.mean_all(y)
    });
    backend::set_backend(prev);
    assert!(report.max_rel_err <= DEFAULT_TOL);
}
