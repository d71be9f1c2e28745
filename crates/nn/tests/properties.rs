//! Property-based tests (proptest) for the autodiff substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use start_nn::array::Array;
use start_nn::graph::{Graph, Segments};
use start_nn::params::{GradStore, Init, ParamStore};
use start_nn::schedule::WarmupCosine;

fn arb_matrix(max: usize) -> impl Strategy<Value = Array> {
    (1..=max, 1..=max, any::<u64>()).prop_map(|(r, c, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        Array::from_fn(r, c, |_, _| rng.gen_range(-3.0..3.0))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Softmax rows are valid probability distributions for any input.
    #[test]
    fn softmax_rows_are_distributions(x in arb_matrix(8)) {
        let store = ParamStore::new();
        let mut g = Graph::new(&store, false);
        let rows = x.rows();
        let node = g.input(x);
        let sm = g.softmax_rows(node);
        for r in 0..rows {
            let row = g.value(sm).row(r);
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row sums to {sum}");
            prop_assert!(row.iter().all(|v| *v >= 0.0));
        }
    }

    /// Layer norm leaves every non-degenerate row with ~zero mean and ~unit
    /// variance (rows with near-constant values are governed by the epsilon
    /// floor instead, by design).
    #[test]
    fn layer_norm_standardizes(x in arb_matrix(8)) {
        prop_assume!(x.cols() >= 2);
        let store = ParamStore::new();
        let mut g = Graph::new(&store, false);
        let rows = x.rows();
        let cols = x.cols() as f32;
        let raw_var: Vec<f32> = (0..rows)
            .map(|r| {
                let row = x.row(r);
                let mean: f32 = row.iter().sum::<f32>() / cols;
                row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols
            })
            .collect();
        let node = g.input(x);
        let ln = g.layer_norm_rows(node);
        for (r, &v) in raw_var.iter().enumerate() {
            if v < 1e-2 {
                continue; // epsilon-dominated row
            }
            let row = g.value(ln).row(r);
            let mean: f32 = row.iter().sum::<f32>() / cols;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols;
            prop_assert!(mean.abs() < 1e-3, "mean {mean}");
            prop_assert!((var - 1.0).abs() < 0.1, "var {var}");
        }
    }

    /// L2-normalized rows have unit norm (except the zero row).
    #[test]
    fn l2_normalize_unit_norm(x in arb_matrix(8)) {
        let store = ParamStore::new();
        let mut g = Graph::new(&store, false);
        let rows = x.rows();
        let nonzero: Vec<bool> = (0..rows).map(|r| x.row(r).iter().any(|v| v.abs() > 1e-3)).collect();
        let node = g.input(x);
        let nn = g.l2_normalize_rows(node);
        for (r, &nz) in nonzero.iter().enumerate() {
            if nz {
                let norm: f32 = g.value(nn).row(r).iter().map(|v| v * v).sum::<f32>().sqrt();
                prop_assert!((norm - 1.0).abs() < 1e-3, "norm {norm}");
            }
        }
    }

    /// matmul is linear: (a A) @ B == a (A @ B).
    #[test]
    fn matmul_is_homogeneous(a in arb_matrix(6), scale in -3.0f32..3.0) {
        let mut rng = StdRng::seed_from_u64(1);
        use rand::Rng;
        let b = Array::from_fn(a.cols(), 4, |_, _| rng.gen_range(-2.0..2.0));
        let store = ParamStore::new();
        let mut g = Graph::new(&store, false);
        let an = g.input(a);
        let bn = g.input(b);
        let scaled_first = {
            let s = g.scale(an, scale);
            g.matmul(s, bn)
        };
        let scaled_last = {
            let m = g.matmul(an, bn);
            g.scale(m, scale)
        };
        for (x, y) in g.value(scaled_first).data().iter().zip(g.value(scaled_last).data()) {
            prop_assert!((x - y).abs() < 1e-3 * (1.0 + x.abs()), "{x} vs {y}");
        }
    }

    /// Gather followed by segment-sum with singleton segments is identity.
    #[test]
    fn gather_segment_sum_identity(x in arb_matrix(6)) {
        let store = ParamStore::new();
        let mut g = Graph::new(&store, false);
        let rows = x.rows();
        let expect = x.clone();
        let node = g.input(x);
        let idx: Vec<u32> = (0..rows as u32).collect();
        let gathered = g.gather_rows(node, Arc::new(idx));
        let segs = Segments::from_offsets((0..=rows as u32).collect());
        let summed = g.segment_sum(gathered, &segs);
        prop_assert_eq!(g.value(summed).data(), expect.data());
    }

    /// The LR schedule never leaves (0, base_lr] and warm-up is monotone.
    #[test]
    fn schedule_bounds(base in 1e-5f32..1.0, warmup in 1u64..50, total_extra in 1u64..200) {
        let total = warmup + total_extra;
        let s = WarmupCosine::new(base, warmup, total);
        let mut prev = 0.0;
        for step in 0..warmup {
            let lr = s.lr(step);
            prop_assert!(lr > prev - 1e-9 && lr <= base + 1e-6);
            prev = lr;
        }
        for step in warmup..total {
            let lr = s.lr(step);
            prop_assert!(lr > 0.0 && lr <= base + 1e-6);
        }
    }

    /// Segment ops reject inputs whose row count disagrees with the final
    /// offset, for any (rows, claimed) mismatch — the constructor cannot
    /// check this (the array is not known yet), so the ops must.
    #[test]
    fn segment_sum_rejects_any_row_mismatch(rows in 1usize..8, delta in 1usize..4) {
        let store = ParamStore::new();
        let mut g = Graph::new(&store, false);
        let node = g.input(Array::zeros(rows, 2));
        let segs = Segments::from_offsets(vec![0, (rows + delta) as u32]);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.segment_sum(node, &segs);
        }))
        .is_err();
        prop_assert!(panicked, "segment_sum accepted {rows} rows against final offset {}", rows + delta);
    }

    /// Gradient accumulation is additive: running backward twice doubles the
    /// gradient of a linear loss.
    #[test]
    fn grad_accumulation_additive(rows in 1usize..5, cols in 1usize..5, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let pid = store.param("p", rows, cols, Init::Normal(1.0), &mut rng);
        let mut grads = GradStore::new(&store);
        let mut once = None;
        for pass in 0..2 {
            let mut g = Graph::new(&store, false);
            let p = g.param(pid);
            let loss = g.sum_all(p);
            g.backward(loss, &mut grads);
            if pass == 0 {
                once = Some(grads.get(pid).unwrap().clone());
            }
        }
        let twice = grads.get(pid).unwrap();
        for (a, b) in once.unwrap().data().iter().zip(twice.data()) {
            prop_assert!((2.0 * a - b).abs() < 1e-5);
        }
    }
}

// Deterministic regression tests for the Segments final-offset contract
// (ISSUE 2 satellite: `from_offsets` defers the total-row check to use time).

#[test]
#[should_panic(expected = "segment_sum row mismatch")]
fn segment_sum_panics_when_final_offset_undershoots() {
    let store = ParamStore::new();
    let mut g = Graph::new(&store, false);
    let x = g.input(Array::zeros(5, 3));
    let segs = Segments::from_offsets(vec![0, 2, 4]); // claims 4 rows, x has 5
    g.segment_sum(x, &segs);
}

#[test]
#[should_panic(expected = "segment_softmax row mismatch")]
fn segment_softmax_panics_when_final_offset_overshoots() {
    let store = ParamStore::new();
    let mut g = Graph::new(&store, false);
    let x = g.input(Array::zeros(4, 1));
    let segs = Segments::from_offsets(vec![0, 3, 6]); // claims 6 rows, x has 4
    g.segment_softmax(x, &segs);
}

#[test]
#[should_panic(expected = "offsets must start at 0")]
fn segments_reject_nonzero_first_offset() {
    Segments::from_offsets(vec![1, 3]);
}

#[test]
#[should_panic(expected = "offsets must be sorted")]
fn segments_reject_decreasing_offsets() {
    Segments::from_offsets(vec![0, 4, 2]);
}
