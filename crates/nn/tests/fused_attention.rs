//! Contract of the fused multi-head attention kernel and the tape buffer
//! pool: the fused op must be numerically interchangeable with the legacy
//! per-head tape ([`forward_unfused`], the oracle kept here), its dropout mask
//! must be a deterministic function of the RNG stream, and pooled graph
//! reuse across `Graph::reset` must not change any result.

use rand::rngs::StdRng;
use rand::SeedableRng;

use start_nn::graph::{Graph, NodeId};
use start_nn::layers::MultiHeadAttention;
use start_nn::params::{GradStore, ParamStore};
use start_nn::{Array, BufferPool, Findings};

const DIM: usize = 16;
const HEADS: usize = 4;
const T: usize = 6;

fn build_mha(dropout: f32) -> (ParamStore, MultiHeadAttention) {
    let mut rng = StdRng::seed_from_u64(42);
    let mut store = ParamStore::new();
    let mha = MultiHeadAttention::new(&mut store, &mut rng, "mha", DIM, HEADS, dropout);
    (store, mha)
}

/// The pre-fusion per-head tape (slice/transpose/matmul/softmax/concat per
/// head) of `mha` built with dropout `dropout`: the oracle the fused op is
/// compared against.
fn forward_unfused(
    mha: &MultiHeadAttention,
    dropout: f32,
    g: &mut Graph,
    x: NodeId,
    bias: Option<NodeId>,
    rng: &mut StdRng,
) -> NodeId {
    let [wq, wk, wv, wo] = mha.projections();
    let head_dim = DIM / mha.heads();
    let t = g.shape(x).0;
    if let Some(b) = bias {
        debug_assert_eq!(g.shape(b), (t, t), "attention bias must be (T, T)");
    }
    let q = wq.forward(g, x);
    let k = wk.forward(g, x);
    let v = wv.forward(g, x);
    let scale = 1.0 / (head_dim as f32).sqrt();
    let mut head_outputs = Vec::with_capacity(mha.heads());
    for h in 0..mha.heads() {
        let lo = h * head_dim;
        let hi = lo + head_dim;
        let qh = g.slice_cols(q, lo, hi);
        let kh = g.slice_cols(k, lo, hi);
        let vh = g.slice_cols(v, lo, hi);
        let kt = g.transpose(kh);
        let scores = g.matmul(qh, kt);
        let mut scores = g.scale(scores, scale);
        if let Some(b) = bias {
            scores = g.add(scores, b);
        }
        let attn = g.softmax_rows(scores);
        let attn = g.dropout(attn, dropout, rng);
        head_outputs.push(g.matmul(attn, vh));
    }
    let concat = g.concat_cols(&head_outputs);
    wo.forward(g, concat)
}

fn seq_input(g: &mut Graph) -> NodeId {
    g.input(Array::from_fn(T, DIM, |r, c| ((r * DIM + c) as f32 * 0.173).sin()))
}

fn interval_bias(g: &mut Graph) -> NodeId {
    g.input(Array::from_fn(T, T, |r, c| (r as f32 - c as f32) * 0.05))
}

fn max_abs_diff(a: &Array, b: &Array) -> f32 {
    assert_eq!(a.shape(), b.shape());
    a.data().iter().zip(b.data()).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
}

/// Forward agreement, fused vs. legacy per-head tape, dropout disabled.
#[test]
fn fused_matches_unfused_forward() {
    let (store, mha) = build_mha(0.0);
    for with_bias in [false, true] {
        let mut rng = StdRng::seed_from_u64(0);
        let mut g1 = Graph::new(&store, false);
        let x1 = seq_input(&mut g1);
        let b1 = with_bias.then(|| interval_bias(&mut g1));
        let y1 = mha.forward(&mut g1, x1, b1, &mut rng);

        let mut g2 = Graph::new(&store, false);
        let x2 = seq_input(&mut g2);
        let b2 = with_bias.then(|| interval_bias(&mut g2));
        let y2 = forward_unfused(&mha, 0.0, &mut g2, x2, b2, &mut rng);

        let diff = max_abs_diff(g1.value(y1), g2.value(y2));
        assert!(diff <= 1e-5, "fused/unfused forward diverged (bias={with_bias}): {diff}");
    }
}

/// Gradient agreement through both tapes, including the bias input.
#[test]
fn fused_matches_unfused_gradients() {
    let (store, mha) = build_mha(0.0);
    let grads_via = |fused: bool| -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(0);
        let mut g = Graph::new(&store, true);
        let x = seq_input(&mut g);
        let bias = interval_bias(&mut g);
        let y = if fused {
            mha.forward(&mut g, x, Some(bias), &mut rng)
        } else {
            forward_unfused(&mha, 0.0, &mut g, x, Some(bias), &mut rng)
        };
        let sq = g.mul(y, y);
        let loss = g.sum_all(sq);
        let mut grads = GradStore::new(&store);
        g.backward(loss, &mut grads);
        store.ids().map(|id| grads.get(id).map(|a| a.data().to_vec()).unwrap_or_default()).collect()
    };

    let fused = grads_via(true);
    let unfused = grads_via(false);
    assert_eq!(fused.len(), unfused.len());
    for (a, b) in fused.iter().flatten().zip(unfused.iter().flatten()) {
        assert!((a - b).abs() <= 1e-4 * a.abs().max(1.0), "gradient diverged: {a} vs {b}");
    }
}

/// The fused kernel's dropout mask is a pure function of the RNG stream:
/// identical seeds give bitwise-identical outputs, different seeds differ.
#[test]
fn fused_dropout_mask_is_deterministic_under_fixed_seed() {
    let (store, mha) = build_mha(0.5);
    let run = |seed: u64| -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = Graph::new(&store, true);
        let x = seq_input(&mut g);
        let y = mha.forward(&mut g, x, None, &mut rng);
        g.value(y).data().iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(run(11), run(11), "same seed must give a bitwise-identical output");
    assert_ne!(run(11), run(12), "different seeds must draw different masks");
}

/// Reusing one pooled graph across steps must reproduce fresh-graph results
/// bitwise, and the pool must actually serve buffers after the first step.
#[test]
fn pooled_graph_reuse_is_bitwise_stable() {
    let (store, mha) = build_mha(0.0);
    let fresh = |step: u64| -> (u32, Vec<Vec<f32>>) {
        let mut rng = StdRng::seed_from_u64(step);
        let mut g = Graph::new(&store, true);
        let x = seq_input(&mut g);
        let y = mha.forward(&mut g, x, None, &mut rng);
        let sq = g.mul(y, y);
        let loss = g.sum_all(sq);
        let mut grads = GradStore::new(&store);
        g.backward(loss, &mut grads);
        let bits = g.value(loss).item().to_bits();
        let gv = store
            .ids()
            .map(|id| grads.get(id).map(|a| a.data().to_vec()).unwrap_or_default())
            .collect();
        (bits, gv)
    };

    let mut pool = BufferPool::new();
    let mut pooled = Vec::new();
    for step in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(step);
        let mut g = Graph::with_pool(&store, true, pool);
        let x = seq_input(&mut g);
        let y = mha.forward(&mut g, x, None, &mut rng);
        let sq = g.mul(y, y);
        let loss = g.sum_all(sq);
        let mut grads = GradStore::new(&store);
        g.backward(loss, &mut grads);
        let bits = g.value(loss).item().to_bits();
        let gv: Vec<Vec<f32>> = store
            .ids()
            .map(|id| grads.get(id).map(|a| a.data().to_vec()).unwrap_or_default())
            .collect();
        pooled.push((bits, gv, g.pool_stats()));
        pool = g.into_pool();
    }

    for (step, (bits, gv, _)) in pooled.iter().enumerate() {
        let (ref_bits, ref_gv) = fresh(step as u64);
        assert_eq!(*bits, ref_bits, "pooled step {step} loss diverged from a fresh graph");
        assert_eq!(*gv, ref_gv, "pooled step {step} gradients diverged from a fresh graph");
    }
    // pool_stats is cumulative across the pool's lifetime: backward already
    // recycles within a step, so step 0 may record hits, but warm steps must
    // add many more hits than misses.
    let (hits0, misses0) = (pooled[0].2.hits, pooled[0].2.misses);
    let (hits2, misses2) = (pooled[2].2.hits, pooled[2].2.misses);
    assert!(hits2 > hits0, "warm steps must reuse pooled buffers");
    assert!(
        hits2 - hits0 > misses2 - misses0,
        "steady-state steps should mostly hit the pool \
         ({} hits vs {} misses after warmup)",
        hits2 - hits0,
        misses2 - misses0
    );
}

/// The audit layer re-derives the fused op's shape and a pooled, reused
/// graph stays auditable (shape pass clean, NaN tracer silent).
#[test]
fn audit_understands_fused_attention_and_pooled_reuse() {
    let (store, mha) = build_mha(0.0);
    let mut pool = BufferPool::new();
    for step in 0..2u64 {
        let mut rng = StdRng::seed_from_u64(step);
        let mut g = Graph::with_pool(&store, true, pool);
        let x = seq_input(&mut g);
        let bias = interval_bias(&mut g);
        let y = mha.forward(&mut g, x, Some(bias), &mut rng);
        let sq = g.mul(y, y);
        let loss = g.sum_all(sq);
        let report = g.audit(loss);
        assert_eq!(
            report.errors().count(),
            0,
            "audit errors on a fused-attention tape (step {step}): {:?}",
            report.findings
        );
        assert_eq!(g.shape(y), (T, DIM));
        assert!(report.shapes.contains(&(T, DIM)), "audit must re-derive the fused output shape");
        assert!(g.trace_nonfinite().is_none(), "NaN tracer fired on a finite tape");
        let mut grads = GradStore::new(&store);
        g.backward(loss, &mut grads);
        pool = g.into_pool();
    }
}
