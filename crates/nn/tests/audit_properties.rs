//! Property-based tests for the tape auditor (proptest).
//!
//! Two invariants over randomly generated op chains:
//! 1. the auditor's re-derived shapes always equal the eager kernels' actual
//!    shapes, and a graph built through the public API audits without errors;
//! 2. the non-finite tracer blames exactly the first poisoned node, never a
//!    downstream consumer of the poison.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use start_nn::graph::{Graph, NodeId};
use start_nn::params::{Init, ParamStore};
use start_nn::{Findings, Severity};

/// A step in a random unary-ish op chain; each keeps shape (rows, cols) or
/// transposes it, so any sequence composes.
#[derive(Debug, Clone, Copy)]
enum ChainOp {
    Relu,
    Sigmoid,
    Tanh,
    Elu,
    LeakyRelu,
    Scale,
    AddScalar,
    SoftmaxRows,
    LayerNormRows,
    L2NormalizeRows,
    Transpose,
    MulSelf,
    AddSelf,
}

const CHAIN_OPS: &[ChainOp] = &[
    ChainOp::Relu,
    ChainOp::Sigmoid,
    ChainOp::Tanh,
    ChainOp::Elu,
    ChainOp::LeakyRelu,
    ChainOp::Scale,
    ChainOp::AddScalar,
    ChainOp::SoftmaxRows,
    ChainOp::LayerNormRows,
    ChainOp::L2NormalizeRows,
    ChainOp::Transpose,
    ChainOp::MulSelf,
    ChainOp::AddSelf,
];

fn apply(g: &mut Graph, x: NodeId, op: ChainOp) -> NodeId {
    match op {
        ChainOp::Relu => g.relu(x),
        ChainOp::Sigmoid => g.sigmoid(x),
        ChainOp::Tanh => g.tanh(x),
        ChainOp::Elu => g.elu(x),
        ChainOp::LeakyRelu => g.leaky_relu(x, 0.1),
        ChainOp::Scale => g.scale(x, 0.5),
        ChainOp::AddScalar => g.add_scalar(x, 0.25),
        ChainOp::SoftmaxRows => g.softmax_rows(x),
        ChainOp::LayerNormRows => g.layer_norm_rows(x),
        ChainOp::L2NormalizeRows => g.l2_normalize_rows(x),
        ChainOp::Transpose => g.transpose(x),
        ChainOp::MulSelf => g.mul(x, x),
        ChainOp::AddSelf => g.add(x, x),
    }
}

fn arb_chain() -> impl Strategy<Value = Vec<ChainOp>> {
    prop::collection::vec((0..CHAIN_OPS.len()).prop_map(|i| CHAIN_OPS[i]), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any chain of public-API ops over a parameter audits clean, and the
    /// auditor's re-derived shape for every node matches the eager value.
    #[test]
    fn random_op_chains_audit_clean_with_eager_shapes(
        rows in 1usize..6,
        cols in 1usize..6,
        chain in arb_chain(),
    ) {
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let pid = store.param("p", rows, cols, Init::Uniform(0.9), &mut rng);
        let mut g = Graph::new(&store, false);
        let mut x = g.param(pid);
        for op in &chain {
            x = apply(&mut g, x, *op);
        }
        let loss = g.mean_all(x);

        let report = g.audit(loss);
        prop_assert!(
            !report.has_errors(),
            "random chain {chain:?} produced audit errors:\n{report}"
        );
        // Warnings would also be surprising here: everything reaches the loss.
        prop_assert!(
            report.findings.iter().all(|f| f.kind.severity() != Severity::Warning),
            "unexpected warnings for {chain:?}:\n{report}"
        );
        prop_assert_eq!(report.shapes.len(), g.num_nodes());
        for id in g.node_ids() {
            let v = g.value(id);
            prop_assert_eq!(
                report.shapes[id.index()],
                (v.rows(), v.cols()),
                "auditor shape for node {} diverges from eager value",
                id.index()
            );
        }
    }

    /// Poisoning one op mid-chain makes the tracer blame exactly that node:
    /// never a downstream consumer, and the trace's inputs are all finite.
    #[test]
    fn nonfinite_tracer_pinpoints_the_poisoned_op(
        prefix in arb_chain(),
        suffix in arb_chain(),
        poison in prop::sample::select(vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY]),
    ) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let pid = store.param("p", 3, 4, Init::Uniform(0.9), &mut rng);
        let mut g = Graph::new(&store, false);
        let mut x = g.param(pid);
        for op in &prefix {
            // Keep the prefix finite: softmax/layer-norm/l2 of finite stays
            // finite, activations are bounded-ish at these magnitudes.
            x = apply(&mut g, x, *op);
        }
        let poisoned = g.scale(x, poison);
        let mut y = poisoned;
        for op in &suffix {
            y = apply(&mut g, y, *op);
        }
        let _loss = g.mean_all(y);

        let trace = g.trace_nonfinite();
        prop_assert!(trace.is_some(), "poison {poison} did not surface a trace");
        let trace = trace.unwrap();
        prop_assert_eq!(
            trace.node,
            poisoned,
            "tracer blamed node {:?} instead of the poisoned scale {:?}",
            trace.node,
            poisoned
        );
    }
}
