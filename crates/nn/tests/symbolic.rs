//! Integration tests for the symbolic tape verifier.
//!
//! Covers the satellite test matrix:
//! 1. proptest agreement: concretizing the symbolic shapes at any sampled
//!    anchor sizes bitwise-matches the eager shapes and the concrete
//!    auditor's re-derivation;
//! 2. one seeded hazard regression per class (log-zero, div-zero,
//!    exp-overflow);
//! 3. gradient-flow findings: stop-gradient leak, frozen tower,
//!    fully-detached target tower (loss disconnected), and the
//!    mismatched-head-dim broken config surfacing as a record panic that
//!    names the offending shapes;
//! 4. the structure-divergence fallback for per-timestep (GRU-like) tapes.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use start_nn::graph::{Graph, NodeId};
use start_nn::params::{Init, ParamId, ParamStore};
use start_nn::symbolic::{verify_family, AbsVal, Dim, DimFit, TapeFamily};
use start_nn::{Array, FindingKind, Findings, HazardClass};

/// Deterministic, strictly positive input values so leaf intervals are
/// stable across anchors (the verifier widens them; positivity keeps
/// `relu` outputs away from the exact-zero multiplier test).
fn input_array(rows: usize, cols: usize) -> Array {
    let data: Vec<f32> =
        (0..rows * cols).map(|i| 0.05 + ((i * 37 + 11) % 83) as f32 / 100.0).collect();
    Array::from_vec(rows, cols, data)
}

/// Mirror of the audit proptest chain: shape-preserving (or transposing)
/// unary ops that compose in any order.
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

/// `input(n×c) @ param(c×c)` followed by a random unary chain and a scalar
/// reduction — the canonical structure-invariant family.
struct ChainFam {
    store: ParamStore,
    pid: ParamId,
    cols: usize,
    chain: Vec<ChainOp>,
}

impl ChainFam {
    fn new(cols: usize, chain: Vec<ChainOp>) -> Self {
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let pid = store.param("p", cols, cols, Init::Uniform(0.9), &mut rng);
        ChainFam { store, pid, cols, chain }
    }
}

impl TapeFamily for ChainFam {
    fn name(&self) -> String {
        "test/chain".to_string()
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn record<'s>(&'s self, g: &mut Graph<'s>, n: usize) -> NodeId {
        let x = g.input(input_array(n, self.cols));
        let p = g.param(self.pid);
        let mut h = g.matmul(x, p);
        for op in &self.chain {
            h = apply(g, h, *op);
        }
        g.mean_all(h)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Concretizing the symbolic shapes at each sampled anchor size matches
    /// both the eager kernel shapes and the concrete auditor's re-derivation
    /// exactly. Interval hazards are allowed (widened leaves can overflow on
    /// adversarial `mul` chains); every structural/shape/gradient finding
    /// class must stay silent.
    #[test]
    fn symbolic_shapes_agree_with_eager_and_auditor(
        cols in 2usize..5,
        base in 2usize..5,
        gap1 in 1usize..4,
        gap2 in 1usize..4,
        chain in arb_chain(),
    ) {
        let sizes = [base, base + gap1, base + gap1 + gap2];
        let fam = ChainFam::new(cols, chain.clone());
        let report = verify_family(&fam, sizes);

        prop_assert!(
            report
                .findings
                .iter()
                .all(|f| matches!(f.kind, FindingKind::Hazard(_))),
            "chain {chain:?} produced structural findings:\n{report}"
        );
        prop_assert_eq!(report.shapes.len(), report.num_nodes);

        for (a, &n) in sizes.iter().enumerate() {
            let mut g = Graph::new(fam.store(), true);
            let loss = fam.record(&mut g, n);
            let audit = g.audit(loss);
            prop_assert!(!audit.has_errors(), "eager audit failed at n={n}:\n{audit}");
            for id in g.node_ids() {
                let v = g.value(id);
                prop_assert_eq!(
                    report.shapes[id.index()].at(a),
                    (v.rows(), v.cols()),
                    "symbolic shape for node {} diverges from eager at n={}",
                    id.index(),
                    n
                );
                prop_assert_eq!(
                    report.shapes[id.index()].at(a),
                    audit.shapes[id.index()],
                    "symbolic shape for node {} diverges from auditor at n={}",
                    id.index(),
                    n
                );
            }
        }

        // The batch extent must generalize affinely: the input leaf's row
        // dim is exactly `n`.
        prop_assert_eq!(
            report.shapes[0].rows.fit(&sizes),
            DimFit::Affine { mul: 1, add: 0 }
        );
    }
}

/// A fixed benign chain verifies with zero findings of any severity.
#[test]
fn benign_family_verifies_clean() {
    let fam = ChainFam::new(4, vec![ChainOp::Relu, ChainOp::LayerNormRows, ChainOp::Tanh]);
    let report = verify_family(&fam, [5, 8, 11]);
    assert!(report.findings.is_empty(), "expected a clean report, got:\n{report}");
    assert_eq!(report.trained_params, 1);
}

// ---------------------------------------------------------------------------
// Seeded hazard regressions, one per class
// ---------------------------------------------------------------------------

/// Logits declared possibly −∞ via `leaf_bounds`, fed to cross-entropy:
/// the fused softmax+log takes log(0).
struct LogZeroFam {
    store: ParamStore,
    pid: ParamId,
}

impl LogZeroFam {
    fn new() -> Self {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let pid = store.param("bias", 1, 3, Init::Uniform(0.5), &mut rng);
        LogZeroFam { store, pid }
    }
}

impl TapeFamily for LogZeroFam {
    fn name(&self) -> String {
        "test/log-zero".to_string()
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn record<'s>(&'s self, g: &mut Graph<'s>, n: usize) -> NodeId {
        let x = g.input(input_array(n, 3));
        let b = g.param(self.pid);
        let logits = g.add_row(x, b);
        g.cross_entropy_rows(logits, start_sync::Arc::new(vec![0u32; n]))
    }

    fn leaf_bounds(&self, node: usize) -> Option<(f64, f64)> {
        // Node 0 is the input leaf: an additive mask upstream may set
        // positions to −∞.
        (node == 0).then_some((f64::NEG_INFINITY, 5.0))
    }
}

#[test]
fn possibly_neg_inf_logits_flag_log_zero() {
    let fam = LogZeroFam::new();
    let report = verify_family(&fam, [5, 8, 11]);
    let hazard = report
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::Hazard(HazardClass::LogZero))
        .unwrap_or_else(|| panic!("no log-zero hazard in:\n{report}"));
    assert!(report.has_errors());
    assert!(
        hazard.message.contains("CrossEntropyRows") && hazard.message.contains("log(0)"),
        "hazard should name the op and the log-of-zero: {hazard}"
    );
}

/// A softmax whose input row may be entirely −∞ divides by a zero
/// normalizer.
struct DivZeroFam {
    store: ParamStore,
    pid: ParamId,
}

impl DivZeroFam {
    fn new() -> Self {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let pid = store.param("bias", 1, 4, Init::Uniform(0.5), &mut rng);
        DivZeroFam { store, pid }
    }
}

impl TapeFamily for DivZeroFam {
    fn name(&self) -> String {
        "test/div-zero".to_string()
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn record<'s>(&'s self, g: &mut Graph<'s>, n: usize) -> NodeId {
        let scores = g.input(input_array(n, 4));
        let b = g.param(self.pid);
        let masked = g.add_row(scores, b);
        let probs = g.softmax_rows(masked);
        g.mean_all(probs)
    }

    fn leaf_bounds(&self, node: usize) -> Option<(f64, f64)> {
        (node == 0).then_some((f64::NEG_INFINITY, 3.0))
    }
}

#[test]
fn possibly_all_masked_softmax_flags_div_zero() {
    let fam = DivZeroFam::new();
    let report = verify_family(&fam, [5, 8, 11]);
    let hazard = report
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::Hazard(HazardClass::DivZero))
        .unwrap_or_else(|| panic!("no div-zero hazard in:\n{report}"));
    assert!(report.has_errors());
    assert!(hazard.message.contains("SoftmaxRows"), "hazard should name the softmax op: {hazard}");
}

/// No tape op applies a raw `exp` (softmax/CE are fused and max-shifted;
/// `elu`/`sigmoid` only exponentiate non-positive arguments), so the
/// exp-overflow class is exercised at the domain level: the shared `exp`
/// transfer must flag any interval whose upper bound exceeds the `f32`
/// exponent range.
#[test]
fn unbounded_preactivation_flags_exp_overflow() {
    let (out, overflow) = AbsVal::range(-2.0, 120.0).exp();
    assert!(overflow, "exp of [.., 120] must flag f32 overflow");
    assert_eq!(out.hi, f64::INFINITY, "overflowing exp saturates to +inf");
    assert!(out.lo > 0.0);

    let (out, overflow) = AbsVal::range(-30.0, 10.0).exp();
    assert!(!overflow, "exp of [.., 10] is comfortably inside f32 range");
    assert!(out.hi < f64::INFINITY);
}

// ---------------------------------------------------------------------------
// Gradient-flow findings
// ---------------------------------------------------------------------------

/// Both towers share one parameter: detaching the target tower does not
/// isolate it, so gradient still reaches the "frozen" weights — the classic
/// stop-gradient leak.
struct LeakFam {
    store: ParamStore,
    pid: ParamId,
}

impl LeakFam {
    fn new() -> Self {
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let pid = store.param("tower", 3, 3, Init::Uniform(0.5), &mut rng);
        LeakFam { store, pid }
    }
}

impl TapeFamily for LeakFam {
    fn name(&self) -> String {
        "test/sg-leak".to_string()
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn record<'s>(&'s self, g: &mut Graph<'s>, n: usize) -> NodeId {
        let x = g.input(input_array(n, 3));
        let p = g.param(self.pid);
        let online = g.matmul(x, p);
        let target_raw = g.matmul(x, p);
        let target = g.stop_gradient(target_raw);
        let diff = g.sub(online, target);
        let sq = g.mul(diff, diff);
        g.mean_all(sq)
    }
}

#[test]
fn shared_tower_stop_gradient_leak_is_an_error() {
    let fam = LeakFam::new();
    let report = verify_family(&fam, [5, 8, 11]);
    let leak = report
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::StopGradientLeak)
        .unwrap_or_else(|| panic!("no stop-gradient-leak finding in:\n{report}"));
    assert!(report.has_errors());
    assert!(leak.message.contains("tower"), "leak should name the parameter: {leak}");
}

/// Separate towers: the detached one is reported as a frozen tower (Info),
/// never as a leak, and the family stays error-free.
struct TwoTowerFam {
    store: ParamStore,
    online: ParamId,
    target: ParamId,
}

impl TwoTowerFam {
    fn new() -> Self {
        let mut rng = StdRng::seed_from_u64(13);
        let mut store = ParamStore::new();
        let online = store.param("online", 3, 3, Init::Uniform(0.5), &mut rng);
        let target = store.param("target", 3, 3, Init::Uniform(0.5), &mut rng);
        TwoTowerFam { store, online, target }
    }
}

impl TapeFamily for TwoTowerFam {
    fn name(&self) -> String {
        "test/two-tower".to_string()
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn record<'s>(&'s self, g: &mut Graph<'s>, n: usize) -> NodeId {
        let x = g.input(input_array(n, 3));
        let p_on = g.param(self.online);
        let p_tgt = g.param(self.target);
        let online = g.matmul(x, p_on);
        let target_raw = g.matmul(x, p_tgt);
        let target = g.stop_gradient(target_raw);
        let diff = g.sub(online, target);
        let sq = g.mul(diff, diff);
        g.mean_all(sq)
    }
}

#[test]
fn separate_frozen_tower_is_info_not_leak() {
    let fam = TwoTowerFam::new();
    let report = verify_family(&fam, [5, 8, 11]);
    assert!(!report.has_errors(), "EMA-style tower must verify clean:\n{report}");
    assert!(
        report.findings.iter().any(|f| f.kind == FindingKind::FrozenTower),
        "target tower should surface as FrozenTower:\n{report}"
    );
    assert_eq!(report.trained_params, 1);
}

/// The deliberately broken config from the acceptance criteria: the target
/// tower is fully detached, so no parameter receives gradient.
struct DetachedFam {
    store: ParamStore,
    pid: ParamId,
}

impl DetachedFam {
    fn new() -> Self {
        let mut rng = StdRng::seed_from_u64(17);
        let mut store = ParamStore::new();
        let pid = store.param("tower", 3, 3, Init::Uniform(0.5), &mut rng);
        DetachedFam { store, pid }
    }
}

impl TapeFamily for DetachedFam {
    fn name(&self) -> String {
        "test/detached".to_string()
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn record<'s>(&'s self, g: &mut Graph<'s>, n: usize) -> NodeId {
        let x = g.input(input_array(n, 3));
        let p = g.param(self.pid);
        let h = g.matmul(x, p);
        let detached = g.stop_gradient(h);
        g.mean_all(detached)
    }
}

#[test]
fn fully_detached_target_tower_disconnects_the_loss() {
    let fam = DetachedFam::new();
    let report = verify_family(&fam, [5, 8, 11]);
    let finding = report
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::LossDisconnected)
        .unwrap_or_else(|| panic!("no loss-disconnected finding in:\n{report}"));
    assert!(report.has_errors());
    assert!(
        finding.message.contains("stop_gradient"),
        "the finding should point at the detachment: {finding}"
    );
}

/// The other broken config from the acceptance criteria: a head whose inner
/// dimension disagrees with the encoder output. The eager matmul assert
/// fires at record time; the verifier converts it into a structured
/// RecordPanic error naming the offending shapes.
struct BadHeadDimFam {
    store: ParamStore,
    pid: ParamId,
}

impl BadHeadDimFam {
    fn new() -> Self {
        let mut rng = StdRng::seed_from_u64(19);
        let mut store = ParamStore::new();
        // The encoder emits width 3; the head expects width 4.
        let pid = store.param("head", 4, 2, Init::Uniform(0.5), &mut rng);
        BadHeadDimFam { store, pid }
    }
}

impl TapeFamily for BadHeadDimFam {
    fn name(&self) -> String {
        "test/bad-head-dim".to_string()
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn record<'s>(&'s self, g: &mut Graph<'s>, n: usize) -> NodeId {
        let x = g.input(input_array(n, 3));
        let p = g.param(self.pid);
        let out = g.matmul(x, p);
        g.mean_all(out)
    }
}

#[test]
fn mismatched_head_dim_fails_with_named_shapes() {
    let fam = BadHeadDimFam::new();
    let report = verify_family(&fam, [5, 8, 11]);
    let finding = report
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::RecordPanic)
        .unwrap_or_else(|| panic!("no record-panic finding in:\n{report}"));
    assert!(report.has_errors());
    assert!(
        finding.message.contains("matmul shape mismatch") && finding.message.contains("(4, 2)"),
        "the finding should carry the op and shapes: {finding}"
    );
}

// ---------------------------------------------------------------------------
// Structure-divergence fallback
// ---------------------------------------------------------------------------

/// A GRU-like per-timestep loop: the tape grows with `n`, so anchors cannot
/// be aligned. The verifier must fall back to per-anchor concrete checking
/// (warning, not error) and still certify gradient flow.
struct LoopFam {
    store: ParamStore,
    pid: ParamId,
}

impl LoopFam {
    fn new() -> Self {
        let mut rng = StdRng::seed_from_u64(23);
        let mut store = ParamStore::new();
        let pid = store.param("w", 3, 3, Init::Uniform(0.5), &mut rng);
        LoopFam { store, pid }
    }
}

impl TapeFamily for LoopFam {
    fn name(&self) -> String {
        "test/loop".to_string()
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn record<'s>(&'s self, g: &mut Graph<'s>, n: usize) -> NodeId {
        let p = g.param(self.pid);
        let mut h = g.input(input_array(1, 3));
        for _ in 0..n {
            let hw = g.matmul(h, p);
            h = g.tanh(hw);
        }
        g.mean_all(h)
    }
}

#[test]
fn per_timestep_tape_falls_back_to_per_anchor_checking() {
    let fam = LoopFam::new();
    let report = verify_family(&fam, [5, 8, 11]);
    assert!(
        report.findings.iter().any(|f| f.kind == FindingKind::StructureDivergence),
        "loop tape should report structure divergence:\n{report}"
    );
    assert!(!report.has_errors(), "fallback checking must stay clean:\n{report}");
    assert_eq!(report.trained_params, 1);
}

// ---------------------------------------------------------------------------
// Symbolic dimension fitting
// ---------------------------------------------------------------------------

#[test]
fn dim_fits_generalize_and_render() {
    let sizes = [5usize, 8, 11];
    assert_eq!(Dim::splat(4).fit(&sizes), DimFit::Const(4));
    assert_eq!(Dim { vals: [5, 8, 11] }.fit(&sizes), DimFit::Affine { mul: 1, add: 0 });
    assert_eq!(Dim { vals: [6, 9, 12] }.fit(&sizes), DimFit::Affine { mul: 1, add: 1 });
    assert_eq!(Dim { vals: [10, 16, 22] }.fit(&sizes), DimFit::Affine { mul: 2, add: 0 });
    // Quadratic growth (flattened (n+1)² interval matrices) must not fit.
    assert_eq!(Dim { vals: [36, 81, 144] }.fit(&sizes), DimFit::Data);

    assert_eq!(Dim { vals: [5, 8, 11] }.render(&sizes), "n");
    assert_eq!(Dim { vals: [6, 9, 12] }.render(&sizes), "n+1");
    assert_eq!(Dim { vals: [10, 16, 22] }.render(&sizes), "2n");
    assert_eq!(Dim::splat(4).render(&sizes), "4");
}
