//! The one finding type shared by the tape checkers: [`Graph::audit`]
//! (one concrete tape) and [`crate::symbolic::verify_family`] (a model
//! family at every size at once).
//!
//! Severities: [`Severity::Error`] findings mean the tape is internally
//! inconsistent or provably broken (a backward sweep would be wrong, a
//! hazard is reachable); `Warning` findings are almost always bugs in the
//! calling model code; `Info` findings are legitimate-but-notable patterns
//! (re-binding one parameter many times, per-task heads absent from a tape).

use crate::graph::{Graph, NodeId, Op};

/// What a finding means for correctness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Info,
    Warning,
    Error,
}

/// Numerical hazard classes the abstract interpretation can prove reachable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HazardClass {
    /// `log` (or fused cross-entropy) of a possibly-zero probability.
    LogZero,
    /// Division by a possibly-zero normalizer (softmax over a row that may
    /// be entirely −∞).
    DivZero,
    /// `exp` of a pre-activation whose upper bound exceeds the `f32` range.
    ExpOverflow,
    /// An op may produce NaN/∞ from inputs that were themselves bounded.
    NonFinite,
}

/// The defect class of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// Re-derived shape (or saved-payload shape) disagrees with the tape.
    ShapeMismatch,
    /// Node cannot reach the loss; it burns compute and gets no gradient.
    DeadNode,
    /// Parameter unable to reach the loss: its gradient is guaranteed zero
    /// this step.
    UnreachableParam,
    /// The same `ParamId` is bound as more than one `Param` leaf. Gradients
    /// still accumulate correctly, but each leaf clones the tensor.
    DuplicateParamLeaf,
    /// A dropout op (or fused attention with a dropout mask) recorded while
    /// the tape is in eval mode.
    EvalModeDropout,
    /// The liveness operand table (`Op::backward_value_reads`) names a node
    /// that is not an input of the op: the memory planner would compute a
    /// lifetime for an edge that does not exist.
    BackwardOperandMismatch,
    /// Building the tape at an anchor size panicked (an eager builder
    /// assert caught a malformed config before the verifier could).
    RecordPanic,
    /// Tape structure varies with the size knob; fell back to per-anchor
    /// concrete verification.
    StructureDivergence,
    /// A statically reachable numerical hazard.
    Hazard(HazardClass),
    /// A training family's loss node is not a `1×1` scalar.
    LossNotScalar,
    /// No parameter leaf receives gradient from the loss.
    LossDisconnected,
    /// A stop-gradient source tower still receives gradient through a
    /// non-detached path.
    StopGradientLeak,
    /// Every path from the parameter to the loss crosses a multiplier that
    /// is provably zero — the gradient is guaranteed zero.
    ZeroGradParam,
    /// Parameter in the store but never bound to this family's tape
    /// (expected for per-task heads; reported for visibility).
    UnusedParam,
    /// Parameters reachable only through a stop-gradient detachment — a
    /// frozen (e.g. EMA target) tower.
    FrozenTower,
}

impl FindingKind {
    pub fn severity(self) -> Severity {
        match self {
            FindingKind::ShapeMismatch
            | FindingKind::BackwardOperandMismatch
            | FindingKind::RecordPanic
            | FindingKind::LossNotScalar
            | FindingKind::LossDisconnected
            | FindingKind::StopGradientLeak => Severity::Error,
            FindingKind::Hazard(HazardClass::NonFinite) => Severity::Warning,
            FindingKind::Hazard(_) => Severity::Error,
            FindingKind::DeadNode
            | FindingKind::UnreachableParam
            | FindingKind::EvalModeDropout
            | FindingKind::StructureDivergence
            | FindingKind::ZeroGradParam => Severity::Warning,
            FindingKind::DuplicateParamLeaf
            | FindingKind::UnusedParam
            | FindingKind::FrozenTower => Severity::Info,
        }
    }
}

/// One defect found by a tape checker.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    pub kind: FindingKind,
    /// The offending node, when the finding is about a specific node.
    pub node: Option<NodeId>,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:?}/{:?}] ", self.kind.severity(), self.kind)?;
        if let Some(n) = self.node {
            write!(f, "node {}: ", n.index())?;
        }
        f.write_str(&self.message)
    }
}

/// A checker report: the severity filters every report shares.
pub trait Findings {
    fn findings(&self) -> &[Finding];

    fn is_clean(&self) -> bool {
        self.findings().is_empty()
    }

    fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings().iter().filter(|f| f.kind.severity() == Severity::Error)
    }

    fn warnings(&self) -> impl Iterator<Item = &Finding> {
        self.findings().iter().filter(|f| f.kind.severity() == Severity::Warning)
    }

    fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }
}

/// Flag dropout recorded on an eval-mode tape — standalone `Dropout` ops
/// and fused attention nodes carrying a dropout mask alike.
pub(crate) fn eval_mode_dropout(g: &Graph, out: &mut Vec<Finding>) {
    if g.train {
        return;
    }
    for (idx, node) in g.nodes.iter().enumerate() {
        if matches!(node.op, Op::Dropout(..) | Op::MhAttention { mask: Some(_), .. }) {
            out.push(Finding {
                kind: FindingKind::EvalModeDropout,
                node: Some(NodeId(idx)),
                message: format!("{} carries dropout on an eval-mode tape", node.op.kind()),
            });
        }
    }
}
