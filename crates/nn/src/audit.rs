//! Checks that need one concrete, recorded tape.
//!
//! [`Graph::audit`] re-derives every node's shape with the symbolic
//! verifier's shape rules evaluated at this one tape (see
//! [`crate::symbolic`]), then flags structural defects that silently corrupt
//! training without changing tensor shapes: nodes that can never reach the
//! loss, parameters whose gradients are guaranteed zero, the same parameter
//! bound to multiple leaves, dropout recorded on an eval-mode tape, and
//! backward operand tables naming non-inputs. [`Graph::trace_nonfinite`] is
//! the opt-in finite-value tracer: it names the *first* op on the tape that
//! produced a NaN/Inf, with its kind, node id, and input shapes.
//!
//! Findings use the crate's one [`Finding`] type; see [`crate::finding`]
//! for what each severity means.

use crate::finding::{eval_mode_dropout, Finding, FindingKind, Findings};
use crate::graph::{Graph, NodeId, Op, OpKind};

/// Result of [`Graph::audit`].
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Shape re-derived for each node, index-aligned with the tape. Where an
    /// op's output shape is underdetermined (e.g. `Reshape` stores no target
    /// dims), the recorded value's shape is used after consistency checks.
    pub shapes: Vec<(usize, usize)>,
    pub findings: Vec<Finding>,
}

impl Findings for AuditReport {
    fn findings(&self) -> &[Finding] {
        &self.findings
    }
}

impl AuditReport {
    fn push(&mut self, kind: FindingKind, node: Option<NodeId>, message: String) {
        self.findings.push(Finding { kind, node, message });
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return write!(f, "audit clean ({} nodes)", self.shapes.len());
        }
        writeln!(f, "audit found {} issue(s):", self.findings.len())?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

/// Report of the first non-finite value on the tape.
#[derive(Debug, Clone)]
pub struct NonFiniteTrace {
    /// The first node (in tape order) holding a NaN/Inf. Because inputs
    /// always precede their consumers on the tape, this node's inputs are
    /// all finite: it is the op that *produced* the first bad value.
    pub node: NodeId,
    pub kind: OpKind,
    pub value_shape: (usize, usize),
    /// Shapes of the op's inputs, in argument order.
    pub input_shapes: Vec<(usize, usize)>,
    /// Flat index of the first non-finite element in the value buffer.
    pub first_bad_index: usize,
}

impl std::fmt::Display for NonFiniteTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "first non-finite value produced by {} at node {} (output {}x{}, element {}; inputs: {})",
            self.kind,
            self.node.index(),
            self.value_shape.0,
            self.value_shape.1,
            self.first_bad_index,
            if self.input_shapes.is_empty() {
                "none".to_string()
            } else {
                self.input_shapes
                    .iter()
                    .map(|(r, c)| format!("{r}x{c}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        )
    }
}

impl Graph<'_> {
    /// Audit the tape against a scalar `loss` node. See the module docs for
    /// the defect classes. The pass is read-only and costs O(nodes + edges).
    pub fn audit(&self, loss: NodeId) -> AuditReport {
        let mut report = AuditReport::default();
        assert!(loss.0 < self.nodes.len(), "loss node {} not on this tape", loss.0);

        // 1. Shapes, by the symbolic verifier's rules at this one tape.
        let shapes = crate::symbolic::concrete_shapes(self, &mut report.findings);

        // 2. Reachability from the loss (inputs always precede consumers).
        let mut reachable = vec![false; self.nodes.len()];
        reachable[loss.0] = true;
        for idx in (0..=loss.0).rev() {
            if !reachable[idx] {
                continue;
            }
            for input in self.nodes[idx].op.inputs() {
                reachable[input.0] = true;
            }
        }
        for (idx, node) in self.nodes.iter().enumerate() {
            if !reachable[idx] {
                report.push(
                    FindingKind::DeadNode,
                    Some(NodeId(idx)),
                    format!(
                        "{} ({}x{}) can never reach the loss",
                        node.op.kind(),
                        shapes[idx].0,
                        shapes[idx].1
                    ),
                );
            }
        }

        // 3. Parameter coverage: every store entry should appear as a
        // reachable Param leaf, and ideally exactly once.
        let mut leaf_counts = vec![0usize; self.store.len()];
        let mut reachable_params = vec![false; self.store.len()];
        for (idx, node) in self.nodes.iter().enumerate() {
            if let Op::Param(pid) = node.op {
                leaf_counts[pid.index()] += 1;
                if reachable[idx] {
                    reachable_params[pid.index()] = true;
                }
            }
        }
        for pid in self.store.ids() {
            if !reachable_params[pid.index()] {
                report.push(
                    FindingKind::UnreachableParam,
                    None,
                    format!(
                        "parameter {:?} receives no gradient from this loss",
                        self.store.name(pid)
                    ),
                );
            }
            if leaf_counts[pid.index()] > 1 {
                report.push(
                    FindingKind::DuplicateParamLeaf,
                    None,
                    format!(
                        "parameter {:?} is bound as {} separate leaves",
                        self.store.name(pid),
                        leaf_counts[pid.index()]
                    ),
                );
            }
        }

        // 4. Dropout recorded on an eval-mode tape.
        eval_mode_dropout(self, &mut report.findings);

        // 5. Liveness operand table consistency: every value the backward
        // rule claims to read must be an actual input of the op (or the
        // op's own output, flagged separately). A phantom edge here would
        // make the memory planner keep — or worse, release — the wrong
        // buffer.
        for (idx, node) in self.nodes.iter().enumerate() {
            let inputs = node.op.inputs();
            let (reads, _own) = node.op.backward_value_reads();
            for r in reads {
                if !inputs.contains(&r) {
                    report.push(
                        FindingKind::BackwardOperandMismatch,
                        Some(NodeId(idx)),
                        format!(
                            "{}: backward operand table reads node {} which is not among its \
                             inputs {:?}",
                            node.op.kind(),
                            r.0,
                            inputs.iter().map(|i| i.0).collect::<Vec<_>>(),
                        ),
                    );
                }
            }
        }

        report.shapes = shapes;
        report
    }

    /// Finite-value tracer: the first node (tape order) holding a NaN/Inf,
    /// or `None` when every recorded value is finite. Opt-in because it
    /// touches every element of every node.
    pub fn trace_nonfinite(&self) -> Option<NonFiniteTrace> {
        for (idx, node) in self.nodes.iter().enumerate() {
            if let Some(bad) = node.value.data().iter().position(|v| !v.is_finite()) {
                return Some(NonFiniteTrace {
                    node: NodeId(idx),
                    kind: node.op.kind(),
                    value_shape: node.value.shape(),
                    input_shapes: node
                        .op
                        .inputs()
                        .iter()
                        .map(|&i| self.nodes[i.0].value.shape())
                        .collect(),
                    first_bad_index: bad,
                });
            }
        }
        None
    }

    /// Op kinds present on the tape; used by the grad-check coverage guard.
    pub fn op_kinds_used(&self) -> std::collections::BTreeSet<OpKind> {
        self.nodes.iter().map(|n| n.op.kind()).collect()
    }
}

/// Whether debug-build audit hooks should run: on in debug builds (or when
/// `START_AUDIT=1`), off in release builds unless forced, and `START_AUDIT=0`
/// always wins.
pub fn audit_enabled() -> bool {
    match std::env::var("START_AUDIT") {
        Ok(v) if v == "0" => false,
        Ok(v) if !v.is_empty() => true,
        _ => cfg!(debug_assertions),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Array;
    use crate::finding::Severity;
    use crate::params::{GradStore, Init, ParamStore};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn store_with(names: &[(&str, usize, usize)]) -> ParamStore {
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        for (name, r, c) in names {
            store.param(*name, *r, *c, Init::Uniform(0.5), &mut rng);
        }
        store
    }

    fn kinds(report: &AuditReport) -> Vec<FindingKind> {
        report.findings.iter().map(|f| f.kind).collect()
    }

    #[test]
    fn clean_graph_audits_clean() {
        let store = store_with(&[("w", 3, 3)]);
        let mut g = Graph::new(&store, false);
        let w = g.param(store.lookup("w").unwrap());
        let x = g.input(Array::from_fn(2, 3, |r, c| (r + c) as f32));
        let y = g.matmul(x, w);
        let a = g.relu(y);
        let loss = g.mean_all(a);
        let report = g.audit(loss);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.shapes[y.index()], (2, 3));
        assert_eq!(report.shapes[loss.index()], (1, 1));
    }

    #[test]
    fn dead_node_is_flagged() {
        let store = store_with(&[("w", 2, 2)]);
        let mut g = Graph::new(&store, false);
        let w = g.param(store.lookup("w").unwrap());
        let loss = g.sum_all(w);
        // Recorded after the loss: can never feed it.
        let dead = g.input(Array::zeros(4, 4));
        let deader = g.relu(dead);
        let report = g.audit(loss);
        let flagged: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.kind == FindingKind::DeadNode)
            .filter_map(|f| f.node)
            .collect();
        assert_eq!(flagged, vec![dead, deader]);
    }

    #[test]
    fn unreachable_param_is_flagged_with_its_name() {
        let store = store_with(&[("used", 2, 2), ("orphan", 3, 3)]);
        let mut g = Graph::new(&store, false);
        let w = g.param(store.lookup("used").unwrap());
        let loss = g.sum_all(w);
        let report = g.audit(loss);
        let finding = report
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::UnreachableParam)
            .expect("orphan param must be flagged");
        assert!(finding.message.contains("orphan"), "{}", finding.message);
        // A param bound to the tape but cut off from the loss is also dead.
        let mut g2 = Graph::new(&store, false);
        let w2 = g2.param(store.lookup("used").unwrap());
        let loss2 = g2.sum_all(w2);
        let o = g2.param(store.lookup("orphan").unwrap());
        let _ = g2.relu(o);
        let report2 = g2.audit(loss2);
        assert!(kinds(&report2).contains(&FindingKind::UnreachableParam));
        assert!(kinds(&report2).contains(&FindingKind::DeadNode));
    }

    #[test]
    fn duplicate_param_leaf_is_info_level() {
        let store = store_with(&[("w", 2, 2)]);
        let mut g = Graph::new(&store, false);
        let pid = store.lookup("w").unwrap();
        let a = g.param(pid);
        let b = g.param(pid);
        let s = g.add(a, b);
        let loss = g.sum_all(s);
        let report = g.audit(loss);
        let dup = report
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::DuplicateParamLeaf)
            .expect("duplicate leaf must be flagged");
        assert_eq!(dup.kind.severity(), Severity::Info);
        assert!(!report.has_errors());
        // Gradients through duplicates still accumulate: d(sum)/dw = 2.
        let mut grads = GradStore::new(&store);
        g.backward(loss, &mut grads);
        assert!(grads.get(pid).unwrap().data().iter().all(|v| (*v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn eval_mode_dropout_is_flagged() {
        let store = store_with(&[("w", 4, 4)]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = Graph::new(&store, true);
        let w = g.param(store.lookup("w").unwrap());
        let d = g.dropout(w, 0.5, &mut rng);
        let loss = g.sum_all(d);
        assert!(g.audit(loss).is_clean(), "dropout is fine while training");
        // The defect: a tape carrying dropout evaluated in eval mode.
        g.set_train(false);
        let report = g.audit(loss);
        let f = report
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::EvalModeDropout)
            .expect("eval-mode dropout must be flagged");
        assert_eq!(f.node, Some(d));
    }

    #[test]
    fn shape_mismatch_on_a_corrupted_tape_is_an_error() {
        let store = store_with(&[("w", 3, 2)]);
        let mut g = Graph::new(&store, false);
        let w = g.param(store.lookup("w").unwrap());
        let x = g.input(Array::zeros(2, 3));
        let y = g.matmul(x, w);
        let loss = g.sum_all(y);
        // Corrupt the recorded value behind the auditor's back — the only
        // way to fake a broken kernel, since ops assert shapes eagerly.
        g.nodes[y.index()].value = Array::zeros(2, 5);
        let report = g.audit(loss);
        assert!(report.has_errors());
        let err = report.errors().next().unwrap();
        assert_eq!(err.kind, FindingKind::ShapeMismatch);
        assert_eq!(err.node, Some(y));
    }

    #[test]
    fn nan_tracer_names_the_producing_op() {
        let store = store_with(&[("w", 3, 3)]);
        let mut g = Graph::new(&store, false);
        let w = g.param(store.lookup("w").unwrap());
        let a = g.tanh(w);
        assert!(g.trace_nonfinite().is_none());
        // Poison: scaling by +inf turns finite values into inf/NaN here.
        let poisoned = g.scale(a, f32::INFINITY);
        let b = g.relu(poisoned); // downstream NaNs must not be blamed
        let _ = g.sum_all(b);
        let trace = g.trace_nonfinite().expect("must find the poisoned node");
        assert_eq!(trace.node, poisoned);
        assert_eq!(trace.kind, OpKind::Scale);
        assert_eq!(trace.value_shape, (3, 3));
        assert_eq!(trace.input_shapes, vec![(3, 3)]);
        let msg = trace.to_string();
        assert!(msg.contains("Scale") && msg.contains("3x3"), "{msg}");
    }

    #[test]
    fn gather_out_of_range_is_reported_not_panicked() {
        // Build a legal gather, then corrupt the index payload to simulate a
        // builder bug; the auditor must report rather than panic.
        let store = store_with(&[("w", 4, 2)]);
        let mut g = Graph::new(&store, false);
        let w = g.param(store.lookup("w").unwrap());
        let idx = Arc::new(vec![0u32, 3]);
        let gathered = g.gather_rows(w, idx);
        let loss = g.sum_all(gathered);
        if let Op::GatherRows(_, indices) = &mut g.nodes[gathered.index()].op {
            *indices = Arc::new(vec![0u32, 99]);
        }
        let report = g.audit(loss);
        assert!(report.has_errors());
    }

    #[test]
    fn audit_report_display_is_readable() {
        let store = store_with(&[("w", 2, 2), ("orphan", 2, 2)]);
        let mut g = Graph::new(&store, false);
        let w = g.param(store.lookup("w").unwrap());
        let loss = g.sum_all(w);
        let text = g.audit(loss).to_string();
        assert!(text.contains("UnreachableParam") && text.contains("orphan"), "{text}");
    }
}
