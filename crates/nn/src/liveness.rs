//! Static liveness analysis and memory planning over a recorded tape.
//!
//! A define-by-run [`Graph`] holds every node value (plus saved op payloads)
//! until [`Graph::reset`], so peak memory scales with the whole tape even
//! though most activations are dead long before the backward sweep finishes
//! with them. [`MemoryPlan::analyze`] walks the recorded tape once and
//! computes, for every node,
//!
//! - **forward last-use**: the highest-index op that reads the value while
//!   the tape is being built, and
//! - **backward last-use**: the *lowest* reachable step whose backward rule
//!   dereferences the value (the sweep runs in descending index order, so
//!   the lowest reading step is the last read in time). Which rules read
//!   which operands comes from the per-`OpKind` liveness operand table
//!   (`Op::backward_value_reads`), the same exhaustive-match style table the
//!   auditor's shape rules use — saved-for-backward operands are modeled
//!   precisely, not conservatively.
//!
//! From those it derives a release schedule ([`Graph::backward_planned`]
//! executes it):
//!
//! - values never dereferenced by any backward rule ("forward-dead": fused
//!   cross-entropy logits, embedding-table leaf copies feeding `GatherRows`,
//!   dropout outputs consumed by residual adds, …) are returned to the
//!   [`crate::pool::BufferPool`] *before the first gradient is allocated*;
//! - every other value is recycled at the end of its backward-last-use step;
//! - op payloads (masks, cached softmaxes, norm stats) are recycled at the
//!   end of their own node's step — no other rule can read them.
//!
//! Three peak figures are reported, all statically computed:
//!
//! - `baseline_peak_bytes` — no releases before `reset` (the pre-plan
//!   runtime): whole tape + the gradient high-water mark.
//! - `planned_peak_bytes` — the optimal static schedule, where forward-dead
//!   values are additionally freed at their forward last-use *during the
//!   forward pass*. A define-by-run runtime cannot realize the forward-phase
//!   part (the future of the tape is unknown while it is being built), so
//!   this is the figure a plan-ahead executor would achieve; it is the
//!   honest lower bound the `start-analysis plan` lint tracks.
//! - `runtime_peak_bytes` — what [`Graph::backward_planned`] actually
//!   realizes: the full tape must exist at the end of forward, then
//!   forward-dead values are freed at backward entry and the rest on
//!   schedule. Always `planned ≤ runtime ≤ baseline`.
//!
//! The **aliasing sanitizer** guards the schedule: release stamps double as
//! generation marks, every backward value dereference passes a read barrier,
//! double releases and plan/actual byte divergences abort with the owning
//! `OpKind` and node ids (see `START_SANITIZE` / [`sanitize_enabled`]).

use std::collections::VecDeque;

use crate::graph::{Graph, NodeId};

/// Whether [`crate::train::BatchTrainer`] plans backward memory releases:
/// on unless `START_MEM_PLAN=0`. The plan never changes computed values
/// (bitwise), only when buffers return to the pool, so it defaults on.
pub fn memory_planning_enabled() -> bool {
    !matches!(std::env::var("START_MEM_PLAN"), Ok(v) if v == "0")
}

/// Whether the aliasing sanitizer's paranoid checks run (plan/actual byte
/// reconciliation, release-count reconciliation): the one `START_SANITIZE`
/// switch the lock-order sanitizer also reads — on in debug builds or when
/// `START_SANITIZE=1`, `START_SANITIZE=0` always wins, read once per
/// process. The structural guarantees — read barriers, double-release
/// detection, plan fingerprint validation — are cheap and always on.
pub use start_sync::order::sanitize_enabled;

/// A static release schedule plus peak-live-bytes figures for one tape.
/// Compute with [`MemoryPlan::analyze`], execute with
/// [`Graph::backward_planned`]. The plan is tied to the exact tape it was
/// analyzed from (node count, loss node, and a structural fingerprint are
/// re-checked at execution time).
#[derive(Debug, Clone)]
pub struct MemoryPlan {
    num_nodes: usize,
    loss: NodeId,
    fingerprint: u64,
    /// Per-node value bytes (4 × rows × cols at analysis time).
    value_bytes: Vec<usize>,
    /// Per-node saved-payload bytes.
    payload_bytes: Vec<usize>,
    /// Highest-index forward consumer of each node's value, if any.
    forward_last_use: Vec<Option<u32>>,
    /// Lowest reachable backward step that dereferences each node's value.
    backward_last_use: Vec<Option<u32>>,
    /// Values never read by any backward rule; freed at backward entry.
    forward_dead: Vec<u32>,
    /// Nodes with payloads the sweep never visits (unreachable or above the
    /// loss); their payloads are freed at backward entry.
    unswept_payloads: Vec<u32>,
    /// `release_after[s]`: values freed at the end of backward step `s`.
    release_after: Vec<Vec<u32>>,
    /// Total tape bytes (all values + payloads) at end of forward.
    tape_bytes: usize,
    baseline_peak_bytes: usize,
    planned_peak_bytes: usize,
    runtime_peak_bytes: usize,
}

impl MemoryPlan {
    /// Run the liveness pass over `g`'s tape for a backward from `loss`.
    pub fn analyze(g: &Graph, loss: NodeId) -> Self {
        let n = g.num_nodes();
        assert!(loss.0 < n, "loss node {} is not on the tape ({n} nodes)", loss.0);
        let mut value_bytes = vec![0usize; n];
        let mut payload_bytes = vec![0usize; n];
        for id in 0..n {
            let (r, c) = g.shape(NodeId(id));
            value_bytes[id] = 4 * r * c;
            payload_bytes[id] = 4 * g.op_payload_elems(NodeId(id));
        }
        let tape_bytes: usize = value_bytes.iter().chain(payload_bytes.iter()).sum();

        // (a) forward last-use: ids are creation-ordered, so the last
        // consumer seen is the max.
        let mut forward_last_use: Vec<Option<u32>> = vec![None; n];
        for id in 0..n {
            for inp in g.op_inputs(NodeId(id)) {
                forward_last_use[inp.0] = Some(id as u32);
            }
        }

        // Gradient reachability: the sweep executes an arm only for nodes
        // the loss depends on; only executed arms dereference values.
        let mut reachable = vec![false; n];
        let mut queue = VecDeque::from([loss]);
        reachable[loss.0] = true;
        while let Some(id) = queue.pop_front() {
            for inp in g.op_inputs(id) {
                if !reachable[inp.0] {
                    reachable[inp.0] = true;
                    queue.push_back(inp);
                }
            }
        }

        // (b) backward last-use from the liveness operand table. Steps run
        // in descending order, so min(reading step) = last read in time.
        let mut backward_last_use: Vec<Option<u32>> = vec![None; n];
        let record = |slot: &mut Option<u32>, step: usize| {
            let step = step as u32;
            *slot = Some(slot.map_or(step, |s| s.min(step)));
        };
        for id in 0..=loss.0 {
            if !reachable[id] {
                continue;
            }
            let (reads, own) = g.op_backward_value_reads(NodeId(id));
            if own {
                record(&mut backward_last_use[id], id);
            }
            for r in reads {
                record(&mut backward_last_use[r.0], id);
            }
        }

        // Release schedule. The loss value is read by the caller after
        // backward (it is the step's reported loss), so it is always kept.
        let mut forward_dead = Vec::new();
        let mut release_after: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (id, last) in backward_last_use.iter().enumerate() {
            if id == loss.0 {
                continue;
            }
            match last {
                None => forward_dead.push(id as u32),
                Some(step) => release_after[*step as usize].push(id as u32),
            }
        }
        let unswept_payloads: Vec<u32> = (0..n)
            .filter(|&id| payload_bytes[id] > 0 && (id > loss.0 || !reachable[id]))
            .map(|id| id as u32)
            .collect();

        // Gradient lifetime model, identical for every figure: grad of node
        // `j` (same shape as its value) is seeded while its highest
        // reachable consumer's arm runs and recycled at the end of `j`'s own
        // arm; the loss grad is seeded before the sweep. Kernel scratch and
        // the momentary in-arm delta/grad overlap are modeled by sampling
        // the peak before the step's grad is retired.
        let mut seeded_at: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut seed_step: Vec<Option<u32>> = vec![None; n];
        for (c, live) in reachable.iter().enumerate().take(loss.0 + 1) {
            if !live {
                continue;
            }
            for inp in g.op_inputs(NodeId(c)) {
                // Ascending scan: the last write is the max consumer.
                seed_step[inp.0] = Some(c as u32);
            }
        }
        for (j, step) in seed_step.iter().enumerate() {
            if let Some(s) = step {
                seeded_at[*s as usize].push(j as u32);
            }
        }

        // Baseline: whole tape resident for the entire sweep.
        let mut grads_live = value_bytes[loss.0];
        let mut baseline_peak_bytes = tape_bytes;
        for s in (0..=loss.0).rev() {
            if !reachable[s] {
                continue;
            }
            for &j in &seeded_at[s] {
                grads_live += value_bytes[j as usize];
            }
            baseline_peak_bytes = baseline_peak_bytes.max(tape_bytes + grads_live);
            grads_live -= value_bytes[s];
        }

        // Planned (optimal static): forward-dead values additionally freed
        // at forward last-use while the tape is built.
        let mut fwd_release_at: Vec<Vec<u32>> = vec![Vec::new(); n];
        for id in 0..n {
            if id == loss.0 || backward_last_use[id].is_some() {
                continue;
            }
            let at = forward_last_use[id].map_or(id, |t| t as usize);
            fwd_release_at[at].push(id as u32);
        }
        let unswept: Vec<bool> = {
            let mut v = vec![false; n];
            for &id in &unswept_payloads {
                v[id as usize] = true;
            }
            v
        };
        let mut tape_live = 0usize;
        let mut planned_peak_bytes = 0usize;
        for t in 0..n {
            tape_live += value_bytes[t] + payload_bytes[t];
            planned_peak_bytes = planned_peak_bytes.max(tape_live);
            if unswept[t] {
                tape_live -= payload_bytes[t];
            }
            for &j in &fwd_release_at[t] {
                tape_live -= value_bytes[j as usize];
            }
        }
        // Backward phase, shared by the planned and runtime figures: after
        // the runtime's backward-entry pre-release, its tape state equals
        // the planned simulation's end-of-forward state.
        let mut backward_peak = 0usize;
        let mut grads_live = value_bytes[loss.0];
        for s in (0..=loss.0).rev() {
            if reachable[s] {
                for &j in &seeded_at[s] {
                    grads_live += value_bytes[j as usize];
                }
                backward_peak = backward_peak.max(tape_live + grads_live);
                grads_live -= value_bytes[s];
                if !unswept[s] {
                    tape_live -= payload_bytes[s];
                }
                for &j in &release_after[s] {
                    tape_live -= value_bytes[j as usize];
                }
            }
        }
        planned_peak_bytes = planned_peak_bytes.max(backward_peak);
        // The runtime cannot release mid-forward: the whole tape exists at
        // the end of forward, then the backward phase above plays out.
        let runtime_peak_bytes = tape_bytes.max(backward_peak);

        Self {
            num_nodes: n,
            loss,
            fingerprint: fingerprint(g),
            value_bytes,
            payload_bytes,
            forward_last_use,
            backward_last_use,
            forward_dead,
            unswept_payloads,
            release_after,
            tape_bytes,
            baseline_peak_bytes,
            planned_peak_bytes,
            runtime_peak_bytes,
        }
    }

    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    pub fn loss(&self) -> NodeId {
        self.loss
    }

    /// Total tape bytes (values + payloads) at the end of forward.
    pub fn tape_bytes(&self) -> usize {
        self.tape_bytes
    }

    /// Static peak with no releases before `reset` (the pre-plan runtime).
    pub fn baseline_peak_bytes(&self) -> usize {
        self.baseline_peak_bytes
    }

    /// Static peak under the optimal schedule (forward-dead values freed at
    /// forward last-use, everything else at backward last-use).
    pub fn planned_peak_bytes(&self) -> usize {
        self.planned_peak_bytes
    }

    /// Static peak [`Graph::backward_planned`] realizes (forward-dead
    /// values freed at backward entry instead of mid-forward).
    pub fn runtime_peak_bytes(&self) -> usize {
        self.runtime_peak_bytes
    }

    /// `1 - planned/baseline`, the planner's headline reduction.
    pub fn reduction(&self) -> f64 {
        if self.baseline_peak_bytes == 0 {
            return 0.0;
        }
        1.0 - self.planned_peak_bytes as f64 / self.baseline_peak_bytes as f64
    }

    /// Forward last-use of a node's value (highest-index consumer), if any.
    pub fn forward_last_use(&self, id: NodeId) -> Option<u32> {
        self.forward_last_use[id.0]
    }

    /// Backward last-use of a node's value: the lowest reachable step whose
    /// backward rule dereferences it (the last read in sweep time).
    pub fn backward_last_use(&self, id: NodeId) -> Option<u32> {
        self.backward_last_use[id.0]
    }

    /// Number of values the schedule frees before `reset` would have.
    pub fn release_event_count(&self) -> usize {
        self.forward_dead.len() + self.release_after.iter().map(Vec::len).sum::<usize>()
    }

    pub(crate) fn forward_dead(&self) -> &[u32] {
        &self.forward_dead
    }

    pub(crate) fn unswept_payloads(&self) -> &[u32] {
        &self.unswept_payloads
    }

    pub(crate) fn release_after(&self, step: usize) -> &[u32] {
        &self.release_after[step]
    }

    pub(crate) fn value_bytes(&self, id: usize) -> usize {
        self.value_bytes[id]
    }

    /// Saved-payload bytes attributed to a node (masks, cached softmaxes,
    /// norm statistics) at analysis time.
    pub fn payload_bytes_of(&self, id: NodeId) -> usize {
        self.payload_bytes[id.0]
    }

    /// Abort unless the plan was analyzed from exactly this tape: node
    /// count, loss node, and a structural fingerprint (op kinds, edges,
    /// shapes) must all match. Executing a stale plan would release live
    /// buffers, so this is part of the sanitizer's always-on layer.
    pub(crate) fn validate(&self, g: &Graph, loss: NodeId) {
        if self.num_nodes != g.num_nodes() || self.loss != loss {
            panic!(
                "liveness sanitizer: plan was analyzed for {} nodes / loss {} but backward got \
                 {} nodes / loss {} — stale memory plan",
                self.num_nodes,
                self.loss.0,
                g.num_nodes(),
                loss.0,
            );
        }
        let fp = fingerprint(g);
        if fp != self.fingerprint {
            panic!(
                "liveness sanitizer: tape fingerprint {fp:#018x} does not match the plan's \
                 {:#018x} — the graph changed after MemoryPlan::analyze",
                self.fingerprint,
            );
        }
    }

    /// Test hook: corrupt the schedule by moving `id`'s value release to
    /// backward entry, as an unsound plan would. The sanitizer's read
    /// barrier must then abort naming `id`. Not for production use.
    #[doc(hidden)]
    pub fn force_early_release(&mut self, id: NodeId) {
        for list in &mut self.release_after {
            list.retain(|&j| j as usize != id.0);
        }
        self.forward_dead.retain(|&j| j as usize != id.0);
        self.forward_dead.push(id.0 as u32);
    }
}

impl std::fmt::Display for MemoryPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kib = |b: usize| b as f64 / 1024.0;
        writeln!(f, "memory plan: {} nodes, loss at node {}", self.num_nodes, self.loss.0)?;
        writeln!(f, "  tape (values + payloads)   {:>12.1} KiB", kib(self.tape_bytes))?;
        writeln!(f, "  baseline peak (no plan)    {:>12.1} KiB", kib(self.baseline_peak_bytes))?;
        writeln!(f, "  planned peak (optimal)     {:>12.1} KiB", kib(self.planned_peak_bytes))?;
        writeln!(f, "  runtime peak (realized)    {:>12.1} KiB", kib(self.runtime_peak_bytes))?;
        writeln!(f, "  reduction (planned/base)   {:>11.1}%", 100.0 * self.reduction())?;
        let released: usize = self.release_event_count();
        writeln!(
            f,
            "  releases: {} values ({} forward-dead, freed at backward entry)",
            released,
            self.forward_dead.len(),
        )?;
        let dead_bytes: usize =
            self.forward_dead.iter().map(|&j| self.value_bytes[j as usize]).sum();
        write!(f, "  forward-dead value bytes   {:>12.1} KiB", kib(dead_bytes))
    }
}

/// FNV-1a over every node's op kind, input edges, and value shape — enough
/// structure that a plan cannot be replayed against a different tape.
fn fingerprint(g: &Graph) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    for id in g.node_ids() {
        let (r, c) = g.shape(id);
        eat(g.op_kind(id) as u64);
        eat(r as u64);
        eat(c as u64);
        for inp in g.op_inputs(id) {
            eat(inp.0 as u64);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Array;
    use crate::params::{GradStore, Init, ParamId, ParamStore};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn store() -> (ParamStore, ParamId) {
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let w = store.param("w", 4, 4, Init::XavierUniform, &mut rng);
        (store, w)
    }

    #[test]
    fn figures_are_ordered_and_logits_are_forward_dead() {
        let (store, wid) = store();
        let mut g = Graph::new(&store, true);
        let x = g.input(Array::from_fn(3, 4, |r, c| (r + c) as f32 * 0.1));
        let w = g.param(wid);
        let h = g.matmul(x, w);
        let a = g.relu(h);
        let logits = g.matmul(a, w);
        let loss = g.cross_entropy_rows(logits, std::sync::Arc::new(vec![0, 1, 2]));
        let plan = MemoryPlan::analyze(&g, loss);
        assert!(plan.planned_peak_bytes() <= plan.runtime_peak_bytes());
        assert!(plan.runtime_peak_bytes() <= plan.baseline_peak_bytes());
        // CE backward reads only its saved softmax payload: the logits
        // value is forward-dead even though gradients flow through it.
        assert!(plan.backward_last_use(logits).is_none());
        assert!(plan.forward_dead().contains(&(logits.0 as u32)));
        // relu's input is read by the Relu rule at that rule's own step.
        assert_eq!(plan.backward_last_use(h), Some(a.0 as u32));
        let mut grads = GradStore::new(&store);
        g.backward_planned(loss, &mut grads, &plan);
        assert!(grads.get(wid).is_some());
        // The loss value survives; the logits value does not.
        assert_eq!(g.value(loss).len(), 1);
    }

    #[test]
    fn planned_backward_matches_unplanned_bitwise() {
        let (store, wid) = store();
        let run = |planned: bool| {
            let mut g = Graph::new(&store, true);
            let mut rng = StdRng::seed_from_u64(11);
            let x = g.input(Array::from_fn(4, 4, |r, c| ((r * 4 + c) as f32).sin()));
            let w = g.param(wid);
            let h = g.matmul(x, w);
            let hd = g.dropout(h, 0.25, &mut rng);
            let t = g.tanh(hd);
            let n = g.layer_norm_rows(t);
            let loss = g.mse_loss(n, Array::from_fn(4, 4, |_, _| 0.5));
            let mut grads = GradStore::new(&store);
            if planned {
                let plan = MemoryPlan::analyze(&g, loss);
                g.backward_planned(loss, &mut grads, &plan);
            } else {
                g.backward(loss, &mut grads);
            }
            let gw = grads.get(wid).map(|a| a.data().to_vec());
            (g.value(loss).item().to_bits(), gw)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn stale_plan_is_rejected() {
        let (store, wid) = store();
        let mut g = Graph::new(&store, false);
        let x = g.input(Array::from_fn(2, 4, |_, _| 1.0));
        let w = g.param(wid);
        let h = g.matmul(x, w);
        let loss = g.mean_all(h);
        let plan = MemoryPlan::analyze(&g, loss);
        // Grow the tape after analysis: the fingerprint must not match.
        let h2 = g.matmul(x, w);
        let loss2 = g.mean_all(h2);
        let mut grads = GradStore::new(&store);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.backward_planned(loss2, &mut grads, &plan);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("stale memory plan"), "unexpected panic: {msg}");
    }
}
