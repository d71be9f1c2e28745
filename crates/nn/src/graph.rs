//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] is rebuilt for every forward pass (define-by-run). Each op
//! method evaluates eagerly, records the operation on the tape, and returns a
//! [`NodeId`]. [`Graph::backward`] walks the tape in reverse, accumulating
//! parameter gradients into a [`GradStore`].
//!
//! The operator set is exactly what the START paper's equations need:
//! dense matmul (Eqs. 1, 6, 9-12), row/col broadcasts, activations
//! (LeakyReLU/ELU/ReLU, Eqs. 1, 3, 9, 11), row softmax (Eqs. 6-7, 13-14),
//! layer norm, segment softmax/sum for sparse GAT message passing
//! (Eqs. 1-4), gather/concat for embedding lookups and multi-head splits,
//! and fused cross-entropy / MSE losses (Eqs. 13, 16-17).

use rand::rngs::StdRng;
use rand::Rng;
use start_sync::Arc;

use crate::array::{self, Array};
use crate::liveness::MemoryPlan;
use crate::params::{GradStore, ParamId, ParamStore};
use crate::pool::{BufferPool, PoolStats};

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Position on the tape (node ids are dense and creation-ordered).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Segment boundaries for [`Graph::segment_sum`] / [`Graph::segment_softmax`]:
/// rows `offsets[s]..offsets[s+1]` of the input belong to segment `s`.
#[derive(Debug, Clone)]
pub struct Segments {
    offsets: Arc<Vec<u32>>,
}

impl Segments {
    /// Build from boundary offsets. Must start at 0, be non-decreasing, and
    /// end at the total row count of the arrays it will be used with — the
    /// final-offset condition cannot be checked here (the array is not known
    /// yet), so [`Graph::segment_sum`] / [`Graph::segment_softmax`] assert it
    /// at use time.
    pub fn from_offsets(offsets: Vec<u32>) -> Self {
        assert!(!offsets.is_empty() && offsets[0] == 0, "offsets must start at 0");
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets must be sorted");
        Self { offsets: Arc::new(offsets) }
    }

    pub fn num_segments(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn total_rows(&self) -> usize {
        // The constructor rejects empty offset vectors.
        self.offsets[self.offsets.len() - 1] as usize
    }

    pub(crate) fn range(&self, s: usize) -> std::ops::Range<usize> {
        self.offsets[s] as usize..self.offsets[s + 1] as usize
    }
}

/// Defines [`OpKind`] (the data-free mirror of [`Op`] used by the auditor and
/// the grad-check coverage guard) together with its `ALL` listing, so the two
/// can never drift apart. The exhaustive `match` in [`Op::kind`] is the
/// compile-time guard: adding an `Op` variant without extending this list
/// fails the build.
macro_rules! op_kinds {
    ($($variant:ident),+ $(,)?) => {
        /// The kind of a tape operation, without its payload.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum OpKind {
            $($variant),+
        }

        impl OpKind {
            /// Every operator kind the tape can record.
            pub const ALL: &'static [OpKind] = &[$(OpKind::$variant),+];

            pub fn name(self) -> &'static str {
                match self {
                    $(OpKind::$variant => stringify!($variant)),+
                }
            }
        }

        impl std::fmt::Display for OpKind {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.name())
            }
        }
    };
}

op_kinds! {
    Input,
    Param,
    MatMul,
    Transpose,
    Reshape,
    Add,
    Sub,
    Mul,
    Scale,
    AddScalar,
    AddRow,
    MulRow,
    MulCol,
    Relu,
    LeakyRelu,
    Elu,
    Sigmoid,
    Tanh,
    SoftmaxRows,
    LayerNormRows,
    Dropout,
    L2NormalizeRows,
    ConcatCols,
    ConcatRows,
    SliceCols,
    GatherRows,
    SegmentSum,
    SegmentSoftmax,
    SumAll,
    MeanAll,
    CrossEntropyRows,
    MseLoss,
    MhAttention,
}

pub(crate) enum Op {
    /// Leaf: constant input, no gradient flows past it.
    Input,
    /// Leaf bound to a trainable parameter.
    Param(ParamId),
    MatMul(NodeId, NodeId),
    Transpose(NodeId),
    Reshape(NodeId),
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    Scale(NodeId, f32),
    AddScalar(NodeId),
    /// `x (n,d) + row (1,d)` broadcast over rows.
    AddRow(NodeId, NodeId),
    /// `x (n,d) * row (1,d)` broadcast over rows.
    MulRow(NodeId, NodeId),
    /// `x (n,d) * col (n,1)` broadcast over columns.
    MulCol(NodeId, NodeId),
    Relu(NodeId),
    LeakyRelu(NodeId, f32),
    Elu(NodeId),
    Sigmoid(NodeId),
    Tanh(NodeId),
    SoftmaxRows(NodeId),
    /// Saved inverse standard deviations, one per row.
    LayerNormRows(NodeId, Vec<f32>),
    /// Saved keep-mask already scaled by `1/(1-p)`.
    Dropout(NodeId, Array),
    /// Saved per-row L2 norms (after epsilon clamp).
    L2NormalizeRows(NodeId, Vec<f32>),
    ConcatCols(Vec<NodeId>),
    ConcatRows(Vec<NodeId>),
    /// `(input, col_start)`.
    SliceCols(NodeId, usize),
    /// Row gather: output row i = input row `indices[i]`.
    GatherRows(NodeId, Arc<Vec<u32>>),
    SegmentSum(NodeId, Segments),
    SegmentSoftmax(NodeId, Segments),
    SumAll(NodeId),
    MeanAll(NodeId),
    /// Fused mean cross-entropy over rows; saves the softmax.
    CrossEntropyRows {
        logits: NodeId,
        targets: Arc<Vec<u32>>,
        softmax: Array,
    },
    /// Fused mean squared error against a constant target.
    MseLoss {
        pred: NodeId,
        target: Array,
    },
    /// Fused multi-head attention (Eq. 7): all heads of
    /// `softmax(scale * q k^T + bias)` with dropout applied inside the
    /// kernel. Saves the `(heads*t, t)` pre-dropout row-softmax `attn` and
    /// the scaled keep-mask so the backward recomputes nothing.
    MhAttention {
        q: NodeId,
        k: NodeId,
        v: NodeId,
        bias: Option<NodeId>,
        heads: usize,
        scale: f32,
        attn: Array,
        mask: Option<Array>,
    },
}

impl Op {
    /// The payload-free kind of this op. The exhaustive match doubles as the
    /// build-time guard that keeps [`OpKind::ALL`] in sync with the tape.
    pub(crate) fn kind(&self) -> OpKind {
        match self {
            Op::Input => OpKind::Input,
            Op::Param(..) => OpKind::Param,
            Op::MatMul(..) => OpKind::MatMul,
            Op::Transpose(..) => OpKind::Transpose,
            Op::Reshape(..) => OpKind::Reshape,
            Op::Add(..) => OpKind::Add,
            Op::Sub(..) => OpKind::Sub,
            Op::Mul(..) => OpKind::Mul,
            Op::Scale(..) => OpKind::Scale,
            Op::AddScalar(..) => OpKind::AddScalar,
            Op::AddRow(..) => OpKind::AddRow,
            Op::MulRow(..) => OpKind::MulRow,
            Op::MulCol(..) => OpKind::MulCol,
            Op::Relu(..) => OpKind::Relu,
            Op::LeakyRelu(..) => OpKind::LeakyRelu,
            Op::Elu(..) => OpKind::Elu,
            Op::Sigmoid(..) => OpKind::Sigmoid,
            Op::Tanh(..) => OpKind::Tanh,
            Op::SoftmaxRows(..) => OpKind::SoftmaxRows,
            Op::LayerNormRows(..) => OpKind::LayerNormRows,
            Op::Dropout(..) => OpKind::Dropout,
            Op::L2NormalizeRows(..) => OpKind::L2NormalizeRows,
            Op::ConcatCols(..) => OpKind::ConcatCols,
            Op::ConcatRows(..) => OpKind::ConcatRows,
            Op::SliceCols(..) => OpKind::SliceCols,
            Op::GatherRows(..) => OpKind::GatherRows,
            Op::SegmentSum(..) => OpKind::SegmentSum,
            Op::SegmentSoftmax(..) => OpKind::SegmentSoftmax,
            Op::SumAll(..) => OpKind::SumAll,
            Op::MeanAll(..) => OpKind::MeanAll,
            Op::CrossEntropyRows { .. } => OpKind::CrossEntropyRows,
            Op::MseLoss { .. } => OpKind::MseLoss,
            Op::MhAttention { .. } => OpKind::MhAttention,
        }
    }

    /// Tape nodes this op reads from, in argument order.
    pub(crate) fn inputs(&self) -> Vec<NodeId> {
        match self {
            Op::Input | Op::Param(..) => Vec::new(),
            Op::MatMul(a, b) | Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) => vec![*a, *b],
            Op::AddRow(a, b) | Op::MulRow(a, b) | Op::MulCol(a, b) => vec![*a, *b],
            Op::Transpose(x)
            | Op::Reshape(x)
            | Op::Scale(x, _)
            | Op::AddScalar(x)
            | Op::Relu(x)
            | Op::LeakyRelu(x, _)
            | Op::Elu(x)
            | Op::Sigmoid(x)
            | Op::Tanh(x)
            | Op::SoftmaxRows(x)
            | Op::LayerNormRows(x, _)
            | Op::Dropout(x, _)
            | Op::L2NormalizeRows(x, _)
            | Op::SliceCols(x, _)
            | Op::GatherRows(x, _)
            | Op::SegmentSum(x, _)
            | Op::SegmentSoftmax(x, _)
            | Op::SumAll(x)
            | Op::MeanAll(x) => vec![*x],
            Op::ConcatCols(parts) | Op::ConcatRows(parts) => parts.clone(),
            Op::CrossEntropyRows { logits, .. } => vec![*logits],
            Op::MseLoss { pred, .. } => vec![*pred],
            Op::MhAttention { q, k, v, bias, .. } => {
                let mut ins = vec![*q, *k, *v];
                ins.extend(*bias);
                ins
            }
        }
    }

    /// The liveness operand table: which node **values** this op's backward
    /// rule dereferences, as `(input nodes read, reads its own output)`.
    /// Derived line-by-line from the matching [`Graph::backward`] arm — ops
    /// whose backward needs only shapes (`Add`, `Reshape`, `GatherRows`,
    /// `CrossEntropyRows`, …) report nothing here, which is exactly what
    /// makes their operands releasable early. The exhaustive match is the
    /// compile-time guard that a new `Op` variant cannot ship without a
    /// liveness entry (checked alongside the audit table by
    /// `start-analysis lint`).
    pub(crate) fn backward_value_reads(&self) -> (Vec<NodeId>, bool) {
        match self {
            // Leaves and shape-only rules: gradients are routed (or summed)
            // without touching any saved activation.
            Op::Input
            | Op::Param(..)
            | Op::Transpose(..)
            | Op::Reshape(..)
            | Op::Add(..)
            | Op::Sub(..)
            | Op::Scale(..)
            | Op::AddScalar(..)
            | Op::AddRow(..)
            | Op::ConcatCols(..)
            | Op::ConcatRows(..)
            | Op::SliceCols(..)
            | Op::GatherRows(..)
            | Op::SegmentSum(..)
            | Op::SumAll(..)
            | Op::MeanAll(..) => (Vec::new(), false),
            // Dropout multiplies by the saved mask payload, not the input.
            Op::Dropout(..) => (Vec::new(), false),
            // The fused CE backward reads the saved softmax payload only;
            // the (large) logits value itself is dead after the forward.
            Op::CrossEntropyRows { .. } => (Vec::new(), false),
            Op::MatMul(a, b) | Op::Mul(a, b) => (vec![*a, *b], false),
            Op::MulRow(x, row) => (vec![*x, *row], false),
            Op::MulCol(x, col) => (vec![*x, *col], false),
            Op::Relu(x) | Op::LeakyRelu(x, _) => (vec![*x], false),
            // Activations differentiated from their own output.
            Op::Elu(..) | Op::Sigmoid(..) | Op::Tanh(..) => (Vec::new(), true),
            Op::SoftmaxRows(..) | Op::SegmentSoftmax(..) => (Vec::new(), true),
            // Normalizations read their own output plus the stats payload.
            Op::LayerNormRows(..) | Op::L2NormalizeRows(..) => (Vec::new(), true),
            Op::MseLoss { pred, .. } => (vec![*pred], false),
            // Attention re-reads q/k/v (the bias gradient needs none of the
            // bias value, and attn/mask are payloads).
            Op::MhAttention { q, k, v, .. } => (vec![*q, *k, *v], false),
        }
    }

    /// Number of `f32` elements held by this op's saved payload buffers
    /// (dropout masks, softmax caches, normalization stats, attention
    /// probabilities). Shared by the byte accounting in [`Graph::push`], the
    /// planner's peak simulation, and the auditor's tape summary.
    pub(crate) fn payload_elems(&self) -> usize {
        match self {
            Op::Dropout(_, mask) => mask.len(),
            Op::LayerNormRows(_, stats) | Op::L2NormalizeRows(_, stats) => stats.len(),
            Op::CrossEntropyRows { softmax, .. } => softmax.len(),
            Op::MseLoss { target, .. } => target.len(),
            Op::MhAttention { attn, mask, .. } => attn.len() + mask.as_ref().map_or(0, Array::len),
            _ => 0,
        }
    }
}

/// Human-readable description of a release stamp for sanitizer aborts.
fn release_site(step: u32) -> String {
    if step == RELEASED_PRE_SWEEP {
        "released pre-sweep as forward-dead".to_string()
    } else {
        format!("released at the end of backward step {step}")
    }
}

pub(crate) struct Node {
    pub(crate) value: Array,
    pub(crate) op: Op,
}

/// Live/peak byte accounting of one graph lifetime (forward build +
/// backward), reset by [`Graph::reset`]. "Tape" covers node values and saved
/// op payloads; gradient temporaries are added on top during `backward`, so
/// `peak_bytes` is the realized high-water mark the planner's predictions
/// are compared against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Bytes currently held by un-released node values and payloads.
    pub live_bytes: usize,
    /// High-water mark of `live_bytes` plus in-flight gradient bytes.
    pub peak_bytes: usize,
}

/// Release stamp recorded when the planner frees a node's value before
/// `reset`: the backward step index at whose end the release fired, or
/// [`RELEASED_PRE_SWEEP`] for forward-dead values freed at backward entry
/// (and by [`Graph::forward_release`]).
pub(crate) const RELEASED_PRE_SWEEP: u32 = u32::MAX;

/// A define-by-run computation tape.
///
/// Node values draw their buffers from a per-graph [`BufferPool`]:
/// [`Graph::reset`] drains the tape back into the pool, so a training loop
/// that calls `reset` between steps (or threads one pool through
/// [`Graph::with_pool`] / [`Graph::into_pool`]) reuses the same handful of
/// allocations for every step. Invariant: **no [`NodeId`] taken before a
/// `reset` may be used afterwards** — the buffers it named now back other
/// nodes (see DESIGN.md §9).
pub struct Graph<'s> {
    pub(crate) store: &'s ParamStore,
    pub(crate) nodes: Vec<Node>,
    /// Whether dropout is active.
    pub(crate) train: bool,
    /// Free-list the tape's `Array` buffers are drawn from and returned to.
    pub(crate) pool: BufferPool,
    /// Per-node release stamp: `None` while the value is live, the backward
    /// step (or [`RELEASED_PRE_SWEEP`]) once the planner freed it. The
    /// sanitizer's read barriers consult this before every backward value
    /// read.
    pub(crate) released: Vec<Option<u32>>,
    /// `(source, detached)` pairs recorded by [`Graph::stop_gradient`]. The
    /// detached node is a plain `Op::Input` (so backward/gradcheck/liveness
    /// need no new rule); this side log is what lets the symbolic verifier
    /// audit stop-gradient intent against actual gradient flow.
    pub(crate) sg_log: Vec<(NodeId, NodeId)>,
    /// Live value+payload bytes on the tape right now.
    live_bytes: usize,
    /// High-water mark of tape + gradient bytes since the last `reset`.
    peak_bytes: usize,
}

impl<'s> Graph<'s> {
    pub fn new(store: &'s ParamStore, train: bool) -> Self {
        Self::with_pool(store, train, BufferPool::new())
    }

    /// Build a graph around an existing buffer pool (typically one handed
    /// back by [`Graph::into_pool`] on the previous optimizer step — the
    /// graph cannot outlive the step because it immutably borrows the
    /// `ParamStore` the optimizer needs to mutate).
    pub fn with_pool(store: &'s ParamStore, train: bool, pool: BufferPool) -> Self {
        Self {
            store,
            nodes: Vec::with_capacity(256),
            train,
            pool,
            released: Vec::with_capacity(256),
            sg_log: Vec::new(),
            live_bytes: 0,
            peak_bytes: 0,
        }
    }

    /// Clear the tape, returning every node buffer (and saved op payload) to
    /// the pool. All previously issued [`NodeId`]s are invalidated.
    pub fn reset(&mut self) {
        let Self { nodes, pool, released, .. } = self;
        for node in nodes.drain(..) {
            pool.recycle(node.value);
            match node.op {
                Op::Dropout(_, mask) => pool.recycle(mask),
                Op::LayerNormRows(_, stats) | Op::L2NormalizeRows(_, stats) => pool.give(stats),
                Op::CrossEntropyRows { softmax, .. } => pool.recycle(softmax),
                Op::MseLoss { target, .. } => pool.recycle(target),
                Op::MhAttention { attn, mask, .. } => {
                    pool.recycle(attn);
                    if let Some(m) = mask {
                        pool.recycle(m);
                    }
                }
                _ => {}
            }
        }
        released.clear();
        self.sg_log.clear();
        self.live_bytes = 0;
        self.peak_bytes = 0;
    }

    /// Tear the graph down, recycling its tape, and hand the pool back so
    /// the next step's graph can reuse the buffers.
    pub fn into_pool(mut self) -> BufferPool {
        self.reset();
        std::mem::take(&mut self.pool)
    }

    /// Request counters of the underlying pool (hits, misses, skipped
    /// zero-fills).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Live/peak byte accounting for this graph lifetime (since the last
    /// [`Graph::reset`]).
    pub fn memory_stats(&self) -> MemoryStats {
        MemoryStats { live_bytes: self.live_bytes, peak_bytes: self.peak_bytes }
    }

    /// Pooled zero-filled array.
    fn alloc_zeros(&mut self, rows: usize, cols: usize) -> Array {
        self.pool.array_zeros(rows, cols)
    }

    /// Pooled copy of a node's value.
    fn alloc_copy_of(&mut self, x: NodeId) -> Array {
        let Self { nodes, pool, .. } = self;
        pool.array_copy(&nodes[x.0].value)
    }

    pub fn is_train(&self) -> bool {
        self.train
    }

    /// Switch dropout on or off for subsequently recorded ops. The auditor
    /// flags [`OpKind::Dropout`] nodes left on an eval-mode tape.
    pub fn set_train(&mut self, train: bool) {
        self.train = train;
    }

    /// Number of nodes recorded so far.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// All node ids on the tape, in creation (= topological) order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Kind of the op that produced `id`.
    pub fn op_kind(&self, id: NodeId) -> OpKind {
        self.nodes[id.0].op.kind()
    }

    /// Tape nodes the op at `id` reads from.
    pub fn op_inputs(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes[id.0].op.inputs()
    }

    /// Node **values** the backward rule of `id` dereferences, as
    /// `(input nodes read, reads its own output)` — the liveness operand
    /// table [`crate::liveness::MemoryPlan::analyze`] is built from.
    pub fn op_backward_value_reads(&self, id: NodeId) -> (Vec<NodeId>, bool) {
        self.nodes[id.0].op.backward_value_reads()
    }

    /// `f32` elements saved alongside `id` as op payload (masks, cached
    /// softmaxes, normalization stats).
    pub fn op_payload_elems(&self, id: NodeId) -> usize {
        self.nodes[id.0].op.payload_elems()
    }

    /// Value of a node (eagerly computed at creation). Panics if the memory
    /// planner already released the buffer — a read here after
    /// [`Graph::backward_planned`] or [`Graph::forward_release`] is a
    /// use-after-free against the pooled allocator, and the sanitizer turns
    /// it into a diagnosable abort instead of silently serving another
    /// node's bytes.
    pub fn value(&self, id: NodeId) -> &Array {
        self.check_live(id);
        &self.nodes[id.0].value
    }

    pub fn shape(&self, id: NodeId) -> (usize, usize) {
        self.check_live(id);
        self.nodes[id.0].value.shape()
    }

    #[inline]
    fn check_live(&self, id: NodeId) {
        if let Some(step) = self.released[id.0] {
            panic!(
                "liveness sanitizer: value of node {} ({}) was read after its planned release \
                 ({}) — use-after-release on the pooled tape",
                id.0,
                self.nodes[id.0].op.kind(),
                release_site(step),
            );
        }
    }

    fn push(&mut self, value: Array, op: Op) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.live_bytes += 4 * (value.len() + op.payload_elems());
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
        self.nodes.push(Node { value, op });
        self.released.push(None);
        id
    }

    // ---- leaves ------------------------------------------------------

    /// Insert a constant (no gradient).
    pub fn input(&mut self, value: Array) -> NodeId {
        self.push(value, Op::Input)
    }

    /// Bind a trainable parameter into the tape.
    pub fn param(&mut self, id: ParamId) -> NodeId {
        let value = {
            let Self { store, pool, .. } = self;
            pool.array_copy(store.get(id))
        };
        self.push(value, Op::Param(id))
    }

    /// Detach `x` from the gradient flow: the returned node carries the same
    /// value but is recorded as a fresh [`OpKind::Input`] leaf, so no gradient
    /// flows back into `x`'s subgraph through it (the stop-gradient of
    /// EMA/target-tower objectives). The `(source, detached)` pair is logged
    /// on the tape so [`crate::symbolic`]'s gradient-flow audit can check the
    /// detachment intent — e.g. flag a target tower that is *also* reachable
    /// through a non-detached path, or a loss left with no trainable leaf.
    pub fn stop_gradient(&mut self, x: NodeId) -> NodeId {
        let value = self.alloc_copy_of(x);
        let detached = self.push(value, Op::Input);
        self.sg_log.push((x, detached));
        detached
    }

    /// `(source, detached)` pairs recorded by [`Graph::stop_gradient`], in
    /// recording order.
    pub fn stop_gradient_pairs(&self) -> &[(NodeId, NodeId)] {
        &self.sg_log
    }

    // ---- linear algebra ---------------------------------------------

    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (m, _) = self.shape(a);
        let (_, n) = self.shape(b);
        // Full-write site: the assign-variant kernel overwrites every output
        // element, so the pooled buffer skips its zero-fill.
        let mut v = self.pool.array_uninit_overwritten(m, n);
        array::matmul_into_ow(self.value(a), self.value(b), &mut v);
        self.push(v, Op::MatMul(a, b))
    }

    pub fn transpose(&mut self, x: NodeId) -> NodeId {
        let (r, c) = self.shape(x);
        let mut v = self.alloc_zeros(c, r);
        let xv = self.value(x);
        for i in 0..r {
            for j in 0..c {
                v.set(j, i, xv.get(i, j));
            }
        }
        self.push(v, Op::Transpose(x))
    }

    pub fn reshape(&mut self, x: NodeId, rows: usize, cols: usize) -> NodeId {
        let v = self.alloc_copy_of(x).reshaped(rows, cols);
        self.push(v, Op::Reshape(x))
    }

    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut v = self.alloc_copy_of(a);
        v.add_assign(self.value(b));
        self.push(v, Op::Add(a, b))
    }

    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let mut v = self.alloc_copy_of(a);
        v.axpy(-1.0, self.value(b));
        self.push(v, Op::Sub(a, b))
    }

    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        assert_eq!(self.shape(a), self.shape(b), "elementwise mul shape mismatch");
        let mut v = self.alloc_copy_of(a);
        let bv = self.value(b);
        for (o, m) in v.data_mut().iter_mut().zip(bv.data()) {
            *o *= m;
        }
        self.push(v, Op::Mul(a, b))
    }

    pub fn scale(&mut self, x: NodeId, c: f32) -> NodeId {
        let mut v = self.alloc_copy_of(x);
        v.scale_assign(c);
        self.push(v, Op::Scale(x, c))
    }

    pub fn add_scalar(&mut self, x: NodeId, c: f32) -> NodeId {
        let v = self.alloc_copy_of(x).map(|t| t + c);
        self.push(v, Op::AddScalar(x))
    }

    /// `x (n,d) + row (1,d)`, the bias add.
    pub fn add_row(&mut self, x: NodeId, row: NodeId) -> NodeId {
        let (n, d) = self.shape(x);
        assert_eq!(self.shape(row), (1, d), "add_row bias shape mismatch");
        let mut v = self.alloc_copy_of(x);
        let rv = self.value(row);
        for r in 0..n {
            for (o, b) in v.row_mut(r).iter_mut().zip(rv.data()) {
                *o += b;
            }
        }
        self.push(v, Op::AddRow(x, row))
    }

    /// `x (n,d) * row (1,d)`, e.g. layer-norm gamma.
    pub fn mul_row(&mut self, x: NodeId, row: NodeId) -> NodeId {
        let (n, d) = self.shape(x);
        assert_eq!(self.shape(row), (1, d), "mul_row shape mismatch");
        let mut v = self.alloc_copy_of(x);
        let rv = self.value(row);
        for r in 0..n {
            for (o, m) in v.row_mut(r).iter_mut().zip(rv.data()) {
                *o *= m;
            }
        }
        self.push(v, Op::MulRow(x, row))
    }

    /// `x (n,d) * col (n,1)`, e.g. GAT attention weighting of messages.
    pub fn mul_col(&mut self, x: NodeId, col: NodeId) -> NodeId {
        let (n, _d) = self.shape(x);
        assert_eq!(self.shape(col), (n, 1), "mul_col shape mismatch");
        let mut v = self.alloc_copy_of(x);
        let cv = self.value(col);
        for (r, &c) in cv.data().iter().enumerate() {
            for o in v.row_mut(r) {
                *o *= c;
            }
        }
        self.push(v, Op::MulCol(x, col))
    }

    // ---- activations --------------------------------------------------

    pub fn relu(&mut self, x: NodeId) -> NodeId {
        let v = self.alloc_copy_of(x).map(|t| t.max(0.0));
        self.push(v, Op::Relu(x))
    }

    /// LeakyReLU; the paper uses slope 0.2 in Eqs. (1) and (9).
    pub fn leaky_relu(&mut self, x: NodeId, slope: f32) -> NodeId {
        let v = self.alloc_copy_of(x).map(|t| if t > 0.0 { t } else { slope * t });
        self.push(v, Op::LeakyRelu(x, slope))
    }

    /// Exponential linear unit, used by GAT aggregation (Eq. 3).
    pub fn elu(&mut self, x: NodeId) -> NodeId {
        let v = self.alloc_copy_of(x).map(|t| if t > 0.0 { t } else { t.exp() - 1.0 });
        self.push(v, Op::Elu(x))
    }

    pub fn sigmoid(&mut self, x: NodeId) -> NodeId {
        let v = self.alloc_copy_of(x).map(|t| 1.0 / (1.0 + (-t).exp()));
        self.push(v, Op::Sigmoid(x))
    }

    pub fn tanh(&mut self, x: NodeId) -> NodeId {
        let v = self.alloc_copy_of(x).map(f32::tanh);
        self.push(v, Op::Tanh(x))
    }

    // ---- normalization ------------------------------------------------

    pub fn softmax_rows(&mut self, x: NodeId) -> NodeId {
        let mut v = self.alloc_copy_of(x);
        array::softmax_rows_inplace(&mut v);
        self.push(v, Op::SoftmaxRows(x))
    }

    /// Row-wise standardization `(x - mean) / std`; affine transform is done
    /// by the caller with [`Graph::mul_row`] + [`Graph::add_row`].
    pub fn layer_norm_rows(&mut self, x: NodeId) -> NodeId {
        const EPS: f32 = 1e-5;
        let (n, _) = self.shape(x);
        let mut v = self.alloc_copy_of(x);
        let mut rstds = self.pool.take(n);
        array::layer_norm_rows_inplace(&mut v, EPS, &mut rstds);
        self.push(v, Op::LayerNormRows(x, rstds))
    }

    /// Inverted dropout; identity when the graph is in eval mode or `p == 0`.
    pub fn dropout(&mut self, x: NodeId, p: f32, rng: &mut StdRng) -> NodeId {
        if !self.train || p <= 0.0 {
            return x;
        }
        let (rows, cols) = self.shape(x);
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        let mut mbuf = self.pool.take(rows * cols);
        for _ in 0..rows * cols {
            mbuf.push(if rng.gen::<f32>() < keep { scale } else { 0.0 });
        }
        let mask = Array::from_vec(rows, cols, mbuf);
        let mut v = self.alloc_copy_of(x);
        for (o, m) in v.data_mut().iter_mut().zip(mask.data()) {
            *o *= m;
        }
        self.push(v, Op::Dropout(x, mask))
    }

    /// Fused multi-head attention over already-projected `q`, `k`, `v`
    /// (each `(t, d)` with `d = heads * d_h`), the paper's Eq. 7 dataflow:
    /// per head `softmax(q_h k_h^T / sqrt(d_h) + bias) v_h`, with the
    /// optional additive `(t, t)` score `bias` shared across heads and
    /// inverted dropout on the attention probabilities applied inside the
    /// kernel (identity in eval mode or when `p == 0`). One tape node
    /// replaces the ~8-node per-head subgraph the unfused path records.
    #[allow(clippy::too_many_arguments)]
    pub fn mh_attention(
        &mut self,
        q: NodeId,
        k: NodeId,
        v: NodeId,
        bias: Option<NodeId>,
        heads: usize,
        dropout_p: f32,
        rng: &mut StdRng,
    ) -> NodeId {
        let (t, d) = self.shape(q);
        assert_eq!(self.shape(k), (t, d), "mh_attention k shape mismatch");
        assert_eq!(self.shape(v), (t, d), "mh_attention v shape mismatch");
        assert!(heads > 0 && d % heads == 0, "model dim {d} not divisible by {heads} heads");
        if let Some(b) = bias {
            assert_eq!(self.shape(b), (t, t), "mh_attention bias must be (t, t)");
        }
        let scale = 1.0 / ((d / heads) as f32).sqrt();
        // The keep-mask is drawn up front (row-major over the (heads*t, t)
        // score block) so the rng stream is a deterministic function of the
        // call, independent of kernel iteration order.
        let mask = if self.train && dropout_p > 0.0 {
            let keep = 1.0 - dropout_p;
            let mscale = 1.0 / keep;
            let mut mbuf = self.pool.take(heads * t * t);
            for _ in 0..heads * t * t {
                mbuf.push(if rng.gen::<f32>() < keep { mscale } else { 0.0 });
            }
            Some(Array::from_vec(heads * t, t, mbuf))
        } else {
            None
        };
        // Full-write site: the kernel zero-fills each score row before its
        // axpy pass, so `attn` needs no up-front zeroing. `out` is
        // accumulated into and must stay zeroed.
        let mut attn = self.pool.array_uninit_overwritten(heads * t, t);
        let mut out = self.alloc_zeros(t, d);
        let mut scratch = self.pool.take(t * d);
        array::mh_attention_forward(
            self.value(q),
            self.value(k),
            self.value(v),
            bias.map(|b| self.value(b)),
            heads,
            scale,
            mask.as_ref(),
            &mut attn,
            &mut out,
            &mut scratch,
        );
        self.pool.give(scratch);
        self.push(out, Op::MhAttention { q, k, v, bias, heads, scale, attn, mask })
    }

    /// Row-wise L2 normalization, used for the cosine similarity in the
    /// NT-Xent contrastive loss (Eq. 14).
    pub fn l2_normalize_rows(&mut self, x: NodeId) -> NodeId {
        const EPS: f32 = 1e-12;
        let (n, d) = self.shape(x);
        let mut v = self.alloc_copy_of(x);
        let mut norms = self.pool.take(n);
        for r in 0..n {
            let row = v.row_mut(r);
            let norm = row.iter().map(|t| t * t).sum::<f32>().sqrt().max(EPS);
            for t in row.iter_mut() {
                *t /= norm;
            }
            norms.push(norm);
        }
        debug_assert_eq!(norms.len(), n);
        let _ = d;
        self.push(v, Op::L2NormalizeRows(x, norms))
    }

    // ---- structure ------------------------------------------------------

    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty());
        let n = self.shape(parts[0]).0;
        let total: usize = parts.iter().map(|&p| self.shape(p).1).sum();
        let mut v = self.alloc_zeros(n, total);
        let mut off = 0;
        for &p in parts {
            let pv = self.value(p);
            assert_eq!(pv.rows(), n, "concat_cols row mismatch");
            for r in 0..n {
                let src = pv.row(r);
                v.row_mut(r)[off..off + src.len()].copy_from_slice(src);
            }
            off += pv.cols();
        }
        self.push(v, Op::ConcatCols(parts.to_vec()))
    }

    pub fn concat_rows(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty());
        let d = self.shape(parts[0]).1;
        let total: usize = parts.iter().map(|&p| self.shape(p).0).sum();
        let mut data = self.pool.take(total * d);
        for &p in parts {
            let pv = self.value(p);
            assert_eq!(pv.cols(), d, "concat_rows col mismatch");
            data.extend_from_slice(pv.data());
        }
        self.push(Array::from_vec(total, d, data), Op::ConcatRows(parts.to_vec()))
    }

    pub fn slice_cols(&mut self, x: NodeId, start: usize, end: usize) -> NodeId {
        let (n, w) = self.shape(x);
        assert!(start < end && end <= w, "slice_cols out of range");
        let mut data = self.pool.take(n * (end - start));
        let xv = self.value(x);
        for r in 0..n {
            data.extend_from_slice(&xv.row(r)[start..end]);
        }
        let v = Array::from_vec(n, end - start, data);
        self.push(v, Op::SliceCols(x, start))
    }

    /// Output row `i` = input row `indices[i]`. Backward scatter-adds, so the
    /// same row may be gathered many times (embedding lookups, GAT edges).
    pub fn gather_rows(&mut self, x: NodeId, indices: Arc<Vec<u32>>) -> NodeId {
        let d = self.shape(x).1;
        let mut data = self.pool.take(indices.len() * d);
        let xv = self.value(x);
        for &i in indices.iter() {
            data.extend_from_slice(xv.row(i as usize));
        }
        let v = Array::from_vec(indices.len(), d, data);
        self.push(v, Op::GatherRows(x, indices))
    }

    /// Select a single row as a `(1, d)` matrix (e.g. `[CLS]` pooling).
    pub fn select_row(&mut self, x: NodeId, row: usize) -> NodeId {
        self.gather_rows(x, Arc::new(vec![row as u32]))
    }

    /// Sum rows within each segment: `(E, d) -> (S, d)` (GAT aggregation, Eq. 3).
    pub fn segment_sum(&mut self, x: NodeId, segments: &Segments) -> NodeId {
        let (n, d) = self.shape(x);
        assert_eq!(n, segments.total_rows(), "segment_sum row mismatch");
        let mut v = self.alloc_zeros(segments.num_segments(), d);
        let xv = self.value(x);
        for s in 0..segments.num_segments() {
            for r in segments.range(s) {
                let src = xv.row(r);
                for (o, t) in v.row_mut(s).iter_mut().zip(src) {
                    *o += t;
                }
            }
        }
        self.push(v, Op::SegmentSum(x, segments.clone()))
    }

    /// Softmax within each segment of an `(E, 1)` column (GAT attention, Eq. 1).
    pub fn segment_softmax(&mut self, x: NodeId, segments: &Segments) -> NodeId {
        let (n, w) = self.shape(x);
        assert_eq!(w, 1, "segment_softmax expects a column vector");
        assert_eq!(n, segments.total_rows(), "segment_softmax row mismatch");
        let mut v = self.alloc_copy_of(x);
        for s in 0..segments.num_segments() {
            let range = segments.range(s);
            if range.is_empty() {
                continue;
            }
            let slice = &mut v.data_mut()[range];
            let max = slice.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for t in slice.iter_mut() {
                *t = (*t - max).exp();
                sum += *t;
            }
            for t in slice.iter_mut() {
                *t /= sum;
            }
        }
        self.push(v, Op::SegmentSoftmax(x, segments.clone()))
    }

    // ---- reductions and losses -----------------------------------------

    pub fn sum_all(&mut self, x: NodeId) -> NodeId {
        let v = Array::scalar(self.value(x).sum());
        self.push(v, Op::SumAll(x))
    }

    pub fn mean_all(&mut self, x: NodeId) -> NodeId {
        let xv = self.value(x);
        let v = Array::scalar(xv.sum() / xv.len() as f32);
        self.push(v, Op::MeanAll(x))
    }

    /// Mean cross-entropy of row-softmaxed `logits` against integer targets
    /// (Eqs. 13, 14, 17). Returns a scalar node.
    pub fn cross_entropy_rows(&mut self, logits: NodeId, targets: Arc<Vec<u32>>) -> NodeId {
        assert_eq!(self.shape(logits).0, targets.len(), "one target per row required");
        let mut softmax = self.alloc_copy_of(logits);
        array::softmax_rows_inplace(&mut softmax);
        let log_probs = array::log_softmax_rows(self.value(logits));
        let n = targets.len() as f32;
        let loss =
            -targets.iter().enumerate().map(|(r, &t)| log_probs.get(r, t as usize)).sum::<f32>()
                / n;
        self.pool.recycle(log_probs);
        self.push(Array::scalar(loss), Op::CrossEntropyRows { logits, targets, softmax })
    }

    /// Mean squared error against a constant target (Eq. 16). Scalar node.
    pub fn mse_loss(&mut self, pred: NodeId, target: Array) -> NodeId {
        let pv = self.value(pred);
        assert_eq!(pv.shape(), target.shape(), "mse target shape mismatch");
        let loss = pv.data().iter().zip(target.data()).map(|(p, t)| (p - t) * (p - t)).sum::<f32>()
            / pv.len() as f32;
        self.push(Array::scalar(loss), Op::MseLoss { pred, target })
    }

    // ---- backward ---------------------------------------------------------

    /// Reverse-mode sweep from a scalar `loss` node; parameter gradients are
    /// accumulated into `grads` (so batches can be split across graphs).
    ///
    /// Takes `&mut self` because every gradient temporary is drawn from the
    /// graph's buffer pool and recycled as soon as its node is processed.
    /// Node values and payloads stay on the tape until [`Graph::reset`]; use
    /// [`Graph::backward_planned`] to return provably dead buffers to the
    /// pool mid-sweep.
    pub fn backward(&mut self, loss: NodeId, grads: &mut GradStore) {
        self.backward_impl(loss, grads, None);
    }

    /// [`Graph::backward`] executing `plan`'s release schedule: forward-dead
    /// values go back to the pool before the first gradient is allocated,
    /// and every other value (and payload) is recycled at the end of the
    /// backward step that last dereferences it, per the liveness operand
    /// table. Gradients are bitwise-identical to the unplanned sweep — the
    /// plan changes only *when* buffers return to the pool, never a value.
    ///
    /// After this returns, only the loss value (and the plan's keep set) may
    /// be read; the sanitizer aborts on any other [`Graph::value`] access.
    /// The plan must have been computed by
    /// [`crate::liveness::MemoryPlan::analyze`] on this exact tape.
    pub fn backward_planned(&mut self, loss: NodeId, grads: &mut GradStore, plan: &MemoryPlan) {
        self.backward_impl(loss, grads, Some(plan));
    }

    fn backward_impl(&mut self, loss: NodeId, grads: &mut GradStore, plan: Option<&MemoryPlan>) {
        assert_eq!(self.value(loss).len(), 1, "backward requires a scalar loss");
        let sanitize = crate::liveness::sanitize_enabled();
        // Values may be tombstoned mid-sweep, so shape queries on the plan
        // path go through a snapshot taken before any release.
        let plan_shapes: Option<Vec<(usize, usize)>> = plan.map(|p| {
            p.validate(self, loss);
            self.nodes.iter().map(|n| n.value.shape()).collect()
        });
        let mut releases = 0usize;
        let Self { nodes, pool, released, live_bytes, peak_bytes, .. } = self;
        if let Some(p) = plan {
            // Forward-dead values (never dereferenced by any backward rule)
            // and payloads of nodes the sweep will not visit go back to the
            // pool before the first gradient is allocated.
            for &id in p.forward_dead() {
                let expect = sanitize.then(|| p.value_bytes(id as usize));
                release_value(
                    nodes,
                    pool,
                    released,
                    live_bytes,
                    id as usize,
                    RELEASED_PRE_SWEEP,
                    expect,
                );
                releases += 1;
            }
            for &id in p.unswept_payloads() {
                release_payload(nodes, pool, live_bytes, id as usize);
            }
        }
        let shape_of = |nodes: &[Node], id: NodeId| match &plan_shapes {
            Some(shapes) => shapes[id.0],
            None => nodes[id.0].value.shape(),
        };
        let mut grad_bytes = 4usize; // the scalar seed below
        let mut node_grads: Vec<Option<Array>> = (0..nodes.len()).map(|_| None).collect();
        node_grads[loss.0] = Some(Array::scalar(1.0));

        for idx in (0..=loss.0).rev() {
            let Some(g) = node_grads[idx].take() else { continue };
            let gbytes = 4 * g.len();
            // Each arm either moves `g` into a downstream gradient (returns
            // `None`) or leaves it to be recycled (`Some(g)`).
            let leftover = match &nodes[idx].op {
                Op::Input => Some(g),
                Op::Param(pid) => {
                    grads.accumulate(*pid, &g);
                    Some(g)
                }
                Op::MatMul(a, b) => {
                    let (m, _) = g.shape();
                    let (ka, _) = shape_of(nodes, *b); // b is (ka, n)
                                                       // Full-write sites: the assign-variant kernels overwrite
                                                       // every element of da/db, so the pooled buffers skip
                                                       // their zero-fill.
                    let mut da = pool.array_uninit_overwritten(m, ka);
                    array::matmul_bt_into_ow(&g, read_value(nodes, released, idx, *b), &mut da);
                    let (ar, ac) = shape_of(nodes, *a);
                    let _ = ar;
                    let mut db = pool.array_uninit_overwritten(ac, g.cols());
                    array::matmul_at_into_ow(read_value(nodes, released, idx, *a), &g, &mut db);
                    accum(pool, &mut node_grads, &mut grad_bytes, a.0, da);
                    accum(pool, &mut node_grads, &mut grad_bytes, b.0, db);
                    Some(g)
                }
                Op::Transpose(x) => {
                    let (r, c) = shape_of(nodes, *x);
                    let mut dx = pool.array_zeros(r, c);
                    for i in 0..r {
                        for j in 0..c {
                            dx.set(i, j, g.get(j, i));
                        }
                    }
                    accum(pool, &mut node_grads, &mut grad_bytes, x.0, dx);
                    Some(g)
                }
                Op::Reshape(x) => {
                    let (r, c) = shape_of(nodes, *x);
                    accum(pool, &mut node_grads, &mut grad_bytes, x.0, g.reshaped(r, c));
                    None
                }
                Op::Add(a, b) => {
                    let ga = pool.array_copy(&g);
                    accum(pool, &mut node_grads, &mut grad_bytes, a.0, ga);
                    accum(pool, &mut node_grads, &mut grad_bytes, b.0, g);
                    None
                }
                Op::Sub(a, b) => {
                    let ga = pool.array_copy(&g);
                    accum(pool, &mut node_grads, &mut grad_bytes, a.0, ga);
                    let mut ng = g;
                    ng.scale_assign(-1.0);
                    accum(pool, &mut node_grads, &mut grad_bytes, b.0, ng);
                    None
                }
                Op::Mul(a, b) => {
                    let da = ew_mul(pool, &g, read_value(nodes, released, idx, *b));
                    let db = ew_mul(pool, &g, read_value(nodes, released, idx, *a));
                    accum(pool, &mut node_grads, &mut grad_bytes, a.0, da);
                    accum(pool, &mut node_grads, &mut grad_bytes, b.0, db);
                    Some(g)
                }
                Op::Scale(x, c) => {
                    let mut dg = g;
                    dg.scale_assign(*c);
                    accum(pool, &mut node_grads, &mut grad_bytes, x.0, dg);
                    None
                }
                Op::AddScalar(x) => {
                    accum(pool, &mut node_grads, &mut grad_bytes, x.0, g);
                    None
                }
                Op::AddRow(x, row) => {
                    let drow = col_sums(pool, &g);
                    accum(pool, &mut node_grads, &mut grad_bytes, x.0, g);
                    accum(pool, &mut node_grads, &mut grad_bytes, row.0, drow);
                    None
                }
                Op::MulRow(x, row) => {
                    let xv = read_value(nodes, released, idx, *x);
                    let rv = read_value(nodes, released, idx, *row);
                    let mut dx = pool.array_copy(&g);
                    let mut drow = pool.array_zeros(1, rv.cols());
                    for r in 0..dx.rows() {
                        for c in 0..dx.cols() {
                            let gv = g.get(r, c);
                            drow.data_mut()[c] += gv * xv.get(r, c);
                            dx.set(r, c, gv * rv.get(0, c));
                        }
                    }
                    accum(pool, &mut node_grads, &mut grad_bytes, x.0, dx);
                    accum(pool, &mut node_grads, &mut grad_bytes, row.0, drow);
                    Some(g)
                }
                Op::MulCol(x, col) => {
                    let xv = read_value(nodes, released, idx, *x);
                    let cv = read_value(nodes, released, idx, *col);
                    let mut dx = pool.array_copy(&g);
                    let mut dcol = pool.array_zeros(cv.rows(), 1);
                    for r in 0..dx.rows() {
                        let c = cv.get(r, 0);
                        let mut acc = 0.0;
                        for j in 0..dx.cols() {
                            let gv = g.get(r, j);
                            acc += gv * xv.get(r, j);
                            dx.set(r, j, gv * c);
                        }
                        dcol.set(r, 0, acc);
                    }
                    accum(pool, &mut node_grads, &mut grad_bytes, x.0, dx);
                    accum(pool, &mut node_grads, &mut grad_bytes, col.0, dcol);
                    Some(g)
                }
                Op::Relu(x) => {
                    let xv = read_value(nodes, released, idx, *x);
                    let dx = masked(pool, &g, xv, |t| if t > 0.0 { 1.0 } else { 0.0 });
                    accum(pool, &mut node_grads, &mut grad_bytes, x.0, dx);
                    Some(g)
                }
                Op::LeakyRelu(x, slope) => {
                    let s = *slope;
                    let xv = read_value(nodes, released, idx, *x);
                    let dx = masked(pool, &g, xv, |t| if t > 0.0 { 1.0 } else { s });
                    accum(pool, &mut node_grads, &mut grad_bytes, x.0, dx);
                    Some(g)
                }
                Op::Elu(x) => {
                    // d/dx elu = 1 for x > 0 else elu(x) + 1, computed from the output.
                    let yv = read_value(nodes, released, idx, NodeId(idx));
                    let dx = masked(pool, &g, yv, |y| if y > 0.0 { 1.0 } else { y + 1.0 });
                    accum(pool, &mut node_grads, &mut grad_bytes, x.0, dx);
                    Some(g)
                }
                Op::Sigmoid(x) => {
                    let yv = read_value(nodes, released, idx, NodeId(idx));
                    let dx = masked(pool, &g, yv, |y| y * (1.0 - y));
                    accum(pool, &mut node_grads, &mut grad_bytes, x.0, dx);
                    Some(g)
                }
                Op::Tanh(x) => {
                    let yv = read_value(nodes, released, idx, NodeId(idx));
                    let dx = masked(pool, &g, yv, |y| 1.0 - y * y);
                    accum(pool, &mut node_grads, &mut grad_bytes, x.0, dx);
                    Some(g)
                }
                Op::SoftmaxRows(x) => {
                    let yv = read_value(nodes, released, idx, NodeId(idx));
                    let mut dx = pool.array_copy(&g);
                    for r in 0..dx.rows() {
                        let y = yv.row(r);
                        let gr = g.row(r);
                        let s = array::dot(gr, y);
                        for (d, (&gi, &yi)) in dx.row_mut(r).iter_mut().zip(gr.iter().zip(y)) {
                            *d = yi * (gi - s);
                        }
                    }
                    accum(pool, &mut node_grads, &mut grad_bytes, x.0, dx);
                    Some(g)
                }
                Op::LayerNormRows(x, rstds) => {
                    let yv = read_value(nodes, released, idx, NodeId(idx));
                    let d = yv.cols() as f32;
                    let mut dx = pool.array_copy(&g);
                    for (r, &rstd) in rstds.iter().enumerate() {
                        let y = yv.row(r);
                        let gr = g.row(r);
                        let mean_g = gr.iter().sum::<f32>() / d;
                        let mean_gy = array::dot(gr, y) / d;
                        for (o, (&gi, &yi)) in dx.row_mut(r).iter_mut().zip(gr.iter().zip(y)) {
                            *o = rstd * (gi - mean_g - yi * mean_gy);
                        }
                    }
                    accum(pool, &mut node_grads, &mut grad_bytes, x.0, dx);
                    Some(g)
                }
                Op::Dropout(x, mask) => {
                    let dx = ew_mul(pool, &g, mask);
                    accum(pool, &mut node_grads, &mut grad_bytes, x.0, dx);
                    Some(g)
                }
                Op::L2NormalizeRows(x, norms) => {
                    let yv = read_value(nodes, released, idx, NodeId(idx));
                    let mut dx = pool.array_copy(&g);
                    for (r, &norm) in norms.iter().enumerate() {
                        let y = yv.row(r);
                        let gr = g.row(r);
                        let s = array::dot(gr, y);
                        let inv = 1.0 / norm;
                        for (o, (&gi, &yi)) in dx.row_mut(r).iter_mut().zip(gr.iter().zip(y)) {
                            *o = (gi - yi * s) * inv;
                        }
                    }
                    accum(pool, &mut node_grads, &mut grad_bytes, x.0, dx);
                    Some(g)
                }
                Op::ConcatCols(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let (n, w) = shape_of(nodes, p);
                        let mut dp = pool.array_zeros(n, w);
                        for r in 0..n {
                            dp.row_mut(r).copy_from_slice(&g.row(r)[off..off + w]);
                        }
                        accum(pool, &mut node_grads, &mut grad_bytes, p.0, dp);
                        off += w;
                    }
                    Some(g)
                }
                Op::ConcatRows(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let (n, w) = shape_of(nodes, p);
                        let mut dp = pool.array_zeros(n, w);
                        for r in 0..n {
                            dp.row_mut(r).copy_from_slice(g.row(off + r));
                        }
                        accum(pool, &mut node_grads, &mut grad_bytes, p.0, dp);
                        off += n;
                    }
                    Some(g)
                }
                Op::SliceCols(x, start) => {
                    let (n, w) = shape_of(nodes, *x);
                    let mut dx = pool.array_zeros(n, w);
                    for r in 0..g.rows() {
                        let gr = g.row(r);
                        dx.row_mut(r)[*start..*start + gr.len()].copy_from_slice(gr);
                    }
                    accum(pool, &mut node_grads, &mut grad_bytes, x.0, dx);
                    Some(g)
                }
                Op::GatherRows(x, indices) => {
                    let (n, w) = shape_of(nodes, *x);
                    let mut dx = pool.array_zeros(n, w);
                    for (r, &i) in indices.iter().enumerate() {
                        let src = g.row(r);
                        for (o, t) in dx.row_mut(i as usize).iter_mut().zip(src) {
                            *o += t;
                        }
                    }
                    accum(pool, &mut node_grads, &mut grad_bytes, x.0, dx);
                    Some(g)
                }
                Op::SegmentSum(x, segments) => {
                    let (n, w) = shape_of(nodes, *x);
                    let mut dx = pool.array_zeros(n, w);
                    for s in 0..segments.num_segments() {
                        let gs = g.row(s);
                        for r in segments.range(s) {
                            dx.row_mut(r).copy_from_slice(gs);
                        }
                    }
                    accum(pool, &mut node_grads, &mut grad_bytes, x.0, dx);
                    Some(g)
                }
                Op::SegmentSoftmax(x, segments) => {
                    let yv = read_value(nodes, released, idx, NodeId(idx));
                    let mut dx = pool.array_copy(&g);
                    for s in 0..segments.num_segments() {
                        let range = segments.range(s);
                        let y = &yv.data()[range.clone()];
                        let gr = &g.data()[range.clone()];
                        let dot = array::dot(gr, y);
                        for ((o, &gi), &yi) in dx.data_mut()[range].iter_mut().zip(gr).zip(y) {
                            *o = yi * (gi - dot);
                        }
                    }
                    accum(pool, &mut node_grads, &mut grad_bytes, x.0, dx);
                    Some(g)
                }
                Op::SumAll(x) => {
                    let (n, w) = shape_of(nodes, *x);
                    let dx = pool.array_full(n, w, g.item());
                    accum(pool, &mut node_grads, &mut grad_bytes, x.0, dx);
                    Some(g)
                }
                Op::MeanAll(x) => {
                    let (n, w) = shape_of(nodes, *x);
                    let dx = pool.array_full(n, w, g.item() / (n * w) as f32);
                    accum(pool, &mut node_grads, &mut grad_bytes, x.0, dx);
                    Some(g)
                }
                Op::CrossEntropyRows { logits, targets, softmax } => {
                    let scale = g.item() / targets.len() as f32;
                    let mut dl = pool.array_copy(softmax);
                    for (r, &t) in targets.iter().enumerate() {
                        let v = dl.get(r, t as usize);
                        dl.set(r, t as usize, v - 1.0);
                    }
                    dl.scale_assign(scale);
                    accum(pool, &mut node_grads, &mut grad_bytes, logits.0, dl);
                    Some(g)
                }
                Op::MseLoss { pred, target } => {
                    let pv = read_value(nodes, released, idx, *pred);
                    let scale = 2.0 * g.item() / pv.len() as f32;
                    let mut dp = pool.array_copy(pv);
                    dp.axpy(-1.0, target);
                    dp.scale_assign(scale);
                    accum(pool, &mut node_grads, &mut grad_bytes, pred.0, dp);
                    Some(g)
                }
                Op::MhAttention { q, k, v, bias, heads, scale, attn, mask } => {
                    let (t, d) = shape_of(nodes, *q);
                    let mut dq = pool.array_zeros(t, d);
                    let mut dk = pool.array_zeros(t, d);
                    let mut dv = pool.array_zeros(t, d);
                    let mut dbias = bias.map(|_| pool.array_zeros(t, t));
                    let mut scratch = pool.take(t * d + 2 * t * t + t);
                    array::mh_attention_backward(
                        &g,
                        read_value(nodes, released, idx, *q),
                        read_value(nodes, released, idx, *k),
                        read_value(nodes, released, idx, *v),
                        attn,
                        mask.as_ref(),
                        *heads,
                        *scale,
                        &mut dq,
                        &mut dk,
                        &mut dv,
                        dbias.as_mut(),
                        &mut scratch,
                    );
                    pool.give(scratch);
                    accum(pool, &mut node_grads, &mut grad_bytes, q.0, dq);
                    accum(pool, &mut node_grads, &mut grad_bytes, k.0, dk);
                    accum(pool, &mut node_grads, &mut grad_bytes, v.0, dv);
                    if let (Some(b), Some(db)) = (bias, dbias) {
                        accum(pool, &mut node_grads, &mut grad_bytes, b.0, db);
                    }
                    Some(g)
                }
            };
            if let Some(g) = leftover {
                pool.recycle(g);
            }
            // The high-water mark is sampled while `g`, its freshly seeded
            // downstream deltas, and the tape all overlap.
            *peak_bytes = (*peak_bytes).max(*live_bytes + grad_bytes);
            grad_bytes -= gbytes;
            if let Some(p) = plan {
                // This node's payload was last read by its own arm above;
                // values scheduled here were last read at this step. Release
                // steps are always grad-reachable, so the schedule cannot be
                // skipped by the `continue` above.
                release_payload(nodes, pool, live_bytes, idx);
                for &id in p.release_after(idx) {
                    let expect = sanitize.then(|| p.value_bytes(id as usize));
                    release_value(
                        nodes,
                        pool,
                        released,
                        live_bytes,
                        id as usize,
                        idx as u32,
                        expect,
                    );
                    releases += 1;
                }
            }
        }
        if let Some(p) = plan {
            if sanitize {
                let planned = p.release_event_count();
                assert_eq!(
                    releases, planned,
                    "liveness sanitizer: executed {releases} value releases but the plan \
                     scheduled {planned} — plan/actual divergence"
                );
            }
        }
    }

    /// Inference-graph hook: release every node value and payload except the
    /// `keep` set, returning the freed buffers to the pool. Returns the
    /// number of bytes freed. After this call only `keep` values are
    /// readable (the sanitizer aborts on any other [`Graph::value`] access)
    /// and the tape can no longer be backpropagated — use it on eval-mode
    /// graphs whose embeddings have been extracted, before the graph is kept
    /// around for further `reset`-free reads.
    /// Test hook: release one node's value immediately, bypassing any plan.
    /// A second call on the same node must hit the sanitizer's
    /// double-release abort. Not for production use.
    #[doc(hidden)]
    pub fn debug_release_value(&mut self, id: NodeId) {
        let Self { nodes, pool, released, live_bytes, .. } = self;
        release_value(nodes, pool, released, live_bytes, id.0, RELEASED_PRE_SWEEP, None);
    }

    pub fn forward_release(&mut self, keep: &[NodeId]) -> usize {
        let mut keep_mask = vec![false; self.nodes.len()];
        for &k in keep {
            keep_mask[k.0] = true;
        }
        let Self { nodes, pool, released, live_bytes, .. } = self;
        let before = *live_bytes;
        for id in 0..nodes.len() {
            release_payload(nodes, pool, live_bytes, id);
            if keep_mask[id] || released[id].is_some() {
                continue;
            }
            release_value(nodes, pool, released, live_bytes, id, RELEASED_PRE_SWEEP, None);
        }
        before - *live_bytes
    }
}

/// Tombstone and recycle the value of `id`, stamping it released. Aborts on
/// double release, and (with `expect` from the sanitizer) on any divergence
/// between the plan's byte accounting and the buffer actually freed.
fn release_value(
    nodes: &mut [Node],
    pool: &mut BufferPool,
    released: &mut [Option<u32>],
    live_bytes: &mut usize,
    id: usize,
    stamp: u32,
    expect: Option<usize>,
) {
    if let Some(prev) = released[id] {
        panic!(
            "liveness sanitizer: double release of node {} ({}) — already {}",
            id,
            nodes[id].op.kind(),
            release_site(prev),
        );
    }
    let value = std::mem::replace(&mut nodes[id].value, Array::from_vec(0, 0, Vec::new()));
    let bytes = 4 * value.len();
    if let Some(want) = expect {
        if bytes != want {
            panic!(
                "liveness sanitizer: node {} ({}) freed {bytes} value bytes but the plan \
                 accounted {want} — plan/actual divergence",
                id,
                nodes[id].op.kind(),
            );
        }
    }
    *live_bytes -= bytes;
    pool.recycle(value);
    released[id] = Some(stamp);
}

/// Tombstone and recycle the saved payload buffers of `id` (dropout mask,
/// cached softmax, normalization stats, attention probabilities). Payloads
/// are only ever read by the node's own backward arm, so this fires at the
/// end of that arm's step (or pre-sweep for nodes the sweep never visits).
fn release_payload(nodes: &mut [Node], pool: &mut BufferPool, live_bytes: &mut usize, id: usize) {
    let empty = || Array::from_vec(0, 0, Vec::new());
    let mut freed = 0usize;
    match &mut nodes[id].op {
        Op::Dropout(_, mask) => {
            let m = std::mem::replace(mask, empty());
            freed += m.len();
            pool.recycle(m);
        }
        Op::LayerNormRows(_, stats) | Op::L2NormalizeRows(_, stats) => {
            let s = std::mem::take(stats);
            freed += s.len();
            pool.give(s);
        }
        Op::CrossEntropyRows { softmax, .. } => {
            let s = std::mem::replace(softmax, empty());
            freed += s.len();
            pool.recycle(s);
        }
        Op::MseLoss { target, .. } => {
            let t = std::mem::replace(target, empty());
            freed += t.len();
            pool.recycle(t);
        }
        Op::MhAttention { attn, mask, .. } => {
            let a = std::mem::replace(attn, empty());
            freed += a.len();
            pool.recycle(a);
            if let Some(m) = mask.take() {
                freed += m.len();
                pool.recycle(m);
            }
        }
        _ => {}
    }
    *live_bytes -= 4 * freed;
}

/// Sanitizer read barrier for backward value dereferences: serving a
/// released buffer would silently alias another node's bytes, so abort with
/// the reading op, both node ids, and the release site instead.
fn read_value<'n>(nodes: &'n [Node], released: &[Option<u32>], at: usize, id: NodeId) -> &'n Array {
    if let Some(step) = released[id.0] {
        panic!(
            "liveness sanitizer: {} backward (node {at}) read the value of node {} ({}), {} — \
             the memory plan is unsound",
            nodes[at].op.kind(),
            id.0,
            nodes[id.0].op.kind(),
            release_site(step),
        );
    }
    &nodes[id.0].value
}

/// Add `delta` into the slot's gradient (recycling `delta`), or seed the
/// slot with it (tracked in `grad_bytes` for the peak accounting).
fn accum(
    pool: &mut BufferPool,
    grads: &mut [Option<Array>],
    grad_bytes: &mut usize,
    idx: usize,
    delta: Array,
) {
    match &mut grads[idx] {
        Some(g) => {
            g.add_assign(&delta);
            pool.recycle(delta);
        }
        slot @ None => {
            *grad_bytes += 4 * delta.len();
            *slot = Some(delta);
        }
    }
}

fn ew_mul(pool: &mut BufferPool, a: &Array, b: &Array) -> Array {
    debug_assert_eq!(a.shape(), b.shape());
    let mut out = pool.array_copy(a);
    for (o, &m) in out.data_mut().iter_mut().zip(b.data()) {
        *o *= m;
    }
    out
}

/// `out[i] = g[i] * f(source[i])`.
fn masked(pool: &mut BufferPool, g: &Array, source: &Array, f: impl Fn(f32) -> f32) -> Array {
    debug_assert_eq!(g.shape(), source.shape());
    let mut out = pool.array_copy(g);
    for (o, &sv) in out.data_mut().iter_mut().zip(source.data()) {
        *o *= f(sv);
    }
    out
}

fn col_sums(pool: &mut BufferPool, g: &Array) -> Array {
    let mut out = pool.array_zeros(1, g.cols());
    for r in 0..g.rows() {
        for (o, v) in out.data_mut().iter_mut().zip(g.row(r)) {
            *o += v;
        }
    }
    out
}
