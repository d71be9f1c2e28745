//! Symbolic tape verifier: config-time shape, gradient-flow, and
//! numerical-hazard abstract interpretation (DESIGN.md §15).
//!
//! The other analyses (gradcheck, liveness sanitizer) run on a single
//! concrete tape, so a bad config or a miswired model family only fails
//! once real data has flowed at one batch size. This module re-derives the
//! tape under two abstract domains instead:
//!
//! * a **symbolic dimension domain** — each model family is traced at three
//!   anchor sizes of its size knob `n` (sequence/batch length) and every
//!   node dimension is generalized to [`Dim`]: `Const(c)`, the affine form
//!   `mul·n + add` fitted on two anchors and *verified* on the third, or
//!   `Data` for genuinely data-dependent extents (masked-position counts,
//!   quadratic reshape extents). A shape rule that holds for the affine
//!   forms holds for every `n`, so one pass verifies all concrete sizes of
//!   a structure-invariant family at once;
//! * an **abstract value domain** — [`AbsVal`], an interval × finiteness
//!   lattice (sign is the interval's relation to zero) seeded from the
//!   anchor traces and widened, with a per-`OpKind` transfer function
//!   (`abs_transfer`) that flags statically reachable numerical hazards:
//!   `log` of a possibly-zero softmax probability, division by a
//!   possibly-zero normalizer, `exp` of an unbounded pre-activation.
//!
//! On top of the derived shapes the verifier audits **gradient flow**:
//! parameters that cannot reach the loss, parameters whose gradient is
//! guaranteed zero (every path crosses a zero multiplier), towers frozen
//! behind [`Graph::stop_gradient`], stop-gradient *leaks* (a detached
//! tower's parameters still receiving gradient through a non-detached
//! path), and losses with no trainable leaf at all.
//!
//! Model families register through [`TapeFamily`] (a no-data tracing
//! constructor); `start-analysis verify` runs [`verify_family`] over every
//! registered family and fails CI on any
//! [`Severity::Error`](crate::Severity::Error) finding.
//!
//! The shape rules are the crate's only per-op shape table:
//! [`Graph::audit`] runs them over one concrete tape (every anchor is the
//! same graph, so every [`Dim`] is `Const`).
//!
//! Families whose tape *structure* varies with the size knob (per-timestep
//! GRU loops, data-dependent masking) cannot be generalized across anchors;
//! they get a [`FindingKind::StructureDivergence`] warning and each
//! anchor tape is verified concretely instead (all dims `Const`), so shape,
//! hazard, and gradient-flow checking still runs — only the one-pass-all-`n`
//! claim is dropped.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::finding::{eval_mode_dropout, Finding, FindingKind, Findings, HazardClass};
use crate::graph::{Graph, NodeId, Op};
use crate::params::ParamStore;

/// Number of anchor sizes each family is traced at. Two anchors fit the
/// affine form `mul·n + add`; the third overdetermines it, so an accidental
/// fit cannot survive.
pub const NUM_ANCHORS: usize = 3;

/// Default anchor sizes for the family knob (strictly increasing; chosen
/// small, co-prime-ish, and off powers of two so coincidental fits die on
/// the third anchor).
pub const DEFAULT_ANCHORS: [usize; NUM_ANCHORS] = [5, 8, 11];

/// Leaf intervals observed at the anchors are widened outward by this
/// factor before interpretation, so the hazard verdict covers inputs well
/// beyond the traced values (see DESIGN.md §15 for what this does and does
/// not prove).
pub const LEAF_WIDEN: f64 = 4.0;

/// `exp` overflows `f32` above this argument.
const F32_EXP_OVERFLOW: f64 = 88.72;

// ---------------------------------------------------------------------------
// Symbolic dimension domain
// ---------------------------------------------------------------------------

/// One tensor extent, as its concrete values at the [`NUM_ANCHORS`] anchor
/// sizes. All shape *checks* are exact per-anchor equalities on `vals`;
/// [`Dim::fit`] is the generalization that names the extent symbolically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dim {
    pub vals: [usize; NUM_ANCHORS],
}

/// The symbolic form of a [`Dim`] over the size knob `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimFit {
    /// Identical at every anchor: independent of `n`.
    Const(usize),
    /// `mul·n + add`, fitted on the first two anchors and verified on the
    /// third.
    Affine { mul: i64, add: i64 },
    /// Varies with `n` but not affinely — data-dependent (mask counts) or a
    /// higher-degree product (flattened `(n+1)²` interval matrices).
    Data,
}

impl Dim {
    pub fn splat(v: usize) -> Self {
        Dim { vals: [v; NUM_ANCHORS] }
    }

    pub fn from_fn(f: impl FnMut(usize) -> usize) -> Self {
        let mut f = f;
        let mut vals = [0usize; NUM_ANCHORS];
        for (a, v) in vals.iter_mut().enumerate() {
            *v = f(a);
        }
        Dim { vals }
    }

    fn zip(self, other: Dim, f: impl Fn(usize, usize) -> usize) -> Dim {
        Dim::from_fn(|a| f(self.vals[a], other.vals[a]))
    }

    pub fn max_val(self) -> usize {
        self.vals.into_iter().max().unwrap_or(0)
    }

    /// Generalize over the anchor sizes: `Const` if invariant, else the
    /// affine form fitted on anchors 0–1 and verified on anchor 2, else
    /// `Data`.
    pub fn fit(self, sizes: &[usize; NUM_ANCHORS]) -> DimFit {
        if self.vals.iter().all(|&v| v == self.vals[0]) {
            return DimFit::Const(self.vals[0]);
        }
        let (n0, n1, n2) = (sizes[0] as i64, sizes[1] as i64, sizes[2] as i64);
        let (v0, v1, v2) = (self.vals[0] as i64, self.vals[1] as i64, self.vals[2] as i64);
        if n1 != n0 && (v1 - v0) % (n1 - n0) == 0 {
            let mul = (v1 - v0) / (n1 - n0);
            let add = v0 - mul * n0;
            if mul * n2 + add == v2 {
                return DimFit::Affine { mul, add };
            }
        }
        DimFit::Data
    }

    /// Human-readable symbolic form, e.g. `"8"`, `"n"`, `"n+1"`, `"2n"`, or
    /// the raw anchor values for data-dependent extents.
    pub fn render(self, sizes: &[usize; NUM_ANCHORS]) -> String {
        match self.fit(sizes) {
            DimFit::Const(c) => c.to_string(),
            DimFit::Affine { mul, add } => {
                let head = match mul {
                    1 => "n".to_string(),
                    m => format!("{m}n"),
                };
                match add {
                    0 => head,
                    a if a > 0 => format!("{head}+{a}"),
                    a => format!("{head}{a}"),
                }
            }
            DimFit::Data => {
                let list: Vec<String> = self.vals.iter().map(usize::to_string).collect();
                format!("⟨{}⟩", list.join("|"))
            }
        }
    }
}

impl std::ops::Add for Dim {
    type Output = Dim;
    fn add(self, other: Dim) -> Dim {
        self.zip(other, |x, y| x + y)
    }
}

impl std::ops::Mul for Dim {
    type Output = Dim;
    fn mul(self, other: Dim) -> Dim {
        self.zip(other, |x, y| x * y)
    }
}

/// A node's `(rows, cols)` under the symbolic dimension domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymShape {
    pub rows: Dim,
    pub cols: Dim,
}

impl SymShape {
    pub fn render(self, sizes: &[usize; NUM_ANCHORS]) -> String {
        format!("{}x{}", self.rows.render(sizes), self.cols.render(sizes))
    }

    /// Concrete shape at anchor `a`.
    pub fn at(self, a: usize) -> (usize, usize) {
        (self.rows.vals[a], self.cols.vals[a])
    }
}

// ---------------------------------------------------------------------------
// Abstract value domain
// ---------------------------------------------------------------------------

/// Interval × finiteness abstract value (the sign component is the
/// interval's relation to zero). `lo`/`hi` may be ±∞; `nan` records whether
/// the value may be NaN. Join is the interval hull with `nan` OR-ed — the
/// lattice order is interval inclusion refined by the `nan` flag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbsVal {
    pub lo: f64,
    pub hi: f64,
    pub nan: bool,
}

impl AbsVal {
    pub fn range(lo: f64, hi: f64) -> Self {
        AbsVal { lo, hi, nan: false }
    }

    pub fn exact(v: f64) -> Self {
        AbsVal { lo: v, hi: v, nan: false }
    }

    pub fn top() -> Self {
        AbsVal { lo: f64::NEG_INFINITY, hi: f64::INFINITY, nan: true }
    }

    /// Lattice join: interval hull, `nan` OR.
    pub fn join(self, other: AbsVal) -> AbsVal {
        AbsVal { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi), nan: self.nan || other.nan }
    }

    /// Largest absolute magnitude in the interval.
    pub fn mag(self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }

    pub fn contains_zero(self) -> bool {
        self.lo <= 0.0 && self.hi >= 0.0
    }

    /// Exactly the constant zero (the zero-multiplier test for the
    /// gradient-flow audit).
    pub fn is_exactly_zero(self) -> bool {
        self.lo == 0.0 && self.hi == 0.0 && !self.nan
    }

    /// Could the value be NaN or ±∞?
    pub fn non_finite(self) -> bool {
        self.nan || self.lo == f64::NEG_INFINITY || self.hi == f64::INFINITY
    }

    /// Widen outward by `factor` (endpoints scale away from zero; the
    /// interval keeps its sign but also stretches toward zero, so strictly
    /// positive observations do not over-promise positivity).
    pub fn widen(self, factor: f64) -> AbsVal {
        let stretch_lo = if self.lo < 0.0 { self.lo * factor } else { self.lo / factor };
        let stretch_hi = if self.hi > 0.0 { self.hi * factor } else { self.hi / factor };
        AbsVal { lo: stretch_lo, hi: stretch_hi, nan: self.nan }
    }

    /// Saturate bounds beyond `f32` range to ±∞ — the tape computes in
    /// `f32`, so a bound past `f32::MAX` means the value may overflow.
    fn fit_f32(self) -> AbsVal {
        let clip = |v: f64| {
            if v > f32::MAX as f64 {
                f64::INFINITY
            } else if v < f32::MIN as f64 {
                f64::NEG_INFINITY
            } else {
                v
            }
        };
        AbsVal { lo: clip(self.lo), hi: clip(self.hi), nan: self.nan }
    }

    pub fn scale(self, c: f64) -> AbsVal {
        self * AbsVal::exact(c)
    }

    /// Apply a monotone non-decreasing map to both endpoints.
    fn monotone(self, f: impl Fn(f64) -> f64) -> AbsVal {
        AbsVal { lo: f(self.lo), hi: f(self.hi), nan: self.nan }.fit_f32()
    }

    pub fn relu(self) -> AbsVal {
        self.monotone(|v| v.max(0.0))
    }

    pub fn leaky_relu(self, slope: f64) -> AbsVal {
        self.monotone(|v| if v > 0.0 { v } else { slope * v })
    }

    pub fn elu(self) -> AbsVal {
        self.monotone(|v| if v > 0.0 { v } else { v.exp() - 1.0 })
    }

    pub fn sigmoid(self) -> AbsVal {
        self.monotone(|v| 1.0 / (1.0 + (-v).exp()))
    }

    pub fn tanh(self) -> AbsVal {
        self.monotone(f64::tanh)
    }

    /// `exp` with the overflow verdict: the second component is `true` when
    /// the upper bound exceeds the `f32` exponent range, i.e. the hazard
    /// class [`HazardClass::ExpOverflow`] is reachable.
    pub fn exp(self) -> (AbsVal, bool) {
        let overflow = self.hi > F32_EXP_OVERFLOW;
        (self.monotone(f64::exp), overflow)
    }

    /// `log` with the log-of-zero verdict: the second component is `true`
    /// when the interval admits values ≤ 0, i.e. [`HazardClass::LogZero`]
    /// is reachable.
    pub fn log(self) -> (AbsVal, bool) {
        let log_zero = self.lo <= 0.0;
        let f = |v: f64| if v <= 0.0 { f64::NEG_INFINITY } else { v.ln() };
        (AbsVal { lo: f(self.lo), hi: f(self.hi), nan: self.nan || self.lo < 0.0 }, log_zero)
    }

    /// `1/x` with the division-by-zero verdict ([`HazardClass::DivZero`]
    /// reachable iff the interval contains zero).
    pub fn recip(self) -> (AbsVal, bool) {
        let div_zero = self.contains_zero();
        if div_zero {
            (AbsVal { lo: f64::NEG_INFINITY, hi: f64::INFINITY, nan: self.nan }, true)
        } else {
            (AbsVal { lo: 1.0 / self.hi, hi: 1.0 / self.lo, nan: self.nan }, false)
        }
    }

    /// Bound on a dot product of `k` terms drawn from `a` × `b`.
    fn dot(a: AbsVal, b: AbsVal, k: usize) -> AbsVal {
        let term = a * b;
        let m = term.mag() * k as f64;
        let lo = if a.lo >= 0.0 && b.lo >= 0.0 { 0.0 } else { -m };
        AbsVal { lo, hi: m, nan: term.nan }.fit_f32()
    }

    /// Output interval of a numerically stable row softmax (max-shifted,
    /// sum ≥ 1): probabilities lie in `[0, 1]`, bounded away from zero only
    /// when the input interval is finite.
    fn softmax_out(input: AbsVal, max_cols: usize) -> (AbsVal, bool) {
        // A row that is entirely −∞ max-shifts to NaN and divides by zero.
        let all_neg_inf = input.lo == f64::NEG_INFINITY;
        if input.nan || all_neg_inf {
            return (AbsVal { lo: 0.0, hi: 1.0, nan: true }, all_neg_inf);
        }
        let lo = if input.lo.is_finite() && input.hi.is_finite() && max_cols > 0 {
            ((input.lo - input.hi).exp() / max_cols as f64).max(0.0)
        } else {
            0.0
        };
        (AbsVal { lo, hi: 1.0, nan: false }, false)
    }
}

impl std::ops::Add for AbsVal {
    type Output = AbsVal;
    fn add(self, other: AbsVal) -> AbsVal {
        let nan = self.nan
            || other.nan
            // ∞ + (−∞) is NaN.
            || (self.hi == f64::INFINITY && other.lo == f64::NEG_INFINITY)
            || (self.lo == f64::NEG_INFINITY && other.hi == f64::INFINITY);
        AbsVal { lo: self.lo + other.lo, hi: self.hi + other.hi, nan }.fit_f32()
    }
}

impl std::ops::Sub for AbsVal {
    type Output = AbsVal;
    fn sub(self, other: AbsVal) -> AbsVal {
        self + AbsVal { lo: -other.hi, hi: -other.lo, nan: other.nan }
    }
}

impl std::ops::Mul for AbsVal {
    type Output = AbsVal;
    fn mul(self, other: AbsVal) -> AbsVal {
        // 0 · ∞ is NaN.
        let inf_times_zero = (self.mag() == f64::INFINITY && other.contains_zero())
            || (other.mag() == f64::INFINITY && self.contains_zero());
        let corners =
            [self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi];
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for c in corners {
            let c = if c.is_nan() { 0.0 } else { c };
            lo = lo.min(c);
            hi = hi.max(c);
        }
        AbsVal { lo, hi, nan: self.nan || other.nan || inf_times_zero }.fit_f32()
    }
}

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

/// Result of [`verify_family`].
#[derive(Debug, Default)]
pub struct VerifyReport {
    pub family: String,
    pub sizes: [usize; NUM_ANCHORS],
    pub findings: Vec<Finding>,
    /// Symbolic shape per tape node (empty when the family fell back to
    /// per-anchor verification after a structure divergence).
    pub shapes: Vec<SymShape>,
    /// Nodes on the (first-anchor) tape.
    pub num_nodes: usize,
    /// Parameters with at least one grad-reachable leaf.
    pub trained_params: usize,
}

impl Findings for VerifyReport {
    fn findings(&self) -> &[Finding] {
        &self.findings
    }
}

impl VerifyReport {
    fn push(&mut self, kind: FindingKind, node: Option<usize>, message: String) {
        self.findings.push(Finding { kind, node: node.map(NodeId), message });
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}: {} nodes at anchors n={{{},{},{}}}, {} trained parameter(s)",
            self.family,
            self.num_nodes,
            self.sizes[0],
            self.sizes[1],
            self.sizes[2],
            self.trained_params
        )?;
        if self.findings.is_empty() {
            return write!(f, "  verified clean");
        }
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Family registration
// ---------------------------------------------------------------------------

/// A no-data tracing constructor for one model family: owns the model (and
/// any synthetic fixtures) and records its tape at a requested size of the
/// family's size knob `n` (sequence length, batch extent, …).
pub trait TapeFamily {
    /// Display name, e.g. `"start/pretrain"`.
    fn name(&self) -> String;

    /// The parameter store the family's graphs borrow.
    fn store(&self) -> &ParamStore;

    /// Whether this is a training tape (gradient-flow audit applies and the
    /// output must be a scalar loss). Eval-mode families (serve-path encode
    /// graphs) skip the gradient audit.
    fn train(&self) -> bool {
        true
    }

    /// Record the family's tape at size `n`, returning the loss (train) or
    /// output (eval) node. Must be deterministic in `n`: the verifier traces
    /// several anchors and aligns the tapes node-by-node.
    fn record<'s>(&'s self, g: &mut Graph<'s>, n: usize) -> NodeId;

    /// Override the abstract interval of the `Input` leaf at tape position
    /// `node` (defaults to the observed anchor values widened by
    /// [`LEAF_WIDEN`]). Tests use this to declare adversarial input ranges
    /// and seed hazards.
    fn leaf_bounds(&self, node: usize) -> Option<(f64, f64)> {
        let _ = node;
        None
    }
}

// ---------------------------------------------------------------------------
// Anchor alignment
// ---------------------------------------------------------------------------

/// The aligned anchor tapes a symbolic pass runs over. In single-tape mode
/// (the structure-divergence fallback and [`Graph::audit`]) all entries
/// alias one graph and `sizes` repeats one anchor, which degenerates every
/// [`Dim`] to `Const`.
struct Anchors<'g, 's> {
    gs: [&'g Graph<'s>; NUM_ANCHORS],
    sizes: [usize; NUM_ANCHORS],
}

impl<'g, 's> Anchors<'g, 's> {
    /// One concrete tape traced at size `n` (`0` when the size is unknown).
    fn single(g: &'g Graph<'s>, n: usize) -> Self {
        Anchors { gs: [g; NUM_ANCHORS], sizes: [n; NUM_ANCHORS] }
    }

    /// Where anchor `a` sits, for messages: `" (at n=…)"`, or nothing for a
    /// tape of unknown size.
    fn at_n(&self, a: usize) -> String {
        match self.sizes[a] {
            0 => String::new(),
            n => format!(" (at n={n})"),
        }
    }

    fn op(&self, anchor: usize, node: usize) -> &'g Op {
        &self.gs[anchor].nodes[node].op
    }

    fn num_nodes(&self) -> usize {
        self.gs[0].nodes.len()
    }

    /// Recorded value shape of `node` as a [`SymShape`].
    fn actual(&self, node: usize) -> SymShape {
        SymShape {
            rows: Dim::from_fn(|a| self.gs[a].nodes[node].value.shape().0),
            cols: Dim::from_fn(|a| self.gs[a].nodes[node].value.shape().1),
        }
    }

    /// Interval hull of the recorded values of `node` across all anchors
    /// (exact zero for empty values).
    fn observed(&self, node: usize) -> AbsVal {
        let mut out = AbsVal::exact(0.0);
        let mut any = false;
        for g in self.gs {
            for &v in g.nodes[node].value.data() {
                let av = if v.is_finite() {
                    AbsVal::exact(v as f64)
                } else {
                    AbsVal { lo: f64::NEG_INFINITY, hi: f64::INFINITY, nan: true }
                };
                out = if any { out.join(av) } else { av };
                any = true;
            }
        }
        if any {
            out
        } else {
            AbsVal::exact(0.0)
        }
    }
}

/// Are the anchor tapes structurally identical (same op kinds, same edges,
/// same stop-gradient log)? Returns the first divergence as an error string.
fn check_alignment(anchors: &Anchors) -> Result<(), String> {
    let n0 = anchors.gs[0].nodes.len();
    for (a, g) in anchors.gs.iter().enumerate().skip(1) {
        if g.nodes.len() != n0 {
            return Err(format!(
                "tape has {} nodes at n={} but {} at n={}",
                n0,
                anchors.sizes[0],
                g.nodes.len(),
                anchors.sizes[a]
            ));
        }
    }
    for idx in 0..n0 {
        let kind0 = anchors.op(0, idx).kind();
        let inputs0 = anchors.op(0, idx).inputs();
        for a in 1..NUM_ANCHORS {
            let op = anchors.op(a, idx);
            if op.kind() != kind0 || op.inputs() != inputs0 {
                return Err(format!(
                    "node {idx} is {} at n={} but {} at n={}",
                    kind0,
                    anchors.sizes[0],
                    op.kind(),
                    anchors.sizes[a]
                ));
            }
        }
    }
    for g in &anchors.gs[1..] {
        if g.stop_gradient_pairs() != anchors.gs[0].stop_gradient_pairs() {
            return Err("stop_gradient log differs between anchors".to_string());
        }
    }
    Ok(())
}

/// Extract a per-anchor payload-derived extent. The closure sees the
/// anchor's own op; alignment has already been checked, so the kind matches
/// at every anchor (the `0` default is unreachable).
macro_rules! per_anchor {
    ($anchors:expr, $node:expr, $pat:pat => $e:expr) => {
        Dim::from_fn(|a| match $anchors.op(a, $node) {
            $pat => $e,
            _ => 0,
        })
    };
}

/// Per-anchor shape of a saved payload `Array` as a [`SymShape`].
macro_rules! payload_shape {
    ($anchors:expr, $node:expr, $pat:pat => $arr:expr) => {
        SymShape {
            rows: per_anchor!($anchors, $node, $pat => $arr.shape().0),
            cols: per_anchor!($anchors, $node, $pat => $arr.shape().1),
        }
    };
}

/// Fold a per-anchor payload property into one value.
macro_rules! anchor_max {
    ($anchors:expr, $node:expr, $pat:pat => $e:expr) => {{
        let mut m = 0.0f64;
        for a in 0..NUM_ANCHORS {
            if let $pat = $anchors.op(a, $node) {
                m = m.max($e);
            }
        }
        m
    }};
}

// ---------------------------------------------------------------------------
// Symbolic shape rules (one per OpKind; rule 4 checks this table)
// ---------------------------------------------------------------------------

/// Re-derive a node's shape under the symbolic dimension domain, checking
/// the saved payloads (masks, softmaxes, norm statistics) against it. Every
/// extent is a [`Dim`] checked at all anchors simultaneously, so an equality
/// that only holds at one concrete size (a head dim that coincides with one
/// batch size, say) cannot pass.
fn sym_shape(
    anchors: &Anchors,
    node: usize,
    shapes: &[SymShape],
    sizes: &[usize; NUM_ANCHORS],
) -> Result<SymShape, String> {
    let s = |id: NodeId| shapes[id.index()];
    let shape = |rows, cols| SymShape { rows, cols };
    let actual = anchors.actual(node);
    match anchors.op(0, node) {
        Op::Input => Ok(actual),
        Op::Param(pid) => {
            let stored = anchors.gs[0].store.get(*pid).shape();
            let sym = shape(Dim::splat(stored.0), Dim::splat(stored.1));
            if actual != sym {
                return Err(format!(
                    "leaf is {} but the store holds {}x{} for {:?}",
                    actual.render(sizes),
                    stored.0,
                    stored.1,
                    anchors.gs[0].store.name(*pid)
                ));
            }
            Ok(sym)
        }
        Op::MatMul(a, b) => {
            let (sa, sb) = (s(*a), s(*b));
            if sa.cols != sb.rows {
                return Err(format!(
                    "inner dims differ: {} @ {} (inner {} vs {})",
                    sa.render(sizes),
                    sb.render(sizes),
                    sa.cols.render(sizes),
                    sb.rows.render(sizes)
                ));
            }
            Ok(shape(sa.rows, sb.cols))
        }
        Op::Transpose(x) => Ok(shape(s(*x).cols, s(*x).rows)),
        Op::Reshape(x) => {
            // The op stores no target dims; the recorded shape is accepted
            // iff the element-count product matches at every anchor — three
            // evaluation points kill any coincidental degree-≤2 fit.
            let sx = s(*x);
            if sx.rows * sx.cols != actual.rows * actual.cols {
                return Err(format!(
                    "element count changed: {} -> {}",
                    sx.render(sizes),
                    actual.render(sizes)
                ));
            }
            Ok(actual)
        }
        Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) => {
            if s(*a) != s(*b) {
                return Err(format!(
                    "elementwise operands differ: {} vs {}",
                    s(*a).render(sizes),
                    s(*b).render(sizes)
                ));
            }
            Ok(s(*a))
        }
        Op::Scale(x, _)
        | Op::AddScalar(x)
        | Op::Relu(x)
        | Op::LeakyRelu(x, _)
        | Op::Elu(x)
        | Op::Sigmoid(x)
        | Op::Tanh(x)
        | Op::SoftmaxRows(x) => Ok(s(*x)),
        Op::LayerNormRows(x, _) => {
            let stats = per_anchor!(anchors, node, Op::LayerNormRows(_, st) => st.len());
            if stats != s(*x).rows {
                return Err(format!(
                    "saved {} rstds for {} rows",
                    stats.render(sizes),
                    s(*x).rows.render(sizes)
                ));
            }
            Ok(s(*x))
        }
        Op::Dropout(x, _) => {
            let mask = payload_shape!(anchors, node, Op::Dropout(_, m) => m);
            if mask != s(*x) {
                return Err(format!(
                    "mask is {} but input is {}",
                    mask.render(sizes),
                    s(*x).render(sizes)
                ));
            }
            Ok(s(*x))
        }
        Op::L2NormalizeRows(x, _) => {
            let norms = per_anchor!(anchors, node, Op::L2NormalizeRows(_, ns) => ns.len());
            if norms != s(*x).rows {
                return Err(format!(
                    "saved {} norms for {} rows",
                    norms.render(sizes),
                    s(*x).rows.render(sizes)
                ));
            }
            Ok(s(*x))
        }
        Op::AddRow(x, row) | Op::MulRow(x, row) => {
            let sx = s(*x);
            if s(*row) != shape(Dim::splat(1), sx.cols) {
                return Err(format!(
                    "row operand is {}, want 1x{}",
                    s(*row).render(sizes),
                    sx.cols.render(sizes)
                ));
            }
            Ok(sx)
        }
        Op::MulCol(x, col) => {
            let sx = s(*x);
            if s(*col) != shape(sx.rows, Dim::splat(1)) {
                return Err(format!(
                    "col operand is {}, want {}x1",
                    s(*col).render(sizes),
                    sx.rows.render(sizes)
                ));
            }
            Ok(sx)
        }
        Op::ConcatCols(parts) => {
            let rows = s(parts[0]).rows;
            let mut total = Dim::splat(0);
            for &p in parts {
                if s(p).rows != rows {
                    return Err(format!(
                        "part rows differ: {} vs {}",
                        s(p).rows.render(sizes),
                        rows.render(sizes)
                    ));
                }
                total = total + s(p).cols;
            }
            Ok(shape(rows, total))
        }
        Op::ConcatRows(parts) => {
            let cols = s(parts[0]).cols;
            let mut total = Dim::splat(0);
            for &p in parts {
                if s(p).cols != cols {
                    return Err(format!(
                        "part cols differ: {} vs {}",
                        s(p).cols.render(sizes),
                        cols.render(sizes)
                    ));
                }
                total = total + s(p).rows;
            }
            Ok(shape(total, cols))
        }
        Op::SliceCols(x, start) => {
            let sx = s(*x);
            let end = actual.cols + Dim::splat(*start);
            if (0..NUM_ANCHORS).any(|a| end.vals[a] > sx.cols.vals[a]) {
                return Err(format!(
                    "slice [{start}..{}] exceeds input width {}",
                    end.render(sizes),
                    sx.cols.render(sizes)
                ));
            }
            Ok(shape(sx.rows, actual.cols))
        }
        Op::GatherRows(x, _) => {
            let sx = s(*x);
            for a in 0..NUM_ANCHORS {
                if let Op::GatherRows(_, indices) = anchors.op(a, node) {
                    if let Some(&bad) = indices.iter().find(|&&i| (i as usize) >= sx.rows.vals[a]) {
                        return Err(format!(
                            "gather index {bad} out of range for {} rows{}",
                            sx.rows.render(sizes),
                            anchors.at_n(a)
                        ));
                    }
                }
            }
            let len = per_anchor!(anchors, node, Op::GatherRows(_, idx) => idx.len());
            Ok(shape(len, sx.cols))
        }
        Op::SegmentSum(x, _) => {
            let sx = s(*x);
            let covered = per_anchor!(anchors, node, Op::SegmentSum(_, seg) => seg.total_rows());
            if covered != sx.rows {
                return Err(format!(
                    "segments cover {} rows but input has {}",
                    covered.render(sizes),
                    sx.rows.render(sizes)
                ));
            }
            let segs = per_anchor!(anchors, node, Op::SegmentSum(_, seg) => seg.num_segments());
            Ok(shape(segs, sx.cols))
        }
        Op::SegmentSoftmax(x, _) => {
            let sx = s(*x);
            if sx.cols != Dim::splat(1) {
                return Err(format!("expects a column vector, got {}", sx.render(sizes)));
            }
            let covered =
                per_anchor!(anchors, node, Op::SegmentSoftmax(_, seg) => seg.total_rows());
            if covered != sx.rows {
                return Err(format!(
                    "segments cover {} rows but input has {}",
                    covered.render(sizes),
                    sx.rows.render(sizes)
                ));
            }
            Ok(sx)
        }
        Op::SumAll(_) | Op::MeanAll(_) => Ok(shape(Dim::splat(1), Dim::splat(1))),
        Op::CrossEntropyRows { logits, .. } => {
            let sl = s(*logits);
            let targets =
                per_anchor!(anchors, node, Op::CrossEntropyRows { targets, .. } => targets.len());
            if targets != sl.rows {
                return Err(format!(
                    "{} targets for {} logit rows",
                    targets.render(sizes),
                    sl.rows.render(sizes)
                ));
            }
            let softmax =
                payload_shape!(anchors, node, Op::CrossEntropyRows { softmax, .. } => softmax);
            if softmax != sl {
                return Err(format!(
                    "saved softmax is {}, want {}",
                    softmax.render(sizes),
                    sl.render(sizes)
                ));
            }
            for a in 0..NUM_ANCHORS {
                if let Op::CrossEntropyRows { targets, .. } = anchors.op(a, node) {
                    if let Some(&bad) = targets.iter().find(|&&t| (t as usize) >= sl.cols.vals[a]) {
                        return Err(format!(
                            "target class {bad} out of range for {} classes{}",
                            sl.cols.render(sizes),
                            anchors.at_n(a)
                        ));
                    }
                }
            }
            Ok(shape(Dim::splat(1), Dim::splat(1)))
        }
        Op::MseLoss { pred, .. } => {
            let target = payload_shape!(anchors, node, Op::MseLoss { target, .. } => target);
            if target != s(*pred) {
                return Err(format!(
                    "target is {} but prediction is {}",
                    target.render(sizes),
                    s(*pred).render(sizes)
                ));
            }
            Ok(shape(Dim::splat(1), Dim::splat(1)))
        }
        Op::MhAttention { q, k, v, bias, heads, mask, .. } => {
            let sq = s(*q);
            if s(*k) != sq || s(*v) != sq {
                return Err(format!(
                    "q/k/v shapes differ: {} vs {} vs {}",
                    sq.render(sizes),
                    s(*k).render(sizes),
                    s(*v).render(sizes)
                ));
            }
            if *heads == 0 || sq.cols.vals.iter().any(|&d| d % heads != 0) {
                return Err(format!(
                    "model dim {} not divisible by {heads} heads",
                    sq.cols.render(sizes)
                ));
            }
            if let Some(b) = bias {
                let want = shape(sq.rows, sq.rows);
                if s(*b) != want {
                    return Err(format!(
                        "bias is {}, want {}",
                        s(*b).render(sizes),
                        want.render(sizes)
                    ));
                }
            }
            // Saved per-head payloads: every head's (T, T) block stacked.
            let stacked = shape(Dim::splat(*heads) * sq.rows, sq.rows);
            let attn = payload_shape!(anchors, node, Op::MhAttention { attn, .. } => attn);
            if attn != stacked {
                return Err(format!(
                    "saved attn is {}, want {}",
                    attn.render(sizes),
                    stacked.render(sizes)
                ));
            }
            if mask.is_some() {
                let saved =
                    payload_shape!(anchors, node, Op::MhAttention { mask: Some(m), .. } => m);
                if saved != stacked {
                    return Err(format!(
                        "saved mask is {}, want {}",
                        saved.render(sizes),
                        stacked.render(sizes)
                    ));
                }
            }
            Ok(sq)
        }
    }
}

// ---------------------------------------------------------------------------
// Abstract transfer functions (one per OpKind; rule 4 checks this table)
// ---------------------------------------------------------------------------

/// Abstract value transfer for one node: from the inputs' [`AbsVal`]s to
/// the output's, pushing any reachable [`HazardClass`] into `hazards`. The
/// interval arithmetic is deliberately conservative; normalizing ops
/// (softmax, layer norm, L2) re-bound their output from the op's own
/// guarantees, which is what keeps deep encoder stacks finitely bounded.
#[allow(clippy::too_many_arguments)]
fn abs_transfer(
    anchors: &Anchors,
    node: usize,
    vals: &[AbsVal],
    shapes: &[SymShape],
    leaf_override: Option<(f64, f64)>,
    hazards: &mut Vec<(HazardClass, String)>,
) -> AbsVal {
    let v = |id: NodeId| vals[id.index()];
    let observed = || anchors.observed(node);
    match anchors.op(0, node) {
        Op::Input => match leaf_override {
            Some((lo, hi)) => AbsVal::range(lo, hi),
            None => observed().widen(LEAF_WIDEN),
        },
        Op::Param(..) => observed().widen(LEAF_WIDEN),
        Op::MatMul(a, b) => {
            let k = shapes[a.index()].cols.max_val();
            AbsVal::dot(v(*a), v(*b), k)
        }
        Op::Transpose(x) | Op::Reshape(x) | Op::SliceCols(x, _) | Op::GatherRows(x, _) => v(*x),
        Op::Add(a, b) => v(*a) + v(*b),
        Op::Sub(a, b) => v(*a) - v(*b),
        Op::Mul(a, b) => v(*a) * v(*b),
        Op::Scale(x, c) => {
            if !c.is_finite() {
                hazards.push((
                    HazardClass::NonFinite,
                    format!("scale constant is {c}; the output is non-finite by construction"),
                ));
            }
            v(*x).scale(*c as f64)
        }
        Op::AddScalar(x) => {
            // The added constant is not stored on the op; fall back to the
            // observed output range, keeping the input's (non-)finiteness.
            let vx = v(*x);
            if vx.non_finite() {
                vx
            } else {
                observed().widen(LEAF_WIDEN)
            }
        }
        Op::AddRow(x, row) => v(*x) + v(*row),
        Op::MulRow(x, row) => v(*x) * v(*row),
        Op::MulCol(x, col) => v(*x) * v(*col),
        Op::Relu(x) => v(*x).relu(),
        Op::LeakyRelu(x, slope) => v(*x).leaky_relu(*slope as f64),
        Op::Elu(x) => v(*x).elu(),
        Op::Sigmoid(x) => v(*x).sigmoid(),
        Op::Tanh(x) => v(*x).tanh(),
        Op::SoftmaxRows(x) => {
            let cols = shapes[x.index()].cols.max_val();
            let (out, div_zero) = AbsVal::softmax_out(v(*x), cols);
            if div_zero {
                hazards.push((
                    HazardClass::DivZero,
                    format!(
                        "a softmax row may be entirely -inf (input interval [{}, {}]): the \
                         normalizer is zero and every probability is NaN",
                        v(*x).lo,
                        v(*x).hi
                    ),
                ));
            }
            out
        }
        Op::LayerNormRows(x, _) => {
            let vx = v(*x);
            if vx.non_finite() {
                hazards.push((
                    HazardClass::NonFinite,
                    "layer norm of a possibly non-finite input: the mean subtraction yields NaN"
                        .to_string(),
                ));
                return AbsVal::top();
            }
            // |x_i − μ| ≤ √c · σ, so the standardized output is bounded by
            // √c regardless of the input magnitude.
            let bound = (shapes[x.index()].cols.max_val() as f64).sqrt();
            AbsVal::range(-bound, bound)
        }
        Op::Dropout(x, _) => {
            let mask_max = anchor_max!(anchors, node, Op::Dropout(_, m) =>
                m.data().iter().copied().fold(0.0f32, f32::max) as f64);
            v(*x) * AbsVal::range(0.0, mask_max.max(1.0))
        }
        Op::L2NormalizeRows(x, _) => {
            // The norm is clamped to ≥ ε, so the division is always safe and
            // each component lies in [−1, 1] (a degenerate ε-norm row keeps
            // finite, near-zero components).
            AbsVal { lo: -1.0, hi: 1.0, nan: v(*x).nan }
        }
        Op::ConcatCols(parts) | Op::ConcatRows(parts) => {
            let mut out = v(parts[0]);
            for &p in &parts[1..] {
                out = out.join(v(p));
            }
            out
        }
        Op::SegmentSum(x, _) => {
            // Bound by the worst-case segment length across anchors; an
            // empty segment contributes exactly zero, so the hull always
            // includes zero.
            let vx = v(*x);
            let mut longest = 1usize;
            for a in 0..NUM_ANCHORS {
                if let Op::SegmentSum(_, seg) = anchors.op(a, node) {
                    for s in 0..seg.num_segments() {
                        let r = seg.range(s);
                        longest = longest.max(r.end - r.start);
                    }
                }
            }
            let scaled = vx * AbsVal::exact(longest as f64);
            AbsVal { lo: scaled.lo.min(0.0), hi: scaled.hi.max(0.0), nan: scaled.nan }
        }
        Op::SegmentSoftmax(x, _) => {
            let (out, div_zero) = AbsVal::softmax_out(v(*x), 1);
            if div_zero {
                hazards.push((
                    HazardClass::DivZero,
                    "a segment-softmax segment may be entirely -inf: its normalizer is zero"
                        .to_string(),
                ));
            }
            out
        }
        Op::SumAll(x) => {
            let elems = (shapes[x.index()].rows * shapes[x.index()].cols).max_val().max(1);
            let scaled = v(*x) * AbsVal::exact(elems as f64);
            scaled.join(v(*x))
        }
        Op::MeanAll(x) => v(*x),
        Op::CrossEntropyRows { logits, .. } => {
            let vl = v(*logits);
            let classes = shapes[logits.index()].cols.max_val().max(1);
            if vl.nan || vl.lo == f64::NEG_INFINITY {
                hazards.push((
                    HazardClass::LogZero,
                    format!(
                        "a logit may be -inf (interval [{}, {}]): its softmax probability is \
                         exactly zero and the cross-entropy takes log(0)",
                        vl.lo, vl.hi
                    ),
                ));
                return AbsVal { lo: 0.0, hi: f64::INFINITY, nan: true };
            }
            let spread =
                if vl.hi.is_finite() && vl.lo.is_finite() { vl.hi - vl.lo } else { f64::INFINITY };
            AbsVal::range(0.0, spread + (classes as f64).ln()).fit_f32()
        }
        Op::MseLoss { pred, .. } => {
            let t_lo = -anchor_max!(anchors, node, Op::MseLoss { target, .. } =>
                target.data().iter().copied().fold(0.0f32, |m, t| m.max(-t)) as f64);
            let t_hi = anchor_max!(anchors, node, Op::MseLoss { target, .. } =>
                target.data().iter().copied().fold(0.0f32, f32::max) as f64);
            let diff = v(*pred) - AbsVal::range(t_lo, t_hi);
            let m = diff.mag();
            AbsVal { lo: 0.0, hi: m * m, nan: diff.nan }.fit_f32()
        }
        Op::MhAttention { q, k, v: vv, bias, .. } => {
            let (vq, vk, vvv) = (v(*q), v(*k), v(*vv));
            let bias_lo = bias.map_or(0.0, |b| v(b).lo);
            let score_unbounded =
                vq.non_finite() || vk.non_finite() || bias_lo == f64::NEG_INFINITY;
            if score_unbounded {
                hazards.push((
                    HazardClass::DivZero,
                    "an attention score row may be entirely -inf (or NaN): the softmax \
                     normalizer is zero"
                        .to_string(),
                ));
            }
            let mask_max = anchor_max!(anchors, node, Op::MhAttention { mask: Some(m), .. } =>
                m.data().iter().copied().fold(0.0f32, f32::max) as f64)
            .max(1.0);
            // Each output row is a convex combination of value rows, scaled
            // at most by the dropout keep-scale.
            let m = vvv.mag() * mask_max;
            AbsVal { lo: -m, hi: m, nan: vvv.nan || score_unbounded }.fit_f32()
        }
    }
}
// TRANSFER_TABLES_END — rule-4 span sentinel: both per-op tables above must
// name every `Op::<Kind>` declared in graph.rs's `op_kinds!` block.

// ---------------------------------------------------------------------------
// Verifier
// ---------------------------------------------------------------------------

/// Verify one model family at the given anchor sizes (strictly increasing).
/// Traces the family's tape at each anchor, aligns them, re-derives every
/// node under the symbolic dimension domain, runs the abstract value
/// interpretation, and audits gradient flow. See the module docs for the
/// finding classes.
pub fn verify_family(fam: &dyn TapeFamily, sizes: [usize; NUM_ANCHORS]) -> VerifyReport {
    assert!(
        sizes[0] < sizes[1] && sizes[1] < sizes[2],
        "anchor sizes must be strictly increasing, got {sizes:?}"
    );
    let mut report = VerifyReport { family: fam.name(), sizes, ..VerifyReport::default() };

    let mut graphs: Vec<Graph> = Vec::with_capacity(NUM_ANCHORS);
    let mut losses: Vec<NodeId> = Vec::with_capacity(NUM_ANCHORS);
    for &n in &sizes {
        let mut g = Graph::new(fam.store(), fam.train());
        match catch_unwind(AssertUnwindSafe(|| fam.record(&mut g, n))) {
            Ok(loss) => {
                losses.push(loss);
                graphs.push(g);
            }
            Err(payload) => {
                report.push(
                    FindingKind::RecordPanic,
                    None,
                    format!(
                        "building the tape at size n={n} panicked: {}",
                        panic_message(payload.as_ref())
                    ),
                );
                return report;
            }
        }
    }

    let anchors = Anchors { gs: [&graphs[0], &graphs[1], &graphs[2]], sizes };
    report.num_nodes = anchors.num_nodes();

    match check_alignment(&anchors) {
        Ok(()) => {
            if losses[1] != losses[0] || losses[2] != losses[0] {
                report.push(
                    FindingKind::StructureDivergence,
                    None,
                    format!(
                        "loss node differs between anchors ({}, {}, {})",
                        losses[0].index(),
                        losses[1].index(),
                        losses[2].index()
                    ),
                );
            }
            verify_anchors(fam, &anchors, losses[0], &mut report, true);
        }
        Err(why) => {
            report.push(
                FindingKind::StructureDivergence,
                None,
                format!(
                    "tape structure varies with the size knob ({why}); falling back to \
                     per-anchor concrete verification"
                ),
            );
            // Degenerate anchors: every Dim is Const, but shape, hazard,
            // and gradient-flow checks still run on each anchor tape.
            let mut merged: Vec<Finding> = Vec::new();
            for (a, g) in graphs.iter().enumerate() {
                let single = Anchors::single(g, sizes[a]);
                let mut sub = VerifyReport {
                    family: report.family.clone(),
                    sizes: single.sizes,
                    ..VerifyReport::default()
                };
                verify_anchors(fam, &single, losses[a], &mut sub, false);
                report.trained_params = report.trained_params.max(sub.trained_params);
                for f in sub.findings {
                    if !merged.contains(&f) {
                        merged.push(f);
                    }
                }
            }
            report.findings.extend(merged);
        }
    }
    report
}

/// Re-derive every node's shape with [`sym_shape`], flagging each
/// disagreement with the recorded tape as a `ShapeMismatch`. A node whose
/// rule fails continues downstream with its recorded shape, so one defect
/// does not cascade.
fn derive_shapes(anchors: &Anchors, findings: &mut Vec<Finding>) -> Vec<SymShape> {
    let sizes = anchors.sizes;
    let mut shapes: Vec<SymShape> = Vec::with_capacity(anchors.num_nodes());
    for idx in 0..anchors.num_nodes() {
        let actual = anchors.actual(idx);
        let (shape, problem) = match sym_shape(anchors, idx, &shapes, &sizes) {
            Ok(derived) if derived == actual => (derived, None),
            Ok(derived) => (
                derived,
                Some(format!(
                    "recorded value is {} but the shape rule gives {}",
                    actual.render(&sizes),
                    derived.render(&sizes)
                )),
            ),
            Err(msg) => (actual, Some(msg)),
        };
        if let Some(msg) = problem {
            findings.push(Finding {
                kind: FindingKind::ShapeMismatch,
                node: Some(NodeId(idx)),
                message: format!("{}: {msg}", anchors.op(0, idx).kind()),
            });
        }
        shapes.push(shape);
    }
    shapes
}

/// The shape pass of [`Graph::audit`]: the same rules over one concrete
/// tape, returning each node's derived `(rows, cols)`.
pub(crate) fn concrete_shapes(g: &Graph, findings: &mut Vec<Finding>) -> Vec<(usize, usize)> {
    derive_shapes(&Anchors::single(g, 0), findings).into_iter().map(|s| s.at(0)).collect()
}

/// The shared core: symbolic shapes, abstract interpretation, and gradient
/// flow over one aligned anchor set. `keep_shapes` stores the derived
/// symbolic shapes on the report (skipped for the per-anchor fallback, where
/// they would be all-Const and anchor-specific).
fn verify_anchors(
    fam: &dyn TapeFamily,
    anchors: &Anchors,
    loss: NodeId,
    report: &mut VerifyReport,
    keep_shapes: bool,
) {
    let n = anchors.num_nodes();
    let sizes = anchors.sizes;

    // 1. Symbolic shape re-derivation.
    let shapes = derive_shapes(anchors, &mut report.findings);

    // 2. Abstract value interpretation with hazard detection.
    let mut vals: Vec<AbsVal> = Vec::with_capacity(n);
    for idx in 0..n {
        let leaf_override = match anchors.op(0, idx) {
            Op::Input => fam.leaf_bounds(idx),
            _ => None,
        };
        let mut hazards = Vec::new();
        let out = abs_transfer(anchors, idx, &vals, &shapes, leaf_override, &mut hazards);
        for (class, message) in hazards {
            report.push(
                FindingKind::Hazard(class),
                Some(idx),
                format!(
                    "{} ({}): {message}",
                    anchors.op(0, idx).kind(),
                    shapes[idx].render(&sizes)
                ),
            );
        }
        vals.push(out);
    }

    // 3. Loss shape (training tapes must reduce to a scalar).
    if fam.train()
        && shapes[loss.index()] != (SymShape { rows: Dim::splat(1), cols: Dim::splat(1) })
    {
        report.push(
            FindingKind::LossNotScalar,
            Some(loss.index()),
            format!("training loss must be 1x1 but is {}", shapes[loss.index()].render(&sizes)),
        );
    }

    // 4. Eval-mode dropout.
    eval_mode_dropout(anchors.gs[0], &mut report.findings);

    if keep_shapes {
        report.shapes = shapes;
    }

    // 5. Gradient-flow audit (training tapes only).
    if fam.train() {
        grad_flow_audit(fam, anchors, loss, &vals, report);
    }
}

/// Symbolic gradient-flow audit: reachability from the loss over
/// differentiable edges, with zero-multiplier edges (scale-by-zero,
/// multiply-by-provably-zero) removed, checked against the parameter store
/// and the stop-gradient log.
fn grad_flow_audit(
    fam: &dyn TapeFamily,
    anchors: &Anchors,
    loss: NodeId,
    vals: &[AbsVal],
    report: &mut VerifyReport,
) {
    let g0 = anchors.gs[0];
    let n = anchors.num_nodes();
    let zero = |id: NodeId| vals[id.index()].is_exactly_zero();

    // Gradient edges of node idx: its inputs minus provably-zero-multiplier
    // operands. (A detached stop-gradient node is an Input leaf: it has no
    // edges at all, which is what blocks the flow.)
    let grad_edges = |idx: usize| -> Vec<NodeId> {
        match anchors.op(0, idx) {
            Op::Scale(x, c) => {
                if *c == 0.0 {
                    Vec::new()
                } else {
                    vec![*x]
                }
            }
            Op::Mul(a, b) => {
                let mut out = Vec::new();
                if !zero(*b) {
                    out.push(*a);
                }
                if !zero(*a) {
                    out.push(*b);
                }
                out
            }
            Op::MulRow(x, r) => {
                let mut out = Vec::new();
                if !zero(*r) {
                    out.push(*x);
                }
                if !zero(*x) {
                    out.push(*r);
                }
                out
            }
            Op::MulCol(x, c) => {
                let mut out = Vec::new();
                if !zero(*c) {
                    out.push(*x);
                }
                if !zero(*x) {
                    out.push(*c);
                }
                out
            }
            op => op.inputs(),
        }
    };

    // Reverse reachability from the loss: over gradient edges, and over all
    // edges (to tell "zero multiplier" apart from "not connected").
    let mut grad_reach = vec![false; n];
    let mut all_reach = vec![false; n];
    grad_reach[loss.index()] = true;
    all_reach[loss.index()] = true;
    for idx in (0..=loss.index()).rev() {
        if grad_reach[idx] {
            for input in grad_edges(idx) {
                grad_reach[input.index()] = true;
            }
        }
        if all_reach[idx] {
            for input in anchors.op(0, idx).inputs() {
                all_reach[input.index()] = true;
            }
        }
    }

    // Ancestors of stop-gradient sources (the detached towers).
    let sg_pairs = g0.stop_gradient_pairs().to_vec();
    let mut sg_ancestor = vec![false; n];
    for &(src, _) in &sg_pairs {
        let mut stack = vec![src.index()];
        while let Some(idx) = stack.pop() {
            if sg_ancestor[idx] {
                continue;
            }
            sg_ancestor[idx] = true;
            for input in anchors.op(0, idx).inputs() {
                stack.push(input.index());
            }
        }
    }

    // Parameter leaves on the tape.
    let store = fam.store();
    let mut leaves: Vec<Vec<usize>> = vec![Vec::new(); store.len()];
    for idx in 0..n {
        if let Op::Param(pid) = anchors.op(0, idx) {
            leaves[pid.index()].push(idx);
        }
    }

    let mut unused = 0usize;
    let mut unused_sample: Vec<String> = Vec::new();
    let mut trained = 0usize;
    for pid in store.ids() {
        let ls = &leaves[pid.index()];
        if ls.is_empty() {
            unused += 1;
            if unused_sample.len() < 4 {
                unused_sample.push(format!("{:?}", store.name(pid)));
            }
            continue;
        }
        let grad_ok = ls.iter().any(|&l| grad_reach[l]);
        if grad_ok {
            trained += 1;
            // A trained parameter that also feeds a stop-gradient source is
            // a leak: the detachment did not isolate the tower.
            if ls.iter().any(|&l| sg_ancestor[l]) {
                report.push(
                    FindingKind::StopGradientLeak,
                    None,
                    format!(
                        "parameter {:?} feeds a stop_gradient source but still receives \
                         gradient through a non-detached path — the detached tower is not \
                         isolated",
                        store.name(pid)
                    ),
                );
            }
            continue;
        }
        if ls.iter().any(|&l| sg_ancestor[l]) {
            report.push(
                FindingKind::FrozenTower,
                None,
                format!(
                    "parameter {:?} is reachable only through stop_gradient (frozen tower); \
                     it receives no gradient from this loss",
                    store.name(pid)
                ),
            );
        } else if ls.iter().any(|&l| all_reach[l]) {
            report.push(
                FindingKind::ZeroGradParam,
                None,
                format!(
                    "parameter {:?} reaches the loss only through provably-zero multipliers; \
                     its gradient is guaranteed zero",
                    store.name(pid)
                ),
            );
        } else {
            report.push(
                FindingKind::UnreachableParam,
                None,
                format!(
                    "parameter {:?} is bound to the tape but cannot reach the loss",
                    store.name(pid)
                ),
            );
        }
    }
    report.trained_params = trained;

    if unused > 0 {
        report.push(
            FindingKind::UnusedParam,
            None,
            format!(
                "{unused} store parameter(s) not bound to this family's tape (e.g. {}) — \
                 expected for per-task heads",
                unused_sample.join(", ")
            ),
        );
    }

    if trained == 0 {
        let sg_note = if sg_pairs.is_empty() {
            String::new()
        } else {
            format!(
                " (the tape records {} stop_gradient detachment(s) — the target tower may be \
                 fully detached)",
                sg_pairs.len()
            )
        };
        report.push(
            FindingKind::LossDisconnected,
            Some(loss.index()),
            format!("no parameter receives gradient from this loss{sg_note}"),
        );
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Array;
    use crate::params::{Init, ParamId, ParamStore};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct MiniFam {
        store: ParamStore,
        pid: ParamId,
    }

    impl MiniFam {
        fn new() -> Self {
            let mut rng = StdRng::seed_from_u64(2);
            let mut store = ParamStore::new();
            let pid = store.param("w", 3, 3, Init::Uniform(0.5), &mut rng);
            MiniFam { store, pid }
        }
    }

    impl TapeFamily for MiniFam {
        fn name(&self) -> String {
            "mini".to_string()
        }

        fn store(&self) -> &ParamStore {
            &self.store
        }

        fn record<'s>(&'s self, g: &mut Graph<'s>, n: usize) -> NodeId {
            let data: Vec<f32> = (0..n * 3).map(|i| 0.1 + (i % 7) as f32 / 10.0).collect();
            let x = g.input(Array::from_vec(n, 3, data));
            let p = g.param(self.pid);
            let h = g.matmul(x, p);
            let r = g.relu(h);
            g.mean_all(r)
        }
    }

    /// A recorded value that disagrees with the symbolic derivation at one
    /// anchor is flagged with a finding naming the op and both symbolic
    /// shapes (the acceptance-criteria "finding naming the op and symbolic
    /// shapes" demonstration: eager asserts catch concrete mismatches at
    /// record time, so the mismatch is seeded post-record, the same way the
    /// concrete auditor's tests do).
    #[test]
    fn corrupted_tape_names_op_and_symbolic_shapes() {
        let fam = MiniFam::new();
        let sizes = [5usize, 8, 11];
        let mut graphs = Vec::new();
        let mut losses = Vec::new();
        for &n in &sizes {
            let mut g = Graph::new(fam.store(), true);
            let loss = fam.record(&mut g, n);
            losses.push(loss);
            graphs.push(g);
        }
        // Node 2 is the matmul; shrink its recorded value at the middle
        // anchor only.
        graphs[1].nodes[2].value = Array::zeros(2, 3);

        let anchors = Anchors { gs: [&graphs[0], &graphs[1], &graphs[2]], sizes };
        let mut report =
            VerifyReport { family: "mini".to_string(), sizes, ..VerifyReport::default() };
        verify_anchors(&fam, &anchors, losses[0], &mut report, true);

        let finding = report
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::ShapeMismatch)
            .unwrap_or_else(|| panic!("no shape-mismatch finding in:\n{report}"));
        assert_eq!(finding.node, Some(NodeId(2)));
        assert!(
            finding.message.contains("MatMul")
                && finding.message.contains("nx3")
                && finding.message.contains("⟨5|2|11⟩x3"),
            "finding must name the op and both symbolic shapes: {finding}"
        );
        assert!(report.has_errors());
    }

    /// Which saved payload [`CorruptFam`] breaks after recording.
    #[derive(Clone, Copy)]
    enum Payload {
        Attn,
        Softmax,
    }

    /// Fused attention into a cross-entropy loss, with one saved payload
    /// shrunk after recording — the way a buggy kernel would leave it.
    /// Eager asserts check outputs, not payloads, so only the shape rules
    /// can catch this.
    struct CorruptFam {
        mini: MiniFam,
        payload: Payload,
    }

    impl TapeFamily for CorruptFam {
        fn name(&self) -> String {
            "corrupt".to_string()
        }

        fn store(&self) -> &ParamStore {
            &self.mini.store
        }

        fn record<'s>(&'s self, g: &mut Graph<'s>, n: usize) -> NodeId {
            let mut rng = StdRng::seed_from_u64(1);
            let x = g.input(Array::from_fn(n, 3, |r, c| 0.1 + ((r * 3 + c) % 5) as f32 / 10.0));
            let w = g.param(self.mini.pid);
            let h = g.matmul(x, w);
            let att = g.mh_attention(h, h, h, None, 3, 0.0, &mut rng);
            let targets = std::sync::Arc::new((0..n as u32).map(|i| i % 3).collect());
            let loss = g.cross_entropy_rows(att, targets);
            let corrupt = match self.payload {
                Payload::Attn => att,
                Payload::Softmax => loss,
            };
            match &mut g.nodes[corrupt.index()].op {
                Op::MhAttention { attn: saved, .. }
                | Op::CrossEntropyRows { softmax: saved, .. } => *saved = Array::zeros(1, 1),
                _ => unreachable!("tape layout changed"),
            }
            loss
        }
    }

    /// A corrupted saved payload is a `ShapeMismatch` at its node from both
    /// checkers, since both run the same shape rules.
    #[test]
    fn corrupted_payloads_fail_audit_and_verify_alike() {
        for (payload, node, what) in
            [(Payload::Attn, 3, "saved attn"), (Payload::Softmax, 4, "saved softmax")]
        {
            let fam = CorruptFam { mini: MiniFam::new(), payload };
            let mut g = Graph::new(fam.store(), true);
            let loss = fam.record(&mut g, 5);
            let audit = g.audit(loss);
            let report = verify_family(&fam, DEFAULT_ANCHORS);
            for findings in [&audit.findings, &report.findings] {
                let hit = findings
                    .iter()
                    .find(|f| f.kind == FindingKind::ShapeMismatch)
                    .unwrap_or_else(|| panic!("{what}: no shape mismatch in {findings:?}"));
                assert_eq!(hit.node, Some(NodeId(node)), "{hit}");
                assert!(hit.message.contains(what), "{hit}");
            }
        }
    }

    #[test]
    fn absval_domain_ops_behave() {
        let a = AbsVal::range(-1.0, 2.0);
        let b = AbsVal::range(0.5, 3.0);

        let j = a.join(b);
        assert_eq!((j.lo, j.hi, j.nan), (-1.0, 3.0, false));

        let (l, log_zero) = b.log();
        assert!(!log_zero);
        assert!(l.lo < l.hi && l.lo.is_finite());
        let (_, log_zero) = a.log();
        assert!(log_zero, "an interval touching zero must flag log(0)");

        let (r, div_zero) = b.recip();
        assert!(!div_zero);
        assert!((r.lo - 1.0 / 3.0).abs() < 1e-12 && (r.hi - 2.0).abs() < 1e-12);
        let (_, div_zero) = a.recip();
        assert!(div_zero, "an interval containing zero must flag 1/0");

        let w = AbsVal::range(0.5, 2.0).widen(4.0);
        assert!((w.lo - 0.125).abs() < 1e-12 && (w.hi - 8.0).abs() < 1e-12);
        assert!(w.lo > 0.0, "widening must preserve the sign of a positive interval");

        // 0 · ∞ must poison the result with NaN, not silently pick a bound.
        let z = AbsVal::exact(0.0) * AbsVal::top();
        assert!(z.nan);

        // Bounds past f32 range saturate to ∞ and read as non-finite.
        let big = AbsVal::range(0.0, 1e30) * AbsVal::range(0.0, 1e30);
        assert_eq!(big.hi, f64::INFINITY);
        assert!(big.non_finite());
    }

    #[test]
    fn softmax_bounds_are_sound_and_finite() {
        let (out, div_zero) = AbsVal::softmax_out(AbsVal::range(-3.0, 3.0), 4);
        assert!(!div_zero);
        assert!(out.lo > 0.0 && out.hi == 1.0 && !out.nan);

        let (out, div_zero) =
            AbsVal::softmax_out(AbsVal { lo: f64::NEG_INFINITY, hi: 3.0, nan: false }, 4);
        assert!(div_zero, "a possibly all--inf row must flag the zero normalizer");
        assert!(out.nan);
    }
}
