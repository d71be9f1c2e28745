//! `start-nn`: the deep-learning substrate for the START reproduction.
//!
//! A deliberately small, pure-Rust, CPU-only stack providing exactly what the
//! START paper's equations require:
//!
//! - [`array::Array`] — dense row-major `f32` matrices with hand-rolled
//!   kernels (threaded matmul, fused transposed products, stable softmax);
//! - [`backend`] — the kernel `Backend` seam: blocked-scalar reference
//!   kernels plus a runtime-detected AVX2+FMA SIMD backend, selected via
//!   `START_BACKEND` or [`backend::set_backend`];
//! - [`graph::Graph`] — define-by-run reverse-mode autodiff with sparse
//!   segment ops for GAT message passing and fused losses;
//! - [`params::ParamStore`] / [`params::GradStore`] — named weights and
//!   gradient accumulation, shareable immutably across inference threads;
//! - [`layers`] — Linear, Embedding, LayerNorm, multi-head attention with an
//!   additive score-bias hook (the paper's Eq. 7), FFN, Transformer encoder,
//!   GRU (for the seq2seq baselines), sinusoidal positions;
//! - [`optim::AdamW`] + [`schedule::WarmupCosine`] — the paper's §IV-C2
//!   training recipe;
//! - [`train::fit`] — the one training loop (shuffle, batch, AdamW under
//!   warm-up + cosine decay, first-tape audit) over [`train::BatchTrainer`],
//!   the data-parallel engine that shards each batch over scoped worker
//!   threads and merges per-worker gradients deterministically;
//! - [`serialize`] — checkpoint codec used by the transfer experiments
//!   (Table III);
//! - [`audit`] — concrete tape checks: dead-node / zero-gradient-parameter
//!   detection and a first-NaN tracer, over the shape rules of
//!   [`symbolic`], the config-time verifier; both report [`Finding`]s;
//! - [`liveness`] — static memory planner: per-node forward/backward
//!   last-use analysis, a pooled release schedule executed by
//!   [`graph::Graph::backward_planned`], and an aliasing sanitizer
//!   (`START_SANITIZE`) that aborts on use-after-release;
//! - [`gradcheck`] — central-difference verification helpers.
//!
//! Gradient correctness is enforced by finite-difference checks over every
//! operator in `tests/gradcheck.rs`; an exhaustiveness guard there fails as
//! soon as a [`graph::OpKind`] has no covering check.

pub mod array;
pub mod audit;
pub mod backend;
pub mod finding;
pub mod gradcheck;
pub mod graph;
pub mod layers;
pub mod liveness;
pub mod optim;
pub mod params;
pub mod pool;
pub mod schedule;
pub mod serialize;
mod simd;
pub mod symbolic;
pub mod train;

pub use array::Array;
pub use audit::{AuditReport, NonFiniteTrace};
pub use backend::{set_backend, Backend, BackendKind};
pub use finding::{Finding, FindingKind, Findings, HazardClass, Severity};
pub use graph::{Graph, MemoryStats, NodeId, OpKind, Segments};
pub use liveness::{memory_planning_enabled, sanitize_enabled, MemoryPlan};
pub use optim::{AdamW, AdamWConfig};
pub use params::{GradStore, Init, ParamId, ParamStore};
pub use pool::{BufferPool, PoolStats};
pub use schedule::WarmupCosine;
pub use symbolic::{
    verify_family, AbsVal, Dim, DimFit, SymShape, TapeFamily, VerifyReport, DEFAULT_ANCHORS,
    NUM_ANCHORS,
};
pub use train::{
    fit, BatchTrainer, MemoryReport, PublishCadence, ShardResult, StepStats, TrainConfig,
    Trainable, Warmup,
};
