//! `start-serve`: the online inference layer over a trained
//! [`StartModel`](start_core::StartModel).
//!
//! Offline evaluation encodes a dataset once; serving answers a stream of
//! single-trajectory requests. The one serving type is the [`Router`]: N
//! private replicas sharded by 128-bit trajectory fingerprint (same
//! trajectory → same replica, across restarts), behind one
//! `submit`/`knn`/`index`/`publish`/`stats` surface. Each replica is a
//! bounded submission queue, encode workers that micro-batch requests
//! (an idle worker dispatches what it wakes to at once; a worker back from
//! a batch that finds work queued flushes on `max_batch` or `max_wait`)
//! and an exact-capacity LRU
//! [`EmbeddingCache`](start_core::encoder::EmbeddingCache) pinned to the
//! current model-version epoch. The router itself owns the one kNN index
//! behind the [`VectorIndex`] seam — the exact brute-force
//! [`EmbeddingStore`] by default, the approximate [`Hnsw`] graph via
//! [`ServeConfig::index`] — so a kNN answer does not depend on the
//! replica count. Everything answers through typed handles with a typed
//! [`ServeError`] surface.
//!
//! The slot holds each model version as a
//! [`FrozenModel`](start_core::FrozenModel): the weights with the TPE-GAT
//! road matrix built from them, once per version, so no micro-batch runs
//! the road stage. Checkpoints hot-swap without downtime:
//! [`Router::publish`] double-buffers the model behind the one versioned
//! slot every replica reads, drains in-flight micro-batches on the old version, and starts
//! fresh caches at the new version epoch — zero dropped replies, zero
//! stale bits, every reply tagged with the version that produced it
//! ([`EmbeddingHandle::wait_versioned`]).
//!
//! The router is a scheduler, not a second encoder: every batch goes
//! through the same [`Encoder`](start_core::encoder::Encoder) facade the
//! offline paths use, so a served embedding is bit-for-bit the embedding
//! `Encoder::encode` would have produced, regardless of worker count,
//! replica count, batch composition, or arrival order.

pub mod config;
pub mod error;
pub mod router;
mod service;
pub mod stats;
pub mod store;

pub use config::{
    IndexKind, RouterConfig, RouterConfigBuilder, RouterConfigError, ServeConfig,
    ServeConfigBuilder, ServeConfigError,
};
pub use error::ServeError;
pub use router::{fold_fingerprint, PublishReport, Router, RouterStats};
pub use service::EmbeddingHandle;
pub use start_ann::{AnnError, Hnsw, HnswConfig, HnswConfigBuilder, HnswConfigError, VectorIndex};
pub use stats::{Histogram, HistogramSnapshot, ServiceStats};
pub use store::{EmbeddingStore, Neighbor};
