//! `start-serve`: the online inference layer over a trained
//! [`StartModel`](start_core::StartModel).
//!
//! Offline evaluation encodes a dataset once; serving answers a stream of
//! single-trajectory requests. The client-facing entry point is the
//! [`router::Router`]: N [`service::EmbeddingService`] replicas sharded by
//! 128-bit trajectory fingerprint (same trajectory → same replica, across
//! restarts), behind one `submit`/`knn`/`index`/`stats` surface. Each
//! replica is a bounded submission queue, encode workers that micro-batch
//! requests (flush on `max_batch` or `max_wait`), a sharded LRU
//! [`EmbeddingCache`](start_core::encoder::EmbeddingCache) pinned to the
//! current model-version epoch, and a kNN endpoint behind the
//! [`VectorIndex`](start_ann::VectorIndex) seam — the exact brute-force
//! [`store::EmbeddingStore`] by default, the approximate
//! [`Hnsw`](start_ann::Hnsw) graph via
//! [`ServeConfig::index`](config::ServeConfig) — all answering through
//! typed handles with a typed [`error::ServeError`] surface.
//!
//! Checkpoints hot-swap without downtime: [`router::Router::publish`]
//! double-buffers the model behind a versioned slot per replica, drains
//! in-flight micro-batches on the old version, and starts fresh caches at
//! the new version epoch — zero dropped replies, zero stale bits, every
//! reply tagged with the version that produced it
//! ([`service::EmbeddingHandle::wait_versioned`]).
//!
//! The service is a scheduler, not a second encoder: every batch goes
//! through the same [`Encoder`](start_core::encoder::Encoder) facade the
//! offline paths use, so a served embedding is bit-for-bit the embedding
//! `Encoder::encode` would have produced, regardless of worker count,
//! replica count, batch composition, or arrival order.

pub mod config;
pub mod error;
pub mod router;
pub mod service;
pub mod stats;
pub mod store;

pub use config::{
    IndexKind, RouterConfig, RouterConfigBuilder, RouterConfigError, ServeConfig,
    ServeConfigBuilder, ServeConfigError,
};
pub use error::ServeError;
pub use router::{fold_fingerprint, Router, RouterStats};
pub use service::{EmbeddingHandle, EmbeddingService, PublishReport};
pub use start_ann::{
    AnnError, Hnsw, HnswConfig, HnswConfigBuilder, HnswConfigError, Precision, VectorIndex,
};
pub use stats::{Histogram, HistogramSnapshot, ServiceStats};
pub use store::{EmbeddingStore, Neighbor};
