//! Serving-tier configuration: [`ServeConfig`] (each replica of a
//! [`Router`], plus the router's one kNN index) and [`RouterConfig`] (the replica count plus that
//! per-replica tuning), each with the same `builder()` +
//! typed-validation-error treatment `StartConfig` has — the only
//! construction path the workspace lint accepts outside this file (rule 5
//! `no-config-literal`).
//!
//! [`Router`]: crate::router::Router

use std::time::Duration;

use start_ann::{HnswConfig, HnswConfigError};

/// Which kNN backend the router builds behind its `index`/`knn`
/// endpoints. Swapping kinds changes latency/recall economics only — the
/// endpoint API and the deterministic tie-break stay identical.
#[derive(Debug, Clone, Default)]
pub enum IndexKind {
    /// Exact brute-force scan ([`crate::store::EmbeddingStore`]) — the
    /// recall ground truth; right up to ~10⁵ embeddings.
    #[default]
    BruteForce,
    /// Approximate HNSW graph ([`start_ann::Hnsw`]) — the scaling path for
    /// million-embedding stores; recall governed by
    /// [`HnswConfig::ef_search`].
    Hnsw(HnswConfig),
}

/// Tunables for each replica of a [`crate::router::Router`]; `index`
/// configures the router's one kNN index.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Encode worker threads (minimum 1).
    pub workers: usize,
    /// Flush a micro-batch at this many requests. No batch runs the
    /// TPE-GAT road stage: the router builds the road matrix once per
    /// model version, so a batch pays only per-view TAT-Enc, cache lookups
    /// and one tape per 64 views.
    pub max_batch: usize,
    /// Flush a micro-batch this long after its first request is picked up,
    /// even if it is not full. Zero disables batching-by-wait; a budget too
    /// large to add to the clock (such as `Duration::MAX`) waits untimed,
    /// for a full batch or a shutdown.
    pub max_wait: Duration,
    /// Bounded submission-queue capacity; `submit` blocks and `try_submit`
    /// fails once this many requests are pending.
    pub queue_cap: usize,
    /// Capacity of each replica's embedding cache, in entries (exact); 0
    /// disables caching.
    pub cache_capacity: usize,
    /// Backend of the router's one kNN index behind `index`/`knn` (brute
    /// force by default). Not per replica: a router holds one index.
    /// A reduced-precision index is an HNSW one with
    /// [`HnswConfig::precision`] set.
    pub index: IndexKind,
    /// Test hook: stall each worker this long before it starts draining,
    /// making queue-full conditions deterministic.
    #[doc(hidden)]
    pub worker_warmup: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_batch: 16,
            max_wait: Duration::from_millis(2),
            queue_cap: 256,
            cache_capacity: 4096,
            index: IndexKind::default(),
            worker_warmup: None,
        }
    }
}

impl ServeConfig {
    /// Builder seeded from [`ServeConfig::default`]; `build()` validates.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder { cfg: Self::default() }
    }

    /// Builder seeded from this config (tweak-and-revalidate).
    pub fn to_builder(&self) -> ServeConfigBuilder {
        ServeConfigBuilder { cfg: self.clone() }
    }

    /// Check the invariants `Router::start` would otherwise normalize
    /// silently: at least one worker, a non-empty micro-batch budget, a
    /// usable queue, and a valid HNSW tuning when one is chosen.
    pub fn validate(&self) -> Result<(), ServeConfigError> {
        if self.workers == 0 {
            return Err(ServeConfigError::ZeroWorkers);
        }
        if self.max_batch == 0 {
            return Err(ServeConfigError::ZeroMaxBatch);
        }
        if self.queue_cap == 0 {
            return Err(ServeConfigError::ZeroQueueCap);
        }
        if let IndexKind::Hnsw(hnsw) = &self.index {
            hnsw.validate()?;
        }
        Ok(())
    }
}

/// Why a [`ServeConfigBuilder::build`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeConfigError {
    /// A worker-less service would accept requests and never answer them.
    ZeroWorkers,
    /// A zero-request micro-batch can never flush.
    ZeroMaxBatch,
    /// A zero-capacity queue rejects every submission.
    ZeroQueueCap,
    /// The chosen HNSW backend tuning is invalid.
    Hnsw(HnswConfigError),
}

impl std::fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroWorkers => write!(f, "serve config: workers must be at least 1"),
            Self::ZeroMaxBatch => write!(f, "serve config: max_batch must be at least 1"),
            Self::ZeroQueueCap => write!(f, "serve config: queue_cap must be at least 1"),
            Self::Hnsw(e) => write!(f, "serve config: {e}"),
        }
    }
}

impl std::error::Error for ServeConfigError {}

impl From<HnswConfigError> for ServeConfigError {
    fn from(e: HnswConfigError) -> Self {
        Self::Hnsw(e)
    }
}

/// Chainable builder for [`ServeConfig`].
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    pub fn workers(mut self, workers: usize) -> Self {
        self.cfg.workers = workers;
        self
    }

    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.cfg.max_batch = max_batch;
        self
    }

    pub fn max_wait(mut self, max_wait: Duration) -> Self {
        self.cfg.max_wait = max_wait;
        self
    }

    pub fn queue_cap(mut self, queue_cap: usize) -> Self {
        self.cfg.queue_cap = queue_cap;
        self
    }

    pub fn cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.cfg.cache_capacity = cache_capacity;
        self
    }

    pub fn index(mut self, index: IndexKind) -> Self {
        self.cfg.index = index;
        self
    }

    #[doc(hidden)]
    pub fn worker_warmup(mut self, warmup: Duration) -> Self {
        self.cfg.worker_warmup = Some(warmup);
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<ServeConfig, ServeConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Tunables for [`crate::router::Router::start`]: how many replicas to
/// shard requests over, and the per-replica tuning. Note `cache_capacity`
/// is **per replica** — fingerprint sharding means replicas cache disjoint
/// slices of the working set, so aggregate capacity grows linearly with
/// the replica count.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Replica count (minimum 1); the shard of a request is its trajectory
    /// fingerprint mod this.
    pub replicas: usize,
    /// Configuration applied to every replica.
    pub serve: ServeConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self { replicas: 2, serve: ServeConfig::default() }
    }
}

impl RouterConfig {
    /// Builder seeded from [`RouterConfig::default`]; `build()` validates.
    pub fn builder() -> RouterConfigBuilder {
        RouterConfigBuilder { cfg: Self::default() }
    }

    /// Builder seeded from this config (tweak-and-revalidate).
    pub fn to_builder(&self) -> RouterConfigBuilder {
        RouterConfigBuilder { cfg: self.clone() }
    }

    pub fn validate(&self) -> Result<(), RouterConfigError> {
        if self.replicas == 0 {
            return Err(RouterConfigError::ZeroReplicas);
        }
        self.serve.validate()?;
        Ok(())
    }
}

/// Why a [`RouterConfigBuilder::build`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterConfigError {
    /// A router with no replicas has nowhere to route.
    ZeroReplicas,
    /// The per-replica service config is invalid.
    Serve(ServeConfigError),
}

impl std::fmt::Display for RouterConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroReplicas => write!(f, "router config: replicas must be at least 1"),
            Self::Serve(e) => write!(f, "router config: {e}"),
        }
    }
}

impl std::error::Error for RouterConfigError {}

impl From<ServeConfigError> for RouterConfigError {
    fn from(e: ServeConfigError) -> Self {
        Self::Serve(e)
    }
}

/// Chainable builder for [`RouterConfig`].
#[derive(Debug, Clone)]
pub struct RouterConfigBuilder {
    cfg: RouterConfig,
}

impl RouterConfigBuilder {
    pub fn replicas(mut self, replicas: usize) -> Self {
        self.cfg.replicas = replicas;
        self
    }

    pub fn serve(mut self, serve: ServeConfig) -> Self {
        self.cfg.serve = serve;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<RouterConfig, RouterConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(ServeConfig::default().validate().is_ok());
        assert!(RouterConfig::default().validate().is_ok());
    }

    #[test]
    fn builders_reject_degenerate_configs_with_typed_errors() {
        assert_eq!(
            ServeConfig::builder().workers(0).build().unwrap_err(),
            ServeConfigError::ZeroWorkers
        );
        assert_eq!(
            ServeConfig::builder().max_batch(0).build().unwrap_err(),
            ServeConfigError::ZeroMaxBatch
        );
        assert_eq!(
            ServeConfig::builder().queue_cap(0).build().unwrap_err(),
            ServeConfigError::ZeroQueueCap
        );
        assert_eq!(
            RouterConfig::builder().replicas(0).build().unwrap_err(),
            RouterConfigError::ZeroReplicas
        );
    }

    #[test]
    fn invalid_nested_configs_surface_through_the_outer_builder() {
        let bad_hnsw = HnswConfig { m: 1, ..HnswConfig::default() };
        let err = ServeConfig::builder().index(IndexKind::Hnsw(bad_hnsw.clone())).build();
        assert_eq!(
            err.unwrap_err(),
            ServeConfigError::Hnsw(HnswConfigError::MOutOfRange { got: 1 })
        );

        let serve = ServeConfig { workers: 0, ..ServeConfig::default() };
        let err = RouterConfig::builder().serve(serve).build();
        assert_eq!(err.unwrap_err(), RouterConfigError::Serve(ServeConfigError::ZeroWorkers));
    }

    #[test]
    fn to_builder_round_trips() {
        let cfg = ServeConfig::builder().workers(3).cache_capacity(11).build().unwrap();
        let again = cfg.to_builder().build().unwrap();
        assert_eq!(again.workers, 3);
        assert_eq!(again.cache_capacity, 11);

        let rc = RouterConfig::builder().replicas(4).build().unwrap();
        assert_eq!(rc.to_builder().build().unwrap().replicas, 4);
    }
}
