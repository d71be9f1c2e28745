//! [`Router`]: the serving front-end — N private replicas (a queue, its
//! encode workers and its counters each) behind one
//! `submit`/`knn`/`index`/`publish`/`stats` surface, all reading one
//! versioned model slot and all indexing into one kNN index.
//!
//! ## Fingerprint partitioning
//!
//! A request's shard is a pure function of its content: the 128-bit
//! trajectory [`Fingerprint`](start_core::Fingerprint) from
//! [`fingerprint_view`], folded through [`fold_fingerprint`] (a nonlinear
//! 64-bit finalizer — see its docs for why raw FNV bits would skew
//! placement) and reduced mod the replica count. The same trajectory
//! therefore always lands on the same replica — across router restarts,
//! across differing per-replica worker counts, across processes — which is
//! what makes per-replica caches *partitions* of the working set rather
//! than copies: each replica's LRU [`EmbeddingCache`] holds only its own
//! shard's trajectories, so aggregate cache capacity scales linearly with
//! the replica count with zero duplication. (The fingerprint covers the
//! view as submitted; the encoder clamps it to `max_len` later, inside the
//! replica, so clamping does not influence placement.)
//!
//! ## One kNN index
//!
//! The router owns the one kNN index (`cfg.serve.index`) and the version
//! tag of every entry, behind one `RwLock`. Replicas only encode: an
//! insert or a query takes the one lock and touches the one index, so a
//! kNN answer is the same bits whatever the replica count — exact or HNSW
//! alike.
//!
//! ## Hot swap
//!
//! The router holds one model slot — `(version, frozen model, one cache
//! per replica, in-flight counter)` behind one `RwLock` — that every
//! replica reads, so there is one model version router-wide. The frozen
//! model ([`FrozenModel`]) is the weights plus the TPE-GAT road matrix
//! built from them: [`Router::start`] and [`Router::publish`] run the road
//! stage once per version, before the slot's write lock, and no
//! micro-batch runs it again. [`Router::publish`] swaps the slot once and
//! drains the old version's in-flight micro-batches once (see the
//! `service` module docs): every
//! reply is tagged with the version that produced it, and every kNN entry
//! with the version that produced its vector.
//!
//! [`EmbeddingCache`]: start_core::EmbeddingCache
//! [`FrozenModel`]: start_core::FrozenModel

use std::collections::HashMap;
use std::thread::JoinHandle;

use start_core::encoder::fingerprint_view;
use start_core::{Embedding, FrozenModel, StartModel};
use start_sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use start_traj::{TrajView, Trajectory};

use start_ann::{AnnError, Hnsw, VectorIndex};

use crate::config::{IndexKind, RouterConfig};
use crate::error::ServeError;
use crate::service::{read_slot, EmbeddingHandle, EmbeddingService, ModelSlot};
use crate::stats::ServiceStats;
use crate::store::{EmbeddingStore, Neighbor};

/// Fold a 128-bit fingerprint into the 64-bit value replica selection
/// reduces mod the replica count: the halves are xor-combined and pushed
/// through the 64-bit murmur3 finalizer.
///
/// Raw fingerprint bits must NOT be used here. Bit 0 of an FNV-1a stream
/// is a *linear* function of the input bytes — the parity of their low
/// bits, since xor preserves parity and the odd-prime multiply never
/// changes it — and the fingerprint's two halves feed identical bytes, so
/// their parities differ only by a constant. Place by raw low (or high)
/// bits and the replica becomes a parity of the content: inputs that share
/// a parity class all land on one replica while another sits idle with an
/// empty cache. The finalizer's shift-xor-multiply rounds make every
/// output bit a nonlinear mix of all 128 input bits, so placement stays
/// balanced whatever the inputs' parities.
pub fn fold_fingerprint(fp: start_core::Fingerprint) -> u64 {
    let mut x = (fp.0 >> 64) as u64 ^ fp.0 as u64;
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// A sharded, hot-reloadable serving tier. See the module docs.
pub struct Router {
    slot: Arc<RwLock<ModelSlot>>,
    index: RwLock<IndexState>,
    replicas: Vec<Arc<EmbeddingService>>,
    /// Every replica's encode workers, joined on shutdown or drop.
    workers: Vec<JoinHandle<()>>,
}

/// What the kNN paths guard together: the router's one index plus the
/// model version each id's vector was produced by (the hot-swap
/// staleness tags).
struct IndexState {
    index: Box<dyn VectorIndex>,
    versions: HashMap<u64, u64>,
}

/// Receipt of one [`Router::publish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishReport {
    /// The version that was serving before the swap.
    pub previous_version: u64,
    /// The version now serving (always `previous_version + 1`).
    pub version: u64,
    /// Old-version micro-batches that were still in flight at the swap and
    /// were drained before `publish` returned.
    pub drained_batches: u64,
}

/// Per-replica snapshots plus the aggregates callers actually chart.
#[derive(Debug, Clone)]
pub struct RouterStats {
    /// The model version serving every replica (0 until the first
    /// publish).
    pub model_version: u64,
    /// kNN entries indexed under a model version other than
    /// `model_version` — the re-indexing backlog left behind by
    /// checkpoint hot-swaps.
    pub stale_index_entries: usize,
    /// One [`ServiceStats`] per replica, in shard order.
    pub replicas: Vec<ServiceStats>,
}

impl RouterStats {
    pub fn submitted(&self) -> u64 {
        self.replicas.iter().map(|s| s.submitted).sum()
    }

    pub fn completed(&self) -> u64 {
        self.replicas.iter().map(|s| s.completed).sum()
    }

    pub fn rejected(&self) -> u64 {
        self.replicas.iter().map(|s| s.rejected).sum()
    }

    pub fn failed(&self) -> u64 {
        self.replicas.iter().map(|s| s.failed).sum()
    }

    /// Aggregate cache hit rate: total hits over total lookups across all
    /// replica caches, `0.0` when nothing was looked up.
    pub fn cache_hit_rate(&self) -> f64 {
        let hits: u64 = self.replicas.iter().map(|s| s.cache.hits).sum();
        let lookups: u64 = self.replicas.iter().map(|s| s.cache.hits + s.cache.misses).sum();
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    }
}

impl Router {
    /// Spawn `cfg.replicas` replicas over one model slot holding `model`
    /// (with its road matrix, built here) as version 0 and one empty kNN
    /// index, and return the running router. Defensive: a zero replica or
    /// worker count is normalized to 1 — build configs through
    /// [`RouterConfig::builder`] for typed validation instead.
    pub fn start(model: Arc<StartModel>, cfg: RouterConfig) -> Self {
        let n = cfg.replicas.max(1);
        let dim = model.cfg.dim;
        let index: Box<dyn VectorIndex> = match &cfg.serve.index {
            IndexKind::BruteForce => Box::new(EmbeddingStore::new(dim)),
            IndexKind::Hnsw(hnsw) => Box::new(Hnsw::new(dim, hnsw.clone())),
        };
        let index = RwLock::new(IndexState { index, versions: HashMap::new() });
        let model = Arc::new(FrozenModel::new(model));
        let slot = Arc::new(RwLock::new(ModelSlot::new(0, model, &cfg.serve, n)));
        let mut workers = Vec::new();
        let replicas = (0..n)
            .map(|i| {
                let (replica, spawned) =
                    EmbeddingService::start(Arc::clone(&slot), i, cfg.serve.clone());
                workers.extend(spawned);
                replica
            })
            .collect();
        Self { slot, index, replicas, workers }
    }

    /// Number of replicas behind this router.
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// The replica a trajectory routes to: its content fingerprint folded
    /// through [`fold_fingerprint`] mod the replica count. Pure in the
    /// trajectory — independent of router instance, worker counts, and
    /// model version.
    pub fn shard_for(&self, trajectory: &Trajectory) -> usize {
        self.shard_for_view(&TrajView::identity(trajectory))
    }

    /// [`Router::shard_for`] over a pre-built view.
    pub fn shard_for_view(&self, view: &TrajView) -> usize {
        (fold_fingerprint(fingerprint_view(view)) % self.replicas.len() as u64) as usize
    }

    /// Submit a trajectory to its shard, blocking while that replica's
    /// queue is full.
    pub fn submit(&self, trajectory: &Trajectory) -> Result<EmbeddingHandle, ServeError> {
        self.submit_view(TrajView::identity(trajectory))
    }

    /// Submit a trajectory to its shard; fail with
    /// [`ServeError::QueueFull`] instead of blocking.
    pub fn try_submit(&self, trajectory: &Trajectory) -> Result<EmbeddingHandle, ServeError> {
        let view = TrajView::identity(trajectory);
        self.replicas[self.shard_for_view(&view)].enqueue(view, false)
    }

    /// Submit a pre-built view (masking, departure-only timestamps, …) to
    /// its shard, blocking while the queue is full.
    pub fn submit_view(&self, view: TrajView) -> Result<EmbeddingHandle, ServeError> {
        self.replicas[self.shard_for_view(&view)].enqueue(view, true)
    }

    /// Submit a batch (each trajectory to its own shard) and wait for
    /// every answer, in submission order.
    pub fn encode(&self, trajectories: &[Trajectory]) -> Result<Vec<Embedding>, ServeError> {
        let handles: Vec<EmbeddingHandle> =
            trajectories.iter().map(|t| self.submit(t)).collect::<Result<_, _>>()?;
        handles.into_iter().map(EmbeddingHandle::wait).collect()
    }

    /// Swap in a new model checkpoint for every replica at once, with zero
    /// dropped or stale replies.
    ///
    /// Double-buffered: the new model is installed under `version + 1`
    /// with fresh caches pinned to the new epoch; requests picked up after
    /// the swap (including ones already queued) encode with the new
    /// weights, while micro-batches already pinned to the old slot finish
    /// on the old weights and are **drained** — `publish` returns only
    /// after every old-version reply has been sent. The kNN index is
    /// untouched; entries of prior versions are reported as
    /// [`RouterStats::stale_index_entries`].
    ///
    /// The new version's road matrix is built before the slot is locked,
    /// so workers keep serving the old version during that forward; the
    /// reported wall time of a publish includes it.
    ///
    /// A model whose dimension differs from the serving one (and so from
    /// the index) is refused with [`ServeError::DimensionMismatch`] before
    /// anything swaps, and before any road forward runs.
    pub fn publish(&self, model: Arc<StartModel>) -> Result<PublishReport, ServeError> {
        // Every version has the dimension of version 0, so this read needs
        // no write lock.
        let expected = read_slot(&self.slot).model.model().cfg.dim;
        if model.cfg.dim != expected {
            // Counted like any refused request, on the first replica.
            self.replicas[0].reject();
            return Err(ServeError::DimensionMismatch { expected, got: model.cfg.dim });
        }
        let model = Arc::new(FrozenModel::new(model));
        let old = {
            let mut slot = self.slot.write().unwrap_or_else(PoisonError::into_inner);
            let n = self.replicas.len();
            let fresh = ModelSlot::new(slot.version + 1, model, &self.replicas[0].cfg, n);
            std::mem::replace(&mut *slot, fresh)
        };
        // The write lock is released before draining: workers pin the new
        // slot immediately while the old version's in-flight batches run
        // to completion.
        let drained_batches = old.in_flight.drain();
        Ok(PublishReport {
            previous_version: old.version,
            version: old.version + 1,
            drained_batches,
        })
    }

    /// The model version currently serving (0 until the first publish).
    pub fn model_version(&self) -> u64 {
        read_slot(&self.slot).version
    }

    /// Encode `trajectory` on its shard and index the embedding under `id`
    /// for [`Router::knn`] queries, tagged with the version that produced
    /// it. Re-indexing an id overwrites it.
    pub fn index(&self, id: u64, trajectory: &Trajectory) -> Result<(), ServeError> {
        let (emb, version) = self.submit(trajectory)?.wait_versioned()?;
        self.insert(id, &emb, version)
    }

    /// Index a pre-computed embedding under `id` — the bulk-load path when
    /// embeddings come from an offline encode of the serving model. A
    /// wrong-dimension or non-finite vector is refused with
    /// [`ServeError::DimensionMismatch`] or [`ServeError::NonFinite`]; the
    /// index stays unchanged.
    pub fn index_embedding(&self, id: u64, embedding: &[f32]) -> Result<(), ServeError> {
        self.insert(id, embedding, self.model_version())
    }

    fn insert(&self, id: u64, embedding: &[f32], version: u64) -> Result<(), ServeError> {
        let mut state = self.write_index();
        state.index.insert(id, embedding).map_err(|e| self.refuse(e))?;
        state.versions.insert(id, version);
        Ok(())
    }

    /// Count a refused index or kNN vector like any refused request, on
    /// the first replica.
    fn refuse(&self, e: AnnError) -> ServeError {
        self.replicas[0].reject();
        e.into()
    }

    /// The one index, read-locked. Poison rides through: every index
    /// validates a vector before it mutates anything.
    fn read_index(&self) -> RwLockReadGuard<'_, IndexState> {
        self.index.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The one index, write-locked.
    fn write_index(&self) -> RwLockWriteGuard<'_, IndexState> {
        self.index.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Encode the query on its shard, then return its `k` nearest indexed
    /// neighbours, closest first, ties broken toward the smaller id.
    pub fn knn(&self, query: &Trajectory, k: usize) -> Result<Vec<Neighbor>, ServeError> {
        let emb = self.submit(query)?.wait()?;
        self.knn_embedding(&emb, k)
    }

    /// kNN over a pre-computed query embedding: one read lock, one search
    /// of the one index. A wrong-dimension or non-finite query is refused
    /// with a typed [`ServeError`], never a panic.
    pub fn knn_embedding(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, ServeError> {
        self.read_index().index.knn(query, k).map_err(|e| self.refuse(e))
    }

    /// Drop `id` from the kNN index; returns whether it was indexed.
    /// (HNSW backends tombstone: the id is never returned again, the graph
    /// node keeps routing.)
    pub fn remove_index(&self, id: u64) -> bool {
        let mut state = self.write_index();
        state.versions.remove(&id);
        state.index.remove(id)
    }

    /// Total embeddings indexed for kNN.
    pub fn indexed_len(&self) -> usize {
        self.read_index().index.len()
    }

    /// Ids whose indexed embedding was produced by a model version other
    /// than the one currently serving — the re-indexing worklist after a
    /// [`Router::publish`]. Sorted for determinism.
    pub fn stale_indexed_ids(&self) -> Vec<u64> {
        let current = self.model_version();
        let state = self.read_index();
        let mut ids: Vec<u64> =
            state.versions.iter().filter(|&(_, &v)| v != current).map(|(&id, _)| id).collect();
        ids.sort_unstable();
        ids
    }

    /// Per-replica + aggregate counter snapshot.
    pub fn stats(&self) -> RouterStats {
        let model_version = self.model_version();
        let stale_index_entries =
            self.read_index().versions.values().filter(|&&v| v != model_version).count();
        RouterStats {
            model_version,
            stale_index_entries,
            replicas: self.replicas.iter().map(|r| r.stats()).collect(),
        }
    }

    /// Flip every replica into shutdown without joining the workers: new
    /// submissions (including callers blocked on a full queue) fail with
    /// [`ServeError::ShuttingDown`], while already-queued requests still
    /// drain. [`Router::shutdown`] or drop completes the join.
    pub fn begin_shutdown(&self) {
        for replica in &self.replicas {
            replica.begin_shutdown();
        }
    }

    /// Stop accepting work, drain every replica, join all workers, and
    /// return the final per-replica stats.
    pub fn shutdown(mut self) -> RouterStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            // A worker that panicked outside the guarded encode region has
            // already answered its batch; nothing to propagate.
            let _ = handle.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::fold_fingerprint;
    use start_core::Fingerprint;

    /// FNV fingerprints whose low bits share a parity class must still fold
    /// to well-mixed values, or `% replicas` placement puts them all on the
    /// same replicas and leaves the others idle.
    #[test]
    fn fold_decorrelates_constant_parity_inputs() {
        let mut low_bit_ones = 0usize;
        let mut low_three = [0usize; 8];
        for k in 0..1024u64 {
            // Both halves even: constant parity in every raw bit-0 view.
            let fp = Fingerprint((((k * 2654435761) as u128) << 65) | ((k as u128) << 1));
            let folded = fold_fingerprint(fp);
            low_bit_ones += (folded & 1) as usize;
            low_three[(folded & 7) as usize] += 1;
        }
        assert!(
            (400..=624).contains(&low_bit_ones),
            "folded bit 0 is biased: {low_bit_ones}/1024 ones"
        );
        for (bucket, &n) in low_three.iter().enumerate() {
            assert!(
                (64..=192).contains(&n),
                "folded low-3-bit bucket {bucket} is biased: {n}/1024"
            );
        }
    }
}
