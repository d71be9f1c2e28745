//! The router's private replica: a bounded micro-batching queue, its pool
//! of encode workers and its counters. The kNN index is the router's, not
//! a replica's.
//!
//! Requests enter through the router's `submit` (blocking backpressure)
//! or `try_submit` (fail-fast `QueueFull`). A worker that finds work open
//! starts a micro-batch: it keeps absorbing requests until the batch
//! reaches `max_batch` or the `max_wait` budget expires (a budget too
//! large to put on the clock waits untimed, for a full batch or shutdown),
//! then encodes the whole batch on its privately owned tape [`BufferPool`]
//! through the unified [`Encoder`](start_core::encoder::Encoder) facade —
//! which deduplicates identical views, consults this replica's
//! [`EmbeddingCache`], reads the slot's prebuilt road matrix instead of
//! running TPE-GAT, and produces the same bits as a single-threaded
//! `encode` call. Each request is answered over its own channel, so batch
//! composition never changes what a caller observes, only when.
//!
//! ## The shared model slot
//!
//! Every replica of one router reads the same `ModelSlot`: `(version,
//! Arc<FrozenModel>, one cache per replica, in-flight counter)` behind one
//! `RwLock`. The [`FrozenModel`] is the version's weights together with the
//! `(|V|, d)` road matrix built from them, so the slot holds one TPE-GAT
//! forward per version (960 × 48 × 4 B = 184 KB on the benchmark city; two
//! versions are live while a publish drains). Every micro-batch pins the
//! slot once — it clones the `Arc`s, registers with the slot's in-flight
//! counter *while still holding the read lock*, then encodes without any
//! lock held. `Router::publish` builds the new version's road matrix
//! before it takes any lock, write-locks the slot once, installs the new model under `version + 1`
//! with **fresh** caches pinned to the new epoch, releases the lock, and
//! then drains — waits until the old slot's in-flight count reaches zero,
//! at which point every reply produced from the old weights has already
//! been sent. Two consequences callers can rely on:
//!
//! - every reply is tagged with the version of the model that produced it
//!   ([`EmbeddingHandle::wait_versioned`]), and is exactly the bits of a
//!   pre- or post-swap model — never a blend, never a drop;
//! - cache invalidation is structural: a cache instance is pinned to one
//!   version epoch at construction, so an encode racing the swap can only
//!   insert into the retiring instance. Stale bits are unreachable from
//!   the new version.
//!
//! Workers never leak panics: a panic inside the model is caught at the
//! batch boundary, the in-flight batch is answered with
//! [`ServeError::WorkerPanicked`], the replica is poisoned, and queued +
//! future requests get [`ServeError::ModelPoisoned`]. `resume_unwind` stays
//! internal to the encoder's own thread scope.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;

use start_sync::atomic::{AtomicU64, Ordering};
use start_sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};

use std::time::Instant;

use start_core::encoder::{EmbeddingCache, EncodeError, EncodeOptions};
use start_core::{CacheStats, Embedding, FrozenModel};
use start_nn::BufferPool;
use start_traj::TrajView;

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::stats::{Histogram, ServiceStats};

/// One queued unit of work: the view to encode and the channel that will
/// carry exactly one version-tagged answer back to the submitting caller.
struct Request {
    view: TrajView,
    tx: mpsc::Sender<Result<(Embedding, u64), ServeError>>,
    submitted_at: Instant,
}

struct QueueState {
    queue: VecDeque<Request>,
    shutdown: bool,
    poisoned: bool,
}

/// In-flight micro-batch counter of one model version — the drain barrier
/// of `Router::publish`.
pub(crate) struct InFlight {
    active: Mutex<u64>,
    zero: Condvar,
}

impl InFlight {
    fn new() -> Self {
        Self { active: Mutex::new(0), zero: Condvar::new() }
    }

    fn lock(&self) -> MutexGuard<'_, u64> {
        // Poison ride-through: the count is a plain integer, updated in one
        // instruction; a panicking peer cannot leave it torn. The RAII
        // guard below decrements even during unwinding, so a worker panic
        // can never wedge a publish drain.
        self.active.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register one micro-batch. Called while the slot read lock is held,
    /// so a publish that swapped the slot afterwards is guaranteed to
    /// observe this batch in its drain.
    fn enter(self: &Arc<Self>) -> InFlightGuard {
        *self.lock() += 1;
        InFlightGuard { inner: Arc::clone(self) }
    }

    /// Block until every registered micro-batch has finished (replies
    /// sent). Returns the count observed at entry — how many old-version
    /// batches the publish had to wait out.
    pub(crate) fn drain(&self) -> u64 {
        let mut n = self.lock();
        let at_swap = *n;
        while *n > 0 {
            n = self.zero.wait(n).unwrap_or_else(PoisonError::into_inner);
        }
        at_swap
    }
}

/// RAII registration with an [`InFlight`] counter; decrements on drop, so
/// a panicking encode still releases its slot and cannot deadlock a
/// publish drain.
struct InFlightGuard {
    inner: Arc<InFlight>,
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        let mut n = self.inner.lock();
        *n = n.saturating_sub(1);
        if *n == 0 {
            self.inner.zero.notify_all();
        }
    }
}

/// One published model version, shared by every replica of a router: the
/// weights with their road matrix, one cache per replica pinned to this
/// version's epoch, and the in-flight counter that gates the version's
/// retirement.
pub(crate) struct ModelSlot {
    pub(crate) version: u64,
    pub(crate) model: Arc<FrozenModel>,
    caches: Vec<Option<Arc<EmbeddingCache>>>,
    pub(crate) in_flight: Arc<InFlight>,
}

impl ModelSlot {
    /// `model` under `version`, with a fresh cache of `cfg.cache_capacity`
    /// entries for each of `replicas` replicas (see the module docs on
    /// structural invalidation).
    pub(crate) fn new(
        version: u64,
        model: Arc<FrozenModel>,
        cfg: &ServeConfig,
        replicas: usize,
    ) -> Self {
        let cache = || {
            (cfg.cache_capacity > 0)
                .then(|| Arc::new(EmbeddingCache::new(cfg.cache_capacity, version)))
        };
        Self {
            version,
            model,
            caches: (0..replicas).map(|_| cache()).collect(),
            in_flight: Arc::new(InFlight::new()),
        }
    }
}

/// Slot read lock, riding through poisoning: the slot is replaced
/// wholesale under the write lock, never mutated in place, so readers
/// always see one coherent version.
pub(crate) fn read_slot(slot: &RwLock<ModelSlot>) -> RwLockReadGuard<'_, ModelSlot> {
    slot.read().unwrap_or_else(PoisonError::into_inner)
}

/// The ticket for one submitted request.
///
/// Dropping the handle abandons the answer (the worker still encodes and
/// caches it); [`EmbeddingHandle::wait`] blocks until the worker responds.
pub struct EmbeddingHandle {
    rx: mpsc::Receiver<Result<(Embedding, u64), ServeError>>,
}

impl std::fmt::Debug for EmbeddingHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbeddingHandle").finish_non_exhaustive()
    }
}

impl EmbeddingHandle {
    /// Block until the service answers this request.
    pub fn wait(self) -> Result<Embedding, ServeError> {
        self.wait_versioned().map(|(emb, _)| emb)
    }

    /// Block until the service answers, returning the embedding together
    /// with the version of the model that produced it — the hot-swap
    /// audit hook: across a [`Router::publish`](crate::Router::publish),
    /// every reply is tagged with exactly the pre- or post-swap version.
    pub fn wait_versioned(self) -> Result<(Embedding, u64), ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ResponseDropped))
    }
}

/// One replica: a bounded queue and the counters, shared by the router and
/// the replica's encode workers.
pub(crate) struct EmbeddingService {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    pub(crate) cfg: ServeConfig,
    slot: Arc<RwLock<ModelSlot>>,
    /// This replica's shard number — the index of its cache in every slot.
    shard: usize,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    queue_wait: Histogram,
    encode: Histogram,
}

impl EmbeddingService {
    /// Start replica `shard` of the router that owns `slot`: the replica
    /// and its spawned encode workers.
    pub(crate) fn start(
        slot: Arc<RwLock<ModelSlot>>,
        shard: usize,
        cfg: ServeConfig,
    ) -> (Arc<Self>, Vec<JoinHandle<()>>) {
        let workers = cfg.workers.max(1);
        let replica = Arc::new(Self {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
                poisoned: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cfg,
            slot,
            shard,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            queue_wait: Histogram::new(),
            encode: Histogram::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let r = Arc::clone(&replica);
                std::thread::Builder::new()
                    .name(format!("start-serve-{i}"))
                    .spawn(move || worker_loop(&r))
                    .unwrap_or_else(|e| panic!("failed to spawn encode worker {i}: {e}"))
            })
            .collect();
        (replica, handles)
    }

    /// Queue lock with mutex-poison ride-through: the queue state is a
    /// plain VecDeque plus flags, valid at every instruction boundary, so a
    /// panicking peer cannot leave it torn.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Count one request refused at the door.
    pub(crate) fn reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed); // relaxed-ok: standalone reject tally
    }

    /// A point-in-time counter snapshot.
    pub(crate) fn stats(&self) -> ServiceStats {
        let queue_depth = self.lock().queue.len();
        // Snapshot ordering: read the outcome counters (completed/failed)
        // BEFORE submitted. `submitted` is incremented (Release) before a
        // request is visible to workers, and completed/failed only after the
        // answer is sent, so reading outcomes first means any request that
        // slips in between the loads can only raise `submitted` — every
        // snapshot satisfies `submitted >= completed + failed`, and a drained
        // shutdown reports exact equality.
        let completed = self.completed.load(Ordering::Acquire);
        let failed = self.failed.load(Ordering::Acquire);
        let submitted = self.submitted.load(Ordering::Acquire);
        let cache = {
            let slot = read_slot(&self.slot);
            slot.caches[self.shard].as_ref().map(|c| c.stats()).unwrap_or(CacheStats {
                hits: 0,
                misses: 0,
                entries: 0,
                capacity: 0,
                epoch: slot.version,
            })
        };
        ServiceStats {
            submitted,
            completed,
            rejected: self.rejected.load(Ordering::Relaxed), // relaxed-ok: standalone reject tally, no cross-counter invariant
            failed,
            batches: self.batches.load(Ordering::Relaxed), // relaxed-ok: monotone batch tally, no cross-counter invariant
            queue_depth,
            queue_wait: self.queue_wait.snapshot(),
            encode: self.encode.snapshot(),
            cache,
        }
    }

    /// Flip the replica into shutdown without joining the workers: new
    /// submissions (including callers blocked on a full queue) fail with
    /// [`ServeError::ShuttingDown`], while already-queued requests still
    /// drain. The router joins the workers.
    pub(crate) fn begin_shutdown(&self) {
        {
            let mut st = self.lock();
            st.shutdown = true;
        }
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Queue `view`; while the queue is full, wait if `block`, else fail
    /// with [`ServeError::QueueFull`].
    pub(crate) fn enqueue(
        &self,
        view: TrajView,
        block: bool,
    ) -> Result<EmbeddingHandle, ServeError> {
        // Reject an empty view at the door, so one bad submission can never
        // fail the micro-batch it would have ridden in. An over-long view is
        // clamped by the encoder, as offline.
        if view.is_empty() {
            self.reject();
            return Err(ServeError::Invalid(EncodeError::EmptyView { index: 0 }));
        }
        let (tx, rx) = mpsc::channel();
        let mut st = self.lock();
        loop {
            if st.poisoned {
                self.reject();
                return Err(ServeError::ModelPoisoned);
            }
            if st.shutdown {
                self.reject();
                return Err(ServeError::ShuttingDown);
            }
            if st.queue.len() < self.cfg.queue_cap {
                break;
            }
            if !block {
                self.reject();
                return Err(ServeError::QueueFull { capacity: self.cfg.queue_cap });
            }
            st = self.not_full.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        // Counter coherence: `submitted` is incremented BEFORE the request
        // becomes visible to any worker (we still hold the queue lock), with
        // Release so the matching Acquire loads in `stats` order it
        // against the later `completed`/`failed` increments. Together with
        // reading completed/failed first in `stats`, every snapshot observes
        // `submitted >= completed + failed`, with equality once a shutdown
        // has drained the queue and joined the workers.
        self.submitted.fetch_add(1, Ordering::Release);
        st.queue.push_back(Request { view, tx, submitted_at: Instant::now() });
        drop(st);
        self.not_empty.notify_one();
        Ok(EmbeddingHandle { rx })
    }
}

/// Pull one micro-batch off the queue, or `None` when the worker should
/// exit (shutdown with an empty queue, or replica poisoned).
fn collect_batch(replica: &EmbeddingService) -> Option<Vec<Request>> {
    let mut st = replica.lock();
    loop {
        if st.poisoned {
            return None;
        }
        if let Some(first) = st.queue.pop_front() {
            let mut batch = vec![first];
            let max_batch = replica.cfg.max_batch.max(1);
            // `None` when the budget overflows the clock: such a budget asks
            // for an unbounded wait, so the batch waits untimed for a full
            // batch or a shutdown.
            let deadline = Instant::now().checked_add(replica.cfg.max_wait);
            loop {
                while batch.len() < max_batch {
                    match st.queue.pop_front() {
                        Some(r) => batch.push(r),
                        None => break,
                    }
                }
                // A shutting-down replica flushes immediately: waiting out
                // the batching budget would only delay the drain.
                if batch.len() >= max_batch || st.shutdown || st.poisoned {
                    break;
                }
                st = match deadline {
                    Some(deadline) => {
                        // Saturating: a deadline already in the past yields
                        // a zero budget, never an `Instant` subtraction
                        // panic — the clock may jump between the deadline
                        // computation and this check.
                        let remaining = deadline.saturating_duration_since(Instant::now());
                        if remaining.is_zero() {
                            break;
                        }
                        replica
                            .not_empty
                            .wait_timeout(st, remaining)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0
                    }
                    None => replica.not_empty.wait(st).unwrap_or_else(PoisonError::into_inner),
                };
            }
            drop(st);
            replica.not_full.notify_all();
            return Some(batch);
        }
        if st.shutdown {
            return None;
        }
        st = replica.not_empty.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn worker_loop(replica: &EmbeddingService) {
    if let Some(warmup) = replica.cfg.worker_warmup {
        std::thread::sleep(warmup);
    }
    // Each worker owns one tape buffer pool for its whole life, so steady
    // state encodes allocate nothing.
    let mut pool = BufferPool::default();
    while let Some(batch) = collect_batch(replica) {
        let picked_up = Instant::now();
        for req in &batch {
            let wait = picked_up.duration_since(req.submitted_at);
            replica.queue_wait.record_us(wait.as_micros() as u64);
        }
        let views: Vec<TrajView> = batch.iter().map(|r| r.view.clone()).collect();
        // Pin the slot once per micro-batch: version, weights with their
        // road matrix, and cache are cloned — and the batch registered
        // in-flight — under one read lock, so a concurrent publish either
        // sees this batch in its drain or this batch already runs on the
        // new version. The guard decrements on drop (even through a
        // panic), after the replies below have been sent.
        let (version, model, cache, _in_flight) = {
            let slot = read_slot(&replica.slot);
            let cache = slot.caches[replica.shard].clone();
            (slot.version, Arc::clone(&slot.model), cache, slot.in_flight.enter())
        };
        let opts = EncodeOptions { threads: 1, cache };
        let taken = std::mem::take(&mut pool);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            model.encoder().encode_views_pooled(&views, &opts, taken)
        }));
        replica.encode.record_us(picked_up.elapsed().as_micros() as u64);
        replica.batches.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotone batch tally
        match outcome {
            Ok(Ok((embeddings, returned))) => {
                pool = returned;
                for (req, emb) in batch.into_iter().zip(embeddings) {
                    // A dropped handle is a caller choice, not a failure.
                    let _ = req.tx.send(Ok((emb, version)));
                    // Release pairs with the Acquire snapshot in `stats`.
                    replica.completed.fetch_add(1, Ordering::Release);
                }
            }
            Ok(Err(e)) => {
                // Submit-time validation makes this unreachable today; if a
                // new validation ever appears in the encoder first, answer
                // with the typed error rather than wedging the callers.
                for req in batch {
                    let _ = req.tx.send(Err(ServeError::Invalid(e.clone())));
                    replica.failed.fetch_add(1, Ordering::Release);
                }
            }
            Err(payload) => {
                let message = panic_message(payload);
                let drained: Vec<Request> = {
                    let mut st = replica.lock();
                    st.poisoned = true;
                    st.queue.drain(..).collect()
                };
                replica.not_empty.notify_all();
                replica.not_full.notify_all();
                for req in batch {
                    let _ =
                        req.tx.send(Err(ServeError::WorkerPanicked { message: message.clone() }));
                    replica.failed.fetch_add(1, Ordering::Release);
                }
                for req in drained {
                    let _ = req.tx.send(Err(ServeError::ModelPoisoned));
                    replica.failed.fetch_add(1, Ordering::Release);
                }
                return;
            }
        }
    }
}
