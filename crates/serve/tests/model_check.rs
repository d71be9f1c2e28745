//! Executable concurrency models for the serving layer, explored by the
//! `start_sync` model checker: the submit/flush/shutdown/poison-drain queue
//! protocol and idle dispatch (a faithful skeleton of `service.rs`), the
//! router's one-slot publish protocol (road matrix built before the swap,
//! pin, swap, drain, version-tagged index), and the real [`Histogram`]
//! under concurrent recording.
//!
//! Each model must stay clean across at least 1,000 distinct schedules —
//! the CI floor pinned by `ci.yml`. Seeds come from `ModelConfig::default`
//! and are fixed, so a failure here replays deterministically.

use std::collections::VecDeque;

use start_serve::Histogram;
use start_sync::atomic::{AtomicU64, Ordering};
use start_sync::model::{check, spawn_named, ModelConfig};
use start_sync::{mpsc, Arc, Condvar, Mutex, PoisonError, RwLock};

const MIN_SCHEDULES: usize = 1_000;

fn cfg() -> ModelConfig {
    ModelConfig { max_schedules: 1_500, random_iters: 200, ..ModelConfig::default() }
}

/// A poison marker in the queue: the worker "panics" on it, mirroring the
/// encode-panic path of the real worker loop.
const POISON: u32 = u32::MAX;

struct Q {
    queue: VecDeque<u32>,
    shutdown: bool,
    poisoned: bool,
    /// Workers blocked on an empty queue. Model-only: it lets a submitter
    /// wait until the worker is idle before it submits.
    parked: usize,
}

/// Skeleton of `service.rs`'s `Shared`: same lock/condvar/counter protocol,
/// with the encode call reduced to "count the item".
struct QueueModel {
    state: Mutex<Q>,
    not_empty: Condvar,
    not_full: Condvar,
    /// Model-only: signalled when a worker parks on an empty queue.
    parked: Condvar,
    cap: usize,
    max_batch: usize,
    /// `max_wait` too large for the clock: a lingering batch waits untimed
    /// instead of on the abstract timeout.
    untimed: bool,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
}

impl QueueModel {
    fn new(cap: usize, max_batch: usize, untimed: bool) -> Self {
        Self {
            state: Mutex::new(Q {
                queue: VecDeque::new(),
                shutdown: false,
                poisoned: false,
                parked: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            parked: Condvar::new(),
            cap,
            max_batch,
            untimed,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> start_sync::MutexGuard<'_, Q> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mirror of the replica's `enqueue` with `block = true`.
    fn submit(&self, item: u32) -> Result<(), ()> {
        let mut st = self.lock();
        loop {
            if st.poisoned || st.shutdown {
                self.rejected.fetch_add(1, Ordering::Relaxed); // relaxed-ok: test tally
                return Err(());
            }
            if st.queue.len() < self.cap {
                break;
            }
            st = self.not_full.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        // Same discipline as the service: submitted goes up (Release) before
        // the request is visible, while the queue lock is held.
        self.submitted.fetch_add(1, Ordering::Release);
        st.queue.push_back(item);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Submit once a worker is parked on the empty queue, so the item
    /// reaches an idle worker.
    fn submit_to_idle(&self, item: u32) -> Result<(), ()> {
        let mut st = self.lock();
        while st.parked == 0 {
            st = self.parked.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        drop(st);
        self.submit(item)
    }

    /// Mirror of `collect_batch`: pop one; an idle worker dispatches at
    /// once, any other absorbs up to `max_batch` with a timed wait standing
    /// in for the `max_wait` budget (untimed when `untimed`).
    fn collect_batch(&self) -> Option<Vec<u32>> {
        let mut st = self.lock();
        let mut idle = false;
        loop {
            if st.poisoned {
                return None;
            }
            if let Some(first) = st.queue.pop_front() {
                let mut batch = vec![first];
                loop {
                    while batch.len() < self.max_batch {
                        match st.queue.pop_front() {
                            Some(r) => batch.push(r),
                            None => break,
                        }
                    }
                    if idle || batch.len() >= self.max_batch || st.shutdown || st.poisoned {
                        break;
                    }
                    if self.untimed {
                        st = self.not_empty.wait(st).unwrap_or_else(PoisonError::into_inner);
                        continue;
                    }
                    let (guard, timeout) = self
                        .not_empty
                        .wait_timeout(st, std::time::Duration::from_millis(1))
                        .unwrap_or_else(PoisonError::into_inner);
                    st = guard;
                    if timeout.timed_out() {
                        break;
                    }
                }
                drop(st);
                self.not_full.notify_all();
                return Some(batch);
            }
            if st.shutdown {
                return None;
            }
            st.parked += 1;
            self.parked.notify_all();
            st = self.not_empty.wait(st).unwrap_or_else(PoisonError::into_inner);
            st.parked -= 1;
            idle = true;
        }
    }

    /// Mirror of `worker_loop` including the poison-drain protocol; each
    /// completed item is also sent on `replies`, standing in for the
    /// request's answer channel.
    fn worker(&self, replies: Option<mpsc::Sender<u32>>) {
        while let Some(batch) = self.collect_batch() {
            if batch.contains(&POISON) {
                let drained: Vec<u32> = {
                    let mut st = self.lock();
                    st.poisoned = true;
                    st.queue.drain(..).collect()
                };
                self.not_empty.notify_all();
                self.not_full.notify_all();
                for _ in &batch {
                    self.failed.fetch_add(1, Ordering::Release);
                }
                for _ in &drained {
                    self.failed.fetch_add(1, Ordering::Release);
                }
                return;
            }
            for &item in &batch {
                self.completed.fetch_add(1, Ordering::Release);
                if let Some(tx) = &replies {
                    let _ = tx.send(item);
                }
            }
        }
    }

    fn begin_shutdown(&self) {
        {
            let mut st = self.lock();
            st.shutdown = true;
        }
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Submit/flush/shutdown: two submitters race a worker through a capacity-1
/// queue (real blocking backpressure), then the service drains and shuts
/// down. Every schedule must drain every accepted request:
/// `submitted == completed + failed` and the queue empty.
#[test]
fn serve_queue_submit_flush_shutdown_model_is_clean() {
    let report = check(&cfg(), || {
        let m = Arc::new(QueueModel::new(1, 2, false));
        let w = {
            let m = Arc::clone(&m);
            spawn_named("worker", move || m.worker(None))
        };
        let s1 = {
            let m = Arc::clone(&m);
            spawn_named("submit-1", move || {
                let _ = m.submit(1);
            })
        };
        let s2 = {
            let m = Arc::clone(&m);
            spawn_named("submit-2", move || {
                let _ = m.submit(2);
            })
        };
        let _ = s1.join();
        let _ = s2.join();
        m.begin_shutdown();
        let _ = w.join();
        let submitted = m.submitted.load(Ordering::Acquire);
        let completed = m.completed.load(Ordering::Acquire);
        let failed = m.failed.load(Ordering::Acquire);
        assert_eq!(submitted, completed + failed, "accepted request lost in the drain");
        assert_eq!(submitted + m.rejected.load(Ordering::Acquire), 2);
        assert!(m.lock().queue.is_empty(), "shutdown must drain the queue");
    });
    report.assert_clean();
    assert!(
        report.distinct_schedules >= MIN_SCHEDULES,
        "explored only {} schedules",
        report.distinct_schedules
    );
}

/// Poison-drain: one submission is a poison marker (the worker "panics" on
/// it). Whatever the interleaving, every accepted request is answered
/// exactly once — completed, failed-with-panic, or failed-in-drain — and
/// late submissions are rejected, never wedged.
#[test]
fn serve_queue_poison_drain_model_is_clean() {
    let report = check(&cfg(), || {
        let m = Arc::new(QueueModel::new(1, 2, false));
        let w = {
            let m = Arc::clone(&m);
            spawn_named("worker", move || m.worker(None))
        };
        let s1 = {
            let m = Arc::clone(&m);
            spawn_named("submit-poison", move || {
                let _ = m.submit(POISON);
            })
        };
        let s2 = {
            let m = Arc::clone(&m);
            spawn_named("submit-2", move || {
                let _ = m.submit(2);
            })
        };
        let _ = s1.join();
        let _ = s2.join();
        m.begin_shutdown();
        let _ = w.join();
        let submitted = m.submitted.load(Ordering::Acquire);
        let completed = m.completed.load(Ordering::Acquire);
        let failed = m.failed.load(Ordering::Acquire);
        assert_eq!(submitted, completed + failed, "poison drain lost a request");
        assert!(failed >= 1, "the poison batch itself must be failed");
        assert!(m.lock().queue.is_empty());
    });
    report.assert_clean();
    assert!(
        report.distinct_schedules >= MIN_SCHEDULES,
        "explored only {} schedules",
        report.distinct_schedules
    );
}

/// Idle dispatch: one worker parked on the empty queue, one submitter, one
/// item, and a batching budget too large for the clock. The idle worker
/// takes the item at once, so it is counted `completed` and answered before
/// `begin_shutdown` runs; a worker that lingered for company here would
/// wait for a shutdown that never comes (a deadlock finding).
#[test]
fn serve_queue_idle_worker_dispatches_at_once_model_is_clean() {
    let report = check(&cfg(), || {
        let m = Arc::new(QueueModel::new(1, 2, true));
        let (tx, replies) = mpsc::channel();
        let w = {
            let m = Arc::clone(&m);
            spawn_named("worker", move || m.worker(Some(tx)))
        };
        let s = {
            let m = Arc::clone(&m);
            spawn_named("submit", move || {
                let _ = m.submit_to_idle(1);
            })
        };
        assert_eq!(replies.recv().ok(), Some(1), "the idle worker never answered");
        assert_eq!(m.completed.load(Ordering::Acquire), 1);
        let _ = s.join();
        m.begin_shutdown();
        let _ = w.join();
        assert_eq!(m.submitted.load(Ordering::Acquire), 1);
        assert_eq!(m.failed.load(Ordering::Acquire), 0);
        assert!(m.lock().queue.is_empty());
    });
    report.assert_clean();
    println!("idle dispatch model: {} distinct schedules", report.distinct_schedules);
    assert!(
        report.distinct_schedules >= MIN_SCHEDULES,
        "explored only {} schedules",
        report.distinct_schedules
    );
}

// ---------------------------------------------------------------------------
// The one-slot publish protocol
// ---------------------------------------------------------------------------

/// Versions a slot model can reach: version 0 plus two publishes.
const VERSIONS: usize = 3;

/// The "weights" of a version; a reply's vector encodes them, so an index
/// entry's vector names the version that produced it.
fn weight(version: u64) -> u64 {
    10 + version
}

/// The "road matrix" built from a version's weights (the TPE-GAT forward);
/// a reply's vector encodes it beside the weights, so an entry that mixes
/// one version's weights with another's matrix is caught.
fn roads(weight: u64) -> u64 {
    2 * weight + 1
}

/// Skeleton of the router's in-flight counter: the publish drain barrier.
struct InFlight {
    active: Mutex<u64>,
    zero: Condvar,
}

impl InFlight {
    fn lock(&self) -> start_sync::MutexGuard<'_, u64> {
        self.active.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn drain(&self) {
        let mut n = self.lock();
        while *n > 0 {
            n = self.zero.wait(n).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Registration with an [`InFlight`]; decrements on drop, after the reply.
struct InFlightGuard(Arc<InFlight>);

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        let mut n = self.0.lock();
        *n -= 1;
        if *n == 0 {
            self.0.zero.notify_all();
        }
    }
}

/// Skeleton of the router's `ModelSlot`: the version, its frozen model
/// (weights and the road matrix built from them) and its drain barrier.
struct Slot {
    version: u64,
    weight: u64,
    roads: u64,
    in_flight: Arc<InFlight>,
}

impl Slot {
    fn new(version: u64, weight: u64, roads: u64) -> Self {
        let in_flight = Arc::new(InFlight { active: Mutex::new(0), zero: Condvar::new() });
        Self { version, weight, roads, in_flight }
    }
}

type Reply = mpsc::Sender<(u64, u64)>;

/// One router over one shared slot: the worker's pin, the publisher's swap
/// and drain, and the indexer's encode → wait → tag, with counters that
/// audit each step.
struct SlotModel {
    slot: RwLock<Slot>,
    /// Micro-batches pinned per version (counted under the read lock).
    pinned: [AtomicU64; VERSIONS],
    /// Replies sent per version.
    sent: [AtomicU64; VERSIONS],
    /// Index entries: `(tag, vector)`.
    index: Mutex<Vec<(u64, u64)>>,
}

impl SlotModel {
    fn new() -> Self {
        Self {
            slot: RwLock::new(Slot::new(0, weight(0), roads(weight(0)))),
            pinned: std::array::from_fn(|_| AtomicU64::new(0)),
            sent: std::array::from_fn(|_| AtomicU64::new(0)),
            index: Mutex::new(Vec::new()),
        }
    }

    fn read_version(&self) -> u64 {
        self.slot.read().unwrap_or_else(PoisonError::into_inner).version
    }

    /// Mirror of `worker_loop`: pin the version, weights, road matrix and
    /// in-flight registration under one read lock, encode lock-free, reply
    /// with the version tag, then leave.
    fn worker(&self, requests: mpsc::Receiver<(u64, Reply)>) {
        while let Ok((item, reply)) = requests.recv() {
            let (version, weight, roads, _in_flight) = {
                let slot = self.slot.read().unwrap_or_else(PoisonError::into_inner);
                *slot.in_flight.lock() += 1;
                self.pinned[slot.version as usize].fetch_add(1, Ordering::SeqCst);
                let guard = InFlightGuard(Arc::clone(&slot.in_flight));
                (slot.version, slot.weight, slot.roads, guard)
            };
            let _ = reply.send((weight * 10_000 + roads * 100 + item, version));
            self.sent[version as usize].fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Mirror of `Router::publish`: build the checkpoint's road matrix
    /// outside any lock, swap under one write lock, then drain.
    fn publish(&self, checkpoint: u64) {
        let matrix = roads(checkpoint);
        let old = {
            let mut slot = self.slot.write().unwrap_or_else(PoisonError::into_inner);
            let next = Slot::new(slot.version + 1, checkpoint, matrix);
            std::mem::replace(&mut *slot, next)
        };
        old.in_flight.drain();
        let v = old.version as usize;
        assert_eq!(
            self.sent[v].load(Ordering::SeqCst),
            self.pinned[v].load(Ordering::SeqCst),
            "publish returned before every version-{v} reply was sent"
        );
    }

    /// Mirror of `Router::index`: encode → `wait_versioned` → tag.
    fn index(&self, requests: &mpsc::Sender<(u64, Reply)>, item: u64) {
        let (tx, rx) = mpsc::channel();
        let _ = requests.send((item, tx));
        let Ok((vector, version)) = rx.recv() else { return };
        self.index.lock().unwrap_or_else(PoisonError::into_inner).push((version, vector));
    }
}

/// The router's one-slot protocol, explored over a worker, a publisher
/// (two publishes) and an indexer (two entries): no deadlock, `publish`
/// returns only after every old-version reply is sent, and every index
/// entry is tagged with the version whose weights and road matrix both
/// produced its vector.
#[test]
fn router_one_slot_publish_and_index_model_is_clean() {
    let report = check(&cfg(), || {
        let m = Arc::new(SlotModel::new());
        let (requests, queue) = mpsc::channel();
        let w = {
            let m = Arc::clone(&m);
            spawn_named("worker", move || m.worker(queue))
        };
        let p = {
            let m = Arc::clone(&m);
            spawn_named("publisher", move || {
                m.publish(weight(1));
                m.publish(weight(2));
            })
        };
        let i = {
            let m = Arc::clone(&m);
            spawn_named("indexer", move || {
                m.index(&requests, 1);
                m.index(&requests, 2);
            })
        };
        let _ = i.join();
        let _ = p.join();
        let _ = w.join();
        assert_eq!(m.read_version(), 2);
        let index = m.index.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(index.len(), 2, "an index request went unanswered");
        for &(tag, vector) in index.iter() {
            assert_eq!(
                vector / 10_000,
                weight(tag),
                "entry tagged v{tag} holds another version's weights"
            );
            assert_eq!(
                vector / 100 % 100,
                roads(weight(tag)),
                "entry tagged v{tag} was encoded against another version's road matrix"
            );
        }
    });
    report.assert_clean();
    println!("router one-slot model: {} distinct schedules", report.distinct_schedules);
    assert!(
        report.distinct_schedules >= MIN_SCHEDULES,
        "explored only {} schedules",
        report.distinct_schedules
    );
}

/// The real [`Histogram`] under concurrent `record_us`: after both recorders
/// join, the snapshot must be exact — no lost counts, max correct, quantiles
/// monotone — in every interleaving of the lock-free update sequence.
#[test]
fn histogram_concurrent_record_model_is_clean() {
    let report = check(&cfg(), || {
        let h = Arc::new(Histogram::new());
        let a = {
            let h = Arc::clone(&h);
            spawn_named("rec-a", move || {
                h.record_us(10);
                h.record_us(0);
            })
        };
        let b = {
            let h = Arc::clone(&h);
            spawn_named("rec-b", move || {
                h.record_us(10_000);
                h.record_us(10);
            })
        };
        let _ = a.join();
        let _ = b.join();
        let s = h.snapshot();
        assert_eq!(s.count, 4, "lost a concurrent record");
        assert_eq!(s.max_us, 10_000);
        assert!(s.p50_us <= s.p99_us, "quantiles must be monotone");
        assert!(s.p99_us <= s.max_us.max(1 << 14));
        let sum = (s.mean_us * s.count as f64).round() as u64;
        assert_eq!(sum, 10 + 10_000 + 10, "sum drifted under contention");
    });
    report.assert_clean();
    assert!(
        report.distinct_schedules >= MIN_SCHEDULES,
        "explored only {} schedules",
        report.distinct_schedules
    );
}
