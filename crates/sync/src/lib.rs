//! `start_sync` — the workspace's sync layer.
//!
//! Drop-in shims for the `std::sync` primitives the START codebase uses
//! (`Mutex`, `RwLock`, `Condvar`, atomics, `mpsc`) that behave exactly like
//! `std` in normal builds, plus two verification layers:
//!
//! 1. **A deterministic schedule explorer** ([`model`]): when code runs under
//!    [`model::check`], every visible sync operation (lock acquire, condvar
//!    wait/notify, atomic op, channel op, spawn/join) becomes a scheduling
//!    decision point. The explorer serializes the model's threads — exactly
//!    one runs between decision points — and drives them through a seeded
//!    random walk plus a bounded-preemption exhaustive DFS over interleavings
//!    (loom/shuttle-style, vendored because external crates are offline).
//!    It detects **deadlock** (all runnable threads blocked), **lost
//!    wakeups** (a `Condvar::wait` with no reachable future notify), and
//!    **non-predicate-guarded waits** (a spurious wakeup escapes the wait
//!    without re-checking, see [`model::ModelConfig::spurious_wakeups`]).
//!    Mode is selected per-thread at runtime (thread-local), not by a cargo
//!    feature, so one test binary runs both real code and models without
//!    feature unification flipping the whole workspace.
//!
//! 2. **A lock-order sanitizer** ([`order`], `START_SANITIZE`-gated like the
//!    aliasing sanitizer in `start_nn::liveness`): in normal (non-model)
//!    mode, every `Mutex`/`RwLock` acquisition records an edge in a global
//!    lock-order graph keyed by the lock's creation site. Any acquisition
//!    that would close a cycle panics with both acquisition sites, so
//!    lock-order inversions surface on the *first* interleaving that takes
//!    the locks in either order, not just the interleaving that deadlocks.
//!
//! It also holds the workspace's one runtime switch table
//! ([`switches`](mod@switches)): every `START_*` environment variable the
//! library reads, parsed once per process.
//!
//! Semantics notes for model mode:
//! - Exploration is sequentially consistent: atomics take one scheduling
//!   point per operation and then delegate to the real primitive. Weak
//!   memory orderings are *accepted* but explored under SC.
//! - `wait_timeout` durations are abstract: a timed wait only "times out"
//!   when the model is otherwise stuck (no runnable thread), which is
//!   exactly the schedule where the timeout path matters.
//! - Lock poisoning works as in `std` (a panicking model thread poisons the
//!   mutexes it holds), so poison-drain protocols can be model-checked.

mod atomic_shim;
mod condvar;
pub mod model;
pub mod mpsc;
mod mutex;
pub mod order;
mod rwlock;
pub mod switches;
pub(crate) mod tls;

pub mod atomic {
    //! Shimmed atomic types plus the `std` `Ordering` re-export.
    pub use crate::atomic_shim::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};
    pub use std::sync::atomic::Ordering; // sync-ok: the shim layer itself
}

pub use condvar::{Condvar, WaitTimeoutResult};
pub use mutex::{Mutex, MutexGuard};
pub use rwlock::{RwLock, RwLockReadGuard, RwLockWriteGuard};
pub use switches::{switches, Switches};

// Plain re-exports: these need no scheduling hooks (`Arc` is just shared
// ownership; `OnceLock` races only at initialization, which the explorer's
// serialized execution cannot break), but re-exporting them lets library
// code import *all* sync vocabulary from one place so the `no-std-sync`
// lint (rule 6) can be a simple token ban.
pub use std::sync::{Arc, Barrier, LockResult, OnceLock, PoisonError, TryLockError, Weak}; // sync-ok: the shim layer itself
