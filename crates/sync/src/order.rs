//! Lock-order sanitizer: a process-global lock-order graph over lock
//! *classes* (creation sites), checked on every normal-mode acquisition.
//!
//! When a thread acquires a lock of class `C` while holding class `H`, the
//! edge `H → C` is recorded (with one exemplar pair of acquisition sites).
//! If the graph already proves `C` can reach `H` — i.e. some execution took
//! the locks in the opposite order — the acquisition panics immediately with
//! both acquisition sites, surfacing the inversion on the *first* run that
//! exercises either order rather than the rare interleaving that actually
//! deadlocks.
//!
//! Notes:
//! - Classes are creation sites, so N shards created in one loop share one
//!   class; same-class nesting is deliberately ignored (sharded locks of one
//!   pool are ordered by convention, e.g. never held pairwise).
//! - Gated by the `START_SANITIZE` switch of the
//!   [switch table](mod@crate::switches), which
//!   `start_nn::liveness::sanitize_enabled` reads too: on in debug builds,
//!   `1` forces on, `0` forces off, parsed once per process.
//! - Model mode skips the sanitizer entirely — the schedule explorer owns
//!   deadlock detection there, and keeps seeded deadlock models reporting
//!   `Deadlock` findings instead of sanitizer panics.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::Location;
use std::sync::{Mutex as StdMutex, OnceLock as StdOnceLock}; // sync-ok: the sanitizer's own plumbing

/// A lock class or acquisition site, keyed by source location value (two
/// `Location` references to the same site are not guaranteed pointer-equal).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Site {
    file: &'static str,
    line: u32,
    col: u32,
}

impl Site {
    fn of(loc: &'static Location<'static>) -> Self {
        Site { file: loc.file(), line: loc.line(), col: loc.column() }
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}", self.file, self.line, self.col)
    }
}

/// Proof that an acquisition was pushed on the held stack; returned by
/// `on_acquire`, consumed by `on_release`.
pub struct Token {
    class: Site,
}

#[derive(Clone, Copy)]
struct EdgeSites {
    /// Where the already-held lock was acquired.
    from_site: Site,
    /// Where the new lock was acquired (while holding `from`).
    to_site: Site,
}

#[derive(Default)]
struct Graph {
    /// `class → class` edges with one exemplar pair of acquisition sites.
    edges: HashMap<Site, HashMap<Site, EdgeSites>>,
}

impl Graph {
    /// Is `to` reachable from `from`? Returns the edge path if so.
    fn path(&self, from: Site, to: Site) -> Option<Vec<(Site, Site, EdgeSites)>> {
        let mut stack = vec![(from, Vec::new())];
        let mut seen = vec![from];
        while let Some((node, trail)) = stack.pop() {
            if let Some(out) = self.edges.get(&node) {
                for (&next, &sites) in out {
                    if seen.contains(&next) {
                        continue;
                    }
                    let mut t = trail.clone();
                    t.push((node, next, sites));
                    if next == to {
                        return Some(t);
                    }
                    seen.push(next);
                    stack.push((next, t));
                }
            }
        }
        None
    }
}

fn graph() -> &'static StdMutex<Graph> {
    static GRAPH: StdOnceLock<StdMutex<Graph>> = StdOnceLock::new(); // sync-ok: the sanitizer's own plumbing
    GRAPH.get_or_init(|| StdMutex::new(Graph::default()))
}

thread_local! {
    /// Stack of `(class, acquisition site)` for locks this thread holds.
    static HELD: RefCell<Vec<(Site, Site)>> = const { RefCell::new(Vec::new()) };
}

/// Whether the sanitizer runs: the `START_SANITIZE` switch of the one
/// [switch table](mod@crate::switches), on in debug builds by default.
pub fn sanitize_enabled() -> bool {
    crate::switches().sanitize
}

/// Record an acquisition of `class` at `site`. Panics on a lock-order
/// inversion. Returns `None` (no bookkeeping) when the sanitizer is off or
/// the thread is inside a model execution.
pub(crate) fn on_acquire(
    class: &'static Location<'static>,
    site: &'static Location<'static>,
) -> Option<Token> {
    if !sanitize_enabled() || crate::tls::in_model() {
        return None;
    }
    let c = Site::of(class);
    let s = Site::of(site);
    let held: Vec<(Site, Site)> = HELD.with(|h| h.borrow().clone());
    if !held.is_empty() {
        let mut g = graph().lock().unwrap_or_else(std::sync::PoisonError::into_inner); // sync-ok: the sanitizer's own plumbing
        for &(h_class, h_site) in &held {
            if h_class == c {
                continue;
            }
            g.edges
                .entry(h_class)
                .or_default()
                .entry(c)
                .or_insert(EdgeSites { from_site: h_site, to_site: s });
            if let Some(path) = g.path(c, h_class) {
                let chain: Vec<String> = path
                    .iter()
                    .map(|(from, to, sites)| {
                        format!(
                            "lock[{from}] (held, acquired at {}) then lock[{to}] (acquired at {})",
                            sites.from_site, sites.to_site
                        )
                    })
                    .collect();
                drop(g);
                panic!(
                    "lock-order inversion: acquiring lock[{c}] at {s} while holding lock[{h_class}] \
                     (acquired at {h_site}), but the opposite order was previously observed: {}",
                    chain.join("; ")
                );
            }
        }
    }
    HELD.with(|h| h.borrow_mut().push((c, s)));
    Some(Token { class: c })
}

/// Pop a held entry recorded by [`on_acquire`] (innermost matching class).
pub(crate) fn on_release(token: Token) {
    HELD.with(|h| {
        let mut held = h.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&(c, _)| c == token.class) {
            held.remove(pos);
        }
    });
}
