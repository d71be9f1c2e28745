//! The unified inference facade: [`Encoder`] + [`EncodeOptions`].
//!
//! Historically inference had three overlapping entry points —
//! `StartModel::encode_trajectories`, `StartModel::encode_views`, and
//! `downstream::similarity::encode_parallel` — each with its own hard-coded
//! chunking and threading. Those shims rode one deprecation release and are
//! now deleted; this is the only encode API:
//!
//! ```ignore
//! let embs = model.encoder().encode(&trajectories, &EncodeOptions::default())?;
//! ```
//!
//! What the facade owns:
//!
//! - **Validation** (typed [`EncodeError`], no asserts): empty views are
//!   rejected; over-long views are clamped to `cfg.max_len` (the prefix is
//!   kept), so a view longer than the model takes never fails.
//! - **One road forward per call**: TPE-GAT's `(|V|, d)` road matrix
//!   depends only on the weights, so an inference call computes it once,
//!   on an eval tape of its own whose buffers the chunks then reuse, and
//!   only if the call has a cache miss (an all-hit call runs no road
//!   forward). A [`FrozenModel`] computes it once
//!   per model version instead; the serving tier encodes through one.
//! - **Chunked pooled tapes**: views are encoded 64 at a time on an
//!   eval-mode [`Graph`] that binds the road matrix as a constant leaf
//!   ([`Graph::input`]); after every view the tape is pruned with
//!   [`Graph::forward_release`] (keeping only the road matrix), so peak
//!   memory stays at one-view scale whatever the chunk holds. Buffers cycle
//!   through a [`BufferPool`] across chunks. Training tapes do not take
//!   this path: their gradients must flow through the GAT.
//! - **Threading**: with `threads > 1`, whole chunks are distributed
//!   round-robin over scoped workers. Chunk boundaries are identical to the
//!   single-thread schedule and each view's embedding depends only on the
//!   view and the (frozen) parameters, so the output is **bitwise identical
//!   for every thread count** — the property the serving layer's tests pin.
//! - **Caching**: an optional exact-capacity LRU [`EmbeddingCache`] keyed
//!   by a 128-bit content [`Fingerprint`] of the clamped view. Duplicate
//!   views inside one call are encoded once even with the cache disabled.
//!
//! Worker panics (impossible input indexes, poisoned kernels) propagate to
//! the caller via `resume_unwind` exactly like the legacy paths — turning
//! them into typed errors is the job of `start-serve`'s service boundary.

use start_sync::{Arc, Mutex};
use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use start_nn::graph::Graph;
use start_nn::{Array, BufferPool};
use start_traj::{TrajView, Trajectory};

use crate::model::{clamp_view, StartModel};

/// A trajectory representation vector (`d` pooled `[CLS]` activations).
pub type Embedding = Vec<f32>;

// ---------------------------------------------------------------------------
// Options and errors
// ---------------------------------------------------------------------------

/// Views per tape chunk: each chunk records on one pooled tape that binds
/// the road matrix once. One definition for the [`Encoder`] and the default
/// [`crate::downstream::TrajEncoder::embed_views`].
pub(crate) const CHUNK: usize = 64;

/// Options of one [`Encoder::encode`] call.
#[derive(Debug, Clone)]
pub struct EncodeOptions {
    /// Worker threads for large batches. `0` is rejected
    /// ([`EncodeError::ZeroThreads`]); `1` (the default) is the sequential
    /// schedule the multi-threaded output is defined to bitwise-match.
    pub threads: usize,
    /// Optional shared embedding cache consulted (and filled) per view.
    pub cache: Option<Arc<EmbeddingCache>>,
}

impl Default for EncodeOptions {
    /// Sequential defaults: 1 thread, no cache.
    fn default() -> Self {
        Self { threads: 1, cache: None }
    }
}

/// Typed validation failures of an encode call. Encoding itself is
/// deterministic arithmetic and cannot fail; everything here is caught
/// before the first tape is recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// View `index` has no roads; there is nothing to pool.
    EmptyView { index: usize },
    /// `opts.threads == 0`.
    ZeroThreads,
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::EmptyView { index } => {
                write!(f, "view {index} is empty; cannot encode a zero-length trajectory")
            }
            EncodeError::ZeroThreads => write!(f, "EncodeOptions::threads must be >= 1"),
        }
    }
}

impl std::error::Error for EncodeError {}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// 128-bit content hash of a (clamped) view: roads, times, mask flags, and
/// the embedding-dropout probability — everything the eval-mode forward pass
/// reads. Two independent FNV-1a-64 streams with distinct offset bases form
/// the halves, so accidental collisions are out of reach for any realistic
/// embedding-store size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_BASIS_LO: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_BASIS_HI: u64 = 0x9e37_79b9_7f4a_7c15;

#[inline]
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fingerprint the exact content an encode of `view` consumes.
pub fn fingerprint_view(view: &TrajView) -> Fingerprint {
    let mut lo = FNV_BASIS_LO;
    let mut hi = FNV_BASIS_HI;
    let mut feed = |bytes: &[u8]| {
        lo = fnv1a(lo, bytes);
        hi = fnv1a(hi, bytes);
    };
    feed(&(view.len() as u64).to_le_bytes());
    for r in &view.roads {
        feed(&r.0.to_le_bytes());
    }
    for t in &view.times {
        feed(&t.to_le_bytes());
    }
    for &m in &view.masked {
        feed(&[m as u8]);
    }
    feed(&view.embed_dropout.to_bits().to_le_bytes());
    Fingerprint(((hi as u128) << 64) | lo as u128)
}

// ---------------------------------------------------------------------------
// LRU embedding cache
// ---------------------------------------------------------------------------

/// Cache hit/miss counters plus occupancy, as one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
    pub capacity: usize,
    /// Model-version epoch of the cache instance these counters describe.
    pub epoch: u64,
}

impl CacheStats {
    /// Hits over lookups, `0.0` when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const NIL: usize = usize::MAX;

struct Slot {
    key: u128,
    emb: Embedding,
    prev: usize,
    next: usize,
}

/// An LRU of at most `capacity` entries: an intrusive doubly-linked
/// recency list over slab slots plus a key map, and the lookup tallies.
/// All operations are O(1).
struct Lru {
    map: HashMap<u128, usize>,
    slots: Vec<Slot>,
    head: usize,
    tail: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl Lru {
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }

    fn get(&mut self, key: u128) -> Option<Embedding> {
        let Some(&i) = self.map.get(&key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.unlink(i);
        self.push_front(i);
        Some(self.slots[i].emb.clone())
    }

    fn insert(&mut self, key: u128, emb: Embedding) {
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].emb = emb;
            self.unlink(i);
            self.push_front(i);
            return;
        }
        let i = if self.slots.len() < self.capacity {
            self.slots.push(Slot { key, emb, prev: NIL, next: NIL });
            self.slots.len() - 1
        } else if self.tail != NIL {
            // Evict the least-recently-used entry and reuse its slot.
            let lru = self.tail;
            self.unlink(lru);
            self.map.remove(&self.slots[lru].key);
            self.slots[lru] = Slot { key, emb, prev: NIL, next: NIL };
            lru
        } else {
            // Capacity 0: there is no slot to fill or evict.
            return;
        };
        self.map.insert(key, i);
        self.push_front(i);
    }
}

/// An LRU cache from view [`Fingerprint`]s to at most `capacity`
/// embeddings, behind one mutex. A cached vector is returned by clone and
/// is bit-for-bit the vector that was inserted.
///
/// A cache instance is pinned to one model-version **epoch** at
/// construction. The serving tier never mutates a cache across a weight
/// swap — invalidation is a fresh cache at the new epoch, so an in-flight
/// encode racing the swap can only insert into the retiring instance and
/// stale bits are unreachable from the new version by construction.
pub struct EmbeddingCache {
    lru: Mutex<Lru>,
    epoch: u64,
}

impl std::fmt::Debug for EmbeddingCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("EmbeddingCache")
            .field("entries", &stats.entries)
            .field("capacity", &stats.capacity)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

impl EmbeddingCache {
    /// Cache of exactly `capacity` entries (0 stores nothing), pinned to
    /// model-version `epoch` — the serving tier constructs one cache per
    /// published model version.
    pub fn new(capacity: usize, epoch: u64) -> Self {
        let lru = Lru {
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
        };
        Self { lru: Mutex::new(lru), epoch }
    }

    /// The model-version epoch this cache was built for (immutable).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Lock the LRU, riding through poisoning: it holds plain data and a
    /// panicked writer can only have left it consistent-but-stale (every
    /// mutation completes or the entry stays absent), so serving from it is
    /// safe.
    fn lock(&self) -> start_sync::MutexGuard<'_, Lru> {
        self.lru.lock().unwrap_or_else(start_sync::PoisonError::into_inner)
    }

    /// Look up a fingerprint, refreshing its recency on hit.
    pub fn get(&self, fp: Fingerprint) -> Option<Embedding> {
        self.lock().get(fp.0)
    }

    /// Insert (or refresh) an embedding, evicting the least-recently-used
    /// entry when the cache is full.
    pub fn insert(&self, fp: Fingerprint, emb: Embedding) {
        self.lock().insert(fp.0, emb);
    }

    /// Current number of cached embeddings.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot, taken under the one lock.
    pub fn stats(&self) -> CacheStats {
        let lru = self.lock();
        CacheStats {
            hits: lru.hits,
            misses: lru.misses,
            entries: lru.map.len(),
            capacity: lru.capacity,
            epoch: self.epoch,
        }
    }
}

// ---------------------------------------------------------------------------
// The Encoder facade
// ---------------------------------------------------------------------------

/// The single inference entry point, borrowed from a [`StartModel`] via
/// [`StartModel::encoder`] or from a [`FrozenModel`] via
/// [`FrozenModel::encoder`]. See the module docs for the contract.
pub struct Encoder<'m> {
    model: &'m StartModel,
    /// The model's road matrix when it was built ahead of the call; `None`
    /// builds it inside the call, once, if the call has a cache miss.
    roads: Option<&'m Array>,
}

impl StartModel {
    /// Borrow the unified inference facade for this model.
    pub fn encoder(&self) -> Encoder<'_> {
        Encoder { model: self, roads: None }
    }
}

/// The eval-mode `(|V|, d)` road matrix of `model`, on a tape of its own
/// over `pool`. The tape's buffers go back to the returned pool, so the
/// chunks encoded next reuse them.
fn road_matrix(model: &StartModel, pool: BufferPool) -> (Array, BufferPool) {
    let mut g = Graph::with_pool(&model.store, false, pool);
    let roads = model.road_reprs(&mut g);
    let matrix = g.value(roads).clone();
    (matrix, g.into_pool())
}

/// One model version frozen for inference: the model together with the
/// road matrix built from it, so no encode can pair one version's TAT-Enc
/// with another version's road matrix. The matrix is built once, in
/// [`FrozenModel::new`], and holds `|V| × d × 4` bytes.
///
/// The model is taken behind a shared `Arc` and lent out only as
/// `&StartModel`, so its weights cannot change under the matrix; training
/// and `adopt_weights` work on a model that is not frozen.
pub struct FrozenModel {
    model: Arc<StartModel>,
    roads: Array,
}

impl FrozenModel {
    /// Run `model`'s road stage once and keep its output beside it.
    pub fn new(model: Arc<StartModel>) -> Self {
        let (roads, _) = road_matrix(&model, BufferPool::new());
        Self { model, roads }
    }

    /// The frozen model.
    pub fn model(&self) -> &StartModel {
        &self.model
    }

    /// The inference facade over this version, reading the prebuilt road
    /// matrix instead of running the road stage. Bitwise the model's own
    /// [`StartModel::encoder`].
    pub fn encoder(&self) -> Encoder<'_> {
        Encoder { model: &self.model, roads: Some(&self.roads) }
    }
}

/// A deduplicated unit of work: one view to encode, and every output slot
/// it must fill.
struct MissGroup {
    view: TrajView,
    fingerprint: Fingerprint,
    slots: Vec<usize>,
}

impl<'m> Encoder<'m> {
    /// Embed a batch of trajectories (identity views).
    pub fn encode(
        &self,
        trajectories: &[Trajectory],
        opts: &EncodeOptions,
    ) -> Result<Vec<Embedding>, EncodeError> {
        let views: Vec<TrajView> = trajectories.iter().map(TrajView::identity).collect();
        self.encode_views(&views, opts)
    }

    /// Embed pre-built views (masking, departure-only timestamps, …).
    pub fn encode_views(
        &self,
        views: &[TrajView],
        opts: &EncodeOptions,
    ) -> Result<Vec<Embedding>, EncodeError> {
        let (out, _pool) = self.encode_views_impl(views, opts, opts.threads, BufferPool::new())?;
        Ok(out)
    }

    /// [`Encoder::encode_views`] threading an external [`BufferPool`]
    /// through the call, for long-lived callers (the serving workers) that
    /// reuse one pool across many batches. Forces the sequential schedule —
    /// a pool cannot be shared across workers — which is also the schedule
    /// every other configuration bitwise-matches.
    pub fn encode_views_pooled(
        &self,
        views: &[TrajView],
        opts: &EncodeOptions,
        pool: BufferPool,
    ) -> Result<(Vec<Embedding>, BufferPool), EncodeError> {
        self.encode_views_impl(views, opts, 1, pool)
    }

    /// The one encode path: `threads` is `opts.threads`, or 1 for a pooled
    /// call.
    fn encode_views_impl(
        &self,
        views: &[TrajView],
        opts: &EncodeOptions,
        threads: usize,
        pool: BufferPool,
    ) -> Result<(Vec<Embedding>, BufferPool), EncodeError> {
        if opts.threads == 0 {
            return Err(EncodeError::ZeroThreads);
        }
        let mut slots: Vec<Option<Embedding>> = vec![None; views.len()];
        let mut misses: Vec<MissGroup> = Vec::new();
        let mut seen: HashMap<u128, usize> = HashMap::new();

        for (i, view) in views.iter().enumerate() {
            if view.is_empty() {
                return Err(EncodeError::EmptyView { index: i });
            }
            let view = clamp_view(view.clone(), self.model.cfg.max_len);
            let fp = fingerprint_view(&view);
            if let Some(cache) = &opts.cache {
                if let Some(emb) = cache.get(fp) {
                    slots[i] = Some(emb);
                    continue;
                }
            }
            match seen.get(&fp.0) {
                Some(&g) => misses[g].slots.push(i),
                None => {
                    seen.insert(fp.0, misses.len());
                    misses.push(MissGroup { view, fingerprint: fp, slots: vec![i] });
                }
            }
        }

        let miss_views: Vec<&TrajView> = misses.iter().map(|m| &m.view).collect();
        let (encoded, pool) = match self.roads {
            _ if misses.is_empty() => (Vec::new(), pool),
            Some(roads) => self.encode_unique(&miss_views, roads, threads, pool),
            None => {
                let (roads, pool) = road_matrix(self.model, pool);
                self.encode_unique(&miss_views, &roads, threads, pool)
            }
        };

        for (group, mut emb) in misses.iter().zip(encoded) {
            if let Some(cache) = &opts.cache {
                cache.insert(group.fingerprint, emb.clone());
            }
            let last = group.slots.len() - 1;
            for (n, &slot) in group.slots.iter().enumerate() {
                slots[slot] = Some(if n == last { std::mem::take(&mut emb) } else { emb.clone() });
            }
        }
        let out = slots
            .into_iter()
            .map(|s| match s {
                Some(e) => e,
                // Every index is either a cache hit or a member of exactly
                // one miss group, so an unfilled slot is an encoder bug.
                None => panic!("encoder invariant violated: output slot left unfilled"),
            })
            .collect();
        Ok((out, pool))
    }

    /// Encode already-validated, already-deduplicated views against the
    /// model's road matrix `roads`. The chunk schedule is fixed by
    /// [`CHUNK`]; `threads > 1` only changes which worker runs a chunk,
    /// never its boundaries or its content.
    fn encode_unique(
        &self,
        views: &[&TrajView],
        roads: &Array,
        threads: usize,
        mut pool: BufferPool,
    ) -> (Vec<Embedding>, BufferPool) {
        let num_chunks = views.len().div_ceil(CHUNK);
        let threads = threads.min(num_chunks).max(1);

        if threads == 1 {
            let mut out = Vec::with_capacity(views.len());
            for part in views.chunks(CHUNK) {
                pool = self.encode_chunk(part, roads, pool, &mut out);
            }
            return (out, pool);
        }

        // Chunks are dealt round-robin; worker w owns chunks w, w+T, w+2T, …
        let chunks: Vec<&[&TrajView]> = views.chunks(CHUNK).collect();
        let mut per_chunk: Vec<Vec<Embedding>> = vec![Vec::new(); chunks.len()];
        crossbeam::scope(|s| {
            let mut handles = Vec::with_capacity(threads);
            for w in 0..threads {
                let mine: Vec<(usize, &[&TrajView])> = chunks
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % threads == w)
                    .map(|(i, c)| (i, *c))
                    .collect();
                handles.push(s.spawn(move |_| {
                    let mut p = BufferPool::new();
                    let mut done = Vec::with_capacity(mine.len());
                    for (idx, part) in mine {
                        let mut embs = Vec::with_capacity(part.len());
                        p = self.encode_chunk(part, roads, p, &mut embs);
                        done.push((idx, embs));
                    }
                    done
                }));
            }
            for h in handles {
                let done = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
                for (idx, embs) in done {
                    per_chunk[idx] = embs;
                }
            }
        })
        .unwrap_or_else(|e| std::panic::resume_unwind(e));
        (per_chunk.into_iter().flatten().collect(), pool)
    }

    /// One chunk on one pooled eval tape: the road matrix bound once as a
    /// constant leaf, the tape pruned back to it after every view.
    fn encode_chunk(
        &self,
        views: &[&TrajView],
        roads: &Array,
        mut pool: BufferPool,
        out: &mut Vec<Embedding>,
    ) -> BufferPool {
        // Dropout is inert on an eval tape, so this rng is never drawn; it
        // exists to satisfy the recording API and keep one code path.
        let mut rng = StdRng::seed_from_u64(0);
        let leaf = pool.array_copy(roads);
        let mut g = Graph::with_pool(&self.model.store, false, pool);
        let roads = g.input(leaf);
        for view in views {
            let enc = self.model.encode_view(&mut g, view, roads, &mut rng);
            out.push(g.value(enc.pooled).row(0).to_vec());
            g.forward_release(&[roads]);
        }
        g.reset();
        g.into_pool()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StartConfig;
    use start_roadnet::synth::{generate_city, CityConfig};
    use start_roadnet::TransferMatrix;
    use start_traj::{SimConfig, Simulator};

    fn setup(n: usize) -> (start_roadnet::City, Vec<Trajectory>, TransferMatrix) {
        let city = generate_city("t", &CityConfig::tiny());
        let sim = Simulator::new(
            &city.net,
            SimConfig { num_trajectories: n, num_drivers: 4, ..Default::default() },
        );
        let data = sim.generate();
        let tm = TransferMatrix::from_sequences(
            city.net.num_segments(),
            data.iter().map(|t| t.roads.as_slice()),
        );
        (city, data, tm)
    }

    fn bits(v: &[Embedding]) -> Vec<Vec<u32>> {
        v.iter().map(|e| e.iter().map(|x| x.to_bits()).collect()).collect()
    }

    /// The facade is the only encode entry point (the deprecated shims are
    /// deleted); pin that a batch encode is bitwise the concatenation of
    /// one-trajectory encodes, so callers migrating off any old path can
    /// compare against per-call results.
    #[test]
    fn encode_matches_per_trajectory_calls_bitwise() {
        let (city, data, tm) = setup(30);
        let model = StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 7);
        let batched = model.encoder().encode(&data, &EncodeOptions::default()).unwrap();
        let single: Vec<Embedding> = data
            .iter()
            .map(|t| {
                let one = std::slice::from_ref(t);
                model.encoder().encode(one, &EncodeOptions::default()).unwrap().remove(0)
            })
            .collect();
        assert_eq!(bits(&batched), bits(&single));
    }

    #[test]
    fn cache_epoch_is_pinned_at_construction_and_reported() {
        let cache = EmbeddingCache::new(16, 7);
        assert_eq!(cache.epoch(), 7);
        assert_eq!(cache.stats().epoch, 7);
    }

    /// At least 150 views make three chunks, the last one partial, so every
    /// thread count from 2 to 4 deals whole chunks to more than one worker.
    #[test]
    fn thread_and_chunk_counts_do_not_change_the_bits() {
        let (city, data, tm) = setup(150);
        assert!(data.len() > 2 * CHUNK && data.len() % CHUNK != 0, "{} views", data.len());
        let model = StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 7);
        let base = model.encoder().encode(&data, &EncodeOptions::default()).unwrap();
        for threads in 2..=4 {
            let opts = EncodeOptions { threads, cache: None };
            let got = model.encoder().encode(&data, &opts).unwrap();
            assert_eq!(bits(&base), bits(&got), "threads={threads} diverged");
        }
    }

    /// Today's per-chunk computation, one view at a time: a fresh eval
    /// tape that runs the road stage, then TAT-Enc over the view.
    fn oracle(model: &StartModel, views: &[TrajView]) -> Vec<Embedding> {
        let mut rng = StdRng::seed_from_u64(0);
        views
            .iter()
            .map(|view| {
                let mut g = Graph::new(&model.store, false);
                let roads = model.road_reprs(&mut g);
                let view = clamp_view(view.clone(), model.cfg.max_len);
                let enc = model.encode_view(&mut g, &view, roads, &mut rng);
                g.value(enc.pooled).row(0).to_vec()
            })
            .collect()
    }

    /// The road matrix built once per call (or once per [`FrozenModel`])
    /// and bound as a constant leaf gives the bits of running the road
    /// stage on every view's own tape, on every schedule: thread counts,
    /// a warm pool, a cached second call and the frozen facade.
    #[test]
    fn hoisted_road_matrix_is_bitwise_the_per_view_oracle() {
        let (city, data, tm) = setup(150);
        assert!(data.len() > 2 * CHUNK && data.len() % CHUNK != 0, "{} views", data.len());
        let model = StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 7);
        let views: Vec<TrajView> = data.iter().map(TrajView::identity).collect();
        let want = bits(&oracle(&model, &views));
        for threads in 1..=4 {
            let opts = EncodeOptions { threads, cache: None };
            let got = model.encoder().encode(&data, &opts).unwrap();
            assert_eq!(bits(&got), want, "threads={threads}");
        }
        let opts = EncodeOptions::default();
        let (_, pool) =
            model.encoder().encode_views_pooled(&views, &opts, BufferPool::new()).unwrap();
        let (warm, _) = model.encoder().encode_views_pooled(&views, &opts, pool).unwrap();
        assert_eq!(bits(&warm), want, "warm pool");
        let cache = Arc::new(EmbeddingCache::new(256, 0));
        let cached = EncodeOptions { cache: Some(cache.clone()), ..EncodeOptions::default() };
        let _ = model.encoder().encode_views(&views, &cached).unwrap();
        let again = model.encoder().encode_views(&views, &cached).unwrap();
        assert_eq!(cache.stats().hits, views.len() as u64, "second call must be all hits");
        assert_eq!(bits(&again), want, "cached second call");
        let frozen = FrozenModel::new(Arc::new(model));
        let got = frozen.encoder().encode_views(&views, &opts).unwrap();
        assert_eq!(bits(&got), want, "frozen model");
    }

    #[test]
    fn pooled_variant_matches_and_returns_a_warm_pool() {
        let (city, data, tm) = setup(20);
        let model = StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 7);
        let views: Vec<TrajView> = data.iter().map(TrajView::identity).collect();
        let base = model.encoder().encode_views(&views, &EncodeOptions::default()).unwrap();
        let (a, pool) = model
            .encoder()
            .encode_views_pooled(&views, &EncodeOptions::default(), BufferPool::new())
            .unwrap();
        // Second call on the warmed pool: identical bits again.
        let (b, _pool) =
            model.encoder().encode_views_pooled(&views, &EncodeOptions::default(), pool).unwrap();
        assert_eq!(bits(&base), bits(&a));
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn duplicates_are_deduplicated_but_answered_per_slot() {
        let (city, data, tm) = setup(10);
        let model = StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 7);
        let batch = vec![
            data[0].clone(),
            data[1].clone(),
            data[0].clone(),
            data[2].clone(),
            data[0].clone(),
        ];
        let out = model.encoder().encode(&batch, &EncodeOptions::default()).unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(out[0], out[2]);
        assert_eq!(out[0], out[4]);
        assert_ne!(out[0], out[1]);
    }

    #[test]
    fn cache_round_trip_returns_the_identical_vector() {
        let (city, data, tm) = setup(10);
        let model = StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 7);
        let cache = Arc::new(EmbeddingCache::new(64, 0));
        let opts = EncodeOptions { cache: Some(cache.clone()), ..EncodeOptions::default() };
        let first = model.encoder().encode(&data[..4], &opts).unwrap();
        let again = model.encoder().encode(&data[..4], &opts).unwrap();
        assert_eq!(bits(&first), bits(&again));
        let stats = cache.stats();
        assert_eq!(stats.entries, 4);
        assert!(stats.hits >= 4, "second call must be served from cache: {stats:?}");
        // And the cached path agrees with the uncached one.
        let plain = model.encoder().encode(&data[..4], &EncodeOptions::default()).unwrap();
        assert_eq!(bits(&plain), bits(&again));
    }

    #[test]
    fn empty_view_is_a_typed_error() {
        let (city, data, tm) = setup(5);
        let model = StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 7);
        let mut bad = TrajView::identity(&data[0]);
        bad.roads.clear();
        bad.times.clear();
        bad.masked.clear();
        let err = model
            .encoder()
            .encode_views(&[TrajView::identity(&data[1]), bad], &EncodeOptions::default())
            .unwrap_err();
        assert_eq!(err, EncodeError::EmptyView { index: 1 });
    }

    #[test]
    fn zero_threads_rejected() {
        let (city, data, tm) = setup(5);
        let model = StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 7);
        let opts = EncodeOptions { threads: 0, ..EncodeOptions::default() };
        assert_eq!(
            model.encoder().encode(&data[..2], &opts).unwrap_err(),
            EncodeError::ZeroThreads
        );
    }

    #[test]
    fn fingerprint_separates_every_field() {
        let (_, data, _) = setup(5);
        let base = TrajView::identity(&data[0]);
        let fp = fingerprint_view(&base);
        let mut roads = base.clone();
        roads.roads[0] = start_roadnet::SegmentId(roads.roads[0].0 + 1);
        let mut times = base.clone();
        times.times[0] += 1;
        let mut masked = base.clone();
        masked.masked[0] = !masked.masked[0];
        let mut dropout = base.clone();
        dropout.embed_dropout = 0.25;
        for (label, v) in
            [("roads", roads), ("times", times), ("masked", masked), ("dropout", dropout)]
        {
            assert_ne!(fp, fingerprint_view(&v), "{label} change must change the fingerprint");
        }
        assert_eq!(fp, fingerprint_view(&base.clone()));
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let cache = EmbeddingCache::new(2, 0);
        let fp = |n: u128| Fingerprint(n);
        cache.insert(fp(1), vec![1.0]);
        cache.insert(fp(2), vec![2.0]);
        assert_eq!(cache.get(fp(1)), Some(vec![1.0])); // refresh 1 → 2 is LRU
        cache.insert(fp(3), vec![3.0]); // evicts 2
        assert_eq!(cache.get(fp(2)), None);
        assert_eq!(cache.get(fp(1)), Some(vec![1.0]));
        assert_eq!(cache.get(fp(3)), Some(vec![3.0]));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_insert_refreshes_existing_keys() {
        let cache = EmbeddingCache::new(2, 0);
        cache.insert(Fingerprint(1), vec![1.0]);
        cache.insert(Fingerprint(2), vec![2.0]);
        cache.insert(Fingerprint(1), vec![1.5]); // refresh + replace → 2 is LRU
        cache.insert(Fingerprint(3), vec![3.0]);
        assert_eq!(cache.get(Fingerprint(1)), Some(vec![1.5]));
        assert_eq!(cache.get(Fingerprint(2)), None);
    }

    /// The cache holds exactly `capacity` entries however many distinct
    /// fingerprints pass through it, and capacity 0 stores nothing.
    #[test]
    fn cache_holds_exactly_its_capacity() {
        for capacity in [0, 1, 11, 512] {
            let cache = EmbeddingCache::new(capacity, 0);
            for n in 0..10_000u128 {
                cache.insert(Fingerprint(n), vec![n as f32]);
            }
            let stats = cache.stats();
            assert_eq!(stats.entries, capacity, "capacity {capacity}");
            assert_eq!(stats.capacity, capacity, "capacity {capacity}");
        }
    }
}
