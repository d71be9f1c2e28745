//! Hierarchical Navigable Small World index over a [`VectorStore`].
//!
//! The classic layered-graph ANN structure (Malkov & Yashunin): every
//! vector becomes a node with a geometrically-sampled top layer; upper
//! layers form an expressway of long links for greedy descent, layer 0
//! holds the dense neighbourhood graph searched with a bounded best-first
//! beam (`ef`). Tunables and their trade-offs:
//!
//! - `m` — links per node per layer (layer 0 gets `2m`). More links: better
//!   recall and connectivity, more memory, slower inserts.
//! - `ef_construction` — beam width while inserting. Wider: better graph
//!   quality (recall), slower builds.
//! - `ef_search` — beam width while querying. Wider: higher recall, lower
//!   QPS. `ef_search >= n` makes the search exhaustive over the reachable
//!   graph, which is what the recall tests pin to 1.0.
//!
//! Deletions are tombstones: the node stays in the graph as a traversal
//! waypoint (removing it would tear routing holes), but is never returned.
//! Re-inserting an id tombstones the old row and inserts a fresh node.
//! When tombstones leave a query short of `k` live answers, the search
//! falls back once to an exhaustive beam — small stores stay exact no
//! matter the delete pattern, and the fallback cannot trigger on a
//! tombstone-free index.
//!
//! Determinism: level draws come from a SplitMix64 seeded by
//! [`HnswConfig::seed`], every heap orders by `(distance, id)` under
//! `total_cmp`, and neighbour iteration follows stored link order — the
//! same insert sequence always builds the same graph and the same query
//! always returns the same answer.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::store::VectorStore;
use crate::{check_vector, AnnError, Neighbor, VectorIndex};

/// Tunables for [`Hnsw`]. See the module docs for the trade-offs.
#[derive(Debug, Clone, PartialEq)]
pub struct HnswConfig {
    /// Max links per node on layers above 0; layer 0 keeps `2m`.
    pub m: usize,
    /// Beam width during insertion.
    pub ef_construction: usize,
    /// Default beam width during queries (raised to `k` when `k` is larger).
    pub ef_search: usize,
    /// Seed for the level-sampling RNG.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        Self {
            m: 16,
            ef_construction: 128,
            ef_search: 64,
            seed: 0x5354_4152_5441_4e4e, // "STARTANN"
        }
    }
}

impl HnswConfig {
    /// Builder seeded from [`HnswConfig::default`]; `build()` validates.
    pub fn builder() -> HnswConfigBuilder {
        HnswConfigBuilder { cfg: Self::default() }
    }

    /// Builder seeded from this config (tweak-and-revalidate).
    pub fn to_builder(&self) -> HnswConfigBuilder {
        HnswConfigBuilder { cfg: self.clone() }
    }

    /// Check the invariants [`Hnsw::new`] would otherwise silently clamp
    /// into range: `2 ≤ m ≤ 128`, `ef_construction ≥ m`, `ef_search ≥ 1`.
    pub fn validate(&self) -> Result<(), HnswConfigError> {
        if !(2..=128).contains(&self.m) {
            return Err(HnswConfigError::MOutOfRange { got: self.m });
        }
        if self.ef_construction < self.m {
            return Err(HnswConfigError::EfConstructionBelowM {
                ef_construction: self.ef_construction,
                m: self.m,
            });
        }
        if self.ef_search == 0 {
            return Err(HnswConfigError::ZeroEfSearch);
        }
        Ok(())
    }
}

/// Why an [`HnswConfigBuilder::build`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HnswConfigError {
    /// `m` outside `2..=128` — below, the graph degenerates to a chain;
    /// above, link lists dominate memory for no recall gain.
    MOutOfRange { got: usize },
    /// Insertion beam narrower than the link budget it must fill.
    EfConstructionBelowM { ef_construction: usize, m: usize },
    /// A zero-width query beam can never surface a neighbour.
    ZeroEfSearch,
}

impl std::fmt::Display for HnswConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MOutOfRange { got } => {
                write!(f, "hnsw config: m = {got} outside the supported range 2..=128")
            }
            Self::EfConstructionBelowM { ef_construction, m } => write!(
                f,
                "hnsw config: ef_construction = {ef_construction} is below m = {m}; \
                 the insertion beam must cover the link budget"
            ),
            Self::ZeroEfSearch => write!(f, "hnsw config: ef_search must be at least 1"),
        }
    }
}

impl std::error::Error for HnswConfigError {}

/// Chainable builder for [`HnswConfig`] — the only construction path the
/// workspace lint accepts outside this file (rule 5 `no-config-literal`).
#[derive(Debug, Clone)]
pub struct HnswConfigBuilder {
    cfg: HnswConfig,
}

impl HnswConfigBuilder {
    pub fn m(mut self, m: usize) -> Self {
        self.cfg.m = m;
        self
    }

    pub fn ef_construction(mut self, ef: usize) -> Self {
        self.cfg.ef_construction = ef;
        self
    }

    pub fn ef_search(mut self, ef: usize) -> Self {
        self.cfg.ef_search = ef;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<HnswConfig, HnswConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// One graph node: link lists for layers `0..=level`.
struct Node {
    links: Vec<Vec<u32>>,
}

/// Search-frontier entry ordered by `(dist2, id)`, so a max-heap's root is
/// the worst retained result and ties always rank by ascending id.
#[derive(Debug, Clone, Copy)]
struct Cand {
    dist2: f32,
    id: u64,
    node: u32,
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Cand {}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist2.total_cmp(&other.dist2).then_with(|| self.id.cmp(&other.id))
    }
}

/// Dense visited set over node indices; one word per 64 nodes, so clearing
/// between layer searches is a short memset rather than a hash-set drain.
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn for_nodes(n: usize) -> Self {
        Self { words: vec![0; n.div_ceil(64)] }
    }

    fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Mark `i`; returns true when it was not yet visited.
    fn insert(&mut self, i: u32) -> bool {
        let word = &mut self.words[i as usize / 64];
        let mask = 1u64 << (i % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }
}

/// The HNSW index. See the module docs for structure and semantics.
pub struct Hnsw {
    cfg: HnswConfig,
    /// 1 / ln(m): the level-sampling temperature.
    level_mult: f64,
    store: VectorStore,
    nodes: Vec<Node>,
    /// Node index → external id (parallel to `nodes`).
    ids: Vec<u64>,
    /// Node index → tombstoned?
    dead: Vec<bool>,
    /// Live external id → node index.
    slots: HashMap<u64, u32>,
    live: usize,
    entry: Option<u32>,
    top_level: usize,
    rng: u64,
}

impl Hnsw {
    pub fn new(dim: usize, cfg: HnswConfig) -> Self {
        let cfg = HnswConfig {
            m: cfg.m.clamp(2, 128),
            ef_construction: cfg.ef_construction.max(cfg.m.clamp(2, 128)),
            ef_search: cfg.ef_search.max(1),
            ..cfg
        };
        Self {
            level_mult: 1.0 / (cfg.m as f64).ln(),
            store: VectorStore::new(dim),
            rng: cfg.seed,
            cfg,
            nodes: Vec::new(),
            ids: Vec::new(),
            dead: Vec::new(),
            slots: HashMap::new(),
            live: 0,
            entry: None,
            top_level: 0,
        }
    }

    pub fn config(&self) -> &HnswConfig {
        &self.cfg
    }

    /// Override the query beam width (e.g. for recall/latency sweeps).
    pub fn set_ef_search(&mut self, ef_search: usize) {
        self.cfg.ef_search = ef_search.max(1);
    }

    /// Total nodes ever inserted, tombstoned or not.
    pub fn graph_len(&self) -> usize {
        self.nodes.len()
    }

    /// Approximate resident bytes: vector arena + link lists + id tables.
    pub fn memory_bytes(&self) -> usize {
        let links: usize =
            self.nodes.iter().map(|n| n.links.iter().map(|l| l.len() * 4).sum::<usize>()).sum();
        self.store.data_bytes() + links + self.nodes.len() * (8 + 1 + 4)
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64: tiny, seedable, and plenty for geometric level draws.
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn sample_level(&mut self) -> usize {
        let unit = ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64); // [0, 1)
        let u = 1.0 - unit; // (0, 1]: ln never sees zero
        ((-u.ln() * self.level_mult) as usize).min(31)
    }

    fn cand(&self, node: u32, query: &[f32]) -> Cand {
        Cand { dist2: self.store.dist2(node, query), id: self.ids[node as usize], node }
    }

    /// One-at-a-time greedy descent on `layer`: hop to the best neighbour
    /// until no link improves on the current position.
    fn greedy_descend(&self, query: &[f32], mut ep: Cand, layer: usize) -> Cand {
        loop {
            let mut improved = false;
            for &nb in &self.nodes[ep.node as usize].links[layer] {
                let cand = self.cand(nb, query);
                if cand < ep {
                    ep = cand;
                    improved = true;
                }
            }
            if !improved {
                return ep;
            }
        }
    }

    /// Bounded best-first beam on `layer`, returning up to `ef` nearest
    /// reachable nodes in ascending `(dist2, id)` order. Tombstoned nodes
    /// are traversed and returned — the caller filters.
    fn search_layer(
        &self,
        query: &[f32],
        ep: Cand,
        ef: usize,
        layer: usize,
        visited: &mut BitSet,
    ) -> Vec<Cand> {
        let ef = ef.max(1);
        visited.insert(ep.node);
        let mut frontier = BinaryHeap::new();
        let mut results: BinaryHeap<Cand> = BinaryHeap::new();
        frontier.push(Reverse(ep));
        results.push(ep);
        while let Some(Reverse(closest)) = frontier.pop() {
            if results.len() >= ef {
                if let Some(worst) = results.peek() {
                    if closest > *worst {
                        break; // every remaining candidate is farther still
                    }
                }
            }
            for &nb in &self.nodes[closest.node as usize].links[layer] {
                if !visited.insert(nb) {
                    continue;
                }
                let cand = self.cand(nb, query);
                if results.len() < ef || results.peek().is_some_and(|worst| cand < *worst) {
                    frontier.push(Reverse(cand));
                    results.push(cand);
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        results.into_sorted_vec()
    }

    /// Diversified neighbour selection (Malkov & Yashunin, Alg. 4): walk
    /// `cands` in ascending `(dist2, id)` order and keep one only when it
    /// is closer to the base point than to every neighbour already kept.
    /// Plain closest-`m` truncation clumps every link inside the local
    /// cluster and severs inter-cluster bridges — recall then collapses as
    /// clustered stores grow — while the dominance test spreads links
    /// across directions. May keep fewer than `m`; always keeps the
    /// closest candidate.
    fn select_diverse(&self, cands: &[Cand], m: usize) -> Vec<Cand> {
        let mut kept: Vec<Cand> = Vec::with_capacity(m.min(cands.len()));
        for &c in cands {
            if kept.len() == m {
                break;
            }
            let row = self.store.row(c.node);
            let dominated = kept.iter().any(|s| self.store.dist2(s.node, row) < c.dist2);
            if !dominated {
                kept.push(c);
            }
        }
        kept
    }

    /// Re-select `node`'s layer-`layer` links down to `keep` via the
    /// diversity heuristic — the overflow path after a reverse link lands.
    fn prune_links(&mut self, node: u32, layer: usize, keep: usize) {
        let base = self.store.row(node);
        let mut ranked: Vec<Cand> = self.nodes[node as usize].links[layer]
            .iter()
            .map(|&nb| Cand {
                dist2: self.store.dist2(nb, base),
                id: self.ids[nb as usize],
                node: nb,
            })
            .collect();
        ranked.sort_unstable();
        let kept = self.select_diverse(&ranked, keep);
        let links = &mut self.nodes[node as usize].links[layer];
        links.clear();
        links.extend(kept.into_iter().map(|c| c.node));
    }

    fn insert_vector(&mut self, id: u64, vector: &[f32]) -> Result<(), AnnError> {
        check_vector(self.store.dim(), vector)?;
        // Overwrite semantics: tombstone the old row, insert a fresh node.
        self.remove_id(id);

        let node = self.store.push(vector);
        let level = self.sample_level();
        self.nodes.push(Node { links: vec![Vec::new(); level + 1] });
        self.ids.push(id);
        self.dead.push(false);
        self.slots.insert(id, node);
        self.live += 1;

        let Some(entry) = self.entry else {
            self.entry = Some(node);
            self.top_level = level;
            return Ok(());
        };

        let mut ep = self.cand(entry, vector);
        let mut layer = self.top_level;
        while layer > level {
            ep = self.greedy_descend(vector, ep, layer);
            layer -= 1;
        }

        let mut visited = BitSet::for_nodes(self.nodes.len());
        for l in (0..=level.min(self.top_level)).rev() {
            visited.clear();
            let found = self.search_layer(vector, ep, self.cfg.ef_construction, l, &mut visited);
            let max_links = if l == 0 { self.cfg.m * 2 } else { self.cfg.m };
            for cand in self.select_diverse(&found, self.cfg.m) {
                self.nodes[node as usize].links[l].push(cand.node);
                self.nodes[cand.node as usize].links[l].push(node);
                if self.nodes[cand.node as usize].links[l].len() > max_links {
                    self.prune_links(cand.node, l, max_links);
                }
            }
            if let Some(best) = found.first() {
                ep = *best;
            }
        }

        if level > self.top_level {
            self.top_level = level;
            self.entry = Some(node);
        }
        Ok(())
    }

    fn remove_id(&mut self, id: u64) -> bool {
        let Some(node) = self.slots.remove(&id) else {
            return false;
        };
        self.dead[node as usize] = true;
        self.live -= 1;
        true
    }

    /// Keep the closest `k` live results of an ascending beam.
    fn pick_live(&self, found: &[Cand], k: usize) -> Vec<Neighbor> {
        found
            .iter()
            .filter(|c| !self.dead[c.node as usize])
            .take(k)
            .map(|c| Neighbor { id: c.id, distance: c.dist2.sqrt() })
            .collect()
    }

    fn search(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, AnnError> {
        check_vector(self.store.dim(), query)?;
        let Some(entry) = self.entry else {
            return Ok(Vec::new());
        };
        if k == 0 || self.live == 0 {
            return Ok(Vec::new());
        }
        let mut ep = self.cand(entry, query);
        for layer in (1..=self.top_level).rev() {
            ep = self.greedy_descend(query, ep, layer);
        }
        let mut visited = BitSet::for_nodes(self.nodes.len());
        let ef = self.cfg.ef_search.max(k);
        let found = self.search_layer(query, ep, ef, 0, &mut visited);
        let picked = self.pick_live(&found, k);
        if picked.len() >= k.min(self.live) || ef >= self.nodes.len() {
            return Ok(picked);
        }
        // Tombstones crowded the beam below k live answers: re-run once,
        // exhaustively. Unreachable on a tombstone-free index (every beam
        // entry is live, so `picked.len()` is `min(k, ef, reachable)` and
        // `ef >= k`).
        visited.clear();
        let found = self.search_layer(query, ep, self.nodes.len(), 0, &mut visited);
        Ok(self.pick_live(&found, k))
    }
}

impl VectorIndex for Hnsw {
    fn dim(&self) -> usize {
        self.store.dim()
    }

    fn len(&self) -> usize {
        self.live
    }

    fn insert(&mut self, id: u64, vector: &[f32]) -> Result<(), AnnError> {
        self.insert_vector(id, vector)
    }

    fn remove(&mut self, id: u64) -> bool {
        self.remove_id(id)
    }

    fn knn(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, AnnError> {
        self.search(query, k)
    }

    fn get(&self, id: u64) -> Option<Vec<f32>> {
        let node = *self.slots.get(&id)?;
        Some(self.store.row(node).to_vec())
    }

    fn for_each(&self, f: &mut dyn FnMut(u64, &[f32])) {
        // Node order, not HashMap order: iteration is deterministic for a
        // given history.
        for node in 0..self.nodes.len() {
            if !self.dead[node] {
                f(self.ids[node], self.store.row(node as u32));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize, dim: usize) -> Vec<Vec<f32>> {
        // Deterministic spread-out synthetic vectors.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            ((z >> 11) as f64 / (1u64 << 53) as f64) as f32 - 0.5
        };
        (0..n).map(|_| (0..dim).map(|_| next()).collect()).collect()
    }

    #[test]
    fn empty_and_zero_k_queries_are_empty() {
        let index = Hnsw::new(4, HnswConfig::default());
        assert!(index.knn(&[0.0; 4], 5).is_ok_and(|r| r.is_empty()));
        let mut index = Hnsw::new(4, HnswConfig::default());
        index.insert(1, &[0.0; 4]).expect("insert");
        assert!(index.knn(&[0.0; 4], 0).is_ok_and(|r| r.is_empty()));
    }

    #[test]
    fn dimension_mismatch_is_a_typed_error_and_leaves_the_index_usable() {
        let mut index = Hnsw::new(4, HnswConfig::default());
        assert_eq!(
            index.insert(1, &[0.0; 3]),
            Err(AnnError::DimensionMismatch { expected: 4, got: 3 })
        );
        assert_eq!(
            index.knn(&[0.0; 5], 1),
            Err(AnnError::DimensionMismatch { expected: 4, got: 5 })
        );
        index.insert(1, &[0.0; 4]).expect("good insert after bad one");
        assert_eq!(index.len(), 1);
        let hits = index.knn(&[0.0; 4], 1).expect("knn after errors");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 1);
    }

    #[test]
    fn exhaustive_search_is_exact_on_a_small_store() {
        let dim = 8;
        let data = vecs(200, dim);
        let cfg = HnswConfig::builder().ef_search(400).build().unwrap();
        let mut index = Hnsw::new(dim, cfg);
        for (i, v) in data.iter().enumerate() {
            index.insert(i as u64, v).expect("insert");
        }
        let query = &data[17];
        let hits = index.knn(query, 10).expect("knn");
        // Exact reference: full scan with the same tie-break.
        let mut all: Vec<(f32, u64)> = data
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let d2: f32 = v.iter().zip(query).map(|(x, y)| (x - y) * (x - y)).sum();
                (d2.sqrt(), i as u64)
            })
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let expected: Vec<u64> = all.iter().take(10).map(|&(_, id)| id).collect();
        let got: Vec<u64> = hits.iter().map(|n| n.id).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn overwrite_replaces_the_vector() {
        let mut index = Hnsw::new(2, HnswConfig::default());
        index.insert(7, &[0.0, 0.0]).expect("insert");
        index.insert(7, &[5.0, 5.0]).expect("overwrite");
        assert_eq!(index.len(), 1);
        assert_eq!(index.get(7), Some(vec![5.0, 5.0]));
        let hits = index.knn(&[5.0, 5.0], 1).expect("knn");
        assert_eq!(hits[0].id, 7);
        assert_eq!(hits[0].distance, 0.0);
    }
}
