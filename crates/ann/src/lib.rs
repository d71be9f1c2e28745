//! `start-ann`: the similarity-search layer under the serving tier.
//!
//! The paper's own efficiency story (Fig. 4/10) is a similarity-search
//! workload — embed every trajectory once, answer queries by nearest
//! neighbour in embedding space. At the scale the service is meant to hold
//! (ROADMAP item 2: millions of embeddings) a brute-force scan is dead on
//! arrival, so this crate provides the two pieces the service swaps between:
//!
//! - [`VectorIndex`] — the capability every kNN backend implements:
//!   incremental insert, removal, deterministic k-nearest queries, and
//!   iteration. Every backend validates vectors through the one
//!   [`check_vector`]. The serving crate's brute-force
//!   `EmbeddingStore` implements it as the *exactness reference*; the
//!   [`hnsw::Hnsw`] index implements it as the *scaling path*.
//! - [`store::VectorStore`] — an arena-backed, row-major f32 vector arena,
//!   so a million 64-d embeddings cost 256 MB (10⁶ × 64 × 4 B) with no
//!   per-row allocation.
//! - [`TopK`] — bounded max-heap k-smallest selection with the workspace's
//!   deterministic tie-break (distance, then smaller id), shared by the
//!   brute-force scan, the HNSW result stage and the evaluation scans
//!   (`start_eval::metrics`), so every exact ranking breaks ties alike.
//! - [`dist2`] — the one exact squared-distance kernel: the store rows,
//!   `start_core::euclidean` and the evaluation scans all sum through it.
//!
//! Everything here is deterministic: HNSW level draws come from a seeded
//! SplitMix64, heaps order by `(f32::total_cmp, id)`, and no iteration
//! order depends on hashing.

use std::collections::BinaryHeap;

pub mod hnsw;
pub mod store;

pub use hnsw::{Hnsw, HnswConfig, HnswConfigBuilder, HnswConfigError};
pub use store::VectorStore;

/// One kNN answer: an indexed id and its (Euclidean) distance to the query.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbor {
    pub id: u64,
    pub distance: f32,
}

/// Typed failures of the index layer.
///
/// Indexes validate every vector at the API boundary instead of asserting,
/// so one malformed request can never take down a service holding the
/// index — the caller gets the error, the index stays usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnError {
    /// The vector's length does not match the index dimension.
    DimensionMismatch { expected: usize, got: usize },
    /// Component `index` of the vector is NaN or infinite.
    NonFinite { index: usize },
}

impl std::fmt::Display for AnnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DimensionMismatch { expected, got } => {
                write!(f, "vector dimension mismatch: index holds {expected}, got {got}")
            }
            Self::NonFinite { index } => write!(f, "vector component {index} is not finite"),
        }
    }
}

impl std::error::Error for AnnError {}

/// The one check every index runs on an inserted or queried vector: its
/// length must be `dim`, then every component must be finite. A NaN or
/// infinite component would poison every distance it enters.
pub fn check_vector(dim: usize, v: &[f32]) -> Result<(), AnnError> {
    if v.len() != dim {
        return Err(AnnError::DimensionMismatch { expected: dim, got: v.len() });
    }
    match v.iter().position(|x| !x.is_finite()) {
        Some(index) => Err(AnnError::NonFinite { index }),
        None => Ok(()),
    }
}

/// Squared Euclidean distance, summed left to right in `f32`: the one exact
/// distance kernel. Exact scans rank by this value, not by its `sqrt`,
/// because `sqrt` can round two distinct squared distances to one and so
/// invent a tie.
#[inline]
pub fn dist2(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// The capability contract of a kNN backend.
///
/// Implementations must be deterministic: equal-distance results rank by
/// ascending id, and `knn` on the same index state always returns the same
/// answer. `insert` on an already-present id overwrites it.
pub trait VectorIndex: Send + Sync {
    /// The vector dimensionality every call must match.
    fn dim(&self) -> usize;

    /// Number of live (queryable) vectors.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert or overwrite the vector for `id`.
    fn insert(&mut self, id: u64, vector: &[f32]) -> Result<(), AnnError>;

    /// Remove `id`; returns whether it was present.
    fn remove(&mut self, id: u64) -> bool;

    /// The `k` nearest live vectors to `query` by Euclidean distance,
    /// closest first; ties break toward the smaller id.
    fn knn(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, AnnError>;

    /// The stored vector for `id` (a copy), if live.
    fn get(&self, id: u64) -> Option<Vec<f32>>;

    /// Visit every live `(id, vector)` pair, in unspecified order — the
    /// full-scan oracle the brute-force store's selection proptest ranks.
    fn for_each(&self, f: &mut dyn FnMut(u64, &[f32]));
}

/// Heap key ordered by `(distance, id)` under `total_cmp`, so a max-heap's
/// root is the *worst* retained neighbour and equal distances rank by id.
#[derive(Debug, Clone, Copy)]
struct WorstFirst {
    distance: f32,
    id: u64,
}

impl PartialEq for WorstFirst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for WorstFirst {}

impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.distance.total_cmp(&other.distance).then_with(|| self.id.cmp(&other.id))
    }
}

/// Bounded k-smallest selection: O(N log k) instead of sorting all N
/// candidates, with the same deterministic order a full
/// sort-by-`(distance, id)` would produce.
///
/// This is the selection kernel behind every brute-force scan and the HNSW
/// result stage; keeping it in one place keeps the tie-break rule in one
/// place too.
pub struct TopK {
    k: usize,
    heap: BinaryHeap<WorstFirst>,
}

impl TopK {
    pub fn new(k: usize) -> Self {
        Self { k, heap: BinaryHeap::with_capacity(k.min(1 << 16).saturating_add(1)) }
    }

    /// Offer one candidate; kept only while it beats the current worst.
    pub fn push(&mut self, id: u64, distance: f32) {
        let key = WorstFirst { distance, id };
        if self.heap.len() < self.k {
            self.heap.push(key);
        } else if let Some(worst) = self.heap.peek() {
            if key < *worst {
                self.heap.pop();
                self.heap.push(key);
            }
        }
    }

    /// Current worst retained key, if the heap is full — candidates that
    /// don't beat it can be skipped without pushing.
    pub fn worst(&self) -> Option<(u64, f32)> {
        if self.heap.len() < self.k {
            None
        } else {
            self.heap.peek().map(|w| (w.id, w.distance))
        }
    }

    /// The retained neighbours, closest first.
    pub fn into_sorted(self) -> Vec<Neighbor> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|w| Neighbor { id: w.id, distance: w.distance })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_sort(mut cands: Vec<(u64, f32)>, k: usize) -> Vec<Neighbor> {
        cands.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        cands.truncate(k);
        cands.into_iter().map(|(id, distance)| Neighbor { id, distance }).collect()
    }

    #[test]
    fn topk_matches_full_sort_with_ties() {
        let cands: Vec<(u64, f32)> =
            vec![(5, 1.0), (2, 1.0), (9, 0.5), (1, 2.0), (7, 0.5), (3, 1.0)];
        for k in 0..=cands.len() + 1 {
            let mut top = TopK::new(k);
            for &(id, d) in &cands {
                top.push(id, d);
            }
            assert_eq!(top.into_sorted(), full_sort(cands.clone(), k), "k={k}");
        }
    }

    #[test]
    fn check_vector_tests_the_dimension_then_every_component() {
        assert_eq!(check_vector(2, &[1.0, -0.5]), Ok(()));
        assert_eq!(
            check_vector(2, &[f32::NAN]),
            Err(AnnError::DimensionMismatch { expected: 2, got: 1 })
        );
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert_eq!(check_vector(3, &[0.0, 1.0, bad]), Err(AnnError::NonFinite { index: 2 }));
        }
    }

    #[test]
    fn topk_zero_k_is_empty() {
        let mut top = TopK::new(0);
        top.push(1, 0.0);
        assert!(top.into_sorted().is_empty());
    }

    #[test]
    fn worst_reports_only_when_full() {
        let mut top = TopK::new(2);
        assert_eq!(top.worst(), None);
        top.push(1, 1.0);
        assert_eq!(top.worst(), None);
        top.push(2, 3.0);
        assert_eq!(top.worst(), Some((2, 3.0)));
        top.push(3, 0.5);
        assert_eq!(top.worst(), Some((1, 1.0)));
    }
}
