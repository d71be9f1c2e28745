//! In-memory brute-force embedding index backing the service's kNN
//! endpoint (§III-D3 zero-shot similarity, served online instead of
//! batch-evaluated) — and the *exactness reference* behind the
//! [`VectorIndex`] seam: the HNSW index (`start_ann::Hnsw`) is measured
//! against this scan's answers.

use std::collections::HashMap;

use start_ann::{check_vector, AnnError, TopK, VectorIndex, VectorStore};

pub use start_ann::Neighbor;

/// An arena-backed embedding index with brute-force kNN.
///
/// Rows live in a [`VectorStore`] f32 arena (row-major, chunked), so the
/// scan stays cache-friendly. `id → row` lives in a side map so ids can be
/// sparse. Re-inserting an id overwrites its row in place; removal
/// swap-fills the hole with the last row, moved within the arena.
///
/// Brute force is the exact baseline — the arena's distance accumulates in
/// the same order as the workspace `euclidean` kernel, so the distances
/// are bit-for-bit the legacy scan's, and selection goes through the
/// shared [`TopK`] bound (O(N log k), not a full sort) with the workspace
/// tie-break: ascending distance, then ascending id.
///
/// Malformed vectors are refused with a typed [`AnnError`], never a panic:
/// the store must survive a bad request with its state intact, because a
/// panic here would poison the whole service for every later caller.
pub struct EmbeddingStore {
    store: VectorStore,
    ids: Vec<u64>,
    rows: HashMap<u64, usize>,
}

impl EmbeddingStore {
    pub fn new(dim: usize) -> Self {
        Self { store: VectorStore::new(dim), ids: Vec::new(), rows: HashMap::new() }
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    pub fn dim(&self) -> usize {
        self.store.dim()
    }

    /// Approximate resident bytes of the embedding payload.
    pub fn memory_bytes(&self) -> usize {
        self.store.data_bytes() + self.ids.len() * 8 + self.rows.len() * 16
    }

    /// Insert or overwrite the embedding for `id`.
    ///
    /// A wrong-length or non-finite vector is refused by
    /// [`check_vector`]; the store is unchanged.
    pub fn insert(&mut self, id: u64, emb: &[f32]) -> Result<(), AnnError> {
        check_vector(self.store.dim(), emb)?;
        match self.rows.get(&id) {
            Some(&row) => self.store.overwrite(row as u32, emb),
            None => {
                let row = self.store.push(emb);
                self.ids.push(id);
                self.rows.insert(id, row as usize);
            }
        }
        Ok(())
    }

    /// Remove `id`, swap-filling its row with the last one; returns whether
    /// it was present.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(row) = self.rows.remove(&id) else {
            return false;
        };
        self.ids.swap_remove(row);
        self.store.swap_remove(row as u32);
        if let Some(&moved_id) = self.ids.get(row) {
            self.rows.insert(moved_id, row);
        }
        true
    }

    /// The stored embedding for `id` (a copy), if indexed.
    pub fn get(&self, id: u64) -> Option<Vec<f32>> {
        let &row = self.rows.get(&id)?;
        Some(self.store.row(row as u32).to_vec())
    }

    /// The `k` nearest stored embeddings to `query`, closest first; ties
    /// break toward the smaller id so results are deterministic.
    ///
    /// A wrong-length or non-finite query is refused by [`check_vector`]
    /// instead of panicking mid-service or ranking by NaN.
    pub fn knn(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, AnnError> {
        check_vector(self.store.dim(), query)?;
        let mut top = TopK::new(k);
        for (row, &id) in self.ids.iter().enumerate() {
            top.push(id, self.store.dist2(row as u32, query).sqrt());
        }
        Ok(top.into_sorted())
    }
}

impl VectorIndex for EmbeddingStore {
    fn dim(&self) -> usize {
        self.store.dim()
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn insert(&mut self, id: u64, vector: &[f32]) -> Result<(), AnnError> {
        EmbeddingStore::insert(self, id, vector)
    }

    fn remove(&mut self, id: u64) -> bool {
        EmbeddingStore::remove(self, id)
    }

    fn knn(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, AnnError> {
        EmbeddingStore::knn(self, query, k)
    }

    fn get(&self, id: u64) -> Option<Vec<f32>> {
        EmbeddingStore::get(self, id)
    }

    fn for_each(&self, f: &mut dyn FnMut(u64, &[f32])) {
        for (r, &id) in self.ids.iter().enumerate() {
            f(id, self.store.row(r as u32));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use start_core::euclidean;

    #[test]
    fn knn_returns_sorted_exact_neighbors() {
        let mut store = EmbeddingStore::new(2);
        store.insert(1, &[0.0, 0.0]).unwrap();
        store.insert(2, &[3.0, 4.0]).unwrap();
        store.insert(3, &[1.0, 0.0]).unwrap();
        let hits = store.knn(&[0.0, 0.0], 2).unwrap();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, 1);
        assert_eq!(hits[0].distance, 0.0);
        assert_eq!(hits[1].id, 3);
        assert_eq!(hits[1].distance, 1.0);
    }

    #[test]
    fn reinsert_overwrites_in_place() {
        let mut store = EmbeddingStore::new(2);
        store.insert(7, &[1.0, 1.0]).unwrap();
        store.insert(7, &[2.0, 2.0]).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(7), Some(vec![2.0, 2.0]));
    }

    #[test]
    fn ties_break_toward_smaller_ids() {
        let mut store = EmbeddingStore::new(1);
        store.insert(9, &[5.0]).unwrap();
        store.insert(2, &[5.0]).unwrap();
        let hits = store.knn(&[5.0], 2).unwrap();
        assert_eq!(hits[0].id, 2);
        assert_eq!(hits[1].id, 9);
    }

    #[test]
    fn k_larger_than_store_returns_everything() {
        let mut store = EmbeddingStore::new(1);
        store.insert(1, &[0.0]).unwrap();
        assert_eq!(store.knn(&[0.0], 10).unwrap().len(), 1);
    }

    #[test]
    fn dimension_mismatch_is_a_typed_error_not_a_panic() {
        let mut store = EmbeddingStore::new(3);
        assert_eq!(
            store.insert(1, &[0.0]),
            Err(AnnError::DimensionMismatch { expected: 3, got: 1 })
        );
        assert_eq!(store.len(), 0, "failed insert must not mutate the store");
        assert_eq!(
            store.knn(&[0.0; 4], 1),
            Err(AnnError::DimensionMismatch { expected: 3, got: 4 })
        );
        // The store survives bad requests: good ones still work.
        store.insert(1, &[1.0, 2.0, 3.0]).unwrap();
        let hits = store.knn(&[1.0, 2.0, 3.0], 1).unwrap();
        assert_eq!(hits[0].id, 1);
    }

    /// Both index kinds refuse NaN and infinite vectors on insert and on
    /// query, and a refused insert leaves the index as it was.
    #[test]
    fn both_index_kinds_refuse_non_finite_vectors() {
        let kinds: [Box<dyn VectorIndex>; 2] = [
            Box::new(EmbeddingStore::new(4)),
            Box::new(start_ann::Hnsw::new(4, Default::default())),
        ];
        for mut index in kinds {
            index.insert(1, &[1.0, 0.0, 0.0, 0.0]).unwrap();
            for bad in [f32::NAN, f32::INFINITY] {
                let v = [bad, 0.0, 0.0, 0.0];
                assert_eq!(index.insert(2, &v), Err(AnnError::NonFinite { index: 0 }));
                assert_eq!(index.insert(1, &v), Err(AnnError::NonFinite { index: 0 }));
                assert_eq!(index.knn(&v, 3), Err(AnnError::NonFinite { index: 0 }));
            }
            assert_eq!(index.len(), 1);
            assert_eq!(index.get(1), Some(vec![1.0, 0.0, 0.0, 0.0]));
        }
    }

    #[test]
    fn remove_swap_fills_and_keeps_answers_correct() {
        let mut store = EmbeddingStore::new(1);
        for id in 0..5u64 {
            store.insert(id, &[id as f32]).unwrap();
        }
        assert!(store.remove(1));
        assert!(!store.remove(1), "double remove reports absence");
        assert_eq!(store.len(), 4);
        assert_eq!(store.get(1), None);
        assert_eq!(store.get(4), Some(vec![4.0]), "swapped row still resolves");
        let hits = store.knn(&[1.1], 2).unwrap();
        assert_eq!(hits[0].id, 2);
        assert_eq!(hits[1].id, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The bounded-heap selection returns exactly what the legacy full
        /// sort did, for every store/query/k — including duplicate vectors
        /// (distance ties) drawn from a tiny value alphabet.
        #[test]
        fn heap_selection_matches_full_sort(
            rows in prop::collection::vec(prop::collection::vec(0..4i32, 2..3usize), 1..40usize),
            query in prop::collection::vec(0..4i32, 2..3usize),
            k in 0..12usize,
        ) {
            let dim = 2;
            let mut store = EmbeddingStore::new(dim);
            for (i, r) in rows.iter().enumerate() {
                let v: Vec<f32> = r.iter().take(dim).map(|&x| x as f32).collect();
                if v.len() == dim {
                    store.insert(i as u64, &v).unwrap();
                }
            }
            let q: Vec<f32> = query.iter().take(dim).map(|&x| x as f32).collect();
            prop_assume!(q.len() == dim);
            let got = store.knn(&q, k).unwrap();
            // Reference: materialize all candidates, full sort, truncate —
            // the pre-optimization implementation.
            let mut all: Vec<Neighbor> = Vec::new();
            store.for_each(&mut |id, v| {
                all.push(Neighbor { id, distance: euclidean(&q, v) });
            });
            all.sort_by(|a, b| a.distance.total_cmp(&b.distance).then_with(|| a.id.cmp(&b.id)));
            all.truncate(k);
            prop_assert_eq!(got, all);
        }
    }
}
