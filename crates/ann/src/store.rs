//! Arena-backed, row-major f32 vector storage.
//!
//! Rows live in fixed-size chunks (~1 MiB each), so growing the store never
//! copies existing vectors and a million-row store is a handful of stable
//! allocations instead of a million boxed rows. Row ids stay stable: the
//! HNSW index tombstones instead of removing, and a
//! [`VectorStore::swap_remove`] renumbers only the last row. Every row is
//! stored exactly as given, and every distance goes through
//! [`crate::dist2`].

/// Append-only row-major f32 vector arena. See the module docs.
pub struct VectorStore {
    dim: usize,
    len: usize,
    rows_per_chunk: usize,
    chunks: Vec<Box<[f32]>>,
}

impl VectorStore {
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "vector store dimension must be positive");
        // ~1 MiB chunks: big enough that chunk bookkeeping vanishes, small
        // enough that a tiny store doesn't commit megabytes up front.
        let rows_per_chunk = ((1 << 20) / (dim * 4)).max(1);
        Self { dim, len: 0, rows_per_chunk, chunks: Vec::new() }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows ever pushed (tombstoning is the caller's concern).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one row; returns its stable row id.
    ///
    /// The caller (the index) validates dimensions at its API boundary, so
    /// a mismatch here is an internal invariant violation, not user input.
    pub fn push(&mut self, vector: &[f32]) -> u32 {
        assert_eq!(vector.len(), self.dim, "vector store row has the wrong dimension");
        assert!(self.len < u32::MAX as usize, "vector store row ids exhausted");
        let row = self.len;
        if row / self.rows_per_chunk == self.chunks.len() {
            self.chunks.push(vec![0.0; self.rows_per_chunk * self.dim].into_boxed_slice());
        }
        self.len += 1;
        self.row_mut(row).copy_from_slice(vector);
        row as u32
    }

    /// Replace an existing row in place — the overwrite primitive higher
    /// layers (the brute-force embedding index) build id-stable updates on.
    pub fn overwrite(&mut self, row: u32, vector: &[f32]) {
        assert_eq!(vector.len(), self.dim, "vector store row has the wrong dimension");
        assert!((row as usize) < self.len, "vector store overwrite past the end");
        self.row_mut(row as usize).copy_from_slice(vector);
    }

    /// Remove row `row` by moving the last row into its place (one copy
    /// within the arena) and dropping the last row. Only the last row's id
    /// changes: it becomes `row`.
    pub fn swap_remove(&mut self, row: u32) {
        assert!((row as usize) < self.len, "vector store remove past the end");
        let last = self.len - 1;
        let ((src, from), (dst, to)) = (self.locate(last), self.locate(row as usize));
        for j in 0..self.dim {
            self.chunks[dst][to + j] = self.chunks[src][from + j];
        }
        self.truncate(last);
    }

    /// Drop every row at index `new_len` and beyond (no-op when already
    /// shorter). Fully-vacated tail chunks are freed so `data_bytes`
    /// tracks the live rows; row ids below `new_len` are untouched.
    fn truncate(&mut self, new_len: usize) {
        if new_len >= self.len {
            return;
        }
        self.len = new_len;
        self.chunks.truncate(new_len.div_ceil(self.rows_per_chunk));
    }

    /// `(chunk, offset)` of row `row`'s first component.
    fn locate(&self, row: usize) -> (usize, usize) {
        (row / self.rows_per_chunk, (row % self.rows_per_chunk) * self.dim)
    }

    fn row_mut(&mut self, row: usize) -> &mut [f32] {
        let (chunk, offset) = self.locate(row);
        &mut self.chunks[chunk][offset..offset + self.dim]
    }

    /// Stored row `row`.
    pub fn row(&self, row: u32) -> &[f32] {
        let (chunk, offset) = self.locate(row as usize);
        &self.chunks[chunk][offset..offset + self.dim]
    }

    /// Squared Euclidean distance from `query` to stored row `row`: the
    /// shared [`crate::dist2`] kernel, so `dist2(...).sqrt()` is
    /// bit-for-bit `start_core::euclidean` and every backend agrees on ties
    /// exactly.
    pub fn dist2(&self, row: u32, query: &[f32]) -> f32 {
        debug_assert_eq!(query.len(), self.dim);
        crate::dist2(self.row(row), query)
    }

    /// Bytes of the live rows. The arena commits whole chunks, so its
    /// allocation is up to one chunk (~1 MiB) larger.
    pub fn data_bytes(&self) -> usize {
        self.len * self.dim * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_roundtrip_is_exact_across_chunks() {
        // dim large enough that a chunk holds few rows, forcing growth.
        let dim = 70_000; // > 1 MiB / 4 bytes per row → multiple chunks fast
        let mut store = VectorStore::new(dim);
        let rows: Vec<Vec<f32>> =
            (0..5).map(|r| (0..dim).map(|j| (r * dim + j) as f32 * 0.25).collect()).collect();
        for r in &rows {
            store.push(r);
        }
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(store.row(i as u32), &r[..]);
        }
    }

    #[test]
    fn f32_dist2_matches_reference() {
        let mut store = VectorStore::new(3);
        store.push(&[1.0, 2.0, 3.0]);
        let d2 = store.dist2(0, &[1.0, 0.0, 0.0]);
        assert_eq!(d2, 4.0 + 9.0);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn wrong_dimension_push_is_an_internal_invariant() {
        let mut store = VectorStore::new(3);
        store.push(&[0.0]);
    }

    /// Regression: the byte count once charged whole 1 MiB chunks.
    #[test]
    fn data_bytes_counts_the_live_rows() {
        let dim = 64;
        let v: Vec<f32> = (0..dim).map(|j| j as f32 * 0.1).collect();
        let mut store = VectorStore::new(dim);
        for _ in 0..100 {
            store.push(&v);
        }
        assert_eq!(store.data_bytes(), 100 * dim * 4);
    }

    #[test]
    fn overwrite_and_truncate_update_rows_in_place() {
        let mut store = VectorStore::new(4);
        store.push(&[1.0, 2.0, 3.0, 4.0]);
        store.push(&[5.0, 6.0, 7.0, 8.0]);
        store.push(&[9.0, 10.0, 11.0, 12.0]);
        store.overwrite(0, &[120.0, 0.0, -120.0, 60.0]);
        assert_eq!(store.row(0), [120.0, 0.0, -120.0, 60.0]);
        store.truncate(1);
        assert_eq!(store.len(), 1);
        // Push after truncate reuses the id space from the cut point.
        let id = store.push(&[0.5, 0.5, 0.5, 0.5]);
        assert_eq!(id, 1);
        assert_eq!(store.row(1), [0.5; 4]);
    }

    #[test]
    fn truncate_frees_vacated_chunks() {
        let dim = 70_000; // few rows per chunk
        let mut store = VectorStore::new(dim);
        let v = vec![0.25f32; dim];
        for _ in 0..8 {
            store.push(&v);
        }
        let full = store.data_bytes();
        store.truncate(1);
        assert!(store.data_bytes() < full);
        assert_eq!(store.row(0)[0], 0.25);
    }

    #[test]
    fn swap_remove_moves_the_last_row_across_chunks() {
        let dim = 70_000; // 3 rows per chunk: rows 1 and 7 sit in different chunks
        let mut store = VectorStore::new(dim);
        for r in 0..8 {
            store.push(&vec![r as f32; dim]);
        }
        store.swap_remove(1);
        assert_eq!(store.len(), 7);
        assert!(store.row(1).iter().all(|&x| x == 7.0));
        store.swap_remove(6);
        assert_eq!(store.len(), 6);
        assert!(store.row(5).iter().all(|&x| x == 5.0));
    }
}
