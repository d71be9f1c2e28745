//! Arena-backed, row-major vector storage with optional int8 scalar
//! quantization.
//!
//! Rows live in fixed-size chunks (~1 MiB each), so growing the store never
//! copies existing vectors and a million-row store is a handful of stable
//! allocations instead of a million boxed rows. Rows are append-only —
//! higher layers (the HNSW index) tombstone instead of compacting, which
//! keeps row ids stable for the life of the store.
//!
//! Reduced precision comes in two flavours, both opt-in (the serving
//! router's brute-force index is exact f32; an HNSW index takes its
//! precision from `HnswConfig`). `F16` stores IEEE binary16
//! (round-to-nearest-even) for a 2× memory cut at ~3 decimal digits of
//! per-component accuracy; its kNN recall in the `bench_search` sweep is
//! statistically indistinguishable from f32. `I8` is per-row symmetric
//! int8: each row stores `round(x/s)` in `[-127, 127]` with scale
//! `s = max|x| / 127`, a 4× cut with a bounded distance error. Both
//! dequantize on the fly in `dist2`; the `bench_search` sweep records the
//! measured recall cost of each next to the f32 baseline.

/// Element representation of a [`VectorStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Exact f32 rows: 4 bytes/component.
    F32,
    /// IEEE binary16 rows: 2 bytes/component, round-to-nearest-even.
    F16,
    /// Per-row symmetric scalar-quantized int8: 1 byte/component + one
    /// f32 scale per row.
    I8,
}

enum Arena {
    F32(Vec<Box<[f32]>>),
    F16(Vec<Box<[u16]>>),
    I8 { chunks: Vec<Box<[i8]>>, scales: Vec<f32> },
}

/// f32 → IEEE binary16 bits with round-to-nearest-even, the same rounding
/// hardware `vcvtps2ph` performs. Handles subnormals, overflow-to-inf and
/// NaN payloads explicitly — embeddings never hit those edges, but the
/// codec must not corrupt them silently if they ever appear.
pub(crate) fn f32_to_f16_bits(value: f32) -> u16 {
    let x = value.to_bits();
    let sign = ((x >> 16) & 0x8000) as u16;
    let exp32 = ((x >> 23) & 0xff) as i32;
    let man = x & 0x007f_ffff;
    if exp32 == 0xff {
        // Inf / NaN: keep the top mantissa bits, force quiet on a payload
        // that would otherwise truncate to infinity.
        let payload = (man >> 13) as u16;
        return sign | 0x7c00 | if man != 0 && payload == 0 { 0x200 } else { payload };
    }
    let exp = exp32 - 127 + 15;
    if exp >= 0x1f {
        return sign | 0x7c00; // overflow → ±inf
    }
    if exp <= 0 {
        if exp < -10 {
            return sign; // underflow → ±0
        }
        // Subnormal half: shift the (implicit-1) mantissa into place.
        let full = man | 0x0080_0000;
        let shift = (14 - exp) as u32;
        let half = full >> shift;
        let rem = full & ((1u32 << shift) - 1);
        let midpoint = 1u32 << (shift - 1);
        let round_up = rem > midpoint || (rem == midpoint && half & 1 == 1);
        return sign | (half + round_up as u32) as u16;
    }
    let half = ((exp as u32) << 10) | (man >> 13);
    let rem = man & 0x1fff;
    let round_up = rem > 0x1000 || (rem == 0x1000 && half & 1 == 1);
    // The carry from rounding may bump the exponent (and reach infinity);
    // both are exactly the RNE result.
    sign | (half + round_up as u32) as u16
}

/// IEEE binary16 bits → f32, exact (every half value is representable).
pub(crate) fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let man = (h & 0x3ff) as u32;
    if exp == 0 {
        // ±0 and subnormals: value = man · 2⁻²⁴, exact in f32.
        let mag = man as f32 * (1.0 / 16_777_216.0);
        return if sign != 0 { -mag } else { mag };
    }
    let bits = if exp == 0x1f {
        sign | 0x7f80_0000 | (man << 13)
    } else {
        sign | ((exp + 127 - 15) << 23) | (man << 13)
    };
    f32::from_bits(bits)
}

/// Append-only row-major vector arena. See the module docs.
pub struct VectorStore {
    dim: usize,
    len: usize,
    rows_per_chunk: usize,
    arena: Arena,
}

impl VectorStore {
    pub fn new(dim: usize, precision: Precision) -> Self {
        assert!(dim > 0, "vector store dimension must be positive");
        let bytes_per_row = dim
            * match precision {
                Precision::F32 => 4,
                Precision::F16 => 2,
                Precision::I8 => 1,
            };
        // ~1 MiB chunks: big enough that chunk bookkeeping vanishes, small
        // enough that a tiny store doesn't commit megabytes up front.
        let rows_per_chunk = ((1 << 20) / bytes_per_row).max(1);
        let arena = match precision {
            Precision::F32 => Arena::F32(Vec::new()),
            Precision::F16 => Arena::F16(Vec::new()),
            Precision::I8 => Arena::I8 { chunks: Vec::new(), scales: Vec::new() },
        };
        Self { dim, len: 0, rows_per_chunk, arena }
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

    pub fn precision(&self) -> Precision {
        match self.arena {
            Arena::F32(_) => Precision::F32,
            Arena::F16(_) => Precision::F16,
            Arena::I8 { .. } => Precision::I8,
        }
    }

    /// Append one row; returns its stable row id.
    ///
    /// The caller (the index) validates dimensions at its API boundary, so
    /// a mismatch here is an internal invariant violation, not user input.
    pub fn push(&mut self, vector: &[f32]) -> u32 {
        assert_eq!(vector.len(), self.dim, "vector store row has the wrong dimension");
        assert!(self.len < u32::MAX as usize, "vector store row ids exhausted");
        let row = self.len;
        let chunk_idx = row / self.rows_per_chunk;
        let dim = self.dim;
        let rows_per_chunk = self.rows_per_chunk;
        match &mut self.arena {
            Arena::F32(chunks) => {
                if chunk_idx == chunks.len() {
                    chunks.push(vec![0.0; rows_per_chunk * dim].into_boxed_slice());
                }
            }
            Arena::F16(chunks) => {
                if chunk_idx == chunks.len() {
                    chunks.push(vec![0u16; rows_per_chunk * dim].into_boxed_slice());
                }
            }
            Arena::I8 { chunks, scales } => {
                if chunk_idx == chunks.len() {
                    chunks.push(vec![0i8; rows_per_chunk * dim].into_boxed_slice());
                }
                scales.push(0.0);
            }
        }
        self.len += 1;
        self.encode_row(row, vector);
        row as u32
    }

    /// Re-encode an existing row in place with the store's codec — the
    /// overwrite/compaction primitive higher layers (the brute-force
    /// embedding index) build id-stable updates on.
    pub fn overwrite(&mut self, row: u32, vector: &[f32]) {
        assert_eq!(vector.len(), self.dim, "vector store row has the wrong dimension");
        assert!((row as usize) < self.len, "vector store overwrite past the end");
        self.encode_row(row as usize, vector);
    }

    /// Drop every row at index `new_len` and beyond (no-op when already
    /// shorter). Fully-vacated tail chunks are freed so `data_bytes`
    /// tracks the live rows; row ids below `new_len` are untouched.
    pub fn truncate(&mut self, new_len: usize) {
        if new_len >= self.len {
            return;
        }
        self.len = new_len;
        let needed = new_len.div_ceil(self.rows_per_chunk);
        match &mut self.arena {
            Arena::F32(chunks) => chunks.truncate(needed),
            Arena::F16(chunks) => chunks.truncate(needed),
            Arena::I8 { chunks, scales } => {
                chunks.truncate(needed);
                scales.truncate(new_len);
            }
        }
    }

    fn encode_row(&mut self, row: usize, vector: &[f32]) {
        let chunk_idx = row / self.rows_per_chunk;
        let offset = (row % self.rows_per_chunk) * self.dim;
        match &mut self.arena {
            Arena::F32(chunks) => {
                chunks[chunk_idx][offset..offset + self.dim].copy_from_slice(vector);
            }
            Arena::F16(chunks) => {
                let out = &mut chunks[chunk_idx][offset..offset + self.dim];
                for (c, &x) in out.iter_mut().zip(vector) {
                    *c = f32_to_f16_bits(x);
                }
            }
            Arena::I8 { chunks, scales } => {
                let max_abs = vector.iter().fold(0.0f32, |m, x| m.max(x.abs()));
                let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 0.0 };
                let out = &mut chunks[chunk_idx][offset..offset + self.dim];
                if scale > 0.0 {
                    for (c, &x) in out.iter_mut().zip(vector) {
                        *c = (x / scale).round().clamp(-127.0, 127.0) as i8;
                    }
                } else {
                    out.fill(0);
                }
                scales[row] = scale;
            }
        }
    }

    /// Squared Euclidean distance from `query` to stored row `row`.
    ///
    /// The f32 path is the shared [`crate::dist2`] kernel, so
    /// `dist2(...).sqrt()` is bit-for-bit `start_core::euclidean` and every
    /// backend agrees on ties exactly.
    pub fn dist2(&self, row: u32, query: &[f32]) -> f32 {
        debug_assert_eq!(query.len(), self.dim);
        let row = row as usize;
        let chunk_idx = row / self.rows_per_chunk;
        let offset = (row % self.rows_per_chunk) * self.dim;
        match &self.arena {
            Arena::F32(chunks) => {
                crate::dist2(&chunks[chunk_idx][offset..offset + self.dim], query)
            }
            Arena::F16(chunks) => {
                let stored = &chunks[chunk_idx][offset..offset + self.dim];
                stored
                    .iter()
                    .zip(query)
                    .map(|(&h, y)| {
                        let x = f16_bits_to_f32(h);
                        (x - y) * (x - y)
                    })
                    .sum::<f32>()
            }
            Arena::I8 { chunks, scales } => {
                let stored = &chunks[chunk_idx][offset..offset + self.dim];
                let scale = scales[row];
                stored
                    .iter()
                    .zip(query)
                    .map(|(&c, y)| {
                        let x = c as f32 * scale;
                        (x - y) * (x - y)
                    })
                    .sum::<f32>()
            }
        }
    }

    /// Copy row `row` (dequantized) into `out`, replacing its contents.
    pub fn copy_row(&self, row: u32, out: &mut Vec<f32>) {
        let row = row as usize;
        let chunk_idx = row / self.rows_per_chunk;
        let offset = (row % self.rows_per_chunk) * self.dim;
        out.clear();
        match &self.arena {
            Arena::F32(chunks) => {
                out.extend_from_slice(&chunks[chunk_idx][offset..offset + self.dim]);
            }
            Arena::F16(chunks) => {
                out.extend(
                    chunks[chunk_idx][offset..offset + self.dim]
                        .iter()
                        .map(|&h| f16_bits_to_f32(h)),
                );
            }
            Arena::I8 { chunks, scales } => {
                let scale = scales[row];
                out.extend(
                    chunks[chunk_idx][offset..offset + self.dim].iter().map(|&c| c as f32 * scale),
                );
            }
        }
    }

    /// Bytes of the live rows (plus one f32 scale per int8 row), for
    /// reporting the precision trade. The arena commits whole chunks, so
    /// its allocation is up to one chunk (~1 MiB) larger.
    pub fn data_bytes(&self) -> usize {
        let rows = self.len * self.dim;
        match &self.arena {
            Arena::F32(_) => rows * 4,
            Arena::F16(_) => rows * 2,
            Arena::I8 { scales, .. } => rows + scales.len() * 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_roundtrip_is_exact_across_chunks() {
        // dim large enough that a chunk holds few rows, forcing growth.
        let dim = 70_000; // > 1 MiB / 4 bytes per row → multiple chunks fast
        let mut store = VectorStore::new(dim, Precision::F32);
        let rows: Vec<Vec<f32>> =
            (0..5).map(|r| (0..dim).map(|j| (r * dim + j) as f32 * 0.25).collect()).collect();
        for r in &rows {
            store.push(r);
        }
        let mut out = Vec::new();
        for (i, r) in rows.iter().enumerate() {
            store.copy_row(i as u32, &mut out);
            assert_eq!(&out, r);
        }
    }

    #[test]
    fn f32_dist2_matches_reference() {
        let mut store = VectorStore::new(3, Precision::F32);
        store.push(&[1.0, 2.0, 3.0]);
        let d2 = store.dist2(0, &[1.0, 0.0, 0.0]);
        assert_eq!(d2, 4.0 + 9.0);
    }

    #[test]
    fn i8_quantization_bounds_the_error() {
        let dim = 16;
        let mut store = VectorStore::new(dim, Precision::I8);
        let v: Vec<f32> = (0..dim).map(|j| (j as f32 - 7.5) * 0.3).collect();
        store.push(&v);
        let mut out = Vec::new();
        store.copy_row(0, &mut out);
        let max_abs = v.iter().fold(0.0f32, |m, x| m.max(x.abs()));
        let step = max_abs / 127.0;
        for (x, y) in v.iter().zip(&out) {
            assert!((x - y).abs() <= step * 0.5 + 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn i8_zero_vector_roundtrips_to_zero() {
        let mut store = VectorStore::new(4, Precision::I8);
        store.push(&[0.0; 4]);
        let mut out = Vec::new();
        store.copy_row(0, &mut out);
        assert_eq!(out, [0.0; 4]);
        assert_eq!(store.dist2(0, &[0.0; 4]), 0.0);
    }

    #[test]
    fn i8_store_is_about_4x_smaller() {
        let dim = 64;
        let mut f = VectorStore::new(dim, Precision::F32);
        let mut q = VectorStore::new(dim, Precision::I8);
        let v: Vec<f32> = (0..dim).map(|j| j as f32).collect();
        // Fill past one chunk so both stores have committed real arenas.
        for _ in 0..40_000 {
            f.push(&v);
            q.push(&v);
        }
        assert!(f.data_bytes() > 3 * q.data_bytes(), "{} vs {}", f.data_bytes(), q.data_bytes());
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn wrong_dimension_push_is_an_internal_invariant() {
        let mut store = VectorStore::new(3, Precision::F32);
        store.push(&[0.0]);
    }

    #[test]
    fn f16_codec_is_exact_on_halves_and_rne_elsewhere() {
        // Exactly representable values round-trip bit-for-bit.
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 65504.0, -65504.0, 6.1035156e-5] {
            assert_eq!(f16_bits_to_f32(f32_to_f16_bits(v)), v, "{v}");
        }
        // Relative error of normal halves is ≤ 2⁻¹¹ (ties-to-even).
        let mut state = 0x1234_5678u64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 8.0;
            let r = f16_bits_to_f32(f32_to_f16_bits(v));
            assert!((r - v).abs() <= v.abs() * 4.9e-4 + 6e-8, "{v} -> {r}");
        }
        // Edge behavior: overflow saturates to inf, NaN stays NaN.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e9)), f32::INFINITY);
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn f16_store_roundtrips_and_halves_the_bytes() {
        let dim = 64;
        let mut f = VectorStore::new(dim, Precision::F32);
        let mut h = VectorStore::new(dim, Precision::F16);
        let v: Vec<f32> = (0..dim).map(|j| (j as f32 * 0.37).sin()).collect();
        for _ in 0..40_000 {
            f.push(&v);
            h.push(&v);
        }
        let mut out = Vec::new();
        h.copy_row(17, &mut out);
        for (x, y) in v.iter().zip(&out) {
            assert!((x - y).abs() <= x.abs() * 4.9e-4 + 6.2e-5, "{x} vs {y}");
        }
        assert!(f.data_bytes() > (2 * h.data_bytes()).saturating_sub(f.data_bytes() / 8));
        assert!(h.data_bytes() * 2 <= f.data_bytes() + f.data_bytes() / 8);
    }

    /// Regression: the byte count once charged whole 1 MiB chunks, so a
    /// small f16 or int8 store reported as many bytes as an f32 one.
    #[test]
    fn data_bytes_counts_the_live_rows() {
        let dim = 64;
        let v: Vec<f32> = (0..dim).map(|j| j as f32 * 0.1).collect();
        let mut stores = [Precision::F32, Precision::F16, Precision::I8]
            .map(|precision| VectorStore::new(dim, precision));
        for store in &mut stores {
            for _ in 0..100 {
                store.push(&v);
            }
        }
        let [f, h, q] = stores.map(|s| s.data_bytes());
        assert_eq!(f, 100 * dim * 4);
        assert_eq!(h * 2, f);
        assert_eq!(q, 100 * dim + 100 * 4);
    }

    #[test]
    fn overwrite_and_truncate_update_rows_in_place() {
        for precision in [Precision::F32, Precision::F16, Precision::I8] {
            let mut store = VectorStore::new(4, precision);
            store.push(&[1.0, 2.0, 3.0, 4.0]);
            store.push(&[5.0, 6.0, 7.0, 8.0]);
            store.push(&[9.0, 10.0, 11.0, 12.0]);
            // Overwrite re-encodes (including the I8 per-row scale).
            store.overwrite(0, &[120.0, 0.0, -120.0, 60.0]);
            let mut out = Vec::new();
            store.copy_row(0, &mut out);
            for (x, y) in [120.0f32, 0.0, -120.0, 60.0].iter().zip(&out) {
                assert!((x - y).abs() <= 0.5, "{precision:?}: {x} vs {y}");
            }
            store.truncate(1);
            assert_eq!(store.len(), 1);
            // Push after truncate reuses the id space from the cut point.
            let id = store.push(&[0.5, 0.5, 0.5, 0.5]);
            assert_eq!(id, 1);
            store.copy_row(1, &mut out);
            assert!((out[0] - 0.5).abs() <= 0.01, "{precision:?}");
        }
    }

    #[test]
    fn truncate_frees_vacated_chunks() {
        let dim = 70_000; // few rows per chunk
        let mut store = VectorStore::new(dim, Precision::F16);
        let v = vec![0.25f32; dim];
        for _ in 0..8 {
            store.push(&v);
        }
        let full = store.data_bytes();
        store.truncate(1);
        assert!(store.data_bytes() < full);
        let mut out = Vec::new();
        store.copy_row(0, &mut out);
        assert_eq!(out[0], 0.25);
    }
}
