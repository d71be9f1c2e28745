//! Zero-shot trajectory similarity (§III-D3): pre-trained representations
//! are compared with Euclidean distance, no fine-tuning. Batch encoding
//! goes through the unified [`crate::encoder::Encoder`] facade, which owns
//! chunking and threading.

/// Euclidean distance between two representation vectors: the square root
/// of the shared [`start_ann::dist2`] kernel.
///
/// The lengths must match, and the contract holds in release builds too: a
/// `debug_assert` here once let release-mode mismatches silently compute
/// the distance over the shorter common prefix (via `zip`), returning
/// plausible-but-wrong neighbours with no signal. Fallible boundaries (the
/// kNN index layer) check dimensions first and return a typed
/// `DimensionMismatch`; by the time two slices reach this kernel, unequal
/// lengths are an internal invariant violation worth stopping for.
pub fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "euclidean: length mismatch ({} vs {})", a.len(), b.len());
    start_ann::dist2(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_basics() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(euclidean(&[1.0], &[1.0]), 0.0);
    }

    /// Regression: a length mismatch must fail loudly in every build
    /// profile — never a silent prefix distance.
    #[test]
    #[should_panic(expected = "length mismatch")]
    fn euclidean_rejects_length_mismatch_in_release_too() {
        euclidean(&[0.0, 0.0, 0.0], &[1.0]);
    }
}
