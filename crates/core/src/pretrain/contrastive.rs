//! Trajectory contrastive learning (§III-C2, Eq. 14).
//!
//! NT-Xent with in-batch negatives, following SimCLR \[15\]: `N_b` anchor
//! trajectories yield `2 N_b` augmented views; each view must identify its
//! partner among the other `2(N_b - 1)` views via temperature-scaled cosine
//! similarity.

use start_sync::Arc;

use start_nn::graph::{Graph, NodeId};
use start_nn::Array;

/// NT-Xent loss over paired pooled embeddings.
///
/// `pooled` must hold `2N` nodes of shape `(1, d)` ordered pairwise:
/// rows `2k` and `2k+1` are the two views of anchor `k`. Returns the scalar
/// mean loss over all `2N` anchors.
pub fn nt_xent_loss(g: &mut Graph, pooled: &[NodeId], temperature: f32) -> NodeId {
    let n2 = pooled.len();
    assert!(n2 >= 4 && n2.is_multiple_of(2), "need at least two pairs, got {n2} views");
    let stacked = g.concat_rows(pooled);
    let normed = g.l2_normalize_rows(stacked);
    let normed_t = g.transpose(normed);
    let sims = g.matmul(normed, normed_t);
    let scaled = g.scale(sims, 1.0 / temperature);
    // Exclude self-similarity from every softmax (the 1[k != i] indicator).
    let diag_mask = Array::from_fn(n2, n2, |r, c| if r == c { -1e9 } else { 0.0 });
    let mask = g.input(diag_mask);
    let logits = g.add(scaled, mask);
    // Partner targets: 0<->1, 2<->3, ...
    let targets: Vec<u32> = (0..n2).map(|i| (i ^ 1) as u32).collect();
    g.cross_entropy_rows(logits, Arc::new(targets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use start_nn::params::ParamStore;

    fn pooled_from(store: &ParamStore, g: &mut Graph, rows: &[[f32; 4]]) -> Vec<NodeId> {
        let _ = store;
        rows.iter().map(|r| g.input(Array::from_vec(1, 4, r.to_vec()))).collect()
    }

    #[test]
    fn aligned_pairs_have_lower_loss_than_shuffled() {
        let store = ParamStore::new();
        // Two anchors; views of the same anchor are nearly identical.
        let a1 = [1.0, 0.0, 0.0, 0.0];
        let a2 = [0.95, 0.05, 0.0, 0.0];
        let b1 = [0.0, 1.0, 0.0, 0.0];
        let b2 = [0.05, 0.95, 0.0, 0.0];

        let mut g = Graph::new(&store, false);
        let good = pooled_from(&store, &mut g, &[a1, a2, b1, b2]);
        let good_loss = nt_xent_loss(&mut g, &good, 0.05);
        let gv = g.value(good_loss).item();

        let mut g2 = Graph::new(&store, false);
        // Mispaired: a's partner is b.
        let bad = pooled_from(&store, &mut g2, &[a1, b1, a2, b2]);
        let bad_loss = nt_xent_loss(&mut g2, &bad, 0.05);
        let bv = g2.value(bad_loss).item();

        assert!(gv < bv, "aligned {gv} should beat shuffled {bv}");
        assert!(gv < 0.1, "well-separated pairs should have near-zero loss, got {gv}");
    }

    #[test]
    fn loss_is_permutation_invariant_in_scale() {
        // Scaling all embeddings must not change the loss (cosine similarity).
        let store = ParamStore::new();
        let rows = [
            [0.3, 0.1, -0.2, 0.5],
            [0.28, 0.12, -0.2, 0.5],
            [-0.4, 0.2, 0.3, 0.0],
            [-0.38, 0.22, 0.3, 0.0],
        ];
        let mut g = Graph::new(&store, false);
        let p = pooled_from(&store, &mut g, &rows);
        let loss1 = nt_xent_loss(&mut g, &p, 0.1);
        let l1 = g.value(loss1).item();

        let scaled: Vec<[f32; 4]> = rows.iter().map(|r| r.map(|v| v * 7.0)).collect();
        let mut g2 = Graph::new(&store, false);
        let p2 = pooled_from(&store, &mut g2, &scaled);
        let loss2 = nt_xent_loss(&mut g2, &p2, 0.1);
        let l2 = g2.value(loss2).item();
        assert!((l1 - l2).abs() < 1e-4, "{l1} vs {l2}");
    }

    #[test]
    #[should_panic(expected = "need at least two pairs")]
    fn single_pair_rejected() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store, false);
        let p = pooled_from(&store, &mut g, &[[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]);
        nt_xent_loss(&mut g, &p, 0.05);
    }
}
