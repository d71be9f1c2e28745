//! Multi-head self-attention with an optional additive score bias.
//!
//! The bias hook is what makes this layer implement the paper's
//! *Time Interval-Aware Self-Attention* (Eq. 7): the START encoder passes
//! the adaptive time-interval matrix as a `(T, T)` node that is added to the
//! scaled dot-product scores of every head before the softmax. With no bias
//! this reduces to the standard Transformer attention (Eq. 6).

use rand::rngs::StdRng;

use crate::graph::{Graph, NodeId};
use crate::layers::Linear;
use crate::params::ParamStore;

/// Multi-head scaled dot-product self-attention.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    dropout: f32,
}

impl MultiHeadAttention {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        dim: usize,
        heads: usize,
        dropout: f32,
    ) -> Self {
        assert!(dim.is_multiple_of(heads), "dim {dim} not divisible by heads {heads}");
        Self {
            wq: Linear::new(store, rng, &format!("{name}.wq"), dim, dim, true),
            wk: Linear::new(store, rng, &format!("{name}.wk"), dim, dim, true),
            wv: Linear::new(store, rng, &format!("{name}.wv"), dim, dim, true),
            wo: Linear::new(store, rng, &format!("{name}.wo"), dim, dim, true),
            heads,
            dropout,
        }
    }

    /// Self-attention over a single sequence `x: (T, d)`.
    ///
    /// `bias` is an optional `(T, T)` additive term applied to the pre-softmax
    /// scores of every head (the paper's adaptive time-interval matrix).
    ///
    /// All heads run through the fused [`Graph::mh_attention`] kernel: one
    /// tape node instead of ~8 per head, with scale + bias + softmax +
    /// dropout applied inside the kernel.
    pub fn forward(
        &self,
        g: &mut Graph,
        x: NodeId,
        bias: Option<NodeId>,
        rng: &mut StdRng,
    ) -> NodeId {
        let t = g.shape(x).0;
        if let Some(b) = bias {
            debug_assert_eq!(g.shape(b), (t, t), "attention bias must be (T, T)");
        }
        let q = self.wq.forward(g, x);
        let k = self.wk.forward(g, x);
        let v = self.wv.forward(g, x);
        let ctx = g.mh_attention(q, k, v, bias, self.heads, self.dropout, rng);
        self.wo.forward(g, ctx)
    }

    /// The `(wq, wk, wv, wo)` projections, in that order.
    pub fn projections(&self) -> [&Linear; 4] {
        [&self.wq, &self.wk, &self.wv, &self.wo]
    }

    pub fn heads(&self) -> usize {
        self.heads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Array;
    use rand::SeedableRng;

    #[test]
    fn output_shape_matches_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, &mut rng, "mha", 16, 4, 0.0);
        let mut g = Graph::new(&store, false);
        let x = g.input(Array::from_fn(5, 16, |r, c| ((r + c) as f32).sin()));
        let y = mha.forward(&mut g, x, None, &mut rng);
        assert_eq!(g.shape(y), (5, 16));
        assert!(g.value(y).all_finite());
    }

    #[test]
    fn strong_negative_bias_blocks_attention() {
        // With a huge negative bias everywhere except the diagonal, each
        // position can only attend to itself; permuting other rows of the
        // input must then leave a given row's output unchanged.
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, &mut rng, "mha", 8, 2, 0.0);
        let xa = Array::from_fn(4, 8, |r, c| (r * 8 + c) as f32 * 0.1);
        let mut xb = xa.clone();
        // Swap rows 2 and 3.
        for c in 0..8 {
            let (a, b) = (xb.get(2, c), xb.get(3, c));
            xb.set(2, c, b);
            xb.set(3, c, a);
        }
        let diag_bias = Array::from_fn(4, 4, |r, c| if r == c { 0.0 } else { -1e9 });

        let mut g1 = Graph::new(&store, false);
        let x1 = g1.input(xa);
        let b1 = g1.input(diag_bias.clone());
        let y1 = mha.forward(&mut g1, x1, Some(b1), &mut rng);

        let mut g2 = Graph::new(&store, false);
        let x2 = g2.input(xb);
        let b2 = g2.input(diag_bias);
        let y2 = mha.forward(&mut g2, x2, Some(b2), &mut rng);

        for c in 0..8 {
            assert!((g1.value(y1).get(0, c) - g2.value(y2).get(0, c)).abs() < 1e-5);
            assert!((g1.value(y1).get(1, c) - g2.value(y2).get(1, c)).abs() < 1e-5);
        }
    }
}
