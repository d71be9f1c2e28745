//! Post-norm Transformer encoder stack with the additive attention-bias hook
//! required by the paper's Time Interval-Aware Self-Attention (Eqs. 6-11).

use rand::rngs::StdRng;

use crate::graph::{Graph, NodeId};
use crate::layers::{FeedForward, LayerNorm, MultiHeadAttention};
use crate::params::ParamStore;

/// One encoder block: self-attention + FFN, each with residual connection and
/// layer normalization (post-norm, as in the original Transformer and START).
#[derive(Debug, Clone)]
pub struct TransformerEncoderLayer {
    attn: MultiHeadAttention,
    ffn: FeedForward,
    norm1: LayerNorm,
    norm2: LayerNorm,
    dropout: f32,
}

impl TransformerEncoderLayer {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        dim: usize,
        heads: usize,
        ffn_hidden: usize,
        dropout: f32,
    ) -> Self {
        Self {
            attn: MultiHeadAttention::new(store, rng, &format!("{name}.attn"), dim, heads, dropout),
            ffn: FeedForward::new(store, rng, &format!("{name}.ffn"), dim, ffn_hidden, dropout),
            norm1: LayerNorm::new(store, rng, &format!("{name}.norm1"), dim),
            norm2: LayerNorm::new(store, rng, &format!("{name}.norm2"), dim),
            dropout,
        }
    }

    pub fn forward(
        &self,
        g: &mut Graph,
        x: NodeId,
        bias: Option<NodeId>,
        rng: &mut StdRng,
    ) -> NodeId {
        let attn_out = self.attn.forward(g, x, bias, rng);
        let attn_out = g.dropout(attn_out, self.dropout, rng);
        let res1 = g.add(x, attn_out);
        let x1 = self.norm1.forward(g, res1);

        let ffn_out = self.ffn.forward(g, x1, rng);
        let ffn_out = g.dropout(ffn_out, self.dropout, rng);
        let res2 = g.add(x1, ffn_out);
        self.norm2.forward(g, res2)
    }
}

/// A stack of [`TransformerEncoderLayer`]s sharing one attention bias.
#[derive(Debug, Clone)]
pub struct TransformerEncoder {
    layers: Vec<TransformerEncoderLayer>,
}

impl TransformerEncoder {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        num_layers: usize,
        dim: usize,
        heads: usize,
        ffn_hidden: usize,
        dropout: f32,
    ) -> Self {
        let layers = (0..num_layers)
            .map(|l| {
                TransformerEncoderLayer::new(
                    store,
                    rng,
                    &format!("{name}.layer{l}"),
                    dim,
                    heads,
                    ffn_hidden,
                    dropout,
                )
            })
            .collect();
        Self { layers }
    }

    pub fn forward(
        &self,
        g: &mut Graph,
        mut x: NodeId,
        bias: Option<NodeId>,
        rng: &mut StdRng,
    ) -> NodeId {
        for layer in &self.layers {
            x = layer.forward(g, x, bias, rng);
        }
        x
    }

    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Array;
    use rand::SeedableRng;

    #[test]
    fn stack_preserves_shape_and_stays_finite() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let enc = TransformerEncoder::new(&mut store, &mut rng, "enc", 3, 16, 4, 32, 0.0);
        let mut g = Graph::new(&store, false);
        let x = g.input(Array::from_fn(9, 16, |r, c| ((r * 16 + c) as f32 * 0.01).sin()));
        let y = enc.forward(&mut g, x, None, &mut rng);
        assert_eq!(g.shape(y), (9, 16));
        assert!(g.value(y).all_finite());
        assert_eq!(enc.num_layers(), 3);
    }
}
