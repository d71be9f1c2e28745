//! PIM [6]: unsupervised path representation learning with mutual
//! information maximization — node2vec road embeddings feeding an RNN
//! encoder trained so each path's global representation identifies its own
//! local (per-road) states against other paths' (curriculum negative
//! sampling approximated by in-batch negatives).

use start_sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use start_core::{clamp_view, TrajEncoder};
use start_nn::graph::{Graph, NodeId};
use start_nn::layers::GruCell;
use start_nn::params::ParamStore;
use start_nn::train::{fit, TrainConfig, Trainable, Warmup};
use start_nn::Array;
use start_traj::{TrajView, Trajectory};

use crate::encoder::{mean_loss, SeqEmbedder};

/// The RNN variant of PIM (the paper's PIM baseline; PIM-TF lives in
/// [`crate::transformer_family`]).
pub struct Pim {
    store: ParamStore,
    emb: SeqEmbedder,
    encoder: GruCell,
    dim: usize,
    max_len: usize,
}

impl Pim {
    /// `node2vec_table` initializes the road embeddings, as in the paper.
    pub fn new(
        num_roads: usize,
        dim: usize,
        max_len: usize,
        node2vec_table: &[f32],
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let emb =
            SeqEmbedder::new(&mut store, &mut rng, "emb", num_roads, dim, max_len, false, false);
        emb.init_road_table(&mut store, node2vec_table);
        let encoder = GruCell::new(&mut store, &mut rng, "enc", dim, dim);
        Self { store, emb, encoder, dim, max_len }
    }

    /// Record one anchor/negative pair's objective on `g` without touching
    /// the optimizer — the no-data tracing hook the `start_nn::symbolic`
    /// tape families drive.
    pub fn record_pretrain_loss(
        &self,
        g: &mut Graph,
        anchor: &Trajectory,
        negative: &Trajectory,
        rng: &mut StdRng,
    ) -> NodeId {
        self.mi_loss(g, anchor, negative, rng)
    }

    /// Hidden sequence and mean-pooled global vector.
    fn encode_in_graph(
        &self,
        g: &mut Graph,
        view: &TrajView,
        rng: &mut StdRng,
    ) -> (NodeId, NodeId) {
        let xs = self.emb.forward(g, view, rng);
        let hs = self.encoder.forward_sequence(g, xs);
        let t = view.len();
        let mean_row = g.input(Array::full(1, t, 1.0 / t as f32));
        let global = g.matmul(mean_row, hs);
        (hs, global)
    }

    /// Mutual information maximization step for one anchor with one in-batch
    /// negative, written as two logistic losses.
    fn mi_loss(
        &self,
        g: &mut Graph,
        anchor: &Trajectory,
        negative: &Trajectory,
        rng: &mut StdRng,
    ) -> NodeId {
        let av = clamp_view(TrajView::identity(anchor), self.max_len);
        let nv = clamp_view(TrajView::identity(negative), self.max_len);
        let (ah, aglobal) = self.encode_in_graph(g, &av, rng);
        let (nh, _) = self.encode_in_graph(g, &nv, rng);
        let amean = {
            let t = av.len();
            let row = g.input(Array::full(1, t, 1.0 / t as f32));
            g.matmul(row, ah)
        };
        let nmean = {
            let t = nv.len();
            let row = g.input(Array::full(1, t, 1.0 / t as f32));
            g.matmul(row, nh)
        };
        let amean_t = g.transpose(amean);
        let pos = g.matmul(aglobal, amean_t);
        let nmean_t = g.transpose(nmean);
        let neg = g.matmul(aglobal, nmean_t);
        let zero = g.input(Array::zeros(1, 1));
        let pos_row = g.concat_cols(&[zero, pos]);
        let neg_row = g.concat_cols(&[zero, neg]);
        let lp = g.cross_entropy_rows(pos_row, Arc::new(vec![1]));
        let ln = g.cross_entropy_rows(neg_row, Arc::new(vec![0]));
        g.add(lp, ln)
    }

    /// Pre-train with the mutual-information objective.
    pub fn pretrain(&mut self, train: &[Trajectory], cfg: &TrainConfig) -> Vec<f32> {
        // In-batch negatives come from the shard, so shards need at least
        // two trajectories.
        fit(
            self,
            train.len(),
            cfg,
            Warmup::TenthOfSteps,
            2,
            &mut StdRng::seed_from_u64(cfg.seed),
            |m, g, shard, r| {
                let losses: Vec<NodeId> = shard
                    .iter()
                    .enumerate()
                    .map(|(k, &i)| {
                        let neg = shard[(k + 1) % shard.len()];
                        m.mi_loss(g, &train[i], &train[neg], r)
                    })
                    .collect();
                Some(mean_loss(g, &losses, shard.len()))
            },
            |_, _, _, _| {},
        )
    }
}

impl Trainable for Pim {
    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
}

impl TrajEncoder for Pim {
    fn name(&self) -> &'static str {
        "PIM"
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn max_len(&self) -> usize {
        self.max_len
    }

    /// The global path representation per view.
    fn pool_views(&self, g: &mut Graph, views: &[TrajView], rng: &mut StdRng) -> Vec<NodeId> {
        views.iter().map(|view| self.encode_in_graph(g, view, rng).1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use start_roadnet::synth::{generate_city, CityConfig};
    use start_roadnet::{node2vec, Node2VecConfig};
    use start_traj::{SimConfig, Simulator};

    #[test]
    fn pim_pretrains_and_separates_self_from_other() {
        let city = generate_city("t", &CityConfig::tiny());
        let sim = Simulator::new(
            &city.net,
            SimConfig { num_trajectories: 32, num_drivers: 4, ..Default::default() },
        );
        let d = sim.generate();
        let n2v = node2vec(
            &city.net,
            &Node2VecConfig { dim: 24, epochs: 1, walks_per_node: 2, ..Default::default() },
        );
        let mut pim = Pim::new(city.net.num_segments(), 24, 64, n2v.data(), 5);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 8,
            lr: 1e-3,
            max_steps_per_epoch: Some(3),
            seed: 77,
            ..Default::default()
        };
        let losses = pim.pretrain(&d, &cfg);
        assert!(losses.iter().all(|l| l.is_finite()));
        assert!(losses.last().unwrap() <= losses.first().unwrap());
        let views: Vec<TrajView> = d[..4].iter().map(TrajView::identity).collect();
        let embs = pim.embed_views(&views);
        assert_eq!(embs.len(), 4);
        assert_eq!(embs[0].len(), 24);
    }
}
