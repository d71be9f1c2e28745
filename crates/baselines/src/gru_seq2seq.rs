//! The encoder-decoder (reconstruction) baseline family of §IV-B:
//! traj2vec [9], t2vec [8] and Trembr [7].
//!
//! All three are RNN seq2seq autoencoders over road sequences; they differ
//! in input handling and decoder targets:
//!
//! | model    | input                              | decoder target              |
//! |----------|------------------------------------|-----------------------------|
//! | traj2vec | road feature sequence              | roads (CE)                  |
//! | t2vec    | token-downsampled road sequence    | full roads (CE)             |
//! | Trembr   | roads + time embeddings            | roads (CE) + durations (MSE)|
//!
//! The trajectory representation is the encoder's final hidden state.

use start_sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use start_core::{clamp_view, TrajEncoder};
use start_nn::graph::{Graph, NodeId};
use start_nn::layers::{GruCell, Linear};
use start_nn::params::ParamStore;
use start_nn::train::{fit, TrainConfig, Trainable, Warmup};
use start_nn::Array;
use start_traj::{TrajView, Trajectory};

use crate::encoder::{mean_loss, SeqEmbedder};

/// Which member of the family this instance is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seq2SeqKind {
    Traj2Vec,
    T2Vec,
    Trembr,
}

impl Seq2SeqKind {
    fn uses_time(self) -> bool {
        matches!(self, Seq2SeqKind::Trembr)
    }

    fn downsamples_input(self) -> bool {
        matches!(self, Seq2SeqKind::T2Vec)
    }

    fn predicts_time(self) -> bool {
        matches!(self, Seq2SeqKind::Trembr)
    }
}

/// GRU encoder-decoder baseline.
pub struct GruSeq2Seq {
    kind: Seq2SeqKind,
    store: ParamStore,
    emb: SeqEmbedder,
    encoder: GruCell,
    decoder: GruCell,
    road_out: Linear,
    time_out: Option<Linear>,
    dim: usize,
    max_len: usize,
}

impl GruSeq2Seq {
    pub fn new(kind: Seq2SeqKind, num_roads: usize, dim: usize, max_len: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let emb = SeqEmbedder::new(
            &mut store,
            &mut rng,
            "emb",
            num_roads,
            dim,
            max_len,
            kind.uses_time(),
            false,
        );
        let encoder = GruCell::new(&mut store, &mut rng, "enc", dim, dim);
        let decoder = GruCell::new(&mut store, &mut rng, "dec", dim, dim);
        let road_out = Linear::new(&mut store, &mut rng, "road_out", dim, num_roads, true);
        let time_out = kind
            .predicts_time()
            .then(|| Linear::new(&mut store, &mut rng, "time_out", dim, 1, true));
        Self { kind, store, emb, encoder, decoder, road_out, time_out, dim, max_len }
    }

    pub fn kind(&self) -> Seq2SeqKind {
        self.kind
    }

    /// Record one trajectory's pre-training loss on `g` without touching the
    /// optimizer — the no-data tracing hook the `start_nn::symbolic` tape
    /// families drive.
    pub fn record_pretrain_loss(
        &self,
        g: &mut Graph,
        traj: &Trajectory,
        rng: &mut StdRng,
    ) -> NodeId {
        self.reconstruction_loss(g, traj, rng)
    }

    /// Reconstruction loss of one trajectory (plus Trembr's time loss).
    fn reconstruction_loss(&self, g: &mut Graph, traj: &Trajectory, rng: &mut StdRng) -> NodeId {
        let full = clamp_view(TrajView::identity(traj), self.max_len);
        // t2vec encodes a downsampled input but reconstructs the full path.
        let input_view = if self.kind.downsamples_input() && full.len() > 4 {
            let mut v = full.clone();
            let keep: Vec<usize> = (0..v.len()).filter(|_| rng.gen::<f64>() >= 0.2).collect();
            let keep = if keep.len() < 2 { vec![0, v.len() - 1] } else { keep };
            v.roads = keep.iter().map(|&i| v.roads[i]).collect();
            v.times = keep.iter().map(|&i| v.times[i]).collect();
            v.masked = vec![false; v.roads.len()];
            v
        } else {
            full.clone()
        };

        let xs = self.emb.forward(g, &input_view, rng);
        let hs = self.encoder.forward_sequence(g, xs);
        let h_enc = g.select_row(hs, input_view.len() - 1);

        // Teacher-forced decoder: input at step t is the embedding of road
        // t-1 (zeros at t=0); initial hidden is the encoder representation.
        let target_emb = self.emb.forward(g, &full, rng);
        let mut h = h_enc;
        let mut hiddens = Vec::with_capacity(full.len());
        let zero = g.input(Array::zeros(1, self.dim));
        for i in 0..full.len() {
            let x = if i == 0 { zero } else { g.select_row(target_emb, i - 1) };
            h = self.decoder.step(g, x, h);
            hiddens.push(h);
        }
        let dec = g.concat_rows(&hiddens);
        let logits = self.road_out.forward(g, dec);
        let targets: Vec<u32> = full.roads.iter().map(|r| r.0).collect();
        let mut loss = g.cross_entropy_rows(logits, Arc::new(targets));

        if let Some(time_head) = &self.time_out {
            // Trembr also reconstructs per-road traversal durations.
            let n = full.len();
            let durations: Vec<f32> = (0..n)
                .map(|i| {
                    let exit = if i + 1 < n { full.times[i + 1] } else { traj.arrival };
                    ((exit - full.times[i]) as f32 / 60.0).clamp(0.0, 60.0)
                })
                .collect();
            let preds = time_head.forward(g, dec);
            let tloss = g.mse_loss(preds, Array::from_vec(n, 1, durations));
            let tloss = g.scale(tloss, 0.05);
            loss = g.add(loss, tloss);
        }
        loss
    }

    /// Self-supervised pre-training with the reconstruction objective.
    pub fn pretrain(&mut self, train: &[Trajectory], cfg: &TrainConfig) -> Vec<f32> {
        fit(
            self,
            train.len(),
            cfg,
            Warmup::TenthOfSteps,
            1,
            &mut StdRng::seed_from_u64(cfg.seed),
            |m, g, shard, r| {
                let losses: Vec<NodeId> =
                    shard.iter().map(|&i| m.reconstruction_loss(g, &train[i], r)).collect();
                Some(mean_loss(g, &losses, shard.len()))
            },
            |_, _, _, _| {},
        )
    }
}

impl Trainable for GruSeq2Seq {
    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
}

impl TrajEncoder for GruSeq2Seq {
    fn name(&self) -> &'static str {
        match self.kind {
            Seq2SeqKind::Traj2Vec => "traj2vec",
            Seq2SeqKind::T2Vec => "t2vec",
            Seq2SeqKind::Trembr => "Trembr",
        }
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn max_len(&self) -> usize {
        self.max_len
    }

    /// The encoder's final hidden state per view.
    fn pool_views(&self, g: &mut Graph, views: &[TrajView], rng: &mut StdRng) -> Vec<NodeId> {
        views
            .iter()
            .map(|view| {
                let xs = self.emb.forward(g, view, rng);
                let hs = self.encoder.forward_sequence(g, xs);
                g.select_row(hs, view.len() - 1)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use start_roadnet::synth::{generate_city, CityConfig};
    use start_traj::{SimConfig, Simulator};

    fn data() -> (start_roadnet::City, Vec<Trajectory>) {
        let city = generate_city("t", &CityConfig::tiny());
        let sim = Simulator::new(
            &city.net,
            SimConfig { num_trajectories: 48, num_drivers: 4, ..Default::default() },
        );
        let d = sim.generate();
        (city, d)
    }

    #[test]
    fn all_three_kinds_pretrain_and_reduce_loss() {
        let (city, d) = data();
        for kind in [Seq2SeqKind::Traj2Vec, Seq2SeqKind::T2Vec, Seq2SeqKind::Trembr] {
            let mut model = GruSeq2Seq::new(kind, city.net.num_segments(), 24, 64, 11);
            let cfg = TrainConfig {
                epochs: 3,
                batch_size: 8,
                lr: 2e-3,
                max_steps_per_epoch: Some(3),
                seed: 77,
                ..Default::default()
            };
            let losses = model.pretrain(&d, &cfg);
            assert!(
                losses.last().unwrap() < losses.first().unwrap(),
                "{kind:?} loss did not drop: {losses:?}"
            );
            let views: Vec<TrajView> = d[..4].iter().map(TrajView::identity).collect();
            let embs = model.embed_views(&views);
            assert_eq!(embs[0].len(), 24);
            assert!(embs.iter().flatten().all(|v| v.is_finite()));
        }
    }
}
