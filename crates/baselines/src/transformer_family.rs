//! The self-attention baseline family of §IV-B: Transformer [11] (MLM),
//! BERT [10] (MLM + segment-order discrimination), Toast [5] (node2vec
//! embeddings + MLM + trajectory discrimination) and PIM-TF (PIM's mutual
//! information objective on a Transformer encoder).
//!
//! The trajectory representation is the `[CLS]` hidden state.

use start_sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use start_core::{clamp_view, TrajEncoder};
use start_nn::graph::{Graph, NodeId};
use start_nn::layers::{Linear, TransformerEncoder};
use start_nn::params::ParamStore;
use start_nn::train::{fit, TrainConfig, Trainable, Warmup};
use start_roadnet::SegmentId;
use start_traj::{TrajView, Trajectory};

use crate::encoder::{mean_loss, SeqEmbedder};

/// Which member of the transformer family this instance is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TfKind {
    /// MLM only.
    TransformerMlm,
    /// MLM + ordered/swapped half-pair classification.
    Bert,
    /// node2vec-initialized embeddings + MLM + real/corrupt discrimination.
    Toast,
    /// Mutual-information maximization (InfoNCE-style) on a Transformer.
    PimTf,
}

/// Transformer-encoder baseline.
pub struct TransformerBaseline {
    kind: TfKind,
    store: ParamStore,
    emb: SeqEmbedder,
    encoder: TransformerEncoder,
    mlm_head: Linear,
    /// Binary discrimination head (BERT order task / Toast authenticity task).
    disc_head: Option<Linear>,
    dim: usize,
    max_len: usize,
    num_roads: usize,
}

impl TransformerBaseline {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kind: TfKind,
        num_roads: usize,
        dim: usize,
        layers: usize,
        heads: usize,
        max_len: usize,
        node2vec_table: Option<&[f32]>,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let emb =
            SeqEmbedder::new(&mut store, &mut rng, "emb", num_roads, dim, max_len, false, true);
        if let Some(table) = node2vec_table {
            emb.init_road_table(&mut store, table);
        } else {
            assert!(kind != TfKind::Toast, "Toast requires node2vec-initialized road embeddings");
        }
        let encoder =
            TransformerEncoder::new(&mut store, &mut rng, "enc", layers, dim, heads, dim, 0.1);
        let mlm_head = Linear::new(&mut store, &mut rng, "mlm_head", dim, num_roads, true);
        let disc_head = matches!(kind, TfKind::Bert | TfKind::Toast)
            .then(|| Linear::new(&mut store, &mut rng, "disc_head", dim, 2, true));
        Self { kind, store, emb, encoder, mlm_head, disc_head, dim, max_len, num_roads }
    }

    pub fn kind(&self) -> TfKind {
        self.kind
    }

    /// Record one trajectory's objective mix on `g` without touching the
    /// optimizer — the no-data tracing hook the `start_nn::symbolic` tape
    /// families drive. `other` supplies PIM-TF's in-batch negative and is
    /// ignored by the other kinds.
    pub fn record_pretrain_loss(
        &self,
        g: &mut Graph,
        traj: &Trajectory,
        other: &Trajectory,
        rng: &mut StdRng,
    ) -> NodeId {
        match self.kind {
            TfKind::TransformerMlm => self.mlm_loss(g, traj, rng),
            TfKind::Bert => {
                let mlm = self.mlm_loss(g, traj, rng);
                let order = self.bert_order_loss(g, traj, rng);
                g.add(mlm, order)
            }
            TfKind::Toast => {
                let mlm = self.mlm_loss(g, traj, rng);
                let disc = self.toast_discrimination_loss(g, traj, rng);
                g.add(mlm, disc)
            }
            TfKind::PimTf => self.pim_mi_loss(g, traj, other, rng),
        }
    }

    /// Encode a view; returns `(hidden (T+1, d), pooled (1, d))`.
    fn encode_in_graph(
        &self,
        g: &mut Graph,
        view: &TrajView,
        rng: &mut StdRng,
    ) -> (NodeId, NodeId) {
        let x = self.emb.forward(g, view, rng);
        let hidden = self.encoder.forward(g, x, None, rng);
        let pooled = g.select_row(hidden, 0);
        (hidden, pooled)
    }

    /// i.i.d. token-masked view plus MLM targets (not span masking — exactly
    /// the generic MLM the paper contrasts with its span approach).
    fn iid_masked(&self, traj: &Trajectory, rng: &mut StdRng) -> (TrajView, Vec<usize>, Vec<u32>) {
        let mut view = clamp_view(TrajView::identity(traj), self.max_len);
        let mut positions = Vec::new();
        let mut targets = Vec::new();
        for i in 0..view.len() {
            if rng.gen::<f64>() < 0.15 {
                view.masked[i] = true;
                positions.push(i);
                targets.push(view.roads[i].0);
            }
        }
        if positions.is_empty() {
            view.masked[0] = true;
            positions.push(0);
            targets.push(view.roads[0].0);
        }
        (view, positions, targets)
    }

    fn mlm_loss(&self, g: &mut Graph, traj: &Trajectory, rng: &mut StdRng) -> NodeId {
        let (view, positions, targets) = self.iid_masked(traj, rng);
        let (hidden, _) = self.encode_in_graph(g, &view, rng);
        let idx: Vec<u32> = positions.iter().map(|&p| (p + 1) as u32).collect();
        let rows = g.gather_rows(hidden, Arc::new(idx));
        let logits = self.mlm_head.forward(g, rows);
        g.cross_entropy_rows(logits, Arc::new(targets))
    }

    /// BERT's auxiliary task: classify whether the two halves of the view
    /// appear in their original order.
    fn bert_order_loss(&self, g: &mut Graph, traj: &Trajectory, rng: &mut StdRng) -> NodeId {
        let view = clamp_view(TrajView::identity(traj), self.max_len);
        let half = view.len() / 2;
        let swap = rng.gen::<bool>();
        let view = if swap && half >= 2 {
            let mut v = view.clone();
            v.roads = view.roads[half..].iter().chain(&view.roads[..half]).copied().collect();
            v.times = view.times[half..].iter().chain(&view.times[..half]).copied().collect();
            v
        } else {
            view
        };
        let (_, pooled) = self.encode_in_graph(g, &view, rng);
        let Some(head) = self.disc_head.as_ref() else {
            panic!("BERT sentence-order loss requires disc_head (built in Self::new)")
        };
        let logits = head.forward(g, pooled);
        let label = u32::from(!(swap && half >= 2));
        g.cross_entropy_rows(logits, Arc::new(vec![label]))
    }

    /// Toast's auxiliary task: discriminate real trajectories from ones with
    /// a fraction of roads replaced by random segments.
    fn toast_discrimination_loss(
        &self,
        g: &mut Graph,
        traj: &Trajectory,
        rng: &mut StdRng,
    ) -> NodeId {
        let mut view = clamp_view(TrajView::identity(traj), self.max_len);
        let corrupt = rng.gen::<bool>();
        if corrupt {
            for i in 0..view.len() {
                if rng.gen::<f64>() < 0.3 {
                    view.roads[i] = SegmentId(rng.gen_range(0..self.num_roads) as u32);
                }
            }
        }
        let (_, pooled) = self.encode_in_graph(g, &view, rng);
        let Some(head) = self.disc_head.as_ref() else {
            panic!("Toast discrimination loss requires disc_head (built in Self::new)")
        };
        let logits = head.forward(g, pooled);
        g.cross_entropy_rows(logits, Arc::new(vec![u32::from(!corrupt)]))
    }

    /// PIM's mutual-information objective: the pooled (global) vector must
    /// score its own token states (local) above another trajectory's.
    /// Logistic losses are expressed as 2-way cross-entropies.
    fn pim_mi_loss(
        &self,
        g: &mut Graph,
        traj: &Trajectory,
        other: &Trajectory,
        rng: &mut StdRng,
    ) -> NodeId {
        let view = clamp_view(TrajView::identity(traj), self.max_len);
        let other_view = clamp_view(TrajView::identity(other), self.max_len);
        let (hidden, pooled) = self.encode_in_graph(g, &view, rng);
        let (other_hidden, _) = self.encode_in_graph(g, &other_view, rng);
        // Mean of local (non-CLS) states.
        let t = view.len();
        let ot = other_view.len();
        let mean_row =
            g.input(start_nn::Array::from_fn(
                1,
                t + 1,
                |_, c| {
                    if c == 0 {
                        0.0
                    } else {
                        1.0 / t as f32
                    }
                },
            ));
        let local = g.matmul(mean_row, hidden);
        let omean_row = g.input(start_nn::Array::from_fn(1, ot + 1, |_, c| {
            if c == 0 {
                0.0
            } else {
                1.0 / ot as f32
            }
        }));
        let other_local = g.matmul(omean_row, other_hidden);

        let pos_score = score(g, pooled, local);
        let neg_score = score(g, pooled, other_local);
        // -log σ(pos) - log (1 - σ(neg)) as two CE terms over [0, s].
        let zero = g.input(start_nn::Array::zeros(1, 1));
        let pos_row = g.concat_cols(&[zero, pos_score]);
        let neg_row = g.concat_cols(&[zero, neg_score]);
        let lp = g.cross_entropy_rows(pos_row, Arc::new(vec![1]));
        let ln = g.cross_entropy_rows(neg_row, Arc::new(vec![0]));
        g.add(lp, ln)
    }

    /// Pre-train with this variant's objective mix.
    pub fn pretrain(&mut self, train: &[Trajectory], cfg: &TrainConfig) -> Vec<f32> {
        // PIM-TF draws its negative from the next trajectory in the shard,
        // so shards must hold at least two trajectories.
        let min_per_shard = if self.kind == TfKind::PimTf { 2 } else { 1 };
        fit(
            self,
            train.len(),
            cfg,
            Warmup::TenthOfSteps,
            min_per_shard,
            &mut StdRng::seed_from_u64(cfg.seed),
            |m, g, shard, r| {
                let mut losses = Vec::new();
                for (k, &i) in shard.iter().enumerate() {
                    match m.kind {
                        TfKind::TransformerMlm => {
                            losses.push(m.mlm_loss(g, &train[i], r));
                        }
                        TfKind::Bert => {
                            losses.push(m.mlm_loss(g, &train[i], r));
                            losses.push(m.bert_order_loss(g, &train[i], r));
                        }
                        TfKind::Toast => {
                            losses.push(m.mlm_loss(g, &train[i], r));
                            losses.push(m.toast_discrimination_loss(g, &train[i], r));
                        }
                        TfKind::PimTf => {
                            let other = shard[(k + 1) % shard.len()];
                            losses.push(m.pim_mi_loss(g, &train[i], &train[other], r));
                        }
                    }
                }
                Some(mean_loss(g, &losses, shard.len()))
            },
            |_, _, _, _| {},
        )
    }
}

/// Bilinear-free score: `g · h^T` as a `(1, 1)` node.
fn score(g: &mut Graph, a: NodeId, b: NodeId) -> NodeId {
    let bt = g.transpose(b);
    g.matmul(a, bt)
}

impl Trainable for TransformerBaseline {
    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
}

impl TrajEncoder for TransformerBaseline {
    fn name(&self) -> &'static str {
        match self.kind {
            TfKind::TransformerMlm => "Transformer",
            TfKind::Bert => "BERT",
            TfKind::Toast => "Toast",
            TfKind::PimTf => "PIM-TF",
        }
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn max_len(&self) -> usize {
        self.max_len
    }

    /// The `[CLS]` hidden state per view.
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

    fn data() -> (start_roadnet::City, Vec<Trajectory>) {
        let city = generate_city("t", &CityConfig::tiny());
        let sim = Simulator::new(
            &city.net,
            SimConfig { num_trajectories: 40, num_drivers: 4, ..Default::default() },
        );
        let d = sim.generate();
        (city, d)
    }

    #[test]
    fn all_four_kinds_pretrain() {
        let (city, d) = data();
        let n = city.net.num_segments();
        let n2v = node2vec(
            &city.net,
            &Node2VecConfig { dim: 24, epochs: 1, walks_per_node: 2, ..Default::default() },
        );
        for kind in [TfKind::TransformerMlm, TfKind::Bert, TfKind::Toast, TfKind::PimTf] {
            let table = matches!(kind, TfKind::Toast).then_some(n2v.data());
            let mut model = TransformerBaseline::new(kind, n, 24, 2, 2, 64, table, 3);
            let cfg = TrainConfig {
                epochs: 2,
                batch_size: 6,
                lr: 1e-3,
                max_steps_per_epoch: Some(2),
                seed: 77,
                ..Default::default()
            };
            let losses = model.pretrain(&d, &cfg);
            assert!(losses.iter().all(|l| l.is_finite()), "{kind:?}: {losses:?}");
            let views: Vec<TrajView> = d[..3].iter().map(TrajView::identity).collect();
            let embs = model.embed_views(&views);
            assert_eq!(embs[0].len(), 24);
        }
    }

    #[test]
    #[should_panic(expected = "Toast requires node2vec")]
    fn toast_without_node2vec_rejected() {
        TransformerBaseline::new(TfKind::Toast, 10, 8, 1, 1, 32, None, 1);
    }
}
