//! The START model (§III): TPE-GAT road stage + Time-Aware Trajectory
//! Encoder (TAT-Enc) with `[CLS]` pooling.

use start_sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use start_nn::graph::{Graph, NodeId};
use start_nn::layers::{sinusoidal_positional_encoding, Embedding, Linear, TransformerEncoder};
use start_nn::params::{Init, ParamId, ParamStore};
use start_nn::train::Trainable;
use start_nn::Array;
use start_roadnet::{NodeEmbeddings, RoadNetwork, TransferMatrix};
use start_traj::{day_of_week_index, minute_index, TrajView, Trajectory};

use crate::config::{RoadEncoder, StartConfig};
use crate::interval::IntervalModule;
use crate::tpe_gat::TpeGat;

/// Stage one: how road ids become road representation vectors `r_i`.
enum RoadStage {
    /// TPE-GAT (with or without transfer probabilities).
    Gat(TpeGat),
    /// Learnable embedding table (`w/o TPE-GAT` / `w/ Node2vec` ablations).
    Table(Embedding),
}

/// An encoded trajectory view inside a live graph.
pub struct EncodedView {
    /// `(T+1, d)` hidden states; row 0 is the `[CLS]` placeholder.
    pub hidden: NodeId,
    /// `(1, d)` pooled trajectory representation `p_i` (§III-B3).
    pub pooled: NodeId,
}

/// The complete START model. Owns its [`ParamStore`]; the store is borrowed
/// immutably during forward passes, so batches of inference graphs can run on
/// worker threads concurrently.
pub struct StartModel {
    pub cfg: StartConfig,
    pub store: ParamStore,
    road_stage: RoadStage,
    minute_emb: Embedding,
    day_emb: Embedding,
    cls_token: ParamId,
    mask_token: ParamId,
    /// Sinusoidal `pe_i` of Eq. 5, rows `0..=max_len` (row 0 serves `[CLS]`).
    pe: Array,
    encoder: TransformerEncoder,
    interval: IntervalModule,
    /// Masked-road prediction head `W_m, b_m` (Eq. 12).
    mask_head: Linear,
    num_roads: usize,
}

/// Special index 0 in the minute/day tables is the `[MASKT]` token (§III-C1),
/// so real indexes 1..=1440 / 1..=7 map directly.
const MASKT: u32 = 0;

impl Trainable for StartModel {
    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
}

impl StartModel {
    /// Build a model over a road network. `transfer` feeds TPE-GAT's Eq. 2
    /// term; `node2vec_init` seeds the embedding table for the `w/ Node2vec`
    /// ablation (must have `dim` columns when provided).
    pub fn new(
        cfg: StartConfig,
        net: &RoadNetwork,
        transfer: Option<&TransferMatrix>,
        node2vec_init: Option<&NodeEmbeddings>,
        seed: u64,
    ) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid StartConfig: {e}");
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let num_roads = net.num_segments();
        let d = cfg.dim;

        let road_stage = match cfg.road_encoder {
            RoadEncoder::TpeGat => RoadStage::Gat(TpeGat::new(
                &mut store,
                &mut rng,
                "gat",
                net,
                transfer,
                d,
                &cfg.gat_heads,
            )),
            RoadEncoder::GatNoTransProb => RoadStage::Gat(TpeGat::new(
                &mut store,
                &mut rng,
                "gat",
                net,
                None,
                d,
                &cfg.gat_heads,
            )),
            RoadEncoder::RandomEmbedding => {
                RoadStage::Table(Embedding::new(&mut store, &mut rng, "road_emb", num_roads, d))
            }
            RoadEncoder::Node2VecEmbedding => {
                let emb = Embedding::new(&mut store, &mut rng, "road_emb", num_roads, d);
                let Some(init) = node2vec_init else {
                    panic!("RoadEncoder::Node2VecEmbedding requires node2vec_init embeddings")
                };
                assert_eq!(init.dim, d, "node2vec dim must equal model dim");
                let table = store.get_mut(emb.table_id());
                table.data_mut().copy_from_slice(init.data());
                RoadStage::Table(emb)
            }
        };

        let minute_emb = Embedding::new(&mut store, &mut rng, "minute_emb", 1441, d);
        let day_emb = Embedding::new(&mut store, &mut rng, "day_emb", 8, d);
        let cls_token = store.param("cls", 1, d, Init::Normal(0.02), &mut rng);
        let mask_token = store.param("mask_road", 1, d, Init::Normal(0.02), &mut rng);
        let pe = sinusoidal_positional_encoding(cfg.max_len + 1, d);
        let encoder = TransformerEncoder::new(
            &mut store,
            &mut rng,
            "enc",
            cfg.encoder_layers,
            d,
            cfg.encoder_heads,
            cfg.ffn_hidden,
            cfg.dropout,
        );
        let interval = IntervalModule::new(
            &mut store,
            &mut rng,
            "interval",
            cfg.interval_hidden,
            cfg.interval_mode,
            cfg.use_log_decay,
            cfg.use_adaptive_interval,
        );
        let mask_head = Linear::new(&mut store, &mut rng, "mask_head", d, num_roads, true);

        Self {
            cfg,
            store,
            road_stage,
            minute_emb,
            day_emb,
            cls_token,
            mask_token,
            pe,
            encoder,
            interval,
            mask_head,
            num_roads,
        }
    }

    pub fn num_roads(&self) -> usize {
        self.num_roads
    }

    /// Stage one: the `(|V|, d)` road representation matrix, computed once
    /// per graph and shared by every trajectory in the batch.
    pub fn road_reprs(&self, g: &mut Graph) -> NodeId {
        match &self.road_stage {
            RoadStage::Gat(gat) => gat.forward(g),
            RoadStage::Table(emb) => g.param(emb.table_id()),
        }
    }

    /// Eq. 5: fused token embeddings `x_i = r_i + t_mi + t_di + pe_i` for a
    /// view, with `[CLS]` prepended and `[MASK]`/`[MASKT]` substitution at
    /// masked positions. Returns a `(T+1, d)` node.
    fn embed_view(
        &self,
        g: &mut Graph,
        view: &TrajView,
        road_reprs: NodeId,
        rng: &mut StdRng,
    ) -> NodeId {
        let t = view.len();
        assert!(t > 0 && t <= self.cfg.max_len, "view length {t} out of bounds");
        let d = self.cfg.dim;

        // Road vectors, with masked rows replaced by the [MASK] token.
        let ids: Vec<u32> = view.roads.iter().map(|r| r.0).collect();
        let gathered = g.gather_rows(road_reprs, Arc::new(ids));
        let roads = if view.masked.iter().any(|&m| m) {
            let keep = Array::from_vec(
                t,
                1,
                view.masked.iter().map(|&m| if m { 0.0 } else { 1.0 }).collect(),
            );
            let drop = Array::from_vec(
                t,
                1,
                view.masked.iter().map(|&m| if m { 1.0 } else { 0.0 }).collect(),
            );
            let keep = g.input(keep);
            let drop = g.input(drop);
            let kept = g.mul_col(gathered, keep);
            let mask_tok = g.param(self.mask_token);
            let mask_rows = g.gather_rows(mask_tok, Arc::new(vec![0u32; t]));
            let masked_rows = g.mul_col(mask_rows, drop);
            g.add(kept, masked_rows)
        } else {
            gathered
        };

        let mut x = roads;
        if self.cfg.use_time_embedding {
            let minutes: Vec<u32> = view
                .roads
                .iter()
                .zip(&view.times)
                .zip(&view.masked)
                .map(|((_, &t), &m)| if m { MASKT } else { minute_index(t) })
                .collect();
            let days: Vec<u32> = view
                .times
                .iter()
                .zip(&view.masked)
                .map(|(&t, &m)| if m { MASKT } else { day_of_week_index(t) })
                .collect();
            let me = self.minute_emb.forward(g, &minutes);
            let de = self.day_emb.forward(g, &days);
            x = g.add(x, me);
            x = g.add(x, de);
        }
        // Positions 1..=T (0 is reserved for [CLS]).
        let pe = Array::from_fn(t, d, |r, c| self.pe.get(r + 1, c));
        let pe = g.input(pe);
        x = g.add(x, pe);

        // [CLS] row with its own position encoding.
        let cls = g.param(self.cls_token);
        let cls_pe = g.input(Array::from_fn(1, d, |_, c| self.pe.get(0, c)));
        let cls = g.add(cls, cls_pe);
        let mut full = g.concat_rows(&[cls, x]);

        // Embedding-level token dropout (the *Dropout* augmentation).
        if view.embed_dropout > 0.0 {
            full = g.dropout(full, view.embed_dropout, rng);
        }
        full
    }

    /// Full TAT-Enc pass over one view (Eqs. 5-11 + §III-B3 pooling).
    pub fn encode_view(
        &self,
        g: &mut Graph,
        view: &TrajView,
        road_reprs: NodeId,
        rng: &mut StdRng,
    ) -> EncodedView {
        let hidden = self.encode_view_hidden(g, view, road_reprs, rng);
        let pooled = g.select_row(hidden, 0);
        EncodedView { hidden, pooled }
    }

    /// TAT-Enc token states only, without the `[CLS]` pooling gather —
    /// consumers that never read `pooled` (span-mask recovery) use this so
    /// the tape carries no dead nodes (see `start_nn::audit`).
    pub fn encode_view_hidden(
        &self,
        g: &mut Graph,
        view: &TrajView,
        road_reprs: NodeId,
        rng: &mut StdRng,
    ) -> NodeId {
        let x = self.embed_view(g, view, road_reprs, rng);
        let bias = self.interval.forward(g, &view.times);
        self.encoder.forward(g, x, bias, rng)
    }

    /// Masked-road logits for selected positions (Eq. 12). `positions` are
    /// 0-based road indexes (the `[CLS]` offset is handled here).
    pub fn mask_logits(&self, g: &mut Graph, hidden: NodeId, positions: &[usize]) -> NodeId {
        let idx: Vec<u32> = positions.iter().map(|&p| (p + 1) as u32).collect();
        let rows = g.gather_rows(hidden, Arc::new(idx));
        self.mask_head.forward(g, rows)
    }

    /// Copy every parameter tensor whose name and shape match from `src`
    /// into this model's store, returning the number of tensors adopted.
    ///
    /// This is the checkpoint hot-swap path: a training loop snapshots its
    /// live weights into a freshly constructed model (same config, same
    /// road network) and hands the snapshot to `Router::publish` / the
    /// serving tier, leaving the trainer's own model free to keep
    /// stepping. When the two architectures genuinely match, the return
    /// value equals the store's tensor count — callers that want a hard
    /// guarantee compare against `self.store.len()`.
    pub fn adopt_weights(&mut self, src: &StartModel) -> usize {
        self.store.load_matching(&src.store)
    }
}

/// A view that reveals only the *departure time* (all roads stamped with
/// it), used for travel-time-estimation fine-tuning to avoid leaking the
/// answer through per-road timestamps (§IV-D2).
pub fn departure_only_view(traj: &Trajectory) -> TrajView {
    let mut v = TrajView::identity(traj);
    let dep = traj.departure();
    v.times = vec![dep; v.len()];
    v
}

/// Truncate a trajectory view to a maximum length (keeps the prefix).
pub fn clamp_view(mut view: TrajView, max_len: usize) -> TrajView {
    if view.len() > max_len {
        view.roads.truncate(max_len);
        view.times.truncate(max_len);
        view.masked.truncate(max_len);
    }
    view
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::EncodeOptions;
    use start_roadnet::synth::{generate_city, CityConfig};
    use start_traj::{SimConfig, Simulator};

    fn encode(model: &StartModel, trajs: &[Trajectory]) -> Vec<Vec<f32>> {
        model.encoder().encode(trajs, &EncodeOptions::default()).unwrap()
    }

    fn setup() -> (start_roadnet::City, Vec<Trajectory>, TransferMatrix) {
        let city = generate_city("t", &CityConfig::tiny());
        let sim = Simulator::new(
            &city.net,
            SimConfig { num_trajectories: 40, num_drivers: 4, ..Default::default() },
        );
        let data = sim.generate();
        let tm = TransferMatrix::from_sequences(
            city.net.num_segments(),
            data.iter().map(|t| t.roads.as_slice()),
        );
        (city, data, tm)
    }

    #[test]
    fn encode_produces_d_dimensional_vectors() {
        let (city, data, tm) = setup();
        let model = StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 7);
        let embs = encode(&model, &data[..5]);
        assert_eq!(embs.len(), 5);
        for e in &embs {
            assert_eq!(e.len(), 32);
            assert!(e.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn inference_is_deterministic() {
        let (city, data, tm) = setup();
        let model = StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 7);
        let a = encode(&model, &data[..3]);
        let b = encode(&model, &data[..3]);
        assert_eq!(a, b);
    }

    #[test]
    fn masked_positions_change_the_embedding() {
        let (city, data, tm) = setup();
        let model = StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 7);
        let plain = TrajView::identity(&data[0]);
        let mut masked = TrajView::identity(&data[0]);
        masked.masked[1] = true;
        masked.masked[2] = true;
        let embs =
            model.encoder().encode_views(&[plain, masked], &EncodeOptions::default()).unwrap();
        assert_ne!(embs[0], embs[1]);
    }

    #[test]
    fn random_embedding_ablation_works() {
        let (city, data, _) = setup();
        let cfg =
            StartConfig { road_encoder: RoadEncoder::RandomEmbedding, ..StartConfig::test_scale() };
        let model = StartModel::new(cfg, &city.net, None, None, 7);
        let embs = encode(&model, &data[..2]);
        assert!(embs[0].iter().any(|v| *v != 0.0));
    }

    #[test]
    fn node2vec_ablation_uses_provided_vectors() {
        let (city, data, _) = setup();
        let n2v = start_roadnet::node2vec(
            &city.net,
            &start_roadnet::Node2VecConfig {
                dim: 32,
                epochs: 1,
                walks_per_node: 2,
                ..Default::default()
            },
        );
        let cfg = StartConfig {
            road_encoder: RoadEncoder::Node2VecEmbedding,
            ..StartConfig::test_scale()
        };
        let model = StartModel::new(cfg, &city.net, None, Some(&n2v), 7);
        // The embedding table must start as the node2vec vectors.
        let table = model.store.lookup("road_emb").unwrap();
        assert_eq!(model.store.get(table).data(), n2v.data());
        let _ = encode(&model, &data[..2]);
    }

    #[test]
    fn departure_only_view_hides_progress_times() {
        let (_, data, _) = setup();
        let v = departure_only_view(&data[0]);
        assert!(v.times.iter().all(|&t| t == data[0].departure()));
    }

    #[test]
    fn clamp_view_truncates() {
        let (_, data, _) = setup();
        let long = data.iter().max_by_key(|t| t.len()).unwrap();
        let v = clamp_view(TrajView::identity(long), 5);
        assert_eq!(v.len(), 5.min(long.len()));
    }

    #[test]
    fn mask_logits_shape_is_vocab_sized() {
        let (city, data, tm) = setup();
        let model = StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 7);
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = Graph::new(&model.store, false);
        let roads = model.road_reprs(&mut g);
        let view = TrajView::identity(&data[0]);
        let enc = model.encode_view(&mut g, &view, roads, &mut rng);
        let logits = model.mask_logits(&mut g, enc.hidden, &[0, 2]);
        assert_eq!(g.shape(logits), (2, city.net.num_segments()));
    }
}
