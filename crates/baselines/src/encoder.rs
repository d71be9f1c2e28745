//! The token embedder every baseline builds on, and the loss helper their
//! pre-training shards share.
//!
//! Baselines differ in architecture (GRU vs Transformer) and self-supervised
//! task (reconstruction, MLM, discrimination, mutual information), but all
//! map a trajectory view to a pooled `(1, d)` representation inside a live
//! autodiff graph — the [`start_core::TrajEncoder`] contract, against which
//! START's task heads fine-tune every model.

use start_sync::Arc;

use rand::rngs::StdRng;

use start_nn::graph::{Graph, NodeId};
use start_nn::layers::{sinusoidal_positional_encoding, Embedding};
use start_nn::params::{Init, ParamId, ParamStore};
use start_nn::train::ShardResult;
use start_nn::Array;
use start_traj::{day_of_week_index, minute_index, TrajView};

/// The mean of per-example `losses` as one shard's [`ShardResult`],
/// weighted by the shard's `len` trajectories.
pub(crate) fn mean_loss(g: &mut Graph, losses: &[NodeId], len: usize) -> ShardResult {
    let mut acc = losses[0];
    for &l in &losses[1..] {
        acc = g.add(acc, l);
    }
    let loss = g.scale(acc, 1.0 / losses.len() as f32);
    ShardResult { loss, weight: len as f32, components: Vec::new() }
}

/// Token embedder shared by all baselines: road embedding (+ optional
/// minute/day embeddings for Trembr) + sinusoidal positions + optional
/// `[CLS]` and `[MASK]` specials.
pub struct SeqEmbedder {
    road_emb: Embedding,
    minute_emb: Option<Embedding>,
    day_emb: Option<Embedding>,
    mask_token: ParamId,
    cls_token: Option<ParamId>,
    pe: Array,
    dim: usize,
}

impl SeqEmbedder {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StdRng,
        name: &str,
        num_roads: usize,
        dim: usize,
        max_len: usize,
        use_time: bool,
        use_cls: bool,
    ) -> Self {
        let road_emb = Embedding::new(store, rng, &format!("{name}.road_emb"), num_roads, dim);
        let minute_emb =
            use_time.then(|| Embedding::new(store, rng, &format!("{name}.minute_emb"), 1441, dim));
        let day_emb =
            use_time.then(|| Embedding::new(store, rng, &format!("{name}.day_emb"), 8, dim));
        let mask_token = store.param(format!("{name}.mask_tok"), 1, dim, Init::Normal(0.02), rng);
        let cls_token = use_cls
            .then(|| store.param(format!("{name}.cls_tok"), 1, dim, Init::Normal(0.02), rng));
        let pe = sinusoidal_positional_encoding(max_len + 1, dim);
        Self { road_emb, minute_emb, day_emb, mask_token, cls_token, pe, dim }
    }

    /// Overwrite the road-embedding table (node2vec initialization for PIM
    /// and Toast).
    pub fn init_road_table(&self, store: &mut ParamStore, data: &[f32]) {
        let table = store.get_mut(self.road_emb.table_id());
        assert_eq!(table.len(), data.len(), "road table size mismatch");
        table.data_mut().copy_from_slice(data);
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn has_cls(&self) -> bool {
        self.cls_token.is_some()
    }

    /// Embed a view: returns `(T, d)` (or `(T+1, d)` with `[CLS]` first).
    pub fn forward(&self, g: &mut Graph, view: &TrajView, rng: &mut StdRng) -> NodeId {
        let t = view.len();
        assert!(t > 0, "empty view");
        let d = self.dim;

        let ids: Vec<u32> = view.roads.iter().map(|r| r.0).collect();
        let table = g.param(self.road_emb.table_id());
        let gathered = g.gather_rows(table, Arc::new(ids));
        let mut x = if view.masked.iter().any(|&m| m) {
            let keep = g.input(Array::from_vec(
                t,
                1,
                view.masked.iter().map(|&m| if m { 0.0 } else { 1.0 }).collect(),
            ));
            let drop = g.input(Array::from_vec(
                t,
                1,
                view.masked.iter().map(|&m| if m { 1.0 } else { 0.0 }).collect(),
            ));
            let kept = g.mul_col(gathered, keep);
            let mask_tok = g.param(self.mask_token);
            let mask_rows = g.gather_rows(mask_tok, Arc::new(vec![0u32; t]));
            let masked_rows = g.mul_col(mask_rows, drop);
            g.add(kept, masked_rows)
        } else {
            gathered
        };

        if let (Some(me), Some(de)) = (&self.minute_emb, &self.day_emb) {
            let minutes: Vec<u32> = view
                .times
                .iter()
                .zip(&view.masked)
                .map(|(&ts, &m)| if m { 0 } else { minute_index(ts) })
                .collect();
            let days: Vec<u32> = view
                .times
                .iter()
                .zip(&view.masked)
                .map(|(&ts, &m)| if m { 0 } else { day_of_week_index(ts) })
                .collect();
            let memb = me.forward(g, &minutes);
            let demb = de.forward(g, &days);
            x = g.add(x, memb);
            x = g.add(x, demb);
        }
        let pe = g.input(Array::from_fn(t, d, |r, c| self.pe.get(r + 1, c)));
        x = g.add(x, pe);

        let mut full = if let Some(cls) = self.cls_token {
            let cls = g.param(cls);
            let cls_pe = g.input(Array::from_fn(1, d, |_, c| self.pe.get(0, c)));
            let cls = g.add(cls, cls_pe);
            g.concat_rows(&[cls, x])
        } else {
            x
        };
        if view.embed_dropout > 0.0 {
            full = g.dropout(full, view.embed_dropout, rng);
        }
        full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use start_roadnet::SegmentId;
    use start_traj::{Trajectory, TravelMode};

    fn traj(len: usize) -> Trajectory {
        Trajectory {
            roads: (0..len as u32).map(SegmentId).collect(),
            times: (0..len as i64).map(|i| i * 45).collect(),
            driver: 0,
            occupied: false,
            mode: TravelMode::CarTaxi,
            arrival: len as i64 * 45,
        }
    }

    #[test]
    fn embedder_shapes_with_and_without_cls() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let with_cls = SeqEmbedder::new(&mut store, &mut rng, "a", 50, 16, 64, true, true);
        let without = SeqEmbedder::new(&mut store, &mut rng, "b", 50, 16, 64, false, false);
        let t = traj(10);
        let view = TrajView::identity(&t);
        let mut g = Graph::new(&store, false);
        let xa = with_cls.forward(&mut g, &view, &mut rng);
        let xb = without.forward(&mut g, &view, &mut rng);
        assert_eq!(g.shape(xa), (11, 16));
        assert_eq!(g.shape(xb), (10, 16));
    }

    #[test]
    fn masked_tokens_replace_road_vectors() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let emb = SeqEmbedder::new(&mut store, &mut rng, "m", 50, 16, 64, false, false);
        let t = traj(6);
        let plain = TrajView::identity(&t);
        let mut masked = TrajView::identity(&t);
        masked.masked[2] = true;
        let mut g = Graph::new(&store, false);
        let xp = emb.forward(&mut g, &plain, &mut rng);
        let xm = emb.forward(&mut g, &masked, &mut rng);
        assert_ne!(g.value(xp).row(2), g.value(xm).row(2));
        assert_eq!(g.value(xp).row(3), g.value(xm).row(3));
    }
}
