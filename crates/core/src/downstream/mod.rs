//! Downstream task adaptation (§III-D): travel time estimation, trajectory
//! classification, and zero-shot similarity search.
//!
//! The paper fine-tunes every model under one protocol (§IV-C1: "the
//! baselines have the same settings as START"), so the task heads here are
//! generic over [`TrajEncoder`]: START and each baseline only say how views
//! are pooled on a training tape and embedded for inference.

pub mod classify;
pub mod eta;
pub mod similarity;

pub use classify::{fine_tune_classifier, predict_classes, ClassifierHead};
pub use eta::{fine_tune_eta, predict_eta, EtaHead};
pub use similarity::euclidean;

use rand::rngs::StdRng;
use rand::SeedableRng;

use start_nn::graph::{Graph, NodeId};
use start_nn::layers::Linear;
use start_nn::train::{fit, ShardResult, TrainConfig, Trainable, Warmup};
use start_nn::Array;
use start_traj::{TrajView, Trajectory};

use crate::encoder::{EncodeOptions, CHUNK};
use crate::model::{clamp_view, StartModel};

/// A trajectory encoder the task heads can fine-tune: START or any
/// baseline. [`Trainable`] gives [`fit`] its parameter store.
pub trait TrajEncoder: Trainable {
    fn name(&self) -> &'static str;
    /// Width `d` of the pooled representation.
    fn dim(&self) -> usize;
    /// Longest view the encoder takes; see [`clamp_view`].
    fn max_len(&self) -> usize;

    /// Pooled `(1, d)` representation of each view, in order, on tape `g`.
    /// Views are at most [`TrajEncoder::max_len`] roads long.
    fn pool_views(&self, g: &mut Graph, views: &[TrajView], rng: &mut StdRng) -> Vec<NodeId>;

    /// Inference embeddings of `views`, clamped to `max_len` (eval mode, one
    /// graph per chunk of 64 views, as the [`crate::Encoder`] chunks).
    fn embed_views(&self, views: &[TrajView]) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(0);
        let mut out = Vec::with_capacity(views.len());
        for chunk in views.chunks(CHUNK) {
            let chunk: Vec<TrajView> =
                chunk.iter().map(|v| clamp_view(v.clone(), self.max_len())).collect();
            let mut g = Graph::new(self.store(), false);
            for p in self.pool_views(&mut g, &chunk, &mut rng) {
                out.push(g.value(p).row(0).to_vec());
            }
        }
        out
    }
}

impl TrajEncoder for StartModel {
    fn name(&self) -> &'static str {
        "START"
    }

    fn dim(&self) -> usize {
        self.cfg.dim
    }

    fn max_len(&self) -> usize {
        self.cfg.max_len
    }

    /// One road-stage forward for the whole batch, then TAT-Enc per view.
    fn pool_views(&self, g: &mut Graph, views: &[TrajView], rng: &mut StdRng) -> Vec<NodeId> {
        let road_reprs = self.road_reprs(g);
        views.iter().map(|v| self.encode_view(g, v, road_reprs, rng).pooled).collect()
    }

    /// The inference [`crate::Encoder`] (threaded, deduplicated).
    fn embed_views(&self, views: &[TrajView]) -> Vec<Vec<f32>> {
        self.encoder()
            .encode_views(views, &EncodeOptions::default())
            .unwrap_or_else(|e| panic!("embed_views: {e}"))
    }
}

/// Fine-tune `model` together with a fresh `dim → out_dim` head named
/// `name`, drawn from an RNG seeded with `cfg.seed` that then drives
/// [`fit`]. Each shard pools its trajectories' `view`s, applies the head to
/// the stacked `(B, d)` batch, and `loss(g, output, shard)` scores it.
fn fit_head<M: TrajEncoder + ?Sized>(
    model: &mut M,
    train: &[Trajectory],
    view: fn(&Trajectory) -> TrajView,
    (name, out_dim): (&str, usize),
    cfg: &TrainConfig,
    loss: impl Fn(&mut Graph, NodeId, &[usize]) -> NodeId + Sync,
) -> Linear {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let dim = model.dim();
    let fc = Linear::new(model.store_mut(), &mut rng, name, dim, out_dim, true);
    fit(
        model,
        train.len(),
        cfg,
        Warmup::TenthOfSteps,
        1,
        &mut rng,
        |m, g, shard, r| {
            let views: Vec<TrajView> =
                shard.iter().map(|&i| clamp_view(view(&train[i]), m.max_len())).collect();
            let pooled = m.pool_views(g, &views, r);
            let stacked = g.concat_rows(&pooled);
            let out = fc.forward(g, stacked);
            let loss = loss(g, out, shard);
            Some(ShardResult { loss, weight: shard.len() as f32, components: Vec::new() })
        },
        |_, _, _, _| {},
    );
    fc
}

/// Head `fc` applied to each trajectory's embedding as a `(1, d)` row on an
/// eval tape, followed by a row softmax when `softmax` is set.
fn predict_rows<M: TrajEncoder + ?Sized>(
    model: &M,
    fc: &Linear,
    trajectories: &[Trajectory],
    view: fn(&Trajectory) -> TrajView,
    softmax: bool,
) -> Vec<Vec<f32>> {
    let views: Vec<TrajView> = trajectories.iter().map(view).collect();
    let mut g = Graph::new(model.store(), false);
    model
        .embed_views(&views)
        .into_iter()
        .map(|e| {
            let x = g.input(Array::from_vec(1, e.len(), e));
            let mut y = fc.forward(&mut g, x);
            if softmax {
                y = g.softmax_rows(y);
            }
            g.value(y).row(0).to_vec()
        })
        .collect()
}
