//! Generic downstream heads for baselines: the same fine-tuning protocol the
//! paper applies to every model (§IV-C1 "the baselines have the same
//! settings as START").

use start_sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use start_nn::graph::Graph;
use start_nn::layers::Linear;
use start_nn::train::{fit, ShardResult};
use start_nn::Array;
use start_traj::{TrajView, Trajectory};

use crate::encoder::{clamp_view, departure_only_view, BaselineEncoder, BaselineTrainConfig};

/// Regression head over a baseline encoder.
pub struct GenericEtaHead {
    fc: Linear,
    pub target_mean: f32,
    pub target_std: f32,
}

/// Fine-tune any baseline for travel time estimation (Eq. 16 protocol).
pub fn fine_tune_eta<E: BaselineEncoder>(
    enc: &mut E,
    train: &[Trajectory],
    cfg: &BaselineTrainConfig,
) -> GenericEtaHead {
    assert!(!train.is_empty());
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let dim = enc.dim();
    let fc = {
        let store = enc.store_mut();
        Linear::new(store, &mut rng, "eta_head", dim, 1, true)
    };
    let times: Vec<f32> = train.iter().map(Trajectory::travel_time_secs).collect();
    let mean = times.iter().sum::<f32>() / times.len() as f32;
    let std = (times.iter().map(|t| (t - mean) * (t - mean)).sum::<f32>() / times.len() as f32)
        .sqrt()
        .max(1.0);

    fit(
        enc,
        train.len(),
        &cfg.fit_args(1),
        &mut rng,
        |m, g, shard, r| {
            let mut pooled = Vec::with_capacity(shard.len());
            let mut targets = Vec::with_capacity(shard.len());
            for &i in shard {
                let view = clamp_view(departure_only_view(&train[i]), m.max_len());
                pooled.push(m.pool(g, &view, r));
                targets.push((train[i].travel_time_secs() - mean) / std);
            }
            let stacked = g.concat_rows(&pooled);
            let preds = fc.forward(g, stacked);
            let loss = g.mse_loss(preds, Array::from_vec(shard.len(), 1, targets));
            Some(ShardResult { loss, weight: shard.len() as f32, components: Vec::new() })
        },
        |_, _, _, _| {},
    );
    GenericEtaHead { fc, target_mean: mean, target_std: std }
}

/// Predict travel times in seconds.
pub fn predict_eta<E: BaselineEncoder>(
    enc: &E,
    head: &GenericEtaHead,
    trajectories: &[Trajectory],
) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(0);
    let mut out = Vec::with_capacity(trajectories.len());
    for chunk in trajectories.chunks(64) {
        let mut g = Graph::new(enc.store(), false);
        for t in chunk {
            let view = clamp_view(departure_only_view(t), enc.max_len());
            let p = enc.pool(&mut g, &view, &mut rng);
            let pred = head.fc.forward(&mut g, p);
            out.push(g.value(pred).item() * head.target_std + head.target_mean);
        }
    }
    out
}

/// Classification head over a baseline encoder.
pub struct GenericClassifierHead {
    fc: Linear,
    pub num_classes: usize,
}

/// Fine-tune any baseline for trajectory classification (Eq. 17 protocol).
pub fn fine_tune_classifier<E: BaselineEncoder>(
    enc: &mut E,
    train: &[Trajectory],
    labels: &[usize],
    num_classes: usize,
    cfg: &BaselineTrainConfig,
) -> GenericClassifierHead {
    assert_eq!(train.len(), labels.len());
    assert!(labels.iter().all(|&l| l < num_classes), "label out of range");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let dim = enc.dim();
    let fc = {
        let store = enc.store_mut();
        Linear::new(store, &mut rng, "cls_head", dim, num_classes, true)
    };
    fit(
        enc,
        train.len(),
        &cfg.fit_args(1),
        &mut rng,
        |m, g, shard, r| {
            let mut pooled = Vec::with_capacity(shard.len());
            let mut targets = Vec::with_capacity(shard.len());
            for &i in shard {
                let view = clamp_view(TrajView::identity(&train[i]), m.max_len());
                pooled.push(m.pool(g, &view, r));
                targets.push(labels[i] as u32);
            }
            let stacked = g.concat_rows(&pooled);
            let logits = fc.forward(g, stacked);
            let loss = g.cross_entropy_rows(logits, Arc::new(targets));
            Some(ShardResult { loss, weight: shard.len() as f32, components: Vec::new() })
        },
        |_, _, _, _| {},
    );
    GenericClassifierHead { fc, num_classes }
}

/// Predict class probabilities.
pub fn predict_classes<E: BaselineEncoder>(
    enc: &E,
    head: &GenericClassifierHead,
    trajectories: &[Trajectory],
) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(0);
    let mut out = Vec::with_capacity(trajectories.len());
    for chunk in trajectories.chunks(64) {
        let mut g = Graph::new(enc.store(), false);
        for t in chunk {
            let view = clamp_view(TrajView::identity(t), enc.max_len());
            let p = enc.pool(&mut g, &view, &mut rng);
            let logits = head.fc.forward(&mut g, p);
            let probs = g.softmax_rows(logits);
            out.push(g.value(probs).row(0).to_vec());
        }
    }
    out
}
