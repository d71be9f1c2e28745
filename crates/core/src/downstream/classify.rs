//! Trajectory classification fine-tuning (§III-D2, Eq. 17).
//!
//! A fully connected layer with softmax on the pooled representation,
//! trained with cross-entropy. Labels are task-specific: occupied/vacant on
//! BJ-mini (binary), driver id on Porto-mini (multi-class), transport mode
//! on Geolife-mini (Table III).

use start_sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use start_nn::layers::Linear;
use start_nn::train::{fit, ShardResult};
use start_traj::{TrajView, Trajectory};

use crate::downstream::FineTuneConfig;
use crate::model::{clamp_view, StartModel};

/// The classification head.
pub struct ClassifierHead {
    fc: Linear,
    pub num_classes: usize,
}

/// Fine-tune the model plus a fresh classifier head.
///
/// `labels[i]` is the class of `train[i]` and must be `< num_classes`.
pub fn fine_tune_classifier(
    model: &mut StartModel,
    train: &[Trajectory],
    labels: &[usize],
    num_classes: usize,
    cfg: &FineTuneConfig,
) -> ClassifierHead {
    assert_eq!(train.len(), labels.len(), "one label per trajectory");
    assert!(num_classes >= 2, "need at least two classes");
    assert!(labels.iter().all(|&l| l < num_classes), "label out of range");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let dim = model.cfg.dim;
    let fc = Linear::new(&mut model.store, &mut rng, "cls_head", dim, num_classes, true);

    fit(
        model,
        train.len(),
        &cfg.fit_args(fc.weight_id()),
        &mut rng,
        |m, g, shard, r| {
            let road_reprs = m.road_reprs(g);
            let mut pooled = Vec::with_capacity(shard.len());
            let mut targets = Vec::with_capacity(shard.len());
            for &i in shard {
                let view = clamp_view(TrajView::identity(&train[i]), m.cfg.max_len);
                let enc = m.encode_view(g, &view, road_reprs, r);
                pooled.push(enc.pooled);
                targets.push(labels[i] as u32);
            }
            let stacked = g.concat_rows(&pooled);
            let logits = fc.forward(g, stacked);
            let loss = g.cross_entropy_rows(logits, Arc::new(targets));
            Some(ShardResult { loss, weight: shard.len() as f32, components: Vec::new() })
        },
        |_, _, _, _| {},
    );
    ClassifierHead { fc, num_classes }
}

/// Predict class probabilities (softmax rows) for a batch.
pub fn predict_classes(
    model: &StartModel,
    head: &ClassifierHead,
    trajectories: &[Trajectory],
) -> Vec<Vec<f32>> {
    let views: Vec<_> = trajectories.iter().map(TrajView::identity).collect();
    let embs = model
        .encoder()
        .encode_views(&views, &crate::encoder::EncodeOptions::default())
        .unwrap_or_else(|e| panic!("predict_classes: {e}"));
    let w = model.store.get(head.fc.weight_id());
    let b = model.store.lookup("cls_head.b").map(|id| model.store.get(id).clone());
    embs.iter()
        .map(|e| {
            let mut logits: Vec<f32> = (0..head.num_classes)
                .map(|c| {
                    let col: f32 = e.iter().enumerate().map(|(r, x)| x * w.get(r, c)).sum();
                    col + b.as_ref().map_or(0.0, |bv| bv.get(0, c))
                })
                .collect();
            // Softmax.
            let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for l in &mut logits {
                *l = (*l - max).exp();
                sum += *l;
            }
            for l in &mut logits {
                *l /= sum;
            }
            logits
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StartConfig;
    use start_roadnet::synth::{generate_city, CityConfig};
    use start_roadnet::TransferMatrix;
    use start_traj::{SimConfig, Simulator};

    #[test]
    fn classifier_trains_and_outputs_distributions() {
        let city = generate_city("t", &CityConfig::tiny());
        let sim = Simulator::new(
            &city.net,
            SimConfig { num_trajectories: 60, num_drivers: 4, ..Default::default() },
        );
        let data = sim.generate();
        let tm = TransferMatrix::from_sequences(
            city.net.num_segments(),
            data.iter().map(|t| t.roads.as_slice()),
        );
        let mut model = StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 19);
        let labels: Vec<usize> = data.iter().map(|t| t.occupied as usize).collect();
        let cfg = FineTuneConfig {
            epochs: 2,
            batch_size: 8,
            lr: 1e-3,
            max_steps_per_epoch: Some(4),
            ..Default::default()
        };
        let head = fine_tune_classifier(&mut model, &data[..48], &labels[..48], 2, &cfg);
        let probs = predict_classes(&model, &head, &data[48..]);
        for p in &probs {
            assert_eq!(p.len(), 2);
            let s: f32 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "probabilities must sum to 1, got {s}");
            assert!(p.iter().all(|v| *v >= 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn out_of_range_labels_rejected() {
        let city = generate_city("t", &CityConfig::tiny());
        let sim = Simulator::new(
            &city.net,
            SimConfig { num_trajectories: 10, num_drivers: 2, ..Default::default() },
        );
        let data = sim.generate();
        let mut model = StartModel::new(StartConfig::test_scale(), &city.net, None, None, 19);
        let labels = vec![5usize; data.len()];
        fine_tune_classifier(&mut model, &data, &labels, 2, &FineTuneConfig::default());
    }
}
