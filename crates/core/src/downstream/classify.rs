//! Trajectory classification fine-tuning (§III-D2, Eq. 17).
//!
//! A fully connected layer with softmax on the pooled representation,
//! trained with cross-entropy. Labels are task-specific: occupied/vacant on
//! BJ-mini (binary), driver id on Porto-mini (multi-class), transport mode
//! on Geolife-mini (Table III).

use start_sync::Arc;

use start_nn::layers::Linear;
use start_nn::train::TrainConfig;
use start_traj::{TrajView, Trajectory};

use crate::downstream::{fit_head, predict_rows, TrajEncoder};

/// The classification head.
pub struct ClassifierHead {
    fc: Linear,
    pub num_classes: usize,
}

/// Fine-tune the model plus a fresh classifier head.
///
/// `labels[i]` is the class of `train[i]` and must be `< num_classes`.
pub fn fine_tune_classifier<M: TrajEncoder + ?Sized>(
    model: &mut M,
    train: &[Trajectory],
    labels: &[usize],
    num_classes: usize,
    cfg: &TrainConfig,
) -> ClassifierHead {
    assert_eq!(train.len(), labels.len(), "one label per trajectory");
    assert!(num_classes >= 2, "need at least two classes");
    assert!(labels.iter().all(|&l| l < num_classes), "label out of range");
    let head = ("cls_head", num_classes);
    let fc = fit_head(model, train, TrajView::identity, head, cfg, |g, logits, shard| {
        let targets = shard.iter().map(|&i| labels[i] as u32).collect();
        g.cross_entropy_rows(logits, Arc::new(targets))
    });
    ClassifierHead { fc, num_classes }
}

/// Predict class probabilities (softmax rows) for a batch.
pub fn predict_classes<M: TrajEncoder + ?Sized>(
    model: &M,
    head: &ClassifierHead,
    trajectories: &[Trajectory],
) -> Vec<Vec<f32>> {
    predict_rows(model, &head.fc, trajectories, TrajView::identity, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StartConfig;
    use crate::model::StartModel;
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
        let cfg = TrainConfig {
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
        fine_tune_classifier(&mut model, &data, &labels, 2, &TrainConfig::default());
    }
}
