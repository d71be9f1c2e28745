//! Travel time estimation fine-tuning (§III-D1, Eq. 16).
//!
//! A single fully connected regression layer on the pooled representation,
//! trained with MSE. Per §IV-D2, the model sees only the *departure* time —
//! every road in the view is stamped with it, so no per-road timestamps can
//! leak the answer.

use start_nn::layers::Linear;
use start_nn::train::TrainConfig;
use start_nn::Array;
use start_traj::Trajectory;

use crate::downstream::{fit_head, predict_rows, TrajEncoder};
use crate::model::departure_only_view;

/// The regression head plus the target normalization constants.
pub struct EtaHead {
    fc: Linear,
    pub target_mean: f32,
    pub target_std: f32,
}

/// Fine-tune the model (and a fresh head) for travel time estimation.
pub fn fine_tune_eta<M: TrajEncoder + ?Sized>(
    model: &mut M,
    train: &[Trajectory],
    cfg: &TrainConfig,
) -> EtaHead {
    assert!(!train.is_empty(), "empty fine-tuning split");
    // Normalize targets for stable regression.
    let times: Vec<f32> = train.iter().map(Trajectory::travel_time_secs).collect();
    let mean = times.iter().sum::<f32>() / times.len() as f32;
    let var = times.iter().map(|t| (t - mean) * (t - mean)).sum::<f32>() / times.len() as f32;
    let std = var.sqrt().max(1.0);

    let head = ("eta_head", 1);
    let fc = fit_head(model, train, departure_only_view, head, cfg, |g, preds, shard| {
        let targets = shard.iter().map(|&i| (times[i] - mean) / std).collect();
        g.mse_loss(preds, Array::from_vec(shard.len(), 1, targets))
    });
    EtaHead { fc, target_mean: mean, target_std: std }
}

/// Predict travel times in seconds (inference path, no gradients).
pub fn predict_eta<M: TrajEncoder + ?Sized>(
    model: &M,
    head: &EtaHead,
    trajectories: &[Trajectory],
) -> Vec<f32> {
    predict_rows(model, &head.fc, trajectories, departure_only_view, false)
        .iter()
        .map(|z| z[0] * head.target_std + head.target_mean)
        .collect()
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
    fn fine_tuning_beats_predicting_the_mean_is_not_required_but_loss_drops() {
        let city = generate_city("t", &CityConfig::tiny());
        let sim = Simulator::new(
            &city.net,
            SimConfig { num_trajectories: 80, num_drivers: 4, ..Default::default() },
        );
        let data = sim.generate();
        let tm = TransferMatrix::from_sequences(
            city.net.num_segments(),
            data.iter().map(|t| t.roads.as_slice()),
        );
        let mut model = StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 13);
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 8,
            lr: 1e-3,
            max_steps_per_epoch: Some(5),
            ..Default::default()
        };
        let head = fine_tune_eta(&mut model, &data[..64], &cfg);
        let preds = predict_eta(&model, &head, &data[64..72]);
        assert_eq!(preds.len(), 8);
        assert!(preds.iter().all(|p| p.is_finite()));
        // Predictions should be in a plausible range around the target scale.
        let mean_t = head.target_mean;
        assert!(preds.iter().all(|p| (p - mean_t).abs() < 6.0 * head.target_std));
    }
}
