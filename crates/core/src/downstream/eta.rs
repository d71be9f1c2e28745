//! Travel time estimation fine-tuning (§III-D1, Eq. 16).
//!
//! A single fully connected regression layer on the pooled representation,
//! trained with MSE. Per §IV-D2, the model sees only the *departure* time —
//! every road in the view is stamped with it, so no per-road timestamps can
//! leak the answer.

use rand::rngs::StdRng;
use rand::SeedableRng;

use start_nn::layers::Linear;
use start_nn::train::{fit, ShardResult};
use start_nn::Array;
use start_traj::Trajectory;

use crate::downstream::FineTuneConfig;
use crate::model::{clamp_view, StartModel};

/// The regression head plus the target normalization constants.
pub struct EtaHead {
    fc: Linear,
    pub target_mean: f32,
    pub target_std: f32,
}

/// Fine-tune the model (and a fresh head) for travel time estimation.
pub fn fine_tune_eta(
    model: &mut StartModel,
    train: &[Trajectory],
    cfg: &FineTuneConfig,
) -> EtaHead {
    assert!(!train.is_empty(), "empty fine-tuning split");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let dim = model.cfg.dim;
    let fc = Linear::new(&mut model.store, &mut rng, "eta_head", dim, 1, true);

    // Normalize targets for stable regression.
    let times: Vec<f32> = train.iter().map(Trajectory::travel_time_secs).collect();
    let mean = times.iter().sum::<f32>() / times.len() as f32;
    let var = times.iter().map(|t| (t - mean) * (t - mean)).sum::<f32>() / times.len() as f32;
    let std = var.sqrt().max(1.0);

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
                let view = clamp_view(StartModel::departure_only_view(&train[i]), m.cfg.max_len);
                let enc = m.encode_view(g, &view, road_reprs, r);
                pooled.push(enc.pooled);
                targets.push((train[i].travel_time_secs() - mean) / std);
            }
            let stacked = g.concat_rows(&pooled);
            let preds = fc.forward(g, stacked);
            let loss = g.mse_loss(preds, Array::from_vec(shard.len(), 1, targets));
            Some(ShardResult { loss, weight: shard.len() as f32, components: Vec::new() })
        },
        |_, _, _, _| {},
    );
    EtaHead { fc, target_mean: mean, target_std: std }
}

/// Predict travel times in seconds (inference path, no gradients).
pub fn predict_eta(model: &StartModel, head: &EtaHead, trajectories: &[Trajectory]) -> Vec<f32> {
    let views: Vec<_> = trajectories.iter().map(StartModel::departure_only_view).collect();
    let embs = model
        .encoder()
        .encode_views(&views, &crate::encoder::EncodeOptions::default())
        .unwrap_or_else(|e| panic!("predict_eta: {e}"));
    let w = model.store.get(head.fc.weight_id());
    let b = model.store.lookup("eta_head.b").map(|id| model.store.get(id).item()).unwrap_or(0.0);
    embs.iter()
        .map(|e| {
            let z: f32 = e.iter().zip(w.data()).map(|(x, wi)| x * wi).sum::<f32>() + b;
            z * head.target_std + head.target_mean
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
        let cfg = FineTuneConfig {
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

    #[test]
    fn frozen_encoder_only_updates_the_head() {
        let city = generate_city("t", &CityConfig::tiny());
        let sim = Simulator::new(
            &city.net,
            SimConfig { num_trajectories: 40, num_drivers: 4, ..Default::default() },
        );
        let data = sim.generate();
        let mut model = StartModel::new(StartConfig::test_scale(), &city.net, None, None, 13);
        let before = model
            .store
            .lookup("enc.layer0.attn.wq.w")
            .map(|id| model.store.get(id).clone())
            .unwrap();
        let cfg = FineTuneConfig {
            epochs: 1,
            batch_size: 8,
            max_steps_per_epoch: Some(2),
            freeze_encoder: true,
            ..Default::default()
        };
        let _ = fine_tune_eta(&mut model, &data, &cfg);
        let after = model
            .store
            .lookup("enc.layer0.attn.wq.w")
            .map(|id| model.store.get(id).clone())
            .unwrap();
        assert_eq!(before, after, "encoder weights moved despite freeze");
    }
}
