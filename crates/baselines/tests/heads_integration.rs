//! Integration tests for the generic fine-tuning heads over baseline
//! encoders — the protocol Table II applies to all eight baselines.

use start_baselines::{
    fine_tune_classifier, fine_tune_eta, predict_classes, predict_eta, BaselineTrainConfig,
    GruSeq2Seq, Seq2SeqKind, TfKind, TransformerBaseline,
};
use start_nn::Trainable;
use start_roadnet::synth::{generate_city, CityConfig};
use start_traj::{SimConfig, Simulator, Trajectory};

fn data() -> (start_roadnet::City, Vec<Trajectory>) {
    let city = generate_city("t", &CityConfig::tiny());
    let sim = Simulator::new(
        &city.net,
        SimConfig { num_trajectories: 80, num_drivers: 6, ..Default::default() },
    );
    let d = sim.generate();
    (city, d)
}

#[test]
fn eta_head_trains_on_gru_baseline() {
    let (city, d) = data();
    let mut model = GruSeq2Seq::new(Seq2SeqKind::Trembr, city.net.num_segments(), 24, 64, 1);
    let cfg = BaselineTrainConfig {
        epochs: 2,
        batch_size: 8,
        lr: 1e-3,
        max_steps_per_epoch: Some(5),
        ..Default::default()
    };
    let head = fine_tune_eta(&mut model, &d[..64], &cfg);
    let preds = predict_eta(&model, &head, &d[64..]);
    assert_eq!(preds.len(), 16);
    assert!(preds.iter().all(|p| p.is_finite()));
    // Normalization constants reflect the training targets.
    assert!(head.target_std > 0.0);
    let mean: f32 = d[..64].iter().map(Trajectory::travel_time_secs).sum::<f32>() / 64.0;
    assert!((head.target_mean - mean).abs() < 1.0);
}

#[test]
fn classifier_head_trains_on_transformer_baseline() {
    let (city, d) = data();
    let mut model = TransformerBaseline::new(
        TfKind::TransformerMlm,
        city.net.num_segments(),
        24,
        1,
        2,
        64,
        None,
        2,
    );
    let labels: Vec<usize> = d.iter().map(|t| t.occupied as usize).collect();
    let cfg = BaselineTrainConfig {
        epochs: 2,
        batch_size: 8,
        lr: 1e-3,
        max_steps_per_epoch: Some(5),
        ..Default::default()
    };
    let head = fine_tune_classifier(&mut model, &d[..64], &labels[..64], 2, &cfg);
    let probs = predict_classes(&model, &head, &d[64..]);
    for p in &probs {
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }
}

#[test]
fn head_training_changes_encoder_weights() {
    // Full fine-tuning must reach back into the encoder, not just the head.
    let (city, d) = data();
    let mut model = GruSeq2Seq::new(Seq2SeqKind::Traj2Vec, city.net.num_segments(), 16, 64, 3);
    let before = model.store().lookup("enc.wz.w").map(|id| model.store().get(id).clone()).unwrap();
    let cfg = BaselineTrainConfig {
        epochs: 1,
        batch_size: 8,
        lr: 1e-3,
        max_steps_per_epoch: Some(3),
        ..Default::default()
    };
    let _ = fine_tune_eta(&mut model, &d, &cfg);
    let after = model.store().lookup("enc.wz.w").map(|id| model.store().get(id).clone()).unwrap();
    assert_ne!(before, after, "encoder must move under full fine-tuning");
}
