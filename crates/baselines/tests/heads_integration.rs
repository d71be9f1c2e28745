//! Integration tests for the task heads of `start_core::downstream` over
//! START and the baselines: the one fine-tuning protocol Table II applies
//! to every model.

use std::panic::{catch_unwind, AssertUnwindSafe};

use start_baselines::{GruSeq2Seq, Pim, Seq2SeqKind, TfKind, TransformerBaseline};
use start_core::{
    fine_tune_classifier, fine_tune_eta, predict_classes, predict_eta, StartConfig, StartModel,
    TrainConfig, TrajEncoder,
};
use start_nn::Trainable;
use start_roadnet::synth::{generate_city, CityConfig};
use start_roadnet::{node2vec, Node2VecConfig, TransferMatrix};
use start_traj::{SimConfig, Simulator, Trajectory};

const DIM: usize = 24;

fn data() -> (start_roadnet::City, Vec<Trajectory>) {
    let city = generate_city("t", &CityConfig::tiny());
    let sim = Simulator::new(
        &city.net,
        SimConfig { num_trajectories: 80, num_drivers: 6, ..Default::default() },
    );
    let d = sim.generate();
    (city, d)
}

fn cfg(epochs: usize, max_steps: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 8,
        lr: 1e-3,
        max_steps_per_epoch: Some(max_steps),
        seed: 77,
        ..Default::default()
    }
}

fn start_model(city: &start_roadnet::City, d: &[Trajectory]) -> StartModel {
    let tm = TransferMatrix::from_sequences(
        city.net.num_segments(),
        d.iter().map(|t| t.roads.as_slice()),
    );
    StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 13)
}

/// Fine-tune an ETA head, then a classifier, on the first 64 trajectories
/// and predict the other 16 — the same functions for every model.
fn check_heads(model: &mut impl TrajEncoder, d: &[Trajectory]) {
    let name = model.name();
    let (train, test) = d.split_at(64);
    let cfg = cfg(2, 5);

    let head = fine_tune_eta(model, train, &cfg);
    let preds = predict_eta(model, &head, test);
    assert_eq!(preds.len(), test.len(), "{name}");
    assert!(preds.iter().all(|p| p.is_finite()), "{name}: {preds:?}");
    // Normalization constants reflect the training targets.
    assert!(head.target_std > 0.0, "{name}");
    let mean = train.iter().map(Trajectory::travel_time_secs).sum::<f32>() / train.len() as f32;
    assert!((head.target_mean - mean).abs() < 1.0, "{name}");

    let labels: Vec<usize> = train.iter().map(|t| t.occupied as usize).collect();
    let head = fine_tune_classifier(model, train, &labels, 2, &cfg);
    let probs = predict_classes(model, &head, test);
    assert_eq!(probs.len(), test.len(), "{name}");
    for p in &probs {
        assert_eq!(p.len(), 2, "{name}");
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4, "{name}: {p:?}");
        assert!(p.iter().all(|v| *v >= 0.0), "{name}: {p:?}");
    }
}

#[test]
fn heads_train_on_start() {
    let (city, d) = data();
    check_heads(&mut start_model(&city, &d), &d);
}

#[test]
fn heads_train_on_gru_baseline() {
    let (city, d) = data();
    check_heads(&mut GruSeq2Seq::new(Seq2SeqKind::Trembr, city.net.num_segments(), DIM, 64, 1), &d);
}

#[test]
fn heads_train_on_transformer_baseline() {
    let (city, d) = data();
    let n = city.net.num_segments();
    check_heads(&mut TransformerBaseline::new(TfKind::Bert, n, DIM, 1, 2, 64, None, 2), &d);
}

#[test]
fn heads_train_on_pim() {
    let (city, d) = data();
    let n2v = node2vec(
        &city.net,
        &Node2VecConfig { dim: DIM, epochs: 1, walks_per_node: 2, ..Default::default() },
    );
    check_heads(&mut Pim::new(city.net.num_segments(), DIM, 64, n2v.data(), 5), &d);
}

#[test]
fn head_training_changes_encoder_weights() {
    // Full fine-tuning must reach back into the encoder, not just the head.
    let (city, d) = data();
    let mut model = GruSeq2Seq::new(Seq2SeqKind::Traj2Vec, city.net.num_segments(), 16, 64, 3);
    let before = model.store().lookup("enc.wz.w").map(|id| model.store().get(id).clone()).unwrap();
    let _ = fine_tune_eta(&mut model, &d, &cfg(1, 3));
    let after = model.store().lookup("enc.wz.w").map(|id| model.store().get(id).clone()).unwrap();
    assert_ne!(before, after, "encoder must move under full fine-tuning");
}

#[test]
fn invalid_classifier_arguments_are_rejected_for_start_and_baselines() {
    let (city, d) = data();
    let d = &d[..10];
    let mut start = start_model(&city, d);
    let mut gru = GruSeq2Seq::new(Seq2SeqKind::Trembr, city.net.num_segments(), 16, 64, 1);
    let models: [&mut dyn TrajEncoder; 2] = [&mut start, &mut gru];
    for model in models {
        for (labels, classes, expected) in [
            (vec![5usize; d.len()], 2, "label out of range"),
            (vec![0usize; d.len()], 1, "need at least two classes"),
            (vec![0usize; d.len() - 1], 2, "one label per trajectory"),
        ] {
            let name = model.name();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                fine_tune_classifier(&mut *model, d, &labels, classes, &cfg(1, 1));
            }));
            let payload = outcome.expect_err(expected);
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(msg.contains(expected), "{name}: {msg}");
        }
    }
}
