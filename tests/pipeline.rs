//! Cross-crate integration tests: the full START pipeline from synthetic
//! city to downstream metrics, exercising every crate together.
//!
//! The similarity/classification tests run at the same "quick" scale the
//! experiment harness uses (dim 48, 16x16 city) — smaller configurations
//! have too few distinct routes for ranking assertions to be meaningful.

use std::sync::Arc;

use start_bench::{bj_mini, ModelKind, Runner, Scale};
use start_core::{
    fine_tune_eta, predict_eta, pretrain, EncodeOptions, PretrainConfig, StartConfig, StartModel,
    TrainConfig,
};
use start_eval::metrics::{accuracy, hit_ratio, mean_rank, regression_report, truth_ranks};
use start_roadnet::synth::{generate_city, CityConfig};
use start_traj::{
    build_benchmark, DetourConfig, PreprocessConfig, SimConfig, TrajDataset, Trajectory,
};

/// A reduced quick scale so the integration suite stays fast.
fn test_scale() -> Scale {
    Scale { bj_trajectories: 1700, eval_subset: 150, num_queries: 30, ..Scale::quick() }
}

/// START's contrastive pre-training must keep the zero-shot representation
/// space well-conditioned for similarity search, while an MLM-only
/// Transformer collapses (the paper's anisotropy argument, Table II MR) —
/// and the detour ground truth must be findable.
#[test]
fn pretraining_improves_zero_shot_similarity_and_finds_detours() {
    let scale = test_scale();
    let ds = bj_mini(&scale);
    let nq = scale.num_queries;
    let bench = build_benchmark(&ds.city.net, ds.test(), nq, nq * 8, &DetourConfig::default());

    let rank_of = |runner: &Runner| {
        let q = runner.encode(&bench.queries);
        let db = runner.encode(&bench.database);
        truth_ranks(&q, &db, |i| bench.truth(i))
    };

    let mut start = Runner::build(&ModelKind::start(&scale), &ds, &scale, None);
    start.pretrain(&ds, &scale);
    let ranks = rank_of(&start);
    let mr_start = mean_rank(&ranks);

    let mut mlm = Runner::build(&ModelKind::Transformer, &ds, &scale, None);
    mlm.pretrain(&ds, &scale);
    let mr_mlm = mean_rank(&rank_of(&mlm));

    // Far better than random (expected MR for ~270 candidates is ~135)...
    assert!(mr_start < 60.0, "START MR {mr_start:.1} not far from random");
    assert!(hit_ratio(&ranks, 10) >= 0.45, "HR@10 too low: {}", hit_ratio(&ranks, 10));
    // ...and far better than the MLM-only Transformer baseline.
    assert!(
        mr_start < mr_mlm * 0.6,
        "START MR {mr_start:.1} should beat Transformer-MLM {mr_mlm:.1}"
    );
}

/// The fine-tuned classifier must beat majority-class accuracy on the
/// occupancy label.
#[test]
fn classifier_beats_majority_vote() {
    let scale = test_scale();
    let ds = bj_mini(&scale);
    let mut runner = Runner::build(&ModelKind::start(&scale), &ds, &scale, None);
    runner.pretrain(&ds, &scale);
    let labels: Vec<usize> = ds.train().iter().map(|t| t.occupied as usize).collect();
    let test: Vec<Trajectory> = ds.test().iter().take(scale.eval_subset).cloned().collect();
    let test_labels: Vec<usize> = test.iter().map(|t| t.occupied as usize).collect();
    let probs = runner.classify(ds.train(), &labels, 2, &test, &scale);
    let acc = accuracy(&test_labels, &probs);

    let pos = test_labels.iter().filter(|&&l| l == 1).count() as f32 / test_labels.len() as f32;
    let majority = pos.max(1.0 - pos);
    assert!(acc > majority - 0.02, "accuracy {acc:.3} should approach/beat majority {majority:.3}");
}

fn tiny_dataset(n: usize, seed: u64) -> TrajDataset {
    let city = generate_city("it", &CityConfig { width: 8, height: 8, ..CityConfig::tiny() });
    let sim = SimConfig { num_trajectories: n, num_drivers: 8, seed, ..Default::default() };
    TrajDataset::build(city, sim, &PreprocessConfig::default())
}

fn tiny_model(ds: &TrajDataset, seed: u64) -> StartModel {
    let cfg = StartConfig::builder()
        .dim(32)
        .gat_heads(vec![2])
        .encoder_layers(2)
        .encoder_heads(2)
        .ffn_hidden(32)
        .build()
        .expect("integration-test config is valid");
    StartModel::new(cfg, &ds.city.net, Some(&ds.transfer), None, seed)
}

/// Fine-tuned ETA must beat the constant mean-predictor baseline.
#[test]
fn eta_fine_tuning_beats_mean_predictor() {
    let ds = tiny_dataset(400, 3);
    let mut model = tiny_model(&ds, 4);
    pretrain(
        &mut model,
        ds.train(),
        &ds.historical,
        &PretrainConfig {
            epochs: 2,
            batch_size: 8,
            max_steps_per_epoch: Some(15),
            ..Default::default()
        },
    );
    let head = fine_tune_eta(
        &mut model,
        ds.train(),
        &TrainConfig {
            epochs: 3,
            batch_size: 8,
            max_steps_per_epoch: Some(25),
            ..Default::default()
        },
    );
    let test: Vec<Trajectory> = ds.test().to_vec();
    let truth: Vec<f32> = test.iter().map(Trajectory::travel_time_secs).collect();
    let preds = predict_eta(&model, &head, &test);
    let reg = regression_report(&truth, &preds);

    let mean = truth.iter().sum::<f32>() / truth.len() as f32;
    let mean_preds = vec![mean; truth.len()];
    let mean_reg = regression_report(&truth, &mean_preds);
    assert!(
        reg.mae < mean_reg.mae,
        "fine-tuned MAE {:.1}s should beat mean-predictor {:.1}s",
        reg.mae,
        mean_reg.mae
    );
}

/// Checkpointing round-trips through the weight codec: a restored model
/// produces bit-identical embeddings.
#[test]
fn checkpoint_roundtrip_preserves_embeddings() {
    let ds = tiny_dataset(200, 7);
    let mut model = tiny_model(&ds, 8);
    pretrain(
        &mut model,
        ds.train(),
        &ds.historical,
        &PretrainConfig {
            epochs: 1,
            batch_size: 8,
            max_steps_per_epoch: Some(5),
            ..Default::default()
        },
    );
    let blob = start_nn::serialize::save_params(&model.store);
    let opts = EncodeOptions::default();
    let before = model.encoder().encode(&ds.test()[..5], &opts).unwrap();

    let mut restored = tiny_model(&ds, 999); // different init seed
    let loaded = start_nn::serialize::load_params(&mut restored.store, &blob).unwrap();
    assert_eq!(loaded, restored.store.len(), "all tensors must match by name+shape");
    let after = restored.encoder().encode(&ds.test()[..5], &opts).unwrap();
    assert_eq!(before, after);
}

/// The online serving path produces the same bits as the offline encoder,
/// end to end across crates: dataset -> pre-train -> serve -> kNN.
#[test]
fn serving_matches_offline_encoding_end_to_end() {
    let ds = tiny_dataset(120, 11);
    let mut model = tiny_model(&ds, 12);
    pretrain(
        &mut model,
        ds.train(),
        &ds.historical,
        &PretrainConfig {
            epochs: 1,
            batch_size: 8,
            max_steps_per_epoch: Some(3),
            ..Default::default()
        },
    );
    let queries: Vec<Trajectory> = ds.test().iter().take(10).cloned().collect();
    let offline = model.encoder().encode(&queries, &EncodeOptions::default()).unwrap();

    let router = start_serve::Router::start(
        Arc::new(model),
        start_serve::RouterConfig::builder()
            .replicas(2)
            .serve(start_serve::ServeConfig::builder().workers(2).build().unwrap())
            .build()
            .unwrap(),
    );
    let served = router.encode(&queries).unwrap();
    for (s, o) in served.iter().zip(&offline) {
        let same = s.iter().zip(o).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "served embedding diverged from the offline encoder");
    }
    for (i, q) in queries.iter().enumerate() {
        router.index(i as u64, q).unwrap();
    }
    let hits = router.knn(&queries[2], 1).unwrap();
    assert_eq!(hits[0].id, 2, "self-query must be its own nearest neighbour");
    assert_eq!(hits[0].distance, 0.0);
    let stats = router.shutdown();
    assert!(stats.completed() >= 21, "10 encodes + 10 index + 1 knn");
}
