//! Example: cross-city transfer learning (§IV-E2 / Table III).
//!
//! Pre-trains START on a large source city, transfers the weights to a
//! *different* (heterogeneous) city with a small labelled set, and shows the
//! transferred model beating a from-scratch model there. Works because the
//! TPE-GAT parameters are independent of the number of roads — the paper's
//! key transferability argument.
//!
//! Run: `cargo run --release --example cross_city_transfer`

use start_core::{
    fine_tune_classifier, predict_classes, pretrain, PretrainConfig, StartConfig, StartModel,
    TrainConfig,
};
use start_eval::metrics::accuracy;
use start_nn::serialize::{load_params, save_params};
use start_roadnet::synth::{generate_city, CityConfig};
use start_traj::{PreprocessConfig, SimConfig, TrajDataset, Trajectory};

fn small_config() -> StartConfig {
    StartConfig::builder()
        .dim(32)
        .gat_heads(vec![2])
        .encoder_layers(2)
        .encoder_heads(2)
        .ffn_hidden(32)
        .build()
        .expect("example config is valid")
}

fn main() {
    // Source: a bigger city with plenty of unlabelled trajectories.
    println!("[1/4] source city + self-supervised pre-training...");
    let source_city =
        generate_city("Source", &CityConfig { width: 8, height: 8, ..CityConfig::tiny() });
    let source = TrajDataset::build(
        source_city,
        SimConfig { num_trajectories: 900, num_drivers: 16, ..Default::default() },
        &PreprocessConfig::default(),
    );
    let mut source_model =
        StartModel::new(small_config(), &source.city.net, Some(&source.transfer), None, 3);
    pretrain(
        &mut source_model,
        source.train(),
        &source.historical,
        &PretrainConfig {
            epochs: 3,
            batch_size: 12,
            max_steps_per_epoch: Some(30),
            ..Default::default()
        },
    );
    let blob = save_params(&source_model.store);
    println!("      checkpoint: {} bytes", blob.len());

    // Target: a different topology with little data.
    println!("[2/4] target city (heterogeneous road network, small dataset)...");
    let target_city = generate_city(
        "Target",
        &CityConfig {
            width: 6,
            height: 5,
            corner_cut: 3,
            removal_rate: 0.1,
            seed: 99,
            ..CityConfig::tiny()
        },
    );
    let target = TrajDataset::build(
        target_city,
        SimConfig { num_trajectories: 220, num_drivers: 8, seed: 5, ..Default::default() },
        &PreprocessConfig::default(),
    );
    println!(
        "      source {} segments vs target {} segments",
        source.num_segments(),
        target.num_segments()
    );

    let labels: Vec<usize> = target.train().iter().map(|t| t.occupied as usize).collect();
    let test: Vec<Trajectory> = target.test().to_vec();
    let test_labels: Vec<usize> = test.iter().map(|t| t.occupied as usize).collect();
    let ft = TrainConfig {
        epochs: 2,
        batch_size: 8,
        max_steps_per_epoch: Some(15),
        ..Default::default()
    };

    // (a) From scratch on the target.
    println!("[3/4] fine-tuning from scratch...");
    let mut scratch =
        StartModel::new(small_config(), &target.city.net, Some(&target.transfer), None, 11);
    let head = fine_tune_classifier(&mut scratch, target.train(), &labels, 2, &ft);
    let acc_scratch = accuracy(&test_labels, &predict_classes(&scratch, &head, &test));

    // (b) Transfer: same architecture on the target network, load every
    // shape-matching tensor from the source checkpoint.
    println!("[4/4] fine-tuning the transferred model...");
    let mut transferred =
        StartModel::new(small_config(), &target.city.net, Some(&target.transfer), None, 11);
    let loaded = load_params(&mut transferred.store, &blob).expect("valid checkpoint");
    println!(
        "      transferred {loaded}/{} tensors (road-count-dependent ones skipped)",
        transferred.store.len()
    );
    let head = fine_tune_classifier(&mut transferred, target.train(), &labels, 2, &ft);
    let acc_transfer = accuracy(&test_labels, &predict_classes(&transferred, &head, &test));

    println!("\naccuracy from scratch   : {acc_scratch:.3}");
    println!("accuracy with transfer  : {acc_transfer:.3}");
    println!("\nThe transferred encoder reuses weights learned in the source city even though the\ntarget road network has a different size and shape (TPE-GAT parameters are\nroad-count independent). At this demo budget the two accuracies are close; the\nTable III harness (`table3_transfer`) shows the transfer benefit at proper scale.");
}
