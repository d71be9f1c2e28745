//! Quickstart: build a synthetic city, simulate trajectories, pre-train
//! START self-supervised, and use the representations for three downstream
//! tasks — the paper's Figure 2 pipeline end to end in one file — then
//! stand the trained model up behind the online embedding service.
//!
//! Run: `cargo run --release --example quickstart`

use std::sync::Arc;

use start_bench::{f3, Table};
use start_core::{
    fine_tune_eta, predict_eta, pretrain, EncodeOptions, PretrainConfig, StartConfig, StartModel,
    TrainConfig,
};
use start_eval::metrics::{hit_ratio, mean_rank, regression_report, truth_ranks};
use start_roadnet::synth::{generate_city, CityConfig};
use start_serve::{Router, RouterConfig};
use start_traj::{
    build_benchmark, DetourConfig, PreprocessConfig, SimConfig, TrajDataset, Trajectory,
};

fn main() {
    // 1. A synthetic city and a congestion-aware taxi fleet (the substitute
    //    for the paper's proprietary BJ dataset — see DESIGN.md §1).
    println!("[1/6] generating city + trajectories...");
    let city = generate_city("Quickstart-City", &CityConfig::tiny());
    let sim = SimConfig { num_trajectories: 600, num_drivers: 12, ..Default::default() };
    let ds = TrajDataset::build(city, sim, &PreprocessConfig::default());
    println!("      {}", ds.table1_row());

    // 2. The START model: TPE-GAT over the road network + TAT-Enc. Configs
    //    are built through the validating builder — a typo in a dimension
    //    or head count is a `ConfigError` here, not a panic mid-training.
    println!("[2/6] building START...");
    let cfg = StartConfig::builder()
        .dim(32)
        .gat_heads(vec![2])
        .encoder_layers(2)
        .encoder_heads(2)
        .ffn_hidden(32)
        .build()
        .expect("quickstart config is valid");
    let mut model = StartModel::new(cfg, &ds.city.net, Some(&ds.transfer), None, 42);

    // 3. Self-supervised pre-training: span-masked recovery + contrastive.
    println!("[3/6] pre-training (span-mask + NT-Xent)...");
    let report = pretrain(
        &mut model,
        ds.train(),
        &ds.historical,
        &PretrainConfig {
            epochs: 2,
            batch_size: 8,
            max_steps_per_epoch: Some(10),
            ..Default::default()
        },
    );
    println!("      loss per epoch: {:?}", report.epoch_losses);

    // 4. Zero-shot similarity search on the detour benchmark, through the
    //    unified encoder facade (one entry point for every batch encode).
    println!("[4/6] zero-shot similarity search...");
    let bench = build_benchmark(&ds.city.net, ds.test(), 20, 100, &DetourConfig::default());
    let opts = EncodeOptions::default();
    let q = model.encoder().encode(&bench.queries, &opts).expect("encode queries");
    let db = model.encoder().encode(&bench.database, &opts).expect("encode database");
    let ranks = truth_ranks(&q, &db, |i| bench.truth(i));
    println!(
        "      MR {:.2}  HR@1 {:.2}  HR@5 {:.2}",
        mean_rank(&ranks),
        hit_ratio(&ranks, 1),
        hit_ratio(&ranks, 5)
    );

    // 5. Fine-tune for travel time estimation.
    println!("[5/6] fine-tuning for travel time estimation...");
    let head = fine_tune_eta(
        &mut model,
        ds.train(),
        &TrainConfig {
            epochs: 2,
            batch_size: 8,
            max_steps_per_epoch: Some(12),
            ..Default::default()
        },
    );
    let test: Vec<Trajectory> = ds.test().iter().take(100).cloned().collect();
    let truth: Vec<f32> = test.iter().map(Trajectory::travel_time_secs).collect();
    let preds = predict_eta(&model, &head, &test);
    let reg = regression_report(&truth, &preds);

    let mut t = Table::new("quickstart results (ETA)", &["MAE (s)", "MAPE (%)", "RMSE (s)"]);
    t.row(vec![f3(reg.mae), f3(reg.mape), f3(reg.rmse)]);
    t.print();

    // 6. Serve the trained model behind the sharded router: two replicas
    //    partitioned by trajectory fingerprint, each with micro-batched
    //    workers, a version-pinned embedding cache, and an online kNN
    //    endpoint over indexed trajectories. (`Router::publish` hot-swaps
    //    checkpoints into all replicas without dropping a reply.)
    println!("[6/6] serving embeddings online...");
    let router_cfg =
        RouterConfig::builder().replicas(2).build().expect("quickstart router config is valid");
    let router = Router::start(Arc::new(model), router_cfg);
    for (i, t) in ds.test().iter().take(50).enumerate() {
        router.index(i as u64, t).expect("index trajectory");
    }
    let neighbors = router.knn(&ds.test()[0], 3).expect("knn query");
    println!("      3-NN of test[0]: {neighbors:?}");
    let stats = router.shutdown();
    println!(
        "      served {} requests across {} replicas (cache hit rate {:.2})",
        stats.completed(),
        stats.replicas.len(),
        stats.cache_hit_rate()
    );
    println!("Done. See crates/bench/src/bin/ for the full per-table/per-figure harness.");
}
