//! Reproducibility contract of the data-parallel training engine:
//! `workers = 1` is bit-for-bit the legacy sequential loop, more workers
//! compute the same mean gradient up to summation order, and every
//! configuration is bitwise deterministic run to run. The `fit` driver is
//! bit-for-bit the hand-written epoch loop it replaced.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use start_nn::graph::{Graph, NodeId};
use start_nn::layers::Linear;
use start_nn::params::{GradStore, ParamStore};
use start_nn::train::{fit, BatchTrainer, ShardResult, TrainConfig, Trainable, Warmup};
use start_nn::{AdamW, AdamWConfig, Array, WarmupCosine};

const DIM: usize = 4;

fn toy_model(seed: u64) -> (ParamStore, Linear) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let fc = Linear::new(&mut store, &mut rng, "fc", DIM, 1, true);
    (store, fc)
}

fn input_row(i: usize) -> Array {
    Array::from_fn(1, DIM, |_, c| ((i * DIM + c) as f32 * 0.37).sin())
}

fn target(i: usize) -> f32 {
    (i as f32 * 0.11).cos()
}

/// Per-example mean MSE over the shard through a shared linear layer.
fn shard_mse(fc: &Linear, g: &mut Graph, shard: &[usize]) -> ShardResult {
    let rows: Vec<NodeId> = shard.iter().map(|&i| g.input(input_row(i))).collect();
    let x = g.concat_rows(&rows);
    let preds = fc.forward(g, x);
    let targets = Array::from_vec(shard.len(), 1, shard.iter().map(|&i| target(i)).collect());
    let loss = g.mse_loss(preds, targets);
    ShardResult { loss, weight: shard.len() as f32, components: Vec::new() }
}

fn grads_of(store: &ParamStore, grads: &GradStore) -> Vec<Vec<f32>> {
    store.ids().map(|id| grads.get(id).map(|a| a.data().to_vec()).unwrap_or_default()).collect()
}

#[test]
fn workers_1_is_bitwise_the_sequential_loop() {
    let batch: Vec<usize> = (0..12).collect();

    // Hand-rolled legacy loop: one graph over the whole batch.
    let (store, fc) = toy_model(7);
    let mut g = Graph::new(&store, true);
    let res = shard_mse(&fc, &mut g, &batch);
    let mut ref_grads = GradStore::new(&store);
    g.backward(res.loss, &mut ref_grads);
    let ref_loss = g.value(res.loss).item();

    // Engine with one worker on an identically initialized model.
    let (store2, fc2) = toy_model(7);
    let mut trainer = BatchTrainer::exact(1, 123);
    let mut rng = StdRng::seed_from_u64(0);
    let mut grads = GradStore::new(&store2);
    let shard_loss =
        |g: &mut Graph, shard: &[usize], _r: &mut StdRng| Some(shard_mse(&fc2, g, shard));
    let stats = trainer
        .step(&store2, &mut grads, 0, &batch, 1, &mut rng, &shard_loss)
        .expect("step must execute");

    assert_eq!(stats.loss.to_bits(), ref_loss.to_bits(), "loss must match bitwise");
    assert_eq!(stats.shards, 1);
    assert_eq!(grads_of(&store2, &grads), grads_of(&store, &ref_grads));
}

#[test]
fn workers_4_matches_workers_1_within_tolerance() {
    let batch: Vec<usize> = (0..13).collect();

    let run = |workers: usize| {
        let (store, fc) = toy_model(7);
        let mut trainer = BatchTrainer::exact(workers, 123);
        let mut rng = StdRng::seed_from_u64(0);
        let mut grads = GradStore::new(&store);
        let shard_loss =
            |g: &mut Graph, shard: &[usize], _r: &mut StdRng| Some(shard_mse(&fc, g, shard));
        let stats = trainer
            .step(&store, &mut grads, 0, &batch, 1, &mut rng, &shard_loss)
            .expect("step must execute");
        (stats, grads_of(&store, &grads))
    };

    let (seq_stats, seq_grads) = run(1);
    let (par_stats, par_grads) = run(4);
    assert_eq!(par_stats.shards, 4);
    assert_eq!(par_stats.weight, batch.len() as f32);
    assert!(
        (par_stats.loss - seq_stats.loss).abs() <= 1e-5 * seq_stats.loss.abs().max(1.0),
        "losses diverged: {} vs {}",
        seq_stats.loss,
        par_stats.loss
    );
    for (a, b) in seq_grads.iter().flatten().zip(par_grads.iter().flatten()) {
        assert!((a - b).abs() <= 1e-4 * a.abs().max(1.0), "gradient diverged: {a} vs {b}");
    }
}

#[test]
fn same_seed_parallel_runs_are_bitwise_identical() {
    let batch: Vec<usize> = (0..12).collect();

    // The closure draws from the worker RNG (dropout), so this checks that
    // the derived per-worker streams, not thread timing, drive the result.
    let run = || {
        let (store, fc) = toy_model(3);
        let mut trainer = BatchTrainer::exact(3, 77);
        let mut rng = StdRng::seed_from_u64(5);
        let mut grads = GradStore::new(&store);
        let shard_loss = |g: &mut Graph, shard: &[usize], r: &mut StdRng| {
            let rows: Vec<NodeId> = shard.iter().map(|&i| g.input(input_row(i))).collect();
            let x = g.concat_rows(&rows);
            let x = g.dropout(x, 0.5, r);
            let preds = fc.forward(g, x);
            let targets =
                Array::from_vec(shard.len(), 1, shard.iter().map(|&i| target(i)).collect());
            let loss = g.mse_loss(preds, targets);
            Some(ShardResult { loss, weight: shard.len() as f32, components: Vec::new() })
        };
        let stats = trainer
            .step(&store, &mut grads, 1, &batch, 1, &mut rng, &shard_loss)
            .expect("step must execute");
        (stats.loss.to_bits(), grads_of(&store, &grads))
    };

    let (loss_a, grads_a) = run();
    let (loss_b, grads_b) = run();
    assert_eq!(loss_a, loss_b);
    let bits = |g: &[Vec<f32>]| -> Vec<Vec<u32>> {
        g.iter().map(|v| v.iter().map(|x| x.to_bits()).collect()).collect()
    };
    assert_eq!(bits(&grads_a), bits(&grads_b));
}

/// Regression: a panic inside one shard's loss closure must propagate out
/// of `step` as a panic with the original payload — never a hang on the
/// scoped join, never a silent partial merge. (The panic crosses two joins:
/// the worker handle and the crossbeam scope itself.)
#[test]
fn worker_panic_propagates_out_of_step_with_its_payload() {
    let batch: Vec<usize> = (0..12).collect();
    let (store, fc) = toy_model(7);
    let mut trainer = BatchTrainer::exact(3, 123);
    let mut rng = StdRng::seed_from_u64(0);
    let mut grads = GradStore::new(&store);
    let shard_loss = |g: &mut Graph, shard: &[usize], _r: &mut StdRng| {
        if shard.contains(&0) {
            panic!("seeded shard failure");
        }
        Some(shard_mse(&fc, g, shard))
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        trainer.step(&store, &mut grads, 0, &batch, 1, &mut rng, &shard_loss)
    }));
    let payload = match outcome {
        Err(p) => p,
        Ok(_) => panic!("step should have propagated the worker panic"),
    };
    assert_eq!(payload.downcast_ref::<&str>().copied(), Some("seeded shard failure"));
}

/// The toy linear model as a [`Trainable`] for the `fit` tests.
struct Toy {
    store: ParamStore,
    fc: Linear,
}

impl Trainable for Toy {
    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
}

fn toy(seed: u64) -> Toy {
    let (store, fc) = toy_model(seed);
    Toy { store, fc }
}

fn train_cfg(batch_size: usize) -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size,
        lr: 0.05,
        max_steps_per_epoch: Some(4),
        grad_clip: 1.0,
        seed: 9,
        workers: 1,
    }
}

/// The loss every `fit` test trains: shard MSE, except that a batch holding
/// item 5 yields no loss (so the engine skips it without an optimizer step).
fn toy_loss(fc: &Linear, g: &mut Graph, shard: &[usize]) -> Option<ShardResult> {
    (!shard.contains(&5)).then(|| shard_mse(fc, g, shard))
}

/// The epoch loop each model hand-copied before `fit`: shuffle, capped
/// chunks, skip short batches, one graph per batch, clip, AdamW under
/// warm-up + cosine, mean loss over the executed batches.
fn hand_rolled_loop(toy: &mut Toy, n: usize, a: &TrainConfig, min_per_shard: usize) -> Vec<f32> {
    let bs = a.batch_size;
    let mut rng = StdRng::seed_from_u64(a.seed);
    let full = n / bs;
    let steps = a.max_steps_per_epoch.map_or(full, |m| m.min(full)).max(1);
    let executable =
        (0..steps).filter(|i| n.saturating_sub(i * bs).min(bs) >= min_per_shard).count();
    let total = ((executable * a.epochs) as u64).max(1);
    let schedule = WarmupCosine::new(a.lr, (total / 10).max(1), total);
    let mut optimizer = AdamW::new(&toy.store, AdamWConfig { lr: a.lr, ..Default::default() });
    let mut indices: Vec<usize> = (0..n).collect();
    let mut epoch_losses = Vec::new();
    let mut step = 0u64;
    for _ in 0..a.epochs {
        indices.shuffle(&mut rng);
        let (mut sum, mut executed) = (0.0f64, 0usize);
        for batch in indices.chunks(bs).take(steps) {
            if batch.len() < min_per_shard {
                continue;
            }
            let mut grads = GradStore::new(&toy.store);
            let mut g = Graph::new(&toy.store, true);
            let Some(res) = toy_loss(&toy.fc, &mut g, batch) else { continue };
            g.backward(res.loss, &mut grads);
            let loss = g.value(res.loss).item();
            drop(g);
            grads.clip_global_norm(a.grad_clip);
            optimizer.step(&mut toy.store, &grads, schedule.lr(step));
            step += 1;
            executed += 1;
            sum += f64::from(loss);
        }
        epoch_losses.push((sum / executed.max(1) as f64) as f32);
    }
    epoch_losses
}

fn fit_toy(toy: &mut Toy, n: usize, a: &TrainConfig, min_per_shard: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(a.seed);
    let loss = |m: &Toy, g: &mut Graph, shard: &[usize], _: &mut StdRng| toy_loss(&m.fc, g, shard);
    fit(toy, n, a, Warmup::TenthOfSteps, min_per_shard, &mut rng, loss, |_, _, _, _| {})
}

fn param_bits(store: &ParamStore) -> Vec<Vec<u32>> {
    store.iter().map(|(_, a)| a.data().iter().map(|x| x.to_bits()).collect()).collect()
}

#[test]
fn fit_with_one_worker_is_bitwise_the_hand_rolled_epoch_loop() {
    // 23 items in batches of 4 under a cap of 4 steps per epoch, with the
    // batches holding item 5 skipped; then a lone item shorter than the
    // 2-trajectory minimum, so every batch is skipped.
    for (n, batch_size, min_per_shard) in [(23, 4, 1), (1, 4, 2)] {
        let cfg = train_cfg(batch_size);
        let (mut by_fit, mut by_hand) = (toy(7), toy(7));
        let fit_losses = fit_toy(&mut by_fit, n, &cfg, min_per_shard);
        let hand_losses = hand_rolled_loop(&mut by_hand, n, &cfg, min_per_shard);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fit_losses), bits(&hand_losses), "n = {n}: loss trace");
        assert_eq!(param_bits(&by_fit.store), param_bits(&by_hand.store), "n = {n}: weights");
        if n == 1 {
            assert_eq!(param_bits(&by_fit.store), param_bits(&toy(7).store));
        } else {
            assert_ne!(param_bits(&by_fit.store), param_bits(&toy(7).store));
        }
    }
}

#[test]
fn fit_panics_on_a_non_finite_loss_naming_the_op() {
    if !start_nn::audit::audit_enabled() {
        return; // release builds skip the check unless START_AUDIT=1
    }
    let mut model = toy(7);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut rng = StdRng::seed_from_u64(0);
        fit(
            &mut model,
            16,
            &train_cfg(4),
            Warmup::TenthOfSteps,
            1,
            &mut rng,
            |m, g, shard, _| {
                let res = shard_mse(&m.fc, g, shard);
                let loss = g.scale(res.loss, f32::NAN);
                Some(ShardResult { loss, ..res })
            },
            |_, _, _, _| {},
        )
    }));
    let payload = outcome.expect_err("a NaN loss must panic");
    let msg = payload.downcast_ref::<String>().expect("formatted panic message");
    assert!(msg.contains("non-finite training loss"), "{msg}");
    assert!(msg.contains("produced by Scale"), "{msg}");
}

#[test]
fn on_step_sees_post_step_weights_and_the_epoch_losses() {
    let mut model = toy(7);
    let initial = param_bits(&model.store);
    let mut seen = Vec::new();
    let mut rng = StdRng::seed_from_u64(9);
    let losses = fit(
        &mut model,
        23,
        &train_cfg(4),
        Warmup::TenthOfSteps,
        1,
        &mut rng,
        |m, g, shard, _| toy_loss(&m.fc, g, shard),
        |m, stats, epoch, step| seen.push((epoch, step, stats.loss, param_bits(&m.store))),
    );

    assert!(seen.len() < 3 * 4, "some batch holding item 5 was skipped");
    let steps: Vec<u64> = seen.iter().map(|s| s.1).collect();
    assert_eq!(steps, (1..=seen.len() as u64).collect::<Vec<_>>());
    assert_ne!(seen[0].3, initial, "the first hook already sees the first update");
    for pair in seen.windows(2) {
        assert_ne!(pair[0].3, pair[1].3, "each hook sees its own step's weights");
    }
    assert_eq!(seen.last().map(|s| &s.3), Some(&param_bits(&model.store)));

    let means: Vec<u32> = (0..3)
        .map(|e| {
            let epoch: Vec<f64> =
                seen.iter().filter(|s| s.0 == e).map(|s| f64::from(s.2)).collect();
            (epoch.iter().sum::<f64>() / epoch.len().max(1) as f64) as f32
        })
        .map(f32::to_bits)
        .collect();
    assert_eq!(means, losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>());
}
