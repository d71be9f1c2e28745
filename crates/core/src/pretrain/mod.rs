//! Joint self-supervised pre-training (§III-C, Eq. 15):
//! `L_pre = λ L_mask + (1 - λ) L_con`, trained with AdamW under the paper's
//! warm-up + cosine-annealing schedule (§IV-C2).

pub mod contrastive;
pub mod mask;

use rand::rngs::StdRng;
use rand::SeedableRng;

use start_nn::graph::Graph;
use start_nn::train::{fit, PublishCadence, ShardResult, TrainConfig, Warmup};
use start_traj::{TrajView, Trajectory};

use crate::model::{clamp_view, StartModel};
pub use contrastive::nt_xent_loss;
pub use mask::{make_masked_example, masked_recovery_loss, MaskedExample};

/// Pre-training loop parameters. The paper uses 30 epochs / batch 64 /
/// lr 2e-4 with 5 warm-up epochs; defaults here are CPU-scaled.
#[derive(Debug, Clone)]
pub struct PretrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub base_lr: f32,
    /// Fraction of total steps used for linear warm-up.
    pub warmup_frac: f32,
    /// Optional cap on optimizer steps per epoch (subsampling for the
    /// CPU-scaled experiments); `None` sweeps the full split.
    pub max_steps_per_epoch: Option<usize>,
    pub grad_clip: f32,
    pub seed: u64,
    /// Data-parallel workers per optimizer step. `1` runs the legacy
    /// sequential loop; higher counts shard each batch across threads with
    /// within-shard NT-Xent negatives (see `start_nn::train`).
    pub workers: usize,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        Self {
            epochs: 3,
            batch_size: 16,
            base_lr: 2e-4,
            warmup_frac: 0.1,
            max_steps_per_epoch: None,
            grad_clip: 5.0,
            seed: 2023,
            workers: 1,
        }
    }
}

/// Loss trace of a pre-training run.
#[derive(Debug, Clone, Default)]
pub struct PretrainReport {
    /// Mean combined loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Mean mask / contrastive components of the final epoch.
    pub final_mask_loss: f32,
    pub final_contrastive_loss: f32,
    pub steps: u64,
}

impl PretrainReport {
    pub fn final_loss(&self) -> f32 {
        self.epoch_losses.last().copied().unwrap_or(f32::NAN)
    }
}

/// Record one shard of the Eq. 15 pre-training loss into `g` — the exact
/// tape `pretrain`'s engine closure builds, factored out so the memory
/// planner's tooling (`start-analysis plan`, `bench_memory`) can analyze
/// the real training graph rather than a toy stand-in. Returns `None` when
/// the shard yields no trainable loss. RNG consumption and op order match
/// the training loop bit for bit.
pub fn build_shard_loss(
    model: &StartModel,
    train: &[Trajectory],
    historical: &[f32],
    g: &mut Graph,
    shard: &[usize],
    r: &mut StdRng,
) -> Option<ShardResult> {
    let (lambda, use_mask, use_con) =
        (model.cfg.lambda, model.cfg.use_mask_loss, model.cfg.use_contrastive_loss);
    let (aug_a, aug_b) = model.cfg.augmentations;
    let max_len = model.cfg.max_len;
    let road_reprs = model.road_reprs(g);

    // Span-masked recovery over the shard.
    let mut mask_losses = Vec::new();
    if use_mask {
        for &i in shard {
            let ex = make_masked_example(
                &train[i],
                model.cfg.mask_span,
                model.cfg.mask_ratio,
                max_len,
                r,
            );
            if let Some(l) = masked_recovery_loss(model, g, road_reprs, &ex, r) {
                mask_losses.push(l);
            }
        }
    }

    // Contrastive views over the shard.
    let mut pooled = Vec::new();
    if use_con {
        for &i in shard {
            let t = &train[i];
            for aug in [aug_a, aug_b] {
                let view = clamp_view(aug.apply(t, historical, r), max_len);
                let view =
                    if view.is_empty() { clamp_view(TrajView::identity(t), max_len) } else { view };
                let enc = model.encode_view(g, &view, road_reprs, r);
                pooled.push(enc.pooled);
            }
        }
    }

    let mask_term = if mask_losses.is_empty() {
        None
    } else {
        let mut acc = mask_losses[0];
        for &l in &mask_losses[1..] {
            acc = g.add(acc, l);
        }
        Some(g.scale(acc, 1.0 / mask_losses.len() as f32))
    };
    let con_term = if pooled.len() >= 4 {
        Some(nt_xent_loss(g, &pooled, model.cfg.temperature))
    } else {
        None
    };
    let loss = match (mask_term, con_term) {
        (Some(m), Some(c)) => {
            let lm = g.scale(m, lambda);
            let lc = g.scale(c, 1.0 - lambda);
            g.add(lm, lc)
        }
        (Some(m), None) => m,
        (None, Some(c)) => c,
        (None, None) => return None,
    };
    // Component accounting: [mask value, mask count, contrastive value,
    // anchor count] per shard, combined by the epoch loop.
    let mask_stats =
        mask_term.map_or([0.0, 0.0], |m| [g.value(m).item(), mask_losses.len() as f32]);
    let con_stats = con_term.map_or([0.0, 0.0], |c| [g.value(c).item(), (pooled.len() / 2) as f32]);
    Some(ShardResult {
        loss,
        weight: shard.len() as f32,
        components: vec![mask_stats[0], mask_stats[1], con_stats[0], con_stats[1]],
    })
}

/// The deterministic "standard pretrain shard": a tiny synthetic city, 64
/// simulated trajectories, a test-scale model, and one 8-trajectory shard.
/// `start-analysis plan` and `bench_memory` record this exact tape, so the
/// memory-planner figures they report are comparable across runs and
/// machines (all inputs are seeded; the only variation is code).
pub struct StandardShard {
    pub model: StartModel,
    pub train: Vec<Trajectory>,
    pub historical: Vec<f32>,
    pub shard: Vec<usize>,
    /// Seed of the shard-recording RNG stream.
    pub seed: u64,
}

impl StandardShard {
    /// Build the fixture (simulates the dataset; a few hundred ms).
    pub fn build() -> Self {
        use start_roadnet::synth::{generate_city, CityConfig};
        use start_roadnet::TransferMatrix;
        use start_traj::{historical_mean_durations, SimConfig, Simulator};

        let city = generate_city("std", &CityConfig::tiny());
        let sim = Simulator::new(
            &city.net,
            SimConfig { num_trajectories: 64, num_drivers: 4, ..Default::default() },
        );
        let data = sim.generate();
        let tm = TransferMatrix::from_sequences(
            city.net.num_segments(),
            data.iter().map(|t| t.roads.as_slice()),
        );
        let historical = historical_mean_durations(&city.net, &data);
        let model = StartModel::new(
            crate::config::StartConfig::test_scale(),
            &city.net,
            Some(&tm),
            None,
            5,
        );
        Self { model, train: data, historical, shard: (0..8).collect(), seed: 2023 }
    }

    /// Record the standard shard into `g` (a graph over this fixture's
    /// store) and return its [`ShardResult`].
    pub fn record<'s>(&'s self, g: &mut Graph<'s>) -> ShardResult {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let res =
            build_shard_loss(&self.model, &self.train, &self.historical, g, &self.shard, &mut rng);
        res.expect("the standard pretrain shard must produce a loss") // lint-ok: deterministic fixture
    }
}

/// Run self-supervised pre-training on the training split.
///
/// `historical` is the per-segment mean traversal time required by the
/// Temporal Shifting augmentation.
pub fn pretrain(
    model: &mut StartModel,
    train: &[Trajectory],
    historical: &[f32],
    cfg: &PretrainConfig,
) -> PretrainReport {
    pretrain_with_publish(model, train, historical, cfg, PublishCadence::never(), &mut |_, _| {})
}

/// [`pretrain`] with a checkpoint-publish hook for live serving tiers.
///
/// After every optimizer step where `cadence.due(step)` fires — and once
/// more after the final step, so the last weights always ship — `publish`
/// is called with the model (weights as of that step) and the completed
/// step count. The callback typically snapshots the weights into a fresh
/// model via [`StartModel::adopt_weights`] and hands the snapshot to
/// `start_serve::Router::publish`; training itself never blocks on the
/// serving tier beyond the callback's own cost. A `never()` cadence makes
/// this exactly [`pretrain`].
pub fn pretrain_with_publish(
    model: &mut StartModel,
    train: &[Trajectory],
    historical: &[f32],
    cfg: &PretrainConfig,
    cadence: PublishCadence,
    publish: &mut dyn FnMut(&StartModel, u64),
) -> PretrainReport {
    assert!(train.len() >= cfg.batch_size.max(2), "training split too small");
    assert!(
        model.cfg.use_mask_loss || model.cfg.use_contrastive_loss,
        "at least one self-supervised task must be enabled"
    );
    let train_cfg = TrainConfig {
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        lr: cfg.base_lr,
        max_steps_per_epoch: cfg.max_steps_per_epoch,
        grad_clip: cfg.grad_clip,
        seed: cfg.seed,
        workers: cfg.workers,
    };
    let mut report = PretrainReport::default();
    // Mask / contrastive means summed over the executed steps of the latest
    // epoch, with that epoch and its step count.
    let (mut epoch_mask, mut epoch_con, mut last_epoch, mut executed) = (0.0f64, 0.0f64, 0, 0);
    let mut published_at: Option<u64> = None;
    report.epoch_losses = fit(
        model,
        train.len(),
        &train_cfg,
        Warmup::Fraction(cfg.warmup_frac),
        // NT-Xent needs two anchors per shard; with more workers each shard
        // draws its negatives only from its own trajectories.
        2,
        &mut StdRng::seed_from_u64(cfg.seed),
        |m, g, shard, r| build_shard_loss(m, train, historical, g, shard, r),
        |m, stats, epoch, step| {
            if epoch != last_epoch {
                (epoch_mask, epoch_con, last_epoch, executed) = (0.0, 0.0, epoch, 0);
            }
            let (mut mask_sum, mut mask_n, mut con_sum, mut con_n) = (0.0f64, 0.0f64, 0.0, 0.0);
            for c in &stats.shard_components {
                mask_sum += f64::from(c[0]) * f64::from(c[1]);
                mask_n += f64::from(c[1]);
                con_sum += f64::from(c[2]) * f64::from(c[3]);
                con_n += f64::from(c[3]);
            }
            if mask_n > 0.0 {
                epoch_mask += mask_sum / mask_n;
            }
            if con_n > 0.0 {
                epoch_con += con_sum / con_n;
            }
            executed += 1;
            report.steps = step;
            if cadence.due(step) {
                published_at = Some(step);
                publish(m, step);
            }
        },
    );
    if last_epoch + 1 == cfg.epochs {
        let denom = executed.max(1) as f64;
        report.final_mask_loss = (epoch_mask / denom) as f32;
        report.final_contrastive_loss = (epoch_con / denom) as f32;
    }
    // Final-weights publish: the run's last checkpoint always reaches the
    // serving tier even when the step count is not a cadence multiple.
    if cadence.is_enabled() && published_at != Some(report.steps) {
        publish(model, report.steps);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StartConfig;
    use rand::seq::SliceRandom;
    use start_nn::params::GradStore;
    use start_nn::{AdamW, AdamWConfig, WarmupCosine};
    use start_roadnet::synth::{generate_city, CityConfig};
    use start_roadnet::TransferMatrix;
    use start_traj::{historical_mean_durations, SimConfig, Simulator};

    fn setup(n: usize) -> (start_roadnet::City, Vec<Trajectory>, TransferMatrix, Vec<f32>) {
        let city = generate_city("t", &CityConfig::tiny());
        let sim = Simulator::new(
            &city.net,
            SimConfig { num_trajectories: n, num_drivers: 4, ..Default::default() },
        );
        let data = sim.generate();
        let tm = TransferMatrix::from_sequences(
            city.net.num_segments(),
            data.iter().map(|t| t.roads.as_slice()),
        );
        let hist = historical_mean_durations(&city.net, &data);
        (city, data, tm, hist)
    }

    #[test]
    fn pretraining_reduces_the_loss() {
        let (city, data, tm, hist) = setup(64);
        let mut model = StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 5);
        let cfg = PretrainConfig {
            epochs: 4,
            batch_size: 8,
            base_lr: 1e-3,
            max_steps_per_epoch: Some(4),
            ..Default::default()
        };
        let report = pretrain(&mut model, &data, &hist, &cfg);
        assert_eq!(report.epoch_losses.len(), 4);
        let first = report.epoch_losses[0];
        let last = report.final_loss();
        assert!(last < first, "loss should drop: {first} -> {last}");
        assert!(last.is_finite());
    }

    /// Hand-rolled copy of the pre-engine sequential loop: one graph per
    /// batch, the loop's RNG everywhere, losses in the legacy op order.
    fn legacy_pretrain(
        model: &mut StartModel,
        train: &[Trajectory],
        historical: &[f32],
        cfg: &PretrainConfig,
    ) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let steps_per_epoch = {
            let full = train.len() / cfg.batch_size;
            cfg.max_steps_per_epoch.map_or(full, |m| m.min(full)).max(1)
        };
        let executable_steps = (0..steps_per_epoch)
            .filter(|i| train.len().saturating_sub(i * cfg.batch_size).min(cfg.batch_size) >= 2)
            .count();
        let total_steps = ((executable_steps * cfg.epochs) as u64).max(1);
        let schedule = WarmupCosine::new(
            cfg.base_lr,
            ((total_steps as f32 * cfg.warmup_frac) as u64).max(1),
            total_steps,
        );
        let mut optimizer =
            AdamW::new(&model.store, AdamWConfig { lr: cfg.base_lr, ..Default::default() });
        let mut indices: Vec<usize> = (0..train.len()).collect();
        let (lambda, use_mask, use_con) =
            (model.cfg.lambda, model.cfg.use_mask_loss, model.cfg.use_contrastive_loss);
        let (aug_a, aug_b) = model.cfg.augmentations;
        let max_len = model.cfg.max_len;
        let mut epoch_losses = Vec::new();
        let mut step = 0u64;
        for _ in 0..cfg.epochs {
            indices.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            let mut executed = 0usize;
            for batch in indices.chunks(cfg.batch_size).take(steps_per_epoch) {
                if batch.len() < 2 {
                    continue;
                }
                let mut g = Graph::new(&model.store, true);
                let road_reprs = model.road_reprs(&mut g);
                let mut mask_losses = Vec::new();
                if use_mask {
                    for &i in batch {
                        let ex = make_masked_example(
                            &train[i],
                            model.cfg.mask_span,
                            model.cfg.mask_ratio,
                            max_len,
                            &mut rng,
                        );
                        if let Some(l) =
                            masked_recovery_loss(model, &mut g, road_reprs, &ex, &mut rng)
                        {
                            mask_losses.push(l);
                        }
                    }
                }
                let mut pooled = Vec::new();
                if use_con {
                    for &i in batch {
                        let t = &train[i];
                        for aug in [aug_a, aug_b] {
                            let view = clamp_view(aug.apply(t, historical, &mut rng), max_len);
                            let view = if view.is_empty() {
                                clamp_view(TrajView::identity(t), max_len)
                            } else {
                                view
                            };
                            let enc = model.encode_view(&mut g, &view, road_reprs, &mut rng);
                            pooled.push(enc.pooled);
                        }
                    }
                }
                let mask_term = if mask_losses.is_empty() {
                    None
                } else {
                    let mut acc = mask_losses[0];
                    for &l in &mask_losses[1..] {
                        acc = g.add(acc, l);
                    }
                    Some(g.scale(acc, 1.0 / mask_losses.len() as f32))
                };
                let con_term = if pooled.len() >= 4 {
                    Some(nt_xent_loss(&mut g, &pooled, model.cfg.temperature))
                } else {
                    None
                };
                let loss = match (mask_term, con_term) {
                    (Some(m), Some(c)) => {
                        let lm = g.scale(m, lambda);
                        let lc = g.scale(c, 1.0 - lambda);
                        g.add(lm, lc)
                    }
                    (Some(m), None) => m,
                    (None, Some(c)) => c,
                    (None, None) => continue,
                };
                let mut grads = GradStore::new(&model.store);
                g.backward(loss, &mut grads);
                grads.clip_global_norm(cfg.grad_clip);
                epoch_loss += f64::from(g.value(loss).item());
                optimizer.step(&mut model.store, &grads, schedule.lr(step));
                step += 1;
                executed += 1;
            }
            epoch_losses.push((epoch_loss / executed.max(1) as f64) as f32);
        }
        epoch_losses
    }

    #[test]
    fn workers_1_is_bitwise_the_legacy_sequential_loop() {
        let (city, data, tm, hist) = setup(48);
        let cfg = PretrainConfig {
            epochs: 2,
            batch_size: 8,
            base_lr: 1e-3,
            max_steps_per_epoch: Some(3),
            workers: 1,
            ..Default::default()
        };
        let mut engine_model =
            StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 5);
        let report = pretrain(&mut engine_model, &data, &hist, &cfg);

        let mut legacy_model =
            StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 5);
        let legacy_losses = legacy_pretrain(&mut legacy_model, &data, &hist, &cfg);

        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(
            bits(&report.epoch_losses),
            bits(&legacy_losses),
            "workers = 1 must reproduce the sequential loss trace bitwise"
        );
        for ((name_a, a), (name_b, b)) in engine_model.store.iter().zip(legacy_model.store.iter()) {
            assert_eq!(name_a, name_b);
            assert_eq!(a, b, "parameter {name_a} diverged from the sequential loop");
        }
    }

    #[test]
    fn workers_2_pretraining_is_deterministic() {
        let (city, data, tm, hist) = setup(48);
        let cfg = PretrainConfig {
            epochs: 2,
            batch_size: 8,
            base_lr: 1e-3,
            max_steps_per_epoch: Some(3),
            workers: 2,
            ..Default::default()
        };
        let run = || {
            let mut model =
                StartModel::new(StartConfig::test_scale(), &city.net, Some(&tm), None, 5);
            pretrain(&mut model, &data, &hist, &cfg).epoch_losses
        };
        let (a, b) = (run(), run());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&a), bits(&b), "same-seed parallel runs must be bitwise identical");
        assert!(a.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn mask_only_and_contrastive_only_both_train() {
        let (city, data, tm, hist) = setup(32);
        for (use_mask, use_con) in [(true, false), (false, true)] {
            let cfg_model = StartConfig {
                use_mask_loss: use_mask,
                use_contrastive_loss: use_con,
                ..StartConfig::test_scale()
            };
            let mut model = StartModel::new(cfg_model, &city.net, Some(&tm), None, 5);
            let cfg = PretrainConfig {
                epochs: 1,
                batch_size: 8,
                max_steps_per_epoch: Some(2),
                ..Default::default()
            };
            let report = pretrain(&mut model, &data, &hist, &cfg);
            assert!(report.final_loss().is_finite());
            assert!(report.steps >= 2);
        }
    }
}
