//! `pretrain`: self-supervised pretraining through `pretrain_with_publish`
//! on 4,800 simulated trajectories, batch 16, one worker. The publish
//! callback only stamps each step's end. It is the one workload dominated
//! by training tapes (forward, backward, AdamW, BatchTrainer planning) and
//! it never touches serving.
//!
//! The timed run is two epochs of 12 steps each per second of
//! `--seconds`. A fixed step count keeps the work, and the loss trace, the
//! same on every host.

use std::time::{Duration, Instant};

use rand::seq::SliceRandom;

use start_core::{
    build_shard_loss, pretrain_with_publish, PretrainConfig, PretrainReport, StartModel,
};
use start_nn::{AdamW, AdamWConfig, BufferPool, GradStore, Graph, MemoryPlan, PublishCadence};
use start_traj::Trajectory;

use crate::fixture::{self, Outcome};
use crate::loadgen;
use crate::trace::{self, Tracer};
use crate::Run;

const TRAIN: usize = 4_800;
const BATCH: usize = 16;
const WARMUP_STEPS: usize = 5;
/// Optimizer steps per epoch per second of `--seconds`.
const EPOCH_STEPS_PER_S: f64 = 12.0;
/// Steps of the traced run's hand-driven loop (layer breakdown only).
const TRACED_STEPS: usize = 30;
const GRAD_CLIP: f32 = 5.0;

struct Trainer {
    model: StartModel,
    data: Vec<Trajectory>,
    historical: Vec<f32>,
}

fn config(seed: u64, epochs: usize, steps_per_epoch: usize) -> PretrainConfig {
    PretrainConfig {
        epochs,
        batch_size: BATCH,
        max_steps_per_epoch: Some(steps_per_epoch),
        workers: 1,
        seed,
        ..PretrainConfig::default()
    }
}

/// Run `pretrain_with_publish`, returning the report and each step's end
/// as time since the call started.
fn train(t: &mut Trainer, cfg: &PretrainConfig) -> (PretrainReport, Vec<Duration>) {
    let mut ends = Vec::new();
    let start = Instant::now();
    let report = pretrain_with_publish(
        &mut t.model,
        &t.data,
        &t.historical,
        cfg,
        PublishCadence::every(1),
        &mut |_, _| ends.push(start.elapsed()),
    );
    (report, ends)
}

/// Step durations (ms) from step ends.
fn step_ms(ends: &[Duration]) -> Vec<f64> {
    let mut prev = Duration::ZERO;
    ends.iter()
        .map(|&end| {
            let step = end - prev;
            prev = end;
            fixture::ms(step)
        })
        .collect()
}

fn setup(run: &Run, n: usize) -> Trainer {
    let city = fixture::city();
    let (_, data) = fixture::simulate(&city, n, run.seed);
    let historical = start_traj::historical_mean_durations(&city.net, &data);
    let model = fixture::model(&city, &data);
    let mut t = Trainer { model, data, historical };
    train(&mut t, &config(run.seed ^ 0x55, 1, WARMUP_STEPS));
    t
}

pub fn run(run: &Run, tracer: &Tracer) -> Outcome {
    let scale = if run.smoke { 20 } else { 1 };
    let (mut t, setup_s) = fixture::repeated_setup(|| setup(run, TRAIN / scale));
    let mut out = Outcome::default();
    out.set("setup_s", setup_s);

    let per_epoch_cap = t.data.len() / BATCH;
    let per_epoch = ((EPOCH_STEPS_PER_S * run.seconds).round() as usize).clamp(2, per_epoch_cap);
    let (report, ends) = train(&mut t, &config(run.seed, 2, per_epoch));

    out.attempted = (2 * per_epoch) as u64;
    out.failed = out.attempted.saturating_sub(report.steps);
    out.set("throughput_per_s", fixture::windowed_rate(&ends, BATCH as f64));
    let step_ms = step_ms(&ends);
    out.latencies(step_ms.clone());
    let losses = &report.epoch_losses;
    out.check(
        "losses_finite",
        losses.iter().all(|l| l.is_finite()),
        format!("epoch losses {losses:?}"),
    );
    out.check(
        "loss_decreases",
        losses.len() == 2 && losses[1] < losses[0],
        format!("epoch losses {losses:?}"),
    );
    if tracer.on() {
        layers(&mut out, &mut t, run.seed, tracer);
        let parts: f64 = ["nn.forward_ms", "nn.backward_ms", "nn.optimizer_ms"]
            .iter()
            .map(|k| out.metrics[k])
            .sum();
        out.set("nn.trainer_overhead_ms", fixture::median(&step_ms) - parts);
    }
    out
}

/// The traced run's breakdown: train-mode road stage, then the loop's
/// public calls (`build_shard_loss`, backward, clip + AdamW) driven by
/// hand on batches of 16, each in its own span.
fn layers(out: &mut Outcome, t: &mut Trainer, seed: u64, tracer: &Tracer) {
    let mut pool = BufferPool::new();
    let mut road = Vec::new();
    for _ in 0..20 {
        let mut g = Graph::with_pool(&t.model.store, true, pool);
        let start = Instant::now();
        std::hint::black_box(t.model.road_reprs(&mut g));
        road.push(fixture::ms(start.elapsed()));
        pool = g.into_pool();
    }
    out.set("core.road_stage_train_ms", fixture::median(&road));

    let mut rng = fixture::rng(seed, 4);
    let mut order: Vec<usize> = (0..t.data.len()).collect();
    order.shuffle(&mut rng);
    let mut opt = AdamW::new(&t.model.store, AdamWConfig::default());
    let lr = AdamWConfig::default().lr;
    let mut pool = BufferPool::new();
    let mut nodes = Vec::new();
    let mut rec = tracer.recorder();
    for (step, batch) in order.chunks(BATCH).take(TRACED_STEPS).enumerate() {
        let req = step as u64;
        let mut g = Graph::with_pool(&t.model.store, true, pool);
        let res = rec
            .span("nn.forward", req, |_| {
                build_shard_loss(&t.model, &t.data, &t.historical, &mut g, batch, &mut rng)
            })
            .expect("a batch of 16 trajectories yields a loss");
        nodes.push(g.num_nodes() as f64);
        let mut grads = GradStore::new(&t.model.store);
        rec.span("nn.backward", req, |_| {
            if start_nn::memory_planning_enabled() {
                let plan = MemoryPlan::analyze(&g, res.loss);
                g.backward_planned(res.loss, &mut grads, &plan);
            } else {
                g.backward(res.loss, &mut grads);
            }
        });
        let stats = g.pool_stats();
        let lookups = stats.hits + stats.misses;
        out.set("nn.pool_hit_rate", stats.hits as f64 / lookups.max(1) as f64);
        pool = g.into_pool();
        rec.span("nn.optimizer", req, |_| {
            grads.clip_global_norm(GRAD_CLIP);
            opt.step(&mut t.model.store, &grads, lr);
        });
    }
    drop(rec);
    out.set("nn.tape_nodes", fixture::median(&nodes));
    let spans = tracer.spans();
    for (name, key) in [
        ("nn.forward", "nn.forward_ms"),
        ("nn.backward", "nn.backward_ms"),
        ("nn.optimizer", "nn.optimizer_ms"),
    ] {
        let d = loadgen::sorted(trace::durations_us(&spans, name));
        out.set(key, loadgen::percentile(&d, 50.0) / 1e3);
    }
}
