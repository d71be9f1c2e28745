//! Data-parallel minibatch training engine and the one training loop.
//!
//! Every model in the workspace trains through [`fit`]: it owns the epoch
//! loop (shuffle, batching, the AdamW + warm-up/cosine schedule, gradient
//! clipping and the debug-build tape audit) and leaves the caller only the
//! shard loss and a per-step hook. Each step has the same shape: build a
//! [`Graph`] over the shared read-only [`ParamStore`], compute a batch loss,
//! run [`Graph::backward`] into a [`GradStore`], then apply one optimizer
//! step. [`BatchTrainer`] factors that shape out and adds data parallelism:
//! the minibatch is split into contiguous shards, each shard is evaluated by
//! its own worker thread (own graph, own gradient buffer, own derived RNG
//! stream), and the per-worker gradients are reduced with
//! [`GradStore::merge`] into the single gradient the caller feeds to the
//! optimizer.
//!
//! Semantics and reproducibility:
//!
//! - A shard's loss is weighted by [`ShardResult::weight`] (normally the
//!   shard length); the merged gradient equals `Σ wᵢ ∇lᵢ / Σ wᵢ`, which for
//!   per-example mean losses is exactly the full-batch mean gradient, up to
//!   f32 summation order.
//! - Losses that compare examples *within* a batch (NT-Xent negatives, PIM's
//!   next-in-batch negative sampling) see only their own shard, like
//!   multi-device SimCLR. `min_per_shard` guarantees every shard is large
//!   enough for such losses (≥ 2 anchors).
//! - With `workers == 1` (or a batch too small to split) the step runs on
//!   the caller's thread with the caller's RNG, reproducing the legacy
//!   sequential loops bit for bit.
//! - With `workers > 1`, worker `w` at optimizer step `s` uses an
//!   [`StdRng`] stream derived from `(seed, s, w)`, so runs with the same
//!   seed and worker count are bitwise identical regardless of thread
//!   scheduling; the merge happens in shard order for the same reason.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use start_sync::atomic::{AtomicBool, Ordering};

use crate::audit::audit_enabled;
use crate::finding::Findings;
use crate::graph::{Graph, NodeId};
use crate::liveness::{memory_planning_enabled, MemoryPlan};
use crate::optim::{AdamW, AdamWConfig};
use crate::params::{GradStore, ParamStore};
use crate::pool::BufferPool;
use crate::schedule::WarmupCosine;

/// What a shard closure hands back to the engine for one shard.
pub struct ShardResult {
    /// Root node of the shard loss (a scalar); the engine backprops it.
    pub loss: NodeId,
    /// Weight of this shard in the batch loss, normally the shard length.
    pub weight: f32,
    /// Free-form per-shard metrics (e.g. loss components and their counts);
    /// reported raw in [`StepStats::shard_components`].
    pub components: Vec<f32>,
}

/// Planned-vs-actual peak tape memory of one worker in one step, produced
/// when memory planning is on (see [`memory_planning_enabled`]).
#[derive(Debug, Clone, Copy)]
pub struct MemoryReport {
    /// Worker / shard index the figures belong to.
    pub worker: usize,
    /// Static peak under the optimal schedule
    /// ([`MemoryPlan::planned_peak_bytes`]).
    pub planned_peak_bytes: usize,
    /// Static peak the planned define-by-run backward should realize
    /// ([`MemoryPlan::runtime_peak_bytes`]).
    pub predicted_peak_bytes: usize,
    /// Static peak with no plan — every buffer held until `reset`
    /// ([`MemoryPlan::baseline_peak_bytes`]).
    pub baseline_peak_bytes: usize,
    /// Peak the graph's live-byte accounting actually observed (tape values
    /// + payloads + gradient buffers; excludes kernel scratch).
    pub actual_peak_bytes: usize,
}

/// Outcome of one [`BatchTrainer::step`].
#[derive(Debug, Clone)]
pub struct StepStats {
    /// Weight-averaged loss over the executed shards.
    pub loss: f32,
    /// Total shard weight (the effective batch size of this step).
    pub weight: f32,
    /// Number of shards that produced a loss.
    pub shards: usize,
    /// Raw [`ShardResult::components`] of each executed shard, in shard
    /// order. With one shard this is the closure's vector untouched, so
    /// sequential accounting stays exact.
    pub shard_components: Vec<Vec<f32>>,
    /// Per-worker planned-vs-actual peak bytes, in shard order; empty when
    /// memory planning is disabled (`START_MEM_PLAN=0`).
    pub memory: Vec<MemoryReport>,
}

/// Shards minibatches across scoped worker threads and merges gradients.
/// Holds one [`BufferPool`] per worker so every worker reuses its graph
/// buffers across optimizer steps.
#[derive(Debug)]
pub struct BatchTrainer {
    workers: usize,
    seed: u64,
    /// Per-worker tape buffer pools, threaded through each step's graphs via
    /// [`Graph::with_pool`] / [`Graph::into_pool`]. Indexed by shard/worker.
    pools: Vec<BufferPool>,
}

/// When a training loop snapshots its weights for a live serving tier.
///
/// The trainer side of checkpoint hot-swap: a loop built on
/// [`BatchTrainer`] checks `due(step)` after each optimizer step and, when
/// it fires, clones the current parameters and hands the snapshot to a
/// publish callback (ultimately `Router::publish`). A disabled cadence
/// (`never()`) keeps single-process training loops zero-cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishCadence {
    /// Publish after every `n`-th optimizer step; `0` disables publishing.
    pub every_steps: u64,
}

impl PublishCadence {
    /// Publish after every `n`-th optimizer step (`n = 0` disables).
    pub fn every(n: u64) -> Self {
        Self { every_steps: n }
    }

    /// Never publish.
    pub fn never() -> Self {
        Self { every_steps: 0 }
    }

    pub fn is_enabled(&self) -> bool {
        self.every_steps > 0
    }

    /// Whether a publish is due once `completed_steps` optimizer steps have
    /// finished (fires at `every_steps`, `2·every_steps`, ...).
    pub fn due(&self, completed_steps: u64) -> bool {
        self.is_enabled() && completed_steps > 0 && completed_steps.is_multiple_of(self.every_steps)
    }
}

/// SplitMix64 finalizer; decorrelates the per-worker seed lanes.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Backprop `loss` into `grads`, executing a freshly analyzed release
/// schedule when planning is on; returns the worker's memory report iff a
/// plan ran. Planning never changes computed values — only when buffers
/// return to the pool — so both branches are bitwise-interchangeable.
fn backward_with_plan(
    g: &mut Graph,
    loss: NodeId,
    grads: &mut GradStore,
    worker: usize,
    plan_mem: bool,
) -> Option<MemoryReport> {
    if !plan_mem {
        g.backward(loss, grads);
        return None;
    }
    let plan = MemoryPlan::analyze(g, loss);
    g.backward_planned(loss, grads, &plan);
    Some(MemoryReport {
        worker,
        planned_peak_bytes: plan.planned_peak_bytes(),
        predicted_peak_bytes: plan.runtime_peak_bytes(),
        baseline_peak_bytes: plan.baseline_peak_bytes(),
        actual_peak_bytes: g.memory_stats().peak_bytes,
    })
}

impl BatchTrainer {
    /// `workers == 1` keeps the legacy single-thread behaviour; higher
    /// counts shard each batch over that many scoped threads.
    ///
    /// The requested count is clamped to `available_parallelism()`: on a
    /// machine with fewer cores than workers, extra workers only add
    /// scheduling overhead (BENCH_train.json measured 0.65× with 4 workers
    /// on 1 core). Use [`BatchTrainer::exact`] to bypass the clamp.
    pub fn new(workers: usize, seed: u64) -> Self {
        assert!(workers >= 1, "BatchTrainer needs at least one worker");
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        Self::exact(workers.min(cores), seed)
    }

    /// Build with exactly `workers` workers, no core-count clamp — for
    /// tests and benchmarks that need a fixed shard layout regardless of
    /// the machine they run on.
    pub fn exact(workers: usize, seed: u64) -> Self {
        assert!(workers >= 1, "BatchTrainer needs at least one worker");
        let pools = (0..workers).map(|_| BufferPool::new()).collect();
        Self { workers, seed, pools }
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Deterministic RNG stream for `(seed, step, worker)`. Public so tests
    /// and custom loops can reproduce exactly what a worker saw.
    pub fn worker_rng(&self, step: u64, worker: usize) -> StdRng {
        let lane = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(step.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(worker as u64);
        StdRng::seed_from_u64(mix64(lane))
    }

    /// Contiguous near-even split of `batch` into at most `workers` shards,
    /// each at least `min_per_shard` long (losses with in-batch negatives
    /// pass 2). Returns a single shard when the batch cannot be split.
    pub fn plan<'a>(&self, batch: &'a [usize], min_per_shard: usize) -> Vec<&'a [usize]> {
        let min = min_per_shard.max(1);
        let shards = self.workers.min((batch.len() / min).max(1)).max(1);
        let base = batch.len() / shards;
        let rem = batch.len() % shards;
        let mut out = Vec::with_capacity(shards);
        let mut start = 0;
        for i in 0..shards {
            let len = base + usize::from(i < rem);
            out.push(&batch[start..start + len]);
            start += len;
        }
        out
    }

    /// Run one data-parallel training step.
    ///
    /// `shard_loss` builds the loss of one shard into the supplied graph; it
    /// returns `None` when the shard yields no trainable loss (the engine
    /// skips it). The merged, weight-normalized gradient lands in `grads`;
    /// the caller clips and applies the optimizer. Returns `None` when no
    /// shard produced a loss (the caller should not step the optimizer).
    ///
    /// `rng` is only consumed on the sequential path, preserving the legacy
    /// single-thread RNG stream; parallel workers draw from
    /// [`Self::worker_rng`] instead.
    #[allow(clippy::too_many_arguments)]
    pub fn step<F>(
        &mut self,
        store: &ParamStore,
        grads: &mut GradStore,
        step: u64,
        batch: &[usize],
        min_per_shard: usize,
        rng: &mut StdRng,
        shard_loss: &F,
    ) -> Option<StepStats>
    where
        F: Fn(&mut Graph, &[usize], &mut StdRng) -> Option<ShardResult> + Sync,
    {
        let plan_mem = memory_planning_enabled();
        let shards = self.plan(batch, min_per_shard);
        if self.workers == 1 || shards.len() == 1 {
            let pool = std::mem::take(&mut self.pools[0]);
            let mut g = Graph::with_pool(store, true, pool);
            let Some(res) = shard_loss(&mut g, batch, rng) else {
                self.pools[0] = g.into_pool();
                return None;
            };
            let memory = backward_with_plan(&mut g, res.loss, grads, 0, plan_mem);
            let loss = g.value(res.loss).item();
            self.pools[0] = g.into_pool();
            return Some(StepStats {
                loss,
                weight: res.weight,
                shards: 1,
                shard_components: vec![res.components],
                memory: memory.into_iter().collect(),
            });
        }

        type WorkerOut = Option<(GradStore, f32, f32, Vec<f32>, Option<MemoryReport>)>;
        let mut worker_pools: Vec<BufferPool> =
            (0..shards.len()).map(|w| std::mem::take(&mut self.pools[w])).collect();
        let results: Vec<(BufferPool, WorkerOut)> = crossbeam::scope(|s| {
            let handles: Vec<_> = shards
                .iter()
                .zip(worker_pools.drain(..))
                .enumerate()
                .map(|(w, (shard, pool))| {
                    let shard: &[usize] = shard;
                    let mut wrng = self.worker_rng(step, w);
                    s.spawn(move |_| {
                        let mut g = Graph::with_pool(store, true, pool);
                        let out = (|| -> WorkerOut {
                            let res = shard_loss(&mut g, shard, &mut wrng)?;
                            let mut wgrads = GradStore::new(store);
                            let mem =
                                backward_with_plan(&mut g, res.loss, &mut wgrads, w, plan_mem);
                            // Pre-scale so the merge below is a plain sum.
                            wgrads.scale(res.weight);
                            Some((
                                wgrads,
                                g.value(res.loss).item(),
                                res.weight,
                                res.components,
                                mem,
                            ))
                        })();
                        (g.into_pool(), out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        })
        .unwrap_or_else(|e| std::panic::resume_unwind(e));

        let mut total_weight = 0.0f32;
        let mut loss_acc = 0.0f64;
        let mut shard_components = Vec::new();
        let mut memory = Vec::new();
        for (w, (pool, out)) in results.into_iter().enumerate() {
            // Shard order is deterministic, so pool w always returns to
            // worker slot w.
            self.pools[w] = pool;
            let Some((wgrads, loss, weight, components, mem)) = out else { continue };
            grads.merge(&wgrads);
            loss_acc += f64::from(loss) * f64::from(weight);
            total_weight += weight;
            shard_components.push(components);
            memory.extend(mem);
        }
        if shard_components.is_empty() || total_weight <= 0.0 {
            return None;
        }
        grads.scale(1.0 / total_weight);
        Some(StepStats {
            loss: (loss_acc / f64::from(total_weight)) as f32,
            weight: total_weight,
            shards: shard_components.len(),
            shard_components,
            memory,
        })
    }
}

/// A model [`fit`] can train. Shards borrow it from worker threads.
pub trait Trainable: Sync {
    fn store(&self) -> &ParamStore;
    fn store_mut(&mut self) -> &mut ParamStore;
}

/// Learning-rate warm-up length, out of `total` optimizer steps.
#[derive(Debug, Clone, Copy)]
pub enum Warmup {
    /// `⌊total · frac⌋` steps (pre-training's `warmup_frac`).
    Fraction(f32),
    /// `⌊total / 10⌋` steps (fine-tuning and the baselines).
    TenthOfSteps,
}

/// The training settings every model shares (§IV-C1: "the baselines have
/// the same settings as START"). [`fit`] reads them directly; what differs
/// per loss — the [`Warmup`] rule and the shortest shard — is a `fit`
/// argument instead.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    /// Optional cap on optimizer steps per epoch.
    pub max_steps_per_epoch: Option<usize>,
    pub grad_clip: f32,
    pub seed: u64,
    /// Data-parallel workers per optimizer step (`1` = the sequential loop;
    /// see [`BatchTrainer`]).
    pub workers: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 3,
            batch_size: 16,
            lr: 2e-4,
            max_steps_per_epoch: None,
            grad_clip: 5.0,
            seed: 31,
            workers: 1,
        }
    }
}

/// The one training loop (§IV-C: AdamW under warm-up + cosine decay, the
/// same protocol for START and every baseline).
///
/// Each epoch shuffles `0..n_items` with `rng` and takes at most
/// `max_steps_per_epoch` chunks of `batch_size`, skipping those shorter
/// than `min_per_shard` (2 for losses with in-batch negatives, else 1).
/// Each batch runs one [`BatchTrainer::step`] over `shard_loss`, then
/// clipping and one AdamW step (none when every shard yields `None`);
/// `on_step(model, stats, epoch, completed_steps)` then sees the post-step
/// weights. When [`audit_enabled`], the first shard tape is audited and
/// every shard loss must be finite, else the panic names the op that
/// produced the NaN/Inf.
/// Returns each epoch's mean loss over the batches it executed.
#[allow(clippy::too_many_arguments)]
pub fn fit<M, S, H>(
    model: &mut M,
    n_items: usize,
    cfg: &TrainConfig,
    warmup: Warmup,
    min_per_shard: usize,
    rng: &mut StdRng,
    shard_loss: S,
    mut on_step: H,
) -> Vec<f32>
where
    M: Trainable + ?Sized,
    S: Fn(&M, &mut Graph, &[usize], &mut StdRng) -> Option<ShardResult> + Sync,
    H: FnMut(&M, &StepStats, usize, u64),
{
    let (bs, min) = (cfg.batch_size, min_per_shard);
    let full = n_items / bs;
    let steps_per_epoch = cfg.max_steps_per_epoch.map_or(full, |m| m.min(full)).max(1);
    // Chunk lengths are data-independent, so the schedule can span exactly
    // the steps that are not skipped.
    let executable =
        (0..steps_per_epoch).filter(|i| n_items.saturating_sub(i * bs).min(bs) >= min).count();
    let total = ((executable * cfg.epochs) as u64).max(1);
    let warmup = match warmup {
        Warmup::Fraction(frac) => (total as f32 * frac) as u64,
        Warmup::TenthOfSteps => total / 10,
    };
    let schedule = WarmupCosine::new(cfg.lr, warmup.max(1), total);
    let mut trainer = BatchTrainer::new(cfg.workers, cfg.seed);
    let mut optimizer = AdamW::new(model.store(), AdamWConfig { lr: cfg.lr, ..Default::default() });
    let audit_on = audit_enabled();
    let audit_pending = AtomicBool::new(audit_on);

    let mut indices: Vec<usize> = (0..n_items).collect();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let mut step = 0u64;
    for epoch in 0..cfg.epochs {
        indices.shuffle(rng);
        let (mut epoch_loss, mut executed) = (0.0f64, 0usize);
        for batch in indices.chunks(bs).take(steps_per_epoch) {
            if batch.len() < min {
                continue;
            }
            let m: &M = model;
            let shard = |g: &mut Graph, s: &[usize], r: &mut StdRng| {
                let res = shard_loss(m, g, s, r)?;
                if audit_on {
                    check_shard(g, res.loss, &audit_pending);
                }
                Some(res)
            };
            let mut grads = GradStore::new(m.store());
            let Some(stats) = trainer.step(m.store(), &mut grads, step, batch, min, rng, &shard)
            else {
                continue;
            };
            grads.clip_global_norm(cfg.grad_clip);
            optimizer.step(model.store_mut(), &grads, schedule.lr(step));
            step += 1;
            executed += 1;
            epoch_loss += f64::from(stats.loss);
            on_step(model, &stats, epoch, step);
        }
        epoch_losses.push((epoch_loss / executed.max(1) as f64) as f32);
    }
    epoch_losses
}

/// [`fit`]'s debug-build tape check: audit the run's first shard tape
/// (`first` is the one-shot latch), then require a finite shard loss.
fn check_shard(g: &Graph, loss: NodeId, first: &AtomicBool) {
    // relaxed-ok: one-shot latch, no data published through it
    if first.swap(false, Ordering::Relaxed) {
        let audit = g.audit(loss);
        assert!(!audit.has_errors(), "training tape failed its static audit:\n{audit}");
        for finding in audit.warnings() {
            eprintln!("training audit: {finding}");
        }
    }
    let lv = g.value(loss).item();
    if !lv.is_finite() {
        match g.trace_nonfinite() {
            Some(trace) => panic!("non-finite training loss ({lv}); {trace}"),
            None => panic!(
                "non-finite training loss ({lv}) but every tape value is finite — loss \
                 readback is inconsistent"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_contiguous_even_and_respects_minimum() {
        let batch: Vec<usize> = (0..10).collect();
        let trainer = BatchTrainer::exact(4, 0);
        let shards = trainer.plan(&batch, 2);
        assert_eq!(shards.len(), 4);
        let lens: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        assert_eq!(lens, [3, 3, 2, 2]);
        let flat: Vec<usize> = shards.iter().flat_map(|s| s.iter().copied()).collect();
        assert_eq!(flat, batch);

        // A batch of 3 with min 2 per shard cannot be split.
        assert_eq!(trainer.plan(&batch[..3], 2).len(), 1);
        // min_per_shard = 0 is treated as 1.
        assert_eq!(trainer.plan(&batch[..3], 0).len(), 3);
    }

    #[test]
    fn worker_rng_streams_are_deterministic_and_distinct() {
        use rand::Rng;
        let trainer = BatchTrainer::exact(4, 99);
        let draw = |step, worker| trainer.worker_rng(step, worker).gen::<u64>();
        assert_eq!(draw(3, 1), draw(3, 1));
        assert_ne!(draw(3, 1), draw(3, 2));
        assert_ne!(draw(3, 1), draw(4, 1));
        let other = BatchTrainer::exact(4, 100);
        assert_ne!(draw(3, 1), other.worker_rng(3, 1).gen::<u64>());
    }
}
