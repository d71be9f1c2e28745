//! Downstream task adaptation (§III-D): travel time estimation, trajectory
//! classification, and zero-shot similarity search.

pub mod classify;
pub mod eta;
pub mod similarity;

pub use classify::{fine_tune_classifier, predict_classes, ClassifierHead};
pub use eta::{fine_tune_eta, predict_eta, EtaHead};
pub use similarity::euclidean;

use start_nn::train::{FitArgs, Warmup};
use start_nn::ParamId;

/// Shared fine-tuning loop parameters (both heads use AdamW, §IV-C2).
#[derive(Debug, Clone)]
pub struct FineTuneConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    /// Optional cap on optimizer steps per epoch.
    pub max_steps_per_epoch: Option<usize>,
    pub grad_clip: f32,
    pub seed: u64,
    /// Freeze the encoder and train only the task head (linear probing).
    pub freeze_encoder: bool,
    /// Data-parallel workers per optimizer step (`1` = legacy sequential
    /// loop; see `start_nn::train`).
    pub workers: usize,
}

impl Default for FineTuneConfig {
    fn default() -> Self {
        Self {
            epochs: 3,
            batch_size: 16,
            lr: 2e-4,
            max_steps_per_epoch: None,
            grad_clip: 5.0,
            seed: 31,
            freeze_encoder: false,
            workers: 1,
        }
    }
}

impl FineTuneConfig {
    /// The [`start_nn::fit`] settings of a fine-tuning run whose task head
    /// starts at parameter `head` (all that trains when the encoder is
    /// frozen).
    fn fit_args(&self, head: ParamId) -> FitArgs {
        FitArgs {
            epochs: self.epochs,
            batch_size: self.batch_size,
            lr: self.lr,
            warmup: Warmup::TenthOfSteps,
            max_steps_per_epoch: self.max_steps_per_epoch,
            grad_clip: self.grad_clip,
            seed: self.seed,
            workers: self.workers,
            min_per_shard: 1,
            train_from: self.freeze_encoder.then_some(head),
        }
    }
}
