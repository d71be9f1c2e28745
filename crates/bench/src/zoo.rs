//! The model zoo: START plus the eight baselines behind one runner
//! interface, so every experiment binary trains and evaluates models
//! uniformly.

use start_baselines::{GruSeq2Seq, Pim, Seq2SeqKind, TfKind, TransformerBaseline};
use start_core::{
    fine_tune_classifier, fine_tune_eta, predict_classes, predict_eta, pretrain, PretrainConfig,
    StartConfig, StartModel, TrainConfig, TrajEncoder,
};
use start_roadnet::{node2vec, Node2VecConfig, NodeEmbeddings};
use start_traj::{TrajDataset, TrajView, Trajectory};

use crate::scale::Scale;

/// Which model to run.
#[derive(Debug, Clone)]
pub enum ModelKind {
    /// START with the given (possibly ablated) configuration.
    Start(Box<StartConfig>),
    Traj2Vec,
    T2Vec,
    Trembr,
    Transformer,
    Bert,
    Pim,
    PimTf,
    Toast,
}

impl ModelKind {
    /// The default START at a given scale.
    pub fn start(scale: &Scale) -> Self {
        ModelKind::Start(Box::new(start_config(scale)))
    }

    /// All nine Table II models in the paper's row order.
    pub fn table2_lineup(scale: &Scale) -> Vec<ModelKind> {
        vec![
            ModelKind::Traj2Vec,
            ModelKind::T2Vec,
            ModelKind::Trembr,
            ModelKind::Transformer,
            ModelKind::Bert,
            ModelKind::Pim,
            ModelKind::PimTf,
            ModelKind::Toast,
            ModelKind::start(scale),
        ]
    }

    pub fn needs_node2vec(&self) -> bool {
        use start_core::RoadEncoder;
        match self {
            ModelKind::Pim | ModelKind::Toast => true,
            ModelKind::Start(cfg) => cfg.road_encoder == RoadEncoder::Node2VecEmbedding,
            _ => false,
        }
    }
}

/// START config derived from the experiment scale.
pub fn start_config(scale: &Scale) -> StartConfig {
    StartConfig::builder()
        .dim(scale.dim)
        .gat_heads(vec![scale.heads; scale.gat_layers])
        .encoder_layers(scale.encoder_layers)
        .encoder_heads(scale.heads)
        .ffn_hidden(scale.dim)
        .build()
        .unwrap_or_else(|e| panic!("invalid benchmark scale {scale:?}: {e}"))
}

/// node2vec embeddings at the model dimension (cached per dataset by callers).
pub fn dataset_node2vec(ds: &TrajDataset, dim: usize) -> NodeEmbeddings {
    node2vec(
        &ds.city.net,
        &Node2VecConfig {
            dim,
            epochs: 1,
            walks_per_node: 3,
            walk_length: 16,
            ..Default::default()
        },
    )
}

/// A pre-trainable, fine-tunable, encodable model.
#[allow(clippy::large_enum_variant)]
pub enum Runner {
    Start(Box<StartModel>),
    Gru(GruSeq2Seq),
    Tf(TransformerBaseline),
    Pim(Pim),
}

impl Runner {
    /// Construct an untrained model for a dataset.
    pub fn build(
        kind: &ModelKind,
        ds: &TrajDataset,
        scale: &Scale,
        n2v: Option<&NodeEmbeddings>,
    ) -> Self {
        let n = ds.num_segments();
        let d = scale.dim;
        let max_len = 128;
        match kind {
            ModelKind::Start(cfg) => {
                let model =
                    StartModel::new((**cfg).clone(), &ds.city.net, Some(&ds.transfer), n2v, 1234);
                Runner::Start(Box::new(model))
            }
            ModelKind::Traj2Vec => {
                Runner::Gru(GruSeq2Seq::new(Seq2SeqKind::Traj2Vec, n, d, max_len, 1))
            }
            ModelKind::T2Vec => Runner::Gru(GruSeq2Seq::new(Seq2SeqKind::T2Vec, n, d, max_len, 2)),
            ModelKind::Trembr => {
                Runner::Gru(GruSeq2Seq::new(Seq2SeqKind::Trembr, n, d, max_len, 3))
            }
            ModelKind::Transformer => Runner::Tf(TransformerBaseline::new(
                TfKind::TransformerMlm,
                n,
                d,
                scale.encoder_layers,
                scale.heads,
                max_len,
                None,
                4,
            )),
            ModelKind::Bert => Runner::Tf(TransformerBaseline::new(
                TfKind::Bert,
                n,
                d,
                scale.encoder_layers,
                scale.heads,
                max_len,
                None,
                5,
            )),
            ModelKind::Pim => {
                let table = n2v.expect("PIM needs node2vec");
                Runner::Pim(Pim::new(n, d, max_len, table.data(), 6))
            }
            ModelKind::PimTf => Runner::Tf(TransformerBaseline::new(
                TfKind::PimTf,
                n,
                d,
                scale.encoder_layers,
                scale.heads,
                max_len,
                None,
                7,
            )),
            ModelKind::Toast => {
                let table = n2v.expect("Toast needs node2vec");
                Runner::Tf(TransformerBaseline::new(
                    TfKind::Toast,
                    n,
                    d,
                    scale.encoder_layers,
                    scale.heads,
                    max_len,
                    Some(table.data()),
                    8,
                ))
            }
        }
    }

    /// The model behind the runner, for everything but pre-training.
    fn model(&self) -> &dyn TrajEncoder {
        match self {
            Runner::Start(m) => &**m,
            Runner::Gru(m) => m,
            Runner::Tf(m) => m,
            Runner::Pim(m) => m,
        }
    }

    fn model_mut(&mut self) -> &mut dyn TrajEncoder {
        match self {
            Runner::Start(m) => &mut **m,
            Runner::Gru(m) => m,
            Runner::Tf(m) => m,
            Runner::Pim(m) => m,
        }
    }

    pub fn name(&self) -> &'static str {
        self.model().name()
    }

    /// Self-supervised pre-training at the given scale.
    pub fn pretrain(&mut self, ds: &TrajDataset, scale: &Scale) {
        let (epochs, max_steps, lr) = (scale.pretrain_epochs, scale.pretrain_steps_per_epoch, 5e-4);
        let cfg = train_cfg(epochs, max_steps, lr, BASELINE_SEED, scale);
        match self {
            Runner::Start(model) => {
                let cfg = PretrainConfig {
                    epochs,
                    batch_size: scale.batch_size,
                    max_steps_per_epoch: max_steps,
                    base_lr: lr,
                    ..Default::default()
                };
                pretrain(model, ds.train(), &ds.historical, &cfg);
            }
            Runner::Gru(model) => {
                model.pretrain(ds.train(), &cfg);
            }
            Runner::Tf(model) => {
                model.pretrain(ds.train(), &cfg);
            }
            Runner::Pim(model) => {
                model.pretrain(ds.train(), &cfg);
            }
        }
    }

    /// Zero-shot trajectory embeddings.
    pub fn encode(&self, trajs: &[Trajectory]) -> Vec<Vec<f32>> {
        let views: Vec<TrajView> = trajs.iter().map(TrajView::identity).collect();
        self.model().embed_views(&views)
    }

    /// Snapshot all weights (used to fine-tune per-task from one pre-train).
    pub fn snapshot(&self) -> Vec<u8> {
        start_nn::serialize::save_params(self.model().store()).to_vec()
    }

    /// Restore weights from [`Runner::snapshot`] (head weights are ignored
    /// if the blob lacks them).
    pub fn restore(&mut self, blob: &[u8]) {
        start_nn::serialize::load_params(self.model_mut().store_mut(), blob)
            .expect("valid snapshot");
    }

    /// Fine-tuning settings at `scale`: START and the baselines share every
    /// value but the seed.
    fn ft_cfg(&self, scale: &Scale) -> TrainConfig {
        let seed = match self {
            Runner::Start(_) => TrainConfig::default().seed,
            _ => BASELINE_SEED,
        };
        train_cfg(scale.finetune_epochs, scale.finetune_steps_per_epoch, 1e-3, seed, scale)
    }

    /// Fine-tune for ETA and predict on the test set (seconds).
    pub fn eta(&mut self, train: &[Trajectory], test: &[Trajectory], scale: &Scale) -> Vec<f32> {
        let cfg = self.ft_cfg(scale);
        let model = self.model_mut();
        let head = fine_tune_eta(model, train, &cfg);
        predict_eta(model, &head, test)
    }

    /// Fine-tune a classifier and return test-set class probabilities.
    pub fn classify(
        &mut self,
        train: &[Trajectory],
        labels: &[usize],
        num_classes: usize,
        test: &[Trajectory],
        scale: &Scale,
    ) -> Vec<Vec<f32>> {
        let cfg = self.ft_cfg(scale);
        let model = self.model_mut();
        let head = fine_tune_classifier(model, train, labels, num_classes, &cfg);
        predict_classes(model, &head, test)
    }
}

/// Seed of every baseline training run.
const BASELINE_SEED: u64 = 77;

/// Training settings at the experiment scale.
fn train_cfg(
    epochs: usize,
    max_steps_per_epoch: Option<usize>,
    lr: f32,
    seed: u64,
    scale: &Scale,
) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: scale.batch_size,
        max_steps_per_epoch,
        lr,
        seed,
        ..Default::default()
    }
}

/// Wall-clock a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed())
}
