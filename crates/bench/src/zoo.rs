//! The model zoo: START plus the eight baselines behind one runner
//! interface, so every experiment binary trains and evaluates models
//! uniformly.

use start_baselines::{
    BaselineEncoder, BaselineTrainConfig, GruSeq2Seq, Pim, Seq2SeqKind, TfKind, TransformerBaseline,
};
use start_core::{
    fine_tune_classifier, fine_tune_eta, predict_classes, predict_eta, pretrain, EncodeOptions,
    FineTuneConfig, PretrainConfig, StartConfig, StartModel,
};
use start_nn::Trainable;
use start_roadnet::{node2vec, Node2VecConfig, NodeEmbeddings};
use start_traj::{TrajDataset, Trajectory};

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

    pub fn name(&self) -> &'static str {
        match self {
            Runner::Start(_) => "START",
            Runner::Gru(m) => m.name(),
            Runner::Tf(m) => m.name(),
            Runner::Pim(m) => m.name(),
        }
    }

    /// Self-supervised pre-training at the given scale.
    pub fn pretrain(&mut self, ds: &TrajDataset, scale: &Scale) {
        match self {
            Runner::Start(model) => {
                let cfg = PretrainConfig {
                    epochs: scale.pretrain_epochs,
                    batch_size: scale.batch_size,
                    max_steps_per_epoch: scale.pretrain_steps_per_epoch,
                    base_lr: 5e-4,
                    ..Default::default()
                };
                pretrain(model, ds.train(), &ds.historical, &cfg);
            }
            Runner::Gru(model) => {
                let cfg = baseline_cfg(scale);
                model.pretrain(ds.train(), &cfg);
            }
            Runner::Tf(model) => {
                let cfg = baseline_cfg(scale);
                model.pretrain(ds.train(), &cfg);
            }
            Runner::Pim(model) => {
                let cfg = baseline_cfg(scale);
                model.pretrain(ds.train(), &cfg);
            }
        }
    }

    /// Zero-shot trajectory embeddings.
    pub fn encode(&self, trajs: &[Trajectory]) -> Vec<Vec<f32>> {
        match self {
            Runner::Start(model) => model
                .encoder()
                .encode(trajs, &EncodeOptions::default())
                .unwrap_or_else(|e| panic!("encode: {e}")),
            Runner::Gru(model) => model.encode(trajs),
            Runner::Tf(model) => model.encode(trajs),
            Runner::Pim(model) => model.encode(trajs),
        }
    }

    /// Snapshot all weights (used to fine-tune per-task from one pre-train).
    pub fn snapshot(&self) -> Vec<u8> {
        start_nn::serialize::save_params(self.store()).to_vec()
    }

    /// Restore weights from [`Runner::snapshot`] (head weights are ignored
    /// if the blob lacks them).
    pub fn restore(&mut self, blob: &[u8]) {
        start_nn::serialize::load_params(self.store_mut(), blob).expect("valid snapshot");
    }

    fn store(&self) -> &start_nn::ParamStore {
        match self {
            Runner::Start(m) => &m.store,
            Runner::Gru(m) => m.store(),
            Runner::Tf(m) => m.store(),
            Runner::Pim(m) => m.store(),
        }
    }

    fn store_mut(&mut self) -> &mut start_nn::ParamStore {
        match self {
            Runner::Start(m) => &mut m.store,
            Runner::Gru(m) => m.store_mut(),
            Runner::Tf(m) => m.store_mut(),
            Runner::Pim(m) => m.store_mut(),
        }
    }

    /// Fine-tune for ETA and predict on the test set (seconds).
    pub fn eta(&mut self, train: &[Trajectory], test: &[Trajectory], scale: &Scale) -> Vec<f32> {
        match self {
            Runner::Start(model) => {
                let cfg = ft_cfg(scale);
                let head = fine_tune_eta(model, train, &cfg);
                predict_eta(model, &head, test)
            }
            Runner::Gru(model) => {
                let cfg = baseline_ft_cfg(scale);
                let head = start_baselines::fine_tune_eta(model, train, &cfg);
                start_baselines::predict_eta(model, &head, test)
            }
            Runner::Tf(model) => {
                let cfg = baseline_ft_cfg(scale);
                let head = start_baselines::fine_tune_eta(model, train, &cfg);
                start_baselines::predict_eta(model, &head, test)
            }
            Runner::Pim(model) => {
                let cfg = baseline_ft_cfg(scale);
                let head = start_baselines::fine_tune_eta(model, train, &cfg);
                start_baselines::predict_eta(model, &head, test)
            }
        }
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
        match self {
            Runner::Start(model) => {
                let cfg = ft_cfg(scale);
                let head = fine_tune_classifier(model, train, labels, num_classes, &cfg);
                predict_classes(model, &head, test)
            }
            Runner::Gru(model) => {
                let cfg = baseline_ft_cfg(scale);
                let head =
                    start_baselines::fine_tune_classifier(model, train, labels, num_classes, &cfg);
                start_baselines::predict_classes(model, &head, test)
            }
            Runner::Tf(model) => {
                let cfg = baseline_ft_cfg(scale);
                let head =
                    start_baselines::fine_tune_classifier(model, train, labels, num_classes, &cfg);
                start_baselines::predict_classes(model, &head, test)
            }
            Runner::Pim(model) => {
                let cfg = baseline_ft_cfg(scale);
                let head =
                    start_baselines::fine_tune_classifier(model, train, labels, num_classes, &cfg);
                start_baselines::predict_classes(model, &head, test)
            }
        }
    }
}

fn baseline_cfg(scale: &Scale) -> BaselineTrainConfig {
    BaselineTrainConfig {
        epochs: scale.pretrain_epochs,
        batch_size: scale.batch_size,
        max_steps_per_epoch: scale.pretrain_steps_per_epoch,
        lr: 5e-4,
        ..Default::default()
    }
}

fn ft_cfg(scale: &Scale) -> FineTuneConfig {
    FineTuneConfig {
        epochs: scale.finetune_epochs,
        batch_size: scale.batch_size,
        max_steps_per_epoch: scale.finetune_steps_per_epoch,
        lr: 1e-3,
        ..Default::default()
    }
}

fn baseline_ft_cfg(scale: &Scale) -> BaselineTrainConfig {
    BaselineTrainConfig {
        epochs: scale.finetune_epochs,
        batch_size: scale.batch_size,
        max_steps_per_epoch: scale.finetune_steps_per_epoch,
        lr: 1e-3,
        ..Default::default()
    }
}

/// Wall-clock a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed())
}
