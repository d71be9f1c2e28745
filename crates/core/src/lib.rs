//! `start-core`: the START framework (Jiang et al., ICDE 2023) —
//! self-supervised trajectory representation learning with temporal
//! regularities and travel semantics.
//!
//! The two-stage architecture of §III:
//!
//! 1. [`tpe_gat::TpeGat`] — Trajectory Pattern-Enhanced Graph Attention
//!    Network (Eqs. 1-4), turning road features + network structure + the
//!    transfer-probability matrix into road representations;
//! 2. [`model::StartModel`] — the Time-Aware Trajectory Encoder (TAT-Enc):
//!    fused road/minute/day-of-week/position embeddings (Eq. 5) feeding a
//!    Transformer whose attention carries the adaptive time-interval bias
//!    of [`interval::IntervalModule`] (Eqs. 6-11), pooled through `[CLS]`.
//!
//! Training is self-supervised ([`pretrain`]): span-masked trajectory
//! recovery (Eqs. 12-13) plus NT-Xent trajectory contrastive learning
//! (Eq. 14) over augmented views, combined by Eq. 15. Downstream adaptation
//! ([`downstream`]) covers travel time estimation (Eq. 16), trajectory
//! classification (Eq. 17), and zero-shot similarity search.
//!
//! Every ablation of the paper's Fig. 7 is a switch on
//! [`config::StartConfig`].

pub mod config;
pub mod downstream;
pub mod encoder;
pub mod interval;
pub mod model;
pub mod pretrain;
pub mod tpe_gat;
pub mod verify;

pub use config::{ConfigError, IntervalMode, RoadEncoder, StartConfig, StartConfigBuilder};
pub use downstream::{
    euclidean, fine_tune_classifier, fine_tune_eta, predict_classes, predict_eta, ClassifierHead,
    EtaHead, TrajEncoder,
};
pub use encoder::{
    fingerprint_view, CacheStats, Embedding, EmbeddingCache, EncodeError, EncodeOptions, Encoder,
    Fingerprint,
};
pub use model::{clamp_view, departure_only_view, EncodedView, StartModel};
pub use pretrain::{
    build_shard_loss, pretrain, pretrain_with_publish, PretrainConfig, PretrainReport,
    StandardShard,
};
pub use start_nn::TrainConfig;
pub use tpe_gat::TpeGat;
pub use verify::{broken_families, symbolic_families, VerifyFixture};
