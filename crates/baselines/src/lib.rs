//! `start-baselines`: the eight baselines of the START paper's §IV-B,
//! implemented from scratch on the same `start-nn` substrate so Table II
//! comparisons are apples-to-apples.
//!
//! - Encoder-decoder with reconstruction: [`GruSeq2Seq`] covering
//!   traj2vec \[9\], t2vec \[8\] and Trembr \[7\];
//! - Self-supervised sequence models: [`TransformerBaseline`] covering
//!   Transformer (MLM) \[11\] and BERT \[10\];
//! - Two-stage models: [`Pim`] (node2vec + RNN + mutual information) \[6\],
//!   PIM-TF (the same objective on a Transformer) and Toast \[5\]
//!   (node2vec + MLM + trajectory discrimination), the latter two also via
//!   [`TransformerBaseline`].
//!
//! All implement [`start_core::TrajEncoder`], so START's task heads
//! (`start_core::downstream`) fine-tune them under the same protocol as
//! START itself (§IV-C1).

pub mod encoder;
pub mod gru_seq2seq;
pub mod pim;
pub mod transformer_family;
pub mod verify;

pub use encoder::SeqEmbedder;
pub use gru_seq2seq::{GruSeq2Seq, Seq2SeqKind};
pub use pim::Pim;
pub use transformer_family::{TfKind, TransformerBaseline};
pub use verify::symbolic_families;
