//! # start-rs
//!
//! Pure-Rust reproduction of **START** (Jiang et al., ICDE 2023):
//! *Self-supervised Trajectory Representation Learning with Temporal
//! Regularities and Travel Semantics*.
//!
//! This facade crate re-exports the workspace members; see the README for
//! the architecture map and DESIGN.md for the paper-to-module index.
//!
//! ```
//! use start::core::{EncodeOptions, StartConfig, StartModel, pretrain, PretrainConfig};
//! use start::roadnet::synth::{generate_city, CityConfig};
//! use start::traj::{TrajDataset, SimConfig, PreprocessConfig};
//!
//! // A tiny end-to-end run: city -> trajectories -> pre-trained embeddings.
//! let city = generate_city("demo", &CityConfig::tiny());
//! let sim = SimConfig { num_trajectories: 60, num_drivers: 4, ..Default::default() };
//! let ds = TrajDataset::build(city, sim, &PreprocessConfig::default());
//! let mut model = StartModel::new(
//!     StartConfig::test_scale(), &ds.city.net, Some(&ds.transfer), None, 42);
//! let cfg = PretrainConfig {
//!     epochs: 1, batch_size: 8, max_steps_per_epoch: Some(2), ..Default::default() };
//! pretrain(&mut model, ds.train(), &ds.historical, &cfg);
//! let embeddings = model.encoder()
//!     .encode(&ds.test()[..3], &EncodeOptions::default())
//!     .unwrap();
//! assert_eq!(embeddings.len(), 3);
//! ```
//!
//! For online inference — micro-batched workers, an embedding cache, and a
//! kNN endpoint — see [`serve::Router`].

pub use start_baselines as baselines;
pub use start_core as core;
pub use start_eval as eval;
pub use start_nn as nn;
pub use start_roadnet as roadnet;
pub use start_serve as serve;
pub use start_traj as traj;
