//! `start-roadnet`: the road-network substrate of the START reproduction.
//!
//! Provides Definition 1 of the paper — the directed road-segment graph
//! `G = (V, E, F_V, A)` — plus everything the framework and its experiments
//! need from the network side:
//!
//! - [`graph::RoadNetwork`] — directed segment graph with geometry and a
//!   segment grid for candidate lookup;
//! - [`features::road_features`] — the six-feature matrix `F_V` fed to
//!   TPE-GAT (road type, length, lanes, max speed, in/out degree);
//! - [`synth`] — the synthetic Beijing-like / Porto-like city generator that
//!   substitutes for the proprietary OSM + taxi datasets (DESIGN.md §1);
//! - [`transfer::TransferMatrix`] — empirical transfer probabilities (Eq. 2),
//!   the travel-semantics signal of TPE-GAT;
//! - [`shortest_path`] — Dijkstra, the map matcher's bounded search and Yen's
//!   k-shortest paths \[24\] for route choice, map matching and detour
//!   ground-truth generation (§IV-D4);
//! - [`node2vec`](mod@node2vec) — the baseline road-embedding algorithm
//!   \[17\] used by PIM, Toast and the `w/ Node2vec` ablation.

pub mod features;
pub mod graph;
pub mod node2vec;
pub mod shortest_path;
pub mod synth;
pub mod transfer;

pub use features::{road_features, FeatureMatrix};
pub use graph::{Point, RoadKind, RoadNetwork, RoadSegment, SegmentId};
pub use node2vec::{node2vec, Node2VecConfig, NodeEmbeddings};
pub use shortest_path::{dijkstra, yen_ksp, BoundedSearch, Path};
pub use synth::{beijing_like, generate_city, largest_scc, porto_like, City, CityConfig};
pub use transfer::TransferMatrix;
