//! `start-traj`: trajectory data substrate of the START reproduction.
//!
//! Covers Definitions 2-3 of the paper and the full data pipeline of §IV-A:
//!
//! - [`types`] — GPS and road-network-constrained trajectories, the
//!   simulation clock with the paper's `mi(t)` / `di(t)` index functions;
//! - [`congestion`] — the demand and congestion curves giving the synthetic
//!   data its temporal regularities (Fig. 1);
//! - [`simulate`] — the congestion-aware trajectory simulator substituting
//!   for the proprietary taxi fleets (DESIGN.md §4);
//! - [`map_match`](mod@map_match) — HMM (Viterbi) map matching from raw GPS
//!   to road sequences, with FMM's segment grid and bounded transition
//!   searches;
//! - [`preprocess`](mod@preprocess) — the paper's filters and chronological
//!   splits;
//! - [`augment`] — the four contrastive data-augmentation strategies
//!   (§III-C2) and the span-mask selector (§III-C1);
//! - [`detour`] — top-k-detour ground-truth generation for similarity
//!   search (§IV-D4);
//! - [`dataset`] — bundled, experiment-ready datasets with Table I stats.

pub mod augment;
pub mod congestion;
pub mod dataset;
pub mod detour;
pub mod map_match;
pub mod preprocess;
pub mod simulate;
pub mod types;

pub use augment::{choose_span_mask, Augmentation, TrajView};
pub use congestion::{congestion_factor, demand_intensity};
pub use dataset::{Table1Row, TrajDataset};
pub use detour::{build_benchmark, make_detour, DetourBenchmark, DetourConfig};
pub use map_match::{map_match, MatchConfig, MatchError};
pub use preprocess::{preprocess, PreprocessConfig, PreprocessStats, SplitDataset};
pub use simulate::{historical_mean_durations, SimConfig, Simulator};
pub use types::{
    day_of_week_index, hour_of_day, is_weekend, minute_index, GpsPoint, RawTrajectory, Timestamp,
    Trajectory, TravelMode,
};
