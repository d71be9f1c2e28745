//! `start-bench`: the experiment harness regenerating every table and
//! figure of the paper's evaluation (§IV). One binary per artifact — see
//! DESIGN.md §3 for the experiment index — plus Criterion benches for the
//! timing studies (Fig. 10).

pub mod datasets;
pub mod report;
pub mod scale;
pub mod sweep;
pub mod zoo;

pub use datasets::{bj_mini, driver_labels, geolife_mini, porto_mini};
pub use report::{f1, f3, Table};
pub use scale::Scale;
pub use zoo::{dataset_node2vec, start_config, timed, ModelKind, Runner};
