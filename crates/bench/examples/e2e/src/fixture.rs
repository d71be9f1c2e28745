//! Everything the workloads share: the pinned city and model, the
//! simulator front-end, and the measurement helpers.
//!
//! The model, city and every size are pinned here rather than taken from
//! `start_bench` presets or `START_*` switches, so a commit that changes
//! those defaults does not silently change what this benchmark measures.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use start_core::{StartConfig, StartModel};
use start_roadnet::{City, TransferMatrix};
use start_traj::{SimConfig, Simulator, Trajectory};

/// Seed of the model weights; the workload seed only drives the data.
pub const WEIGHTS_SEED: u64 = 77;

/// The model every workload runs: TPE-GAT (2 layers × 4 heads) feeding a
/// 2-layer TAT-Enc at d = 48.
pub fn model_config() -> StartConfig {
    StartConfig::builder()
        .dim(48)
        .gat_heads(vec![4, 4])
        .encoder_layers(2)
        .encoder_heads(4)
        .ffn_hidden(48)
        .build()
        .expect("the pinned model configuration is valid")
}

/// The 960-segment Beijing-like city.
pub fn city() -> City {
    start_roadnet::beijing_like()
}

/// `n` trajectories simulated on `city` from `seed`, plus the simulator
/// (which renders raw GPS for the ingestion workload).
pub fn simulate(city: &City, n: usize, seed: u64) -> (Simulator<'_>, Vec<Trajectory>) {
    let sim =
        Simulator::new(&city.net, SimConfig { num_trajectories: n, seed, ..Default::default() });
    let data = sim.generate();
    (sim, data)
}

/// The pinned model over `city`, with TPE-GAT's transfer probabilities
/// taken from `data`.
pub fn model(city: &City, data: &[Trajectory]) -> StartModel {
    let tm = TransferMatrix::from_sequences(
        city.net.num_segments(),
        data.iter().map(|t| t.roads.as_slice()),
    );
    StartModel::new(model_config(), &city.net, Some(&tm), None, WEIGHTS_SEED)
}

/// A seeded stream that is stable across platforms (the vendored `rand`
/// stand-in), mixed so nearby seeds give unrelated streams.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// A standard normal draw (Box–Muller).
pub fn normal(rng: &mut StdRng) -> f32 {
    let u1 = 1.0 - rng.gen::<f64>();
    let u2 = rng.gen::<f64>();
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn median(v: &[f64]) -> f64 {
    crate::loadgen::percentile(&crate::loadgen::sorted(v.to_vec()), 50.0)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Peak resident set (VmHWM) of this process in MiB; `0.0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-drift canary: a fixed scalar loop (~50 ms on a 2020s x86 core),
/// timed three times, median reported in ms. It touches no repository
/// code, so a change in it between runs is the host, not the program.
pub fn canary_ms() -> f64 {
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1Du64);
            let mut acc = 0u64;
            for _ in 0..24_000_000u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.wrapping_add(x);
            }
            std::hint::black_box(acc);
            ms(t.elapsed())
        })
        .collect();
    median(&runs)
}

/// Set-ups per run: at least `MIN_SETUPS`, more (up to `MAX_SETUPS`)
/// while their total is under `SETUP_BUDGET_S`, so a cheap set-up's median
/// rests on more samples.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 1.0;

/// Run `setup` several times and keep the last result; returns it with the
/// median set-up time in seconds. Earlier results are dropped before the
/// next set-up starts, so peak memory is one set-up's worth.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs: Vec<f64> = Vec::with_capacity(MAX_SETUPS);
    let mut kept = None;
    while secs.len() < MIN_SETUPS
        || (secs.len() < MAX_SETUPS && secs.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(kept.take());
        let t = Instant::now();
        let value = setup();
        secs.push(t.elapsed().as_secs_f64());
        kept = Some(value);
    }
    (kept.expect("at least one set-up ran"), median(&secs))
}

/// One workload run's outcome.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Latency samples behind the latency percentiles.
    pub samples: usize,
    /// Named output checks: `(name, passed, detail)`.
    pub checks: Vec<(&'static str, bool, String)>,
    /// Metric values by name; the caller adds `setup_s` and `peak_rss_mb`.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, passed: bool, detail: String) {
        self.checks.push((name, passed, detail));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record the latency percentiles of per-operation latencies (ms),
    /// given in the order the operations ran: each percentile is its
    /// lowest value over consecutive groups (see [`group_len`]).
    pub fn latencies(&mut self, ms: Vec<f64>) {
        self.samples = ms.len();
        let (mut p50, mut p90) = (Vec::new(), Vec::new());
        for group in ms.chunks(group_len(ms.len())) {
            let s = crate::loadgen::sorted(group.to_vec());
            p50.push(crate::loadgen::percentile(&s, 50.0));
            p90.push(crate::loadgen::percentile(&s, 90.0));
        }
        self.set("latency_p50_ms", best(p50, f64::min));
        self.set("latency_p90_ms", best(p90, f64::min));
    }
}

/// A run's operations are split into consecutive groups, and its latency
/// and throughput figures are the best any group reached. Other tenants
/// of a shared host only ever slow the program down, in stretches of a
/// second to minutes, so a run's best stretch is the steadiest estimate
/// of the program's own speed. Computed from the same ten runs of one
/// commit on a shared two-vCPU VM in a noisy hour, the median over groups
/// spread by up to 34% of its value across the runs, the best group by
/// at most 21%. There are at most `MAX_GROUPS`, each of at least
/// `MIN_GROUP` operations.
const MAX_GROUPS: usize = 15;
const MIN_GROUP: usize = 30;

fn group_len(n: usize) -> usize {
    n.div_ceil((n / MIN_GROUP).clamp(1, MAX_GROUPS)).max(1)
}

/// The best of the groups' values under `pick` (`f64::min` or `f64::max`);
/// 0 when there are none.
fn best(values: Vec<f64>, pick: fn(f64, f64) -> f64) -> f64 {
    values.into_iter().reduce(pick).unwrap_or(0.0)
}

/// Items per second, as the highest over consecutive groups of operations
/// (see [`group_len`]) of the group's items over the time from the
/// previous group's last completion (or the phase start) to its own.
/// `ends` are completion times since the phase start.
pub fn windowed_rate(ends: &[Duration], items_per_op: f64) -> f64 {
    let mut ends: Vec<f64> = ends.iter().map(Duration::as_secs_f64).collect();
    ends.sort_by(f64::total_cmp);
    let mut from = 0.0;
    let rates: Vec<f64> = ends
        .chunks(group_len(ends.len()))
        .map(|group| {
            let to = group[group.len() - 1];
            let rate = group.len() as f64 * items_per_op / (to - from);
            from = to;
            rate
        })
        .collect();
    best(rates, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_hold_at_least_30_operations_and_at_most_fifteen_form() {
        assert_eq!(group_len(0), 1);
        assert_eq!(group_len(29), 29);
        assert_eq!(group_len(270), 30);
        assert_eq!(group_len(720), 48);
        assert_eq!(group_len(100_000), 6_667);
    }

    #[test]
    fn figures_come_from_the_best_group() {
        // 500 operations of 10 ms, except that the first 300 take 20 ms
        // and thirty of the rest 100 ms.
        let ms: Vec<f64> = (0..500)
            .map(|i| match i {
                0..300 => 20.0,
                400..430 => 100.0,
                _ => 10.0,
            })
            .collect();
        let mut out = Outcome::default();
        out.latencies(ms.clone());
        assert_eq!(out.metrics["latency_p50_ms"], 10.0);
        assert_eq!(out.metrics["latency_p90_ms"], 10.0);
        assert_eq!(out.samples, 500);
        let mut t = Duration::ZERO;
        let ends: Vec<Duration> = ms
            .iter()
            .map(|m| {
                t += Duration::from_secs_f64(m / 1e3);
                t
            })
            .collect();
        let rate = windowed_rate(&ends, 2.0);
        assert!((rate - 200.0).abs() < 1e-6, "{rate}");
        assert_eq!(windowed_rate(&[], 1.0), 0.0);
    }
}
