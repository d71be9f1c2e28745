//! Top-k-detour ground-truth generation for the similarity-search
//! experiments (§IV-D4).
//!
//! For a query trajectory, a consecutive sub-trajectory covering at most
//! `p_d` of its length is replaced by an alternative route between the same
//! two roads, found with Yen's top-k search, whose travel time differs from
//! the original by more than the threshold `t_d`. The detoured copy is the
//! unique ground-truth match of the query inside a database padded with
//! detours of unrelated trajectories.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use start_roadnet::{yen_ksp, RoadNetwork, SegmentId};

use crate::congestion::{congestion_factor, congestion_factors};
use crate::types::{Timestamp, Trajectory};

/// Parameters of the detour generator, defaulting to the paper's
/// (`p_d = 0.2`, `t_d = 0.2`, top-k with k = 8).
#[derive(Debug, Clone)]
pub struct DetourConfig {
    /// Max fraction of the trajectory replaced.
    pub select_proportion: f64,
    /// Minimum relative travel-time difference of the replacement.
    pub time_threshold: f64,
    /// Yen's k.
    pub k: usize,
    pub seed: u64,
}

impl Default for DetourConfig {
    fn default() -> Self {
        Self { select_proportion: 0.2, time_threshold: 0.2, k: 8, seed: 99 }
    }
}

/// A query set with its detour database (§IV-D4 setup).
#[derive(Debug, Clone)]
pub struct DetourBenchmark {
    /// The original query trajectories (`D_Q`).
    pub queries: Vec<Trajectory>,
    /// The database `D_D = D_Q' ∪ D_N'`; entry `i` (for `i < queries.len()`)
    /// is the detour of query `i`, i.e. its ground truth.
    pub database: Vec<Trajectory>,
}

impl DetourBenchmark {
    /// Ground-truth database index for query `q`.
    pub fn truth(&self, q: usize) -> usize {
        q
    }
}

/// Produce a detoured variant of `traj`, or `None` if no qualifying
/// alternative route exists anywhere along it.
pub fn make_detour(
    net: &RoadNetwork,
    traj: &Trajectory,
    cfg: &DetourConfig,
    rng: &mut StdRng,
) -> Option<Trajectory> {
    let n = traj.len();
    let sub_len = ((n as f64 * cfg.select_proportion) as usize).clamp(2, n.saturating_sub(1));
    let expected_time = |seg: SegmentId, t: Timestamp| {
        let s = net.segment(seg);
        s.free_flow_secs() as f64 / congestion_factor(s.kind, t) as f64
    };

    for _attempt in 0..8 {
        let i = rng.gen_range(0..n - sub_len + 1);
        let j = i + sub_len - 1;
        let (from, to) = (traj.roads[i], traj.roads[j]);
        if from == to {
            continue;
        }
        let t0 = traj.times[i];
        let exit_j = if j + 1 < n { traj.times[j + 1] } else { traj.arrival };
        let orig_time = (exit_j - t0) as f64;
        if orig_time <= 0.0 {
            continue;
        }

        // Every search of this attempt departs at `t0`: one factor per kind.
        let factors = congestion_factors(t0);
        let paths = yen_ksp(net, from, to, cfg.k, |_, next| {
            let s = net.segment(next);
            s.free_flow_secs() as f64 / factors[s.kind.one_hot_index()]
        });
        let original_sub = &traj.roads[i..=j];
        let candidate = paths.iter().find(|p| {
            if p.segments == original_sub {
                return false;
            }
            let rel = (p.cost - orig_time).abs() / orig_time;
            rel > cfg.time_threshold
        });
        // Fall back to any alternative shape if no path clears the time bar.
        let candidate = candidate.or_else(|| paths.iter().find(|p| p.segments != original_sub))?;

        // Assemble: prefix + replacement + suffix.
        let mut roads = traj.roads[..i].to_vec();
        roads.extend_from_slice(&candidate.segments);
        roads.extend_from_slice(&traj.roads[j + 1..]);

        // Timestamps: prefix kept; replacement gets expected durations from
        // t0; suffix keeps its original per-road durations, shifted.
        let mut times = traj.times[..i].to_vec();
        let mut t = t0 as f64;
        for &seg in &candidate.segments {
            times.push(t as Timestamp);
            t += expected_time(seg, t as Timestamp);
        }
        let shift = t as Timestamp - exit_j;
        for k in j + 1..n {
            times.push(traj.times[k] + shift);
        }
        let arrival = traj.arrival + shift;

        let detoured = Trajectory { roads, times, arrival, ..traj.clone() };
        if detoured.validate().is_ok() && detoured.len() >= 2 {
            return Some(detoured);
        }
    }
    None
}

/// Build the full §IV-D4 benchmark: `num_queries` queries with detour ground
/// truths plus `num_negatives` detoured distractors.
pub fn build_benchmark(
    net: &RoadNetwork,
    test_pool: &[Trajectory],
    num_queries: usize,
    num_negatives: usize,
    cfg: &DetourConfig,
) -> DetourBenchmark {
    assert!(
        test_pool.len() >= num_queries + num_negatives,
        "pool of {} too small for {num_queries} queries + {num_negatives} negatives",
        test_pool.len()
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..test_pool.len()).collect();
    // Fisher-Yates to decouple query choice from dataset order.
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }

    let mut queries = Vec::with_capacity(num_queries);
    let mut database = Vec::with_capacity(num_queries + num_negatives);
    let mut negatives = Vec::with_capacity(num_negatives);
    for &idx in &order {
        let traj = &test_pool[idx];
        let need_queries = queries.len() < num_queries;
        let need_negs = negatives.len() < num_negatives;
        if !need_queries && !need_negs {
            break;
        }
        if let Some(det) = make_detour(net, traj, cfg, &mut rng) {
            if need_queries {
                queries.push(traj.clone());
                database.push(det);
            } else {
                negatives.push(det);
            }
        }
    }
    assert_eq!(queries.len(), num_queries, "not enough detourable queries");
    database.extend(negatives);
    DetourBenchmark { queries, database }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::{SimConfig, Simulator};
    use start_roadnet::synth::{generate_city, CityConfig};

    fn setup() -> (start_roadnet::City, Vec<Trajectory>) {
        let city = generate_city("t", &CityConfig::tiny());
        let sim = Simulator::new(
            &city.net,
            SimConfig { num_trajectories: 120, num_drivers: 6, ..Default::default() },
        );
        let data = sim.generate();
        (city, data)
    }

    #[test]
    fn detour_differs_but_shares_endpoints() {
        let (city, data) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = DetourConfig::default();
        let mut made = 0;
        for traj in data.iter().take(30) {
            if let Some(det) = make_detour(&city.net, traj, &cfg, &mut rng) {
                made += 1;
                assert_eq!(det.origin(), traj.origin());
                assert_eq!(det.destination(), traj.destination());
                assert_ne!(det.roads, traj.roads, "detour must change the route");
                assert!(city.net.is_path(&det.roads), "detour must stay connected");
                assert!(det.validate().is_ok());
            }
        }
        assert!(made >= 20, "only {made}/30 detours made");
    }

    #[test]
    fn benchmark_has_queries_truths_and_negatives() {
        let (city, data) = setup();
        let bench = build_benchmark(&city.net, &data, 20, 40, &DetourConfig::default());
        assert_eq!(bench.queries.len(), 20);
        assert_eq!(bench.database.len(), 60);
        for q in 0..20 {
            let truth = &bench.database[bench.truth(q)];
            assert_eq!(truth.origin(), bench.queries[q].origin());
            assert_eq!(truth.destination(), bench.queries[q].destination());
        }
    }

    #[test]
    #[should_panic(expected = "pool of")]
    fn benchmark_rejects_undersized_pool() {
        let (city, data) = setup();
        build_benchmark(&city.net, &data[..10], 20, 40, &DetourConfig::default());
    }
}
