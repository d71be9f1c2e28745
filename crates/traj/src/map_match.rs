//! HMM map matching (§II-A, reference \[3\] of the paper).
//!
//! Aligns raw GPS points with road segments: hidden states are candidate
//! segments per point, emission probability decays with the point-to-segment
//! distance (Gaussian), and transition probability compares the on-network
//! route distance between consecutive candidates with the straight-line
//! distance (exponential), exactly the Newson-Krumm / FMM recipe. Decoding
//! is Viterbi; the resulting segment sequence is deduplicated and stitched
//! into a connected path with shortest-path gap filling.
//!
//! It keeps FMM's two speed-ups without its precomputed table: candidates
//! come from [`RoadNetwork::segments_near`]'s segment grid, and the route
//! distances of a transition come from one [`BoundedSearch`] per previous
//! candidate, to all current candidates at once, within the transition's
//! bound `4 · euclid + 500` m.

use start_roadnet::{dijkstra, BoundedSearch, Point, RoadNetwork, SegmentId};

use crate::types::{RawTrajectory, Timestamp, Trajectory, TravelMode};

/// Map-matching parameters.
#[derive(Debug, Clone)]
pub struct MatchConfig {
    /// Candidate search radius in meters.
    pub radius_m: f64,
    /// Max candidates per GPS point.
    pub max_candidates: usize,
    /// GPS noise standard deviation (emission model), meters.
    pub sigma_m: f64,
    /// Transition tolerance (route-vs-euclid discrepancy scale), meters.
    pub beta_m: f64,
}

impl Default for MatchConfig {
    fn default() -> Self {
        Self { radius_m: 60.0, max_candidates: 4, sigma_m: 10.0, beta_m: 80.0 }
    }
}

impl MatchConfig {
    fn validate(&self) -> Result<(), MatchError> {
        let positive = |v: f64| v.is_finite() && v > 0.0;
        if self.max_candidates == 0 {
            return Err(MatchError::InvalidConfig("max_candidates must be at least 1"));
        }
        if !positive(self.radius_m) {
            return Err(MatchError::InvalidConfig("radius_m must be finite and positive"));
        }
        if !positive(self.sigma_m) {
            return Err(MatchError::InvalidConfig("sigma_m must be finite and positive"));
        }
        if !positive(self.beta_m) {
            return Err(MatchError::InvalidConfig("beta_m must be finite and positive"));
        }
        Ok(())
    }
}

/// Errors from [`map_match`].
#[derive(Debug, PartialEq, Eq)]
pub enum MatchError {
    /// A [`MatchConfig`] field is out of range.
    InvalidConfig(&'static str),
    /// Fewer than two GPS points.
    TooShort,
    /// GPS point `point_index` is earlier than the point before it.
    UnsortedTimes { point_index: usize },
    /// Some GPS point had no candidate segment within the radius.
    NoCandidates { point_index: usize },
    /// The Viterbi lattice broke (no connected transition anywhere).
    Disconnected,
}

impl std::fmt::Display for MatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatchError::InvalidConfig(why) => write!(f, "invalid match config: {why}"),
            MatchError::TooShort => write!(f, "trajectory has fewer than two GPS points"),
            MatchError::UnsortedTimes { point_index } => {
                write!(f, "GPS point {point_index} is earlier than the point before it")
            }
            MatchError::NoCandidates { point_index } => {
                write!(f, "no road within radius of GPS point {point_index}")
            }
            MatchError::Disconnected => write!(f, "no connected road path explains the GPS trace"),
        }
    }
}

impl std::error::Error for MatchError {}

/// Match a raw GPS trajectory onto the road network, producing the
/// road-network constrained trajectory of Definition 3.
pub fn map_match(
    net: &RoadNetwork,
    raw: &RawTrajectory,
    cfg: &MatchConfig,
) -> Result<Trajectory, MatchError> {
    cfg.validate()?;
    if raw.points.len() < 2 {
        return Err(MatchError::TooShort);
    }
    if let Some(i) = raw.points.windows(2).position(|w| w[1].t < w[0].t) {
        return Err(MatchError::UnsortedTimes { point_index: i + 1 });
    }
    // Candidate states per point.
    let mut candidates: Vec<Vec<(SegmentId, f64)>> = Vec::with_capacity(raw.points.len());
    for (i, p) in raw.points.iter().enumerate() {
        let mut near = net.segments_near(Point::new(p.x, p.y), cfg.radius_m);
        near.truncate(cfg.max_candidates);
        if near.is_empty() {
            return Err(MatchError::NoCandidates { point_index: i });
        }
        candidates.push(near);
    }

    // Viterbi in log space.
    let emission = |dist: f64| -0.5 * (dist / cfg.sigma_m).powi(2);
    let mut scores: Vec<f64> = candidates[0].iter().map(|&(_, d)| emission(d)).collect();
    let mut backptr: Vec<Vec<usize>> = Vec::with_capacity(candidates.len());
    let mut search = BoundedSearch::new();
    // `routes[i * width + j]`: route distance from candidate `i` of the
    // previous point to candidate `j` of this one, within the bound.
    let mut routes: Vec<Option<f64>> = Vec::new();

    for t in 1..candidates.len() {
        let p_prev = &raw.points[t - 1];
        let p_cur = &raw.points[t];
        let euclid = Point::new(p_prev.x, p_prev.y).distance(Point::new(p_cur.x, p_cur.y));
        let bound = euclid * 4.0 + 500.0;
        let targets: Vec<SegmentId> = candidates[t].iter().map(|&(seg, _)| seg).collect();
        let width = targets.len();
        routes.clear();
        routes.resize(candidates[t - 1].len() * width, None);
        for (i, &(prev_cand, _)) in candidates[t - 1].iter().enumerate() {
            if scores[i] == f64::NEG_INFINITY {
                continue;
            }
            search.run(net, prev_cand, &targets, bound);
            for (route, &to) in routes[i * width..(i + 1) * width].iter_mut().zip(&targets) {
                *route = search.cost(to);
            }
        }
        let mut new_scores = vec![f64::NEG_INFINITY; width];
        let mut ptrs = vec![0usize; width];
        for (j, &(_, dist)) in candidates[t].iter().enumerate() {
            let emit = emission(dist);
            // A previous candidate without a score has no routes.
            for (i, &score) in scores.iter().enumerate() {
                let Some(route) = routes[i * width + j] else {
                    continue;
                };
                let trans = -((route - euclid).abs() / cfg.beta_m);
                let s = score + trans + emit;
                if s > new_scores[j] {
                    new_scores[j] = s;
                    ptrs[j] = i;
                }
            }
        }
        if new_scores.iter().all(|s| *s == f64::NEG_INFINITY) {
            return Err(MatchError::Disconnected);
        }
        scores = new_scores;
        backptr.push(ptrs);
    }

    // Backtrace.
    let mut best = scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("non-empty candidates"); // lint-ok: each point has a candidate
    let mut state_seq = vec![candidates[candidates.len() - 1][best].0];
    let mut times = vec![raw.points[raw.points.len() - 1].t];
    for t in (0..backptr.len()).rev() {
        best = backptr[t][best];
        state_seq.push(candidates[t][best].0);
        times.push(raw.points[t].t);
    }
    state_seq.reverse();
    times.reverse();

    // Deduplicate consecutive repeats, keeping first-visit timestamps, then
    // stitch non-adjacent hops with shortest paths (interpolated times).
    let mut roads: Vec<SegmentId> = Vec::with_capacity(state_seq.len());
    let mut visit_times: Vec<Timestamp> = Vec::with_capacity(state_seq.len());
    for (seg, t) in state_seq.into_iter().zip(times) {
        if roads.last() == Some(&seg) {
            continue;
        }
        if let (Some(&prev), Some(&t_prev)) = (roads.last(), visit_times.last()) {
            if !net.successors(prev).contains(&seg) {
                if let Some(path) =
                    dijkstra(net, prev, seg, |_, next| net.segment(next).length_m as f64)
                {
                    let gap = path.segments.len() - 1;
                    for (k, &mid) in path.segments[1..path.segments.len() - 1].iter().enumerate() {
                        roads.push(mid);
                        let frac = (k + 1) as f64 / gap as f64;
                        visit_times.push(t_prev + ((t - t_prev) as f64 * frac) as Timestamp);
                    }
                } else {
                    return Err(MatchError::Disconnected);
                }
            }
        }
        roads.push(seg);
        visit_times.push(t);
    }

    let arrival = *visit_times.last().expect("non-empty"); // lint-ok: ≥ 2 points (TooShort above)
    Ok(Trajectory {
        roads,
        times: visit_times,
        driver: raw.driver,
        occupied: false,
        mode: TravelMode::CarTaxi,
        arrival,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::{SimConfig, Simulator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use start_roadnet::synth::{generate_city, CityConfig};

    #[test]
    fn too_short_rejected() {
        let city = generate_city("t", &CityConfig::tiny());
        let raw = RawTrajectory { points: vec![], driver: 0 };
        assert!(matches!(
            map_match(&city.net, &raw, &MatchConfig::default()),
            Err(MatchError::TooShort)
        ));
    }

    #[test]
    fn far_away_point_reports_no_candidates() {
        let city = generate_city("t", &CityConfig::tiny());
        let raw = RawTrajectory {
            points: vec![
                crate::types::GpsPoint { x: 1e7, y: 1e7, t: 0 },
                crate::types::GpsPoint { x: 1e7, y: 1e7, t: 15 },
            ],
            driver: 0,
        };
        assert!(matches!(
            map_match(&city.net, &raw, &MatchConfig::default()),
            Err(MatchError::NoCandidates { .. })
        ));
    }

    /// One simulated tiny-city trace, rendered as GPS every 15 s.
    fn simulated_trace() -> (start_roadnet::City, RawTrajectory) {
        let city = generate_city("t", &CityConfig::tiny());
        let raw = {
            let sim = Simulator::new(
                &city.net,
                SimConfig { num_trajectories: 4, num_drivers: 2, ..Default::default() },
            );
            let traj = sim.generate().into_iter().next().expect("one trajectory");
            sim.to_raw_gps(&traj, 15, 5.0, &mut StdRng::seed_from_u64(3))
        };
        (city, raw)
    }

    #[test]
    fn backwards_timestamps_are_rejected() {
        let (city, mut raw) = simulated_trace();
        let last = raw.points.len() - 1;
        assert!(last >= 2, "trace too short to unsort");
        assert!(map_match(&city.net, &raw, &MatchConfig::default()).is_ok());
        let (first_t, last_t) = (raw.points[0].t, raw.points[last].t);
        raw.points[0].t = last_t;
        raw.points[last].t = first_t;
        assert_eq!(
            map_match(&city.net, &raw, &MatchConfig::default()).err(),
            Some(MatchError::UnsortedTimes { point_index: 1 })
        );
        // Equal timestamps are sorted, as `Trajectory::validate` has it.
        raw.points[0].t = raw.points[1].t;
        assert_eq!(
            map_match(&city.net, &raw, &MatchConfig::default()).err(),
            Some(MatchError::UnsortedTimes { point_index: last })
        );
    }

    #[test]
    fn invalid_configs_are_rejected_before_any_work() {
        let (city, raw) = simulated_trace();
        let base = MatchConfig::default();
        let bad = [
            MatchConfig { max_candidates: 0, ..base.clone() },
            MatchConfig { radius_m: f64::NAN, ..base.clone() },
            MatchConfig { radius_m: 0.0, ..base.clone() },
            MatchConfig { radius_m: f64::INFINITY, ..base.clone() },
            MatchConfig { sigma_m: 0.0, ..base.clone() },
            MatchConfig { sigma_m: -10.0, ..base.clone() },
            MatchConfig { sigma_m: f64::INFINITY, ..base.clone() },
            MatchConfig { beta_m: 0.0, ..base.clone() },
            MatchConfig { beta_m: f64::NAN, ..base.clone() },
        ];
        for cfg in &bad {
            assert!(
                matches!(map_match(&city.net, &raw, cfg), Err(MatchError::InvalidConfig(_))),
                "{cfg:?}"
            );
            // Checked before the trace itself.
            let empty = RawTrajectory { points: vec![], driver: 0 };
            assert!(matches!(map_match(&city.net, &empty, cfg), Err(MatchError::InvalidConfig(_))));
        }
        assert!(map_match(&city.net, &raw, &base).is_ok());
    }

    #[test]
    fn recovers_simulated_route() {
        let city = generate_city("t", &CityConfig::tiny());
        let sim = Simulator::new(
            &city.net,
            SimConfig { num_trajectories: 20, num_drivers: 4, ..Default::default() },
        );
        let data = sim.generate();
        let mut rng = StdRng::seed_from_u64(11);
        let mut recovered = 0.0;
        let mut total = 0.0;
        for traj in data.iter().take(8) {
            let raw = sim.to_raw_gps(traj, 15, 5.0, &mut rng);
            if raw.points.len() < 3 {
                continue;
            }
            let matched = map_match(&city.net, &raw, &MatchConfig::default()).expect("match");
            assert!(matched.validate().is_ok());
            assert!(city.net.is_path(&matched.roads), "matched output must be connected");
            // Route recovery: fraction of true roads present in the match.
            let set: std::collections::HashSet<_> = matched.roads.iter().collect();
            let hit = traj.roads.iter().filter(|r| set.contains(r)).count();
            recovered += hit as f64;
            total += traj.roads.len() as f64;
        }
        assert!(total > 0.0);
        let recall = recovered / total;
        assert!(recall > 0.7, "route recovery too low: {recall:.2}");
    }
}
