//! `map_match` against the per-pair matcher it replaced, kept here as the
//! oracle: candidates by a full linear scan of the segments, and one full
//! point-to-point `dijkstra` per (previous, current) candidate pair, whose
//! cost is rejected after the search when it exceeds the bound. The grid
//! lookup and the one bounded search per previous candidate must give the
//! same roads, times, arrival and error, bit for bit.

use rand::rngs::StdRng;
use rand::SeedableRng;
use start_roadnet::{
    dijkstra, generate_city, porto_like, City, CityConfig, Point, RoadNetwork, SegmentId,
};
use start_traj::{
    map_match, GpsPoint, MatchConfig, MatchError, RawTrajectory, SimConfig, Simulator, Timestamp,
    Trajectory, TravelMode,
};

/// Every segment within `radius` of `p`, nearest first, ties in id order.
fn scan_near(net: &RoadNetwork, p: Point, radius: f64) -> Vec<(SegmentId, f64)> {
    let mut out: Vec<(SegmentId, f64)> = net
        .segments()
        .iter()
        .enumerate()
        .filter_map(|(i, s)| {
            let (_, d) = s.project(p);
            (d <= radius).then_some((SegmentId(i as u32), d))
        })
        .collect();
    out.sort_by(|a, b| a.1.total_cmp(&b.1));
    out
}

fn route_distance(net: &RoadNetwork, from: SegmentId, to: SegmentId, bound: f64) -> Option<f64> {
    if from == to {
        return Some(0.0);
    }
    let path = dijkstra(net, from, to, |_, next| net.segment(next).length_m as f64)?;
    (path.cost <= bound).then_some(path.cost)
}

fn oracle_map_match(
    net: &RoadNetwork,
    raw: &RawTrajectory,
    cfg: &MatchConfig,
) -> Result<Trajectory, MatchError> {
    if raw.points.len() < 2 {
        return Err(MatchError::TooShort);
    }
    let mut candidates: Vec<Vec<(SegmentId, f64)>> = Vec::with_capacity(raw.points.len());
    for (i, p) in raw.points.iter().enumerate() {
        let mut near = scan_near(net, Point::new(p.x, p.y), cfg.radius_m);
        near.truncate(cfg.max_candidates);
        if near.is_empty() {
            return Err(MatchError::NoCandidates { point_index: i });
        }
        candidates.push(near);
    }

    let emission = |dist: f64| -0.5 * (dist / cfg.sigma_m).powi(2);
    let mut scores: Vec<f64> = candidates[0].iter().map(|&(_, d)| emission(d)).collect();
    let mut backptr: Vec<Vec<usize>> = Vec::with_capacity(candidates.len());

    for t in 1..candidates.len() {
        let p_prev = &raw.points[t - 1];
        let p_cur = &raw.points[t];
        let euclid = Point::new(p_prev.x, p_prev.y).distance(Point::new(p_cur.x, p_cur.y));
        let bound = euclid * 4.0 + 500.0;
        let mut new_scores = vec![f64::NEG_INFINITY; candidates[t].len()];
        let mut ptrs = vec![0usize; candidates[t].len()];
        for (j, &(cand, dist)) in candidates[t].iter().enumerate() {
            let emit = emission(dist);
            for (i, &(prev_cand, _)) in candidates[t - 1].iter().enumerate() {
                if scores[i] == f64::NEG_INFINITY {
                    continue;
                }
                let Some(route) = route_distance(net, prev_cand, cand, bound) else {
                    continue;
                };
                let trans = -((route - euclid).abs() / cfg.beta_m);
                let s = scores[i] + trans + emit;
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

    let mut best = scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("non-empty candidates");
    let mut state_seq = vec![candidates[candidates.len() - 1][best].0];
    let mut times = vec![raw.points[raw.points.len() - 1].t];
    for t in (0..backptr.len()).rev() {
        best = backptr[t][best];
        state_seq.push(candidates[t][best].0);
        times.push(raw.points[t].t);
    }
    state_seq.reverse();
    times.reverse();

    let mut roads: Vec<SegmentId> = Vec::with_capacity(state_seq.len());
    let mut visit_times: Vec<Timestamp> = Vec::with_capacity(state_seq.len());
    for (seg, t) in state_seq.into_iter().zip(times) {
        if roads.last() == Some(&seg) {
            continue;
        }
        if let Some(&prev) = roads.last() {
            if !net.successors(prev).contains(&seg) {
                if let Some(path) =
                    dijkstra(net, prev, seg, |_, next| net.segment(next).length_m as f64)
                {
                    let t_prev = *visit_times.last().expect("non-empty");
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

    let arrival = *visit_times.last().expect("non-empty");
    Ok(Trajectory {
        roads,
        times: visit_times,
        driver: raw.driver,
        occupied: false,
        mode: TravelMode::CarTaxi,
        arrival,
    })
}

type Matched = Result<(Vec<SegmentId>, Vec<Timestamp>, Timestamp), MatchError>;

fn outcome(r: Result<Trajectory, MatchError>) -> Matched {
    r.map(|t| (t.roads, t.times, t.arrival))
}

/// Matches `traces` trajectories of `city` at GPS noise `noise_m` with
/// both matchers; every tenth trace also gets one point moved off the map,
/// so `NoCandidates` is compared too. Returns (traces compared, matched).
fn compare_city(city: &City, traces: usize, noise_m: f64, seed: u64) -> (usize, usize) {
    let sim = Simulator::new(
        &city.net,
        SimConfig { num_trajectories: traces, num_drivers: 8, seed, ..Default::default() },
    );
    let data = sim.generate();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let configs = [
        MatchConfig::default(),
        MatchConfig { radius_m: 120.0, max_candidates: 6, ..MatchConfig::default() },
    ];
    let (mut compared, mut matched) = (0, 0);
    for (k, traj) in data.iter().enumerate() {
        let mut raw = sim.to_raw_gps(traj, 15, noise_m, &mut rng);
        if k % 10 == 9 && raw.points.len() > 2 {
            let mid = raw.points.len() / 2;
            raw.points[mid] = GpsPoint { x: -1e5, y: -1e5, t: raw.points[mid].t };
        }
        let cfg = &configs[k % configs.len()];
        let want = outcome(oracle_map_match(&city.net, &raw, cfg));
        let got = outcome(map_match(&city.net, &raw, cfg));
        assert_eq!(got, want, "{} trace {k} at noise {noise_m} m, {cfg:?}", city.name);
        compared += 1;
        matched += usize::from(got.is_ok());
    }
    (compared, matched)
}

#[test]
fn map_match_equals_the_per_pair_oracle_bitwise() {
    let tiny = generate_city("tiny", &CityConfig::tiny());
    let porto = porto_like();
    let mut compared = 0;
    let mut matched = 0;
    for (city, seed) in [(&tiny, 31), (&porto, 32)] {
        for noise_m in [5.0, 30.0] {
            let (c, m) = compare_city(city, 60, noise_m, seed);
            compared += c;
            matched += m;
        }
    }
    assert!(compared >= 200, "compared only {compared} traces");
    // Most traces must actually match, or the comparison shows little.
    assert!(matched * 4 >= compared * 3, "only {matched} of {compared} traces matched");
}
