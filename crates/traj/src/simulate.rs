//! Congestion-aware trajectory simulator — the stand-in for the BJ/Porto
//! taxi fleets (DESIGN.md §1, §4).
//!
//! Each simulated driver has a home area, a persistent route-choice bias and
//! a driving-style factor, so driver identity is *learnable* from
//! trajectories (the Porto multi-class task). Departure times follow the
//! bimodal weekday demand curve; realized travel times follow the congestion
//! model, so ETA depends on departure time and route (the BJ regression
//! task); the occupied flag correlates with hour and origin region (the BJ
//! binary task).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use start_roadnet::{BoundedSearch, Point, RoadNetwork, SegmentId};

use crate::congestion::{congestion_factor, congestion_factors, demand_intensity};
use crate::types::{GpsPoint, RawTrajectory, Timestamp, Trajectory, TravelMode, SECS_PER_DAY};

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub num_trajectories: usize,
    pub num_drivers: usize,
    /// Dataset time span in days; day 0 is a Monday.
    pub days: i64,
    /// Bounds on trajectory hop length, pre-filtering.
    pub min_len: usize,
    pub max_len: usize,
    /// Mode mixture (weight per mode). Taxis-only by default.
    pub mode_weights: Vec<(TravelMode, f64)>,
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            num_trajectories: 4000,
            num_drivers: 60,
            days: 28,
            min_len: 6,
            max_len: 128,
            mode_weights: vec![(TravelMode::CarTaxi, 1.0)],
            seed: 4242,
        }
    }
}

impl SimConfig {
    /// A small multi-modal config for the Geolife-like transfer dataset.
    pub fn geolife_like() -> Self {
        Self {
            num_trajectories: 900,
            num_drivers: 24,
            days: 28,
            mode_weights: vec![
                (TravelMode::CarTaxi, 0.30),
                (TravelMode::Walk, 0.25),
                (TravelMode::Bike, 0.25),
                (TravelMode::Bus, 0.20),
            ],
            seed: 20070101,
            ..Self::default()
        }
    }
}

struct Driver {
    home: SegmentId,
    /// The segments within a quarter of the city radius of `home`'s
    /// midpoint, nearest first: where 60% of this driver's trips start.
    near_home: Vec<SegmentId>,
    /// `driver_edge_bias` of every segment, by segment index: this driver's
    /// persistent route-choice perturbation.
    edge_bias: Vec<f64>,
    /// Multiplier on driving speed (style), ~N(1, 0.05).
    style: f32,
}

/// Deterministic per-(driver, segment) cost multiplier in [0.75, 1.25].
/// This is what gives each driver a persistent, learnable route signature.
fn driver_edge_bias(bias_seed: u64, seg: SegmentId) -> f64 {
    // splitmix64
    let mut z = bias_seed ^ (seg.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    0.75 + 0.5 * (z as f64 / u64::MAX as f64)
}

/// The trajectory simulator.
pub struct Simulator<'n> {
    net: &'n RoadNetwork,
    cfg: SimConfig,
    drivers: Vec<Driver>,
    /// Per segment, `(free_flow_secs() as f64, kind.one_hot_index())`: what
    /// route choice reads of a segment it enters.
    route_costs: Vec<(f64, usize)>,
    center: Point,
    max_radius: f64,
}

impl<'n> Simulator<'n> {
    pub fn new(net: &'n RoadNetwork, cfg: SimConfig) -> Self {
        assert!(net.num_segments() > 0, "empty road network");
        let n = net.num_segments();
        // City centroid for the occupancy hotspot.
        let (mut cx, mut cy, mut max_radius) = (0.0, 0.0, 0.0f64);
        for s in net.segments() {
            let m = s.midpoint();
            cx += m.x;
            cy += m.y;
        }
        let center = Point::new(cx / n as f64, cy / n as f64);
        for s in net.segments() {
            max_radius = max_radius.max(s.midpoint().distance(center));
        }
        let max_radius = max_radius.max(1.0);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let drivers = (0..cfg.num_drivers)
            .map(|_| {
                let home = SegmentId(rng.gen_range(0..n) as u32);
                let bias_seed: u64 = rng.gen();
                let style = 1.0 + rng.gen_range(-0.08..0.08f32);
                let home_mid = net.segment(home).midpoint();
                let near = net.segments_near(home_mid, max_radius * 0.25);
                Driver {
                    home,
                    near_home: near.into_iter().map(|(s, _)| s).collect(),
                    edge_bias: net.ids().map(|s| driver_edge_bias(bias_seed, s)).collect(),
                    style,
                }
            })
            .collect();
        let route_costs = net
            .segments()
            .iter()
            .map(|s| (s.free_flow_secs() as f64, s.kind.one_hot_index()))
            .collect();
        Self { net, cfg, drivers, route_costs, center, max_radius }
    }

    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Traversal duration of one segment entered at time `t` (seconds).
    fn segment_duration(
        &self,
        seg: SegmentId,
        t: Timestamp,
        mode: TravelMode,
        style: f32,
        rng: &mut StdRng,
    ) -> f64 {
        let s = self.net.segment(seg);
        let base_kmh = s.max_speed_kmh.min(mode.speed_cap_kmh());
        let factor = if mode == TravelMode::CarTaxi || mode == TravelMode::Bus {
            congestion_factor(s.kind, t)
        } else {
            1.0 // bikes and pedestrians do not suffer car congestion
        };
        let speed_mps = (base_kmh * factor * style / 3.6).max(0.5);
        // Log-normal noise, sigma ~ 0.15.
        let noise = (rng.gen_range(-0.15..0.15f32) + rng.gen_range(-0.15..0.15f32)).exp();
        (s.length_m as f64 / speed_mps as f64) * noise as f64
    }

    /// Sample a departure time from the demand curve by rejection sampling.
    fn sample_departure(&self, rng: &mut StdRng) -> Timestamp {
        loop {
            let t = rng.gen_range(0..self.cfg.days * SECS_PER_DAY);
            if rng.gen::<f32>() < demand_intensity(t) {
                return t;
            }
        }
    }

    /// Sample one trajectory; `None` when the OD draw fails length bounds.
    /// The route search runs on `search`, one scratch for every draw.
    fn sample_one(&self, rng: &mut StdRng, search: &mut BoundedSearch) -> Option<Trajectory> {
        let n = self.net.num_segments();
        let driver_idx = rng.gen_range(0..self.drivers.len());
        let driver = &self.drivers[driver_idx];
        let mode = self.sample_mode(rng);

        // Origin: near home 60% of the time; else uniform.
        let origin = if rng.gen::<f64>() < 0.6 {
            let near = &driver.near_home;
            if near.is_empty() {
                driver.home
            } else {
                near[rng.gen_range(0..near.len())]
            }
        } else {
            SegmentId(rng.gen_range(0..n) as u32)
        };
        let dest = SegmentId(rng.gen_range(0..n) as u32);
        if dest == origin {
            return None;
        }

        // Route choice: expected-time Dijkstra with persistent driver bias.
        // The departure is fixed for the whole search, so each road kind has
        // one congestion factor.
        let departure = self.sample_departure(rng);
        let factors = congestion_factors(departure);
        let path = search.path(self.net, origin, dest, |_, next| {
            let (free_flow, kind) = self.route_costs[next.index()];
            let expected = free_flow / factors[kind];
            expected * driver.edge_bias[next.index()]
        })?;
        if path.segments.len() < self.cfg.min_len || path.segments.len() > self.cfg.max_len {
            return None;
        }

        // Realize per-road visit timestamps under the congestion model.
        let mut times = Vec::with_capacity(path.segments.len());
        let mut t = departure as f64;
        for &seg in &path.segments {
            times.push(t as Timestamp);
            t += self.segment_duration(seg, t as Timestamp, mode, driver.style, rng);
        }
        let arrival = t as Timestamp;

        // Occupancy: peak-hour + central-origin trips are most likely occupied.
        let origin_mid = self.net.segment(origin).midpoint();
        let central = origin_mid.distance(self.center) < self.max_radius * 0.4;
        let demand = demand_intensity(departure);
        let p_occupied = 0.08 + 0.60 * demand + if central { 0.28 } else { 0.0 };
        let occupied = rng.gen::<f64>() < p_occupied as f64;

        let traj = Trajectory {
            roads: path.segments,
            times,
            driver: driver_idx as u32,
            occupied,
            mode,
            arrival,
        };
        debug_assert!(traj.validate().is_ok());
        Some(traj)
    }

    fn sample_mode(&self, rng: &mut StdRng) -> TravelMode {
        let total: f64 = self.cfg.mode_weights.iter().map(|(_, w)| w).sum();
        let mut draw = rng.gen::<f64>() * total;
        for &(mode, w) in &self.cfg.mode_weights {
            if draw < w {
                return mode;
            }
            draw -= w;
        }
        self.cfg.mode_weights.last().map(|&(m, _)| m).unwrap_or(TravelMode::CarTaxi)
    }

    /// Generate the full dataset (exactly `num_trajectories` accepted draws).
    pub fn generate(&self) -> Vec<Trajectory> {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed.wrapping_add(1));
        let mut out = Vec::with_capacity(self.cfg.num_trajectories);
        let mut attempts = 0usize;
        let max_attempts = self.cfg.num_trajectories * 200;
        let mut search = BoundedSearch::new();
        while out.len() < self.cfg.num_trajectories && attempts < max_attempts {
            attempts += 1;
            if let Some(t) = self.sample_one(&mut rng, &mut search) {
                out.push(t);
            }
        }
        assert!(
            out.len() == self.cfg.num_trajectories,
            "simulator accepted only {}/{} draws — OD length bounds too tight for this network",
            out.len(),
            self.cfg.num_trajectories
        );
        // Chronological order, as the paper's splits assume.
        out.sort_by_key(|t| t.departure());
        out
    }

    /// Render a road-constrained trajectory as noisy raw GPS samples
    /// (Definition 2) for the map-matching pipeline: one point every
    /// `interval_secs` from the departure, each displaced by up to `noise_m`
    /// meters per axis.
    ///
    /// An `interval_secs` ≤ 0 or a `noise_m` that is negative, NaN or
    /// infinite renders no trace: the result has no points, and
    /// [`map_match`](crate::map_match()) refuses it with
    /// [`MatchError::TooShort`](crate::MatchError::TooShort). A trace ends
    /// early where the next sample time would overflow [`Timestamp`].
    pub fn to_raw_gps(
        &self,
        traj: &Trajectory,
        interval_secs: i64,
        noise_m: f64,
        rng: &mut StdRng,
    ) -> RawTrajectory {
        let mut points = Vec::new();
        if interval_secs <= 0 || !(noise_m >= 0.0 && noise_m.is_finite()) {
            return RawTrajectory { points, driver: traj.driver };
        }
        let mut sample_t = traj.departure();
        'roads: for (i, &seg) in traj.roads.iter().enumerate() {
            let enter = traj.times[i];
            let exit = if i + 1 < traj.roads.len() { traj.times[i + 1] } else { traj.arrival };
            let s = self.net.segment(seg);
            while sample_t <= exit && (sample_t >= enter || i == 0) {
                let frac = if exit > enter {
                    (sample_t - enter) as f64 / (exit - enter) as f64
                } else {
                    0.0
                };
                let p = s.start.lerp(s.end, frac.clamp(0.0, 1.0));
                points.push(GpsPoint {
                    x: p.x + rng.gen_range(-noise_m..noise_m),
                    y: p.y + rng.gen_range(-noise_m..noise_m),
                    t: sample_t,
                });
                let Some(next) = sample_t.checked_add(interval_secs) else {
                    break 'roads;
                };
                sample_t = next;
            }
        }
        RawTrajectory { points, driver: traj.driver }
    }
}

/// Mean observed traversal time per segment (the `t_his` of the Temporal
/// Shifting augmentation, §III-C2). Segments never traversed fall back to
/// their free-flow time.
pub fn historical_mean_durations(net: &RoadNetwork, trajectories: &[Trajectory]) -> Vec<f32> {
    let n = net.num_segments();
    let mut sums = vec![0.0f64; n];
    let mut counts = vec![0u64; n];
    for t in trajectories {
        for i in 0..t.roads.len() {
            let exit = if i + 1 < t.roads.len() { t.times[i + 1] } else { t.arrival };
            let dur = (exit - t.times[i]) as f64;
            if dur >= 0.0 {
                sums[t.roads[i].index()] += dur;
                counts[t.roads[i].index()] += 1;
            }
        }
    }
    (0..n)
        .map(|i| {
            if counts[i] > 0 {
                (sums[i] / counts[i] as f64) as f32
            } else {
                net.segment(SegmentId(i as u32)).free_flow_secs()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{hour_of_day, is_weekend};
    use start_roadnet::synth::{generate_city, CityConfig};

    fn small_sim() -> (start_roadnet::City, SimConfig) {
        let city = generate_city("test", &CityConfig::tiny());
        let cfg =
            SimConfig { num_trajectories: 300, num_drivers: 8, days: 14, ..Default::default() };
        (city, cfg)
    }

    #[test]
    fn generated_trajectories_are_valid_paths() {
        let (city, cfg) = small_sim();
        let sim = Simulator::new(&city.net, cfg);
        let data = sim.generate();
        assert_eq!(data.len(), 300);
        for t in &data {
            assert!(t.validate().is_ok());
            assert!(city.net.is_path(&t.roads), "trajectory leaves the road graph");
            assert!(t.len() >= 6);
        }
    }

    #[test]
    fn departures_show_rush_hour_peaks() {
        let (city, cfg) = small_sim();
        let sim = Simulator::new(&city.net, cfg);
        let data = sim.generate();
        let weekday: Vec<_> = data.iter().filter(|t| !is_weekend(t.departure())).collect();
        let in_range = |t: f32, lo: f32, hi: f32| t >= lo && t < hi;
        let peak = weekday
            .iter()
            .filter(|t| {
                let h = hour_of_day(t.departure());
                in_range(h, 7.0, 10.0) || in_range(h, 17.0, 20.0)
            })
            .count();
        let night =
            weekday.iter().filter(|t| in_range(hour_of_day(t.departure()), 0.0, 6.0)).count();
        // 6 peak hours should hold far more than 6 night hours.
        assert!(peak > night * 2, "peak {peak} vs night {night}");
    }

    #[test]
    fn rush_hour_trips_are_slower() {
        let (city, cfg) = small_sim();
        let sim = Simulator::new(&city.net, cfg);
        let data = sim.generate();
        // Seconds per hop, peak vs off-peak (car only).
        let mut peak = (0.0f64, 0usize);
        let mut off = (0.0f64, 0usize);
        for t in &data {
            let h = hour_of_day(t.departure());
            let per_hop = t.travel_time_secs() as f64 / t.hops() as f64;
            if !is_weekend(t.departure()) && (7.5..9.5).contains(&h) {
                peak.0 += per_hop;
                peak.1 += 1;
            } else if (10.0..16.0).contains(&h) || h < 6.0 {
                off.0 += per_hop;
                off.1 += 1;
            }
        }
        assert!(peak.1 > 5 && off.1 > 5, "not enough samples: {} {}", peak.1, off.1);
        let peak_avg = peak.0 / peak.1 as f64;
        let off_avg = off.0 / off.1 as f64;
        assert!(peak_avg > off_avg * 1.05, "peak {peak_avg:.1} vs off {off_avg:.1} s/hop");
    }

    #[test]
    fn drivers_have_distinct_route_biases() {
        let a: Vec<f64> = (0..50).map(|i| driver_edge_bias(1, SegmentId(i))).collect();
        let b: Vec<f64> = (0..50).map(|i| driver_edge_bias(2, SegmentId(i))).collect();
        assert_ne!(a, b);
        assert!(a.iter().all(|v| (0.75..=1.25).contains(v)));
        // Deterministic.
        assert_eq!(driver_edge_bias(1, SegmentId(3)), driver_edge_bias(1, SegmentId(3)));
    }

    #[test]
    fn raw_gps_stays_near_route() {
        let (city, cfg) = small_sim();
        let sim = Simulator::new(&city.net, cfg);
        let data = sim.generate();
        let mut rng = StdRng::seed_from_u64(5);
        let raw = sim.to_raw_gps(&data[0], 15, 8.0, &mut rng);
        assert!(raw.points.len() >= 2, "need multiple GPS samples");
        for p in &raw.points {
            // Every GPS point should be within noise+segment distance of the route.
            let best = data[0]
                .roads
                .iter()
                .map(|&s| city.net.segment(s).project(Point::new(p.x, p.y)).1)
                .fold(f64::INFINITY, f64::min);
            assert!(best < 50.0, "GPS point {best} m from route");
        }
    }

    #[test]
    fn raw_gps_without_a_valid_interval_or_noise_is_empty_and_refused() {
        use crate::map_match::{map_match, MatchConfig, MatchError};

        let (city, cfg) = small_sim();
        let sim = Simulator::new(&city.net, cfg);
        let traj = &sim.generate()[0];
        let cases = [
            (0, 5.0),
            (-15, 5.0),
            (i64::MIN, 5.0),
            (15, -1.0),
            (15, f64::NAN),
            (15, f64::INFINITY),
        ];
        for (interval, noise) in cases {
            let mut rng = StdRng::seed_from_u64(5);
            let raw = sim.to_raw_gps(traj, interval, noise, &mut rng);
            assert!(raw.points.is_empty(), "interval {interval}, noise {noise}");
            assert_eq!(raw.driver, traj.driver);
            let matched = map_match(&city.net, &raw, &MatchConfig::default());
            assert_eq!(matched.unwrap_err(), MatchError::TooShort);
        }
        // A next sample time past `Timestamp::MAX` ends the trace at one point.
        let raw = sim.to_raw_gps(traj, i64::MAX, 5.0, &mut StdRng::seed_from_u64(5));
        assert_eq!(raw.points.len(), 1);
        // Zero noise is a valid, exact trace.
        let raw = sim.to_raw_gps(traj, 15, 0.0, &mut StdRng::seed_from_u64(5));
        assert!(raw.points.len() >= 2);
    }

    #[test]
    fn historical_means_cover_traversed_segments() {
        let (city, cfg) = small_sim();
        let sim = Simulator::new(&city.net, cfg);
        let data = sim.generate();
        let means = historical_mean_durations(&city.net, &data);
        assert_eq!(means.len(), city.net.num_segments());
        assert!(means.iter().all(|m| *m > 0.0 && m.is_finite()));
    }

    #[test]
    fn multimodal_config_produces_all_modes() {
        let city = generate_city("test", &CityConfig::tiny());
        let cfg = SimConfig { num_trajectories: 200, num_drivers: 8, ..SimConfig::geolife_like() };
        let sim = Simulator::new(&city.net, cfg);
        let data = sim.generate();
        let modes: std::collections::HashSet<_> = data.iter().map(|t| t.mode).collect();
        assert_eq!(modes.len(), 4, "all four modes should appear");
        // Walking trips must be slower per meter than car trips.
        let speed = |t: &Trajectory| {
            let dist: f32 = t.roads.iter().map(|&r| city.net.segment(r).length_m).sum();
            dist / t.travel_time_secs()
        };
        let avg = |m: TravelMode| {
            let xs: Vec<f32> = data.iter().filter(|t| t.mode == m).map(speed).collect();
            xs.iter().sum::<f32>() / xs.len() as f32
        };
        assert!(avg(TravelMode::CarTaxi) > avg(TravelMode::Walk) * 2.0);
    }
}
