//! Trajectory data types (Definitions 2 and 3 of the paper) and the
//! simulation clock.

use serde::{Deserialize, Serialize};
use start_roadnet::SegmentId;

/// Seconds since the dataset epoch (midnight of a Monday, so weekday math is
/// trivial and deterministic — no calendar library needed).
pub type Timestamp = i64;

pub const SECS_PER_MINUTE: i64 = 60;
pub const SECS_PER_HOUR: i64 = 3600;
pub const SECS_PER_DAY: i64 = 86_400;
pub const SECS_PER_WEEK: i64 = 7 * SECS_PER_DAY;

/// Minute-of-day index in `1..=1440`, the `mi(t)` function of §III-B1.
pub fn minute_index(t: Timestamp) -> u32 {
    (t.rem_euclid(SECS_PER_DAY) / SECS_PER_MINUTE) as u32 + 1
}

/// Day-of-week index in `1..=7` (1 = Monday), the `di(t)` function of §III-B1.
pub fn day_of_week_index(t: Timestamp) -> u32 {
    (t.rem_euclid(SECS_PER_WEEK) / SECS_PER_DAY) as u32 + 1
}

/// Whether a timestamp falls on Saturday or Sunday.
pub fn is_weekend(t: Timestamp) -> bool {
    day_of_week_index(t) >= 6
}

/// Hour of day `0..24` as a float (for congestion curves and Fig. 3 slices).
pub fn hour_of_day(t: Timestamp) -> f32 {
    (t.rem_euclid(SECS_PER_DAY)) as f32 / SECS_PER_HOUR as f32
}

/// One GPS sample `<lat, lon, t>` (Definition 2). Coordinates are local
/// projected meters, consistent with [`start_roadnet::Point`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpsPoint {
    pub x: f64,
    pub y: f64,
    pub t: Timestamp,
}

/// A raw GPS trajectory (Definition 2) before map matching.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RawTrajectory {
    pub points: Vec<GpsPoint>,
    pub driver: u32,
}

/// Transport mode, used by the Geolife-like transfer dataset (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TravelMode {
    CarTaxi,
    Bus,
    Bike,
    Walk,
}

impl TravelMode {
    pub const ALL: [TravelMode; 4] =
        [TravelMode::CarTaxi, TravelMode::Bus, TravelMode::Bike, TravelMode::Walk];

    pub fn class_index(self) -> usize {
        match self {
            TravelMode::CarTaxi => 0,
            TravelMode::Bus => 1,
            TravelMode::Bike => 2,
            TravelMode::Walk => 3,
        }
    }

    /// Typical speed ceiling in km/h; cars use the road limit instead.
    pub fn speed_cap_kmh(self) -> f32 {
        match self {
            TravelMode::CarTaxi => f32::INFINITY,
            TravelMode::Bus => 35.0,
            TravelMode::Bike => 16.0,
            TravelMode::Walk => 5.0,
        }
    }
}

/// A road-network constrained trajectory (Definition 3): a time-ordered
/// sequence of adjacent road segments with visit timestamps and the labels
/// used by the downstream tasks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trajectory {
    pub roads: Vec<SegmentId>,
    /// Visit timestamp of each road, same length as `roads`.
    pub times: Vec<Timestamp>,
    /// Driver id (multi-class label on Porto-mini, user filter on both).
    pub driver: u32,
    /// Whether the taxi carries passengers (binary label on BJ-mini).
    pub occupied: bool,
    /// Transport mode (label on Geolife-mini).
    pub mode: TravelMode,
    /// Ground-truth arrival time at the destination (departure is `times[0]`).
    pub arrival: Timestamp,
}

impl Trajectory {
    pub fn len(&self) -> usize {
        self.roads.len()
    }

    pub fn is_empty(&self) -> bool {
        self.roads.is_empty()
    }

    pub fn departure(&self) -> Timestamp {
        self.times[0]
    }

    /// Total travel time in seconds — the regression target of Eq. (16).
    pub fn travel_time_secs(&self) -> f32 {
        (self.arrival - self.departure()) as f32
    }

    pub fn origin(&self) -> SegmentId {
        self.roads[0]
    }

    pub fn destination(&self) -> SegmentId {
        *self.roads.last().expect("non-empty trajectory") // lint-ok: panics on empty, like `origin`
    }

    /// Number of hops (Fig. 3c buckets).
    pub fn hops(&self) -> usize {
        self.roads.len().saturating_sub(1)
    }

    /// A trajectory is a loop when it returns to its origin (§IV-A removes these).
    pub fn is_loop(&self) -> bool {
        self.roads.len() > 1 && self.origin() == self.destination()
    }

    /// Internal consistency: matching lengths and non-decreasing timestamps.
    pub fn validate(&self) -> Result<(), String> {
        if self.roads.is_empty() {
            return Err("empty trajectory".into());
        }
        if self.roads.len() != self.times.len() {
            return Err(format!(
                "roads ({}) and times ({}) length mismatch",
                self.roads.len(),
                self.times.len()
            ));
        }
        if self.times.windows(2).any(|w| w[1] < w[0]) {
            return Err("timestamps not sorted".into());
        }
        if self.times.last().is_some_and(|&last| self.arrival < last) {
            return Err("arrival before last visit".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minute_and_day_indices_are_one_based() {
        assert_eq!(minute_index(0), 1);
        assert_eq!(minute_index(SECS_PER_DAY - 1), 1440);
        assert_eq!(day_of_week_index(0), 1); // Monday
        assert_eq!(day_of_week_index(5 * SECS_PER_DAY), 6); // Saturday
        assert!(is_weekend(6 * SECS_PER_DAY));
        assert!(!is_weekend(4 * SECS_PER_DAY));
    }

    #[test]
    fn indices_wrap_across_weeks() {
        let t = 3 * SECS_PER_WEEK + 2 * SECS_PER_DAY + 90 * SECS_PER_MINUTE;
        assert_eq!(day_of_week_index(t), 3); // Wednesday
        assert_eq!(minute_index(t), 91);
        assert!((hour_of_day(t) - 1.5).abs() < 1e-6);
    }

    fn traj(roads: &[u32], times: &[i64]) -> Trajectory {
        Trajectory {
            roads: roads.iter().map(|&r| SegmentId(r)).collect(),
            times: times.to_vec(),
            driver: 0,
            occupied: false,
            mode: TravelMode::CarTaxi,
            arrival: *times.last().unwrap() + 30,
        }
    }

    #[test]
    fn validation_catches_misordered_times() {
        let good = traj(&[1, 2, 3], &[0, 10, 20]);
        assert!(good.validate().is_ok());
        let bad = traj(&[1, 2, 3], &[0, 20, 10]);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn loop_detection_and_travel_time() {
        let looped = traj(&[5, 2, 5], &[0, 10, 20]);
        assert!(looped.is_loop());
        let t = traj(&[1, 2], &[100, 160]);
        assert_eq!(t.travel_time_secs(), 90.0);
        assert_eq!(t.hops(), 1);
    }
}
