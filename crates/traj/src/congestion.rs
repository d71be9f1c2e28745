//! The congestion model that gives the synthetic city its temporal
//! regularities (DESIGN.md §4).
//!
//! Travel speed on a segment at time `t` is
//! `max_speed * congestion_factor(kind, t)`, where the factor dips during
//! weekday rush hours — strongest on arterials. This produces both
//! macro-periodicity (Fig. 1b: rush-hour trajectory counts) and
//! micro-irregularity (Fig. 1c: the travel time of a road depends on when it
//! is traversed), the two signals TAT-Enc is built to exploit.

use start_roadnet::RoadKind;

use crate::types::{hour_of_day, is_weekend, Timestamp};

/// Smooth bump centered at `center` with width `width` (hours), value in [0, 1].
fn bump(hour: f32, center: f32, width: f32) -> f32 {
    let d = (hour - center) / width;
    (-0.5 * d * d).exp()
}

/// Demand intensity in [0, 1]: how many trips depart around this time.
/// Weekdays are bimodal (morning + evening peaks); weekends are a single
/// broad midday bump. This is the sampling density for departure times.
pub fn demand_intensity(t: Timestamp) -> f32 {
    let h = hour_of_day(t);
    if is_weekend(t) {
        0.15 + 0.55 * bump(h, 14.0, 4.0)
    } else {
        let morning = bump(h, 8.3, 1.2);
        let evening = bump(h, 18.0, 1.6);
        0.10 + 0.80 * morning.max(evening) + 0.15 * bump(h, 13.0, 3.0)
    }
}

/// Speed multiplier in (0, 1]: 1 = free flow, lower = congested.
///
/// Arterials (trunk/primary) suffer most at peak; residential streets are
/// mildly affected. The congestion level is what irregular inter-road time
/// intervals encode, per the paper's Fig. 1(c) motivation.
pub fn congestion_factor(kind: RoadKind, t: Timestamp) -> f32 {
    let h = hour_of_day(t);
    let peak = if is_weekend(t) {
        0.35 * bump(h, 15.0, 3.0)
    } else {
        let morning = bump(h, 8.3, 1.1);
        let evening = bump(h, 18.0, 1.4);
        morning.max(evening)
    };
    let severity = match kind {
        RoadKind::Motorway | RoadKind::Trunk => 0.60,
        RoadKind::Primary => 0.55,
        RoadKind::Secondary => 0.40,
        RoadKind::Tertiary => 0.30,
        RoadKind::Residential => 0.20,
    };
    (1.0 - severity * peak).clamp(0.25, 1.0)
}

/// `congestion_factor(kind, t) as f64` for every kind, indexed by
/// [`RoadKind::one_hot_index`]: the table a route search at a fixed time
/// looks up per edge instead of evaluating the curve.
pub(crate) fn congestion_factors(t: Timestamp) -> [f64; 6] {
    RoadKind::ALL.map(|kind| congestion_factor(kind, t) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{SECS_PER_DAY, SECS_PER_HOUR};

    const TUESDAY: i64 = SECS_PER_DAY; // day index 2
    const SATURDAY: i64 = 5 * SECS_PER_DAY;

    #[test]
    fn weekday_demand_is_bimodal() {
        let at = |h: i64| demand_intensity(TUESDAY + h * SECS_PER_HOUR);
        assert!(at(8) > at(11), "morning peak should beat late morning");
        assert!(at(18) > at(15), "evening peak should beat mid afternoon");
        assert!(at(3) < 0.2, "night demand should be low");
    }

    #[test]
    fn weekend_demand_is_unimodal_midday() {
        let at = |h: i64| demand_intensity(SATURDAY + h * SECS_PER_HOUR);
        assert!(at(14) > at(8), "weekend midday beats weekend morning-rush hour");
        assert!(at(14) > at(20));
    }

    #[test]
    fn rush_hour_congestion_hits_arterials_hardest() {
        let rush = TUESDAY + 8 * SECS_PER_HOUR + 20 * 60;
        let night = TUESDAY + 3 * SECS_PER_HOUR;
        let primary_rush = congestion_factor(RoadKind::Primary, rush);
        let primary_night = congestion_factor(RoadKind::Primary, night);
        let resi_rush = congestion_factor(RoadKind::Residential, rush);
        assert!(primary_rush < primary_night, "arterial must slow at rush hour");
        assert!(primary_rush < resi_rush, "arterial slows more than residential");
        assert!(primary_night > 0.95, "free flow at night");
    }

    #[test]
    fn factor_table_is_the_factor_of_each_kind() {
        for h in 0..48 {
            let t = TUESDAY + h * SECS_PER_HOUR / 2;
            let table = congestion_factors(t);
            for kind in RoadKind::ALL {
                let want = congestion_factor(kind, t) as f64;
                assert_eq!(table[kind.one_hot_index()].to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn factor_stays_in_bounds() {
        for kind in RoadKind::ALL {
            for h in 0..24 {
                for day in [TUESDAY, SATURDAY] {
                    let f = congestion_factor(kind, day + h * SECS_PER_HOUR);
                    assert!((0.25..=1.0).contains(&f));
                }
            }
        }
    }
}
