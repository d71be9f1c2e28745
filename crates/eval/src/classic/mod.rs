//! Classical trajectory similarity measures used in the efficiency study
//! (§IV-H, Fig. 10): DTW \[30\], LCSS \[28\], discrete Fréchet distance \[31\],
//! and EDR \[29\]. All are `O(L²)` dynamic programs over point sequences —
//! exactly the cost profile the paper contrasts with `O(d)` embedding
//! distances.

use start_roadnet::{Point, RoadNetwork};
use start_traj::Trajectory;

/// Render a road-constrained trajectory as the polyline of segment midpoints
/// (the shared input representation for the classical measures).
pub fn midpoints(net: &RoadNetwork, traj: &Trajectory) -> Vec<Point> {
    traj.roads.iter().map(|&r| net.segment(r).midpoint()).collect()
}

/// Dynamic Time Warping distance with squared-free Euclidean ground metric.
pub fn dtw(a: &[Point], b: &[Point]) -> f64 {
    assert!(!a.is_empty() && !b.is_empty());
    let (n, m) = (a.len(), b.len());
    let mut prev = vec![f64::INFINITY; m + 1];
    let mut cur = vec![f64::INFINITY; m + 1];
    prev[0] = 0.0;
    for i in 1..=n {
        cur[0] = f64::INFINITY;
        for j in 1..=m {
            let cost = a[i - 1].distance(b[j - 1]);
            cur[j] = cost + prev[j].min(cur[j - 1]).min(prev[j - 1]);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m]
}

/// Longest Common SubSequence *similarity* converted to a distance:
/// `1 - LCSS / min(n, m)`, with spatial matching threshold `eps` meters.
pub fn lcss(a: &[Point], b: &[Point], eps: f64) -> f64 {
    assert!(!a.is_empty() && !b.is_empty());
    let (n, m) = (a.len(), b.len());
    let mut prev = vec![0usize; m + 1];
    let mut cur = vec![0usize; m + 1];
    for i in 1..=n {
        for j in 1..=m {
            cur[j] = if a[i - 1].distance(b[j - 1]) <= eps {
                prev[j - 1] + 1
            } else {
                prev[j].max(cur[j - 1])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
        cur[0] = 0;
    }
    1.0 - prev[m] as f64 / n.min(m) as f64
}

/// Discrete Fréchet distance (the classic coupled-walk DP).
pub fn frechet(a: &[Point], b: &[Point]) -> f64 {
    assert!(!a.is_empty() && !b.is_empty());
    let (n, m) = (a.len(), b.len());
    let mut ca = vec![vec![-1.0f64; m]; n];
    // Iterative fill (row-major works because dependencies point back/left).
    for i in 0..n {
        for j in 0..m {
            let d = a[i].distance(b[j]);
            ca[i][j] = match (i, j) {
                (0, 0) => d,
                (0, _) => ca[0][j - 1].max(d),
                (_, 0) => ca[i - 1][0].max(d),
                _ => ca[i - 1][j].min(ca[i - 1][j - 1]).min(ca[i][j - 1]).max(d),
            };
        }
    }
    ca[n - 1][m - 1]
}

/// Edit Distance on Real sequence, normalized by the longer length.
/// A pair of points "matches" when within `eps` meters.
pub fn edr(a: &[Point], b: &[Point], eps: f64) -> f64 {
    assert!(!a.is_empty() && !b.is_empty());
    let (n, m) = (a.len(), b.len());
    let mut prev: Vec<usize> = (0..=m).collect();
    let mut cur = vec![0usize; m + 1];
    for i in 1..=n {
        cur[0] = i;
        for j in 1..=m {
            let sub = if a[i - 1].distance(b[j - 1]) <= eps { 0 } else { 1 };
            cur[j] = (prev[j - 1] + sub).min(prev[j] + 1).min(cur[j - 1] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m] as f64 / n.max(m) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(xs: &[(f64, f64)]) -> Vec<Point> {
        xs.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn identical_sequences_have_zero_distance() {
        let a = pts(&[(0., 0.), (1., 0.), (2., 0.)]);
        assert_eq!(dtw(&a, &a), 0.0);
        assert_eq!(lcss(&a, &a, 0.5), 0.0);
        assert_eq!(frechet(&a, &a), 0.0);
        assert_eq!(edr(&a, &a, 0.5), 0.0);
    }

    #[test]
    fn dtw_handles_time_warping() {
        // Same shape, different sampling rates: DTW stays small.
        let a = pts(&[(0., 0.), (1., 0.), (2., 0.), (3., 0.)]);
        let b = pts(&[(0., 0.), (0.5, 0.), (1., 0.), (1.5, 0.), (2., 0.), (3., 0.)]);
        let warped = dtw(&a, &b);
        let shifted = dtw(&a, &pts(&[(0., 5.), (1., 5.), (2., 5.), (3., 5.)]));
        assert!(warped < shifted);
    }

    #[test]
    fn frechet_is_max_of_matched_distance() {
        let a = pts(&[(0., 0.), (1., 0.)]);
        let b = pts(&[(0., 3.), (1., 4.)]);
        // Best coupling matches index-wise: max(3, 4) = 4.
        assert!((frechet(&a, &b) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn frechet_at_least_endpoint_distance() {
        let a = pts(&[(0., 0.), (5., 0.), (10., 0.)]);
        let b = pts(&[(0., 1.), (10., 1.)]);
        assert!(frechet(&a, &b) >= 1.0);
    }

    #[test]
    fn lcss_and_edr_are_threshold_sensitive() {
        let a = pts(&[(0., 0.), (1., 0.), (2., 0.)]);
        let b = pts(&[(0., 0.4), (1., 0.4), (2., 0.4)]);
        // With a generous threshold everything matches.
        assert_eq!(lcss(&a, &b, 1.0), 0.0);
        assert_eq!(edr(&a, &b, 1.0), 0.0);
        // With a tight threshold nothing matches.
        assert_eq!(lcss(&a, &b, 0.1), 1.0);
        assert_eq!(edr(&a, &b, 0.1), 1.0);
    }

    #[test]
    fn distances_are_symmetric() {
        let a = pts(&[(0., 0.), (3., 1.), (5., 2.)]);
        let b = pts(&[(1., 1.), (2., 2.)]);
        assert_eq!(dtw(&a, &b), dtw(&b, &a));
        assert_eq!(frechet(&a, &b), frechet(&b, &a));
        assert_eq!(edr(&a, &b, 0.5), edr(&b, &a, 0.5));
        assert_eq!(lcss(&a, &b, 0.5), lcss(&b, &a, 0.5));
    }
}
