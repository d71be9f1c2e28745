//! Bitwise oracles for the two map-matching primitives: the grid-backed
//! `segments_near` against a linear scan of every segment, and
//! `BoundedSearch` against a full point-to-point `dijkstra`.

use std::sync::OnceLock;

use proptest::prelude::*;
use start_roadnet::{
    dijkstra, generate_city, porto_like, BoundedSearch, City, CityConfig, Point, RoadKind,
    RoadNetwork, RoadSegment, SegmentId,
};

/// The scan `segments_near` answered with before it had a grid.
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

fn bits(v: &[(SegmentId, f64)]) -> Vec<(u32, u64)> {
    v.iter().map(|&(s, d)| (s.0, d.to_bits())).collect()
}

fn assert_near_matches_scan(net: &RoadNetwork, p: Point, radius: f64) {
    let got = bits(&net.segments_near(p, radius));
    let want = bits(&scan_near(net, p, radius));
    assert_eq!(got, want, "segments_near({p:?}, {radius})");
}

fn cities() -> &'static [City; 2] {
    static CITIES: OnceLock<[City; 2]> = OnceLock::new();
    CITIES.get_or_init(|| [generate_city("tiny", &CityConfig::tiny()), porto_like()])
}

/// `(min, max)` corners of the city's segment endpoints.
fn extent(net: &RoadNetwork) -> (Point, Point) {
    let (mut lo, mut hi) = (Point::new(f64::MAX, f64::MAX), Point::new(f64::MIN, f64::MIN));
    for s in net.segments() {
        for p in [s.start, s.end] {
            lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
            hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
        }
    }
    (lo, hi)
}

fn segment(start: Point, end: Point) -> RoadSegment {
    RoadSegment {
        kind: RoadKind::Residential,
        length_m: start.distance(end) as f32,
        lanes: 1,
        max_speed_kmh: 30.0,
        start,
        end,
    }
}

/// 300 m squares stay on the grid path in both test cities; 2 km squares
/// span more cells than the cities have segments and fall back to the scan.
const RADII: [f64; 5] = [0.0, 60.0, 300.0, 2_000.0, f64::INFINITY];

/// A query point from `(kind, u, v)`: inside the extent, on its edge, on a
/// segment endpoint, up to 60 m to the side of a segment, or far outside.
fn query_point(net: &RoadNetwork, kind: u8, u: f64, v: f64, far: f64) -> Point {
    let (lo, hi) = extent(net);
    let inside = Point::new(lo.x + u * (hi.x - lo.x), lo.y + v * (hi.y - lo.y));
    let s = &net.segments()[(u * net.num_segments() as f64) as usize];
    match kind {
        0 => inside,
        1 => Point::new(if u < 0.5 { lo.x } else { hi.x }, inside.y),
        2 if v < 0.5 => s.start,
        2 => s.end,
        3 => {
            let on = s.start.lerp(s.end, v);
            let len = s.start.distance(s.end).max(1e-9);
            let side = 120.0 * (v - 0.5);
            let (nx, ny) = ((s.start.y - s.end.y) / len, (s.end.x - s.start.x) / len);
            Point::new(on.x + side * nx, on.y + side * ny)
        }
        _ => Point::new(inside.x + far, inside.y - far),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn segments_near_is_the_linear_scan_bitwise(
        city_kind in (0usize..2, 0u8..5),
        uv in (0.0f64..1.0, 0.0f64..1.0),
        far in (1e3f64..1e4, any::<bool>()),
        extra in prop::collection::vec((-3e3f64..6e3, -3e3f64..6e3, -1e4f64..1e4, -1e4f64..1e4), 1..6),
    ) {
        let ((city, kind), (u, v)) = (city_kind, uv);
        let net = &cities()[city].net;
        let far = if far.1 { far.0 * 1e3 } else { far.0 };
        let p = query_point(net, kind, u, v, far);
        for radius in RADII {
            assert_near_matches_scan(net, p, radius);
        }

        // A network grown segment by segment, queried before and after
        // more segments arrive: short, long (wider than 64 cells) and
        // zero-length ones.
        let mut grown = RoadNetwork::new();
        for s in net.segments() {
            grown.add_segment(s.clone());
        }
        assert_near_matches_scan(&grown, p, 60.0);
        for &(x, y, dx, dy) in &extra {
            let start = Point::new(x, y);
            grown.add_segment(segment(start, Point::new(x + dx, y + dy)));
            grown.add_segment(segment(start, Point::new(x + dx / 100.0, y)));
            grown.add_segment(segment(start, start));
        }
        for radius in RADII {
            assert_near_matches_scan(&grown, p, radius);
            assert_near_matches_scan(&grown, Point::new(extra[0].0, extra[0].1), radius);
        }
    }
}

#[test]
fn segments_near_keeps_a_segment_exactly_at_the_radius_across_a_cell_edge() {
    // Segments along the cell edges x = 250 and y = 125 (cells are 125 m),
    // queried from exactly `radius` away on the other side of the edge.
    let mut net = RoadNetwork::new();
    net.add_segment(segment(Point::new(0.0, 125.0), Point::new(500.0, 125.0)));
    net.add_segment(segment(Point::new(250.0, -400.0), Point::new(250.0, 100.0)));
    for radius in [0.5, 37.5, 60.0, 124.75, 125.0, 300.0] {
        for p in [Point::new(100.0, 125.0 - radius), Point::new(250.0 - radius, 0.0)] {
            let near = net.segments_near(p, radius);
            assert!(!near.is_empty(), "nothing within {radius} of {p:?}");
            assert_near_matches_scan(&net, p, radius);
        }
    }
}

#[test]
fn segments_near_returns_nothing_for_a_nan_point_or_radius() {
    let net = &cities()[1].net;
    for p in [Point::new(f64::NAN, 100.0), Point::new(100.0, f64::NAN)] {
        for radius in RADII {
            assert!(net.segments_near(p, radius).is_empty());
            assert_near_matches_scan(net, p, radius);
        }
    }
    assert!(net.segments_near(Point::new(100.0, 100.0), f64::NAN).is_empty());
    for radius in [-1.0, -0.0, f64::NEG_INFINITY] {
        assert_near_matches_scan(net, Point::new(200.0, 200.0), radius);
    }
}

#[test]
fn segments_near_on_an_empty_network_is_empty() {
    let net = RoadNetwork::new();
    for radius in RADII {
        assert!(net.segments_near(Point::new(0.0, 0.0), radius).is_empty());
    }
}

#[test]
fn bounded_search_is_dijkstra_within_the_bound_bitwise() {
    let net = &porto_like().net;
    let n = net.num_segments() as u32;
    let length = |_: SegmentId, next: SegmentId| net.segment(next).length_m as f64;
    let bounds = [0.0, 250.0, 900.0, 2_500.0, f64::INFINITY];
    // One search reused for every source, as the matcher reuses it.
    let mut search = BoundedSearch::new();
    let (mut within, mut beyond) = (0, 0);
    for source in 0..n {
        // Eight spread targets, the source itself, and one repeat.
        let mut targets: Vec<SegmentId> =
            (0..8).map(|k| SegmentId((source * 7 + k * 53 + k * k) % n)).collect();
        targets.push(SegmentId(source));
        targets.push(targets[0]);
        let bound = bounds[source as usize % bounds.len()];
        let source = SegmentId(source);
        search.run(net, source, &targets, bound);
        for &target in &targets {
            let full = dijkstra(net, source, target, length).map(|p| p.cost);
            let want = full.filter(|&c| c <= bound);
            let got = search.cost(target);
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "{source:?} -> {target:?} within {bound}: {got:?} vs dijkstra {full:?}"
            );
            if want.is_some() {
                within += 1;
            } else {
                beyond += 1;
            }
        }
    }
    // Both outcomes must be exercised in numbers.
    assert!(within > 1_000 && beyond > 1_000, "{within} within, {beyond} beyond");
}
