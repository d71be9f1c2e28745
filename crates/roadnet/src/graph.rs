//! The directed road network `G = (V, E, F_V, A)` of Definition 1.
//!
//! Vertices are *road segments*; a directed edge `(v_i, v_j)` means a vehicle
//! can continue from segment `v_i` onto segment `v_j` at the shared
//! intersection. Geometry (segment endpoints) is kept for map matching and
//! for the synthetic GPS simulator, with a uniform grid of segment ids for
//! candidate lookup.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Index of a road segment in its [`RoadNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SegmentId(pub u32);

impl SegmentId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// OSM-style highway classification, one of the six road features (§III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoadKind {
    Motorway,
    Trunk,
    Primary,
    Secondary,
    Tertiary,
    Residential,
}

impl RoadKind {
    pub const ALL: [RoadKind; 6] = [
        RoadKind::Motorway,
        RoadKind::Trunk,
        RoadKind::Primary,
        RoadKind::Secondary,
        RoadKind::Tertiary,
        RoadKind::Residential,
    ];

    /// Index used for one-hot feature encoding.
    pub fn one_hot_index(self) -> usize {
        match self {
            RoadKind::Motorway => 0,
            RoadKind::Trunk => 1,
            RoadKind::Primary => 2,
            RoadKind::Secondary => 3,
            RoadKind::Tertiary => 4,
            RoadKind::Residential => 5,
        }
    }

    /// Typical free-flow speed in km/h used by the synthetic generator.
    pub fn default_speed_kmh(self) -> f32 {
        match self {
            RoadKind::Motorway => 100.0,
            RoadKind::Trunk => 80.0,
            RoadKind::Primary => 60.0,
            RoadKind::Secondary => 50.0,
            RoadKind::Tertiary => 40.0,
            RoadKind::Residential => 30.0,
        }
    }

    pub fn default_lanes(self) -> u8 {
        match self {
            RoadKind::Motorway => 4,
            RoadKind::Trunk => 3,
            RoadKind::Primary => 3,
            RoadKind::Secondary => 2,
            RoadKind::Tertiary => 2,
            RoadKind::Residential => 1,
        }
    }
}

/// A planar point in meters (local projected coordinates of the synthetic
/// city; real deployments would use a projected CRS the same way).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    pub fn distance(self, other: Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(self.x + (other.x - self.x) * t, self.y + (other.y - self.y) * t)
    }
}

/// One directed road segment with the paper's static features.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoadSegment {
    pub kind: RoadKind,
    pub length_m: f32,
    pub lanes: u8,
    pub max_speed_kmh: f32,
    /// Geometric start/end, used by map matching and GPS simulation.
    pub start: Point,
    pub end: Point,
}

impl RoadSegment {
    /// Free-flow traversal time in seconds.
    pub fn free_flow_secs(&self) -> f32 {
        self.length_m / (self.max_speed_kmh / 3.6)
    }

    pub fn midpoint(&self) -> Point {
        self.start.lerp(self.end, 0.5)
    }

    /// Closest point on the segment to `p` and its distance.
    pub fn project(&self, p: Point) -> (Point, f64) {
        let dx = self.end.x - self.start.x;
        let dy = self.end.y - self.start.y;
        let len2 = dx * dx + dy * dy;
        let t = if len2 == 0.0 {
            0.0
        } else {
            (((p.x - self.start.x) * dx + (p.y - self.start.y) * dy) / len2).clamp(0.0, 1.0)
        };
        let proj = self.start.lerp(self.end, t);
        let dist = proj.distance(p);
        (proj, dist)
    }
}

/// Side of a segment-grid cell in meters: a 60 m candidate query in the
/// synthetic cities (200–250 m blocks) touches one to four cells.
const CELL_M: f64 = 125.0;

/// A segment whose bounding box spans more cells than this (or is not
/// finite) is not registered cell by cell; every query checks it instead.
const MAX_CELLS_PER_SEGMENT: f64 = 64.0;

/// The cell range `lo..=hi` covering coordinates `a..=b` along one axis, and
/// its length `hi - lo + 1` (NaN when `a` or `b` is). The casts saturate,
/// which keeps the ranges of overlapping intervals overlapping.
fn cell_span(a: f64, b: f64) -> (i64, i64, f64) {
    let (lo, hi) = ((a / CELL_M).floor(), (b / CELL_M).floor());
    (lo as i64, hi as i64, hi - lo + 1.0)
}

/// Uniform grid of segment ids: each segment is registered in every
/// `(row, col)` cell its bounding box overlaps.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct SegmentGrid {
    cells: BTreeMap<(i64, i64), Vec<u32>>,
    /// Segments spanning more than [`MAX_CELLS_PER_SEGMENT`] cells.
    wide: Vec<u32>,
}

impl SegmentGrid {
    fn insert(&mut self, id: u32, s: &RoadSegment) {
        let (x0, x1, nx) = cell_span(s.start.x.min(s.end.x), s.start.x.max(s.end.x));
        let (y0, y1, ny) = cell_span(s.start.y.min(s.end.y), s.start.y.max(s.end.y));
        if nx * ny <= MAX_CELLS_PER_SEGMENT {
            for row in y0..=y1 {
                for col in x0..=x1 {
                    self.cells.entry((row, col)).or_default().push(id);
                }
            }
        } else {
            self.wide.push(id);
        }
    }
}

/// Directed road-segment graph with CSR-style adjacency.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RoadNetwork {
    segments: Vec<RoadSegment>,
    out_edges: Vec<Vec<SegmentId>>,
    in_edges: Vec<Vec<SegmentId>>,
    grid: SegmentGrid,
}

impl RoadNetwork {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_segment(&mut self, segment: RoadSegment) -> SegmentId {
        let id = SegmentId(self.segments.len() as u32);
        self.grid.insert(id.0, &segment);
        self.segments.push(segment);
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        id
    }

    /// Add the directed edge `from -> to` (traffic may continue from `from`
    /// onto `to`). Duplicate edges are ignored.
    pub fn connect(&mut self, from: SegmentId, to: SegmentId) {
        assert!(from.index() < self.segments.len() && to.index() < self.segments.len());
        if !self.out_edges[from.index()].contains(&to) {
            self.out_edges[from.index()].push(to);
            self.in_edges[to.index()].push(from);
        }
    }

    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    pub fn num_edges(&self) -> usize {
        self.out_edges.iter().map(Vec::len).sum()
    }

    pub fn segment(&self, id: SegmentId) -> &RoadSegment {
        &self.segments[id.index()]
    }

    pub fn segments(&self) -> &[RoadSegment] {
        &self.segments
    }

    pub fn successors(&self, id: SegmentId) -> &[SegmentId] {
        &self.out_edges[id.index()]
    }

    pub fn predecessors(&self, id: SegmentId) -> &[SegmentId] {
        &self.in_edges[id.index()]
    }

    pub fn out_degree(&self, id: SegmentId) -> usize {
        self.out_edges[id.index()].len()
    }

    pub fn in_degree(&self, id: SegmentId) -> usize {
        self.in_edges[id.index()].len()
    }

    pub fn ids(&self) -> impl Iterator<Item = SegmentId> {
        (0..self.segments.len() as u32).map(SegmentId)
    }

    /// Whether a sequence of segments is a connected path in the graph.
    pub fn is_path(&self, path: &[SegmentId]) -> bool {
        path.windows(2).all(|w| self.out_edges[w[0].index()].contains(&w[1]))
    }

    /// All directed edges as `(from, to)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (SegmentId, SegmentId)> + '_ {
        self.out_edges
            .iter()
            .enumerate()
            .flat_map(|(i, outs)| outs.iter().map(move |&j| (SegmentId(i as u32), j)))
    }

    /// Segments within `radius` meters of a point with their distances,
    /// nearest first (ties in id order).
    ///
    /// Candidates come from the grid cells overlapping the square
    /// `p ± radius`. A square spanning more cells than there are segments (a
    /// huge or infinite radius or coordinate), a NaN point and a NaN or
    /// negative radius scan every segment instead. Either way the ids are
    /// projected in ascending order and stably sorted by distance, so the
    /// answer is the full scan's, bit for bit.
    pub fn segments_near(&self, p: Point, radius: f64) -> Vec<(SegmentId, f64)> {
        // The square is padded so that rounding in `project` can never keep
        // a segment whose cells the square misses.
        let reach = radius + 1.0 + 1e-9 * (p.x.abs().max(p.y.abs()) + radius);
        let (x0, x1, nx) = cell_span(p.x - reach, p.x + reach);
        let (y0, y1, ny) = cell_span(p.y - reach, p.y + reach);
        let ids: Vec<u32> = if radius >= 0.0 && nx * ny <= self.segments.len() as f64 {
            let mut ids = self.grid.wide.clone();
            for row in y0..=y1 {
                for (_, cell) in self.grid.cells.range((row, x0)..=(row, x1)) {
                    ids.extend_from_slice(cell);
                }
            }
            ids.sort_unstable();
            ids.dedup();
            ids
        } else {
            (0..self.segments.len() as u32).collect()
        };
        let mut out: Vec<(SegmentId, f64)> = ids
            .into_iter()
            .filter_map(|i| {
                let (_, d) = self.segments[i as usize].project(p);
                (d <= radius).then_some((SegmentId(i), d))
            })
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(x0: f64, y0: f64, x1: f64, y1: f64) -> RoadSegment {
        let start = Point::new(x0, y0);
        let end = Point::new(x1, y1);
        RoadSegment {
            kind: RoadKind::Residential,
            length_m: start.distance(end) as f32,
            lanes: 1,
            max_speed_kmh: 30.0,
            start,
            end,
        }
    }

    #[test]
    fn connectivity_and_degrees() {
        let mut net = RoadNetwork::new();
        let a = net.add_segment(seg(0., 0., 100., 0.));
        let b = net.add_segment(seg(100., 0., 200., 0.));
        let c = net.add_segment(seg(100., 0., 100., 100.));
        net.connect(a, b);
        net.connect(a, c);
        net.connect(a, c); // duplicate ignored
        assert_eq!(net.num_edges(), 2);
        assert_eq!(net.out_degree(a), 2);
        assert_eq!(net.in_degree(c), 1);
        assert!(net.is_path(&[a, b]));
        assert!(!net.is_path(&[b, a]));
    }

    #[test]
    fn projection_clamps_to_segment() {
        let s = seg(0., 0., 100., 0.);
        let (p, d) = s.project(Point::new(50., 10.));
        assert!((p.x - 50.).abs() < 1e-9 && p.y.abs() < 1e-9);
        assert!((d - 10.0).abs() < 1e-9);
        let (p2, d2) = s.project(Point::new(-30., 0.));
        assert!((p2.x).abs() < 1e-9);
        assert!((d2 - 30.0).abs() < 1e-9);
    }

    #[test]
    fn free_flow_time_is_length_over_speed() {
        let mut s = seg(0., 0., 100., 0.);
        s.max_speed_kmh = 36.0; // 10 m/s
        assert!((s.free_flow_secs() - 10.0).abs() < 1e-4);
    }

    #[test]
    fn segments_near_sorted_by_distance() {
        let mut net = RoadNetwork::new();
        net.add_segment(seg(0., 0., 100., 0.));
        net.add_segment(seg(0., 50., 100., 50.));
        net.add_segment(seg(0., 500., 100., 500.));
        let near = net.segments_near(Point::new(50., 10.), 100.0);
        assert_eq!(near.len(), 2);
        assert_eq!(near[0].0, SegmentId(0));
        assert!(near[0].1 <= near[1].1);
    }
}
