//! Shortest-path machinery: Dijkstra, a bounded one-to-many Dijkstra and
//! Yen's k-shortest loopless paths \[24\].
//!
//! Yen's algorithm generates the top-k detour candidates the paper uses to
//! build ground truth for the similarity-search experiments (§IV-D4),
//! Dijkstra (with perturbable edge weights) is the route-choice engine of the
//! trajectory simulator, and [`BoundedSearch`] gives the map matcher its
//! transition distances.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use crate::graph::{RoadNetwork, SegmentId};

/// A path through the segment graph with its total cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    pub segments: Vec<SegmentId>,
    pub cost: f64,
}

#[derive(Debug, PartialEq)]
struct HeapEntry {
    cost: f64,
    seg: SegmentId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on cost.
        other.cost.total_cmp(&self.cost)
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra from `source` to `target` over segment transitions.
///
/// `cost` is charged for *entering* a segment (e.g. its expected travel
/// time), so the returned cost is `sum(cost(v))` over `path[1..]`; banned
/// transitions/segments are expressed by returning `f64::INFINITY`.
pub fn dijkstra(
    net: &RoadNetwork,
    source: SegmentId,
    target: SegmentId,
    mut cost: impl FnMut(SegmentId, SegmentId) -> f64,
) -> Option<Path> {
    let n = net.num_segments();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<SegmentId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(HeapEntry { cost: 0.0, seg: source });

    while let Some(HeapEntry { cost: d, seg }) = heap.pop() {
        if seg == target {
            let mut segments = vec![target];
            let mut cur = target;
            while let Some(p) = prev[cur.index()] {
                segments.push(p);
                cur = p;
            }
            segments.reverse();
            return Some(Path { segments, cost: d });
        }
        if d > dist[seg.index()] {
            continue;
        }
        for &next in net.successors(seg) {
            let w = cost(seg, next);
            if !w.is_finite() {
                continue;
            }
            debug_assert!(w >= 0.0, "negative edge weight");
            let nd = d + w;
            if nd < dist[next.index()] {
                dist[next.index()] = nd;
                prev[next.index()] = Some(seg);
                heap.push(HeapEntry { cost: nd, seg: next });
            }
        }
    }
    None
}

/// Reusable one-to-many Dijkstra within a cost bound: FMM's bounded
/// transition search, without its precomputed table.
///
/// One [`run`](Self::run) finds the route lengths from a source to a few
/// targets; [`cost`](Self::cost) then reads each one. The distance array,
/// heap and touched list are kept between runs and the array is reset
/// through the touched list, so a run costs what it explores, not `|V|`.
#[derive(Debug, Default)]
pub struct BoundedSearch {
    dist: Vec<f64>,
    touched: Vec<SegmentId>,
    heap: BinaryHeap<HeapEntry>,
}

impl BoundedSearch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Search from `source`, charging each segment's `length_m` on entering
    /// it, the cost the map matcher gives [`dijkstra`]. No entry costlier
    /// than `bound` is pushed, and the search stops once every target is
    /// settled or nothing within `bound` is left.
    pub fn run(&mut self, net: &RoadNetwork, source: SegmentId, targets: &[SegmentId], bound: f64) {
        for seg in self.touched.drain(..) {
            self.dist[seg.index()] = f64::INFINITY;
        }
        self.heap.clear();
        self.dist.resize(net.num_segments(), f64::INFINITY);
        // A repeated target is counted twice, so the search then runs to the
        // bound: slower, never wrong.
        let mut unsettled = targets.len();
        self.dist[source.index()] = 0.0;
        self.touched.push(source);
        self.heap.push(HeapEntry { cost: 0.0, seg: source });

        while let Some(HeapEntry { cost: d, seg }) = self.heap.pop() {
            if d > self.dist[seg.index()] {
                continue;
            }
            if targets.contains(&seg) {
                unsettled -= 1;
                if unsettled == 0 {
                    return;
                }
            }
            for &next in net.successors(seg) {
                let w = net.segment(next).length_m as f64;
                if !w.is_finite() {
                    continue;
                }
                let nd = d + w;
                if nd <= bound && nd < self.dist[next.index()] {
                    if self.dist[next.index()] == f64::INFINITY {
                        self.touched.push(next);
                    }
                    self.dist[next.index()] = nd;
                    self.heap.push(HeapEntry { cost: nd, seg: next });
                }
            }
        }
    }

    /// The length from the last run's source to `target`, one of its
    /// targets: bit for bit the `cost` of [`dijkstra`] charging `length_m`,
    /// or `None` when that exceeds the bound or `target` is unreachable.
    pub fn cost(&self, target: SegmentId) -> Option<f64> {
        self.dist.get(target.index()).copied().filter(|d| d.is_finite())
    }
}

/// Yen's k-shortest loopless paths between two segments.
///
/// Returns up to `k` simple paths sorted by ascending cost; the first is the
/// Dijkstra optimum. `cost(from, to)` is charged for the transition.
pub fn yen_ksp(
    net: &RoadNetwork,
    source: SegmentId,
    target: SegmentId,
    k: usize,
    cost: impl Fn(SegmentId, SegmentId) -> f64,
) -> Vec<Path> {
    let Some(best) = dijkstra(net, source, target, &cost) else {
        return Vec::new();
    };
    let mut prev_path = best.segments.clone();
    let mut shortest: Vec<Path> = vec![best];
    let mut candidates: Vec<Path> = Vec::new();

    for _ in 1..k {
        for spur_idx in 0..prev_path.len() - 1 {
            let spur_node = prev_path[spur_idx];
            let root = &prev_path[..=spur_idx];

            // Edges removed: the next hop of every accepted path sharing this root.
            let mut banned_edges: HashSet<(SegmentId, SegmentId)> = HashSet::new();
            for p in shortest.iter().chain(candidates.iter()) {
                if p.segments.len() > spur_idx + 1 && p.segments[..=spur_idx] == *root {
                    banned_edges.insert((p.segments[spur_idx], p.segments[spur_idx + 1]));
                }
            }
            // Nodes removed: the root except the spur node (loopless-ness).
            let banned_nodes: HashSet<SegmentId> = root[..spur_idx].iter().copied().collect();

            let spur = dijkstra(net, spur_node, target, |a, b| {
                if banned_edges.contains(&(a, b)) || banned_nodes.contains(&b) {
                    f64::INFINITY
                } else {
                    cost(a, b)
                }
            });

            if let Some(spur_path) = spur {
                let mut segments = root[..spur_idx].to_vec();
                segments.extend_from_slice(&spur_path.segments);
                let total_cost: f64 = segments.windows(2).map(|w| cost(w[0], w[1])).sum();
                let candidate = Path { segments, cost: total_cost };
                if !shortest.contains(&candidate) && !candidates.contains(&candidate) {
                    candidates.push(candidate);
                }
            }
        }
        candidates.sort_by(|a, b| b.cost.total_cmp(&a.cost));
        let Some(next) = candidates.pop() else {
            break;
        };
        prev_path = next.segments.clone();
        shortest.push(next);
    }
    shortest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Point, RoadKind, RoadSegment};

    /// Diamond: 0 -> {1 (cheap), 2 (expensive)} -> 3, plus a long chain 0->4->5->3.
    fn diamond() -> RoadNetwork {
        let mut net = RoadNetwork::new();
        for i in 0..6 {
            let p = Point::new(i as f64, 0.0);
            net.add_segment(RoadSegment {
                kind: RoadKind::Primary,
                length_m: 100.0,
                lanes: 2,
                max_speed_kmh: 50.0,
                start: p,
                end: Point::new(i as f64 + 1.0, 0.0),
            });
        }
        let s = SegmentId;
        net.connect(s(0), s(1));
        net.connect(s(0), s(2));
        net.connect(s(1), s(3));
        net.connect(s(2), s(3));
        net.connect(s(0), s(4));
        net.connect(s(4), s(5));
        net.connect(s(5), s(3));
        net
    }

    fn costs(a: SegmentId, b: SegmentId) -> f64 {
        match (a.0, b.0) {
            (0, 1) => 1.0,
            (1, 3) => 1.0,
            (0, 2) => 2.0,
            (2, 3) => 2.0,
            (0, 4) => 3.0,
            (4, 5) => 3.0,
            (5, 3) => 3.0,
            _ => f64::INFINITY,
        }
    }

    #[test]
    fn dijkstra_finds_cheapest() {
        let net = diamond();
        let p = dijkstra(&net, SegmentId(0), SegmentId(3), costs).unwrap();
        assert_eq!(p.segments, vec![SegmentId(0), SegmentId(1), SegmentId(3)]);
        assert!((p.cost - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dijkstra_unreachable_returns_none() {
        let net = diamond();
        assert!(dijkstra(&net, SegmentId(3), SegmentId(0), costs).is_none());
    }

    #[test]
    fn yen_returns_sorted_distinct_simple_paths() {
        let net = diamond();
        let paths = yen_ksp(&net, SegmentId(0), SegmentId(3), 3, costs);
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0].segments, vec![SegmentId(0), SegmentId(1), SegmentId(3)]);
        assert_eq!(paths[1].segments, vec![SegmentId(0), SegmentId(2), SegmentId(3)]);
        assert_eq!(paths[2].segments, vec![SegmentId(0), SegmentId(4), SegmentId(5), SegmentId(3)]);
        // Sorted by cost.
        assert!(paths.windows(2).all(|w| w[0].cost <= w[1].cost));
        // Loopless.
        for p in &paths {
            let set: HashSet<_> = p.segments.iter().collect();
            assert_eq!(set.len(), p.segments.len());
        }
    }

    #[test]
    fn yen_k_larger_than_path_count() {
        let net = diamond();
        let paths = yen_ksp(&net, SegmentId(0), SegmentId(3), 10, costs);
        assert_eq!(paths.len(), 3, "only 3 simple paths exist");
    }
}
