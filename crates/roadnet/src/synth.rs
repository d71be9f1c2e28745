//! Synthetic city generator — the substitution for the OSM extracts of
//! Beijing and Porto (see DESIGN.md §1 and §4).
//!
//! Cities are grids of intersections with a road-kind hierarchy (arterials
//! every few blocks, a trunk ring, residential fill), each physical road
//! realized as two directed segments. The Porto-like variant removes a
//! coastal corner and random interior roads to produce a *heterogeneous*
//! network, which is what the cross-city transfer experiment (Table III)
//! needs. After edits the network is reduced to its largest strongly
//! connected component so every OD pair used by the simulator is routable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::graph::{Point, RoadKind, RoadNetwork, RoadSegment, SegmentId};

/// Configuration for the grid-city generator.
#[derive(Debug, Clone)]
pub struct CityConfig {
    /// Intersections along x.
    pub width: usize,
    /// Intersections along y.
    pub height: usize,
    /// Block edge length in meters.
    pub spacing_m: f64,
    /// Every n-th row/column is an arterial (Primary).
    pub arterial_every: usize,
    /// Fraction of interior physical roads randomly removed.
    pub removal_rate: f64,
    /// Remove intersections with `x_idx + y_idx < cut` (the Porto "coast").
    pub corner_cut: usize,
    pub seed: u64,
}

impl CityConfig {
    /// A Beijing-like city: large regular grid, trunk ring, dense arterials.
    pub fn beijing_like() -> Self {
        Self {
            width: 16,
            height: 16,
            spacing_m: 250.0,
            arterial_every: 4,
            removal_rate: 0.0,
            corner_cut: 0,
            seed: 20151101,
        }
    }

    /// A Porto-like city: smaller, irregular, with a coastal cut.
    pub fn porto_like() -> Self {
        Self {
            width: 12,
            height: 10,
            spacing_m: 200.0,
            arterial_every: 3,
            removal_rate: 0.12,
            corner_cut: 6,
            seed: 20130701,
        }
    }

    /// A tiny city for unit tests and examples.
    pub fn tiny() -> Self {
        Self {
            width: 5,
            height: 5,
            spacing_m: 200.0,
            arterial_every: 2,
            removal_rate: 0.0,
            corner_cut: 0,
            seed: 7,
        }
    }
}

/// A generated city: a named road network.
#[derive(Debug, Clone)]
pub struct City {
    pub name: String,
    pub net: RoadNetwork,
}

/// Generate a city from a config.
pub fn generate_city(name: &str, cfg: &CityConfig) -> City {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (w, h) = (cfg.width, cfg.height);
    let alive = |x: usize, y: usize| -> bool { x + y >= cfg.corner_cut };

    // Physical roads between adjacent alive intersections.
    struct Physical {
        a: (usize, usize),
        b: (usize, usize),
        kind: RoadKind,
    }
    let mut physicals = Vec::new();
    let kind_for = |x0: usize, y0: usize, x1: usize, y1: usize| -> RoadKind {
        let on_ring = |x: usize, y: usize| x == 0 || y == 0 || x == w - 1 || y == h - 1;
        if on_ring(x0, y0) && on_ring(x1, y1) {
            RoadKind::Trunk
        } else if (x0 == x1 && x0.is_multiple_of(cfg.arterial_every))
            || (y0 == y1 && y0.is_multiple_of(cfg.arterial_every))
        {
            RoadKind::Primary
        } else if (x0 == x1 && x0.is_multiple_of(2)) || (y0 == y1 && y0.is_multiple_of(2)) {
            RoadKind::Secondary
        } else {
            RoadKind::Residential
        }
    };
    for y in 0..h {
        for x in 0..w {
            if !alive(x, y) {
                continue;
            }
            if x + 1 < w && alive(x + 1, y) {
                physicals.push(Physical {
                    a: (x, y),
                    b: (x + 1, y),
                    kind: kind_for(x, y, x + 1, y),
                });
            }
            if y + 1 < h && alive(x, y + 1) {
                physicals.push(Physical {
                    a: (x, y),
                    b: (x, y + 1),
                    kind: kind_for(x, y, x, y + 1),
                });
            }
        }
    }

    // Random interior removal (never remove trunk/primary, keeps the skeleton).
    physicals.retain(|p| {
        p.kind == RoadKind::Trunk
            || p.kind == RoadKind::Primary
            || rng.gen::<f64>() >= cfg.removal_rate
    });

    // Two directed segments per physical road.
    let mut net = RoadNetwork::new();
    let pt =
        |(x, y): (usize, usize)| Point::new(x as f64 * cfg.spacing_m, y as f64 * cfg.spacing_m);
    // node -> (incoming segment ends here, outgoing segment starts here)
    let mut starts_at: Vec<Vec<SegmentId>> = vec![Vec::new(); w * h];
    let mut ends_at: Vec<Vec<SegmentId>> = vec![Vec::new(); w * h];
    let node_idx = |(x, y): (usize, usize)| y * w + x;

    for p in &physicals {
        let (a, b) = (pt(p.a), pt(p.b));
        let length = a.distance(b) as f32;
        // Slight per-road variation so features are not constant per class.
        let jitter = 1.0 + rng.gen_range(-0.1..0.1f32);
        let mk = |start: Point, end: Point, rng: &mut StdRng| RoadSegment {
            kind: p.kind,
            length_m: length * (1.0 + rng.gen_range(-0.02..0.02f32)),
            lanes: p.kind.default_lanes(),
            max_speed_kmh: p.kind.default_speed_kmh() * jitter,
            start,
            end,
        };
        let fwd = net.add_segment(mk(a, b, &mut rng));
        let bwd = net.add_segment(mk(b, a, &mut rng));
        starts_at[node_idx(p.a)].push(fwd);
        ends_at[node_idx(p.b)].push(fwd);
        starts_at[node_idx(p.b)].push(bwd);
        ends_at[node_idx(p.a)].push(bwd);
    }

    // Segment connectivity: at each intersection, every incoming segment may
    // continue onto every outgoing one except its own reverse (no U-turns).
    for node in 0..w * h {
        for &inc in &ends_at[node] {
            for &out in &starts_at[node] {
                let rev = net.segment(inc).start == net.segment(out).end
                    && net.segment(inc).end == net.segment(out).start;
                if !rev {
                    net.connect(inc, out);
                }
            }
        }
    }

    City { name: name.to_owned(), net: largest_scc(&net) }
}

/// Convenience constructors mirroring the paper's datasets.
pub fn beijing_like() -> City {
    generate_city("BJ-mini", &CityConfig::beijing_like())
}

pub fn porto_like() -> City {
    generate_city("Porto-mini", &CityConfig::porto_like())
}

/// Reduce a network to its largest strongly connected component
/// (Kosaraju's algorithm), remapping segment ids densely.
pub fn largest_scc(net: &RoadNetwork) -> RoadNetwork {
    let n = net.num_segments();
    // First pass: finish order on the forward graph.
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for start in 0..n {
        if visited[start] {
            continue;
        }
        // Iterative DFS with an explicit phase marker.
        let mut stack = vec![(SegmentId(start as u32), false)];
        while let Some((v, processed)) = stack.pop() {
            if processed {
                order.push(v);
                continue;
            }
            if visited[v.index()] {
                continue;
            }
            visited[v.index()] = true;
            stack.push((v, true));
            for &next in net.successors(v) {
                if !visited[next.index()] {
                    stack.push((next, false));
                }
            }
        }
    }
    // Second pass: components on the reverse graph in reverse finish order.
    let mut component = vec![usize::MAX; n];
    let mut num_components = 0;
    for &v in order.iter().rev() {
        if component[v.index()] != usize::MAX {
            continue;
        }
        let mut stack = vec![v];
        component[v.index()] = num_components;
        while let Some(u) = stack.pop() {
            for &p in net.predecessors(u) {
                if component[p.index()] == usize::MAX {
                    component[p.index()] = num_components;
                    stack.push(p);
                }
            }
        }
        num_components += 1;
    }
    let mut sizes = vec![0usize; num_components];
    for &c in &component {
        sizes[c] += 1;
    }
    // An empty network has no component.
    let Some(largest) = sizes.iter().enumerate().max_by_key(|(_, &s)| s).map(|(i, _)| i) else {
        return RoadNetwork::new();
    };

    // Rebuild with dense ids.
    let mut remap = vec![None; n];
    let mut out = RoadNetwork::new();
    for i in 0..n {
        if component[i] == largest {
            remap[i] = Some(out.add_segment(net.segment(SegmentId(i as u32)).clone()));
        }
    }
    for (from, to) in net.edges() {
        if let (Some(f), Some(t)) = (remap[from.index()], remap[to.index()]) {
            out.connect(f, t);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortest_path::dijkstra;

    #[test]
    fn beijing_like_is_strongly_connected_and_sizeable() {
        let city = beijing_like();
        let n = city.net.num_segments();
        assert!(n >= 500, "BJ-mini too small: {n}");
        // Strong connectivity: route from segment 0 to a far segment and back.
        let far = SegmentId((n - 1) as u32);
        let cost = |_: SegmentId, b: SegmentId| city.net.segment(b).free_flow_secs() as f64;
        assert!(dijkstra(&city.net, SegmentId(0), far, cost).is_some());
        assert!(dijkstra(&city.net, far, SegmentId(0), cost).is_some());
    }

    #[test]
    fn porto_like_is_smaller_and_heterogeneous() {
        let bj = beijing_like();
        let porto = porto_like();
        assert!(porto.net.num_segments() < bj.net.num_segments());
        // The corner cut must actually remove the corner region.
        assert!(porto.net.num_segments() > 100);
    }

    #[test]
    fn no_immediate_u_turns() {
        let city = generate_city("tiny", &CityConfig::tiny());
        for id in city.net.ids() {
            let s = city.net.segment(id);
            for &next in city.net.successors(id) {
                let t = city.net.segment(next);
                assert!(!(s.start == t.end && s.end == t.start), "U-turn edge {id:?} -> {next:?}");
            }
        }
    }

    #[test]
    fn road_kinds_form_a_hierarchy() {
        let city = beijing_like();
        let mut kinds = std::collections::HashSet::new();
        for s in city.net.segments() {
            kinds.insert(s.kind);
        }
        assert!(kinds.contains(&RoadKind::Trunk));
        assert!(kinds.contains(&RoadKind::Primary));
        assert!(kinds.contains(&RoadKind::Residential));
    }

    #[test]
    fn scc_of_two_islands_keeps_larger() {
        use crate::graph::{Point, RoadSegment};
        let mut net = RoadNetwork::new();
        let mk = |i: f64| RoadSegment {
            kind: RoadKind::Primary,
            length_m: 100.0,
            lanes: 2,
            max_speed_kmh: 50.0,
            start: Point::new(i, 0.0),
            end: Point::new(i + 1.0, 0.0),
        };
        // Island A: 0 <-> 1 <-> 2 (cycle of 3)
        let a0 = net.add_segment(mk(0.0));
        let a1 = net.add_segment(mk(1.0));
        let a2 = net.add_segment(mk(2.0));
        net.connect(a0, a1);
        net.connect(a1, a2);
        net.connect(a2, a0);
        // Island B: 3 <-> 4 (cycle of 2), plus a one-way bridge A -> B.
        let b0 = net.add_segment(mk(10.0));
        let b1 = net.add_segment(mk(11.0));
        net.connect(b0, b1);
        net.connect(b1, b0);
        net.connect(a0, b0);
        let reduced = largest_scc(&net);
        assert_eq!(reduced.num_segments(), 3);
    }
}
