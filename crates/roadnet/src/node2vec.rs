//! node2vec \[17\]: biased second-order random walks + skip-gram with negative
//! sampling. Used by the PIM and Toast baselines and by the `w/ Node2vec`
//! ablation of Fig. 7 — the road-embedding method the paper argues TPE-GAT
//! improves upon.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::graph::{RoadNetwork, SegmentId};

/// node2vec hyper-parameters.
#[derive(Debug, Clone)]
pub struct Node2VecConfig {
    pub dim: usize,
    pub walks_per_node: usize,
    pub walk_length: usize,
    pub window: usize,
    /// Return parameter `p`: high p discourages revisiting the previous node.
    pub p: f64,
    /// In-out parameter `q`: low q encourages exploration (DFS-like).
    pub q: f64,
    pub negatives: usize,
    pub epochs: usize,
    pub lr: f32,
    pub seed: u64,
}

impl Default for Node2VecConfig {
    fn default() -> Self {
        Self {
            dim: 64,
            walks_per_node: 6,
            walk_length: 24,
            window: 4,
            p: 1.0,
            q: 0.5,
            negatives: 4,
            epochs: 2,
            lr: 0.025,
            seed: 17,
        }
    }
}

/// Learned road embeddings: `(num_segments, dim)` row-major.
#[derive(Debug, Clone)]
pub struct NodeEmbeddings {
    pub dim: usize,
    data: Vec<f32>,
}

impl NodeEmbeddings {
    pub fn vector(&self, seg: SegmentId) -> &[f32] {
        &self.data[seg.index() * self.dim..(seg.index() + 1) * self.dim]
    }

    pub fn num_nodes(&self) -> usize {
        self.data.len() / self.dim
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Cosine similarity between two node vectors.
    pub fn cosine(&self, a: SegmentId, b: SegmentId) -> f32 {
        let (va, vb) = (self.vector(a), self.vector(b));
        let dot: f32 = va.iter().zip(vb).map(|(x, y)| x * y).sum();
        let na: f32 = va.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = vb.iter().map(|x| x * x).sum::<f32>().sqrt();
        dot / (na * nb).max(1e-12)
    }
}

/// Generate one biased walk starting at `start`.
fn biased_walk(
    net: &RoadNetwork,
    start: SegmentId,
    length: usize,
    p: f64,
    q: f64,
    rng: &mut StdRng,
) -> Vec<SegmentId> {
    let mut walk = Vec::with_capacity(length);
    walk.push(start);
    let mut cur = start;
    while walk.len() < length {
        let neighbors = net.successors(cur);
        if neighbors.is_empty() {
            break;
        }
        let next = if walk.len() == 1 {
            neighbors[rng.gen_range(0..neighbors.len())]
        } else {
            let prev = walk[walk.len() - 2];
            // Second-order bias: 1/p to return, 1 if next is adjacent to
            // prev, 1/q otherwise.
            let weights: Vec<f64> = neighbors
                .iter()
                .map(|&nb| {
                    if nb == prev {
                        1.0 / p
                    } else if net.successors(prev).contains(&nb) {
                        1.0
                    } else {
                        1.0 / q
                    }
                })
                .collect();
            let total: f64 = weights.iter().sum();
            let mut draw = rng.gen::<f64>() * total;
            let mut chosen = neighbors[neighbors.len() - 1];
            for (&nb, w) in neighbors.iter().zip(&weights) {
                if draw < *w {
                    chosen = nb;
                    break;
                }
                draw -= w;
            }
            chosen
        };
        walk.push(next);
        cur = next;
    }
    walk
}

/// Train node2vec embeddings over a road network.
pub fn node2vec(net: &RoadNetwork, cfg: &Node2VecConfig) -> NodeEmbeddings {
    let n = net.num_segments();
    let dim = cfg.dim;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Input (center) and output (context) embeddings.
    let bound = 0.5 / dim as f32;
    let mut emb: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-bound..bound)).collect();
    let mut ctx: Vec<f32> = vec![0.0; n * dim];

    // Pre-generate walks.
    let mut walks = Vec::with_capacity(n * cfg.walks_per_node);
    for _ in 0..cfg.walks_per_node {
        for start in net.ids() {
            walks.push(biased_walk(net, start, cfg.walk_length, cfg.p, cfg.q, &mut rng));
        }
    }

    let sigmoid = |x: f32| 1.0 / (1.0 + (-x).exp());
    let mut grad_center = vec![0.0f32; dim];
    for epoch in 0..cfg.epochs {
        let lr = cfg.lr * (1.0 - epoch as f32 / cfg.epochs as f32).max(0.1);
        for walk in &walks {
            for (i, &center) in walk.iter().enumerate() {
                let lo = i.saturating_sub(cfg.window);
                let hi = (i + cfg.window + 1).min(walk.len());
                for (j, &context) in walk.iter().enumerate().take(hi).skip(lo) {
                    if j == i {
                        continue;
                    }
                    grad_center.fill(0.0);
                    // Positive + negative samples, standard SGNS update.
                    for neg in 0..=cfg.negatives {
                        let (target, label) = if neg == 0 {
                            (context, 1.0f32)
                        } else {
                            (SegmentId(rng.gen_range(0..n) as u32), 0.0f32)
                        };
                        let (c0, t0) = (center.index() * dim, target.index() * dim);
                        let dot: f32 = (0..dim).map(|d| emb[c0 + d] * ctx[t0 + d]).sum();
                        let g = (sigmoid(dot) - label) * lr;
                        for d in 0..dim {
                            grad_center[d] += g * ctx[t0 + d];
                            ctx[t0 + d] -= g * emb[c0 + d];
                        }
                    }
                    let c0 = center.index() * dim;
                    for d in 0..dim {
                        emb[c0 + d] -= grad_center[d];
                    }
                }
            }
        }
    }
    NodeEmbeddings { dim, data: emb }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate_city, CityConfig};

    #[test]
    fn walks_follow_edges() {
        let city = generate_city("tiny", &CityConfig::tiny());
        let mut rng = StdRng::seed_from_u64(3);
        for start in city.net.ids().take(10) {
            let walk = biased_walk(&city.net, start, 12, 1.0, 0.5, &mut rng);
            assert!(city.net.is_path(&walk), "walk leaves the graph");
        }
    }

    #[test]
    fn adjacent_roads_more_similar_than_distant() {
        let city = generate_city("tiny", &CityConfig::tiny());
        let cfg = Node2VecConfig { dim: 32, epochs: 2, ..Default::default() };
        let emb = node2vec(&city.net, &cfg);
        assert_eq!(emb.num_nodes(), city.net.num_segments());

        // Average similarity of connected pairs should exceed that of random
        // distant pairs — the basic locality property of node2vec.
        let mut rng = StdRng::seed_from_u64(9);
        let mut adj_sim = 0.0;
        let mut adj_n = 0;
        for id in city.net.ids() {
            for &next in city.net.successors(id) {
                adj_sim += emb.cosine(id, next);
                adj_n += 1;
            }
        }
        adj_sim /= adj_n as f32;
        let n = city.net.num_segments();
        let mut rand_sim = 0.0;
        let trials = 2000;
        for _ in 0..trials {
            let a = SegmentId(rng.gen_range(0..n) as u32);
            let b = SegmentId(rng.gen_range(0..n) as u32);
            rand_sim += emb.cosine(a, b);
        }
        rand_sim /= trials as f32;
        assert!(
            adj_sim > rand_sim + 0.05,
            "adjacent {adj_sim} vs random {rand_sim}: embeddings not local"
        );
    }
}
