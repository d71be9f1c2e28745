//! Road transfer-probability matrix (Eq. 2) — the travel-semantics signal
//! that turns a plain GAT into the paper's TPE-GAT.
//!
//! `p_trans(i, j) = count(v_i -> v_j) / count(v_i)` over the trajectory
//! dataset, where `count(v_i)` is the number of times road `v_i` appears.
//! Stored sparsely: only edges observed in trajectories have entries.

use std::collections::HashMap;

use crate::graph::SegmentId;

/// Sparse empirical transfer probabilities between adjacent road segments.
#[derive(Debug, Clone, Default)]
pub struct TransferMatrix {
    /// Visit count per segment.
    visits: Vec<u64>,
    /// Directed transition counts.
    transitions: HashMap<(u32, u32), u64>,
}

impl TransferMatrix {
    /// Accumulate counts from road-id sequences (the trajectory dataset `D`).
    pub fn from_sequences<'a>(
        num_segments: usize,
        sequences: impl IntoIterator<Item = &'a [SegmentId]>,
    ) -> Self {
        let mut m = Self { visits: vec![0; num_segments], transitions: HashMap::new() };
        for seq in sequences {
            m.add_sequence(seq);
        }
        m
    }

    pub fn add_sequence(&mut self, seq: &[SegmentId]) {
        for &s in seq {
            self.visits[s.index()] += 1;
        }
        for w in seq.windows(2) {
            *self.transitions.entry((w[0].0, w[1].0)).or_insert(0) += 1;
        }
    }

    /// `p_trans(from, to)` per Eq. (2); 0 when `from` was never visited.
    pub fn probability(&self, from: SegmentId, to: SegmentId) -> f32 {
        let visits = self.visits[from.index()];
        if visits == 0 {
            return 0.0;
        }
        let count = self.transitions.get(&(from.0, to.0)).copied().unwrap_or(0);
        count as f32 / visits as f32
    }

    /// Raw visit count of a segment (Fig. 1(a) statistics).
    pub fn visit_count(&self, seg: SegmentId) -> u64 {
        self.visits[seg.index()]
    }

    /// Segments never covered by any trajectory (the paper drops these, §IV-A).
    pub fn uncovered(&self) -> impl Iterator<Item = SegmentId> + '_ {
        self.visits.iter().enumerate().filter(|(_, &v)| v == 0).map(|(i, _)| SegmentId(i as u32))
    }

    pub fn num_observed_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Gini coefficient of the visit distribution — the skew statistic behind
    /// Fig. 1(a): arterials dominate visit counts.
    pub fn visit_gini(&self) -> f64 {
        let mut v: Vec<f64> = self.visits.iter().map(|&c| c as f64).collect();
        v.sort_by(f64::total_cmp);
        let n = v.len() as f64;
        let sum: f64 = v.iter().sum();
        if sum == 0.0 {
            return 0.0;
        }
        let weighted: f64 = v.iter().enumerate().map(|(i, x)| (i as f64 + 1.0) * x).sum();
        (2.0 * weighted) / (n * sum) - (n + 1.0) / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(ids: &[u32]) -> Vec<SegmentId> {
        ids.iter().map(|&i| SegmentId(i)).collect()
    }

    #[test]
    fn probabilities_match_counts() {
        let a = seq(&[0, 1, 2]);
        let b = seq(&[0, 1, 3]);
        let c = seq(&[0, 2, 3]);
        let m = TransferMatrix::from_sequences(4, [a.as_slice(), b.as_slice(), c.as_slice()]);
        // Road 0 visited 3 times; 0->1 twice, 0->2 once.
        assert!((m.probability(SegmentId(0), SegmentId(1)) - 2.0 / 3.0).abs() < 1e-6);
        assert!((m.probability(SegmentId(0), SegmentId(2)) - 1.0 / 3.0).abs() < 1e-6);
        assert_eq!(m.probability(SegmentId(0), SegmentId(3)), 0.0);
        assert_eq!(m.visit_count(SegmentId(3)), 2);
    }

    #[test]
    fn unvisited_road_has_zero_probability() {
        let m = TransferMatrix::from_sequences(3, std::iter::empty::<&[SegmentId]>());
        assert_eq!(m.probability(SegmentId(0), SegmentId(1)), 0.0);
        assert_eq!(m.uncovered().count(), 3);
    }

    #[test]
    fn gini_zero_for_uniform_visits() {
        let a = seq(&[0]);
        let b = seq(&[1]);
        let c = seq(&[2]);
        let m = TransferMatrix::from_sequences(3, [a.as_slice(), b.as_slice(), c.as_slice()]);
        assert!(m.visit_gini().abs() < 1e-9);
    }

    #[test]
    fn gini_grows_with_skew() {
        let hot: Vec<SegmentId> = std::iter::repeat_n(SegmentId(0), 99).collect();
        let cold = seq(&[1]);
        let m = TransferMatrix::from_sequences(2, [hot.as_slice(), cold.as_slice()]);
        assert!(m.visit_gini() > 0.4, "gini = {}", m.visit_gini());
    }
}
