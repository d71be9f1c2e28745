//! Registered symbolic tape families for the baseline trainers
//! (`start-analysis verify`; DESIGN.md §15).
//!
//! One [`TapeFamily`] per baseline of §IV-B, each recording exactly the tape
//! its pre-training loop builds for a single objective term, with the
//! trajectory length as the symbolic size knob. Trajectories are synthetic
//! (cyclic road ids on a 30-second grid) — the verifier needs valid index
//! ranges, not real data.
//!
//! The GRU autoencoders and PIM unroll per-timestep recurrences, so their
//! tape *structure* changes with `n`; those families exercise the verifier's
//! per-anchor fallback. The transformer family records a length-independent
//! op sequence and verifies on the aligned fast path.

use rand::rngs::StdRng;
use rand::SeedableRng;

use start_nn::graph::{Graph, NodeId};
use start_nn::params::ParamStore;
use start_nn::symbolic::TapeFamily;
use start_roadnet::SegmentId;
use start_traj::{Trajectory, TravelMode};

use crate::gru_seq2seq::{GruSeq2Seq, Seq2SeqKind};
use crate::pim::Pim;
use crate::transformer_family::{TfKind, TransformerBaseline};

/// Small synthetic road network / model scale shared by all families.
const NUM_ROADS: usize = 24;
const DIM: usize = 16;
const MAX_LEN: usize = 64;

/// A deterministic trajectory of exactly `n` roads: cyclic valid segment
/// ids, 30-second timestamp grid. `phase` de-correlates the anchor from the
/// in-batch negative.
fn synth_traj(n: usize, phase: usize) -> Trajectory {
    assert!(n >= 1);
    let roads = (0..n).map(|i| SegmentId(((i * 7 + phase * 5 + 1) % NUM_ROADS) as u32)).collect();
    let start = 1_700_000_000i64 + phase as i64 * 3600;
    let times = (0..n).map(|i| start + i as i64 * 30).collect();
    Trajectory {
        roads,
        times,
        driver: phase as u32,
        occupied: true,
        mode: TravelMode::CarTaxi,
        arrival: start + n as i64 * 30,
    }
}

/// A deterministic stand-in for the node2vec table (Toast and PIM require
/// one); values are small and varied, which is all the tracer needs.
fn synth_node2vec() -> Vec<f32> {
    (0..NUM_ROADS * DIM).map(|i| ((i * 31 + 7) % 97) as f32 / 97.0 - 0.5).collect()
}

/// traj2vec / t2vec / Trembr — the seq2seq reconstruction family.
pub struct GruSeq2SeqFamily(pub GruSeq2Seq);

impl GruSeq2SeqFamily {
    pub fn build(kind: Seq2SeqKind) -> Self {
        Self(GruSeq2Seq::new(kind, NUM_ROADS, DIM, MAX_LEN, 7))
    }
}

impl TapeFamily for GruSeq2SeqFamily {
    fn name(&self) -> String {
        format!("baseline/{:?}", self.0.kind()).to_lowercase()
    }

    fn store(&self) -> &ParamStore {
        start_nn::train::Trainable::store(&self.0)
    }

    fn record<'s>(&'s self, g: &mut Graph<'s>, n: usize) -> NodeId {
        let mut rng = StdRng::seed_from_u64(17);
        self.0.record_pretrain_loss(g, &synth_traj(n, 0), &mut rng)
    }
}

/// Transformer / BERT / Toast / PIM-TF — the self-attention family.
pub struct TransformerFamily(pub TransformerBaseline);

impl TransformerFamily {
    pub fn build(kind: TfKind) -> Self {
        let table = synth_node2vec();
        let table = matches!(kind, TfKind::Toast).then_some(table.as_slice());
        Self(TransformerBaseline::new(kind, NUM_ROADS, DIM, 1, 2, MAX_LEN, table, 7))
    }
}

impl TapeFamily for TransformerFamily {
    fn name(&self) -> String {
        format!("baseline/{:?}", self.0.kind()).to_lowercase()
    }

    fn store(&self) -> &ParamStore {
        start_nn::train::Trainable::store(&self.0)
    }

    fn record<'s>(&'s self, g: &mut Graph<'s>, n: usize) -> NodeId {
        let mut rng = StdRng::seed_from_u64(17);
        self.0.record_pretrain_loss(g, &synth_traj(n, 0), &synth_traj(n, 1), &mut rng)
    }
}

/// PIM — mutual information maximization on a GRU.
pub struct PimFamily(pub Pim);

impl PimFamily {
    pub fn build() -> Self {
        Self(Pim::new(NUM_ROADS, DIM, MAX_LEN, &synth_node2vec(), 7))
    }
}

impl TapeFamily for PimFamily {
    fn name(&self) -> String {
        "baseline/pim".to_string()
    }

    fn store(&self) -> &ParamStore {
        start_nn::train::Trainable::store(&self.0)
    }

    fn record<'s>(&'s self, g: &mut Graph<'s>, n: usize) -> NodeId {
        let mut rng = StdRng::seed_from_u64(17);
        self.0.record_pretrain_loss(g, &synth_traj(n, 0), &synth_traj(n, 1), &mut rng)
    }
}

/// All eight baseline trainers as symbolic tape families.
pub fn symbolic_families() -> Vec<Box<dyn TapeFamily>> {
    let mut fams: Vec<Box<dyn TapeFamily>> = Vec::new();
    for kind in [Seq2SeqKind::Traj2Vec, Seq2SeqKind::T2Vec, Seq2SeqKind::Trembr] {
        fams.push(Box::new(GruSeq2SeqFamily::build(kind)));
    }
    for kind in [TfKind::TransformerMlm, TfKind::Bert, TfKind::Toast, TfKind::PimTf] {
        fams.push(Box::new(TransformerFamily::build(kind)));
    }
    fams.push(Box::new(PimFamily::build()));
    fams
}

#[cfg(test)]
mod tests {
    use super::*;
    use start_nn::symbolic::{verify_family, DEFAULT_ANCHORS};
    use start_nn::Findings;

    /// All eight baseline trainers verify with zero Error findings at the
    /// default anchors — the CI gate's contract.
    #[test]
    fn all_baseline_families_verify_clean() {
        let fams = symbolic_families();
        assert_eq!(fams.len(), 8, "all eight baselines must be registered");
        for fam in fams {
            let report = verify_family(fam.as_ref(), DEFAULT_ANCHORS);
            assert!(
                !report.has_errors(),
                "{} must verify without errors:\n{report}",
                report.family
            );
            assert!(report.trained_params > 0, "{} trains nothing:\n{report}", report.family);
        }
    }
}
