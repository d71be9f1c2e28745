//! Registered symbolic tape families for the START model zoo
//! (`start-analysis verify`; DESIGN.md §15).
//!
//! Each family is a no-data tracing constructor ([`TapeFamily`]): it owns a
//! deterministic fixture (the [`StandardShard`] city, model, and simulated
//! trajectories) and records the *exact* tape its training or serving loop
//! builds, at a caller-chosen size knob `n`. The symbolic verifier traces
//! each family at several anchor sizes and proves shape soundness, gradient
//! connectivity, and the absence of statically reachable numerical hazards
//! — before any real data exists.
//!
//! The size knob per family:
//! * `start/pretrain` — shard size (trajectories per shard). Span masking
//!   makes the tape structure data-dependent, so this family exercises the
//!   verifier's per-anchor fallback path by design;
//! * `start/eta`, `start/classify` — sequence length of a fixed 2-trajectory
//!   fine-tuning batch;
//! * `start/encode` — sequence length of the serve-path (eval mode) encode
//!   graph.
//!
//! [`broken_families`] returns the deliberately malformed configurations
//! from the acceptance criteria (mismatched head dimension; fully detached
//! target tower); tests assert they fail with the expected Error findings.

use rand::rngs::StdRng;
use rand::SeedableRng;

use start_nn::graph::{Graph, NodeId};
use start_nn::layers::Linear;
use start_nn::params::{Init, ParamId, ParamStore};
use start_nn::symbolic::TapeFamily;
use start_nn::Array;
use start_sync::Arc;
use start_traj::{TrajView, Trajectory};

use crate::downstream::TrajEncoder;
use crate::model::{clamp_view, departure_only_view, StartModel};
use crate::pretrain::{build_shard_loss, StandardShard};

/// Classes of the synthetic classification head.
const NUM_CLASSES: usize = 4;

/// Shared fixture for every START family: the standard pretrain shard
/// (synthetic city, test-scale model, 64 simulated trajectories) plus the
/// fine-tuning heads the downstream families record through. One build
/// serves all families; heads live in the model's own store so each graph
/// binds a single parameter store.
pub struct VerifyFixture {
    shard: StandardShard,
    eta_head: Linear,
    cls_head: Linear,
    /// A head weight whose input width disagrees with the encoder output —
    /// recorded only by the broken family, where the eager matmul assert
    /// must fire. Kept as a raw param (not a [`Linear`]) so the record-time
    /// failure is the matmul shape assert in every build profile.
    bad_head: ParamId,
}

impl VerifyFixture {
    pub fn build() -> Arc<Self> {
        let mut shard = StandardShard::build();
        let mut rng = StdRng::seed_from_u64(41);
        let dim = shard.model.cfg.dim;
        let store = &mut shard.model.store;
        let eta_head = Linear::new(store, &mut rng, "verify_eta_head", dim, 1, true);
        let cls_head = Linear::new(store, &mut rng, "verify_cls_head", dim, NUM_CLASSES, true);
        let bad_head =
            store.param("verify_bad_head.w".to_string(), dim + 3, 1, Init::XavierUniform, &mut rng);
        Arc::new(Self { shard, eta_head, cls_head, bad_head })
    }

    fn model(&self) -> &StartModel {
        &self.shard.model
    }

    /// A deterministic trajectory of exactly `n` roads, built by cycling a
    /// simulated trajectory's roads (so every id is valid for the fixture's
    /// road network) with a fresh 30-second timestamp grid.
    fn resized_traj(&self, source: usize, n: usize) -> Trajectory {
        let t = &self.shard.train[source];
        assert!(n >= 1 && !t.roads.is_empty());
        let roads = (0..n).map(|i| t.roads[i % t.roads.len()]).collect();
        let start = t.times[0];
        let times = (0..n).map(|i| start + i as i64 * 30).collect();
        Trajectory {
            roads,
            times,
            driver: t.driver,
            occupied: t.occupied,
            mode: t.mode,
            arrival: start + n as i64 * 30,
        }
    }

    /// Encode a fixed 2-trajectory batch of length-`n` views and return the
    /// stacked `(2, d)` pooled representations — the shared front half of
    /// both fine-tuning families.
    fn record_pooled_batch<'s>(
        &'s self,
        g: &mut Graph<'s>,
        n: usize,
        departure_only: bool,
    ) -> NodeId {
        let view = if departure_only { departure_only_view } else { TrajView::identity };
        let model = self.model();
        let views: Vec<TrajView> =
            (0..2).map(|b| clamp_view(view(&self.resized_traj(b, n)), model.cfg.max_len)).collect();
        let pooled = model.pool_views(g, &views, &mut StdRng::seed_from_u64(43));
        g.concat_rows(&pooled)
    }
}

/// Eq. 15 pre-training shard at shard size `n`.
pub struct PretrainFamily(pub Arc<VerifyFixture>);

impl TapeFamily for PretrainFamily {
    fn name(&self) -> String {
        "start/pretrain".to_string()
    }

    fn store(&self) -> &ParamStore {
        &self.0.model().store
    }

    fn record<'s>(&'s self, g: &mut Graph<'s>, n: usize) -> NodeId {
        let fix = &self.0.shard;
        let mut rng = StdRng::seed_from_u64(fix.seed);
        let shard: Vec<usize> = (0..n.min(fix.train.len())).collect();
        match build_shard_loss(&fix.model, &fix.train, &fix.historical, g, &shard, &mut rng) {
            Some(res) => res.loss,
            None => panic!("standard pretrain shard of size {n} produced no loss"),
        }
    }
}

/// Travel-time fine-tuning step (frozen protocol's tape shape) at sequence
/// length `n`.
pub struct EtaFamily(pub Arc<VerifyFixture>);

impl TapeFamily for EtaFamily {
    fn name(&self) -> String {
        "start/eta".to_string()
    }

    fn store(&self) -> &ParamStore {
        &self.0.model().store
    }

    fn record<'s>(&'s self, g: &mut Graph<'s>, n: usize) -> NodeId {
        let stacked = self.0.record_pooled_batch(g, n, true);
        let preds = self.0.eta_head.forward(g, stacked);
        g.mse_loss(preds, Array::from_vec(2, 1, vec![0.5, -0.5]))
    }
}

/// Classification fine-tuning step at sequence length `n`.
pub struct ClassifyFamily(pub Arc<VerifyFixture>);

impl TapeFamily for ClassifyFamily {
    fn name(&self) -> String {
        "start/classify".to_string()
    }

    fn store(&self) -> &ParamStore {
        &self.0.model().store
    }

    fn record<'s>(&'s self, g: &mut Graph<'s>, n: usize) -> NodeId {
        let stacked = self.0.record_pooled_batch(g, n, false);
        let logits = self.0.cls_head.forward(g, stacked);
        g.cross_entropy_rows(logits, Arc::new(vec![0, 1]))
    }
}

/// Serve-path encode graph (eval mode, no loss) at sequence length `n`.
pub struct EncodeFamily(pub Arc<VerifyFixture>);

impl TapeFamily for EncodeFamily {
    fn name(&self) -> String {
        "start/encode".to_string()
    }

    fn store(&self) -> &ParamStore {
        &self.0.model().store
    }

    fn train(&self) -> bool {
        false
    }

    fn record<'s>(&'s self, g: &mut Graph<'s>, n: usize) -> NodeId {
        let mut rng = StdRng::seed_from_u64(47);
        let model = self.0.model();
        let road_reprs = model.road_reprs(g);
        let traj = self.0.resized_traj(0, n);
        let view = clamp_view(TrajView::identity(&traj), model.cfg.max_len);
        model.encode_view(g, &view, road_reprs, &mut rng).pooled
    }
}

/// Every registered START family, sharing one fixture build.
pub fn symbolic_families() -> Vec<Box<dyn TapeFamily>> {
    let fix = VerifyFixture::build();
    vec![
        Box::new(PretrainFamily(fix.clone())),
        Box::new(EtaFamily(fix.clone())),
        Box::new(ClassifyFamily(fix.clone())),
        Box::new(EncodeFamily(fix)),
    ]
}

/// Broken config #1 (acceptance criteria): a fine-tuning head whose input
/// width disagrees with the encoder output dimension. The eager matmul
/// assert fires at record time; the verifier must surface it as a
/// RecordPanic error naming the offending shapes.
pub struct BrokenHeadFamily(pub Arc<VerifyFixture>);

impl TapeFamily for BrokenHeadFamily {
    fn name(&self) -> String {
        "start/broken-head-dim".to_string()
    }

    fn store(&self) -> &ParamStore {
        &self.0.model().store
    }

    fn record<'s>(&'s self, g: &mut Graph<'s>, n: usize) -> NodeId {
        let stacked = self.0.record_pooled_batch(g, n, true);
        let w = g.param(self.0.bad_head);
        let preds = g.matmul(stacked, w);
        g.mse_loss(preds, Array::from_vec(2, 1, vec![0.5, -0.5]))
    }
}

/// Broken config #2 (acceptance criteria): the whole target tower —
/// encoder *and* head — is detached behind `stop_gradient`, so no parameter
/// receives gradient and the verifier must report the loss as disconnected.
pub struct DetachedTowerFamily(pub Arc<VerifyFixture>);

impl TapeFamily for DetachedTowerFamily {
    fn name(&self) -> String {
        "start/broken-detached-tower".to_string()
    }

    fn store(&self) -> &ParamStore {
        &self.0.model().store
    }

    fn record<'s>(&'s self, g: &mut Graph<'s>, n: usize) -> NodeId {
        let stacked = self.0.record_pooled_batch(g, n, true);
        let preds = self.0.eta_head.forward(g, stacked);
        let detached = g.stop_gradient(preds);
        g.mse_loss(detached, Array::from_vec(2, 1, vec![0.5, -0.5]))
    }
}

/// The deliberately malformed families, for tests and demonstrations. Not
/// part of [`symbolic_families`]: `start-analysis verify` must be clean on
/// main.
pub fn broken_families(fix: Arc<VerifyFixture>) -> Vec<Box<dyn TapeFamily>> {
    vec![Box::new(BrokenHeadFamily(fix.clone())), Box::new(DetachedTowerFamily(fix))]
}

#[cfg(test)]
mod tests {
    use super::*;
    use start_nn::symbolic::{verify_family, DEFAULT_ANCHORS};
    use start_nn::{FindingKind, Findings, HazardClass};

    /// All four registered families verify with zero Error findings at the
    /// default anchors — the CI gate's contract.
    #[test]
    fn registered_families_verify_clean() {
        for fam in symbolic_families() {
            let report = verify_family(fam.as_ref(), DEFAULT_ANCHORS);
            assert!(
                !report.has_errors(),
                "{} must verify without errors:\n{report}",
                report.family
            );
            // No statically reachable hazard of any severity either: the
            // encoder's normalizing layers must keep the intervals finite.
            assert!(
                report
                    .findings
                    .iter()
                    .all(|f| !matches!(f.kind, FindingKind::Hazard(HazardClass::LogZero))),
                "{} leaked a log-zero hazard:\n{report}",
                report.family
            );
        }
    }

    /// The mismatched-head-dim config fails with a record panic naming the
    /// shapes, and the detached tower fails as a disconnected loss.
    #[test]
    fn broken_families_fail_with_named_findings() {
        let fix = VerifyFixture::build();
        for fam in broken_families(fix) {
            let report = verify_family(fam.as_ref(), DEFAULT_ANCHORS);
            assert!(report.has_errors(), "{} must fail verification:\n{report}", report.family);
            match report.family.as_str() {
                "start/broken-head-dim" => {
                    let f = report
                        .findings
                        .iter()
                        .find(|f| f.kind == FindingKind::RecordPanic)
                        .unwrap_or_else(|| panic!("no record panic in:\n{report}"));
                    assert!(
                        f.message.contains("matmul shape mismatch"),
                        "finding should name the op and shapes: {f}"
                    );
                }
                "start/broken-detached-tower" => {
                    let f = report
                        .findings
                        .iter()
                        .find(|f| f.kind == FindingKind::LossDisconnected)
                        .unwrap_or_else(|| panic!("no disconnection finding in:\n{report}"));
                    assert!(
                        f.message.contains("stop_gradient"),
                        "finding should point at the detachment: {f}"
                    );
                }
                other => panic!("unexpected broken family {other}"),
            }
        }
    }
}
