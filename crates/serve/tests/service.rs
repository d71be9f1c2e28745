//! End-to-end tests of one serving replica, driven through a 1-replica
//! `Router`: the bitwise contract against the offline `Encoder` facade,
//! cache semantics, backpressure, panic containment, graceful shutdown, and
//! the kNN index backends.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;
use start_core::encoder::{EncodeError, EncodeOptions};
use start_core::{StartConfig, StartModel};
use start_roadnet::synth::{generate_city, CityConfig};
use start_roadnet::SegmentId;
use start_serve::{
    HnswConfig, IndexKind, Router, RouterConfig, RouterStats, ServeConfig, ServeError, ServiceStats,
};
use start_traj::{SimConfig, Simulator, TrajView, Trajectory};

struct Fixture {
    model: Arc<StartModel>,
    data: Vec<Trajectory>,
    /// `Encoder::encode` with default options — the bits every service
    /// configuration must reproduce exactly.
    reference: Vec<Vec<f32>>,
    num_segments: usize,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let city = generate_city("serve-test", &CityConfig::tiny());
        let sim = Simulator::new(
            &city.net,
            SimConfig { num_trajectories: 24, num_drivers: 4, ..Default::default() },
        );
        let data = sim.generate();
        let model = Arc::new(StartModel::new(StartConfig::test_scale(), &city.net, None, None, 41));
        let reference = model.encoder().encode(&data, &EncodeOptions::default()).unwrap();
        Fixture { model, data, reference, num_segments: city.net.num_segments() }
    })
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: component {i} diverged ({x} vs {y})");
    }
}

/// A 1-replica router over the fixture model: one queue, one worker pool,
/// one cache, one index shard.
fn one_replica(serve: ServeConfig) -> Router {
    let cfg = RouterConfig::builder().replicas(1).serve(serve).build().unwrap();
    Router::start(Arc::clone(&fixture().model), cfg)
}

/// The counters of the only replica.
fn only(stats: RouterStats) -> ServiceStats {
    stats.replicas.into_iter().next().unwrap()
}

#[test]
fn service_output_bitwise_matches_the_encoder_for_any_worker_count() {
    let fix = fixture();
    for workers in [1usize, 4] {
        let service = one_replica(
            ServeConfig::builder()
                .workers(workers)
                .max_batch(5)
                .max_wait(Duration::from_millis(1))
                .cache_capacity(0) // cache off: every request really encodes
                .build()
                .unwrap(),
        );
        let served = service.encode(&fix.data).unwrap();
        let stats = only(service.shutdown());
        assert_eq!(served.len(), fix.reference.len());
        for (i, (s, r)) in served.iter().zip(&fix.reference).enumerate() {
            assert_bits_eq(s, r, &format!("workers={workers} trajectory {i}"));
        }
        assert_eq!(stats.completed, fix.data.len() as u64);
        assert_eq!(stats.failed, 0);
        assert!(stats.batches >= 1);
        assert_eq!(stats.cache.hits + stats.cache.misses, 0, "cache was disabled");
    }
}

/// A `max_wait` too large to add to the clock is an unbounded wait, not a
/// worker panic: a full batch flushes, and a lone request flushes at
/// shutdown.
#[test]
fn unbounded_max_wait_flushes_full_batches_and_at_shutdown() {
    let fix = fixture();
    let service = one_replica(
        ServeConfig::builder()
            .workers(1)
            .max_batch(2)
            .max_wait(Duration::MAX)
            .cache_capacity(0)
            .build()
            .unwrap(),
    );
    let pair = [service.submit(&fix.data[0]).unwrap(), service.submit(&fix.data[1]).unwrap()];
    for (i, h) in pair.into_iter().enumerate() {
        let emb = h.wait().unwrap_or_else(|e| panic!("request {i} of a full batch: {e}"));
        assert_bits_eq(&emb, &fix.reference[i], &format!("full batch request {i}"));
    }
    let lone = service.submit(&fix.data[2]).unwrap();
    let stats = only(service.shutdown());
    let emb = lone.wait().unwrap_or_else(|e| panic!("lone request lost at shutdown: {e}"));
    assert_bits_eq(&emb, &fix.reference[2], "lone request");
    assert_eq!((stats.completed, stats.failed), (3, 0));
}

#[test]
fn cache_hit_returns_the_identical_vector() {
    let fix = fixture();
    let service = one_replica(ServeConfig::builder().workers(1).build().unwrap());
    let first = service.submit(&fix.data[0]).unwrap().wait().unwrap();
    let second = service.submit(&fix.data[0]).unwrap().wait().unwrap();
    assert_bits_eq(&first, &second, "cache round trip");
    assert_bits_eq(&first, &fix.reference[0], "cached vs reference");
    let stats = only(service.shutdown());
    assert!(stats.cache.hits >= 1, "second request should hit the cache: {:?}", stats.cache);
    assert!(stats.cache.entries >= 1);
}

#[test]
fn graceful_shutdown_drains_every_queued_request() {
    let fix = fixture();
    let service = one_replica(
        ServeConfig::builder()
            .workers(2)
            .cache_capacity(0)
            // Workers wake only after everything is queued and shutdown has
            // been requested, so the drain path is what answers.
            .worker_warmup(Duration::from_millis(150))
            .build()
            .unwrap(),
    );
    let handles: Vec<_> = (0..8).map(|i| service.submit(&fix.data[i]).unwrap()).collect();
    let stats = only(service.shutdown());
    for (i, h) in handles.into_iter().enumerate() {
        let emb = h.wait().unwrap_or_else(|e| panic!("request {i} lost in shutdown: {e}"));
        assert_bits_eq(&emb, &fix.reference[i], &format!("drained request {i}"));
    }
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.queue_depth, 0);
}

#[test]
fn submitting_after_shutdown_is_a_typed_error() {
    let fix = fixture();
    let service = one_replica(
        ServeConfig::builder()
            .workers(1)
            .worker_warmup(Duration::from_millis(150))
            .build()
            .unwrap(),
    );
    let h = service.submit(&fix.data[0]).unwrap();
    service.begin_shutdown();
    // New work is refused — including blocking submits — but the request
    // that made it in still drains.
    let err = service.submit(&fix.data[1]).unwrap_err();
    assert_eq!(err, ServeError::ShuttingDown);
    assert!(h.wait().is_ok());
    let stats = only(service.shutdown());
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.rejected, 1);
}

#[test]
fn try_submit_reports_queue_full() {
    let fix = fixture();
    let service = one_replica(
        ServeConfig::builder()
            .workers(1)
            .queue_cap(2)
            .worker_warmup(Duration::from_millis(300))
            .build()
            .unwrap(),
    );
    let h1 = service.try_submit(&fix.data[0]).unwrap();
    let h2 = service.try_submit(&fix.data[1]).unwrap();
    let err = service.try_submit(&fix.data[2]).unwrap_err();
    assert_eq!(err, ServeError::QueueFull { capacity: 2 });
    let stats = only(service.stats());
    assert_eq!(stats.rejected, 1);
    // The accepted pair still completes once the worker wakes.
    assert!(h1.wait().is_ok());
    assert!(h2.wait().is_ok());
}

#[test]
fn empty_submission_is_rejected_at_the_door() {
    let service = one_replica(ServeConfig::default());
    let empty = TrajView { roads: vec![], times: vec![], masked: vec![], embed_dropout: 0.0 };
    let err = service.submit_view(empty).unwrap_err();
    assert_eq!(err, ServeError::Invalid(EncodeError::EmptyView { index: 0 }));
    assert_eq!(only(service.stats()).rejected, 1);
}

#[test]
fn worker_panic_is_typed_and_poisons_the_service() {
    let fix = fixture();
    let service = one_replica(ServeConfig::builder().workers(1).cache_capacity(0).build().unwrap());
    // A road id far outside the network: passes length validation, then
    // blows up inside the model's embedding gather — a genuine worker panic.
    let mut view = TrajView::identity(&fix.data[0]);
    view.roads[0] = SegmentId(fix.num_segments as u32 + 10_000);
    let err = service.submit_view(view).unwrap().wait().unwrap_err();
    assert!(
        matches!(err, ServeError::WorkerPanicked { .. }),
        "expected WorkerPanicked, got {err:?}"
    );
    // The panic poisons the whole service: future submissions are refused.
    let err = service.submit(&fix.data[0]).unwrap_err();
    assert_eq!(err, ServeError::ModelPoisoned);
    let stats = only(service.shutdown());
    assert!(stats.failed >= 1);
}

#[test]
fn knn_finds_the_indexed_trajectory_itself() {
    let fix = fixture();
    let service = one_replica(ServeConfig::builder().workers(2).build().unwrap());
    for (i, t) in fix.data.iter().enumerate() {
        service.index(i as u64, t).unwrap();
    }
    assert_eq!(service.indexed_len(), fix.data.len());
    // With the cache on, the query encode returns the identical bits that
    // were indexed, so the self-distance is exactly zero.
    let hits = service.knn(&fix.data[3], 5).unwrap();
    assert_eq!(hits.len(), 5);
    assert_eq!(hits[0].id, 3);
    assert_eq!(hits[0].distance, 0.0);
    for pair in hits.windows(2) {
        assert!(pair[0].distance <= pair[1].distance, "kNN results must be sorted");
    }
    let _ = service.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Micro-batch composition under random arrival patterns (duplicates,
    /// arbitrary order, odd lengths) never swaps answers between requests:
    /// response `j` is always the embedding of submission `j`.
    #[test]
    fn random_arrival_patterns_preserve_request_response_correspondence(
        idxs in prop::collection::vec(0..24usize, 1..40),
        workers in 1..4usize,
        max_batch in 1..7usize,
    ) {
        let fix = fixture();
        let service = one_replica(ServeConfig::builder()
                .workers(workers)
                .max_batch(max_batch)
                .max_wait(Duration::from_micros(500))
                .build()
                .unwrap(),
        );
        let handles: Vec<_> = idxs
            .iter()
            .map(|&i| service.submit(&fix.data[i]).map_err(|e| TestCaseError::Fail(e.to_string())))
            .collect::<Result<_, _>>()?;
        for (handle, &i) in handles.into_iter().zip(&idxs) {
            let emb = handle.wait().map_err(|e| TestCaseError::Fail(e.to_string()))?;
            let reference = &fix.reference[i];
            prop_assert_eq!(emb.len(), reference.len());
            for (x, y) in emb.iter().zip(reference) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "answer for slot of trajectory {} diverged", i);
            }
        }
        let stats = only(service.shutdown());
        prop_assert_eq!(stats.completed, idxs.len() as u64);
        prop_assert_eq!(stats.failed, 0u64);
    }
}

// ---------------------------------------------------------------------------
// kNN index hardening + the VectorIndex seam (brute force vs HNSW)
// ---------------------------------------------------------------------------

/// Regression for the kNN-path panic: a dimension-mismatched `index`/`knn`
/// request used to `assert_eq!` inside the service and, via panic
/// containment, poison it for every later caller. It must now be a typed
/// error, and the service must keep answering afterwards.
#[test]
fn dimension_mismatch_is_typed_and_the_service_stays_healthy() {
    let fix = fixture();
    let dim = fix.reference[0].len();
    for kind in [IndexKind::BruteForce, IndexKind::Hnsw(HnswConfig::default())] {
        let service =
            one_replica(ServeConfig::builder().workers(1).index(kind.clone()).build().unwrap());
        service.index(0, &fix.data[0]).unwrap();

        let bad = vec![0.0f32; dim + 3];
        assert_eq!(
            service.index_embedding(1, &bad),
            Err(ServeError::DimensionMismatch { expected: dim, got: dim + 3 }),
            "{kind:?}"
        );
        assert_eq!(
            service.knn_embedding(&bad, 1),
            Err(ServeError::DimensionMismatch { expected: dim, got: dim + 3 }),
            "{kind:?}"
        );

        // The bad requests left no trace: the store is intact and both the
        // encode path and the kNN path still answer.
        assert_eq!(service.indexed_len(), 1, "{kind:?}");
        service.index(2, &fix.data[2]).unwrap();
        let hits = service.knn(&fix.data[0], 1).unwrap();
        assert_eq!(hits[0].id, 0, "{kind:?}");
        assert_eq!(hits[0].distance, 0.0, "{kind:?}");
        let stats = only(service.shutdown());
        assert_eq!(stats.rejected, 2, "{kind:?}: both bad vectors counted as rejected");
    }
}

/// On a small store with an exhaustive beam, the HNSW-backed service must
/// return exactly the brute-force answers — same ids, same order, same
/// distance bits (both backends accumulate distances in the same order).
#[test]
fn hnsw_backed_service_matches_brute_force_exactly_on_small_stores() {
    let fix = fixture();
    let brute = one_replica(ServeConfig::builder().workers(1).build().unwrap());
    let hnsw = one_replica(
        ServeConfig::builder()
            .workers(1)
            .index(IndexKind::Hnsw(
                // Exhaustive beam at this scale: exact answers.
                HnswConfig::builder().ef_search(10_000).build().unwrap(),
            ))
            .build()
            .unwrap(),
    );
    for (i, t) in fix.data.iter().enumerate() {
        brute.index(i as u64, t).unwrap();
        hnsw.index(i as u64, t).unwrap();
    }
    for t in fix.data.iter().take(6) {
        let expected = brute.knn(t, 5).unwrap();
        let got = hnsw.knn(t, 5).unwrap();
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.id, e.id);
            assert_eq!(g.distance.to_bits(), e.distance.to_bits(), "distance bits diverged");
        }
    }
    let _ = brute.shutdown();
    let _ = hnsw.shutdown();
}

/// Exact distance ties (identical vectors under different ids) rank by
/// ascending id in both backends.
#[test]
fn both_backends_break_ties_toward_smaller_ids() {
    let fix = fixture();
    let dim = fix.reference[0].len();
    let tied: Vec<f32> = (0..dim).map(|j| (j as f32 * 0.1).sin()).collect();
    let far: Vec<f32> = (0..dim).map(|j| (j as f32 * 0.1).sin() + 10.0).collect();
    for kind in [
        IndexKind::BruteForce,
        IndexKind::Hnsw(HnswConfig::builder().ef_search(1000).build().unwrap()),
    ] {
        let service =
            one_replica(ServeConfig::builder().workers(1).index(kind.clone()).build().unwrap());
        for id in [9u64, 2, 5] {
            service.index_embedding(id, &tied).unwrap();
        }
        service.index_embedding(1, &far).unwrap();
        let hits = service.knn_embedding(&tied, 4).unwrap();
        let ids: Vec<u64> = hits.iter().map(|n| n.id).collect();
        assert_eq!(ids, [2, 5, 9, 1], "{kind:?}: ties must rank by ascending id");
        let _ = service.shutdown();
    }
}

/// `remove_index` drops an id from both backends; HNSW tombstones must
/// never resurface through `knn`.
#[test]
fn removed_ids_are_never_returned_by_either_backend() {
    let fix = fixture();
    for kind in [IndexKind::BruteForce, IndexKind::Hnsw(HnswConfig::default())] {
        let service =
            one_replica(ServeConfig::builder().workers(1).index(kind.clone()).build().unwrap());
        for (i, t) in fix.data.iter().enumerate() {
            service.index(i as u64, t).unwrap();
        }
        assert!(service.remove_index(3), "{kind:?}");
        assert!(!service.remove_index(3), "{kind:?}: second remove reports absence");
        assert_eq!(service.indexed_len(), fix.data.len() - 1, "{kind:?}");
        let hits = service.knn(&fix.data[3], fix.data.len()).unwrap();
        assert!(hits.iter().all(|n| n.id != 3), "{kind:?}: tombstoned id resurfaced");
        assert_eq!(hits.len(), fix.data.len() - 1, "{kind:?}: every live id still reachable");
        let _ = service.shutdown();
    }
}

/// Counter-coherence contract (see `Shared::stats`): `submitted` rises
/// before a request is visible and outcomes are read first in a snapshot,
/// so `submitted >= completed + failed` in every point-in-time read, and a
/// drained shutdown reports exact equality.
#[test]
fn drained_shutdown_reports_submitted_equals_completed_plus_failed() {
    let fix = fixture();
    let service = one_replica(
        ServeConfig::builder()
            .workers(3)
            .max_batch(4)
            .max_wait(Duration::from_micros(200))
            .build()
            .unwrap(),
    );
    let handles: Vec<_> = fix.data.iter().map(|t| service.submit(t).unwrap()).collect();
    // Mid-flight snapshots may lag but can never over-report outcomes.
    let mid = only(service.stats());
    assert!(mid.submitted >= mid.completed + mid.failed, "incoherent mid-flight snapshot: {mid:?}");
    for h in handles {
        h.wait().unwrap();
    }
    let stats = only(service.shutdown());
    assert_eq!(stats.submitted, fix.data.len() as u64);
    assert_eq!(
        stats.submitted,
        stats.completed + stats.failed,
        "drained shutdown must account for every accepted request: {stats:?}"
    );
    assert_eq!(stats.queue_depth, 0);
}
