//! End-to-end tests of the sharded `Router`: fingerprint shard purity, the
//! bitwise contract against the offline encoder for any replica count,
//! kNN answers independent of the replica count (exact and HNSW alike),
//! typed refusal of non-finite vectors, checkpoint
//! hot-swap (version-tagged replies, atomic refusal, stale-index tagging,
//! index entries tagged with the version that produced them), and the live
//! trainer-to-router publish flow.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use proptest::prelude::*;
use start_core::encoder::{fingerprint_view, EncodeOptions};
use start_core::{clamp_view, pretrain_with_publish, PretrainConfig, StartConfig, StartModel};
use start_nn::PublishCadence;
use start_roadnet::synth::{generate_city, City, CityConfig};
use start_serve::{
    Hnsw, HnswConfig, IndexKind, Router, RouterConfig, ServeConfig, ServeError, VectorIndex,
};
use start_traj::{PreprocessConfig, SimConfig, Simulator, TrajDataset, TrajView, Trajectory};

struct Fixture {
    city: City,
    model: Arc<StartModel>,
    data: Vec<Trajectory>,
    /// `Encoder::encode` with default options — the bits every router
    /// configuration must reproduce exactly.
    reference: Vec<Vec<f32>>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let city = generate_city("router-test", &CityConfig::tiny());
        let sim = Simulator::new(
            &city.net,
            SimConfig { num_trajectories: 24, num_drivers: 4, ..Default::default() },
        );
        let data = sim.generate();
        let model = Arc::new(StartModel::new(StartConfig::test_scale(), &city.net, None, None, 41));
        let reference = model.encoder().encode(&data, &EncodeOptions::default()).unwrap();
        Fixture { city, model, data, reference }
    })
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: component {i} diverged ({x} vs {y})");
    }
}

fn router_config(replicas: usize, serve: ServeConfig) -> RouterConfig {
    RouterConfig::builder().replicas(replicas).serve(serve).build().unwrap()
}

fn cache_off(workers: usize) -> ServeConfig {
    ServeConfig::builder().workers(workers).cache_capacity(0).build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A trajectory's shard is a pure content function: stable across
    /// router instances and per-replica worker counts, always below the
    /// replica count, and exactly the folded 128-bit fingerprint mod
    /// replicas (folded so placement is not a parity of the content — see
    /// `fold_fingerprint`).
    #[test]
    fn shard_assignment_is_pure_and_stable(
        idx in 0..24usize,
        replicas in 1..6usize,
        workers in 1..4usize,
    ) {
        let fix = fixture();
        let t = &fix.data[idx];
        let a = Router::start(Arc::clone(&fix.model), router_config(replicas, cache_off(1)));
        let b = Router::start(Arc::clone(&fix.model), router_config(replicas, cache_off(workers)));
        let shard = a.shard_for(t);
        prop_assert!(shard < replicas);
        prop_assert_eq!(shard, b.shard_for(t), "shard moved between router instances");
        let expected = (start_serve::fold_fingerprint(fingerprint_view(&TrajView::identity(t)))
            % replicas as u64) as usize;
        prop_assert_eq!(shard, expected, "shard is not the folded fingerprint mod replicas");
        a.shutdown();
        b.shutdown();
    }
}

/// The router is a scheduler over replicas, not a different encoder: for
/// every replica count its answers are bit-for-bit the offline encoder's —
/// and each request really lands on its fingerprint shard.
#[test]
fn router_encode_is_bitwise_the_encoder_answer_for_any_replica_count() {
    let fix = fixture();
    for replicas in 1..=5usize {
        let router = Router::start(Arc::clone(&fix.model), router_config(replicas, cache_off(2)));
        let mut expected_per_shard = vec![0u64; replicas];
        for t in &fix.data {
            expected_per_shard[router.shard_for(t)] += 1;
        }
        let served = router.encode(&fix.data).unwrap();
        for (i, (s, r)) in served.iter().zip(&fix.reference).enumerate() {
            assert_bits_eq(s, r, &format!("replicas={replicas} trajectory {i}"));
        }
        let stats = router.shutdown();
        assert_eq!(stats.completed(), fix.data.len() as u64);
        assert_eq!(stats.failed(), 0);
        let per_shard: Vec<u64> = stats.replicas.iter().map(|s| s.submitted).collect();
        assert_eq!(per_shard, expected_per_shard, "replicas={replicas}: requests left their shard");
    }
}

/// kNN through a 3-replica router reproduces the 1-replica answer exactly:
/// the embeddings are encoded on different shards but land in the one
/// router index, so ids, order and distance bits all match — including
/// the `(distance, id)` tie-break.
/// Every encode clamps to `max_len`, served or offline: a view longer than
/// the model takes is answered with bitwise the offline encode of its
/// clamped prefix.
#[test]
fn overlong_view_is_served_as_its_clamped_prefix() {
    let fix = fixture();
    let max_len = fix.model.cfg.max_len;
    let one = TrajView::identity(&fix.data[0]);
    let mut view = one.clone();
    while view.len() <= max_len {
        view.roads.extend_from_slice(&one.roads);
        view.times.extend_from_slice(&one.times);
        view.masked.extend_from_slice(&one.masked);
    }
    let clamped = [clamp_view(view.clone(), max_len)];
    let expected = fix.model.encoder().encode_views(&clamped, &EncodeOptions::default()).unwrap();
    let router = Router::start(Arc::clone(&fix.model), router_config(2, ServeConfig::default()));
    let got = router.submit_view(view).unwrap().wait().unwrap();
    assert_bits_eq(&got, &expected[0], "over-long view");
    router.shutdown();
}

#[test]
fn router_knn_matches_the_single_service_bitwise() {
    let fix = fixture();
    let single = Router::start(
        Arc::clone(&fix.model),
        router_config(1, ServeConfig::builder().build().unwrap()),
    );
    let router = Router::start(
        Arc::clone(&fix.model),
        router_config(3, ServeConfig::builder().build().unwrap()),
    );
    for (i, t) in fix.data.iter().enumerate() {
        single.index(i as u64, t).unwrap();
        router.index(i as u64, t).unwrap();
    }
    assert_eq!(router.indexed_len(), fix.data.len());
    for t in fix.data.iter().take(8) {
        let expected = single.knn(t, 5).unwrap();
        let got = router.knn(t, 5).unwrap();
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.id, e.id, "kNN ids diverged from the 1-replica router");
            assert_eq!(g.distance.to_bits(), e.distance.to_bits(), "distance bits diverged");
        }
    }
    let _ = single.shutdown();
    let _ = router.shutdown();
}

/// An HNSW-backed router answers kNN bitwise as a lone `Hnsw` fed the same
/// inserts, at 1 and at 3 replicas: the replica count does not reach the
/// index. A tiny beam (`ef_search` 4) makes any change to the graph or
/// to the search visible in the answers.
#[test]
fn router_hnsw_knn_is_bitwise_a_lone_hnsw_for_any_replica_count() {
    let fix = fixture();
    let dim = fix.model.cfg.dim;
    let hnsw = HnswConfig::builder().m(4).ef_construction(8).ef_search(4).build().unwrap();
    let mut state = 0x5eed_u64;
    let mut vector = || -> Vec<f32> {
        (0..dim)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5
            })
            .collect()
    };
    let inserts: Vec<Vec<f32>> = (0..600).map(|_| vector()).collect();
    let queries: Vec<Vec<f32>> = (0..100).map(|_| vector()).collect();
    let mut lone = Hnsw::new(dim, hnsw.clone());
    for (id, v) in inserts.iter().enumerate() {
        lone.insert(id as u64, v).unwrap();
    }
    for replicas in [1, 3] {
        let serve = ServeConfig::builder().workers(1).index(IndexKind::Hnsw(hnsw.clone()));
        let router =
            Router::start(Arc::clone(&fix.model), router_config(replicas, serve.build().unwrap()));
        for (id, v) in inserts.iter().enumerate() {
            router.index_embedding(id as u64, v).unwrap();
        }
        for (i, q) in queries.iter().enumerate() {
            let expected = lone.knn(q, 4).unwrap();
            let got = router.knn_embedding(q, 4).unwrap();
            assert_eq!(got.len(), expected.len(), "replicas={replicas} query {i}");
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g.id, e.id, "replicas={replicas} query {i}: ids diverged");
                assert_eq!(
                    g.distance.to_bits(),
                    e.distance.to_bits(),
                    "replicas={replicas} query {i}: distance bits diverged"
                );
            }
        }
        let _ = router.shutdown();
    }
}

/// A NaN or infinite vector is refused with a typed error on both the
/// index and the kNN path, for both index kinds: the index keeps its
/// size and each refusal counts one rejection.
#[test]
fn non_finite_vectors_are_refused_with_a_typed_error() {
    let fix = fixture();
    let dim = fix.model.cfg.dim;
    for kind in [IndexKind::BruteForce, IndexKind::Hnsw(HnswConfig::default())] {
        let serve = ServeConfig::builder().workers(1).index(kind.clone()).build().unwrap();
        let router = Router::start(Arc::clone(&fix.model), router_config(3, serve));
        router.index_embedding(0, &vec![0.5; dim]).unwrap();
        for bad in [f32::NAN, f32::INFINITY] {
            let mut v = vec![0.0f32; dim];
            v[1] = bad;
            let before = router.stats().rejected();
            assert_eq!(
                router.index_embedding(1, &v),
                Err(ServeError::NonFinite { index: 1 }),
                "{kind:?}"
            );
            assert_eq!(router.indexed_len(), 1, "{kind:?}: a refused insert changed the index");
            assert_eq!(router.stats().rejected(), before + 1, "{kind:?}");
            assert_eq!(
                router.knn_embedding(&v, 3),
                Err(ServeError::NonFinite { index: 1 }),
                "{kind:?}"
            );
            assert_eq!(router.stats().rejected(), before + 2, "{kind:?}");
        }
        assert_eq!(router.knn_embedding(&vec![0.5; dim], 3).unwrap()[0].id, 0, "{kind:?}");
        let _ = router.shutdown();
    }
}

/// `Router::publish` with queued (not yet in-flight) requests: nothing is
/// dropped, every reply carries the post-swap version, and the bits are
/// exactly the new checkpoint's offline encode.
#[test]
fn publish_with_queued_requests_drops_nothing_and_versions_every_reply() {
    let fix = fixture();
    let next = Arc::new(StartModel::new(StartConfig::test_scale(), &fix.city.net, None, None, 43));
    let next_reference = next.encoder().encode(&fix.data, &EncodeOptions::default()).unwrap();

    // Workers sleep past the publish, so the whole stream is still queued
    // at swap time and must be answered — on the new version.
    let serve = ServeConfig::builder()
        .workers(1)
        .cache_capacity(0)
        .worker_warmup(Duration::from_millis(150))
        .build()
        .unwrap();
    let router = Router::start(Arc::clone(&fix.model), router_config(2, serve));
    let handles: Vec<_> = fix.data.iter().map(|t| router.submit(t).unwrap()).collect();

    let report = router.publish(Arc::clone(&next)).unwrap();
    assert_eq!(report.previous_version, 0);
    assert_eq!(report.version, 1);
    assert_eq!(router.model_version(), 1);

    for (i, h) in handles.into_iter().enumerate() {
        let (emb, version) = h
            .wait_versioned()
            .unwrap_or_else(|e| panic!("request {i} dropped across the swap: {e}"));
        assert_eq!(version, 1, "request {i} answered by a retired version");
        assert_bits_eq(&emb, &next_reference[i], &format!("post-swap request {i}"));
    }
    let stats = router.shutdown();
    assert_eq!(stats.completed(), fix.data.len() as u64);
    assert_eq!(stats.failed(), 0);
}

/// A checkpoint that differs from version 0 only in its TPE-GAT weights:
/// every post-swap reply is bitwise the new model's offline encode, so each
/// version encodes against the road matrix built from its own weights.
#[test]
fn road_matrix_is_rebuilt_for_a_gat_only_checkpoint() {
    let fix = fixture();
    let mut next = StartModel::new(StartConfig::test_scale(), &fix.city.net, None, None, 47);
    assert_eq!(next.adopt_weights(&fix.model), next.store.len(), "same architecture");
    let gat: Vec<_> =
        next.store.ids().filter(|&id| next.store.name(id).starts_with("gat.")).collect();
    assert!(!gat.is_empty(), "the model has TPE-GAT parameters");
    for id in gat {
        for x in next.store.get_mut(id).data_mut() {
            *x = *x * 1.5 + 0.01;
        }
    }
    let next = Arc::new(next);
    let next_reference = next.encoder().encode(&fix.data, &EncodeOptions::default()).unwrap();

    let router = Router::start(Arc::clone(&fix.model), router_config(2, ServeConfig::default()));
    for (i, emb) in router.encode(&fix.data).unwrap().iter().enumerate() {
        assert_bits_eq(emb, &fix.reference[i], &format!("pre-swap request {i}"));
    }
    router.publish(next).unwrap();
    for (i, t) in fix.data.iter().enumerate() {
        let (emb, version) = router.submit(t).unwrap().wait_versioned().unwrap();
        assert_eq!(version, 1, "request {i} after the publish");
        assert_bits_eq(&emb, &next_reference[i], &format!("post-swap request {i}"));
        assert_ne!(emb, fix.reference[i], "request {i} still reads version 0's road matrix");
    }
    let _ = router.shutdown();
}

/// A wrong-dimension checkpoint is refused atomically: a typed error,
/// nothing swapped, and the router keeps serving version 0 afterwards.
#[test]
fn wrong_dimension_checkpoint_is_refused_atomically() {
    let fix = fixture();
    let dim = fix.model.cfg.dim;
    let bad_cfg = fix.model.cfg.to_builder().dim(dim * 2).build().unwrap();
    let bad = Arc::new(StartModel::new(bad_cfg, &fix.city.net, None, None, 44));

    let router = Router::start(Arc::clone(&fix.model), router_config(3, cache_off(1)));
    let err = router.publish(bad).unwrap_err();
    assert_eq!(err, ServeError::DimensionMismatch { expected: dim, got: dim * 2 });
    assert_eq!(router.model_version(), 0, "a refused publish must not bump the version");
    assert_eq!(router.stats().model_version, 0);

    // A matching checkpoint still goes through afterwards.
    let good = Arc::new(StartModel::new(StartConfig::test_scale(), &fix.city.net, None, None, 45));
    router.publish(good).unwrap();
    assert_eq!(router.model_version(), 1);
    let _ = router.shutdown();
}

/// Hot swaps tag the kNN entries indexed under retired versions; the
/// re-indexing worklist shrinks as ids are re-indexed or removed.
#[test]
fn hot_swap_tags_stale_index_entries_until_reindexed() {
    let fix = fixture();
    let router = Router::start(Arc::clone(&fix.model), router_config(2, cache_off(1)));
    for (i, t) in fix.data.iter().take(10).enumerate() {
        router.index(i as u64, t).unwrap();
    }
    assert_eq!(router.stats().stale_index_entries, 0);

    let next = Arc::new(StartModel::new(StartConfig::test_scale(), &fix.city.net, None, None, 46));
    router.publish(next).unwrap();
    assert_eq!(router.stats().stale_index_entries, 10);
    assert_eq!(router.stale_indexed_ids(), (0..10).collect::<Vec<u64>>());

    // Re-indexing under the new version clears the tag; removal drops it.
    router.index(3, &fix.data[3]).unwrap();
    assert!(router.remove_index(7));
    let stale = router.stale_indexed_ids();
    assert_eq!(stale.len(), 8);
    assert!(!stale.contains(&3) && !stale.contains(&7));
    let _ = router.shutdown();
}

/// `Router::index` tags each entry with the version whose reply it
/// indexed, even while publishes race it: afterwards every entry not on
/// the stale worklist is bitwise the current model's encode of its
/// trajectory, so an exact query finds it at distance zero. Several
/// indexers keep the workers busy and each publish waits for them to make
/// progress, so every swap lands mid-pass with index requests in flight,
/// and entries follow the last one.
#[test]
fn index_racing_publish_never_tags_an_old_vector_as_current() {
    const INDEXERS: usize = 3;
    let fix = fixture();
    let mut seen = std::collections::HashSet::new();
    let distinct: Vec<Trajectory> = fix
        .data
        .iter()
        .filter(|t| seen.insert(fingerprint_view(&TrajView::identity(t))))
        .cloned()
        .collect();
    let models: Vec<Arc<StartModel>> = (0..4)
        .map(|i| {
            Arc::new(StartModel::new(StartConfig::test_scale(), &fix.city.net, None, None, 50 + i))
        })
        .collect();
    let router = Router::start(Arc::clone(&fix.model), router_config(2, cache_off(1)));
    let progress = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for lane in 0..INDEXERS {
            let (router, distinct, progress) = (&router, &distinct, &progress);
            s.spawn(move || {
                for (i, t) in distinct.iter().enumerate().skip(lane).step_by(INDEXERS) {
                    router.index(i as u64, t).unwrap();
                    progress.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        for (j, model) in models.iter().enumerate() {
            while progress.load(Ordering::SeqCst) < 3 * (j + 1) {
                std::thread::yield_now();
            }
            router.publish(Arc::clone(model)).unwrap();
        }
    });
    assert_eq!(router.model_version(), models.len() as u64);
    let stale = router.stale_indexed_ids();
    assert!(stale.len() < distinct.len(), "no entry was indexed after the last publish");
    let current = models.last().unwrap();
    let offline = current.encoder().encode(&distinct, &EncodeOptions::default()).unwrap();
    for (i, q) in offline.iter().enumerate() {
        if stale.contains(&(i as u64)) {
            continue;
        }
        let hit = router.knn_embedding(q, 1).unwrap();
        assert_eq!(hit[0].id, i as u64, "entry {i} is tagged current but holds another vector");
        assert_eq!(hit[0].distance, 0.0, "entry {i} is tagged current but holds an old vector");
    }
    let _ = router.shutdown();
}

fn tiny_dataset(n: usize, seed: u64) -> TrajDataset {
    let city = generate_city("rt", &CityConfig { width: 8, height: 8, ..CityConfig::tiny() });
    let sim = SimConfig { num_trajectories: n, num_drivers: 8, seed, ..Default::default() };
    TrajDataset::build(city, sim, &PreprocessConfig::default())
}

fn tiny_model(ds: &TrajDataset, seed: u64) -> StartModel {
    let cfg = StartConfig::builder()
        .dim(32)
        .gat_heads(vec![2])
        .encoder_layers(2)
        .encoder_heads(2)
        .ffn_hidden(32)
        .build()
        .expect("router-test config is valid");
    StartModel::new(cfg, &ds.city.net, Some(&ds.transfer), None, seed)
}

/// The real trainer-to-router flow: `pretrain_with_publish` snapshots the
/// weights on a cadence (via `adopt_weights`) into a *live* router that is
/// answering requests throughout. Every reply must be tagged with exactly
/// one published version and bitwise match that version's offline encode —
/// zero drops, zero stale bits, no `ModelPoisoned`.
#[test]
fn training_publishes_into_a_live_router_with_every_reply_pre_or_post_swap() {
    let ds = tiny_dataset(120, 21);
    let mut model = tiny_model(&ds, 22);
    let queries: Vec<Trajectory> = ds.test().iter().take(8).cloned().collect();
    let opts = EncodeOptions::default();

    // Version-0 serving snapshot of the untrained weights.
    let snapshot = |src: &StartModel| {
        let mut snap = tiny_model(&ds, 999);
        let adopted = snap.adopt_weights(src);
        assert!(adopted > 0, "checkpoint snapshot adopted no tensors");
        Arc::new(snap)
    };
    let router = Router::start(snapshot(&model), router_config(2, cache_off(1)));

    // references[v] = offline encode of `queries` under version-v weights.
    let mut references: Vec<Vec<Vec<f32>>> = vec![model.encoder().encode(&queries, &opts).unwrap()];
    let in_flight: Mutex<Vec<(usize, start_serve::EmbeddingHandle)>> = Mutex::new(Vec::new());

    let submit_round =
        |router: &Router, sink: &Mutex<Vec<(usize, start_serve::EmbeddingHandle)>>| {
            let mut sink = sink.lock().unwrap();
            for (qi, q) in queries.iter().enumerate() {
                sink.push((qi, router.submit(q).unwrap()));
            }
        };

    submit_round(&router, &in_flight);
    pretrain_with_publish(
        &mut model,
        ds.train(),
        &ds.historical,
        &PretrainConfig {
            epochs: 1,
            batch_size: 8,
            max_steps_per_epoch: Some(6),
            ..Default::default()
        },
        PublishCadence::every(2),
        &mut |trained, _step| {
            // Keep requests in flight across the swap, then publish the
            // fresh checkpoint and record its offline reference.
            submit_round(&router, &in_flight);
            let snap = snapshot(trained);
            references.push(snap.encoder().encode(&queries, &opts).unwrap());
            router.publish(snap).unwrap();
        },
    );
    submit_round(&router, &in_flight);

    let published = references.len() as u64 - 1;
    assert!(published >= 3, "cadence every(2) over 6 steps must publish at least 3 times");
    assert_eq!(router.model_version(), published);

    let handles = in_flight.into_inner().unwrap();
    let mut seen_versions = vec![0u64; references.len()];
    for (qi, h) in handles {
        let (emb, version) = h
            .wait_versioned()
            .unwrap_or_else(|e| panic!("query {qi} dropped during training publishes: {e}"));
        let reference = references
            .get(version as usize)
            .unwrap_or_else(|| panic!("reply tagged with unpublished version {version}"));
        assert_bits_eq(&emb, &reference[qi], &format!("query {qi} at version {version}"));
        seen_versions[version as usize] += 1;
    }
    let total: u64 = seen_versions.iter().sum();
    assert_eq!(total, (published + 2) * queries.len() as u64, "a reply went missing");
    let stats = router.shutdown();
    assert_eq!(stats.failed(), 0, "no reply may fail across hot swaps");
}
