//! `search_mixed`: a closed-loop client mixing kNN search and index
//! overwrites against a 2-replica `Router` over HNSW (default
//! `HnswConfig`).
//!
//! The index holds 3,200 trajectory embeddings × 4 seeded jitters (5% of
//! each dimension's standard deviation). The client sends 6,500 operations
//! per second of `--seconds`: 80% `knn_embedding(k = 10)` on a fresh
//! jitter and 20% `index_embedding` overwrites with a fresh jitter. No
//! encoder runs in the timed phase, so road-stage or micro-batching
//! changes should read unchanged here; the cost is HNSW search and insert
//! behind the replicas' store locks.
//!
//! An overwrite tombstones the old node and adds a new one, so the graph
//! grows as the phase runs. The operation count is fixed, and one client
//! sends them, so the operation sequence, and the graph the index grows
//! into, are a function of the seed alone: a phase bounded by time instead
//! grew a larger graph on a faster host, and two clients on two cores
//! moved throughput by ±20% between identical runs with their interleaving.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;

use start_ann::TopK;
use start_core::EncodeOptions;
use start_serve::{HnswConfig, IndexKind, Router, RouterConfig, ServeConfig};

use crate::fixture::{self, Outcome};
use crate::loadgen;
use crate::trace::{self, Tracer};
use crate::Run;

const BASE: usize = 3_200;
const JITTERS: usize = 4;
const JITTER_SCALE: f32 = 0.05;
const K: usize = 10;
const KNN_SHARE: f64 = 0.8;
/// Operations per second of `--seconds`.
const OPS_PER_S: f64 = 6_500.0;
const RECALL_QUERIES: usize = 500;
const MIN_RECALL: f64 = 0.9;

struct Index {
    router: Router,
    base: Vec<Vec<f32>>,
    sd: Vec<f32>,
    /// The vector each id is indexed under, kept in step with the router.
    live: Vec<Vec<f32>>,
}

fn jitter(v: &[f32], sd: &[f32], rng: &mut StdRng) -> Vec<f32> {
    v.iter().zip(sd).map(|(x, s)| x + JITTER_SCALE * s * fixture::normal(rng)).collect()
}

fn setup(run: &Run, base_n: usize) -> Index {
    let city = fixture::city();
    let (_, data) = fixture::simulate(&city, base_n, run.seed);
    let model = Arc::new(fixture::model(&city, &data));
    let opts = EncodeOptions { threads: 2, ..EncodeOptions::default() };
    let base = model.encoder().encode(&data, &opts).expect("corpus encode");
    let dim = base[0].len();
    let sd: Vec<f32> = (0..dim)
        .map(|d| {
            let m = base.iter().map(|v| v[d]).sum::<f32>() / base.len() as f32;
            (base.iter().map(|v| (v[d] - m).powi(2)).sum::<f32>() / base.len() as f32).sqrt()
        })
        .collect();
    let serve = ServeConfig::builder()
        .workers(1)
        .cache_capacity(0)
        .index(IndexKind::Hnsw(HnswConfig::default()))
        .build()
        .expect("the pinned serve configuration is valid");
    let cfg = RouterConfig::builder()
        .replicas(2)
        .serve(serve)
        .build()
        .expect("the pinned router configuration is valid");
    let router = Router::start(model, cfg);
    let mut rng = fixture::rng(run.seed, 2);
    let mut live = Vec::with_capacity(base_n * JITTERS);
    for id in 0..base_n * JITTERS {
        let v = jitter(&base[id / JITTERS], &sd, &mut rng);
        router.index_embedding(id as u64, &v).expect("set-up insert");
        live.push(v);
    }
    Index { router, base, sd, live }
}

/// Mean recall@K of the router against an exact scan of the live set.
fn recall(ix: &Index, queries: usize, seed: u64) -> f64 {
    let mut rng = fixture::rng(seed, 3);
    let mut total = 0.0;
    for _ in 0..queries {
        let q = jitter(&ix.base[rng.gen_range(0..ix.base.len())], &ix.sd, &mut rng);
        let got = ix.router.knn_embedding(&q, K).expect("recall query");
        let mut exact = TopK::new(K);
        for (id, v) in ix.live.iter().enumerate() {
            exact.push(id as u64, start_core::euclidean(&q, v));
        }
        let exact: Vec<u64> = exact.into_sorted().into_iter().map(|n| n.id).collect();
        total += got.iter().filter(|n| exact.contains(&n.id)).count() as f64 / K as f64;
    }
    total / queries as f64
}

pub fn run(run: &Run, tracer: &Tracer) -> Outcome {
    let scale = if run.smoke { 20 } else { 1 };
    let (mut ix, setup_s) = fixture::repeated_setup(|| setup(run, BASE / scale));
    let mut out = Outcome::default();
    out.set("setup_s", setup_s);

    let mut rng = fixture::rng(run.seed, 10);
    let mut rec = tracer.recorder();
    let ops = (OPS_PER_S * run.seconds).round() as u64;
    let (mut latency, mut ends) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for req in 0..ops {
        out.attempted += 1;
        let ok = if rng.gen::<f64>() < KNN_SHARE {
            let q = jitter(&ix.base[rng.gen_range(0..ix.base.len())], &ix.sd, &mut rng);
            let t = Instant::now();
            let r = rec.span("ann.knn", req, |_| ix.router.knn_embedding(&q, K));
            latency.push(fixture::ms(t.elapsed()));
            r.is_ok()
        } else {
            let id = rng.gen_range(0..ix.live.len());
            let v = jitter(&ix.base[id / JITTERS], &ix.sd, &mut rng);
            let t = Instant::now();
            let r = rec.span("ann.insert", req, |_| ix.router.index_embedding(id as u64, &v));
            latency.push(fixture::ms(t.elapsed()));
            if r.is_ok() {
                ix.live[id] = v;
            }
            r.is_ok()
        };
        out.failed += u64::from(!ok);
        ends.push(start.elapsed());
    }
    out.set("throughput_per_s", fixture::windowed_rate(&ends, 1.0));
    out.latencies(latency);
    drop(rec);

    let queries = if run.smoke { RECALL_QUERIES / 5 } else { RECALL_QUERIES };
    let r = recall(&ix, queries, run.seed);
    out.set("ann.recall_at_10", r);
    out.check("recall_at_10", r >= MIN_RECALL, format!("{r:.4} over {queries} queries"));
    if tracer.on() {
        let spans = tracer.spans();
        let knn = loadgen::sorted(trace::durations_us(&spans, "ann.knn"));
        out.set("ann.knn_p50_us", loadgen::percentile(&knn, 50.0));
        out.set("ann.knn_p99_us", loadgen::percentile(&knn, 99.0));
        let insert = loadgen::sorted(trace::durations_us(&spans, "ann.insert"));
        out.set("ann.insert_p50_us", loadgen::percentile(&insert, 50.0));
    }
    out
}
