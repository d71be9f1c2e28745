//! ANN scale sweep: HNSW vs brute force over synthetic embedding stores.
//!
//! The paper's efficiency story (Fig. 4/10) is a similarity-search
//! workload; ROADMAP item 2 scales it from the brute-force scan (exact,
//! O(N) per query) to the `start-ann` HNSW index (approximate, ~O(log N)).
//! This bench measures that trade at store sizes from 10k up: for each
//! size it builds both indexes over the *same* clustered synthetic
//! embeddings, takes the brute-force answers as recall ground truth, and
//! records build time, QPS, recall@10, and resident bytes into
//! `BENCH_ann.json`. Both backends' QPS is the median of 5 timed passes,
//! each running all 100 queries 10 times.
//!
//! The vectors are a cluster mixture (256 centres + noise), the shape
//! trajectory embeddings actually have — and a regime where the HNSW graph
//! has real structure to exploit, unlike adversarial uniform noise.
//!
//! Run: `cargo run -p start-bench --release --bin bench_search`
//!   (sweep 10k → 100k; add `--huge` to extend the sweep to 1M)
//! CI smoke: `cargo run -p start-bench --release --bin bench_search -- --smoke`
//!   (2k store: recall sanity + the typed dimension-mismatch contract,
//!   no JSON).

use std::fmt::Write as _;

use start_bench::timed;
use start_serve::{AnnError, EmbeddingStore, Hnsw, HnswConfig, VectorIndex};

const DIM: usize = 64;
const K: usize = 10;
const NUM_QUERIES: usize = 100;
const NUM_CENTERS: usize = 256;
/// Each timed pass runs every held-out query this many times, so even the
/// HNSW answers (microseconds each) run long enough to dominate clock noise.
const REPS: usize = 10;
/// Timed passes per backend; the reported rate is the median pass.
const PASSES: usize = 5;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f32 {
    ((splitmix(state) >> 11) as f64 / (1u64 << 53) as f64) as f32
}

/// `n` clustered vectors, flat row-major. Centres are shared across calls
/// with the same seed, so queries drawn with a different stream still live
/// in the same mixture.
fn synth_vectors(n: usize, centers: &[f32], stream_seed: u64) -> Vec<f32> {
    let mut state = stream_seed;
    let mut out = Vec::with_capacity(n * DIM);
    for _ in 0..n {
        let c = (splitmix(&mut state) as usize % NUM_CENTERS) * DIM;
        for j in 0..DIM {
            out.push(centers[c + j] + 0.25 * (unit(&mut state) - 0.5));
        }
    }
    out
}

fn synth_centers(seed: u64) -> Vec<f32> {
    let mut state = seed;
    (0..NUM_CENTERS * DIM).map(|_| 2.0 * (unit(&mut state) - 0.5)).collect()
}

struct Point {
    n: usize,
    brute_build_secs: f64,
    hnsw_build_secs: f64,
    brute_qps: f64,
    hnsw_qps: f64,
    recall_at_k: f64,
    hnsw_bytes: usize,
}

impl Point {
    fn speedup(&self) -> f64 {
        self.hnsw_qps / self.brute_qps
    }
}

/// Queries per second of `knn` over `queries`: the median of [`PASSES`]
/// timed passes of [`REPS`] runs over every query. Both backends are timed
/// this same way, so one slow pass on a shared host does not set the
/// speedup.
fn median_qps(queries: &[f32], knn: impl Fn(&[f32])) -> f64 {
    let mut rates: Vec<f64> = (0..PASSES)
        .map(|_| {
            let ((), secs) = timed(|| {
                for _ in 0..REPS {
                    queries.chunks_exact(DIM).for_each(&knn);
                }
            });
            (REPS * NUM_QUERIES) as f64 / secs.as_secs_f64()
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[PASSES / 2]
}

/// One sweep point: build both indexes over the same store, query both
/// with the same held-out queries, score recall against the exact answers.
fn run_point(n: usize, centers: &[f32]) -> Point {
    let data = synth_vectors(n, centers, 0x00da_7a00 + n as u64);
    let queries = synth_vectors(NUM_QUERIES, centers, 0x00c0_ffee + n as u64);

    let (brute, brute_build) = timed(|| {
        let mut store = EmbeddingStore::new(DIM);
        for (i, row) in data.chunks_exact(DIM).enumerate() {
            store.insert(i as u64, row).expect("brute insert");
        }
        store
    });
    let (hnsw, hnsw_build) = timed(|| {
        let mut index = Hnsw::new(DIM, HnswConfig::default());
        for (i, row) in data.chunks_exact(DIM).enumerate() {
            index.insert(i as u64, row).expect("hnsw insert");
        }
        index
    });

    let truth: Vec<_> =
        queries.chunks_exact(DIM).map(|q| brute.knn(q, K).expect("brute knn")).collect();
    let answers: Vec<_> =
        queries.chunks_exact(DIM).map(|q| hnsw.knn(q, K).expect("hnsw knn")).collect();
    let brute_qps = median_qps(&queries, |q| {
        std::hint::black_box(brute.knn(q, K).expect("brute knn"));
    });
    let hnsw_qps = median_qps(&queries, |q| {
        std::hint::black_box(hnsw.knn(q, K).expect("hnsw knn"));
    });

    let mut hits = 0usize;
    let mut want = 0usize;
    for (t, a) in truth.iter().zip(&answers) {
        want += t.len();
        hits += a.iter().filter(|n| t.iter().any(|m| m.id == n.id)).count();
    }

    Point {
        n,
        brute_build_secs: brute_build.as_secs_f64(),
        hnsw_build_secs: hnsw_build.as_secs_f64(),
        brute_qps,
        hnsw_qps,
        recall_at_k: hits as f64 / want as f64,
        hnsw_bytes: hnsw.memory_bytes(),
    }
}

fn print_point(p: &Point) {
    println!(
        "  n={:>9}  build {:>7.2}s  brute {:>9.1} q/s  hnsw {:>10.1} q/s  \
         speedup {:>7.1}x  recall@{K} {:.4}",
        p.n,
        p.hnsw_build_secs,
        p.brute_qps,
        p.hnsw_qps,
        p.speedup(),
        p.recall_at_k,
    );
}

/// The smoke regression: a malformed vector is a typed error on every
/// backend, and the index keeps answering afterwards — the bug this PR
/// exists to fix stays fixed.
fn assert_dimension_mismatch_is_typed() {
    let mut brute = EmbeddingStore::new(DIM);
    let mut hnsw = Hnsw::new(DIM, HnswConfig::default());
    let good = vec![0.5f32; DIM];
    let bad = vec![0.5f32; DIM - 1];
    brute.insert(1, &good).expect("good brute insert");
    hnsw.insert(1, &good).expect("good hnsw insert");
    for err in [
        brute.insert(2, &bad).expect_err("bad brute insert must fail"),
        EmbeddingStore::knn(&brute, &bad, 1).expect_err("bad brute query must fail"),
        hnsw.insert(2, &bad).expect_err("bad hnsw insert must fail"),
        Hnsw::knn(&hnsw, &bad, 1).expect_err("bad hnsw query must fail"),
    ] {
        assert_eq!(err, AnnError::DimensionMismatch { expected: DIM, got: DIM - 1 });
    }
    assert_eq!(EmbeddingStore::knn(&brute, &good, 1).expect("brute survives")[0].id, 1);
    assert_eq!(Hnsw::knn(&hnsw, &good, 1).expect("hnsw survives")[0].id, 1);
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let huge = std::env::args().any(|a| a == "--huge");
    println!("bench_search: HNSW vs brute-force kNN scale sweep (dim {DIM}, k {K})");
    let centers = synth_centers(0x5eed_c0de);

    if smoke {
        assert_dimension_mismatch_is_typed();
        let p = run_point(2_000, &centers);
        print_point(&p);
        assert!(p.recall_at_k >= 0.9, "smoke recall@{K} too low: {:.3}", p.recall_at_k);
        assert!(p.speedup() > 1.0, "HNSW slower than brute force at 2k: {:.2}x", p.speedup());
        println!("bench_search --smoke: ok (typed errors held, recall {:.3})", p.recall_at_k);
        return;
    }

    let mut sizes = vec![10_000usize, 30_000, 100_000];
    if huge {
        sizes.push(1_000_000);
    }
    let mut sweep = Vec::new();
    for &n in &sizes {
        sweep.push(run_point(n, &centers));
        print_point(sweep.last().expect("just pushed"));
    }
    let at_100k = sweep
        .iter()
        .find(|p| p.n == 100_000)
        .expect("sweep always contains the 100k acceptance point");
    assert!(
        at_100k.speedup() >= 20.0,
        "HNSW is only {:.1}x brute force at 100k (floor: 20x)",
        at_100k.speedup()
    );
    assert!(
        at_100k.recall_at_k >= 0.95,
        "HNSW recall@{K} at 100k is {:.4} (floor: 0.95)",
        at_100k.recall_at_k
    );

    let cfg = HnswConfig::default();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"ann\",");
    let _ = writeln!(json, "  \"dim\": {DIM},");
    let _ = writeln!(json, "  \"k\": {K},");
    let _ = writeln!(json, "  \"queries\": {NUM_QUERIES},");
    let _ = writeln!(json, "  \"reps_per_pass\": {REPS},");
    let _ = writeln!(json, "  \"timed_passes\": {PASSES},");
    let _ = writeln!(
        json,
        "  \"hnsw\": {{\"m\": {}, \"ef_construction\": {}, \"ef_search\": {}}},",
        cfg.m, cfg.ef_construction, cfg.ef_search
    );
    let _ = writeln!(
        json,
        "  \"machine_cores\": {},",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let _ = writeln!(json, "  \"sweep\": [");
    for (i, p) in sweep.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"n\": {},", p.n);
        let _ = writeln!(json, "      \"brute_build_secs\": {:.4},", p.brute_build_secs);
        let _ = writeln!(json, "      \"hnsw_build_secs\": {:.4},", p.hnsw_build_secs);
        let _ = writeln!(json, "      \"brute_qps\": {:.1},", p.brute_qps);
        let _ = writeln!(json, "      \"hnsw_qps\": {:.1},", p.hnsw_qps);
        let _ = writeln!(json, "      \"speedup_vs_brute\": {:.2},", p.speedup());
        let _ = writeln!(json, "      \"recall_at_10\": {:.4},", p.recall_at_k);
        let _ = writeln!(json, "      \"hnsw_bytes\": {}", p.hnsw_bytes);
        let _ = writeln!(json, "    }}{}", if i + 1 < sweep.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"acceptance\": {{\"speedup_at_100k\": {:.2}, \"recall_at_10_at_100k\": {:.4}, \
         \"floors\": {{\"speedup\": 20.0, \"recall\": 0.95}}}}",
        at_100k.speedup(),
        at_100k.recall_at_k
    );
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ann.json");
    std::fs::write(path, &json).expect("write BENCH_ann.json");
    println!("\n  wrote {path}");
}
