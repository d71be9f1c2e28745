//! Serving benchmark: the micro-batched `Router` — at one replica and
//! sharded over several — against legacy one-call-per-request encoding, at
//! bitwise-identical output.
//!
//! Five measurements:
//!
//! 1. **per_call** — the pre-service pattern: one `Encoder::encode` call
//!    per trajectory (what every caller of the old deprecated entry points
//!    did per request). Each call pays the road-representation forward
//!    pass for a single trajectory.
//! 2. **service** — the same requests through a 1-replica `Router` with
//!    the cache *off*: micro-batching amortizes the road representations over
//!    the batch and answers with bit-for-bit the per_call embeddings
//!    (asserted). The headline figure is this speedup, which the
//!    acceptance floor requires to be ≥ 2×.
//! 3. **service_cached** — a skewed request stream (each distinct
//!    trajectory asked for ~4×) with the cache *on*. One untimed pass over
//!    the distinct set warms the cache first, so the timed figure measures
//!    cached serving, not the first misses' encodes. One pass of the stream
//!    lasts milliseconds, so it is repeated until at least 5 passes and
//!    200 ms have run; the figure is the median pass rate with its min–max,
//!    and the reported hit rate is the timed passes' own.
//! 4. **router scaling** — a fixed-size working set served at 1, 2 and 4
//!    `Router` replicas, each replica's LRU cache sized at 40% of the
//!    working set. Fingerprint sharding makes the per-replica caches
//!    *partitions* (not copies), so aggregate capacity — and the hit rate
//!    on a uniform-random stream — grows with the replica count; on this
//!    single-core host that cache economics, not extra silicon, is the
//!    entire speedup. Floors: ≥ 1.7× at 2 replicas, ≥ 3× at 4. Each point
//!    runs as an isolated child process through the `start_bench::sweep`
//!    orchestrator (cold caches, own allocator arena), points run
//!    sequentially so timed children never contend for the core.
//! 5. **hot swap audit** — a request stream submitted to a 2-replica
//!    router with one `Router::publish` fired mid-stream: every reply is
//!    audited via `wait_versioned` against offline references for *both*
//!    checkpoints — zero dropped, zero mismatched, every reply bitwise the
//!    output of exactly the version that tagged it.
//!
//! Results land in `BENCH_serve.json` at the repo root.
//!
//! Run: `cargo run -p start-bench --release --bin bench_serve`
//! CI smoke: `cargo run -p start-bench --release --bin bench_serve -- --smoke`
//! (tiny streams, asserts bitwise identity and a clean swap audit, runs a
//! two-point sweep without floors, no JSON).

use start_sync::Arc;
use std::fmt::Write as _;
use std::time::Duration;

use start_bench::sweep::{emit_result, run_sweep, SweepJob};
use start_bench::{bj_mini, start_config, timed, Scale};
use start_core::{CacheStats, EncodeOptions, StartModel};
use start_serve::{Router, RouterConfig, RouterStats, ServeConfig, ServiceStats};
use start_traj::Trajectory;

struct Figures {
    requests: usize,
    per_call_secs: f64,
    service_secs: f64,
    /// Requests in one pass of the cached stream.
    cached_requests: usize,
    /// Seconds of each timed pass of the cached stream.
    cached_pass_secs: Vec<f64>,
    /// Hit rate of the timed cached passes alone (the warm-up excluded).
    cached_hit_rate: f64,
    stats: ServiceStats,
}

impl Figures {
    fn per_call_rps(&self) -> f64 {
        self.requests as f64 / self.per_call_secs
    }
    fn service_rps(&self) -> f64 {
        self.requests as f64 / self.service_secs
    }
    /// `(median, min, max)` requests per second over the timed cached
    /// passes; the median of an even count is the upper one.
    fn cached_rps(&self) -> (f64, f64, f64) {
        let mut rps: Vec<f64> =
            self.cached_pass_secs.iter().map(|s| self.cached_requests as f64 / s).collect();
        rps.sort_by(f64::total_cmp);
        (rps[rps.len() / 2], rps[0], rps[rps.len() - 1])
    }
    fn speedup(&self) -> f64 {
        self.service_rps() / self.per_call_rps()
    }
}

/// The timed cached phase runs at least this many passes of the stream...
const CACHED_MIN_PASSES: usize = 5;
/// ...and at least this many seconds in all.
const CACHED_MIN_SECS: f64 = 0.2;

fn serve_config(workers: usize, cache_capacity: usize) -> ServeConfig {
    ServeConfig::builder()
        .workers(workers)
        .max_batch(32)
        .max_wait(Duration::from_millis(1))
        .queue_cap(512)
        .cache_capacity(cache_capacity)
        .build()
        .expect("bench serve config is valid")
}

/// A 1-replica router: one queue, one worker pool, one cache.
fn one_replica(model: &Arc<StartModel>, serve: ServeConfig) -> Router {
    let cfg = RouterConfig::builder().replicas(1).serve(serve).build().expect("1-replica router");
    Router::start(Arc::clone(model), cfg)
}

/// The counters of a 1-replica router's only replica.
fn only(stats: RouterStats) -> ServiceStats {
    stats.replicas.into_iter().next().expect("one replica")
}

fn run(model: &Arc<StartModel>, requests: &[Trajectory]) -> Figures {
    // 1. Legacy shape: one encode call per request, single thread.
    let opts = EncodeOptions::default();
    let encoder = model.encoder();
    let (per_call_out, per_call_secs) = timed(|| {
        let mut out: Vec<Vec<f32>> = Vec::with_capacity(requests.len());
        for t in requests {
            let emb = encoder.encode(std::slice::from_ref(t), &opts).expect("per-call encode");
            out.extend(emb);
        }
        out
    });

    // 2. The service, cache off, one worker: same bits, batched schedule.
    let service = one_replica(model, serve_config(1, 0));
    let (served, service_secs) = timed(|| service.encode(requests).expect("service encode"));
    let stats = only(service.shutdown());
    assert_eq!(served.len(), per_call_out.len());
    for (i, (s, p)) in served.iter().zip(&per_call_out).enumerate() {
        assert_eq!(s.len(), p.len());
        for (a, b) in s.iter().zip(p) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "request {i}: service output diverged from per-call encode"
            );
        }
    }

    // 3. A skewed stream with the cache on: each distinct trajectory ~4×,
    // timed after one untimed pass over the distinct set fills the cache,
    // and repeated until enough passes and time have run to read a rate.
    let distinct = (requests.len() / 4).max(1);
    let cached_stream: Vec<Trajectory> =
        (0..requests.len()).map(|i| requests[(i * 7919) % distinct].clone()).collect();
    let service = one_replica(model, serve_config(1, 4096));
    service.encode(&requests[..distinct]).expect("cache warm-up encode");
    let warm = only(service.stats()).cache;
    let mut cached_pass_secs = Vec::new();
    while cached_pass_secs.len() < CACHED_MIN_PASSES
        || cached_pass_secs.iter().sum::<f64>() < CACHED_MIN_SECS
    {
        let (cached_out, secs) =
            timed(|| service.encode(&cached_stream).expect("cached service encode"));
        cached_pass_secs.push(secs.as_secs_f64());
        for (out, t_idx) in
            cached_out.iter().zip((0..requests.len()).map(|i| (i * 7919) % distinct))
        {
            let reference = &per_call_out[t_idx];
            assert!(
                out.iter().zip(reference).all(|(a, b)| a.to_bits() == b.to_bits()),
                "cached answer diverged from the per-call encode"
            );
        }
    }
    let end = only(service.shutdown()).cache;
    let cached_hit_rate =
        CacheStats { hits: end.hits - warm.hits, misses: end.misses - warm.misses, ..end }
            .hit_rate();

    Figures {
        requests: requests.len(),
        per_call_secs: per_call_secs.as_secs_f64(),
        service_secs: service_secs.as_secs_f64(),
        cached_requests: cached_stream.len(),
        cached_pass_secs,
        cached_hit_rate,
        stats,
    }
}

fn print_figures(f: &Figures) {
    println!("  requests              : {}", f.requests);
    println!("  per-call encode       : {:.2} req/s ({:.3}s)", f.per_call_rps(), f.per_call_secs);
    println!("  service (cache off)   : {:.2} req/s ({:.3}s)", f.service_rps(), f.service_secs);
    println!("  speedup               : {:.2}x", f.speedup());
    println!(
        "  service queue wait    : p50 {}us  p99 {}us",
        f.stats.queue_wait.p50_us, f.stats.queue_wait.p99_us
    );
    println!(
        "  service batch encode  : p50 {}us  p99 {}us  mean batch {:.1}",
        f.stats.encode.p50_us,
        f.stats.encode.p99_us,
        f.stats.mean_batch_size()
    );
    let (median, min, max) = f.cached_rps();
    println!(
        "  service (cache on)    : {median:.2} req/s median of {} passes (min {min:.2}, max \
         {max:.2}), timed-pass hit rate {:.3}",
        f.cached_pass_secs.len(),
        f.cached_hit_rate
    );
}

// ---------------------------------------------------------------------------
// Section 4: router replica scaling, one child process per point
// ---------------------------------------------------------------------------

/// Workload knobs for one scaling point. The per-replica cache holds 40% of
/// the distinct working set, so aggregate capacity covers 40/80/160% of it
/// at 1/2/4 replicas — the measured uniform-random hit rates track that
/// coverage, and throughput tracks the miss rate.
struct ScalingWorkload {
    /// Distinct trajectories in the working set.
    working_set: usize,
    /// Warmup requests (unmeasured; fills the caches to steady state).
    warmup: usize,
    /// Measured requests.
    measured: usize,
}

impl ScalingWorkload {
    fn new(smoke: bool) -> Self {
        if smoke {
            Self { working_set: 40, warmup: 120, measured: 160 }
        } else {
            Self { working_set: 360, warmup: 720, measured: 1200 }
        }
    }

    fn cache_capacity(&self) -> usize {
        (self.working_set * 2 / 5).max(1)
    }
}

/// Deterministic uniform stream over `working_set` indices (an LCG, so
/// every child and every replica count sees the identical request order).
fn uniform_stream(seed: u64, len: usize, working_set: usize) -> Vec<usize> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % working_set
        })
        .collect()
}

/// Child side of the scaling sweep: serve the standard workload at
/// `replicas` replicas and emit `rps hit_rate requests` as the result
/// payload.
fn run_scaling_child(replicas: usize, smoke: bool) {
    let scale = scale_for(smoke);
    let ds = bj_mini(&scale);
    let model =
        Arc::new(StartModel::new(start_config(&scale), &ds.city.net, Some(&ds.transfer), None, 77));
    let wl = ScalingWorkload::new(smoke);
    let pool = request_pool(&ds, wl.working_set);

    // Single-request batches: the road-representation forward dominates a
    // batch's cost and is skipped only when *every* view in the batch is
    // cached, so at `max_batch` 32 a 77%-hit replica still pays it for
    // ~every batch (0.77^32 ≈ 0) and the cache win vanishes into batch
    // amortization. With one view per batch, served cost tracks the miss
    // count — which is exactly what the aggregate-cache-capacity story
    // says should shrink as replicas are added.
    let serve = ServeConfig::builder()
        .workers(1)
        .max_batch(1)
        .queue_cap(512)
        .cache_capacity(wl.cache_capacity())
        .build()
        .expect("scaling serve config is valid");
    let cfg = RouterConfig::builder()
        .replicas(replicas)
        .serve(serve)
        .build()
        .expect("scaling router config is valid");
    let router = Router::start(model, cfg);

    let warm: Vec<Trajectory> =
        uniform_stream(11, wl.warmup, wl.working_set).iter().map(|&i| pool[i].clone()).collect();
    router.encode(&warm).expect("warmup encode");

    let measured: Vec<Trajectory> =
        uniform_stream(97, wl.measured, wl.working_set).iter().map(|&i| pool[i].clone()).collect();
    let before = router.stats();
    let (_, secs) = timed(|| router.encode(&measured).expect("measured encode"));
    let after = router.stats();
    router.shutdown();

    let hits: u64 = after.replicas.iter().map(|s| s.cache.hits).sum::<u64>()
        - before.replicas.iter().map(|s| s.cache.hits).sum::<u64>();
    let lookups: u64 = after.replicas.iter().map(|s| s.cache.hits + s.cache.misses).sum::<u64>()
        - before.replicas.iter().map(|s| s.cache.hits + s.cache.misses).sum::<u64>();
    let hit_rate = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
    let rps = wl.measured as f64 / secs.as_secs_f64();
    emit_result(&format!("{rps:.3} {hit_rate:.4} {}", wl.measured));
}

/// One parsed scaling point.
struct ScalingPoint {
    replicas: usize,
    rps: f64,
    hit_rate: f64,
    requests: usize,
}

/// Parent side: run the 1/2/4-replica points as child processes through
/// the sweep orchestrator, one sweep per point — timed points must not
/// share the single core, so the fan-out here is across *sweeps*, not
/// within one.
fn run_scaling_sweep(replica_counts: &[usize], smoke: bool) -> Vec<ScalingPoint> {
    let exe = std::env::current_exe().expect("current exe path");
    replica_counts
        .iter()
        .map(|&replicas| {
            let mut args = vec!["--scaling-child".to_string(), replicas.to_string()];
            if smoke {
                args.push("--smoke".to_string());
            }
            let job = SweepJob::new(format!("replicas-{replicas}"), args);
            let runs = run_sweep(&exe, std::slice::from_ref(&job)).expect("scaling sweep");
            let run = runs.into_iter().next().expect("one run per sweep");
            let mut parts = run.payload.split_whitespace();
            let rps: f64 = parts.next().and_then(|s| s.parse().ok()).expect("rps payload");
            let hit_rate: f64 =
                parts.next().and_then(|s| s.parse().ok()).expect("hit-rate payload");
            let requests: usize =
                parts.next().and_then(|s| s.parse().ok()).expect("requests payload");
            ScalingPoint { replicas, rps, hit_rate, requests }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Section 5: mid-stream checkpoint hot-swap audit
// ---------------------------------------------------------------------------

struct SwapAudit {
    requests: usize,
    replies_v0: usize,
    replies_v1: usize,
    dropped: usize,
    mismatched: usize,
    drained_batches: u64,
}

/// Submit a request stream to a 2-replica router, publish checkpoint `next`
/// mid-stream, and audit every reply against the offline reference of the
/// version that tagged it.
fn run_swap_audit(
    model: &Arc<StartModel>,
    next: Arc<StartModel>,
    requests: &[Trajectory],
) -> SwapAudit {
    let opts = EncodeOptions::default();
    let ref_v0 = model.encoder().encode(requests, &opts).expect("v0 reference encode");
    let ref_v1 = next.encoder().encode(requests, &opts).expect("v1 reference encode");

    // Cache off so every reply exercises the versioned encode path; small
    // batches so the swap lands between micro-batches, not around one giant
    // one.
    let serve = ServeConfig::builder()
        .workers(1)
        .max_batch(8)
        .max_wait(Duration::from_millis(1))
        .queue_cap(requests.len().max(1))
        .cache_capacity(0)
        .build()
        .expect("swap-audit serve config is valid");
    let cfg = RouterConfig::builder().replicas(2).serve(serve).build().expect("swap router config");
    let router = Router::start(Arc::clone(model), cfg);

    let handles: Vec<_> =
        requests.iter().map(|t| router.submit(t).expect("submit during swap audit")).collect();
    // Let a few old-version micro-batches flush, then swap while the rest
    // are still queued or in flight.
    std::thread::sleep(Duration::from_millis(5));
    let drained_batches = router.publish(next).expect("mid-stream publish").drained_batches;

    let mut audit = SwapAudit {
        requests: requests.len(),
        replies_v0: 0,
        replies_v1: 0,
        dropped: 0,
        mismatched: 0,
        drained_batches,
    };
    for (i, h) in handles.into_iter().enumerate() {
        match h.wait_versioned() {
            Ok((emb, version)) => {
                let reference = match version {
                    0 => {
                        audit.replies_v0 += 1;
                        &ref_v0[i]
                    }
                    _ => {
                        audit.replies_v1 += 1;
                        &ref_v1[i]
                    }
                };
                let matches = emb.len() == reference.len()
                    && emb.iter().zip(reference).all(|(a, b)| a.to_bits() == b.to_bits());
                if !matches {
                    audit.mismatched += 1;
                }
            }
            Err(_) => audit.dropped += 1,
        }
    }
    router.shutdown();
    audit
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

fn scale_for(smoke: bool) -> Scale {
    if smoke {
        Scale { bj_trajectories: 260, ..Scale::quick() }
    } else {
        Scale::from_env()
    }
}

/// The first `n` distinct trajectories of the dataset's test+train pool.
fn request_pool(ds: &start_traj::TrajDataset, n: usize) -> Vec<Trajectory> {
    let mut pool: Vec<Trajectory> = ds.test().to_vec();
    pool.extend_from_slice(ds.train());
    pool.truncate(n);
    pool
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    if let Some(pos) = args.iter().position(|a| a == "--scaling-child") {
        let replicas: usize =
            args.get(pos + 1).and_then(|s| s.parse().ok()).expect("--scaling-child <replicas>");
        run_scaling_child(replicas, smoke);
        return;
    }

    println!("bench_serve: micro-batched serving vs per-call encoding");
    let scale = scale_for(smoke);
    println!("  building bj-mini at scale `{}`...", scale.name);
    let ds = bj_mini(&scale);
    let model =
        Arc::new(StartModel::new(start_config(&scale), &ds.city.net, Some(&ds.transfer), None, 77));
    let n = if smoke { 48 } else { 512.min(ds.test().len() + ds.train().len()) };
    let requests = request_pool(&ds, n);

    let figs = run(&model, &requests);
    print_figures(&figs);

    // Section 5: mid-stream hot swap, audited reply by reply. The next
    // checkpoint is the same architecture at different weights (a fresh
    // seed) — maximally distinguishable from v0 bit-for-bit.
    println!("  hot-swap audit...");
    let next =
        Arc::new(StartModel::new(start_config(&scale), &ds.city.net, Some(&ds.transfer), None, 78));
    let audit_stream: Vec<Trajectory> =
        requests.iter().take(if smoke { 48 } else { 240 }).cloned().collect();
    let audit = run_swap_audit(&model, next, &audit_stream);
    println!(
        "  hot swap              : {} replies ({} v0 / {} v1), {} dropped, {} mismatched, \
         {} batches drained at swap",
        audit.requests,
        audit.replies_v0,
        audit.replies_v1,
        audit.dropped,
        audit.mismatched,
        audit.drained_batches
    );
    assert_eq!(audit.dropped, 0, "hot swap dropped replies");
    assert_eq!(audit.mismatched, 0, "hot swap produced replies matching neither checkpoint");
    assert_eq!(audit.replies_v0 + audit.replies_v1, audit.requests);

    // Section 4: replica scaling through the sweep orchestrator. Smoke runs
    // a two-point sweep to exercise the parent/child protocol end to end,
    // without floors.
    let replica_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    println!("  replica scaling sweep ({replica_counts:?})...");
    let points = run_scaling_sweep(replica_counts, smoke);
    let base_rps = points[0].rps;
    for p in &points {
        println!(
            "  router x{}             : {:.2} req/s, hit rate {:.3}, {:.2}x vs 1 replica",
            p.replicas,
            p.rps,
            p.hit_rate,
            p.rps / base_rps
        );
    }

    if smoke {
        println!("bench_serve --smoke: ok (bitwise identity and swap audit held)");
        return;
    }

    assert!(
        figs.speedup() >= 2.0,
        "service throughput is only {:.2}x the per-call baseline (floor: 2x)",
        figs.speedup()
    );
    let speedup_at = |r: usize| -> f64 {
        points.iter().find(|p| p.replicas == r).map(|p| p.rps / base_rps).unwrap_or(0.0)
    };
    assert!(
        speedup_at(2) >= 1.7,
        "2-replica router is only {:.2}x the 1-replica throughput (floor: 1.7x)",
        speedup_at(2)
    );
    assert!(
        speedup_at(4) >= 3.0,
        "4-replica router is only {:.2}x the 1-replica throughput (floor: 3x)",
        speedup_at(4)
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"serve\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", scale.name);
    let _ = writeln!(json, "  \"requests\": {},", figs.requests);
    let _ = writeln!(json, "  \"per_call_rps\": {:.2},", figs.per_call_rps());
    let _ = writeln!(json, "  \"service_rps\": {:.2},", figs.service_rps());
    let _ = writeln!(json, "  \"speedup_vs_per_call\": {:.3},", figs.speedup());
    let _ = writeln!(json, "  \"bitwise_identical_to_per_call\": true,");
    let _ = writeln!(
        json,
        "  \"queue_wait_us\": {{\"p50\": {}, \"p99\": {}}},",
        figs.stats.queue_wait.p50_us, figs.stats.queue_wait.p99_us
    );
    let _ = writeln!(
        json,
        "  \"batch_encode_us\": {{\"p50\": {}, \"p99\": {}}},",
        figs.stats.encode.p50_us, figs.stats.encode.p99_us
    );
    let _ = writeln!(json, "  \"mean_batch_size\": {:.2},", figs.stats.mean_batch_size());
    let _ = writeln!(json, "  \"cached\": {{");
    let (cached_median, cached_min, cached_max) = figs.cached_rps();
    let _ = writeln!(json, "    \"requests_per_pass\": {},", figs.cached_requests);
    let _ = writeln!(json, "    \"timed_passes\": {},", figs.cached_pass_secs.len());
    let _ = writeln!(json, "    \"service_rps\": {cached_median:.2},");
    let _ = writeln!(json, "    \"service_rps_min\": {cached_min:.2},");
    let _ = writeln!(json, "    \"service_rps_max\": {cached_max:.2},");
    let _ = writeln!(json, "    \"hit_rate\": {:.3}", figs.cached_hit_rate);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"scaling\": [");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"replicas\": {}, \"requests\": {}, \"rps\": {:.2}, \"hit_rate\": {:.3}, \
             \"speedup_vs_1_replica\": {:.3}}}{}",
            p.replicas,
            p.requests,
            p.rps,
            p.hit_rate,
            p.rps / base_rps,
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"hot_swap\": {{");
    let _ = writeln!(json, "    \"requests\": {},", audit.requests);
    let _ = writeln!(json, "    \"replies_v0\": {},", audit.replies_v0);
    let _ = writeln!(json, "    \"replies_v1\": {},", audit.replies_v1);
    let _ = writeln!(json, "    \"dropped\": {},", audit.dropped);
    let _ = writeln!(json, "    \"mismatched\": {},", audit.mismatched);
    let _ = writeln!(json, "    \"drained_batches_at_swap\": {}", audit.drained_batches);
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, &json).expect("write BENCH_serve.json");
    println!("\n  wrote {path}");
}
