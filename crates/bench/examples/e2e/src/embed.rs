//! The two serving workloads: embedding requests through a 1-replica ×
//! 1-worker `Router` (`max_batch` 32, `max_wait` 1 ms, 512 cache entries).
//!
//! - `embed_trickle`: open loop at 48 req/s, every request a distinct
//!   trajectory, so a batch holds about one request, each reply pays a
//!   full road-stage forward, and the cache only inserts and evicts.
//! - `embed_burst`: Zipf(s = 1) over 6,400 trajectories, with the cache
//!   holding 8% of them, sent by one closed-loop client that keeps two
//!   full batches outstanding. The worker is never idle and every batch
//!   is full, so the road stage is amortized over 32 requests. An
//!   open-loop phase at 2,000 req/s in its place put the worker in the
//!   same always-busy regime, but its batch sizes, and so its latency,
//!   swung by 30% between identical runs with small changes in host speed.

use std::sync::Arc;
use std::time::Duration;

use rand::seq::SliceRandom;
use rand::Rng;

use start_core::{EncodeOptions, StartModel};
use start_serve::{
    EmbeddingHandle, HistogramSnapshot, Router, RouterConfig, RouterStats, ServeConfig, ServeError,
    ServiceStats,
};
use start_traj::Trajectory;

use crate::fixture::{self, Outcome};
use crate::loadgen::{self, Arrival};
use crate::trace::{self, Tracer};
use crate::Run;

const TRICKLE_RATE: f64 = 48.0;
const TRICKLE_WARMUP: usize = 32;
const BURST_DISTINCT: usize = 6_400;
const BURST_WARMUP: usize = 2_000;
/// Burst requests per second of `--seconds`.
const BURST_PER_S: f64 = 4_500.0;
/// Requests the burst client keeps outstanding: two full batches, one
/// being encoded and one queued behind it.
const BURST_WINDOW: usize = 64;
const MAX_BATCH: usize = 32;
const CACHE_ENTRIES: usize = 512;
/// Every CHECK_EVERY-th reply is compared bitwise with an offline encode.
const CHECK_EVERY: usize = 16;

fn router(model: Arc<StartModel>, cache_entries: usize) -> Router {
    let serve = ServeConfig::builder()
        .workers(1)
        .max_batch(MAX_BATCH)
        .max_wait(Duration::from_millis(1))
        .cache_capacity(cache_entries)
        .queue_cap(65_536)
        .build()
        .expect("the pinned serve configuration is valid");
    let cfg = RouterConfig::builder()
        .replicas(1)
        .serve(serve)
        .build()
        .expect("the pinned router configuration is valid");
    Router::start(model, cfg)
}

struct Served {
    model: Arc<StartModel>,
    router: Router,
    data: Vec<Trajectory>,
}

/// Replies sampled for the bitwise check: `(trajectory index, embedding)`.
type Sampled = Vec<(usize, Vec<f32>)>;

/// How a phase's requests are sent.
enum Load<'a> {
    /// Open loop, each request at its offset from the phase start.
    Open(&'a [Duration]),
    /// Closed loop from one thread, this many requests outstanding.
    Closed(usize),
}

/// The timed phase over `requests` (trajectory indexes), sampling every
/// CHECK_EVERY-th reply into `sampled`.
fn phase(
    s: &Served,
    tracer: &Tracer,
    load: Load,
    requests: &[usize],
    sampled: &mut Sampled,
) -> Vec<Arrival> {
    let mut rec = tracer.recorder();
    let submit =
        |i: usize| rec.span("serve.submit", i as u64, |_| s.router.submit(&s.data[requests[i]]));
    let wait = |i: usize, h: Result<EmbeddingHandle, ServeError>| match h.and_then(|h| h.wait()) {
        Ok(emb) => {
            if i.is_multiple_of(CHECK_EVERY) {
                sampled.push((requests[i], emb));
            }
            true
        }
        Err(_) => false,
    };
    match load {
        Load::Open(schedule) => loadgen::run_open_loop(schedule, submit, wait),
        Load::Closed(window) => loadgen::run_closed_loop(requests.len(), window, submit, wait),
    }
}

/// Compare sampled replies bitwise with `Encoder::encode`.
fn check_replies(out: &mut Outcome, s: &Served, sampled: &Sampled) {
    let trajs: Vec<Trajectory> = sampled.iter().map(|(i, _)| s.data[*i].clone()).collect();
    let offline =
        s.model.encoder().encode(&trajs, &EncodeOptions::default()).expect("offline encode");
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let mismatched =
        sampled.iter().zip(&offline).filter(|((_, got), want)| bits(got) != bits(want)).count();
    out.check(
        "replies_match_offline_encode",
        !sampled.is_empty() && mismatched == 0,
        format!("{mismatched} of {} sampled replies differ", sampled.len()),
    );
}

/// Layer counters over one phase: each a ratio of `RouterStats` deltas
/// summed over replicas. Histogram sums come from mean × count, so the
/// queue wait is a true mean, not a bucket edge.
fn serve_deltas(out: &mut Outcome, before: &RouterStats, after: &RouterStats) {
    let ratio = |part: fn(&ServiceStats) -> (f64, f64)| {
        let total = |s: &RouterStats| {
            s.replicas.iter().map(part).fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1))
        };
        let ((n1, d1), (n0, d0)) = (total(after), total(before));
        if d1 > d0 {
            (n1 - n0) / (d1 - d0)
        } else {
            0.0
        }
    };
    fn hist(h: &HistogramSnapshot) -> (f64, f64) {
        (h.mean_us * h.count as f64, h.count as f64)
    }
    out.set("serve.queue_wait_mean_us", ratio(|r| hist(&r.queue_wait)));
    out.set("serve.batch_encode_mean_us", ratio(|r| hist(&r.encode)));
    out.set(
        "core.cache_hit_rate",
        ratio(|r| (r.cache.hits as f64, (r.cache.hits + r.cache.misses) as f64)),
    );
    out.set(
        "serve.mean_batch_size",
        ratio(|r| ((r.completed + r.failed) as f64, r.batches as f64)),
    );
}

/// Counts and latencies of a phase's answered requests.
fn tally(out: &mut Outcome, arrivals: &[Arrival]) {
    out.attempted = arrivals.len() as u64;
    out.failed = arrivals.iter().filter(|a| !a.ok).count() as u64;
    let ok: Vec<f64> = arrivals.iter().filter(|a| a.ok).map(|a| fixture::ms(a.latency())).collect();
    out.latencies(ok);
}

/// Requests whose per-view TAT-Enc cost the traced run measures.
pub const VIEW_SAMPLE: usize = 256;

/// Traced-run extras measured after the timed phase: the eval road stage
/// and the per-view TAT-Enc cost over this workload's own requests.
pub fn core_layers(out: &mut Outcome, model: &StartModel, views: &[Trajectory]) {
    use start_nn::Graph;
    let mut times = Vec::new();
    let mut pool = start_nn::BufferPool::new();
    for _ in 0..50 {
        let mut g = Graph::with_pool(&model.store, false, pool);
        let t = std::time::Instant::now();
        std::hint::black_box(model.road_reprs(&mut g));
        times.push(fixture::ms(t.elapsed()));
        pool = g.into_pool();
    }
    out.set("core.road_stage_ms", fixture::median(&times));

    let mut rng = fixture::rng(0, 0);
    let mut g = Graph::with_pool(&model.store, false, pool);
    let roads = model.road_reprs(&mut g);
    let mut view_us = Vec::new();
    for t in views.iter().take(VIEW_SAMPLE) {
        let view = start_core::clamp_view(start_traj::TrajView::identity(t), model.cfg.max_len);
        let start = std::time::Instant::now();
        let enc = model.encode_view(&mut g, &view, roads, &mut rng);
        std::hint::black_box(g.value(enc.pooled));
        view_us.push(fixture::us(start.elapsed()));
        g.forward_release(&[roads]);
    }
    out.set("core.view_encode_us", fixture::mean(&view_us));
}

fn submit_p50(out: &mut Outcome, tracer: &Tracer) {
    let submit = loadgen::sorted(trace::durations_us(&tracer.spans(), "serve.submit"));
    out.set("serve.submit_p50_us", loadgen::percentile(&submit, 50.0));
}

pub fn trickle(run: &Run, tracer: &Tracer) -> Outcome {
    let window = Duration::from_secs_f64(run.seconds);
    let schedule = loadgen::poisson_schedule(TRICKLE_RATE, window, run.seed);
    let timed = schedule.len();
    let warmup = if run.smoke { TRICKLE_WARMUP / 4 } else { TRICKLE_WARMUP };
    let (s, setup_s) = fixture::repeated_setup(|| {
        let city = fixture::city();
        let (_, data) = fixture::simulate(&city, timed + warmup, run.seed);
        let model = Arc::new(fixture::model(&city, &data));
        let router = router(Arc::clone(&model), CACHE_ENTRIES);
        router.encode(&data[timed..]).expect("warm-up requests are answered");
        Served { model, router, data }
    });
    let mut out = Outcome::default();
    out.set("setup_s", setup_s);

    let requests: Vec<usize> = (0..timed).collect();
    let mut sampled = Sampled::new();
    let before = s.router.stats();
    let arrivals = phase(&s, tracer, Load::Open(&schedule), &requests, &mut sampled);
    let after = s.router.stats();

    tally(&mut out, &arrivals);
    let lag = loadgen::sorted(arrivals.iter().map(|a| fixture::ms(a.lag())).collect());
    out.set("loadgen.lag_p99_ms", loadgen::percentile(&lag, 99.0));
    // Replies per second from the phase start to the last reply: the
    // offered rate while the worker keeps up, less once replies lag.
    let ok = arrivals.iter().filter(|a| a.ok).count() as f64;
    let end = arrivals.iter().map(|a| a.done).max().unwrap_or(window);
    out.set("throughput_per_s", ok / end.as_secs_f64());
    check_replies(&mut out, &s, &sampled);
    if tracer.on() {
        serve_deltas(&mut out, &before, &after);
        submit_p50(&mut out, tracer);
        core_layers(&mut out, &s.model, &s.data[..timed]);
    }
    out
}

/// A Zipf(s = 1) stream over `n` items, ranked by a seeded permutation.
fn zipf_stream(n: usize, len: usize, rng: &mut rand::rngs::StdRng) -> Vec<usize> {
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0f64;
    for r in 1..=n {
        total += 1.0 / r as f64;
        cdf.push(total);
    }
    let mut rank_to_item: Vec<usize> = (0..n).collect();
    rank_to_item.shuffle(rng);
    (0..len)
        .map(|_| {
            let u = rng.gen::<f64>() * total;
            rank_to_item[cdf.partition_point(|&c| c < u).min(n - 1)]
        })
        .collect()
}

pub fn burst(run: &Run, tracer: &Tracer) -> Outcome {
    let scale = if run.smoke { 20 } else { 1 };
    let (distinct, warmup, cache) =
        (BURST_DISTINCT / scale, BURST_WARMUP / scale, CACHE_ENTRIES / scale);
    let timed = (BURST_PER_S * run.seconds).round() as usize;
    let mut rng = fixture::rng(run.seed, 1);
    let stream = zipf_stream(distinct, warmup + timed, &mut rng);
    let (warm, requests) = stream.split_at(warmup);

    let (s, setup_s) = fixture::repeated_setup(|| {
        let city = fixture::city();
        let (_, data) = fixture::simulate(&city, distinct, run.seed);
        let model = Arc::new(fixture::model(&city, &data));
        let router = router(Arc::clone(&model), cache);
        let warm: Vec<Trajectory> = warm.iter().map(|&i| data[i].clone()).collect();
        router.encode(&warm).expect("warm-up requests are answered");
        Served { model, router, data }
    });
    let mut out = Outcome::default();
    out.set("setup_s", setup_s);

    let mut sampled = Sampled::new();
    let before = s.router.stats();
    let arrivals = phase(&s, tracer, Load::Closed(BURST_WINDOW), requests, &mut sampled);
    let after = s.router.stats();

    tally(&mut out, &arrivals);
    let done: Vec<Duration> = arrivals.iter().filter(|a| a.ok).map(|a| a.done).collect();
    out.set("throughput_per_s", fixture::windowed_rate(&done, 1.0));
    check_replies(&mut out, &s, &sampled);
    if tracer.on() {
        serve_deltas(&mut out, &before, &after);
        submit_p50(&mut out, tracer);
        core_layers(&mut out, &s.model, &s.data);
    }
    out
}
