//! `ingest_batch`: the offline path from raw GPS to a search index, on one
//! thread. Set-up simulates 4,000 trajectories and renders them as raw
//! GPS (15 s sampling, 6 m noise). The timed phase takes 16 chunks of 64
//! traces per second of `--seconds`: HMM `map_match` each (Dijkstra
//! inside), `Encoder::encode` the matched chunk, insert every embedding
//! into a fresh `Hnsw`. It is the only workload that runs map matching.
//!
//! Past the 4,000th trace the traces are replayed with their timestamps
//! shifted by a day and a minute per pass, so every pass matches the same
//! geometry but indexes new embeddings.

use std::time::Instant;

use start_ann::{Hnsw, HnswConfig, VectorIndex};
use start_core::{EncodeOptions, StartModel};
use start_roadnet::City;
use start_traj::{map_match, MatchConfig, RawTrajectory, Trajectory};

use crate::fixture::{self, Outcome};
use crate::loadgen;
use crate::trace::{self, Tracer};
use crate::Run;

const TRACES: usize = 4_000;
const CHUNK: usize = 64;
/// Chunks per second of `--seconds`.
const CHUNKS_PER_S: f64 = 16.0;
const GPS_INTERVAL_S: i64 = 15;
const GPS_NOISE_M: f64 = 6.0;
/// Timestamp shift per replay pass: one day and one minute.
const REPLAY_SHIFT_S: i64 = 86_400 + 60;
const RECALL_SAMPLE: usize = 200;
const MIN_ROUTE_RECALL: f64 = 0.9;

struct Batch {
    city: City,
    model: StartModel,
    truth: Vec<Trajectory>,
    raw: Vec<RawTrajectory>,
}

fn setup(run: &Run, n: usize) -> Batch {
    let city = fixture::city();
    let (truth, raw) = {
        let (sim, truth) = fixture::simulate(&city, n, run.seed);
        let mut rng = fixture::rng(run.seed, 5);
        let raw = truth.iter().map(|t| sim.to_raw_gps(t, GPS_INTERVAL_S, GPS_NOISE_M, &mut rng));
        let raw: Vec<RawTrajectory> = raw.collect();
        (truth, raw)
    };
    let model = fixture::model(&city, &truth);
    Batch { city, model, truth, raw }
}

/// The raw trace of step `k`: trace `k mod n`, shifted for its pass.
fn trace_at(b: &Batch, k: usize) -> RawTrajectory {
    let pass = (k / b.raw.len()) as i64;
    let mut raw = b.raw[k % b.raw.len()].clone();
    for p in &mut raw.points {
        p.t += pass * REPLAY_SHIFT_S;
    }
    raw
}

pub fn run(run: &Run, tracer: &Tracer) -> Outcome {
    let scale = if run.smoke { 20 } else { 1 };
    let (b, setup_s) = fixture::repeated_setup(|| setup(run, TRACES / scale));
    let mut out = Outcome::default();
    out.set("setup_s", setup_s);

    let net = &b.city.net;
    let match_cfg = MatchConfig::default();
    let opts = EncodeOptions::default();
    let mut index = Hnsw::new(b.model.cfg.dim, HnswConfig::default());
    let mut first_pass: Vec<Option<Trajectory>> = vec![None; b.raw.len()];
    let (mut chunk_ms, mut ends) = (Vec::new(), Vec::new());
    let (mut next, mut id, mut matched_ok) = (0usize, 0u64, 0u64);
    let mut rec = tracer.recorder();
    let chunks = ((CHUNKS_PER_S * run.seconds).round() as usize).max(1);
    let start = Instant::now();
    for _ in 0..chunks {
        let t = Instant::now();
        let chunk = (next / CHUNK) as u64;
        rec.span("ingest.chunk", chunk, |rec| {
            let mut slots = Vec::with_capacity(CHUNK);
            let mut matched = Vec::with_capacity(CHUNK);
            for k in next..next + CHUNK {
                let raw = trace_at(&b, k);
                match rec.span("traj.map_match", k as u64, |_| map_match(net, &raw, &match_cfg)) {
                    Ok(m) => {
                        slots.push(k);
                        matched.push(m);
                    }
                    Err(_) => out.failed += 1,
                }
            }
            let embs = rec
                .span("core.encode", chunk, |_| b.model.encoder().encode(&matched, &opts))
                .expect("matched trajectories encode");
            for e in &embs {
                rec.span("ann.insert", id, |_| index.insert(id, e)).expect("index insert");
                id += 1;
            }
            matched_ok += matched.len() as u64;
            for (k, m) in slots.into_iter().zip(matched) {
                if k < b.raw.len() {
                    first_pass[k] = Some(m);
                }
            }
        });
        chunk_ms.push(fixture::ms(t.elapsed()));
        ends.push(start.elapsed());
        next += CHUNK;
    }
    drop(rec);

    out.attempted = next as u64;
    out.set("throughput_per_s", fixture::windowed_rate(&ends, CHUNK as f64));
    out.latencies(chunk_ms);
    out.check(
        "every_embedding_indexed",
        index.len() as u64 == matched_ok,
        format!("{} indexed of {matched_ok} matched", index.len()),
    );
    let matched: Vec<(usize, &Trajectory)> =
        first_pass.iter().enumerate().filter_map(|(i, m)| Some((i, m.as_ref()?))).collect();
    let broken = matched.iter().filter(|(_, m)| !net.is_path(&m.roads)).count();
    out.check(
        "matched_routes_are_paths",
        broken == 0,
        format!("{broken} of {} matched routes are not connected paths", matched.len()),
    );
    let (mut hit, mut total) = (0usize, 0usize);
    for (i, m) in matched.iter().take(RECALL_SAMPLE) {
        let set: std::collections::HashSet<_> = m.roads.iter().collect();
        hit += b.truth[*i].roads.iter().filter(|r| set.contains(r)).count();
        total += b.truth[*i].roads.len();
    }
    let recall = hit as f64 / total.max(1) as f64;
    out.set("traj.route_recall", recall);
    out.check(
        "route_recall",
        recall >= MIN_ROUTE_RECALL,
        format!("{recall:.4} over {} traces", matched.len().min(RECALL_SAMPLE)),
    );
    if tracer.on() {
        let spans = tracer.spans();
        let map_match = loadgen::sorted(trace::durations_us(&spans, "traj.map_match"));
        out.set("traj.map_match_busy_s", map_match.iter().sum::<f64>() / 1e6);
        out.set("traj.map_match_p50_us", loadgen::percentile(&map_match, 50.0));
        out.set("traj.match_ok_frac", matched_ok as f64 / next.max(1) as f64);
        let encode = trace::durations_us(&spans, "core.encode");
        out.set("core.encode_busy_s", encode.iter().sum::<f64>() / 1e6);
        let insert = loadgen::sorted(trace::durations_us(&spans, "ann.insert"));
        out.set("ann.insert_p50_us", loadgen::percentile(&insert, 50.0));
        let views: Vec<Trajectory> =
            matched.iter().take(crate::embed::VIEW_SAMPLE).map(|(_, m)| (*m).clone()).collect();
        crate::embed::core_layers(&mut out, &b.model, &views);
    }
    out
}
