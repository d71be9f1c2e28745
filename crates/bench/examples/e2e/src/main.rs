//! `e2e`: a seeded end-to-end benchmark of the START system.
//!
//! Five workloads cover the paths users run: online embedding at a
//! trickle and in bursts, similarity search, self-supervised pretraining,
//! and raw-GPS ingestion into a search index. Each is driven through the
//! public APIs of `start-traj`, `start-core`, `start-nn`, `start-serve`
//! and `start-ann`, on data simulated from the workload seed.
//!
//! ```text
//! e2e --seed N [--workload NAME] [--seconds S] [--trace [0|1]] [--smoke]
//! e2e compare [--bounds BENCHMARK.json] --parent FILE... --change FILE...
//! ```
//!
//! With `--workload`, the run happens in this process and the last line
//! of standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer ones). Without it, every workload runs in a child process of
//! this executable (untraced and, with `--trace`, traced) and the merged
//! results land in `target/e2e/results-<seed>.json`. See README.md.

mod compare;
mod embed;
mod fixture;
mod ingest;
mod json;
mod loadgen;
mod pretrain;
mod search;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};

use fixture::Outcome;
use trace::Tracer;

const DEFAULT_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 1.0;
const OUT_DIR: &str = "target/e2e";

type Workload = fn(&Run, &Tracer) -> Outcome;

const WORKLOADS: [(&str, Workload); 5] = [
    ("embed_trickle", embed::trickle),
    ("embed_burst", embed::burst),
    ("search_mixed", search::run),
    ("pretrain", pretrain::run),
    ("ingest_batch", ingest::run),
];

/// End-to-end metrics, reported by every untraced run.
const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run; a layer the workload
/// never calls reads 0.
const LAYERS: [(&str, &str); 25] = [
    ("serve.queue_wait_mean_us", "us"),
    ("serve.batch_encode_mean_us", "us"),
    ("serve.mean_batch_size", "count"),
    ("serve.submit_p50_us", "us"),
    ("core.road_stage_ms", "ms"),
    ("core.road_stage_train_ms", "ms"),
    ("core.view_encode_us", "us"),
    ("core.cache_hit_rate", "ratio"),
    ("core.encode_busy_s", "s"),
    ("ann.knn_p50_us", "us"),
    ("ann.knn_p99_us", "us"),
    ("ann.insert_p50_us", "us"),
    ("ann.recall_at_10", "ratio"),
    ("traj.map_match_busy_s", "s"),
    ("traj.map_match_p50_us", "us"),
    ("traj.match_ok_frac", "ratio"),
    ("traj.route_recall", "ratio"),
    ("nn.forward_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("nn.optimizer_ms", "ms"),
    ("nn.trainer_overhead_ms", "ms"),
    ("nn.tape_nodes", "count"),
    ("nn.pool_hit_rate", "ratio"),
    ("loadgen.lag_p99_ms", "ms"),
    ("host.canary_ms", "ms"),
];

/// Printed (not in the JSON line) by untraced runs besides [`E2E`], so
/// result files carry what `compare` needs to flag suspect runs.
const UNTRACED_EXTRAS: [(&str, &str); 3] =
    [("host.canary_ms", "ms"), ("loadgen.lag_p99_ms", "ms"), ("samples", "count")];

/// An open-loop generator later than this at p99 ran behind its schedule;
/// the run is flagged (and `compare` lists it) rather than failed, since
/// idle-wake latency on a shared VM alone can reach it.
pub const LAG_LIMIT_MS: f64 = 5.0;

/// One run's settings, shared by every workload.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub trace: bool,
}

struct Cli {
    workload: Option<(&'static str, Workload)>,
    run: Run,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let (mut workload, mut seed, mut seconds) = (None, None, None);
    let (mut smoke, mut trace) = (false, false);
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).ok_or(format!("{} needs a value", args[i]));
        match args[i].as_str() {
            "--workload" => {
                workload = Some(value(i)?.clone());
                i += 1;
            }
            "--seed" => {
                seed = Some(value(i)?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?);
                i += 1;
            }
            "--seconds" => {
                let s = value(i)?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
                i += 1;
            }
            "--trace" => {
                trace = true;
                if let Some(v @ ("0" | "1")) = args.get(i + 1).map(String::as_str) {
                    trace = v == "1";
                    i += 1;
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    let workload = match workload {
        None => None,
        Some(w) => Some(WORKLOADS.into_iter().find(|(name, _)| *name == w).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            format!("unknown workload {w}; one of {}", names.join(", "))
        })?),
    };
    let seed = seed.ok_or("--seed is required")?;
    let default_seconds = if smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS };
    let seconds = seconds.unwrap_or(default_seconds);
    Ok(Cli { workload, run: Run { seed, seconds, smoke, trace } })
}

fn backend() -> &'static str {
    match start_nn::backend::active_kind() {
        start_nn::BackendKind::Simd => "simd",
        start_nn::BackendKind::Scalar => "scalar",
    }
}

fn machine_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A JSON number with every digit Rust keeps; non-finite values (a bug)
/// are written as 0 and fail the run's `metrics_finite` check.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn write_file(name: &str, text: &str) {
    let path = Path::new(OUT_DIR).join(name);
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, text));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Run one workload in this process and report it.
fn run_one(name: &str, workload: Workload, run: &Run) -> bool {
    let canary = fixture::canary_ms();
    let tracer = Tracer::new(run.trace);
    let mut out = workload(run, &tracer);
    out.set("peak_rss_mb", fixture::peak_rss_mb());
    out.set("host.canary_ms", canary);
    out.set("samples", out.samples as f64);
    println!(
        "# {name}: seed {} seconds {} machine_cores {}",
        run.seed,
        run.seconds,
        machine_cores()
    );
    println!("# {name}: backend {}", backend());
    if run.trace {
        let spans = tracer.spans();
        let layers = trace::layer_times(&spans);
        for (layer, t) in &layers {
            println!(
                "# {name}: span {layer} count {} total_ms {:.3} self_ms {:.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        write_file(
            &format!("trace-{name}-{}.json", run.seed),
            &trace::to_json(name, run.seed, &spans),
        );
    }

    let finite = out.metrics.values().all(|v| v.is_finite());
    out.check("metrics_finite", finite, "every metric is a finite number".into());
    let positive = E2E.iter().all(|(m, _)| out.metrics.get(m).is_some_and(|v| *v > 0.0));
    out.check("e2e_metrics_positive", positive, "every end-to-end metric is above 0".into());
    for (check, ok, detail) in &out.checks {
        println!("# {name}: check {check} {} {detail}", if *ok { "ok" } else { "FAILED" });
    }
    let lag = out.metrics.get("loadgen.lag_p99_ms").copied().unwrap_or(0.0);
    if lag > LAG_LIMIT_MS {
        println!("# {name}: warning generator lag p99 {lag:.3} ms is over {LAG_LIMIT_MS} ms");
    }
    let extras: &[(&str, &str)] = if run.trace { &LAYERS } else { &UNTRACED_EXTRAS };
    for (metric, unit) in E2E.iter().chain(extras) {
        let v = out.metrics.get(metric).copied().unwrap_or(0.0);
        println!("{name} {metric} {} {unit}", num(v));
    }

    let correct = out.attempted > 0 && out.checks.iter().all(|(_, ok, _)| *ok);
    let reported: &[(&str, &str)] = if run.trace { &LAYERS } else { &E2E };
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted, out.failed
    );
    for (i, (metric, unit)) in reported.iter().enumerate() {
        let v = out.metrics.get(metric).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(json, "{sep}\"{metric}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(v));
    }
    json.push_str("}}");
    println!("{json}");
    correct
}

/// Run `name` in a child process; returns its metric lines and success.
fn child(name: &str, run: &Run, trace: bool) -> Result<(BTreeMap<String, f64>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &run.seed.to_string()]);
    cmd.args(["--seconds", &run.seconds.to_string(), "--trace", if trace { "1" } else { "0" }]);
    if run.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut metrics = BTreeMap::new();
    for line in stdout.lines() {
        if line.starts_with('{') {
            continue;
        }
        println!("{line}");
        let f: Vec<&str> = line.split_whitespace().collect();
        if let [w, metric, value, _unit] = f[..] {
            if let (true, Ok(v)) = (w == name, value.parse::<f64>()) {
                metrics.insert(metric.to_string(), v);
            }
        }
    }
    Ok((metrics, output.status.success()))
}

fn json_map(m: &BTreeMap<String, f64>) -> String {
    let fields: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\": {}", num(*v))).collect();
    format!("{{{}}}", fields.join(", "))
}

/// Every workload in its own child process, untraced and, with `--trace`,
/// traced.
fn run_all(run: &Run) -> Result<bool, String> {
    let mut all_ok = true;
    let mut workloads = Vec::new();
    let mut table = Vec::new();
    for (name, _) in WORKLOADS {
        // Odd seeds run the traced child first, so that order effects
        // cancel in the overhead over a set of seeds.
        let mut modes = if run.trace { vec![false, true] } else { vec![false] };
        if run.seed % 2 == 1 {
            modes.reverse();
        }
        let mut runs = BTreeMap::new();
        for trace in modes {
            let (metrics, ok) = child(name, run, trace)?;
            all_ok &= ok;
            runs.insert(trace, metrics);
        }
        let untraced = runs.remove(&false).expect("the untraced child always runs");
        let mut entry = format!("\"{name}\": {{\"untraced\": {}", json_map(&untraced));
        if let Some(traced) = runs.remove(&true) {
            let overhead: BTreeMap<String, f64> = E2E
                .iter()
                .filter_map(|(m, _)| {
                    let (u, t) = (untraced.get(*m)?, traced.get(*m)?);
                    Some((m.to_string(), 100.0 * (t / u - 1.0)))
                })
                .collect();
            let _ = write!(
                entry,
                ", \"traced\": {}, \"tracing_overhead_pct\": {}",
                json_map(&traced),
                json_map(&overhead)
            );
            table.push((name, untraced, Some(overhead)));
        } else {
            table.push((name, untraced, None));
        }
        entry.push('}');
        workloads.push(entry);
    }

    println!(
        "\n{:<14} {:>9} {:>11} {:>11} {:>12} {:>9} {:>10}",
        "workload", "setup_s", "p50_ms", "p90_ms", "per_s", "rss_mb", "p50 ovh%"
    );
    for (name, m, overhead) in &table {
        let g = |k: &str| m.get(k).copied().unwrap_or(f64::NAN);
        let ovh = overhead.as_ref().and_then(|o| o.get("latency_p50_ms")).copied();
        println!(
            "{name:<14} {:>9.3} {:>11.3} {:>11.3} {:>12.1} {:>9.1} {:>10}",
            g("setup_s"),
            g("latency_p50_ms"),
            g("latency_p90_ms"),
            g("throughput_per_s"),
            g("peak_rss_mb"),
            ovh.map_or("-".to_string(), |o| format!("{o:+.2}")),
        );
    }
    let doc = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"machine_cores\": {}, \"backend\": \"{}\", \"workloads\": {{{}}}}}\n",
        run.seed,
        run.seconds,
        run.smoke,
        machine_cores(),
        backend(),
        workloads.join(", ")
    );
    let file = format!("results-{}.json", run.seed);
    write_file(&file, &doc);
    println!("wrote {OUT_DIR}/{file}");
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare::main(&args[1..])
    } else {
        parse_args(&args).and_then(|cli| match cli.workload {
            Some((name, workload)) => Ok(run_one(name, workload, &cli.run)),
            None => run_all(&cli.run),
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}
