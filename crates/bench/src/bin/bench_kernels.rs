//! Kernel microbenchmarks for the matmul family and the fused multi-head
//! attention tape op, across the [`start_nn::backend`] seam: the portable
//! blocked [`ScalarBackend`](start_nn::backend::ScalarBackend) is the
//! baseline, and the AVX2+FMA SIMD backend (where the host supports it) is
//! measured against it.
//!
//! Two layers of measurement:
//!
//! 1. Raw kernels — scalar vs SIMD GFLOP/s per shape.
//! 2. A full Transformer encoder layer, forward + backward, on the fused
//!    [`Graph::mh_attention`] op with a pooled reused graph — scalar vs SIMD
//!    tokens/sec. Both backends run the same seed and must agree on the
//!    loss to 1e-4 at every step.
//!
//! Results land in `BENCH_kernels.json` at the repo root.
//!
//! Run: `cargo run -p start-bench --release --bin bench_kernels`
//!   (add `--write-floors` to regenerate `KERNEL_FLOORS.json` from this
//!   machine's measurements, at 0.6x so CI noise never trips a fresh floor)
//! CI smoke: `cargo run -p start-bench --release --bin bench_kernels -- --smoke`
//! (SIMD-vs-scalar agreement on tiny shapes, then the perf-regression gate:
//! per-kernel SIMD speedup over scalar must hold the committed
//! `KERNEL_FLOORS.json` figures minus 10% slack.)

use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use start_nn::array::{self, Array};
use start_nn::backend::{self, BackendKind};
use start_nn::graph::Graph;
use start_nn::layers::TransformerEncoderLayer;
use start_nn::params::{GradStore, ParamStore};
use start_nn::BufferPool;

fn fill(rows: usize, cols: usize, seed: f32) -> Array {
    Array::from_fn(rows, cols, |r, c| ((r * cols + c) as f32 * 0.61 + seed).sin())
}

fn max_abs_diff(a: &Array, b: &Array) -> f32 {
    a.data().iter().zip(b.data()).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
}

/// Wall-time `f` enough times to exceed `window` seconds and return GFLOP/s.
fn gflops_windowed(flops_per_call: f64, window: f64, mut f: impl FnMut() -> Array) -> f64 {
    // Warmup + sanity.
    let out = f();
    assert!(out.all_finite(), "kernel produced non-finite values");
    let mut reps = 1u32;
    loop {
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(f());
        }
        let dt = t0.elapsed().as_secs_f64();
        if dt > window || reps >= 1 << 14 {
            return flops_per_call * f64::from(reps) / dt / 1e9;
        }
        reps *= 4;
    }
}

/// Run `f` with the process-global backend forced to `kind`, restoring the
/// previous selection after.
fn with_backend<T>(kind: BackendKind, f: impl FnOnce() -> T) -> T {
    let prev = backend::set_backend(Some(kind));
    let out = f();
    backend::set_backend(prev);
    out
}

const KERNELS: [&str; 3] = ["matmul", "matmul_bt", "matmul_at"];

/// The backends this host can run: scalar always, SIMD when detected.
fn backends() -> Vec<BackendKind> {
    std::iter::once(BackendKind::Scalar).chain(backend::simd().map(|_| BackendKind::Simd)).collect()
}

/// Operands of one `(m, k, n)` shape for every kernel, built once so timed
/// closures measure only the kernel.
struct Operands {
    a: Array,
    b: Array,
    bt: Array,
    at: Array,
}

impl Operands {
    fn new(m: usize, k: usize, n: usize) -> Self {
        Operands {
            a: fill(m, k, 0.1),
            b: fill(k, n, 0.7),
            bt: fill(n, k, 0.7),
            at: fill(k, m, 0.1),
        }
    }

    fn run(&self, kernel: &str) -> Array {
        match kernel {
            "matmul" => array::matmul(&self.a, &self.b),
            "matmul_bt" => array::matmul_bt(&self.a, &self.bt),
            _ => array::matmul_at(&self.at, &self.b),
        }
    }
}

/// GFLOP/s of `kernel` at `(m, k, n)` on the scalar backend and, where the
/// host supports it, the SIMD backend.
fn time_kernel(kernel: &str, m: usize, k: usize, n: usize, window: f64) -> (f64, Option<f64>) {
    let ops = Operands::new(m, k, n);
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    let time = |kind| with_backend(kind, || gflops_windowed(flops, window, || ops.run(kernel)));
    (time(BackendKind::Scalar), backend::simd().map(|_| time(BackendKind::Simd)))
}

struct KernelRow {
    kernel: &'static str,
    m: usize,
    k: usize,
    n: usize,
    gflops_scalar: f64,
    gflops_simd: Option<f64>,
}

impl KernelRow {
    fn simd_speedup(&self) -> Option<f64> {
        self.gflops_simd.map(|g| g / self.gflops_scalar)
    }
}

fn bench_kernel_shapes(shapes: &[(usize, usize, usize)], window: f64) -> Vec<KernelRow> {
    let mut rows = Vec::new();
    for &(m, k, n) in shapes {
        for kernel in KERNELS {
            let (gflops_scalar, gflops_simd) = time_kernel(kernel, m, k, n, window);
            rows.push(KernelRow { kernel, m, k, n, gflops_scalar, gflops_simd });
        }
    }
    rows
}

/// Assert the SIMD backend agrees with the scalar baseline on one shape (a
/// no-op on hosts without AVX2+FMA).
fn check_kernels_agree(m: usize, k: usize, n: usize) {
    if backend::simd().is_none() {
        return;
    }
    let ops = Operands::new(m, k, n);
    for kernel in KERNELS {
        let scalar = with_backend(BackendKind::Scalar, || ops.run(kernel));
        let simd = with_backend(BackendKind::Simd, || ops.run(kernel));
        let d = max_abs_diff(&scalar, &simd);
        assert!(d <= 1e-4, "simd {kernel} {m}x{k}x{n} diverged from scalar: {d}");
    }
}

// ---------------------------------------------------------------------------
// KERNEL_FLOORS.json: the checked-in perf-regression floors the CI smoke
// gate enforces, mirroring the `start-analysis plan --check` memory gate.

const FLOORS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../KERNEL_FLOORS.json");

/// Gate slack: a measured speedup may undershoot its floor by this fraction
/// before the gate fails (CI machines are noisy; real regressions are not
/// 10% events — the SIMD kernels sit 2–10x above the scalar ones).
const FLOOR_SLACK: f64 = 0.10;

struct Floor {
    kernel: String,
    m: usize,
    k: usize,
    n: usize,
    min_speedup: f64,
}

fn json_str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let at = line.find(&pat)? + pat.len();
    let end = line[at..].find('"')?;
    Some(line[at..at + end].to_string())
}

fn json_num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end =
        rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-')).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse the floors file: one `{"kernel": ...}` object per line.
fn parse_floors(json: &str) -> Vec<Floor> {
    json.lines()
        .filter_map(|line| {
            Some(Floor {
                kernel: json_str_field(line, "kernel")?,
                m: json_num_field(line, "m")? as usize,
                k: json_num_field(line, "k")? as usize,
                n: json_num_field(line, "n")? as usize,
                min_speedup: json_num_field(line, "min_simd_speedup_vs_scalar")?,
            })
        })
        .collect()
}

/// The CI perf-regression gate: re-measure every floored (kernel, shape)
/// with short timing windows and fail on any SIMD-over-scalar speedup more
/// than [`FLOOR_SLACK`] below its committed floor. Hosts without SIMD have
/// nothing to gate.
fn check_floors() {
    let json = std::fs::read_to_string(FLOORS_PATH).unwrap_or_else(|e| {
        panic!(
            "cannot read {FLOORS_PATH}: {e}\n\
             regenerate with: cargo run -p start-bench --release --bin bench_kernels -- --write-floors"
        )
    });
    let floors = parse_floors(&json);
    assert!(!floors.is_empty(), "KERNEL_FLOORS.json contains no floor entries");
    if backend::simd().is_none() {
        println!("  perf floors skipped: {} floors, simd unavailable", floors.len());
        return;
    }

    let mut failures = Vec::new();
    for f in &floors {
        // Short windows keep the whole gate around a second; the floors are
        // set far enough below real throughput that this noise is absorbed.
        let (scalar, simd) = time_kernel(&f.kernel, f.m, f.k, f.n, 0.02);
        let speedup = simd.expect("simd available") / scalar;
        if speedup < f.min_speedup * (1.0 - FLOOR_SLACK) {
            failures.push(format!(
                "{} {}x{}x{}: simd speedup {:.2}x below floor {:.2}x (slack {:.0}%)",
                f.kernel,
                f.m,
                f.k,
                f.n,
                speedup,
                f.min_speedup,
                FLOOR_SLACK * 100.0
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "kernel perf-regression gate failed:\n  {}",
        failures.join("\n  ")
    );
    println!("  perf floors held: {} checked", floors.len());
}

fn write_floors(rows: &[KernelRow]) {
    let entries: Vec<String> = rows
        .iter()
        .filter_map(|r| {
            let speedup = r.simd_speedup()?;
            Some(format!(
                "    {{\"kernel\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \
                 \"min_simd_speedup_vs_scalar\": {:.2}}}",
                r.kernel,
                r.m,
                r.k,
                r.n,
                (speedup * 0.6).max(0.5)
            ))
        })
        .collect();
    assert!(!entries.is_empty(), "--write-floors needs the simd backend on this host");
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"note\": \"perf-regression floors for bench_kernels --smoke: simd speedup over \
         the scalar backend, set at 0.6x of a clean measurement; the gate allows a further \
         {:.0}% slack\",",
        FLOOR_SLACK * 100.0
    );
    let _ = writeln!(json, "  \"floors\": [");
    json.push_str(&entries.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write(FLOORS_PATH, &json).expect("write KERNEL_FLOORS.json");
    println!("\n  wrote {FLOORS_PATH} ({} floors)", entries.len());
}

// ---------------------------------------------------------------------------

struct EncoderBench {
    t: usize,
    dim: usize,
    heads: usize,
    ffn_hidden: usize,
    steps: usize,
    tokens_per_sec_scalar: f64,
    tokens_per_sec_simd: Option<f64>,
    max_loss_diff: f32,
}

impl EncoderBench {
    fn simd_speedup(&self) -> Option<f64> {
        self.tokens_per_sec_simd.map(|t| t / self.tokens_per_sec_scalar)
    }
}

struct EncoderSetup {
    store: ParamStore,
    layer: TransformerEncoderLayer,
    x: Array,
    bias: Array,
}

fn encoder_setup(t: usize, dim: usize, heads: usize, ffn_hidden: usize) -> EncoderSetup {
    let mut rng = StdRng::seed_from_u64(7);
    let mut store = ParamStore::new();
    let layer =
        TransformerEncoderLayer::new(&mut store, &mut rng, "enc", dim, heads, ffn_hidden, 0.0);
    let x = fill(t, dim, 0.2);
    let bias = Array::from_fn(t, t, |r, c| (r as f32 - c as f32) * 0.03);
    EncoderSetup { store, layer, x, bias }
}

/// One forward + backward through the encoder layer; returns the loss.
fn encoder_step(setup: &EncoderSetup, g: &mut Graph) -> f32 {
    let mut rng = StdRng::seed_from_u64(99);
    let x = g.input(setup.x.clone());
    let bias = g.input(setup.bias.clone());
    let y = setup.layer.forward(g, x, Some(bias), &mut rng);
    let sq = g.mul(y, y);
    let loss = g.mean_all(sq);
    let mut grads = GradStore::new(&setup.store);
    g.backward(loss, &mut grads);
    g.value(loss).item()
}

fn bench_encoder(
    t: usize,
    dim: usize,
    heads: usize,
    ffn_hidden: usize,
    steps: usize,
) -> EncoderBench {
    let setup = encoder_setup(t, dim, heads, ffn_hidden);
    let kinds = backends();

    // The backends are timed in interleaved rounds and scored by their
    // fastest round, so slow-timer noise (frequency scaling, co-tenant
    // interference on shared machines) hits every side equally instead of
    // whichever backend happened to run second.
    const ROUNDS: usize = 6;
    let chunk = steps.div_ceil(ROUNDS).max(1);
    let mut losses = vec![Vec::new(); kinds.len()];
    let mut best = vec![f64::INFINITY; kinds.len()];
    let mut pool = BufferPool::new();
    for _ in 0..ROUNDS {
        for (i, &kind) in kinds.iter().enumerate() {
            pool = with_backend(kind, || {
                let mut pool = pool;
                let t0 = Instant::now();
                for _ in 0..chunk {
                    let mut g = Graph::with_pool(&setup.store, true, pool);
                    losses[i].push(encoder_step(&setup, &mut g));
                    pool = g.into_pool();
                }
                best[i] = best[i].min(t0.elapsed().as_secs_f64());
                pool
            });
        }
    }

    assert!(losses.iter().flatten().all(|l| l.is_finite()), "encoder loss went non-finite");
    let max_loss_diff = match &losses[..] {
        [scalar, simd] => {
            scalar.iter().zip(simd).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
        }
        _ => 0.0,
    };
    assert!(max_loss_diff <= 1e-4, "encoder losses diverged across backends: {max_loss_diff}");

    let tokens = (t * chunk) as f64;
    EncoderBench {
        t,
        dim,
        heads,
        ffn_hidden,
        steps: chunk * ROUNDS,
        tokens_per_sec_scalar: tokens / best[0],
        tokens_per_sec_simd: best.get(1).map(|b| tokens / b),
        max_loss_diff,
    }
}

/// CI pass: SIMD-vs-scalar agreement on tiny shapes, pooled reuse, then the
/// perf-regression gate.
fn smoke() {
    check_kernels_agree(5, 7, 3);
    check_kernels_agree(8, 8, 8);

    let setup = encoder_setup(8, 16, 4, 32);
    let mut fresh = Vec::new();
    for kind in backends() {
        let loss = with_backend(kind, || {
            let mut g = Graph::new(&setup.store, true);
            let loss = encoder_step(&setup, &mut g);
            assert!(loss.is_finite(), "{kind:?}: smoke loss must be finite");
            // Pooled reuse must reproduce the fresh-graph loss bitwise.
            let mut pool = BufferPool::new();
            for _ in 0..2 {
                let mut g = Graph::with_pool(&setup.store, true, pool);
                let pooled = encoder_step(&setup, &mut g);
                assert_eq!(
                    pooled.to_bits(),
                    loss.to_bits(),
                    "{kind:?}: pooled graph changed the loss"
                );
                pool = g.into_pool();
            }
            loss
        });
        fresh.push(loss);
    }
    if let [scalar, simd] = fresh[..] {
        assert!((scalar - simd).abs() <= 1e-5, "smoke: simd loss {simd} vs scalar {scalar}");
    }

    check_floors();
    println!("bench_kernels --smoke: backends agree, pooled reuse stable, perf floors held");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let write_floors_flag = std::env::args().any(|a| a == "--write-floors");

    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let simd_name = backend::simd().map_or("unavailable", |b| b.name());
    println!("START reproduction — kernel throughput (cores: {cores}, simd: {simd_name})\n");

    check_kernels_agree(33, 65, 17);

    let shapes = [(64, 64, 64), (128, 256, 64), (256, 64, 256)];
    let rows = bench_kernel_shapes(&shapes, 0.08);
    let fmt_opt = |v: Option<f64>, prec: usize| {
        v.map_or_else(|| "n/a".to_string(), |g| format!("{g:.prec$}"))
    };
    for r in &rows {
        println!(
            "  {:<10} {:>3}x{:<3}x{:<3}: scalar {:6.2}  simd {:>6} ({:>5}x) GFLOP/s",
            r.kernel,
            r.m,
            r.k,
            r.n,
            r.gflops_scalar,
            fmt_opt(r.gflops_simd, 2),
            fmt_opt(r.simd_speedup(), 2),
        );
    }
    // The SIMD backend exists to beat the portable one: no shape class may
    // lose to it (the dispatch thresholds route small shapes to whichever
    // kernel is cheapest).
    for r in &rows {
        if let Some(speedup) = r.simd_speedup() {
            assert!(
                speedup >= 1.0,
                "{} {}x{}x{} simd backend slower than scalar: {speedup:.3}x",
                r.kernel,
                r.m,
                r.k,
                r.n
            );
        }
    }

    let enc = bench_encoder(256, 64, 4, 128, 30);
    println!(
        "\n  encoder layer T={} d={} h={} ffn={} ({} steps, fwd+bwd, fused op, pooled graph):",
        enc.t, enc.dim, enc.heads, enc.ffn_hidden, enc.steps
    );
    println!(
        "    scalar backend: {:8.0} tokens/s\n    simd backend:   {:>8} tokens/s\n    \
         speedup: {}x (max loss diff {:.2e})",
        enc.tokens_per_sec_scalar,
        fmt_opt(enc.tokens_per_sec_simd, 0),
        fmt_opt(enc.simd_speedup(), 2),
        enc.max_loss_diff
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"kernel_throughput\",");
    let _ = writeln!(json, "  \"machine_cores\": {cores},");
    let _ = writeln!(json, "  \"simd\": \"{simd_name}\",");
    let _ = writeln!(json, "  \"baseline\": \"scalar\",");
    let _ = writeln!(json, "  \"kernels\": [");
    let json_opt = |v: Option<f64>, prec: usize| {
        v.map_or_else(|| "null".to_string(), |g| format!("{g:.prec$}"))
    };
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \
             \"gflops_scalar\": {:.3}, \"gflops_simd\": {}, \"simd_speedup\": {}}}{}",
            r.kernel,
            r.m,
            r.k,
            r.n,
            r.gflops_scalar,
            json_opt(r.gflops_simd, 3),
            json_opt(r.simd_speedup(), 3),
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"encoder_layer\": {{");
    let _ = writeln!(
        json,
        "    \"t\": {}, \"dim\": {}, \"heads\": {}, \"ffn_hidden\": {},",
        enc.t, enc.dim, enc.heads, enc.ffn_hidden
    );
    let _ = writeln!(
        json,
        "    \"steps\": {}, \"direction\": \"forward+backward\", \"tape\": \"fused+pooled\",",
        enc.steps
    );
    let _ = writeln!(json, "    \"tokens_per_sec_scalar\": {:.1},", enc.tokens_per_sec_scalar);
    let _ =
        writeln!(json, "    \"tokens_per_sec_simd\": {},", json_opt(enc.tokens_per_sec_simd, 1));
    let _ = writeln!(json, "    \"simd_speedup\": {},", json_opt(enc.simd_speedup(), 3));
    let _ = writeln!(json, "    \"max_loss_diff\": {:.3e}", enc.max_loss_diff);
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(path, &json).expect("write BENCH_kernels.json");
    println!("\n  wrote {path}");

    if write_floors_flag {
        write_floors(&rows);
    }
}
