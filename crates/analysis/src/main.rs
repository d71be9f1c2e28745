//! `start-analysis` — the workspace lint driver, symbolic tape verifier,
//! and memory-plan inspector.
//!
//! Usage:
//!   `cargo run -p start-analysis -- lint`
//!   `cargo run -p start-analysis -- verify`
//!   `cargo run -p start-analysis -- plan [--check]`
//!
//! `lint` runs the syntactic workspace rules (see lib.rs).
//!
//! `verify` runs the symbolic abstract interpreter (`start_nn::symbolic`,
//! DESIGN.md §15) over every registered model family — the START pretrain
//! shard, the eta/classify fine-tuning heads, the serve-path encode graph,
//! and all eight baseline trainers — tracing each tape at several symbolic
//! batch/sequence sizes and reporting shape mismatches, gradient-flow
//! defects (disconnected losses, stop-gradient leaks, unreachable
//! parameters) and statically reachable numerical hazards. Any Error
//! finding exits non-zero; Warnings and Infos are printed but do not fail
//! the run.
//!
//! `plan` records the standard pretrain shard
//! (`start_core::StandardShard`), runs the static liveness pass over its
//! tape, and prints the resulting `MemoryPlan` — node count, release
//! schedule size, and the three peak figures. With `--check` it
//! additionally lints for regressions:
//!
//! - figures must order `planned ≤ runtime ≤ baseline`;
//! - the planned peak must stay ≥ 30% below the no-plan baseline (the PR's
//!   acceptance floor);
//! - a plan-enabled backward must be bitwise-identical (loss and every
//!   parameter gradient) to a plan-disabled backward of a second,
//!   identically recorded tape;
//! - if `BENCH_memory.json` is committed, the freshly computed planned peak
//!   must not exceed the recorded one by more than 10% (catches planner or
//!   model changes that silently regress memory).
//!
//! Exits non-zero when any rule or check fires; CI runs all three
//! subcommands on every push.

use start_analysis::{lint_workspace, workspace_root};
use start_core::StandardShard;
use start_nn::graph::Graph;
use start_nn::liveness::MemoryPlan;
use start_nn::params::GradStore;
use start_nn::symbolic::{verify_family, DEFAULT_ANCHORS};
use start_nn::{Findings, Severity};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(),
        Some("verify") => run_verify(),
        Some("plan") => run_plan(args.iter().any(|a| a == "--check")),
        Some(other) => {
            eprintln!(
                "unknown subcommand `{other}`; usage: start-analysis \
                 <lint|verify|plan [--check]>"
            );
            std::process::exit(2);
        }
        None => {
            eprintln!("usage: start-analysis <lint|verify|plan [--check]>");
            std::process::exit(2);
        }
    }
}

fn run_lint() {
    let root = workspace_root();
    let lints = match lint_workspace(&root) {
        Ok(lints) => lints,
        Err(e) => {
            eprintln!("start-analysis: failed to read workspace at {}: {e}", root.display());
            std::process::exit(2);
        }
    };

    if lints.is_empty() {
        println!("start-analysis: workspace clean ({} rules)", 13);
        return;
    }
    for lint in &lints {
        eprintln!("{lint}");
    }
    eprintln!("start-analysis: {} issue(s) found", lints.len());
    std::process::exit(1);
}

/// Symbolically verify every registered model family's tape: START
/// (pretrain, eta, classify, serve-path encode) plus all eight baseline
/// trainers. Errors fail the run; warnings and infos are advisory.
fn run_verify() {
    let mut families = start_core::symbolic_families();
    families.extend(start_baselines::symbolic_families());

    let mut errors = 0usize;
    let mut warnings = 0usize;
    for fam in &families {
        let report = verify_family(fam.as_ref(), DEFAULT_ANCHORS);
        errors += report.errors().count();
        warnings += report.warnings().count();
        let status = if report.has_errors() { "FAIL" } else { "ok" };
        println!(
            "{status:4} {} — {} node(s), {} trained parameter(s), {} finding(s)",
            report.family,
            report.num_nodes,
            report.trained_params,
            report.findings.len()
        );
        for finding in &report.findings {
            let line = format!("  {finding}");
            if finding.kind.severity() == Severity::Error {
                eprintln!("{line}");
            } else {
                println!("{line}");
            }
        }
    }
    println!(
        "start-analysis verify: {} family(ies), {} error(s), {} warning(s)",
        families.len(),
        errors,
        warnings
    );
    if errors > 0 {
        std::process::exit(1);
    }
}

fn run_plan(check: bool) {
    eprintln!("building the standard pretrain shard fixture...");
    let fix = StandardShard::build();
    let mut g = Graph::new(&fix.model.store, true);
    let res = fix.record(&mut g);
    let plan = MemoryPlan::analyze(&g, res.loss);
    println!("{plan}");

    let mut failures: Vec<String> = Vec::new();
    if plan.planned_peak_bytes() > plan.runtime_peak_bytes()
        || plan.runtime_peak_bytes() > plan.baseline_peak_bytes()
    {
        failures.push("peak figures are not ordered planned <= runtime <= baseline".to_string());
    }

    if check {
        if plan.reduction() < 0.30 {
            failures.push(format!(
                "planned peak regression: only {:.1}% below the no-plan baseline (floor: 30%)",
                100.0 * plan.reduction()
            ));
        }

        // Plan-enabled backward must be bitwise what plan-disabled computes.
        let mut planned_grads = GradStore::new(&fix.model.store);
        g.backward_planned(res.loss, &mut planned_grads, &plan);
        let planned_loss = g.value(res.loss).item();

        let mut g2 = Graph::new(&fix.model.store, true);
        let res2 = fix.record(&mut g2);
        let mut plain_grads = GradStore::new(&fix.model.store);
        g2.backward(res2.loss, &mut plain_grads);
        let plain_loss = g2.value(res2.loss).item();

        if planned_loss.to_bits() != plain_loss.to_bits() {
            failures.push(format!(
                "plan-enabled loss {planned_loss} != plan-disabled loss {plain_loss} (bitwise)"
            ));
        }
        for id in fix.model.store.ids() {
            let a = planned_grads.get(id).map(|a| a.data().to_vec());
            let b = plain_grads.get(id).map(|a| a.data().to_vec());
            let same = match (&a, &b) {
                (Some(a), Some(b)) => {
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
                }
                (None, None) => true,
                _ => false,
            };
            if !same {
                failures.push(format!(
                    "gradient of {:?} diverges between plan-enabled and plan-disabled backward",
                    fix.model.store.name(id)
                ));
                break;
            }
        }

        // Regression lint against the committed benchmark figures.
        let bench = workspace_root().join("BENCH_memory.json");
        if let Ok(json) = std::fs::read_to_string(&bench) {
            match recorded_planned_peak(&json) {
                Some(recorded) => {
                    let limit = recorded + recorded / 10;
                    if plan.planned_peak_bytes() > limit {
                        failures.push(format!(
                            "planned peak {} B exceeds the committed BENCH_memory.json figure \
                             {} B by more than 10% — rerun bench_memory and justify the regression",
                            plan.planned_peak_bytes(),
                            recorded
                        ));
                    }
                }
                None => failures.push(
                    "BENCH_memory.json exists but has no parsable \
                     \"planned_peak_bytes\" field"
                        .to_string(),
                ),
            }
        }
    }

    if failures.is_empty() {
        println!(
            "start-analysis plan: ok{}",
            if check { " (regression checks passed)" } else { "" }
        );
        return;
    }
    for f in &failures {
        eprintln!("start-analysis plan: {f}");
    }
    std::process::exit(1);
}

/// First `"planned_peak_bytes": <digits>` value in the benchmark JSON.
fn recorded_planned_peak(json: &str) -> Option<usize> {
    let key = "\"planned_peak_bytes\":";
    let at = json.find(key)? + key.len();
    let rest = json[at..].trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}
