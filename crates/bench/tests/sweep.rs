//! Sweep orchestrator round trip: parent/child over this very test binary.

use start_bench::sweep::{emit_result, run_sweep, SweepError, SweepJob};

/// Argument prefix carrying a child's payload. libtest takes it as one more
/// name filter, which under `--exact` matches no test.
const PAYLOAD_ARG: &str = "sweep-payload=";

/// Child half of the round trip: only does anything when re-invoked by
/// `sweep_round_trip_merges_results_in_job_order` with a payload argument.
#[test]
fn sweep_child_helper() {
    let Some(payload) =
        std::env::args().find_map(|a| a.strip_prefix(PAYLOAD_ARG).map(String::from))
    else {
        return;
    };
    println!("child progress line (forwarded, not a result)");
    emit_result(&payload);
}

#[test]
fn sweep_round_trip_merges_results_in_job_order() {
    let exe = std::env::current_exe().unwrap();
    let child_args = ["sweep_child_helper", "--exact", "--nocapture"];
    let jobs: Vec<SweepJob> = ["alpha", "beta", "gamma"]
        .iter()
        .map(|name| {
            let payload = format!("{PAYLOAD_ARG}payload-{name}");
            SweepJob::new(*name, child_args.iter().map(|a| a.to_string()).chain([payload]))
        })
        .collect();
    let runs = run_sweep(&exe, &jobs).unwrap();
    let got: Vec<(String, String)> = runs.into_iter().map(|r| (r.name, r.payload)).collect();
    assert_eq!(
        got,
        vec![
            ("alpha".to_string(), "payload-alpha".to_string()),
            ("beta".to_string(), "payload-beta".to_string()),
            ("gamma".to_string(), "payload-gamma".to_string()),
        ]
    );

    // A child that exits cleanly without emitting a result is a typed
    // protocol error naming the job.
    let silent = vec![SweepJob::new("silent", child_args)];
    match run_sweep(&exe, &silent) {
        Err(SweepError::MissingResult { job }) => assert_eq!(job, "silent"),
        other => panic!("expected MissingResult, got {other:?}"),
    }
}
