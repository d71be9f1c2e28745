//! The parent/child sweep orchestrator.
//!
//! A sweep fans train/eval configurations out to child processes — one
//! per [`SweepJob`] — and merges their results in job order. The protocol
//! is the serverless-lambda parent/child pattern: the parent re-invokes a
//! program (typically its own executable, dispatching on a flag argument)
//! with per-job arguments; the child does its
//! work and prints exactly one `SWEEP_RESULT <payload>` line to stdout
//! via [`emit_result`]; the parent captures stdout, extracts the marked
//! line, and returns the payloads as [`SweepRun`]s. Everything else a
//! child prints is forwarded as ordinary log output, so progress lines
//! coexist with the protocol.
//!
//! Children run as real OS processes, so each job gets its own address
//! space, its own allocator arena, and — for serving benchmarks — its own
//! cold caches, which is what makes multi-replica scaling measurements
//! honest: no job warms another's state.
//!
//! `bench_serve` uses this to run its 1/2/4-replica scaling matrix as
//! isolated child runs; the same harness fans out any
//! configuration sweep whose child can serialize its result into one
//! line (JSON, CSV, a single number).

use std::path::Path;
use std::process::{Command, Stdio};

/// The stdout marker a child prefixes its result payload with.
pub const RESULT_MARKER: &str = "SWEEP_RESULT ";

/// One child configuration: a display name and the argv tail passed to the
/// program. Children inherit the parent's environment.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Label carried into the matching [`SweepRun`] and error messages.
    pub name: String,
    /// Arguments appended to the program invocation.
    pub args: Vec<String>,
}

impl SweepJob {
    pub fn new(name: impl Into<String>, args: impl IntoIterator<Item = impl Into<String>>) -> Self {
        Self { name: name.into(), args: args.into_iter().map(Into::into).collect() }
    }
}

/// One child's merged result: its job name and the payload it emitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRun {
    pub name: String,
    /// The text after [`RESULT_MARKER`] on the child's last marked line.
    pub payload: String,
}

/// Why a sweep failed. Child stderr rides along for diagnosis.
#[derive(Debug)]
pub enum SweepError {
    /// The child process could not be spawned at all.
    Spawn { job: String, message: String },
    /// The child exited non-zero.
    Child { job: String, code: Option<i32>, stderr: String },
    /// The child exited zero but never printed a `SWEEP_RESULT` line.
    MissingResult { job: String },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Spawn { job, message } => write!(f, "sweep job `{job}`: spawn failed: {message}"),
            Self::Child { job, code, stderr } => write!(
                f,
                "sweep job `{job}`: child exited with {} — stderr:\n{stderr}",
                code.map_or_else(|| "signal".to_string(), |c| format!("code {c}"))
            ),
            Self::MissingResult { job } => {
                write!(f, "sweep job `{job}`: child succeeded but emitted no {RESULT_MARKER}line")
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Child side of the protocol: print one result payload for the parent to
/// merge. Call at most once; the parent keeps the **last** marked line, so
/// a late correction wins.
pub fn emit_result(payload: &str) {
    println!("{RESULT_MARKER}{payload}");
}

/// Extract the payload of the last `SWEEP_RESULT` line in `stdout`.
pub fn parse_result(stdout: &str) -> Option<String> {
    stdout.lines().rev().find_map(|l| l.strip_prefix(RESULT_MARKER)).map(str::to_string)
}

/// Parent side: spawn every job as a child of `program`, then collect in
/// job order. All children are spawned before any is waited on, so jobs
/// overlap; results and errors are nevertheless deterministic in job
/// order (the first failing job in order is reported).
pub fn run_sweep(program: &Path, jobs: &[SweepJob]) -> Result<Vec<SweepRun>, SweepError> {
    let mut children = Vec::with_capacity(jobs.len());
    for job in jobs {
        let mut cmd = Command::new(program);
        cmd.args(&job.args).stdout(Stdio::piped()).stderr(Stdio::piped());
        match cmd.spawn() {
            Ok(child) => children.push(child),
            Err(e) => {
                // Reap the already-spawned children before reporting, so a
                // mid-sweep spawn failure never leaks processes.
                for mut c in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(SweepError::Spawn { job: job.name.clone(), message: e.to_string() });
            }
        }
    }
    let mut runs = Vec::with_capacity(jobs.len());
    let mut first_err: Option<SweepError> = None;
    for (job, child) in jobs.iter().zip(children) {
        let out = match child.wait_with_output() {
            Ok(out) => out,
            Err(e) => {
                first_err.get_or_insert(SweepError::Spawn {
                    job: job.name.clone(),
                    message: e.to_string(),
                });
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        // Forward child logs (everything except protocol lines) so sweep
        // progress is visible at the parent.
        for line in stdout.lines().filter(|l| !l.starts_with(RESULT_MARKER)) {
            println!("[sweep:{}] {line}", job.name);
        }
        if !out.status.success() {
            first_err.get_or_insert(SweepError::Child {
                job: job.name.clone(),
                code: out.status.code(),
                stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
            });
            continue;
        }
        match parse_result(&stdout) {
            Some(payload) => runs.push(SweepRun { name: job.name.clone(), payload }),
            None => {
                first_err.get_or_insert(SweepError::MissingResult { job: job.name.clone() });
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(runs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_takes_the_last_marked_line() {
        let out = "log line\nSWEEP_RESULT first\nmore logs\nSWEEP_RESULT second\n";
        assert_eq!(parse_result(out).as_deref(), Some("second"));
        assert_eq!(parse_result("no markers here\n"), None);
    }

    #[test]
    fn job_builder_collects_args() {
        let job = SweepJob::new("j", ["--flag", "3"]);
        assert_eq!(job.args, vec!["--flag".to_string(), "3".to_string()]);
    }
}
