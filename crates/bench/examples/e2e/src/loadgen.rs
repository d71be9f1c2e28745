//! Load generation and exact order statistics.
//!
//! Open loop: a phase's arrival schedule is computed before the phase
//! starts: a Poisson process at `rate` over a fixed window, drawn as that
//! many sorted uniform arrival times (a Poisson process conditioned on its
//! count), so every seed offers exactly the same load. One submitter
//! thread sends each request at its due time and one collector thread
//! waits on the replies in submission order. Latency runs from the due
//! time, so a stall also charges the requests queued behind it, and the
//! submitter's own lateness is reported as lag.
//!
//! Closed loop: one thread keeps a fixed number of requests outstanding,
//! sending the next as soon as the oldest is answered.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Offsets from the phase start at which requests fall due, ascending.
pub fn poisson_schedule(rate_per_s: f64, window: Duration, seed: u64) -> Vec<Duration> {
    let secs = window.as_secs_f64();
    let n = (rate_per_s * secs).round() as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * secs).collect();
    at.sort_by(f64::total_cmp);
    at.into_iter().map(Duration::from_secs_f64).collect()
}

/// Nearest-rank percentile of an ascending sample: the value at rank
/// `ceil(p/100 * n)`, clamped to `1..=n`. `0.0` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A sample sorted ascending, for [`percentile`].
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// What happened to one scheduled request, as offsets from the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    pub ok: bool,
}

impl Arrival {
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    pub fn lag(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Run one open-loop phase. `submit(i)` is called on the submitter thread
/// when request `i` falls due and returns its reply handle; `wait(i, h)`
/// is called on the collector thread, in submission order, and reports
/// whether the reply was a success. Returns one [`Arrival`] per request.
pub fn run_open_loop<H, S, W>(schedule: &[Duration], mut submit: S, mut wait: W) -> Vec<Arrival>
where
    H: Send,
    S: FnMut(usize) -> H + Send,
    W: FnMut(usize, H) -> bool + Send,
{
    let (tx, rx) = mpsc::channel::<(usize, Duration, H)>();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let submitter = scope.spawn(move || {
            for (i, &due) in schedule.iter().enumerate() {
                let now = start.elapsed();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = start.elapsed();
                let handle = submit(i);
                if tx.send((i, sent, handle)).is_err() {
                    break;
                }
            }
        });
        let collector = scope.spawn(move || {
            let mut out = Vec::with_capacity(schedule.len());
            for (i, sent, handle) in rx {
                let ok = wait(i, handle);
                out.push(Arrival { due: schedule[i], sent, done: start.elapsed(), ok });
            }
            out
        });
        submitter.join().expect("submitter thread panicked");
        collector.join().expect("collector thread panicked")
    })
}

/// Run `n` requests in a closed loop from this thread, `window` of them
/// outstanding: submit the first `window`, then each time the oldest is
/// answered, submit the next. `submit` and `wait` are as in
/// [`run_open_loop`]; a request falls due when it is sent, so lag is 0.
pub fn run_closed_loop<H, S, W>(n: usize, window: usize, mut submit: S, mut wait: W) -> Vec<Arrival>
where
    S: FnMut(usize) -> H,
    W: FnMut(usize, H) -> bool,
{
    let start = Instant::now();
    let mut out = Vec::with_capacity(n);
    let mut pending = VecDeque::with_capacity(window);
    let mut next = 0;
    while out.len() < n {
        while next < n && pending.len() < window.max(1) {
            let sent = start.elapsed();
            pending.push_back((next, sent, submit(next)));
            next += 1;
        }
        let (i, sent, handle) = pending.pop_front().expect("a request is outstanding");
        let ok = wait(i, handle);
        out.push(Arrival { due: sent, sent, done: start.elapsed(), ok });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_schedule() {
        let a = poisson_schedule(2000.0, Duration::from_secs(2), 9);
        let b = poisson_schedule(2000.0, Duration::from_secs(2), 9);
        let c = poisson_schedule(2000.0, Duration::from_secs(2), 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn the_achieved_rate_is_within_one_percent_over_10k_arrivals() {
        for seed in 0..5 {
            let rate = 48.0;
            let s = poisson_schedule(rate, Duration::from_secs_f64(10_000.0 / rate), seed);
            assert_eq!(s.len(), 10_000);
            let span = (s[s.len() - 1] - s[0]).as_secs_f64();
            let achieved = (s.len() - 1) as f64 / span;
            assert!((achieved / rate - 1.0).abs() < 0.01, "seed {seed}: {achieved} req/s");
            // Exponential gaps: the median gap is ln 2 / rate.
            let gaps = sorted(s.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect());
            let median = percentile(&gaps, 50.0) * rate;
            assert!((median - std::f64::consts::LN_2).abs() < 0.05, "seed {seed}: {median}");
        }
    }

    #[test]
    fn percentiles_use_the_nearest_rank_rule() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 99.0), 99.0);
    }

    #[test]
    fn the_collector_sees_every_request_in_order() {
        let schedule = poisson_schedule(5000.0, Duration::from_millis(20), 1);
        let arrivals = run_open_loop(&schedule, |i| i * 2, |i, h| h == i * 2);
        assert_eq!(arrivals.len(), schedule.len());
        assert!(arrivals.iter().all(|a| a.ok && a.sent >= a.due && a.done >= a.sent));
    }

    #[test]
    fn the_closed_loop_keeps_the_window_outstanding() {
        let outstanding = std::cell::Cell::new(0usize);
        let peak = std::cell::Cell::new(0usize);
        let submit = |i: usize| {
            outstanding.set(outstanding.get() + 1);
            peak.set(peak.get().max(outstanding.get()));
            i * 2
        };
        let wait = |i: usize, h: usize| {
            outstanding.set(outstanding.get() - 1);
            h == i * 2
        };
        let arrivals = run_closed_loop(100, 8, submit, wait);
        assert_eq!(arrivals.len(), 100);
        assert_eq!(peak.get(), 8);
        assert!(arrivals.iter().all(|a| a.ok && a.lag() == Duration::ZERO && a.done >= a.sent));
    }
}
