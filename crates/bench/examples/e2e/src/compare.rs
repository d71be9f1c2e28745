//! `compare`: judge a change against its parent from paired result files.
//!
//! Input is at least ten pairs of `results-<seed>.json` files, parent and
//! change, made alternately with identical settings. For each workload ×
//! end-to-end metric it prints both sides' median and quartiles, the
//! change's win fraction over the pairs (ties count for neither) and a
//! verdict against the bound in `BENCHMARK.json`:
//!
//! - `improved`: the change wins ≥ 9/10 of the pairs and the medians differ
//!   by more than the parent's own quartile spread;
//! - `regressed`: the change's median is worse than the parent's by more
//!   than the bound;
//! - `unresolved`: the parent's quartile spread exceeds the bound and not
//!   every change run beats every parent run;
//! - `unchanged`: otherwise.
//!
//! Runs whose host-drift canary is more than 10% off the median of all
//! runs are listed, since their numbers may reflect the host, not the code,
//! and so are runs whose load generator fell behind its schedule.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::LAG_LIMIT_MS;

const MIN_PAIRS: usize = 10;
const DRIFT_LIMIT: f64 = 0.10;

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// Quartiles as Python's `statistics.quantiles(v, n=4)` (exclusive
/// method) gives them; needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = crate::loadgen::sorted(values.to_vec());
    let (ld, n) = (v.len(), 4usize);
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    [q(1), q(2), q(3)]
}

#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// The verdict for one metric from paired runs.
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let [p1, pm, p3] = quartiles(parent);
    let cm = quartiles(change)[1];
    let wins = parent.iter().zip(change).filter(|(p, c)| better(**c, **p)).count();
    let win_frac = wins as f64 / parent.len() as f64;
    let worse_by = if lower_is_better { (cm - pm) / pm } else { (pm - cm) / pm };
    let spread = (p3 - p1) / pm.abs();
    let all_better = change.iter().all(|c| parent.iter().all(|p| better(*c, *p)));
    if win_frac >= 0.9 && better(cm, pm) && (cm - pm).abs() > (p3 - p1) {
        Verdict::Improved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if spread > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn bounds(doc: &Json) -> Vec<Bound> {
    doc.get("end_to_end")
        .map(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect()
}

/// `workload -> metric -> value` of a result file's untraced runs.
fn untraced(doc: &Json) -> BTreeMap<String, BTreeMap<String, f64>> {
    let mut out = BTreeMap::new();
    for (w, runs) in doc.get("workloads").map(Json::entries).unwrap_or(&[]) {
        let metrics = runs.get("untraced").map(Json::entries).unwrap_or(&[]);
        let m = metrics.iter().filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))).collect();
        out.insert(w.clone(), m);
    }
    out
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let mut bounds_path = "BENCHMARK.json".to_string();
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<String>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bounds" => bounds_path = it.next().ok_or("--bounds needs a path")?.clone(),
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            file => side
                .as_mut()
                .ok_or(format!("{file}: name --parent or --change first"))?
                .push(file.to_string()),
        }
    }
    if parent.len() != change.len() || parent.len() < MIN_PAIRS {
        return Err(format!(
            "need at least {MIN_PAIRS} parent/change pairs, got {} parent and {} change files",
            parent.len(),
            change.len()
        ));
    }
    let bounds = bounds(&load(&bounds_path)?);
    let runs = |files: &[String]| -> Result<Vec<_>, String> {
        files.iter().map(|f| load(f).map(|d| untraced(&d))).collect()
    };
    let (p_runs, c_runs) = (runs(&parent)?, runs(&change)?);

    let workloads: Vec<&String> = p_runs[0].keys().collect();
    println!(
        "{:<14} {:<18} {:>30} {:>30} {:>5} verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut regressed = false;
    for w in &workloads {
        for b in &bounds {
            let pick = |rs: &[BTreeMap<String, BTreeMap<String, f64>>]| -> Option<Vec<f64>> {
                rs.iter().map(|r| r.get(*w)?.get(&b.name).copied()).collect()
            };
            let (Some(p), Some(c)) = (pick(&p_runs), pick(&c_runs)) else {
                println!("{w:<14} {:<18} missing from some result files", b.name);
                continue;
            };
            let v = verdict(&p, &c, b.lower_is_better, b.bound);
            regressed |= v == Verdict::Regressed;
            let better = |x: &f64, y: &f64| if b.lower_is_better { x < y } else { x > y };
            let wins = p.iter().zip(&c).filter(|(p, c)| better(c, p)).count();
            let (pq, cq) = (quartiles(&p), quartiles(&c));
            println!(
                "{w:<14} {:<18} {:>30} {:>30} {:>5} {v:?}",
                b.name,
                format!("{:.4} [{:.4}, {:.4}]", pq[1], pq[0], pq[2]),
                format!("{:.4} [{:.4}, {:.4}]", cq[1], cq[0], cq[2]),
                format!("{wins}/{}", p.len()),
            );
        }
    }

    let mut canary = Vec::new();
    for (side, files, rs) in [("parent", &parent, &p_runs), ("change", &change, &c_runs)] {
        for (f, r) in files.iter().zip(rs) {
            for (w, m) in r {
                if let Some(&c) = m.get("host.canary_ms") {
                    canary.push((side, f, w.clone(), c));
                }
                if let Some(&lag) = m.get("loadgen.lag_p99_ms").filter(|l| **l > LAG_LIMIT_MS) {
                    println!("late generator: {side} {f} {w}: lag p99 {lag:.3} ms");
                }
            }
        }
    }
    let values: Vec<f64> = canary.iter().map(|c| c.3).collect();
    let median = crate::fixture::median(&values);
    for (side, f, w, c) in &canary {
        if (c / median - 1.0).abs() > DRIFT_LIMIT {
            println!("drift: {side} {f} {w}: canary {c:.2} ms vs median {median:.2} ms");
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn verdicts_follow_the_pairing_rules() {
        let parent: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * f64::from(i)).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(verdict(&parent, &faster, true, 0.1), Verdict::Improved);
        assert_eq!(verdict(&parent, &slower, true, 0.1), Verdict::Regressed);
        assert_eq!(verdict(&parent, &same, true, 0.1), Verdict::Unchanged);
        // Higher-is-better flips the reading of the same numbers.
        assert_eq!(verdict(&parent, &faster, false, 0.1), Verdict::Regressed);
        let noisy: Vec<f64> = (0..10).map(|i| if i % 2 == 0 { 5.0 } else { 15.0 }).collect();
        assert_eq!(verdict(&noisy, &noisy, true, 0.1), Verdict::Unresolved);
    }
}
