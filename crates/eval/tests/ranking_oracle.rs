//! Oracle for the similarity-search metrics: the bounded `TopK` selection
//! in `knn_indices` and the shared distance kernel in `truth_ranks` must
//! give exactly what the original full-sort scan gave — the same indices in
//! the same order, the same ranks and the same `knn_precision` bits — on
//! data built to be full of exact ties and duplicate rows.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use start_eval::metrics::{knn_indices, knn_precision, truth_ranks};

/// The original kernel: squared distance summed left to right.
fn euclidean_sq(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// The original `knn_indices`: stable full sort of every index by distance.
fn knn_indices_full_sort(query: &[f32], db: &[Vec<f32>], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..db.len()).collect();
    idx.sort_by(|&a, &b| euclidean_sq(query, &db[a]).total_cmp(&euclidean_sq(query, &db[b])));
    idx.truncate(k);
    idx
}

/// The original `truth_ranks`.
fn truth_ranks_reference(queries: &[Vec<f32>], db: &[Vec<f32>], truth: &[usize]) -> Vec<usize> {
    queries
        .iter()
        .zip(truth)
        .map(|(q, &t)| {
            let td = euclidean_sq(q, &db[t]);
            1 + db.iter().enumerate().filter(|(i, e)| *i != t && euclidean_sq(q, e) < td).count()
        })
        .collect()
}

/// The original `knn_precision`, over the full-sort scan.
fn knn_precision_reference(
    orig: &[Vec<f32>],
    trans: &[Vec<f32>],
    db: &[Vec<f32>],
    k: usize,
) -> f32 {
    let mut total = 0.0;
    for (o, t) in orig.iter().zip(trans) {
        let truth_set = knn_indices_full_sort(o, db, k);
        let found = knn_indices_full_sort(t, db, k);
        total += found.iter().filter(|i| truth_set.contains(i)).count() as f32 / k as f32;
    }
    total / orig.len() as f32
}

/// A vector on a coarse half-step grid, so many distances tie exactly.
fn grid_vector(rng: &mut StdRng, dim: usize) -> Vec<f32> {
    (0..dim).map(|_| rng.gen_range(-3i32..=3) as f32 * 0.5).collect()
}

type Rows = Vec<Vec<f32>>;

/// A database with duplicate rows, plus original and transformed queries
/// that often sit on a row.
fn case(rng: &mut StdRng) -> (Rows, Rows, Rows) {
    let dim = rng.gen_range(1usize..=6);
    let n = rng.gen_range(1usize..=40);
    let mut db: Vec<Vec<f32>> = Vec::with_capacity(n);
    for _ in 0..n {
        if !db.is_empty() && rng.gen_bool(0.3) {
            let copy = db[rng.gen_range(0..db.len())].clone();
            db.push(copy);
        } else {
            db.push(grid_vector(rng, dim));
        }
    }
    let queries = rng.gen_range(1usize..=8);
    let mut orig = Vec::with_capacity(queries);
    let mut trans = Vec::with_capacity(queries);
    for _ in 0..queries {
        let q =
            if rng.gen_bool(0.4) { db[rng.gen_range(0..n)].clone() } else { grid_vector(rng, dim) };
        // A transformed query: the original with one component nudged a grid
        // step, or left alone.
        let mut t = q.clone();
        let j = rng.gen_range(0..dim);
        t[j] += rng.gen_range(-1i32..=1) as f32 * 0.5;
        orig.push(q);
        trans.push(t);
    }
    (db, orig, trans)
}

#[test]
fn topk_scan_matches_the_full_sort_scan_on_tied_and_duplicate_rows() {
    let mut rng = StdRng::seed_from_u64(20_240_613);
    let mut tied_cases = 0;
    for _ in 0..500 {
        let (db, orig, trans) = case(&mut rng);
        let n = db.len();
        for q in orig.iter().chain(&trans) {
            for k in 0..=n + 2 {
                assert_eq!(knn_indices(q, &db, k), knn_indices_full_sort(q, &db, k), "k={k}");
            }
            let d: Vec<u32> = db.iter().map(|e| euclidean_sq(q, e).to_bits()).collect();
            tied_cases += usize::from((1..n).any(|i| d[..i].contains(&d[i])));
        }
        let truth: Vec<usize> = (0..orig.len()).map(|_| rng.gen_range(0..n)).collect();
        assert_eq!(
            truth_ranks(&orig, &db, |q| truth[q]),
            truth_ranks_reference(&orig, &db, &truth)
        );
        for k in 1..=n + 1 {
            assert_eq!(
                knn_precision(&orig, &trans, &db, k).to_bits(),
                knn_precision_reference(&orig, &trans, &db, k).to_bits(),
                "k={k}"
            );
        }
    }
    // The generator must actually exercise the tie-break.
    assert!(tied_cases > 500, "only {tied_cases} queries saw an exact distance tie");
}
