//! Ranking metrics for similarity search (§IV-C3): Mean Rank, Hit Ratio@k,
//! and Precision for the k-nearest search task.
//!
//! Every scan ranks by the shared squared-distance kernel
//! [`start_ann::dist2`] and selects through [`start_ann::TopK`], so the
//! evaluation and the served index order neighbours, ties included, alike.

use start_ann::{dist2, TopK};

/// Rank (1-based) of the ground-truth item for each query, given embedding
/// vectors and Euclidean distance: rank 1 means the truth is the nearest
/// database entry.
pub fn truth_ranks(
    query_embs: &[Vec<f32>],
    db_embs: &[Vec<f32>],
    truth: impl Fn(usize) -> usize,
) -> Vec<usize> {
    query_embs
        .iter()
        .enumerate()
        .map(|(q, qe)| {
            let t = truth(q);
            let td = dist2(qe, &db_embs[t]);
            // Count database entries strictly closer than the truth.
            let closer =
                db_embs.iter().enumerate().filter(|(i, e)| *i != t && dist2(qe, e) < td).count();
            closer + 1
        })
        .collect()
}

/// Mean rank (MR), lower is better.
pub fn mean_rank(ranks: &[usize]) -> f32 {
    assert!(!ranks.is_empty());
    ranks.iter().sum::<usize>() as f32 / ranks.len() as f32
}

/// Hit ratio @ k: fraction of queries whose truth ranks within the top k.
pub fn hit_ratio(ranks: &[usize], k: usize) -> f32 {
    assert!(!ranks.is_empty());
    ranks.iter().filter(|&&r| r <= k).count() as f32 / ranks.len() as f32
}

/// Indexes of the k nearest database entries for one query embedding,
/// closest first; equal distances rank by the smaller index.
pub fn knn_indices(query: &[f32], db_embs: &[Vec<f32>], k: usize) -> Vec<usize> {
    let mut top = TopK::new(k);
    for (i, e) in db_embs.iter().enumerate() {
        top.push(i as u64, dist2(query, e));
    }
    top.into_sorted().into_iter().map(|n| n.id as usize).collect()
}

/// Precision of the k-nearest search task (§IV-D4b): overlap between the
/// k-NN sets retrieved for the original and the transformed queries.
pub fn knn_precision(
    original_query_embs: &[Vec<f32>],
    transformed_query_embs: &[Vec<f32>],
    db_embs: &[Vec<f32>],
    k: usize,
) -> f32 {
    assert_eq!(original_query_embs.len(), transformed_query_embs.len());
    assert!(!original_query_embs.is_empty());
    let mut total = 0.0;
    for (orig, trans) in original_query_embs.iter().zip(transformed_query_embs) {
        let truth_set = knn_indices(orig, db_embs, k);
        let found = knn_indices(trans, db_embs, k);
        let overlap = found.iter().filter(|i| truth_set.contains(i)).count();
        total += overlap as f32 / k as f32;
    }
    total / original_query_embs.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_one_when_truth_is_identical() {
        let queries = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let db = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![5.0, 5.0]];
        let ranks = truth_ranks(&queries, &db, |q| q);
        assert_eq!(ranks, vec![1, 1]);
        assert_eq!(mean_rank(&ranks), 1.0);
        assert_eq!(hit_ratio(&ranks, 1), 1.0);
    }

    #[test]
    fn rank_counts_closer_entries() {
        let queries = vec![vec![0.0]];
        // db[0] is the truth but db[1] and db[2] are closer to the query.
        let db = vec![vec![3.0], vec![1.0], vec![2.0], vec![10.0]];
        let ranks = truth_ranks(&queries, &db, |_| 0);
        assert_eq!(ranks, vec![3]);
        assert_eq!(hit_ratio(&ranks, 1), 0.0);
        assert_eq!(hit_ratio(&ranks, 3), 1.0);
    }

    #[test]
    fn knn_precision_is_one_for_identical_queries() {
        let db: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32]).collect();
        let q = vec![vec![2.2], vec![7.9]];
        assert_eq!(knn_precision(&q, &q, &db, 3), 1.0);
    }

    #[test]
    fn knn_precision_degrades_with_perturbation() {
        let db: Vec<Vec<f32>> = (0..100).map(|i| vec![i as f32]).collect();
        let orig = vec![vec![10.0], vec![50.0]];
        let near = vec![vec![11.0], vec![51.0]];
        let far = vec![vec![90.0], vec![5.0]];
        let p_near = knn_precision(&orig, &near, &db, 5);
        let p_far = knn_precision(&orig, &far, &db, 5);
        assert!(p_near > p_far);
        assert_eq!(p_far, 0.0);
    }
}
