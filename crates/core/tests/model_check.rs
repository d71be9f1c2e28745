//! Executable concurrency model for the LRU [`EmbeddingCache`], explored by
//! the `start_sync` model checker. The real cache type runs under the
//! checker (its one `Mutex` is a shim primitive), so every interleaving of
//! concurrent inserts and lookups is checked for deadlock and for snapshot
//! coherence.
//!
//! CI floor: at least 1,000 distinct clean schedules, pinned seeds.

use start_core::{EmbeddingCache, Fingerprint};
use start_sync::model::{check, spawn_named, ModelConfig};
use start_sync::Arc;

const MIN_SCHEDULES: usize = 1_000;

fn cfg() -> ModelConfig {
    ModelConfig { max_schedules: 1_500, random_iters: 200, ..ModelConfig::default() }
}

/// Two threads populate disjoint fingerprints on one cache while a third
/// takes counter snapshots. Whatever the interleaving: every entry lands,
/// every lookup hits, every snapshot mid-run is coherent (taken under the
/// one lock, it never counts a hit on an entry it does not also count) and
/// monotone, and the snapshot is exact after join.
#[test]
fn cache_shard_insert_get_model_is_clean() {
    let report = check(&cfg(), || {
        let cache = Arc::new(EmbeddingCache::new(8, 0));
        let c1 = Arc::clone(&cache);
        let t1 = spawn_named("insert-1", move || {
            c1.insert(Fingerprint(1), vec![1.0]);
            c1.insert(Fingerprint(3), vec![3.0]);
            assert_eq!(c1.get(Fingerprint(1)), Some(vec![1.0]), "own insert must hit");
            assert_eq!(c1.get(Fingerprint(3)), Some(vec![3.0]), "own insert must hit");
        });
        let c2 = Arc::clone(&cache);
        let t2 = spawn_named("insert-2", move || {
            c2.insert(Fingerprint(2), vec![2.0]);
            c2.insert(Fingerprint(4), vec![4.0]);
            assert_eq!(c2.get(Fingerprint(2)), Some(vec![2.0]), "own insert must hit");
            assert_eq!(c2.get(Fingerprint(4)), Some(vec![4.0]), "own insert must hit");
        });
        let c3 = Arc::clone(&cache);
        let t3 = spawn_named("stats", move || {
            let a = c3.stats();
            let b = c3.stats();
            for s in [a, b] {
                assert_eq!((s.misses, s.capacity), (0, 8), "{s:?}");
                assert!(s.hits as usize <= s.entries && s.entries <= 4, "incoherent {s:?}");
            }
            assert!(a.hits <= b.hits && a.entries <= b.entries, "not monotone: {a:?} {b:?}");
        });
        let _ = t1.join();
        let _ = t2.join();
        let _ = t3.join();
        for fp in 1..=4u128 {
            assert_eq!(cache.get(Fingerprint(fp)), Some(vec![fp as f32]));
        }
        assert_eq!(cache.get(Fingerprint(5)), None);
        let stats = cache.stats();
        assert_eq!(stats.entries, 4);
        assert_eq!(stats.hits, 8, "hit tally lost under contention");
        assert_eq!(stats.misses, 1);
    });
    report.assert_clean();
    assert!(
        report.distinct_schedules >= MIN_SCHEDULES,
        "explored only {} schedules",
        report.distinct_schedules
    );
}

/// Racing writers on the SAME fingerprint with a racing reader: last write
/// wins per schedule, but every schedule must end with exactly one entry
/// holding one of the two written values — never a torn mix, never a
/// duplicate — and the reader only ever observes a complete value.
#[test]
fn cache_same_key_write_race_model_is_clean() {
    let report = check(&cfg(), || {
        let cache = Arc::new(EmbeddingCache::new(4, 0));
        let ok = |v: &Option<Vec<f32>>| match v {
            None => true,
            Some(e) => *e == vec![1.0, 1.0] || *e == vec![2.0, 2.0],
        };
        let c1 = Arc::clone(&cache);
        let t1 = spawn_named("writer-a", move || {
            c1.insert(Fingerprint(9), vec![1.0, 1.0]);
            assert!(ok(&c1.get(Fingerprint(9))), "torn read");
            c1.insert(Fingerprint(9), vec![1.0, 1.0]);
        });
        let c2 = Arc::clone(&cache);
        let t2 = spawn_named("writer-b", move || {
            c2.insert(Fingerprint(9), vec![2.0, 2.0]);
            assert!(ok(&c2.get(Fingerprint(9))), "torn read");
            c2.insert(Fingerprint(9), vec![2.0, 2.0]);
        });
        let c3 = Arc::clone(&cache);
        let t3 = spawn_named("reader", move || {
            assert!(ok(&c3.get(Fingerprint(9))), "torn read");
            assert!(ok(&c3.get(Fingerprint(9))), "torn read");
        });
        let _ = t1.join();
        let _ = t2.join();
        let _ = t3.join();
        assert_eq!(cache.len(), 1, "same-key race must not duplicate the entry");
        let got = cache.get(Fingerprint(9));
        assert!(got.is_some() && ok(&got), "torn value escaped the cache lock: {got:?}");
    });
    report.assert_clean();
    assert!(
        report.distinct_schedules >= MIN_SCHEDULES,
        "explored only {} schedules",
        report.distinct_schedules
    );
}
