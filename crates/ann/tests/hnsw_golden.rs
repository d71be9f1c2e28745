//! Bitwise gate on the HNSW index and the brute-force embedding store:
//! FNV-1a hashes of their kNN answers (ids and distance bits), of their
//! stored rows, and their byte counts, pinned.
//!
//! The store is seeded and clustered, and churned the way a serving index
//! is: 10% of ids are overwritten and 5% removed after the build. The same
//! insert sequence must always build the same graph (module docs of
//! `start_ann::hnsw`), so a refactor of the vector arena or of neighbour
//! selection must leave every hash here unchanged.

use start_ann::{Hnsw, HnswConfig, Neighbor, VectorIndex};
use start_serve::EmbeddingStore;

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn answer(&mut self, hits: &[Neighbor]) {
        self.bytes(&(hits.len() as u64).to_le_bytes());
        for n in hits {
            self.bytes(&n.id.to_le_bytes());
            self.bytes(&n.distance.to_bits().to_le_bytes());
        }
    }

    fn row(&mut self, id: u64, v: &[f32]) {
        self.bytes(&id.to_le_bytes());
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }
}

const DIM: usize = 64;
const ROWS: usize = 5_000;
const CENTERS: usize = 64;
const QUERIES: usize = 200;
const K: usize = 10;

struct Rng(u64);

impl Rng {
    /// SplitMix64.
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f32 {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64) as f32
    }

    /// One row of the cluster mixture: a random centre plus small noise.
    fn clustered(&mut self, centers: &[Vec<f32>]) -> Vec<f32> {
        let c = &centers[self.next() as usize % centers.len()];
        c.iter().map(|x| x + 0.25 * (self.unit() - 0.5)).collect()
    }
}

/// Both indexes after the same seeded build-then-churn history, plus the
/// query set.
fn build() -> (Hnsw, EmbeddingStore, Vec<Vec<f32>>) {
    let mut rng = Rng(0x601d_e2a2);
    let centers: Vec<Vec<f32>> =
        (0..CENTERS).map(|_| (0..DIM).map(|_| 2.0 * (rng.unit() - 0.5)).collect()).collect();
    let mut hnsw = Hnsw::new(DIM, HnswConfig::default());
    let mut brute = EmbeddingStore::new(DIM);
    let apply = |id: u64, v: &[f32], hnsw: &mut Hnsw, brute: &mut EmbeddingStore| {
        hnsw.insert(id, v).expect("hnsw insert");
        brute.insert(id, v).expect("brute insert");
    };
    for id in 0..ROWS as u64 {
        let v = rng.clustered(&centers);
        apply(id, &v, &mut hnsw, &mut brute);
    }
    for _ in 0..ROWS / 10 {
        let id = rng.next() % ROWS as u64;
        let v = rng.clustered(&centers);
        apply(id, &v, &mut hnsw, &mut brute);
    }
    let mut removed = 0;
    while removed < ROWS / 20 {
        let id = rng.next() % ROWS as u64;
        let (a, b) = (hnsw.remove(id), brute.remove(id));
        assert_eq!(a, b, "indexes disagree on whether {id} is live");
        removed += a as usize;
    }
    let queries = (0..QUERIES).map(|_| rng.clustered(&centers)).collect();
    (hnsw, brute, queries)
}

fn answers_hash(index: &dyn VectorIndex, queries: &[Vec<f32>]) -> u64 {
    let mut h = Fnv::new();
    for q in queries {
        h.answer(&index.knn(q, K).expect("knn"));
    }
    h.0
}

/// Every live row, in the index's own iteration order, then `get` of every
/// id ever inserted (absent ones hash as a marker).
fn rows_hash(index: &dyn VectorIndex) -> u64 {
    let mut h = Fnv::new();
    index.for_each(&mut |id, v| h.row(id, v));
    for id in 0..ROWS as u64 {
        match index.get(id) {
            Some(v) => h.row(id, &v),
            None => h.bytes(&[0xff]),
        }
    }
    h.0
}

#[test]
fn hnsw_and_brute_force_outputs_are_pinned() {
    let (mut hnsw, brute, queries) = build();
    assert_eq!(hnsw.len(), ROWS - ROWS / 20);
    assert_eq!(brute.len(), hnsw.len());
    let default_ef = answers_hash(&hnsw, &queries);
    // A beam as narrow as k misses some true neighbours, so these answers
    // depend on the links the build chose, not only on the stored rows.
    hnsw.set_ef_search(K);
    let narrow = answers_hash(&hnsw, &queries);
    let got = [
        ("hnsw answers", default_ef),
        ("hnsw answers at ef_search = k", narrow),
        ("brute answers", answers_hash(&brute, &queries)),
        ("hnsw rows", rows_hash(&hnsw)),
        ("brute rows", rows_hash(&brute)),
        ("hnsw memory_bytes", hnsw.memory_bytes() as u64),
        ("brute memory_bytes", brute.memory_bytes() as u64),
    ];
    let want: [u64; 7] = [
        0x3dac_cfdb_a18d_4d59,
        0x20b1_4e90_ec5f_a97b,
        0x3dac_cfdb_a18d_4d59,
        0xbdb7_abb0_0333_cd55,
        0xf37e_26fe_febd_d499,
        1_764_156,
        1_330_000,
    ];
    let wrong: Vec<String> = got
        .iter()
        .zip(want)
        .filter(|((_, g), w)| g != w)
        .map(|((name, g), w)| format!("{name}: got {g:#018x} ({g}), pinned {w:#018x}"))
        .collect();
    assert!(wrong.is_empty(), "HNSW/brute-force output changed:\n{}", wrong.join("\n"));
}
