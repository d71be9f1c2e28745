//! Named trainable parameters.
//!
//! A [`ParamStore`] owns every weight of a model. Layers allocate parameters
//! at construction time and keep the returned [`ParamId`]s; each training
//! step binds them into a fresh [`crate::graph::Graph`] with
//! [`crate::graph::Graph::param`]. Gradients live in a parallel
//! [`GradStore`] so the store itself can be shared immutably across
//! inference threads.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::Rng;

use crate::array::Array;

/// Handle to one tensor inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Raw index, used by optimizers to align their state vectors.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Weight initialization schemes.
#[derive(Debug, Clone, Copy)]
pub enum Init {
    /// All zeros (biases, layer-norm beta).
    Zeros,
    /// All ones (layer-norm gamma).
    Ones,
    /// Uniform in `[-limit, limit]` with `limit = sqrt(6 / (fan_in + fan_out))`.
    XavierUniform,
    /// Normal with the given standard deviation.
    Normal(f32),
    /// Uniform in `[-bound, bound]`.
    Uniform(f32),
}

struct Entry {
    name: String,
    value: Array,
    /// Parameters excluded from weight decay (biases, norms, embeddings).
    no_decay: bool,
}

/// Owns all trainable tensors of a model, addressable by name or id.
#[derive(Default)]
pub struct ParamStore {
    entries: Vec<Entry>,
    index: HashMap<String, ParamId>,
}

impl ParamStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a fresh parameter. Panics if `name` is already taken.
    pub fn param(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        init: Init,
        rng: &mut StdRng,
    ) -> ParamId {
        let name = name.into();
        assert!(!self.index.contains_key(&name), "duplicate parameter name {name:?}");
        let value = init_array(rows, cols, init, rng);
        let no_decay = rows == 1 || cols == 1;
        let id = ParamId(self.entries.len());
        self.index.insert(name.clone(), id);
        self.entries.push(Entry { name, value, no_decay });
        id
    }

    /// Mark a parameter (e.g. an embedding table) as exempt from weight decay.
    pub fn set_no_decay(&mut self, id: ParamId) {
        self.entries[id.0].no_decay = true;
    }

    pub fn no_decay(&self, id: ParamId) -> bool {
        self.entries[id.0].no_decay
    }

    pub fn get(&self, id: ParamId) -> &Array {
        &self.entries[id.0].value
    }

    pub fn get_mut(&mut self, id: ParamId) -> &mut Array {
        &mut self.entries[id.0].value
    }

    pub fn lookup(&self, name: &str) -> Option<ParamId> {
        self.index.get(name).copied()
    }

    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar weights.
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.entries.len()).map(ParamId)
    }

    /// Iterate `(name, value)` pairs in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Array)> {
        self.entries.iter().map(|e| (e.name.as_str(), &e.value))
    }

    /// Copy values from another store where names and shapes match.
    /// Returns the number of tensors copied. Used for cross-city transfer
    /// (Table III), where road-count-dependent tensors are left untouched.
    pub fn load_matching(&mut self, source: &ParamStore) -> usize {
        let mut copied = 0;
        for entry in &mut self.entries {
            if let Some(src) = source.lookup(&entry.name) {
                let sv = source.get(src);
                if sv.shape() == entry.value.shape() {
                    entry.value = sv.clone();
                    copied += 1;
                }
            }
        }
        copied
    }
}

fn init_array(rows: usize, cols: usize, init: Init, rng: &mut StdRng) -> Array {
    match init {
        Init::Zeros => Array::zeros(rows, cols),
        Init::Ones => Array::full(rows, cols, 1.0),
        Init::XavierUniform => {
            let limit = (6.0 / (rows + cols) as f32).sqrt();
            Array::from_fn(rows, cols, |_, _| rng.gen_range(-limit..=limit))
        }
        Init::Normal(std) => {
            Array::from_fn(rows, cols, |_, _| {
                // Box-Muller transform; `rand` distributions stay out of the
                // public dependency surface this way.
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                std * (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
            })
        }
        Init::Uniform(bound) => Array::from_fn(rows, cols, |_, _| rng.gen_range(-bound..=bound)),
    }
}

/// Per-parameter gradient buffers aligned with a [`ParamStore`].
pub struct GradStore {
    grads: Vec<Option<Array>>,
}

impl GradStore {
    pub fn new(store: &ParamStore) -> Self {
        Self { grads: vec![None; store.len()] }
    }

    /// Accumulate `delta` into the gradient of `id`.
    pub fn accumulate(&mut self, id: ParamId, delta: &Array) {
        match &mut self.grads[id.0] {
            Some(g) => g.add_assign(delta),
            slot @ None => *slot = Some(delta.clone()),
        }
    }

    pub fn get(&self, id: ParamId) -> Option<&Array> {
        self.grads[id.0].as_ref()
    }

    /// Element-wise add every gradient of `other` into `self`.
    ///
    /// This is the reduction step of the data-parallel
    /// [`crate::train::BatchTrainer`]: each worker accumulates into a private
    /// `GradStore` and the engine merges them in worker order, so the result
    /// is deterministic for a fixed worker count. Both stores must have been
    /// created from the same [`ParamStore`].
    pub fn merge(&mut self, other: &GradStore) {
        assert_eq!(
            self.grads.len(),
            other.grads.len(),
            "cannot merge grad stores of different parameter stores"
        );
        for (dst, src) in self.grads.iter_mut().zip(&other.grads) {
            if let Some(src) = src {
                match dst {
                    Some(d) => d.add_assign(src),
                    slot @ None => *slot = Some(src.clone()),
                }
            }
        }
    }

    /// Multiply every gradient by `factor` (shard weighting before a merge).
    pub fn scale(&mut self, factor: f32) {
        for g in self.grads.iter_mut().flatten() {
            g.scale_assign(factor);
        }
    }

    /// Reset all gradients to `None` (cheaper than zeroing).
    pub fn clear(&mut self) {
        for g in &mut self.grads {
            *g = None;
        }
    }

    /// Global L2 norm over all gradients, used for clipping.
    pub fn global_norm(&self) -> f32 {
        self.grads
            .iter()
            .flatten()
            .map(|g| g.data().iter().map(|v| v * v).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scale every gradient so the global norm does not exceed `max_norm`.
    pub fn clip_global_norm(&mut self, max_norm: f32) {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for g in self.grads.iter_mut().flatten() {
                g.scale_assign(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn param_allocation_and_lookup() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let w = store.param("enc.w", 4, 3, Init::XavierUniform, &mut rng);
        let b = store.param("enc.b", 1, 3, Init::Zeros, &mut rng);
        assert_eq!(store.lookup("enc.w"), Some(w));
        assert_eq!(store.get(b).data(), &[0.0; 3]);
        assert!(store.no_decay(b));
        assert!(!store.no_decay(w));
        assert_eq!(store.num_scalars(), 15);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_name_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        store.param("w", 2, 2, Init::Zeros, &mut rng);
        store.param("w", 2, 2, Init::Zeros, &mut rng);
    }

    #[test]
    fn xavier_respects_limit() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let w = store.param("w", 100, 50, Init::XavierUniform, &mut rng);
        let limit = (6.0f32 / 150.0).sqrt();
        assert!(store.get(w).data().iter().all(|v| v.abs() <= limit + 1e-6));
    }

    #[test]
    fn grad_clipping_reduces_norm() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let w = store.param("w", 8, 8, Init::Zeros, &mut rng);
        let mut grads = GradStore::new(&store);
        grads.accumulate(w, &Array::full(8, 8, 2.0));
        assert!(grads.global_norm() > 1.0);
        grads.clip_global_norm(1.0);
        assert!((grads.global_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn load_matching_copies_only_shape_matches() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut src = ParamStore::new();
        src.param("a", 2, 2, Init::Normal(1.0), &mut rng);
        src.param("b", 3, 3, Init::Normal(1.0), &mut rng);
        let mut dst = ParamStore::new();
        let a = dst.param("a", 2, 2, Init::Zeros, &mut rng);
        dst.param("b", 4, 3, Init::Zeros, &mut rng); // shape mismatch: skipped
        let copied = dst.load_matching(&src);
        assert_eq!(copied, 1);
        assert_eq!(dst.get(a), src.get(src.lookup("a").unwrap()));
    }
}
