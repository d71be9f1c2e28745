//! AdamW optimizer (decoupled weight decay) — the paper trains with AdamW
//! \[16\] at lr 2e-4, warm-up + cosine annealing (see [`crate::schedule`]).

use crate::array::Array;
use crate::params::{GradStore, ParamStore};

/// Hyper-parameters for [`AdamW`].
#[derive(Debug, Clone, Copy)]
pub struct AdamWConfig {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub weight_decay: f32,
}

impl Default for AdamWConfig {
    fn default() -> Self {
        Self { lr: 2e-4, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.01 }
    }
}

/// Decoupled-weight-decay Adam. Keeps first/second moment estimates aligned
/// with the [`ParamStore`] by parameter index.
pub struct AdamW {
    cfg: AdamWConfig,
    m: Vec<Array>,
    v: Vec<Array>,
    step: u64,
}

impl AdamW {
    pub fn new(store: &ParamStore, cfg: AdamWConfig) -> Self {
        let m = store
            .ids()
            .map(|id| Array::zeros(store.get(id).rows(), store.get(id).cols()))
            .collect();
        let v = store
            .ids()
            .map(|id| Array::zeros(store.get(id).rows(), store.get(id).cols()))
            .collect();
        Self { cfg, m, v, step: 0 }
    }

    pub fn config(&self) -> AdamWConfig {
        self.cfg
    }

    pub fn steps_taken(&self) -> u64 {
        self.step
    }

    /// Apply one update with the given learning rate (from the scheduler),
    /// then the caller clears `grads`.
    pub fn step(&mut self, store: &mut ParamStore, grads: &GradStore, lr: f32) {
        self.step += 1;
        let t = self.step as f32;
        let bc1 = 1.0 - self.cfg.beta1.powf(t);
        let bc2 = 1.0 - self.cfg.beta2.powf(t);
        for id in store.ids().collect::<Vec<_>>() {
            let Some(grad) = grads.get(id) else { continue };
            let i = id.index();
            let decay = if store.no_decay(id) { 0.0 } else { self.cfg.weight_decay };
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            let param = store.get_mut(id);
            let (b1, b2, eps) = (self.cfg.beta1, self.cfg.beta2, self.cfg.eps);
            for (((p, g), mi), vi) in
                param.data_mut().iter_mut().zip(grad.data()).zip(m.data_mut()).zip(v.data_mut())
            {
                *mi = b1 * *mi + (1.0 - b1) * g;
                *vi = b2 * *vi + (1.0 - b2) * g * g;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                // Decoupled weight decay, applied directly to the parameter.
                *p -= lr * (m_hat / (v_hat.sqrt() + eps) + decay * *p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::params::{GradStore, Init, ParamStore};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Minimizing `(w - 3)^2` must converge to w = 3.
    #[test]
    fn converges_on_quadratic() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let w = store.param("w", 1, 1, Init::Zeros, &mut rng);
        let mut opt =
            AdamW::new(&store, AdamWConfig { lr: 0.1, weight_decay: 0.0, ..Default::default() });
        for _ in 0..300 {
            let mut grads = GradStore::new(&store);
            let g = &mut Graph::new(&store, true);
            let wn = g.param(w);
            let loss = g.mse_loss(wn, Array::scalar(3.0));
            g.backward(loss, &mut grads);
            opt.step(&mut store, &grads, 0.1);
        }
        assert!((store.get(w).item() - 3.0).abs() < 1e-2, "w = {}", store.get(w).item());
    }

    /// Weight decay pulls an unused parameter toward zero.
    #[test]
    fn weight_decay_shrinks_params() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let w = store.param("w", 2, 2, Init::Ones, &mut rng);
        let mut opt = AdamW::new(&store, AdamWConfig { weight_decay: 0.5, ..Default::default() });
        let mut grads = GradStore::new(&store);
        grads.accumulate(w, &Array::zeros(2, 2));
        for _ in 0..50 {
            opt.step(&mut store, &grads, 0.1);
        }
        assert!(store.get(w).data().iter().all(|v| *v < 1.0));
    }
}
