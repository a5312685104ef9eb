//! Validation-driven hyper-parameter search (§4.3).
//!
//! The paper notes that standard hyper-parameter optimization applies to DeepMVI
//! but that the defaults are robust across datasets; "in specific vertical
//! applications, a more extensive tuning ... could be deployed for even larger
//! gains". This module provides that deployment hook: a deterministic grid search
//! scored by the same held-out synthetic-missing validation loss that early
//! stopping uses, so no ground truth is ever consulted.

use crate::config::DeepMviConfig;
use crate::model::DeepMviModel;
use mvi_data::dataset::ObservedDataset;

/// Outcome of evaluating one candidate configuration.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The configuration evaluated.
    pub config: DeepMviConfig,
    /// Best validation MSE its training reached.
    pub val_mse: f64,
    /// Optimizer steps it ran (after early stopping).
    pub steps: usize,
}

/// Result of a grid search: candidates sorted by validation loss, best first.
#[derive(Clone, Debug)]
pub struct TuneReport {
    /// All evaluated candidates, best first.
    pub candidates: Vec<Candidate>,
}

impl TuneReport {
    /// The winning configuration.
    pub fn best(&self) -> &Candidate {
        &self.candidates[0]
    }
}

/// Trains every candidate configuration on `obs` and ranks them by held-out
/// validation MSE. Candidates share the observed data but train independently
/// (each builds its own parameters from its own seed).
///
/// # Panics
/// Panics if `candidates` is empty.
pub fn grid_search(obs: &ObservedDataset, candidates: &[DeepMviConfig]) -> TuneReport {
    assert!(!candidates.is_empty(), "grid_search needs at least one candidate");
    let mut evaluated: Vec<Candidate> = candidates
        .iter()
        .map(|cfg| {
            let mut model = DeepMviModel::new(cfg, obs);
            let report = model.fit(obs);
            Candidate { config: cfg.clone(), val_mse: report.best_val, steps: report.steps }
        })
        .collect();
    rank(&mut evaluated);
    TuneReport { candidates: evaluated }
}

/// Sorts candidates best first by validation MSE; a candidate whose training
/// diverged to a NaN loss ranks last.
fn rank(candidates: &mut [Candidate]) {
    candidates.sort_by(|a, b| crate::cmp_nan_last(a.val_mse, b.val_mse));
}

/// A small default grid around a base configuration: window size and learning rate,
/// the two knobs §4.3 singles out.
pub fn default_grid(base: &DeepMviConfig) -> Vec<DeepMviConfig> {
    let mut grid = Vec::new();
    for window in [Some(10), Some(20)] {
        for lr in [base.lr, base.lr * 3.0] {
            grid.push(DeepMviConfig { window, lr, ..base.clone() });
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvi_data::generators::{generate_with_shape, DatasetName};
    use mvi_data::scenarios::Scenario;

    #[test]
    fn grid_search_ranks_by_validation_loss() {
        let ds = generate_with_shape(DatasetName::Gas, &[5], 200, 4);
        let inst = Scenario::mcar(1.0).apply(&ds, 7);
        let obs = inst.observed();
        let base = DeepMviConfig { max_steps: 25, ..DeepMviConfig::tiny() };
        // An untrained-ish candidate (1 step) must rank below a trained one.
        let candidates = vec![DeepMviConfig { max_steps: 1, ..base.clone() }, base.clone()];
        let report = grid_search(&obs, &candidates);
        assert_eq!(report.candidates.len(), 2);
        assert!(report.candidates[0].val_mse <= report.candidates[1].val_mse);
        assert!(report.best().val_mse.is_finite());
    }

    #[test]
    fn a_nan_validation_loss_ranks_last_without_panicking() {
        let cand = |val_mse| Candidate { config: DeepMviConfig::tiny(), val_mse, steps: 1 };
        // The default NaN of an invalid x86 operation has its sign bit set,
        // which `total_cmp` alone would order first.
        let mut ranked =
            vec![cand(0.5), cand(-f64::NAN), cand(0.1), cand(f64::NAN), cand(f64::INFINITY)];
        rank(&mut ranked);
        let order: Vec<f64> = ranked.iter().map(|c| c.val_mse).collect();
        assert_eq!(&order[..3], &[0.1, 0.5, f64::INFINITY]);
        assert!(order[3..].iter().all(|v| v.is_nan()), "NaN did not sort last: {order:?}");
    }

    #[test]
    fn default_grid_covers_window_and_lr() {
        let base = DeepMviConfig::tiny();
        let grid = default_grid(&base);
        assert_eq!(grid.len(), 4);
        let windows: std::collections::HashSet<_> = grid.iter().map(|c| c.window).collect();
        assert_eq!(windows.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_grid_is_rejected() {
        let ds = generate_with_shape(DatasetName::AirQ, &[4], 150, 1);
        let inst = Scenario::mcar(1.0).apply(&ds, 2);
        grid_search(&inst.observed(), &[]);
    }
}
