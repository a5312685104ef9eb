//! Quality-focused integration tests for DeepMVI: it must actually learn the
//! structures its modules exist for, and the §5.5 ablation ordering must hold on
//! data designed to isolate each module.

use deepmvi_suite::data::dataset::{Dataset, DimSpec};
use deepmvi_suite::data::generators::{generate_with_shape, DatasetName};
use deepmvi_suite::data::imputer::{Imputer, LinearInterpImputer, MeanImputer};
use deepmvi_suite::data::metrics::mae;
use deepmvi_suite::data::scenarios::Scenario;
use deepmvi_suite::deepmvi::{DeepMvi, DeepMviConfig, KernelMode};
use deepmvi_suite::tensor::Tensor;

fn test_cfg() -> DeepMviConfig {
    DeepMviConfig {
        p: 12,
        n_heads: 2,
        embed_dim: 6,
        ctx_windows: 24,
        max_steps: 350,
        batch_size: 10,
        val_instances: 32,
        eval_every: 35,
        patience: 4,
        threads: 2,
        lr: 4e-3,
        ..Default::default()
    }
}

#[test]
fn beats_both_reference_floors_on_seasonal_correlated_data() {
    let ds = generate_with_shape(DatasetName::Chlorine, &[8], 400, 12);
    let inst = Scenario::mcar(1.0).apply(&ds, 21);
    let obs = inst.observed();
    let dm = mae(&ds.values, &DeepMvi::new(test_cfg()).impute(&obs), &inst.missing);
    let mean = mae(&ds.values, &MeanImputer.impute(&obs), &inst.missing);
    let interp = mae(&ds.values, &LinearInterpImputer.impute(&obs), &inst.missing);
    assert!(dm < mean, "deepmvi {dm} vs mean {mean}");
    assert!(dm < interp, "deepmvi {dm} vs interp {interp}");
}

#[test]
fn kernel_regression_carries_purely_cross_series_signal() {
    // Construct data where the within-series signal is useless (independent noise
    // paths) but siblings along dim 0 are near-copies: only KR can impute this.
    let (k1, k2, t_len) = (6usize, 4usize, 240usize);
    let mut base = vec![vec![0.0f64; t_len]; k2];
    let mut state = 0.7f64;
    for item in base.iter_mut() {
        for (tt, v) in item.iter_mut().enumerate() {
            state = 0.95 * state + 0.3 * ((tt * 2654435761 % 1000) as f64 / 1000.0 - 0.5);
            *v = state;
        }
    }
    let values = Tensor::from_fn(&[k1, k2, t_len], |idx| {
        let (s, i, tt) = (idx[0], idx[1], idx[2]);
        base[i][tt] * (0.9 + 0.02 * s as f64)
    });
    let dims = vec![DimSpec::indexed("store", "st", k1), DimSpec::indexed("item", "it", k2)];
    let ds = Dataset::new("xseries", dims, values);
    let inst = Scenario::mcar(1.0).apply(&ds, 5);
    let obs = inst.observed();

    let with_kr = mae(&ds.values, &DeepMvi::new(test_cfg()).impute(&obs), &inst.missing);
    let no_kr = mae(
        &ds.values,
        &DeepMvi::new(DeepMviConfig { kernel_mode: KernelMode::Off, ..test_cfg() }).impute(&obs),
        &inst.missing,
    );
    assert!(
        with_kr < no_kr,
        "KR should dominate on cross-series-only data: with {with_kr} vs without {no_kr}"
    );
    // And the absolute error must be small: siblings are near-identical.
    assert!(with_kr < 0.25, "with_kr {with_kr}");
}

#[test]
fn temporal_transformer_carries_purely_within_series_signal_under_blackout() {
    // Blackout removes all cross-series signal; seasonal structure is the only
    // way out. The full model must beat the no-transformer ablation.
    let ds = generate_with_shape(DatasetName::Chlorine, &[6], 400, 31);
    let inst = Scenario::Blackout { block_len: 30 }.apply(&ds, 8);
    let obs = inst.observed();
    let full = mae(&ds.values, &DeepMvi::new(test_cfg()).impute(&obs), &inst.missing);
    let no_tt = mae(
        &ds.values,
        &DeepMvi::new(DeepMviConfig { use_temporal_transformer: false, ..test_cfg() }).impute(&obs),
        &inst.missing,
    );
    assert!(
        full < no_tt + 0.05,
        "transformer should help under blackout: full {full} vs no-tt {no_tt}"
    );
}

#[test]
fn window_size_auto_switches_on_long_blocks() {
    use deepmvi_suite::deepmvi::DeepMviModel;
    let ds = generate_with_shape(DatasetName::Electricity, &[5], 2000, 3);
    let short = Scenario::mcar(1.0).apply(&ds, 1);
    let long = Scenario::Blackout { block_len: 150 }.apply(&ds, 1);
    let cfg = DeepMviConfig::default();
    assert_eq!(DeepMviModel::new(&cfg, &short.observed()).window(), 10);
    assert_eq!(DeepMviModel::new(&cfg, &long.observed()).window(), 20);
}

#[test]
fn deterministic_given_seed() {
    let ds = generate_with_shape(DatasetName::AirQ, &[4], 150, 4);
    let inst = Scenario::mcar(1.0).apply(&ds, 9);
    let obs = inst.observed();
    let cfg = DeepMviConfig { max_steps: 30, ..test_cfg() };
    let a = DeepMvi::new(cfg.clone()).impute(&obs);
    let b = DeepMvi::new(cfg).impute(&obs);
    assert_eq!(a, b, "same seed must give identical imputations");
}

/// DeepMVI's MAE on a small fixed grid, pinned to values recorded before the
/// transformer's attention was restricted to the target row (an algebraically
/// exact change that may move single values by about one ulp). A kernel or
/// evaluator change that drifts the model's accuracy fails here by name.
#[test]
fn deepmvi_mae_matches_the_recorded_values_on_a_fixed_grid() {
    let grid: [(&str, Dataset, Scenario, u64, f64); 3] = [
        (
            "chlorine/mcar",
            generate_with_shape(DatasetName::Chlorine, &[8], 400, 12),
            Scenario::mcar(1.0),
            21,
            0.12442481279215327,
        ),
        (
            "chlorine/blackout",
            generate_with_shape(DatasetName::Chlorine, &[6], 400, 31),
            Scenario::Blackout { block_len: 30 },
            8,
            0.7611977482691424,
        ),
        (
            "janatahack/mcar",
            generate_with_shape(DatasetName::JanataHack, &[4, 3], 240, 5),
            Scenario::mcar(1.0),
            3,
            0.3822873976067225,
        ),
    ];
    let mut drifted = Vec::new();
    for (name, ds, scenario, seed, recorded) in grid {
        let inst = scenario.apply(&ds, seed);
        let got =
            mae(&ds.values, &DeepMvi::new(test_cfg()).impute(&inst.observed()), &inst.missing);
        let rel = (got - recorded).abs() / recorded.abs();
        println!("{name}: MAE {got:e}, recorded {recorded:e}, rel {rel:.3e}");
        if rel.is_nan() || rel > 1e-6 {
            drifted.push(name);
        }
    }
    assert!(drifted.is_empty(), "DeepMVI MAE drifted past 1e-6 relative on {drifted:?}");
}
