//! Seeded inputs and the set-up every workload starts from: generate data,
//! fit DeepMVI with the paper-default hyper-parameters, build and warm the
//! serving engines, and ingest the newest steps through `append`.

use crate::stats::ms;
use deepmvi::{DeepMviConfig, DeepMviModel, TrainReport};
use mvi_data::dataset::{Dataset, ObservedDataset};
use mvi_data::generators::{generate_with_shape, DatasetName};
use mvi_data::scenarios::Scenario;
use mvi_serve::{EngineOptions, ImputationEngine, ServeSnapshot};
use mvi_tensor::{Mask, Tensor};
use std::sync::Arc;
use std::time::Instant;

/// Series per serving tenant (one categorical dimension).
pub const SERVE_SERIES: usize = 8;
/// Trained length of the serving datasets: 64 windows of w = 10, so the
/// attention context is the paper's full 64 windows.
pub const SERVE_T: usize = 640;
/// Training-step budget of the serving models.
pub const SERVE_STEPS: usize = 40;
/// Stores × SKUs of the offline JanataHack dataset.
pub const OFFLINE_DIMS: [usize; 2] = [6, 28];
/// Weeks the offline model is fitted on.
pub const OFFLINE_T: usize = 124;
/// Training-step budget of the offline model.
pub const OFFLINE_STEPS: usize = 100;
/// Length of the offline Blackout block (weeks).
pub const BLACKOUT: usize = 20;
/// Newest steps of every serving series that arrive through `append` during
/// set-up.
pub const INGEST: usize = 10;
/// Newest weeks of every offline series that arrive through `append`.
pub const OFFLINE_INGEST: usize = 1;

/// SplitMix64: a tiny seeded generator for request traces.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derives a per-purpose seed from the workload seed.
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    Rng::new(seed.wrapping_mul(0x1000_0000_01B3) ^ purpose).next_u64()
}

/// The paper-default configuration (§4.3: p = 32, 4 heads, 64 context
/// windows, w = 10) with a fixed step budget. Early stopping cannot fire
/// inside these budgets, so every fit runs exactly `steps` steps.
pub fn paper_config(steps: usize, seed: u64) -> DeepMviConfig {
    DeepMviConfig {
        max_steps: steps,
        window: Some(10),
        threads: mvi_parallel::current_threads(),
        seed,
        ..DeepMviConfig::default()
    }
}

/// A fitted model with its report and fit time in seconds.
pub fn fit(cfg: &DeepMviConfig, obs: &ObservedDataset) -> (DeepMviModel, TrainReport, f64) {
    let mut model = DeepMviModel::new(cfg, obs);
    let t0 = Instant::now();
    let report = model.fit(obs);
    (model, report, t0.elapsed().as_secs_f64())
}

/// One serving tenant.
pub struct Tenant {
    /// Tenant id.
    pub name: String,
    /// The engine handed to the registry.
    pub engine: Arc<ImputationEngine>,
    /// Observed data at the trained length (before ingest).
    pub obs: ObservedDataset,
    /// Ground truth, trained length plus every future step.
    pub truth: Tensor,
    /// Hidden entries of the trained span.
    pub missing: Mask,
}

/// What one set-up produced and what its phases cost.
pub struct Setup {
    /// Tenants, in id order.
    pub tenants: Vec<Tenant>,
    /// The fit's report.
    pub report: TrainReport,
    /// Fit time (s).
    pub fit_s: f64,
    /// Cold batch imputation time (s): warming every engine.
    pub impute_s: f64,
    /// Per-append latency of the set-up ingest (ms).
    pub ingest_ms: Vec<f64>,
    /// Mean absolute error over the hidden entries of the trained span.
    pub mae: f64,
    /// Whole set-up (s).
    pub total_s: f64,
    /// The configuration fitted.
    pub cfg: DeepMviConfig,
}

/// Shape of a serving set-up.
pub struct ServeShape {
    /// Tenant count.
    pub tenants: usize,
    /// Future steps of ground truth generated past the ingest (stream source).
    pub future: usize,
    /// Retention ring of the engines, if any.
    pub retention: Option<usize>,
}

/// Serving set-up: one fit on tenant 0's data; every tenant restores those
/// weights over its own seeded Electricity-style series (MCAR, paper default
/// 10% in blocks of 10), ingests its newest [`INGEST`] steps and warms its
/// cache.
pub fn serving(seed: u64, shape: &ServeShape) -> Setup {
    let t0 = Instant::now();
    let total_t = SERVE_T + INGEST + shape.future;
    let mut data = Vec::new();
    for k in 0..shape.tenants {
        let tseed = sub_seed(seed, 100 + k as u64);
        let full = generate_with_shape(DatasetName::Electricity, &[SERVE_SERIES], total_t, tseed);
        let trained = Dataset::new("serve", full.dims.clone(), full.values.truncated_time(SERVE_T));
        let inst = Scenario::mcar(1.0).apply(&trained, tseed);
        data.push((full.values, inst.observed(), inst.missing));
    }
    let cfg = paper_config(SERVE_STEPS, sub_seed(seed, 1));
    let (model, report, fit_s) = fit(&cfg, &data[0].1);
    let snapshot = ServeSnapshot::capture(&model, &data[0].1);
    let options = EngineOptions { retention: shape.retention, shards: None };
    let mut tenants = Vec::new();
    let (mut impute_s, mut ingest_ms) = (0.0, Vec::new());
    for (k, (truth, obs, missing)) in data.into_iter().enumerate() {
        let frozen = snapshot.restore(&obs).expect("restore weights over the tenant's data");
        let engine = ImputationEngine::with_options(frozen, obs.clone(), options).expect("engine");
        ingest(&engine, &truth, SERVE_T, INGEST, &mut ingest_ms);
        let w0 = Instant::now();
        engine.warm_up();
        impute_s += w0.elapsed().as_secs_f64();
        tenants.push(Tenant {
            name: format!("tenant-{k}"),
            engine: Arc::new(engine),
            obs,
            truth,
            missing,
        });
    }
    let mae = serving_mae(&tenants);
    Setup {
        tenants,
        report,
        fit_s,
        impute_s,
        ingest_ms,
        mae,
        total_s: t0.elapsed().as_secs_f64(),
        cfg,
    }
}

/// Appends steps `[from, from + steps)` of every series, one step per call,
/// timing each call.
fn ingest(
    engine: &ImputationEngine,
    truth: &Tensor,
    from: usize,
    steps: usize,
    out_ms: &mut Vec<f64>,
) {
    for t in from..from + steps {
        for s in 0..truth.shape()[..truth.shape().len() - 1].iter().product() {
            let a0 = Instant::now();
            engine.append(s, &[truth.series(s)[t]]).expect("ingest append");
            out_ms.push(ms(a0.elapsed()));
        }
    }
}

/// MAE of the engines' answers over the hidden entries of the trained span.
fn serving_mae(tenants: &[Tenant]) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for t in tenants {
        for s in 0..t.obs.n_series() {
            let got = t.engine.query(s, 0, SERVE_T).expect("mae query");
            let (truth, hidden) = (t.truth.series(s), t.missing.series(s));
            for i in 0..SERVE_T {
                if hidden[i] {
                    sum += (got[i] - truth[i]).abs();
                    n += 1;
                }
            }
        }
    }
    sum / n as f64
}

/// The offline set-up: generate JanataHack (stores × SKUs × weeks) under
/// Blackout and fit. The engine over the same weights ingests the newest
/// weeks (the online continuation of the offline job).
pub struct Offline {
    /// The common set-up record (one tenant: the ingest engine).
    pub setup: Setup,
    /// The fitted model, for batch imputation.
    pub model: DeepMviModel,
}

/// Builds the offline set-up; `impute_s` and `mae` come from one batch
/// imputation.
pub fn offline(seed: u64) -> Offline {
    let t0 = Instant::now();
    let dseed = sub_seed(seed, 200);
    let full = generate_with_shape(
        DatasetName::JanataHack,
        &OFFLINE_DIMS,
        OFFLINE_T + OFFLINE_INGEST,
        dseed,
    );
    let trained =
        Dataset::new("janatahack", full.dims.clone(), full.values.truncated_time(OFFLINE_T));
    let inst = Scenario::Blackout { block_len: BLACKOUT }.apply(&trained, dseed);
    let obs = inst.observed();
    let cfg = paper_config(OFFLINE_STEPS, sub_seed(seed, 1));
    let (model, report, fit_s) = fit(&cfg, &obs);
    let i0 = Instant::now();
    let imputed = model.impute(&obs);
    let impute_s = i0.elapsed().as_secs_f64();
    let mae = mvi_data::metrics::mae(&inst.truth.values, &imputed, &inst.missing);
    let frozen = ServeSnapshot::capture(&model, &obs).restore(&obs).expect("restore");
    let engine = ImputationEngine::new(frozen, obs.clone()).expect("engine");
    let mut ingest_ms = Vec::new();
    ingest(&engine, &full.values, OFFLINE_T, OFFLINE_INGEST, &mut ingest_ms);
    engine.warm_up();
    let tenant = Tenant {
        name: "tenant-0".into(),
        engine: Arc::new(engine),
        obs,
        truth: full.values,
        missing: inst.missing,
    };
    let setup = Setup {
        tenants: vec![tenant],
        report,
        fit_s,
        impute_s,
        ingest_ms,
        mae,
        total_s: t0.elapsed().as_secs_f64(),
        cfg,
    };
    Offline { setup, model }
}

/// An in-process oracle restored identically from `engine`'s warm snapshot.
pub fn reference(engine: &ImputationEngine) -> Arc<ImputationEngine> {
    Arc::new(ImputationEngine::from_snapshot(&engine.snapshot()).expect("reference restore"))
}
