//! Serving-throughput harness: the online engine versus naive per-request
//! batch imputation, as a machine-readable `BENCH_2.json` artifact.
//!
//! Both arms answer the same request trace (range queries over a trained
//! model, no retraining in either arm — the naive arm is already charitable):
//!
//! * **naive** — each request re-imputes the *full tensor* with the trained
//!   model and slices the requested range out, which is what
//!   `Imputer::impute`-shaped serving does today;
//! * **engine** — requests stream through concurrent [`mvi_serve::BatchClient`]
//!   threads into one [`mvi_serve::MicroBatcher`], which coalesces pending
//!   requests and imputes only stale windows (warm cache after first touch).
//!
//! Reported per arm: requests/sec and p50/p99 per-request latency. The
//! headline `speedup` is naive-to-engine throughput; the acceptance floor for
//! this artifact is 5x (see `PERFORMANCE.md` for methodology details).
//!
//! A third scenario measures **growth**: appends streaming past the trained
//! `t_len` (which used to hard-fail with `AppendOverflow`) into the growable
//! engine, reported as `BENCH_3.json` — append latency percentiles, values/s,
//! windows recomputed, and the tail-query sweep over the grown region.
//!
//! A fourth scenario (`--only=retention`, phase 5 of `scripts/bench.sh`)
//! measures the **retention ring**: a stream 20× the retention window long
//! runs through a bounded engine — the harness asserts resident storage
//! *never* exceeds the ring cap while logical time advances unboundedly —
//! followed by a **warm restart**: the engine snapshots its cache (v4 JSON),
//! a second engine restores from JSON, and the full retained query sweep is
//! answered with **zero forward passes** (asserted via the engine's
//! window-evaluation counter), timed against a cold restart that recomputes.
//! Reported as `BENCH_5.json`.
//!
//! A fifth scenario (`--only=faults`, phase 6 of `scripts/bench.sh`) prices
//! the **fault-tolerance layer** (PR 6): the same request trace as the
//! BENCH_2 engine arm runs through an *unguarded*, a *guarded* (value guard
//! installed) and a *guarded + per-request deadline* engine. The guarded hot
//! path must stay **within 5%** of unguarded throughput (asserted in full
//! mode; reported in `--quick` CI smoke); the deadline arm is reported but
//! not gated — a timed wait per request has an inherent price that is the
//! point of measuring it. A deterministic fault drill follows —
//! quarantined spikes, rejected NaN payloads, injected executor panics,
//! a bit-flipped durable snapshot walked back by `restore_with_fallback` —
//! asserting every injected fault surfaces as a **typed error** and the
//! engine keeps serving. Reported as `BENCH_6.json`.
//!
//! A sixth scenario (`--only=sharded`, phase 7 of `scripts/bench.sh`) measures
//! the **sharded read path** (PR 7): the same warm query trace runs against
//! the engine in its two read postures — `locked` (warm reads disabled, every
//! query through the core mutex: the pre-PR-7 build) and `sharded` (lock-free
//! per-series snapshots) — at 1/2/4/8 concurrent reader threads, reporting
//! aggregate queries/sec per point. A mixed-traffic probe follows: a writer
//! streams appends into series 0 while readers sweep the other series, and
//! the harness *asserts* (in every mode, on every host) that the sharded
//! readers accumulate **zero** core-lock wait — warm reads never block on,
//! nor are blocked by, unrelated appends. The ≥3× aggregate-throughput gate
//! at 8 readers is asserted only when the host actually has ≥8 cores
//! (`host_cores` and `asserted` are recorded in the artifact either way).
//! Reported as `BENCH_7.json`.
//!
//! A seventh scenario (`--only=net`, phase 8 of `scripts/bench.sh`) prices
//! the **network front door** (PR 9): the BENCH_2 engine-arm trace replayed
//! through in-process [`mvi_serve::BatchClient`]s and again through
//! [`mvi_net::NetClient`]s over framed TCP on loopback — sustained req/s and
//! p50/p99 per arm, with the wire overhead reported as their ratio. Two
//! fault drills follow and are *asserted in-harness*, not just reported: a
//! flood over a tiny queue behind a stalled evaluation must shed with the
//! typed `Overloaded` code (and a retrying client must eventually succeed),
//! and a graceful drain under in-flight load must answer **every** accepted
//! request with a reply frame — real values or the typed `Shutdown` code,
//! zero transport-level losses. Reported as `BENCH_8.json`.
//!
//! An eighth scenario (`--only=tenancy`, phase 9 of `scripts/bench.sh`)
//! prices **multi-model tenancy** (PR 10): the shared trace replayed through
//! one front door backed by a [`mvi_serve::ModelRegistry`] holding 1, 4 and
//! 16 tenants (req/s and p50/p99 per arm — the per-tenant micro-batcher
//! routing cost), a **cold-load** arm where a capacity-1 registry alternates
//! two tenants so every request pays a full evict→snapshot→reload cycle, and
//! two drills *asserted in-harness*: a hostile tenant armed to panic its own
//! model and flooding it must leave a victim tenant's replies bitwise
//! identical with a bounded p99, and an unknown tenant must be answered with
//! the typed `UnknownTenant` code on a connection that stays open. Reported
//! as `BENCH_9.json`.
//!
//! All `BENCH_<n>.json` schemas and host-comparability rules are documented
//! in `PERFORMANCE.md`.
//!
//! ```text
//! cargo run -p mvi-bench --release --bin serve_bench -- \
//!     [--threads=N] [--clients=N] [--requests=N] [--out=PATH] \
//!     [--growth-out=PATH] [--retention-out=PATH] [--faults-out=PATH] \
//!     [--sharded-out=PATH] [--net-out=PATH] [--tenancy-out=PATH] \
//!     [--only=retention|faults|sharded|net|tenancy] [--quick]
//! ```

use deepmvi::{DeepMviConfig, DeepMviModel};
use mvi_data::dataset::Dataset;
use mvi_data::generators::{generate_with_shape, DatasetName};
use mvi_data::scenarios::Scenario;
use mvi_serve::{
    BatcherConfig, ImputationEngine, MicroBatcher, ServeError, ServeSnapshot, ValueGuard,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SERIES: usize = 8;
const T: usize = 400;
/// Ground truth extends this far past the trained length — the stream source
/// for the growth scenario.
const GROWTH_MAX: usize = 240;
/// Retention window of the bounded-memory scenario (time steps).
const RETENTION: usize = 150;
/// The long-stream scenario appends this many multiples of the retention
/// window past the trained length (the acceptance floor is 20×).
const RETENTION_STREAM_X: usize = 20;

struct ArmResult {
    name: &'static str,
    requests: usize,
    wall_secs: f64,
    p50_ms: f64,
    p99_ms: f64,
}

impl ArmResult {
    fn rps(&self) -> f64 {
        self.requests as f64 / self.wall_secs
    }
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx]
}

fn summarize(name: &'static str, wall_secs: f64, mut latencies_ms: Vec<f64>) -> ArmResult {
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let result = ArmResult {
        name,
        requests: latencies_ms.len(),
        wall_secs,
        p50_ms: percentile(&latencies_ms, 0.50),
        p99_ms: percentile(&latencies_ms, 0.99),
    };
    eprintln!(
        "{name:>8}: {} requests in {:.3}s = {:>8.1} req/s  (p50 {:.3} ms, p99 {:.3} ms)",
        result.requests,
        wall_secs,
        result.rps(),
        result.p50_ms,
        result.p99_ms
    );
    result
}

/// The shared request trace: range queries cycling over series with varying
/// offsets/lengths, so consecutive requests overlap (the coalescing case) but
/// are not identical.
fn request_trace(n: usize) -> Vec<(usize, usize, usize)> {
    (0..n)
        .map(|i| {
            let s = i % SERIES;
            let lo = (i * 13) % (T - 80);
            let len = 40 + (i * 7) % 40;
            (s, lo, (lo + len).min(T))
        })
        .collect()
}

fn main() {
    let mut out_path = String::from("BENCH_2.json");
    let mut growth_out_path = String::from("BENCH_3.json");
    let mut retention_out_path = String::from("BENCH_5.json");
    let mut faults_out_path = String::from("BENCH_6.json");
    let mut sharded_out_path = String::from("BENCH_7.json");
    let mut net_out_path = String::from("BENCH_8.json");
    let mut tenancy_out_path = String::from("BENCH_9.json");
    let mut only: Option<String> = None;
    let mut quick = false;
    let mut clients = 4usize;
    let mut n_requests = 400usize;
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--threads=") {
            match v.parse::<usize>() {
                Ok(n) if n > 0 => mvi_parallel::configure_threads(n),
                _ => {
                    eprintln!("--threads needs a positive integer, got `{v}`");
                    std::process::exit(2);
                }
            }
        } else if let Some(v) = arg.strip_prefix("--clients=") {
            clients = match v.parse::<usize>() {
                Ok(n) if n > 0 => n,
                _ => {
                    eprintln!("--clients needs a positive integer, got `{v}`");
                    std::process::exit(2);
                }
            };
        } else if let Some(v) = arg.strip_prefix("--requests=") {
            n_requests = match v.parse::<usize>() {
                Ok(n) if n > 0 => n,
                _ => {
                    eprintln!("--requests needs a positive integer, got `{v}`");
                    std::process::exit(2);
                }
            };
        } else if let Some(v) = arg.strip_prefix("--out=") {
            out_path = v.to_string();
        } else if let Some(v) = arg.strip_prefix("--growth-out=") {
            growth_out_path = v.to_string();
        } else if let Some(v) = arg.strip_prefix("--retention-out=") {
            retention_out_path = v.to_string();
        } else if let Some(v) = arg.strip_prefix("--faults-out=") {
            faults_out_path = v.to_string();
        } else if let Some(v) = arg.strip_prefix("--sharded-out=") {
            sharded_out_path = v.to_string();
        } else if let Some(v) = arg.strip_prefix("--net-out=") {
            net_out_path = v.to_string();
        } else if let Some(v) = arg.strip_prefix("--tenancy-out=") {
            tenancy_out_path = v.to_string();
        } else if let Some(v) = arg.strip_prefix("--only=") {
            match v {
                "retention" | "faults" | "sharded" | "net" | "tenancy" => {
                    only = Some(v.to_string())
                }
                _ => {
                    eprintln!(
                        "--only accepts `retention`, `faults`, `sharded`, `net` or `tenancy`, \
                         got `{v}`"
                    );
                    std::process::exit(2);
                }
            }
        } else if arg == "--quick" {
            quick = true;
        } else {
            eprintln!(
                "usage: serve_bench [--threads=N] [--clients=N] [--requests=N] [--out=PATH] \
                 [--growth-out=PATH] [--retention-out=PATH] [--faults-out=PATH] \
                 [--sharded-out=PATH] [--net-out=PATH] [--tenancy-out=PATH] \
                 [--only=retention|faults|sharded|net|tenancy] [--quick]"
            );
            std::process::exit(2);
        }
    }
    if quick {
        n_requests = n_requests.min(40);
    }
    let threads = mvi_parallel::current_threads();
    eprintln!(
        "serve_bench: {SERIES}x{T} dataset, {n_requests} requests, {clients} client threads, \
         {threads} worker threads"
    );

    // One trained model feeds every arm. Ground truth runs past the trained
    // length so the growth scenario has a stream source; training only ever
    // sees the truncated prefix.
    let full = generate_with_shape(DatasetName::Electricity, &[SERIES], T + GROWTH_MAX, 7);
    let ds = Dataset::new("electricity-trained", full.dims.clone(), full.values.truncated_time(T));
    let inst = Scenario::mcar(1.0).apply(&ds, 3);
    let obs = inst.observed();
    let cfg =
        DeepMviConfig { max_steps: if quick { 10 } else { 60 }, threads, ..DeepMviConfig::tiny() };
    let mut model = DeepMviModel::new(&cfg, &obs);
    let t_train = Instant::now();
    model.fit(&obs);
    let train_secs = t_train.elapsed().as_secs_f64();
    eprintln!("trained in {train_secs:.2}s; missing fraction {:.3}", inst.missing_fraction());
    let trace = request_trace(n_requests);

    match only.as_deref() {
        Some("retention") => {
            run_retention_scenario(&model, &obs, quick, threads, &retention_out_path);
            return;
        }
        Some("faults") => {
            run_faults_scenario(
                &model,
                &obs,
                &full.values,
                &trace,
                clients,
                quick,
                threads,
                &faults_out_path,
            );
            return;
        }
        Some("sharded") => {
            run_sharded_scenario(&model, &obs, quick, threads, &sharded_out_path);
            return;
        }
        Some("net") => {
            run_net_scenario(&model, &obs, &trace, clients, quick, threads, &net_out_path);
            return;
        }
        Some("tenancy") => {
            run_tenancy_scenario(&model, &obs, &trace, clients, quick, threads, &tenancy_out_path);
            return;
        }
        _ => {}
    }

    // ---- Arm 1: naive per-request full impute (sequential server loop). ----
    // Charitably few requests: full imputes are slow, so the naive arm runs a
    // slice of the trace and extrapolates nothing — rps is measured directly.
    let naive_n = if quick { 5 } else { 25 };
    let mut naive_lat = Vec::with_capacity(naive_n);
    let t0 = Instant::now();
    for &(s, lo, hi) in trace.iter().take(naive_n) {
        let t = Instant::now();
        let full = model.impute(&obs);
        let _slice = full.series(s)[lo..hi].to_vec();
        naive_lat.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let naive = summarize("naive", t0.elapsed().as_secs_f64(), naive_lat);

    // ---- Arm 2: the online engine behind a micro-batcher. ----
    let frozen = ServeSnapshot::capture(&model, &obs).restore(&obs).expect("restore");
    let engine = Arc::new(ImputationEngine::new(frozen, obs.clone()).expect("engine"));
    let batcher = MicroBatcher::spawn(Arc::clone(&engine), 64);
    let per_client = n_requests.div_ceil(clients);
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        let client = batcher.client();
        let part: Vec<(usize, usize, usize)> =
            trace.iter().skip(c * per_client).take(per_client).copied().collect();
        handles.push(std::thread::spawn(move || {
            let mut lat = Vec::with_capacity(part.len());
            for (s, lo, hi) in part {
                let t = Instant::now();
                client.query(s, lo, hi).expect("engine query");
                lat.push(t.elapsed().as_secs_f64() * 1e3);
            }
            lat
        }));
    }
    let mut engine_lat = Vec::with_capacity(n_requests);
    for h in handles {
        engine_lat.extend(h.join().expect("client thread"));
    }
    let engine_arm = summarize("engine", t0.elapsed().as_secs_f64(), engine_lat);
    let stats = engine.stats();
    eprintln!(
        "engine internals: {} batches for {} requests ({:.1} req/batch), {} window passes, {} \
         cache hits",
        stats.batches,
        stats.requests,
        stats.requests as f64 / stats.batches.max(1) as f64,
        stats.windows_computed,
        stats.window_hits
    );

    let speedup = engine_arm.rps() / naive.rps();
    eprintln!("throughput speedup over naive per-request full impute: {speedup:.1}x");

    let mut json = String::from("{\n  \"bench\": 2,\n");
    let _ = writeln!(
        json,
        "  \"dataset\": {{\"series\": {SERIES}, \"t_len\": {T}, \"missing_fraction\": {:.4}}},",
        inst.missing_fraction()
    );
    let _ = writeln!(
        json,
        "  \"threads_used\": {threads},\n  \"client_threads\": {clients},\n  \"train_secs\": \
         {train_secs:.3},",
    );
    json.push_str("  \"arms\": [\n");
    for (i, arm) in [&naive, &engine_arm].into_iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"requests\": {}, \"wall_secs\": {:.6}, \"rps\": {:.2}, \
             \"p50_ms\": {:.4}, \"p99_ms\": {:.4}}}",
            arm.name,
            arm.requests,
            arm.wall_secs,
            arm.rps(),
            arm.p50_ms,
            arm.p99_ms
        );
        json.push_str(if i == 1 { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"engine\": {{\"batches\": {}, \"windows_computed\": {}, \"window_hits\": {}}},",
        stats.batches, stats.windows_computed, stats.window_hits
    );
    let _ = writeln!(json, "  \"throughput_speedup_vs_naive\": {speedup:.3}");
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write bench json");
    eprintln!("wrote {out_path}");

    // ---- Scenario 3: growth — stream past the trained capacity. ----
    // A fresh warm engine takes fixed-size appends round-robin over the
    // series until every one has grown `growth` steps past the trained
    // length; this exact flow was a hard `AppendOverflow` failure before
    // series storage became growable.
    let growth = if quick { 60 } else { GROWTH_MAX };
    let frozen = ServeSnapshot::capture(&model, &obs).restore(&obs).expect("restore");
    let engine = ImputationEngine::new(frozen, obs.clone()).expect("engine");
    engine.warm_up();
    let base = engine.stats();
    let target = T + growth;
    let chunk = 9usize;
    let mut append_lat = Vec::new();
    let t0 = Instant::now();
    loop {
        let mut all_done = true;
        for s in 0..SERIES {
            let wm = engine.watermark(s).expect("watermark");
            if wm >= target {
                continue;
            }
            all_done = false;
            let end = (wm + chunk).min(target);
            let t = Instant::now();
            engine.append(s, &full.values.series(s)[wm..end]).expect("append past capacity");
            append_lat.push(t.elapsed().as_secs_f64() * 1e3);
        }
        if all_done {
            break;
        }
    }
    let growth_wall = t0.elapsed().as_secs_f64();
    assert_eq!(engine.live_len(), target, "growth scenario must reach its target length");
    let gstats = engine.stats();
    let appends = gstats.appends - base.appends;
    let values = gstats.values_appended - base.values_appended;
    let windows = gstats.windows_computed - base.windows_computed;

    // Tail sweep: queries over the grown region (observed + rolled windows).
    let t0 = Instant::now();
    for s in 0..SERIES {
        engine.query(s, T, target).expect("tail query over the grown region");
    }
    let tail_sweep_ms = t0.elapsed().as_secs_f64() * 1e3;

    append_lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (p50, p99) = (percentile(&append_lat, 0.50), percentile(&append_lat, 0.99));
    eprintln!(
        "growth: {SERIES} series {T} -> {target} in {appends} appends over {growth_wall:.3}s = \
         {:.0} values/s (append p50 {p50:.3} ms, p99 {p99:.3} ms, {windows} window passes; tail \
         sweep {tail_sweep_ms:.2} ms)",
        values as f64 / growth_wall
    );

    let mut gjson = String::from("{\n  \"bench\": 3,\n  \"scenario\": \"append_past_capacity\",\n");
    let _ = writeln!(
        gjson,
        "  \"dataset\": {{\"series\": {SERIES}, \"trained_t_len\": {T}, \"final_live_len\": \
         {target}}},\n  \"threads_used\": {threads},\n  \"chunk\": {chunk},"
    );
    let _ = writeln!(
        gjson,
        "  \"appends\": {appends},\n  \"values_appended\": {values},\n  \
         \"windows_recomputed\": {windows},\n  \"wall_secs\": {growth_wall:.6},"
    );
    let _ = writeln!(
        gjson,
        "  \"appends_per_sec\": {:.2},\n  \"values_per_sec\": {:.2},\n  \"append_p50_ms\": \
         {p50:.4},\n  \"append_p99_ms\": {p99:.4},\n  \"tail_sweep_ms\": {tail_sweep_ms:.4}",
        appends as f64 / growth_wall,
        values as f64 / growth_wall
    );
    gjson.push_str("}\n");
    std::fs::write(&growth_out_path, &gjson).expect("write growth bench json");
    eprintln!("wrote {growth_out_path}");
}

/// Scenario 4 (`BENCH_5.json`): bounded-memory streaming through the
/// retention ring, then a warm restart from a v3 cache snapshot.
///
/// The harness *asserts* the two headline claims rather than merely reporting
/// them: storage capacity never exceeds the ring cap across a stream ≥ 20×
/// the retention window (quick mode shortens the stream but still evicts),
/// and the warm-restarted engine answers the full retained query sweep with
/// zero window evaluations.
fn run_retention_scenario(
    model: &DeepMviModel,
    obs: &mvi_data::dataset::ObservedDataset,
    quick: bool,
    threads: usize,
    out_path: &str,
) {
    let stream_x = if quick { 2 } else { RETENTION_STREAM_X };
    let stream_len = stream_x * RETENTION;
    let target = T + stream_len;
    // A fresh ground-truth horizon long enough to feed the whole stream.
    let full = generate_with_shape(DatasetName::Electricity, &[SERIES], target, 7);

    let frozen = ServeSnapshot::capture(model, obs).restore(obs).expect("restore");
    let engine =
        ImputationEngine::with_retention(frozen, obs.clone(), RETENTION).expect("ring engine");
    let ring_cap = engine.ring_capacity().expect("bounded engine");
    engine.warm_up();
    // One series goes dark at the trained end (a dead sensor): its retained
    // window is pure imputation work forever, so the ring always holds
    // missing entries — the realistic serving shape, and what makes the
    // warm-vs-cold restart comparison non-vacuous.
    let dark = SERIES - 1;
    eprintln!(
        "retention: {SERIES}x{T} trained, retention {RETENTION} (ring cap {ring_cap}), \
         streaming {stream_len} steps ({stream_x}x retention) per series (series {dark} dark)"
    );

    // ---- Long stream: capacity must stay flat while logical time runs. ----
    let chunk = 9usize;
    let mut append_lat = Vec::new();
    let mut max_capacity = engine.storage_capacity();
    let t0 = Instant::now();
    loop {
        let mut all_done = true;
        for s in 0..dark {
            let wm = engine.watermark(s).expect("watermark");
            if wm >= target {
                continue;
            }
            all_done = false;
            let end = (wm + chunk).min(target);
            let t = Instant::now();
            engine.append(s, &full.values.series(s)[wm..end]).expect("append");
            append_lat.push(t.elapsed().as_secs_f64() * 1e3);
            max_capacity = max_capacity.max(engine.storage_capacity());
        }
        if all_done {
            break;
        }
    }
    let stream_wall = t0.elapsed().as_secs_f64();
    assert!(
        max_capacity <= ring_cap,
        "resident storage ({max_capacity}) exceeded the ring cap ({ring_cap})"
    );
    assert_eq!(engine.live_len(), target);
    let stats = engine.stats();
    assert!(stats.evictions > 0, "the long stream must evict");
    let (base, live) = (engine.retained_start(), engine.live_len());
    append_lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (p50, p99) = (percentile(&append_lat, 0.50), percentile(&append_lat, 0.99));
    eprintln!(
        "stream: {} appends ({} values) in {stream_wall:.3}s = {:.0} values/s, p50 {p50:.3} ms \
         p99 {p99:.3} ms; {} evictions ({} steps), storage flat at <= {max_capacity} of cap \
         {ring_cap}, live {live} retained from {base}",
        stats.appends,
        stats.values_appended,
        stats.values_appended as f64 / stream_wall,
        stats.evictions,
        stats.steps_evicted
    );

    // ---- Warm restart: snapshot the healed cache, restore, replay. ----
    for s in 0..SERIES {
        engine.query(s, base, live).expect("healing sweep");
    }
    let t_snap = Instant::now();
    let json = engine.snapshot().to_json();
    let snapshot_secs = t_snap.elapsed().as_secs_f64();
    let snapshot_bytes = json.len();

    let t_restore = Instant::now();
    let snap = ServeSnapshot::from_json(&json).expect("v4 parses");
    let warm = ImputationEngine::from_snapshot(&snap).expect("warm restart");
    let warm_restore_secs = t_restore.elapsed().as_secs_f64();
    let t_sweep = Instant::now();
    for s in 0..SERIES {
        warm.query(s, base, live).expect("warm sweep");
    }
    let warm_sweep_secs = t_sweep.elapsed().as_secs_f64();
    let warm_windows = warm.stats().windows_computed;
    assert_eq!(warm_windows, 0, "warm restart evaluated windows it had cached");

    // ---- Cold restart (the pre-v3 world): model-only restore, recompute. ----
    let t_cold = Instant::now();
    let cold_model = snap.restore(&engine.observed()).expect("model-only restore");
    let cold = ImputationEngine::with_retention(cold_model, engine.observed(), RETENTION)
        .expect("cold engine");
    let cold_restore_secs = t_cold.elapsed().as_secs_f64();
    let cold_base = cold.retained_start();
    let t_cold_sweep = Instant::now();
    for s in 0..SERIES {
        // The cold engine's dataset is the retained span standalone, so its
        // logical time starts at zero.
        cold.query(s, cold_base, cold_base + (live - base)).expect("cold sweep");
    }
    let cold_sweep_secs = t_cold_sweep.elapsed().as_secs_f64();
    let cold_windows = cold.stats().windows_computed;
    assert!(cold_windows > 0, "cold restart must recompute (else the comparison is vacuous)");
    let sweep_speedup = cold_sweep_secs / warm_sweep_secs.max(1e-9);
    eprintln!(
        "warm restart: {snapshot_bytes} B snapshot, restore {warm_restore_secs:.4}s, retained \
         sweep {warm_sweep_secs:.4}s with 0 window passes; cold restart sweep \
         {cold_sweep_secs:.4}s with {cold_windows} passes = {sweep_speedup:.1}x"
    );

    let mut json =
        String::from("{\n  \"bench\": 5,\n  \"scenario\": \"retention_ring_long_stream\",\n");
    let _ = writeln!(
        json,
        "  \"dataset\": {{\"series\": {SERIES}, \"trained_t_len\": {T}, \"retention_len\": \
         {RETENTION}, \"ring_cap\": {ring_cap}, \"stream_multiple_of_retention\": {stream_x}}},\n  \
         \"threads_used\": {threads},\n  \"chunk\": {chunk},"
    );
    let _ = writeln!(
        json,
        "  \"stream\": {{\"final_live_len\": {live}, \"retained_start\": {base}, \"appends\": \
         {}, \"values_appended\": {}, \"evictions\": {}, \"steps_evicted\": {}, \"wall_secs\": \
         {stream_wall:.6}, \"values_per_sec\": {:.2}, \"append_p50_ms\": {p50:.4}, \
         \"append_p99_ms\": {p99:.4}, \"max_storage_capacity\": {max_capacity}, \
         \"storage_within_ring_cap\": true}},",
        stats.appends,
        stats.values_appended,
        stats.evictions,
        stats.steps_evicted,
        stats.values_appended as f64 / stream_wall
    );
    let _ = writeln!(
        json,
        "  \"warm_restart\": {{\"snapshot_bytes\": {snapshot_bytes}, \"snapshot_secs\": \
         {snapshot_secs:.6}, \"restore_secs\": {warm_restore_secs:.6}, \"sweep_secs\": \
         {warm_sweep_secs:.6}, \"windows_computed\": {warm_windows}, \"cold_restore_secs\": \
         {cold_restore_secs:.6}, \"cold_sweep_secs\": {cold_sweep_secs:.6}, \
         \"cold_windows_computed\": {cold_windows}, \"warm_sweep_speedup_vs_cold\": \
         {sweep_speedup:.3}}}"
    );
    json.push_str("}\n");
    std::fs::write(out_path, &json).expect("write retention bench json");
    eprintln!("wrote {out_path}");
}

/// Guard posture of one throughput arm.
#[derive(Clone, Copy)]
enum GuardArm {
    /// No guards: exactly the BENCH_2 engine arm.
    Unguarded,
    /// The always-on guard posture — [`ValueGuard`] installed (with bounds
    /// the trace never trips, so the cost measured is the *check*) plus the
    /// input/output finiteness guards that are never optional. This is the
    /// arm the 5% acceptance bound gates.
    Guarded,
    /// Guards plus a per-request deadline — opt-in, and inherently priced
    /// (a timed wait instead of a plain one per request), so it is reported
    /// as its own arm rather than gated.
    GuardedDeadline,
}

/// Runs the shared trace through a fresh engine + micro-batcher under the
/// given guard posture and returns the timed arm.
fn run_guard_arm(
    name: &'static str,
    snapshot: &ServeSnapshot,
    obs: &mvi_data::dataset::ObservedDataset,
    trace: &[(usize, usize, usize)],
    clients: usize,
    arm: GuardArm,
) -> (ArmResult, Arc<ImputationEngine>) {
    let frozen = snapshot.restore(obs).expect("restore");
    let engine = Arc::new(ImputationEngine::new(frozen, obs.clone()).expect("engine"));
    let deadline = match arm {
        GuardArm::Unguarded => None,
        GuardArm::Guarded => {
            engine.set_value_guard(Some(ValueGuard { abs_max: Some(1e6), max_jump: None }));
            None
        }
        GuardArm::GuardedDeadline => {
            engine.set_value_guard(Some(ValueGuard { abs_max: Some(1e6), max_jump: None }));
            Some(Duration::from_secs(30))
        }
    };
    let config = BatcherConfig { max_batch: 64, queue_cap: 1024, deadline };
    let batcher = MicroBatcher::spawn_with(Arc::clone(&engine), config);
    let per_client = trace.len().div_ceil(clients);
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        let client = batcher.client();
        let part: Vec<(usize, usize, usize)> =
            trace.iter().skip(c * per_client).take(per_client).copied().collect();
        handles.push(std::thread::spawn(move || {
            let mut lat = Vec::with_capacity(part.len());
            for (s, lo, hi) in part {
                let t = Instant::now();
                client.query(s, lo, hi).expect("engine query");
                lat.push(t.elapsed().as_secs_f64() * 1e3);
            }
            lat
        }));
    }
    let mut lat = Vec::with_capacity(trace.len());
    for h in handles {
        lat.extend(h.join().expect("client thread"));
    }
    (summarize(name, t0.elapsed().as_secs_f64(), lat), engine)
}

/// Scenario 5 (`BENCH_6.json`): the price and the proof of the
/// fault-tolerance layer.
///
/// **Price** — the BENCH_2 engine-arm trace replayed through an unguarded,
/// a guarded, and a guarded+deadline engine (best of `reps` runs per arm so
/// the comparison is noise-resistant). In full mode the harness *asserts*
/// the guarded hot path holds ≥ 95% of unguarded throughput — the 5%
/// acceptance bound; `--quick` (the CI smoke) reports the ratio without
/// gating on wall-clock noise. The deadline arm is priced but not gated:
/// its timed wait per request is an opt-in cost.
///
/// **Proof** — a deterministic fault drill on the guarded engine: spiked
/// appends are quarantined to the count, NaN payloads are rejected typed
/// with nothing recorded, panics injected into the executor come back as
/// typed errors with the worker surviving and the engine healing, and a
/// bit-flipped durable snapshot fails typed then restores through
/// `restore_with_fallback`. Every assertion here is exact, not statistical.
#[allow(clippy::too_many_arguments)]
fn run_faults_scenario(
    model: &DeepMviModel,
    obs: &mvi_data::dataset::ObservedDataset,
    full_values: &mvi_tensor::Tensor,
    trace: &[(usize, usize, usize)],
    clients: usize,
    quick: bool,
    threads: usize,
    out_path: &str,
) {
    let snapshot = ServeSnapshot::capture(model, obs);
    // Untimed warmup pass: page in the code and allocator state so the first
    // timed arm is not penalized for going first.
    let _ = run_guard_arm(
        "warmup",
        &snapshot,
        obs,
        &trace[..trace.len().min(32)],
        clients,
        GuardArm::Unguarded,
    );

    // ---- Price: paired arms, best-of-reps, alternating order. ----
    let reps = if quick { 1 } else { 3 };
    let mut best_arms: [Option<ArmResult>; 3] = [None, None, None];
    for _ in 0..reps {
        let round = [
            run_guard_arm("unguarded", &snapshot, obs, trace, clients, GuardArm::Unguarded).0,
            run_guard_arm("guarded", &snapshot, obs, trace, clients, GuardArm::Guarded).0,
            run_guard_arm(
                "guarded_deadline",
                &snapshot,
                obs,
                trace,
                clients,
                GuardArm::GuardedDeadline,
            )
            .0,
        ];
        for (slot, new) in best_arms.iter_mut().zip(round) {
            match slot {
                Some(old) if old.rps() >= new.rps() => {}
                _ => *slot = Some(new),
            }
        }
    }
    let [unguarded, guarded, guarded_deadline] = best_arms.map(Option::unwrap);
    let ratio = guarded.rps() / unguarded.rps();
    let overhead_pct = (1.0 - ratio) * 100.0;
    let deadline_overhead_pct = (1.0 - guarded_deadline.rps() / unguarded.rps()) * 100.0;
    eprintln!(
        "guard overhead: {:.1} vs {:.1} req/s = {overhead_pct:.2}% ({} rep(s), best-of); with \
         per-request deadline: {:.1} req/s = {deadline_overhead_pct:.2}%",
        guarded.rps(),
        unguarded.rps(),
        reps,
        guarded_deadline.rps()
    );
    if !quick {
        assert!(
            ratio >= 0.95,
            "guarded hot path fell outside the 5% acceptance bound: {:.1} vs {:.1} req/s \
             ({overhead_pct:.2}% overhead)",
            guarded.rps(),
            unguarded.rps()
        );
    }

    // ---- Proof: deterministic fault drill on a guarded engine. ----
    let frozen = snapshot.restore(obs).expect("restore");
    let engine = Arc::new(ImputationEngine::new(frozen, obs.clone()).expect("engine"));
    engine.set_value_guard(Some(ValueGuard { abs_max: Some(1e6), max_jump: None }));
    engine.warm_up();

    // Quarantine drill: real stream values with every 8th replaced by an
    // absurd spike; the guard must drop exactly the spikes, nothing else.
    let drill_len = 64usize;
    let mut spikes_injected = 0usize;
    let t0 = Instant::now();
    for s in 0..SERIES {
        let wm = engine.watermark(s).expect("watermark");
        let mut payload = full_values.series(s)[wm..wm + drill_len].to_vec();
        for (i, v) in payload.iter_mut().enumerate() {
            if i.is_multiple_of(8) {
                *v = 1e9;
                spikes_injected += 1;
            }
        }
        let report = engine.append(s, &payload).expect("spiked append");
        assert_eq!(
            report.values_quarantined,
            drill_len.div_ceil(8),
            "quarantine must drop exactly the injected spikes"
        );
    }
    let quarantine_wall = t0.elapsed().as_secs_f64();
    let quarantined = engine.health().quarantined;
    assert_eq!(quarantined, spikes_injected as u64);

    // Poisoned-payload drill: NaN is refused typed, nothing recorded.
    let mut nan_rejections = 0u64;
    for s in 0..SERIES {
        let wm = engine.watermark(s).expect("watermark");
        match engine.append(s, &[0.0, f64::NAN]) {
            Err(ServeError::NonFiniteInput { .. }) => nan_rejections += 1,
            other => panic!("NaN append must fail typed, got {other:?}"),
        }
        assert_eq!(engine.watermark(s).expect("watermark"), wm, "rejected append advanced time");
    }

    // Panic drill: three injected executor panics through the batcher; every
    // caller gets a typed answer, the worker survives, the engine heals.
    let injected_panics = 3u64;
    let panics_left = Arc::new(std::sync::atomic::AtomicU64::new(injected_panics));
    let hook_count = Arc::clone(&panics_left);
    engine.set_eval_hook(Some(Box::new(move |_results| {
        if hook_count
            .fetch_update(
                std::sync::atomic::Ordering::Relaxed,
                std::sync::atomic::Ordering::Relaxed,
                |n| n.checked_sub(1),
            )
            .is_ok()
        {
            panic!("bench-injected executor fault");
        }
    })));
    let batcher = MicroBatcher::spawn(Arc::clone(&engine), 16);
    let live = engine.live_len();
    let mut typed_panicked = 0u64;
    let mut answered = 0u64;
    let drill_handles: Vec<_> = (0..SERIES)
        .map(|s| {
            let client = batcher.client();
            std::thread::spawn(move || client.query(s, 0, live))
        })
        .collect();
    for h in drill_handles {
        match h.join().expect("drill client thread") {
            Ok(vals) => {
                assert_eq!(vals.len(), live);
                answered += 1;
            }
            Err(ServeError::Panicked) => typed_panicked += 1,
            Err(other) => panic!("unexpected drill error: {other}"),
        }
    }
    engine.set_eval_hook(None);
    let panics_caught = batcher.panics_caught();
    assert!(panics_caught >= 1, "the supervisor saw no injected panic");
    // Healed: the same batcher serves every series again, end to end.
    let client = batcher.client();
    for s in 0..SERIES {
        assert_eq!(client.query(s, 0, live).expect("post-drill query").len(), live);
    }
    let poison_recoveries = engine.health().poison_recoveries;

    // Durable-snapshot drill: atomic write, bit-flip, typed corruption,
    // fallback to the good generation.
    let dir = std::env::temp_dir();
    let good = dir.join(format!("mvi_bench6_{}_good.snap", std::process::id()));
    let bad = dir.join(format!("mvi_bench6_{}_bad.snap", std::process::id()));
    let t0 = Instant::now();
    engine.snapshot_to_path(&good).expect("durable write");
    let durable_write_ms = t0.elapsed().as_secs_f64() * 1e3;
    let snapshot_bytes = std::fs::metadata(&good).expect("stat").len();
    let mut bytes = std::fs::read(&good).expect("read back");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&bad, &bytes).expect("write corrupt copy");
    let corrupt_detected =
        matches!(ImputationEngine::from_snapshot_path(&bad), Err(ServeError::Corrupt { .. }));
    assert!(corrupt_detected, "a bit-flipped snapshot must fail the integrity check");
    let t0 = Instant::now();
    let (restored, fallback_index) =
        ImputationEngine::restore_with_fallback(&[&bad, &good]).expect("fallback restore");
    let durable_restore_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(fallback_index, 1, "fallback must walk past the corrupt generation");
    assert_eq!(restored.live_len(), live);
    let _ = std::fs::remove_file(&good);
    let _ = std::fs::remove_file(&bad);

    eprintln!(
        "fault drill: {quarantined} quarantined, {nan_rejections} NaN payloads rejected, \
         {panics_caught} panic(s) caught ({typed_panicked} typed / {answered} answered, \
         {poison_recoveries} poison recoveries), corrupt snapshot detected + fallback restore \
         {durable_restore_ms:.1} ms ({snapshot_bytes} B)"
    );

    // ---- Artifact. ----
    let mut json =
        String::from("{\n  \"bench\": 6,\n  \"scenario\": \"guarded_serving_and_fault_drill\",\n");
    let _ = writeln!(
        json,
        "  \"dataset\": {{\"series\": {SERIES}, \"t_len\": {T}}},\n  \"threads_used\": \
         {threads},\n  \"client_threads\": {clients},\n  \"reps_best_of\": {reps},"
    );
    json.push_str("  \"arms\": [\n");
    for (i, arm) in [&unguarded, &guarded, &guarded_deadline].into_iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"requests\": {}, \"wall_secs\": {:.6}, \"rps\": {:.2}, \
             \"p50_ms\": {:.4}, \"p99_ms\": {:.4}}}",
            arm.name,
            arm.requests,
            arm.wall_secs,
            arm.rps(),
            arm.p50_ms,
            arm.p99_ms
        );
        json.push_str(if i == 2 { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"guard_overhead_pct\": {overhead_pct:.3},\n  \"within_5pct\": {},\n  \
         \"deadline_overhead_pct\": {deadline_overhead_pct:.3},",
        ratio >= 0.95
    );
    let _ = writeln!(
        json,
        "  \"fault_drill\": {{\"quarantined\": {quarantined}, \"quarantine_values_per_sec\": \
         {:.2}, \"nan_payloads_rejected\": {nan_rejections}, \"injected_panics\": \
         {injected_panics}, \"panics_caught\": {panics_caught}, \"typed_panicked\": \
         {typed_panicked}, \"poison_recoveries\": {poison_recoveries}, \"snapshot_bytes\": \
         {snapshot_bytes}, \"durable_write_ms\": {durable_write_ms:.4}, \"durable_restore_ms\": \
         {durable_restore_ms:.4}, \"corrupt_detected\": true, \"fallback_index\": \
         {fallback_index}, \"all_faults_typed\": true}}",
        (SERIES * drill_len) as f64 / quarantine_wall
    );
    json.push_str("}\n");
    std::fs::write(out_path, &json).expect("write faults bench json");
    eprintln!("wrote {out_path}");
}

/// Scenario 6 (`BENCH_7.json`): warm-read scaling of the sharded engine.
///
/// **Scaling sweep** — the same seeded warm-query trace runs at 1/2/4/8
/// concurrent reader threads against the engine in both read postures:
/// `locked` (warm reads off — every query takes the core mutex, i.e. the
/// single-lock build this PR replaces) and `sharded` (lock-free per-series
/// snapshot reads). Reader threads are spawned literally
/// ([`mvi_parallel::run_workers`]), deliberately ignoring the core count —
/// oversubscription *is* the serving shape being measured. The ≥3× gate on
/// sharded-vs-locked aggregate throughput at 8 readers is asserted only when
/// the host has ≥ 8 cores; below that the ratio is recorded but a scaling
/// claim would be dishonest, so `asserted: false` goes in the artifact.
///
/// **Mixed-traffic probe** — a writer streams appends into series 0 while
/// readers sweep the other series. The engine's `lock_wait_nanos` counter
/// prices every *contended* core-lock acquisition; the harness asserts the
/// sharded run's delta is exactly **zero** — warm reads never touch the core
/// lock, so they cannot block the writer nor be blocked by it. This holds on
/// any host, single-core included, so it is asserted unconditionally (the
/// locked posture's measured wait is reported alongside for contrast).
fn run_sharded_scenario(
    model: &DeepMviModel,
    obs: &mvi_data::dataset::ObservedDataset,
    quick: bool,
    threads: usize,
    out_path: &str,
) {
    let host_cores = mvi_parallel::available_threads();
    let ops_per_worker = if quick { 1_000 } else { 10_000 };
    let snapshot = ServeSnapshot::capture(model, obs);
    let build = |warm: bool| {
        let frozen = snapshot.restore(obs).expect("restore");
        let engine = ImputationEngine::new(frozen, obs.clone()).expect("engine");
        engine.set_warm_reads(warm);
        engine.warm_up();
        engine
    };
    // The seeded warm trace: pure function of (worker, op) so every point of
    // the sweep answers an identical workload.
    let query_of = |worker: usize, k: usize| {
        let x = worker.wrapping_mul(0x9E37_79B9).wrapping_add(k.wrapping_mul(2_654_435_761));
        let s = x % SERIES;
        let lo = (x / 7) % (T - 80);
        (s, lo, (lo + 40 + (x / 11) % 40).min(T))
    };

    // ---- Scaling sweep: aggregate warm rps at 1/2/4/8 readers per mode. ----
    struct ScalePoint {
        mode: &'static str,
        readers: usize,
        ops: usize,
        wall_secs: f64,
    }
    let mut points: Vec<ScalePoint> = Vec::new();
    for (mode, warm) in [("locked", false), ("sharded", true)] {
        let engine = build(warm);
        let shards = engine.shard_count();
        for readers in [1usize, 2, 4, 8] {
            let t0 = Instant::now();
            let served = mvi_parallel::run_workers(readers, |w| {
                let mut n = 0usize;
                for k in 0..ops_per_worker {
                    let (s, lo, hi) = query_of(w, k);
                    let got = engine.query(s, lo, hi).expect("warm query");
                    assert_eq!(got.len(), hi - lo);
                    n += 1;
                }
                n
            });
            let wall_secs = t0.elapsed().as_secs_f64();
            let ops: usize = served.iter().sum();
            assert_eq!(ops, readers * ops_per_worker);
            eprintln!(
                "{mode:>8} x{readers}: {ops} warm queries in {wall_secs:.3}s = {:>9.0} q/s \
                 ({shards} shards)",
                ops as f64 / wall_secs
            );
            points.push(ScalePoint { mode, readers, ops, wall_secs });
        }
    }
    let rps_at = |mode: &str, readers: usize| {
        points
            .iter()
            .find(|p| p.mode == mode && p.readers == readers)
            .map(|p| p.ops as f64 / p.wall_secs)
            .expect("sweep point")
    };
    let speedup_at_8 = rps_at("sharded", 8) / rps_at("locked", 8);
    let gate_asserted = host_cores >= 8;
    eprintln!(
        "sharded/locked aggregate throughput at 8 readers: {speedup_at_8:.2}x \
         (gate {} on {host_cores}-core host)",
        if gate_asserted { "asserted" } else { "recorded only" }
    );
    if gate_asserted {
        assert!(
            speedup_at_8 >= 3.0,
            "sharded read path must scale: {speedup_at_8:.2}x at 8 readers is below the 3x floor"
        );
    }

    // ---- Mixed traffic: the blocked-time probe. ----
    struct MixedResult {
        appends: usize,
        reads: usize,
        wall_secs: f64,
        lock_wait_ms: f64,
    }
    let n_appends = if quick { 20 } else { 60 };
    let mixed_readers = 4usize;
    let mut mixed: Vec<(&'static str, MixedResult)> = Vec::new();
    for (mode, warm) in [("locked", false), ("sharded", true)] {
        let engine = build(warm);
        let wait_before = engine.lock_wait_nanos();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let t0 = Instant::now();
        let (appends, reads) = std::thread::scope(|scope| {
            let (engine, stop) = (&engine, &stop);
            let readers: Vec<_> = (0..mixed_readers)
                .map(|r| {
                    scope.spawn(move || {
                        let mut n = 0usize;
                        while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                            let (s, lo, hi) = query_of(r, n);
                            // Steer clear of the written series: these reads
                            // are the "unrelated" traffic the probe is about.
                            let s = 1 + s % (SERIES - 1);
                            let got = engine.query(s, lo, hi).expect("mixed warm query");
                            assert_eq!(got.len(), hi - lo);
                            n += 1;
                        }
                        n
                    })
                })
                .collect();
            for _ in 0..n_appends {
                let wm = engine.watermark(0).expect("watermark");
                let payload: Vec<f64> = (0..9).map(|k| (((wm + k) as f64) * 0.01).sin()).collect();
                engine.append(0, &payload).expect("mixed append");
            }
            stop.store(true, std::sync::atomic::Ordering::SeqCst);
            (n_appends, readers.into_iter().map(|h| h.join().expect("reader")).sum::<usize>())
        });
        let wall_secs = t0.elapsed().as_secs_f64();
        let lock_wait_ms = (engine.lock_wait_nanos() - wait_before) as f64 / 1e6;
        eprintln!(
            "{mode:>8} mixed: {appends} appends + {reads} reads in {wall_secs:.3}s, contended \
             core-lock wait {lock_wait_ms:.3} ms"
        );
        if warm {
            assert_eq!(
                lock_wait_ms, 0.0,
                "sharded warm reads touched the core lock under mixed traffic"
            );
        }
        mixed.push((mode, MixedResult { appends, reads, wall_secs, lock_wait_ms }));
    }

    // ---- Artifact. ----
    let shards = build(true).shard_count();
    let mut json = String::from("{\n  \"bench\": 7,\n  \"scenario\": \"sharded_warm_reads\",\n");
    let _ = writeln!(
        json,
        "  \"dataset\": {{\"series\": {SERIES}, \"t_len\": {T}}},\n  \"threads_used\": \
         {threads},\n  \"host_cores\": {host_cores},\n  \"shards\": {shards},\n  \
         \"ops_per_worker\": {ops_per_worker},"
    );
    json.push_str("  \"scaling\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"mode\": \"{}\", \"readers\": {}, \"ops\": {}, \"wall_secs\": {:.6}, \
             \"rps\": {:.2}}}",
            p.mode,
            p.readers,
            p.ops,
            p.wall_secs,
            p.ops as f64 / p.wall_secs
        );
        json.push_str(if i + 1 == points.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"scaling_gate\": {{\"required\": 3.0, \"measured_speedup_at_8\": \
         {speedup_at_8:.3}, \"asserted\": {gate_asserted}}},"
    );
    json.push_str("  \"mixed_traffic\": {\n");
    for (i, (mode, m)) in mixed.iter().enumerate() {
        let _ = write!(
            json,
            "    \"{mode}\": {{\"appends\": {}, \"reads\": {}, \"wall_secs\": {:.6}, \
             \"lock_wait_ms\": {:.4}}}",
            m.appends, m.reads, m.wall_secs, m.lock_wait_ms
        );
        json.push_str(if i + 1 == mixed.len() { "\n" } else { ",\n" });
    }
    json.push_str("  },\n  \"warm_reads_blocked\": false\n}\n");
    std::fs::write(out_path, &json).expect("write sharded bench json");
    eprintln!("wrote {out_path}");
}

/// Scenario 7 (`BENCH_8.json`): the price and the proof of the network
/// front door.
///
/// **Price** — the shared trace replayed twice against the same trained
/// engine: once through in-process [`mvi_serve::BatchClient`] threads (the
/// BENCH_2 engine arm, the zero-wire baseline) and once through
/// [`mvi_net::NetClient`] threads over framed TCP on loopback. Sustained
/// req/s and p50/p99 per arm; the wire overhead is their throughput ratio,
/// reported but not gated — loopback syscall cost varies too much across
/// hosts for an honest universal floor.
///
/// **Proof** — two wire-level fault drills, *asserted* in-harness:
///
/// * **overload shed**: a flood over a 2-deep queue behind a stalled
///   evaluation must come back as typed `Overloaded` frames carrying the
///   retry-after hint, and a client retrying on exactly that signal must
///   succeed once the stall releases;
/// * **graceful drain**: `shutdown()` under in-flight load must answer
///   every accepted request with a reply frame — real values for the
///   mid-evaluation request, the typed `Shutdown` code for queued ones,
///   and zero transport-level losses.
fn run_net_scenario(
    model: &DeepMviModel,
    obs: &mvi_data::dataset::ObservedDataset,
    trace: &[(usize, usize, usize)],
    clients: usize,
    quick: bool,
    threads: usize,
    out_path: &str,
) {
    use mvi_net::{ClientConfig, ErrorCode, NetClient, NetServer, RetryPolicy, ServerConfig};

    let snapshot = ServeSnapshot::capture(model, obs);
    // The throughput arms run warm (steady-state serving); the drill engines
    // stay cold so the stall hook — which only fires on a real forward pass —
    // actually gets to stall the worker.
    let build_engine = |warm: bool| {
        let frozen = snapshot.restore(obs).expect("restore");
        let engine = Arc::new(ImputationEngine::new(frozen, obs.clone()).expect("engine"));
        if warm {
            engine.warm_up();
        }
        engine
    };
    // ---- Arm 1: in-process batch clients (the zero-wire baseline). ----
    let engine = build_engine(true);
    let batcher = MicroBatcher::spawn(Arc::clone(&engine), 64);
    let per_client = trace.len().div_ceil(clients);
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        let client = batcher.client();
        let part: Vec<(usize, usize, usize)> =
            trace.iter().skip(c * per_client).take(per_client).copied().collect();
        handles.push(std::thread::spawn(move || {
            let mut lat = Vec::with_capacity(part.len());
            for (s, lo, hi) in part {
                let t = Instant::now();
                client.query(s, lo, hi).expect("in-process query");
                lat.push(t.elapsed().as_secs_f64() * 1e3);
            }
            lat
        }));
    }
    let mut lat = Vec::with_capacity(trace.len());
    for h in handles {
        lat.extend(h.join().expect("in-process client thread"));
    }
    let inproc = summarize("inproc", t0.elapsed().as_secs_f64(), lat);
    drop(batcher);

    // ---- Arm 2: the same trace through framed TCP on loopback. ----
    let engine = build_engine(true);
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&engine), ServerConfig::default())
        .expect("bind loopback server");
    let addr = server.local_addr();
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        let part: Vec<(usize, usize, usize)> =
            trace.iter().skip(c * per_client).take(per_client).copied().collect();
        handles.push(std::thread::spawn(move || {
            let mut client = NetClient::new(addr, no_retry_config());
            let mut lat = Vec::with_capacity(part.len());
            for (s, lo, hi) in part {
                let t = Instant::now();
                client.query(s as u32, lo as u32, hi as u32).expect("wire query");
                lat.push(t.elapsed().as_secs_f64() * 1e3);
            }
            lat
        }));
    }
    let mut lat = Vec::with_capacity(trace.len());
    for h in handles {
        lat.extend(h.join().expect("wire client thread"));
    }
    let net = summarize("net", t0.elapsed().as_secs_f64(), lat);
    let stats = server.stats();
    assert_eq!(server.panics_caught(), Some(0), "the trace must not panic the server");
    assert_eq!(stats.requests, trace.len() as u64);
    server.shutdown();
    let wire_overhead_pct = (1.0 - net.rps() / inproc.rps()) * 100.0;
    eprintln!(
        "wire overhead on loopback: {:.1} vs {:.1} req/s = {wire_overhead_pct:.2}% \
         ({} connections for {} requests)",
        net.rps(),
        inproc.rps(),
        stats.accepted,
        stats.requests
    );

    // ---- Drill 1: overload shed + retry-through. ----
    let engine = build_engine(false);
    let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let gate = Arc::clone(&release);
    engine.set_eval_hook(Some(Box::new(move |_results| {
        while !gate.load(std::sync::atomic::Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(2));
        }
    })));
    let config = ServerConfig {
        batcher: BatcherConfig {
            max_batch: 1,
            queue_cap: 2,
            deadline: Some(Duration::from_secs(30)),
        },
        ..ServerConfig::default()
    };
    let server =
        NetServer::bind("127.0.0.1:0", Arc::clone(&engine), config).expect("bind drill server");
    let addr = server.local_addr();
    let stalled =
        std::thread::spawn(move || NetClient::new(addr, no_retry_config()).query(0, 0, T as u32));
    while engine.stats().batches == 0 {
        std::thread::sleep(Duration::from_millis(2));
    }
    let flood_n = if quick { 4 } else { 8 };
    let floods: Vec<_> = (0..flood_n)
        .map(|_| {
            std::thread::spawn(move || {
                NetClient::new(addr, no_retry_config()).query(1, 0, T as u32)
            })
        })
        .collect();
    let retry = RetryPolicy {
        max_attempts: 40,
        base: Duration::from_millis(10),
        max_delay: Duration::from_millis(80),
        ..RetryPolicy::default()
    };
    let patient = std::thread::spawn(move || {
        NetClient::new(addr, ClientConfig { retry, ..ClientConfig::default() })
            .query(2, 0, T as u32)
    });
    std::thread::sleep(Duration::from_millis(150));
    release.store(true, std::sync::atomic::Ordering::Release);
    let mut shed = 0usize;
    for h in floods {
        match h.join().expect("flood client") {
            Ok(vals) => assert_eq!(vals.len(), T),
            Err(e) => {
                assert_eq!(e.code(), Some(ErrorCode::Overloaded), "flood must shed typed: {e}");
                assert!(e.retry_after().is_some(), "shed replies must carry the backoff hint");
                shed += 1;
            }
        }
    }
    assert!(shed >= 1, "a flood over a 2-deep queue must shed load");
    assert_eq!(stalled.join().expect("stalled client").expect("stalled reply").len(), T);
    let retry_ok = patient.join().expect("patient client");
    assert_eq!(retry_ok.expect("the retrying client must succeed once the flood passes").len(), T);
    engine.set_eval_hook(None);
    server.shutdown();
    eprintln!("overload drill: {shed}/{flood_n} shed typed, retrying client succeeded");

    // ---- Drill 2: graceful drain, zero lost replies. ----
    let engine = build_engine(false);
    let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let gate = Arc::clone(&release);
    engine.set_eval_hook(Some(Box::new(move |_results| {
        while !gate.load(std::sync::atomic::Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(2));
        }
    })));
    let config = ServerConfig {
        batcher: BatcherConfig {
            max_batch: 1,
            queue_cap: 64,
            deadline: Some(Duration::from_secs(30)),
        },
        ..ServerConfig::default()
    };
    let server =
        NetServer::bind("127.0.0.1:0", Arc::clone(&engine), config).expect("bind drain server");
    let addr = server.local_addr();
    let drain_clients = if quick { 4 } else { 8 };
    let in_flight: Vec<_> = (0..drain_clients)
        .map(|i| {
            std::thread::spawn(move || {
                NetClient::new(addr, no_retry_config()).query((i % SERIES) as u32, 0, T as u32)
            })
        })
        .collect();
    while engine.stats().batches == 0 {
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(150));
    let unblock = {
        let release = Arc::clone(&release);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            release.store(true, std::sync::atomic::Ordering::Release);
        })
    };
    server.shutdown();
    let (mut answered, mut drained) = (0usize, 0usize);
    for h in in_flight {
        match h.join().expect("drain client") {
            Ok(vals) => {
                assert_eq!(vals.len(), T);
                answered += 1;
            }
            Err(e) => match e.code() {
                Some(ErrorCode::Shutdown) => drained += 1,
                other => panic!("lost reply during drain: {e} (code {other:?})"),
            },
        }
    }
    unblock.join().expect("unblock thread");
    assert_eq!(answered + drained, drain_clients, "every accepted request must be answered");
    assert!(answered >= 1, "the mid-drain evaluation must complete with real values");
    assert!(drained >= 1, "queued requests must receive the typed Shutdown frame");
    eprintln!(
        "drain drill: {answered} answered with values + {drained} typed Shutdown = \
         {drain_clients} accepted, 0 lost"
    );
    // ---- Artifact. ----
    let mut json = String::from("{\n  \"bench\": 8,\n  \"scenario\": \"net_front_door\",\n");
    let _ = writeln!(
        json,
        "  \"dataset\": {{\"series\": {SERIES}, \"t_len\": {T}}},\n  \"threads_used\": \
         {threads},\n  \"client_threads\": {clients},"
    );
    json.push_str("  \"arms\": [\n");
    for (i, arm) in [&inproc, &net].into_iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"requests\": {}, \"wall_secs\": {:.6}, \"rps\": {:.2}, \
             \"p50_ms\": {:.4}, \"p99_ms\": {:.4}}}",
            arm.name,
            arm.requests,
            arm.wall_secs,
            arm.rps(),
            arm.p50_ms,
            arm.p99_ms
        );
        json.push_str(if i == 1 { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"wire_overhead_pct\": {wire_overhead_pct:.3},\n  \"server\": {{\"accepted\": {}, \
         \"requests\": {}, \"rejected\": {}, \"bad_frames\": {}}},",
        stats.accepted, stats.requests, stats.rejected, stats.bad_frames
    );
    let _ = writeln!(
        json,
        "  \"overload_drill\": {{\"flood_clients\": {flood_n}, \"shed_typed\": {shed}, \
         \"retry_after_hint\": true, \"retrying_client_succeeded\": true}},"
    );
    let _ = writeln!(
        json,
        "  \"drain_drill\": {{\"clients\": {drain_clients}, \"answered_with_values\": \
         {answered}, \"typed_shutdown\": {drained}, \"lost_replies\": 0}}"
    );
    json.push_str("}\n");
    std::fs::write(out_path, &json).expect("write net bench json");
    eprintln!("wrote {out_path}");
}

/// Scenario 8 (`BENCH_9.json`): the price and the proof of multi-model
/// tenancy.
///
/// **Price** — the shared trace replayed through one front door backed by a
/// registry of 1, 4 and 16 tenants (clients round-robin their requests over
/// the tenant ids; every tenant serves the same trained model so the arms
/// differ only in routing and per-tenant batcher count), plus a **cold-load**
/// arm: a capacity-1 registry alternating two tenants, so every request pays
/// a full evict→snapshot→reload cycle on the serving path.
///
/// **Proof** — asserted in-harness, not just reported:
///
/// * **isolation**: a hostile tenant whose model is armed to panic every
///   forward pass, flooded by its own clients, must leave a victim tenant's
///   replies bitwise identical to its pre-storm baseline with p99 bounded by
///   `max(50 ms, 25 × baseline p99)` — and the drill only counts once the
///   panics have demonstrably landed;
/// * **unknown tenant**: answered with the typed `UnknownTenant` code on a
///   connection that stays open for the next request.
fn run_tenancy_scenario(
    model: &DeepMviModel,
    obs: &mvi_data::dataset::ObservedDataset,
    trace: &[(usize, usize, usize)],
    clients: usize,
    quick: bool,
    threads: usize,
    out_path: &str,
) {
    use mvi_net::{ErrorCode, NetClient, NetServer, ServerConfig};
    use mvi_serve::{ModelRegistry, RegistryConfig};

    let snapshot = ServeSnapshot::capture(model, obs);
    let build_engine = |warm: bool| {
        let frozen = snapshot.restore(obs).expect("restore");
        let engine = Arc::new(ImputationEngine::new(frozen, obs.clone()).expect("engine"));
        if warm {
            engine.warm_up();
        }
        engine
    };
    let spill_root = std::env::temp_dir().join(format!("mvi-bench-tenancy-{}", std::process::id()));

    // ---- Throughput arms: 1 / 4 / 16 tenants behind one door. ----
    let mut arms: Vec<ArmResult> = Vec::new();
    for (n_tenants, arm_name) in [(1usize, "tenants_1"), (4, "tenants_4"), (16, "tenants_16")] {
        let reg =
            Arc::new(ModelRegistry::new(RegistryConfig::new(n_tenants, spill_root.join(arm_name))));
        let names: Vec<String> = (0..n_tenants).map(|i| format!("tenant-{i}")).collect();
        for name in &names {
            reg.register(name, build_engine(true)).expect("register tenant");
        }
        let server = NetServer::bind_registry("127.0.0.1:0", reg, ServerConfig::default())
            .expect("bind tenancy server");
        let addr = server.local_addr();
        let per_client = trace.len().div_ceil(clients);
        let t0 = Instant::now();
        let mut handles = Vec::new();
        for c in 0..clients {
            let part: Vec<(usize, usize, usize)> =
                trace.iter().skip(c * per_client).take(per_client).copied().collect();
            let names = names.clone();
            handles.push(std::thread::spawn(move || {
                let mut client = NetClient::new(addr, no_retry_config());
                let mut lat = Vec::with_capacity(part.len());
                for (i, (s, lo, hi)) in part.into_iter().enumerate() {
                    // Round-robin over tenants: every request re-routes.
                    client.set_tenant(names[(c + i) % names.len()].as_str());
                    let t = Instant::now();
                    client.query(s as u32, lo as u32, hi as u32).expect("tenant query");
                    lat.push(t.elapsed().as_secs_f64() * 1e3);
                }
                lat
            }));
        }
        let mut lat = Vec::with_capacity(trace.len());
        for h in handles {
            lat.extend(h.join().expect("tenant client thread"));
        }
        let arm = summarize(arm_name, t0.elapsed().as_secs_f64(), lat);
        assert_eq!(server.panics_caught(), Some(0), "the trace must not panic any tenant");
        assert_eq!(server.stats().requests, trace.len() as u64);
        server.shutdown();
        arms.push(arm);
    }

    // ---- Cold-load arm: every request is an evict→snapshot→reload. ----
    let reg = Arc::new(ModelRegistry::new(RegistryConfig::new(1, spill_root.join("cold"))));
    reg.register("cold-a", build_engine(true)).expect("register cold-a");
    reg.register("cold-b", build_engine(true)).expect("register cold-b");
    let server = NetServer::bind_registry("127.0.0.1:0", Arc::clone(&reg), ServerConfig::default())
        .expect("bind cold server");
    let cold_n = if quick { 6 } else { 24 };
    let mut client = NetClient::new(server.local_addr(), no_retry_config());
    let mut lat = Vec::with_capacity(cold_n);
    let t0 = Instant::now();
    for i in 0..cold_n {
        // Alternating tenants on a capacity-1 registry: each request must
        // evict the other tenant and reload its own snapshot from disk.
        client.set_tenant(if i % 2 == 0 { "cold-a" } else { "cold-b" });
        let (s, lo, hi) = trace[i % trace.len()];
        let t = Instant::now();
        client.query(s as u32, lo as u32, hi as u32).expect("cold query");
        lat.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let cold = summarize("cold_load", t0.elapsed().as_secs_f64(), lat);
    let reg_stats = reg.stats();
    assert!(
        reg_stats.loads >= cold_n as u64 - 1,
        "the cold arm must actually churn: {reg_stats:?}"
    );
    server.shutdown();
    arms.push(cold);

    // ---- Drill 1: hostile-tenant isolation, progress-gated. ----
    let reg = Arc::new(ModelRegistry::new(RegistryConfig::new(4, spill_root.join("hostile"))));
    let victim_oracle = build_engine(true);
    reg.register("victim", build_engine(true)).expect("register victim");
    let mal = build_engine(false);
    mal.set_eval_hook(Some(Box::new(|_results| panic!("armed hostile model"))));
    reg.register("mallory", mal).expect("register mallory");
    let server = NetServer::bind_registry("127.0.0.1:0", Arc::clone(&reg), ServerConfig::default())
        .expect("bind hostile server");
    let addr = server.local_addr();

    let probe_n = if quick { 12 } else { 60 };
    let mut victim = NetClient::with_tenant(addr, "victim", no_retry_config());
    let mut base_lat = Vec::with_capacity(probe_n);
    let t0 = Instant::now();
    for i in 0..probe_n {
        let (s, lo, hi) = trace[i % trace.len()];
        let t = Instant::now();
        victim.query(s as u32, lo as u32, hi as u32).expect("baseline victim query");
        base_lat.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let baseline = summarize("victim_base", t0.elapsed().as_secs_f64(), base_lat);

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hostiles: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = NetClient::with_tenant(addr, "mallory", no_retry_config());
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    let _ = client.query(0, 0, T as u32);
                }
            })
        })
        .collect();
    // Progress gate: the isolation claim is empty until panics actually land.
    let gate_start = Instant::now();
    while server.panics_caught().unwrap_or(0) < 3 {
        assert!(
            gate_start.elapsed() < Duration::from_secs(30),
            "the armed tenant never panicked; the drill proves nothing"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut storm_lat = Vec::with_capacity(probe_n);
    let mut bitwise_identical = true;
    let t0 = Instant::now();
    for i in 0..probe_n {
        let (s, lo, hi) = trace[i % trace.len()];
        let t = Instant::now();
        let got = victim.query(s as u32, lo as u32, hi as u32).expect("mid-storm victim query");
        storm_lat.push(t.elapsed().as_secs_f64() * 1e3);
        let want = victim_oracle.query(s, lo, hi).expect("oracle query");
        bitwise_identical &= want.iter().zip(&got).all(|(x, y)| x.to_bits() == y.to_bits());
    }
    stop.store(true, std::sync::atomic::Ordering::Release);
    for h in hostiles {
        h.join().expect("hostile client thread");
    }
    let storm = summarize("victim_storm", t0.elapsed().as_secs_f64(), storm_lat);
    let panics = server.panics_caught().unwrap_or(0);
    let p99_bound = (25.0 * baseline.p99_ms).max(50.0);
    assert!(bitwise_identical, "the hostile neighbor perturbed the victim's values");
    assert!(
        storm.p99_ms <= p99_bound,
        "victim p99 {:.3} ms exceeds the isolation bound {:.3} ms (baseline {:.3} ms)",
        storm.p99_ms,
        p99_bound,
        baseline.p99_ms
    );
    eprintln!(
        "isolation drill: victim p99 {:.3} ms under storm (baseline {:.3} ms, bound {:.3} ms), \
         {panics} hostile panics caught, values bitwise identical",
        storm.p99_ms, baseline.p99_ms, p99_bound
    );

    // ---- Drill 2: unknown tenant, typed on a live connection. ----
    let mut stranger = NetClient::with_tenant(addr, "nobody", no_retry_config());
    let err = stranger.query(0, 0, 10).expect_err("unknown tenant must be refused");
    assert_eq!(err.code(), Some(ErrorCode::UnknownTenant), "must be typed: {err}");
    stranger.set_tenant("victim");
    assert!(
        stranger.query(0, 0, 10).is_ok(),
        "the connection must survive an unknown-tenant reply"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spill_root);

    // ---- Artifact. ----
    let mut json = String::from("{\n  \"bench\": 9,\n  \"scenario\": \"multi_model_tenancy\",\n");
    let _ = writeln!(
        json,
        "  \"dataset\": {{\"series\": {SERIES}, \"t_len\": {T}}},\n  \"threads_used\": \
         {threads},\n  \"client_threads\": {clients},"
    );
    json.push_str("  \"arms\": [\n");
    let tenant_counts = [1usize, 4, 16, 2];
    for (i, (arm, tenants)) in arms.iter().zip(tenant_counts).enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"tenants\": {tenants}, \"requests\": {}, \"wall_secs\": \
             {:.6}, \"rps\": {:.2}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}}}",
            arm.name,
            arm.requests,
            arm.wall_secs,
            arm.rps(),
            arm.p50_ms,
            arm.p99_ms
        );
        json.push_str(if i + 1 == arms.len() { "\n" } else { ",\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"cold_load\": {{\"cycles\": {cold_n}, \"registry_loads\": {}, \
         \"registry_evictions\": {}}},",
        reg_stats.loads, reg_stats.evictions
    );
    let _ = writeln!(
        json,
        "  \"isolation_drill\": {{\"baseline_p99_ms\": {:.4}, \"storm_p99_ms\": {:.4}, \
         \"bound_factor\": 25.0, \"floor_ms\": 50.0, \"hostile_panics_caught\": {panics}, \
         \"bitwise_identical\": true, \"asserted\": true}},",
        baseline.p99_ms, storm.p99_ms
    );
    json.push_str("  \"unknown_tenant\": {\"typed\": true, \"connection_survived\": true}\n}\n");
    std::fs::write(out_path, &json).expect("write tenancy bench json");
    eprintln!("wrote {out_path}");
}

/// [`mvi_net::ClientConfig`] with retries off — drill threads must observe
/// first-reply semantics (free function so `move` closures can call it).
fn no_retry_config() -> mvi_net::ClientConfig {
    mvi_net::ClientConfig {
        retry: mvi_net::RetryPolicy::none(),
        ..mvi_net::ClientConfig::default()
    }
}
