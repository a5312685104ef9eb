//! The traced run's per-layer metrics. Each layer is timed at its public
//! entry points from outside the program, by replaying the same seeded
//! requests at each rung of a ladder: engine → batcher → registry+batcher →
//! frame → `NetClient`. The difference between two rungs is what the added
//! layer costs. Probes time the layers no request passes through (GEMM,
//! training, the forward pass over stale windows, snapshots).

use crate::load::{same_bits, Request};
use crate::report::{Report, Tally};
use crate::setup::Setup;
use crate::stats::median;
use crate::trace::{Span, Tracer};
use crate::workloads::{Ctx, CONNS};
use deepmvi::{DeepMviConfig, FrozenModel};
use mvi_data::dataset::ObservedDataset;
use mvi_net::frame::{decode, encode, Frame, DEFAULT_MAX_FRAME};
use mvi_net::{ClientConfig, NetClient, NetServer, NetStats, ServerConfig};
use mvi_serve::registry::RegistryStats;
use mvi_serve::{EngineStats, ImputationEngine, MicroBatcher, ModelRegistry, ServeSnapshot};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The serving stack a ladder climbs.
pub struct Stack<'a> {
    /// Tenant ids, by index.
    pub names: &'a [String],
    /// In-process reference engines, by tenant (engine and batcher rungs).
    pub refs: &'a [Arc<ImputationEngine>],
    /// The served registry.
    pub registry: &'a Arc<ModelRegistry>,
    /// The front door serving `registry`.
    pub addr: SocketAddr,
    /// Tenants resident when the workload started, oldest first; rungs
    /// through the registry start from this residency so each replays the
    /// same loads.
    pub resident: Vec<usize>,
}

fn us(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// Serving counters summed over every tenant (carried across evictions).
fn engine_counters(registry: &ModelRegistry, names: &[String]) -> EngineStats {
    let mut sum = EngineStats::default();
    for n in names {
        let s = registry.tenant_stats(n).expect("registered tenant");
        sum.requests += s.requests;
        sum.batches += s.batches;
        sum.windows_computed += s.windows_computed;
        sum.window_hits += s.window_hits;
    }
    sum
}

/// Engine, registry and front-door counters around a workload loop.
pub struct LoopProbe<'a> {
    registry: &'a ModelRegistry,
    names: &'a [String],
    server: &'a NetServer,
    engine: EngineStats,
    reg: RegistryStats,
    net: NetStats,
}

impl<'a> LoopProbe<'a> {
    /// Reads the counters before the loop.
    pub fn start(registry: &'a ModelRegistry, names: &'a [String], server: &'a NetServer) -> Self {
        let (engine, reg, net) =
            (engine_counters(registry, names), registry.stats(), server.stats());
        Self { registry, names, server, engine, reg, net }
    }

    /// Sets the loop's engine, registry and net metrics; `sent` is the
    /// queries the clients sent over the wire.
    pub fn finish(self, r: &mut Report, sent: u64) {
        let (s1, g1, n1) = (
            engine_counters(self.registry, self.names),
            self.registry.stats(),
            self.server.stats(),
        );
        let computed = s1.windows_computed - self.engine.windows_computed;
        let hits = s1.window_hits - self.engine.window_hits;
        r.set("engine.windows_computed", computed as f64);
        r.set("engine.window_hit_ratio", hits as f64 / (hits + computed).max(1) as f64);
        let (loads, reg_hits) = (g1.loads - self.reg.loads, g1.hits - self.reg.hits);
        r.set("registry.loads", loads as f64);
        r.set("registry.load_failures", (g1.load_failures - self.reg.load_failures) as f64);
        r.set("registry.hit_ratio", reg_hits as f64 / (reg_hits + loads).max(1) as f64);
        r.set("net.retry_ratio", (n1.requests - self.net.requests) as f64 / sent.max(1) as f64);
        r.set("net.rejected", (n1.rejected - self.net.rejected) as f64);
        r.set("net.bad_frames", (n1.bad_frames - self.net.bad_frames) as f64);
    }
}

/// Core-lock wait of the engines registered at set-up (engines reloaded
/// later by the registry are not visible from outside).
pub fn lock_wait_ms(tenants: &[crate::setup::Tenant]) -> f64 {
    tenants.iter().map(|t| t.engine.lock_wait_nanos()).sum::<u64>() as f64 / 1e6
}

/// Every per-layer metric the workload loop did not already set.
pub fn all(
    ctx: &Ctx,
    stack: &Stack,
    reqs: &[Request],
    want: &[Vec<f64>],
    setup: &Setup,
    r: &mut Report,
    spans: &mut Vec<Vec<Span>>,
) {
    let loads_ms = ladder(stack, reqs, want, r, spans);
    batch_concurrency(stack, reqs, r);
    let engine = &stack.refs[0];
    kernels(&setup.cfg, engine.trained_len() / engine.model().model().window(), r);
    r.set("train.steps", setup.report.steps as f64);
    r.set("train.step_ms", setup.fit_s * 1e3 / setup.report.steps.max(1) as f64);
    infer(engine.model(), &setup.tenants[0].obs, r);
    snapshot(engine, &ctx.work, r);
    registry_probe(stack, loads_ms, r);
    if !r.metrics.contains_key("engine.append_us") {
        r.set("engine.append_us", median(&setup.ingest_ms) * 1e3);
        r.note(format!("engine.append_us from {} set-up ingest appends", setup.ingest_ms.len()));
    }
}

/// Evicts every tenant, then loads the starting residents oldest first.
fn reset_residency(stack: &Stack) {
    if stack.resident.len() == stack.names.len() {
        return;
    }
    for n in stack.names {
        stack.registry.evict(n).expect("evict");
    }
    for &k in &stack.resident {
        stack.registry.get(&stack.names[k]).expect("reload resident");
    }
}

/// A per-tenant micro-batcher over whatever engine the registry returned,
/// rebuilt when a reload replaced the engine (as the front door does).
struct Doors(HashMap<usize, (Arc<ImputationEngine>, MicroBatcher)>);

impl Doors {
    fn client(&mut self, tenant: usize, engine: Arc<ImputationEngine>) -> mvi_serve::BatchClient {
        let fresh = self.0.get(&tenant).is_some_and(|(e, _)| Arc::ptr_eq(e, &engine));
        if !fresh {
            let b = MicroBatcher::spawn_with(Arc::clone(&engine), ServerConfig::default().batcher);
            self.0.insert(tenant, (engine, b));
        }
        self.0[&tenant].1.client()
    }
}

/// The five rungs. Returns the durations (ms) of registry gets that had to
/// reload a spilled tenant.
fn ladder(
    stack: &Stack,
    reqs: &[Request],
    want: &[Vec<f64>],
    r: &mut Report,
    spans: &mut Vec<Vec<Span>>,
) -> Vec<f64> {
    let mut tr = Tracer::new(Instant::now(), true);
    let mut tally = Tally::default();
    let mut wrong = Vec::new();
    let mut check =
        |tally: &mut Tally, rung: &str, k: usize, got: Result<Vec<f64>, String>| match got {
            Ok(v) if same_bits(&v, &want[k]) => tally.ok(),
            Ok(_) => {
                tally.fail("mismatch");
                wrong.push(format!("{rung} rung: request {k} differs from the reference engine"));
            }
            Err(code) => tally.fail(&code),
        };
    let serve_err = |e: mvi_serve::ServeError| crate::load::serve_code(&e);
    let n = reqs.len();

    // Rung 1: the engine alone.
    let mut eng = Vec::with_capacity(n);
    for (k, q) in reqs.iter().enumerate() {
        let sp = tr.begin("engine.query", None, k as u64);
        let t0 = Instant::now();
        let got = stack.refs[q.tenant].query(q.s, q.lo, q.hi);
        eng.push(us(t0));
        tr.end(sp);
        check(&mut tally, "engine", k, got.map_err(serve_err));
    }

    // Rung 2: + the micro-batcher.
    let mut batch = Vec::with_capacity(n);
    {
        let batchers: Vec<MicroBatcher> = stack
            .refs
            .iter()
            .map(|e| MicroBatcher::spawn_with(Arc::clone(e), ServerConfig::default().batcher))
            .collect();
        let clients: Vec<_> = batchers.iter().map(MicroBatcher::client).collect();
        for (k, q) in reqs.iter().enumerate() {
            let sp = tr.begin("batch.query", None, k as u64);
            let t0 = Instant::now();
            let got = clients[q.tenant].query(q.s, q.lo, q.hi);
            batch.push(us(t0));
            tr.end(sp);
            check(&mut tally, "batch", k, got.map_err(serve_err));
        }
    }

    // Rung 3: + the registry lookup.
    reset_residency(stack);
    let (mut get, mut hits_us, mut loads_ms) = (Vec::with_capacity(n), Vec::new(), Vec::new());
    {
        let mut doors = Doors(HashMap::new());
        for (k, q) in reqs.iter().enumerate() {
            let root = tr.begin("request", None, k as u64);
            let loads0 = stack.registry.stats().loads;
            let sp = tr.begin("registry.get", Some(root), k as u64);
            let t0 = Instant::now();
            let engine = stack.registry.get(&stack.names[q.tenant]);
            let dt = us(t0);
            tr.end(sp);
            get.push(dt);
            if stack.registry.stats().loads > loads0 {
                loads_ms.push(dt / 1e3);
            } else {
                hits_us.push(dt);
            }
            let got = engine.and_then(|e| {
                let client = doors.client(q.tenant, e);
                let sp = tr.begin("batch.query", Some(root), k as u64);
                let got = client.query(q.s, q.lo, q.hi);
                tr.end(sp);
                got
            });
            tr.end(root);
            check(&mut tally, "registry", k, got.map_err(serve_err));
        }
    }

    // Rung 4: + the frame codec on the workload's own Query and Values frames.
    reset_residency(stack);
    let (mut enc_ns, mut dec_ns, mut reply_bytes) =
        (Vec::with_capacity(2 * n), Vec::with_capacity(2 * n), 0usize);
    {
        let mut doors = Doors(HashMap::new());
        for (k, q) in reqs.iter().enumerate() {
            let root = tr.begin("request", None, k as u64);
            let tenant = stack.names[q.tenant].clone();
            let query = Frame::Query {
                tenant: tenant.clone(),
                s: q.s as u32,
                start: q.lo as u32,
                end: q.hi as u32,
            };
            let sp = tr.begin("frame.encode", Some(root), k as u64);
            let t0 = Instant::now();
            let bytes = encode(&query);
            enc_ns.push(us(t0) * 1e3);
            tr.end(sp);
            let sp = tr.begin("frame.decode", Some(root), k as u64);
            let t0 = Instant::now();
            let decoded = decode(&bytes, DEFAULT_MAX_FRAME);
            dec_ns.push(us(t0) * 1e3);
            tr.end(sp);
            let got = match decoded {
                Ok((Frame::Query { tenant: t, s, start, end }, _)) if t == tenant => {
                    let sp = tr.begin("registry.get", Some(root), k as u64);
                    let engine = stack.registry.get(&t);
                    tr.end(sp);
                    engine
                        .and_then(|e| {
                            let client = doors.client(q.tenant, e);
                            let sp = tr.begin("batch.query", Some(root), k as u64);
                            let got = client.query(s as usize, start as usize, end as usize);
                            tr.end(sp);
                            got
                        })
                        .map_err(serve_err)
                }
                _ => Err("frame".to_string()),
            };
            let got = got.and_then(|values| {
                let reply = Frame::Values { tenant: tenant.clone(), values };
                let sp = tr.begin("frame.encode", Some(root), k as u64);
                let t0 = Instant::now();
                let bytes = encode(&reply);
                enc_ns.push(us(t0) * 1e3);
                tr.end(sp);
                reply_bytes += bytes.len();
                let sp = tr.begin("frame.decode", Some(root), k as u64);
                let t0 = Instant::now();
                let decoded = decode(&bytes, DEFAULT_MAX_FRAME);
                dec_ns.push(us(t0) * 1e3);
                tr.end(sp);
                match decoded {
                    Ok((Frame::Values { values, .. }, _)) => Ok(values),
                    _ => Err("frame".to_string()),
                }
            });
            tr.end(root);
            check(&mut tally, "frame", k, got);
        }
    }

    // Rung 5: the whole front door, over TCP with a default-config client.
    reset_residency(stack);
    let mut net = Vec::with_capacity(n);
    let mut client = NetClient::new(stack.addr, ClientConfig::default());
    for (k, q) in reqs.iter().enumerate() {
        client.set_tenant(stack.names[q.tenant].as_str());
        let sp = tr.begin("net.query", None, k as u64);
        let t0 = Instant::now();
        let got = client.query(q.s as u32, q.lo as u32, q.hi as u32);
        net.push(us(t0));
        tr.end(sp);
        check(&mut tally, "net", k, got.map_err(|e| crate::load::net_code(&e)));
    }

    let per_req = |a: &[f64], b: &[f64], c: Option<&[f64]>| -> Vec<f64> {
        (0..n).map(|i| a[i] - b[i] - c.map_or(0.0, |c| c[i])).collect()
    };
    r.set("engine.query_us", median(&eng));
    r.set("batch.query_us", median(&batch));
    r.set("batch.wait_us", median(&per_req(&batch, &eng, None)));
    r.set("registry.get_us", median(&hits_us));
    r.set("frame.encode_ns", median(&enc_ns));
    r.set("frame.decode_ns", median(&dec_ns));
    r.set("frame.reply_bytes", reply_bytes as f64 / n as f64);
    r.set("net.query_us", median(&net));
    r.set("net.wire_us", median(&per_req(&net, &batch, Some(&get))));
    r.note(format!(
        "ladder: {n} requests per rung; {} registry gets reloaded a tenant",
        loads_ms.len()
    ));
    let ladder_spans = tr.into_spans();
    for (name, (count, mean, own)) in crate::trace::summarize(&ladder_spans) {
        r.note(format!("span {name:<14} n {count:>6}  mean {mean:>10.3} us  self {own:>10.3} us"));
    }
    spans.push(ladder_spans);
    for w in wrong.into_iter().take(5) {
        r.wrong(w);
    }
    r.phase("ladder", tally);
    loads_ms
}

/// Batcher coalescing under the workload's concurrency: `CONNS` threads
/// replay the requests through per-tenant batchers while a sampler polls the
/// queue depth.
fn batch_concurrency(stack: &Stack, reqs: &[Request], r: &mut Report) {
    let batchers: Vec<MicroBatcher> = stack
        .refs
        .iter()
        .map(|e| MicroBatcher::spawn_with(Arc::clone(e), ServerConfig::default().batcher))
        .collect();
    let before: Vec<EngineStats> = stack.refs.iter().map(|e| e.stats()).collect();
    let done = Arc::new(AtomicBool::new(false));
    let depth_max = std::thread::scope(|scope| {
        let clients: Vec<_> = batchers.iter().map(MicroBatcher::client).collect();
        let sampler = {
            let (clients, done) = (clients.clone(), Arc::clone(&done));
            scope.spawn(move || {
                let mut max = 0usize;
                while !done.load(Ordering::Acquire) {
                    max = max.max(clients.iter().map(|c| c.queue_depth()).sum());
                    std::thread::sleep(Duration::from_micros(20));
                }
                max
            })
        };
        let workers: Vec<_> = (0..CONNS)
            .map(|c| {
                let clients = clients.clone();
                scope.spawn(move || {
                    for q in reqs.iter().skip(c).step_by(CONNS) {
                        let _ = clients[q.tenant].query(q.s, q.lo, q.hi);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("batch worker");
        }
        done.store(true, Ordering::Release);
        sampler.join().expect("sampler")
    });
    let (mut reqs_n, mut batches) = (0u64, 0u64);
    for (e, b) in stack.refs.iter().zip(before) {
        let s = e.stats();
        reqs_n += s.requests - b.requests;
        batches += s.batches - b.batches;
    }
    r.set("batch.requests_per_batch", reqs_n as f64 / batches.max(1) as f64);
    r.set("batch.queue_depth_max", depth_max as f64);
}

/// GEMM throughput at the model's forward-pass shapes (`matmul`) and its
/// training shapes (the backward `matmul_nt` / `matmul_tn` of each), weighted
/// by how often one window's pass runs each shape.
fn kernels(cfg: &DeepMviConfig, n_windows: usize, r: &mut Report) {
    let (p, w, h) = (cfg.p, cfg.window.unwrap_or(10), cfg.n_heads);
    let c = cfg.ctx_windows.min(n_windows);
    let forward = [
        ((c, w, p), 1),
        ((c, 2 * p, 2 * p), 2 * h),
        ((c, p, p), h),
        ((c, 2 * p, c), h),
        ((c, c, p), h),
        ((c, h * p, 2 * p), 1),
        ((c, 2 * p, p), 1),
        ((c, p, w * p), 1),
    ];
    let fill = |len: usize, salt: u64| -> Vec<f64> {
        let mut rng = crate::setup::Rng::new(salt);
        (0..len).map(|_| rng.unit() - 0.5).collect()
    };
    // Times one kernel call, repeated for at least 20 ms; returns s/call.
    let time = |f: &mut dyn FnMut()| -> f64 {
        f();
        let (t0, mut calls) = (Instant::now(), 0u32);
        while t0.elapsed() < Duration::from_millis(20) {
            f();
            calls += 1;
        }
        t0.elapsed().as_secs_f64() / calls as f64
    };
    let (mut flops, mut secs, mut bytes) = ([0.0f64; 2], [0.0f64; 2], 0.0f64);
    for &((m, k, n), mult) in &forward {
        let (a, b) = (fill(m * k, 1), fill(k * n, 2));
        let (dc, mut out) = (fill(m * n, 3), vec![0.0; m * n]);
        let mult = mult as f64;
        let f = 2.0 * (m * k * n) as f64 * mult;
        secs[0] += mult
            * time(&mut || mvi_kernels::matmul(m, k, n, &a, &b, std::hint::black_box(&mut out)));
        flops[0] += f;
        // dA = dC · Bᵀ and dB = Aᵀ · dC.
        let (mut da, mut db) = (vec![0.0; m * k], vec![0.0; k * n]);
        secs[1] += mult
            * time(&mut || mvi_kernels::matmul_nt(m, n, k, &dc, &b, std::hint::black_box(&mut da)));
        secs[1] += mult
            * time(&mut || mvi_kernels::matmul_tn(m, k, n, &a, &dc, std::hint::black_box(&mut db)));
        flops[1] += 2.0 * f;
        bytes += 8.0 * mult * 3.0 * (m * k + k * n + m * n) as f64;
    }
    let gflops = (flops[0] + flops[1]) / (secs[0] + secs[1]) / 1e9;
    r.set("kernels.gemm_gflops", gflops);
    r.note(format!(
        "kernels: ctx {c} windows; forward {:.3} GFLOP/s, backward {:.3} GFLOP/s; {:.0} flops and {:.0} bytes per window pass (intensity {:.2} flop/byte)",
        flops[0] / secs[0] / 1e9,
        flops[1] / secs[1] / 1e9,
        flops[0] + flops[1],
        bytes,
        (flops[0] + flops[1]) / bytes
    ));
}

/// The forward pass over the workload's stale windows (every window with a
/// missing entry, as a cold engine sees them).
fn infer(model: &FrozenModel, obs: &ObservedDataset, r: &mut Report) {
    let queries = model.model().missing_queries(obs);
    let threads = mvi_parallel::current_threads();
    let _ = model.predict_batch(obs, &queries, threads);
    let mut passes = Vec::new();
    let t0 = Instant::now();
    while passes.len() < 3 || t0.elapsed() < Duration::from_millis(300) {
        let t = Instant::now();
        std::hint::black_box(model.predict_batch(obs, &queries, threads));
        passes.push(us(t));
    }
    r.set("infer.windows", queries.len() as f64);
    r.set("infer.window_us", median(&passes) / queries.len().max(1) as f64);
}

/// Snapshot encode, durable write and read, and engine restore.
fn snapshot(engine: &ImputationEngine, dir: &Path, r: &mut Report) {
    const REPS: usize = 5;
    std::fs::create_dir_all(dir).expect("work dir");
    let path = dir.join("probe.snap");
    let snap = engine.snapshot();
    let (mut enc, mut wr, mut rd, mut rs) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        std::hint::black_box(snap.to_json());
        enc.push(us(t) / 1e3);
        let t = Instant::now();
        snap.to_path(&path).expect("snapshot write");
        wr.push(us(t) / 1e3);
        let t = Instant::now();
        std::hint::black_box(ServeSnapshot::from_path(&path).expect("snapshot read"));
        rd.push(us(t) / 1e3);
        let t = Instant::now();
        std::hint::black_box(ImputationEngine::from_snapshot(&snap).expect("restore"));
        rs.push(us(t) / 1e3);
    }
    r.set("snapshot.bytes", std::fs::metadata(&path).map_or(f64::NAN, |m| m.len() as f64));
    r.set("snapshot.encode_ms", median(&enc));
    r.set("snapshot.write_ms", median(&wr));
    r.set("snapshot.read_ms", median(&rd));
    r.set("snapshot.restore_ms", median(&rs));
    let _ = std::fs::remove_file(&path);
}

/// Explicit evict → get cycles of one tenant: `registry.evict_ms` always,
/// and `registry.load_ms` when the ladder itself reloaded nothing.
fn registry_probe(stack: &Stack, ladder_loads_ms: Vec<f64>, r: &mut Report) {
    const REPS: usize = 5;
    let name = &stack.names[stack.resident[0]];
    stack.registry.get(name).expect("probe tenant");
    let (mut evict, mut load) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t = Instant::now();
        stack.registry.evict(name).expect("probe evict");
        evict.push(us(t) / 1e3);
        let t = Instant::now();
        stack.registry.get(name).expect("probe reload");
        load.push(us(t) / 1e3);
    }
    r.set("registry.evict_ms", median(&evict));
    if ladder_loads_ms.is_empty() {
        r.set("registry.load_ms", median(&load));
        r.note(format!("registry.load_ms from {REPS} explicit evict-then-get cycles (the workload reloads nothing)"));
    } else {
        r.set("registry.load_ms", median(&ladder_loads_ms));
        r.note(format!(
            "registry.load_ms from {} ladder gets that reloaded a spilled tenant",
            ladder_loads_ms.len()
        ));
    }
}
