//! The four workloads. Each one sets up (several times when untraced, to
//! report the median set-up time), then measures for the requested seconds
//! and checks every answer against an in-process reference.

use crate::layers::{self, LoopProbe, Stack};
use crate::load::{
    self, closed_loop, describe, expected, range_query, same_bits, serve_code, Request, Samples,
    Zipf,
};
use crate::report::{cpu_ms, Report, Tally};
use crate::setup::{self, reference, Rng, ServeShape, Setup, SERVE_SERIES, SERVE_T};
use crate::stats::{grouped_percentile, median, ms, percentile, sorted, OpenLoop};
use crate::trace::{Span, Tracer};
use mvi_net::{ClientConfig, NetClient, NetServer, ServerConfig};
use mvi_serve::{ImputationEngine, ModelRegistry, RegistryConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How one run is configured.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measurement length (s).
    pub secs: f64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub traced: bool,
    /// Scratch directory for spilled snapshots, inside the checkout.
    pub work: PathBuf,
}

impl Ctx {
    /// Set-ups per run: several untraced (median `setup_s`), one traced.
    fn reps(&self) -> usize {
        if self.traced {
            1
        } else {
            SETUP_REPS
        }
    }
}

/// Set-ups per untraced run.
pub const SETUP_REPS: usize = 5;
/// Closed-loop connections: the host's core count on the reference host.
pub const CONNS: usize = 2;
/// Seeded requests per serving trace (walked cyclically).
const TRACE_LEN: usize = 4096;
/// Requests the traced ladder replays at every rung.
const LADDER_LEN: usize = 2000;
/// Ladder length of `tenant_churn`, where most gets reload a tenant.
const CHURN_LADDER_LEN: usize = 120;

/// The set-up figures every workload reports.
fn setup_metrics(r: &mut Report, setups: &[(f64, f64, f64)], ingest_ms: &[Vec<f64>]) {
    let col = |i: usize| setups.iter().map(|s| [s.0, s.1, s.2][i]).collect::<Vec<_>>();
    r.set("setup_s", median(&col(0)));
    r.set("fit_s", median(&col(1)));
    r.set("impute_s", median(&col(2)));
    r.note(format!("setup_s over {} set-ups: {:?}", setups.len(), col(0)));
    r.note(format!("fit_s over {} set-ups: {:?}", setups.len(), col(1)));
    append_metrics(r, ingest_ms, "set-up ingest, back to back; median over set-ups");
    let n = ingest_ms.iter().map(Vec::len).sum::<usize>() as u64;
    r.phase("setup.ingest", Tally { sent: n, ok: n, ..Tally::default() });
}

/// `append_p50_ms` / `append_p90_ms`, each the median over `groups` of the
/// group's percentile.
fn append_metrics(r: &mut Report, groups: &[Vec<f64>], what: &str) {
    let (p50, tail) = (
        grouped_percentile(groups, 50.0).expect("append samples"),
        grouped_percentile(groups, load::TAIL).expect("append samples"),
    );
    r.set("append_p50_ms", p50.value);
    r.set("append_p90_ms", tail.value);
    r.note(format!("{} [{what}]", describe("append_p50_ms", &p50)));
    r.note(format!("{} [{what}]", describe("append_p90_ms", &tail)));
    tail_notes(r, "append", groups);
}

/// The unbounded deeper tail of a latency distribution, for the reader.
fn tail_notes(r: &mut Report, name: &str, groups: &[Vec<f64>]) {
    for q in [95.0, 99.0] {
        if let Some(p) = grouped_percentile(groups, q) {
            r.note(describe(&format!("{name} p{q}"), &p));
        }
    }
}

fn load_metrics(r: &mut Report, ops: &Samples, what: &str) {
    let sum = load::summarize(ops).expect("enough operations for the latency percentiles");
    r.set("throughput_rps", sum.rps);
    r.set("latency_p50_ms", sum.p50.value);
    r.set("latency_p90_ms", sum.tail.value);
    r.note(format!("throughput_rps = median of the slices {:?} [{what}]", sum.rates));
    r.note(format!("{} [{what}]", describe("latency_p50_ms", &sum.p50)));
    r.note(format!("{} [{what}]", describe("latency_p90_ms", &sum.tail)));
    tail_notes(r, "latency", &ops.groups());
}

fn finish(r: &mut Report) {
    let t = r.total();
    r.set("success_rate", t.ok as f64 / t.sent.max(1) as f64);
    r.set("peak_rss_mb", crate::report::peak_rss_mb());
}

/// A fitted, warmed, registered serving stack.
struct Served {
    setup: Setup,
    registry: Arc<ModelRegistry>,
}

fn serve_setup(ctx: &Ctx, shape: &ServeShape, capacity: usize, rep: usize) -> Served {
    let mut setup = setup::serving(ctx.seed, shape);
    let t0 = Instant::now();
    let registry = Arc::new(ModelRegistry::new(RegistryConfig::new(
        capacity,
        ctx.work.join(format!("spill-{rep}")),
    )));
    for t in &setup.tenants {
        registry.register(&t.name, Arc::clone(&t.engine)).expect("register tenant");
    }
    setup.total_s += t0.elapsed().as_secs_f64();
    Served { setup, registry }
}

/// Sets up `reps` times, keeping the last stack.
fn serve_reps(ctx: &Ctx, shape: &ServeShape, capacity: usize, r: &mut Report) -> Served {
    let (mut figures, mut ingest) = (Vec::new(), Vec::new());
    let mut last = None;
    for rep in 0..ctx.reps() {
        drop(last.take());
        let s = serve_setup(ctx, shape, capacity, rep);
        figures.push((s.setup.total_s, s.setup.fit_s, s.setup.impute_s));
        ingest.push(s.setup.ingest_ms.clone());
        last = Some(s);
    }
    let served = last.expect("at least one set-up");
    setup_metrics(r, &figures, &ingest);
    r.set("mae", served.setup.mae);
    served
}

fn bind(registry: &Arc<ModelRegistry>) -> NetServer {
    NetServer::bind_registry("127.0.0.1:0", Arc::clone(registry), ServerConfig::default())
        .expect("bind server")
}

/// `warm_read` and `tenant_churn`: closed-loop range queries over resident
/// (or churning) tenants, each reply checked bitwise against the reference.
fn serve_reads(
    ctx: &Ctx,
    tenants: usize,
    capacity: usize,
    skew: Option<f64>,
    ladder_len: usize,
    r: &mut Report,
) -> Vec<Vec<Span>> {
    let shape = ServeShape { tenants, future: 0, retention: None };
    let served = serve_reps(ctx, &shape, capacity, r);
    let names: Vec<String> = served.setup.tenants.iter().map(|t| t.name.clone()).collect();
    let refs: Vec<Arc<ImputationEngine>> =
        served.setup.tenants.iter().map(|t| reference(&t.engine)).collect();
    let mut rng = Rng::new(setup::sub_seed(ctx.seed, 300));
    let zipf = skew.map(|s| Zipf::new(tenants, s));
    let live = SERVE_T + setup::INGEST;
    let reqs: Vec<Request> = (0..TRACE_LEN)
        .map(|_| {
            let tenant = match &zipf {
                Some(z) => z.draw(&mut rng),
                None => rng.below(tenants),
            };
            range_query(&mut rng, tenant, SERVE_SERIES, live)
        })
        .collect();
    let want = Arc::new(expected(&reqs, &refs));
    let reqs = Arc::new(reqs);
    let server = bind(&served.registry);
    let addr = server.local_addr();
    let mut spans = Vec::new();

    if !ctx.traced {
        let results = closed_loop(addr, &names, &reqs, &want, CONNS, ctx.secs, false);
        let mut tally = Tally::default();
        let mut ops = Samples::new(ctx.secs);
        for c in results {
            tally.absorb(&c.tally);
            ops.absorb(&c.ops);
            for w in c.wrong.into_iter().take(5) {
                r.wrong(w);
            }
        }
        let reg = served.registry.stats();
        r.note(format!(
            "registry loads {} of {} gets ({:.1}% of requests found their tenant spilled), load failures {}",
            reg.loads,
            reg.loads + reg.hits,
            100.0 * reg.loads as f64 / (reg.loads + reg.hits).max(1) as f64,
            reg.load_failures
        ));
        let net = server.stats();
        r.note(format!("net requests served {} for {} sent", net.requests, tally.sent));
        r.phase("measure", tally);
        load_metrics(r, &ops, "closed loop, 2 NetClient connections");
    } else {
        // The workload's own loop, untraced then traced, for the overhead.
        let half = ctx.secs / 2.0;
        let probe = LoopProbe::start(&served.registry, &names, &server);
        let cpu0 = cpu_ms();
        let plain = closed_loop(addr, &names, &reqs, &want, CONNS, half, false);
        let cpu = cpu_ms() - cpu0;
        let traced = closed_loop(addr, &names, &reqs, &want, CONNS, half, true);
        let mut tally = Tally::default();
        let (mut ok_plain, mut ok_traced) = (0u64, 0u64);
        for c in &plain {
            tally.absorb(&c.tally);
            ok_plain += c.tally.ok;
        }
        for c in traced {
            tally.absorb(&c.tally);
            ok_traced += c.tally.ok;
            for w in c.wrong.into_iter().take(5) {
                r.wrong(w);
            }
            spans.push(c.spans);
        }
        r.set(
            "trace.overhead_pct",
            100.0 * (ok_plain as f64 - ok_traced as f64) / ok_plain.max(1) as f64,
        );
        r.set(
            "process.cpu_ms_per_op",
            cpu / plain.iter().map(|c| c.tally.sent).sum::<u64>().max(1) as f64,
        );
        probe.finish(r, tally.sent);
        r.set("engine.lock_wait_ms", layers::lock_wait_ms(&served.setup.tenants));
        r.phase("loop", tally);
        let resident: Vec<usize> =
            (0..tenants.min(capacity)).map(|k| tenants - 1 - k).rev().collect();
        let stack =
            Stack { names: &names, refs: &refs, registry: &served.registry, addr, resident };
        layers::all(
            ctx,
            &stack,
            &reqs[..ladder_len],
            &want[..ladder_len],
            &served.setup,
            r,
            &mut spans,
        );
    }
    server.shutdown();
    finish(r);
    spans
}

/// `warm_read`: 4 resident tenants, uniform traffic.
pub fn warm_read(ctx: &Ctx, r: &mut Report) -> Vec<Vec<Span>> {
    serve_reads(ctx, 4, 4, None, LADDER_LEN, r)
}

/// `tenant_churn`: 8 tenants behind a registry of capacity 2, Zipf-like
/// traffic.
pub fn tenant_churn(ctx: &Ctx, r: &mut Report) -> Vec<Vec<Span>> {
    serve_reads(ctx, 8, 2, Some(CHURN_SKEW), CHURN_LADDER_LEN, r)
}

/// Zipf exponent of `tenant_churn`'s tenant popularity.
pub const CHURN_SKEW: f64 = 1.2;

/// Open-loop append rate of `stream_ingest` (appends/s, over all series).
pub const STREAM_RATE: f64 = 200.0;
/// Tenants `stream_ingest` streams into (appends go round-robin over every
/// series of every tenant).
const STREAM_TENANTS: usize = 4;
/// The tail reader's pause between a reply and its next query.
const READ_THINK: Duration = Duration::from_micros(500);
/// Longest measurement the stream's ground truth covers (s).
const STREAM_MAX_SECS: f64 = 60.0;

/// The stream generator's shared state.
struct Stream {
    registry: Arc<ModelRegistry>,
    names: Vec<String>,
    truth: Vec<mvi_tensor::Tensor>,
    /// Appends issued so far (the next append's index).
    next: usize,
    /// Live length every series of every tenant has reached.
    committed: Arc<AtomicUsize>,
    /// Successful appends, in order: `(tenant, series, value)`.
    log: Vec<(usize, usize, f64)>,
}

impl Stream {
    /// Appends open-loop at [`STREAM_RATE`] for `secs`, each through
    /// `registry.get(tenant)?.append`, timed from its due time.
    fn run(
        &mut self,
        secs: f64,
        epoch: Instant,
        tracer: &mut Tracer,
        tally: &mut Tally,
        ops: &mut Samples,
    ) -> OpenLoop {
        let mut ol = OpenLoop::new(Duration::from_secs_f64(1.0 / STREAM_RATE));
        let start = Instant::now();
        let base = SERVE_T + setup::INGEST;
        let round = STREAM_TENANTS * SERVE_SERIES;
        let mut i = 0;
        while ol.due(i).as_secs_f64() < secs {
            let due = start + ol.due(i);
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let issued = start.elapsed();
            let n = self.next + i;
            let (k, s, t) = ((n % round) / SERVE_SERIES, n % SERVE_SERIES, base + n / round);
            let v = self.truth[k].series(s)[t];
            let root = tracer.begin("stream.append", None, n as u64);
            let g = tracer.begin("registry.get", Some(root), n as u64);
            let got = self.registry.get(&self.names[k]);
            tracer.end(g);
            let res = got.and_then(|e| {
                let a = tracer.begin("engine.append", Some(root), n as u64);
                let res = e.append(s, &[v]);
                tracer.end(a);
                res
            });
            tracer.end(root);
            let done = start.elapsed();
            ol.record(i, issued, done);
            match res {
                Ok(_) => {
                    tally.ok();
                    self.log.push((k, s, v));
                    ops.push(epoch.elapsed().as_secs_f64(), ms(done - issued));
                    if n % round == round - 1 {
                        self.committed.store(t + 1, Ordering::Release);
                    }
                }
                Err(e) => {
                    tally.fail(&serve_code(&e));
                    ops.push(epoch.elapsed().as_secs_f64(), f64::INFINITY);
                }
            }
            i += 1;
        }
        self.next += i;
        ol
    }
}

/// The closed-loop tail reader of `stream_ingest`.
struct TailReader {
    addr: std::net::SocketAddr,
    names: Vec<String>,
    /// Live length every series has reached.
    committed: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    seed: u64,
}

impl TailReader {
    /// Reads the freshest `[L - len, L)` of a random series of a random
    /// tenant, pausing [`READ_THINK`] between queries, until `stop`. Answers
    /// must be finite and of the right length.
    fn run(self, epoch: Instant, secs: f64, traced: bool) -> load::ConnResult {
        let TailReader { addr, names, committed, stop, seed } = self;
        let mut client = NetClient::new(addr, ClientConfig::default());
        let mut rng = Rng::new(seed);
        let mut tracer = Tracer::new(epoch, traced);
        let mut out = load::ConnResult {
            ops: Samples::new(secs),
            tally: Tally::default(),
            spans: Vec::new(),
            wrong: Vec::new(),
        };
        let mut k = 0u64;
        while !stop.load(Ordering::Acquire) {
            let live = committed.load(Ordering::Acquire);
            let len = load::MIN_LEN + rng.below(load::MAX_LEN - load::MIN_LEN + 1);
            let (tenant, s) = (rng.below(names.len()), rng.below(SERVE_SERIES));
            client.set_tenant(names[tenant].as_str());
            let span = tracer.begin("net.query", None, k);
            let t0 = Instant::now();
            let got = client.query(s as u32, (live - len) as u32, live as u32);
            let lat = ms(t0.elapsed());
            tracer.end(span);
            let done = epoch.elapsed().as_secs_f64();
            match got {
                Ok(v) if v.len() == len && v.iter().all(|x| x.is_finite()) => {
                    out.tally.ok();
                    out.ops.push(done, lat);
                }
                Ok(v) => {
                    out.tally.fail("mismatch");
                    out.wrong.push(format!(
                        "tail read of {} series {s} at {live}: {} values, finite: {}",
                        names[tenant],
                        v.len(),
                        v.iter().all(|x| x.is_finite())
                    ));
                    out.ops.push(done, f64::INFINITY);
                }
                Err(e) => {
                    out.tally.fail(&load::net_code(&e));
                    out.ops.push(done, f64::INFINITY);
                }
            }
            k += 1;
            std::thread::sleep(READ_THINK);
        }
        out.spans = tracer.into_spans();
        out
    }
}

/// What one stream phase produced.
struct StreamPhase {
    /// The generator's open-loop record.
    appends: OpenLoop,
    /// Append accounting.
    tally: Tally,
    /// Appends' service times by completion time.
    ops: Samples,
    /// The generator's spans, when traced.
    spans: Vec<Span>,
    /// The tail reader's result.
    read: load::ConnResult,
}

/// One stream phase: the generator on this thread, the reader on another.
fn stream_phase(
    stream: &mut Stream,
    addr: std::net::SocketAddr,
    secs: f64,
    seed: u64,
    traced: bool,
) -> StreamPhase {
    let epoch = Instant::now();
    let stop = Arc::new(AtomicBool::new(false));
    let reader = TailReader {
        addr,
        names: stream.names.clone(),
        committed: Arc::clone(&stream.committed),
        stop: Arc::clone(&stop),
        seed,
    };
    let reader = std::thread::spawn(move || reader.run(epoch, secs, traced));
    let mut tracer = Tracer::new(epoch, traced);
    let (mut tally, mut ops) = (Tally::default(), Samples::new(secs));
    let appends = stream.run(secs, epoch, &mut tracer, &mut tally, &mut ops);
    stop.store(true, Ordering::Release);
    let read = reader.join().expect("reader thread");
    StreamPhase { appends, tally, ops, spans: tracer.into_spans(), read }
}

/// `stream_ingest`: open-loop appends to every series beside a closed-loop
/// tail reader, on retention-ring engines.
pub fn stream_ingest(ctx: &Ctx, r: &mut Report) -> Vec<Vec<Span>> {
    assert!(ctx.secs <= STREAM_MAX_SECS, "stream_ingest measures at most {STREAM_MAX_SECS} s");
    let future =
        (STREAM_RATE * (STREAM_MAX_SECS + 1.0)) as usize / (STREAM_TENANTS * SERVE_SERIES) + 1;
    let shape = ServeShape { tenants: STREAM_TENANTS, future, retention: Some(SERVE_T) };
    let served = serve_reps(ctx, &shape, STREAM_TENANTS, r);
    let names: Vec<String> = served.setup.tenants.iter().map(|t| t.name.clone()).collect();
    let refs: Vec<Arc<ImputationEngine>> =
        served.setup.tenants.iter().map(|t| reference(&t.engine)).collect();
    let server = bind(&served.registry);
    let addr = server.local_addr();
    let mut stream = Stream {
        registry: Arc::clone(&served.registry),
        names: names.clone(),
        truth: served.setup.tenants.iter().map(|t| t.truth.clone()).collect(),
        next: 0,
        committed: Arc::new(AtomicUsize::new(SERVE_T + setup::INGEST)),
        log: Vec::new(),
    };
    let read_seed = setup::sub_seed(ctx.seed, 400);
    let mut spans = Vec::new();
    let appends = if !ctx.traced {
        let p = stream_phase(&mut stream, addr, ctx.secs, read_seed, false);
        r.phase("stream.append", p.tally);
        let mut ops = p.ops;
        ops.absorb(&p.read.ops);
        for w in p.read.wrong.into_iter().take(5) {
            r.wrong(w);
        }
        r.phase("stream.read", p.read.tally);
        let sum = load::summarize(&ops).expect("stream ops");
        r.set("throughput_rps", sum.rps);
        r.note(format!(
            "throughput_rps = appends + tail reads per second, median of the slices {:?}",
            sum.rates
        ));
        let read = load::summarize(&p.read.ops).expect("enough tail reads");
        r.set("latency_p50_ms", read.p50.value);
        r.set("latency_p90_ms", read.tail.value);
        let what = "tail reads, 1 NetClient connection";
        r.note(format!("{} [{what}]", describe("latency_p50_ms", &read.p50)));
        r.note(format!("{} [{what}]", describe("latency_p90_ms", &read.tail)));
        tail_notes(r, "latency", &p.read.ops.groups());
        let mut by_due = Samples::new(ctx.secs);
        for (i, &l) in p.appends.latency_ms.iter().enumerate() {
            by_due.push(p.appends.due(i).as_secs_f64(), l);
        }
        append_metrics(
            r,
            &by_due.groups(),
            &format!("open loop at {STREAM_RATE}/s, timed from the due time"),
        );
        p.appends
    } else {
        let half = ctx.secs / 2.0;
        let probe = LoopProbe::start(&served.registry, &names, &server);
        let cpu0 = cpu_ms();
        let plain = stream_phase(&mut stream, addr, half, read_seed, false);
        let cpu = cpu_ms() - cpu0;
        let traced = stream_phase(&mut stream, addr, half, read_seed ^ 1, true);
        let ok = |p: &StreamPhase| (p.tally.ok + p.read.tally.ok) as f64;
        r.set("trace.overhead_pct", 100.0 * (ok(&plain) - ok(&traced)) / ok(&plain).max(1.0));
        r.set(
            "process.cpu_ms_per_op",
            cpu / (plain.tally.sent + plain.read.tally.sent).max(1) as f64,
        );
        probe.finish(r, plain.read.tally.sent + traced.read.tally.sent);
        r.set("engine.lock_wait_ms", layers::lock_wait_ms(&served.setup.tenants));
        let append_us: Vec<f64> = traced
            .spans
            .iter()
            .filter(|s| s.name == "engine.append")
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        r.set("engine.append_us", median(&append_us));
        r.note(format!("engine.append_us from {} stream appends", append_us.len()));
        let mut tally = Tally::default();
        for p in [&plain, &traced] {
            tally.absorb(&p.tally);
            tally.absorb(&p.read.tally);
        }
        for w in plain.read.wrong.into_iter().chain(traced.read.wrong).take(5) {
            r.wrong(w);
        }
        r.phase("loop", tally);
        spans.push(traced.spans);
        spans.push(traced.read.spans);
        traced.appends
    };
    let late = sorted(&appends.late_ms);
    if let (Some(p50), Some(p99)) = (percentile(&late, 50.0), percentile(&late, 99.0)) {
        r.note(format!(
            "generator lateness p50 {:.4} ms, p{:.2} {:.4} ms over {} appends",
            p50.value, p99.pct, p99.value, p99.n
        ));
    }

    // Quiet: replay the same appends into the references, then every
    // series' tail over the wire must match them bitwise.
    for &(k, s, v) in &stream.log {
        refs[k].append(s, &[v]).expect("reference append");
    }
    let live = stream.committed.load(Ordering::Acquire);
    let mut client = NetClient::new(addr, ClientConfig::default());
    let mut quiet = Tally::default();
    for (k, name) in names.iter().enumerate() {
        client.set_tenant(name.as_str());
        for s in 0..SERVE_SERIES {
            let want = refs[k].query(s, live - load::MAX_LEN, live).expect("reference tail");
            match client.query(s as u32, (live - load::MAX_LEN) as u32, live as u32) {
                Ok(got) if same_bits(&got, &want) => quiet.ok(),
                Ok(_) => {
                    quiet.fail("mismatch");
                    r.wrong(format!(
                        "quiet tail of {name} series {s} differs from the reference engine"
                    ));
                }
                Err(e) => quiet.fail(&load::net_code(&e)),
            }
        }
    }
    r.phase("quiet_check", quiet);

    if ctx.traced {
        let reqs: Vec<Request> = {
            let mut rng = Rng::new(setup::sub_seed(ctx.seed, 500));
            (0..LADDER_LEN)
                .map(|_| {
                    let len = load::MIN_LEN + rng.below(load::MAX_LEN - load::MIN_LEN + 1);
                    Request {
                        tenant: rng.below(STREAM_TENANTS),
                        s: rng.below(SERVE_SERIES),
                        lo: live - len,
                        hi: live,
                    }
                })
                .collect()
        };
        let want = expected(&reqs, &refs);
        let stack = Stack {
            names: &names,
            refs: &refs,
            registry: &served.registry,
            addr,
            resident: (0..STREAM_TENANTS).collect(),
        };
        layers::all(ctx, &stack, &reqs, &want, &served.setup, r, &mut spans);
    }
    server.shutdown();
    finish(r);
    spans
}

/// `offline_impute`: fit on JanataHack under Blackout, then batch-impute
/// repeatedly; no server involved in the measured loop.
pub fn offline_impute(ctx: &Ctx, r: &mut Report) -> Vec<Vec<Span>> {
    let (mut figures, mut ingest) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..ctx.reps() {
        drop(last.take());
        let o = setup::offline(ctx.seed);
        figures.push((o.setup.total_s, o.setup.fit_s, o.setup.impute_s));
        ingest.push(o.setup.ingest_ms.clone());
        last = Some(o);
    }
    let off = last.expect("at least one set-up");
    setup_metrics(r, &figures, &ingest);
    let mae = off.setup.mae;
    r.set("mae", mae);
    if !mae.is_finite() {
        r.wrong(format!("mae is not finite: {mae}"));
    }
    let tenant = &off.setup.tenants[0];
    let truth = tenant.truth.truncated_time(setup::OFFLINE_T);
    let mut spans = Vec::new();

    // The measured loop: full batch imputations, each checked against the
    // set-up's imputation (training and inference are deterministic).
    let run_loop = |secs: f64, traced: bool| {
        let epoch = Instant::now();
        let mut tracer = Tracer::new(epoch, traced);
        let (mut tally, mut ops, mut wrong) = (Tally::default(), Samples::new(secs), Vec::new());
        let mut k = 0u64;
        while epoch.elapsed().as_secs_f64() < secs {
            let span = tracer.begin("impute", None, k);
            let t0 = Instant::now();
            let imputed = off.model.impute(&tenant.obs);
            let lat = ms(t0.elapsed());
            tracer.end(span);
            let got = mvi_data::metrics::mae(&truth, &imputed, &tenant.missing);
            if got.to_bits() == mae.to_bits() {
                tally.ok();
                ops.push(epoch.elapsed().as_secs_f64(), lat);
            } else {
                tally.fail("mismatch");
                wrong.push(format!("batch imputation {k} scored mae {got}, set-up scored {mae}"));
                ops.push(epoch.elapsed().as_secs_f64(), f64::INFINITY);
            }
            k += 1;
        }
        (tally, ops, wrong, tracer.into_spans())
    };

    if !ctx.traced {
        let (tally, ops, wrong, _) = run_loop(ctx.secs, false);
        for w in wrong.into_iter().take(5) {
            r.wrong(w);
        }
        r.phase("measure", tally);
        load_metrics(r, &ops, "back-to-back batch imputations");
        let lat: Vec<f64> = ops.all().iter().map(|ms| ms / 1e3).collect();
        r.set("impute_s", median(&lat));
        r.note(format!("impute_s = median of {} batch imputations", lat.len()));
    } else {
        let half = ctx.secs / 2.0;
        let cpu0 = cpu_ms();
        let (t1, _, _, _) = run_loop(half, false);
        let cpu = cpu_ms() - cpu0;
        let (t2, _, wrong, loop_spans) = run_loop(half, true);
        for w in wrong.into_iter().take(5) {
            r.wrong(w);
        }
        r.set("trace.overhead_pct", 100.0 * (t1.ok as f64 - t2.ok as f64) / t1.ok.max(1) as f64);
        r.set("process.cpu_ms_per_op", cpu / t1.sent.max(1) as f64);
        let mut tally = t1;
        tally.absorb(&t2);
        r.phase("loop", tally);
        spans.push(loop_spans);

        // The offline model's serving view: the ingest engine behind a
        // registry and a front door, for the layer ladder.
        let names = vec![tenant.name.clone()];
        let refs = vec![reference(&tenant.engine)];
        let registry =
            Arc::new(ModelRegistry::new(RegistryConfig::new(1, ctx.work.join("spill-offline"))));
        registry.register(&tenant.name, Arc::clone(&tenant.engine)).expect("register");
        let server = bind(&registry);
        let live = setup::OFFLINE_T + setup::OFFLINE_INGEST;
        let n_series = tenant.obs.n_series();
        let mut rng = Rng::new(setup::sub_seed(ctx.seed, 600));
        let reqs: Vec<Request> =
            (0..LADDER_LEN).map(|_| range_query(&mut rng, 0, n_series, live)).collect();
        let want = expected(&reqs, &refs);
        let probe = LoopProbe::start(&registry, &names, &server);
        let mut view = Tally::default();
        for c in closed_loop(
            server.local_addr(),
            &names,
            &Arc::new(reqs.clone()),
            &Arc::new(want.clone()),
            CONNS,
            0.5,
            false,
        ) {
            view.absorb(&c.tally);
        }
        probe.finish(r, view.sent);
        r.phase("serving_view", view);
        r.set("engine.lock_wait_ms", layers::lock_wait_ms(&off.setup.tenants));
        let stack = Stack {
            names: &names,
            refs: &refs,
            registry: &registry,
            addr: server.local_addr(),
            resident: vec![0],
        };
        layers::all(ctx, &stack, &reqs, &want, &off.setup, r, &mut spans);
        server.shutdown();
    }
    finish(r);
    spans
}
