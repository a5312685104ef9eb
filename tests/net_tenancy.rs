//! Cross-tenant isolation over the wire: many models behind one front door
//! ([`NetServer::bind_registry`]), routed by the frame-v2 tenant id.
//!
//! The contracts pinned here:
//!
//! * **routing is bitwise** — each tenant's replies are identical to direct
//!   queries against its own model, and distinct models produce distinct
//!   values (so a routing mixup cannot hide);
//! * **isolation is real** — a hostile tenant armed to panic its model and
//!   flooding its own micro-batcher changes nothing about a victim tenant's
//!   replies (proof is progress-gated: panics must actually land first);
//! * **v1 peers still work** — a pre-tenancy client speaks version 1 on the
//!   raw socket and lands on the default tenant;
//! * **a reload does not stall the neighbours** — rebuilding a tenant's
//!   stale door waits for its old worker outside the shared door lock, so
//!   other tenants keep answering while that worker is stuck;
//! * **registry states cross the wire typed** — unknown, mid-load and full
//!   answer with their own error codes on a connection that stays open, and
//!   the client keeps its cached connection through all three (the drop-set
//!   is exactly overload/shutdown).

use deepmvi::{DeepMviConfig, DeepMviModel};
use mvi_data::dataset::ObservedDataset;
use mvi_data::generators::{generate_with_shape, DatasetName};
use mvi_data::scenarios::Scenario;
use mvi_net::frame::{encode_versioned, read_frame_versioned, V1};
use mvi_net::{
    ClientConfig, ErrorCode, Frame, NetClient, NetServer, RetryPolicy, ServerConfig,
    DEFAULT_MAX_FRAME, DEFAULT_TENANT,
};
use mvi_serve::{ImputationEngine, ModelRegistry, RegistryConfig, ServeSnapshot, ValueGuard};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

const SERIES: usize = 2;
const T_LEN: usize = 80;
const SEEDS: usize = 2;

struct Fixture {
    obs: ObservedDataset,
    snapshot_json: String,
}

fn fixture(seed: usize) -> &'static Fixture {
    static FIX: OnceLock<Vec<OnceLock<Fixture>>> = OnceLock::new();
    let all = FIX.get_or_init(|| (0..SEEDS).map(|_| OnceLock::new()).collect());
    all[seed % SEEDS].get_or_init(|| {
        let ds = generate_with_shape(DatasetName::Electricity, &[SERIES], T_LEN, 41 + seed as u64);
        let obs = Scenario::mcar(0.85).apply(&ds, 13 + seed as u64).observed();
        let cfg = DeepMviConfig { max_steps: 6, ..DeepMviConfig::tiny() };
        let mut model = DeepMviModel::new(&cfg, &obs);
        model.fit(&obs);
        let snapshot_json = ServeSnapshot::capture(&model, &obs).to_json();
        Fixture { obs, snapshot_json }
    })
}

fn engine(seed: usize) -> Arc<ImputationEngine> {
    let fix = fixture(seed);
    let snap = ServeSnapshot::from_json(&fix.snapshot_json).expect("fixture snapshot parses");
    let frozen = snap.restore(&fix.obs).expect("fixture model restores");
    Arc::new(ImputationEngine::new(frozen, fix.obs.clone()).expect("fixture engine builds"))
}

struct SpillDir(PathBuf);

impl SpillDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        SpillDir(std::env::temp_dir().join(format!("mvi-tenancy-{}-{tag}-{n}", std::process::id())))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn registry_with(capacity: usize, dir: &SpillDir, tenants: &[(&str, usize)]) -> Arc<ModelRegistry> {
    let reg = Arc::new(ModelRegistry::new(RegistryConfig::new(capacity, &dir.0)));
    for &(name, seed) in tenants {
        reg.register(name, engine(seed)).expect("fixture tenant registers");
    }
    reg
}

fn no_retry() -> ClientConfig {
    ClientConfig { retry: RetryPolicy::none(), ..ClientConfig::default() }
}

fn wait_until(deadline: Duration, mut ok: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if ok() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    ok()
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

// ---------------------------------------------------------------------------
// Routing: per-tenant replies are bitwise their own model's
// ---------------------------------------------------------------------------

#[test]
fn tenants_route_to_their_own_models_bitwise() {
    let dir = SpillDir::new("route");
    let reg = registry_with(4, &dir, &[("acme", 0), ("globex", 1)]);
    let server = NetServer::bind_registry("127.0.0.1:0", reg, ServerConfig::default()).unwrap();

    let oracles = [engine(0), engine(1)];
    let mut acme = NetClient::with_tenant(server.local_addr(), "acme", no_retry());
    let mut globex = NetClient::with_tenant(server.local_addr(), "globex", no_retry());

    for (s, start, end) in [(0u32, 0u32, 40u32), (1, 10, T_LEN as u32)] {
        let a = acme.query(s, start, end).unwrap();
        let g = globex.query(s, start, end).unwrap();
        let (sa, sb, se) = (s as usize, start as usize, end as usize);
        assert!(bitwise_eq(&a, &oracles[0].query(sa, sb, se).unwrap()), "acme diverged");
        assert!(bitwise_eq(&g, &oracles[1].query(sa, sb, se).unwrap()), "globex diverged");
        // The two models are trained on differently-seeded data: identical
        // replies would mean the router collapsed the tenants.
        assert!(
            !bitwise_eq(&a, &g),
            "distinct tenants answered identically for ({s},{start},{end})"
        );
    }
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Isolation: a hostile tenant cannot touch a victim's replies
// ---------------------------------------------------------------------------

#[test]
fn hostile_tenant_panics_and_floods_without_perturbing_the_victim() {
    let dir = SpillDir::new("hostile");
    let reg = Arc::new(ModelRegistry::new(RegistryConfig::new(4, &dir.0)));
    reg.register("victim", engine(0)).unwrap();
    // The hostile model is armed: every forward pass panics its worker.
    let mal = engine(1);
    mal.set_eval_hook(Some(Box::new(|_results| panic!("armed hostile model"))));
    reg.register("mallory", mal).unwrap();

    let server = NetServer::bind_registry("127.0.0.1:0", reg, ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // Baseline: the victim's replies before any hostility.
    let mut victim = NetClient::with_tenant(addr, "victim", no_retry());
    let baseline: Vec<Vec<f64>> =
        (0..SERIES as u32).map(|s| victim.query(s, 0, T_LEN as u32).unwrap()).collect();

    // The storm: two hostile connections hammering the armed model.
    let stop = Arc::new(AtomicBool::new(false));
    let hostiles: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = NetClient::with_tenant(addr, "mallory", no_retry());
                let mut panicked = 0u64;
                while !stop.load(Ordering::Acquire) {
                    match client.query(0, 0, T_LEN as u32) {
                        Err(e) if e.code() == Some(ErrorCode::Panicked) => panicked += 1,
                        _ => {}
                    }
                }
                panicked
            })
        })
        .collect();

    // Progress gate: the drill only proves isolation once panics actually
    // land in mallory's supervisor.
    assert!(
        wait_until(Duration::from_secs(20), || server.panics_caught().unwrap_or(0) >= 3),
        "the armed model must actually panic for the drill to mean anything"
    );

    // Mid-storm, the victim's replies are bitwise the baseline.
    for (s, want) in baseline.iter().enumerate() {
        let got = victim.query(s as u32, 0, T_LEN as u32).unwrap();
        assert!(bitwise_eq(want, &got), "hostile neighbor perturbed victim series {s}");
    }
    let victim_health = server.registry().tenant_health("victim").unwrap();
    assert_eq!(victim_health.poison_recoveries, 0, "victim engine saw the neighbor's panics");

    stop.store(true, Ordering::Release);
    let caught: u64 = hostiles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(caught >= 3, "hostile clients must have seen their own typed Panicked replies");

    // And after the storm the victim is still bitwise stable.
    let after = victim.query(0, 0, T_LEN as u32).unwrap();
    assert!(bitwise_eq(&baseline[0], &after));
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Back-compat: version-1 peers land on the default tenant
// ---------------------------------------------------------------------------

#[test]
fn v1_clients_decode_and_land_on_the_default_tenant() {
    let dir = SpillDir::new("v1");
    let reg = registry_with(2, &dir, &[(DEFAULT_TENANT, 0), ("other", 1)]);
    let server = NetServer::bind_registry("127.0.0.1:0", reg, ServerConfig::default()).unwrap();
    let oracle = engine(0).query(0, 0, 40).unwrap();

    // A pre-tenancy peer: raw v1 bytes on the socket, no tenant field at all.
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let query = Frame::Query { tenant: String::new(), s: 0, start: 0, end: 40 };
    sock.write_all(&encode_versioned(&query, V1)).unwrap();
    let (reply, version) = read_frame_versioned(&mut sock, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(version, V1, "a v1 request must be answered in v1");
    match reply {
        Frame::Values { tenant, values } => {
            assert_eq!(tenant, "", "v1 replies carry no tenant");
            assert!(bitwise_eq(&values, &oracle), "v1 must route to the default tenant's model");
        }
        other => panic!("expected values, got {other:?}"),
    }

    // The same bytes keep working for health probes.
    sock.write_all(&encode_versioned(&Frame::HealthReq { tenant: String::new() }, V1)).unwrap();
    let (reply, version) = read_frame_versioned(&mut sock, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(version, V1);
    assert!(matches!(reply, Frame::Health { .. }), "v1 health probe must answer: {reply:?}");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Typed registry states on a live connection
// ---------------------------------------------------------------------------

#[test]
fn unknown_tenants_get_a_typed_reply_and_the_connection_survives() {
    let dir = SpillDir::new("unknown");
    let reg = registry_with(2, &dir, &[("acme", 0)]);
    let server = NetServer::bind_registry("127.0.0.1:0", reg, ServerConfig::default()).unwrap();

    let mut client = NetClient::with_tenant(server.local_addr(), "nobody", no_retry());
    let err = client.query(0, 0, 10).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::UnknownTenant), "must be typed: {err}");
    assert!(!err.retryable(), "an unknown tenant will not appear by retrying");
    let err = client.health().unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::UnknownTenant), "health too: {err}");

    // The connection survived both errors: retargeting the same client to a
    // real tenant reuses it (the server accepted exactly one socket).
    client.set_tenant("acme");
    assert_eq!(client.query(0, 0, 10).unwrap().len(), 10);
    assert_eq!(server.stats().accepted, 1, "typed errors must not cost the connection");
    server.shutdown();
}

#[test]
fn loading_and_full_cross_the_wire_typed_while_connections_stay_cached() {
    let dir = SpillDir::new("gate");
    std::fs::create_dir_all(&dir.0).unwrap();
    let reg = Arc::new(ModelRegistry::new(RegistryConfig::new(1, &dir.0)));
    reg.register("a", engine(0)).unwrap();
    // `b` starts cold on disk; its first request triggers the gated load.
    let cold = dir.0.join("b.mvisnap");
    engine(1).snapshot_to_path(&cold).unwrap();
    reg.register_spilled("b", &cold).unwrap();

    let release = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(Barrier::new(2));
    let (rel, ent) = (Arc::clone(&release), Arc::clone(&entered));
    reg.set_load_hook(Some(Box::new(move |_| {
        ent.wait();
        while !rel.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
    })));

    let server =
        NetServer::bind_registry("127.0.0.1:0", Arc::clone(&reg), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // The first request for `b` runs the load on its connection thread and
    // parks in the hook — with capacity 1 the load's slot evicted `a`.
    let loader =
        std::thread::spawn(move || NetClient::with_tenant(addr, "b", no_retry()).query(0, 0, 10));
    entered.wait();
    assert_eq!(reg.stats().loading, 1);

    // A second client racing `b`'s load: typed, retryable, connection kept.
    let mut racer = NetClient::with_tenant(addr, "b", no_retry());
    let err = racer.query(0, 0, 10).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::TenantLoading), "must be typed: {err}");
    assert!(err.retryable(), "a mid-load tenant is safe to retry");
    assert!(err.retry_after().is_some(), "loading replies carry the backoff hint");

    // `a` was evicted for the load and cannot reload while the only slot is
    // pinned: that is the full signal, typed and not blindly retryable.
    let mut evicted = NetClient::with_tenant(addr, "a", no_retry());
    let err = evicted.query(0, 0, 10).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::RegistryFull), "must be typed: {err}");
    assert!(!err.retryable(), "full is a capacity decision, not a transient");

    release.store(true, Ordering::Release);
    reg.set_load_hook(None);
    assert_eq!(loader.join().unwrap().unwrap().len(), 10, "the gated load must complete");

    // Both refused clients proceed on their cached connections once the
    // load lands (the hygiene contract: the drop-set is overload/shutdown
    // only, so three clients means exactly three accepted sockets).
    assert_eq!(racer.query(0, 0, 10).unwrap().len(), 10);
    assert_eq!(evicted.query(0, 0, 10).unwrap().len(), 10);
    assert_eq!(
        server.stats().accepted,
        3,
        "typed loading/full replies must not cost anyone their connection"
    );
    server.shutdown();
}

#[test]
fn a_stalled_stale_door_does_not_block_other_tenants_lookups() {
    let dir = SpillDir::new("stale-door");
    let reg = registry_with(4, &dir, &[("b", 1)]);
    // `a`'s first engine stalls inside its forward pass until released.
    let old = engine(0);
    let release = Arc::new(AtomicBool::new(false));
    // Released on every exit, so a failed assertion cannot leave the server's
    // shutdown joining a worker that never wakes.
    struct Release(Arc<AtomicBool>);
    impl Drop for Release {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let guard = Release(Arc::clone(&release));
    let entered = Arc::new(Barrier::new(2));
    let (rel, ent) = (Arc::clone(&release), Arc::clone(&entered));
    let mut first = true;
    old.set_eval_hook(Some(Box::new(move |_| {
        if std::mem::take(&mut first) {
            ent.wait();
            while !rel.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    })));
    reg.register("a", old).unwrap();
    let server =
        NetServer::bind_registry("127.0.0.1:0", Arc::clone(&reg), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut b = NetClient::with_tenant(addr, "b", no_retry());
    let want_b = b.query(0, 0, T_LEN as u32).unwrap();

    // A cold query parks `a`'s worker in the hook.
    let stalled = std::thread::spawn(move || {
        NetClient::with_tenant(addr, "a", no_retry()).query(0, 0, T_LEN as u32)
    });
    entered.wait();

    // Re-registering `a` makes its door stale; the next `a` request rebuilds
    // it, and dropping the old door waits for the stalled worker.
    let new = engine(0);
    reg.register("a", Arc::clone(&new)).unwrap();
    let rebuild =
        std::thread::spawn(move || NetClient::with_tenant(addr, "a", no_retry()).query(1, 0, 10));
    // Held by the test, the registry and the rebuild's new batcher: the
    // rebuild is swapping the doors, and then drops the stale one.
    assert!(
        wait_until(Duration::from_secs(10), || Arc::strong_count(&new) >= 4),
        "the rebuild must reach the new door"
    );
    std::thread::sleep(Duration::from_millis(50));

    let (tx, rx) = std::sync::mpsc::channel();
    let probe = std::thread::spawn(move || {
        let t0 = Instant::now();
        let got = b.query(0, 0, T_LEN as u32);
        let _ = tx.send(());
        (got, t0.elapsed())
    });
    let answered = rx.recv_timeout(Duration::from_secs(5)).is_ok();
    drop(guard);
    let (got, took) = probe.join().unwrap();
    assert!(answered, "tenant `b` waited {took:?} behind `a`'s stale door");
    assert!(bitwise_eq(&got.unwrap(), &want_b));

    let _ = stalled.join().unwrap();
    assert_eq!(rebuild.join().unwrap().unwrap().len(), 10, "the rebuilt door serves `a`");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Health: per-tenant and aggregate views over the wire
// ---------------------------------------------------------------------------

#[test]
fn health_frames_are_per_tenant_with_an_aggregate_default_view() {
    let dir = SpillDir::new("health");
    let (a, b) = (engine(0), engine(1));
    for (eng, spikes) in [(&a, 3u64), (&b, 5u64)] {
        eng.set_value_guard(Some(ValueGuard { abs_max: Some(100.0), max_jump: None }));
        for _ in 0..spikes {
            eng.append(0, &[1.0, 5000.0, 2.0]).unwrap();
        }
    }
    let reg = Arc::new(ModelRegistry::new(RegistryConfig::new(4, &dir.0)));
    reg.register("acme", a).unwrap();
    reg.register("globex", b).unwrap();
    let server = NetServer::bind_registry("127.0.0.1:0", reg, ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut acme = NetClient::with_tenant(addr, "acme", no_retry());
    let mut globex = NetClient::with_tenant(addr, "globex", no_retry());
    let mut wildcard = NetClient::new(addr, no_retry());

    assert_eq!(acme.health().unwrap().quarantined, 3, "acme sees only its own counters");
    assert_eq!(globex.health().unwrap().quarantined, 5, "globex sees only its own counters");
    let whole = wildcard.health().unwrap();
    assert_eq!(whole.quarantined, 8, "the default view aggregates every tenant");
    assert_eq!(whole.active_connections, 3);
    assert!(!whole.draining);
    server.shutdown();
}
