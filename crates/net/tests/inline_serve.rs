//! The reactor answers memory-tier hits on its loop thread and defers
//! everything else to its worker pool. These tests hold the two
//! paths (and the two engines) against each other: whichever way a
//! request is served, every stat, counter and span must come out the
//! same.

use std::sync::Arc;

use dvm_classfile::ClassBuilder;
use dvm_net::{Hello, NetClassProvider, NetConfig, ProxyServer, ServerConfig, ServerStats};
use dvm_proxy::{MapOrigin, Pipeline, Proxy, Signer};
use dvm_telemetry::{SpanId, TraceContext, TraceId};

const KEY: &[u8] = b"inline-serve-org";
const WARM: &str = "class://t/Warm";
const COLD: &str = "class://t/Cold";

fn proxy() -> Arc<Proxy> {
    let mut origin = MapOrigin::new();
    for url in [WARM, COLD] {
        let name = url.trim_start_matches("class://");
        origin.insert(url, ClassBuilder::new(name).build().to_bytes().unwrap());
    }
    Arc::new(Proxy::new(
        Box::new(origin),
        Pipeline::new(),
        1 << 20,
        true,
        Some(Signer::new(KEY)),
    ))
}

fn serve(proxy: &Arc<Proxy>, config: ServerConfig) -> ProxyServer {
    ProxyServer::bind("127.0.0.1:0", proxy.clone(), None, config).unwrap()
}

fn client(server: &ProxyServer) -> NetClassProvider {
    let hello = Hello {
        user: "inline".into(),
        ..Hello::default()
    };
    NetClassProvider::new(
        server.addr(),
        hello,
        Some(Signer::new(KEY)),
        NetConfig::default(),
    )
    .unwrap()
}

/// Every counter a fetch can move, flattened to `name → value` so two
/// snapshots subtract and compare as a whole. The servers all sit over
/// `proxy` and so share its telemetry plane; their `ServerStats` are
/// summed.
fn counters(proxy: &Proxy, servers: &[&ProxyServer]) -> Vec<(String, u64)> {
    let snap = proxy.telemetry().registry().snapshot();
    let mut out: Vec<(String, u64)> = snap
        .counters
        .iter()
        .filter(|(name, _)| !name.starts_with("reactor."))
        .map(|(name, v)| (name.clone(), *v))
        .collect();
    for name in ["net.server.serve_ns", "proxy.request_ns"] {
        let count = snap.histograms.get(name).map_or(0, |h| h.count);
        out.push((format!("{name}.count"), count));
    }
    let p = proxy.stats();
    let c = proxy.cache_stats();
    let server_sum = |field: fn(&ServerStats) -> u64| -> u64 {
        servers.iter().map(|server| field(&server.stats())).sum()
    };
    for (name, v) in [
        ("ProxyStats.requests", p.requests),
        ("ProxyStats.bytes_served", p.bytes_served),
        ("ProxyStats.rewrites", p.rewrites),
        ("ProxyStats.ir_served", p.ir_served),
        ("CacheStats.memory_hits", c.memory_hits),
        ("CacheStats.disk_hits", c.disk_hits),
        ("CacheStats.misses", c.misses),
        ("ServerStats.requests", server_sum(|s| s.requests)),
        ("ServerStats.responses", server_sum(|s| s.responses)),
        ("ServerStats.errors", server_sum(|s| s.errors)),
        ("audit_total", proxy.audit_total()),
    ] {
        out.push((name.to_owned(), v));
    }
    out
}

fn delta(before: &[(String, u64)], after: &[(String, u64)]) -> Vec<(String, u64)> {
    after
        .iter()
        .map(|(name, v)| {
            let was = before
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, b)| *b);
            (name.clone(), v - was)
        })
        .filter(|(_, d)| *d > 0)
        .collect()
}

fn get(delta: &[(String, u64)], name: &str) -> u64 {
    delta.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
}

/// Worker completions the loop has delivered: one per request that went
/// through the pool, none for one answered inline.
fn pool_completions(server: &ProxyServer) -> u64 {
    server
        .telemetry()
        .registry()
        .snapshot()
        .histograms
        .get("reactor.wakeup_ns")
        .map_or(0, |h| h.count)
}

#[test]
fn inline_and_pooled_fetches_account_alike() {
    // The reference warm fetch is served by a blocking-engine server
    // over the same proxy: it answers every request with `execute_plan`,
    // the same function the reactor's pool runs.
    let proxy = proxy();
    let server = serve(&proxy, ServerConfig::default());
    let blocking = serve(
        &proxy,
        ServerConfig {
            reactor: false,
            ..ServerConfig::default()
        },
    );
    let both = [&server, &blocking];
    let mut c = client(&server);
    let mut b = client(&blocking);
    c.fetch(WARM).unwrap(); // the rewrite
    b.fetch(WARM).unwrap(); // connects the reference client

    let (c0, p0) = (counters(&proxy, &both), pool_completions(&server));
    let (inline_bytes, _) = c.fetch(WARM).unwrap(); // reactor: inline
    let (c1, p1) = (counters(&proxy, &both), pool_completions(&server));
    let answered = |s: &ProxyServer| s.stats().responses;
    let (r1, b1) = (answered(&server), answered(&blocking));
    let (pooled_bytes, _) = b.fetch(WARM).unwrap(); // blocking: execute_plan
    let (c2, p2) = (counters(&proxy, &both), pool_completions(&server));
    let (r2, b2) = (answered(&server), answered(&blocking));
    let _ = c.fetch(COLD).unwrap(); // reactor: a miss, pool
    let (c3, p3) = (counters(&proxy, &both), pool_completions(&server));

    assert_eq!(p1 - p0, 0, "the warm fetch was answered on the loop");
    assert_eq!(p2 - p1, 0, "the reference fetch bypassed the reactor");
    assert_eq!(p3 - p2, 1, "the miss went through the pool");
    assert_eq!(inline_bytes, pooled_bytes);

    let inline = delta(&c0, &c1);
    let pooled = delta(&c1, &c2);
    // The serving engine is the one intended difference.
    assert_eq!((r2 - r1, b2 - b1), (0, 1), "the blocking engine answered");
    assert_eq!(inline, pooled);
    for name in [
        "proxy.requests",
        "proxy.cache.hit.memory",
        "net.server.frames_out",
        "net.server.serve_ns.count",
        "proxy.request_ns.count",
        "ProxyStats.requests",
        "CacheStats.memory_hits",
        "ServerStats.requests",
        "ServerStats.responses",
        "audit_total",
    ] {
        assert_eq!(get(&inline, name), 1, "{name} in {inline:?}");
    }

    // A cold fetch moves the same per-request counters; only the cache
    // outcome differs.
    let cold = delta(&c2, &c3);
    for name in [
        "proxy.requests",
        "net.server.frames_out",
        "net.server.serve_ns.count",
        "ProxyStats.requests",
        "ServerStats.responses",
        "audit_total",
    ] {
        assert_eq!(get(&cold, name), get(&inline, name), "{name}");
    }
    assert_eq!(get(&cold, "proxy.cache.hit.memory"), 0);
    assert_eq!(get(&cold, "CacheStats.misses"), 1);
    assert_eq!(get(&cold, "ProxyStats.rewrites"), 1);
    blocking.shutdown();
    server.shutdown();
}

#[test]
fn traced_inline_fetch_stitches_under_the_clients_trace() {
    let proxy = proxy();
    let server = serve(&proxy, ServerConfig::default());
    let mut c = client(&server);
    c.fetch(WARM).unwrap();
    let before = pool_completions(&server);

    let trace = TraceId::generate();
    let root = SpanId::generate();
    c.fetch_attempt_traced(
        WARM,
        Some(TraceContext {
            trace,
            parent: root,
        }),
    )
    .unwrap();
    assert_eq!(pool_completions(&server), before, "served inline");

    let spans = server.telemetry().recorder().for_trace(trace);
    let serve = spans
        .iter()
        .find(|s| s.name == "shard.serve")
        .expect("shard.serve span");
    let handle = spans
        .iter()
        .find(|s| s.name == "proxy.handle")
        .expect("proxy.handle span");
    assert_eq!(serve.parent, root, "shard.serve parents under the client");
    assert_eq!(handle.parent, serve.id, "proxy.handle parents under it");
    assert_eq!(spans.len(), 2, "{spans:?}");
    server.shutdown();
}

#[test]
fn both_engines_count_the_same_fetches_alike() {
    let run = |reactor: bool| {
        let proxy = proxy();
        let server = serve(
            &proxy,
            ServerConfig {
                reactor,
                ..ServerConfig::default()
            },
        );
        let mut c = client(&server);
        let base = counters(&proxy, &[&server]);
        for url in [WARM, WARM, COLD, WARM, COLD, WARM] {
            c.fetch(url).unwrap();
        }
        let d = delta(&base, &counters(&proxy, &[&server]));
        server.shutdown();
        d
    };
    let blocking = run(false);
    let reactor = run(true);
    assert_eq!(reactor, blocking);
    assert_eq!(get(&reactor, "proxy.cache.hit.memory"), 4);
    assert_eq!(get(&reactor, "ProxyStats.rewrites"), 2);
}
