//! Loopback end-to-end tests for dvm-net: real TCP sockets, concurrent
//! clients, signature verification, cache-tier reporting, fault
//! injection, and clean shutdown.

use std::time::{Duration, Instant};

use dvm_repro::chaos::{ChaosLink, ChaosSchedule};
use dvm_repro::core::{CostModel, Organization, ServiceConfig};
use dvm_repro::net::{Hello, NetClassProvider, NetConfig, NetError};
use dvm_repro::proxy::{ServedFrom, Signer};
use dvm_repro::security::Policy;
use dvm_repro::workload::{corpus, Applet};

/// A signed, cached, fully-serviced organization over `applets`.
fn org_over(applets: &[Applet]) -> Organization {
    let classes: Vec<_> = applets
        .iter()
        .flat_map(|a| a.classes.iter().cloned())
        .collect();
    let mut services = ServiceConfig::dvm();
    services.signing = true;
    Organization::new(
        &classes,
        Policy::parse(dvm_repro::security::policy::example_policy()).unwrap(),
        services,
        CostModel::default(),
    )
    .unwrap()
}

fn hello(user: &str) -> Hello {
    Hello {
        user: user.to_owned(),
        principal: "applets".to_owned(),
        hardware: "x86/200MHz/64MB".to_owned(),
        native_format: "x86".to_owned(),
        jvm_version: "dvm-repro-0.1".to_owned(),
    }
}

fn org_signer() -> Option<Signer> {
    Some(Signer::new(b"dvm-org-key"))
}

/// The smallest `n` corpus applets (cheap to execute in a debug build).
fn small_applets(seed: u64, n: usize) -> Vec<Applet> {
    let mut applets = corpus(seed);
    applets.sort_by_key(|a| {
        a.classes
            .iter()
            .map(|c| c.clone().to_bytes().unwrap().len())
            .sum::<usize>()
    });
    applets.truncate(n);
    applets
}

/// The acceptance scenario: at least eight concurrent `DvmClient`s fetch
/// and run applet-corpus code through a live `ProxyServer`, with zero
/// signature failures and audit events arriving at the console.
#[test]
fn eight_concurrent_remote_clients_run_corpus_applets() {
    let applets = small_applets(11, 4);
    let org = org_over(&applets);
    let server = org.serve("127.0.0.1:0").unwrap();
    let addr = server.addr();

    std::thread::scope(|scope| {
        for i in 0..8usize {
            let applet = &applets[i % applets.len()];
            let org = &org;
            scope.spawn(move || {
                let user = format!("user{i}");
                let mut client = org.remote_client(addr, &user, "applets").unwrap();
                let report = client.run_main(&applet.main_class).unwrap();
                assert!(
                    matches!(report.completion, dvm_repro::jvm::Completion::Normal(_)),
                    "client {i}: {:?}",
                    report.completion
                );
                assert!(!report.transfers.is_empty(), "client {i} fetched nothing");
                // A bad signature would have failed the class load outright,
                // so a normal completion certifies verification; the tiers
                // must still be sensible for a warm shared cache.
                for t in &report.transfers {
                    assert!(
                        matches!(
                            t.served_from,
                            ServedFrom::Rewritten | ServedFrom::MemoryCache
                        ),
                        "client {i} class {} came from {:?}",
                        t.class,
                        t.served_from
                    );
                }
            });
        }
    });

    // Each remote client opens a provider and an audit connection, and
    // every handshake creates a console session.
    assert_eq!(org.console.lock().session_count(), 16);

    // Audit events are fire-and-forget: give the server a moment to drain
    // what the clients wrote before they disconnected.
    let deadline = Instant::now() + Duration::from_secs(5);
    while org.console.lock().total_events() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let events = org.console.lock().total_events();
    assert!(
        events > 0,
        "no audit events reached the console over the wire"
    );

    let stats = server.shutdown();
    assert_eq!(stats.connections, 16);
    assert!(stats.requests > 0);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.audit_events, events);
}

/// Tier reporting over the wire: the first fetch is rewritten, repeats
/// are served from the memory cache, and no signature ever fails.
#[test]
fn cache_tiers_and_signatures_are_reported_correctly() {
    let applets = small_applets(23, 2);
    let org = org_over(&applets);
    let server = org.serve("127.0.0.1:0").unwrap();
    let addr = server.addr();
    let url = format!("class://{}", applets[0].main_class);

    let mut first =
        NetClassProvider::new(addr, hello("alice"), org_signer(), NetConfig::default()).unwrap();
    let (bytes, transfer) = first.fetch(&url).unwrap();
    assert!(!bytes.is_empty());
    assert_eq!(transfer.served_from, ServedFrom::Rewritten);
    assert!(
        transfer.processing_ns > 0,
        "rewrite must charge simulated time"
    );

    let (_, again) = first.fetch(&url).unwrap();
    assert_eq!(again.served_from, ServedFrom::MemoryCache);
    assert_eq!(again.processing_ns, 0);

    let mut second =
        NetClassProvider::new(addr, hello("bob"), org_signer(), NetConfig::default()).unwrap();
    let (other_bytes, cross) = second.fetch(&url).unwrap();
    assert_eq!(cross.served_from, ServedFrom::MemoryCache);
    assert_eq!(
        other_bytes, bytes,
        "both clients must see identical verified payloads"
    );

    assert_eq!(first.stats().signature_failures, 0);
    assert_eq!(second.stats().signature_failures, 0);

    // A client verifying with the wrong key must reject the payload. An
    // integrity failure is retried on a fresh connection (the stream
    // cannot be trusted), so a *persistent* bad key exhausts the retry
    // budget — every attempt rejected, nothing ever delivered.
    let wrong_config = NetConfig {
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(2),
        ..NetConfig::default()
    };
    let mut wrong_key = NetClassProvider::new(
        addr,
        hello("mallory"),
        Some(Signer::new(b"not-the-org-key")),
        wrong_config,
    )
    .unwrap();
    match wrong_key.fetch(&url) {
        Err(NetError::Exhausted(inner)) => {
            assert!(matches!(*inner, NetError::BadSignature), "got {inner:?}")
        }
        other => panic!("expected exhausted BadSignature retries, got {other:?}"),
    }
    assert_eq!(
        wrong_key.stats().signature_failures,
        u64::from(wrong_config.max_attempts),
        "every attempt must have been verified and rejected"
    );

    // Typed error frames: an unknown URL is a remote NotFound, not a
    // transport failure.
    match first.fetch("class://no/Such") {
        Err(NetError::Remote { code, .. }) => {
            assert_eq!(code, dvm_repro::net::ErrorCode::NotFound)
        }
        other => panic!("expected remote NotFound, got {other:?}"),
    }

    server.shutdown();
}

/// Injected connection drops are recovered by the client's bounded
/// retry/backoff, transparently to the caller. A [`ChaosLink`] between
/// client and server resets every connection at its fourth
/// server-to-client frame (the handshake's `WELCOME` is the first).
#[test]
fn injected_connection_drops_are_recovered_by_retry() {
    let applets = small_applets(37, 3);
    let org = org_over(&applets);
    let server = org.serve("127.0.0.1:0").unwrap();
    let link = ChaosLink::start(
        server.addr(),
        ChaosSchedule::parse("<reset@n4").unwrap(),
        37,
    )
    .unwrap();
    let addr = link.addr();

    let cfg = NetConfig {
        max_attempts: 4,
        backoff_base: Duration::from_millis(2),
        backoff_max: Duration::from_millis(20),
        ..NetConfig::default()
    };
    let mut provider = NetClassProvider::new(addr, hello("carol"), org_signer(), cfg).unwrap();

    let mut names = Vec::new();
    for a in &applets {
        for c in &a.classes {
            names.push(c.name().unwrap().to_owned());
        }
    }
    for name in &names {
        provider
            .fetch(&format!("class://{name}"))
            .unwrap_or_else(|e| {
                panic!("fetch of {name} not recovered: {e}");
            });
    }

    let stats = provider.stats();
    assert_eq!(stats.requests, names.len() as u64);
    assert!(stats.retries > 0, "the link's resets never fired a retry");
    assert!(stats.reconnects > 1, "recovery must rebuild the connection");
    assert_eq!(stats.signature_failures, 0);

    let link_stats = link.shutdown();
    assert!(link_stats.faults_total() > 0);
    server.shutdown();
}

/// Shutdown joins every connection thread — even with a client still
/// connected — and frees the port.
#[test]
fn shutdown_is_clean_with_live_connections() {
    let applets = small_applets(51, 1);
    let org = org_over(&applets);
    let server = org.serve("127.0.0.1:0").unwrap();
    let addr = server.addr();

    let mut provider =
        NetClassProvider::new(addr, hello("dave"), org_signer(), NetConfig::default()).unwrap();
    let url = format!("class://{}", applets[0].main_class);
    provider.fetch(&url).unwrap();

    // The provider stays connected across shutdown: the server must not
    // wait for the peer to hang up.
    let started = Instant::now();
    let stats = server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "shutdown hung on a live connection"
    );
    assert!(stats.connections >= 1);

    // The listener is gone; a further fetch cannot reconnect.
    std::thread::sleep(Duration::from_millis(20));
    match provider.fetch(&url) {
        Err(_) => {}
        Ok(_) => panic!("fetch succeeded after shutdown"),
    }
}

/// The in-process and socket paths are the same machine: identical
/// completions and identical transfer manifests for the same applet.
#[test]
fn remote_client_matches_in_process_client() {
    let applets = small_applets(73, 1);
    let org = org_over(&applets);
    let server = org.serve("127.0.0.1:0").unwrap();

    let mut local = org.client("alice", "applets").unwrap();
    let local_report = local.run_main(&applets[0].main_class).unwrap();

    let mut remote = org.remote_client(server.addr(), "bob", "applets").unwrap();
    let remote_report = remote.run_main(&applets[0].main_class).unwrap();

    assert_eq!(
        format!("{:?}", local_report.completion),
        format!("{:?}", remote_report.completion)
    );
    let manifest = |r: &dvm_repro::core::RunReport| {
        let mut v: Vec<(String, usize)> = r
            .transfers
            .iter()
            .map(|t| (t.class.clone(), t.bytes))
            .collect();
        v.sort();
        v
    };
    assert_eq!(manifest(&local_report), manifest(&remote_report));

    server.shutdown();
}
