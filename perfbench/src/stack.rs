//! The DVM stack under test, driven from one process the way its own
//! clients drive it: an `Organization` behind `Organization::serve` (the
//! default reactor engine on loopback), `NetClassProvider` fetchers and
//! `Organization::remote_client` DVM clients. Every loop is closed: each
//! client waits for a reply before it sends its next request.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dvm_classfile::ClassFile;
use dvm_core::{CostModel, Organization, ServiceConfig};
use dvm_jvm::Completion;
use dvm_net::{Hello, NetClassProvider, NetConfig, ProxyServer};
use dvm_proxy::{ServedFrom, Signer};
use dvm_security::Policy;

use crate::inputs::{url_class, AppInput};
use crate::sys::Usage;

/// The key every `Organization` signs served code with; clients verify
/// payloads against it exactly as `Organization::remote_client` does.
pub const ORG_KEY: &[u8] = b"dvm-org-key";

/// Principal every benchmark client runs code as.
pub const PRINCIPAL: &str = "applets";

/// A client verifier for the organization's signatures.
pub fn signer() -> Signer {
    Signer::new(ORG_KEY)
}

/// The Figure-6 services (verify, security, audit) plus signing and,
/// when `exec_tier`, proxy-side IR compilation.
pub fn organization(classes: &[ClassFile], exec_tier: bool) -> Organization {
    let mut config = ServiceConfig::dvm();
    config.signing = true;
    config.exec_tier = exec_tier;
    let policy = Policy::parse(dvm_security::policy::example_policy()).expect("policy parses");
    Organization::new(classes, policy, config, CostModel::default()).expect("organization builds")
}

/// `org` on an ephemeral loopback port, default (reactor) engine.
pub fn serve(org: &Organization) -> ProxyServer {
    org.serve("127.0.0.1:0").expect("loopback server binds")
}

/// A fetcher presenting `user`'s credentials; it connects on first use.
pub fn provider(addr: SocketAddr, user: &str) -> NetClassProvider {
    let hello = Hello {
        user: user.to_owned(),
        principal: PRINCIPAL.to_owned(),
        hardware: "x86/bench".to_owned(),
        native_format: "x86".to_owned(),
        jvm_version: "dvm-perfbench".to_owned(),
    };
    NetClassProvider::new(addr, hello, Some(signer()), NetConfig::default())
        .expect("loopback address resolves")
}

/// Whether `payload` parses as a class file named like `url`.
pub fn parses_as(url: &str, payload: &[u8]) -> bool {
    ClassFile::parse(payload)
        .ok()
        .and_then(|cf| cf.name().ok().map(|n| n == url_class(url)))
        .unwrap_or(false)
}

/// One fetch as a client saw it.
#[derive(Debug, Clone)]
pub struct FetchOp {
    /// Index into the workload's URL list.
    pub url: usize,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// Wall time of `NetClassProvider::fetch`.
    pub dur_ns: u64,
    /// The serving tier (`None` when the fetch failed).
    pub served: Option<ServedFrom>,
    /// The payload passed its output check.
    pub ok: bool,
    /// The verified payload, when the caller asked to keep it.
    pub payload: Option<Vec<u8>>,
}

/// What one `drive` call measured.
pub struct Driven {
    /// Every fetch, client by client.
    pub ops: Vec<FetchOp>,
    /// Common start of the clients, ns since the run's epoch.
    pub begin_ns: u64,
    /// First start to last finish.
    pub wall_ns: u64,
    /// CPU time and host steal at the start and at every sub-window
    /// boundary.
    pub marks: Vec<Usage>,
}

/// How long each client keeps fetching.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    /// Each client fetches its list once.
    Once,
    /// Each client cycles through its list until this much time passed;
    /// CPU time and host steal are read every [`SUB_WINDOW`].
    For(Duration),
}

/// Sub-window length of the timed fetch streams.
pub const SUB_WINDOW: Duration = Duration::from_secs(1);

/// Runs one closed-loop client thread per provider, each over its own
/// URL list; `check(url, payload)` validates every payload.
pub fn drive(
    providers: &mut [NetClassProvider],
    lists: &[Vec<usize>],
    urls: &[String],
    length: Length,
    keep_payloads: bool,
    epoch: Instant,
    check: &(dyn Fn(usize, &[u8]) -> bool + Sync),
) -> Driven {
    let barrier = Barrier::new(providers.len() + 1);
    let (begin, marks, per_client) = std::thread::scope(|s| {
        let handles: Vec<_> = providers
            .iter_mut()
            .zip(lists)
            .map(|(p, list)| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let begin = Instant::now();
                    let mut ops = Vec::new();
                    let mut i = 0;
                    loop {
                        match length {
                            Length::Once if i == list.len() => break,
                            Length::For(d) if begin.elapsed() >= d => break,
                            _ => {}
                        }
                        let url = list[i % list.len()];
                        let start = Instant::now();
                        let result = p.fetch(&urls[url]);
                        let dur_ns = start.elapsed().as_nanos() as u64;
                        let start_ns = (start - epoch).as_nanos() as u64;
                        ops.push(match result {
                            Ok((payload, transfer)) => FetchOp {
                                url,
                                start_ns,
                                dur_ns,
                                served: Some(transfer.served_from),
                                ok: check(url, &payload),
                                payload: keep_payloads.then_some(payload),
                            },
                            Err(_) => FetchOp {
                                url,
                                start_ns,
                                dur_ns,
                                served: None,
                                ok: false,
                                payload: None,
                            },
                        });
                        i += 1;
                    }
                    (ops, Instant::now())
                })
            })
            .collect();
        barrier.wait();
        let begin = Instant::now();
        let mut marks = vec![Usage::now()];
        if let Length::For(d) = length {
            let mut at = Duration::ZERO;
            while at < d {
                at = (at + SUB_WINDOW).min(d);
                std::thread::sleep((begin + at).saturating_duration_since(Instant::now()));
                marks.push(Usage::now());
            }
        }
        let per_client: Vec<(Vec<FetchOp>, Instant)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (begin, marks, per_client)
    });
    let end = per_client.iter().map(|c| c.1).max().unwrap_or(begin);
    Driven {
        ops: per_client.into_iter().flat_map(|c| c.0).collect(),
        begin_ns: (begin - epoch).as_nanos() as u64,
        wall_ns: (end - begin).as_nanos() as u64,
        marks,
    }
}

/// Splits `order` into two disjoint halves, one per client.
pub fn halves(order: &[usize]) -> Vec<Vec<usize>> {
    let mid = order.len().div_ceil(2);
    vec![order[..mid].to_vec(), order[mid..].to_vec()]
}

/// What an app run must reproduce: the in-process reference result.
#[derive(Debug, Clone, PartialEq)]
pub struct AppResult {
    /// `Completion` as text (values are compared by rendering).
    pub completion: String,
    /// Bytecode instructions executed.
    pub instructions: u64,
    /// Lines the program printed.
    pub stdout: Vec<String>,
}

/// Runs `app` in-process on `org` (no sockets) for the reference result.
pub fn reference_run(org: &Organization, app: &AppInput) -> AppResult {
    let mut client = org.client("reference", PRINCIPAL).expect("client builds");
    let report = client.run_main(&app.main).expect("reference run completes");
    assert!(
        matches!(report.completion, Completion::Normal(_)),
        "reference run of {} ended {:?}",
        app.main,
        report.completion
    );
    AppResult {
        completion: format!("{:?}", report.completion),
        instructions: report.instructions,
        stdout: client.vm.stdout.clone(),
    }
}

/// Phase timings of one remote app run.
#[derive(Debug, Clone, Default)]
pub struct AppRun {
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// `Organization::remote_client`.
    pub connect_ns: u64,
    /// Σ `Vm::load_class` over the app's classes (preload runs only).
    pub load_ns: u64,
    /// `DvmClient::run_main`.
    pub execute_ns: u64,
    /// Connect through completion.
    pub total_ns: u64,
    /// The run reproduced the reference result.
    pub ok: bool,
    /// Invocations on the IR and interpreter tiers.
    pub ir_invocations: u64,
    /// See `ir_invocations`.
    pub interp_invocations: u64,
    /// Bytecode instructions executed.
    pub instructions: u64,
    /// Fetches the client's provider made (classes and IR packages).
    pub fetches: u64,
    /// Fetch attempts it retried.
    pub retries: u64,
}

/// A fresh remote DVM client runs `app` to completion against the
/// server at `addr`. With `preload`, every class of the app is loaded
/// (fetched, defined, linked) before `run_main`, splitting load from
/// execution.
pub fn app_run(
    org: &Organization,
    addr: SocketAddr,
    app: &AppInput,
    preload: bool,
    expect: Option<&AppResult>,
    epoch: Instant,
) -> AppRun {
    let start = Instant::now();
    let mut run = AppRun {
        start_ns: (start - epoch).as_nanos() as u64,
        ..AppRun::default()
    };
    let Ok(mut client) = org.remote_client(addr, "bench", PRINCIPAL) else {
        run.total_ns = start.elapsed().as_nanos() as u64;
        return run;
    };
    run.connect_ns = start.elapsed().as_nanos() as u64;
    let mut loaded = true;
    if preload {
        let t = Instant::now();
        loaded = app.classes.iter().all(|c| client.vm.load_class(c).is_ok());
        run.load_ns = t.elapsed().as_nanos() as u64;
    }
    let t = Instant::now();
    let report = client.run_main(&app.main);
    run.execute_ns = t.elapsed().as_nanos() as u64;
    run.total_ns = start.elapsed().as_nanos() as u64;
    run.ir_invocations = client.vm.exec.stats.ir_invocations;
    run.interp_invocations = client.vm.exec.stats.interp_invocations;
    let telemetry = client.telemetry();
    run.fetches = telemetry.registry().counter("net.client.requests").get();
    run.retries = telemetry.registry().counter("net.client.retries").get();
    if let Ok(report) = report {
        run.instructions = report.instructions;
        let got = AppResult {
            completion: format!("{:?}", report.completion),
            instructions: report.instructions,
            stdout: client.vm.stdout.clone(),
        };
        let normal = matches!(report.completion, Completion::Normal(_));
        run.ok = loaded && normal && expect.is_none_or(|e| *e == got);
    }
    run
}
