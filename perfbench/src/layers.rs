//! Replays of single-layer public calls on a traced request's inputs.
//!
//! Cheap calls are timed three times and keep the fastest, so one
//! preemption on a shared machine does not inflate a few-µs layer.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use dvm_classfile::ClassFile;
use dvm_compiler::ExecCompiler;
use dvm_core::filters::{AuditFilter, SecurityFilter, StaticServiceStats, VerifierFilter};
use dvm_core::Organization;
use dvm_monitor::SiteTable;
use dvm_net::Frame;
use dvm_proxy::{Filter, Proxy, RequestContext, RewriteCache, ServedFrom, Signer};
use dvm_security::{Policy, SecurityId};
use dvm_verifier::{MapEnvironment, StaticVerifier};

use crate::inputs::Inputs;
use crate::stack;
use crate::trace::Trace;

/// Memory tier of every organization's rewrite cache.
const CACHE_BYTES: usize = 8 << 20;

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let v = std::hint::black_box(f());
    (v, t.elapsed().as_nanos() as u64)
}

/// Fastest of three timings of `f`.
fn best_of_3<T>(mut f: impl FnMut() -> T) -> u64 {
    (0..3)
        .map(|_| timed(&mut f).1)
        .min()
        .expect("three timings")
}

/// Places a replayed call under `parent`, or as a detached root when
/// the call is off the traced request's path.
fn place(
    trace: &mut Trace,
    parent: Option<u32>,
    name: &'static str,
    at: &mut u64,
    dur: u64,
) -> u32 {
    match parent {
        Some(p) => trace.lay(p, name, at, dur),
        None => trace.root(name, *at, dur),
    }
}

/// Replays the proxy's and the client's layer calls.
pub struct Replayer {
    signer: Signer,
    ctx: RequestContext,
    /// Replica of the warm memory tier, for `RewriteCache::get`.
    hit_cache: RewriteCache,
    /// A fresh organization: its first request for a URL is a rewrite.
    cold: Organization,
    cold_done: HashSet<usize>,
    verifier: VerifierFilter,
    security: SecurityFilter,
    audit: AuditFilter,
    /// Replica of the cold put sequence, evictions included.
    put_cache: RewriteCache,
}

impl Replayer {
    /// A replayer over `inputs` (its own cold organization and caches).
    pub fn new(inputs: &Inputs) -> Replayer {
        let stats = Arc::new(Mutex::new(StaticServiceStats::default()));
        let policy = Policy::parse(dvm_security::policy::example_policy()).expect("policy parses");
        Replayer {
            signer: stack::signer(),
            ctx: RequestContext {
                client: "replay".to_owned(),
                principal: stack::PRINCIPAL.to_owned(),
                url: String::new(),
                trace: None,
            },
            hit_cache: RewriteCache::new(CACHE_BYTES),
            cold: stack::organization(&inputs.classes, true),
            cold_done: HashSet::new(),
            verifier: VerifierFilter::new(
                StaticVerifier::new(MapEnvironment::with_bootstrap()),
                stats.clone(),
            ),
            security: SecurityFilter::new(
                Arc::new(Mutex::new(policy)),
                SecurityId(1),
                stats.clone(),
            ),
            audit: AuditFilter::new(Arc::new(Mutex::new(SiteTable::new())), stats),
            put_cache: RewriteCache::new(CACHE_BYTES),
        }
    }

    /// Client-side and framing calls on the signed bytes as served:
    /// `Frame::encode`/`Frame::decode` of the `CodeResponse`, the
    /// client's `ir_key` digest and `Signer::detach`.
    pub fn wire(
        &self,
        trace: &mut Trace,
        parent: Option<u32>,
        at: &mut u64,
        served: ServedFrom,
        signed: &[u8],
    ) {
        let frame = Frame::CodeResponse {
            request_id: 1,
            served_from: served,
            processing_ns: 0,
            bytes: signed.to_vec(),
        };
        let encoded = frame.encode();
        let encode = best_of_3(|| frame.encode());
        let decode = best_of_3(|| Frame::decode(&encoded).expect("own encoding decodes"));
        let ir_key = best_of_3(|| dvm_proxy::ir_key(signed));
        let detach = best_of_3(|| self.signer.detach(signed));
        place(trace, parent, "net.frame.encode", at, encode);
        place(trace, parent, "net.frame.decode", at, decode);
        place(trace, parent, "proxy.md5.ir_key", at, ir_key);
        place(trace, parent, "proxy.sign.detach", at, detach);
    }

    /// A cache hit: `Proxy::handle_request_detailed` on the warm `proxy`,
    /// with `RewriteCache::get` of the same entry inside it.
    pub fn hit(
        &mut self,
        trace: &mut Trace,
        parent: Option<u32>,
        at: &mut u64,
        proxy: &Proxy,
        url: &str,
        signed: &[u8],
    ) {
        if !self.hit_cache.contains(url) {
            self.hit_cache.put(url.to_owned(), signed.into());
        }
        let serve = best_of_3(|| proxy.handle_request_detailed(url, &self.ctx));
        let get = best_of_3(|| self.hit_cache.get(url));
        let start = *at;
        let id = place(trace, parent, "proxy.serve_hit", at, serve);
        trace.child(id, "proxy.cache.get", start, get);
    }

    /// Whether URL `url` was already rewritten by [`Replayer::rewrite`].
    pub fn rewritten(&self, url: usize) -> bool {
        self.cold_done.contains(&url)
    }

    /// A rewrite: a cold `Proxy::handle_request_detailed`, then each
    /// stage on the same origin bytes — `ClassFile::parse`, the
    /// verifier, security and audit filters, `ClassFile::to_bytes`,
    /// `ExecCompiler::compile`, `Signer::attach` and the cache puts of
    /// the class and its IR. Each URL is rewritten once per replayer;
    /// returns the rewrite's duration, or `None` when already replayed.
    pub fn rewrite(
        &mut self,
        trace: &mut Trace,
        parent: Option<u32>,
        at: &mut u64,
        inputs: &Inputs,
        url: usize,
    ) -> Option<u64> {
        if !self.cold_done.insert(url) {
            return None;
        }
        let path = &inputs.urls[url];
        let (served, rewrite) = timed(|| self.cold.proxy.handle_request_detailed(path, &self.ctx));
        served.ok()?;
        let mut stage_at = *at;
        let id = place(trace, parent, "proxy.rewrite", at, rewrite);
        let at = &mut stage_at;
        let (class, d) = timed(|| ClassFile::parse(&inputs.origin[url]));
        trace.lay(id, "classfile.parse", at, d);
        let mut class = class.ok()?;
        for (filter, name) in [
            (&self.verifier as &dyn Filter, "verifier.verify"),
            (&self.security, "security.rewrite"),
            (&self.audit, "monitor.audit"),
        ] {
            let (out, d) = timed(|| filter.apply(class, &self.ctx));
            trace.lay(id, name, at, d);
            class = out.ok()?;
        }
        let (bytes, d) = timed(|| class.to_bytes());
        trace.lay(id, "classfile.write", at, d);
        let bytes = bytes.ok()?;
        let signature = dvm_proxy::md5::hex(&dvm_proxy::md5::md5(&bytes));
        let mut compiler = ExecCompiler::new();
        let (pkg, d) = timed(|| compiler.compile(&signature, &bytes));
        trace.lay(id, "exec.compile", at, d);
        let unsigned = bytes.clone();
        let (signed, d) = timed(|| self.signer.attach(unsigned));
        trace.lay(id, "proxy.sign.attach", at, d);
        let key = dvm_proxy::ir_key(&signed);
        let (_, d) = timed(|| self.put_cache.put(path.clone(), signed.into()));
        trace.lay(id, "proxy.cache.put", at, d);
        if let Some(pkg) = pkg.ok().filter(|p| p.methods_compiled > 0) {
            let ir = self.signer.attach(pkg.bytes.clone());
            let (_, d) = timed(|| self.put_cache.put(key, ir.into()));
            trace.lay(id, "proxy.cache.put", at, d);
        }
        Some(rewrite)
    }
}

/// `dvm_exec::decode` of one IR package, fastest of three.
pub fn decode_ns(package: &[u8]) -> u64 {
    best_of_3(|| dvm_exec::decode(package))
}
