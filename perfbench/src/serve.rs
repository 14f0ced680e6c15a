//! `serve`: the `eit-serve` daemon in-process, one client, closed loop.
//!
//! The key universe is the six table kernels × {straight, modulo} × two
//! slot budgets. Keys with the larger budget are *hot*: every block of
//! a pass requests each of them once. Keys with the smaller budget are
//! *cold*: each block requests one of them, so each is requested once a
//! pass. With [`CACHE_CAP`] below the universe, LRU keeps every hot key
//! (at most 13 distinct keys lie between two requests of one) and evicts
//! every cold key before it comes back (23 lie between). So once set-up
//! has warmed the cache, every pass has exactly [`BLOCKS`] × 12 hits, 12
//! misses and 12 evictions whatever the seed, and the hit population is
//! the same mix of kernels in every pass. The seed orders the requests
//! within each block and deals the cold keys to blocks.

use crate::trace::Tracer;
use crate::{note_failure, Bench, Metrics, Step};
use eit_arch::ArchSpec;
use eit_core::json::Json;
use eit_core::{
    compile, modulo_schedule, render_compiled, render_modulo, CompileOptions, ModuloOptions,
    SchedulerOptions, SolveKey,
};
use eit_serve::{decode_request, ServeOptions, Server};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Instant;

use crate::compile::KERNELS;

/// Slot budgets of the key universe: hot keys use the first, cold keys
/// the second. Every table kernel schedules under both.
pub const SLOTS: [u32; 2] = [64, 32];

/// Server cache capacity: below the 24-key universe, above the 12 hot
/// keys plus the two cold keys that can fall between two requests of a
/// hot key.
pub const CACHE_CAP: usize = 16;

/// Blocks per pass; each holds every hot key once and one cold key.
pub const BLOCKS: usize = 12;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Key {
    pub kernel: &'static str,
    pub modulo: bool,
    pub slots: u32,
}

impl Key {
    pub fn hot(&self) -> bool {
        self.slots == SLOTS[0]
    }

    fn mode(&self) -> &'static str {
        if self.modulo {
            "modulo"
        } else {
            "schedule"
        }
    }

    fn spec(&self) -> ArchSpec {
        ArchSpec::eit().with_slots(self.slots)
    }

    fn request_line(&self, id: &str) -> String {
        format!(
            r#"{{"v":"eit-serve/1","id":"{id}","op":"compile","kernel":"{}","mode":"{}","slots":{}}}"#,
            self.kernel,
            self.mode(),
            self.slots
        )
    }
}

/// The key universe, in a fixed order.
pub fn keys() -> Vec<Key> {
    let mut out = Vec::new();
    for kernel in KERNELS {
        for modulo in [false, true] {
            for slots in SLOTS {
                out.push(Key {
                    kernel,
                    modulo,
                    slots,
                });
            }
        }
    }
    out
}

/// SplitMix64: the seeded source of the request order.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// One pass of requests, as indices into [`keys`]: [`BLOCKS`] blocks of
/// every hot key plus one cold key, each block shuffled by `seed`.
pub fn request_order(seed: u64) -> Vec<usize> {
    let all = keys();
    let hot: Vec<usize> = (0..all.len()).filter(|&i| all[i].hot()).collect();
    let mut cold: Vec<usize> = (0..all.len()).filter(|&i| !all[i].hot()).collect();
    assert_eq!(cold.len(), BLOCKS, "one cold key per block");
    let mut rng = SplitMix(seed);
    rng.shuffle(&mut cold);
    let mut order = Vec::new();
    for c in cold {
        let mut block = hot.clone();
        block.push(c);
        rng.shuffle(&mut block);
        order.extend(block);
    }
    order
}

/// The one-shot answer for a key, made in set-up the way `eitc` makes
/// it: validate, merge, CSE for straight-line, then solve and render.
struct Reference {
    listing: String,
    /// Makespan (straight) or issue II (modulo).
    value: u64,
}

fn reference(key: &Key) -> Result<Reference, String> {
    let k = eit_apps::by_name(key.kernel).ok_or(format!("unknown kernel {}", key.kernel))?;
    let mut g = k.graph;
    g.validate().map_err(|e| format!("{}: {e}", key.kernel))?;
    eit_ir::merge_pipeline_ops(&mut g);
    let spec = key.spec();
    if key.modulo {
        let r = modulo_schedule(&g, &spec, &ModuloOptions::default())
            .ok_or(format!("{}: no modulo schedule", key.kernel))?;
        Ok(Reference {
            listing: render_modulo(&g, &r),
            value: r.ii_issue as u64,
        })
    } else {
        eit_ir::eliminate_common_subexpressions(&mut g);
        let opts = CompileOptions {
            cse: false,
            merge: false,
            ..Default::default()
        };
        let out = compile(g, &spec, &opts).map_err(|e| format!("{}: {e}", key.kernel))?;
        Ok(Reference {
            listing: render_compiled(&out),
            value: out.schedule.makespan as u64,
        })
    }
}

/// Cumulative cache counters from the `stats` op: hits, misses, evictions.
type CacheCounts = [u64; 3];

pub struct ServeBench {
    server: Server,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    keys: Vec<Key>,
    refs: Vec<Reference>,
    order: Vec<usize>,
    pos: usize,
    next_id: u64,
    /// Makespan or II each key's latest reply carried.
    observed: Vec<u64>,
    /// Counters at the last pass boundary, and per pass since set-up.
    last_counts: CacheCounts,
    passes: Vec<CacheCounts>,
    /// Replies per `kernel/mode/hit|miss`, over the measured windows.
    kinds: BTreeMap<String, u64>,
    errors: Vec<String>,
}

impl ServeBench {
    fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    fn cache_counts(&mut self) -> Result<(CacheCounts, Json), String> {
        let reply = self.roundtrip(r#"{"v":"eit-serve/1","id":"stats","op":"stats"}"#)?;
        let doc = Json::parse(&reply).map_err(|e| format!("stats reply: {e}"))?;
        let serve = doc
            .get("metrics")
            .and_then(|m| m.get("serve"))
            .ok_or("stats reply without metrics.serve")?
            .clone();
        let cache = serve.get("cache").ok_or("stats reply without cache")?;
        let field = |k: &str| {
            cache
                .get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("cache.{k}"))
        };
        Ok((
            [field("hits")?, field("misses")?, field("evictions")?],
            serve,
        ))
    }

    /// Close a pass: its cache counters must be those of a warm pass.
    fn end_pass(&mut self) {
        let now = match self.cache_counts() {
            Ok((c, _)) => c,
            Err(e) => {
                self.errors.push(e);
                return;
            }
        };
        let d = [0, 1, 2].map(|i| now[i] - self.last_counts[i]);
        self.last_counts = now;
        // The first pass after start-up fills the empty cache.
        if self.passes.is_empty() {
            self.passes.push(d);
            return;
        }
        let cold = (self.keys.len() - self.keys.iter().filter(|k| k.hot()).count()) as u64;
        let want = [self.order.len() as u64 - cold, cold, cold];
        if d != want && self.errors.len() < 20 {
            self.errors.push(format!(
                "pass {} cache counts (hits, misses, evictions) {d:?}, LRU gives {want:?}",
                self.passes.len()
            ));
        }
        self.passes.push(d);
    }

    /// Check a reply against the set-up reference; returns `cached`
    /// and the content address.
    fn check(&mut self, k: usize, reply: &str) -> Result<(bool, String), String> {
        let key = self.keys[k];
        let what = format!("{}/{}@{}", key.kernel, key.mode(), key.slots);
        let doc = Json::parse(reply).map_err(|e| format!("{what}: reply: {e}"))?;
        let s = |f: &str| doc.get(f).and_then(Json::as_str);
        if s("status") != Some("ok") {
            return Err(format!("{what}: status {:?}", reply.trim_end()));
        }
        if doc.get("verified") != Some(&Json::Bool(true)) {
            return Err(format!("{what}: reply not verified"));
        }
        if s("listing") != Some(self.refs[k].listing.as_str()) {
            return Err(format!("{what}: listing differs from the one-shot render"));
        }
        let field = if key.modulo { "ii" } else { "makespan" };
        let value = doc.get(field).and_then(Json::as_u64);
        if value != Some(self.refs[k].value) {
            return Err(format!(
                "{what}: {field} {value:?}, one-shot gave {}",
                self.refs[k].value
            ));
        }
        self.observed[k] = self.refs[k].value;
        let cached = doc.get("cached") == Some(&Json::Bool(true));
        Ok((cached, s("address").unwrap_or_default().to_string()))
    }
}

/// The calls the server makes for a request, made again from the client
/// side so each gets a span: decode, kernel rebuild, passes, cache key.
/// The key must be the address the server answered with.
fn traced_layers(key: &Key, line: &str, address: &str, tr: &mut Tracer) -> Result<(), String> {
    tr.span("serve.decode", |_| decode_request(line))
        .map_err(|e| format!("decode_request: {}", e.message))?;
    let k = tr
        .span("serve.dsl_build", |_| eit_apps::by_name(key.kernel))
        .ok_or(format!("unknown kernel {}", key.kernel))?;
    let mut g = k.graph;
    tr.span("serve.ir_passes", |_| {
        g.validate().map_err(|e| e.to_string())?;
        eit_ir::merge_pipeline_ops(&mut g);
        if !key.modulo {
            eit_ir::eliminate_common_subexpressions(&mut g);
        }
        Ok::<_, String>(())
    })?;
    let spec = key.spec();
    let sk = tr.span("rr.solve_key", |_| {
        if key.modulo {
            SolveKey::modulo(&g, &spec, &ModuloOptions::default())
        } else {
            SolveKey::schedule(&g, &spec, &SchedulerOptions::default())
        }
    });
    if sk.content_address() != address {
        return Err(format!(
            "{}: solve key differs from the served address",
            key.kernel
        ));
    }
    Ok(())
}

impl Bench for ServeBench {
    // 500–900 requests a second: a 45 s run has 20k or more requests, so
    // p99.9 leaves 20 or more beyond, all of them detector modulo misses
    // (one request in 156).
    const TAIL_PERCENTILE: f64 = 99.9;

    fn setup(seed: u64) -> Result<Self, String> {
        let keys = keys();
        let refs = keys.iter().map(reference).collect::<Result<Vec<_>, _>>()?;
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let server = Server::start(ServeOptions {
            addr: "127.0.0.1:0".into(),
            workers,
            cache_cap: CACHE_CAP,
            ..Default::default()
        })
        .map_err(|e| format!("cannot start the server: {e}"))?;
        let stream =
            TcpStream::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let mut b = ServeBench {
            server,
            reader: BufReader::new(stream),
            writer,
            observed: vec![0; keys.len()],
            keys,
            refs,
            order: request_order(seed),
            pos: 0,
            next_id: 0,
            last_counts: [0; 3],
            passes: Vec::new(),
            kinds: BTreeMap::new(),
            errors: Vec::new(),
        };
        // Warm-up: one pass fills the cache, a second checks it is warm.
        let mut off = Tracer::off();
        for _ in 0..2 * b.order.len() {
            if b.step(&mut off).failed > 0 {
                let _ = b.writer.shutdown(Shutdown::Both);
                b.teardown();
                return Err("serve: a warm-up request failed its checks".into());
            }
        }
        if !b.errors.is_empty() {
            return Err(format!("serve: {}", b.errors.join("; ")));
        }
        b.kinds.clear();
        Ok(b)
    }

    fn step(&mut self, tr: &mut Tracer) -> Step {
        let k = self.order[self.pos];
        let key = self.keys[k];
        let id = self.next_id.to_string();
        self.next_id += 1;
        let line = key.request_line(&id);
        let t = Instant::now();
        let reply = self.roundtrip(&line);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let checked = reply.and_then(|r| {
            let (cached, address) = self.check(k, &r)?;
            if tr.enabled() {
                tr.count(
                    if cached {
                        "serve.hit_ms"
                    } else {
                        "serve.miss_ms"
                    },
                    ms,
                );
                tr.count("serve.reply_bytes", r.len() as f64);
                traced_layers(&key, &line, &address, tr)?;
            }
            Ok(cached)
        });
        let failed = match checked {
            Ok(cached) => {
                let kind = format!(
                    "{}/{}/{}",
                    key.kernel,
                    key.mode(),
                    if cached { "hit" } else { "miss" }
                );
                *self.kinds.entry(kind).or_default() += 1;
                0
            }
            Err(e) => {
                note_failure(&e);
                1
            }
        };
        self.pos += 1;
        if self.pos == self.order.len() {
            self.pos = 0;
            self.end_pass();
        }
        Step { ms, ops: 1, failed }
    }

    fn at_boundary(&self) -> bool {
        self.pos == 0
    }

    fn cc_sum(&self) -> u64 {
        self.observed.iter().sum()
    }

    fn layer_metrics(&mut self, tr: &Tracer, out: &mut Metrics) {
        let own = tr.self_ms_per_id();
        let counts = tr.counts_per_id();
        out.median_of(&counts, "serve.hit_ms", "serve.hit_p50_ms", 1.0, "ms");
        out.median_of(&counts, "serve.miss_ms", "serve.miss_p50_ms", 1.0, "ms");
        let last = self.passes.last().copied().unwrap_or_default();
        out.push("serve.cache_hits", last[0] as f64, "count");
        out.push("serve.cache_misses", last[1] as f64, "count");
        out.push("serve.cache_evictions", last[2] as f64, "count");
        let (queue, solve) = match self.cache_counts() {
            Ok((_, serve)) => {
                let us = |f: &str| serve.get(f).and_then(Json::as_f64).unwrap_or(f64::NAN);
                (us("queue_us_p50"), us("solve_us_p50"))
            }
            Err(e) => {
                self.errors.push(e);
                (f64::NAN, f64::NAN)
            }
        };
        out.push("serve.queue_p50_us", queue, "us");
        out.push("serve.solve_p50_us", solve, "us");
        out.median_of(&own, "serve.decode", "serve.decode_us", 1e3, "us");
        out.median_of(&own, "serve.dsl_build", "serve.dsl_build_us", 1e3, "us");
        out.median_of(&own, "serve.ir_passes", "serve.ir_passes_us", 1e3, "us");
        out.median_of(&own, "rr.solve_key", "rr.solve_key_us", 1e3, "us");
        let bytes = counts.get("serve.reply_bytes").cloned().unwrap_or_default();
        out.push(
            "serve.reply_bytes",
            bytes.iter().sum::<f64>() / bytes.len().max(1) as f64,
            "B",
        );
    }

    fn run_errors(&self) -> Vec<String> {
        self.errors.clone()
    }

    fn detail(&self) -> Vec<(String, Json)> {
        let kinds = self
            .kinds
            .iter()
            .map(|(k, &n)| (k.clone(), Json::int(n)))
            .collect();
        vec![
            ("cache_cap".into(), Json::int(CACHE_CAP as u64)),
            ("pass_requests".into(), Json::int(self.order.len() as u64)),
            ("replies_by_kind".into(), Json::Obj(kinds)),
        ]
    }

    fn teardown(self) {
        let _ = self.writer.shutdown(Shutdown::Both);
        self.server.request_shutdown();
        self.server.join();
    }
}
