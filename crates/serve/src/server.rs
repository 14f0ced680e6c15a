//! The daemon: TCP acceptor, per-connection readers, a bounded
//! admission queue, and a worker pool that runs the `eitc` pipeline
//! behind the content-addressed [`ScheduleCache`].
//!
//! Fault containment, layer by layer:
//!
//! * **Malformed bytes** die in [`decode_request`] (total, structured
//!   errors) or in the capped line reader (oversized lines are drained
//!   to the next newline and answered with `bad-request` — the
//!   connection stays usable).
//! * **Panicking solves** are caught at the request boundary with
//!   [`catch_unwind`]; the client gets an `error`/`panic` response and
//!   the worker returns to its loop. Dropping the cache lease on the
//!   way out promotes a waiting client to compile leader, so a panic
//!   never wedges a cache key either.
//! * **Deadlines** are wall-clock, per request, and enforced twice:
//!   at queue pop (`stage:"queue"`) and inside the solver via a
//!   deadline-bearing [`CancelToken`] (`stage:"solve"`) — no watchdog
//!   thread per solve.
//!
//! Everything here is std-only: `std::net`, threads, mutexes.

use crate::cache::{Lease, ScheduleCache};
use crate::metrics::{Outcome, ServerMetrics};
use crate::protocol::{
    decode_request, encode_response, CompileReply, CompileRequest, ErrorKind, Request,
    RequestTiming, Response,
};
use eit_arch::ArchSpec;
use eit_core::pipeline::{compile, CompileError, CompileOptions};
use eit_core::{
    modulo_schedule_checked, render_compiled, render_modulo, ModuloOptions, SchedulerOptions,
    SolveKey,
};
use eit_cp::CancelToken;
use eit_ir::Graph;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind as IoErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration; `Default` matches the `eitc --serve` defaults.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address; port 0 picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads executing solves.
    pub workers: usize,
    /// Admission-queue bound; requests beyond it are rejected with
    /// `overloaded` instead of queueing unboundedly.
    pub queue_cap: usize,
    /// Content-addressed cache capacity (Ready entries).
    pub cache_cap: usize,
    /// Wall-clock budget for requests that don't send `deadline_ms`.
    pub default_deadline: Duration,
    /// Longest request line accepted before the reader drains and
    /// rejects.
    pub max_line_bytes: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_cap: 64,
            cache_cap: 128,
            default_deadline: Duration::from_secs(120),
            max_line_bytes: 8 << 20,
        }
    }
}

/// What one cold solve produced — the cache value. Everything needed to
/// answer a hit without touching the solver, including the verifier
/// verdict established before the entry's first serve.
#[derive(Debug)]
pub struct CachedSolve {
    pub address: String,
    pub listing: String,
    pub makespan: Option<i64>,
    pub ii: Option<i64>,
    pub verified: bool,
    pub violations: u64,
}

/// Shared writer half of a connection; workers and the reader thread
/// both respond through it, one whole line per lock acquisition.
type ConnWriter = Arc<Mutex<TcpStream>>;

enum JobKind {
    Compile(Box<CompileRequest>),
    /// Fault-injection op: the worker panics on purpose.
    Panic,
}

struct Job {
    id: String,
    kind: JobKind,
    enqueued: Instant,
    /// `None` when the budget is too large to form a deadline.
    deadline: Option<Instant>,
    out: ConnWriter,
}

struct Shared {
    opts: ServeOptions,
    cache: ScheduleCache<CachedSolve>,
    metrics: ServerMetrics,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
}

/// A running daemon. Dropping it does **not** stop it; send a
/// `shutdown` op (or call [`Server::request_shutdown`]) and then
/// [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and start accepting. Returns once the listener is live.
    pub fn start(opts: ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cache: ScheduleCache::new(opts.cache_cap),
            metrics: ServerMetrics::default(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            opts,
        });
        let workers = (0..shared.opts.workers.max(1))
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("eit-serve-worker-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn worker")
            })
            .collect();
        let acceptor = {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("eit-serve-accept".into())
                .spawn(move || accept_loop(&listener, &sh))
                .expect("spawn acceptor")
        };
        Ok(Server {
            addr,
            shared,
            acceptor,
            workers,
        })
    }

    /// The actual bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Flip the shutdown flag, as the `shutdown` op does.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
    }

    /// The aggregated `eit-run-metrics/1` document at this instant.
    pub fn metrics_document(&self) -> eit_core::json::Json {
        self.shared
            .metrics
            .document(self.shared.cache.stats(), self.shared.cache.entries())
    }

    /// Wait for the acceptor and workers to drain and exit (requires a
    /// prior shutdown request).
    pub fn join(self) {
        let _ = self.join_with_metrics();
    }

    /// Like [`Server::join`], but returns the final aggregated metrics
    /// document after the last worker drained — what `eitc --serve
    /// --metrics FILE` writes at shutdown.
    pub fn join_with_metrics(self) -> eit_core::json::Json {
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
        self.shared
            .metrics
            .document(self.shared.cache.stats(), self.shared.cache.entries())
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let sh = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name("eit-serve-conn".into())
                    .spawn(move || handle_conn(stream, &sh));
            }
            Err(e) if e.kind() == IoErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    // Unblock workers so they can drain the queue and observe shutdown.
    shared.queue_cv.notify_all();
}

/// One line read from a connection.
enum LineRead {
    Line(String),
    /// The line outgrew the cap; the remainder up to the next newline
    /// was drained so the connection can resync.
    Overflow,
    Eof,
}

/// Read one `\n`-terminated line, refusing to buffer more than `cap`
/// bytes. An oversized line is consumed (so the next read starts on a
/// message boundary) and reported as [`LineRead::Overflow`].
fn read_line_capped(r: &mut impl BufRead, cap: usize) -> std::io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return if buf.is_empty() {
                Ok(LineRead::Eof)
            } else {
                // Trailing line without newline: treat as a line so a
                // client that sends one request and shuts down write
                // still gets its answer.
                Ok(LineRead::Line(String::from_utf8_lossy(&buf).into_owned()))
            };
        }
        let nl = chunk.iter().position(|&b| b == b'\n');
        let take = nl.map_or(chunk.len(), |i| i + 1);
        if buf.len() + take > cap + 1 {
            // Overflow: drain through the newline, then report.
            r.consume(take);
            if nl.is_none() {
                loop {
                    let chunk = r.fill_buf()?;
                    if chunk.is_empty() {
                        return Ok(LineRead::Eof);
                    }
                    let nl = chunk.iter().position(|&b| b == b'\n');
                    let take = nl.map_or(chunk.len(), |i| i + 1);
                    r.consume(take);
                    if nl.is_some() {
                        break;
                    }
                }
            }
            return Ok(LineRead::Overflow);
        }
        buf.extend_from_slice(&chunk[..take]);
        r.consume(take);
        if nl.is_some() {
            while matches!(buf.last(), Some(b'\n' | b'\r')) {
                buf.pop();
            }
            return Ok(LineRead::Line(String::from_utf8_lossy(&buf).into_owned()));
        }
    }
}

fn write_response(out: &ConnWriter, id: &str, resp: &Response) {
    let line = encode_response(id, resp);
    if let Ok(mut s) = out.lock() {
        let _ = s.write_all(line.as_bytes());
        let _ = s.flush();
    }
}

fn handle_conn(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let writer: ConnWriter = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_line_capped(&mut reader, shared.opts.max_line_bytes) {
            Err(_) | Ok(LineRead::Eof) => return,
            Ok(LineRead::Overflow) => {
                shared.metrics.record_outcome(Outcome::BadRequest);
                write_response(
                    &writer,
                    "",
                    &Response::Error {
                        kind: ErrorKind::BadRequest,
                        message: format!(
                            "request line exceeds {} bytes",
                            shared.opts.max_line_bytes
                        ),
                    },
                );
            }
            Ok(LineRead::Line(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                match decode_request(&line) {
                    Err(e) => {
                        shared.metrics.record_outcome(Outcome::BadRequest);
                        write_response(
                            &writer,
                            &e.id,
                            &Response::Error {
                                kind: ErrorKind::BadRequest,
                                message: e.message,
                            },
                        );
                    }
                    Ok(env) => match env.req {
                        Request::Ping => {
                            shared.metrics.record_outcome(Outcome::Ok);
                            write_response(&writer, &env.id, &Response::Pong);
                        }
                        Request::Stats => {
                            shared.metrics.record_outcome(Outcome::Ok);
                            let doc = shared
                                .metrics
                                .document(shared.cache.stats(), shared.cache.entries());
                            write_response(&writer, &env.id, &Response::Stats(doc));
                        }
                        Request::Shutdown => {
                            shared.metrics.record_outcome(Outcome::Ok);
                            write_response(&writer, &env.id, &Response::ShuttingDown);
                            shared.shutdown.store(true, Ordering::SeqCst);
                            shared.queue_cv.notify_all();
                        }
                        Request::Panic => {
                            enqueue(shared, &writer, &env.id, JobKind::Panic, None);
                        }
                        Request::Compile(req) => {
                            let deadline_ms = req.deadline_ms;
                            enqueue(shared, &writer, &env.id, JobKind::Compile(req), deadline_ms);
                        }
                    },
                }
            }
        }
    }
}

/// Admission control: bounded queue, reject-don't-block.
fn enqueue(
    shared: &Arc<Shared>,
    out: &ConnWriter,
    id: &str,
    kind: JobKind,
    deadline_ms: Option<u64>,
) {
    if shared.shutdown.load(Ordering::SeqCst) {
        shared.metrics.record_outcome(Outcome::OtherError);
        write_response(
            out,
            id,
            &Response::Error {
                kind: ErrorKind::ShuttingDown,
                message: "server is draining".into(),
            },
        );
        return;
    }
    let enqueued = Instant::now();
    let budget = deadline_ms.map_or(shared.opts.default_deadline, Duration::from_millis);
    let job = Job {
        id: id.to_string(),
        kind,
        enqueued,
        deadline: eit_cp::deadline_after(enqueued, budget),
        out: Arc::clone(out),
    };
    let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    if q.len() >= shared.opts.queue_cap {
        drop(q);
        shared.metrics.record_outcome(Outcome::Overloaded);
        write_response(
            out,
            id,
            &Response::Error {
                kind: ErrorKind::Overloaded,
                message: format!("admission queue is full ({})", shared.opts.queue_cap),
            },
        );
        return;
    }
    q.push_back(job);
    drop(q);
    shared.metrics.enqueued();
    shared.queue_cv.notify_one();
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(j) = q.pop_front() {
                    break j;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                q = shared.queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let queue_us = job.enqueued.elapsed().as_micros() as u64;
        shared.metrics.dequeued(queue_us);
        let timing = RequestTiming {
            queue_us,
            solve_us: 0,
        };
        let resp = catch_unwind(AssertUnwindSafe(|| handle_job(shared, &job, timing)));
        let resp = resp.unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            Response::Error {
                kind: ErrorKind::Panic,
                message: format!("worker panicked: {msg}"),
            }
        });
        shared.metrics.record_outcome(outcome_of(&resp));
        write_response(&job.out, &job.id, &resp);
    }
}

fn outcome_of(resp: &Response) -> Outcome {
    match resp {
        Response::Deadline { .. } => Outcome::Deadline,
        Response::Error { kind, .. } => match kind {
            ErrorKind::BadRequest => Outcome::BadRequest,
            ErrorKind::Overloaded => Outcome::Overloaded,
            ErrorKind::Panic => Outcome::Panic,
            _ => Outcome::OtherError,
        },
        _ => Outcome::Ok,
    }
}

fn bad_request(message: String) -> Response {
    Response::Error {
        kind: ErrorKind::BadRequest,
        message,
    }
}

/// Execute one queued job. Runs under `catch_unwind`; may panic (that
/// is the point of the `panic` op) and must leave no shared state
/// wedged when it does — the only cross-request state it touches is the
/// cache, whose lease guard is panic-safe by construction.
fn handle_job(shared: &Arc<Shared>, job: &Job, mut timing: RequestTiming) -> Response {
    let req = match &job.kind {
        JobKind::Panic => panic!("deliberate panic requested by the panic op"),
        JobKind::Compile(req) => req,
    };
    let now = Instant::now();
    if job.deadline.is_some_and(|d| now >= d) {
        return Response::Deadline {
            stage: "queue",
            timing,
        };
    }
    let budget = job
        .deadline
        .map_or(Duration::MAX, |d| d.saturating_duration_since(now));

    // Load and prepare the graph exactly as `eitc <kernel>` would:
    // validate, then the pipeline-merge pass.
    let mut g: Graph = if let Some(name) = &req.kernel {
        match eit_apps::by_name(name) {
            Some(k) => k.graph,
            None => return bad_request(format!("unknown kernel '{name}'")),
        }
    } else if let Some(xml) = &req.xml {
        match eit_ir::from_xml(xml) {
            Ok(g) => g,
            Err(e) => return bad_request(format!("invalid IR xml: {e}")),
        }
    } else {
        return bad_request("compile needs 'kernel' or 'xml'".into());
    };
    if let Err(e) = g.validate() {
        return bad_request(format!("invalid IR: {e}"));
    }
    let _ = eit_ir::merge_pipeline_ops(&mut g);
    // Resolve the target machine: preset name or inline eit-arch/1 XML,
    // validated on load. The resolved spec's hash is part of the cache
    // key, so different machines never alias in the solve cache.
    let mut spec = match &req.arch {
        Some(a) => match eit_arch::resolve_arch(a) {
            Ok(s) => s,
            Err(e) => return bad_request(e),
        },
        None => ArchSpec::eit(),
    };
    // An explicit `slots` overrides the arch's own budget; absent, the
    // default machine keeps its historical 64-slot cap so pre-`arch`
    // requests hash to the same cache addresses as before.
    match (req.slots, req.arch.is_some()) {
        (Some(n), _) => spec = spec.with_slots(n),
        (None, false) => spec = spec.with_slots(64),
        (None, true) => {}
    }
    let token = job
        .deadline
        .map_or_else(CancelToken::new, CancelToken::with_deadline);
    let solve_started = Instant::now();

    if req.modulo {
        let mopts = ModuloOptions {
            include_reconfig: req.include_reconfig,
            timeout_per_ii: budget,
            total_timeout: budget,
            cancel: Some(token.clone()),
            ..Default::default()
        };
        let key = SolveKey::modulo(&g, &spec, &mopts);
        let address = key.content_address();
        match shared.cache.get_or_lease(&key) {
            Lease::Hit(v) => Response::Compiled(Box::new(reply_from(&v, true, timing))),
            Lease::Miss(guard) => match modulo_schedule_checked(&g, &spec, &mopts) {
                Ok(Some(r)) => {
                    timing.solve_us = solve_started.elapsed().as_micros() as u64;
                    shared.metrics.solved(timing.solve_us);
                    let violations = eit_arch::verify_modulo(&g, &spec, &r.s, r.ii_issue);
                    let v = guard.fulfill(CachedSolve {
                        address,
                        listing: render_modulo(&g, &r),
                        makespan: None,
                        ii: Some(r.ii_issue as i64),
                        verified: violations.is_empty(),
                        violations: violations.len() as u64,
                    });
                    Response::Compiled(Box::new(reply_from(&v, false, timing)))
                }
                Ok(None) if token.is_cancelled() => Response::Deadline {
                    stage: "solve",
                    timing,
                },
                Ok(None) => Response::Error {
                    kind: ErrorKind::Timeout,
                    message: "no modulo schedule found within budget".into(),
                },
                // The graph cannot be modelled on this machine, as with
                // `CompileError::TooLarge` below.
                Err(e) => bad_request(e.to_string()),
            },
        }
    } else {
        // Mirror the `--record` path: hoist CSE out of `compile` so the
        // cache key's ir_hash covers the exact graph the solver sees.
        let _ = eit_ir::eliminate_common_subexpressions(&mut g);
        let sched_opts = SchedulerOptions {
            memory: true,
            timeout: Some(budget),
            cancel: Some(token.clone()),
            ..Default::default()
        };
        let key = SolveKey::schedule(&g, &spec, &sched_opts);
        let address = key.content_address();
        match shared.cache.get_or_lease(&key) {
            Lease::Hit(v) => Response::Compiled(Box::new(reply_from(&v, true, timing))),
            Lease::Miss(guard) => {
                let copts = CompileOptions {
                    cse: false,   // hoisted above, like --record
                    merge: false, // already applied above
                    scheduler: sched_opts,
                };
                match compile(g, &spec, &copts) {
                    Ok(out) => {
                        timing.solve_us = solve_started.elapsed().as_micros() as u64;
                        shared.metrics.solved(timing.solve_us);
                        let violations =
                            eit_arch::verify_schedule(&out.graph, &spec, &out.schedule, true);
                        let v = guard.fulfill(CachedSolve {
                            address,
                            listing: render_compiled(&out),
                            makespan: Some(out.schedule.makespan as i64),
                            ii: None,
                            verified: violations.is_empty(),
                            violations: violations.len() as u64,
                        });
                        Response::Compiled(Box::new(reply_from(&v, false, timing)))
                    }
                    Err(CompileError::Timeout) if token.is_cancelled() => Response::Deadline {
                        stage: "solve",
                        timing,
                    },
                    Err(CompileError::Timeout) => Response::Error {
                        kind: ErrorKind::Timeout,
                        message: "solver budget expired".into(),
                    },
                    Err(CompileError::Infeasible) => Response::Error {
                        kind: ErrorKind::Infeasible,
                        message: "proven infeasible on this machine configuration".into(),
                    },
                    Err(e) => bad_request(format!("{e}")),
                }
            }
        }
    }
}

fn reply_from(v: &CachedSolve, cached: bool, timing: RequestTiming) -> CompileReply {
    CompileReply {
        cached,
        address: v.address.clone(),
        verified: v.verified,
        violations: v.violations,
        makespan: v.makespan,
        ii: v.ii,
        listing: v.listing.clone(),
        timing,
    }
}
