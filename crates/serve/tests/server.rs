//! End-to-end daemon tests over real TCP on a loopback port.
//!
//! The headline test drives the acceptance scenario from the issue in
//! ONE server session: a malformed request, a deliberately panicking
//! solve, and a deadline-missed request all come back as structured
//! responses — and the server keeps serving afterwards, including a
//! cache hit that is byte-identical to the cold compile.

use eit_core::json::Json;
use eit_serve::{ServeOptions, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// One client connection speaking `eit-serve/1`.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(srv: &Server) -> Client {
        let stream = TcpStream::connect(srv.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// Send one raw line, read one response line, parse it.
    fn roundtrip(&mut self, line: &str) -> Json {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("read response");
        assert!(resp.ends_with('\n'), "response is a complete line");
        Json::parse(resp.trim_end()).expect("response parses")
    }

    fn request(&mut self, members: Vec<(&str, Json)>) -> Json {
        let obj = Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        );
        self.roundtrip(&obj.render_compact())
    }
}

fn status(resp: &Json) -> &str {
    resp.get("status").and_then(Json::as_str).unwrap_or("?")
}

fn error_kind(resp: &Json) -> &str {
    resp.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or("?")
}

/// A tiny kernel as inline XML — small enough to solve in milliseconds
/// even in debug builds.
fn tiny_xml() -> String {
    let ctx = eit_dsl::Ctx::new("tiny");
    let a = ctx.vector([1.0, 2.0, 3.0, 4.0]);
    let b = ctx.vector([2.0, 3.0, 4.0, 5.0]);
    let _ = a.v_add(&b).v_dotp(&b).sqrt();
    eit_ir::to_xml(&ctx.finish())
}

#[test]
fn one_session_survives_malformed_panic_and_deadline() {
    let srv = Server::start(ServeOptions::default()).expect("start server");
    let mut c = Client::connect(&srv);

    // 1. Malformed line: structured bad-request, connection stays up.
    let resp = c.roundtrip("this is not json");
    assert_eq!(status(&resp), "error");
    assert_eq!(error_kind(&resp), "bad-request");
    // Unknown kernels and bad fields are bad-requests too, with the id
    // echoed for correlation.
    let resp = c.request(vec![
        ("id", Json::str("k404")),
        ("op", Json::str("compile")),
        ("kernel", Json::str("no-such-kernel")),
    ]);
    assert_eq!(status(&resp), "error");
    assert_eq!(error_kind(&resp), "bad-request");
    assert_eq!(resp.get("id").and_then(Json::as_str), Some("k404"));

    // 2. A panicking solve: contained, structured, server stays up.
    let resp = c.request(vec![("id", Json::str("boom")), ("op", Json::str("panic"))]);
    assert_eq!(status(&resp), "error");
    assert_eq!(error_kind(&resp), "panic");

    // 3. A deadline-missed request: deadline_ms 0 has already expired
    //    by the time a worker picks it up, deterministically.
    let resp = c.request(vec![
        ("id", Json::str("late")),
        ("op", Json::str("compile")),
        ("xml", Json::str(tiny_xml())),
        ("deadline_ms", Json::int(0)),
    ]);
    assert_eq!(status(&resp), "deadline");
    assert_eq!(resp.get("stage").and_then(Json::as_str), Some("queue"));

    // 4. The same server still compiles: cold miss, then a hit that is
    //    byte-identical to the cold listing.
    let cold = c.request(vec![
        ("id", Json::str("c1")),
        ("op", Json::str("compile")),
        ("xml", Json::str(tiny_xml())),
    ]);
    assert_eq!(status(&cold), "ok", "cold compile: {cold:?}");
    assert_eq!(cold.get("cached"), Some(&Json::Bool(false)));
    assert_eq!(cold.get("verified"), Some(&Json::Bool(true)));
    let warm = c.request(vec![
        ("id", Json::str("c2")),
        ("op", Json::str("compile")),
        ("xml", Json::str(tiny_xml())),
    ]);
    assert_eq!(status(&warm), "ok");
    assert_eq!(warm.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(
        cold.get("listing").and_then(Json::as_str),
        warm.get("listing").and_then(Json::as_str),
        "hit is byte-identical to the cold compile"
    );
    assert_eq!(cold.get("address"), warm.get("address"));
    let solve_us = |r: &Json| {
        r.get("timing")
            .and_then(|t| t.get("solve_us"))
            .and_then(Json::as_u64)
            .unwrap()
    };
    assert_eq!(solve_us(&warm), 0, "hits don't touch the solver");

    // 5. The aggregated metrics saw all of it.
    let resp = c.request(vec![("id", Json::str("m")), ("op", Json::str("stats"))]);
    assert_eq!(status(&resp), "ok");
    let serve = resp.get("metrics").and_then(|m| m.get("serve")).unwrap();
    let count = |k: &str| serve.get(k).and_then(Json::as_u64).unwrap();
    assert!(count("bad_requests") >= 2);
    assert_eq!(count("panics_contained"), 1);
    assert_eq!(count("deadline_misses"), 1);
    let cache = serve.get("cache").unwrap();
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));

    // 6. Clean shutdown: acknowledged, and the server joins.
    let resp = c.request(vec![
        ("id", Json::str("bye")),
        ("op", Json::str("shutdown")),
    ]);
    assert_eq!(status(&resp), "ok");
    drop(c);
    srv.join();
}

#[test]
fn concurrent_clients_on_one_key_compile_once() {
    let srv = Arc::new(Server::start(ServeOptions::default()).expect("start server"));
    let xml = tiny_xml();
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let srv = Arc::clone(&srv);
            let xml = xml.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&srv);
                let resp = c.request(vec![
                    ("id", Json::str(format!("r{i}"))),
                    ("op", Json::str("compile")),
                    ("xml", Json::str(xml)),
                ]);
                assert_eq!(status(&resp), "ok", "client {i}: {resp:?}");
                resp.get("listing")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string()
            })
        })
        .collect();
    let listings: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(
        listings.windows(2).all(|w| w[0] == w[1]),
        "all clients got the same bytes"
    );
    let doc = srv.metrics_document();
    let cache = doc.get("serve").and_then(|s| s.get("cache")).unwrap();
    assert_eq!(
        cache.get("inserts").and_then(Json::as_u64),
        Some(1),
        "single-flight: the hot key compiled exactly once"
    );
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(3));

    let mut c = Client::connect(&srv);
    c.request(vec![("op", Json::str("shutdown"))]);
    drop(c);
    Arc::try_unwrap(srv).ok().expect("sole owner").join();
}

#[test]
fn oversized_lines_resync_and_shutting_down_rejects_compiles() {
    let srv = Server::start(ServeOptions {
        max_line_bytes: 1024,
        ..ServeOptions::default()
    })
    .expect("start server");
    let mut c = Client::connect(&srv);
    let huge = format!(r#"{{"op":"compile","xml":"{}"}}"#, "x".repeat(4096));
    let resp = c.roundtrip(&huge);
    assert_eq!(status(&resp), "error");
    assert_eq!(error_kind(&resp), "bad-request");
    // The connection resynced on the newline: the next request works.
    let resp = c.request(vec![("id", Json::str("p")), ("op", Json::str("ping"))]);
    assert_eq!(status(&resp), "ok");

    srv.request_shutdown();
    let resp = c.request(vec![
        ("op", Json::str("compile")),
        ("kernel", Json::str("qrd")),
    ]);
    assert_eq!(status(&resp), "error");
    assert_eq!(error_kind(&resp), "shutting-down");
    drop(c);
    srv.join();
}

#[test]
fn unbounded_default_deadline_still_compiles() {
    // A budget too large to add to `Instant::now()` means "no deadline":
    // every compile request still gets an answer, in both modes.
    let srv = Server::start(ServeOptions {
        default_deadline: Duration::MAX,
        ..ServeOptions::default()
    })
    .expect("start server");
    let mut c = Client::connect(&srv);
    for mode in ["schedule", "modulo"] {
        let resp = c.request(vec![
            ("id", Json::str(mode)),
            ("op", Json::str("compile")),
            ("xml", Json::str(tiny_xml())),
            ("mode", Json::str(mode)),
        ]);
        assert_eq!(status(&resp), "ok", "{mode}: {resp:?}");
    }
    drop(c);
    srv.request_shutdown();
    srv.join();
}

#[test]
fn modulo_horizon_overflow_is_a_bad_request() {
    // More than 1,024 chained vector ops at the largest latency a spec
    // may declare: a valid graph on a valid machine whose serial horizon
    // does not fit the solver's domains. The modulo sweep refuses it
    // before building a model, and the daemon must say so instead of
    // reporting an expired budget.
    let ctx = eit_dsl::Ctx::new("long");
    let b = ctx.vector([2.0, 3.0, 4.0, 5.0]);
    let mut x = ctx.vector([1.0, 2.0, 3.0, 4.0]);
    for _ in 0..1100 {
        x = x.v_add(&b);
    }
    let mut spec = eit_arch::ArchSpec::eit();
    for op in &mut spec.units.units[0].ops {
        op.latency = eit_arch::ArchSpec::MAX_CYCLES;
    }
    spec.validate().unwrap();
    let srv = Server::start(ServeOptions::default()).expect("start server");
    let mut c = Client::connect(&srv);
    let resp = c.request(vec![
        ("id", Json::str("long")),
        ("op", Json::str("compile")),
        ("xml", Json::str(eit_ir::to_xml(&ctx.finish()))),
        ("arch", Json::str(eit_arch::to_arch_xml(&spec))),
        ("mode", Json::str("modulo")),
    ]);
    assert_eq!(error_kind(&resp), "bad-request", "{resp:?}");
    let message = resp
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap_or("");
    assert!(message.contains("serial horizon"), "{message}");
    drop(c);
    srv.request_shutdown();
    srv.join();
}
