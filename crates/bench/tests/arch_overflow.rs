//! Architecture descriptions whose numbers overflow the solver's `i32`
//! domains, or exceed the size limits that keep its domains small, are
//! refused when they are loaded: `eitc` exits 1 with a message naming
//! the attribute (a panic would exit 101), and `eit-serve` answers
//! `bad-request` (not `panic`).

use eit_arch::{to_arch_xml, ArchSpec};
use eit_core::json::Json;
use eit_serve::{ServeOptions, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::Command;

/// The EIT preset's XML with one attribute replaced, and the attribute
/// the rejection must name.
fn overflowing_specs() -> Vec<(String, &'static str)> {
    let eit = to_arch_xml(&ArchSpec::eit());
    let edit = |from: &str, to: &str| {
        assert!(eit.contains(from), "{from} not in the EIT preset");
        eit.replacen(from, to, 1)
    };
    vec![
        (
            edit("banks=\"16\"", "banks=\"2000000000\""),
            "slots_per_bank=",
        ),
        (
            edit("slots_per_bank=\"4\"", "slots_per_bank=\"1000000000\""),
            "slots_per_bank=\"1000000000\"",
        ),
        (
            edit("latency=\"7\"", "latency=\"2000000000\""),
            "latency=\"2000000000\"",
        ),
        // A lane count past i32 used to wrap into a negative capacity.
        (
            edit("lanes=\"4\"", "lanes=\"4000000000\"").replacen(
                "name=\"vector-core\" count=\"4\"",
                "name=\"vector-core\" count=\"4000000000\"",
                1,
            ),
            "lanes=\"4000000000\"",
        ),
        // 2^31 - 2 slots fit i32, but the slot-geometry propagator would
        // enumerate them all (an allocation failure aborts, unwinding
        // nothing).
        (
            edit(
                "banks=\"16\" page_size=\"4\" slots_per_bank=\"4\"",
                "banks=\"2147483646\" page_size=\"2\" slots_per_bank=\"1\"",
            ),
            "banks=\"2147483646\"",
        ),
        // Not an overflow, but refused the same way: a matrix op narrower
        // than the core used to schedule into co-issue and bank conflicts.
        (
            edit(
                "class=\"matrix\" latency=\"7\" occupancy=\"1\" width=\"0\"",
                "class=\"matrix\" latency=\"7\" occupancy=\"1\" width=\"2\"",
            ),
            "width=\"2\"",
        ),
    ]
}

#[test]
fn eitc_refuses_overflowing_specs_with_exit_1() {
    let dir = std::env::temp_dir();
    for (i, (xml, attr)) in overflowing_specs().into_iter().enumerate() {
        let path = dir.join(format!("eit-arch-overflow-{}-{i}.xml", std::process::id()));
        std::fs::write(&path, xml).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_eitc"))
            .arg("qrd")
            .arg("--arch")
            .arg(&path)
            .output()
            .unwrap();
        std::fs::remove_file(&path).unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{attr}: {stderr}");
        assert!(stderr.starts_with("eitc: --arch: "), "{stderr}");
        assert!(stderr.contains(attr), "{attr} not named: {stderr}");
    }
    // A --slots override past the i32 range is refused the same way.
    let out = Command::new(env!("CARGO_BIN_EXE_eitc"))
        .args(["qrd", "--slots", "3000000000"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("eitc: --slots 3000000000: "), "{stderr}");
}

#[test]
fn serve_answers_bad_request_for_overflowing_specs() {
    let srv = Server::start(ServeOptions::default()).expect("start server");
    let stream = TcpStream::connect(srv.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut roundtrip = |members: Vec<(&str, Json)>| {
        let obj = Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect());
        writeln!(writer, "{}", obj.render_compact()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Json::parse(line.trim_end()).unwrap()
    };
    for (xml, attr) in overflowing_specs() {
        for mode in ["schedule", "modulo"] {
            let resp = roundtrip(vec![
                ("op", Json::str("compile")),
                ("kernel", Json::str("qrd")),
                ("arch", Json::str(xml.clone())),
                ("mode", Json::str(mode)),
            ]);
            let error = resp.get("error").expect("an error reply");
            assert_eq!(
                error.get("kind").and_then(Json::as_str),
                Some("bad-request"),
                "{attr}: {resp:?}"
            );
            let message = error.get("message").and_then(Json::as_str).unwrap();
            assert!(message.contains(attr), "{attr} not named: {message}");
        }
    }
    let resp = roundtrip(vec![("op", Json::str("shutdown"))]);
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    drop((reader, writer));
    srv.join();
}
