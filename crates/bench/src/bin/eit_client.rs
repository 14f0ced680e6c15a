//! `eit_client` — a thin `eit-serve/1` client for scripts and CI.
//!
//! ```text
//! eit_client [--addr HOST:PORT] [--retry N] <command>
//!
//!   --addr HOST:PORT    daemon address (default: 127.0.0.1:7871)
//!   --retry N           connection attempts, 200 ms apart (default: 1;
//!                       lets scripts race the daemon's startup)
//!
//!   ping                          liveness probe
//!   stats                         aggregated server metrics
//!   shutdown                      ask the daemon to drain and exit
//!   panic                         fault-injection: make a worker panic
//!   raw LINE                      send LINE verbatim (protocol testing)
//!   compile <kernel|path.xml>     compile a builtin kernel or an IR file
//!       [--arch A]                target machine: preset name, path to an
//!                                 eit-arch/1 XML file (sent inline), or
//!                                 inline XML (default: server's eit)
//!       [--slots N]               memory budget (default: the arch's own;
//!                                 64 for the server's default machine)
//!       [--modulo [incl]]         modulo schedule instead
//!       [--deadline-ms N]         per-request wall-clock deadline
//!       [--out FILE]              write the decoded listing to FILE
//! ```
//!
//! The raw response line is printed to stdout. Exit status: 0 when a
//! response arrived (including structured errors — scripts grep the
//! line), 1 on transport failure, 2 on usage errors.

use eit_core::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::exit;
use std::time::Duration;

struct Args {
    addr: String,
    retry: u32,
    command: Command,
}

enum Command {
    Ping,
    Stats,
    Shutdown,
    Panic,
    Raw(String),
    Compile {
        kernel: String,
        arch: Option<String>,
        slots: Option<u64>,
        modulo: Option<bool>, // Some(include_reconfig)
        deadline_ms: Option<u64>,
        out: Option<String>,
    },
}

fn usage() -> ! {
    eprintln!("usage: eit_client [--addr HOST:PORT] [--retry N] <command>");
    eprintln!("       commands: ping | stats | shutdown | panic | raw LINE");
    eprintln!(
        "                 | compile <kernel|path.xml> [--arch A] [--slots N] [--modulo [incl]]"
    );
    eprintln!("                           [--deadline-ms N] [--out FILE]");
    exit(2);
}

fn parse_args() -> Args {
    let mut addr = "127.0.0.1:7871".to_string();
    let mut retry = 1u32;
    let mut it = std::env::args().skip(1).peekable();
    let command = loop {
        match it.next().as_deref() {
            Some("--addr") => addr = it.next().unwrap_or_else(|| usage()),
            Some("--retry") => {
                retry = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            Some("ping") => break Command::Ping,
            Some("stats") => break Command::Stats,
            Some("shutdown") => break Command::Shutdown,
            Some("panic") => break Command::Panic,
            Some("raw") => break Command::Raw(it.next().unwrap_or_else(|| usage())),
            Some("compile") => {
                let kernel = it.next().unwrap_or_else(|| usage());
                let mut arch = None;
                let mut slots = None;
                let mut modulo = None;
                let mut deadline_ms = None;
                let mut out = None;
                while let Some(a) = it.next() {
                    match a.as_str() {
                        "--arch" => arch = Some(it.next().unwrap_or_else(|| usage())),
                        "--slots" => {
                            slots = Some(
                                it.next()
                                    .and_then(|v| v.parse().ok())
                                    .unwrap_or_else(|| usage()),
                            )
                        }
                        "--modulo" => {
                            let incl = it.peek().map(String::as_str) == Some("incl");
                            if incl {
                                it.next();
                            }
                            modulo = Some(incl);
                        }
                        "--deadline-ms" => {
                            deadline_ms = Some(
                                it.next()
                                    .and_then(|v| v.parse().ok())
                                    .unwrap_or_else(|| usage()),
                            )
                        }
                        "--out" => out = Some(it.next().unwrap_or_else(|| usage())),
                        other => {
                            eprintln!("eit_client: unrecognized argument '{other}'");
                            usage();
                        }
                    }
                }
                break Command::Compile {
                    kernel,
                    arch,
                    slots,
                    modulo,
                    deadline_ms,
                    out,
                };
            }
            Some(other) => {
                eprintln!("eit_client: unrecognized argument '{other}'");
                usage();
            }
            None => usage(),
        }
    };
    if it.next().is_some() {
        usage();
    }
    Args {
        addr,
        retry,
        command,
    }
}

fn connect(addr: &str, retry: u32) -> TcpStream {
    let mut last = None;
    for attempt in 0..retry {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(200));
        }
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(e) => last = Some(e),
        }
    }
    eprintln!(
        "eit_client: cannot connect to {addr} after {retry} attempt(s): {}",
        last.map_or_else(|| "?".into(), |e| e.to_string())
    );
    exit(1);
}

fn request_line(cmd: &Command) -> String {
    let mut members = vec![
        ("v".to_string(), Json::str("eit-serve/1")),
        ("id".to_string(), Json::str("cli")),
    ];
    match cmd {
        Command::Ping => members.push(("op".into(), Json::str("ping"))),
        Command::Stats => members.push(("op".into(), Json::str("stats"))),
        Command::Shutdown => members.push(("op".into(), Json::str("shutdown"))),
        Command::Panic => members.push(("op".into(), Json::str("panic"))),
        Command::Raw(line) => return line.clone(),
        Command::Compile {
            kernel,
            arch,
            slots,
            modulo,
            deadline_ms,
            ..
        } => {
            members.push(("op".into(), Json::str("compile")));
            if kernel.ends_with(".xml") {
                let xml = std::fs::read_to_string(kernel).unwrap_or_else(|e| {
                    eprintln!("eit_client: cannot read {kernel}: {e}");
                    exit(1);
                });
                members.push(("xml".into(), Json::str(xml)));
            } else {
                members.push(("kernel".into(), Json::str(kernel.clone())));
            }
            if let Some(a) = arch {
                // A path to an arch file is read here and shipped inline;
                // preset names and inline XML pass through untouched. The
                // wire format only ever carries presets or XML.
                let value = if std::path::Path::new(a).exists() {
                    std::fs::read_to_string(a).unwrap_or_else(|e| {
                        eprintln!("eit_client: cannot read {a}: {e}");
                        exit(1);
                    })
                } else {
                    a.clone()
                };
                members.push(("arch".into(), Json::str(value)));
            }
            if let Some(n) = slots {
                members.push(("slots".into(), Json::int(*n)));
            }
            if let Some(incl) = modulo {
                members.push(("mode".into(), Json::str("modulo")));
                if *incl {
                    members.push(("include_reconfig".into(), Json::Bool(true)));
                }
            }
            if let Some(ms) = deadline_ms {
                members.push(("deadline_ms".into(), Json::int(*ms)));
            }
        }
    }
    Json::Obj(members).render_compact()
}

fn main() {
    let args = parse_args();
    let stream = connect(&args.addr, args.retry);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(600)));
    let mut writer = stream.try_clone().unwrap_or_else(|e| {
        eprintln!("eit_client: {e}");
        exit(1);
    });
    let mut reader = BufReader::new(stream);
    let line = request_line(&args.command);
    if writer
        .write_all(format!("{line}\n").as_bytes())
        .and_then(|()| writer.flush())
        .is_err()
    {
        eprintln!("eit_client: connection lost while sending");
        exit(1);
    }
    let mut resp = String::new();
    match reader.read_line(&mut resp) {
        Ok(0) => {
            eprintln!("eit_client: server closed the connection without responding");
            exit(1);
        }
        Ok(_) => {}
        Err(e) => {
            eprintln!("eit_client: {e}");
            exit(1);
        }
    }
    print!("{resp}");
    if let Command::Compile {
        out: Some(path), ..
    } = &args.command
    {
        match Json::parse(resp.trim_end())
            .ok()
            .as_ref()
            .and_then(|d| d.get("listing"))
            .and_then(Json::as_str)
        {
            Some(listing) => {
                if let Err(e) = std::fs::write(path, listing) {
                    eprintln!("eit_client: cannot write {path}: {e}");
                    exit(1);
                }
            }
            None => {
                eprintln!("eit_client: response carries no listing; {path} not written");
                exit(1);
            }
        }
    }
}
