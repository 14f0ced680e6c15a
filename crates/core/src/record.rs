//! `eit-trace/2`: a recorded solve as one JSON-lines file. Only this
//! module knows the format (DESIGN.md §5h).
//!
//! Line 1 is the header: `{"format":"eit-trace/2","ir_hash":"<hex>",
//! "arch_hash":"<hex>","hash_every":N,"config":"…"}`, the [`TraceHeader`]
//! that ties the recording to its solve. Every other line is one
//! [`SearchEvent::to_json`], in emission order. Every line ends in `\n`,
//! and the trace hash is FNV-1a over the file bytes.
//!
//! The reader is total: it parses each line with the depth-capped
//! [`Json::parse`] and accepts it only if re-rendering what it decoded
//! gives the same bytes, so anything the writer would not have written
//! is an error naming the line, never a panic or a skipped event.

use crate::json::Json;
use crate::rr::TraceHeader;
use eit_cp::trace::{SearchEvent, TraceSink};
use eit_cp::{fnv1a, Fnv64};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// The header's `format` tag.
pub const FORMAT: &str = "eit-trace/2";

fn header_line(h: &TraceHeader) -> String {
    let hex = |digest: u64| Json::str(format!("{digest:016x}"));
    Json::Obj(vec![
        ("format".into(), Json::str(FORMAT)),
        ("ir_hash".into(), hex(h.ir_hash)),
        ("arch_hash".into(), hex(h.arch_hash)),
        ("hash_every".into(), Json::int(h.hash_every)),
        ("config".into(), Json::str(&h.config)),
    ])
    .render_compact()
}

/// Field `key` as an integer: a JSON number with no fraction, at most
/// 2^53 in magnitude (past that an f64 is not exact), that fits `T`.
fn int<T: TryFrom<i64>>(obj: &Json, key: &str) -> Result<T, String> {
    let n = obj.get(key).and_then(Json::as_f64);
    let n = n.ok_or_else(|| format!("no number field '{key}'"))?;
    if n.fract() != 0.0 || n.abs() > (1u64 << 53) as f64 {
        return Err(format!("'{key}' is not an integer within 2^53"));
    }
    T::try_from(n as i64).map_err(|_| format!("'{key}' is out of range"))
}

/// Field `key` as a string.
fn str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("no string field '{key}'"))
}

/// Field `key` as a 64-bit digest in hex.
fn hex(obj: &Json, key: &str) -> Result<u64, String> {
    u64::from_str_radix(str(obj, key)?, 16).map_err(|_| format!("'{key}' is not hex"))
}

fn parse_header(line: &str) -> Result<TraceHeader, String> {
    let obj = Json::parse(line).map_err(|e| e.to_string())?;
    let format = str(&obj, "format")?;
    if format != FORMAT {
        return Err(format!("format '{format}', this build reads {FORMAT}"));
    }
    let h = TraceHeader {
        ir_hash: hex(&obj, "ir_hash")?,
        arch_hash: hex(&obj, "arch_hash")?,
        hash_every: int(&obj, "hash_every")?,
        config: str(&obj, "config")?.to_string(),
    };
    canonical(h, line, header_line)
}

/// `decoded` if `render` gives back exactly `line`.
fn canonical<T>(decoded: T, line: &str, render: impl Fn(&T) -> String) -> Result<T, String> {
    if render(&decoded) == line {
        Ok(decoded)
    } else {
        Err("not the canonical rendering of its fields".into())
    }
}

fn parse_event(line: &str) -> Result<SearchEvent, String> {
    use SearchEvent::*;
    let o = &Json::parse(line).map_err(|e| e.to_string())?;
    let event = match str(o, "event")? {
        "start" => Start {
            vars: int(o, "vars")?,
            propagators: int(o, "propagators")?,
        },
        "branch" => Branch {
            depth: int(o, "depth")?,
            var: int(o, "var")?,
            val: int(o, "val")?,
        },
        "fail" => Fail {
            depth: int(o, "depth")?,
        },
        "backtrack" => Backtrack {
            depth: int(o, "depth")?,
        },
        "solution" => Solution {
            objective: match o.get("objective") {
                Some(Json::Null) => None,
                _ => Some(int(o, "objective")?),
            },
            nodes: int(o, "nodes")?,
        },
        "bound" => BoundUpdate {
            bound: int(o, "bound")?,
        },
        "restart" => Restart {
            bound: int(o, "bound")?,
        },
        "deadline" => DeadlineHit {
            nodes: int(o, "nodes")?,
        },
        "cancelled" => Cancelled {
            nodes: int(o, "nodes")?,
        },
        "state_hash" => StateHash {
            nodes: int(o, "nodes")?,
            hash: hex(o, "hash")?,
        },
        "stream" => Stream { id: int(o, "id")? },
        "done" => Done {
            status: ["optimal", "feasible", "infeasible", "unknown"]
                .into_iter()
                .find(|&s| Ok(s) == str(o, "status"))
                .ok_or("no known 'status'")?,
            nodes: int(o, "nodes")?,
            fails: int(o, "fails")?,
            solutions: int(o, "solutions")?,
        },
        kind => return Err(format!("unknown event kind '{kind}'")),
    };
    canonical(event, line, SearchEvent::to_json)
}

/// A trace file loaded back into memory.
#[derive(Clone, Debug)]
pub struct Trace {
    pub header: TraceHeader,
    pub events: Vec<SearchEvent>,
    /// FNV-1a over the whole file: the recorder's [`RecorderSink::hash`]
    /// for an intact file.
    pub file_hash: u64,
}

impl Trace {
    /// Load and validate a trace file.
    pub fn read(path: impl AsRef<Path>) -> io::Result<Trace> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    pub fn from_bytes(bytes: &[u8]) -> io::Result<Trace> {
        if bytes.starts_with(b"EITTRACE") {
            return Err(invalid(format!("a binary eit-trace/1 file, not {FORMAT}")));
        }
        let body = bytes.strip_suffix(b"\n");
        let body = body.ok_or_else(|| invalid("truncated: no newline at the end".into()))?;
        let mut lines = body.split(|&b| b == b'\n').zip(1..);
        let (first, _) = lines.next().unwrap_or_default();
        Ok(Trace {
            header: decode(1, first, parse_header)?,
            events: lines
                .map(|(line, n)| decode(n, line, parse_event))
                .collect::<io::Result<_>>()?,
            file_hash: fnv1a(bytes),
        })
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Decode line `n` (1-based) with `parse`, naming the line in any error.
fn decode<T>(n: usize, line: &[u8], parse: fn(&str) -> Result<T, String>) -> io::Result<T> {
    let line = std::str::from_utf8(line).map_err(|_| "not UTF-8".to_string());
    line.and_then(parse)
        .map_err(|why| invalid(format!("line {n}: {why}")))
}

/// A [`TraceSink`] that streams every event to an `eit-trace/2` file.
/// Keep it behind an `Arc<Mutex<_>>` to read [`hash`](Self::hash) and
/// [`events`](Self::events) after the solve, and to ask
/// [`finish`](Self::finish) whether the file was written; the search
/// flushes it at `Done`.
pub struct RecorderSink {
    out: BufWriter<File>,
    hash: Fnv64,
    events: u64,
    /// The first write or flush error, kept for [`finish`](Self::finish).
    error: Option<io::Error>,
}

impl RecorderSink {
    /// Create `path` and write the header line.
    pub fn create(path: impl AsRef<Path>, header: &TraceHeader) -> io::Result<Self> {
        let out = BufWriter::new(File::create(path)?);
        let mut sink = RecorderSink {
            out,
            hash: Fnv64::new(),
            events: 0,
            error: None,
        };
        sink.line(header_line(header))?;
        Ok(sink)
    }

    fn line(&mut self, mut text: String) -> io::Result<()> {
        text.push('\n');
        self.hash.write(text.as_bytes());
        self.out.write_all(text.as_bytes())
    }

    /// FNV-1a over everything written so far, header included.
    pub fn hash(&self) -> u64 {
        self.hash.finish()
    }

    /// Event lines written.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Flush, then return the first write or flush error of the
    /// recording, if any.
    pub fn finish(&mut self) -> io::Result<()> {
        self.flush();
        self.error.take().map_or(Ok(()), Err)
    }

    fn keep(&mut self, r: io::Result<()>) {
        if let Err(e) = r {
            self.error.get_or_insert(e);
        }
    }
}

impl TraceSink for RecorderSink {
    fn record(&mut self, event: &SearchEvent) {
        // An I/O error mid-search must not kill the solve; it is kept for
        // `finish`, and the hash still covers the intended bytes.
        let r = self.line(event.to_json());
        self.keep(r);
        self.events += 1;
    }

    fn flush(&mut self) {
        let r = self.out.flush();
        self.keep(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<SearchEvent> {
        vec![
            SearchEvent::Start {
                vars: 7,
                propagators: 3,
            },
            SearchEvent::Branch {
                depth: 2,
                var: 5,
                val: -4,
            },
            SearchEvent::Fail { depth: 3 },
            SearchEvent::Backtrack { depth: 1 },
            SearchEvent::Solution {
                objective: Some(-9),
                nodes: 41,
            },
            SearchEvent::Solution {
                objective: None,
                nodes: 42,
            },
            SearchEvent::BoundUpdate { bound: 17 },
            SearchEvent::Restart { bound: 16 },
            SearchEvent::DeadlineHit { nodes: 100 },
            SearchEvent::Cancelled { nodes: 102 },
            SearchEvent::StateHash {
                nodes: 64,
                hash: 0xdead_beef_0123_4567,
            },
            SearchEvent::Stream { id: 9 },
            SearchEvent::Done {
                status: "feasible",
                nodes: 103,
                fails: 50,
                solutions: 2,
            },
            SearchEvent::Done {
                status: "unknown",
                nodes: 1 << 53,
                fails: 0,
                solutions: 0,
            },
        ]
    }

    fn header() -> TraceHeader {
        TraceHeader {
            ir_hash: 0x0123_4567_89ab_cdef,
            arch_hash: 2,
            hash_every: 64,
            config: "mode=test;quote=\"\\".into(),
        }
    }

    /// The file the recorder writes for `events` under [`header`].
    fn file(events: &[SearchEvent]) -> String {
        let mut text = header_line(&header()) + "\n";
        for e in events {
            text += &(e.to_json() + "\n");
        }
        text
    }

    /// The reader's error for `bytes`, which must not load.
    fn refused(bytes: impl AsRef<[u8]>) -> String {
        match Trace::from_bytes(bytes.as_ref()) {
            Ok(t) => panic!("accepted {:?}", t.events),
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                e.to_string()
            }
        }
    }

    #[test]
    fn roundtrip_preserves_every_variant() {
        let events = all_variants();
        let bytes = file(&events);
        let t = Trace::from_bytes(bytes.as_bytes()).unwrap();
        assert_eq!(t.header, header());
        assert_eq!(t.events, events);
        assert_eq!(t.file_hash, fnv1a(bytes.as_bytes()));
        assert!(bytes.starts_with(
            "{\"format\":\"eit-trace/2\",\"ir_hash\":\"0123456789abcdef\",\
             \"arch_hash\":\"0000000000000002\",\"hash_every\":64,"
        ));
        // A header with no events is a valid (empty) recording.
        assert!(Trace::from_bytes(file(&[]).as_bytes())
            .unwrap()
            .events
            .is_empty());
    }

    #[test]
    fn truncated_and_corrupt_traces_are_rejected() {
        let good = file(&all_variants());
        let fail = "{\"event\":\"fail\",\"depth\":1}";
        let with = |line: &str| file(&[]) + line + "\n";
        let cases: Vec<(Vec<u8>, &str)> = vec![
            (Vec::new(), "truncated"),
            (good[..good.len() - 1].into(), "truncated"),
            (good[..good.len() - 5].into(), "truncated"),
            (b"EITTRACE\x01\0\0\0\n".to_vec(), "binary eit-trace/1"),
            (
                good.replacen("eit-trace/2", "eit-trace/3", 1).into(),
                "line 1: format 'eit-trace/3'",
            ),
            (
                good.replacen("\"format\":\"eit-trace/2\",", "", 1).into(),
                "line 1: no string field 'format'",
            ),
            (
                good.replacen("\"hash_every\":64", "\"hash_every\":64.0", 1)
                    .into(),
                "line 1: not the canonical",
            ),
            (
                good.replacen("\"config\"", "\"extra\":0,\"config\"", 1).into(),
                "line 1: not the canonical",
            ),
            (
                good.replacen("\"ir_hash\":\"", "\"ir_hash\":\"+", 1).into(),
                "line 1: not the canonical",
            ),
            (with("{\"event\":\"fail\"}").into(), "line 2: no number field 'depth'"),
            (
                with("{\"event\":\"fail\",\"depth\":1,\"x\":2}").into(),
                "line 2: not the canonical",
            ),
            (
                with("{\"depth\":1,\"event\":\"fail\"}").into(),
                "line 2: not the canonical",
            ),
            (
                with("{\"event\": \"fail\",\"depth\":1}").into(),
                "line 2: not the canonical",
            ),
            (
                with("{\"event\":\"fail\",\"depth\":1e0}").into(),
                "line 2: not the canonical",
            ),
            (
                with("{\"event\":\"deadline\",\"nodes\":9007199254740994}").into(),
                "line 2: 'nodes' is not an integer within 2^53",
            ),
            (
                with("{\"event\":\"deadline\",\"nodes\":9007199254740993}").into(),
                "line 2: not the canonical",
            ),
            (
                with("{\"event\":\"stream\",\"id\":4294967296}").into(),
                "line 2: 'id' is out of range",
            ),
            (
                with("{\"event\":\"fail\",\"depth\":-1}").into(),
                "line 2: 'depth' is out of range",
            ),
            (
                with("{\"event\":\"done\",\"status\":\"solved\",\"nodes\":1,\"fails\":0,\"solutions\":0}")
                    .into(),
                "line 2: no known 'status'",
            ),
            (with("[[[[[[").into(), "line 2: at byte"),
            (with("").into(), "line 2: at byte"),
            (
                [file(&[]).as_bytes(), b"{\"event\":\"fail\xff\",\"depth\":1}\n"].concat(),
                "line 2: not UTF-8",
            ),
            (with(fail).replace('\n', "\r\n").into(), "line 1: "),
        ];
        for (bytes, want) in cases {
            let err = refused(&bytes);
            assert!(
                err.contains(want),
                "{:?}: got {err}, want {want}",
                String::from_utf8_lossy(&bytes)
            );
        }
        assert!(Trace::from_bytes(with(fail).as_bytes()).is_ok());
    }

    #[test]
    fn retired_node_limit_kind_is_rejected() {
        for kind in ["node_limit", "Fail", "", "nodelimit"] {
            let line = format!("{{\"event\":\"{kind}\",\"nodes\":101}}");
            let err = refused(file(&[]) + &line + "\n");
            assert!(
                err.contains(&format!("line 2: unknown event kind '{kind}'")),
                "{err}"
            );
        }
        let err = refused(file(&[]) + "{\"nodes\":101}\n");
        assert!(err.contains("line 2: no string field 'event'"), "{err}");
    }

    #[test]
    fn recorder_sink_writes_a_readable_file_with_matching_hash() {
        let dir = std::env::temp_dir().join("eit-record-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("roundtrip-{}.trace", std::process::id()));
        let events = all_variants();
        let mut sink = RecorderSink::create(&path, &header()).unwrap();
        for e in &events {
            sink.record(e);
        }
        sink.flush();
        let (hash, count) = (sink.hash(), sink.events());
        drop(sink);
        let bytes = std::fs::read(&path).unwrap();
        let t = Trace::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(bytes, file(&events).as_bytes());
        assert_eq!(t.header, header());
        assert_eq!(t.events, events);
        assert_eq!(t.file_hash, hash);
        assert_eq!(count, events.len() as u64);
    }
}
