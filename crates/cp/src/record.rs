//! `eit-trace/1`: the versioned binary search-trace format.
//!
//! A trace file ties one recorded solve to the exact inputs that produced
//! it — a canonical IR hash, an architecture hash, and the solver
//! configuration string — followed by every [`SearchEvent`] the run
//! emitted, length-prefixed so a reader detects truncation and trailing
//! bytes. A record with a tag this build does not know is an error, not
//! skipped: a replay that silently dropped events would diff against a
//! different stream than the one recorded.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic       8 bytes   b"EITTRACE"
//! version     u32       1
//! ir_hash     u64       FNV-1a over the canonical IR serialization
//! arch_hash   u64       FNV-1a over the ArchSpec's canonical field string
//! hash_every  u64       StateHash cadence in nodes; 0 = hashing off
//! config_len  u32       byte length of the config string
//! config      bytes     UTF-8 solver-configuration summary
//! records     ...       until EOF, each: [len: u8][tag: u8][payload]
//! ```
//!
//! `len` counts every byte after itself (tag included). The running
//! FNV-1a digest of *all* bytes written — header and records — is the
//! trace hash recorded in `eit-run-metrics/1`; two runs are
//! byte-identical iff their hashes are.
//!
//! [`RecorderSink`] streams events straight to disk through the ordinary
//! [`TraceSink`] trait, so recording plugs into any search driver that
//! takes a [`crate::TraceHandle`]. [`Trace::read`] loads a file back for
//! the replay engine in [`mod@crate::replay`].

use crate::trace::{SearchEvent, TraceSink};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// File magic, first 8 bytes of every trace.
pub const TRACE_MAGIC: &[u8; 8] = b"EITTRACE";
/// Format version this module reads and writes.
pub const TRACE_VERSION: u32 = 1;

/// Streaming FNV-1a 64-bit hasher. Hand-rolled on purpose: the trace
/// hash is part of the on-disk format and must not drift with std's
/// unspecified `DefaultHasher`.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a 64-bit digest of `bytes` in one call.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Everything the header binds a trace to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceHeader {
    /// Digest of the exact IR that was scheduled (post-pass).
    pub ir_hash: u64,
    /// Digest of the target architecture's canonical parameter string.
    pub arch_hash: u64,
    /// [`SearchEvent::StateHash`] cadence in nodes; 0 = hashing off.
    pub hash_every: u64,
    /// Human-readable solver-configuration summary. Excludes anything
    /// nondeterministic or execution-only (thread counts): traces from
    /// `--jobs 1` and `--jobs N` of the same solve must be byte-equal.
    pub config: String,
}

impl TraceHeader {
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(40 + self.config.len());
        out.extend_from_slice(TRACE_MAGIC);
        out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        out.extend_from_slice(&self.ir_hash.to_le_bytes());
        out.extend_from_slice(&self.arch_hash.to_le_bytes());
        out.extend_from_slice(&self.hash_every.to_le_bytes());
        out.extend_from_slice(&(self.config.len() as u32).to_le_bytes());
        out.extend_from_slice(self.config.as_bytes());
        out
    }
}

// Event tags. Append-only: new variants get new numbers, and version
// bumps are for layout changes, not new tags. Tag 8 belonged to a
// retired event and stays reserved, so an old file holding one is
// refused rather than decoded as a different event.
const TAG_START: u8 = 0;
const TAG_BRANCH: u8 = 1;
const TAG_FAIL: u8 = 2;
const TAG_BACKTRACK: u8 = 3;
const TAG_SOLUTION: u8 = 4;
const TAG_BOUND: u8 = 5;
const TAG_RESTART: u8 = 6;
const TAG_DEADLINE: u8 = 7;
const TAG_CANCELLED: u8 = 9;
const TAG_DONE: u8 = 10;
const TAG_STATE_HASH: u8 = 11;
const TAG_STREAM: u8 = 12;

fn status_code(status: &str) -> u8 {
    match status {
        "optimal" => 0,
        "feasible" => 1,
        "infeasible" => 2,
        _ => 3, // "unknown" and anything future
    }
}

fn status_str(code: u8) -> Option<&'static str> {
    Some(match code {
        0 => "optimal",
        1 => "feasible",
        2 => "infeasible",
        3 => "unknown",
        _ => return None,
    })
}

/// Append one `[len][tag][payload]` record for `event` to `buf`.
fn encode(event: &SearchEvent, buf: &mut Vec<u8>) {
    let at = buf.len();
    buf.push(0); // length placeholder
    match event {
        SearchEvent::Start { vars, propagators } => {
            buf.push(TAG_START);
            buf.extend_from_slice(&(*vars as u32).to_le_bytes());
            buf.extend_from_slice(&(*propagators as u32).to_le_bytes());
        }
        SearchEvent::Branch { depth, var, val } => {
            buf.push(TAG_BRANCH);
            buf.extend_from_slice(&(*depth as u32).to_le_bytes());
            buf.extend_from_slice(&var.to_le_bytes());
            buf.extend_from_slice(&val.to_le_bytes());
        }
        SearchEvent::Fail { depth } => {
            buf.push(TAG_FAIL);
            buf.extend_from_slice(&(*depth as u32).to_le_bytes());
        }
        SearchEvent::Backtrack { depth } => {
            buf.push(TAG_BACKTRACK);
            buf.extend_from_slice(&(*depth as u32).to_le_bytes());
        }
        SearchEvent::Solution { objective, nodes } => {
            buf.push(TAG_SOLUTION);
            buf.push(objective.is_some() as u8);
            buf.extend_from_slice(&objective.unwrap_or(0).to_le_bytes());
            buf.extend_from_slice(&nodes.to_le_bytes());
        }
        SearchEvent::BoundUpdate { bound } => {
            buf.push(TAG_BOUND);
            buf.extend_from_slice(&bound.to_le_bytes());
        }
        SearchEvent::Restart { bound } => {
            buf.push(TAG_RESTART);
            buf.extend_from_slice(&bound.to_le_bytes());
        }
        SearchEvent::DeadlineHit { nodes } => {
            buf.push(TAG_DEADLINE);
            buf.extend_from_slice(&nodes.to_le_bytes());
        }
        SearchEvent::Cancelled { nodes } => {
            buf.push(TAG_CANCELLED);
            buf.extend_from_slice(&nodes.to_le_bytes());
        }
        SearchEvent::StateHash { nodes, hash } => {
            buf.push(TAG_STATE_HASH);
            buf.extend_from_slice(&nodes.to_le_bytes());
            buf.extend_from_slice(&hash.to_le_bytes());
        }
        SearchEvent::Stream { id } => {
            buf.push(TAG_STREAM);
            buf.extend_from_slice(&id.to_le_bytes());
        }
        SearchEvent::Done {
            status,
            nodes,
            fails,
            solutions,
        } => {
            buf.push(TAG_DONE);
            buf.push(status_code(status));
            buf.extend_from_slice(&nodes.to_le_bytes());
            buf.extend_from_slice(&fails.to_le_bytes());
            buf.extend_from_slice(&solutions.to_le_bytes());
        }
    }
    buf[at] = (buf.len() - at - 1) as u8;
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.at + n > self.bytes.len() {
            return Err(bad("truncated trace"));
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn i32(&mut self) -> io::Result<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn decode(tag: u8, c: &mut Cursor) -> io::Result<SearchEvent> {
    Ok(match tag {
        TAG_START => SearchEvent::Start {
            vars: c.u32()? as usize,
            propagators: c.u32()? as usize,
        },
        TAG_BRANCH => SearchEvent::Branch {
            depth: c.u32()? as usize,
            var: c.u32()?,
            val: c.i32()?,
        },
        TAG_FAIL => SearchEvent::Fail {
            depth: c.u32()? as usize,
        },
        TAG_BACKTRACK => SearchEvent::Backtrack {
            depth: c.u32()? as usize,
        },
        TAG_SOLUTION => {
            let has_obj = c.u8()? != 0;
            let obj = c.i32()?;
            SearchEvent::Solution {
                objective: has_obj.then_some(obj),
                nodes: c.u64()?,
            }
        }
        TAG_BOUND => SearchEvent::BoundUpdate { bound: c.i32()? },
        TAG_RESTART => SearchEvent::Restart { bound: c.i32()? },
        TAG_DEADLINE => SearchEvent::DeadlineHit { nodes: c.u64()? },
        TAG_CANCELLED => SearchEvent::Cancelled { nodes: c.u64()? },
        TAG_STATE_HASH => SearchEvent::StateHash {
            nodes: c.u64()?,
            hash: c.u64()?,
        },
        TAG_STREAM => SearchEvent::Stream { id: c.u32()? },
        TAG_DONE => SearchEvent::Done {
            status: status_str(c.u8()?).ok_or_else(|| bad("unknown status code"))?,
            nodes: c.u64()?,
            fails: c.u64()?,
            solutions: c.u64()?,
        },
        other => return Err(bad(format!("unknown event tag {other}"))),
    })
}

/// A trace file loaded back into memory.
#[derive(Clone, Debug)]
pub struct Trace {
    pub header: TraceHeader,
    pub events: Vec<SearchEvent>,
    /// FNV-1a over the whole file, identical to the recorder's
    /// [`RecorderSink::hash`] for an intact file.
    pub file_hash: u64,
}

impl Trace {
    /// Load and validate a trace file.
    pub fn read(path: impl AsRef<Path>) -> io::Result<Trace> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    pub fn from_bytes(bytes: &[u8]) -> io::Result<Trace> {
        let mut c = Cursor { bytes, at: 0 };
        if c.take(8)? != TRACE_MAGIC {
            return Err(bad("not an eit-trace file (bad magic)"));
        }
        let version = c.u32()?;
        if version != TRACE_VERSION {
            return Err(bad(format!(
                "unsupported trace version {version} (this build reads {TRACE_VERSION})"
            )));
        }
        let ir_hash = c.u64()?;
        let arch_hash = c.u64()?;
        let hash_every = c.u64()?;
        let config_len = c.u32()? as usize;
        let config = String::from_utf8(c.take(config_len)?.to_vec())
            .map_err(|_| bad("config string is not UTF-8"))?;
        let mut events = Vec::new();
        while c.at < bytes.len() {
            let len = c.u8()? as usize;
            let body = c.take(len)?;
            let mut rc = Cursor { bytes: body, at: 0 };
            let tag = rc.u8()?;
            events.push(decode(tag, &mut rc)?);
            if rc.at != body.len() {
                return Err(bad(format!("record tag {tag} has trailing bytes")));
            }
        }
        Ok(Trace {
            header: TraceHeader {
                ir_hash,
                arch_hash,
                hash_every,
                config,
            },
            events,
            file_hash: fnv1a(bytes),
        })
    }
}

/// A [`TraceSink`] that streams every event to an `eit-trace/1` file.
///
/// Keep the sink behind an `Arc<Mutex<_>>` handle (see
/// [`crate::TraceHandle`]) to read [`hash`](RecorderSink::hash) and
/// [`events`](RecorderSink::events) after the solve; the search driver
/// flushes it at `Done`.
pub struct RecorderSink {
    out: BufWriter<File>,
    hash: Fnv64,
    events: u64,
    buf: Vec<u8>,
}

impl RecorderSink {
    /// Create `path` and write the header immediately.
    pub fn create(path: impl AsRef<Path>, header: &TraceHeader) -> io::Result<Self> {
        let mut out = BufWriter::new(File::create(path)?);
        let bytes = header.to_bytes();
        out.write_all(&bytes)?;
        let mut hash = Fnv64::new();
        hash.write(&bytes);
        Ok(RecorderSink {
            out,
            hash,
            events: 0,
            buf: Vec::with_capacity(32),
        })
    }

    /// Running FNV-1a over everything written so far (header included).
    pub fn hash(&self) -> u64 {
        self.hash.finish()
    }

    /// Number of event records written.
    pub fn events(&self) -> u64 {
        self.events
    }
}

impl TraceSink for RecorderSink {
    fn record(&mut self, event: &SearchEvent) {
        self.buf.clear();
        encode(event, &mut self.buf);
        self.hash.write(&self.buf);
        // An I/O error mid-search must not kill the solve (same policy as
        // JsonlSink); the hash still covers the intended bytes, so a
        // short file is detected at read time.
        let _ = self.out.write_all(&self.buf);
        self.events += 1;
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
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
        ]
    }

    #[test]
    fn binary_roundtrip_preserves_every_variant() {
        let header = TraceHeader {
            ir_hash: 1,
            arch_hash: 2,
            hash_every: 64,
            config: "mode=test".into(),
        };
        let mut bytes = header.to_bytes();
        let events = all_variants();
        for e in &events {
            encode(e, &mut bytes);
        }
        let t = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(t.header, header);
        assert_eq!(t.events, events);
        assert_eq!(t.file_hash, fnv1a(&bytes));
    }

    #[test]
    fn truncated_and_corrupt_traces_are_rejected() {
        let header = TraceHeader {
            ir_hash: 0,
            arch_hash: 0,
            hash_every: 0,
            config: String::new(),
        };
        let mut bytes = header.to_bytes();
        encode(&SearchEvent::Fail { depth: 1 }, &mut bytes);
        // Chop the last byte off the record.
        assert!(Trace::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        // Unknown tag.
        let mut alien = header.to_bytes();
        alien.extend_from_slice(&[1, 200]);
        assert!(Trace::from_bytes(&alien).is_err());
        // Wrong magic.
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(Trace::from_bytes(&wrong).is_err());
        // Future version.
        let mut future = bytes.clone();
        future[8] = 9;
        assert!(Trace::from_bytes(&future).is_err());
    }

    #[test]
    fn reserved_tag_8_is_rejected() {
        let header = TraceHeader {
            ir_hash: 0,
            arch_hash: 0,
            hash_every: 0,
            config: String::new(),
        };
        // A well-formed tag-8 record with its old u64 payload.
        let mut bytes = header.to_bytes();
        bytes.extend_from_slice(&[9, 8]);
        bytes.extend_from_slice(&101u64.to_le_bytes());
        let err = Trace::from_bytes(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("unknown event tag 8"),
            "got: {err}"
        );
    }

    #[test]
    fn recorder_sink_writes_a_readable_file_with_matching_hash() {
        let dir = std::env::temp_dir().join("eit-record-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("roundtrip-{}.trace", std::process::id()));
        let header = TraceHeader {
            ir_hash: 11,
            arch_hash: 22,
            hash_every: 0,
            config: "mode=unit".into(),
        };
        let events = all_variants();
        let mut sink = RecorderSink::create(&path, &header).unwrap();
        for e in &events {
            sink.record(e);
        }
        sink.flush();
        let (hash, count) = (sink.hash(), sink.events());
        drop(sink);
        let t = Trace::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(t.header, header);
        assert_eq!(t.events, events);
        assert_eq!(t.file_hash, hash);
        assert_eq!(count, events.len() as u64);
    }
}
