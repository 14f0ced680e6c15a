//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Nothing inside the program is instrumented: a span covers one public
//! call made from the benchmark, and a count records a value the call
//! already returned. Spans nest (a kernel's op span holds its layer
//! spans); a span's self time is its duration minus its children's.
//! Every span and count carries the id of the round or request it
//! belongs to. The spans stay in memory until the run ends.

use eit_core::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Vec<(u64, &'static str, f64)>,
}

impl Tracer {
    /// A tracer that records nothing: `span` only runs its closure.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            id: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Attribute the spans and counts that follow to round or request `id`.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id: self.id,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Record a value a call returned (a solver counter, a byte count).
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.on {
            self.counts.push((self.id, name, v));
        }
    }

    /// Self time of every span, in ns, indexed like the spans.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per name: self time (ms) summed within each id, one value per id
    /// in which the name occurs.
    pub fn self_ms_per_id(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let own = self.self_ns();
        let mut sums: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *sums.entry((s.name, s.id)).or_default() += ns as f64 * 1e-6;
        }
        regroup(sums)
    }

    /// Per name: counts summed within each id.
    pub fn counts_per_id(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut sums: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
        for &(id, name, v) in &self.counts {
            *sums.entry((name, id)).or_default() += v;
        }
        regroup(sums)
    }

    /// Append every span, one JSON object a line, to `out`.
    pub fn write_jsonl(&self, phase: &str, out: &mut impl Write) -> std::io::Result<()> {
        let own = self.self_ns();
        for (i, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let mut members = vec![
                ("phase".to_string(), Json::str(phase)),
                ("span".into(), Json::int(i as u64)),
                ("name".into(), Json::str(s.name)),
                ("id".into(), Json::int(s.id)),
                ("start_ns".into(), Json::int(s.start_ns)),
                ("end_ns".into(), Json::int(s.end_ns)),
                ("self_ns".into(), Json::int(self_ns)),
            ];
            if let Some(p) = s.parent {
                members.push(("parent".into(), Json::int(p as u64)));
            }
            writeln!(out, "{}", Json::Obj(members).render_compact())?;
        }
        Ok(())
    }
}

fn regroup(sums: BTreeMap<(&'static str, u64), f64>) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), v) in sums {
        out.entry(name).or_default().push(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::on();
        t.set_id(3);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let own = t.self_ms_per_id();
        assert!(own["inner"][0] >= 20.0);
        assert!(own["outer"][0] < 20.0);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].id, 3);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", |_| 7), 7);
        t.count("c", 1.0);
        assert!(t.self_ms_per_id().is_empty() && t.counts_per_id().is_empty());
    }
}
