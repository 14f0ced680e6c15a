//! Self-describing machine-readable run metrics.
//!
//! A [`RunMetrics`] gathers everything one toolchain run produced —
//! architecture parameters, solver outcome and statistics, phase-timing
//! spans, the per-propagator profile, simulator counters and the emitted
//! program — into one ordered JSON document. The schema is versioned
//! ([`SCHEMA`]) and every section is optional except the header, so the
//! table binaries and `eitc` can emit exactly what they computed.
//!
//! The document round-trips through [`crate::json::Json::parse`]; the CI
//! smoke check and the golden test rely on that.

use crate::json::Json;
use eit_arch::{ArchSpec, SimReport};
use eit_core::{PhaseTimings, Program};
use eit_cp::{PropProfile, SearchStats, SearchStatus};

/// Version tag of the metrics document layout.
pub const SCHEMA: &str = "eit-run-metrics/1";

/// Builder for one run's metrics document.
pub struct RunMetrics {
    sections: Vec<(String, Json)>,
}

impl RunMetrics {
    /// Start a document for `kernel` as produced by `tool` (the binary
    /// name, e.g. `"eitc"` or `"table1"`).
    pub fn new(tool: &str, kernel: &str) -> Self {
        RunMetrics {
            sections: vec![
                ("schema".into(), Json::str(SCHEMA)),
                ("tool".into(), Json::str(tool)),
                ("kernel".into(), Json::str(kernel)),
            ],
        }
    }

    fn push(&mut self, key: &str, value: Json) -> &mut Self {
        self.sections.push((key.to_string(), value));
        self
    }

    /// The machine the run targeted.
    pub fn arch(&mut self, spec: &ArchSpec) -> &mut Self {
        self.push(
            "arch",
            Json::Obj(vec![
                ("lanes".into(), Json::int(spec.n_lanes as u64)),
                ("banks".into(), Json::int(spec.n_banks as u64)),
                ("page_size".into(), Json::int(spec.page_size as u64)),
                ("slots".into(), Json::int(spec.n_slots() as u64)),
                ("read_ports".into(), Json::int(spec.max_vector_reads as u64)),
                (
                    "write_ports".into(),
                    Json::int(spec.max_vector_writes as u64),
                ),
                (
                    "pipeline_depth".into(),
                    Json::int(spec.pipeline_depth() as u64),
                ),
            ]),
        )
    }

    /// Solver outcome and search statistics.
    pub fn solver(
        &mut self,
        status: SearchStatus,
        makespan: Option<i32>,
        stats: &SearchStats,
    ) -> &mut Self {
        let obj = vec![
            ("status".into(), Json::str(status.as_str())),
            (
                "makespan".into(),
                makespan.map_or(Json::Null, |m| Json::num(m as f64)),
            ),
            ("nodes".into(), Json::int(stats.nodes)),
            ("fails".into(), Json::int(stats.fails)),
            ("solutions".into(), Json::int(stats.solutions)),
            ("propagations".into(), Json::int(stats.propagations)),
            ("max_depth".into(), Json::int(stats.max_depth as u64)),
            ("restarts".into(), Json::int(stats.restarts)),
            ("nogoods_posted".into(), Json::int(stats.nogoods_posted)),
            ("nogoods_pruned".into(), Json::int(stats.nogoods_pruned)),
            ("time_us".into(), Json::int(stats.time.as_micros() as u64)),
        ];
        self.push("solver", Json::Obj(obj))
    }

    /// Domain-representation histogram of the solved model: how many
    /// variables ended the search on the bitset fast path vs. interval
    /// lists (see `eit_cp::Domain` and DESIGN.md §5k).
    pub fn domains(&mut self, reps: (usize, usize)) -> &mut Self {
        self.push(
            "domains",
            Json::Obj(vec![
                ("bitset".into(), Json::int(reps.0 as u64)),
                ("interval".into(), Json::int(reps.1 as u64)),
            ]),
        )
    }

    /// Phase-timing spans, in record order.
    pub fn spans(&mut self, timings: &PhaseTimings) -> &mut Self {
        let spans = timings
            .spans
            .iter()
            .map(|(name, d)| {
                Json::Obj(vec![
                    ("phase".into(), Json::str(name.clone())),
                    ("time_us".into(), Json::int(d.as_micros() as u64)),
                ])
            })
            .collect();
        self.push("spans", Json::Arr(spans))
    }

    /// The per-propagator profile (already aggregated and sorted).
    pub fn propagators(&mut self, profile: &[PropProfile]) -> &mut Self {
        let rows = profile
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("name".into(), Json::str(p.name)),
                    ("invocations".into(), Json::int(p.invocations)),
                    ("wakes".into(), Json::int(p.wakes)),
                    ("no_op_runs".into(), Json::int(p.no_op_runs)),
                    ("prunings".into(), Json::int(p.prunings)),
                    ("failures".into(), Json::int(p.failures)),
                    ("time_us".into(), Json::int(p.time.as_micros() as u64)),
                ])
            })
            .collect();
        self.push("propagators", Json::Arr(rows))
    }

    /// Simulator outcome: utilization, violations, and the activity
    /// counters (lane histogram, bank traffic, port peaks, reconfig
    /// timeline).
    pub fn sim(&mut self, report: &SimReport) -> &mut Self {
        let c = &report.counters;
        let ints = |xs: &[u64]| Json::Arr(xs.iter().map(|&x| Json::int(x)).collect());
        let timeline = c
            .reconfig_timeline
            .iter()
            .map(|(t, cfg)| {
                Json::Obj(vec![
                    ("cycle".into(), Json::num(*t as f64)),
                    ("config".into(), Json::str(format!("{:?}", cfg.core))),
                ])
            })
            .collect();
        self.push(
            "sim",
            Json::Obj(vec![
                ("ok".into(), Json::Bool(report.ok())),
                (
                    "violations".into(),
                    Json::int(report.violations.len() as u64),
                ),
                ("makespan".into(), Json::num(report.makespan as f64)),
                ("lane_cycles".into(), Json::int(report.lane_cycles)),
                ("utilization".into(), Json::num(report.utilization)),
                (
                    "units".into(),
                    Json::Obj(vec![
                        ("vector".into(), Json::num(report.units.vector)),
                        ("accelerator".into(), Json::num(report.units.accelerator)),
                        ("index_merge".into(), Json::num(report.units.index_merge)),
                    ]),
                ),
                (
                    "reconfig_switches".into(),
                    Json::int(report.reconfig_switches as u64),
                ),
                ("config_loads".into(), Json::int(report.config_loads as u64)),
                ("lane_histogram".into(), ints(&c.lane_histogram)),
                ("bank_reads".into(), ints(&c.bank_reads)),
                ("bank_writes".into(), ints(&c.bank_writes)),
                (
                    "port_pressure".into(),
                    Json::Obj(vec![
                        ("peak_reads".into(), Json::int(c.peak_reads as u64)),
                        (
                            "peak_reads_cycle".into(),
                            Json::num(c.peak_reads_cycle as f64),
                        ),
                        ("peak_writes".into(), Json::int(c.peak_writes as u64)),
                        (
                            "peak_writes_cycle".into(),
                            Json::num(c.peak_writes_cycle as f64),
                        ),
                    ]),
                ),
                ("reconfig_timeline".into(), Json::Arr(timeline)),
            ]),
        )
    }

    /// The generated configuration-stream program's summary numbers.
    pub fn program(&mut self, program: &Program) -> &mut Self {
        self.push(
            "program",
            Json::Obj(vec![
                ("cycles".into(), Json::int(program.n_cycles as u64)),
                (
                    "instructions".into(),
                    Json::int(program.n_instructions as u64),
                ),
                (
                    "reconfig_switches".into(),
                    Json::int(program.reconfig_switches as u64),
                ),
                ("utilization".into(), Json::num(program.utilization)),
            ]),
        )
    }

    /// Attach an arbitrary extra section (e.g. a table binary's rows).
    pub fn section(&mut self, key: &str, value: Json) -> &mut Self {
        self.push(key, value)
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(self.sections.clone())
    }

    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Write the document to `path`.
    pub fn write_to(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_is_self_describing_and_ordered() {
        let m = RunMetrics::new("eitc", "qrd");
        let j = m.to_json();
        assert_eq!(j.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(j.get("tool").unwrap().as_str(), Some("eitc"));
        assert_eq!(j.get("kernel").unwrap().as_str(), Some("qrd"));
        let Json::Obj(members) = &j else { panic!() };
        assert_eq!(members[0].0, "schema");
    }
}
