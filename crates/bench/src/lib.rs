//! # eit-bench — experiment harness
//!
//! Shared plumbing for the table-regeneration binaries (`table1`,
//! `table2`, `table3`, `figures`) and the Criterion benches. Each binary
//! prints the same rows as the corresponding table in the paper, side by
//! side with the paper's published numbers, and EXPERIMENTS.md records a
//! captured run.

pub mod metrics;

pub use metrics::RunMetrics;

use eit_arch::ArchSpec;
use eit_ir::{merge_pipeline_ops, Graph, LatencyModel};

/// A kernel prepared for scheduling: DSL-built, merge pass applied.
pub struct Prepared {
    pub name: &'static str,
    pub graph: Graph,
    pub kernel: eit_apps::Kernel,
}

/// Build and merge a kernel by name (panics on unknown names — harness
/// binaries own their inputs).
pub fn prepared(name: &str) -> Prepared {
    let kernel = eit_apps::by_name(name).unwrap_or_else(|| panic!("unknown kernel {name}"));
    let mut graph = kernel.graph.clone();
    merge_pipeline_ops(&mut graph);
    Prepared {
        name: kernel.name,
        graph,
        kernel,
    }
}

/// The paper's `|V|, |E|, |Cr.P|` triple for a graph.
pub fn graph_props(g: &Graph) -> (usize, usize, i32) {
    let lm = LatencyModel::default();
    let cp = g.critical_path(&lm.of(g));
    (g.len(), g.edge_count(), cp)
}

/// The default EIT machine.
pub fn eit() -> ArchSpec {
    ArchSpec::eit()
}

/// Why an `--arch` value did not resolve. Each binary words the message
/// and picks the exit code itself.
#[derive(Debug)]
pub enum ArchArgError {
    /// The value names an existing file that could not be read.
    Unreadable(std::io::Error),
    /// The description (a file's contents, a preset name or inline XML)
    /// does not parse or validate.
    Invalid(String),
}

/// Resolve an `--arch` value the way every binary does: a value naming
/// an existing file is read and parsed as `eit-arch/1` XML; anything else
/// is handed to [`eit_arch::resolve_arch`] as a preset name or inline
/// XML. Either way the description is validated before a scheduler ever
/// sees it.
pub fn resolve_arch_value(v: &str) -> Result<ArchSpec, ArchArgError> {
    if std::path::Path::new(v).exists() {
        let src = std::fs::read_to_string(v).map_err(ArchArgError::Unreadable)?;
        eit_arch::from_arch_xml(&src).map_err(|e| ArchArgError::Invalid(format!("{v}: {e}")))
    } else {
        eit_arch::resolve_arch(v).map_err(ArchArgError::Invalid)
    }
}

/// `--arch PRESET|FILE` support for the table binaries: the resolved
/// target machine when the flag is present, the EIT preset otherwise.
pub fn arch_arg() -> ArchSpec {
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a == "--arch" {
            let v = it.next().unwrap_or_else(|| {
                eprintln!("--arch needs a preset name, file path, or inline XML");
                std::process::exit(2);
            });
            return resolve_arch_value(&v).unwrap_or_else(|e| {
                match e {
                    ArchArgError::Unreadable(e) => eprintln!("--arch: cannot read {v}: {e}"),
                    ArchArgError::Invalid(msg) => eprintln!("--arch: {msg}"),
                }
                std::process::exit(2);
            });
        }
    }
    ArchSpec::eit()
}

/// Print a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// `--metrics FILE` support for the table binaries: the target path when
/// the flag is present on the command line.
pub fn metrics_arg() -> Option<String> {
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a == "--metrics" {
            return Some(it.next().unwrap_or_else(|| {
                eprintln!("--metrics needs a file path");
                std::process::exit(2);
            }));
        }
    }
    None
}

/// Write `metrics` to `path`, exiting with a message on failure.
pub fn write_metrics(metrics: &RunMetrics, path: &str) {
    if let Err(e) = metrics.write_to(path) {
        eprintln!("cannot write metrics to {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("; metrics written to {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_kernels_are_valid() {
        for name in ["qrd", "arf", "matmul"] {
            let p = prepared(name);
            p.graph.validate().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "unknown kernel")]
    fn unknown_kernel_panics() {
        prepared("nope");
    }
}
