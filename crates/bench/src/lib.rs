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
use eit_ir::{merge_pipeline_ops, Graph};

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

/// The paper's `|V|, |E|, |Cr.P|` triple for a graph, with the critical
/// path priced by `spec`'s unit table.
pub fn graph_props(g: &Graph, spec: &ArchSpec) -> (usize, usize, i32) {
    let cp = g.critical_path(&spec.latency_of(g));
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

/// Print a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// The command line of a harness binary: the flags it reads, from
/// `--arch PRESET|FILE|XML` and `--metrics FILE`.
#[derive(Debug)]
pub struct HarnessArgs {
    /// The resolved `--arch` machine; the EIT preset without the flag.
    pub arch: ArchSpec,
    /// The `--metrics` target path.
    pub metrics: Option<String>,
}

/// Parse the process's arguments for a binary that reads the flags in
/// `reads` (a subset of `--arch` and `--metrics`). Any other argument, a
/// flag without its value, or an `--arch` that does not resolve exits 2
/// with a message naming it, before the binary does any work.
pub fn harness_args(reads: &[&str]) -> HarnessArgs {
    parse_harness_args(std::env::args().skip(1), reads).unwrap_or_else(|e| {
        let bin = std::env::args().next().unwrap_or_default();
        let bin = std::path::Path::new(&bin)
            .file_name()
            .map_or(bin.clone(), |f| f.to_string_lossy().into_owned());
        eprintln!("{bin}: {e}");
        std::process::exit(2);
    })
}

/// [`harness_args`] over an explicit argument list, returning the
/// message instead of exiting.
fn parse_harness_args(
    args: impl IntoIterator<Item = String>,
    reads: &[&str],
) -> Result<HarnessArgs, String> {
    let mut out = HarnessArgs {
        arch: ArchSpec::eit(),
        metrics: None,
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if !reads.contains(&a.as_str()) {
            return Err(format!("unrecognized argument '{a}'"));
        }
        let what = if a == "--arch" {
            "a preset name, file path, or inline XML"
        } else {
            "a file path"
        };
        let v = it.next().ok_or_else(|| format!("{a} needs {what}"))?;
        if a == "--arch" {
            out.arch = resolve_arch_value(&v).map_err(|e| match e {
                ArchArgError::Unreadable(e) => format!("--arch: cannot read {v}: {e}"),
                ArchArgError::Invalid(msg) => format!("--arch: {msg}"),
            })?;
        } else {
            out.metrics = Some(v);
        }
    }
    Ok(out)
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

    fn parse(args: &[&str], reads: &[&str]) -> Result<HarnessArgs, String> {
        parse_harness_args(args.iter().map(|a| a.to_string()), reads)
    }

    #[test]
    fn harness_args_read_only_the_listed_flags() {
        let both = ["--arch", "--metrics"];
        let a = parse(&["--arch", "wide", "--metrics", "m.json"], &both).unwrap();
        assert_eq!(a.arch, ArchSpec::wide());
        assert_eq!(a.metrics.as_deref(), Some("m.json"));
        let a = parse(&[], &[]).unwrap();
        assert_eq!(a.arch, ArchSpec::eit());
        assert_eq!(a.metrics, None);
        for (args, reads, want) in [
            (
                &["--bogus"][..],
                &both[..],
                "unrecognized argument '--bogus'",
            ),
            (
                &["--metrics", "m.json"],
                &["--arch"],
                "unrecognized argument '--metrics'",
            ),
            (&["--arch", "eit"], &[], "unrecognized argument '--arch'"),
            (&["stray"], &both, "unrecognized argument 'stray'"),
            (&["--metrics"], &both, "--metrics needs a file path"),
            (&["--arch"], &both, "--arch needs a preset"),
            (&["--arch", "nonesuch"], &both, "--arch: "),
        ] {
            let e = parse(args, reads).unwrap_err();
            assert!(e.starts_with(want), "{args:?}: {e}");
        }
    }

    #[test]
    fn graph_props_price_the_critical_path_by_the_spec() {
        let p = prepared("fir");
        let (_, _, cp) = graph_props(&p.graph, &ArchSpec::eit());
        assert_eq!(cp, 56); // eight MACs in series, 7 cc each
        let mut slow = ArchSpec::eit();
        slow.units.units[0].ops[0].latency = 9;
        slow.validate().unwrap();
        assert_eq!(
            graph_props(&p.graph, &slow),
            (p.graph.len(), p.graph.edge_count(), 72)
        );
    }

    #[test]
    #[should_panic(expected = "unknown kernel")]
    fn unknown_kernel_panics() {
        prepared("nope");
    }
}
