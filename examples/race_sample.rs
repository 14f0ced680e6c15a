//! The modulo sweep under one backend on the synthetic race sample:
//! `synth` seeds 0–9 × {3 layers × 5, 4 × 6, 6 × 4}, merge pass, 1 s per
//! candidate II and 10 s per sweep. One line per sweep: the II, the
//! candidates below it left undecided, the side that decided each
//! candidate (`ii:outcome:backend:ms`) and the sweep's wall time.
//! `--kernels` instead times the six table kernels under cp, sat and
//! race (median of 21 sweeps each, in ms).
//!
//! Run: `cargo run --release --example race_sample -- [cp|sat|race] [--kernels]`

use eit::arch::ArchSpec;
use eit::core::{modulo_schedule_checked, Backend, ModuloOptions};
use eit::ir::Graph;
use std::time::{Duration, Instant};

fn merged(mut g: Graph) -> Graph {
    eit::ir::merge_pipeline_ops(&mut g);
    g
}

fn kernels(spec: &ArchSpec) {
    println!("{:>9} {:>8} {:>8} {:>8}", "kernel", "cp", "sat", "race");
    for name in ["matmul", "fir", "arf", "qrd", "detector", "blockmm"] {
        let g = merged(eit::apps::by_name(name).expect("table kernel").graph);
        let mut row = format!("{name:>9}");
        for backend in [Backend::Cp, Backend::Sat, Backend::Race] {
            let opts = ModuloOptions {
                backend,
                ..Default::default()
            };
            let mut ms: Vec<f64> = (0..21)
                .map(|_| {
                    let t0 = Instant::now();
                    let r = modulo_schedule_checked(&g, spec, &opts);
                    assert!(matches!(r, Ok(Some(_))), "{name} {backend:?}");
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            ms.sort_by(f64::total_cmp);
            row += &format!(" {:>8.2}", ms[10]);
        }
        println!("{row}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = ArchSpec::eit();
    if args.iter().any(|a| a == "--kernels") {
        return kernels(&spec);
    }
    let backend = args
        .iter()
        .find_map(|a| Backend::parse(a))
        .unwrap_or(Backend::Race);
    for (layers, width) in [(3, 5), (4, 6), (6, 4)] {
        for seed in 0..10 {
            let params = eit::apps::synth::SynthParams {
                seed,
                layers,
                width,
                ..Default::default()
            };
            let g = merged(eit::apps::synth::build(params).graph);
            let opts = ModuloOptions {
                backend,
                timeout_per_ii: Duration::from_secs(1),
                total_timeout: Duration::from_secs(10),
                ..Default::default()
            };
            let t0 = Instant::now();
            let r = modulo_schedule_checked(&g, &spec, &opts);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let name = format!("{layers}x{width} seed {seed}");
            let r = match r {
                Ok(Some(r)) => r,
                Ok(None) => {
                    println!("{name}: no II in {ms:.0} ms");
                    continue;
                }
                Err(e) => {
                    println!("{name}: {e}");
                    continue;
                }
            };
            let clean = eit::arch::verify_modulo(&g, &spec, &r.s, r.ii_issue).is_empty();
            let undecided = r.probes.iter().filter(|p| p.outcome == "timeout").count();
            let probes: Vec<String> = r
                .probes
                .iter()
                .map(|p| {
                    let ms = p.time.as_secs_f64() * 1e3;
                    format!("{}:{}:{}:{ms:.0}", p.ii, p.outcome, p.backend.as_str())
                })
                .collect();
            println!(
                "{name}: II {} undecided {undecided} verified {clean} {ms:.0} ms [{}]",
                r.ii_issue,
                probes.join(" ")
            );
        }
    }
}
