//! Record → replay identity over the paper's six table kernels, both
//! straight-line and modulo, mirroring the `eitc --record` / `--replay`
//! pipeline: merge + CSE first (the recorded IR hash covers the graph
//! the solver actually sees), record the solve, then re-drive it
//! and check it matches node for node.

use eit_arch::ArchSpec;
use eit_core::{
    modulo_schedule, replay_modulo, replay_schedule, schedule, ModuloOptions, RecorderSink,
    SchedulerOptions, SolveKey, Trace,
};
use eit_cp::trace::{MemorySink, SearchEvent, TraceHandle};
use eit_ir::Graph;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const KERNELS: [&str; 6] = ["qrd", "arf", "matmul", "fir", "detector", "blockmm"];

/// The kernel exactly as `eitc --record` schedules it: merged, CSE'd.
fn prepared(name: &str) -> Graph {
    let mut g = eit_apps::by_name(name).expect("table kernel").graph;
    eit_ir::merge_pipeline_ops(&mut g);
    eit_ir::eliminate_common_subexpressions(&mut g);
    g
}

fn sched_opts() -> SchedulerOptions {
    SchedulerOptions {
        timeout: Some(Duration::from_secs(120)),
        state_hash_every: Some(16),
        ..Default::default()
    }
}

#[test]
fn straight_line_record_replay_identity_on_all_table_kernels() {
    let spec = ArchSpec::eit();
    for name in KERNELS {
        let g = prepared(name);
        let sink = Arc::new(Mutex::new(MemorySink::default()));
        let mut opts = sched_opts();
        opts.trace = Some(TraceHandle::new(Arc::clone(&sink)));
        let r = schedule(&g, &spec, &opts);
        assert!(r.schedule.is_some(), "{name} must schedule");
        let recorded: Vec<SearchEvent> = sink.lock().unwrap().events.clone();
        assert!(!recorded.is_empty(), "{name} recorded nothing");
        let header = SolveKey::schedule(&g, &spec, &opts).header(opts.state_hash_every);
        let rep = replay_schedule(&g, &spec, &sched_opts(), &header, &recorded)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(rep.ok, "{name}: divergence: {:?}", rep.divergence);
        // Replay never searches beyond the recorded tree.
        assert_eq!(
            rep.replay_nodes, rep.recorded_nodes,
            "{name}: replay re-searched"
        );
        assert_eq!(rep.checked as usize, recorded.len());
    }
}

#[test]
fn modulo_record_replay_identity_on_all_table_kernels() {
    let spec = ArchSpec::eit();
    for name in KERNELS {
        let g = prepared(name);
        let sink = Arc::new(Mutex::new(MemorySink::default()));
        let opts = ModuloOptions {
            trace: Some(TraceHandle::new(Arc::clone(&sink))),
            state_hash_every: Some(16),
            ..Default::default()
        };
        let r = modulo_schedule(&g, &spec, &opts).unwrap_or_else(|| panic!("{name} modulo"));
        let recorded: Vec<SearchEvent> = sink.lock().unwrap().events.clone();
        assert!(
            recorded
                .iter()
                .any(|e| matches!(e, SearchEvent::Stream { .. })),
            "{name}: no probe streams recorded"
        );
        // The last stream marker is the winning II.
        let last_stream = recorded
            .iter()
            .rev()
            .find_map(|e| match e {
                SearchEvent::Stream { id } => Some(*id),
                _ => None,
            })
            .unwrap();
        assert_eq!(last_stream as i32, r.ii_issue);

        let header = SolveKey::modulo(&g, &spec, &opts).header(opts.state_hash_every);
        let rep = replay_modulo(&g, &spec, &opts, &header, &recorded)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            rep.ok,
            "{name}: divergence {:?} / structure {:?}",
            rep.divergence, rep.structure_error
        );
        assert_eq!(
            rep.replay_nodes, rep.recorded_nodes,
            "{name}: replay re-searched"
        );
    }
}

#[test]
fn trace_file_roundtrip_preserves_events_and_hash() {
    let spec = ArchSpec::eit();
    let g = prepared("matmul");
    let mut opts = sched_opts();
    let header = SolveKey::schedule(&g, &spec, &opts).header(opts.state_hash_every);
    let dir = std::env::temp_dir().join("eit-record-replay-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("matmul.trace");
    let sink = Arc::new(Mutex::new(RecorderSink::create(&path, &header).unwrap()));
    opts.trace = Some(TraceHandle::new(Arc::clone(&sink)));
    schedule(&g, &spec, &opts);
    let (live_hash, live_events) = {
        let s = sink.lock().unwrap();
        (s.hash(), s.events())
    };

    let t = Trace::read(&path).unwrap();
    assert_eq!(t.file_hash, live_hash);
    assert_eq!(t.events.len() as u64, live_events);
    assert_eq!(t.header.ir_hash, header.ir_hash);
    assert_eq!(t.header.arch_hash, header.arch_hash);
    assert_eq!(t.header.config, header.config);

    let rep = replay_schedule(&g, &spec, &sched_opts(), &t.header, &t.events)
        .expect("the header is this run's");
    assert!(rep.ok, "divergence: {:?}", rep.divergence);
    std::fs::remove_file(&path).ok();
}

#[test]
fn perturbed_solver_diverges_with_a_named_event() {
    // Record qrd, then replay against a *different* problem framing (no
    // memory model): the solver's trajectory changes and the replay must
    // point at the first mismatching event instead of re-searching. The
    // recording's own header would be refused up front as a config
    // mismatch, so the replay gets a header claiming the perturbed
    // options.
    let spec = ArchSpec::eit();
    let g = prepared("qrd");
    let sink = Arc::new(Mutex::new(MemorySink::default()));
    let mut opts = sched_opts();
    opts.trace = Some(TraceHandle::new(Arc::clone(&sink)));
    schedule(&g, &spec, &opts);
    let recorded: Vec<SearchEvent> = sink.lock().unwrap().events.clone();

    let mut perturbed = sched_opts();
    perturbed.memory = false;
    let recorded_header = SolveKey::schedule(&g, &spec, &opts).header(opts.state_hash_every);
    let err = replay_schedule(&g, &spec, &perturbed, &recorded_header, &recorded)
        .expect_err("the perturbed config is refused");
    assert!(err.starts_with("solver config mismatch"), "{err}");
    let header = SolveKey::schedule(&g, &spec, &perturbed).header(opts.state_hash_every);
    let rep = replay_schedule(&g, &spec, &perturbed, &header, &recorded)
        .expect("the header names the perturbed options");
    assert!(!rep.ok);
    let (_, d) = rep.divergence.expect("must name the first mismatch");
    assert!(d.index < recorded.len());
    assert!(d.expected.is_some() || d.actual.is_some());
    // The replay aborted at the divergence, far short of the recording.
    assert!(rep.replay_nodes <= rep.recorded_nodes);
}
