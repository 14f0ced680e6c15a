//! The run-based channellings (`ModChannel`, `SlotGeometry`) allocate
//! nothing per run once their kept buffers have grown: not at a
//! fixpoint, where they narrow nothing, and not when they narrow
//! bitset domains. A counting global allocator counts the heap
//! allocations of the calling thread around one engine fixpoint.

use eit_cp::{Model, VarId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// One `ModChannel` (`s = 7·k + t`) and one `SlotGeometry` (16 banks,
/// 4-bank pages) at their root fixpoint. `wide` gives `s` and `slot`
/// spans above 128 values, so they are interval lists; otherwise every
/// domain is a bitset.
fn model(wide: bool) -> (Model, [VarId; 6]) {
    let span = if wide { 400 } else { 100 };
    let mut m = Model::new();
    let (s, k, t) = (m.new_var(0, span), m.new_var(0, 100), m.new_var(0, 9));
    m.mod_channel(s, k, t, 7);
    let (slot, line, page) = (m.new_var(0, span), m.new_var(0, 40), m.new_var(0, 5));
    m.slot_geometry(slot, line, page, 16, 4);
    m.engine.fixpoint(&mut m.store).unwrap();
    (m, [s, k, t, slot, line, page])
}

#[test]
fn runs_at_a_fixpoint_allocate_nothing() {
    for wide in [false, true] {
        let (mut m, _) = model(wide);
        let rerun = |m: &mut Model| {
            m.engine.schedule_all(&m.store);
            m.engine.fixpoint(&mut m.store).unwrap();
        };
        rerun(&mut m);
        let before = m.store.change_count();
        let n = allocations(|| rerun(&mut m));
        assert_eq!(
            m.store.change_count(),
            before,
            "wide {wide}: a run narrowed"
        );
        assert_eq!(n, 0, "wide {wide}: {n} allocations at a fixpoint");
    }
}

#[test]
fn narrowing_bitset_runs_allocate_nothing() {
    let (mut m, [s, k, t, slot, line, page]) = model(false);
    assert!([s, k, t, slot, line, page]
        .iter()
        .all(|&x| m.store.dom(x).is_bitset()));
    // Window slots 4..6 only, and page 2 only: both propagators narrow
    // the other two variables.
    let narrow = |m: &mut Model, count: bool| {
        m.store.push_level();
        m.store.remove_below(t, 4).unwrap();
        m.store.fix(page, 2).unwrap();
        let before = m.store.change_count();
        let n = if count {
            allocations(|| m.engine.fixpoint(&mut m.store).unwrap())
        } else {
            m.engine.fixpoint(&mut m.store).unwrap();
            0
        };
        assert!(m.store.change_count() >= before + 3, "too few narrowings");
        assert!(!m.store.dom(s).contains(7) && !m.store.dom(slot).contains(7));
        m.store.pop_level();
        n
    };
    // The first pass grows the trail, the event log and the engine's
    // queues; the second must reuse them.
    narrow(&mut m, false);
    let n = narrow(&mut m, true);
    assert_eq!(n, 0, "{n} allocations in a narrowing fixpoint");
}
