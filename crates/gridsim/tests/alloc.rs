//! Allocation accounting for the event hot loop and the activations.
//!
//! The simulator's claim is that steady-state event processing is
//! allocation-free: job state lives in an arena, machine state in a
//! slab, and dispatch works out of reusable scratch, so heap traffic
//! scales with *activations* (plus amortised container growth), not
//! with *events*. These tests count allocator calls and bytes with a
//! thread-local counting `#[global_allocator]`. Quadrupling the arrival
//! rate at a fixed activation schedule must ~quadruple events without
//! even doubling allocator calls; and on a wide grid, an activation
//! after warm-up must allocate far less than one ETC matrix, because
//! the snapshot buffer and the scheduler's `Problem` are refilled in
//! place and MCT never builds the evaluator's tick copy.

// The workspace denies unsafe_code (see [workspace.lints] in the root
// manifest); implementing GlobalAlloc is the one sanctioned exception.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cmags_core::Schedule;
use cmags_etc::GridInstance;
use cmags_gridsim::scheduler::{BatchScheduler, HeuristicScheduler};
use cmags_gridsim::{ArrivalProcess, SimConfig, Simulation};
use cmags_heuristics::constructive::ConstructiveKind;

thread_local! {
    /// Allocator calls (alloc + realloc) made by *this* thread. Each
    /// `#[test]` runs on its own thread, so tests never observe each
    /// other's traffic.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested by *this* thread: the full size of every
    /// allocation, and the new size of every reallocation.
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOC_CALLS.with(|c| c.set(c.get() + 1));
    ALLOC_BYTES.with(|c| c.set(c.get() + bytes as u64));
}

struct CountingAlloc;

// SAFETY: defers to `System` for every operation; the counter is a
// plain thread-local side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs a calm fixed-pool sim at `rate` jobs/s and returns
/// `(allocator calls during run, events processed)`.
fn measure(rate: f64) -> (u64, u64) {
    let mut config = SimConfig::small();
    config.arrivals = ArrivalProcess::Poisson { rate };
    config.max_events = 10_000_000;
    let sim = Simulation::new(config, 7);
    let mut scheduler = HeuristicScheduler::new(ConstructiveKind::Mct);
    let before = ALLOC_CALLS.with(Cell::get);
    let report = sim.run(&mut scheduler);
    let calls = ALLOC_CALLS.with(Cell::get) - before;
    assert_eq!(report.jobs_completed, report.jobs_submitted);
    (calls, report.events_processed)
}

#[test]
fn hot_loop_allocations_scale_with_activations_not_events() {
    // Warm-up: one run to populate lazily-initialised runtime state
    // (fmt buffers, thread locals) so measurements compare like with
    // like.
    let _ = measure(2e-3);

    let (calls_1x, events_1x) = measure(2e-3);
    let (calls_4x, events_4x) = measure(8e-3);

    assert!(
        events_4x > 3 * events_1x,
        "quadrupling the arrival rate must ~quadruple events \
         (got {events_1x} -> {events_4x})"
    );
    // Allocator traffic is dominated by the fixed activation schedule
    // and amortised container growth; 4x the events must cost well
    // under 2x the allocator calls or the hot loop is allocating per
    // event again.
    assert!(
        calls_4x < 2 * calls_1x,
        "allocator calls must not scale with events: \
         {calls_1x} calls / {events_1x} events at 1x vs \
         {calls_4x} calls / {events_4x} events at 4x"
    );
}

#[test]
fn repeat_runs_do_not_leak_allocation_growth() {
    // Two identical runs after warm-up should cost the same allocator
    // traffic: the simulator owns all its scratch, so nothing persists
    // or accumulates between runs.
    let _ = measure(2e-3);
    let (a, _) = measure(2e-3);
    let (b, _) = measure(2e-3);
    assert_eq!(a, b, "identical runs must make identical allocator calls");
}

/// Records, at the start of every activation, the thread's allocated
/// bytes so far and the activation's ETC cell count, then plans with
/// the MCT scheduler it wraps.
struct Probe {
    inner: HeuristicScheduler,
    /// `(bytes allocated so far, ETC cells)` per activation; reserved
    /// up front so recording allocates nothing.
    marks: Vec<(u64, u64)>,
}

impl BatchScheduler for Probe {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn schedule(&mut self, instance: &GridInstance, seed: u64) -> Schedule {
        let cells = (instance.nb_jobs() * instance.nb_machines()) as u64;
        self.marks.push((ALLOC_BYTES.with(Cell::get), cells));
        self.inner.schedule(instance, seed)
    }
}

#[test]
fn wide_activations_allocate_far_less_than_an_etc_matrix() {
    // MCT on 2000 machines with ~100-job batches: one f64 ETC matrix is
    // ~1.6 MB per activation.
    let sim = Simulation::new(SimConfig::heavy_traffic(2000, 4.0, 1000.0, 25.0), 11);
    let mut probe = Probe {
        inner: HeuristicScheduler::new(ConstructiveKind::Mct),
        marks: Vec::with_capacity(1000),
    };
    let report = sim.run(&mut probe);
    assert_eq!(report.jobs_completed, report.jobs_submitted);
    assert!(
        probe.marks.len() >= 30,
        "got {} activations",
        probe.marks.len()
    );
    // Bytes of each full activation cycle (snapshot, plan, dispatch and
    // the events up to the next activation) against that activation's
    // f64 ETC matrix. Buffers grow to the largest batch seen so far, so
    // after warm-up a cycle allocates only O(jobs + machines) bytes —
    // the median ignores the few cycles that meet a new largest batch.
    let mut ratios: Vec<f64> = probe.marks[5..]
        .windows(2)
        .map(|w| (w[1].0 - w[0].0) as f64 / (8 * w[0].1) as f64)
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    assert!(
        median < 0.1,
        "an activation after warm-up allocated {median:.3} ETC matrices \
         (median), not far below one"
    );
}
