//! Observer overhead benchmark: the associative selection sort kernel
//! run bare, with each observer (ring-buffer trace sink, profiler,
//! progress sampler) attached, and with all three at once.
//!
//! The observability layer's contract is "near-zero cost when nothing is
//! attached" — the machine's one event path checks each observer for
//! `None` and never constructs an event on the bare path. This benchmark
//! makes the contract measurable: `obs_overhead/no_sink` is the baseline
//! and `obs_overhead/ring_sink` the fully-traced run; the acceptance target
//! is the no-sink path staying within 3% of the seed simulator (i.e. the
//! per-iteration times printed for `no_sink` should be indistinguishable
//! from the pre-observability simulator, and attaching a ring sink should
//! cost only the event construction itself).
//!
//! Beyond timing, the binary *asserts* the stronger form of the contract
//! before benchmarking: in every mode, the steady-state issue path
//! performs **zero heap allocations**. A counting global allocator
//! watches `alloc`/`realloc`/`alloc_zeroed` while the sort kernel is
//! stepped to completion; any allocation fails the run. ci.sh runs this
//! check (`cargo bench -p asc-bench --bench obs_overhead -- --test`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, BenchmarkId, Criterion};

use asc_asm::{assemble, Program};
use asc_core::obs::{ProgressSampler, RingBufferSink, SinkHandle};
use asc_core::{Machine, MachineConfig};
use asc_isa::Word;

/// Global allocator that counts every allocation so the no-sink issue
/// path can be checked for allocation-freedom, not just speed.
struct CountingAlloc;

/// Number of `alloc`/`realloc`/`alloc_zeroed` calls since program start.
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged; the counter
// update has no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Problem size: values to sort, one per PE.
const N: usize = 64;

/// Ring capacity comfortably above the event count of one sorted run.
const RING_CAPACITY: usize = 1 << 16;

/// The same associative selection sort as `asc_kernels::sort`: repeatedly
/// RMIN the remaining set, store the minimum, retire one responder.
fn sort_source(n: usize) -> String {
    format!(
        "
        li     s6, {last}
        pidx   p1
        pcles  pf1, p1, s6
        plw    p2, 0(p0) ?pf1
        li     s3, 0
        li     s4, {n}
step:   ceq    f1, s3, s4
        bt     f1, done
        rmin   s1, p2 ?pf1
        sw     s1, 32(s3)
        pfclr  pf2
        pceqs  pf2, p2, s1 ?pf1
        pfirst pf3, pf2
        pfandn pf1, pf1, pf3
        addi   s3, s3, 1
        j      step
done:   halt
        ",
        last = n as i64 - 1,
    )
}

/// What observability is attached to a benchmarked run.
#[derive(Clone, Copy)]
enum Mode {
    /// Nothing attached: the baseline issue path.
    Bare,
    /// Ring-buffer trace sink (event construction + ring push).
    RingSink,
    /// Cycle-attribution profiler (pre-sized counter rows, no events).
    Profiler,
    /// Progress sampler snapshotting every cycle into its bounded ring
    /// (the `mtasc run --progress` machinery, minus the I/O sink).
    Progress,
    /// Ring sink, profiler and progress sampler together.
    All,
}

/// Every mode, with its benchmark label.
const MODES: [(&str, Mode); 5] = [
    ("no_sink", Mode::Bare),
    ("ring_sink", Mode::RingSink),
    ("profiler", Mode::Profiler),
    ("progress", Mode::Progress),
    ("all", Mode::All),
];

/// A machine loaded with the sort kernel and its input, with `mode`'s
/// observers attached.
fn sort_machine(program: &Program, values: &[Word], mode: Mode) -> Machine {
    let mut m = Machine::with_program(MachineConfig::new(N), program).unwrap();
    if matches!(mode, Mode::RingSink | Mode::All) {
        let ring = Rc::new(RefCell::new(RingBufferSink::new(RING_CAPACITY)));
        m.attach_sink(SinkHandle::shared(ring));
    }
    if matches!(mode, Mode::Profiler | Mode::All) {
        m.attach_profiler();
    }
    if matches!(mode, Mode::Progress | Mode::All) {
        m.attach_progress(ProgressSampler::new(1, RING_CAPACITY));
    }
    m.array_mut().scatter_column(0, values).unwrap();
    m
}

/// One full simulated run under the given observability mode.
fn run_sort(program: &Program, values: &[Word], mode: Mode) -> u64 {
    sort_machine(program, values, mode).run(1_000_000).unwrap().cycles
}

fn bench_obs_overhead(c: &mut Criterion) {
    let program = assemble(&sort_source(N)).expect("sort kernel assembles");
    let cfg = MachineConfig::new(N);
    let values: Vec<Word> =
        (0..N as i64).map(|i| Word::from_i64((i * 37) % 101, cfg.width)).collect();

    let mut g = c.benchmark_group("obs_overhead");
    for (label, mode) in MODES {
        g.bench_with_input(BenchmarkId::from_parameter(label), &mode, |b, &mode| {
            b.iter(|| black_box(run_sort(&program, &values, mode)))
        });
    }
    g.finish();
}

/// Assert the issue path never touches the heap, in every mode: build
/// and seed the machine (allocating freely), then snapshot the
/// allocation counter and step to completion. `Machine::run` is avoided
/// because it clones `Stats` (which owns vectors) on return; `step` is
/// exactly the per-cycle path the benchmark times. The modes:
///
/// 1. nothing attached — the profiler-off, sink-off baseline;
/// 2. ring sink — its ring is pre-sized to a capacity above the run's
///    event count, and events are `Copy`;
/// 3. profiler attached — its rows are pre-sized at attach time, so the
///    steady-state recording path must also be allocation-free;
/// 4. progress sampler attached at cadence 1 (a sample EVERY cycle, the
///    worst case) — its ring is pre-sized and samples are `Copy`, so
///    sampling must never touch the heap either. The I/O sink the CLI
///    attaches is deliberately absent: the contract covers the issue
///    path, not heartbeat serialization;
/// 5. all three at once — the observers share one event path.
fn assert_observed_steps_are_allocation_free() {
    let program = assemble(&sort_source(N)).expect("sort kernel assembles");
    let cfg = MachineConfig::new(N);
    let values: Vec<Word> =
        (0..N as i64).map(|i| Word::from_i64((i * 37) % 101, cfg.width)).collect();
    for (label, mode) in MODES {
        let mut m = sort_machine(&program, &values, mode);

        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        let mut steps: u64 = 0;
        while !m.finished() {
            m.step().unwrap();
            steps += 1;
            assert!(steps <= 1_000_000, "sort kernel failed to halt");
        }
        let after = ALLOC_CALLS.load(Ordering::Relaxed);
        assert_eq!(
            after - before,
            0,
            "{label} issue path allocated {} time(s) over {steps} steps",
            after - before
        );
        println!("{label} allocation check: 0 allocations over {steps} steps");
    }
}

criterion_group!(benches, bench_obs_overhead);

fn main() {
    // Under `--list` only bench names may be printed; the assertion runs
    // in every other mode (including `--test` smoke runs in CI).
    if !std::env::args().any(|a| a == "--list") {
        assert_observed_steps_are_allocation_free();
    }
    benches();
}
