//! The machine's one event path. [`crate::Machine`] holds a single
//! [`Observers`] value and makes one call per event, at the point where
//! the event happens. Each method feeds every attached consumer: the
//! trace sink, the cycle-attribution profiler and the progress sampler.
//! With nothing attached a call costs three `None` checks and builds no
//! event, so the issue path stays allocation-free.
//!
//! This is also where a new consumer goes: host-time attribution of the
//! execute phase hooks these methods rather than the sites in
//! `machine.rs`.

use asc_isa::{Instr, InstrClass};
use asc_network::NetUnit;

use super::profile::Profile;
use super::progress::{ProgressSample, ProgressSampler};
use super::{SeqUnit, SinkHandle, ThreadTransition, TraceEvent};
use crate::stats::{StallReason, Stats};
use crate::threads::ThreadTable;

/// Everything attached to a machine that watches it run.
#[derive(Debug, Clone, Default)]
pub(crate) struct Observers {
    /// Trace sink (shared by clones of the machine).
    pub(crate) sink: Option<SinkHandle>,
    /// Cycle-attribution profiler (boxed: the row table is large and the
    /// common case is "not attached").
    pub(crate) profiler: Option<Box<Profile>>,
    /// Progress sampler (boxed for the same reason; its ring is pre-sized
    /// so sampling never allocates).
    pub(crate) progress: Option<Box<ProgressSampler>>,
}

impl Observers {
    /// A program of `prog_len` words was loaded: re-shape the profiler's
    /// row table (pre-sized here so the record path never allocates).
    pub(crate) fn program_loaded(&mut self, threads: usize, prog_len: usize) {
        if let Some(p) = &mut self.profiler {
            **p = Profile::new(threads, prog_len);
        }
    }

    /// `instr` issued from `(thread, pc)` at `cycle` and writes back at
    /// `retire`. A non-scalar instruction also enters the broadcast tree,
    /// which takes `b` cycles. Ghost issues of fused blocks come through
    /// here too, so fused and unfused runs observe identically.
    #[inline]
    pub(crate) fn issue(
        &mut self,
        cycle: u64,
        thread: usize,
        pc: u32,
        instr: &Instr,
        retire: u64,
        b: u64,
    ) {
        if let Some(p) = &mut self.profiler {
            p.record_issue(thread, pc);
            if instr.class() != InstrClass::Scalar {
                p.record_net(thread, pc);
            }
        }
        if let Some(sink) = &self.sink {
            let class = instr.class();
            let word = asc_isa::encode(instr);
            sink.emit(&TraceEvent::Issue { cycle, thread, pc, class, word });
            // retirement is resolved at issue; the event carries the
            // future WB cycle
            sink.emit(&TraceEvent::Retire { cycle: retire, thread, pc, class });
            if class != InstrClass::Scalar {
                let unit = NetUnit::Broadcast;
                sink.emit(&TraceEvent::NetOp { cycle, thread, unit, latency: b });
            }
        }
    }

    /// The issue slot stays empty for `cycles` cycles from `cycle`.
    /// `blame` is the profiler's attribution: the blocked thread, the PC
    /// that could not issue and the PC of the in-flight producer it waits
    /// on; `None` when no thread was blocked.
    #[inline]
    pub(crate) fn stall(
        &mut self,
        cycle: u64,
        reason: StallReason,
        cycles: u64,
        blame: Option<(usize, u32, u32)>,
    ) {
        if let Some(p) = &mut self.profiler {
            match blame {
                Some((thread, pc, waiting_on)) => {
                    p.record_stall(thread, pc, reason, cycles, waiting_on)
                }
                None => p.record_unattributed(reason, cycles),
            }
        }
        if let Some(sink) = &self.sink {
            sink.emit(&TraceEvent::Stall { cycle, reason, cycles });
        }
    }

    /// `(thread, pc)` started a reduction-network operation on `unit`,
    /// which takes `r` cycles.
    #[inline]
    pub(crate) fn net_reduce(&mut self, cycle: u64, thread: usize, pc: u32, unit: NetUnit, r: u64) {
        if let Some(p) = &mut self.profiler {
            p.record_net(thread, pc);
        }
        if let Some(sink) = &self.sink {
            sink.emit(&TraceEvent::NetOp { cycle, thread, unit, latency: r });
        }
    }

    /// `thread` changed run state.
    #[inline]
    pub(crate) fn thread(&mut self, cycle: u64, thread: usize, transition: ThreadTransition) {
        if let Some(sink) = &self.sink {
            sink.emit(&TraceEvent::Thread { cycle, thread, transition });
        }
    }

    /// `thread` claimed a sequential unit, busy for `busy_for` cycles
    /// from `cycle`.
    #[inline]
    pub(crate) fn unit_busy(&mut self, cycle: u64, thread: usize, unit: SeqUnit, busy_for: u64) {
        if let Some(sink) = &self.sink {
            sink.emit(&TraceEvent::UnitBusy { cycle, thread, unit, busy_for });
        }
    }

    /// A step ended at `cycle`. Stall fast-forwarding can jump past the
    /// sampler's mark, so the sample lands at the first step boundary at
    /// or after it.
    #[inline]
    pub(crate) fn step_end(&mut self, cycle: u64, stats: &Stats, threads: &ThreadTable) {
        if let Some(p) = &mut self.progress {
            if p.due(cycle) {
                p.push(snapshot(cycle, stats, threads, false));
            }
        }
    }

    /// The run finished after `cycles` cycles (pipeline drain included):
    /// close the profiler's books, take the final progress sample, and
    /// flush the sinks (best-effort; file-backed sinks latch their own
    /// errors).
    pub(crate) fn run_end(&mut self, cycles: u64, stats: &Stats, threads: &ThreadTable) {
        if let Some(p) = &mut self.profiler {
            p.finalize(cycles);
        }
        if let Some(p) = &mut self.progress {
            p.push(snapshot(cycles, stats, threads, true));
            let _ = p.flush();
        }
        if let Some(sink) = &self.sink {
            let _ = sink.flush();
        }
    }
}

/// The run counters at `cycle`, as a progress sample. Allocation-free:
/// the sample is `Copy` (the sampler's ring is pre-sized).
fn snapshot(
    cycle: u64,
    stats: &Stats,
    threads: &ThreadTable,
    final_sample: bool,
) -> ProgressSample {
    ProgressSample {
        cycle,
        issued: stats.issued,
        stall_cycles: stats.stall_cycles,
        stalls: stats.stalls,
        live_threads: threads.live_count() as u32,
        every: 0, // stamped by the sampler on push
        final_sample,
    }
}
