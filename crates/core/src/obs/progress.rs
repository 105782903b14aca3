//! Live run telemetry: periodic progress snapshots of an executing
//! machine.
//!
//! A [`ProgressSampler`] attached to a [`crate::Machine`] snapshots the
//! run counters (cycles, issues, the full stall breakdown, live thread
//! count) every N cycles into a bounded ring. The hot path is
//! allocation-free by construction: the ring is pre-sized at attach time
//! and a [`ProgressSample`] is `Copy` (the `obs_overhead` bench asserts
//! this with a counting global allocator). An optional [`ProgressSink`]
//! receives each sample as it is taken — the CLI attaches a
//! [`JsonLinesProgress`] writing `mtasc.progress.v1` JSON-Lines to the
//! run's heartbeat file, flushed per sample so `mtasc runs watch` can
//! tail an in-flight run.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::rc::Rc;

use super::json::Json;
use crate::stats::StallReason;

/// Schema tag on every progress line; bump on incompatible change.
pub const PROGRESS_SCHEMA: &str = "mtasc.progress.v1";

/// One point-in-time snapshot of a running machine's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgressSample {
    /// Machine cycle at which the sample was taken.
    pub cycle: u64,
    /// Instructions issued so far.
    pub issued: u64,
    /// Cycles in which no instruction issued, so far.
    pub stall_cycles: u64,
    /// Stall cycles by reason (indexed by [`StallReason::index`]).
    pub stalls: [u64; 10],
    /// Thread contexts currently allocated (runnable or joining).
    pub live_threads: u32,
    /// Sampling cadence in cycles, stamped by the emitting
    /// [`ProgressSampler`] (0 when the sample was built outside a
    /// sampler). Surfaced on the wire so stream consumers — the `mtasc
    /// serve` SSE endpoint, dashboards — can pace themselves without
    /// out-of-band knowledge of the run's `--progress-every`.
    pub every: u64,
    /// True for the last sample of a run (taken after pipeline drain,
    /// so `cycle` equals the final `Stats::cycles`).
    pub final_sample: bool,
}

impl ProgressSample {
    /// Issued / cycle so far.
    pub fn ipc(&self) -> f64 {
        if self.cycle == 0 {
            0.0
        } else {
            self.issued as f64 / self.cycle as f64
        }
    }

    /// Serialize as one `mtasc.progress.v1` JSON object (zero-valued
    /// stall reasons are elided to keep heartbeat lines short).
    pub fn to_json(&self) -> Json {
        let stalls: Vec<(String, Json)> = StallReason::ALL
            .iter()
            .filter(|r| self.stalls[r.index()] > 0)
            .map(|r| (r.label().to_string(), Json::U64(self.stalls[r.index()])))
            .collect();
        let mut obj = vec![
            ("schema".into(), Json::str(PROGRESS_SCHEMA)),
            ("cycle".into(), Json::U64(self.cycle)),
            ("issued".into(), Json::U64(self.issued)),
            ("ipc".into(), Json::F64(self.ipc())),
            ("stall_cycles".into(), Json::U64(self.stall_cycles)),
            ("stalls".into(), Json::Obj(stalls)),
            ("live_threads".into(), Json::U64(self.live_threads as u64)),
        ];
        if self.every > 0 {
            obj.push(("every".into(), Json::U64(self.every)));
        }
        if self.final_sample {
            obj.push(("final".into(), Json::Bool(true)));
        }
        Json::Obj(obj)
    }

    /// Reconstruct from the value produced by [`ProgressSample::to_json`].
    /// Returns `None` on schema mismatch or missing fields.
    pub fn from_json(v: &Json) -> Option<ProgressSample> {
        if v.get("schema")?.as_str()? != PROGRESS_SCHEMA {
            return None;
        }
        let mut stalls = [0u64; 10];
        let stall_obj = v.get("stalls")?;
        for r in StallReason::ALL {
            if let Some(n) = stall_obj.get(r.label()).and_then(Json::as_u64) {
                stalls[r.index()] = n;
            }
        }
        Some(ProgressSample {
            cycle: v.get("cycle")?.as_u64()?,
            issued: v.get("issued")?.as_u64()?,
            stall_cycles: v.get("stall_cycles")?.as_u64()?,
            stalls,
            live_threads: v.get("live_threads")?.as_u64()? as u32,
            every: v.get("every").and_then(Json::as_u64).unwrap_or(0),
            final_sample: matches!(v.get("final"), Some(Json::Bool(true))),
        })
    }

    /// Parse a `mtasc.progress.v1` JSON-Lines text back into samples
    /// (blank lines skipped). Returns the 1-based line number of the
    /// first malformed line on error.
    pub fn parse_lines(text: &str) -> Result<Vec<ProgressSample>, usize> {
        let mut out = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = Json::parse(line).map_err(|_| i + 1)?;
            out.push(ProgressSample::from_json(&v).ok_or(i + 1)?);
        }
        Ok(out)
    }

    /// One-line human rendering (used by `mtasc runs watch`).
    pub fn render(&self) -> String {
        let mut top: Vec<(StallReason, u64)> = StallReason::ALL
            .iter()
            .map(|&r| (r, self.stalls[r.index()]))
            .filter(|&(_, n)| n > 0)
            .collect();
        top.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        let stalls = match top.first() {
            Some((r, n)) => format!(", top stall {} ({n})", r.label()),
            None => String::new(),
        };
        format!(
            "cycle {:>10}  issued {:>9}  IPC {:.3}  threads {}{}{}",
            self.cycle,
            self.issued,
            self.ipc(),
            self.live_threads,
            stalls,
            if self.final_sample { "  [final]" } else { "" }
        )
    }
}

/// Receives every sample as it is taken (heartbeat writers).
pub trait ProgressSink {
    /// Observe one sample.
    fn on_sample(&mut self, sample: &ProgressSample);

    /// Flush buffered output (called at end of run).
    fn flush_progress(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A shared, clonable handle to a progress sink (mirrors
/// [`super::SinkHandle`] so `Machine` stays `Clone`).
#[derive(Clone)]
pub struct ProgressHandle(Rc<RefCell<dyn ProgressSink>>);

impl std::fmt::Debug for ProgressHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressHandle(..)")
    }
}

impl ProgressHandle {
    /// Wrap a sink for attachment to a sampler.
    pub fn new(sink: impl ProgressSink + 'static) -> ProgressHandle {
        ProgressHandle(Rc::new(RefCell::new(sink)))
    }

    /// Wrap an externally held sink, keeping the caller's handle for
    /// read-back after the run.
    pub fn shared<S: ProgressSink + 'static>(sink: Rc<RefCell<S>>) -> ProgressHandle {
        ProgressHandle(sink)
    }

    /// Deliver one sample.
    pub fn emit(&self, sample: &ProgressSample) {
        self.0.borrow_mut().on_sample(sample);
    }

    /// Flush the underlying sink.
    pub fn flush(&self) -> io::Result<()> {
        self.0.borrow_mut().flush_progress()
    }
}

/// A heartbeat writer: one compact `mtasc.progress.v1` JSON object per
/// sample, flushed immediately so another process can tail the file
/// (`mtasc runs watch`).
#[derive(Debug)]
pub struct JsonLinesProgress<W: Write> {
    writer: W,
    written: u64,
    errors: u64,
}

impl JsonLinesProgress<std::fs::File> {
    /// Create (truncating) a heartbeat file.
    pub fn create(path: &str) -> io::Result<Self> {
        Ok(JsonLinesProgress::new(std::fs::File::create(path)?))
    }
}

impl<W: Write> JsonLinesProgress<W> {
    /// Wrap a writer.
    pub fn new(writer: W) -> JsonLinesProgress<W> {
        JsonLinesProgress { writer, written: 0, errors: 0 }
    }

    /// Lines successfully written.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Write errors absorbed (the heartbeat is best-effort; the run is
    /// never failed for a telemetry write error).
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Consume the sink, returning the writer.
    pub fn into_writer(mut self) -> io::Result<W> {
        self.writer.flush()?;
        Ok(self.writer)
    }

    /// The underlying writer (read-back through a shared handle).
    pub fn writer(&self) -> &W {
        &self.writer
    }
}

impl<W: Write> ProgressSink for JsonLinesProgress<W> {
    fn on_sample(&mut self, sample: &ProgressSample) {
        let line = sample.to_json().to_compact();
        let write = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            // flushed per sample: heartbeats must be visible to tailing
            // readers while the run is still executing
            .and_then(|()| self.writer.flush());
        match write {
            Ok(()) => self.written += 1,
            Err(_) => self.errors += 1,
        }
    }

    fn flush_progress(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// The sampler a machine holds: cadence, bounded ring, optional sink.
#[derive(Debug, Clone)]
pub struct ProgressSampler {
    /// Sampling cadence in cycles.
    every: u64,
    /// Next cycle at or after which a sample is due.
    next_at: u64,
    /// The most recent samples, oldest first (pre-sized; never holds
    /// more than `capacity`, so it never grows after construction).
    ring: VecDeque<ProgressSample>,
    capacity: usize,
    /// Samples evicted because the ring was full.
    evicted: u64,
    /// Optional heartbeat sink.
    sink: Option<ProgressHandle>,
}

impl ProgressSampler {
    /// A sampler taking a snapshot every `every` cycles (≥ 1), retaining
    /// the most recent `capacity` samples (≥ 1).
    pub fn new(every: u64, capacity: usize) -> ProgressSampler {
        assert!(every >= 1, "sampling cadence must be at least one cycle");
        assert!(capacity >= 1);
        ProgressSampler {
            every,
            next_at: every,
            ring: VecDeque::with_capacity(capacity),
            capacity,
            evicted: 0,
            sink: None,
        }
    }

    /// Attach a heartbeat sink receiving every sample.
    pub fn with_sink(mut self, sink: ProgressHandle) -> ProgressSampler {
        self.sink = Some(sink);
        self
    }

    /// Sampling cadence in cycles.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// True when a sample is due at `cycle` (checked by the machine once
    /// per step; one compare on the common path).
    #[inline]
    pub fn due(&self, cycle: u64) -> bool {
        cycle >= self.next_at
    }

    /// Record one sample. Allocation-free: the ring was pre-sized at
    /// construction and the sample is `Copy`. The sampler stamps its
    /// cadence into the sample so every emitted heartbeat self-describes
    /// its pacing.
    pub fn push(&mut self, mut sample: ProgressSample) {
        sample.every = self.every;
        self.next_at = sample.cycle.saturating_add(self.every);
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(sample);
        if let Some(sink) = &self.sink {
            sink.emit(&sample);
        }
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &ProgressSample> {
        self.ring.iter()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if nothing was sampled yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Samples evicted because the ring was full.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The most recent sample, if any.
    pub fn latest(&self) -> Option<&ProgressSample> {
        self.ring.back()
    }

    /// Flush the attached sink, if any.
    pub fn flush(&self) -> io::Result<()> {
        match &self.sink {
            Some(s) => s.flush(),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cycle: u64) -> ProgressSample {
        let mut stalls = [0u64; 10];
        stalls[StallReason::ReductionHazard.index()] = cycle / 2;
        ProgressSample {
            cycle,
            issued: cycle / 3,
            stall_cycles: cycle / 2,
            stalls,
            live_threads: 2,
            every: 0,
            final_sample: false,
        }
    }

    #[test]
    fn json_round_trips() {
        for s in [sample(0), sample(100), ProgressSample { final_sample: true, ..sample(7) }] {
            let v = s.to_json();
            assert_eq!(ProgressSample::from_json(&v), Some(s));
        }
        // zero stalls are elided but parse back as zero
        let v = sample(100).to_json();
        assert!(v.get("stalls").unwrap().get("data hazard").is_none());
        assert_eq!(ProgressSample::from_json(&v).unwrap().stalls[0], 0);
    }

    #[test]
    fn parse_lines_round_trips_and_pinpoints_errors() {
        let text = format!(
            "{}\n\n{}\n",
            sample(10).to_json().to_compact(),
            sample(20).to_json().to_compact()
        );
        let back = ProgressSample::parse_lines(&text).unwrap();
        assert_eq!(back, vec![sample(10), sample(20)]);
        assert_eq!(ProgressSample::parse_lines("not json"), Err(1));
        assert_eq!(ProgressSample::parse_lines(&format!("{text}{{}}")), Err(4));
    }

    #[test]
    fn sampler_stamps_its_cadence_onto_the_wire() {
        let mut p = ProgressSampler::new(8, 4);
        p.push(sample(8));
        let stamped = *p.latest().unwrap();
        assert_eq!(stamped.every, 8);
        let v = stamped.to_json();
        assert_eq!(v.get("every").and_then(Json::as_u64), Some(8));
        assert_eq!(ProgressSample::from_json(&v), Some(stamped));
        // samples built outside a sampler elide the field and parse back
        // as cadence-unknown
        let bare = sample(10).to_json();
        assert!(bare.get("every").is_none());
        assert_eq!(ProgressSample::from_json(&bare).unwrap().every, 0);
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_tail() {
        let mut p = ProgressSampler::new(10, 4);
        for i in 1..=10u64 {
            p.push(sample(i * 10));
        }
        assert_eq!(p.len(), 4);
        assert_eq!(p.evicted(), 6);
        let cycles: Vec<u64> = p.samples().map(|s| s.cycle).collect();
        assert_eq!(cycles, vec![70, 80, 90, 100]);
        assert_eq!(p.latest().unwrap().cycle, 100);
    }

    #[test]
    fn cadence_gates_sampling() {
        let mut p = ProgressSampler::new(100, 8);
        assert!(!p.due(99));
        assert!(p.due(100));
        assert!(p.due(250), "fast-forwarded stalls may overshoot the mark");
        p.push(sample(250));
        assert!(!p.due(349));
        assert!(p.due(350));
    }

    #[test]
    fn sink_receives_every_sample() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        struct Collect(Rc<RefCell<Vec<ProgressSample>>>);
        impl ProgressSink for Collect {
            fn on_sample(&mut self, s: &ProgressSample) {
                self.0.borrow_mut().push(*s);
            }
        }
        let mut p =
            ProgressSampler::new(1, 2).with_sink(ProgressHandle::new(Collect(seen.clone())));
        for i in 1..=5u64 {
            p.push(sample(i));
        }
        // the ring holds the tail; the sink saw everything
        assert_eq!(p.len(), 2);
        assert_eq!(seen.borrow().len(), 5);
        p.flush().unwrap();
    }

    #[test]
    fn json_lines_sink_writes_tailable_lines() {
        let mut sink = JsonLinesProgress::new(Vec::new());
        sink.on_sample(&sample(10));
        sink.on_sample(&ProgressSample { final_sample: true, ..sample(20) });
        assert_eq!(sink.written(), 2);
        assert_eq!(sink.errors(), 0);
        let bytes = sink.into_writer().unwrap();
        let back = ProgressSample::parse_lines(&String::from_utf8(bytes).unwrap()).unwrap();
        assert_eq!(back.len(), 2);
        assert!(back[1].final_sample);
    }

    const PROGRAM: &str = "
        li    s2, 5
        li    s3, 0
        pidx  p1
loop:   paddi p1, p1, 1
        rsum  s1, p1
        add   s4, s4, s1
        addi  s3, s3, 1
        ceq   f1, s3, s2
        bf    f1, loop
        halt
    ";

    fn machine() -> crate::Machine {
        let program = asc_asm::assemble(PROGRAM).unwrap();
        crate::Machine::with_program(crate::MachineConfig::new(16), &program).unwrap()
    }

    #[test]
    fn machine_samples_on_cadence_and_at_the_end() {
        let mut m = machine();
        m.attach_progress(ProgressSampler::new(8, 64));
        let stats = m.run(100_000).unwrap();
        let p = m.progress().unwrap();
        assert!(p.len() >= 2, "a {}-cycle run sampled {} times", stats.cycles, p.len());
        let samples: Vec<ProgressSample> = p.samples().copied().collect();
        // monotone cycle stamps at least `every` apart; counters monotone
        for w in samples.windows(2) {
            assert!(w[1].cycle >= w[0].cycle + 8, "{} then {}", w[0].cycle, w[1].cycle);
            assert!(w[1].issued >= w[0].issued);
            assert!(w[1].stall_cycles >= w[0].stall_cycles);
        }
        // the final sample carries the end-of-run totals exactly
        let last = samples.last().unwrap();
        assert!(last.final_sample);
        assert_eq!(last.cycle, stats.cycles);
        assert_eq!(last.issued, stats.issued);
        assert_eq!(last.stall_cycles, stats.stall_cycles);
        // intermediate samples are live (pre-drain)
        assert!(samples[..samples.len() - 1].iter().all(|s| !s.final_sample));
    }

    #[test]
    fn conservation_holds_with_sampler_and_profiler_attached() {
        let mut m = machine();
        m.attach_profiler();
        m.attach_progress(ProgressSampler::new(4, 16));
        let stats = m.run(100_000).unwrap();
        let profile = m.profile().unwrap();
        assert_eq!(profile.attributed_cycles(), stats.cycles, "conservation");
        // and the sampler saw the same world: its ring kept the tail
        assert_eq!(m.progress().unwrap().latest().unwrap().cycle, stats.cycles);
        // a sampler-free clone of the same program runs identically
        let mut bare = machine();
        let bare_stats = bare.run(100_000).unwrap();
        assert_eq!(bare_stats.cycles, stats.cycles, "sampling is observation-only");
        assert_eq!(bare_stats.issued, stats.issued);
    }

    #[test]
    fn machine_streams_heartbeats_to_a_shared_sink() {
        let sink = Rc::new(RefCell::new(JsonLinesProgress::new(Vec::new())));
        let mut m = machine();
        m.attach_progress(
            ProgressSampler::new(8, 4).with_sink(ProgressHandle::shared(sink.clone())),
        );
        let stats = m.run(100_000).unwrap();
        let written = sink.borrow().written();
        assert!(written >= 2);
        let text = String::from_utf8(sink.borrow().writer().clone()).unwrap();
        let samples = ProgressSample::parse_lines(&text).unwrap();
        assert_eq!(samples.len() as u64, written);
        assert_eq!(samples.last().unwrap().cycle, stats.cycles);
        assert!(samples.last().unwrap().final_sample);
    }

    #[test]
    fn take_progress_detaches() {
        let mut m = machine();
        m.attach_progress(ProgressSampler::new(1, 4));
        m.run(100_000).unwrap();
        let p = m.take_progress().unwrap();
        assert!(!p.is_empty());
        assert!(m.progress().is_none());
    }

    #[test]
    fn render_is_single_line() {
        let line = sample(1000).render();
        assert!(line.contains("cycle"));
        assert!(line.contains("reduction hazard"), "{line}");
        assert_eq!(line.lines().count(), 1);
    }
}
