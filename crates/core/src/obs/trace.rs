//! Trace sinks: where [`TraceEvent`]s go. The machine's one event path
//! holds an optional [`SinkHandle`] next to the profiler and the progress
//! sampler; with no sink attached, no event is even constructed.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::rc::Rc;

use super::event::TraceEvent;
use super::json::Json;

/// Receives every emitted event, in emission order.
pub trait TraceSink {
    /// Observe one event.
    fn record(&mut self, event: &TraceEvent);

    /// Flush any buffered output (called by `SinkHandle::flush`, and a
    /// good idea at end of run for file-backed sinks).
    fn flush_sink(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Events this sink discarded (ring eviction, post-error writes).
    /// A non-zero value means the recorded trace is lossy.
    fn dropped_events(&self) -> u64 {
        0
    }

    /// Write errors the sink has absorbed (file-backed sinks latch the
    /// first error and silently drop everything after it).
    fn write_errors(&self) -> u64 {
        0
    }
}

/// A bounded in-memory sink: keeps the last `capacity` events and counts
/// what it had to drop. Cheap enough to attach in tests and the kernels
/// harness.
#[derive(Debug, Clone)]
pub struct RingBufferSink {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` events (≥ 1).
    pub fn new(capacity: usize) -> RingBufferSink {
        assert!(capacity >= 1);
        RingBufferSink { capacity, events: VecDeque::with_capacity(capacity), dropped: 0 }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl TraceSink for RingBufferSink {
    fn record(&mut self, event: &TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(*event);
    }

    fn dropped_events(&self) -> u64 {
        self.dropped
    }
}

/// An unbounded in-memory sink: keeps every event (Chrome-trace export
/// needs the whole stream, not a ring's tail). Prefer [`RingBufferSink`]
/// when only the recent window matters — this one grows with the run.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    events: Vec<TraceEvent>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// All recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consume the sink, returning the events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(*event);
    }
}

/// A sink writing one compact JSON object per line (JSON-Lines) to any
/// `io::Write`. Construct over a `BufWriter<File>` (see
/// [`JsonLinesSink::create`]) for traces on disk, or a `Vec<u8>` in tests.
#[derive(Debug)]
pub struct JsonLinesSink<W: Write> {
    writer: W,
    written: u64,
    dropped: u64,
    error: Option<io::Error>,
}

impl JsonLinesSink<io::BufWriter<std::fs::File>> {
    /// Create (truncating) a JSON-Lines trace file.
    pub fn create(path: &str) -> io::Result<Self> {
        Ok(JsonLinesSink::new(io::BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: Write> JsonLinesSink<W> {
    /// Wrap a writer.
    pub fn new(writer: W) -> JsonLinesSink<W> {
        JsonLinesSink { writer, written: 0, dropped: 0, error: None }
    }

    /// Lines successfully written.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The first write error, if any occurred (recording continues past
    /// errors; check this at end of run).
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Consume the sink, returning the writer (for `Vec<u8>`-backed
    /// round-trip tests).
    pub fn into_writer(mut self) -> io::Result<W> {
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> TraceSink for JsonLinesSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            self.dropped += 1;
            return;
        }
        let line = event.to_json().to_compact();
        match self.writer.write_all(line.as_bytes()).and_then(|()| self.writer.write_all(b"\n")) {
            Ok(()) => self.written += 1,
            Err(e) => {
                self.error = Some(e);
                self.dropped += 1;
            }
        }
    }

    fn flush_sink(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    fn dropped_events(&self) -> u64 {
        self.dropped
    }

    fn write_errors(&self) -> u64 {
        u64::from(self.error.is_some())
    }
}

/// Parse a JSON-Lines trace back into events (blank lines skipped).
/// Returns the 1-based line number of the first malformed line on error.
pub fn parse_json_lines(text: &str) -> Result<Vec<TraceEvent>, usize> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Json::parse(line).map_err(|_| i + 1)?;
        events.push(TraceEvent::from_json(&v).ok_or(i + 1)?);
    }
    Ok(events)
}

/// A shared, clonable handle to a sink. The machine stores one of these
/// (rather than a `Box<dyn TraceSink>`) so `Machine` stays `Clone`;
/// cloning a machine shares the sink with the clone.
#[derive(Clone)]
pub struct SinkHandle(Rc<RefCell<dyn TraceSink>>);

impl std::fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SinkHandle(..)")
    }
}

impl SinkHandle {
    /// Wrap a sink for attachment to a machine.
    pub fn new(sink: impl TraceSink + 'static) -> SinkHandle {
        SinkHandle(Rc::new(RefCell::new(sink)))
    }

    /// Wrap an externally held sink, keeping the caller's handle for
    /// read-back after the run:
    ///
    /// ```
    /// use std::cell::RefCell;
    /// use std::rc::Rc;
    /// use asc_core::obs::{RingBufferSink, SinkHandle};
    ///
    /// let ring = Rc::new(RefCell::new(RingBufferSink::new(1024)));
    /// let handle = SinkHandle::shared(ring.clone());
    /// // attach `handle` to a machine, run, then inspect ring.borrow()
    /// ```
    pub fn shared<S: TraceSink + 'static>(sink: Rc<RefCell<S>>) -> SinkHandle {
        SinkHandle(sink)
    }

    /// Deliver one event.
    pub fn emit(&self, event: &TraceEvent) {
        self.0.borrow_mut().record(event);
    }

    /// Flush the underlying sink.
    pub fn flush(&self) -> io::Result<()> {
        self.0.borrow_mut().flush_sink()
    }

    /// Events the underlying sink discarded (lossy trace when non-zero).
    pub fn dropped_events(&self) -> u64 {
        self.0.borrow().dropped_events()
    }

    /// Write errors the underlying sink absorbed.
    pub fn write_errors(&self) -> u64 {
        self.0.borrow().write_errors()
    }
}

#[cfg(test)]
mod tests {
    use super::super::event::tests::samples;
    use super::*;

    #[test]
    fn ring_buffer_keeps_the_tail() {
        let mut ring = RingBufferSink::new(4);
        for ev in samples() {
            ring.record(&ev);
        }
        let n = samples().len();
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), (n - 4) as u64);
        let kept: Vec<TraceEvent> = ring.events().copied().collect();
        assert_eq!(kept, samples()[n - 4..]);
    }

    #[test]
    fn json_lines_round_trip_every_variant() {
        let mut sink = JsonLinesSink::new(Vec::new());
        for ev in samples() {
            sink.record(&ev);
        }
        assert_eq!(sink.written(), samples().len() as u64);
        assert!(sink.error().is_none());
        let bytes = sink.into_writer().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(parse_json_lines(&text).unwrap(), samples());
    }

    #[test]
    fn parse_reports_bad_line_numbers() {
        assert_eq!(parse_json_lines("{\"ev\":\"nope\",\"cycle\":1}"), Err(1));
        let good = samples()[0].to_json().to_compact();
        assert_eq!(parse_json_lines(&format!("{good}\n\nnot json")), Err(3));
    }

    #[test]
    fn memory_sink_keeps_everything() {
        let mut sink = MemorySink::new();
        assert!(sink.is_empty());
        for ev in samples() {
            sink.record(&ev);
        }
        assert_eq!(sink.len(), samples().len());
        assert_eq!(sink.dropped_events(), 0);
        assert_eq!(sink.events(), samples());
        assert_eq!(sink.into_events(), samples());
    }

    #[test]
    fn lossiness_is_visible_through_the_handle() {
        let ring = SinkHandle::new(RingBufferSink::new(1));
        for ev in samples() {
            ring.emit(&ev);
        }
        assert_eq!(ring.dropped_events(), samples().len() as u64 - 1);
        assert_eq!(ring.write_errors(), 0);
    }

    /// A writer that fails after `ok` successful writes.
    struct FailingWriter {
        ok: usize,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.ok == 0 {
                return Err(io::Error::other("disk full"));
            }
            self.ok -= 1;
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn json_lines_counts_post_error_drops() {
        // each record is two writes (line + newline); allow exactly one
        // event through, then fail
        let mut sink = JsonLinesSink::new(FailingWriter { ok: 2 });
        for ev in samples() {
            sink.record(&ev);
        }
        assert_eq!(sink.written(), 1);
        assert!(sink.error().is_some());
        assert_eq!(sink.write_errors(), 1);
        assert_eq!(sink.dropped_events(), samples().len() as u64 - 1);
    }

    #[test]
    fn shared_handles_read_back() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let ring = Rc::new(RefCell::new(RingBufferSink::new(16)));
        let handle = SinkHandle::shared(ring.clone());
        let cloned = handle.clone();
        cloned.emit(&samples()[0]);
        handle.emit(&samples()[1]);
        assert_eq!(ring.borrow().len(), 2);
    }
}
