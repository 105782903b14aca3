//! Machine-readable run reports.
//!
//! A [`RunReport`] bundles the machine geometry, the legacy [`Stats`]
//! totals, and the full metrics [`Registry`] (including per-thread
//! utilizations, stall-span histograms, network queue depths, and
//! analytic per-stage pipeline occupancy). It serializes to JSON
//! (`mtasc run --report out.json`), parses back, and renders a pretty
//! text summary (`mtasc stats out.json`).

use super::json::{Json, JsonError};
use super::metrics::{MetricValue, Registry};
use crate::config::SchedPolicy;
use crate::machine::Machine;
use crate::stats::{StallReason, Stats};

/// Schema tag written into every report; bump on incompatible change.
pub const REPORT_SCHEMA: &str = "mtasc.run_report.v1";

/// The machine geometry a report was produced on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineMeta {
    /// Number of processing elements.
    pub pes: u64,
    /// Hardware thread contexts.
    pub threads: u64,
    /// Broadcast tree arity.
    pub arity: u64,
    /// Datapath width in bits.
    pub width_bits: u64,
    /// Broadcast latency b = ⌈log_k p⌉.
    pub b: u64,
    /// Reduction latency r = ⌈log₂ p⌉.
    pub r: u64,
    /// Scheduler policy ("fine-grain" or "coarse-grain(penalty)").
    pub sched: String,
    /// Host SIMD dispatch tier the dense-word plane ops ran at
    /// ("scalar", "avx2", or "avx512"). Purely an execution-strategy
    /// record — results are bit-identical across tiers — but wall-time
    /// comparisons between runs are only fair within a tier.
    pub simd: String,
    /// Resolved segment count of the core-affine PE-array sharding
    /// (after the `MTASC_SEGMENTS` override and geometry rounding).
    /// Execution strategy only — results are bit-identical at every
    /// count — but recorded so wall-time comparisons are fair.
    pub segments: u64,
    /// Resolved Rayon dispatch threshold (after `MTASC_PAR_THRESHOLD`).
    pub par_threshold: u64,
}

/// A complete, serializable account of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Machine geometry.
    pub machine: MachineMeta,
    /// The legacy counters, exactly as `Machine::stats` reported them.
    pub totals: Stats,
    /// The full metrics registry ([`Stats::to_registry`] plus the
    /// analytic per-stage occupancy counters added by
    /// [`RunReport::from_machine`]).
    pub metrics: Registry,
    /// Events the attached trace sink discarded (ring eviction or writes
    /// after an I/O error). Non-zero means the recorded trace is lossy.
    pub trace_dropped: u64,
    /// Write errors the attached trace sink absorbed.
    pub trace_errors: u64,
}

impl RunReport {
    /// Snapshot a finished (or in-progress) machine.
    pub fn from_machine(m: &Machine) -> RunReport {
        let cfg = m.config();
        let timing = m.timing();
        let sched = match cfg.sched {
            SchedPolicy::FineGrain => "fine-grain".to_string(),
            SchedPolicy::CoarseGrain { switch_penalty } => {
                format!("coarse-grain({switch_penalty})")
            }
        };
        let machine = MachineMeta {
            pes: cfg.num_pes as u64,
            threads: cfg.threads as u64,
            arity: cfg.broadcast_arity as u64,
            width_bits: cfg.width.bits() as u64,
            b: timing.b,
            r: timing.r,
            sched,
            simd: m.simd_level().label().to_string(),
            segments: cfg.segment_geometry().count() as u64,
            par_threshold: cfg.effective_parallel_threshold() as u64,
        };
        let stats = m.stats().clone();
        let mut metrics = stats.to_registry();
        // Analytic per-stage occupancy: each issued instruction of a class
        // passes through every stage of that class's pipeline exactly once,
        // so stage occupancy is the sum of issue counts over the classes
        // whose pipelines contain the stage.
        for class in asc_isa::InstrClass::ALL {
            let issued = stats.issued_by_class[class.index()];
            for stage in timing.stage_names(class) {
                metrics.counter_add(&format!("occupancy.stage.{stage}"), issued);
            }
        }
        if stats.cycles > 0 {
            let names: Vec<String> = metrics
                .iter()
                .filter_map(|(n, _)| n.strip_prefix("occupancy.stage.").map(str::to_string))
                .collect();
            for stage in names {
                let n = metrics.counter(&format!("occupancy.stage.{stage}"));
                metrics
                    .gauge_set(&format!("occupancy.util.{stage}"), n as f64 / stats.cycles as f64);
            }
        }
        let (trace_dropped, trace_errors) = match m.sink() {
            Some(sink) => (sink.dropped_events(), sink.write_errors()),
            None => (0, 0),
        };
        RunReport { machine, totals: stats, metrics, trace_dropped, trace_errors }
    }

    /// Serialize to a JSON value.
    pub fn to_json(&self) -> Json {
        let m = &self.machine;
        let machine = Json::Obj(vec![
            ("pes".into(), Json::U64(m.pes)),
            ("threads".into(), Json::U64(m.threads)),
            ("arity".into(), Json::U64(m.arity)),
            ("width_bits".into(), Json::U64(m.width_bits)),
            ("b".into(), Json::U64(m.b)),
            ("r".into(), Json::U64(m.r)),
            ("sched".into(), Json::str(&m.sched)),
            ("simd".into(), Json::str(&m.simd)),
            ("segments".into(), Json::U64(m.segments)),
            ("par_threshold".into(), Json::U64(m.par_threshold)),
        ]);
        let s = &self.totals;
        let totals = Json::Obj(vec![
            ("cycles".into(), Json::U64(s.cycles)),
            ("issued".into(), Json::U64(s.issued)),
            (
                "issued_by_class".into(),
                Json::Obj(vec![
                    ("scalar".into(), Json::U64(s.issued_by_class[0])),
                    ("parallel".into(), Json::U64(s.issued_by_class[1])),
                    ("reduction".into(), Json::U64(s.issued_by_class[2])),
                ]),
            ),
            (
                "issued_by_thread".into(),
                Json::Arr(s.issued_by_thread.iter().map(|&n| Json::U64(n)).collect()),
            ),
            ("ipc".into(), Json::F64(s.ipc())),
            ("stall_cycles".into(), Json::U64(s.stall_cycles)),
            (
                "stalls".into(),
                Json::Obj(
                    StallReason::ALL
                        .iter()
                        .map(|r| (r.label().to_string(), Json::U64(s.stalls_for(*r))))
                        .collect(),
                ),
            ),
            ("last_writeback".into(), Json::U64(s.last_writeback)),
            ("thread_switches".into(), Json::U64(s.thread_switches)),
        ]);
        Json::Obj(vec![
            ("schema".into(), Json::str(REPORT_SCHEMA)),
            ("machine".into(), machine),
            ("totals".into(), totals),
            ("trace_dropped".into(), Json::U64(self.trace_dropped)),
            ("trace_errors".into(), Json::U64(self.trace_errors)),
            ("metrics".into(), self.metrics.to_json()),
        ])
    }

    /// Parse a report from JSON text (as written by
    /// `Json::to_pretty`/`to_compact` of [`RunReport::to_json`]).
    pub fn parse(text: &str) -> Result<RunReport, JsonError> {
        let v = Json::parse(text)?;
        RunReport::from_json(&v)
            .ok_or_else(|| JsonError { message: "not a mtasc run report".into(), offset: 0 })
    }

    /// Reconstruct from the value produced by [`RunReport::to_json`].
    /// Returns `None` on schema mismatch or missing fields.
    pub fn from_json(v: &Json) -> Option<RunReport> {
        if v.get("schema")?.as_str()? != REPORT_SCHEMA {
            return None;
        }
        let m = v.get("machine")?;
        let machine = MachineMeta {
            pes: m.get("pes")?.as_u64()?,
            threads: m.get("threads")?.as_u64()?,
            arity: m.get("arity")?.as_u64()?,
            width_bits: m.get("width_bits")?.as_u64()?,
            b: m.get("b")?.as_u64()?,
            r: m.get("r")?.as_u64()?,
            sched: m.get("sched")?.as_str()?.to_string(),
            // absent in pre-SIMD reports, which all ran scalar
            simd: m.get("simd").and_then(Json::as_str).unwrap_or("scalar").to_string(),
            // absent in pre-segmentation reports, which were monolithic
            segments: m.get("segments").and_then(Json::as_u64).unwrap_or(1),
            par_threshold: m.get("par_threshold").and_then(Json::as_u64).unwrap_or(0),
        };
        let metrics = Registry::from_json(v.get("metrics")?)?;
        let t = v.get("totals")?;
        let by_class = t.get("issued_by_class")?;
        let mut totals = Stats {
            cycles: t.get("cycles")?.as_u64()?,
            issued: t.get("issued")?.as_u64()?,
            issued_by_class: [
                by_class.get("scalar")?.as_u64()?,
                by_class.get("parallel")?.as_u64()?,
                by_class.get("reduction")?.as_u64()?,
            ],
            issued_by_thread: t
                .get("issued_by_thread")?
                .as_arr()?
                .iter()
                .map(Json::as_u64)
                .collect::<Option<Vec<u64>>>()?,
            stall_cycles: t.get("stall_cycles")?.as_u64()?,
            stalls: [0; 10],
            last_writeback: t.get("last_writeback")?.as_u64()?,
            thread_switches: t.get("thread_switches")?.as_u64()?,
            stall_spans: Vec::new(),
            broadcast_depth: Default::default(),
            reduction_depth: Default::default(),
        };
        let stall_obj = t.get("stalls")?;
        for reason in StallReason::ALL {
            totals.stalls[reason.index()] = stall_obj.get(reason.label())?.as_u64()?;
        }
        // The histogram-valued Stats fields live in the registry; pull them
        // back so a parsed report equals the one that was serialized.
        totals.stall_spans = StallReason::ALL
            .iter()
            .map(|r| {
                metrics.histogram(&format!("stall_span.{}", r.label())).cloned().unwrap_or_default()
            })
            .collect();
        if let Some(h) = metrics.histogram("queue_depth.broadcast") {
            totals.broadcast_depth = h.clone();
        }
        if let Some(h) = metrics.histogram("queue_depth.reduction") {
            totals.reduction_depth = h.clone();
        }
        // absent in pre-PR-5 reports; default to "not lossy"
        let trace_dropped = v.get("trace_dropped").and_then(Json::as_u64).unwrap_or(0);
        let trace_errors = v.get("trace_errors").and_then(Json::as_u64).unwrap_or(0);
        Some(RunReport { machine, totals, metrics, trace_dropped, trace_errors })
    }

    /// Render a human-readable summary (the `mtasc stats` view).
    pub fn to_text(&self) -> String {
        let m = &self.machine;
        let s = &self.totals;
        let mut out = format!(
            "machine: {} PEs, {} threads, {}-ary broadcast (b={}, r={}), {}-bit, {}, simd {}, \
             {} segment{}\n",
            m.pes,
            m.threads,
            m.arity,
            m.b,
            m.r,
            m.width_bits,
            m.sched,
            m.simd,
            m.segments,
            if m.segments == 1 { "" } else { "s" }
        );
        out.push_str(&s.report());
        let mut ranked: Vec<(StallReason, u64)> = StallReason::ALL
            .iter()
            .map(|&r| (r, s.stalls_for(r)))
            .filter(|&(_, n)| n > 0)
            .collect();
        ranked.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        if !ranked.is_empty() {
            out.push_str("top stall reasons:\n");
            for (reason, n) in ranked.iter().take(5) {
                let pct = if s.cycles == 0 { 0.0 } else { 100.0 * *n as f64 / s.cycles as f64 };
                let spans = s.stall_spans.get(reason.index());
                let mean = spans.map_or(0.0, |h| h.mean());
                out.push_str(&format!(
                    "  {:<26} {:>8} cycles ({pct:>5.1}%), mean span {mean:.1}\n",
                    reason.label(),
                    n
                ));
            }
        }
        let histo = |out: &mut String, name: &str, title: &str| {
            if let Some(h) = self.metrics.histogram(name) {
                if h.count() > 0 {
                    out.push_str(&format!(
                        "{title}: {} samples, mean {:.2}, max {}\n",
                        h.count(),
                        h.mean(),
                        h.max()
                    ));
                }
            }
        };
        histo(&mut out, "queue_depth.broadcast", "broadcast queue depth");
        histo(&mut out, "queue_depth.reduction", "reduction queue depth");
        let utils: Vec<String> = self
            .metrics
            .iter()
            .filter_map(|(n, v)| match v {
                MetricValue::Gauge(g) => {
                    n.strip_prefix("util.thread.").map(|t| format!("t{t} {:.0}%", 100.0 * g))
                }
                _ => None,
            })
            .collect();
        if !utils.is_empty() {
            out.push_str(&format!("issue-slot utilization: {}\n", utils.join(", ")));
        }
        if self.trace_dropped > 0 || self.trace_errors > 0 {
            out.push_str(&format!(
                "warning: trace is lossy ({} events dropped, {} write errors)\n",
                self.trace_dropped, self.trace_errors
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;

    const PROGRAM: &str = "
        li    s2, 5
        li    s3, 0
        pidx  p1
loop:   paddi p1, p1, 1
        rsum  s1, p1
        addi  s3, s3, 1
        ceq   f1, s3, s2
        bf    f1, loop
        halt
    ";

    fn run_machine() -> Machine {
        let (m, _) = crate::run_source(MachineConfig::new(16), PROGRAM, 100_000).expect("run");
        m
    }

    #[test]
    fn report_round_trips_and_matches_stats() {
        let m = run_machine();
        let report = RunReport::from_machine(&m);
        assert_eq!(&report.totals, m.stats(), "totals are the legacy Stats verbatim");
        let json = report.to_json().to_pretty();
        let back = RunReport::parse(&json).expect("parse");
        assert_eq!(back, report, "serialize → parse is lossless");
        assert_eq!(back.totals.issued, m.stats().issued);
        assert_eq!(back.metrics.counter("cycles"), m.stats().cycles);
    }

    #[test]
    fn machine_meta_is_captured() {
        let m = run_machine();
        let report = RunReport::from_machine(&m);
        assert_eq!(report.machine.pes, 16);
        assert_eq!(report.machine.b, 2);
        assert_eq!(report.machine.r, 4);
        assert_eq!(report.machine.sched, "fine-grain");
        assert!(
            ["scalar", "avx2", "avx512"].contains(&report.machine.simd.as_str()),
            "{}",
            report.machine.simd
        );
        assert!(report.machine.segments >= 1);
        assert_eq!(report.machine.par_threshold, 4096);
        // pre-SIMD / pre-segmentation reports carry no `simd`, `segments`
        // or `par_threshold` keys; they all ran scalar and monolithic
        let mut v = report.to_json();
        if let Json::Obj(entries) = &mut v {
            for (k, val) in entries.iter_mut() {
                if k == "machine" {
                    if let Json::Obj(machine) = val {
                        machine.retain(|(k, _)| {
                            k != "simd" && k != "segments" && k != "par_threshold"
                        });
                    }
                }
            }
        }
        let old = RunReport::from_json(&v).expect("schema-compatible");
        assert_eq!(old.machine.simd, "scalar");
        assert_eq!(old.machine.segments, 1);
        assert_eq!(old.machine.par_threshold, 0);
    }

    #[test]
    fn stage_occupancy_is_analytic() {
        let m = run_machine();
        let report = RunReport::from_machine(&m);
        let s = m.stats();
        // Every class's pipeline contains EX... except reduction (SR B.. PR R.. WB),
        // so EX occupancy is scalar + parallel issues.
        assert_eq!(
            report.metrics.counter("occupancy.stage.EX"),
            s.issued_by_class[0] + s.issued_by_class[1]
        );
        // All classes pass through SR and WB.
        assert_eq!(report.metrics.counter("occupancy.stage.SR"), s.issued);
        assert_eq!(report.metrics.counter("occupancy.stage.WB"), s.issued);
        let util = report.metrics.gauge("occupancy.util.SR").unwrap();
        assert!((util - s.issued as f64 / s.cycles as f64).abs() < 1e-12);
    }

    #[test]
    fn text_summary_mentions_top_stalls() {
        let m = run_machine();
        let text = RunReport::from_machine(&m).to_text();
        assert!(text.starts_with("machine: 16 PEs"));
        assert!(text.contains("top stall reasons:"));
        assert!(text.contains("issue-slot utilization:"));
    }

    #[test]
    fn trace_lossiness_is_surfaced() {
        use crate::obs::{RingBufferSink, SinkHandle};
        let program = asc_asm::assemble(PROGRAM).unwrap();
        let mut m = Machine::with_program(MachineConfig::new(16), &program).unwrap();
        m.attach_sink(SinkHandle::new(RingBufferSink::new(1)));
        m.run(100_000).unwrap();
        let report = RunReport::from_machine(&m);
        assert!(report.trace_dropped > 0, "1-slot ring must have dropped events");
        assert_eq!(report.trace_errors, 0);
        assert!(report.to_text().contains("warning: trace is lossy"));
        // the lossiness fields survive the JSON round trip
        let back = RunReport::parse(&report.to_json().to_pretty()).unwrap();
        assert_eq!(back.trace_dropped, report.trace_dropped);
        // pre-PR reports without the fields still parse (default 0)
        let mut v = report.to_json();
        if let Json::Obj(entries) = &mut v {
            entries.retain(|(k, _)| k != "trace_dropped" && k != "trace_errors");
        }
        let old = RunReport::from_json(&v).expect("schema-compatible");
        assert_eq!((old.trace_dropped, old.trace_errors), (0, 0));
    }

    #[test]
    fn schema_mismatch_rejected() {
        let m = run_machine();
        let mut v = RunReport::from_machine(&m).to_json();
        if let Json::Obj(entries) = &mut v {
            entries[0].1 = Json::str("mtasc.run_report.v999");
        }
        assert!(RunReport::from_json(&v).is_none());
        assert!(RunReport::parse("{}").is_err());
    }
}
