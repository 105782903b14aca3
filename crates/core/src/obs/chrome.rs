//! Chrome `trace_event` / Perfetto export of a [`TraceEvent`] stream.
//!
//! [`chrome_trace`] converts a recorded event stream into the JSON object
//! format that `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)
//! load directly: per-thread tracks of issued instructions (one 1-cycle
//! slice each, disassembled), per-stage pipeline tracks (each issue also
//! paints its B1..Bb/PR/EX/R1..Rr/WB stages at their scheduled cycles),
//! the stall track, sequential-unit busy spans, thread-lifecycle instants,
//! and network in-flight counters derived from [`TraceEvent::NetOp`]
//! start/latency pairs. One simulated cycle is rendered as one
//! microsecond.
//!
//! The output is deterministic — object keys and event order depend only
//! on the input stream — so golden-file tests diff cleanly;
//! [`chrome_trace_text`] renders it one event per line for reviewable
//! fixtures.

use std::collections::BTreeMap;

use asc_isa::InstrClass;
use asc_network::NetUnit;

use super::event::{disasm_word, TraceEvent};
use super::json::Json;
use crate::timing::Timing;

/// Track (Chrome `tid`) layout. Threads occupy 0..N; the constants below
/// leave room for any realistic thread count.
const TID_STALLS: u64 = 90;
const TID_STAGES: u64 = 100; // + class.index() * 32 + stage_index
const TID_UNITS: u64 = 200; // + SeqUnit order of appearance
const TID_COUNTERS: u64 = 300; // + NetUnit::index()

/// A complete-slice (`ph:"X"`) event. Field order is part of the golden
/// contract: name, ph, ts, dur, pid, tid, args.
fn slice(name: &str, ts: u64, dur: u64, tid: u64, args: Vec<(String, Json)>) -> Json {
    let mut o = vec![
        ("name".into(), Json::str(name)),
        ("ph".into(), Json::str("X")),
        ("ts".into(), Json::U64(ts)),
        ("dur".into(), Json::U64(dur.max(1))),
        ("pid".into(), Json::U64(0)),
        ("tid".into(), Json::U64(tid)),
    ];
    if !args.is_empty() {
        o.push(("args".into(), Json::Obj(args)));
    }
    Json::Obj(o)
}

/// An instant (`ph:"i"`) event on a thread track.
fn instant(name: &str, ts: u64, tid: u64) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::str(name)),
        ("ph".into(), Json::str("i")),
        ("ts".into(), Json::U64(ts)),
        ("pid".into(), Json::U64(0)),
        ("tid".into(), Json::U64(tid)),
        ("s".into(), Json::str("t")),
    ])
}

/// A counter (`ph:"C"`) sample.
fn counter(name: &str, ts: u64, tid: u64, series: &str, value: u64) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::str(name)),
        ("ph".into(), Json::str("C")),
        ("ts".into(), Json::U64(ts)),
        ("pid".into(), Json::U64(0)),
        ("tid".into(), Json::U64(tid)),
        ("args".into(), Json::Obj(vec![(series.into(), Json::U64(value))])),
    ])
}

/// Metadata (`ph:"M"`) naming a track and pinning its sort order.
fn track_meta(tid: u64, name: &str, sort: u64, out: &mut Vec<Json>) {
    out.push(Json::Obj(vec![
        ("name".into(), Json::str("thread_name")),
        ("ph".into(), Json::str("M")),
        ("pid".into(), Json::U64(0)),
        ("tid".into(), Json::U64(tid)),
        ("args".into(), Json::Obj(vec![("name".into(), Json::str(name))])),
    ]));
    out.push(Json::Obj(vec![
        ("name".into(), Json::str("thread_sort_index")),
        ("ph".into(), Json::str("M")),
        ("pid".into(), Json::U64(0)),
        ("tid".into(), Json::U64(tid)),
        ("args".into(), Json::Obj(vec![("sort_index".into(), Json::U64(sort))])),
    ]));
}

/// Convert an event stream into a Chrome `trace_event` JSON document
/// (`{"traceEvents": [...]}`), rendering per-thread instruction tracks,
/// per-stage pipeline slices (scheduled with `timing`), the stall track,
/// sequential-unit busy spans, and per-unit network in-flight counters.
/// 1 cycle = 1 µs. Load the output in `chrome://tracing` or Perfetto.
pub fn chrome_trace(events: &[TraceEvent], timing: &Timing) -> Json {
    let mut out: Vec<Json> = Vec::new();

    // ------------------------------------------------------ metadata (M)
    out.push(Json::Obj(vec![
        ("name".into(), Json::str("process_name")),
        ("ph".into(), Json::str("M")),
        ("pid".into(), Json::U64(0)),
        ("args".into(), Json::Obj(vec![("name".into(), Json::str("mtasc"))])),
    ]));
    let max_thread = events
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::Issue { thread, .. }
            | TraceEvent::Retire { thread, .. }
            | TraceEvent::NetOp { thread, .. }
            | TraceEvent::Thread { thread, .. }
            | TraceEvent::UnitBusy { thread, .. } => Some(thread as u64),
            TraceEvent::Stall { .. } => None,
        })
        .max();
    if let Some(max_thread) = max_thread {
        for t in 0..=max_thread {
            track_meta(t, &format!("thread {t}"), t, &mut out);
        }
    }
    if events.iter().any(|ev| matches!(ev, TraceEvent::Stall { .. })) {
        track_meta(TID_STALLS, "stalls", TID_STALLS, &mut out);
    }
    // pipeline-stage tracks, in class-then-stage order, only those used
    let mut classes_seen = [false; 3];
    for ev in events {
        if let TraceEvent::Issue { class, .. } = ev {
            classes_seen[class.index()] = true;
        }
    }
    for class in InstrClass::ALL {
        if !classes_seen[class.index()] {
            continue;
        }
        for (j, stage) in timing.stage_names(class).iter().enumerate() {
            let tid = TID_STAGES + class.index() as u64 * 32 + j as u64;
            track_meta(tid, &format!("{}.{}", class.label(), stage), tid, &mut out);
        }
    }
    // sequential-unit tracks, in order of first appearance
    let mut seq_units: Vec<&'static str> = Vec::new();
    for ev in events {
        if let TraceEvent::UnitBusy { unit, .. } = ev {
            if !seq_units.contains(&unit.label()) {
                seq_units.push(unit.label());
            }
        }
    }
    for (k, label) in seq_units.iter().enumerate() {
        track_meta(TID_UNITS + k as u64, label, TID_UNITS + k as u64, &mut out);
    }
    // network counter tracks, in NetUnit order
    let mut net_used = [false; NetUnit::ALL.len()];
    for ev in events {
        if let TraceEvent::NetOp { unit, .. } = ev {
            net_used[unit.index()] = true;
        }
    }
    for unit in NetUnit::ALL {
        if net_used[unit.index()] {
            let tid = TID_COUNTERS + unit.index() as u64;
            track_meta(tid, &format!("inflight.{}", unit.label()), tid, &mut out);
        }
    }

    // ------------------------------------------------------- slice events
    for ev in events {
        match *ev {
            TraceEvent::Issue { cycle, thread, pc, class, word } => {
                out.push(slice(
                    &disasm_word(word),
                    cycle,
                    1,
                    thread as u64,
                    vec![
                        ("pc".into(), Json::U64(pc as u64)),
                        ("class".into(), Json::str(class.label())),
                    ],
                ));
                // paint the instruction's pipeline stages: stage j of the
                // class schedule executes at issue + j (Figure 1)
                for (j, stage) in timing.stage_names(class).iter().enumerate() {
                    let tid = TID_STAGES + class.index() as u64 * 32 + j as u64;
                    out.push(slice(
                        stage,
                        cycle + j as u64,
                        1,
                        tid,
                        vec![
                            ("thread".into(), Json::U64(thread as u64)),
                            ("pc".into(), Json::U64(pc as u64)),
                        ],
                    ));
                }
            }
            // retirement is already visible as the WB stage slice
            TraceEvent::Retire { .. } => {}
            TraceEvent::Stall { cycle, reason, cycles } => {
                out.push(slice(reason.label(), cycle, cycles, TID_STALLS, Vec::new()));
            }
            TraceEvent::NetOp { .. } => {} // rendered as counters below
            TraceEvent::Thread { cycle, thread, transition } => {
                out.push(instant(transition.label(), cycle, thread as u64));
            }
            TraceEvent::UnitBusy { cycle, thread, unit, busy_for } => {
                let k = seq_units.iter().position(|&l| l == unit.label()).unwrap() as u64;
                out.push(slice(
                    unit.label(),
                    cycle,
                    busy_for,
                    TID_UNITS + k,
                    vec![("thread".into(), Json::U64(thread as u64))],
                ));
            }
        }
    }

    // --------------------------------------- network in-flight counters
    // Each NetOp occupies its tree for [cycle, cycle + latency); integrate
    // +1/-1 deltas into a step function sampled at every change point.
    for unit in NetUnit::ALL {
        if !net_used[unit.index()] {
            continue;
        }
        let mut deltas: BTreeMap<u64, i64> = BTreeMap::new();
        for ev in events {
            if let TraceEvent::NetOp { cycle, unit: u, latency, .. } = *ev {
                if u == unit {
                    *deltas.entry(cycle).or_insert(0) += 1;
                    *deltas.entry(cycle + latency.max(1)).or_insert(0) -= 1;
                }
            }
        }
        let name = format!("inflight.{}", unit.label());
        let tid = TID_COUNTERS + unit.index() as u64;
        let mut level: i64 = 0;
        for (cycle, delta) in deltas {
            level += delta;
            debug_assert!(level >= 0, "counter went negative");
            out.push(counter(&name, cycle, tid, "ops", level.max(0) as u64));
        }
    }

    Json::Obj(vec![("traceEvents".into(), Json::Arr(out))])
}

/// Render a [`chrome_trace`] document as JSON text with one trace event
/// per line — still valid `trace_event` JSON, but stable and reviewable
/// as a golden fixture.
pub fn chrome_trace_text(trace: &Json) -> String {
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("chrome_trace output has a traceEvents array");
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, ev) in events.iter().enumerate() {
        out.push_str(&ev.to_compact());
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{MemorySink, SinkHandle};
    use crate::{Machine, MachineConfig};
    use std::cell::RefCell;
    use std::rc::Rc;

    const PROGRAM: &str = "
        li    s2, 3
        li    s3, 0
        pidx  p1
loop:   paddi p1, p1, 1
        rsum  s1, p1
        addi  s3, s3, 1
        ceq   f1, s3, s2
        bf    f1, loop
        halt
    ";

    fn traced_run() -> (Vec<TraceEvent>, Timing) {
        let program = asc_asm::assemble(PROGRAM).unwrap();
        let mut m = Machine::with_program(MachineConfig::new(16), &program).unwrap();
        let mem = Rc::new(RefCell::new(MemorySink::new()));
        m.attach_sink(SinkHandle::shared(mem.clone()));
        m.run(100_000).unwrap();
        let timing = m.timing();
        let events = mem.borrow().events().to_vec();
        (events, timing)
    }

    /// Structural validity: what Perfetto / chrome://tracing require of
    /// the JSON object format.
    #[test]
    fn trace_is_structurally_valid_trace_event_json() {
        let (events, timing) = traced_run();
        let trace = chrome_trace(&events, &timing);
        let arr = trace.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!arr.is_empty());
        for ev in arr {
            let ph = ev.get("ph").unwrap().as_str().unwrap();
            assert!(matches!(ph, "M" | "X" | "i" | "C"), "unexpected phase {ph}");
            assert!(ev.get("name").unwrap().as_str().is_some());
            assert!(ev.get("pid").unwrap().as_u64().is_some());
            match ph {
                "X" => {
                    assert!(ev.get("ts").unwrap().as_u64().is_some());
                    assert!(ev.get("dur").unwrap().as_u64().unwrap() >= 1);
                    assert!(ev.get("tid").unwrap().as_u64().is_some());
                }
                "i" => {
                    assert!(ev.get("ts").unwrap().as_u64().is_some());
                    assert_eq!(ev.get("s").unwrap().as_str(), Some("t"));
                }
                "C" => {
                    assert!(ev.get("args").unwrap().get("ops").unwrap().as_u64().is_some());
                }
                _ => {}
            }
        }
        // the text rendering parses back to the same document
        let text = chrome_trace_text(&trace);
        assert_eq!(Json::parse(&text).unwrap(), trace);
    }

    #[test]
    fn issue_slices_and_stage_slices_line_up() {
        let (events, timing) = traced_run();
        let trace = chrome_trace(&events, &timing);
        let arr = trace.get("traceEvents").unwrap().as_arr().unwrap();
        // the rsum issue paints one slice on the thread track...
        let rsum = arr
            .iter()
            .find(|ev| ev.get("name").and_then(Json::as_str).is_some_and(|n| n.starts_with("rsum")))
            .expect("rsum slice on the thread track");
        let ts = rsum.get("ts").unwrap().as_u64().unwrap();
        // ...and its WB stage slice lands retire_offset cycles later on the
        // reduction WB track (stage index b + 1 + r + 1)
        let wb_tid = TID_STAGES + 2 * 32 + (timing.b + 1 + timing.r + 1);
        let wb = arr
            .iter()
            .find(|ev| {
                ev.get("tid").and_then(Json::as_u64) == Some(wb_tid)
                    && ev.get("ts").and_then(Json::as_u64) == Some(ts + timing.b + timing.r + 2)
            })
            .expect("WB stage slice at issue + b + r + 2");
        assert_eq!(wb.get("name").unwrap().as_str(), Some("WB"));
    }

    #[test]
    fn counters_rise_and_fall_back_to_zero() {
        let (events, timing) = traced_run();
        let trace = chrome_trace(&events, &timing);
        let arr = trace.get("traceEvents").unwrap().as_arr().unwrap();
        let sum_samples: Vec<u64> = arr
            .iter()
            .filter(|ev| {
                ev.get("ph").and_then(Json::as_str) == Some("C")
                    && ev.get("name").and_then(Json::as_str) == Some("inflight.sum")
            })
            .map(|ev| ev.get("args").unwrap().get("ops").unwrap().as_u64().unwrap())
            .collect();
        assert!(!sum_samples.is_empty(), "rsum produces sum-tree counters");
        assert!(sum_samples.iter().any(|&v| v > 0));
        assert_eq!(*sum_samples.last().unwrap(), 0, "all operations drain");
    }

    #[test]
    fn deterministic_output() {
        let (events, timing) = traced_run();
        let a = chrome_trace_text(&chrome_trace(&events, &timing));
        let b = chrome_trace_text(&chrome_trace(&events, &timing));
        assert_eq!(a, b);
    }
}
