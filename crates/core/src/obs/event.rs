//! The trace-event vocabulary: everything the simulator can tell a
//! [`TraceSink`](super::TraceSink), one typed record per occurrence.
//!
//! Events serialize to flat JSON objects (one per line in a JSON-Lines
//! trace) with a `"ev"` discriminator; [`TraceEvent::to_json`] and
//! [`TraceEvent::from_json`] round-trip exactly. Instructions are carried
//! as their encoded machine word (`asc_isa::encode`), which is compact and
//! lossless; decode with `asc_isa::decode` to inspect.

use asc_isa::InstrClass;
use asc_network::NetUnit;

use super::json::Json;
use crate::stats::StallReason;

/// A change of thread run state visible in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadTransition {
    /// Context allocated by `tspawn`.
    Spawned,
    /// Context released by `texit`.
    Exited,
    /// Blocked in `tjoin` on the named thread.
    JoinWait {
        /// The thread being joined.
        target: usize,
    },
    /// Woken because the joined thread released its context.
    Woken,
}

impl ThreadTransition {
    pub(crate) const fn label(self) -> &'static str {
        match self {
            ThreadTransition::Spawned => "spawned",
            ThreadTransition::Exited => "exited",
            ThreadTransition::JoinWait { .. } => "join_wait",
            ThreadTransition::Woken => "woken",
        }
    }
}

/// One of the sequential (non-pipelined) multiplier/divider units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqUnit {
    /// The scalar side's multiplier.
    ScalarMul,
    /// The scalar side's divider.
    ScalarDiv,
    /// The PE array's multiplier.
    ParallelMul,
    /// The PE array's divider.
    ParallelDiv,
}

impl SeqUnit {
    /// Stable machine-readable name.
    pub const fn label(self) -> &'static str {
        match self {
            SeqUnit::ScalarMul => "scalar_mul",
            SeqUnit::ScalarDiv => "scalar_div",
            SeqUnit::ParallelMul => "parallel_mul",
            SeqUnit::ParallelDiv => "parallel_div",
        }
    }

    fn from_label(s: &str) -> Option<SeqUnit> {
        [SeqUnit::ScalarMul, SeqUnit::ScalarDiv, SeqUnit::ParallelMul, SeqUnit::ParallelDiv]
            .into_iter()
            .find(|u| u.label() == s)
    }
}

/// One observed occurrence in a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// An instruction issued (entered SR).
    Issue {
        /// Issue cycle.
        cycle: u64,
        /// Issuing thread.
        thread: usize,
        /// Instruction address.
        pc: u32,
        /// Pipeline class.
        class: InstrClass,
        /// Encoded instruction word (`asc_isa::decode` recovers it).
        word: u32,
    },
    /// An instruction will leave the pipeline (its WB stage). The
    /// simulator resolves retirement at issue, so this event is emitted
    /// together with [`TraceEvent::Issue`] carrying the *future* WB cycle.
    Retire {
        /// WB cycle.
        cycle: u64,
        /// Thread that issued the instruction.
        thread: usize,
        /// Instruction address.
        pc: u32,
        /// Pipeline class.
        class: InstrClass,
    },
    /// The issue slot went empty; one event per stall *span* (the
    /// simulator fast-forwards long waits).
    Stall {
        /// First stalled cycle.
        cycle: u64,
        /// Attributed reason (highest-priority blocked thread).
        reason: StallReason,
        /// Length of the span in cycles (≥ 1).
        cycles: u64,
    },
    /// A broadcast/reduction network operation entered its tree.
    NetOp {
        /// Cycle the operation entered the unit.
        cycle: u64,
        /// Issuing thread.
        thread: usize,
        /// Which unit.
        unit: NetUnit,
        /// Tree traversal latency in cycles; the operation completes at
        /// `cycle + latency`.
        latency: u64,
    },
    /// A thread changed run state.
    Thread {
        /// Cycle of the transition.
        cycle: u64,
        /// The thread whose state changed.
        thread: usize,
        /// What happened.
        transition: ThreadTransition,
    },
    /// A sequential multiplier/divider was claimed (structural-hazard
    /// busy span).
    UnitBusy {
        /// Cycle the unit starts executing.
        cycle: u64,
        /// Claiming thread.
        thread: usize,
        /// Which unit.
        unit: SeqUnit,
        /// The unit is busy through `cycle + busy_for - 1`.
        busy_for: u64,
    },
}

fn class_from_label(s: &str) -> Option<InstrClass> {
    InstrClass::ALL.into_iter().find(|c| c.label() == s)
}

/// The disassembly of a [`TraceEvent::Issue`] event's `word` (the raw
/// word if it does not decode, e.g. in a hand-edited trace file).
pub(crate) fn disasm_word(word: u32) -> String {
    match asc_isa::decode(word) {
        Ok(i) => asc_asm::disassemble(&i),
        Err(_) => format!("word {word:#010x}"),
    }
}

fn stall_from_label(s: &str) -> Option<StallReason> {
    StallReason::ALL.into_iter().find(|r| r.label() == s)
}

impl TraceEvent {
    /// The event's discriminator, as serialized in the `"ev"` field.
    pub const fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Issue { .. } => "issue",
            TraceEvent::Retire { .. } => "retire",
            TraceEvent::Stall { .. } => "stall",
            TraceEvent::NetOp { .. } => "net_op",
            TraceEvent::Thread { .. } => "thread",
            TraceEvent::UnitBusy { .. } => "unit_busy",
        }
    }

    /// The cycle the event is stamped with.
    pub const fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Issue { cycle, .. }
            | TraceEvent::Retire { cycle, .. }
            | TraceEvent::Stall { cycle, .. }
            | TraceEvent::NetOp { cycle, .. }
            | TraceEvent::Thread { cycle, .. }
            | TraceEvent::UnitBusy { cycle, .. } => cycle,
        }
    }

    /// Serialize as a flat JSON object.
    pub fn to_json(&self) -> Json {
        let mut o: Vec<(String, Json)> =
            vec![("ev".into(), Json::str(self.kind())), ("cycle".into(), Json::U64(self.cycle()))];
        match *self {
            TraceEvent::Issue { thread, pc, class, word, .. } => {
                o.push(("thread".into(), Json::U64(thread as u64)));
                o.push(("pc".into(), Json::U64(pc as u64)));
                o.push(("class".into(), Json::str(class.label())));
                o.push(("word".into(), Json::U64(word as u64)));
            }
            TraceEvent::Retire { thread, pc, class, .. } => {
                o.push(("thread".into(), Json::U64(thread as u64)));
                o.push(("pc".into(), Json::U64(pc as u64)));
                o.push(("class".into(), Json::str(class.label())));
            }
            TraceEvent::Stall { reason, cycles, .. } => {
                o.push(("reason".into(), Json::str(reason.label())));
                o.push(("cycles".into(), Json::U64(cycles)));
            }
            TraceEvent::NetOp { thread, unit, latency, .. } => {
                o.push(("thread".into(), Json::U64(thread as u64)));
                o.push(("unit".into(), Json::str(unit.label())));
                o.push(("latency".into(), Json::U64(latency)));
            }
            TraceEvent::Thread { thread, transition, .. } => {
                o.push(("thread".into(), Json::U64(thread as u64)));
                o.push(("transition".into(), Json::str(transition.label())));
                if let ThreadTransition::JoinWait { target } = transition {
                    o.push(("target".into(), Json::U64(target as u64)));
                }
            }
            TraceEvent::UnitBusy { thread, unit, busy_for, .. } => {
                o.push(("thread".into(), Json::U64(thread as u64)));
                o.push(("unit".into(), Json::str(unit.label())));
                o.push(("busy_for".into(), Json::U64(busy_for)));
            }
        }
        Json::Obj(o)
    }

    /// Deserialize from the object produced by [`TraceEvent::to_json`].
    pub fn from_json(v: &Json) -> Option<TraceEvent> {
        let cycle = v.get("cycle")?.as_u64()?;
        let thread = || v.get("thread")?.as_u64().map(|t| t as usize);
        let class = || class_from_label(v.get("class")?.as_str()?);
        match v.get("ev")?.as_str()? {
            "issue" => Some(TraceEvent::Issue {
                cycle,
                thread: thread()?,
                pc: v.get("pc")?.as_u64()? as u32,
                class: class()?,
                word: v.get("word")?.as_u64()? as u32,
            }),
            "retire" => Some(TraceEvent::Retire {
                cycle,
                thread: thread()?,
                pc: v.get("pc")?.as_u64()? as u32,
                class: class()?,
            }),
            "stall" => Some(TraceEvent::Stall {
                cycle,
                reason: stall_from_label(v.get("reason")?.as_str()?)?,
                cycles: v.get("cycles")?.as_u64()?,
            }),
            "net_op" => Some(TraceEvent::NetOp {
                cycle,
                thread: thread()?,
                unit: NetUnit::from_label(v.get("unit")?.as_str()?)?,
                latency: v.get("latency")?.as_u64()?,
            }),
            "thread" => {
                let transition = match v.get("transition")?.as_str()? {
                    "spawned" => ThreadTransition::Spawned,
                    "exited" => ThreadTransition::Exited,
                    "woken" => ThreadTransition::Woken,
                    "join_wait" => {
                        ThreadTransition::JoinWait { target: v.get("target")?.as_u64()? as usize }
                    }
                    _ => return None,
                };
                Some(TraceEvent::Thread { cycle, thread: thread()?, transition })
            }
            "unit_busy" => Some(TraceEvent::UnitBusy {
                cycle,
                thread: thread()?,
                unit: SeqUnit::from_label(v.get("unit")?.as_str()?)?,
                busy_for: v.get("busy_for")?.as_u64()?,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One sample of every variant (used by the round-trip tests here and
    /// in `trace.rs`).
    pub(crate) fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Issue {
                cycle: 3,
                thread: 1,
                pc: 7,
                class: InstrClass::Parallel,
                word: 0xdead_beef,
            },
            TraceEvent::Retire { cycle: 9, thread: 1, pc: 7, class: InstrClass::Reduction },
            TraceEvent::Stall { cycle: 4, reason: StallReason::ReductionHazard, cycles: 6 },
            TraceEvent::NetOp { cycle: 5, thread: 0, unit: NetUnit::Sum, latency: 4 },
            TraceEvent::Thread { cycle: 6, thread: 2, transition: ThreadTransition::Spawned },
            TraceEvent::Thread {
                cycle: 7,
                thread: 0,
                transition: ThreadTransition::JoinWait { target: 2 },
            },
            TraceEvent::Thread { cycle: 8, thread: 2, transition: ThreadTransition::Exited },
            TraceEvent::Thread { cycle: 8, thread: 0, transition: ThreadTransition::Woken },
            TraceEvent::UnitBusy { cycle: 10, thread: 3, unit: SeqUnit::ParallelDiv, busy_for: 18 },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_json() {
        for ev in samples() {
            let json = ev.to_json();
            let text = json.to_compact();
            let parsed = Json::parse(&text).unwrap();
            assert_eq!(TraceEvent::from_json(&parsed), Some(ev), "{text}");
        }
    }

    #[test]
    fn kind_and_cycle_accessors() {
        let ev = TraceEvent::Stall { cycle: 11, reason: StallReason::DataHazard, cycles: 2 };
        assert_eq!(ev.kind(), "stall");
        assert_eq!(ev.cycle(), 11);
        assert_eq!(ev.to_json().get("ev").unwrap().as_str(), Some("stall"));
    }

    #[test]
    fn from_json_rejects_malformed_events() {
        for bad in [
            r#"{"cycle":1}"#,
            r#"{"ev":"issue","cycle":1}"#,
            r#"{"ev":"stall","cycle":1,"reason":"sunspots","cycles":2}"#,
            r#"{"ev":"warp","cycle":1}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert_eq!(TraceEvent::from_json(&v), None, "{bad}");
        }
    }
}
