//! Text renderers for the paper's figures, generated from the live machine
//! configuration (not hard-coded):
//!
//! * [`pipeline_organization`] — Figure 1, the split pipeline;
//! * [`hazard_diagram`] — Figure 2, stage-by-cycle grids of real issue
//!   traces, with stalls shown by repeating the ID stage;
//! * [`control_unit_organization`] — Figure 3, the control unit's
//!   components.

use crate::config::MachineConfig;
use crate::obs::event::disasm_word;
use crate::obs::TraceEvent;
use crate::timing::Timing;

/// Figure 1: the pipeline organization for the given timing (B/R stage
/// counts come from the machine geometry).
pub fn pipeline_organization(t: &Timing) -> String {
    let b: Vec<String> = (1..=t.b).map(|k| format!("B{k}")).collect();
    let r: Vec<String> = (1..=t.r).map(|k| format!("R{k}")).collect();
    let bpath = b.join(" -> ");
    let rpath = r.join(" -> ");
    let mut s = String::new();
    s.push_str("                 +-> EX -> MA -> WB                      (scalar)\n");
    s.push_str("IF -> ID -> SR --+\n");
    s.push_str(&format!("                 +-> {bpath} -> PR --+-> EX -> MA -> WB  (parallel)\n"));
    let pad = " ".repeat(21 + bpath.len() + 9);
    s.push_str(&format!("{pad}+-> {rpath} -> WB  (reduction)\n"));
    s
}

/// Figure 2: a stage-by-cycle diagram of an actual trace (rows = the
/// [`TraceEvent::Issue`] events in order, columns = cycles; every other
/// event is ignored). Instruction fetch is rendered one per cycle in
/// program order; a stalled instruction repeats its ID stage until issue,
/// exactly as the paper draws it.
pub fn hazard_diagram(events: &[TraceEvent], t: &Timing) -> String {
    let issues: Vec<_> = events
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::Issue { cycle, class, word, .. } => Some((cycle, class, word)),
            _ => None,
        })
        .collect();
    let Some(&(first_issue, _, _)) = issues.first() else {
        // an empty diagram is confusing downstream (the CLI would print a
        // heading followed by nothing) — say what happened instead
        return "(no issues recorded)\n".to_string();
    };
    // render origin: two pipeline slots before the first issue; fetch is
    // in program order, so issue k is fetched at origin + k
    let origin = first_issue as i64 - 2;

    struct Row {
        label: String,
        /// (cycle, stage) pairs
        cells: Vec<(i64, String)>,
    }

    let mut rows = Vec::new();
    let mut max_cycle = 0i64;
    for (k, &(cycle, class, word)) in issues.iter().enumerate() {
        let fetch = origin + k as i64;
        let issue = cycle as i64;
        let mut cells = vec![(fetch, "IF".to_string())];
        // ID from fetch+1 up to issue-1 (repeats while stalled)
        for c in (fetch + 1)..issue {
            cells.push((c, "ID".to_string()));
        }
        for (off, name) in t.stage_names(class).into_iter().enumerate() {
            cells.push((issue + off as i64, name));
        }
        max_cycle = max_cycle.max(cells.last().map(|(c, _)| *c).unwrap_or(0));
        rows.push(Row { label: disasm_word(word), cells });
    }

    let label_w = rows.iter().map(|r| r.label.len()).max().unwrap_or(0).max(12);
    let ncols = (max_cycle - origin + 1) as usize;
    let mut out = String::new();
    // header
    out.push_str(&format!("{:label_w$} |", "cycle"));
    for c in 0..ncols {
        out.push_str(&format!(" {:>3}", c + 1));
    }
    out.push('\n');
    out.push_str(&format!("{}-+{}\n", "-".repeat(label_w), "-".repeat(4 * ncols)));
    for row in rows {
        out.push_str(&format!("{:label_w$} |", row.label));
        let mut grid = vec!["   ".to_string(); ncols];
        for (c, name) in row.cells {
            let idx = (c - origin) as usize;
            if idx < ncols {
                grid[idx] = format!("{name:>3}");
            }
        }
        for cell in grid {
            out.push(' ');
            out.push_str(&cell);
        }
        out.push('\n');
    }
    out
}

/// Figure 3: the control unit organization for a configuration.
pub fn control_unit_organization(cfg: &MachineConfig) -> String {
    let t = cfg.threads;
    format!(
        "+--------------------------- control unit ---------------------------+\n\
         |  fetch unit --- instruction cache/memory ({} words)                  \n\
         |    |                                                                 \n\
         |  thread status table ({t} threads: PC, state, instruction buffer)     \n\
         |    |                                                                 \n\
         |  decode units (x{t}, one per hardware thread)                         \n\
         |    |                                                                 \n\
         |  scheduler (rotating priority) --- instruction status table          \n\
         |    |                        \\                                        \n\
         |  scalar datapath            +--> broadcast network ({}-ary, {} stage{})\n\
         |  (EX/MA/WB, branches,       +<-- reduction networks ({} stage{})      \n\
         |   fork/join)                                                         \n\
         +---------------------------------------------------------------------+\n",
        cfg.imem_words,
        cfg.broadcast_arity,
        cfg.timing().b,
        if cfg.timing().b == 1 { "" } else { "s" },
        cfg.timing().r,
        if cfg.timing().r == 1 { "" } else { "s" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::StallReason;
    use asc_isa::InstrClass;
    use asc_pe::{DividerConfig, MultiplierKind};

    fn t() -> Timing {
        Timing {
            b: 2,
            r: 4,
            multiplier: MultiplierKind::None,
            divider: DividerConfig::None,
            forwarding: true,
        }
    }

    #[test]
    fn empty_trace_yields_placeholder() {
        assert_eq!(hazard_diagram(&[], &t()), "(no issues recorded)\n");
        // events other than issues draw no rows
        let stall = TraceEvent::Stall { cycle: 0, reason: StallReason::NoThread, cycles: 3 };
        assert_eq!(hazard_diagram(&[stall], &t()), "(no issues recorded)\n");
    }

    #[test]
    fn rows_come_from_issue_events() {
        let halt = asc_isa::encode(&asc_isa::Instr::Halt);
        let issue = |cycle, word| TraceEvent::Issue {
            cycle,
            thread: 0,
            pc: 0,
            class: InstrClass::Scalar,
            word,
        };
        let retire = TraceEvent::Retire { cycle: 9, thread: 0, pc: 0, class: InstrClass::Scalar };
        let d = hazard_diagram(&[issue(2, halt), retire, issue(5, u32::MAX)], &t());
        let rows: Vec<&str> = d.lines().skip(2).collect();
        assert_eq!(rows.len(), 2, "{d}");
        assert!(rows[0].starts_with("halt ") && rows[0].contains("SR  EX  MA  WB"), "{d}");
        // an undecodable word keeps its row, labelled with the raw word,
        // and stalls in ID until its issue cycle
        assert!(rows[1].starts_with("word 0xffffffff"), "{d}");
        assert_eq!(rows[1].matches(" ID").count(), 3, "{d}");
    }

    #[test]
    fn figure1_lists_all_stages() {
        let s = pipeline_organization(&t());
        for stage in ["IF", "ID", "SR", "B1", "B2", "PR", "EX", "MA", "WB", "R1", "R4"] {
            assert!(s.contains(stage), "missing {stage} in:\n{s}");
        }
        assert!(s.contains("(scalar)"));
        assert!(s.contains("(reduction)"));
    }

    #[test]
    fn figure3_mentions_components() {
        let s = control_unit_organization(&crate::config::MachineConfig::prototype());
        for part in [
            "fetch unit",
            "thread status table",
            "decode units (x16",
            "scheduler (rotating priority)",
            "instruction status table",
            "scalar datapath",
        ] {
            assert!(s.contains(part), "missing {part} in:\n{s}");
        }
    }
}
