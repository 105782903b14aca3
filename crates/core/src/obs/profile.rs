//! Exact cycle attribution: where every machine cycle of a run went.
//!
//! A [`Profile`] charges each cycle the scheduler consumes to a
//! `(thread, pc, reason)` triple — one cycle per instruction issue
//! (ghost issues of fused blocks included, so fused and unfused runs
//! produce identical profiles) and one per stall cycle, attributed to
//! the program counter of the highest-priority blocked thread. Stall
//! cycles with no blocked thread (`no live thread`) land in a
//! machine-level `unattributed` row, and the pipeline-drain tail (the
//! cycles between the last issue and the last writeback) is closed out
//! at end of run. The books must balance — the **conservation
//! invariant**:
//!
//! ```text
//! Σ rows(issue) + Σ rows(stalls) + Σ unattributed + drain == Stats::cycles
//! ```
//!
//! checked by [`Profile::attributed_cycles`] against
//! [`Profile::total_cycles`] (and by tests/proptests over random
//! programs).
//!
//! Attach with [`crate::Machine::attach_profiler`]. The profiler is fed
//! from the machine's one event path, which it shares with the trace
//! sink and the progress sampler: stall spans arrive with their
//! `(thread, pc, waited-on pc)` attribution as arguments, not as trace
//! events. With no profiler attached that costs a `None` check per event
//! and the issue path stays allocation-free (asserted by the
//! `obs_overhead` bench). With a profiler attached the row table is
//! pre-sized at attach/load, so the steady-state record path is
//! allocation-free too.
//!
//! Profiles serialize to `mtasc.profile.v1` JSON ([`Profile::to_json`] /
//! [`Profile::parse`], lossless round-trip), aggregate per instruction,
//! per thread, and per basic block ([`BlockMap`]), and render as the
//! `mtasc profile` hot-spot table ([`Profile::render_table`]).

use asc_isa::{DecodeError, Instr};

use super::json::{Json, JsonError};
use super::metrics::Registry;
use crate::stats::StallReason;

/// Schema tag of the profile JSON document; bump on incompatible change.
pub const PROFILE_SCHEMA: &str = "mtasc.profile.v1";

/// Number of distinct [`StallReason`]s (row array width).
const REASONS: usize = StallReason::ALL.len();

/// Sentinel "no producer known" PC for [`ProfileRow::longest_wait_pc`].
pub const NO_PRODUCER: u32 = u32::MAX;

/// Attribution totals for one `(thread, pc)` site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileRow {
    /// Cycles in which this instruction occupied the issue slot (always
    /// exactly 1 per dynamic execution, ghost issues included).
    pub issue: u64,
    /// Broadcast/reduction network operations this site started
    /// (informational — network traversal overlaps the pipeline and
    /// consumes no issue-slot cycles, so this does not enter the
    /// conservation sum).
    pub net_ops: u64,
    /// Stall cycles charged to this site while it was the
    /// highest-priority blocked instruction, by [`StallReason::index`].
    pub stalls: [u64; REASONS],
    /// Length of the longest single stall span charged here.
    pub longest_wait: u64,
    /// PC of the in-flight producer that longest span waited on
    /// ([`NO_PRODUCER`] when the wait had no register producer — e.g. a
    /// structural or join wait).
    pub longest_wait_pc: u32,
}

impl Default for ProfileRow {
    fn default() -> ProfileRow {
        ProfileRow {
            issue: 0,
            net_ops: 0,
            stalls: [0; REASONS],
            longest_wait: 0,
            longest_wait_pc: NO_PRODUCER,
        }
    }
}

impl ProfileRow {
    /// Total stall cycles charged to this site.
    pub fn stall_cycles(&self) -> u64 {
        self.stalls.iter().sum()
    }

    /// All cycles charged to this site (issue + stalls).
    pub fn cycles(&self) -> u64 {
        self.issue + self.stall_cycles()
    }

    fn is_zero(&self) -> bool {
        self.issue == 0 && self.net_ops == 0 && self.stalls.iter().all(|&n| n == 0)
    }

    fn merge(&mut self, other: &ProfileRow) {
        self.issue += other.issue;
        self.net_ops += other.net_ops;
        for (a, b) in self.stalls.iter_mut().zip(other.stalls) {
            *a += b;
        }
        if other.longest_wait > self.longest_wait {
            self.longest_wait = other.longest_wait;
            self.longest_wait_pc = other.longest_wait_pc;
        }
    }

    /// The reason with the most stall cycles, if any were charged.
    pub fn top_stall(&self) -> Option<(StallReason, u64)> {
        StallReason::ALL
            .into_iter()
            .map(|r| (r, self.stalls[r.index()]))
            .filter(|&(_, n)| n > 0)
            .max_by_key(|&(_, n)| n)
    }
}

/// The cycle-attribution table of one run. See the module docs for the
/// accounting model and the conservation invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    threads: usize,
    prog_len: usize,
    /// `threads * prog_len` rows, thread-major.
    rows: Vec<ProfileRow>,
    /// Stall cycles with no blocked thread to charge (`no live thread`,
    /// or a blocked PC outside the loaded program).
    unattributed: [u64; REASONS],
    /// Pipeline-drain cycles (last issue to last writeback), closed out
    /// when the run finishes.
    drain: u64,
    /// `Stats::cycles` of the finalized run (0 before finalize).
    cycles: u64,
}

impl Profile {
    /// An empty profile shaped for `threads` hardware threads over a
    /// `prog_len`-instruction program.
    pub fn new(threads: usize, prog_len: usize) -> Profile {
        Profile {
            threads,
            prog_len,
            rows: vec![ProfileRow::default(); threads * prog_len],
            unattributed: [0; REASONS],
            drain: 0,
            cycles: 0,
        }
    }

    /// Hardware threads the profile is shaped for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Instruction-memory length the profile is shaped for.
    pub fn prog_len(&self) -> usize {
        self.prog_len
    }

    #[inline]
    fn index(&self, thread: usize, pc: u32) -> Option<usize> {
        let pc = pc as usize;
        (thread < self.threads && pc < self.prog_len).then(|| thread * self.prog_len + pc)
    }

    /// Charge one issue-slot cycle to `(thread, pc)`.
    #[inline]
    pub(crate) fn record_issue(&mut self, thread: usize, pc: u32) {
        if let Some(i) = self.index(thread, pc) {
            self.rows[i].issue += 1;
        }
    }

    /// Count a network operation started by `(thread, pc)`.
    #[inline]
    pub(crate) fn record_net(&mut self, thread: usize, pc: u32) {
        if let Some(i) = self.index(thread, pc) {
            self.rows[i].net_ops += 1;
        }
    }

    /// Charge a contiguous span of `n` stall cycles to `(thread, pc)`;
    /// `producer_pc` names the in-flight instruction being waited on
    /// (pass [`NO_PRODUCER`] when there is none).
    #[inline]
    pub(crate) fn record_stall(
        &mut self,
        thread: usize,
        pc: u32,
        reason: StallReason,
        n: u64,
        producer_pc: u32,
    ) {
        match self.index(thread, pc) {
            Some(i) => {
                let row = &mut self.rows[i];
                row.stalls[reason.index()] += n;
                if n > row.longest_wait {
                    row.longest_wait = n;
                    row.longest_wait_pc = producer_pc;
                }
            }
            // a waiting PC past the end of the program (e.g. a trailing
            // `tjoin`) has no row; keep the books balanced
            None => self.unattributed[reason.index()] += n,
        }
    }

    /// Charge `n` stall cycles with no blocked thread to attribute.
    #[inline]
    pub(crate) fn record_unattributed(&mut self, reason: StallReason, n: u64) {
        self.unattributed[reason.index()] += n;
    }

    /// Close the books for a finished run: record the run's total cycle
    /// count and charge the remainder (pipeline drain) so the
    /// conservation invariant holds exactly. Idempotent — the drain is
    /// recomputed, not accumulated.
    pub(crate) fn finalize(&mut self, cycles: u64) {
        self.cycles = cycles;
        let live = self.live_cycles();
        debug_assert!(live <= cycles, "attributed {live} cycles of {cycles}");
        self.drain = cycles.saturating_sub(live);
    }

    /// Issue + stall cycles charged so far (everything except drain).
    fn live_cycles(&self) -> u64 {
        self.rows.iter().map(ProfileRow::cycles).sum::<u64>()
            + self.unattributed.iter().sum::<u64>()
    }

    /// Every cycle the profile accounts for. After [`Machine::run`]
    /// (which finalizes the profile) this equals [`Profile::total_cycles`]
    /// bit-exactly — the conservation invariant.
    ///
    /// [`Machine::run`]: crate::Machine::run
    pub fn attributed_cycles(&self) -> u64 {
        self.live_cycles() + self.drain
    }

    /// `Stats::cycles` of the finalized run.
    pub fn total_cycles(&self) -> u64 {
        self.cycles
    }

    /// Pipeline-drain cycles charged at finalize.
    pub fn drain_cycles(&self) -> u64 {
        self.drain
    }

    /// Stall cycles that had no blocked thread, by reason.
    pub fn unattributed_stalls(&self) -> impl Iterator<Item = (StallReason, u64)> + '_ {
        StallReason::ALL.into_iter().map(|r| (r, self.unattributed[r.index()]))
    }

    /// The attribution row of `(thread, pc)` (zero row if out of shape).
    pub fn row(&self, thread: usize, pc: u32) -> ProfileRow {
        self.index(thread, pc).map(|i| self.rows[i]).unwrap_or_default()
    }

    /// Iterate all non-zero rows as `(thread, pc, row)`.
    pub fn rows(&self) -> impl Iterator<Item = (usize, u32, &ProfileRow)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_zero())
            .map(move |(i, r)| ((i / self.prog_len.max(1)), (i % self.prog_len.max(1)) as u32, r))
    }

    /// Per-instruction aggregation: one row per PC, summed over threads.
    pub fn per_pc(&self) -> Vec<ProfileRow> {
        let mut out = vec![ProfileRow::default(); self.prog_len];
        for (_, pc, row) in self.rows() {
            out[pc as usize].merge(row);
        }
        out
    }

    /// Per-thread totals: one row per hardware thread.
    pub fn per_thread(&self) -> Vec<ProfileRow> {
        let mut out = vec![ProfileRow::default(); self.threads];
        for (t, _, row) in self.rows() {
            out[t].merge(row);
        }
        out
    }

    /// Per-basic-block aggregation over `blocks`: `(leader pc, row)`.
    pub fn per_block(&self, blocks: &BlockMap) -> Vec<(u32, ProfileRow)> {
        let mut out: Vec<(u32, ProfileRow)> =
            blocks.leaders().iter().map(|&l| (l, ProfileRow::default())).collect();
        for (_, pc, row) in self.rows() {
            if let Some(b) = blocks.block_of(pc) {
                out[b].1.merge(row);
            }
        }
        out
    }

    /// Total stall cycles per reason, over every row plus unattributed.
    pub fn stall_totals(&self) -> [u64; REASONS] {
        let mut out = self.unattributed;
        for (_, _, row) in self.rows() {
            for (a, b) in out.iter_mut().zip(row.stalls) {
                *a += b;
            }
        }
        out
    }

    /// The top-`k` stall reasons of the run, largest first, each with the
    /// single hottest `(thread, pc)` site for that reason (`None` when
    /// every cycle of the reason was unattributed).
    pub fn top_stalls(&self, k: usize) -> Vec<StallSummary> {
        let totals = self.stall_totals();
        let mut ranked: Vec<StallSummary> = StallReason::ALL
            .into_iter()
            .filter(|r| totals[r.index()] > 0)
            .map(|reason| {
                let hottest = self
                    .rows()
                    .map(|(t, pc, row)| (t, pc, row.stalls[reason.index()]))
                    .filter(|&(_, _, n)| n > 0)
                    .max_by_key(|&(_, _, n)| n)
                    .map(|(thread, pc, cycles)| HotSite { thread, pc, cycles });
                StallSummary { reason, cycles: totals[reason.index()], hottest }
            })
            .collect();
        ranked.sort_by_key(|s| std::cmp::Reverse(s.cycles));
        ranked.truncate(k);
        ranked
    }

    /// The top-`k` instructions by attributed cycles (issue + stalls),
    /// summed over threads, largest first, as `(pc, row)`.
    pub fn hot_pcs(&self, k: usize) -> Vec<(u32, ProfileRow)> {
        let mut ranked: Vec<(u32, ProfileRow)> = self
            .per_pc()
            .into_iter()
            .enumerate()
            .filter(|(_, r)| r.cycles() > 0)
            .map(|(pc, r)| (pc as u32, r))
            .collect();
        ranked.sort_by_key(|&(pc, r)| (std::cmp::Reverse(r.cycles()), pc));
        ranked.truncate(k);
        ranked
    }

    /// Flatten into named counters for [`crate::obs::diff`] — the same
    /// machinery that diffs run reports then diffs profiles.
    pub fn summary_registry(&self) -> Registry {
        let mut reg = Registry::new();
        reg.counter_add("cycles", self.cycles);
        reg.counter_add("drain_cycles", self.drain);
        let per_thread = self.per_thread();
        reg.counter_add("issued", per_thread.iter().map(|r| r.issue).sum());
        reg.counter_add("net_ops", per_thread.iter().map(|r| r.net_ops).sum());
        let totals = self.stall_totals();
        reg.counter_add("stall_cycles", totals.iter().sum());
        for reason in StallReason::ALL {
            reg.counter_add(&format!("stall.{}", reason.label()), totals[reason.index()]);
        }
        for (t, row) in per_thread.iter().enumerate() {
            reg.counter_add(&format!("issued.thread.{t}"), row.issue);
        }
        reg
    }

    // ------------------------------------------------------------- JSON

    /// Serialize as a `mtasc.profile.v1` document. Zero rows are elided;
    /// [`Profile::from_json`] reconstructs them from the shape, so the
    /// round trip is lossless.
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .rows()
            .map(|(t, pc, row)| {
                let mut o = vec![
                    ("thread".into(), Json::U64(t as u64)),
                    ("pc".into(), Json::U64(pc as u64)),
                    ("issue".into(), Json::U64(row.issue)),
                    ("net_ops".into(), Json::U64(row.net_ops)),
                    (
                        "stalls".into(),
                        Json::Obj(
                            StallReason::ALL
                                .into_iter()
                                .filter(|r| row.stalls[r.index()] > 0)
                                .map(|r| (r.label().to_string(), Json::U64(row.stalls[r.index()])))
                                .collect(),
                        ),
                    ),
                ];
                if row.longest_wait > 0 {
                    o.push(("longest_wait".into(), Json::U64(row.longest_wait)));
                    if row.longest_wait_pc != NO_PRODUCER {
                        o.push(("longest_wait_pc".into(), Json::U64(row.longest_wait_pc as u64)));
                    }
                }
                Json::Obj(o)
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::str(PROFILE_SCHEMA)),
            ("threads".into(), Json::U64(self.threads as u64)),
            ("prog_len".into(), Json::U64(self.prog_len as u64)),
            ("cycles".into(), Json::U64(self.cycles)),
            ("drain".into(), Json::U64(self.drain)),
            (
                "unattributed".into(),
                Json::Obj(
                    StallReason::ALL
                        .into_iter()
                        .filter(|r| self.unattributed[r.index()] > 0)
                        .map(|r| (r.label().to_string(), Json::U64(self.unattributed[r.index()])))
                        .collect(),
                ),
            ),
            ("rows".into(), Json::Arr(rows)),
        ])
    }

    /// Reconstruct from the value produced by [`Profile::to_json`].
    /// Returns `None` on schema mismatch or missing fields.
    pub fn from_json(v: &Json) -> Option<Profile> {
        if v.get("schema")?.as_str()? != PROFILE_SCHEMA {
            return None;
        }
        let threads = v.get("threads")?.as_u64()? as usize;
        let prog_len = v.get("prog_len")?.as_u64()? as usize;
        let mut p = Profile::new(threads, prog_len);
        p.cycles = v.get("cycles")?.as_u64()?;
        p.drain = v.get("drain")?.as_u64()?;
        let stalls_of = |o: &Json| -> Option<[u64; REASONS]> {
            let mut out = [0; REASONS];
            for (label, n) in o.as_obj()? {
                let reason = StallReason::ALL.into_iter().find(|r| r.label() == label)?;
                out[reason.index()] = n.as_u64()?;
            }
            Some(out)
        };
        p.unattributed = stalls_of(v.get("unattributed")?)?;
        for row in v.get("rows")?.as_arr()? {
            let thread = row.get("thread")?.as_u64()? as usize;
            let pc = row.get("pc")?.as_u64()? as u32;
            let i = p.index(thread, pc)?;
            p.rows[i] = ProfileRow {
                issue: row.get("issue")?.as_u64()?,
                net_ops: row.get("net_ops")?.as_u64()?,
                stalls: stalls_of(row.get("stalls")?)?,
                longest_wait: row.get("longest_wait").and_then(Json::as_u64).unwrap_or(0),
                longest_wait_pc: row
                    .get("longest_wait_pc")
                    .and_then(Json::as_u64)
                    .map_or(NO_PRODUCER, |p| p as u32),
            };
        }
        Some(p)
    }

    /// Parse a profile from JSON text.
    pub fn parse(text: &str) -> Result<Profile, JsonError> {
        let v = Json::parse(text)?;
        Profile::from_json(&v)
            .ok_or_else(|| JsonError { message: "not a mtasc profile".into(), offset: 0 })
    }

    // -------------------------------------------------------- rendering

    /// Render the `mtasc profile` hot-spot table: the conservation
    /// summary, the top-`top` instructions by attributed cycles, the
    /// hottest basic blocks, and per-thread totals. When the assembled
    /// `program` (and its `source`) are given, instructions are shown
    /// disassembled with source line excerpts via the assembler's span
    /// machinery.
    pub fn render_table(
        &self,
        program: Option<&asc_asm::Program>,
        source: Option<&str>,
        top: usize,
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let issued: u64 = self.per_thread().iter().map(|r| r.issue).sum();
        let stalls: u64 = self.stall_totals().iter().sum();
        let _ = writeln!(
            out,
            "cycles: {}  = issue {} + stall {} + drain {}  (conservation: {})",
            self.cycles,
            issued,
            stalls,
            self.drain,
            if self.attributed_cycles() == self.cycles { "exact" } else { "VIOLATED" }
        );
        let disasm = |pc: u32| -> String {
            match program.and_then(|p| p.instrs.get(pc as usize)) {
                Some(i) => asc_asm::disassemble(i),
                None => format!("pc {pc}"),
            }
        };
        let hot = self.hot_pcs(top);
        if !hot.is_empty() {
            let _ = writeln!(out, "\nhot instructions (issue + attributed stalls):");
            let _ = writeln!(
                out,
                "  {:>5} {:>8} {:>8} {:>8}  {:<28} top stall",
                "pc", "cycles", "issue", "stall", "instruction"
            );
            for (pc, row) in &hot {
                let top_stall = row
                    .top_stall()
                    .map(|(r, n)| {
                        let wait = if row.longest_wait_pc != NO_PRODUCER {
                            format!(" (longest {} on pc {})", row.longest_wait, row.longest_wait_pc)
                        } else {
                            String::new()
                        };
                        format!("{} {}{}", r.label(), n, wait)
                    })
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "  {:>5} {:>8} {:>8} {:>8}  {:<28} {}",
                    pc,
                    row.cycles(),
                    row.issue,
                    row.stall_cycles(),
                    disasm(*pc),
                    top_stall
                );
            }
            // source excerpt for the single hottest instruction
            if let (Some(p), Some(src), Some((pc, _))) = (program, source, hot.first()) {
                if let Some(span) = p.spans.get(*pc as usize) {
                    if let Some(line_text) = src.lines().nth(span.line as usize - 1) {
                        out.push_str("\nhottest site:\n");
                        out.push_str(&asc_asm::source_excerpt(
                            line_text, span.line, span.col, span.len,
                        ));
                    }
                }
            }
        }
        if let Some(p) = program {
            let decoded: Vec<Result<Instr, DecodeError>> =
                p.instrs.iter().map(|i| Ok(*i)).collect();
            let blocks = BlockMap::build(&decoded);
            let mut ranked = self.per_block(&blocks);
            ranked.retain(|(_, r)| r.cycles() > 0);
            ranked.sort_by_key(|&(l, r)| (std::cmp::Reverse(r.cycles()), l));
            ranked.truncate(top);
            if !ranked.is_empty() {
                let _ = writeln!(out, "\nhot basic blocks:");
                for (leader, row) in ranked {
                    let end = blocks.block_end(leader);
                    let _ = writeln!(
                        out,
                        "  pc {leader:>4}..{end:<4} {:>8} cycles (issue {}, stall {})",
                        row.cycles(),
                        row.issue,
                        row.stall_cycles()
                    );
                }
            }
        }
        let threads = self.per_thread();
        if threads.iter().any(|r| r.cycles() > 0) {
            let _ = writeln!(out, "\nper-thread:");
            for (t, row) in threads.iter().enumerate() {
                if row.cycles() > 0 {
                    let _ = writeln!(
                        out,
                        "  t{t}: {:>8} cycles (issue {}, stall {}, net ops {})",
                        row.cycles(),
                        row.issue,
                        row.stall_cycles(),
                        row.net_ops
                    );
                }
            }
        }
        let unattr: u64 = self.unattributed.iter().sum();
        if unattr > 0 {
            let _ = writeln!(out, "\nunattributed stalls (no blocked thread): {unattr} cycles");
        }
        out
    }
}

/// One entry of [`Profile::top_stalls`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallSummary {
    /// The stall reason.
    pub reason: StallReason,
    /// Total cycles lost to it (attributed + unattributed).
    pub cycles: u64,
    /// The single `(thread, pc)` site that paid the most of them.
    pub hottest: Option<HotSite>,
}

/// A `(thread, pc)` attribution site with its cycle count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotSite {
    /// Hardware thread.
    pub thread: usize,
    /// Instruction address.
    pub pc: u32,
    /// Cycles charged there.
    pub cycles: u64,
}

/// Basic-block structure of a program: block leaders are the entry PC,
/// every branch target, and every instruction after a control transfer.
/// Undecodable words are single-instruction blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMap {
    /// Leader PCs, ascending.
    leaders: Vec<u32>,
    /// `block_of[pc]` = index into `leaders`.
    block_of: Vec<u32>,
}

impl BlockMap {
    /// Compute block leaders for a decoded instruction stream.
    pub fn build(imem: &[Result<Instr, DecodeError>]) -> BlockMap {
        let n = imem.len();
        let mut is_leader = vec![false; n];
        if n > 0 {
            is_leader[0] = true;
        }
        for (pc, slot) in imem.iter().enumerate() {
            match slot {
                Ok(i) => {
                    if let Some(t) = branch_target(pc as u32, i) {
                        if (t as usize) < n {
                            is_leader[t as usize] = true;
                        }
                    }
                    if i.is_branch() && pc + 1 < n {
                        is_leader[pc + 1] = true;
                    }
                }
                Err(_) => {
                    // treat as an opaque single-instruction block
                    is_leader[pc] = true;
                    if pc + 1 < n {
                        is_leader[pc + 1] = true;
                    }
                }
            }
        }
        let mut leaders = Vec::new();
        let mut block_of = vec![0u32; n];
        for (pc, &lead) in is_leader.iter().enumerate() {
            if lead {
                leaders.push(pc as u32);
            }
            block_of[pc] = (leaders.len().max(1) - 1) as u32;
        }
        BlockMap { leaders, block_of }
    }

    /// Leader PCs in ascending order.
    pub fn leaders(&self) -> &[u32] {
        &self.leaders
    }

    /// Index of the block containing `pc`.
    pub fn block_of(&self, pc: u32) -> Option<usize> {
        self.block_of.get(pc as usize).map(|&b| b as usize)
    }

    /// Last PC of the block led by `leader` (inclusive).
    pub fn block_end(&self, leader: u32) -> u32 {
        match self.leaders.iter().position(|&l| l == leader) {
            Some(i) if i + 1 < self.leaders.len() => self.leaders[i + 1] - 1,
            _ => (self.block_of.len() as u32).max(1) - 1,
        }
    }
}

/// Static branch target of `i` at `pc`, if it has one (`Jr` is indirect).
fn branch_target(pc: u32, i: &Instr) -> Option<u32> {
    match *i {
        Instr::J { target } | Instr::Jal { target, .. } => Some(target),
        Instr::Bt { off, .. } | Instr::Bf { off, .. } => {
            Some((pc as i64 + 1 + off as i64).max(0) as u32)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MachineConfig, StallReason};

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

    fn profiled_run(cfg: MachineConfig) -> (crate::Machine, crate::Stats) {
        let program = asc_asm::assemble(PROGRAM).unwrap();
        let mut m = crate::Machine::with_program(cfg, &program).unwrap();
        m.attach_profiler();
        let stats = m.run(100_000).unwrap();
        (m, stats)
    }

    #[test]
    fn conservation_holds_exactly() {
        let (m, stats) = profiled_run(MachineConfig::new(16));
        let p = m.profile().unwrap();
        assert_eq!(p.attributed_cycles(), stats.cycles);
        assert_eq!(p.total_cycles(), stats.cycles);
        // per-pc issues equal the run's issue count
        let issued: u64 = p.per_pc().iter().map(|r| r.issue).sum();
        assert_eq!(issued, stats.issued);
        // stall totals match the legacy breakdown reason by reason
        let totals = p.stall_totals();
        for reason in StallReason::ALL {
            assert_eq!(totals[reason.index()], stats.stalls_for(reason), "{reason}");
        }
    }

    #[test]
    fn reduction_hazard_lands_on_the_consumer() {
        let (m, _) = profiled_run(MachineConfig::new(16).single_threaded());
        let p = m.profile().unwrap();
        // `addi s3` (pc 5) consumes nothing from the reduction, but `ceq`
        // waits on s3... the b+r stall of `rsum`'s consumer lands on the
        // first instruction blocked after the reduction: pc 5 (addi
        // follows rsum back-to-back; the reduction hazard is charged to
        // whichever pc the scheduler reports blocked). Just assert the
        // hazard was charged inside the loop body with a producer link.
        let totals = p.stall_totals();
        assert!(totals[StallReason::ReductionHazard.index()] > 0);
        let hot = p.top_stalls(3);
        let red = hot.iter().find(|s| s.reason == StallReason::ReductionHazard).unwrap();
        let site = red.hottest.expect("reduction stall is attributed");
        assert_eq!(site.pc, 5, "the add consuming s1 pays the b+r stall");
        let row = p.row(site.thread, site.pc);
        assert_eq!(row.longest_wait_pc, 4, "waits on the rsum at pc 4");
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let (m, _) = profiled_run(MachineConfig::new(16));
        let p = m.profile().unwrap();
        let text = p.to_json().to_pretty();
        let back = Profile::parse(&text).unwrap();
        assert_eq!(&back, p);
        assert!(Profile::parse("{}").is_err());
        let mut v = p.to_json();
        if let Json::Obj(entries) = &mut v {
            entries[0].1 = Json::str("mtasc.profile.v999");
        }
        assert!(Profile::from_json(&v).is_none());
    }

    #[test]
    fn aggregations_are_consistent() {
        let (m, _stats) = profiled_run(MachineConfig::new(16));
        let p = m.profile().unwrap();
        let by_thread: u64 = p.per_thread().iter().map(ProfileRow::cycles).sum();
        let by_pc: u64 = p.per_pc().iter().map(ProfileRow::cycles).sum();
        assert_eq!(by_thread, by_pc);
        let program = asc_asm::assemble(PROGRAM).unwrap();
        let decoded: Vec<_> = program.instrs.iter().map(|i| Ok(*i)).collect();
        let blocks = BlockMap::build(&decoded);
        let by_block: u64 = p.per_block(&blocks).iter().map(|(_, r)| r.cycles()).sum();
        assert_eq!(by_block, by_pc, "every pc belongs to exactly one block");
        let hot = p.hot_pcs(3);
        assert!(hot.len() <= 3 && hot.windows(2).all(|w| w[0].1.cycles() >= w[1].1.cycles()));
    }

    #[test]
    fn block_map_splits_at_branches_and_targets() {
        let program = asc_asm::assemble(PROGRAM).unwrap();
        let decoded: Vec<_> = program.instrs.iter().map(|i| Ok(*i)).collect();
        let blocks = BlockMap::build(&decoded);
        // leaders: entry (0), loop target (3), after bf (9)
        assert_eq!(blocks.leaders(), &[0, 3, 9]);
        assert_eq!(blocks.block_of(4), Some(1));
        assert_eq!(blocks.block_end(3), 8);
        assert_eq!(blocks.block_end(9), 9);
    }

    #[test]
    fn render_table_reports_conservation_and_hot_spots() {
        let (m, _) = profiled_run(MachineConfig::new(16));
        let p = m.profile().unwrap();
        let program = asc_asm::assemble(PROGRAM).unwrap();
        let text = p.render_table(Some(&program), Some(PROGRAM), 5);
        assert!(text.contains("conservation: exact"), "{text}");
        assert!(text.contains("hot instructions"), "{text}");
        assert!(text.contains("hot basic blocks"), "{text}");
        assert!(text.contains("rsum"), "disassembly shown: {text}");
        assert!(text.contains("per-thread:"), "{text}");
    }

    #[test]
    fn out_of_shape_records_stay_balanced() {
        let mut p = Profile::new(1, 2);
        p.record_stall(0, 99, StallReason::WaitJoin, 7, NO_PRODUCER);
        p.record_unattributed(StallReason::NoThread, 3);
        p.record_issue(0, 1);
        p.finalize(12);
        assert_eq!(p.attributed_cycles(), 12);
        assert_eq!(p.drain_cycles(), 1);
        let unattr: u64 = p.unattributed_stalls().map(|(_, n)| n).sum();
        assert_eq!(unattr, 10);
    }
}
