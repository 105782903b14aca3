//! Simulator operations: one kernel call from source text to checked
//! result, staged through each crate's public functions in the order
//! `asc_kernels::harness::run_kernel` uses them — (ASCL compile) →
//! assemble → construct → load program → host load → run → read out →
//! drop — with a span around every stage.
//!
//! The program sources mirror the kernel crate's generators (whose
//! `program()` functions are crate-private) at this benchmark's sizes;
//! results are checked against the crate's public `reference()`
//! functions where they exist, and against references computed here
//! otherwise. Every program's control flow is independent of its data,
//! so its simulated cycles and issue count are fixed per program and
//! committed in [`EXPECTED`].

use asc_core::obs::RunReport;
use asc_core::{Machine, MachineConfig, Stats};
use asc_isa::{Width, Word};
use asc_obs_store::{config_fingerprint, program_hash, RunMeta, RunStore};

use crate::rng::SplitMix64;
use crate::trace::Tracer;

/// Cycle budget of every simulated run.
pub const MAX_CYCLES: u64 = asc_kernels::MAX_CYCLES;

/// Committed simulated `(cycles, issued)` per program. Control flow of
/// every program is data-independent, so these hold for every seed;
/// regenerate with `--emit-expected` only when a program changes.
pub const EXPECTED: &[(&str, u64, u64)] = &[
    ("search", 40, 10),
    ("string_match(n=4096,m=8)", 132, 94),
    ("image_stats(per_pe=2,valid=4096)", 109, 51),
    ("findmax", 76, 9),
    ("grade_curve", 99, 25),
    ("ascl_relax(steps=1200)", 13302, 12025),
];

const W: Width = Width::W16;

/// Where an operation's source text comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// MTASC assembly.
    Asm(String),
    /// ASCL, compiled by `asc_lang::compile` inside the operation.
    Ascl(String),
}

/// Host data written into a constructed machine before it runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostLoad {
    /// Scalar-memory words.
    pub smem: Vec<(u32, Word)>,
    /// Whole local-memory rows: `scatter_column(addr, data)`.
    pub columns: Vec<(u32, Vec<Word>)>,
    /// Per-PE local-memory prefixes: PE `j` gets `slices[j]` from
    /// address 0 (`lmem_load_slice`).
    pub slices: Vec<Vec<Word>>,
}

impl HostLoad {
    fn is_empty(&self) -> bool {
        self.smem.is_empty() && self.columns.is_empty() && self.slices.is_empty()
    }

    fn apply(&self, m: &mut Machine) -> Result<(), String> {
        for &(addr, v) in &self.smem {
            m.smem_mut().write(addr, v).map_err(|e| format!("smem write: {e:?}"))?;
        }
        for (addr, data) in &self.columns {
            m.array_mut().scatter_column(*addr, data).map_err(|e| format!("scatter: {e:?}"))?;
        }
        for (pe, data) in self.slices.iter().enumerate() {
            m.array_mut().lmem_load_slice(pe, 0, data).map_err(|e| format!("lmem load: {e:?}"))?;
        }
        Ok(())
    }
}

/// One value (or block) read back after the run, as raw word bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Read {
    /// Thread-0 scalar register.
    Sreg(usize),
    /// Thread-0 scalar flag (0/1).
    Sflag(usize),
    /// The ASCL output block: its length, then the values.
    AsclOut,
}

fn read_out(reads: &[Read], m: &Machine) -> Result<Vec<u32>, String> {
    let smem = |a: u32| m.smem().read(a).map(Word::to_u32).map_err(|e| format!("smem read: {e:?}"));
    let mut out = Vec::new();
    for r in reads {
        match *r {
            Read::Sreg(reg) => out.push(m.sreg(0, reg).to_u32()),
            Read::Sflag(reg) => out.push(m.sflag(0, reg) as u32),
            Read::AsclOut => {
                let n = smem(asc_lang::OUT_BASE - 1)?;
                out.push(n);
                for i in 0..n.min(512) {
                    out.push(smem(asc_lang::OUT_BASE + i)?);
                }
            }
        }
    }
    Ok(out)
}

/// One seeded kernel call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOp {
    /// Program name, the key into [`EXPECTED`].
    pub program: &'static str,
    /// Machine configuration.
    pub cfg: MachineConfig,
    /// Source text.
    pub source: Source,
    /// Host data.
    pub load: HostLoad,
    /// What to read back.
    pub read: Vec<Read>,
    /// The reference result, as raw word bits in `read` order.
    pub expect: Vec<u32>,
}

/// Exact per-op counters, from `stats()`, `fusion_stats()` and
/// `committed_bytes()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// PEs of the machine.
    pub pes: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions issued.
    pub issued: u64,
    /// Stall cycles.
    pub stall_cycles: u64,
    /// Thread switches.
    pub thread_switches: u64,
    /// Reduction-class (network) instructions issued.
    pub issued_reduction: u64,
    /// Dynamic instructions executed by the fused tile engine.
    pub instrs_fused: u64,
    /// Compiled tile-chain dispatches.
    pub tile_chains: u64,
    /// Compiled ops bound to a SIMD kernel.
    pub simd_ops: u64,
    /// Committed PE-plane bytes after the run.
    pub committed_bytes: u64,
}

impl Counters {
    fn of(m: &Machine, stats: &Stats) -> Counters {
        let fs = m.fusion_stats();
        Counters {
            pes: m.config().num_pes as u64,
            cycles: stats.cycles,
            issued: stats.issued,
            stall_cycles: stats.stall_cycles,
            thread_switches: stats.thread_switches,
            issued_reduction: stats.issued_by_class[2],
            instrs_fused: fs.instrs_fused,
            tile_chains: fs.tile_chains,
            simd_ops: fs.simd_ops,
            committed_bytes: m.array().committed_bytes() as u64,
        }
    }
}

/// What one operation produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Counters (zero when the op failed before its run finished).
    pub counters: Counters,
    /// Whether the op made a host load.
    pub loaded: bool,
    /// Why the op failed, if it did.
    pub error: Option<String>,
}

impl Outcome {
    fn failed(error: String) -> Outcome {
        Outcome { error: Some(error), ..Outcome::default() }
    }
}

/// The committed counts of `program`.
pub fn expected_counts(program: &str) -> Option<(u64, u64)> {
    EXPECTED.iter().find(|e| e.0 == program).map(|e| (e.1, e.2))
}

/// Run one operation from source text to checked result. With `record`
/// the run is also recorded into that registry the way `mtasc run`
/// records (manifest after load, `report.json` and finish after the
/// run).
pub fn run_op<T: Tracer>(op: &SimOp, tr: &mut T, record: Option<&RunStore>) -> Outcome {
    let asm;
    let text = match &op.source {
        Source::Asm(s) => s.as_str(),
        Source::Ascl(s) => match tr.span("lang.compile", || asc_lang::compile(s)) {
            Ok(a) => {
                asm = a;
                asm.as_str()
            }
            Err(e) => return Outcome::failed(format!("{}: compile: {e}", op.program)),
        },
    };
    let program = match tr.span("asm.assemble", || asc_asm::assemble(text)) {
        Ok(p) => p,
        Err(errs) => {
            let msg = asc_asm::render_errors(&errs);
            return Outcome::failed(format!("{}: assemble: {msg}", op.program));
        }
    };
    let mut m = tr.span("core.construct", || Machine::new(op.cfg));
    if let Err(e) = tr.span("core.load_program", || m.load_program(&program)) {
        return Outcome::failed(format!("{}: load: {e}", op.program));
    }
    let handle = match record {
        None => None,
        Some(store) => match tr.span("obs_store.begin", || begin_record(store, text, &m)) {
            Ok(h) => Some(h),
            Err(e) => return Outcome::failed(format!("{}: record: {e}", op.program)),
        },
    };
    let loaded = !op.load.is_empty();
    if loaded {
        if let Err(e) = tr.span("pe.host_load", || op.load.apply(&mut m)) {
            return Outcome::failed(format!("{}: {e}", op.program));
        }
    }
    let stats = match tr.span("core.run", || m.run(MAX_CYCLES)) {
        Ok(s) => s,
        Err(e) => return Outcome::failed(format!("{}: run: {e}", op.program)),
    };
    let got = tr.span("core.readout", || read_out(&op.read, &m));
    let counters = Counters::of(&m, &stats);
    if let Some(h) = handle {
        if let Err(e) = tr.span("obs_store.finish", || finish_record(h, &m, &stats)) {
            return Outcome::failed(format!("{}: record: {e}", op.program));
        }
    }
    tr.span("core.drop", || drop(m));
    let error = match got {
        Err(e) => Some(format!("{}: {e}", op.program)),
        Ok(got) => check(op, &got, &counters),
    };
    Outcome { counters, loaded, error }
}

fn begin_record(
    store: &RunStore,
    source: &str,
    m: &Machine,
) -> std::io::Result<asc_obs_store::RunHandle> {
    let machine = RunReport::from_machine(m).machine;
    let meta = RunMeta::begin(
        "run",
        "<hostbench>",
        program_hash(source),
        config_fingerprint(&machine),
        machine.pes,
    );
    store.begin(meta)
}

fn finish_record(
    mut h: asc_obs_store::RunHandle,
    m: &Machine,
    stats: &Stats,
) -> std::io::Result<()> {
    let report = RunReport::from_machine(m);
    std::fs::write(h.artifact_path("report.json"), report.to_json().to_pretty())?;
    h.add_artifact("report.json");
    h.finish_ok(stats.cycles, stats.issued).map(|_| ())
}

fn check(op: &SimOp, got: &[u32], c: &Counters) -> Option<String> {
    if got != op.expect.as_slice() {
        let at = got
            .iter()
            .zip(&op.expect)
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(op.expect.len()));
        return Some(format!(
            "{}: wrong result at word {at}: got {:?}, expected {:?} ({} vs {} words)",
            op.program,
            got.get(at),
            op.expect.get(at),
            got.len(),
            op.expect.len()
        ));
    }
    match expected_counts(op.program) {
        None => Some(format!("{}: no committed cycle counts (see --emit-expected)", op.program)),
        Some((cycles, issued)) if (cycles, issued) != (c.cycles, c.issued) => Some(format!(
            "{}: simulated cycles/issued {}/{} differ from committed {cycles}/{issued}",
            op.program, c.cycles, c.issued
        )),
        Some(_) => None,
    }
}

// ------------------------------------------------------------ programs

fn words(values: &[i64]) -> Vec<Word> {
    asc_kernels::harness::to_words(values, W)
}

fn bits(v: i64) -> u32 {
    Word::from_i64(v, W).to_u32()
}

/// Seeded copies per program in a workload (ops cycle through them).
pub const INSTANCES: usize = 8;

/// PEs of every simulated machine.
pub const PES: usize = 4096;

fn search_op(rng: &mut SplitMix64) -> SimOp {
    let records: Vec<(i64, i64)> =
        (0..PES).map(|_| (rng.range(0, 63), rng.range(0, 999))).collect();
    let query = records[rng.range(0, PES as i64 - 1) as usize].0;
    let (matches, value, index) = asc_kernels::search::reference(&records, query);
    let keys: Vec<i64> = records.iter().map(|r| r.0).collect();
    let values: Vec<i64> = records.iter().map(|r| r.1).collect();
    SimOp {
        program: "search",
        cfg: MachineConfig::new(PES),
        // mirrors asc_kernels::search::program()
        source: Source::Asm(
            "
        lw     s1, 0(s0)
        plw    p2, 0(p0)
        plw    p3, 1(p0)
        pidx   p1
        pceqs  pf1, p2, s1
        rcount s2, pf1
        pfirst pf2, pf1
        rget   s3, p3, pf2
        rget   s4, p1, pf2
        halt
"
            .into(),
        ),
        load: HostLoad {
            smem: vec![(0, Word::from_i64(query, W))],
            columns: vec![(0, words(&keys)), (1, words(&values))],
            slices: Vec::new(),
        },
        read: vec![Read::Sreg(2), Read::Sreg(3), Read::Sreg(4)],
        expect: vec![matches, value.unwrap_or(0), index.unwrap_or(0)],
    }
}

const MATCH_LEN: usize = 8;

fn string_match_op(rng: &mut SplitMix64) -> SimOp {
    let (n, m) = (PES, MATCH_LEN);
    let mut text: Vec<u8> = (0..n).map(|_| b'a' + rng.range(0, 3) as u8).collect();
    let pattern: Vec<u8> = (0..m).map(|_| b'a' + rng.range(0, 3) as u8).collect();
    for _ in 0..3 {
        let at = rng.range(0, (n - m) as i64) as usize;
        text[at..at + m].copy_from_slice(&pattern);
    }
    let (count, first) = asc_kernels::string_match::reference(&text, &pattern);
    let slices = (0..n)
        .map(|j| {
            let window: Vec<i64> =
                (0..m).map(|i| text.get(j + i).map(|&c| c as i64).unwrap_or(-1)).collect();
            words(&window)
        })
        .collect();
    // mirrors asc_kernels::string_match::program(n, m)
    let source = format!(
        "
        li     s6, {last_start}
        pidx   p1
        pcles  pf1, p1, s6
        li     s3, 0
        li     s4, {m}
        pli    p3, 0
char:   ceq    f1, s3, s4
        bt     f1, tally
        lw     s2, 0(s3)
        plw    p2, 0(p3) ?pf1
        pfclr  pf2
        pceqs  pf2, p2, s2 ?pf1
        pfand  pf1, pf1, pf2
        paddi  p3, p3, 1
        addi   s3, s3, 1
        j      char
tally:  rcount s1, pf1
        pfirst pf3, pf1
        pidx   p1
        rget   s5, p1, pf3
        rany   f2, pf1
        halt
",
        last_start = n - m,
    );
    SimOp {
        program: "string_match(n=4096,m=8)",
        cfg: MachineConfig::new(PES),
        source: Source::Asm(source),
        load: HostLoad {
            smem: pattern
                .iter()
                .enumerate()
                .map(|(i, &c)| (i as u32, Word::new(c as u32, W)))
                .collect(),
            columns: Vec::new(),
            slices,
        },
        read: vec![Read::Sreg(1), Read::Sflag(2), Read::Sreg(5)],
        expect: vec![count, 1, first.unwrap_or(0)],
    }
}

const PIXELS_PER_PE: usize = 2;

fn image_op(rng: &mut SplitMix64) -> SimOp {
    let pixels: Vec<i64> = (0..PES * PIXELS_PER_PE).map(|_| rng.range(0, 3)).collect();
    let threshold = rng.range(0, 2);
    let (sum, min, max, above) = asc_kernels::image::reference(&pixels, threshold, PES);
    let slices = pixels.chunks(PIXELS_PER_PE).map(words).collect();
    // mirrors asc_kernels::image::stats_program(2, 4096)
    let source = format!(
        "
        li     s6, {last_pe}
        pidx   p1
        pcles  pf1, p1, s6
        lw     s7, 0(s0)
        pli    p3, 0
        pli    p4, 0
        plw    p5, 0(p3) ?pf1
        pmov   p6, p5 ?pf1
        li     s3, 0
        li     s4, {k}
strip:  ceq    f1, s3, s4
        bt     f1, reduce
        plw    p2, 0(p3) ?pf1
        padd   p4, p4, p2 ?pf1
        pmax   p5, p5, p2 ?pf1
        pmin   p6, p6, p2 ?pf1
        pfclr  pf4
        pcles  pf4, p2, s7 ?pf1
        pfclr  pf5
        pfnot  pf5, pf4 ?pf1
        rcount s8, pf5
        lw     s9, 1(s0)
        add    s9, s9, s8
        sw     s9, 1(s0)
        paddi  p3, p3, 1
        addi   s3, s3, 1
        j      strip
reduce: rsum   s1, p4 ?pf1
        rmin   s2, p6 ?pf1
        rmax   s5, p5 ?pf1
        lw     s9, 1(s0)
        halt
",
        last_pe = PES - 1,
        k = PIXELS_PER_PE,
    );
    SimOp {
        program: "image_stats(per_pe=2,valid=4096)",
        cfg: MachineConfig::new(PES),
        source: Source::Asm(source),
        load: HostLoad {
            smem: vec![(0, Word::from_i64(threshold, W)), (1, Word::ZERO)],
            columns: Vec::new(),
            slices,
        },
        read: vec![Read::Sreg(1), Read::Sreg(2), Read::Sreg(5), Read::Sreg(9)],
        expect: vec![bits(sum), bits(min), bits(max), above],
    }
}

const FINDMAX: &str = include_str!("../../examples/programs/findmax.asc");
const GRADE_CURVE: &str = include_str!("../../examples/programs/grade_curve.ascl");

/// Replace `from` in `text` exactly once, panicking when the example
/// no longer contains it (the seeded substitution would silently stop
/// applying).
fn substitute(text: &str, from: &str, to: &str) -> String {
    assert_eq!(text.matches(from).count(), 1, "example program no longer contains `{from}`");
    text.replacen(from, to, 1)
}

/// `examples/programs/findmax.asc` with its synthetic-data constants
/// (`13`, `31`) drawn from the seed. Returns the source and the expected
/// `(max, first index of max, responders)`.
pub fn findmax_source(rng: &mut SplitMix64) -> (String, [u32; 3]) {
    let (a, modulus) = (rng.range(3, 7), rng.range(17, 97));
    let src = substitute(FINDMAX, "pmuli  p2, p1, 13", &format!("pmuli  p2, p1, {a}"));
    let src = substitute(&src, "premi  p2, p2, 31", &format!("premi  p2, p2, {modulus}"));
    let data: Vec<i64> = (0..PES as i64).map(|i| (i * a) % modulus).collect();
    let max = *data.iter().max().expect("PES > 0");
    let first = data.iter().position(|&v| v == max).expect("max exists");
    let count = data.iter().filter(|&&v| v == max).count();
    (src, [max as u32, first as u32, count as u32])
}

fn findmax_op(rng: &mut SplitMix64) -> SimOp {
    let (src, expect) = findmax_source(rng);
    SimOp {
        program: "findmax",
        cfg: MachineConfig::new(PES),
        source: Source::Asm(src),
        load: HostLoad::default(),
        read: vec![Read::Sreg(1), Read::Sreg(2), Read::Sreg(3)],
        expect: expect.to_vec(),
    }
}

/// `examples/programs/grade_curve.ascl` with its score multiplier and
/// pass mark drawn from the seed.
fn grade_curve_op(rng: &mut SplitMix64) -> SimOp {
    let (a, passing) = (rng.range(3, 7), rng.range(40, 80));
    let src = substitute(GRADE_CURVE, "index() * 7 % 100", &format!("index() * {a} % 100"));
    let src = substitute(&src, "sca passing = 60;", &format!("sca passing = {passing};"));
    let mut scores: Vec<i64> = (0..PES as i64).map(|i| (i * a) % 100).collect();
    let before = scores.iter().filter(|&&s| s >= passing).count() as u32;
    scores.iter_mut().filter(|s| **s < passing).for_each(|s| *s += 15);
    let after = scores.iter().filter(|&&s| s >= passing).count() as u32;
    let max = *scores.iter().max().expect("PES > 0");
    SimOp {
        program: "grade_curve",
        cfg: MachineConfig::new(PES),
        source: Source::Ascl(src),
        load: HostLoad::default(),
        read: vec![Read::AsclOut],
        expect: vec![3, before, after, bits(max)],
    }
}

const RELAX_LIMIT: i64 = 100;

/// Steps of the relaxation loop `registry_serve`'s writer records: long
/// enough that its simulator time dominates the registry I/O around it.
const RELAX_STEPS: i64 = 1200;

/// An ASCL relaxation loop: every PE repeatedly steps its value towards
/// a band around `RELAX_LIMIT` under `where`/`elsewhere` masking.
pub fn relax_op(rng: &mut SplitMix64) -> SimOp {
    let data: Vec<i64> = (0..PES).map(|_| rng.range(0, 1000)).collect();
    let mut x = data.clone();
    for _ in 0..RELAX_STEPS {
        x.iter_mut().for_each(|v| *v = if *v > RELAX_LIMIT { *v - 37 } else { *v + 11 });
    }
    let max = *x.iter().max().expect("PES > 0");
    let min = *x.iter().min().expect("PES > 0");
    let above = x.iter().filter(|&&v| v > 90).count() as u32;
    let source = format!(
        "par x = load(0);
sca i = 0;
while (i < {RELAX_STEPS}) {{
    where (x > {RELAX_LIMIT}) {{
        x = x - 37;
    }} elsewhere {{
        x = x + 11;
    }}
    i = i + 1;
}}
out(max(x));
out(min(x));
out(count(x > 90));
out(first(x));
"
    );
    SimOp {
        program: "ascl_relax(steps=1200)",
        cfg: MachineConfig::new(PES),
        source: Source::Ascl(source),
        load: HostLoad { columns: vec![(0, words(&data))], ..HostLoad::default() },
        read: vec![Read::AsclOut],
        expect: vec![4, bits(max), bits(min), above, bits(x[0])],
    }
}

/// The simulator workloads: per program, its seeded instances.
pub fn build(workload: &str, seed: u64) -> Option<Vec<Vec<SimOp>>> {
    let per = |tag: &str, instances: usize, f: &dyn Fn(&mut SplitMix64) -> SimOp| {
        let mut rng = SplitMix64::new(seed, tag);
        (0..instances).map(|_| f(&mut rng)).collect::<Vec<_>>()
    };
    let ops = match workload {
        "kernel_calls" => vec![
            per("search", INSTANCES, &search_op),
            per("string_match", INSTANCES, &string_match_op),
            per("image", INSTANCES, &image_op),
            per("findmax", INSTANCES, &findmax_op),
            per("grade_curve", INSTANCES, &grade_curve_op),
        ],
        _ => return None,
    };
    Some(ops)
}
