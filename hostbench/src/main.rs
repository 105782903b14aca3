//! hostbench — the host-time benchmark of the MTASC simulator.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <kernel_calls|registry_serve> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the workload up several times (reporting the median as
//! `setup_s`), runs it for `--seconds`, checks every operation, prints a
//! human-readable report and, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the run alternates traced and untraced rounds and reports the
//! per-layer metrics. Exits 1 when any check failed, 2 on bad usage or
//! when an `MTASC_*` execution-strategy variable is set. See README.md.

mod rng;
mod serve;
mod sim;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use asc_core::MachineConfig;

use crate::sim::{Outcome, SimOp};
use crate::trace::{Off, Recorder, Span, Tracer, OP_SPAN};

const USAGE: &str = "usage: hostbench --workload <kernel_calls|registry_serve> \
--seed <n> --seconds <s> --trace <0|1>\n       hostbench --emit-expected";

/// Environment variables that change how the simulator executes; a run
/// under any of them would not measure the program as built.
const STRATEGY_VARS: [&str; 7] = [
    "MTASC_NO_FUSE",
    "MTASC_NO_SIMD",
    "MTASC_SEGMENTS",
    "MTASC_PAR_THRESHOLD",
    "MTASC_SCHED_SEED",
    "MTASC_KERNEL_OBS",
    "MTASC_RUNS_DIR",
];

/// Times each workload is set up; `setup_s` is the median.
const SETUP_REPEATS: usize = 9;

/// `/healthz` requests a traced `registry_serve` run sends back to back
/// after its timed phase.
const HEALTHZ_BACK_TO_BACK: usize = 50;

/// Scratch directory (inside the working directory) for the temporary
/// registry and the spans files.
const SCRATCH: &str = ".hostbench";

/// The workloads and their fixed tail percentile: the highest of
/// p99/p95/p90 that keeps at least ten samples beyond it at the
/// workload's op count in a 55 s run (`run_seconds`). `registry_serve`
/// schedules at least 1808 requests in 55 s, so p99 on every seed.
const WORKLOADS: [(&str, u32); 2] = [("kernel_calls", 99), ("registry_serve", 99)];

/// Layer calls reported as per-op p50 and share of op wall time.
const PHASES: [&str; 9] = [
    "lang.compile",
    "asm.assemble",
    "core.construct",
    "core.load_program",
    "pe.host_load",
    "core.run",
    "core.readout",
    "core.drop",
    OP_SPAN,
];

/// Metric stem of a span: an op root's self time is what no layer call
/// accounts for.
fn stem(span: &'static str) -> &'static str {
    if span == OP_SPAN {
        "bench.unaccounted"
    } else {
        span
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    emit_expected: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a =
        Args { workload: String::new(), seed: 0, seconds: 0.0, trace: false, emit_expected: false };
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--emit-expected" {
            a.emit_expected = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "--seed: not a number")?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| "--seconds: not a number")?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if a.emit_expected {
        return Ok(a);
    }
    if !WORKLOADS.iter().any(|w| w.0 == a.workload) {
        return Err(format!("unknown workload `{}`", a.workload));
    }
    a.seed = seed.ok_or("--seed is required")?;
    a.seconds = seconds.ok_or("--seconds is required")?;
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds: must be in (0, 600]".into());
    }
    a.trace = trace.ok_or("--trace is required")?;
    Ok(a)
}

/// What a run reports.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn count(&mut self, error: Option<&String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            self.errors.push(e.clone());
        }
    }

    /// Count `attempted` ops, of which `errors` failed.
    fn absorb(&mut self, attempted: u64, errors: &[String]) {
        self.attempted += attempted;
        self.failed += errors.len() as u64;
        self.errors.extend(errors.iter().cloned());
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Mean of `walls_ns`, ms.
fn mean_ms(walls_ns: &[u64]) -> f64 {
    ms(walls_ns.iter().sum::<u64>()) / walls_ns.len() as f64
}

/// Median of `walls_ns`, ms.
fn p50_ms(walls_ns: &[u64]) -> f64 {
    if walls_ns.is_empty() {
        return f64::NAN;
    }
    stats::median(&walls_ns.iter().map(|&n| ms(n)).collect::<Vec<_>>())
}

/// What the end-to-end metrics are computed from.
struct Measured<'a> {
    setup: &'a [Duration],
    /// Op latencies, ns.
    latencies: stats::Histogram,
    /// Mean op latency, ms (in `kernel_calls`, the geometric mean over
    /// programs of each program's mean).
    mean_ms: f64,
    /// Successful ops per second of timed wall time.
    ops_per_s: f64,
    /// Simulated instructions per second of simulator-op wall time.
    sim_ips: f64,
    /// Peak resident memory, read right after the timed phase.
    peak_rss_mib: f64,
}

fn end_to_end(r: &mut Report, workload: &str, m: &Measured) {
    let tail = WORKLOADS.iter().find(|w| w.0 == workload).map_or(99, |w| w.1);
    let n = m.latencies.count();
    let beyond = stats::samples_beyond(n, tail);
    let at = |p: u32| m.latencies.percentile(p).map_or(f64::NAN, ms);
    let p_tail = at(tail);
    let setups: Vec<f64> = m.setup.iter().map(Duration::as_secs_f64).collect();
    let percentiles: Vec<String> =
        [50, 90, 95, 99].map(|p| format!("p{p} {:.4} ms", at(p))).into_iter().collect();
    println!(
        "op latency: mean {:.4} ms, {} over {n} ops ({beyond} beyond p{tail}; rule picks {})",
        m.mean_ms,
        percentiles.join(", "),
        stats::select_tail(n).map_or("none".into(), |p| format!("p{p}"))
    );
    if beyond < stats::MIN_BEYOND {
        println!("warning: fewer than {} samples beyond p{tail}", stats::MIN_BEYOND);
    }
    r.metric("setup_s", stats::median(&setups), "s");
    r.metric("ops_per_s", m.ops_per_s, "ops/s");
    r.metric("op_mean_ms", m.mean_ms, "ms");
    r.metric("op_tail_ms", p_tail, "ms");
    r.metric("sim_ips", m.sim_ips, "instr/s");
    r.metric("peak_rss_mb", m.peak_rss_mib, "MiB");
}

/// The per-layer metrics every workload reports, from the spans of its
/// simulator ops and their outcomes.
fn layer_metrics(r: &mut Report, spans: &[Span], outcomes: &[&Outcome], overhead_us: f64) {
    let table = trace::layer_table(spans);
    let op_ns: u64 = spans.iter().filter(|s| s.name == OP_SPAN).map(Span::dur).sum();
    print_table("simulator ops", &table, op_ns);
    for span in PHASES {
        let row = table.get(span);
        let stem = stem(span);
        r.metric(format!("{stem}_us"), row.map_or(0.0, |row| row.p50_us()), "us");
        let total = row.map_or(0, |row| row.total_ns);
        r.metric(format!("{stem}_share"), total as f64 / op_ns.max(1) as f64, "ratio");
    }
    let n = outcomes.len().max(1) as f64;
    let sum = |f: fn(&Outcome) -> u64| outcomes.iter().map(|o| f(o)).sum::<u64>();
    let issued = sum(|o| o.counters.issued);
    r.metric("core.issued", issued as f64 / n, "count");
    r.metric("core.cycles", sum(|o| o.counters.cycles) as f64 / n, "count");
    r.metric("core.stall_cycles", sum(|o| o.counters.stall_cycles) as f64 / n, "count");
    r.metric("core.thread_switches", sum(|o| o.counters.thread_switches) as f64 / n, "count");
    r.metric("core.issued.reduction", sum(|o| o.counters.issued_reduction) as f64 / n, "count");
    r.metric(
        "core.fused_frac",
        sum(|o| o.counters.instrs_fused) as f64 / issued.max(1) as f64,
        "ratio",
    );
    r.metric("core.tile_chains", sum(|o| o.counters.tile_chains) as f64 / n, "count");
    r.metric("core.simd_ops", sum(|o| o.counters.simd_ops) as f64 / n, "count");
    let pes = sum(|o| o.counters.pes);
    r.metric(
        "pe.committed_bytes_per_pe",
        sum(|o| o.counters.committed_bytes) as f64 / pes.max(1) as f64,
        "B",
    );
    let run_ns = table.get("core.run").map_or(0, |row| row.total_ns);
    r.metric("core.run_ns_per_issued", run_ns as f64 / issued.max(1) as f64, "ns");
    let load_ns = table.get("pe.host_load").map_or(0, |row| row.total_ns);
    let load_pes: u64 = outcomes.iter().filter(|o| o.loaded).map(|o| o.counters.pes).sum();
    r.metric("pe.load_ns_per_pe", load_ns as f64 / load_pes.max(1) as f64, "ns");
    r.metric("bench.trace_overhead_us", overhead_us, "us");
}

fn print_table(
    title: &str,
    table: &std::collections::BTreeMap<&'static str, trace::LayerRow>,
    op_ns: u64,
) {
    println!("self time per layer ({title}; share of op wall time):");
    println!("  {:<22} {:>8} {:>12} {:>12} {:>8}", "span", "ops", "p50 us", "total ms", "share");
    for row in table.values() {
        println!(
            "  {:<22} {:>8} {:>12.3} {:>12.3} {:>7.2}%",
            stem(row.name),
            row.per_op_ns.len(),
            row.p50_us(),
            ms(row.total_ns),
            100.0 * row.total_ns as f64 / op_ns.max(1) as f64
        );
    }
}

fn print_geometry(cfgs: impl IntoIterator<Item = MachineConfig>) {
    let mut seen = Vec::new();
    for cfg in cfgs {
        if seen.contains(&cfg.num_pes) {
            continue;
        }
        seen.push(cfg.num_pes);
        let geo = cfg.segment_geometry();
        println!(
            "machine: {} PEs, simd {}, {} segment(s) of {} lanes",
            cfg.num_pes,
            cfg.simd_level().label(),
            geo.count(),
            geo.lanes_per_seg()
        );
    }
}

/// Running totals of one program's ops. The closed loop keeps totals,
/// not a sample per op, so the process's peak memory does not depend on
/// how many ops it made.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    ops: u64,
    ns: u64,
    ok: u64,
    ok_ns: u64,
    /// Simulated instructions issued by the successful ops.
    ok_issued: u64,
}

impl Totals {
    fn add(&mut self, wall_ns: u64, o: &Outcome) {
        self.ops += 1;
        self.ns += wall_ns;
        if o.error.is_none() {
            self.ok += 1;
            self.ok_ns += wall_ns;
            self.ok_issued += o.counters.issued;
        }
    }

    fn sum<'a>(all: impl IntoIterator<Item = &'a Totals>) -> Totals {
        all.into_iter().fold(Totals::default(), |a, t| Totals {
            ops: a.ops + t.ops,
            ns: a.ns + t.ns,
            ok: a.ok + t.ok,
            ok_ns: a.ok_ns + t.ok_ns,
            ok_issued: a.ok_issued + t.ok_issued,
        })
    }

    /// Mean latency of all ops, ms.
    fn mean_ms(&self) -> f64 {
        ms(self.ns) / self.ops as f64
    }
}

/// What the closed loop produced.
struct Driven {
    /// Per program: the totals of its untraced and of its traced ops.
    totals: Vec<[Totals; 2]>,
    /// Latencies of the untraced ops.
    latencies: stats::Histogram,
    /// Outcomes of the traced ops.
    traced: Vec<Outcome>,
    errors: Vec<String>,
    wall_s: f64,
}

impl Driven {
    fn all(&self) -> Totals {
        Totals::sum(self.totals.iter().flatten())
    }
}

/// The closed loop: back-to-back ops for `seconds`, cycling programs
/// round-robin and each program's seeded instances in turn. With
/// `trace`, even rounds are traced into `rec` and odd rounds are not.
fn drive(ops: &[Vec<SimOp>], seconds: f64, trace: bool, rec: &mut Recorder) -> Driven {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut d = Driven {
        totals: vec![[Totals::default(); 2]; ops.len()],
        latencies: stats::Histogram::default(),
        traced: Vec::new(),
        errors: Vec::new(),
        wall_s: 0.0,
    };
    let mut i: u64 = 0;
    while Instant::now() < deadline {
        let round = i as usize / ops.len();
        let prog = i as usize % ops.len();
        let insts = &ops[prog];
        let op = &insts[round % insts.len()];
        let traced = trace && round.is_multiple_of(2);
        let t0 = Instant::now();
        let outcome = if traced {
            rec.begin_op(i, t0);
            let o = sim::run_op(op, rec, None);
            rec.end_op(Instant::now());
            o
        } else {
            sim::run_op(op, &mut Off, None)
        };
        let wall_ns = t0.elapsed().as_nanos() as u64;
        d.totals[prog][usize::from(traced)].add(wall_ns, &outcome);
        if !traced {
            d.latencies.push(wall_ns);
        }
        if let Some(e) = &outcome.error {
            d.errors.push(e.clone());
        }
        if traced {
            d.traced.push(outcome);
        }
        i += 1;
    }
    d.wall_s = start.elapsed().as_secs_f64();
    d
}

fn sim_workload(workload: &str, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut r = Report::default();
    let mut setup = Vec::new();
    let mut ops = Vec::new();
    let mut warm = Vec::new();
    for _ in 0..SETUP_REPEATS {
        ops.clear();
        let t0 = Instant::now();
        ops = sim::build(workload, seed).expect("workload names are validated");
        // warm-up: one checked call of every program
        warm = ops.iter().map(|insts| sim::run_op(&insts[0], &mut Off, None)).collect();
        setup.push(t0.elapsed());
    }
    print_geometry(ops.iter().map(|insts| insts[0].cfg));
    for o in &warm {
        r.count(o.error.as_ref());
    }
    let capacity = if trace { 1 << 20 } else { 0 };
    let mut rec = Recorder::new(Instant::now(), capacity);
    let d = drive(&ops, seconds, trace, &mut rec);
    let peak_rss_mib = peak_rss_mib();
    let all = d.all();
    r.absorb(all.ops, &d.errors);
    println!(
        "{workload}: {} ops in {:.3} s ({} programs x seeded instances, 1 client, closed loop)",
        all.ops,
        d.wall_s,
        ops.len()
    );
    let per_prog: Vec<Totals> = d.totals.iter().map(Totals::sum).collect();
    for (t, insts) in per_prog.iter().zip(&ops) {
        println!("  {:<34} {:>7} ops, mean {:.4} ms", insts[0].program, t.ops, t.mean_ms());
    }
    if !trace {
        // each program's mean latency over its successful ops, geometric
        // mean over programs
        let ln_mean: f64 = per_prog.iter().map(|t| (ms(t.ok_ns) / t.ok as f64).ln()).sum();
        let m = Measured {
            setup: &setup,
            mean_ms: (ln_mean / ops.len() as f64).exp(),
            ops_per_s: all.ok as f64 / d.wall_s,
            sim_ips: all.ok_issued as f64 / (all.ok_ns as f64 / 1e9),
            peak_rss_mib,
            latencies: d.latencies,
        };
        end_to_end(&mut r, workload, &m);
        return r;
    }
    let mean = |traced: usize| Totals::sum(d.totals.iter().map(|t| &t[traced])).mean_ms();
    let overhead_us = (mean(1) - mean(0)) * 1e3;
    println!("tracing overhead: traced minus untraced op mean = {:.4} ms", overhead_us / 1e3);
    let traced: Vec<&Outcome> = d.traced.iter().collect();
    layer_metrics(&mut r, rec.spans(), &traced, overhead_us);
    write_spans(workload, rec.spans());
    r
}

fn write_spans(workload: &str, spans: &[Span]) {
    let path = PathBuf::from(SCRATCH).join(format!("spans-{workload}.csv"));
    match trace::write_spans(&path, spans) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => println!("warning: spans not written to {}: {e}", path.display()),
    }
}

fn serve_workload(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut r = Report::default();
    let scratch = PathBuf::from(SCRATCH).join(format!("registry-{}", std::process::id()));
    let mut setup_times = Vec::new();
    let mut setup = None;
    for k in 0..SETUP_REPEATS {
        drop(setup.take());
        let t0 = Instant::now();
        match serve::Setup::new(&scratch.join(k.to_string()), seed, seconds) {
            Ok(s) => setup = Some(s),
            Err(e) => {
                r.count(Some(&format!("setup: {e}")));
                return r;
            }
        }
        setup_times.push(t0.elapsed());
    }
    let setup = setup.expect("set up at least once");
    print_geometry([MachineConfig::new(sim::PES)]);
    println!(
        "registry_serve: {} workers, {} client connections, open loop at {:.2} req/s ({} requests scheduled), writer every {} ms",
        serve::WORKERS,
        serve::CLIENTS,
        serve::offered_rate(),
        setup.schedule.len(),
        serve::WRITE_PERIOD.as_millis()
    );
    for w in &setup.writes {
        r.count(w.error.as_ref());
    }
    for e in &setup.warm_errors {
        r.count(Some(e));
    }
    let timed = serve::run(&setup, seconds, trace);
    let peak_rss_mib = peak_rss_mib();
    for q in &timed.requests {
        r.count(q.error.as_ref());
    }
    for w in &timed.writes {
        r.count(w.error.as_ref());
    }
    // the server's own request count must match the client's; its
    // counter moves just after the response is written, so let the last
    // increments land
    // warm-up sent one request per route
    let sent = (serve::Route::ALL.len() + timed.requests.len()) as u64;
    let mut served = setup.served_requests();
    for earlier in 1..=20 {
        if served.as_ref().is_ok_and(|&n| n == sent) {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
        // the earlier fetches of /metrics are counted too
        served = setup.served_requests().map(|n| n.saturating_sub(earlier));
    }
    let served_check = match &served {
        Ok(n) if *n == sent => None,
        Ok(n) => Some(format!("server reports {n} requests, client sent {sent}")),
        Err(e) => Some(format!("final /metrics: {e}")),
    };
    r.count(served_check.as_ref());
    if trace {
        match setup.healthz_back_to_back(HEALTHZ_BACK_TO_BACK) {
            Ok(w) => println!(
                "serve.req_ms.healthz_back_to_back: p50 {:.4} ms over {} requests",
                p50_ms(&w),
                w.len()
            ),
            Err(e) => r.count(Some(&format!("back-to-back /healthz: {e}"))),
        }
    }
    let runs = setup.runs();
    drop(setup);
    let _ = std::fs::remove_dir_all(&scratch);

    let ok_reqs = timed.requests.iter().filter(|q| q.error.is_none()).count() as u64;
    print_serve_layers(&timed, served.ok(), sent, runs);
    // the staged records carry the writer's simulation; a `cmd_run` record
    // is mostly registry I/O around a 9-instruction program. The writer
    // shares two cores with the server and the clients, and how many of
    // its records they preempt changes from run to run, so the rate is
    // taken at the median record: issued per record / median wall time
    let staged_ok: Vec<&serve::WriteSample> =
        timed.writes.iter().filter(|w| w.error.is_none() && !w.cli).collect();
    let issued = staged_ok.iter().map(|w| w.issued).sum::<u64>() as f64 / staged_ok.len() as f64;
    let walls: Vec<u64> = staged_ok.iter().map(|w| w.wall_ns).collect();
    let sim_ips = issued / (p50_ms(&walls) / 1e3);
    if !trace {
        let walls_ns: Vec<u64> = timed.requests.iter().map(|q| q.latency_ns).collect();
        let mut latencies = stats::Histogram::default();
        walls_ns.iter().for_each(|&ns| latencies.push(ns));
        let m = Measured {
            setup: &setup_times,
            mean_ms: mean_ms(&walls_ns),
            latencies,
            ops_per_s: ok_reqs as f64 / timed.wall_s,
            sim_ips,
            peak_rss_mib,
        };
        end_to_end(&mut r, "registry_serve", &m);
        return r;
    }
    let mean = |traced: bool| {
        let w: Vec<u64> =
            timed.requests.iter().filter(|q| q.traced == traced).map(|q| q.latency_ns).collect();
        mean_ms(&w)
    };
    let overhead_us = (mean(true) - mean(false)) * 1e3;
    println!("tracing overhead: traced minus untraced op mean = {:.4} ms", overhead_us / 1e3);
    let client_table = trace::layer_table(&timed.client_spans);
    let req_ns: u64 = timed.client_spans.iter().filter(|s| s.name == OP_SPAN).map(Span::dur).sum();
    print_table("HTTP requests", &client_table, req_ns);
    let staged: Vec<&Outcome> = timed.writes.iter().filter_map(|w| w.outcome.as_ref()).collect();
    println!("(simulator-layer metrics below come from the writer's staged records)");
    layer_metrics(&mut r, &timed.writer_spans, &staged, overhead_us);
    let mut all = timed.writer_spans.clone();
    serve::merge_spans(&mut all, timed.client_spans.clone());
    write_spans("registry_serve", &all);
    r
}

/// The serve-layer figures of `registry_serve` (printed in every run).
fn print_serve_layers(timed: &serve::Timed, served: Option<u64>, sent: u64, runs: usize) {
    println!(
        "serve.requests: {} reported by /metrics, {sent} sent by the client",
        served.map_or("?".into(), |n| n.to_string())
    );
    println!("obs_store.runs: {runs}");
    for route in serve::Route::ALL {
        let w: Vec<u64> =
            timed.requests.iter().filter(|q| q.route == route).map(|q| q.latency_ns).collect();
        let p50 = p50_ms(&w);
        println!("serve.req_ms.{}: p50 {p50:.4} ms over {} requests", route.label(), w.len());
    }
    let list: Vec<u64> = timed.writes.iter().map(|w| w.list_ns).collect();
    println!(
        "obs_store.list_ms: p50 {:.4} ms, last {:.4} ms ({} calls)",
        p50_ms(&list),
        list.last().map_or(f64::NAN, |&n| ms(n)),
        list.len()
    );
    let cli: Vec<u64> = timed.writes.iter().filter(|w| w.cli).map(|w| w.wall_ns).collect();
    println!("cli.run_recorded_ms: p50 {:.4} ms over {} records", p50_ms(&cli), cli.len());
    let staged: Vec<u64> = timed.writes.iter().filter(|w| !w.cli).map(|w| w.wall_ns).collect();
    let (mean, p50) = (mean_ms(&staged), p50_ms(&staged));
    println!("staged_record_ms: mean {mean:.4} ms, p50 {p50:.4} ms over {} records", staged.len());
    let lag: Vec<u64> = timed.requests.iter().map(|q| q.lag_ns).collect();
    println!(
        "bench.gen_lag_ms: p50 {:.4} ms, max {:.4} ms",
        p50_ms(&lag),
        lag.iter().max().map_or(f64::NAN, |&n| ms(n))
    );
}

/// Print the `(program, cycles, issued)` table [`sim::EXPECTED`] holds,
/// measured by running every program once.
fn emit_expected() {
    let mut programs: Vec<SimOp> = Vec::new();
    for (w, _) in WORKLOADS.iter().filter(|w| w.0 != "registry_serve") {
        for insts in sim::build(w, 1).expect("known workload") {
            programs.push(insts[0].clone());
        }
    }
    let mut rng = rng::SplitMix64::new(1, "emit");
    programs.push(sim::relax_op(&mut rng));
    for op in &programs {
        let o = sim::run_op(op, &mut Off, None);
        println!("    (\"{}\", {}, {}),", op.program, o.counters.cycles, o.counters.issued);
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let set: Vec<&str> =
        STRATEGY_VARS.into_iter().filter(|v| std::env::var_os(v).is_some()).collect();
    if !set.is_empty() {
        eprintln!(
            "hostbench: refusing to run with execution-strategy overrides set: {}",
            set.join(", ")
        );
        std::process::exit(2);
    }
    if args.emit_expected {
        emit_expected();
        return;
    }
    println!(
        "hostbench: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let report = if args.workload == "registry_serve" {
        serve_workload(args.seed, args.seconds, args.trace)
    } else {
        sim_workload(&args.workload, args.seed, args.seconds, args.trace)
    };
    for e in report.errors.iter().take(20) {
        println!("FAILED: {e}");
    }
    println!(
        "checked {} ops: {} failed (failed_frac {})",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for (name, value, unit) in &report.metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    println!("{}", report.json());
    std::process::exit(if report.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run_seconds` of `BENCHMARK.json`.
    const RUN_SECONDS: f64 = 55.0;

    #[test]
    fn same_seed_gives_identical_inputs() {
        for (w, _) in WORKLOADS.iter().filter(|w| w.0 != "registry_serve") {
            let a = sim::build(w, 42).unwrap();
            assert!(a == sim::build(w, 42).unwrap(), "{w}: inputs differ for one seed");
            assert!(a != sim::build(w, 43).unwrap(), "{w}: inputs ignore the seed");
        }
        let ids: Vec<String> = (0..5).map(|i| format!("RUN{i}")).collect();
        assert_eq!(serve::schedule(42, 3.0, &ids), serve::schedule(42, 3.0, &ids));
        assert_eq!(serve::WriterInputs::new(42), serve::WriterInputs::new(42));
        assert_ne!(serve::WriterInputs::new(42), serve::WriterInputs::new(43));
    }

    #[test]
    fn injected_wrong_result_counts_as_failed() {
        let mut ops = sim::build("kernel_calls", 7).unwrap();
        // a wrong expected value: every op of that instance must fail
        ops[0][0].expect[0] ^= 1;
        let (programs, instances) = (ops.len(), ops[0].len());
        let mut rec = Recorder::new(Instant::now(), 0);
        let d = drive(&ops, 0.2, false, &mut rec);
        let n = d.all().ops as usize;
        assert!(n > programs * instances, "the loop ran past the first round");
        let wrong = (0..n).filter(|i| i % programs == 0 && (i / programs) % instances == 0).count();
        let mut r = Report::default();
        r.absorb(n as u64, &d.errors);
        assert_eq!(r.failed, wrong as u64, "{:?}", r.errors);
        assert_eq!(d.all().ok as usize + wrong, n);
        assert_eq!(d.latencies.count(), n);
        assert!(r.errors[0].contains("wrong result"), "{}", r.errors[0]);
        assert!(!r.correct());
        assert!(r.json().starts_with("{\"correct\": false,"));
    }

    #[test]
    fn fixed_tails_follow_the_rule_for_registry_serve() {
        let tail = WORKLOADS.iter().find(|w| w.0 == "registry_serve").unwrap().1;
        let ids: Vec<String> = (0..5).map(|i| format!("RUN{i}")).collect();
        // fewest requests a schedule can hold: every client's phase late
        let fewest: f64 = serve::POLLERS
            .iter()
            .map(|p| p.clients as f64 * (RUN_SECONDS / p.period.as_secs_f64()).floor())
            .sum();
        assert_eq!(stats::select_tail(fewest as usize), Some(tail));
        for seed in 0..50 {
            let n = serve::schedule(seed, RUN_SECONDS, &ids).len();
            assert_eq!(stats::select_tail(n), Some(tail), "seed {seed}: {n} requests");
        }
    }

    #[test]
    fn arguments_are_validated() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload kernel_calls --seed 3 --seconds 10 --trace 1").unwrap();
        let got = (a.workload.as_str(), a.seed, a.seconds, a.trace);
        assert_eq!(got, ("kernel_calls", 3, 10.0, true));
        assert!(parse("--workload nope --seed 3 --seconds 10 --trace 1").is_err());
        assert!(parse("--workload kernel_calls --seconds 10 --trace 1").is_err());
        assert!(parse("--workload kernel_calls --seed 3 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload kernel_calls --seed 3 --seconds 0 --trace 0").is_err());
    }
}
