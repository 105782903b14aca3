//! `registry_serve`: an open-loop HTTP load against an in-process
//! `asc_serve::Server` (2 workers) reading a temporary registry, while a
//! writer keeps recording new runs into it.
//!
//! Setup pre-populates the registry, binds the server and warms every
//! route once. The timed phase replays a seeded schedule of requests
//! from a population of periodic clients ([`POLLERS`]) over two client
//! threads (one connection each); each request is timed from its due
//! time to its last byte. Meanwhile the writer alternates
//! `asc_cli::cmd_run` with `record: true` and a staged record of an ASCL
//! program (the simulator op of [`crate::sim`] plus the registry calls
//! `mtasc run` makes), and times a direct `RunStore::list` after each
//! write.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use asc_core::obs::Json;
use asc_obs_store::RunStore;
use asc_serve::{ServeOpts, Server};

use crate::rng::SplitMix64;
use crate::sim::{self, SimOp};
use crate::trace::{Off, Recorder, Span, Tracer};

/// Runs recorded into the registry before the timed phase.
pub const PREPOPULATE: usize = 40;
/// Pause between writer records (an assumption: fast enough that the
/// index grows several-fold within a run).
pub const WRITE_PERIOD: Duration = Duration::from_millis(100);
/// Open dashboard tabs (an assumption).
pub const VIEWERS: usize = 60;
/// The run list page the dashboard asks for.
pub const LIST_LIMIT: usize = 50;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Client threads (one connection in flight each).
pub const CLIENTS: usize = 2;
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// The six request routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Route {
    /// `/healthz`
    Healthz,
    /// `/api/v1/runs`
    RunsList,
    /// `/api/v1/runs/<id>`
    RunShow,
    /// `/api/v1/runs/<id>/report`
    RunReport,
    /// `/api/v1/runs/<a>/diff/<b>`
    RunDiff,
    /// `/metrics`
    Metrics,
}

impl Route {
    /// All routes, in metric order.
    pub const ALL: [Route; 6] = [
        Route::Healthz,
        Route::RunsList,
        Route::RunShow,
        Route::RunReport,
        Route::RunDiff,
        Route::Metrics,
    ];

    /// Metric-name suffix.
    pub fn label(self) -> &'static str {
        match self {
            Route::Healthz => "healthz",
            Route::RunsList => "runs_list",
            Route::RunShow => "run_show",
            Route::RunReport => "run_report",
            Route::RunDiff => "run_diff",
            Route::Metrics => "metrics",
        }
    }

    fn path(self, rng: &mut SplitMix64, ids: &[String]) -> String {
        let mut id = || ids[rng.range(0, ids.len() as i64 - 1) as usize].clone();
        match self {
            Route::Healthz => "/healthz".into(),
            Route::RunsList => format!("/api/v1/runs?limit={LIST_LIMIT}"),
            Route::RunShow => format!("/api/v1/runs/{}", id()),
            Route::RunReport => format!("/api/v1/runs/{}/report", id()),
            Route::RunDiff => format!("/api/v1/runs/{}/diff/{}", id(), id()),
            Route::Metrics => "/metrics".into(),
        }
    }
}

/// Clients that send one route at a fixed period, each from its own
/// seeded phase.
#[derive(Debug, Clone, Copy)]
pub struct Poller {
    /// Route.
    pub route: Route,
    /// Number of such clients.
    pub clients: usize,
    /// Period of each client.
    pub period: Duration,
}

impl Poller {
    /// Requests per second this population offers.
    pub fn rate(&self) -> f64 {
        self.clients as f64 / self.period.as_secs_f64()
    }
}

/// The client population of `mtasc serve` (README.md gives the source
/// of each figure).
pub const POLLERS: [Poller; 6] = [
    // each dashboard tab fetches /api/v1/runs?limit=50 every 2 s
    // (crates/serve/src/dashboard.html)
    Poller { route: Route::RunsList, clients: VIEWERS, period: Duration::from_secs(2) },
    // assumed: each tab drills into a run every 30 s through the API
    Poller { route: Route::RunShow, clients: VIEWERS, period: Duration::from_secs(30) },
    Poller { route: Route::RunReport, clients: VIEWERS, period: Duration::from_secs(30) },
    Poller { route: Route::RunDiff, clients: VIEWERS, period: Duration::from_secs(30) },
    // assumed: one Prometheus server at a 15 s scrape interval
    Poller { route: Route::Metrics, clients: 1, period: Duration::from_secs(15) },
    // assumed: one liveness probe every 10 s
    Poller { route: Route::Healthz, clients: 1, period: Duration::from_secs(10) },
];

/// Requests per second the whole population offers.
pub fn offered_rate() -> f64 {
    POLLERS.iter().map(Poller::rate).sum()
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Due time after the start of the timed phase, ns.
    pub at_ns: u64,
    /// Route.
    pub route: Route,
    /// Request path.
    pub path: String,
}

/// The seeded request schedule over `seconds`: every client of
/// [`POLLERS`] starts at a seeded phase within its period and then
/// sends at that period.
pub fn schedule(seed: u64, seconds: f64, ids: &[String]) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed, "registry_serve/schedule");
    let end_ns = (seconds * 1e9) as u64;
    let mut out = Vec::new();
    for p in POLLERS {
        let period_ns = p.period.as_nanos() as u64;
        for _ in 0..p.clients {
            let mut at_ns = (rng.unit() * period_ns as f64) as u64;
            while at_ns < end_ns {
                out.push(Arrival { at_ns, route: p.route, path: p.route.path(&mut rng, ids) });
                at_ns += period_ns;
            }
        }
    }
    out.sort_by_key(|a| a.at_ns);
    out
}

/// The writer's seeded programs: `findmax` sources for `cmd_run` and
/// ASCL relaxation ops (compile and host load included) for the staged
/// record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriterInputs {
    findmax: Vec<(String, [u32; 3])>,
    staged: Vec<SimOp>,
}

impl WriterInputs {
    /// Generate from the seed.
    pub fn new(seed: u64) -> WriterInputs {
        let mut rng = SplitMix64::new(seed, "registry_serve/writer");
        WriterInputs {
            findmax: (0..sim::INSTANCES).map(|_| sim::findmax_source(&mut rng)).collect(),
            staged: (0..sim::INSTANCES).map(|_| sim::relax_op(&mut rng)).collect(),
        }
    }
}

/// One writer record.
#[derive(Debug, Clone, Default)]
pub struct WriteSample {
    /// Recorded through `cmd_run` (else staged).
    pub cli: bool,
    /// Wall time of the record, ns.
    pub wall_ns: u64,
    /// Simulated instructions issued.
    pub issued: u64,
    /// The staged op's outcome (staged records only).
    pub outcome: Option<sim::Outcome>,
    /// `RunStore::list` time right after the record, ns.
    pub list_ns: u64,
    /// Failure, if any.
    pub error: Option<String>,
}

/// Record write number `k` (even: `cmd_run`, odd: staged).
fn write_one<T: Tracer>(
    k: usize,
    inputs: &WriterInputs,
    store: &RunStore,
    tr: &mut T,
    op_id: u64,
) -> WriteSample {
    let t0 = Instant::now();
    if k.is_multiple_of(2) {
        let (src, expect) = &inputs.findmax[(k / 2) % inputs.findmax.len()];
        let opts = asc_cli::MachineOpts {
            pes: sim::PES,
            record: true,
            runs_dir: Some(store.root().display().to_string()),
            name: Some("findmax.asc".into()),
            ..asc_cli::MachineOpts::default()
        };
        let out = asc_cli::cmd_run(src, opts);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let (issued, error) = match out {
            Ok(text) => check_cmd_run(&text, expect),
            Err(e) => (0, Some(format!("cmd_run: {e:?}"))),
        };
        WriteSample { cli: true, wall_ns, issued, error, ..WriteSample::default() }
    } else {
        let op = &inputs.staged[(k / 2) % inputs.staged.len()];
        tr.begin_op(op_id, t0);
        let outcome = sim::run_op(op, tr, Some(store));
        let t1 = Instant::now();
        tr.end_op(t1);
        WriteSample {
            cli: false,
            wall_ns: (t1 - t0).as_nanos() as u64,
            issued: outcome.counters.issued,
            error: outcome.error.clone(),
            outcome: Some(outcome),
            ..WriteSample::default()
        }
    }
}

/// Check `mtasc run` output: committed cycles/issued, the three result
/// registers, and the recorded-run line. Returns (issued, error).
fn check_cmd_run(text: &str, expect: &[u32; 3]) -> (u64, Option<String>) {
    let field = |key: &str| -> Option<u64> {
        let line = text.lines().find(|l| l.starts_with("cycles:"))?;
        let rest = &line[line.find(key)? + key.len()..];
        rest.split_whitespace().next()?.parse().ok()
    };
    let reg = |r: usize| -> u32 {
        let tag = format!("s{r} ");
        text.lines()
            .map(str::trim_start)
            .find(|l| l.starts_with(&tag))
            .and_then(|l| l.split('=').nth(1)?.split_whitespace().next()?.parse().ok())
            .unwrap_or(0)
    };
    let (cycles, issued) = match (field("cycles:"), field("issued:")) {
        (Some(c), Some(i)) => (c, i),
        _ => return (0, Some(format!("cmd_run: no cycles line in output:\n{text}"))),
    };
    let got = [reg(1), reg(2), reg(3)];
    if &got != expect {
        return (issued, Some(format!("cmd_run findmax: got {got:?}, expected {expect:?}")));
    }
    match sim::expected_counts("findmax") {
        Some(c) if c == (cycles, issued) => {}
        c => {
            return (
                issued,
                Some(format!("cmd_run findmax: cycles/issued {cycles}/{issued}, committed {c:?}")),
            )
        }
    }
    if !text.lines().any(|l| l.starts_with("recorded run ")) {
        return (issued, Some("cmd_run: run was not recorded".into()));
    }
    (issued, None)
}

/// Removes its directory when dropped.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A populated registry with a running server; dropping it stops and
/// joins the server and removes the registry.
pub struct Setup {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    server: Option<JoinHandle<std::io::Result<()>>>,
    store: RunStore,
    inputs: WriterInputs,
    /// The timed phase's schedule.
    pub schedule: Vec<Arrival>,
    /// Records made during setup (all checked).
    pub writes: Vec<WriteSample>,
    /// Warm-up request failures.
    pub warm_errors: Vec<String>,
    _dir: TmpDir,
}

impl Drop for Setup {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
    }
}

impl Setup {
    /// Build the registry under `scratch` and start the server.
    pub fn new(scratch: &Path, seed: u64, seconds: f64) -> Result<Setup, String> {
        let dir = TmpDir(scratch.to_path_buf());
        let root = dir.0.join("runs");
        let store = RunStore::open(&root).map_err(|e| format!("registry: {e}"))?;
        let inputs = WriterInputs::new(seed);
        let writes: Vec<WriteSample> =
            (0..PREPOPULATE).map(|k| write_one(k, &inputs, &store, &mut Off, 0)).collect();
        let (metas, _) = store.list().map_err(|e| format!("registry list: {e}"))?;
        let ids: Vec<String> = metas.into_iter().map(|m| m.id).collect();
        if ids.len() != PREPOPULATE {
            return Err(format!("registry holds {} runs after {PREPOPULATE} records", ids.len()));
        }
        let opts = ServeOpts {
            addr: "127.0.0.1:0".into(),
            runs_dir: Some(root),
            workers: WORKERS,
            ..ServeOpts::default()
        };
        let server = Server::bind(&opts).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let handle = std::thread::spawn(move || server.run());
        let mut setup = Setup {
            addr,
            shutdown,
            server: Some(handle),
            store,
            inputs,
            schedule: schedule(seed, seconds, &ids),
            writes,
            warm_errors: Vec::new(),
            _dir: dir,
        };
        let mut rng = SplitMix64::new(seed, "registry_serve/warm");
        for route in Route::ALL {
            let path = route.path(&mut rng, &ids);
            if let Err(e) = request(&mut Off, setup.addr, route, &path) {
                setup.warm_errors.push(format!("warm-up {path}: {e}"));
            }
        }
        Ok(setup)
    }

    /// The request count the server reports on `/metrics`.
    pub fn served_requests(&self) -> Result<u64, String> {
        let raw = exchange(self.addr, "/metrics")?;
        let body = check_response(Route::Metrics, &raw)?;
        Ok(body
            .lines()
            .filter(|l| l.starts_with("mtasc_http_requests_total{"))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
            .sum())
    }

    /// Latencies of `n` checked `/healthz` requests sent back to back,
    /// ns: transport and accept with no registry work, each request
    /// arriving just after the accept loop went back to sleep.
    pub fn healthz_back_to_back(&self, n: usize) -> Result<Vec<u64>, String> {
        (0..n)
            .map(|_| {
                let t0 = Instant::now();
                check_response(Route::Healthz, &exchange(self.addr, "/healthz")?)?;
                Ok(t0.elapsed().as_nanos() as u64)
            })
            .collect()
    }

    /// Runs in the registry now.
    pub fn runs(&self) -> usize {
        self.store.list().map(|(m, _)| m.len()).unwrap_or(0)
    }
}

/// One timed request.
#[derive(Debug, Clone)]
pub struct RequestSample {
    /// Route.
    pub route: Route,
    /// Due time to last byte, ns.
    pub latency_ns: u64,
    /// How late the request was sent, ns.
    pub lag_ns: u64,
    /// Traced (trace runs alternate).
    pub traced: bool,
    /// Failure, if any.
    pub error: Option<String>,
}

/// Everything the timed phase produced.
pub struct Timed {
    /// Requests, in completion order per client.
    pub requests: Vec<RequestSample>,
    /// Writer records.
    pub writes: Vec<WriteSample>,
    /// Wall time of the timed phase, s.
    pub wall_s: f64,
    /// Client spans (one op per traced request).
    pub client_spans: Vec<Span>,
    /// Writer spans (one op per staged record).
    pub writer_spans: Vec<Span>,
}

/// Run the timed phase on a set-up server.
pub fn run(setup: &Setup, seconds: f64, trace: bool) -> Timed {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let next = AtomicUsize::new(0);
    let writer_done = AtomicBool::new(false);
    let (client_parts, (writes, writer_spans)) = std::thread::scope(|s| {
        let clients: Vec<_> =
            (0..CLIENTS).map(|_| s.spawn(|| client(setup, start, &next, trace))).collect();
        let writer = s.spawn(|| writer(setup, deadline, &writer_done, trace, start));
        let parts: Vec<_> =
            clients.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        writer_done.store(true, Ordering::SeqCst);
        (parts, writer.join().expect("writer thread panicked"))
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut requests = Vec::new();
    let mut client_spans = Vec::new();
    for (reqs, spans) in client_parts {
        requests.extend(reqs);
        merge_spans(&mut client_spans, spans);
    }
    Timed { requests, writes, wall_s, client_spans, writer_spans }
}

/// Append `spans` to `into`, re-basing their parent indices.
pub fn merge_spans(into: &mut Vec<Span>, spans: Vec<Span>) {
    let base = into.len();
    into.extend(spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }));
}

fn client(
    setup: &Setup,
    start: Instant,
    next: &AtomicUsize,
    trace: bool,
) -> (Vec<RequestSample>, Vec<Span>) {
    let mut rec = Recorder::new(start, if trace { setup.schedule.len() * 4 } else { 0 });
    let mut out = Vec::new();
    loop {
        let k = next.fetch_add(1, Ordering::SeqCst);
        let Some(a) = setup.schedule.get(k) else { break };
        let due = start + Duration::from_nanos(a.at_ns);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let traced = trace && k.is_multiple_of(2);
        let result = if traced {
            rec.begin_op(k as u64, sent);
            let r = request(&mut rec, setup.addr, a.route, &a.path);
            rec.end_op(Instant::now());
            r
        } else {
            request(&mut Off, setup.addr, a.route, &a.path)
        };
        let done = Instant::now();
        out.push(RequestSample {
            route: a.route,
            latency_ns: (done - due).as_nanos() as u64,
            lag_ns: sent.saturating_duration_since(due).as_nanos() as u64,
            traced,
            error: result.err().map(|e| format!("{}: {e}", a.path)),
        });
    }
    let spans = rec.spans().to_vec();
    (out, spans)
}

fn writer(
    setup: &Setup,
    deadline: Instant,
    done: &AtomicBool,
    trace: bool,
    start: Instant,
) -> (Vec<WriteSample>, Vec<Span>) {
    let mut rec = Recorder::new(start, 4096);
    let mut out = Vec::new();
    let mut k = PREPOPULATE;
    let mut next_write = Instant::now();
    while Instant::now() < deadline && !done.load(Ordering::SeqCst) {
        let now = Instant::now();
        if next_write > now {
            std::thread::sleep((next_write - now).min(deadline.saturating_duration_since(now)));
            continue;
        }
        next_write += WRITE_PERIOD;
        let mut w = if trace {
            write_one(k, &setup.inputs, &setup.store, &mut rec, k as u64)
        } else {
            write_one(k, &setup.inputs, &setup.store, &mut Off, k as u64)
        };
        k += 1;
        let t0 = Instant::now();
        let listed = setup.store.list();
        w.list_ns = t0.elapsed().as_nanos() as u64;
        match listed {
            Ok((metas, _)) if metas.len() == k => {}
            Ok((metas, _)) => {
                w.error.get_or_insert(format!("registry lists {} runs after {k}", metas.len()));
            }
            Err(e) => {
                w.error.get_or_insert(format!("registry list: {e}"));
            }
        }
        out.push(w);
    }
    (out, rec.spans().to_vec())
}

/// One request over a fresh connection, checked.
fn request<T: Tracer>(
    tr: &mut T,
    addr: SocketAddr,
    route: Route,
    path: &str,
) -> Result<(), String> {
    let raw = tr.span("serve.exchange", || exchange(addr, path))?;
    tr.span("bench.check", || check_response(route, &raw)).map(|_| ())
}

/// Send `GET path` and read the whole response.
fn exchange(addr: SocketAddr, path: &str) -> Result<Vec<u8>, String> {
    let mut s =
        TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
    s.set_write_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
    let head = format!("GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n");
    s.write_all(head.as_bytes()).map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).map_err(|e| format!("read: {e}"))?;
    Ok(raw)
}

/// Status 200 and a body that parses: JSON for the API routes and
/// `/healthz`, the Prometheus text format for `/metrics`. Returns the
/// body.
pub fn check_response(route: Route, raw: &[u8]) -> Result<String, String> {
    let text = std::str::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("no header terminator")?;
    let status = head.lines().next().and_then(|l| l.split_whitespace().nth(1));
    if status != Some("200") {
        return Err(format!("status {}", status.unwrap_or("?")));
    }
    if route == Route::Metrics {
        for line in body.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
            let value = line.rsplit(' ').next().unwrap_or("");
            if value.parse::<f64>().is_err() && value != "+Inf" {
                return Err(format!("bad exposition line `{line}`"));
            }
        }
    } else {
        let json = Json::parse(body).map_err(|e| format!("body does not parse: {e:?}"))?;
        if route == Route::RunsList {
            let page = json.as_arr().map_or(0, <[Json]>::len);
            if !(LIST_LIMIT.min(PREPOPULATE)..=LIST_LIMIT).contains(&page) {
                return Err(format!("run list page holds {page} runs"));
            }
        }
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_check_wants_200_and_a_parsing_body() {
        let ok = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{\"a\": 1}\n";
        assert!(check_response(Route::Healthz, ok).is_ok());
        let bad_json = b"HTTP/1.1 200 OK\r\n\r\n{\"a\": ";
        let short_page = b"HTTP/1.1 200 OK\r\n\r\n[{}, {}]";
        assert_eq!(
            check_response(Route::RunsList, short_page),
            Err("run list page holds 2 runs".into())
        );
        assert!(check_response(Route::RunShow, bad_json).is_err());
        let not_found = b"HTTP/1.1 404 Not Found\r\n\r\n{}";
        assert_eq!(check_response(Route::RunShow, not_found), Err("status 404".into()));
        let prom = b"HTTP/1.1 200 OK\r\n\r\n# HELP x y\nx{a=\"b\"} 3\nh_bucket{le=\"+Inf\"} 4\n";
        assert!(check_response(Route::Metrics, prom).is_ok());
        let bad_prom = b"HTTP/1.1 200 OK\r\n\r\nx{a=\"b\"} three\n";
        assert!(check_response(Route::Metrics, bad_prom).is_err());
    }

    #[test]
    fn cmd_run_output_is_checked() {
        let text = "machine: 4096 PEs\ncycles: 40  issued: 9 (scalar 1)\n  s1 =     30  (30)\n  s2 =      7  (7)\n  s3 =    136  (136)\n\nrecorded run 01ABC\n";
        let (issued, err) = check_cmd_run(text, &[30, 7, 136]);
        assert_eq!(issued, 9);
        // the counts are checked too: the sample's 40/9 are not committed
        assert!(err.is_some_and(|e| e.contains("committed")));
        let (_, err) = check_cmd_run(text, &[31, 7, 136]);
        assert!(err.is_some_and(|e| e.contains("got [30, 7, 136]")));
    }

    #[test]
    fn schedule_is_seeded_and_periodic() {
        let ids = vec!["A".to_string(), "B".to_string()];
        let a = schedule(5, 25.0, &ids);
        assert_eq!(a, schedule(5, 25.0, &ids));
        assert_ne!(a, schedule(6, 25.0, &ids));
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        for p in POLLERS {
            let n = a.iter().filter(|r| r.route == p.route).count() as f64;
            let per_client = 25.0 / p.period.as_secs_f64();
            let (lo, hi) = (per_client.floor(), per_client.ceil());
            assert!((lo * p.clients as f64..=hi * p.clients as f64).contains(&n), "{p:?}: {n}");
        }
        assert!(a.iter().all(|r| r.path != "/api/v1/runs" && r.path.contains('/')));
        let list = a.iter().find(|r| r.route == Route::RunsList).unwrap();
        assert_eq!(list.path, "/api/v1/runs?limit=50");
    }
}
