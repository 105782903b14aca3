#![warn(missing_docs)]

//! # asc-serve — `mtasc serve`, the HTTP observability daemon
//!
//! A zero-external-dependency HTTP/1.1 server over the persistent run
//! registry (`asc-obs-store`): everything `mtasc runs` can tell you,
//! served read-only over a socket so dashboards, scrapers, and curious
//! humans can watch simulations without shelling into the box.
//!
//! The server is hand-rolled on `std::net::TcpListener` plus a fixed
//! worker-thread pool — no async runtime, no HTTP framework — because
//! the workload is tiny JSON documents and the registry is append-only
//! files. Endpoints (all `GET`):
//!
//! | Route | Serves |
//! |---|---|
//! | `/api/v1/runs` | run listing; `?status=`, `?program=`, `?limit=`, `?offset=` — byte-for-byte the `mtasc runs list --json` document |
//! | `/api/v1/runs/<id>` | one manifest (`mtasc.run_meta.v1`), unique-prefix resolved |
//! | `/api/v1/runs/<id>/report` | the recorded `report.json` verbatim |
//! | `/api/v1/runs/<id>/profile` | the recorded `profile.json` verbatim |
//! | `/api/v1/runs/<id>/progress` | Server-Sent Events stream of `mtasc.progress.v1` heartbeats — live runs stream until the final sample, finished runs replay and close |
//! | `/api/v1/runs/<a>/diff/<b>` | stats diff between two recorded runs (`mtasc.stats_diff.v1`), `?fail-on-regress=PCT` sets the gate |
//! | `/metrics` | Prometheus exposition: registry metrics plus the server's own request counters |
//! | `/healthz` | liveness probe |
//! | `/` | embedded single-page dashboard (no build step, no CDN) |
//!
//! Every connection is `Connection: close` — one request, one response
//! — which keeps the concurrency story exactly as simple as the thread
//! pool. The accept loop sleeps in `poll(2)` on the listener and wakes
//! the moment a connection arrives. Shutdown is an [`AtomicBool`]: flip
//! it (the CLI wires SIGINT / SIGTERM to it) and the loop notices within
//! one bounded wait — at once for a signal, which interrupts the wait —
//! then drains the pool and returns.
//!
//! Every route reads the registry through one shared incremental index
//! reader ([`IndexWatcher`]): a request folds in only the index lines
//! appended since the last one, then lists, resolves or exports from
//! that view without cloning it.

mod http;

pub use http::{percent_decode, Request, Response, ThreadPool};

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use asc_core::obs::{diff_registries, diff_to_json, Histogram, Json, Profile, Registry, RunReport};
use asc_obs_store::{
    filter_list, list_to_json, prometheus_text, resolve_in, HeartbeatTail, IndexWatcher, Resolve,
    RunMeta, RunStatus, RunStore, HEARTBEAT_FILE, META_FILE,
};

/// Schema id for the HTTP surface: the route shapes and document
/// contracts documented on this crate. Listed by `mtasc --version`.
pub const HTTP_SCHEMA: &str = "mtasc.http.v1";

/// Bucket edges (milliseconds) for the request-duration histogram.
const DURATION_BUCKETS_MS: [u64; 12] = [1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000];

/// Longest one accept-loop wait lasts: how late the loop can notice a
/// shutdown flag flipped without a signal, and how long it backs off
/// when accepting fails for want of file descriptors.
const ACCEPT_WAIT: Duration = Duration::from_millis(100);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Listen address, e.g. `127.0.0.1:7878`; port `0` picks an
    /// ephemeral port (read it back from [`Server::local_addr`]).
    pub addr: String,
    /// Registry root; defaults to [`RunStore::default_root`].
    pub runs_dir: Option<PathBuf>,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Poll cadence for SSE heartbeat tailing, milliseconds.
    pub sse_poll_ms: u64,
}

impl Default for ServeOpts {
    fn default() -> ServeOpts {
        ServeOpts { addr: "127.0.0.1:7878".into(), runs_dir: None, workers: 4, sse_poll_ms: 100 }
    }
}

/// Shared per-server state: the registry root, the incremental index
/// reader, self-metrics, and the shutdown flag.
struct Shared {
    root: PathBuf,
    watcher: Mutex<IndexWatcher>,
    sse_poll_ms: u64,
    shutdown: Arc<AtomicBool>,
    metrics: ServerMetrics,
}

/// The server's own observability: request counts by route pattern and
/// status, an in-flight gauge, and a handling-duration histogram — all
/// exposed on `/metrics` next to the registry metrics.
struct ServerMetrics {
    requests: Mutex<BTreeMap<(&'static str, u16), u64>>,
    in_flight: AtomicI64,
    duration_ms: Mutex<Histogram>,
}

impl ServerMetrics {
    fn new() -> ServerMetrics {
        ServerMetrics {
            requests: Mutex::new(BTreeMap::new()),
            in_flight: AtomicI64::new(0),
            duration_ms: Mutex::new(Histogram::new(&DURATION_BUCKETS_MS)),
        }
    }

    fn record(&self, route: &'static str, status: u16, elapsed: Duration) {
        if let Ok(mut requests) = self.requests.lock() {
            *requests.entry((route, status)).or_insert(0) += 1;
        }
        if let Ok(mut h) = self.duration_ms.lock() {
            h.record(elapsed.as_millis() as u64);
        }
    }

    /// Prometheus exposition of the self-metrics.
    fn exposition(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "# HELP mtasc_http_requests_total HTTP requests served, by route pattern and status.\n",
        );
        out.push_str("# TYPE mtasc_http_requests_total counter\n");
        if let Ok(requests) = self.requests.lock() {
            for (&(route, status), &n) in requests.iter() {
                out.push_str(&format!(
                    "mtasc_http_requests_total{{route=\"{route}\",status=\"{status}\"}} {n}\n"
                ));
            }
        }
        out.push_str("# HELP mtasc_http_in_flight_requests Requests currently being handled.\n");
        out.push_str("# TYPE mtasc_http_in_flight_requests gauge\n");
        out.push_str(&format!(
            "mtasc_http_in_flight_requests {}\n",
            self.in_flight.load(Ordering::SeqCst)
        ));
        out.push_str(
            "# HELP mtasc_http_request_duration_ms Request handling time, milliseconds.\n",
        );
        out.push_str("# TYPE mtasc_http_request_duration_ms histogram\n");
        if let Ok(h) = self.duration_ms.lock() {
            let mut cumulative = 0;
            for (bound, count) in h.buckets() {
                cumulative += count;
                let le = if bound == u64::MAX { "+Inf".to_string() } else { bound.to_string() };
                out.push_str(&format!(
                    "mtasc_http_request_duration_ms_bucket{{le=\"{le}\"}} {cumulative}\n"
                ));
            }
            out.push_str(&format!("mtasc_http_request_duration_ms_sum {}\n", h.sum()));
            out.push_str(&format!("mtasc_http_request_duration_ms_count {}\n", h.count()));
        }
        out
    }
}

/// A bound observability server. [`Server::bind`] claims the socket
/// (so the caller can learn the ephemeral port before serving) and
/// [`Server::run`] blocks in the accept loop until the shutdown flag
/// flips.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    workers: usize,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listen socket and resolve the registry root. Does not
    /// accept connections yet.
    pub fn bind(opts: &ServeOpts) -> io::Result<Server> {
        let root = opts.runs_dir.clone().unwrap_or_else(RunStore::default_root);
        let listener = TcpListener::bind(&opts.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            watcher: Mutex::new(IndexWatcher::new(&root)),
            root,
            sse_poll_ms: opts.sse_poll_ms.max(10),
            shutdown: Arc::new(AtomicBool::new(false)),
            metrics: ServerMetrics::new(),
        });
        Ok(Server { listener, local_addr, workers: opts.workers, shared })
    }

    /// The bound address (resolves port `0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The registry root this server reads.
    pub fn root(&self) -> &Path {
        &self.shared.root
    }

    /// Flag that stops [`Server::run`]: store `true` (from a signal
    /// handler, another thread, anywhere) and the accept loop exits
    /// after draining in-flight requests.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shared.shutdown)
    }

    /// Serve until the shutdown flag flips. When no connection is
    /// pending the loop waits on the listener and wakes as one arrives;
    /// each wait is bounded by a fixed timeout (100ms), so the flag is
    /// observed within it, and SIGINT/SIGTERM cut the wait short. A
    /// failed accept stops the server only when the listener itself is
    /// broken; a failed connection is skipped, and running out of file
    /// descriptors backs off one wait and retries. Dropping the worker
    /// pool on the way out joins every in-flight request.
    pub fn run(&self) -> io::Result<()> {
        let pool = ThreadPool::new(self.workers);
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(&self.shared);
                    pool.execute(move || handle_connection(stream, &shared));
                }
                Err(e) => match AcceptFailure::of(&e) {
                    AcceptFailure::Idle => wait_readable(Some(&self.listener), ACCEPT_WAIT),
                    AcceptFailure::Skip => {}
                    AcceptFailure::Exhausted => wait_readable(None, ACCEPT_WAIT),
                    AcceptFailure::Fatal => return Err(e),
                },
            }
        }
        drop(pool); // barrier: joins workers, finishing in-flight requests
        Ok(())
    }
}

/// What a failed `accept()` means for the accept loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AcceptFailure {
    /// No connection is pending (or a signal interrupted the call):
    /// wait for the listener to become readable.
    Idle,
    /// One connection failed before it was accepted — the client reset
    /// it, a firewall refused it, the network under it went away. Skip
    /// it and accept the next.
    Skip,
    /// The process or the system is out of file descriptors or buffer
    /// memory. Pending connections stay queued; wait, then retry.
    Exhausted,
    /// The listener itself is unusable: stop serving.
    Fatal,
}

impl AcceptFailure {
    /// Classify an `accept()` error.
    fn of(e: &io::Error) -> AcceptFailure {
        use io::ErrorKind::*;
        // EMFILE, ENFILE, ENOBUFS: no stable `ErrorKind` names them
        #[cfg(any(target_os = "linux", target_os = "android"))]
        const OUT_OF_DESCRIPTORS: [i32; 3] = [24, 23, 105];
        #[cfg(not(any(target_os = "linux", target_os = "android")))]
        const OUT_OF_DESCRIPTORS: [i32; 3] = [24, 23, 55];
        match e.kind() {
            WouldBlock | Interrupted => AcceptFailure::Idle,
            ConnectionAborted | ConnectionReset | ConnectionRefused | PermissionDenied
            | TimedOut | HostUnreachable | NetworkUnreachable | NetworkDown => AcceptFailure::Skip,
            OutOfMemory => AcceptFailure::Exhausted,
            _ if e.raw_os_error().is_some_and(|n| OUT_OF_DESCRIPTORS.contains(&n)) => {
                AcceptFailure::Exhausted
            }
            _ => AcceptFailure::Fatal,
        }
    }
}

/// Block until `listener` has a connection to accept, a signal arrives,
/// or `timeout` passes — whichever is first. With no listener it is a
/// sleep that a signal cuts short. Uses raw `poll(2)` through libc's
/// ABI, as [`install_signal_shutdown`] uses `signal(2)`; SIGINT/SIGTERM
/// interrupt `poll` even when handlers ask for restarted system calls.
#[cfg(unix)]
fn wait_readable(listener: Option<&TcpListener>, timeout: Duration) {
    use std::os::unix::io::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NFds = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NFds = std::os::raw::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 0x1;
    // poll(2) ignores an entry with a negative fd and just waits
    let fd = listener.map_or(-1, |l| l.as_raw_fd());
    let mut entry = PollFd { fd, events: POLLIN, revents: 0 };
    let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
    // SAFETY: `entry` is a live, `#[repr(C)]` pollfd for the whole call,
    // nfds is 1, and poll(2) keeps no pointer to it after returning.
    let ready = unsafe { poll(&mut entry, 1, timeout_ms) };
    if ready < 0 && io::Error::last_os_error().kind() != io::ErrorKind::Interrupted {
        // poll itself failed: wait the timeout out rather than spin
        thread::sleep(timeout);
    }
}

/// Non-unix targets keep a short sleep-and-retry loop.
#[cfg(not(unix))]
fn wait_readable(_listener: Option<&TcpListener>, _timeout: Duration) {
    thread::sleep(Duration::from_millis(20));
}

/// Install SIGINT/SIGTERM handlers that store `true` into `flag`, so a
/// foreground `mtasc serve` exits cleanly on Ctrl-C or `kill`. Uses raw
/// `signal(2)` through libc's ABI — the handler only touches an atomic,
/// which is async-signal-safe.
#[cfg(unix)]
pub fn install_signal_shutdown(flag: Arc<AtomicBool>) {
    use std::sync::OnceLock;
    static SIGNAL_FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();
    extern "C" fn on_signal(_signum: i32) {
        if let Some(flag) = SIGNAL_FLAG.get() {
            flag.store(true, Ordering::SeqCst);
        }
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let _ = SIGNAL_FLAG.set(flag);
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// No-op on non-unix targets; `mtasc serve` still stops via the
/// shutdown flag, just not from signals.
#[cfg(not(unix))]
pub fn install_signal_shutdown(_flag: Arc<AtomicBool>) {}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    // The listener is nonblocking; make sure the accepted socket isn't.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    shared.metrics.in_flight.fetch_add(1, Ordering::SeqCst);
    let started = Instant::now();
    let (route, status) = serve_one(&mut stream, shared);
    shared.metrics.in_flight.fetch_sub(1, Ordering::SeqCst);
    if status != 0 {
        shared.metrics.record(route, status, started.elapsed());
    }
}

/// Handle one request on an accepted connection; returns the route
/// pattern and status for the self-metrics (status 0 = nothing served:
/// the client connected and went away).
fn serve_one(stream: &mut TcpStream, shared: &Shared) -> (&'static str, u16) {
    let req = match Request::read(stream) {
        Ok(Some(req)) => req,
        Ok(None) => return ("none", 0),
        Err(e) => {
            let resp = Response::error(400, &e.to_string());
            let _ = resp.write_to(stream);
            return ("none", 400);
        }
    };
    if req.method != "GET" {
        let resp = Response::error(405, "only GET is supported");
        let _ = resp.write_to(stream);
        return ("none", 405);
    }
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let (route, result) = match segments.as_slice() {
        [] => ("/", Ok(dashboard())),
        ["healthz"] => ("/healthz", healthz(shared)),
        ["metrics"] => ("/metrics", metrics(shared)),
        ["api", "v1", "runs"] => ("/api/v1/runs", list_runs(shared, &req)),
        ["api", "v1", "runs", id] => ("/api/v1/runs/{id}", show_run(shared, id)),
        ["api", "v1", "runs", id, "report"] => {
            ("/api/v1/runs/{id}/report", run_artifact(shared, id, "report.json"))
        }
        ["api", "v1", "runs", id, "profile"] => {
            ("/api/v1/runs/{id}/profile", run_artifact(shared, id, "profile.json"))
        }
        ["api", "v1", "runs", id, "progress"] => {
            // SSE: streams on the connection itself, bypassing Response.
            let status = stream_progress(stream, shared, id);
            return ("/api/v1/runs/{id}/progress", status);
        }
        ["api", "v1", "runs", a, "diff", b] => {
            ("/api/v1/runs/{a}/diff/{b}", diff_runs(shared, &req, a, b))
        }
        _ => ("none", Err(Response::error(404, &format!("no route for {}", req.path)))),
    };
    let resp = result.unwrap_or_else(|e| e);
    let status = resp.status;
    let _ = resp.write_to(stream);
    (route, status)
}

/// Handlers return `Err(Response)` for error responses so `?` keeps the
/// happy path linear.
type Handled = Result<Response, Response>;

fn dashboard() -> Response {
    Response::ok("text/html; charset=utf-8", include_str!("dashboard.html"))
}

fn healthz(shared: &Shared) -> Handled {
    let doc = Json::Obj(vec![
        ("schema".into(), Json::str(HTTP_SCHEMA)),
        ("status".into(), Json::str("ok")),
        ("runs_root".into(), Json::str(shared.root.display().to_string())),
    ]);
    Ok(Response::json(200, doc.to_compact() + "\n"))
}

/// Bring the shared index view up to date and run `f` over it (newest
/// first). The view is borrowed under the watcher's lock, so `f` should
/// copy out only what the response needs.
fn with_runs<T>(shared: &Shared, f: impl FnOnce(&[RunMeta]) -> T) -> Result<T, Response> {
    let mut watcher =
        shared.watcher.lock().map_err(|_| Response::error(500, "index watcher poisoned"))?;
    let (metas, _skipped) =
        watcher.poll().map_err(|e| Response::error(500, &format!("reading index: {e}")))?;
    Ok(f(metas))
}

fn metrics(shared: &Shared) -> Handled {
    let mut body = with_runs(shared, prometheus_text)?;
    body.push_str(&shared.metrics.exposition());
    Ok(Response::ok("text/plain; version=0.0.4; charset=utf-8", body))
}

fn list_runs(shared: &Shared, req: &Request) -> Handled {
    let status = match req.query_param("status") {
        None => None,
        Some(label) => Some(
            RunStatus::from_label(label)
                .ok_or_else(|| Response::error(400, &format!("unknown status `{label}`")))?,
        ),
    };
    let limit = parse_query_usize(req, "limit")?;
    let offset = parse_query_usize(req, "offset")?.unwrap_or(0);
    let program = req.query_param("program");
    let (page, _total) =
        with_runs(shared, |metas| filter_list(metas, status, program, limit, offset))?;
    // Byte-for-byte the `mtasc runs list --json` document.
    Ok(Response::json(200, list_to_json(&page).to_pretty() + "\n"))
}

fn parse_query_usize(req: &Request, name: &str) -> Result<Option<usize>, Response> {
    match req.query_param(name) {
        None => Ok(None),
        Some(raw) => raw.parse().map(Some).map_err(|_| {
            Response::error(400, &format!("`{name}` must be an integer, got `{raw}`"))
        }),
    }
}

/// Resolve a run id prefix to exactly one manifest in the shared view.
fn resolve(shared: &Shared, query: &str) -> Result<RunMeta, Response> {
    resolved(with_runs(shared, |metas| resolve_in(metas, query))?, query)
}

/// Turn a resolution into the manifest or the error response.
fn resolved(resolution: Resolve, query: &str) -> Result<RunMeta, Response> {
    match resolution {
        Resolve::One(meta) => Ok(*meta),
        Resolve::Ambiguous(ids) => Err(Response::error(
            409,
            &format!("run id `{query}` is ambiguous; it matches: {}", ids.join(", ")),
        )),
        Resolve::NotFound => Err(Response::error(404, &format!("no run matching `{query}`"))),
    }
}

fn show_run(shared: &Shared, id: &str) -> Handled {
    let meta = resolve(shared, id)?;
    Ok(Response::json(200, meta.to_json().to_pretty() + "\n"))
}

fn run_artifact(shared: &Shared, id: &str, name: &str) -> Handled {
    let meta = resolve(shared, id)?;
    let path = shared.root.join(&meta.id).join(name);
    match std::fs::read(&path) {
        Ok(body) => Ok(Response { status: 200, content_type: "application/json", body }),
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            Err(Response::error(404, &format!("run {} recorded no {name}", meta.id)))
        }
        Err(e) => Err(Response::error(500, &format!("{}: {e}", path.display()))),
    }
}

/// Load the diffable metrics registry a run recorded: `report.json`
/// first, else `profile.json` (mirrors `mtasc stats diff`'s run-id
/// resolution).
fn load_run_registry(dir: &Path, id: &str) -> Result<(&'static str, Registry), Response> {
    for (name, kind) in [("report.json", "run report"), ("profile.json", "profile")] {
        let path = dir.join(name);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(Response::error(500, &format!("{}: {e}", path.display()))),
        };
        let v = Json::parse(&text)
            .map_err(|e| Response::error(500, &format!("{}: {e}", path.display())))?;
        let reg = match kind {
            "run report" => RunReport::from_json(&v).map(|r| r.metrics),
            _ => Profile::from_json(&v).map(|p| p.summary_registry()),
        };
        match reg {
            Some(reg) => return Ok((kind, reg)),
            None => {
                return Err(Response::error(500, &format!("{}: malformed {kind}", path.display())))
            }
        }
    }
    Err(Response::error(404, &format!("run {id} recorded neither report.json nor profile.json")))
}

fn diff_runs(shared: &Shared, req: &Request, a: &str, b: &str) -> Handled {
    let threshold = match req.query_param("fail-on-regress") {
        None => 0.0,
        Some(raw) => raw.parse::<f64>().map_err(|_| {
            Response::error(400, &format!("`fail-on-regress` must be a number, got `{raw}`"))
        })?,
    };
    // both operands resolve against one view of the index
    let (found_a, found_b) =
        with_runs(shared, |metas| (resolve_in(metas, a), resolve_in(metas, b)))?;
    let meta_a = resolved(found_a, a)?;
    let meta_b = resolved(found_b, b)?;
    let (kind_a, reg_a) = load_run_registry(&shared.root.join(&meta_a.id), &meta_a.id)?;
    let (kind_b, reg_b) = load_run_registry(&shared.root.join(&meta_b.id), &meta_b.id)?;
    if kind_a != kind_b {
        return Err(Response::error(
            409,
            &format!("cannot diff a {kind_a} ({}) against a {kind_b} ({})", meta_a.id, meta_b.id),
        ));
    }
    let entries = diff_registries(&reg_a, &reg_b);
    let mut doc = diff_to_json(kind_a, &entries, threshold);
    if let Json::Obj(pairs) = &mut doc {
        // identify the operands right after the schema field
        pairs.insert(1, ("a".into(), Json::str(&meta_a.id)));
        pairs.insert(2, ("b".into(), Json::str(&meta_b.id)));
    }
    Ok(Response::json(200, doc.to_pretty() + "\n"))
}

/// Stream a run's heartbeats as Server-Sent Events. Finished runs
/// replay their recorded samples and close; live runs keep tailing
/// until the final sample lands, the run's manifest leaves `Running`,
/// or the server shuts down. Returns the status for the self-metrics.
fn stream_progress(stream: &mut TcpStream, shared: &Shared, id: &str) -> u16 {
    let meta = match resolve(shared, id) {
        Ok(found) => found,
        Err(resp) => {
            let status = resp.status;
            let _ = resp.write_to(stream);
            return status;
        }
    };
    if http::write_stream_head(stream, "text/event-stream").is_err() {
        return 0;
    }
    let dir = shared.root.join(&meta.id);
    let mut tail = HeartbeatTail::new(dir.join(HEARTBEAT_FILE));
    let mut live = meta.status == RunStatus::Running;
    while let Ok(batch) = tail.poll() {
        for sample in &batch.samples {
            let event = format!("event: progress\ndata: {}\n\n", sample.to_json().to_compact());
            if stream.write_all(event.as_bytes()).is_err() {
                return 200; // client went away mid-stream
            }
            if sample.final_sample {
                live = false;
            }
        }
        if stream.flush().is_err() {
            return 200;
        }
        if !live || shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Still running: has the manifest moved on without a final
        // sample (e.g. a fault)? One more drain happens next loop turn
        // because `live` only flips after the re-check.
        match current_status(&dir) {
            Some(RunStatus::Running) | None => {}
            Some(_) => live = false,
        }
        thread::sleep(Duration::from_millis(shared.sse_poll_ms));
    }
    let end = format!(
        "event: end\ndata: {{\"status\":\"{}\"}}\n\n",
        current_status(&dir).unwrap_or(meta.status).label()
    );
    let _ = stream.write_all(end.as_bytes());
    let _ = stream.flush();
    200
}

/// Re-read a run's manifest (in run directory `dir`) for its current
/// status (the index line may lag the manifest during a live run).
fn current_status(dir: &Path) -> Option<RunStatus> {
    let text = std::fs::read_to_string(dir.join(META_FILE)).ok()?;
    RunMeta::parse(&text).ok().map(|m| m.status)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_failures_are_classified_by_kind() {
        use io::ErrorKind::*;
        let class = |kind: io::ErrorKind| AcceptFailure::of(&io::Error::from(kind));
        for kind in [WouldBlock, Interrupted] {
            assert_eq!(class(kind), AcceptFailure::Idle, "{kind:?}");
        }
        for kind in [
            ConnectionAborted,
            ConnectionReset,
            ConnectionRefused,
            PermissionDenied,
            TimedOut,
            HostUnreachable,
            NetworkUnreachable,
            NetworkDown,
        ] {
            assert_eq!(class(kind), AcceptFailure::Skip, "{kind:?}");
        }
        assert_eq!(class(OutOfMemory), AcceptFailure::Exhausted);
        for kind in [InvalidInput, Unsupported, Other, NotFound] {
            assert_eq!(class(kind), AcceptFailure::Fatal, "{kind:?}");
        }
    }

    #[cfg(unix)]
    #[test]
    fn descriptor_exhaustion_waits_instead_of_stopping() {
        // EMFILE and ENFILE share their numbers across unix targets
        for errno in [24, 23] {
            let e = io::Error::from_raw_os_error(errno);
            assert_eq!(AcceptFailure::of(&e), AcceptFailure::Exhausted, "{e}");
        }
        // a broken listener (EBADF, EINVAL) still stops the server
        for errno in [9, 22] {
            let e = io::Error::from_raw_os_error(errno);
            assert_eq!(AcceptFailure::of(&e), AcceptFailure::Fatal, "{e}");
        }
    }

    #[cfg(unix)]
    #[test]
    fn wait_readable_wakes_on_a_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            TcpStream::connect(addr).unwrap()
        });
        let started = Instant::now();
        wait_readable(Some(&listener), Duration::from_secs(5));
        assert!(started.elapsed() < Duration::from_secs(2), "woke on the connection");
        listener.accept().unwrap();
        client.join().unwrap();
        // with nothing to watch it is a bounded sleep
        let started = Instant::now();
        wait_readable(None, Duration::from_millis(30));
        assert!(started.elapsed() >= Duration::from_millis(25));
    }
}
