//! The on-disk registry: a root directory (default `.mtasc/runs`)
//! holding one subdirectory per run — manifest plus whatever artifacts
//! the invocation wrote (report, profile, trace, heartbeat) — and an
//! append-only `index.jsonl` of manifests.
//!
//! The index is written twice per run: a `running` line at begin and a
//! final line at finish; readers deduplicate by id, **last line wins**
//! (the one fold is [`IndexWatcher`]). A crash between the two leaves an
//! honest `running` entry behind — `runs list` shows it, `runs gc` reaps
//! it. `gc` compacts the index.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use asc_core::obs::Json;

use crate::meta::{RunMeta, RunStatus};
use crate::tail::IndexWatcher;
use crate::ulid::{ulid, unix_ms};

/// Name of the index file under the registry root.
pub const INDEX_FILE: &str = "index.jsonl";

/// Name of the manifest file inside each run directory.
pub const META_FILE: &str = "run_meta.json";

/// Name of the live heartbeat artifact (`mtasc.progress.v1` JSON-Lines).
pub const HEARTBEAT_FILE: &str = "progress.jsonl";

/// Result of resolving a user-supplied run reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolve {
    /// Exactly one run matched.
    One(Box<RunMeta>),
    /// The prefix matched several runs (their ids, newest first).
    Ambiguous(Vec<String>),
    /// Nothing matched.
    NotFound,
}

/// A run registry rooted at a directory.
#[derive(Debug, Clone)]
pub struct RunStore {
    root: PathBuf,
}

impl RunStore {
    /// Open (creating if needed) a registry at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<RunStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(RunStore { root })
    }

    /// The conventional registry location: `$MTASC_RUNS_DIR` if set,
    /// else `.mtasc/runs` under the current directory.
    pub fn default_root() -> PathBuf {
        match std::env::var_os("MTASC_RUNS_DIR") {
            Some(dir) if !dir.is_empty() => PathBuf::from(dir),
            _ => PathBuf::from(".mtasc").join("runs"),
        }
    }

    /// The registry root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory of a run id (not necessarily existing).
    pub fn run_dir(&self, id: &str) -> PathBuf {
        self.root.join(id)
    }

    /// Begin recording a run: stamp id and start time (unless the caller
    /// pre-set them — tests and golden fixtures do, for determinism),
    /// create the run directory, write the manifest, and index the
    /// `running` entry.
    pub fn begin(&self, mut meta: RunMeta) -> io::Result<RunHandle> {
        if meta.id.is_empty() {
            meta.id = ulid();
        }
        if meta.started_unix_ms == 0 {
            meta.started_unix_ms = unix_ms();
        }
        fs::create_dir_all(self.run_dir(&meta.id))?;
        self.write_entry(&meta)?;
        Ok(RunHandle { store: self.clone(), meta })
    }

    /// Record a manifest as-is (both index and run-dir manifest) —
    /// the single-shot form of begin/finish used when the run already
    /// happened.
    pub fn record(&self, meta: &RunMeta) -> io::Result<()> {
        assert!(!meta.id.is_empty(), "record() requires a stamped id");
        fs::create_dir_all(self.run_dir(&meta.id))?;
        self.write_entry(meta)
    }

    /// Write the run-dir manifest and append the index line.
    fn write_entry(&self, meta: &RunMeta) -> io::Result<()> {
        fs::write(self.run_dir(&meta.id).join(META_FILE), meta.to_json().to_pretty())?;
        let mut index =
            fs::OpenOptions::new().create(true).append(true).open(self.root.join(INDEX_FILE))?;
        // one write(2) for the whole line: with O_APPEND that makes the
        // append atomic, so concurrent recorders sharing a registry can
        // never interleave mid-line (writeln! would issue several writes)
        let line = meta.to_json().to_compact() + "\n";
        index.write_all(line.as_bytes())
    }

    /// All recorded runs, newest first (ids are ULIDs, so id order is
    /// creation order). Returns the manifests and how many malformed
    /// index lines were skipped (e.g. a torn write from a crashed run).
    /// A one-shot [`IndexWatcher`] fold over the whole index.
    pub fn list(&self) -> io::Result<(Vec<RunMeta>, usize)> {
        IndexWatcher::read_once(&self.root)
    }

    /// Resolve a user-supplied run reference against the whole index
    /// (see [`resolve_in`]).
    pub fn find(&self, query: &str) -> io::Result<Resolve> {
        let (metas, _) = self.list()?;
        Ok(resolve_in(&metas, query))
    }

    /// Keep the newest `keep` runs; delete every older run's directory
    /// and compact the index to the survivors. Returns the removed ids,
    /// oldest first.
    pub fn gc(&self, keep: usize) -> io::Result<Vec<String>> {
        let (metas, _) = self.list()?;
        let (kept, removed) = metas.split_at(keep.min(metas.len()));
        let mut removed_ids: Vec<String> = removed.iter().map(|m| m.id.clone()).collect();
        removed_ids.reverse();
        for id in &removed_ids {
            let dir = self.run_dir(id);
            if dir.exists() {
                fs::remove_dir_all(&dir)?;
            }
        }
        // compact: rewrite the index with the survivors, oldest first so
        // future appends keep chronological file order. The new index is
        // renamed into place, so readers see the old file or the new one,
        // never a truncated one, and tailers notice the swap.
        let mut out = String::new();
        for meta in kept.iter().rev() {
            out.push_str(&meta.to_json().to_compact());
            out.push('\n');
        }
        let staged = self.root.join(format!("{INDEX_FILE}.gc"));
        fs::write(&staged, out)?;
        fs::rename(&staged, self.root.join(INDEX_FILE))?;
        Ok(removed_ids)
    }

    /// Render the registry in Prometheus text exposition format:
    /// run counts by status plus per-run cycle/issue/IPC gauges for
    /// finished runs.
    pub fn prometheus(&self) -> io::Result<String> {
        let (metas, _) = self.list()?;
        Ok(prometheus_text(&metas))
    }
}

/// Resolve a user-supplied run reference among `metas`: an exact id, or
/// else a unique id prefix (case-insensitive, 4+ characters
/// recommended). The one resolver behind `mtasc runs` and `mtasc serve`.
pub fn resolve_in(metas: &[RunMeta], query: &str) -> Resolve {
    if let Some(m) = metas.iter().find(|m| m.id == query) {
        return Resolve::One(Box::new(m.clone()));
    }
    let hits: Vec<&RunMeta> = metas
        .iter()
        .filter(|m| {
            let id = m.id.as_bytes();
            id.len() >= query.len() && id[..query.len()].eq_ignore_ascii_case(query.as_bytes())
        })
        .collect();
    match hits.as_slice() {
        [] => Resolve::NotFound,
        [one] => Resolve::One(Box::new((*one).clone())),
        many => Resolve::Ambiguous(many.iter().map(|m| m.id.clone()).collect()),
    }
}

/// A run being recorded: the directory is on disk, the index says
/// `running`; call one of the `finish_*` methods when the run ends.
#[derive(Debug)]
pub struct RunHandle {
    store: RunStore,
    meta: RunMeta,
}

impl RunHandle {
    /// The run's registry id.
    pub fn id(&self) -> &str {
        &self.meta.id
    }

    /// The run's directory (exists).
    pub fn dir(&self) -> PathBuf {
        self.store.run_dir(&self.meta.id)
    }

    /// Path for an artifact inside the run directory.
    pub fn artifact_path(&self, name: &str) -> PathBuf {
        self.dir().join(name)
    }

    /// Register an artifact file the caller wrote into the run
    /// directory (deduplicated; recorded at finish).
    pub fn add_artifact(&mut self, name: &str) {
        if !self.meta.artifacts.iter().any(|a| a == name) {
            self.meta.artifacts.push(name.to_string());
        }
    }

    /// The manifest as recorded so far.
    pub fn meta(&self) -> &RunMeta {
        &self.meta
    }

    /// Finish cleanly with the run's totals.
    pub fn finish_ok(mut self, cycles: u64, issued: u64) -> io::Result<RunMeta> {
        self.meta.status = RunStatus::Ok;
        self.meta.cycles = cycles;
        self.meta.issued = issued;
        self.finish()
    }

    /// Finish with a fault description (partial totals are kept).
    pub fn finish_fault(mut self, fault: &str, cycles: u64, issued: u64) -> io::Result<RunMeta> {
        self.meta.status = RunStatus::Fault;
        self.meta.fault = Some(fault.to_string());
        self.meta.cycles = cycles;
        self.meta.issued = issued;
        self.finish()
    }

    fn finish(mut self) -> io::Result<RunMeta> {
        if self.meta.finished_unix_ms.is_none() {
            self.meta.finished_unix_ms = Some(unix_ms().max(self.meta.started_unix_ms));
        }
        self.store.write_entry(&self.meta)?;
        Ok(self.meta)
    }
}

/// The `runs list --json` document: an array of manifests (each a
/// `mtasc.run_meta.v1` object), newest first.
pub fn list_to_json(metas: &[RunMeta]) -> Json {
    Json::Arr(metas.iter().map(RunMeta::to_json).collect())
}

/// The shared filter/paginate pipeline behind `mtasc runs list` and the
/// server's `GET /api/v1/runs` — one implementation so the two surfaces
/// stay byte-for-byte interchangeable. Returns the selected page (the
/// only manifests it clones) and the total number of runs that survived
/// the filters (pre-pagination).
pub fn filter_list(
    metas: &[RunMeta],
    status: Option<RunStatus>,
    program: Option<&str>,
    limit: Option<usize>,
    offset: usize,
) -> (Vec<RunMeta>, usize) {
    let selected = metas.iter().filter(|m| {
        status.is_none_or(|s| m.status == s)
            && program.is_none_or(|q| program_hash_matches(&m.program_hash, q))
    });
    let mut page = Vec::new();
    let mut total = 0;
    for meta in selected {
        if total >= offset && page.len() < limit.unwrap_or(usize::MAX) {
            page.push(meta.clone());
        }
        total += 1;
    }
    (page, total)
}

/// Whether a manifest's program hash matches a user query: the full
/// `fnv1a64:<16 hex>` form, or a (case-insensitive) prefix of the hex
/// digits with or without the algorithm tag.
pub fn program_hash_matches(hash: &str, query: &str) -> bool {
    let hex = hash.strip_prefix("fnv1a64:").unwrap_or(hash);
    let q = query.strip_prefix("fnv1a64:").unwrap_or(query);
    !q.is_empty() && hex.len() >= q.len() && hex[..q.len()].eq_ignore_ascii_case(q)
}

/// Column rendering for `mtasc runs list`.
pub fn render_list(metas: &[RunMeta]) -> String {
    let mut out = String::from(
        "ID                          STATUS   KIND     CYCLES     ISSUED  IPC    NAME\n",
    );
    for m in metas {
        out.push_str(&format!(
            "{:<26}  {:<7}  {:<7}  {:>9}  {:>9}  {:<5}  {}\n",
            m.id,
            m.status.label(),
            m.kind,
            if m.status == RunStatus::Running { "-".to_string() } else { m.cycles.to_string() },
            if m.status == RunStatus::Running { "-".to_string() } else { m.issued.to_string() },
            if m.status == RunStatus::Running {
                "-".to_string()
            } else {
                format!("{:.3}", m.ipc())
            },
            m.name
        ));
    }
    out
}

/// Prometheus text exposition of a manifest list.
pub fn prometheus_text(metas: &[RunMeta]) -> String {
    let mut out = String::new();
    out.push_str("# HELP mtasc_runs_total Recorded runs in the registry, by status.\n");
    out.push_str("# TYPE mtasc_runs_total gauge\n");
    for status in RunStatus::ALL {
        let n = metas.iter().filter(|m| m.status == status).count();
        out.push_str(&format!("mtasc_runs_total{{status=\"{}\"}} {n}\n", status.label()));
    }
    let finished: Vec<&RunMeta> = metas.iter().filter(|m| m.status != RunStatus::Running).collect();
    for (metric, help) in [
        ("mtasc_run_cycles", "Total cycles of a finished run."),
        ("mtasc_run_issued", "Instructions issued by a finished run."),
        ("mtasc_run_ipc", "Issued per cycle of a finished run."),
    ] {
        out.push_str(&format!("# HELP {metric} {help}\n# TYPE {metric} gauge\n"));
        for m in &finished {
            let value = match metric {
                "mtasc_run_cycles" => m.cycles.to_string(),
                "mtasc_run_issued" => m.issued.to_string(),
                _ => format!("{:.6}", m.ipc()),
            };
            out.push_str(&format!(
                "{metric}{{id=\"{}\",kind=\"{}\",name=\"{}\",status=\"{}\"}} {value}\n",
                escape_label(&m.id),
                escape_label(&m.kind),
                escape_label(&m.name),
                m.status.label(),
            ));
        }
    }
    out
}

/// Prometheus label-value escaping: backslash, double quote, newline.
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::program_hash;
    use crate::ulid::ulid_at;

    fn tmp_store(tag: &str) -> RunStore {
        let dir =
            std::env::temp_dir().join(format!("mtasc-obs-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        RunStore::open(dir).unwrap()
    }

    fn begin_meta(name: &str) -> RunMeta {
        RunMeta::begin("run", name, program_hash(name), "pes=16 w16 fine-grain".into(), 16)
    }

    #[test]
    fn begin_finish_list_round_trip() {
        let store = tmp_store("round-trip");
        let h = store.begin(begin_meta("a.asc")).unwrap();
        let id_a = h.id().to_string();
        assert!(store.run_dir(&id_a).join(META_FILE).exists());

        // while running, list shows the running entry
        let (metas, skipped) = store.list().unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].status, RunStatus::Running);

        let finished = h.finish_ok(1000, 400).unwrap();
        assert_eq!(finished.status, RunStatus::Ok);
        let (metas, _) = store.list().unwrap();
        assert_eq!(metas.len(), 1, "finish supersedes begin (last line wins)");
        assert_eq!(metas[0].cycles, 1000);
        assert!(metas[0].finished_unix_ms.is_some());

        // a second, faulted run lists first (newest first)
        let h2 = store.begin(begin_meta("b.asc")).unwrap();
        let id_b = h2.id().to_string();
        h2.finish_fault("cycle limit", 50, 10).unwrap();
        let (metas, _) = store.list().unwrap();
        assert_eq!(metas.len(), 2);
        assert_eq!(metas[0].id, id_b);
        assert_eq!(metas[0].status, RunStatus::Fault);
        assert_eq!(metas[0].fault.as_deref(), Some("cycle limit"));
        assert_eq!(metas[1].id, id_a);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn find_resolves_exact_prefix_and_ambiguity() {
        let store = tmp_store("find");
        let mut a = begin_meta("a.asc");
        a.id = ulid_at(1000, 1);
        let mut b = begin_meta("b.asc");
        b.id = ulid_at(1000, 2);
        store.record(&a).unwrap();
        store.record(&b).unwrap();

        assert!(matches!(store.find(&a.id).unwrap(), Resolve::One(m) if m.id == a.id));
        // the two ids differ only in the last character
        let shared = &a.id[..25];
        assert!(matches!(store.find(shared).unwrap(), Resolve::Ambiguous(ids) if ids.len() == 2));
        assert!(matches!(store.find(&a.id.to_lowercase()).unwrap(), Resolve::One(_)));
        assert_eq!(store.find("01ZZZZ").unwrap(), Resolve::NotFound);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn resolve_in_matches_exact_ids_before_prefixes() {
        let mut a = begin_meta("a.asc");
        a.id = "01ABC".into();
        let mut b = begin_meta("b.asc");
        b.id = "01ABCD".into();
        let mut odd = begin_meta("c.asc");
        odd.id = "01é".into();
        let metas = [b.clone(), a.clone(), odd];
        // `01ABC` is a prefix of both, but it is also an exact id
        assert!(matches!(resolve_in(&metas, "01ABC"), Resolve::One(m) if m.id == a.id));
        assert!(matches!(resolve_in(&metas, "01abcd"), Resolve::One(m) if m.id == b.id));
        assert!(matches!(resolve_in(&metas, "01a"), Resolve::Ambiguous(ids) if ids.len() == 2));
        // a query whose length ends inside an id's multi-byte character
        assert_eq!(resolve_in(&metas, "01x"), Resolve::NotFound);
        assert_eq!(resolve_in(&[], "01"), Resolve::NotFound);
    }

    #[test]
    fn gc_keeps_the_newest_and_compacts() {
        let store = tmp_store("gc");
        let mut ids = Vec::new();
        for i in 0..4u64 {
            let mut m = begin_meta(&format!("k{i}.asc"));
            m.id = ulid_at(1000 + i, 7);
            store.record(&m).unwrap();
            ids.push(m.id);
        }
        let removed = store.gc(1).unwrap();
        assert_eq!(removed, ids[..3].to_vec(), "oldest three removed, oldest first");
        for id in &removed {
            assert!(!store.run_dir(id).exists());
        }
        let (metas, _) = store.list().unwrap();
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].id, ids[3]);
        // index was compacted to one line
        let index = fs::read_to_string(store.root().join(INDEX_FILE)).unwrap();
        assert_eq!(index.lines().count(), 1);
        // gc with nothing to remove is a no-op
        assert!(store.gc(5).unwrap().is_empty());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn malformed_index_lines_are_skipped_not_fatal() {
        let store = tmp_store("torn");
        let mut m = begin_meta("a.asc");
        m.id = ulid_at(1, 1);
        store.record(&m).unwrap();
        // simulate a torn append from a crashed writer
        let mut f =
            fs::OpenOptions::new().append(true).open(store.root().join(INDEX_FILE)).unwrap();
        writeln!(f, "{{\"schema\":\"mtasc.run_me").unwrap();
        drop(f);
        let (metas, skipped) = store.list().unwrap();
        assert_eq!(metas.len(), 1);
        assert_eq!(skipped, 1);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn deeply_nested_index_lines_are_skipped_not_fatal() {
        let store = tmp_store("deep");
        let mut m = begin_meta("a.asc");
        m.id = ulid_at(1, 1);
        store.record(&m).unwrap();
        // one hostile line nested far past the parser's depth limit: it
        // must count as skipped, not overflow the stack of the reader
        let mut f =
            fs::OpenOptions::new().append(true).open(store.root().join(INDEX_FILE)).unwrap();
        writeln!(f, "{}", "[".repeat(100_000)).unwrap();
        drop(f);
        let (metas, skipped) = store.list().unwrap();
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].id, m.id);
        assert_eq!(skipped, 1);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn empty_registry_lists_empty() {
        let store = tmp_store("empty");
        let (metas, skipped) = store.list().unwrap();
        assert!(metas.is_empty());
        assert_eq!(skipped, 0);
        assert_eq!(store.find("anything").unwrap(), Resolve::NotFound);
        assert!(store.gc(3).unwrap().is_empty());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn prometheus_exposition_shape() {
        let store = tmp_store("prom");
        let mut ok = begin_meta("a.asc");
        ok.id = ulid_at(1, 1);
        ok.status = RunStatus::Ok;
        ok.cycles = 100;
        ok.issued = 50;
        ok.finished_unix_ms = Some(2);
        let mut running = begin_meta("weird\"name\\x.asc");
        running.id = ulid_at(2, 2);
        store.record(&ok).unwrap();
        store.record(&running).unwrap();
        let text = store.prometheus().unwrap();
        assert!(text.contains("# TYPE mtasc_runs_total gauge"));
        assert!(text.contains("mtasc_runs_total{status=\"ok\"} 1"), "{text}");
        assert!(text.contains("mtasc_runs_total{status=\"running\"} 1"), "{text}");
        assert!(text.contains(&format!("mtasc_run_cycles{{id=\"{}\"", ok.id)), "{text}");
        assert!(text.contains("mtasc_run_ipc"), "{text}");
        assert!(text.contains("0.500000"), "{text}");
        // running runs contribute no per-run series; labels are escaped
        assert!(!text.contains("weird\"name"), "{text}");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn filter_list_filters_and_paginates() {
        let mut metas = Vec::new();
        for i in 0..5u64 {
            let mut m = begin_meta(&format!("k{i}.asc"));
            m.id = ulid_at(1000 + i, i.into());
            if i % 2 == 0 {
                m.status = RunStatus::Ok;
            }
            metas.push(m);
        }
        metas.sort_by(|a, b| b.id.cmp(&a.id));
        let (all, total) = filter_list(&metas, None, None, None, 0);
        assert_eq!((all.len(), total), (5, 5));
        let (ok, total) = filter_list(&metas, Some(RunStatus::Ok), None, None, 0);
        assert_eq!((ok.len(), total), (3, 3));
        let (page, total) = filter_list(&metas, None, None, Some(2), 1);
        assert_eq!((page.len(), total), (2, 5));
        assert_eq!(page[0].id, metas[1].id, "offset skips the newest");
        let hash = program_hash("k3.asc");
        let (hit, total) = filter_list(&metas, None, Some(&hash), None, 0);
        assert_eq!((hit.len(), total), (1, 1));
        assert_eq!(hit[0].name, "k3.asc");
        // bare-hex prefix, case-insensitive
        let prefix = hash.strip_prefix("fnv1a64:").unwrap()[..6].to_uppercase();
        let (hit, _) = filter_list(&metas, None, Some(&prefix), None, 0);
        assert_eq!(hit.len(), 1);
        assert!(!program_hash_matches(&hash, ""), "empty query matches nothing");
    }

    #[test]
    fn list_renderings() {
        let mut ok = begin_meta("a.asc");
        ok.id = ulid_at(1, 1);
        ok.status = RunStatus::Ok;
        ok.cycles = 100;
        ok.issued = 50;
        ok.finished_unix_ms = Some(2);
        let mut running = begin_meta("b.asc");
        running.id = ulid_at(2, 2);
        let metas = [running.clone(), ok.clone()];
        let table = render_list(&metas);
        assert!(table.starts_with("ID "), "{table}");
        assert_eq!(table.lines().count(), 3);
        assert!(table.contains("0.500"), "{table}");
        assert!(table.lines().nth(1).unwrap().contains('-'), "running rows show dashes");
        let json = list_to_json(&metas);
        assert_eq!(json.as_arr().unwrap().len(), 2);
        assert_eq!(RunMeta::from_json(&json.as_arr().unwrap()[1]).unwrap(), ok);
    }
}
