//! Tail-follow readers over the registry's append-only files.
//!
//! Two consumers follow live registry files: `mtasc runs watch` (a
//! terminal tailer) and the `mtasc serve` SSE endpoint (a streaming HTTP
//! tailer). Both sit on the same primitive, [`LineTail`]: an incremental
//! reader that remembers its byte offset between polls, buffers a torn
//! (unterminated) final line until the writer completes it, and resets
//! itself when the file shrinks or is replaced underneath it (a `gc`
//! compaction).
//! [`HeartbeatTail`] parses the lines as `mtasc.progress.v1` samples;
//! [`IndexWatcher`] folds `index.jsonl` lines into the last-line-wins
//! manifest view, re-reading only appended bytes per poll. It is the one
//! index fold in the crate: [`crate::RunStore::list`] is a one-shot
//! watcher, and `mtasc serve` resolves every route from a long-lived one.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use asc_core::obs::{Json, ProgressSample};

use crate::meta::RunMeta;
use crate::store::INDEX_FILE;

/// One poll's worth of progress from a [`LineTail`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailChunk {
    /// Complete lines read since the previous poll, newline stripped.
    pub lines: Vec<String>,
    /// True when the file shrank and the tail restarted from the top
    /// (consumers holding derived state must rebuild it).
    pub reset: bool,
}

/// An incremental, torn-tail-tolerant line reader over a growing file.
///
/// Each [`poll`](LineTail::poll) reads only the bytes appended since the
/// previous poll and returns the newly *completed* lines; a trailing
/// partial line (a writer mid-append) is buffered, not returned, until
/// its newline arrives. A missing file reads as empty — the writer may
/// not have created it yet. A file that shrank, or was replaced by
/// another file under the same path, is read again from the top.
#[derive(Debug)]
pub struct LineTail {
    path: PathBuf,
    offset: u64,
    pending: Vec<u8>,
    lines_seen: usize,
    identity: Option<FileIdentity>,
}

impl LineTail {
    /// Tail `path` from the beginning.
    pub fn new(path: impl Into<PathBuf>) -> LineTail {
        LineTail {
            path: path.into(),
            offset: 0,
            pending: Vec::new(),
            lines_seen: 0,
            identity: None,
        }
    }

    /// The file being tailed.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// 1-based line number of the next complete line `poll` will return.
    pub fn next_line_number(&self) -> usize {
        self.lines_seen + 1
    }

    /// Forget everything read so far; returns whether there was anything
    /// to forget (derived state must then be rebuilt).
    fn restart(&mut self) -> bool {
        let had_state = self.offset > 0 || !self.pending.is_empty();
        self.offset = 0;
        self.pending.clear();
        self.lines_seen = 0;
        had_state
    }

    /// Read newly appended bytes and return the newly completed lines.
    pub fn poll(&mut self) -> io::Result<TailChunk> {
        let mut file = match fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                // the file may have been removed (gc) after we read some
                // of it: report a reset so derived state is dropped too
                let reset = self.restart();
                self.identity = None;
                return Ok(TailChunk { lines: Vec::new(), reset });
            }
            Err(e) => return Err(e),
        };
        let meta = file.metadata()?;
        let identity = file_identity(&meta);
        // a compaction rewrote the file: smaller than what we have read,
        // or a fresh file renamed over the path; start over
        let replaced = self.identity.is_some_and(|seen| seen != identity);
        let reset = (meta.len() < self.offset || replaced) && self.restart();
        self.identity = Some(identity);
        file.seek(SeekFrom::Start(self.offset))?;
        self.offset += file.read_to_end(&mut self.pending)? as u64;
        // split every completed line off the buffer, then drop them all
        // in one move: draining line by line is quadratic in a big read
        let mut lines = Vec::new();
        let mut start = 0;
        while let Some(nl) = self.pending[start..].iter().position(|&b| b == b'\n') {
            lines.push(String::from_utf8_lossy(&self.pending[start..start + nl]).into_owned());
            start += nl + 1;
        }
        self.pending.drain(..start);
        self.lines_seen += lines.len();
        Ok(TailChunk { lines, reset })
    }

    /// Take the buffered partial last line, if any: a one-shot reader at
    /// end of file has no writer to wait for.
    fn take_partial(&mut self) -> Option<String> {
        if self.pending.is_empty() {
            return None;
        }
        let line = String::from_utf8_lossy(&self.pending).into_owned();
        self.pending.clear();
        Some(line)
    }
}

/// Which file a path named when it was read: device and inode on unix.
/// A compaction that renames a new file over the path changes it.
#[cfg(unix)]
type FileIdentity = (u64, u64);

#[cfg(unix)]
fn file_identity(meta: &fs::Metadata) -> FileIdentity {
    use std::os::unix::fs::MetadataExt;
    (meta.dev(), meta.ino())
}

/// Elsewhere a replaced file is only noticed when it shrank.
#[cfg(not(unix))]
type FileIdentity = ();

#[cfg(not(unix))]
fn file_identity(_meta: &fs::Metadata) -> FileIdentity {}

/// One poll's worth of parsed heartbeats from a [`HeartbeatTail`].
#[derive(Debug, Clone, PartialEq)]
pub struct HeartbeatBatch {
    /// Samples parsed from the newly completed lines, in file order.
    pub samples: Vec<ProgressSample>,
    /// 1-based line numbers of newly completed lines that failed to
    /// parse as `mtasc.progress.v1` (blank lines are not counted).
    pub malformed: Vec<usize>,
}

/// Tails a run's `progress.jsonl`, parsing each completed line as a
/// `mtasc.progress.v1` sample. The shared follow engine behind both
/// `mtasc runs watch` and the `mtasc serve` SSE stream.
#[derive(Debug)]
pub struct HeartbeatTail {
    tail: LineTail,
}

impl HeartbeatTail {
    /// Tail the heartbeat file at `path` from the beginning.
    pub fn new(path: impl Into<PathBuf>) -> HeartbeatTail {
        HeartbeatTail { tail: LineTail::new(path) }
    }

    /// The file being tailed.
    pub fn path(&self) -> &Path {
        self.tail.path()
    }

    /// Parse the heartbeats completed since the previous poll.
    pub fn poll(&mut self) -> io::Result<HeartbeatBatch> {
        let line_base = self.tail.next_line_number();
        let chunk = self.tail.poll()?;
        let mut batch = HeartbeatBatch { samples: Vec::new(), malformed: Vec::new() };
        for (i, line) in chunk.lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match Json::parse(line).ok().as_ref().and_then(ProgressSample::from_json) {
                Some(s) => batch.samples.push(s),
                None => batch.malformed.push(line_base + i),
            }
        }
        Ok(batch)
    }
}

/// An incremental reader of the registry index: folds newly appended
/// `index.jsonl` lines into the deduplicated, newest-first manifest view,
/// re-reading only the appended bytes per poll. When the index is
/// compacted (shrinks or is replaced), the watcher rebuilds from the top
/// transparently.
///
/// This is the registry's only index fold — **last line wins**, so a
/// run's finish line supersedes its begin line — and it costs O(1) per
/// line through an id → slot map. [`crate::RunStore::list`] is a
/// one-shot watcher over the whole file.
#[derive(Debug)]
pub struct IndexWatcher {
    tail: LineTail,
    metas: Vec<RunMeta>,
    /// Position of each id in `metas`.
    slots: HashMap<String, usize>,
    skipped: usize,
}

impl IndexWatcher {
    /// Watch the index of the registry rooted at `root`.
    pub fn new(root: impl AsRef<Path>) -> IndexWatcher {
        IndexWatcher {
            tail: LineTail::new(root.as_ref().join(INDEX_FILE)),
            metas: Vec::new(),
            slots: HashMap::new(),
            skipped: 0,
        }
    }

    /// Fold in any new index lines and return the current manifests
    /// (newest first) plus the cumulative count of malformed lines.
    pub fn poll(&mut self) -> io::Result<(&[RunMeta], usize)> {
        let chunk = self.tail.poll()?;
        if chunk.reset {
            self.metas.clear();
            self.slots.clear();
            self.skipped = 0;
        }
        let mut added = false;
        for line in &chunk.lines {
            added |= self.fold(line);
        }
        if added {
            self.reorder();
        }
        Ok((&self.metas, self.skipped))
    }

    /// Read the whole index once: the fold [`crate::RunStore::list`]
    /// returns. An unterminated last line is folded too (there is no
    /// writer to wait for), and counts as skipped if it does not parse.
    pub(crate) fn read_once(root: &Path) -> io::Result<(Vec<RunMeta>, usize)> {
        let mut watcher = IndexWatcher::new(root);
        watcher.poll()?;
        if let Some(line) = watcher.tail.take_partial() {
            if watcher.fold(&line) {
                watcher.reorder();
            }
        }
        Ok((watcher.metas, watcher.skipped))
    }

    /// Fold one index line; returns whether it added a new run id.
    fn fold(&mut self, line: &str) -> bool {
        if line.trim().is_empty() {
            return false;
        }
        let Some(meta) = Json::parse(line).ok().as_ref().and_then(RunMeta::from_json) else {
            self.skipped += 1;
            return false;
        };
        match self.slots.get(&meta.id) {
            Some(&slot) => {
                self.metas[slot] = meta;
                false
            }
            None => {
                self.slots.insert(meta.id.clone(), self.metas.len());
                self.metas.push(meta);
                true
            }
        }
    }

    /// Restore newest-first order after new ids arrived (ids are ULIDs,
    /// so id order is creation order) and re-point the slots.
    fn reorder(&mut self) {
        self.metas.sort_by(|a, b| b.id.cmp(&a.id));
        for (slot, meta) in self.metas.iter().enumerate() {
            if let Some(s) = self.slots.get_mut(&meta.id) {
                *s = slot;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{program_hash, RunStatus};
    use crate::store::RunStore;
    use crate::ulid::ulid_at;
    use std::io::Write as _;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mtasc-obs-tail-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn append(path: &Path, text: &str) {
        let mut f = fs::OpenOptions::new().create(true).append(true).open(path).unwrap();
        f.write_all(text.as_bytes()).unwrap();
    }

    #[test]
    fn line_tail_buffers_torn_lines() {
        let dir = tmp_dir("torn");
        let path = dir.join("log");
        let mut tail = LineTail::new(&path);
        // missing file reads as empty, not an error
        assert_eq!(tail.poll().unwrap().lines, Vec::<String>::new());
        append(&path, "alpha\nbet");
        let chunk = tail.poll().unwrap();
        assert_eq!(chunk.lines, vec!["alpha"]);
        assert!(!chunk.reset);
        // the torn tail stays buffered until its newline arrives
        assert_eq!(tail.poll().unwrap().lines, Vec::<String>::new());
        append(&path, "a\ngamma\n");
        assert_eq!(tail.poll().unwrap().lines, vec!["beta", "gamma"]);
        assert_eq!(tail.next_line_number(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn line_tail_resets_on_shrink() {
        let dir = tmp_dir("shrink");
        let path = dir.join("log");
        append(&path, "one\ntwo\n");
        let mut tail = LineTail::new(&path);
        assert_eq!(tail.poll().unwrap().lines.len(), 2);
        // a compaction rewrote the file smaller: tail restarts from zero
        fs::write(&path, "three\n").unwrap();
        let chunk = tail.poll().unwrap();
        assert!(chunk.reset);
        assert_eq!(chunk.lines, vec!["three"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_tail_parses_and_flags_malformed() {
        let dir = tmp_dir("hb");
        let path = dir.join("progress.jsonl");
        let mut tail = HeartbeatTail::new(&path);
        let sample = |cycle: u64| ProgressSample { cycle, ..ProgressSample::default() };
        append(&path, &format!("{}\n", sample(10).to_json().to_compact()));
        append(&path, "{\"schema\":\"mtasc.progress.v1\",\"cyc"); // torn
        let batch = tail.poll().unwrap();
        assert_eq!(batch.samples.len(), 1);
        assert_eq!(batch.samples[0].cycle, 10);
        assert!(batch.malformed.is_empty(), "torn tail is buffered, not malformed");
        append(&path, "le\":broken}\nnot json\n");
        append(&path, &format!("{}\n", sample(20).to_json().to_compact()));
        let batch = tail.poll().unwrap();
        assert_eq!(batch.samples.len(), 1);
        assert_eq!(batch.samples[0].cycle, 20);
        assert_eq!(batch.malformed, vec![2, 3]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_watcher_matches_full_list() {
        let dir = tmp_dir("watch");
        let store = RunStore::open(&dir).unwrap();
        let mut watcher = IndexWatcher::new(&dir);
        let (metas, skipped) = watcher.poll().unwrap();
        assert!(metas.is_empty());
        assert_eq!(skipped, 0);

        let meta = |i: u64, name: &str| {
            let mut m = RunMeta::begin("run", name, program_hash(name), "pes=16".into(), 16);
            m.id = ulid_at(1_000 + i, i.into());
            m
        };
        let h = store.begin(meta(1, "a.asc")).unwrap();
        store.record(&meta(2, "b.asc")).unwrap();
        let (metas, _) = watcher.poll().unwrap();
        assert_eq!(metas.len(), 2);
        assert_eq!(metas[0].status, RunStatus::Running, "newest first, still running");

        // finish supersedes begin incrementally, same as a full list()
        h.finish_ok(100, 40).unwrap();
        append(&store.root().join(INDEX_FILE), "{\"torn"); // torn tail: pending, not skipped
        let (metas, skipped) = watcher.poll().unwrap();
        let (full, _) = store.list().unwrap();
        assert_eq!(metas, &full[..]);
        assert_eq!(metas[1].status, RunStatus::Ok);
        assert_eq!(skipped, 0);

        // gc compacts the index: the watcher rebuilds transparently
        append(&store.root().join(INDEX_FILE), " line}\n");
        store.gc(1).unwrap();
        let (metas, skipped) = watcher.poll().unwrap();
        assert_eq!(metas.len(), 1);
        assert_eq!(skipped, 0, "reset clears the malformed count too");
        let (full, _) = store.list().unwrap();
        assert_eq!(metas, &full[..]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_watcher_rebuilds_when_a_compaction_does_not_shrink_the_index() {
        let dir = tmp_dir("swap");
        let store = RunStore::open(&dir).unwrap();
        let record = |i: u64| {
            let mut m = RunMeta::begin("run", "k.asc", program_hash("k.asc"), "pes=16".into(), 16);
            m.id = ulid_at(1_000 + i, i.into());
            store.begin(m).unwrap().finish_ok(i, i).unwrap();
        };
        (0..3).for_each(record);
        store.gc(10).unwrap(); // one line per run
        let mut watcher = IndexWatcher::new(&dir);
        assert_eq!(watcher.poll().unwrap().0.len(), 3);
        // six more lines, then a compaction to four runs: the new index
        // is longer than what the watcher has read, yet it is a new file
        (3..6).for_each(record);
        store.gc(4).unwrap();
        let (metas, skipped) = watcher.poll().unwrap();
        let (full, _) = store.list().unwrap();
        assert_eq!(full.len(), 4);
        assert_eq!(metas, &full[..], "the removed runs are gone from the view");
        assert_eq!(skipped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_shot_read_folds_an_unterminated_last_line() {
        let dir = tmp_dir("once");
        let mut m = RunMeta::begin("run", "a.asc", program_hash("a.asc"), "pes=16".into(), 16);
        m.id = ulid_at(5, 5);
        // a complete manifest without its newline still lists; a torn
        // one is counted as skipped
        append(&dir.join(INDEX_FILE), &m.to_json().to_compact());
        let (metas, skipped) = IndexWatcher::read_once(&dir).unwrap();
        assert_eq!((metas.len(), skipped), (1, 0));
        append(&dir.join(INDEX_FILE), "\n{\"torn");
        let (metas, skipped) = IndexWatcher::read_once(&dir).unwrap();
        assert_eq!((metas.len(), skipped), (1, 1));
        let _ = fs::remove_dir_all(&dir);
    }
}
