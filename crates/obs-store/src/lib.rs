//! # asc-obs-store — the persistent run registry
//!
//! Every `mtasc run`, `mtasc profile`, and observed kernels-harness
//! invocation records itself here: a directory per run under the
//! registry root (default `.mtasc/runs`, overridable with
//! `$MTASC_RUNS_DIR`) holding a [`RunMeta`] manifest
//! (`mtasc.run_meta.v1`: program hash, config fingerprint, timestamps,
//! exit status, fault info) next to the run's report/profile/trace/
//! heartbeat artifacts, plus an append-only `index.jsonl` the `mtasc
//! runs` subcommands read:
//!
//! * `runs list` — paginated, status-filtered listing ([`RunStore::list`],
//!   [`render_list`], [`list_to_json`]);
//! * `runs show <id>` — manifest + recorded hot-spot table
//!   ([`RunStore::find`] resolves unique id prefixes through
//!   [`resolve_in`], the resolver `mtasc serve` shares);
//! * `runs diff <a> <b>` — delegates to the direction-aware
//!   `stats diff` engine over recorded artifacts;
//! * `runs gc --keep N` — prunes old run directories and compacts the
//!   index ([`RunStore::gc`]);
//! * `runs export --prometheus` — text exposition format for scrape
//!   tooling ([`RunStore::prometheus`]);
//! * `runs watch <id>` — tails the run's `progress.jsonl` heartbeat
//!   (written live by `asc_core`'s `ProgressSampler`).
//!
//! Run ids are hand-rolled monotonic [ULIDs](ulid()): creation-ordered,
//! filesystem-safe, timestamp-recoverable. Everything serializes through
//! `asc_core::obs::Json`; the crate adds **no external dependencies**.

mod meta;
mod store;
mod tail;
mod ulid;

pub use meta::{config_fingerprint, program_hash, RunMeta, RunStatus, RUN_META_SCHEMA};
pub use store::{
    filter_list, list_to_json, program_hash_matches, prometheus_text, render_list, resolve_in,
    Resolve, RunHandle, RunStore, HEARTBEAT_FILE, INDEX_FILE, META_FILE,
};
pub use tail::{HeartbeatBatch, HeartbeatTail, IndexWatcher, LineTail, TailChunk};
pub use ulid::{format_unix_ms, is_ulid, ulid, ulid_at, ulid_ms, unix_ms, ULID_LEN};

#[cfg(all(test, feature = "proptest"))]
mod proptests;
