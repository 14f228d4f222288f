//! The write-ahead log behind a crash-safe daemon.
//!
//! The serve daemon's durable state is exactly what is expensive to
//! lose across a restart: the tenant registry and the plan/co-plan
//! cache. Both are mutated through [`WalRecord`]s appended here
//! *before* the in-memory state changes (redo-log discipline), so a
//! daemon restarted with the same `--wal-dir` replays the log and
//! warm-starts with the registry and cache it died with.
//!
//! ## On-disk format
//!
//! Two files live in the WAL directory:
//!
//! * `wal.log` — the append-only log. Each record is framed as
//!   `[len: u32 LE][checksum: u64 LE][payload: len bytes]` where the
//!   payload is the record's canonical JSON and the checksum is FNV-1a
//!   over the payload. A crash mid-append leaves a torn tail: replay
//!   stops at the first incomplete or checksum-failing frame and
//!   truncates the file back to the last good record.
//! * `wal.snapshot` — a compacted log: the full state (registry
//!   entries, then cache entries in LRU order) re-encoded as the same
//!   frames. Compaction writes `wal.snapshot.tmp`, fsyncs, and renames
//!   it into place — atomically on POSIX — then truncates `wal.log`.
//!   A crash between the rename and the truncate leaves records in the
//!   log that the snapshot already covers; replay applies them twice,
//!   which is why every record's application is idempotent.
//!
//! Startup replay is: snapshot frames first, then log frames.
//!
//! Fsync policy is a flag ([`FsyncPolicy`]): `always` pays one
//! `fdatasync` per record and loses nothing that was acknowledged;
//! `os` leaves flushing to the page cache and may lose the newest
//! records on power loss — replay still recovers a consistent prefix.

use std::fs::{self, File, OpenOptions};
use std::hash::Hasher;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use lcmm_graph::ContentHasher;
use serde_json::Value;

/// Name of the append-only log file inside the WAL directory.
const LOG_FILE: &str = "wal.log";
/// Name of the compacted snapshot file.
const SNAPSHOT_FILE: &str = "wal.snapshot";
/// Scratch name the snapshot is built under before the atomic rename.
const SNAPSHOT_TMP: &str = "wal.snapshot.tmp";
/// Bytes of each frame header: u32 length + u64 checksum.
const FRAME_HEADER: usize = 4 + 8;
/// Default log size that triggers compaction into a snapshot.
const DEFAULT_COMPACT_BYTES: u64 = 4 << 20;
/// Refuse to decode absurd frame lengths (a corrupt header would
/// otherwise ask for a multi-gigabyte allocation).
const MAX_RECORD_BYTES: u32 = 256 << 20;

/// When appended records are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fdatasync` after every record: an acknowledged mutation
    /// survives power loss.
    Always,
    /// Leave flushing to the OS page cache (default): a crash of the
    /// daemon process alone loses nothing, power loss may lose the
    /// newest records. Replay still recovers a consistent prefix.
    #[default]
    Os,
}

impl FsyncPolicy {
    /// Parses a `--fsync` flag value.
    ///
    /// # Errors
    ///
    /// A usage message for anything but `always` / `os` / `off`.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "always" => Ok(FsyncPolicy::Always),
            "os" | "off" => Ok(FsyncPolicy::Os),
            other => Err(format!("unknown fsync policy {other:?} (use always or os)")),
        }
    }
}

/// One durable mutation of the daemon's state.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A model entered (or replaced its entry in) the tenant registry.
    Register {
        /// Registry key.
        model: String,
        /// The *resolved* graph in its canonical JSON encoding — replay
        /// must not depend on zoo names still resolving identically.
        graph_json: String,
        /// Canonical precision name (`fix8` / `fix16` / `float32`).
        precision: String,
        /// Objective weight of the tenant.
        weight: f64,
        /// Explicit compute share, if one was registered.
        share: Option<f64>,
    },
    /// A model left the registry.
    Unregister {
        /// Registry key.
        model: String,
    },
    /// A plan or co-plan entered the cache.
    PlanPut {
        /// Cache key (content digest, `coplan:`-prefixed for co-plans).
        key: String,
        /// The pre-serialized plan JSON the cache replays on hits.
        value: String,
        /// Invalidation tags (`model:<name>` per co-plan tenant).
        tags: Vec<String>,
    },
}

impl WalRecord {
    /// Canonical JSON payload of the record.
    fn encode(&self) -> String {
        let map = match self {
            WalRecord::Register {
                model,
                graph_json,
                precision,
                weight,
                share,
            } => {
                let mut fields = vec![
                    ("graph".to_string(), Value::Str(graph_json.clone())),
                    ("model".to_string(), Value::Str(model.clone())),
                    ("precision".to_string(), Value::Str(precision.clone())),
                    ("t".to_string(), Value::Str("reg".to_string())),
                    ("weight".to_string(), Value::F64(*weight)),
                ];
                if let Some(share) = share {
                    fields.push(("share".to_string(), Value::F64(*share)));
                }
                Value::Map(fields)
            }
            WalRecord::Unregister { model } => Value::Map(vec![
                ("model".to_string(), Value::Str(model.clone())),
                ("t".to_string(), Value::Str("unreg".to_string())),
            ]),
            WalRecord::PlanPut { key, value, tags } => Value::Map(vec![
                ("key".to_string(), Value::Str(key.clone())),
                ("t".to_string(), Value::Str("put".to_string())),
                (
                    "tags".to_string(),
                    Value::Seq(tags.iter().map(|t| Value::Str(t.clone())).collect()),
                ),
                ("value".to_string(), Value::Str(value.clone())),
            ]),
        };
        serde_json::to_string(&map).expect("wal record serialises")
    }

    /// Decodes one frame payload; `None` for structurally valid JSON
    /// that is not a known record (forward compatibility: unknown
    /// record types are skipped, not fatal).
    fn decode(payload: &str) -> Option<Self> {
        let v: Value = serde_json::from_str(payload).ok()?;
        let field = |name: &str| v.get(name).and_then(Value::as_str).map(str::to_string);
        match v.get("t").and_then(Value::as_str)? {
            "reg" => Some(WalRecord::Register {
                model: field("model")?,
                graph_json: field("graph")?,
                precision: field("precision")?,
                weight: v.get("weight").and_then(Value::as_f64)?,
                share: v.get("share").and_then(Value::as_f64),
            }),
            "unreg" => Some(WalRecord::Unregister {
                model: field("model")?,
            }),
            "put" => Some(WalRecord::PlanPut {
                key: field("key")?,
                value: field("value")?,
                tags: v
                    .get("tags")
                    .and_then(Value::as_array)?
                    .iter()
                    .filter_map(|t| t.as_str().map(str::to_string))
                    .collect(),
            }),
            _ => None,
        }
    }
}

/// 64-bit FNV-1a over the payload — the frame checksum: the first lane
/// of the shared [`ContentHasher`] that also builds cache keys.
fn checksum(payload: &[u8]) -> u64 {
    let mut hasher = ContentHasher::default();
    hasher.write(payload);
    hasher.finish()
}

/// Frames one record into `out`.
fn write_frame(out: &mut Vec<u8>, record: &WalRecord) {
    let payload = record.encode();
    let bytes = payload.as_bytes();
    out.extend_from_slice(
        &u32::try_from(bytes.len())
            .expect("record fits u32")
            .to_le_bytes(),
    );
    out.extend_from_slice(&checksum(bytes).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Reads every intact frame of `bytes`, returning the decoded records
/// and the offset of the first torn/corrupt frame (== `bytes.len()`
/// when the file is clean).
fn read_frames(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut at = 0usize;
    while bytes.len() - at >= FRAME_HEADER {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        if len > MAX_RECORD_BYTES {
            break; // corrupt header
        }
        let sum = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().expect("8 bytes"));
        let start = at + FRAME_HEADER;
        let Some(end) = start
            .checked_add(len as usize)
            .filter(|&e| e <= bytes.len())
        else {
            break; // torn tail: payload shorter than the header promises
        };
        let payload = &bytes[start..end];
        if checksum(payload) != sum {
            break; // torn or corrupt payload
        }
        if let Ok(text) = std::str::from_utf8(payload) {
            if let Some(record) = WalRecord::decode(text) {
                records.push(record);
            }
        }
        at = end;
    }
    (records, at)
}

/// Counters reported under `stats.wal`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended by this process.
    pub appended: u64,
    /// Current size of the append-only log in bytes.
    pub log_bytes: u64,
    /// Snapshot compactions performed by this process.
    pub compactions: u64,
    /// Records replayed at startup (snapshot + log).
    pub replayed: u64,
    /// Torn-tail bytes truncated at startup.
    pub truncated_bytes: u64,
}

/// An open write-ahead log: the append handle plus its counters.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    log: File,
    policy: FsyncPolicy,
    compact_bytes: u64,
    stats: WalStats,
}

impl Wal {
    /// Opens (creating if necessary) the WAL in `dir` and returns the
    /// records to replay — snapshot first, then the log, with any torn
    /// log tail truncated in place.
    ///
    /// # Errors
    ///
    /// Filesystem failures creating the directory or opening the files.
    pub fn open(dir: &Path, policy: FsyncPolicy) -> io::Result<(Self, Vec<WalRecord>)> {
        fs::create_dir_all(dir)?;
        // A tmp file is a compaction that never reached its rename;
        // the snapshot it was replacing is still authoritative.
        let _ = fs::remove_file(dir.join(SNAPSHOT_TMP));
        let mut records = Vec::new();
        let mut truncated = 0u64;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        if let Ok(bytes) = fs::read(&snapshot_path) {
            let (snap, good) = read_frames(&bytes);
            truncated += (bytes.len() - good) as u64;
            records.extend(snap);
        }
        let log_path = dir.join(LOG_FILE);
        let mut log_bytes = 0u64;
        if let Ok(mut file) = File::open(&log_path) {
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            let (tail, good) = read_frames(&bytes);
            records.extend(tail);
            if good < bytes.len() {
                truncated += (bytes.len() - good) as u64;
                let file = OpenOptions::new().write(true).open(&log_path)?;
                file.set_len(good as u64)?;
                file.sync_data()?;
            }
            log_bytes = good as u64;
        }
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)?;
        let stats = WalStats {
            appended: 0,
            log_bytes,
            compactions: 0,
            replayed: records.len() as u64,
            truncated_bytes: truncated,
        };
        Ok((
            Self {
                dir: dir.to_path_buf(),
                log,
                policy,
                compact_bytes: DEFAULT_COMPACT_BYTES,
                stats,
            },
            records,
        ))
    }

    /// Removes any existing snapshot and log in `dir` (`--no-recover`).
    ///
    /// # Errors
    ///
    /// Filesystem failures other than the files not existing.
    pub fn reset(dir: &Path) -> io::Result<()> {
        for name in [LOG_FILE, SNAPSHOT_FILE, SNAPSHOT_TMP] {
            match fs::remove_file(dir.join(name)) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Appends one record (framed, checksummed; fsynced under
    /// [`FsyncPolicy::Always`]).
    ///
    /// # Errors
    ///
    /// Write or sync failures; the in-memory daemon state is unaffected
    /// and the caller keeps serving with durability degraded.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        let mut frame = Vec::new();
        write_frame(&mut frame, record);
        self.log.write_all(&frame)?;
        if self.policy == FsyncPolicy::Always {
            self.log.sync_data()?;
        }
        self.stats.appended += 1;
        self.stats.log_bytes += frame.len() as u64;
        Ok(())
    }

    /// Whether the log has outgrown the compaction threshold.
    #[must_use]
    pub fn needs_compaction(&self) -> bool {
        self.stats.log_bytes > self.compact_bytes
    }

    /// Overrides the compaction threshold (tests use tiny values).
    pub fn set_compact_bytes(&mut self, bytes: u64) {
        self.compact_bytes = bytes;
    }

    /// Compacts the log: writes `state` (the caller's full registry +
    /// cache dump) as the new snapshot, atomically renames it into
    /// place, and truncates the log.
    ///
    /// # Errors
    ///
    /// Filesystem failures; the previous snapshot + log stay
    /// authoritative if the rename never happened.
    pub fn compact(&mut self, state: &[WalRecord]) -> io::Result<()> {
        let tmp = self.dir.join(SNAPSHOT_TMP);
        let mut bytes = Vec::new();
        for record in state {
            write_frame(&mut bytes, record);
        }
        let mut file = File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_data()?;
        drop(file);
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        // Between the rename and this truncate the log double-covers
        // the snapshot — replay idempotence makes that window safe.
        self.log = OpenOptions::new()
            .write(true)
            .truncate(true)
            .open(self.dir.join(LOG_FILE))?;
        if self.policy == FsyncPolicy::Always {
            self.log.sync_data()?;
        }
        self.stats.log_bytes = 0;
        self.stats.compactions += 1;
        Ok(())
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> WalStats {
        self.stats
    }
}

/// Fault injection for crash tests: chops `bytes` off the end of the
/// log, simulating a power cut mid-append. The next [`Wal::open`] must
/// truncate back to the last intact record.
#[doc(hidden)]
pub fn truncate_log_tail(dir: &Path, bytes: u64) -> io::Result<()> {
    let path = dir.join(LOG_FILE);
    let len = fs::metadata(&path)?.len();
    let file = OpenOptions::new().write(true).open(&path)?;
    file.set_len(len.saturating_sub(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(model: &str) -> WalRecord {
        WalRecord::Register {
            model: model.to_string(),
            graph_json: format!("{{\"name\":\"{model}\"}}"),
            precision: "fix16".to_string(),
            weight: 1.0,
            share: Some(0.5),
        }
    }

    fn put(key: &str) -> WalRecord {
        WalRecord::PlanPut {
            key: key.to_string(),
            value: format!("{{\"plan\":\"{key}\"}}"),
            tags: vec!["model:a".to_string(), "model:b".to_string()],
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lcmm_wal_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("tempdir");
        dir
    }

    #[test]
    fn records_roundtrip_through_frames() {
        let originals = vec![
            reg("axn"),
            WalRecord::Unregister {
                model: "axn".to_string(),
            },
            put("coplan:abc"),
        ];
        let mut bytes = Vec::new();
        for r in &originals {
            write_frame(&mut bytes, r);
        }
        let (decoded, good) = read_frames(&bytes);
        assert_eq!(good, bytes.len());
        assert_eq!(decoded, originals);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tempdir("torn");
        {
            let (mut wal, replay) = Wal::open(&dir, FsyncPolicy::Always).expect("open");
            assert!(replay.is_empty());
            wal.append(&reg("a")).expect("append");
            wal.append(&put("k1")).expect("append");
        }
        // Chop into the middle of the second record.
        truncate_log_tail(&dir, 7).expect("truncate");
        let (wal, replay) = Wal::open(&dir, FsyncPolicy::Os).expect("reopen");
        assert_eq!(replay, vec![reg("a")], "only the intact prefix replays");
        assert!(wal.stats().truncated_bytes > 0);
        // The truncation is persisted: a third open sees a clean file.
        drop(wal);
        let (wal, replay) = Wal::open(&dir, FsyncPolicy::Os).expect("reopen clean");
        assert_eq!(replay.len(), 1);
        assert_eq!(wal.stats().truncated_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checksum_stops_replay() {
        let dir = tempdir("corrupt");
        {
            let (mut wal, _) = Wal::open(&dir, FsyncPolicy::Always).expect("open");
            wal.append(&reg("a")).expect("append");
            wal.append(&reg("b")).expect("append");
        }
        // Flip a payload byte of the last record.
        let path = dir.join(LOG_FILE);
        let mut bytes = fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).expect("write");
        let (_, replay) = Wal::open(&dir, FsyncPolicy::Os).expect("reopen");
        assert_eq!(replay, vec![reg("a")]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_snapshots_and_survives_reopen() {
        let dir = tempdir("compact");
        {
            let (mut wal, _) = Wal::open(&dir, FsyncPolicy::Always).expect("open");
            wal.set_compact_bytes(1);
            wal.append(&reg("a")).expect("append");
            wal.append(&put("k1")).expect("append");
            assert!(wal.needs_compaction());
            // The caller compacts with its current state — here the
            // same two records.
            wal.compact(&[reg("a"), put("k1")]).expect("compact");
            assert_eq!(wal.stats().compactions, 1);
            assert_eq!(wal.stats().log_bytes, 0);
            // Post-compaction appends land in the fresh log.
            wal.append(&put("k2")).expect("append");
        }
        let (_, replay) = Wal::open(&dir, FsyncPolicy::Os).expect("reopen");
        assert_eq!(replay, vec![reg("a"), put("k1"), put("k2")]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_discards_existing_state() {
        let dir = tempdir("reset");
        {
            let (mut wal, _) = Wal::open(&dir, FsyncPolicy::Always).expect("open");
            wal.append(&reg("a")).expect("append");
        }
        Wal::reset(&dir).expect("reset");
        let (_, replay) = Wal::open(&dir, FsyncPolicy::Os).expect("reopen");
        assert!(replay.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("os"), Ok(FsyncPolicy::Os));
        assert_eq!(FsyncPolicy::parse("off"), Ok(FsyncPolicy::Os));
        assert!(FsyncPolicy::parse("maybe").is_err());
    }
}
