//! A digest-keyed, capacity-bounded on-disk JSON store.
//!
//! Any number of JSON documents, each addressed by a 128-bit digest,
//! living as individual files in one directory: `og-serve` persists run
//! results in one. The durability discipline:
//!
//! * **Atomic writes** — every document is written to a
//!   `<name>.tmp.<pid>.<seq>` sibling and `rename`d into place
//!   ([`atomic_write`], which bench reports and fuzz corpus files also
//!   write through), so concurrent writers — across processes (pid) or
//!   threads within one (seq) — never leave a torn file for a reader to
//!   observe.
//! * **Exact-name reads** — [`KeyedStore::get`] opens exactly
//!   `prefix-<digest>.json` and nothing else; a crash-orphaned tmp file
//!   can therefore never be read as an entry, only swept.
//! * **Capacity bound** — [`KeyedStore::put`] evicts the
//!   oldest-modified entries (name as the deterministic tie-break) until
//!   at most `capacity` remain, so a long-running service cannot grow
//!   the directory without bound. Concurrent puts can pick the same
//!   victim; a victim already gone counts as evicted by the other put.
//! * **Debris sweep** — [`KeyedStore::sweep_debris`] removes tmp files
//!   older than a caller-chosen age; young tmp files are spared because
//!   they may belong to a live writer whose rename would fail if the
//!   sweep deleted them mid-write.
//!
//! Last write wins per key: two programs that collide into one digest
//! overwrite each other's entry, which is why cache layers above (the
//! `og-serve` LRU) must compare the stored identity before trusting a
//! hit. A corrupt entry (impossible under this write discipline, but
//! disks get truncated) is removed on read and reported as a typed
//! [`StoreError::Corrupt`] so the layer above can count it instead of
//! the store silently swallowing it.

use crate::{parse, render, Json};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

/// Why a [`KeyedStore`] operation failed.
///
/// Typed so layers above can react per class instead of pattern-matching
/// strings: og-serve retries [`StoreError::Io`] (transient disk trouble),
/// counts [`StoreError::Corrupt`] in its metrics (the entry is already
/// removed — retrying would just miss), and treats
/// [`StoreError::Unrenderable`] as a caller bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The underlying file operation failed.
    Io {
        /// Which operation (`"read"`, `"write"`).
        op: &'static str,
        /// The entry path involved.
        path: PathBuf,
        /// The OS error, rendered.
        err: String,
    },
    /// The entry for `key` existed but did not parse. It has been
    /// removed so it cannot keep shadowing the key; the caller should
    /// count it (og-serve surfaces the count as a metric) and treat the
    /// key as absent.
    Corrupt {
        /// The shadowed key.
        key: u128,
        /// The parse error, rendered.
        err: String,
    },
    /// The value for `key` cannot be rendered (non-finite float) — a
    /// caller bug, not a disk condition.
    Unrenderable {
        /// The key being put.
        key: u128,
        /// The render error, rendered.
        err: String,
    },
}

impl StoreError {
    /// Is this a removed-corrupt-entry error (safe to treat the key as
    /// absent after counting)?
    pub fn is_corrupt(&self) -> bool {
        matches!(self, StoreError::Corrupt { .. })
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, err } => write!(f, "{op} {}: {err}", path.display()),
            StoreError::Corrupt { key, err } => {
                write!(f, "corrupt entry {key:032x} (removed): {err}")
            }
            StoreError::Unrenderable { key, err } => {
                write!(f, "unrenderable value for {key:032x}: {err}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// How old a `*.tmp.*` file must be before [`KeyedStore::sweep_debris`]
/// (called with this value) may treat it as crash debris. A live writer
/// finishes in well under a minute; anything older is dead.
pub const TMP_DEBRIS_AGE: Duration = Duration::from_secs(15 * 60);

/// Serialize `text` to `<path>.tmp.<pid>.<seq>` in the same directory,
/// then `rename` it into place. Each racing writer owns a distinct tmp
/// file and each rename is all-or-nothing, so readers never observe a
/// torn file. Creates the parent directory if needed.
///
/// # Errors
///
/// Reports creation, write and rename failures with the paths involved;
/// a failed rename removes the tmp file.
pub fn atomic_write(path: &Path, text: &str) -> Result<(), String> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().ok_or_else(|| format!("{} has no parent", path.display()))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("create_dir {}: {e}", dir.display()))?;
    let file_name = path
        .file_name()
        .ok_or_else(|| format!("{} has no file name", path.display()))?
        .to_string_lossy();
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!("{file_name}.tmp.{}.{seq}", std::process::id()));
    std::fs::write(&tmp, text).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("rename {} -> {}: {e}", tmp.display(), path.display())
    })
}

/// A directory of JSON documents keyed by 128-bit digest.
///
/// Cheap to construct (no I/O until used) and safe to share across
/// threads behind a plain reference: every operation works directly on
/// the file system, whose atomic renames are the synchronization.
#[derive(Debug, Clone)]
pub struct KeyedStore {
    dir: PathBuf,
    prefix: String,
    capacity: usize,
}

impl KeyedStore {
    /// A store of at most `capacity` entries named
    /// `<prefix>-<digest:032x>.json` under `dir`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `prefix` is empty (a store that
    /// can hold nothing, or whose files cannot be told apart from
    /// foreign ones, is a configuration bug).
    pub fn new(dir: impl Into<PathBuf>, prefix: &str, capacity: usize) -> KeyedStore {
        assert!(capacity > 0, "KeyedStore capacity must be at least 1");
        assert!(!prefix.is_empty(), "KeyedStore prefix must be non-empty");
        KeyedStore { dir: dir.into(), prefix: prefix.to_string(), capacity }
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The file an entry for `key` lives at (whether or not it exists).
    pub fn path_of(&self, key: u128) -> PathBuf {
        self.dir.join(format!("{}-{key:032x}.json", self.prefix))
    }

    /// The key encoded in `file_name`, if it names an entry of this
    /// store (exact `<prefix>-<32 hex digits>.json` shape only — tmp
    /// files and foreign names decode to `None`).
    fn key_of(&self, file_name: &str) -> Option<u128> {
        let rest = file_name.strip_prefix(&self.prefix)?.strip_prefix('-')?;
        let hex = rest.strip_suffix(".json")?;
        if hex.len() != 32 {
            return None;
        }
        u128::from_str_radix(hex, 16).ok()
    }

    /// Read and parse the entry for `key`. Absent entries are
    /// `Ok(None)`; an unreadable entry is [`StoreError::Io`]; a corrupt
    /// entry is removed so it cannot keep shadowing the key (it also
    /// cannot occur under [`atomic_write`]'s discipline — this is
    /// truncated-disk defense, not a code path writers rely on) and
    /// reported as [`StoreError::Corrupt`] so the caller can count it.
    pub fn get(&self, key: u128) -> Result<Option<Json>, StoreError> {
        let path = self.path_of(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io { op: "read", path, err: e.to_string() }),
        };
        match parse(&text) {
            Ok(json) => Ok(Some(json)),
            Err(e) => {
                let _ = std::fs::remove_file(&path);
                Err(StoreError::Corrupt { key, err: e.to_string() })
            }
        }
    }

    /// Write (or overwrite — last write per key wins) the entry for
    /// `key`, then evict oldest-modified entries until the store is
    /// within capacity. Returns the evicted keys.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unrenderable`] if the value cannot be rendered
    /// (non-finite float), [`StoreError::Io`] if the atomic write fails;
    /// eviction failures are reported on stderr but do not fail the put
    /// (the entry itself is durable). A victim a concurrent put already
    /// evicted is no failure: it is skipped silently and not returned.
    pub fn put(&self, key: u128, value: &Json) -> Result<Vec<u128>, StoreError> {
        let text =
            render(value).map_err(|e| StoreError::Unrenderable { key, err: e.to_string() })?;
        let path = self.path_of(key);
        atomic_write(&path, &text).map_err(|err| StoreError::Io { op: "write", path, err })?;
        Ok(self.evict_over_capacity(key))
    }

    /// Keys currently present, unordered.
    pub fn keys(&self) -> Vec<u128> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else { return Vec::new() };
        entries.flatten().filter_map(|e| self.key_of(&e.file_name().to_string_lossy())).collect()
    }

    /// Number of entries currently present.
    pub fn len(&self) -> usize {
        self.keys().len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove `*.tmp.*` files under this store's prefix older than
    /// `max_age` ([`TMP_DEBRIS_AGE`] is the production choice) — crash
    /// debris a dead writer left behind. Younger tmp files are spared:
    /// they may belong to a live [`atomic_write`] whose rename would
    /// fail if the sweep deleted them mid-write. Returns the removed
    /// file names.
    pub fn sweep_debris(&self, max_age: Duration) -> Vec<String> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else { return Vec::new() };
        let mut removed = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let is_debris = name.starts_with(&self.prefix)
                && name.contains(".tmp.")
                && entry
                    .metadata()
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.elapsed().ok())
                    .is_some_and(|age| age >= max_age);
            if is_debris {
                match remove_if_present(&entry.path()) {
                    Ok(true) => removed.push(name),
                    Ok(false) => {}
                    Err(e) => eprintln!("og-json store: failed to remove debris {name}: {e}"),
                }
            }
        }
        removed
    }

    /// Evict oldest-modified entries until at most `capacity` remain;
    /// the keys this call removed.
    fn evict_over_capacity(&self, just_put: u128) -> Vec<u128> {
        self.evict(self.eviction_victims(just_put))
    }

    /// The oldest-modified entries (file name breaks mtime ties
    /// deterministically) whose removal leaves at most `capacity`.
    /// `just_put` is never a victim: the entry the caller is inserting
    /// must survive its own put even against coarse file-clock ties.
    fn eviction_victims(&self, just_put: u128) -> Vec<u128> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else { return Vec::new() };
        let mut present: Vec<(SystemTime, String, u128)> = entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                let key = self.key_of(&name)?;
                if key == just_put {
                    return None;
                }
                let mtime = e.metadata().and_then(|m| m.modified()).ok()?;
                Some((mtime, name, key))
            })
            .collect();
        // `just_put` is excluded from the candidate list but still
        // occupies a slot.
        let budget = self.capacity.saturating_sub(1);
        if present.len() <= budget {
            return Vec::new();
        }
        present.sort();
        present.drain(..present.len() - budget).map(|(_, _, key)| key).collect()
    }

    /// Remove the `victims`' entries; the keys this call removed. Two
    /// concurrent puts can pick the same victim, so an entry that is
    /// already gone was evicted by the other one: it is left out of the
    /// result, and is not an error.
    fn evict(&self, victims: Vec<u128>) -> Vec<u128> {
        victims
            .into_iter()
            .filter(|&key| match remove_if_present(&self.path_of(key)) {
                Ok(removed) => removed,
                Err(e) => {
                    eprintln!("og-json store: failed to evict {key:032x}: {e}");
                    false
                }
            })
            .collect()
    }
}

/// Remove the file at `path`: `Ok(true)` if this call removed it,
/// `Ok(false)` if it was already gone (another writer's eviction or
/// sweep got there first).
fn remove_if_present(path: &Path) -> std::io::Result<bool> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::File;

    fn temp_store(name: &str, capacity: usize) -> KeyedStore {
        let dir = std::env::temp_dir().join(format!("og-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        KeyedStore::new(dir, "case", capacity)
    }

    fn doc(n: u64) -> Json {
        Json::Obj(vec![("n".into(), Json::Num(n as f64))])
    }

    /// Backdate an entry's mtime so eviction order is deterministic even
    /// on file systems with coarse timestamps.
    fn age_entry(store: &KeyedStore, key: u128, secs_ago: u64) {
        let f = File::options().append(true).open(store.path_of(key)).unwrap();
        f.set_modified(SystemTime::now() - Duration::from_secs(secs_ago)).unwrap();
    }

    #[test]
    fn put_get_roundtrip_and_overwrite_last_wins() {
        let store = temp_store("roundtrip", 8);
        assert!(store.is_empty());
        assert_eq!(store.get(7), Ok(None));
        store.put(7, &doc(1)).unwrap();
        assert_eq!(store.get(7), Ok(Some(doc(1))));
        // Same key again — digest collisions and re-puts alike are
        // last-write-wins on disk, one file per key.
        store.put(7, &doc(2)).unwrap();
        assert_eq!(store.get(7), Ok(Some(doc(2))));
        assert_eq!(store.len(), 1);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn capacity_evicts_oldest_first_deterministically() {
        let store = temp_store("evict", 3);
        for k in 1..=3u128 {
            store.put(k, &doc(k as u64)).unwrap();
            age_entry(&store, k, 100 - k as u64); // 1 oldest, 3 youngest
        }
        assert_eq!(store.len(), 3);
        // Refresh 1: it becomes the youngest, so 2 is now the eviction
        // candidate.
        store.put(1, &doc(11)).unwrap();
        let evicted = store.put(4, &doc(4)).unwrap();
        assert_eq!(evicted, vec![2]);
        assert_eq!(store.get(2), Ok(None));
        assert_eq!(store.get(1), Ok(Some(doc(11))));
        // Two more inserts evict in age order: 3 then (1 or 4 by age —
        // age them explicitly to pin the order).
        age_entry(&store, 1, 50);
        age_entry(&store, 4, 40);
        age_entry(&store, 3, 60);
        let evicted = store.put(5, &doc(5)).unwrap();
        assert_eq!(evicted, vec![3]);
        let evicted = store.put(6, &doc(6)).unwrap();
        assert_eq!(evicted, vec![1]);
        assert_eq!(store.len(), 3);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn a_victim_another_writer_already_evicted_is_skipped_silently() {
        let store = temp_store("evict-race", 4);
        for k in 1..=3u128 {
            store.put(k, &doc(k as u64)).unwrap();
            age_entry(&store, k, 100 - k as u64); // 1 oldest, 3 youngest
        }
        // A one-entry view of the same directory, putting 3, picks 1
        // and 2 as victims...
        let view = KeyedStore::new(store.dir(), "case", 1);
        let victims = view.eviction_victims(3);
        assert_eq!(victims, vec![1, 2]);
        // ...but a concurrent put evicts 1 before this one gets to it.
        std::fs::remove_file(store.path_of(1)).unwrap();
        assert_eq!(view.evict(victims), vec![2], "only the entry this call removed");
        assert_eq!(store.keys(), vec![3]);
        // A debris sweep racing another sweep takes the same path.
        assert!(!remove_if_present(&store.path_of(1)).unwrap());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn a_burst_past_capacity_keeps_the_just_put_entry() {
        let store = temp_store("burst", 2);
        // All writes land within file-clock resolution of each other;
        // whatever is evicted, the entry just put must survive.
        for k in 1..=20u128 {
            store.put(k, &doc(k as u64)).unwrap();
            assert_eq!(store.get(k), Ok(Some(doc(k as u64))), "key {k} must survive its own put");
            assert!(store.len() <= 2);
        }
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn concurrent_inserts_and_gets_stay_coherent() {
        let store = temp_store("concurrent", 64);
        std::thread::scope(|scope| {
            for t in 0..4u128 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..50u128 {
                        let key = t * 1000 + (i % 10);
                        store.put(key, &doc((t * 1000 + i) as u64)).unwrap();
                        // Any value read back must be a whole document
                        // some writer put for this key (torn files would
                        // fail the parse inside get).
                        if let Ok(Some(json)) = store.get(key) {
                            let n = json.get("n").and_then(Json::as_num).unwrap();
                            assert_eq!((n as u128) % 1000 % 10, key % 1000);
                        }
                    }
                });
            }
        });
        assert!(store.len() <= 40);
        for key in store.keys() {
            assert!(store.get(key).unwrap().is_some());
        }
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn crash_debris_is_never_read_and_is_swept_by_age() {
        let store = temp_store("debris", 4);
        store.put(1, &doc(1)).unwrap();
        // A crashed writer's leftover: valid JSON under a tmp name. It
        // must be invisible to get/keys/len...
        let tmp = store.dir().join("case-00000000000000000000000000000002.json.tmp.999.0");
        std::fs::write(&tmp, "{\"n\":2}").unwrap();
        assert_eq!(store.get(2), Ok(None));
        assert_eq!(store.len(), 1);
        // ...spared by a production-age sweep while it could still be a
        // live writer...
        assert!(store.sweep_debris(TMP_DEBRIS_AGE).is_empty());
        assert!(tmp.exists());
        // ...and removed once old enough to be provably dead.
        let removed = store.sweep_debris(Duration::ZERO);
        assert_eq!(removed.len(), 1);
        assert!(!tmp.exists());
        assert_eq!(store.get(1), Ok(Some(doc(1))));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn corrupt_entries_are_removed_and_reported_typed() {
        let store = temp_store("corrupt", 4);
        store.put(3, &doc(3)).unwrap();
        std::fs::write(store.path_of(3), "{\"n\":3").unwrap(); // truncated
        let err = store.get(3).unwrap_err();
        assert!(err.is_corrupt(), "got {err}");
        assert!(err.to_string().contains("removed"));
        assert!(!store.path_of(3).exists(), "the corrupt entry must not shadow the key");
        // The key now reads as plain-absent; the error fired exactly once.
        assert_eq!(store.get(3), Ok(None));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn put_of_an_unrenderable_value_is_typed() {
        let store = temp_store("unrenderable", 4);
        let err = store.put(9, &Json::Num(f64::NAN)).unwrap_err();
        assert!(matches!(err, StoreError::Unrenderable { key: 9, .. }), "got {err}");
        assert_eq!(store.get(9), Ok(None));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn foreign_files_are_ignored() {
        let store = temp_store("foreign", 2);
        std::fs::create_dir_all(store.dir()).unwrap();
        std::fs::write(store.dir().join("other-feedfacefeedfacefeedfacefeedface.json"), "{}")
            .unwrap();
        std::fs::write(store.dir().join("case-nothex.json"), "{}").unwrap();
        assert!(store.is_empty());
        store.put(1, &doc(1)).unwrap();
        store.put(2, &doc(2)).unwrap();
        store.put(3, &doc(3)).unwrap();
        // Eviction only ever counts/evicts own well-formed entries.
        assert_eq!(store.len(), 2);
        assert!(store.dir().join("case-nothex.json").exists());
        std::fs::remove_dir_all(store.dir()).ok();
    }
}
