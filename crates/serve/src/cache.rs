//! The content-addressed result cache: bounded in-memory LRU over an
//! optional on-disk store.
//!
//! Keys are [`Digest`]s of the canonical job form
//! ([`job_fingerprint`](crate::job_fingerprint)); values are the exact
//! rendered synth-report JSON object strings a fresh run would produce.
//! Because synthesis is deterministic, a cached value is not an
//! approximation of a fresh run — it is byte-for-byte *the* result, which
//! is what makes hits verifiable (and what the cache-correctness property
//! tests check).
//!
//! The disk tier stores one `<hex-digest>.json` file per entry, plus a
//! companion `<hex-digest>.cert.json` contention-freedom certificate.
//! All filesystem traffic goes through the [`DiskIo`] seam, so the chaos
//! harness can inject write/read/rename faults at every touch point.
//!
//! # Commit protocol
//!
//! Disk entries commit via temp-file + atomic rename, certificate
//! **before** report:
//!
//! 1. write `<fp>.cert.json.tmp`, rename to `<fp>.cert.json`
//! 2. write `<fp>.json.tmp`, rename to `<fp>.json`
//!
//! A crash at any point leaves either a complete pair, an orphan
//! certificate (harmless — quarantined by the startup scan), or a `.tmp`
//! (ditto). The *reverse* order had a real failure mode: a report
//! committed without its certificate is refused by
//! [`ResultCache::lookup_certified`] on every future start and
//! re-synthesized forever. The report is only attempted once the
//! certificate is durable.
//!
//! # Recovery
//!
//! [`ResultCache::recover`] scans the store once at startup: leftover
//! `.tmp` files, unparseable files, and orphans (report without cert,
//! cert without report) are moved into a `quarantine/` subdirectory and
//! counted in [`CacheStats::quarantined`]; complete well-formed pairs are
//! counted in [`CacheStats::recovered`]. Quarantine preserves the bytes
//! for post-mortems instead of deleting them.
//!
//! Disk contents remain untrusted after recovery: a file that fails to
//! re-parse as JSON is ignored (counted in [`CacheStats::disk_errors`])
//! rather than served, and [`ResultCache::lookup_certified`]
//! additionally refuses to serve a disk entry whose certificate is
//! missing or fails the caller's validator (counted in
//! [`CacheStats::cert_errors`] — the entry is re-synthesized instead).
//! Only *completed* results are ever inserted, so a deadline can never
//! poison the cache with a degraded best-so-far report.

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use nocsyn_model::json::Document;
use nocsyn_model::Digest;

use crate::io::{DiskIo, RealDisk};

/// Where a lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Not cached anywhere; the engine ran.
    Miss,
    /// Served from the in-memory LRU.
    Hit,
    /// Served from the on-disk store (and promoted into memory).
    Disk,
}

impl CacheTier {
    /// Stable lowercase label used in reply envelopes and telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            CacheTier::Miss => "miss",
            CacheTier::Hit => "hit",
            CacheTier::Disk => "disk",
        }
    }
}

/// Monotonic cache counters (all since server start).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from memory.
    pub hits: u64,
    /// Lookups that found nothing and fell through to the engine.
    pub misses: u64,
    /// Lookups served from the disk tier.
    pub disk_hits: u64,
    /// Entries inserted after fresh synthesis.
    pub insertions: u64,
    /// In-memory entries evicted by the LRU bound.
    pub evictions: u64,
    /// Disk files that failed to read, parse, write, or commit.
    pub disk_errors: u64,
    /// Disk entries refused because their contention-freedom certificate
    /// was missing, unreadable, or failed validation.
    pub cert_errors: u64,
    /// Complete, well-formed entry pairs found by the startup scan.
    pub recovered: u64,
    /// Files quarantined by the startup scan (torn temps, unparseable
    /// files, orphan reports or certificates).
    pub quarantined: u64,
}

/// A bounded two-tier (memory + optional disk) result cache.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    map: HashMap<Digest, String>,
    /// Recency order, least-recent first. Bounded by `capacity`, so the
    /// O(len) reshuffle on a hit stays small.
    recency: VecDeque<Digest>,
    dir: Option<PathBuf>,
    io: Arc<dyn DiskIo>,
    stats: CacheStats,
}

impl ResultCache {
    /// An in-memory cache holding at most `capacity` entries (clamped to
    /// at least 1).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            recency: VecDeque::new(),
            dir: None,
            io: Arc::new(RealDisk),
            stats: CacheStats::default(),
        }
    }

    /// Adds an on-disk tier under `dir` (created on first insertion).
    /// The store is *not* scanned here — call [`ResultCache::recover`]
    /// to quarantine crash leftovers before serving.
    #[must_use]
    pub fn with_dir(mut self, dir: PathBuf) -> Self {
        self.dir = Some(dir);
        self
    }

    /// Replaces the disk backend (real filesystem by default) — the hook
    /// the chaos harness and hermetic tests use.
    #[must_use]
    pub fn with_io(mut self, io: Arc<dyn DiskIo>) -> Self {
        self.io = io;
        self
    }

    /// Entries currently held in memory.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the in-memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up `key`, refreshing LRU recency. Returns the cached report
    /// string and the tier that satisfied the lookup; `None` counts as a
    /// miss.
    ///
    /// Memory entries are trusted (they were validated or freshly
    /// synthesized in this process). The disk tier is not: a disk entry
    /// is served (and promoted into memory) only when its companion
    /// certificate exists and `validate` accepts it, otherwise it counts
    /// as a [`CacheStats::cert_errors`] miss and the caller
    /// re-synthesizes.
    pub fn lookup_certified<F: FnOnce(&str) -> bool>(
        &mut self,
        key: &Digest,
        validate: F,
    ) -> Option<(String, CacheTier)> {
        if let Some(report) = self.map.get(key) {
            let report = report.clone();
            self.touch(key);
            self.stats.hits += 1;
            return Some((report, CacheTier::Hit));
        }
        if let Some(report) = self.read_disk(key) {
            let certified = self
                .read_cert(key)
                .map(|cert| validate(&cert))
                .unwrap_or(false);
            if !certified {
                self.stats.cert_errors += 1;
                self.stats.misses += 1;
                return None;
            }
            self.stats.disk_hits += 1;
            self.insert_memory(*key, report.clone());
            return Some((report, CacheTier::Disk));
        }
        self.stats.misses += 1;
        None
    }

    /// Inserts a freshly synthesized report under `key`, in memory and —
    /// when a disk tier is configured — on disk, with the result's
    /// contention-freedom certificate next to it, where
    /// [`ResultCache::lookup_certified`] will demand it. A report stored
    /// without a certificate is never served from disk. Disk write
    /// failures are counted, not fatal: the request that produced the
    /// result already has its answer.
    ///
    /// Commit order is certificate first, then report (each via
    /// temp-file + rename): a crash between the two leaves an orphan
    /// certificate the startup scan quarantines — never a cert-less
    /// report that would be refused and re-synthesized forever.
    pub fn insert_with_cert(&mut self, key: Digest, report: String, cert: Option<String>) {
        self.stats.insertions += 1;
        if let Some(dir) = self.dir.clone() {
            if self.io.create_dir_all(&dir).is_err() {
                self.stats.disk_errors += 1;
            } else {
                let cert_committed = match &cert {
                    Some(cert) => self.commit_file(
                        &dir,
                        &format!("{}.cert.json", key.to_hex()),
                        cert.as_bytes(),
                    ),
                    None => true,
                };
                // The report commits only once its certificate is
                // durable (the ordering the regression tests pin).
                if cert_committed {
                    self.commit_file(&dir, &format!("{}.json", key.to_hex()), report.as_bytes());
                }
            }
        }
        self.insert_memory(key, report);
    }

    /// Commits `bytes` to `dir/name` atomically: write `name.tmp`, then
    /// rename over the final path. Returns whether the commit landed;
    /// failures are counted and the temp file removed best-effort (a
    /// crash can still strand it — that is the startup scan's job).
    fn commit_file(&mut self, dir: &Path, name: &str, bytes: &[u8]) -> bool {
        let tmp = dir.join(format!("{name}.tmp"));
        let fin = dir.join(name);
        let committed = self
            .io
            .write(&tmp, bytes)
            .and_then(|()| self.io.rename(&tmp, &fin));
        if committed.is_err() {
            self.stats.disk_errors += 1;
            let _ = self.io.remove_file(&tmp);
            return false;
        }
        true
    }

    /// Scans the disk store once, quarantining crash leftovers: `.tmp`
    /// files, files that are not well-formed JSON, orphan reports (no
    /// certificate) and orphan certificates (no report). Complete
    /// well-formed pairs count as [`CacheStats::recovered`]. A missing
    /// or unlistable store is fine — there is nothing to recover.
    pub fn recover(&mut self) {
        let Some(dir) = self.dir.clone() else {
            return;
        };
        let Ok(files) = self.io.list_dir(&dir) else {
            return;
        };
        let mut reports: Vec<(String, PathBuf)> = Vec::new();
        let mut certs: Vec<(String, PathBuf)> = Vec::new();
        for path in files {
            let Some(name) = path.file_name().and_then(|n| n.to_str()).map(String::from) else {
                self.quarantine(&dir, &path);
                continue;
            };
            if name.ends_with(".tmp") {
                self.quarantine(&dir, &path);
                continue;
            }
            let stem = if let Some(stem) = name.strip_suffix(".cert.json") {
                Some((stem.to_string(), true))
            } else {
                name.strip_suffix(".json").map(|s| (s.to_string(), false))
            };
            let Some((stem, is_cert)) = stem else {
                self.quarantine(&dir, &path);
                continue;
            };
            let well_formed = self
                .io
                .read(&path)
                .ok()
                .and_then(|bytes| String::from_utf8(bytes).ok())
                .is_some_and(|text| Document::parse(&text).is_ok());
            if !well_formed {
                self.quarantine(&dir, &path);
                continue;
            }
            if is_cert {
                certs.push((stem, path));
            } else {
                reports.push((stem, path));
            }
        }
        // Orphans on either side are quarantined; complete pairs stand.
        // Stems are looked up in sets, but both passes keep `list_dir`
        // order, so quarantine order stays deterministic.
        let report_stems: HashSet<&str> = reports.iter().map(|(s, _)| s.as_str()).collect();
        let cert_stems: HashSet<&str> = certs.iter().map(|(s, _)| s.as_str()).collect();
        for (stem, path) in &reports {
            if cert_stems.contains(stem.as_str()) {
                self.stats.recovered += 1;
            } else {
                self.quarantine(&dir, path);
            }
        }
        for (stem, path) in &certs {
            if !report_stems.contains(stem.as_str()) {
                self.quarantine(&dir, path);
            }
        }
    }

    /// Moves `path` into `dir/quarantine/`, preserving the bytes for
    /// post-mortems. Falls back to deletion if the move fails; counts a
    /// disk error if even that fails.
    fn quarantine(&mut self, dir: &Path, path: &Path) {
        let qdir = dir.join("quarantine");
        let name = path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_else(|| "unnamed".into());
        let moved = self
            .io
            .create_dir_all(&qdir)
            .and_then(|()| self.io.rename(path, &qdir.join(name)));
        if moved.is_err() && self.io.remove_file(path).is_err() {
            self.stats.disk_errors += 1;
            return;
        }
        self.stats.quarantined += 1;
    }

    /// Moves `key` to the most-recent end of the recency queue.
    fn touch(&mut self, key: &Digest) {
        if let Some(pos) = self.recency.iter().position(|k| k == key) {
            self.recency.remove(pos);
        }
        self.recency.push_back(*key);
    }

    fn insert_memory(&mut self, key: Digest, report: String) {
        if self.map.insert(key, report).is_none() {
            self.recency.push_back(key);
            while self.map.len() > self.capacity {
                if let Some(old) = self.recency.pop_front() {
                    self.map.remove(&old);
                    self.stats.evictions += 1;
                } else {
                    break;
                }
            }
        } else {
            self.touch(&key);
        }
    }

    /// Reads and validates a disk entry; anything unreadable or not
    /// well-formed JSON is treated as absent.
    fn read_disk(&mut self, key: &Digest) -> Option<String> {
        let dir = self.dir.as_ref()?;
        let path = dir.join(format!("{}.json", key.to_hex()));
        if !self.io.exists(&path) {
            return None;
        }
        let text = self
            .io
            .read(&path)
            .ok()
            .and_then(|bytes| String::from_utf8(bytes).ok());
        match text {
            Some(text) if Document::parse(&text).is_ok() => Some(text),
            _ => {
                self.stats.disk_errors += 1;
                None
            }
        }
    }

    /// Reads the companion certificate of a disk entry, if present.
    fn read_cert(&self, key: &Digest) -> Option<String> {
        let dir = self.dir.as_ref()?;
        let path = dir.join(format!("{}.cert.json", key.to_hex()));
        self.io
            .read(&path)
            .ok()
            .and_then(|bytes| String::from_utf8(bytes).ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosDisk, FaultPlan, FaultPoint};
    use crate::io::MemDisk;
    use nocsyn_model::sha256;
    use std::fs;
    use std::sync::Mutex;

    fn key(n: u8) -> Digest {
        sha256(&[n])
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let mut cache = ResultCache::new(4);
        let k = key(1);
        assert_eq!(cache.lookup_certified(&k, |_| true), None);
        cache.insert_with_cert(k, "{\"a\":1}".into(), None);
        assert_eq!(
            cache.lookup_certified(&k, |_| true),
            Some(("{\"a\":1}".to_string(), CacheTier::Hit))
        );
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.insertions), (1, 1, 1));
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = ResultCache::new(2);
        cache.insert_with_cert(key(1), "{}".into(), None);
        cache.insert_with_cert(key(2), "{}".into(), None);
        // Touch 1 so 2 becomes the eviction victim.
        assert!(cache.lookup_certified(&key(1), |_| true).is_some());
        cache.insert_with_cert(key(3), "{}".into(), None);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup_certified(&key(1), |_| true).is_some());
        assert!(cache.lookup_certified(&key(2), |_| true).is_none());
        assert!(cache.lookup_certified(&key(3), |_| true).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn capacity_clamps_to_one() {
        let mut cache = ResultCache::new(0);
        cache.insert_with_cert(key(1), "{}".into(), None);
        cache.insert_with_cert(key(2), "{}".into(), None);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn reinserting_updates_without_growth() {
        let mut cache = ResultCache::new(2);
        cache.insert_with_cert(key(1), "{\"v\":1}".into(), None);
        cache.insert_with_cert(key(1), "{\"v\":2}".into(), None);
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.lookup_certified(&key(1), |_| true),
            Some(("{\"v\":2}".to_string(), CacheTier::Hit))
        );
    }

    #[test]
    fn disk_tier_round_trips_and_rejects_garbage() {
        let dir =
            std::env::temp_dir().join(format!("nocsyn-serve-cache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        let mut warm = ResultCache::new(2).with_dir(dir.clone());
        warm.insert_with_cert(key(1), "{\"a\":1}".into(), Some("{}".into()));

        // A fresh cache (cold memory) finds the entry on disk.
        let mut cold = ResultCache::new(2).with_dir(dir.clone());
        assert_eq!(
            cold.lookup_certified(&key(1), |_| true),
            Some(("{\"a\":1}".to_string(), CacheTier::Disk))
        );
        // Promoted: second lookup is a memory hit.
        assert_eq!(
            cold.lookup_certified(&key(1), |_| true),
            Some(("{\"a\":1}".to_string(), CacheTier::Hit))
        );
        assert_eq!(cold.stats().disk_hits, 1);

        // Corrupt file -> treated as absent, counted.
        fs::write(dir.join(format!("{}.json", key(2).to_hex())), "not json")
            .expect("test dir writable");
        let mut c = ResultCache::new(2).with_dir(dir.clone());
        assert_eq!(c.lookup_certified(&key(2), |_| true), None);
        assert_eq!(c.stats().disk_errors, 1);
        assert_eq!(c.stats().misses, 1);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn certified_lookup_trusts_memory_but_demands_disk_certificates() {
        let dir = std::env::temp_dir().join(format!(
            "nocsyn-serve-cert-cache-test-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);

        let mut warm = ResultCache::new(2).with_dir(dir.clone());
        warm.insert_with_cert(key(1), "{\"a\":1}".into(), Some("CERT".into()));
        // Memory tier: served without consulting the validator.
        assert_eq!(
            warm.lookup_certified(&key(1), |_| false),
            Some(("{\"a\":1}".to_string(), CacheTier::Hit))
        );

        // Cold cache: disk entry served only when the validator accepts.
        let mut cold = ResultCache::new(2).with_dir(dir.clone());
        assert_eq!(
            cold.lookup_certified(&key(1), |cert| cert == "CERT"),
            Some(("{\"a\":1}".to_string(), CacheTier::Disk))
        );
        assert_eq!(cold.stats().cert_errors, 0);

        // Validator rejection: refused, counted, treated as a miss.
        let mut reject = ResultCache::new(2).with_dir(dir.clone());
        assert_eq!(reject.lookup_certified(&key(1), |_| false), None);
        let s = reject.stats();
        assert_eq!((s.cert_errors, s.misses, s.disk_hits), (1, 1, 0));

        // Missing certificate file: same refusal.
        fs::write(dir.join(format!("{}.json", key(2).to_hex())), "{\"b\":2}")
            .expect("test dir writable");
        let mut missing = ResultCache::new(2).with_dir(dir.clone());
        assert_eq!(missing.lookup_certified(&key(2), |_| true), None);
        assert_eq!(missing.stats().cert_errors, 1);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tier_labels_are_stable() {
        assert_eq!(CacheTier::Miss.label(), "miss");
        assert_eq!(CacheTier::Hit.label(), "hit");
        assert_eq!(CacheTier::Disk.label(), "disk");
    }

    fn mem_cache(store: &Arc<MemDisk>, dir: &Path) -> ResultCache {
        ResultCache::new(4)
            .with_dir(dir.to_path_buf())
            .with_io(store.clone() as Arc<dyn DiskIo>)
    }

    #[test]
    fn commits_are_atomic_and_leave_no_temp_files() {
        let store = Arc::new(MemDisk::new());
        let dir = PathBuf::from("store");
        let mut cache = mem_cache(&store, &dir);
        cache.insert_with_cert(key(1), "{\"a\":1}".into(), Some("{\"cert\":1}".into()));
        assert_eq!(
            store.snapshot(&dir.join(format!("{}.json", key(1).to_hex()))),
            Some(b"{\"a\":1}".to_vec())
        );
        assert_eq!(
            store.snapshot(&dir.join(format!("{}.cert.json", key(1).to_hex()))),
            Some(b"{\"cert\":1}".to_vec())
        );
        assert_eq!(store.file_count(), 2, "no temp files left behind");
        assert_eq!(cache.stats().disk_errors, 0);
    }

    /// Regression for the pre-atomic-commit ordering bug: a failed or
    /// torn *certificate* commit must suppress the report write, so a
    /// crash between the two can never leave a cert-less report that is
    /// refused and re-synthesized forever.
    #[test]
    fn report_is_not_committed_when_the_certificate_commit_fails() {
        let store = Arc::new(MemDisk::new());
        let dir = PathBuf::from("store");
        // Op 0 is the certificate's temp-file write: fail it.
        let plan = Arc::new(Mutex::new(
            FaultPlan::quiet(0).with_fail_at(FaultPoint::DiskWrite, 0),
        ));
        let disk: Arc<dyn DiskIo> = Arc::new(ChaosDisk::new(store.clone(), plan));
        let mut cache = ResultCache::new(4).with_dir(dir.clone()).with_io(disk);
        cache.insert_with_cert(key(1), "{\"a\":1}".into(), Some("{\"cert\":1}".into()));
        assert_eq!(
            store.file_count(),
            0,
            "no report may land without its certificate"
        );
        assert_eq!(cache.stats().disk_errors, 1);
        // The in-memory tier still serves the result to this process.
        assert!(cache.lookup_certified(&key(1), |_| true).is_some());
    }

    /// A crash (torn write) during the report commit leaves an orphan
    /// certificate and a torn temp file; the startup scan quarantines
    /// both and the entry is simply absent — never served torn.
    #[test]
    fn recover_quarantines_torn_commits_and_orphans() {
        let store = Arc::new(MemDisk::new());
        let dir = PathBuf::from("store");
        // Ops 0 (cert tmp) succeeds; op 1 (report tmp) tears mid-write.
        let plan = Arc::new(Mutex::new(FaultPlan::quiet(0).with_torn_write_at(1, 3)));
        let disk: Arc<dyn DiskIo> = Arc::new(ChaosDisk::new(store.clone(), plan.clone()));
        let mut dying = ResultCache::new(4).with_dir(dir.clone()).with_io(disk);
        dying.insert_with_cert(key(1), "{\"a\":1}".into(), Some("{\"cert\":1}".into()));
        // The crash stranded the committed cert and a torn report temp.
        assert!(store.exists(&dir.join(format!("{}.cert.json", key(1).to_hex()))));
        assert!(store.exists(&dir.join(format!("{}.json.tmp", key(1).to_hex()))));
        drop(dying);
        plan.lock().expect("lock").revive();

        // "Restart": a fresh cache over the surviving store.
        let mut reborn = mem_cache(&store, &dir);
        reborn.recover();
        let s = reborn.stats();
        assert_eq!((s.recovered, s.quarantined), (0, 2), "{s:?}");
        assert_eq!(
            reborn.lookup_certified(&key(1), |_| true),
            None,
            "torn entry is not served"
        );
        // Quarantined bytes are preserved for post-mortems.
        assert!(store.exists(
            &dir.join("quarantine")
                .join(format!("{}.json.tmp", key(1).to_hex()))
        ));
    }

    #[test]
    fn recover_counts_complete_pairs_and_quarantines_junk() {
        let store = Arc::new(MemDisk::new());
        let dir = PathBuf::from("store");
        let mut warm = mem_cache(&store, &dir);
        warm.insert_with_cert(key(1), "{\"a\":1}".into(), Some("{\"cert\":1}".into()));
        warm.insert_with_cert(key(2), "{\"b\":2}".into(), Some("{\"cert\":2}".into()));
        // Junk: a stray temp, an unparseable report, a non-json name.
        store.install(&dir.join("stray.json.tmp"), b"xx");
        store.install(&dir.join(format!("{}.json", key(3).to_hex())), b"not json");
        store.install(&dir.join("README"), b"hello");
        drop(warm);

        let mut reborn = mem_cache(&store, &dir);
        reborn.recover();
        let s = reborn.stats();
        assert_eq!(s.recovered, 2, "{s:?}");
        assert_eq!(s.quarantined, 3, "{s:?}");
        // The recovered pairs still serve.
        assert_eq!(
            reborn.lookup_certified(&key(1), |_| true),
            Some(("{\"a\":1}".to_string(), CacheTier::Disk))
        );
        assert_eq!(
            reborn.lookup_certified(&key(2), |_| true),
            Some(("{\"b\":2}".to_string(), CacheTier::Disk))
        );
    }

    #[test]
    fn recover_quarantines_orphan_reports_and_orphan_certs() {
        let store = Arc::new(MemDisk::new());
        let dir = PathBuf::from("store");
        store.install(&dir.join(format!("{}.json", key(1).to_hex())), b"{\"a\":1}");
        store.install(
            &dir.join(format!("{}.cert.json", key(2).to_hex())),
            b"{\"cert\":2}",
        );
        let mut cache = mem_cache(&store, &dir);
        cache.recover();
        let s = cache.stats();
        assert_eq!((s.recovered, s.quarantined), (0, 2), "{s:?}");
        assert_eq!(cache.lookup_certified(&key(1), |_| true), None);
    }
}
