//! The persistent, content-addressed plan cache.
//!
//! One JSONL file (`plans.jsonl`) per cache directory: each line is a
//! versioned [`CacheEntry`] keyed by the order-insensitive program
//! fingerprint of [`kfuse_core::fingerprint`], storing the best plan
//! found, its objective, the device/precision it was solved for, and the
//! per-kernel local signatures. A solve reads only exact hits.
//!
//! Durability over cleverness: loads are **corruption-tolerant** — a
//! truncated line, bad JSON, version or device mismatch, or an entry with
//! out-of-range members is *skipped* with a structured [`CacheWarning`],
//! never a panic, so a half-written cache from a killed process degrades
//! to a smaller cache. The file is **append-only**: every insert, new
//! fingerprint or improvement, adds one line, and a load keeps the best
//! objective per fingerprint, so a superseded line is inert and no writer
//! ever touches a line it did not write.
//!
//! Writers are **concurrency-disciplined** for the daemon's worker pool:
//! each append is a single `write_all` of a whole line on an `O_APPEND`
//! handle, serialized through a process-wide per-file lock. Multiple
//! [`PlanCache`] instances over one file therefore never interleave
//! partial JSONL lines.
//! Cached plans are advisory either way: the warm-start layer re-validates
//! anything it serves through the independent verifier before trusting it.

use kfuse_core::plan::FusionPlan;
use kfuse_ir::KernelId;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Entry format version; bump on any incompatible field change so old
/// caches age out instead of deserializing garbage.
pub const CACHE_VERSION: u32 = 1;

/// Cache file name inside the cache directory.
const CACHE_FILE: &str = "plans.jsonl";

/// Process-wide append locks, one per cache file path.
///
/// Several [`PlanCache`] instances can point at the same `plans.jsonl` —
/// the daemon opens one per worker-visible device/precision pair, and its
/// workers insert concurrently. Appends are written as a single
/// `write_all` of a whole line (newline included) on an `O_APPEND`
/// handle, *and* serialized through this lock, so two in-process writers
/// can never interleave partial JSONL lines. The lock is keyed by the
/// path as given (not canonicalized), which is exact for the daemon's
/// single shared `--cache-dir`; cross-*process* writers are outside its
/// scope and rely on the single-`write_all` append plus the
/// corruption-tolerant loader.
fn file_lock(path: &Path) -> Arc<Mutex<()>> {
    static LOCKS: OnceLock<Mutex<HashMap<PathBuf, Arc<Mutex<()>>>>> = OnceLock::new();
    let mut map = LOCKS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("plan-cache lock registry poisoned");
    map.entry(path.to_path_buf()).or_default().clone()
}

/// Take a [`file_lock`], recovering from poisoning: the guarded value is
/// `()`, so a holder that panicked left nothing invalid behind it, and a
/// half-written line on disk is the corruption-tolerant loader's job.
fn hold(lock: &Mutex<()>) -> MutexGuard<'_, ()> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

/// One cached solve: the best plan found for a program fingerprint.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheEntry {
    /// Format version ([`CACHE_VERSION`] at write time).
    pub version: u32,
    /// Order-insensitive program fingerprint (the lookup key).
    pub fingerprint: u64,
    /// Program name, informational only (never matched on).
    pub program: String,
    /// GPU the plan was solved for (`GpuSpec::name`); entries for another
    /// device are stale and skipped at load.
    pub gpu: String,
    /// Precision tag (`"Single"`/`"Double"`), matched like the GPU.
    pub precision: String,
    /// Kernel count, for a cheap plausibility check before re-validation.
    pub n_kernels: u32,
    /// Objective of the cached plan (projected seconds).
    pub objective: f64,
    /// Per-kernel local signatures in kernel-id order
    /// ([`kfuse_core::fingerprint::kernel_signatures`]). Nothing in the
    /// library reads them beyond the load-time length check and
    /// [`PlanCache::lookup_near`]; inserts still write them so cache files
    /// stay readable by earlier builds, and the benchmark harness names
    /// the field (ROADMAP 6(b) removes this pin).
    pub kernel_sigs: Vec<u64>,
    /// The plan's groups as kernel indices.
    pub groups: Vec<Vec<u32>>,
    /// Region sub-fingerprints. Nothing in the library reads them and new
    /// entries write `[]`; the field stays because cache files from earlier
    /// builds carry it and the benchmark harness names it (ROADMAP 6(b)
    /// removes this pin).
    pub region_fps: Vec<u64>,
}

impl CacheEntry {
    /// The cached groups as a [`FusionPlan`] (members and groups sorted as
    /// `from_sorted_groups` requires). `None` when any member is out of
    /// range for the entry's own `n_kernels` or a kernel appears twice —
    /// a malformed entry, treated as a miss.
    pub fn plan(&self) -> Option<FusionPlan> {
        let n = self.n_kernels as usize;
        let mut seen = vec![false; n];
        let mut groups: Vec<Vec<KernelId>> = Vec::with_capacity(self.groups.len());
        for g in &self.groups {
            let mut members: Vec<KernelId> = Vec::with_capacity(g.len());
            for &k in g {
                if k as usize >= n || std::mem::replace(&mut seen[k as usize], true) {
                    return None;
                }
                members.push(KernelId(k));
            }
            members.sort_unstable();
            if members.is_empty() {
                return None;
            }
            groups.push(members);
        }
        if !seen.iter().all(|&s| s) {
            return None;
        }
        groups.sort_by_key(|g| g[0]);
        Some(FusionPlan::from_sorted_groups(groups))
    }
}

fn sorted(sigs: &[u64]) -> Vec<u64> {
    let mut v = sigs.to_vec();
    v.sort_unstable();
    v
}

/// Multiset overlap of two kernel-signature lists given in ascending
/// order, normalized by the larger program: 1.0 means identical
/// signature multisets, 0.0 means nothing in common. One merge, no copy.
fn sorted_overlap(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (mut i, mut j, mut common) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    common as f64 / a.len().max(b.len()) as f64
}

/// One resident entry and what the cache keeps beside it.
#[derive(Debug)]
struct Slot {
    /// Shared, so a hit hands out a pointer instead of copying the entry
    /// under the daemon's cache mutex.
    entry: Arc<CacheEntry>,
    /// Arrival number. An improvement takes its slot over in place and
    /// gets a new number, so "earlier entry" (the near lookup's
    /// tie-break) means what it meant when improved entries went to the
    /// end of a list.
    seq: u64,
}

/// A load-time problem with one cache line, reported instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheWarning {
    /// 1-based line number in `plans.jsonl`.
    pub line: usize,
    /// What was wrong (bad JSON, version/device mismatch, malformed plan).
    pub reason: String,
}

impl std::fmt::Display for CacheWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "plan cache line {}: {} (skipped)",
            self.line, self.reason
        )
    }
}

/// The loaded cache: usable entries plus the warnings loading produced.
///
/// ```
/// use kfuse_search::plancache::{CacheEntry, PlanCache, CACHE_VERSION};
///
/// let dir = std::env::temp_dir().join(format!("kfuse-doc-cache-{}", std::process::id()));
/// let mut cache = PlanCache::open(&dir, "K20X", "Double");
/// assert!(cache.is_empty() && cache.warnings.is_empty());
/// cache.insert(CacheEntry {
///     version: CACHE_VERSION,
///     fingerprint: 0xFEED,
///     program: "demo".into(),
///     gpu: "K20X".into(),
///     precision: "Double".into(),
///     n_kernels: 2,
///     objective: 1e-3,
///     kernel_sigs: vec![10, 20],
///     groups: vec![vec![0, 1]],
///     region_fps: vec![],
/// }).unwrap();
///
/// // A fresh load (e.g. the next process) sees the persisted entry.
/// let reloaded = PlanCache::open(&dir, "K20X", "Double");
/// assert_eq!(reloaded.lookup_exact(0xFEED).unwrap().n_kernels, 2);
/// // ...scoped by device: the same file opened for the K40 hides it.
/// assert!(PlanCache::open(&dir, "K40", "Double").is_empty());
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct PlanCache {
    dir: PathBuf,
    gpu: String,
    precision: String,
    /// Usable entries, one per fingerprint (the best objective wins).
    slots: Vec<Slot>,
    /// Fingerprint → position in `slots`.
    index: HashMap<u64, usize>,
    /// Arrival numbers handed out so far.
    arrivals: u64,
    /// Structured load warnings (corrupt/stale lines that were skipped).
    pub warnings: Vec<CacheWarning>,
    /// The file ended mid-line (e.g. a killed writer); the next append
    /// must start with a newline or it would fuse with the partial line.
    unterminated: bool,
}

impl PlanCache {
    /// Load the cache in `dir` for one device/precision pair. A missing
    /// directory or file is an empty cache; unreadable or stale lines are
    /// skipped into [`PlanCache::warnings`]. Never panics on cache
    /// content.
    pub fn open(dir: &Path, gpu: &str, precision: &str) -> Self {
        let mut cache = PlanCache {
            dir: dir.to_path_buf(),
            gpu: gpu.to_string(),
            precision: precision.to_string(),
            slots: Vec::new(),
            index: HashMap::new(),
            arrivals: 0,
            warnings: Vec::new(),
            unterminated: false,
        };
        let path = dir.join(CACHE_FILE);
        let lock = file_lock(&path);
        let guard = hold(&lock);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => return cache,
        };
        drop(guard);
        cache.unterminated = !text.is_empty() && !text.ends_with('\n');
        for (i, line) in text.lines().enumerate() {
            let lineno = i + 1;
            if line.trim().is_empty() {
                continue;
            }
            let entry: CacheEntry = match serde_json::from_str(line) {
                Ok(e) => e,
                Err(e) => {
                    cache.warnings.push(CacheWarning {
                        line: lineno,
                        reason: format!("unparseable entry: {e}"),
                    });
                    continue;
                }
            };
            if entry.version != CACHE_VERSION {
                cache.warnings.push(CacheWarning {
                    line: lineno,
                    reason: format!("version {} != supported {CACHE_VERSION}", entry.version),
                });
                continue;
            }
            if entry.gpu != gpu || entry.precision != precision {
                cache.warnings.push(CacheWarning {
                    line: lineno,
                    reason: format!(
                        "entry for {}/{}, cache opened for {gpu}/{precision}",
                        entry.gpu, entry.precision
                    ),
                });
                continue;
            }
            if entry.kernel_sigs.len() != entry.n_kernels as usize
                || !entry.objective.is_finite()
                || entry.plan().is_none()
            {
                cache.warnings.push(CacheWarning {
                    line: lineno,
                    reason: "malformed entry (bad plan, signatures, or objective)".into(),
                });
                continue;
            }
            // The best objective per fingerprint wins, wherever its line
            // sits: an improvement is appended after the line it
            // supersedes, and a worse line appended by an instance that
            // loaded before the improvement must not displace it.
            cache.supersede(entry);
        }
        cache
    }

    /// Number of usable entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no usable entry was loaded.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The entry for an exact fingerprint, if any, as a shared pointer: a
    /// caller keeps it after releasing the lock it found the cache behind.
    pub fn lookup_exact(&self, fingerprint: u64) -> Option<Arc<CacheEntry>> {
        let slot = &self.slots[*self.index.get(&fingerprint)?];
        Some(Arc::clone(&slot.entry))
    }

    /// The nearest entry by kernel-signature overlap, excluding the exact
    /// fingerprint (which [`PlanCache::lookup_exact`] already covers) and
    /// anything below `min_overlap`. Ties break to the earlier entry.
    /// Each entry's signatures are sorted into one buffer per call; the
    /// cache keeps no sorted copy beside them.
    ///
    /// Nothing in the library calls it: a solve never consults a near
    /// entry. It stays because the benchmark harness times it (ROADMAP
    /// 6(b) removes this pin).
    pub fn lookup_near(
        &self,
        fingerprint: u64,
        sigs: &[u64],
        min_overlap: f64,
    ) -> Option<Arc<CacheEntry>> {
        let probe = sorted(sigs);
        let mut held = Vec::new();
        let mut best: Option<(&Slot, f64)> = None;
        for s in &self.slots {
            if s.entry.fingerprint == fingerprint {
                continue;
            }
            held.clear();
            held.extend_from_slice(&s.entry.kernel_sigs);
            held.sort_unstable();
            let ov = sorted_overlap(&held, &probe);
            if ov >= min_overlap
                && best.is_none_or(|(b, best_ov)| ov > best_ov || (ov == best_ov && s.seq < b.seq))
            {
                best = Some((s, ov));
            }
        }
        best.map(|(s, _)| Arc::clone(&s.entry))
    }

    /// The whole-program fingerprints of the resident entries plus every
    /// region sub-fingerprint they carry, built when called. Nothing in
    /// the library reads it; it stays because the benchmark harness names
    /// it (ROADMAP 6(b) removes this pin).
    pub fn region_fps(&self) -> HashSet<u64> {
        let mut fps = HashSet::new();
        for s in &self.slots {
            fps.insert(s.entry.fingerprint);
            fps.extend(s.entry.region_fps.iter().copied());
        }
        fps
    }

    /// Keep `entry` iff its objective is strictly better than the one
    /// held for its fingerprint (or none is held).
    fn supersede(&mut self, entry: CacheEntry) {
        let held = self.index.get(&entry.fingerprint).copied();
        if held.is_some_and(|i| self.slots[i].entry.objective <= entry.objective) {
            return;
        }
        self.arrivals += 1;
        let slot = Slot {
            seq: self.arrivals,
            entry: Arc::new(entry),
        };
        match held {
            Some(i) => self.slots[i] = slot,
            None => {
                self.index.insert(slot.entry.fingerprint, self.slots.len());
                self.slots.push(slot);
            }
        }
    }

    /// Insert (or improve) the entry for `entry.fingerprint` and persist.
    /// Appends one JSONL line, unless the fingerprint is already held at
    /// an objective at least as good — then the insert is a no-op. IO
    /// errors are returned, not panicked, so a read-only cache degrades
    /// to read-through.
    pub fn insert(&mut self, entry: CacheEntry) -> std::io::Result<()> {
        let held = self.index.get(&entry.fingerprint);
        if held.is_some_and(|&i| self.slots[i].entry.objective <= entry.objective) {
            return Ok(());
        }
        std::fs::create_dir_all(&self.dir)?;
        // One buffer, one `write_all`: the whole line (newline included,
        // plus a leading newline when the file ended mid-line) lands in a
        // single `O_APPEND` write so concurrent appenders cannot
        // interleave partial JSONL lines. The per-path [`file_lock`]
        // additionally serializes in-process writers.
        let json = serde_json::to_string(&entry)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let mut buf = String::with_capacity(json.len() + 2);
        if std::mem::take(&mut self.unterminated) {
            buf.push('\n');
        }
        buf.push_str(&json);
        buf.push('\n');
        let path = self.dir.join(CACHE_FILE);
        let lock = file_lock(&path);
        let _guard = hold(&lock);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        f.write_all(buf.as_bytes())?;
        self.supersede(entry);
        Ok(())
    }

    /// Newline-terminate the file's tail if some (possibly killed) writer
    /// left it mid-line, so the next appender — which may be a plain
    /// `kfuse solve --cache-dir` run with no knowledge of the damage —
    /// starts on a fresh line. The daemon calls this once per cache
    /// during graceful drain. A missing file is a no-op.
    pub fn flush(&mut self) -> std::io::Result<()> {
        let path = self.dir.join(CACHE_FILE);
        let lock = file_lock(&path);
        let _guard = hold(&lock);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => return Ok(()),
        };
        if !text.is_empty() && !text.ends_with('\n') {
            let mut f = std::fs::OpenOptions::new().append(true).open(&path)?;
            f.write_all(b"\n")?;
        }
        self.unterminated = false;
        Ok(())
    }

    /// The GPU name this cache was opened for.
    pub fn gpu(&self) -> &str {
        &self.gpu
    }

    /// The precision tag this cache was opened for.
    pub fn precision(&self) -> &str {
        &self.precision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join("kfuse-plancache-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn entry(fp: u64, objective: f64) -> CacheEntry {
        CacheEntry {
            version: CACHE_VERSION,
            fingerprint: fp,
            program: "p".into(),
            gpu: "K20X".into(),
            precision: "Double".into(),
            n_kernels: 3,
            objective,
            kernel_sigs: vec![10, 20, 30],
            groups: vec![vec![0, 2], vec![1]],
            region_fps: vec![77],
        }
    }

    #[test]
    fn roundtrip_preserves_entries() {
        let dir = tmpdir("roundtrip");
        let mut cache = PlanCache::open(&dir, "K20X", "Double");
        assert!(cache.is_empty());
        cache.insert(entry(1, 0.5)).unwrap();
        cache.insert(entry(2, 0.7)).unwrap();

        let reloaded = PlanCache::open(&dir, "K20X", "Double");
        assert_eq!(reloaded.len(), 2);
        assert!(reloaded.warnings.is_empty());
        let e = reloaded.lookup_exact(1).unwrap();
        assert_eq!(e.objective, 0.5);
        let plan = e.plan().unwrap();
        assert_eq!(plan.groups.len(), 2);
        assert_eq!(
            plan.groups[0],
            vec![KernelId(0), KernelId(2)],
            "groups come back sorted"
        );
        assert!(reloaded.region_fps().contains(&77));
        assert!(reloaded.region_fps().contains(&1));
    }

    /// One panicking holder must not wedge every later cache operation on
    /// the same file (the daemon shares it across workers).
    #[test]
    fn poisoned_file_lock_is_recovered() {
        let dir = tmpdir("poisoned");
        let lock = file_lock(&dir.join(CACHE_FILE));
        let holder = std::thread::spawn({
            let lock = lock.clone();
            move || {
                let _guard = lock.lock().unwrap();
                panic!("holder dies with the file lock held");
            }
        });
        assert!(holder.join().is_err());
        assert!(lock.is_poisoned());

        let mut cache = PlanCache::open(&dir, "K20X", "Double");
        cache.insert(entry(1, 0.5)).unwrap();
        cache.insert(entry(1, 0.3)).unwrap(); // better: appended, supersedes on reload
        cache.flush().unwrap();
        assert_eq!(PlanCache::open(&dir, "K20X", "Double").len(), 1);
    }

    #[test]
    fn better_objective_replaces_worse_keeps() {
        let dir = tmpdir("improve");
        let mut cache = PlanCache::open(&dir, "K20X", "Double");
        cache.insert(entry(1, 0.5)).unwrap();
        cache.insert(entry(1, 0.9)).unwrap(); // worse: no-op
        assert_eq!(cache.lookup_exact(1).unwrap().objective, 0.5);
        cache.insert(entry(1, 0.3)).unwrap(); // better: replaces
        assert_eq!(cache.lookup_exact(1).unwrap().objective, 0.3);
        let reloaded = PlanCache::open(&dir, "K20X", "Double");
        assert_eq!(reloaded.len(), 1);
        assert_eq!(reloaded.lookup_exact(1).unwrap().objective, 0.3);
    }

    #[test]
    fn load_keeps_the_better_line_whatever_the_file_order() {
        // Another instance that loaded before an improvement can append a
        // worse line after it; the reload must still serve the better one.
        let dir = tmpdir("order");
        let text = [entry(1, 0.3), entry(1, 0.9)]
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect::<String>();
        std::fs::write(dir.join(CACHE_FILE), text).unwrap();
        let cache = PlanCache::open(&dir, "K20X", "Double");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup_exact(1).unwrap().objective, 0.3);
    }

    #[test]
    fn truncated_line_is_skipped_with_warning() {
        let dir = tmpdir("truncated");
        let mut cache = PlanCache::open(&dir, "K20X", "Double");
        cache.insert(entry(1, 0.5)).unwrap();
        // Simulate a crash mid-append: half a JSON object on the last line.
        let path = dir.join(CACHE_FILE);
        let mut text = std::fs::read_to_string(&path).unwrap();
        let full = serde_json::to_string(&entry(2, 0.7)).unwrap();
        text.push_str(&full[..full.len() / 2]);
        std::fs::write(&path, text).unwrap();

        let reloaded = PlanCache::open(&dir, "K20X", "Double");
        assert_eq!(reloaded.len(), 1, "intact entry survives");
        assert_eq!(reloaded.warnings.len(), 1);
        assert_eq!(reloaded.warnings[0].line, 2);
        assert!(reloaded.warnings[0].reason.contains("unparseable"));
    }

    #[test]
    fn version_and_device_mismatches_are_stale() {
        let dir = tmpdir("stale");
        let mut old = entry(1, 0.5);
        old.version = CACHE_VERSION + 1;
        // Bypass insert's invariants by writing the lines directly.
        let mut other = entry(2, 0.5);
        other.gpu = "K40".into();
        let good = entry(3, 0.5);
        let text = [&old, &other, &good]
            .iter()
            .map(|e| serde_json::to_string(e).unwrap())
            .collect::<Vec<_>>()
            .join("\n");
        std::fs::write(dir.join(CACHE_FILE), text).unwrap();
        let cache = PlanCache::open(&dir, "K20X", "Double");
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup_exact(3).is_some());
        assert_eq!(cache.warnings.len(), 2);
        assert!(cache.warnings[0].reason.contains("version"));
        assert!(cache.warnings[1].reason.contains("K40"));
    }

    #[test]
    fn malformed_plans_are_rejected() {
        let dir = tmpdir("malformed");
        let mut bad = entry(1, 0.5);
        bad.groups = vec![vec![0, 7], vec![1, 2]]; // member 7 out of range
        let mut dup = entry(2, 0.5);
        dup.groups = vec![vec![0, 1], vec![1, 2]]; // kernel 1 twice
        let mut nan = entry(3, f64::NAN);
        nan.groups = vec![vec![0], vec![1], vec![2]];
        let text = [&bad, &dup, &nan]
            .iter()
            .map(|e| serde_json::to_string(e).unwrap())
            .collect::<Vec<_>>()
            .join("\n");
        std::fs::write(dir.join(CACHE_FILE), text).unwrap();
        let cache = PlanCache::open(&dir, "K20X", "Double");
        assert!(cache.is_empty());
        assert_eq!(cache.warnings.len(), 3);
    }

    #[test]
    fn concurrent_appends_never_interleave_lines() {
        // Eight threads, each with its *own* PlanCache instance on the
        // same directory (the daemon's worker pool shape), hammering
        // inserts of distinct fingerprints. Every line must come back
        // parseable: a reload sees all entries and zero warnings.
        let dir = tmpdir("hammer");
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 25;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let dir = dir.clone();
                s.spawn(move || {
                    let mut cache = PlanCache::open(&dir, "K20X", "Double");
                    for i in 0..PER_THREAD {
                        cache.insert(entry(1 + t * PER_THREAD + i, 0.5)).unwrap();
                    }
                });
            }
        });
        let reloaded = PlanCache::open(&dir, "K20X", "Double");
        assert_eq!(
            reloaded.warnings,
            Vec::new(),
            "concurrent appends produced corrupt lines"
        );
        assert_eq!(reloaded.len() as u64, THREADS * PER_THREAD);
    }

    #[test]
    fn rewrite_preserves_entries_it_does_not_own() {
        // Two device-scoped views of one file: improving an entry in the
        // K20X view must not drop the K40 entry (or a same-device entry
        // appended by another instance after our load).
        let dir = tmpdir("foreign");
        let mut k20x = PlanCache::open(&dir, "K20X", "Double");
        k20x.insert(entry(1, 0.5)).unwrap();
        let mut k40 = PlanCache::open(&dir, "K40", "Double");
        let mut e40 = entry(7, 0.4);
        e40.gpu = "K40".into();
        k40.insert(e40).unwrap();
        let mut late = PlanCache::open(&dir, "K20X", "Double");
        late.insert(entry(9, 0.6)).unwrap(); // invisible to `k20x`
        k20x.insert(entry(1, 0.3)).unwrap(); // improvement

        let r20 = PlanCache::open(&dir, "K20X", "Double");
        assert_eq!(r20.lookup_exact(1).unwrap().objective, 0.3);
        assert!(r20.lookup_exact(9).is_some(), "late append lost in rewrite");
        let r40 = PlanCache::open(&dir, "K40", "Double");
        assert!(
            r40.lookup_exact(7).is_some(),
            "foreign device lost in rewrite"
        );
    }

    #[test]
    fn an_improvement_is_the_latest_arrival_and_retires_its_regions() {
        // What the side tables must reproduce of a list that put an
        // improved entry at its end and was rescanned per request.
        let dir = tmpdir("arrival");
        let mut cache = PlanCache::open(&dir, "K20X", "Double");
        let tied = |fp: u64, objective: f64, region: u64| {
            let mut e = entry(fp, objective);
            e.kernel_sigs = vec![30, 10, 99]; // unsorted: 2 of 3 in common with the probe
            e.region_fps = vec![region, 500];
            e
        };
        cache.insert(tied(1, 0.5, 501)).unwrap();
        cache.insert(tied(2, 0.5, 502)).unwrap();
        let near = |c: &PlanCache| c.lookup_near(42, &[10, 20, 30], 0.3).unwrap().fingerprint;
        assert_eq!(near(&cache), 1, "ties go to the earlier entry");
        assert_eq!(
            cache.region_fps(),
            HashSet::from([1, 2, 500, 501, 502]),
            "whole-program and region fingerprints of both"
        );

        cache.insert(tied(1, 0.4, 511)).unwrap(); // improves entry 1
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup_exact(1).unwrap().objective, 0.4);
        assert_eq!(near(&cache), 2, "the improved entry now arrived last");
        assert_eq!(
            cache.region_fps(),
            HashSet::from([1, 2, 500, 502, 511]),
            "501 went with the entry it belonged to; 500 is still held by 2"
        );
        // A reload sees the same thing: the better line is the later one.
        let reloaded = PlanCache::open(&dir, "K20X", "Double");
        assert_eq!(near(&reloaded), 2);
        assert_eq!(reloaded.region_fps(), cache.region_fps());
        assert!(cache.lookup_exact(3).is_none());
    }

    #[test]
    fn near_lookup_ranks_by_signature_overlap() {
        let dir = tmpdir("near");
        let mut cache = PlanCache::open(&dir, "K20X", "Double");
        let mut close = entry(1, 0.5);
        close.kernel_sigs = vec![10, 20, 99];
        let mut far = entry(2, 0.5);
        far.kernel_sigs = vec![98, 97, 99];
        cache.insert(close).unwrap();
        cache.insert(far).unwrap();

        // Entry 1 shares two of the probe's three signatures: overlap 2/3.
        let hit = cache.lookup_near(42, &[10, 20, 30], 0.3).unwrap();
        assert_eq!(hit.fingerprint, 1);
        assert!(cache.lookup_near(42, &[10, 20, 30], 0.66).is_some());
        assert!(cache.lookup_near(42, &[10, 20, 30], 0.67).is_none());
        // The exact fingerprint is excluded from near lookup.
        assert!(cache.lookup_near(1, &[10, 20, 99], 0.99).is_none());
        // Below the threshold nothing matches.
        assert!(cache.lookup_near(42, &[1, 2, 3], 0.3).is_none());
    }
}
