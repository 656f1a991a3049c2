//! The context memo: the planning context of every program the daemon
//! served as an exact hit, keyed by the device and the program's exact
//! bytes (SERVING.md §8).
//!
//! A repeat of those bytes skips parsing, validation, relaxation,
//! metadata extraction and graph construction. It does not skip the
//! checks: the worker still probes the plan cache and re-checks,
//! re-scores and re-verifies the plan it finds
//! ([`kfuse_search::WarmSolver::serve_exact`]), with the verifier's
//! per-program tables kept beside the context. A context whose plan fails
//! any check leaves the memo.
//!
//! A context enters only after it served an exact hit, without its
//! relaxed program (nothing on the exact-hit path reads it). Entries are
//! evicted least recently used first once the memo holds more than its
//! byte bound.
//!
//! The memo also vouches for its texts ([`ContextMemo::vouch`]): a kept
//! text was scanned, parsed as a program and served, so a request line
//! that carries it again need not scan it again.

use kfuse_core::plan::PlanContext;
use kfuse_verify::CheckerTables;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::{Arc, Mutex};

/// Most bytes the daemon's context memo holds: program texts, the
/// planning tables kept for them ([`PlanContext::heap_bytes`]) and the
/// verifier's ([`CheckerTables::heap_bytes`]).
///
/// An entry costs two to three times its program's text: 58 KB for the
/// 40-kernel synthetic program, 0.40 MB for the 142-kernel SCALE-LES,
/// 4.7 MB for a 2 000-kernel clustered program. 32 MiB therefore holds
/// several hundred programs of the benchmark's hot-set sizes (its 16
/// programs take about 1.2 MB) or seven of the largest, and its worst
/// case stays well below the 190–430 MiB peak of a single cold
/// 100-kernel solve.
pub const CONTEXT_MEMO_BYTES: usize = 32 << 20;

/// How many leading bytes of a text its vouching index is keyed on. A
/// shorter text is not indexed: scanning it costs less than probing.
const PREFIX_BYTES: usize = 64;

/// Most kept texts one [`ContextMemo::vouch`] compares against the input.
const VOUCH_CANDIDATES: usize = 4;

/// What the memo keeps for one program: its planning context and the
/// verifier's tables, both derived from its metadata.
pub(crate) struct Kept {
    pub(crate) ctx: PlanContext,
    pub(crate) tables: CheckerTables,
}

/// A lookup key: device name and program text, and their hash.
pub(crate) struct MemoKey<'a> {
    gpu: &'a str,
    text: &'a str,
    hash: u64,
}

struct Entry {
    gpu: Box<str>,
    text: Arc<str>,
    kept: Arc<Kept>,
    /// The text's key in the vouching index, if it is indexed.
    prefix: Option<u64>,
    /// What the entry counts against the bound.
    bytes: usize,
    /// Tick of the last lookup that found it (LRU order).
    used: u64,
}

impl Entry {
    fn is(&self, key: &MemoKey<'_>) -> bool {
        *self.text == *key.text && *self.gpu == *key.gpu
    }
}

#[derive(Default)]
struct State {
    /// Entries by key hash. A hash match is only a candidate: every
    /// lookup compares the bytes too.
    entries: HashMap<u64, Entry>,
    /// The vouching index: key hashes of the entries whose texts share a
    /// keyed hash of their first [`PREFIX_BYTES`] bytes.
    prefixes: HashMap<u64, Vec<u64>>,
    bytes: usize,
    tick: u64,
}

impl State {
    /// Drop the entry under `hash` and its index slot.
    fn take(&mut self, hash: u64) -> Option<Entry> {
        let gone = self.entries.remove(&hash)?;
        self.bytes -= gone.bytes;
        if let Some(prefix) = gone.prefix {
            let bucket = self.prefixes.get_mut(&prefix).expect("an indexed entry");
            bucket.retain(|&h| h != hash);
            if bucket.is_empty() {
                self.prefixes.remove(&prefix);
            }
        }
        Some(gone)
    }
}

/// The memo: a byte-bounded LRU map from (device, program text) to a
/// shared planning context.
pub(crate) struct ContextMemo {
    bound: usize,
    /// Keyed per daemon: the texts come from clients, who must not be
    /// able to aim theirs at one hash or one index bucket.
    hasher: RandomState,
    state: Mutex<State>,
}

impl ContextMemo {
    pub(crate) fn new(bound: usize) -> Self {
        ContextMemo {
            bound,
            hasher: RandomState::new(),
            state: Mutex::new(State::default()),
        }
    }

    /// The key of `text` on device `gpu`. Hashing reads every byte of the
    /// text, so it happens here, outside the memo's lock.
    pub(crate) fn key<'a>(&self, gpu: &'a str, text: &'a str) -> MemoKey<'a> {
        let hash = self.hasher.hash_one((gpu, text));
        MemoKey { gpu, text, hash }
    }

    /// The vouching index key of `text`, `None` for a text too short to
    /// index.
    fn prefix(&self, text: &str) -> Option<u64> {
        let head = text.as_bytes().get(..PREFIX_BYTES)?;
        Some(self.hasher.hash_one(head))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The context kept for `key`, marked as just used.
    pub(crate) fn get(&self, key: &MemoKey<'_>) -> Option<Arc<Kept>> {
        let mut st = self.lock();
        st.tick += 1;
        let tick = st.tick;
        let entry = st.entries.get_mut(&key.hash).filter(|e| e.is(key))?;
        entry.used = tick;
        Some(Arc::clone(&entry.kept))
    }

    /// The length of a kept text that `rest` begins with, compared byte
    /// for byte against at most [`VOUCH_CANDIDATES`] texts that share its
    /// first [`PREFIX_BYTES`] bytes' index key — or `None`, and the caller
    /// scans. Every kept text was scanned as one JSON object inside a
    /// request line, parsed as a program and served, so its bytes need no
    /// second scan. The comparison runs outside the memo's lock.
    pub(crate) fn vouch(&self, rest: &str) -> Option<usize> {
        let prefix = self.prefix(rest)?;
        let mut candidates: [Option<Arc<str>>; VOUCH_CANDIDATES] = Default::default();
        {
            let st = self.lock();
            let bucket = st.prefixes.get(&prefix)?;
            for (slot, hash) in candidates.iter_mut().zip(bucket) {
                *slot = Some(Arc::clone(&st.entries[hash].text));
            }
        }
        candidates
            .into_iter()
            .flatten()
            .find(|text| rest.as_bytes().starts_with(text.as_bytes()))
            .map(|text| text.len())
    }

    /// Bytes the memo holds.
    pub(crate) fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Drop the entry for `key`, if any.
    pub(crate) fn remove(&self, key: &MemoKey<'_>) {
        let mut st = self.lock();
        if st.entries.get(&key.hash).is_some_and(|e| e.is(key)) {
            st.take(key.hash);
        }
    }

    /// Keep `ctx` for `key`, without its relaxed program, with the
    /// verifier's tables built here, evicting least recently used entries
    /// until the memo is within its bound again. A context larger than
    /// the whole bound is not kept.
    pub(crate) fn admit(&self, key: &MemoKey<'_>, mut ctx: PlanContext) {
        ctx.program = None;
        let tables = CheckerTables::new(&ctx.info);
        let prefix = self.prefix(key.text);
        let bytes = key.gpu.len()
            + key.text.len()
            + std::mem::size_of::<Entry>()
            + std::mem::size_of::<Kept>()
            + ctx.heap_bytes()
            + tables.heap_bytes()
            + prefix.map_or(0, |_| 2 * std::mem::size_of::<u64>());
        let mut st = self.lock();
        if bytes > self.bound || st.entries.get(&key.hash).is_some_and(|e| e.is(key)) {
            return;
        }
        // Another text under the same hash gives way.
        st.take(key.hash);
        st.tick += 1;
        let entry = Entry {
            gpu: key.gpu.into(),
            text: key.text.into(),
            kept: Arc::new(Kept { ctx, tables }),
            prefix,
            bytes,
            used: st.tick,
        };
        st.bytes += bytes;
        if let Some(prefix) = prefix {
            st.prefixes.entry(prefix).or_default().push(key.hash);
        }
        st.entries.insert(key.hash, entry);
        while st.bytes > self.bound {
            let (&oldest, _) = st
                .entries
                .iter()
                .min_by_key(|(_, e)| e.used)
                .expect("a memo over its bound holds an entry");
            st.take(oldest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_core::pipeline;
    use kfuse_gpu::GpuSpec;

    fn ctx(name: &str) -> PlanContext {
        let gpu = GpuSpec::k20x();
        let p = kfuse_workloads::by_name(name).unwrap();
        pipeline::prepare_owned(p, &gpu, gpu.default_precision())
    }

    #[test]
    fn keys_match_on_every_byte_and_the_device() {
        let memo = ContextMemo::new(CONTEXT_MEMO_BYTES);
        let text = r#"{"name":"quickstart"}"#;
        memo.admit(&memo.key("K20X", text), ctx("quickstart"));
        assert!(memo.get(&memo.key("K20X", text)).is_some());
        assert!(memo.get(&memo.key("K40", text)).is_none());
        assert!(memo
            .get(&memo.key("K20X", r#"{"name": "quickstart"}"#))
            .is_none());
        assert!(memo
            .get(&memo.key("K20X", &text[..text.len() - 1]))
            .is_none());
    }

    #[test]
    fn kept_contexts_drop_their_relaxed_program() {
        let memo = ContextMemo::new(CONTEXT_MEMO_BYTES);
        let key = memo.key("K20X", "rk3");
        let full = ctx("rk3");
        assert!(full.program.is_some());
        memo.admit(&key, full);
        assert!(memo.get(&key).unwrap().ctx.program.is_none());
        assert!(memo.bytes() > 0);
        memo.remove(&key);
        assert_eq!(memo.bytes(), 0);
        assert!(memo.get(&key).is_none());
    }

    #[test]
    fn the_least_recently_used_entry_goes_first() {
        let one = {
            let memo = ContextMemo::new(CONTEXT_MEMO_BYTES);
            memo.admit(&memo.key("K20X", "a"), ctx("rk3"));
            memo.bytes()
        };
        // Room for two entries of this size, not three.
        let memo = ContextMemo::new(2 * one + one / 2);
        let keys = ["a", "b", "c"].map(|t| memo.key("K20X", t));
        memo.admit(&keys[0], ctx("rk3"));
        memo.admit(&keys[1], ctx("rk3"));
        assert!(memo.get(&keys[0]).is_some(), "`a` is now the most recent");
        memo.admit(&keys[2], ctx("rk3"));
        assert!(memo.bytes() <= 2 * one + one / 2, "{}", memo.bytes());
        assert!(memo.get(&keys[1]).is_none(), "`b` was least recently used");
        assert!(memo.get(&keys[0]).is_some() && memo.get(&keys[2]).is_some());
        // A context larger than the whole bound is never kept.
        let tiny = ContextMemo::new(one / 2);
        let key = tiny.key("K20X", "a");
        tiny.admit(&key, ctx("rk3"));
        assert_eq!(tiny.bytes(), 0);
        assert!(tiny.get(&key).is_none());
    }

    /// A program text of `rk3` padded to distinct lengths, all sharing
    /// their first [`PREFIX_BYTES`] bytes.
    fn text(pad: usize) -> String {
        let rk3 = serde_json::to_string(&kfuse_workloads::by_name("rk3").unwrap()).unwrap();
        rk3.replacen(',', &format!("{},", " ".repeat(PREFIX_BYTES + pad)), 1)
    }

    #[test]
    fn kept_texts_are_vouched_for_until_they_leave() {
        let memo = ContextMemo::new(CONTEXT_MEMO_BYTES);
        let kept = text(0);
        let key = memo.key("K20X", &kept);
        assert_eq!(memo.vouch(&kept), None, "nothing is kept yet");
        memo.admit(&key, ctx("rk3"));

        // The rest of a line that begins with the kept text: vouched for up
        // to its end, whatever follows.
        assert_eq!(memo.vouch(&kept), Some(kept.len()));
        assert_eq!(memo.vouch(&format!("{kept},\"id\":7}}")), Some(kept.len()));
        // The same first 64 bytes, other bytes later: not vouched for.
        assert_eq!(&text(1)[..PREFIX_BYTES], &kept[..PREFIX_BYTES]);
        assert_eq!(memo.vouch(&text(1)), None);
        assert_eq!(memo.vouch(&kept[..kept.len() - 1]), None);
        // Another device's entry vouches for the same bytes.
        memo.admit(&memo.key("K40", &kept), ctx("rk3"));
        memo.remove(&key);
        assert_eq!(memo.vouch(&kept), Some(kept.len()));
        memo.remove(&memo.key("K40", &kept));
        assert_eq!(memo.vouch(&kept), None, "removed");
        assert_eq!(memo.bytes(), 0);
    }

    #[test]
    fn evicted_and_short_texts_are_never_vouched_for() {
        let one = {
            let memo = ContextMemo::new(CONTEXT_MEMO_BYTES);
            memo.admit(&memo.key("K20X", &text(0)), ctx("rk3"));
            memo.bytes()
        };
        let memo = ContextMemo::new(2 * one + one / 2);
        let texts = [0, 1, 2].map(text);
        for t in &texts {
            memo.admit(&memo.key("K20X", t), ctx("rk3"));
        }
        assert_eq!(memo.vouch(&texts[0]), None, "evicted");
        for t in &texts[1..] {
            assert_eq!(memo.vouch(t), Some(t.len()));
        }

        // A text shorter than the indexed prefix is kept and found, never
        // vouched for.
        let short = r#"{"name":"quickstart"}"#;
        assert!(short.len() < PREFIX_BYTES);
        let key = memo.key("K20X", short);
        memo.admit(&key, ctx("quickstart"));
        assert!(memo.get(&key).is_some());
        assert_eq!(memo.vouch(short), None);
        assert_eq!(
            memo.vouch(&format!("{short}{}", " ".repeat(PREFIX_BYTES))),
            None
        );
    }

    #[test]
    fn a_probe_compares_a_bounded_number_of_texts() {
        let memo = ContextMemo::new(CONTEXT_MEMO_BYTES);
        let texts: Vec<String> = (0..VOUCH_CANDIDATES + 2).map(text).collect();
        for t in &texts {
            memo.admit(&memo.key("K20X", t), ctx("quickstart"));
        }
        let found = texts.iter().filter(|t| memo.vouch(t).is_some()).count();
        assert_eq!(found, VOUCH_CANDIDATES);
        for t in &texts {
            assert!(memo.vouch(t).is_none_or(|len| len == t.len()));
        }
    }
}
