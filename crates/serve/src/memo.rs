//! The context memo: the planning context of every program the daemon
//! served as an exact hit, keyed by the device and the program's exact
//! bytes (SERVING.md §8).
//!
//! A repeat of those bytes skips parsing, validation, relaxation,
//! metadata extraction and graph construction. It does not skip the
//! checks: the worker still probes the plan cache and re-validates,
//! re-verifies and re-scores the plan it finds
//! ([`kfuse_search::WarmSolver::serve_exact`]), and a context whose plan
//! fails any of them leaves the memo.
//!
//! A context enters only after it served an exact hit, without its
//! relaxed program (nothing on the exact-hit path reads it). Entries are
//! evicted least recently used first once the memo holds more than its
//! byte bound.

use kfuse_core::plan::PlanContext;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::{Arc, Mutex};

/// Most bytes the daemon's context memo holds: program texts plus the
/// planning tables kept for them ([`PlanContext::heap_bytes`]).
///
/// An entry costs about twice its program's text: 56 KB for the 40-kernel
/// synthetic program, 0.37 MB for the 142-kernel SCALE-LES, 4 MB for a
/// 2 000-kernel clustered program. 32 MiB therefore holds several hundred
/// programs of the benchmark's hot-set sizes (its 16 programs take about
/// 1.1 MB) or eight of the largest, and its worst case stays well below
/// the 190–430 MiB peak of a single cold 100-kernel solve.
pub const CONTEXT_MEMO_BYTES: usize = 32 << 20;

/// A lookup key: device name and program text, and their hash.
pub(crate) struct MemoKey<'a> {
    gpu: &'a str,
    text: &'a str,
    hash: u64,
}

struct Entry {
    gpu: Box<str>,
    text: Box<str>,
    ctx: Arc<PlanContext>,
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
    bytes: usize,
    tick: u64,
}

/// The memo: a byte-bounded LRU map from (device, program text) to a
/// shared planning context.
pub(crate) struct ContextMemo {
    bound: usize,
    /// Keyed per daemon: the texts come from clients, who must not be
    /// able to aim theirs at one hash.
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

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The context kept for `key`, marked as just used.
    pub(crate) fn get(&self, key: &MemoKey<'_>) -> Option<Arc<PlanContext>> {
        let mut st = self.lock();
        st.tick += 1;
        let tick = st.tick;
        let entry = st.entries.get_mut(&key.hash).filter(|e| e.is(key))?;
        entry.used = tick;
        Some(Arc::clone(&entry.ctx))
    }

    /// Bytes the memo holds.
    pub(crate) fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Drop the entry for `key`, if any.
    pub(crate) fn remove(&self, key: &MemoKey<'_>) {
        let mut st = self.lock();
        if st.entries.get(&key.hash).is_some_and(|e| e.is(key)) {
            let gone = st.entries.remove(&key.hash).expect("the entry just found");
            st.bytes -= gone.bytes;
        }
    }

    /// Keep `ctx` for `key`, without its relaxed program, evicting least
    /// recently used entries until the memo is within its bound again. A
    /// context larger than the whole bound is not kept.
    pub(crate) fn admit(&self, key: &MemoKey<'_>, mut ctx: PlanContext) {
        ctx.program = None;
        let bytes = key.gpu.len()
            + key.text.len()
            + std::mem::size_of::<Entry>()
            + std::mem::size_of::<PlanContext>()
            + ctx.heap_bytes();
        let mut st = self.lock();
        if bytes > self.bound || st.entries.get(&key.hash).is_some_and(|e| e.is(key)) {
            return;
        }
        st.tick += 1;
        let entry = Entry {
            gpu: key.gpu.into(),
            text: key.text.into(),
            ctx: Arc::new(ctx),
            bytes,
            used: st.tick,
        };
        st.bytes += bytes;
        // Another text under the same hash gives way.
        if let Some(other) = st.entries.insert(key.hash, entry) {
            st.bytes -= other.bytes;
        }
        while st.bytes > self.bound {
            let (&oldest, _) = st
                .entries
                .iter()
                .min_by_key(|(_, e)| e.used)
                .expect("a memo over its bound holds an entry");
            let gone = st.entries.remove(&oldest).expect("the entry just found");
            st.bytes -= gone.bytes;
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
        assert!(memo.get(&key).unwrap().program.is_none());
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
}
