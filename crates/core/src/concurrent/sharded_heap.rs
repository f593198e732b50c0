//! The H-heap sharded across lock stripes.

use super::{lock_counted, stripe_count};
use crate::HHeap;
use icache_types::{ImportanceValue, SampleId};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// An indexed min-heap split into one [`HHeap`] per stripe.
///
/// Point operations (insert / remove / re-key) touch only the owning
/// stripe's lock. Eviction needs the *global* minimum: it locks every
/// shard in ascending index order (a deadlock-free total order) and
/// merges the per-shard minima deterministically — lowest
/// `(importance, id)` wins, ties break toward the lower id exactly as
/// in the sequential [`HHeap`]. With all shard locks held the merge is
/// exact, not approximate.
#[derive(Debug)]
pub struct ShardedHeap {
    shards: Box<[Mutex<HHeap>]>,
    mask: u64,
    len: AtomicUsize,
    contention: AtomicU64,
}

impl ShardedHeap {
    /// A heap sharded over `shards` locks (rounded up to a power of
    /// two, clamped to `[1, 1024]`).
    pub fn new(shards: usize) -> Self {
        let n = stripe_count(shards);
        ShardedHeap {
            shards: (0..n).map(|_| Mutex::new(HHeap::new())).collect(),
            mask: (n - 1) as u64,
            len: AtomicUsize::new(0),
            contention: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard_of(&self, id: SampleId) -> &Mutex<HHeap> {
        &self.shards[(id.0 & self.mask) as usize]
    }

    /// Insert `id` with key `iv`, or re-key it if already present.
    /// Returns true when the id was newly inserted.
    pub fn insert(&self, id: SampleId, iv: ImportanceValue) -> bool {
        let fresh = lock_counted(self.shard_of(id), &self.contention).insert(id, iv);
        if fresh {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    /// Remove `id`'s node. Returns its key if it was present.
    pub fn remove(&self, id: SampleId) -> Option<ImportanceValue> {
        let prev = lock_counted(self.shard_of(id), &self.contention).remove(id);
        if prev.is_some() {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        prev
    }

    /// Change `id`'s key. Returns false when `id` is not present.
    pub fn update_key(&self, id: SampleId, iv: ImportanceValue) -> bool {
        lock_counted(self.shard_of(id), &self.contention).update_key(id, iv)
    }

    /// Whether `id` has a node in any shard.
    pub fn contains(&self, id: SampleId) -> bool {
        lock_counted(self.shard_of(id), &self.contention).contains(id)
    }

    /// Total nodes across shards (counter, not a lock sweep).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Contended lock acquisitions observed so far.
    pub fn contended(&self) -> u64 {
        self.contention.load(Ordering::Relaxed)
    }

    /// Lock every shard in ascending index order, reporting each shard
    /// index to `witness` at the moment its lock is taken. The witness
    /// lets the loom model assert the ascending acquisition discipline
    /// itself, not just the merge result.
    fn lock_all(&self, witness: &mut dyn FnMut(usize)) -> Vec<MutexGuard<'_, HHeap>> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let guard = lock_counted(s, &self.contention);
                witness(i);
                guard
            })
            .collect()
    }

    /// The global minimum `(id, importance)` without removing it.
    /// Takes every shard lock; exact under concurrency.
    pub fn peek_global_min(&self) -> Option<(SampleId, ImportanceValue)> {
        let guards = self.lock_all(&mut |_| {});
        Self::min_of(&guards)
    }

    /// Remove and return the global minimum node (deterministic
    /// cross-shard merge: lowest `(importance, id)`).
    pub fn pop_global_min(&self) -> Option<(SampleId, ImportanceValue)> {
        self.pop_global_min_witnessed(&mut |_| {})
    }

    /// [`pop_global_min`] with the lock-acquisition witness exposed:
    /// `witness` receives each shard index as its lock is acquired.
    /// Test hook for the loom model asserting the all-shards-ascending
    /// order; not part of the stable API.
    ///
    /// [`pop_global_min`]: ShardedHeap::pop_global_min
    #[doc(hidden)]
    pub fn pop_global_min_witnessed(
        &self,
        witness: &mut dyn FnMut(usize),
    ) -> Option<(SampleId, ImportanceValue)> {
        let mut guards = self.lock_all(witness);
        let (id, _) = Self::min_of(&guards)?;
        let popped = guards[(id.0 & self.mask) as usize]
            .pop_min()
            .expect("shard min vanished while every shard lock was held");
        self.len.fetch_sub(1, Ordering::Relaxed);
        Some(popped)
    }

    fn min_of(guards: &[MutexGuard<'_, HHeap>]) -> Option<(SampleId, ImportanceValue)> {
        guards
            .iter()
            .filter_map(|g| g.peek_min())
            .min_by_key(|&(id, iv)| (iv, id))
    }

    /// Run `f` on every shard in ascending index order with its lock
    /// held (epoch-barrier bulk operations: refresh, drain). The
    /// caller must fix up the length counter via [`set_len`] if `f`
    /// changes populations.
    ///
    /// [`set_len`]: ShardedHeap::set_len
    pub fn for_each_shard(&self, mut f: impl FnMut(&mut HHeap)) {
        for s in self.shards.iter() {
            f(&mut lock_counted(s, &self.contention));
        }
    }

    /// Recompute the length counter from shard populations
    /// (epoch-barrier use, after a bulk [`for_each_shard`] edit).
    ///
    /// [`for_each_shard`]: ShardedHeap::for_each_shard
    pub fn set_len(&self) {
        let mut total = 0;
        for s in self.shards.iter() {
            total += lock_counted(s, &self.contention).len();
        }
        self.len.store(total, Ordering::Relaxed);
    }

    /// Internal consistency check (tests): every shard's heap
    /// invariants hold, ids live on their owning shard, and the atomic
    /// length matches the shard sum.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> bool {
        let mut total = 0;
        for (i, s) in self.shards.iter().enumerate() {
            let guard = lock_counted(s, &self.contention);
            if !guard.check_invariants() {
                return false;
            }
            if guard.iter().any(|(id, _)| (id.0 & self.mask) as usize != i) {
                return false;
            }
            total += guard.len();
        }
        total == self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(v: f64) -> ImportanceValue {
        ImportanceValue::new(v).expect("finite non-negative test key")
    }

    #[test]
    fn pop_global_min_merges_across_shards_ascending() {
        let h = ShardedHeap::new(4);
        // Keys chosen so ascending key order hops between shards.
        for (id, v) in [(0u64, 5.0), (1, 3.0), (2, 4.0), (3, 1.0), (7, 2.0)] {
            assert!(h.insert(SampleId(id), iv(v)));
        }
        assert_eq!(h.len(), 5);
        let mut keys = Vec::new();
        while let Some((_, k)) = h.pop_global_min() {
            keys.push(k.get());
            assert!(h.check_invariants());
        }
        assert_eq!(keys, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(h.is_empty());
    }

    #[test]
    fn global_min_ties_break_toward_lower_id_across_shards() {
        let h = ShardedHeap::new(4);
        // Same key on different shards: the lower id must win the merge.
        h.insert(SampleId(6), iv(1.0));
        h.insert(SampleId(3), iv(1.0));
        h.insert(SampleId(9), iv(1.0));
        assert_eq!(h.peek_global_min(), Some((SampleId(3), iv(1.0))));
        assert_eq!(h.pop_global_min(), Some((SampleId(3), iv(1.0))));
        assert_eq!(h.pop_global_min(), Some((SampleId(6), iv(1.0))));
        assert_eq!(h.pop_global_min(), Some((SampleId(9), iv(1.0))));
    }

    #[test]
    fn point_ops_stay_shard_local() {
        let h = ShardedHeap::new(2);
        assert!(h.insert(SampleId(4), iv(2.0)));
        assert!(!h.insert(SampleId(4), iv(0.5)), "re-key, not insert");
        assert!(h.contains(SampleId(4)));
        assert!(h.update_key(SampleId(4), iv(9.0)));
        assert!(!h.update_key(SampleId(5), iv(1.0)));
        assert_eq!(h.remove(SampleId(4)), Some(iv(9.0)));
        assert_eq!(h.remove(SampleId(4)), None);
        assert!(h.check_invariants());
    }

    #[test]
    fn bulk_refresh_then_set_len() {
        let h = ShardedHeap::new(4);
        for i in 0..20u64 {
            h.insert(SampleId(i), iv(1.0 + i as f64));
        }
        // Epoch-barrier style bulk edit: drop every node with an odd id.
        h.for_each_shard(|shard| {
            let odd: Vec<SampleId> = shard
                .iter()
                .map(|(id, _)| id)
                .filter(|id| id.0 % 2 == 1)
                .collect();
            for id in odd {
                shard.remove(id);
            }
        });
        h.set_len();
        assert_eq!(h.len(), 10);
        assert!(h.check_invariants());
    }
}
