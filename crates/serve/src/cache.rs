//! Content-addressed cache of frozen retarget artifacts.
//!
//! Retargeting is the expensive step (milliseconds) and its product — a
//! frozen, `Send + Sync` [`Target`] — is immutable, so the service
//! retargets each distinct model exactly once and shares the artifact via
//! `Arc`.  Keys are content digests of the normalized HDL source
//! ([`crate::digest::model_key`]); a re-indented copy of a model is the
//! same model.
//!
//! Concurrency contract: for each key there is at most one retarget in
//! flight.  The first requester inserts an in-flight marker and runs the
//! retarget *outside* the lock; concurrent requesters for the same key
//! block on a condvar and receive the same `Arc` when it lands.  A failed
//! retarget clears the marker and wakes the waiters, who retry (and
//! typically fail the same way, each seeing the real error).
//!
//! A key is a 64-bit digest, not an identity: a ready entry keeps its
//! model text, and a model that answers a held key with other content
//! gets [`CacheError::KeyCollision`] instead of the held artifact.
//!
//! A ready entry also owns its target's [`SessionPool`], opened on the
//! target's first compile: evicting the entry drops the pool with it, so
//! no pool keeps an evicted target alive.

use crate::digest::{model_key, render_key, same_model, ModelKey};
use crate::metrics::{incr, ServeMetrics};
use crate::pool::SessionPool;
use record_core::{PipelineError, Record, RetargetOptions, Target};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

/// Why [`TargetCache::get_or_retarget`] has no artifact for a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// Retargeting the model failed.
    Retarget(PipelineError),
    /// The cache holds a different model under this model's key.
    /// Nothing was retargeted, evicted or replaced.
    KeyCollision(ModelKey),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Retarget(e) => e.fmt(f),
            CacheError::KeyCollision(key) => write!(
                f,
                "model key `{}` is held by a different model",
                render_key(*key)
            ),
        }
    }
}

impl Error for CacheError {}

/// Counters describing cache behaviour since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a ready entry.
    pub hits: u64,
    /// Lookups that found nothing and started a retarget.
    pub misses: u64,
    /// Retargets actually run (misses minus in-flight coalescing, plus
    /// retries after failures).
    pub retargets: u64,
    /// Waits behind another requester's in-flight retarget (one per
    /// waiter, however long it waits).
    pub inflight_waits: u64,
    /// Ready entries discarded to respect the capacity bound.
    pub evictions: u64,
}

enum Entry {
    /// Retargeted from `hdl` and ready to share; `last_used` orders LRU
    /// eviction.  `pool` is the target's session pool, once a compile
    /// has opened it.
    Ready {
        hdl: Arc<str>,
        target: Arc<Target>,
        last_used: u64,
        pool: Option<Arc<SessionPool>>,
    },
    /// A retarget for this key is running on some requester's thread.
    InFlight,
}

struct CacheState {
    map: HashMap<ModelKey, Entry>,
    /// Logical clock for LRU ordering (bumped on every touch).
    tick: u64,
}

/// A bounded, content-addressed store of retargeted compilers.
///
/// Behaviour counters live in a [`ServeMetrics`] store: a private one
/// ([`TargetCache::new`]) or a server's ([`TargetCache::with_counters`]),
/// whose `stats` op and `/metrics` exposition read the same fields.
pub struct TargetCache {
    capacity: usize,
    options: RetargetOptions,
    metrics: Arc<ServeMetrics>,
    state: Mutex<CacheState>,
    cv: Condvar,
}

impl std::fmt::Debug for TargetCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TargetCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl TargetCache {
    /// A cache holding at most `capacity` ready artifacts (clamped to at
    /// least 1), all retargeted under `options`.
    pub fn new(capacity: usize, options: RetargetOptions) -> TargetCache {
        TargetCache::with_counters(capacity, options, Arc::default())
    }

    /// Like [`TargetCache::new`], counting into `metrics` (a server
    /// passes its own store here).
    pub fn with_counters(
        capacity: usize,
        options: RetargetOptions,
        metrics: Arc<ServeMetrics>,
    ) -> TargetCache {
        TargetCache {
            capacity: capacity.max(1),
            options,
            metrics,
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                tick: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// The artifact for `hdl`, retargeting at most once per content key
    /// no matter how many threads ask concurrently.
    ///
    /// # Errors
    ///
    /// [`CacheError::Retarget`] propagates a retargeting failure; failures
    /// are not cached, so a later call retries.
    /// [`CacheError::KeyCollision`] when the entry under `hdl`'s key was
    /// retargeted from a different model; the lookup counts as a hit on
    /// that entry, which stays cached.
    pub fn get_or_retarget(&self, hdl: &str) -> Result<(ModelKey, Arc<Target>), CacheError> {
        let key = model_key(hdl);
        let mut waited = false;
        let mut state = self.state.lock().expect("cache lock poisoned");
        loop {
            let ready = match state.map.get(&key) {
                Some(Entry::Ready {
                    hdl: held, target, ..
                }) => Some(Some((Arc::clone(held), Arc::clone(target)))),
                Some(Entry::InFlight) => Some(None),
                None => None,
            };
            match ready {
                Some(Some((held, target))) => {
                    incr(&self.metrics.cache_hits);
                    state.tick += 1;
                    let tick = state.tick;
                    if let Some(Entry::Ready { last_used, .. }) = state.map.get_mut(&key) {
                        *last_used = tick;
                    }
                    drop(state);
                    // One entry's text and target: compared without the
                    // lock, they still belong together.
                    if !same_model(&held, hdl) {
                        return Err(CacheError::KeyCollision(key));
                    }
                    return Ok((key, target));
                }
                Some(None) => {
                    if !waited {
                        incr(&self.metrics.cache_inflight_waits);
                        waited = true;
                    }
                    state = self.cv.wait(state).expect("cache lock poisoned");
                }
                None => {
                    incr(&self.metrics.cache_misses);
                    incr(&self.metrics.cache_retargets);
                    state.map.insert(key, Entry::InFlight);
                    drop(state);

                    // The expensive part runs without the lock; other keys
                    // proceed, same-key requesters park on the condvar.
                    // Contained: a panicking retarget must clear the
                    // in-flight marker and report a structured error, not
                    // leave same-key waiters parked forever on a dead
                    // worker.
                    let retargeted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        Record::retarget(hdl, &self.options)
                    }))
                    .unwrap_or_else(|payload| {
                        Err(PipelineError::Internal(record_core::panic_message(payload)))
                    });

                    let mut state = self.state.lock().expect("cache lock poisoned");
                    match retargeted {
                        Ok(target) => {
                            self.metrics.record_retarget_phases(&target.report().report);
                            let target = Arc::new(target);
                            state.tick += 1;
                            let tick = state.tick;
                            state.map.insert(
                                key,
                                Entry::Ready {
                                    hdl: Arc::from(hdl),
                                    target: Arc::clone(&target),
                                    last_used: tick,
                                    pool: None,
                                },
                            );
                            self.evict_to_capacity(&mut state);
                            self.cv.notify_all();
                            return Ok((key, target));
                        }
                        Err(e) => {
                            state.map.remove(&key);
                            self.cv.notify_all();
                            return Err(CacheError::Retarget(e));
                        }
                    }
                }
            }
        }
    }

    /// A ready artifact by key (`None` when absent or still in flight);
    /// counts as a hit or miss like [`TargetCache::get_or_retarget`].
    pub fn get(&self, key: ModelKey) -> Option<Arc<Target>> {
        let mut state = self.state.lock().expect("cache lock poisoned");
        state.tick += 1;
        let tick = state.tick;
        match state.map.get_mut(&key) {
            Some(Entry::Ready {
                target, last_used, ..
            }) => {
                *last_used = tick;
                let target = Arc::clone(target);
                incr(&self.metrics.cache_hits);
                Some(target)
            }
            _ => {
                incr(&self.metrics.cache_misses);
                None
            }
        }
    }

    /// The session pool over `target`, the artifact resolved for `key`:
    /// the entry's own pool, opened now on its first use, counting into
    /// this cache's store.  When the entry no longer holds `target`
    /// (evicted since it was resolved), the pool is a new one that the
    /// cache does not keep.  Counts no hit or miss.
    pub(crate) fn pool(
        &self,
        key: ModelKey,
        target: &Arc<Target>,
        max_idle: usize,
    ) -> Arc<SessionPool> {
        let open = || {
            Arc::new(SessionPool::with_counters(
                Arc::clone(target),
                max_idle,
                Arc::clone(&self.metrics),
            ))
        };
        let mut state = self.state.lock().expect("cache lock poisoned");
        match state.map.get_mut(&key) {
            Some(Entry::Ready {
                target: held, pool, ..
            }) if Arc::ptr_eq(held, target) => Arc::clone(pool.get_or_insert_with(open)),
            _ => open(),
        }
    }

    /// Evicts least-recently-used ready entries until the bound holds.
    /// In-flight markers are never evicted (their requester will insert
    /// over them) and do not count against capacity.
    fn evict_to_capacity(&self, state: &mut CacheState) {
        loop {
            let ready = state
                .map
                .values()
                .filter(|e| matches!(e, Entry::Ready { .. }))
                .count();
            if ready <= self.capacity {
                return;
            }
            let victim = state
                .map
                .iter()
                .filter_map(|(k, e)| match e {
                    Entry::Ready { last_used, .. } => Some((*last_used, *k)),
                    Entry::InFlight => None,
                })
                .min()
                .map(|(_, k)| k);
            if let Some(k) = victim {
                state.map.remove(&k);
                incr(&self.metrics.cache_evictions);
            } else {
                return;
            }
        }
    }

    /// Keys of ready entries, most recently used first (diagnostics and
    /// eviction-order tests).
    pub fn keys(&self) -> Vec<ModelKey> {
        let state = self.state.lock().expect("cache lock poisoned");
        let mut keys: Vec<(u64, ModelKey)> = state
            .map
            .iter()
            .filter_map(|(k, e)| match e {
                Entry::Ready { last_used, .. } => Some((*last_used, *k)),
                Entry::InFlight => None,
            })
            .collect();
        keys.sort_unstable_by_key(|&(last_used, _)| std::cmp::Reverse(last_used));
        keys.into_iter().map(|(_, k)| k).collect()
    }

    /// A snapshot of the behaviour counters (the same fields the
    /// `/metrics` exposition reads).
    pub fn stats(&self) -> CacheStats {
        self.metrics.cache_stats()
    }

    /// Ready entries currently cached.
    pub fn entries(&self) -> usize {
        self.occupancy().0
    }

    /// Ready entries and the session pools they own, read under one
    /// lock (the `stats` op and `/metrics` both report them).
    pub(crate) fn occupancy(&self) -> (usize, usize) {
        let state = self.state.lock().expect("cache lock poisoned");
        state
            .map
            .values()
            .fold((0, 0), |(entries, pools), e| match e {
                Entry::Ready { pool, .. } => (entries + 1, pools + usize::from(pool.is_some())),
                Entry::InFlight => (entries, pools),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACC: &str = "module Acc { in d: bit(8); ctrl en: bit(1); out q: bit(8); \
        register q = d when en == 1; } processor A { instruction word: bit(12); \
        parts { acc: Acc; } connections { acc.d = I[7:0]; acc.en = I[8]; } }";

    /// Model B's request never receives model A's target, even when the
    /// cache holds A's entry under B's key (a digest collision, planted).
    #[test]
    fn a_colliding_model_never_receives_the_held_target() {
        let cache = TargetCache::new(4, RetargetOptions::default());
        let (key_a, target_a) = cache.get_or_retarget(ACC).expect("A retargets");
        let b = ACC.replace("bit(12)", "bit(10)");
        let key_b = model_key(&b);
        assert_ne!(key_a, key_b);
        {
            let mut state = cache.state.lock().expect("cache lock poisoned");
            let planted = state.map.remove(&key_a).expect("A is cached");
            state.map.insert(key_b, planted);
        }
        let before = cache.stats();
        assert_eq!(
            cache
                .get_or_retarget(&b)
                .map(|(_, t)| Arc::ptr_eq(&t, &target_a)),
            Err(CacheError::KeyCollision(key_b))
        );
        // Nothing was retargeted, evicted or replaced.
        let after = cache.stats();
        assert_eq!(
            (after.retargets, after.evictions),
            (before.retargets, before.evictions)
        );
        let state = cache.state.lock().expect("cache lock poisoned");
        assert!(matches!(state.map.get(&key_b),
            Some(Entry::Ready { target, .. }) if Arc::ptr_eq(target, &target_a)));
    }
}
