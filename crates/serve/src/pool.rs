//! A pool of warm compilation sessions over one frozen artifact.
//!
//! Opening a session is cheap but not free: the BDD overlay arena, its
//! hash tables and the symbol interner all start empty and grow on
//! demand, so the first compilation of every session pays the growth
//! path.  The pool keeps the *pages* of finished sessions
//! ([`record_core::SessionPages`] — capacity with cleared contents) and
//! rebuilds warm sessions from them, skipping the growth.  Because reset
//! pages replay identical handles for identical operation sequences,
//! pooled output is byte-identical to fresh-session output — the
//! differential test in `tests/pool_differential.rs` holds this.

use crate::metrics::{incr, ServeMetrics};
use record_core::{CompileSession, SessionPages, Target};
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex};

/// Counters describing pool behaviour since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Sessions opened cold (no idle pages available).
    pub created: u64,
    /// Sessions rebuilt from pooled pages.
    pub reused: u64,
    /// Sessions whose pages went back to the pool on drop.
    pub returned: u64,
    /// Sessions dropped because the pool was full or the session was
    /// poisoned by a contained panic.
    pub dropped: u64,
}

/// A bounded pool of reusable session pages for one target.
///
/// Behaviour counters live in a [`ServeMetrics`] store: a private one
/// ([`SessionPool::new`]) or a server's ([`SessionPool::with_counters`]);
/// every pool of one server counts into its store, so server-side stats
/// aggregate across pools.
#[derive(Debug)]
pub struct SessionPool {
    target: Arc<Target>,
    idle: Mutex<Vec<SessionPages>>,
    max_idle: usize,
    metrics: Arc<ServeMetrics>,
}

impl SessionPool {
    /// A pool over `target` retaining at most `max_idle` idle page sets.
    pub fn new(target: Arc<Target>, max_idle: usize) -> SessionPool {
        SessionPool::with_counters(target, max_idle, Arc::default())
    }

    /// Like [`SessionPool::new`], counting into `metrics`.
    pub fn with_counters(
        target: Arc<Target>,
        max_idle: usize,
        metrics: Arc<ServeMetrics>,
    ) -> SessionPool {
        SessionPool {
            target,
            idle: Mutex::new(Vec::new()),
            max_idle,
            metrics,
        }
    }

    /// Checks a session out: warm (rebuilt from pooled pages) when idle
    /// pages exist, cold otherwise.  The session returns its pages to the
    /// pool when the guard drops.
    pub fn checkout(&self) -> PooledSession<'_> {
        let pages = self.idle.lock().expect("pool lock poisoned").pop();
        let session = match pages {
            Some(pages) => {
                incr(&self.metrics.pool_reused);
                self.target.session_from(pages)
            }
            None => {
                incr(&self.metrics.pool_created);
                self.target.session()
            }
        };
        PooledSession {
            pool: self,
            session: Some(session),
        }
    }

    /// Idle page sets currently held.
    pub fn idle_len(&self) -> usize {
        self.idle.lock().expect("pool lock poisoned").len()
    }

    /// A snapshot of the behaviour counters (summed over every pool
    /// counting into the same store).
    pub fn stats(&self) -> PoolStats {
        self.metrics.pool_stats()
    }

    fn checkin(&self, session: CompileSession<'_>) {
        // A poisoned session panicked mid-compile: its overlay tables may
        // be mid-mutation, so its pages never re-enter circulation.
        if session.poisoned() {
            incr(&self.metrics.pool_dropped);
            return;
        }
        let pages = session.into_pages();
        let mut idle = self.idle.lock().expect("pool lock poisoned");
        if idle.len() < self.max_idle {
            idle.push(pages);
            incr(&self.metrics.pool_returned);
        } else {
            incr(&self.metrics.pool_dropped);
        }
    }
}

/// A checked-out session; derefs to [`CompileSession`] and returns its
/// pages to the pool on drop.
#[derive(Debug)]
pub struct PooledSession<'p> {
    pool: &'p SessionPool,
    session: Option<CompileSession<'p>>,
}

impl<'p> Deref for PooledSession<'p> {
    type Target = CompileSession<'p>;

    fn deref(&self) -> &CompileSession<'p> {
        self.session.as_ref().expect("session present until drop")
    }
}

impl<'p> DerefMut for PooledSession<'p> {
    fn deref_mut(&mut self) -> &mut CompileSession<'p> {
        self.session.as_mut().expect("session present until drop")
    }
}

impl Drop for PooledSession<'_> {
    fn drop(&mut self) {
        if let Some(session) = self.session.take() {
            self.pool.checkin(session);
        }
    }
}
