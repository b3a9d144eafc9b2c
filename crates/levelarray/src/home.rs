//! Sticky home shards for the sharded facades.
//!
//! [`crate::ShardedLevelArray`] and the hierarchical epochs of
//! [`crate::ElasticLevelArray`] route each thread to a *home shard*, where
//! its `Get`s start.  A thread's home is a *token* from its array's
//! [`HomePool`], and the token picks the shard as `token % shards`.  The
//! token is leased on the thread's first `Get`, or pinned explicitly
//! (`pin_home`, `route_hint`); this module is the one place either is
//! turned into a shard.
//!
//! # Home tokens are leased, not burned
//!
//! The pool hands each newly arriving thread the most recently freed token,
//! or the next fresh one (`0, 1, 2, …`) when none is free.  A thread's
//! token returns to the pool when the thread exits or moves its home to
//! another array.  So **a population of at most `T` concurrent threads only
//! ever holds tokens `0..T`**: short-lived threads reuse the homes (and the
//! warm cache lines) their predecessors vacated, instead of marching a
//! round-robin cursor ever forward.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One array's home tokens: its identity, kept inline next to the shared
/// token allocator, so resolving a thread's home reads only the facade and
/// the thread's own entry.  The allocator is touched only when a lease is
/// taken or returned.
#[derive(Debug)]
pub(crate) struct HomePool {
    /// Process-unique identity: a thread's cached home is only valid for
    /// the array whose pool issued it.
    id: u64,
    tokens: Arc<Tokens>,
}

/// The token allocator behind a [`HomePool`].
#[derive(Debug, Default)]
struct Tokens {
    /// High-water mark: the next never-used token.
    next: AtomicUsize,
    /// Tokens returned by departed (or re-homed) threads, reused LIFO so a
    /// successor inherits the most recently vacated — warmest — home.
    freed: Mutex<Vec<usize>>,
}

impl HomePool {
    pub(crate) fn new() -> Self {
        HomePool {
            id: crate::hint::next_array_id(),
            tokens: Arc::default(),
        }
    }

    /// The calling thread's home shard among `shards`, leasing a token on
    /// the thread's first touch of this pool.
    pub(crate) fn shard(&self, shards: usize) -> usize {
        THREAD_HOME.with(|cell| {
            let mut entry = cell.borrow_mut();
            let token = match entry.as_ref() {
                Some(home) if home.pool == self.id => home.token,
                _ => {
                    let lease = self.lease();
                    let token = lease.token;
                    *entry = Some(ThreadHome {
                        pool: self.id,
                        token,
                        _lease: Some(lease),
                    });
                    token
                }
            };
            token % shards
        })
    }

    /// Pins the calling thread's home token (replacing any lease, whose
    /// token returns to its pool).
    pub(crate) fn pin(&self, token: usize) {
        THREAD_HOME.with(|cell| {
            *cell.borrow_mut() = Some(ThreadHome {
                pool: self.id,
                token,
                _lease: None,
            });
        });
    }

    /// Leases a token: the most recently freed one, else the next fresh one.
    fn lease(&self) -> HomeLease {
        let recycled = self
            .tokens
            .freed
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .pop();
        let token = recycled.unwrap_or_else(|| self.tokens.next.fetch_add(1, Ordering::Relaxed));
        HomeLease {
            tokens: Arc::clone(&self.tokens),
            token,
        }
    }
}

/// A leased home token; returns itself to the pool on drop (thread exit, or
/// the thread moving its home to another array).
#[derive(Debug)]
struct HomeLease {
    tokens: Arc<Tokens>,
    token: usize,
}

impl Drop for HomeLease {
    fn drop(&mut self) {
        self.tokens
            .freed
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(self.token);
    }
}

/// The calling thread's home: the pool it belongs to and its token.
#[derive(Debug)]
struct ThreadHome {
    pool: u64,
    token: usize,
    /// Held for its drop, which returns a leased token; `None` for a
    /// pinned one.
    _lease: Option<HomeLease>,
}

thread_local! {
    /// The calling thread's home for the array it touched most recently.
    /// One entry suffices in the common one-array-per-process case; a
    /// thread alternating between arrays re-homes on each switch, and the
    /// replaced entry's lease returns its token to the previous pool.
    static THREAD_HOME: RefCell<Option<ThreadHome>> = const { RefCell::new(None) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_pool_reuses_freed_tokens() {
        let pool = HomePool::new();
        let a = pool.lease();
        let b = pool.lease();
        assert_eq!(a.token, 0);
        assert_eq!(b.token, 1);
        drop(a);
        // The departed thread's token is recycled before any fresh one.
        let c = pool.lease();
        assert_eq!(c.token, 0);
        let d = pool.lease();
        assert_eq!(d.token, 2);
        drop(d);
        drop(b);
        drop(c);
        // All returned: the dense prefix is fully available again.
        let mut tokens: Vec<usize> = (0..3).map(|_| pool.lease().token).collect();
        // (Leases dropped immediately, so each lease re-recycles; collect the
        // set of tokens seen instead of asserting order.)
        tokens.sort_unstable();
        assert!(tokens.iter().all(|&t| t <= 2));
    }

    #[test]
    fn thread_home_resolution_is_sticky_and_churn_stable() {
        let pool = Arc::new(HomePool::new());
        let first = pool.shard(4);
        assert_eq!(first, pool.shard(4), "sticky");
        // A sequence of short-lived threads all inherit the same home:
        // each thread's lease returns its token on exit, so the next
        // thread's lease recycles it instead of advancing the cursor.
        let homes: Vec<usize> = (0..5)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || pool.shard(4)).join().unwrap()
            })
            .collect();
        assert!(
            homes.windows(2).all(|w| w[0] == w[1]),
            "churned threads must reuse the vacated home token, got {homes:?}"
        );
        assert_ne!(
            homes[0], first,
            "the live main thread keeps its own distinct token"
        );
        // Explicit pinning overrides the lease (and maps modulo the shards).
        pool.pin(7);
        assert_eq!(pool.shard(4), 3);
    }
}
