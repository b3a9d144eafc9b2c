//! The synchronization facade the lock-free core is written against.
//!
//! Every crate holding `unsafe` concurrent code in this workspace —
//! `levelarray::{epoch_chain, elastic, packed, probe_core, slot}`,
//! `la_reclaim::{domain, stack}`, `la_flatcombine::engine` —
//! imports its atomics, `UnsafeCell` wrapper, and thread primitives from
//! here instead of `std`:
//!
//! * **normal builds** re-export `std::sync::atomic` / `std::thread`
//!   unchanged and [`cell::CausalCell`] compiles down to a plain
//!   `UnsafeCell` with `#[inline]` accessors — zero cost;
//! * **`RUSTFLAGS="--cfg la_loom"` builds** route everything through the
//!   vendored [`loom`] model checker, which exhaustively enumerates thread
//!   interleavings (and stale-read branches of non-SeqCst loads) under a
//!   preemption bound — see `crates/levelarray/tests/loom_chain.rs` and
//!   `make loom`.
//!
//! [`model`] is the entry point tests use: under `la_loom` it is loom's
//! exhaustive explorer; in normal builds it simply runs the closure once,
//! so the same model source doubles as a smoke test.

/// Atomic integers, pointers, fences and `Ordering`.
pub mod atomic {
    #[cfg(not(la_loom))]
    pub use std::sync::atomic::{
        compiler_fence, fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering,
    };

    #[cfg(la_loom)]
    pub use loom::sync::atomic::{
        compiler_fence, fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering,
    };
}

/// `UnsafeCell` with model-audited access (`with`/`with_mut`).
pub mod cell {
    #[cfg(la_loom)]
    pub use loom::cell::CausalCell;

    #[cfg(not(la_loom))]
    mod plain {
        use std::cell::UnsafeCell;

        /// Std-mode stand-in for loom's `CausalCell`: a transparent
        /// `UnsafeCell` whose `with`/`with_mut` hand out the raw pointer
        /// with no auditing (and no overhead).
        #[derive(Debug)]
        pub struct CausalCell<T> {
            data: UnsafeCell<T>,
        }

        impl<T> CausalCell<T> {
            pub const fn new(value: T) -> Self {
                CausalCell {
                    data: UnsafeCell::new(value),
                }
            }

            #[inline(always)]
            pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
                f(self.data.get())
            }

            #[inline(always)]
            pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
                f(self.data.get())
            }
        }
    }

    #[cfg(not(la_loom))]
    pub use plain::CausalCell;
}

/// Thread spawn/join/yield.
pub mod thread {
    #[cfg(not(la_loom))]
    pub use std::thread::{spawn, yield_now, JoinHandle};

    #[cfg(la_loom)]
    pub use loom::thread::{spawn, yield_now, JoinHandle};
}

/// Runs `f` under the model checker (`la_loom` builds: every interleaving
/// within the configured bounds) or once directly (normal builds).
#[cfg(la_loom)]
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    loom::model(f)
}

/// Runs `f` under the model checker (`la_loom` builds: every interleaving
/// within the configured bounds) or once directly (normal builds).
#[cfg(not(la_loom))]
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    f()
}

/// Whether this build routes synchronization through the model checker.
pub const fn is_modeled() -> bool {
    cfg!(la_loom)
}

#[cfg(test)]
mod tests {
    #[test]
    fn model_runs_the_closure() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static RAN: AtomicUsize = AtomicUsize::new(0);
        super::model(|| {
            RAN.fetch_add(1, Ordering::SeqCst);
        });
        assert!(RAN.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn causal_cell_round_trips() {
        let cell = super::cell::CausalCell::new(5u32);
        cell.with_mut(|p| unsafe { *p += 1 });
        assert_eq!(cell.with(|p| unsafe { *p }), 6);
    }
}
