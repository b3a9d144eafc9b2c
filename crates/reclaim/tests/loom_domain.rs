//! Interleaving verification of the grace-period protocol in
//! [`la_reclaim::ReclaimDomain`].
//!
//! Under `RUSTFLAGS="--cfg la_loom"` (see `make loom`) `la_sync::model`
//! enumerates every interleaving of the reclaimer against a pinned reader
//! within loom's preemption bound; in normal builds the same models run once
//! as smoke tests, so this file is deliberately *not* `#![cfg(la_loom)]`.
//!
//! The domain's locks are plain `std::sync::Mutex`es, which loom does not
//! track: the limbo lock a pass holds, and the retire-stripe locks that
//! `retire` takes on its thread's stripe and a pass takes to swap each
//! stripe out.  Each stripe's "has nodes" flag is a model atomic, but it
//! only lets a pass skip an idle stripe.  So the models never run a
//! `retire` or a pass concurrently with another — a retire runs before the
//! reclaimer thread exists, and the main thread passes only while no other
//! thread does — and stripe and limbo locks that never contend keep that
//! blind spot inert.
//! What the model *does* race is the part the paper's argument rests on:
//! the registry's atomic slots, i.e. whether a `Collect` snapshot taken by
//! the reclaimer can ever miss a pin that was established before the bag
//! closed.
//!
//! Central invariant: **a node retired while an operation is pinned is never
//! freed before that operation unpins.**  The pinned reader checks the
//! drop flag mid-pin in every explored schedule.

use std::sync::Arc;

use la_reclaim::ReclaimDomain;
use la_sync::atomic::{AtomicUsize, Ordering};
use larng::default_rng;
use levelarray::LevelArray;

/// A payload whose drop is observable through a (model-tracked) atomic.
struct DropFlag(Arc<AtomicUsize>);

impl Drop for DropFlag {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn retired_node_outlives_every_pin_established_before_the_bag_closed() {
    la_sync::model(|| {
        let domain = Arc::new(ReclaimDomain::new(Arc::new(LevelArray::new(1))));
        let dropped = Arc::new(AtomicUsize::new(0));

        // Pin first, retire second — sequentially, before the reclaimer
        // exists.  Every snapshot the reclaimer can take therefore contains
        // this pin, and the bag it closes must wait for it.
        let mut rng = default_rng(7);
        let guard = domain.pin(&mut rng);
        domain.retire(Box::new(DropFlag(Arc::clone(&dropped))));

        let reclaimer = la_sync::thread::spawn({
            let domain = Arc::clone(&domain);
            move || {
                // Pass 1 closes the bag against a snapshot that includes the
                // pin; pass 2 races the unpin below — it may find the name
                // gone and free, but it must not free while the name is
                // still present.
                let _ = domain.try_reclaim();
                let _ = domain.try_reclaim();
            }
        });

        // The protected read: in every interleaving of the two passes with
        // this point, the node is still alive because we are still pinned.
        assert_eq!(
            dropped.load(Ordering::SeqCst),
            0,
            "retired node freed under an active pin"
        );
        drop(guard);
        reclaimer.join().expect("reclaimer thread panicked");

        // Quiescent: one more pass must flush the node exactly once.
        let _ = domain.try_reclaim();
        assert_eq!(dropped.load(Ordering::SeqCst), 1);
        assert_eq!(domain.stats().in_limbo, 0);
    });
}

#[test]
fn pin_established_after_the_bag_closed_never_blocks_it() {
    la_sync::model(|| {
        let domain = Arc::new(ReclaimDomain::new(Arc::new(LevelArray::new(2))));
        let dropped = Arc::new(AtomicUsize::new(0));

        // Retire and close against an empty snapshot — sequentially.
        domain.retire(Box::new(DropFlag(Arc::clone(&dropped))));

        // A late pinner races the reclaimer's passes.  Whatever the
        // interleaving, the bag was closed against a snapshot that either
        // misses this pin (late pins never block old bags) or the pass ran
        // before the close (and the close-pass pair below still frees it).
        let pinner = la_sync::thread::spawn({
            let domain = Arc::clone(&domain);
            move || {
                let mut rng = default_rng(11);
                let guard = domain.pin(&mut rng);
                drop(guard);
            }
        });

        let _ = domain.try_reclaim();
        let _ = domain.try_reclaim();
        pinner.join().expect("pinner thread panicked");

        // The late pin is gone; the node must be reclaimable now.  (It may
        // already be free if the passes above never saw the pin.)
        let _ = domain.try_reclaim();
        assert_eq!(dropped.load(Ordering::SeqCst), 1);
    });
}
