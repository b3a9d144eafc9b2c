//! A Treiber stack whose nodes are reclaimed through a [`ReclaimDomain`].
//!
//! The stack is the textbook lock-free structure the paper's memory-management
//! motivation refers to: `pop` unlinks a node with a CAS while other threads
//! may still be dereferencing it, so the unlinked node cannot be freed until a
//! grace period has elapsed.  Every operation pins the domain (registering in
//! the activity array) for its duration — exactly the register/deregister
//! traffic whose cost the LevelArray minimizes.

use std::ptr;
use std::sync::Arc;

use la_sync::atomic::{AtomicPtr, Ordering};
use larng::RandomSource;

use crate::domain::ReclaimDomain;

struct Node<T> {
    value: Option<T>,
    next: *mut Node<T>,
}

// SAFETY: nodes are only shared between threads through the stack's atomic
// head pointer and are only dropped by the reclamation domain after a grace
// period; `T: Send` is required by the public API bounds.
unsafe impl<T: Send> Send for Node<T> {}
// SAFETY: shared access to a node is read-only while it is reachable (`next`
// is only written before the node is published by `push`'s CAS, `value` only
// taken after `pop`'s CAS grants exclusive logical ownership), so `&Node<T>`
// may cross threads whenever `T: Send`.
unsafe impl<T: Send> Sync for Node<T> {}

/// The stack's head pointer on its own pair of cache lines: every push and
/// pop reads `domain` before it pins, and a CAS on the head by another
/// thread would otherwise take that read's line away.
#[derive(Debug)]
#[repr(align(128))]
struct Head<T>(AtomicPtr<Node<T>>);

/// A lock-free LIFO stack with activity-array-based memory reclamation.
///
/// See the crate-level example for usage.
#[derive(Debug)]
pub struct TreiberStack<T> {
    head: Head<T>,
    domain: Arc<ReclaimDomain>,
}

// SAFETY: the raw head pointer is only manipulated through atomic operations,
// and node lifetime is governed by the reclamation domain.
unsafe impl<T: Send> Send for TreiberStack<T> {}
// SAFETY: all shared-reference operations (`push`, `pop`, `is_empty`) are
// internally synchronized: the head is accessed atomically and unlinked nodes
// are handed to the domain, never freed while another thread can hold them.
unsafe impl<T: Send> Sync for TreiberStack<T> {}

impl<T: Send + 'static> TreiberStack<T> {
    /// Creates an empty stack protected by `domain`.
    pub fn new(domain: Arc<ReclaimDomain>) -> Self {
        TreiberStack {
            head: Head(AtomicPtr::new(ptr::null_mut())),
            domain,
        }
    }

    /// The reclamation domain protecting this stack.
    pub fn domain(&self) -> &ReclaimDomain {
        &self.domain
    }

    /// Pushes a value.  The operation pins the domain while it manipulates the
    /// shared head pointer.
    pub fn push(&self, value: T, rng: &mut dyn RandomSource) {
        let _guard = self.domain.pin(rng);
        let node = Box::into_raw(Box::new(Node {
            value: Some(value),
            next: ptr::null_mut(),
        }));
        loop {
            let head = self.head.0.load(Ordering::Acquire);
            // SAFETY: `node` is exclusively owned until the CAS below succeeds.
            unsafe { (*node).next = head };
            if self
                .head
                .0
                .compare_exchange(head, node, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Pops the most recently pushed value, or `None` if the stack is empty.
    pub fn pop(&self, rng: &mut dyn RandomSource) -> Option<T> {
        let _guard = self.domain.pin(rng);
        loop {
            let head = self.head.0.load(Ordering::Acquire);
            if head.is_null() {
                return None;
            }
            // SAFETY: `head` was read while pinned, so even if another thread
            // pops and retires it concurrently, the node cannot be freed until
            // our guard is dropped; reading `next` is therefore safe.
            let next = unsafe { (*head).next };
            if self
                .head
                .0
                .compare_exchange(head, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // SAFETY: the successful CAS gives this thread exclusive
                // *logical* ownership of the node: no other thread can pop it
                // again, and concurrent readers never touch `value`.  Taking
                // the value out through the raw pointer is exclusive to us.
                let value = unsafe { (*head).value.take() };
                // Defer the node's destruction until no pinned operation can
                // still hold a reference to it.
                // SAFETY: the node was allocated by `Box::new` in `push` and
                // is now unreachable from the shared head.
                self.domain.retire(unsafe { Box::from_raw(head) });
                return value;
            }
        }
    }

    /// Whether the stack is currently empty (a racy snapshot, like any such
    /// query on a lock-free structure).
    pub fn is_empty(&self) -> bool {
        self.head.0.load(Ordering::Acquire).is_null()
    }

    /// Pops every element currently reachable, returning how many were
    /// removed.  Used by tests and by `Drop`.
    pub fn drain(&self, rng: &mut dyn RandomSource) -> usize {
        let mut count = 0;
        while self.pop(rng).is_some() {
            count += 1;
        }
        count
    }
}

impl<T> Drop for TreiberStack<T> {
    fn drop(&mut self) {
        // Exclusive access: walk the remaining nodes and free them directly.
        // (A plain load rather than `get_mut`: the model-checked atomic has
        // no exclusive-access view, and `&mut self` already proves there is
        // no concurrency to order against.)
        let mut current = self.head.0.load(Ordering::Relaxed);
        while !current.is_null() {
            // SAFETY: exclusive access during drop; each node is freed once.
            let boxed = unsafe { Box::from_raw(current) };
            current = boxed.next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use larng::default_rng;
    use levelarray::{ActivityArray, LevelArray};
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    fn stack_for(n: usize) -> TreiberStack<usize> {
        TreiberStack::new(Arc::new(ReclaimDomain::new(Arc::new(LevelArray::new(n)))))
    }

    #[test]
    fn push_pop_lifo_order() {
        let stack = stack_for(4);
        let mut rng = default_rng(1);
        for i in 0..10 {
            stack.push(i, &mut rng);
        }
        for i in (0..10).rev() {
            assert_eq!(stack.pop(&mut rng), Some(i));
        }
        assert_eq!(stack.pop(&mut rng), None);
        assert!(stack.is_empty());
    }

    #[test]
    fn popped_nodes_are_reclaimed_after_quiescence() {
        let stack = stack_for(4);
        let mut rng = default_rng(2);
        for i in 0..100 {
            stack.push(i, &mut rng);
        }
        assert_eq!(stack.drain(&mut rng), 100);
        let freed = stack.domain().try_reclaim();
        assert_eq!(freed, 100);
        let stats = stack.domain().stats();
        assert_eq!(stats.retired, 100);
        assert_eq!(stats.freed, 100);
        assert_eq!(stats.in_limbo, 0);
    }

    #[test]
    fn registration_traffic_flows_through_the_activity_array() {
        let registry = Arc::new(LevelArray::new(8));
        let domain = Arc::new(ReclaimDomain::new(
            registry.clone() as Arc<dyn ActivityArray>
        ));
        let stack = TreiberStack::new(domain);
        let mut rng = default_rng(3);
        stack.push(1, &mut rng);
        let _ = stack.pop(&mut rng);
        // Between operations nothing stays registered.
        assert!(registry.collect().is_empty());
    }

    #[test]
    fn drop_frees_remaining_nodes_without_leaks() {
        // Count drops of the payload to prove neither leak nor double free.
        struct Payload(Arc<AtomicUsize>);
        impl Drop for Payload {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let domain = Arc::new(ReclaimDomain::new(Arc::new(LevelArray::new(4))));
            let stack = TreiberStack::new(domain);
            let mut rng = default_rng(4);
            for _ in 0..10 {
                stack.push(Payload(Arc::clone(&drops)), &mut rng);
            }
            // Pop a few (their nodes go to limbo; values dropped immediately).
            for _ in 0..4 {
                drop(stack.pop(&mut rng));
            }
            assert_eq!(drops.load(Ordering::SeqCst), 4);
        }
        // Stack drop freed the 6 remaining values; domain drop freed the limbo
        // nodes (whose values were already taken).
        assert_eq!(drops.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn concurrent_push_pop_preserves_every_element_exactly_once() {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(2)
            .clamp(2, 4);
        let per_thread = if cfg!(miri) { 64usize } else { 5_000usize };
        let stack = Arc::new(stack_for(threads * 2));
        let popped: Arc<std::sync::Mutex<Vec<usize>>> = Arc::new(std::sync::Mutex::new(Vec::new()));

        std::thread::scope(|scope| {
            for t in 0..threads {
                let stack = Arc::clone(&stack);
                let popped = Arc::clone(&popped);
                scope.spawn(move || {
                    let mut rng = default_rng(10 + t as u64);
                    let mut local_popped = Vec::new();
                    for i in 0..per_thread {
                        stack.push(t * per_thread + i, &mut rng);
                        if i % 2 == 1 {
                            if let Some(v) = stack.pop(&mut rng) {
                                local_popped.push(v);
                            }
                        }
                        if i % 512 == 0 {
                            stack.domain().try_reclaim();
                        }
                    }
                    popped.lock().unwrap().extend(local_popped);
                });
            }
        });

        // Drain the remainder sequentially.
        let mut rng = default_rng(99);
        let mut all = popped.lock().unwrap().clone();
        while let Some(v) = stack.pop(&mut rng) {
            all.push(v);
        }
        assert_eq!(
            all.len(),
            threads * per_thread,
            "lost or duplicated elements"
        );
        let unique: HashSet<usize> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "duplicated elements");

        // Everything retired is eventually freed once quiescent.
        let _ = stack.domain().try_reclaim();
        let _ = stack.domain().try_reclaim();
        let stats = stack.domain().stats();
        assert_eq!(stats.freed, stats.retired, "{stats:?}");
    }
}
