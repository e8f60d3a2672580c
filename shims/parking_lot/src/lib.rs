//! Offline stand-in for `parking_lot`.
//!
//! Wraps `std::sync::Mutex` — the one lock type this workspace uses —
//! behind parking_lot's non-poisoning API: `lock()` returns the guard
//! directly instead of a `Result`. Poisoning is collapsed by taking the
//! inner value anyway — parking_lot's actual semantics (a panicking
//! thread simply releases the lock).
//!
//! # Lock-order checking (`lock-order-check` feature)
//!
//! This is the workspace's one lock-order enforcer. With the
//! `lock-order-check` feature enabled, every lock can be given a
//! **rank** ([`Mutex::set_rank`], constants in [`rank`]) and every
//! blocking acquisition is validated against a thread-local stack of
//! locks the current thread already holds:
//!
//! * acquiring a *ranked* lock while holding a ranked lock of an equal
//!   or higher rank panics (**rank inversion** — every legal nesting is
//!   strictly increasing, so the acquisition graph admits no cycle);
//! * re-acquiring a lock this thread already holds panics
//!   (**self-deadlock**);
//! * unranked locks ([`rank::UNRANKED`]) skip the rank check but still
//!   participate in self-deadlock detection;
//! * `try_lock` only *records* — a non-blocking attempt cannot
//!   deadlock, so it never panics.
//!
//! The same feature logs the rank of every acquisition while
//! `ranks_acquired_during` runs, so a test can assert which locks a
//! path takes at all, not only their order.
//!
//! Without the feature every check compiles away: the guard is the
//! plain `std::sync` guard type and [`Mutex::set_rank`] is a no-op, so
//! instrumented crates call it unconditionally.

use std::sync::{self, PoisonError};

#[cfg(not(feature = "lock-order-check"))]
pub use sync::MutexGuard;

/// Workspace-wide lock ranks, in required acquisition order — the one
/// rank table.
///
/// A thread may only acquire a ranked lock whose rank is **strictly
/// greater** than every ranked lock it already holds.
pub mod rank {
    /// Rank of a lock that opted out of ordering (the default).
    pub const UNRANKED: u32 = 0;
    /// `serving::limiter` per-tenant token-bucket map
    /// (`TenantRateLimiter::buckets`) — taken first on the admission
    /// path, never while holding anything else.
    pub const FRONTEND_LIMITER: u32 = 3;
    /// `serving::frontend` request-queue receiver baton
    /// (`Inner::queue_rx`) — the batch leader holds it while draining;
    /// it is released before any estimation lock is touched.
    pub const FRONTEND_QUEUE: u32 = 5;
    /// `costing::epoch` snapshot-publication commit mutex (`EpochStore::commit`).
    pub const EPOCH_COMMIT: u32 = 10;
    /// `arc_swap` retired-snapshot reclamation list (`ArcSwap::retired`).
    pub const EPOCH_RETIRED: u32 = 20;
    /// `telemetry::metrics` registry metric map.
    pub const REGISTRY_METRICS: u32 = 50;
    /// `telemetry::metrics` registry help-text map.
    pub const REGISTRY_HELP: u32 = 51;
    /// `telemetry::slo` burn-rate bucket ring (`SloEngine::slo_state`) —
    /// a leaf taken with nothing held.
    pub const SLO_STATE: u32 = 55;
    /// `telemetry::span` exemplar reservoir (`LayerInner::exemplars`) —
    /// a leaf taken when a finished span guard drops.
    pub const SPAN_EXEMPLARS: u32 = 56;
}

#[cfg(feature = "lock-order-check")]
mod order {
    use std::cell::RefCell;

    struct Held {
        addr: usize,
        rank: u32,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
        /// Ranks acquired on this thread while a
        /// [`super::ranks_acquired_during`] runs; `None` otherwise.
        pub(crate) static LOG: RefCell<Option<Vec<u32>>> = const { RefCell::new(None) };
    }

    /// Releases its stack entry when the owning guard drops.
    pub(crate) struct Token {
        addr: usize,
    }

    impl Drop for Token {
        fn drop(&mut self) {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().rposition(|h| h.addr == self.addr) {
                    held.remove(pos);
                }
            });
        }
    }

    /// Records (and, for blocking acquisitions, validates) one lock
    /// acquisition by the current thread.
    pub(crate) fn acquire(addr: usize, rank: u32, blocking: bool) -> Token {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if blocking && held.iter().any(|h| h.addr == addr) {
                panic!(
                    "lock-order-check: thread re-acquires lock {addr:#x} (rank {rank}) it \
                     already holds — guaranteed self-deadlock",
                );
            }
            if blocking && rank != super::rank::UNRANKED {
                let max_held = held
                    .iter()
                    .filter(|h| h.rank != super::rank::UNRANKED)
                    .map(|h| h.rank)
                    .max();
                if let Some(max_held) = max_held {
                    if rank <= max_held {
                        panic!(
                            "lock-order-check: rank inversion — acquiring rank {rank} while \
                             already holding rank {max_held}; ranked locks must be taken in \
                             strictly increasing order (see parking_lot::rank)",
                        );
                    }
                }
            }
            held.push(Held { addr, rank });
        });
        LOG.with(|log| {
            if let Some(log) = log.borrow_mut().as_mut() {
                log.push(rank);
            }
        });
        Token { addr }
    }
}

#[cfg(feature = "lock-order-check")]
mod guards {
    use std::fmt;
    use std::ops::{Deref, DerefMut};
    use std::sync;

    use super::order::Token;

    /// A guard that pops the lock-order stack when dropped.
    pub struct MutexGuard<'a, T: ?Sized> {
        // Declared first so the order entry is released before the
        // underlying lock itself.
        _token: Token,
        inner: sync::MutexGuard<'a, T>,
    }

    impl<'a, T: ?Sized> MutexGuard<'a, T> {
        pub(crate) fn new(token: Token, inner: sync::MutexGuard<'a, T>) -> Self {
            MutexGuard {
                _token: token,
                inner,
            }
        }
    }

    impl<T: ?Sized> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::Debug::fmt(&**self, f)
        }
    }

    impl<T: ?Sized + fmt::Display> fmt::Display for MutexGuard<'_, T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::Display::fmt(&**self, f)
        }
    }
}

#[cfg(feature = "lock-order-check")]
pub use guards::MutexGuard;

/// Runs `f` and returns the rank of every lock the current thread
/// acquired meanwhile, in order (unranked locks log
/// [`rank::UNRANKED`]). Locks taken on other threads are not seen.
/// A nested call's ranks also reach the enclosing call's log.
#[cfg(feature = "lock-order-check")]
pub fn ranks_acquired_during(f: impl FnOnce()) -> Vec<u32> {
    let outer = order::LOG.with(|log| log.replace(Some(Vec::new())));
    f();
    let ranks = order::LOG
        .with(|log| log.replace(outer))
        .unwrap_or_default();
    order::LOG.with(|log| {
        if let Some(outer) = log.borrow_mut().as_mut() {
            outer.extend_from_slice(&ranks);
        }
    });
    ranks
}

#[cfg(feature = "lock-order-check")]
use std::sync::atomic::{AtomicU32, Ordering};

/// Non-poisoning mutual-exclusion lock.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    #[cfg(feature = "lock-order-check")]
    rank: AtomicU32,
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Wrap a value.
    pub const fn new(value: T) -> Self {
        Mutex {
            #[cfg(feature = "lock-order-check")]
            rank: AtomicU32::new(rank::UNRANKED),
            inner: sync::Mutex::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Assigns this lock's rank for `lock-order-check` builds (see
    /// [`rank`]). Without the feature this is a no-op, so callers need
    /// no `cfg` of their own.
    #[cfg_attr(not(feature = "lock-order-check"), allow(unused_variables))]
    pub fn set_rank(&self, rank: u32) {
        #[cfg(feature = "lock-order-check")]
        self.rank.store(rank, Ordering::Relaxed);
    }

    #[cfg(feature = "lock-order-check")]
    fn addr(&self) -> usize {
        &self.rank as *const AtomicU32 as usize
    }

    /// Acquire the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "lock-order-check")]
        {
            let token = order::acquire(self.addr(), self.rank.load(Ordering::Relaxed), true);
            MutexGuard::new(
                token,
                self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            )
        }
        #[cfg(not(feature = "lock-order-check"))]
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = match self.inner.try_lock() {
            Ok(g) => Some(g),
            Err(sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        };
        #[cfg(feature = "lock-order-check")]
        {
            guard.map(|g| {
                let token = order::acquire(self.addr(), self.rank.load(Ordering::Relaxed), false);
                MutexGuard::new(token, g)
            })
        }
        #[cfg(not(feature = "lock-order-check"))]
        guard
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn survives_poison() {
        use std::sync::Arc;
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // parking_lot semantics: the lock is usable after a panic.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[cfg(feature = "lock-order-check")]
    mod ordering {
        use super::super::*;

        #[test]
        fn ranks_acquired_during_logs_every_acquisition_in_order() {
            let low = Mutex::new(());
            let high = Mutex::new(());
            low.set_rank(10);
            high.set_rank(20);
            let mut inner = Vec::new();
            let outer = ranks_acquired_during(|| {
                drop(low.lock());
                inner = ranks_acquired_during(|| drop(high.try_lock()));
                let _a = low.lock();
                let _b = high.lock();
            });
            assert_eq!(inner, vec![20]);
            assert_eq!(outer, vec![10, 20, 10, 20]);
            // Outside a recording nothing is logged.
            drop(low.lock());
            assert!(ranks_acquired_during(|| {}).is_empty());
        }

        #[test]
        fn increasing_ranks_are_legal() {
            let low = Mutex::new(());
            let high = Mutex::new(());
            low.set_rank(10);
            high.set_rank(20);
            let _a = low.lock();
            let _b = high.lock();
        }

        #[test]
        #[should_panic(expected = "rank inversion")]
        fn decreasing_ranks_panic() {
            let low = Mutex::new(());
            let high = Mutex::new(());
            low.set_rank(10);
            high.set_rank(20);
            let _b = high.lock();
            let _a = low.lock();
        }

        #[test]
        #[should_panic(expected = "rank inversion")]
        fn equal_ranks_panic() {
            let a = Mutex::new(());
            let b = Mutex::new(());
            a.set_rank(10);
            b.set_rank(10);
            let _a = a.lock();
            let _b = b.lock();
        }

        #[test]
        #[should_panic(expected = "self-deadlock")]
        fn mutex_reentry_panics() {
            let m = Mutex::new(());
            let _a = m.lock();
            let _b = m.lock();
        }

        #[test]
        fn release_unwinds_the_stack() {
            let low = Mutex::new(());
            let high = Mutex::new(());
            low.set_rank(10);
            high.set_rank(20);
            drop(high.lock());
            // The high-rank guard is gone, so the low rank is legal again.
            let _a = low.lock();
            let _b = high.lock();
        }

        #[test]
        fn try_lock_records_without_panicking() {
            let low = Mutex::new(());
            let high = Mutex::new(());
            low.set_rank(10);
            high.set_rank(20);
            let _b = high.lock();
            // Inverted, but non-blocking: must not panic.
            let a = low.try_lock();
            assert!(a.is_some());
            // Same-thread re-try on a held lock: std reports WouldBlock.
            assert!(high.try_lock().is_none());
        }

        #[test]
        fn unranked_locks_skip_rank_checks() {
            let ranked = Mutex::new(());
            ranked.set_rank(50);
            let plain = Mutex::new(());
            let _a = ranked.lock();
            let _b = plain.lock();
        }
    }
}
