//! Fair-share chunk scheduling across concurrent sweeps.
//!
//! One [`FairShare`] pool holds `permits` chunk slots — sized to the
//! engine thread count, since each in-flight chunk occupies one engine
//! worker. Every running sweep takes a [`Ticket`]; a ticket's
//! [`ChunkGovernor::acquire`] admits a chunk only while the sweep holds
//! fewer than `permits / active_sweeps` slots (its fair share, at least
//! one). With a single sweep the cap equals the whole pool — zero lost
//! throughput — and the instant a second sweep arrives the caps shrink,
//! so a large sweep cannot starve small ones no matter how much earlier
//! it started: starvation is bounded by one chunk, not one sweep.
//!
//! Blocked acquires poll their sweep's [`CancelToken`] on a short
//! `Condvar` timeout, so a cancelled sweep parked in `acquire` unwedges
//! promptly instead of waiting for a slot it will never use.

use mpipu_explore::{CancelToken, ChunkGovernor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

#[derive(Debug, Default)]
struct PoolState {
    /// Sweeps currently holding a ticket.
    active: usize,
    /// Chunk slots currently checked out across all sweeps.
    in_flight: usize,
}

/// A pool of chunk slots rationed evenly across active sweeps.
#[derive(Debug)]
pub struct FairShare {
    permits: usize,
    state: Mutex<PoolState>,
    cv: Condvar,
}

impl FairShare {
    /// A pool with `permits` chunk slots (floored at 1).
    pub fn new(permits: usize) -> Arc<FairShare> {
        Arc::new(FairShare {
            permits: permits.max(1),
            state: Mutex::new(PoolState::default()),
            cv: Condvar::new(),
        })
    }

    /// Total chunk slots in the pool.
    pub fn permits(&self) -> usize {
        self.permits
    }

    /// Sweeps currently holding a ticket.
    pub fn active(&self) -> usize {
        self.state.lock().unwrap().active
    }

    /// Register a sweep and hand it its governor. Dropping the ticket
    /// deregisters the sweep (and re-widens everyone else's share).
    pub fn ticket(self: &Arc<FairShare>, cancel: CancelToken) -> Arc<Ticket> {
        {
            let mut st = self.state.lock().unwrap();
            st.active += 1;
        }
        self.cv.notify_all();
        Arc::new(Ticket {
            pool: Arc::clone(self),
            cancel,
            held: AtomicUsize::new(0),
        })
    }
}

/// One sweep's membership in a [`FairShare`] pool.
#[derive(Debug)]
pub struct Ticket {
    pool: Arc<FairShare>,
    cancel: CancelToken,
    held: AtomicUsize,
}

impl ChunkGovernor for Ticket {
    fn acquire(&self) -> bool {
        let mut st = self.pool.state.lock().unwrap();
        loop {
            if self.cancel.is_cancelled() {
                return false;
            }
            let cap = (self.pool.permits / st.active.max(1)).max(1);
            if self.held.load(Ordering::Relaxed) < cap && st.in_flight < self.pool.permits {
                st.in_flight += 1;
                self.held.fetch_add(1, Ordering::Relaxed);
                return true;
            }
            // Short timeout: re-check the cancel flag and the (possibly
            // re-widened) cap even if nobody notifies.
            let (guard, _) = self
                .pool
                .cv
                .wait_timeout(st, Duration::from_millis(20))
                .unwrap();
            st = guard;
        }
    }

    fn release(&self) {
        {
            let mut st = self.pool.state.lock().unwrap();
            st.in_flight = st.in_flight.saturating_sub(1);
        }
        self.held.fetch_sub(1, Ordering::Relaxed);
        self.pool.cv.notify_all();
    }
}

impl Drop for Ticket {
    /// Deregister the sweep and return any slots it still holds: a chunk
    /// that panicked between `acquire` and `release` must not keep its
    /// slot from every later sweep.
    fn drop(&mut self) {
        {
            let mut st = self.pool.state.lock().unwrap();
            st.active = st.active.saturating_sub(1);
            st.in_flight = st.in_flight.saturating_sub(*self.held.get_mut());
        }
        self.pool.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_sweep_gets_the_whole_pool() {
        let pool = FairShare::new(4);
        let t = pool.ticket(CancelToken::new());
        for _ in 0..4 {
            assert!(t.acquire());
        }
        assert_eq!(pool.state.lock().unwrap().in_flight, 4);
        for _ in 0..4 {
            t.release();
        }
        assert_eq!(pool.state.lock().unwrap().in_flight, 0);
    }

    #[test]
    fn dropped_ticket_returns_the_slots_it_never_released() {
        let pool = FairShare::new(4);
        let leaky = pool.ticket(CancelToken::new());
        for _ in 0..4 {
            assert!(leaky.acquire());
        }
        drop(leaky);
        assert_eq!(pool.state.lock().unwrap().in_flight, 0);
        let next = pool.ticket(CancelToken::new());
        for _ in 0..4 {
            assert!(next.acquire(), "the whole pool is free again");
        }
    }

    #[test]
    fn cancelled_acquire_returns_false_immediately() {
        let pool = FairShare::new(2);
        let cancel = CancelToken::new();
        let t = pool.ticket(cancel.clone());
        cancel.cancel();
        assert!(!t.acquire());
    }

    #[test]
    fn two_sweeps_split_the_pool() {
        let pool = FairShare::new(4);
        let a = pool.ticket(CancelToken::new());
        let b = pool.ticket(CancelToken::new());
        assert_eq!(pool.active(), 2);
        // Each sweep's cap is 4/2 = 2: two acquires succeed without
        // blocking, and the pool still has room for the other sweep.
        assert!(a.acquire());
        assert!(a.acquire());
        assert!(b.acquire());
        assert!(b.acquire());
        assert_eq!(pool.state.lock().unwrap().in_flight, 4);
        a.release();
        a.release();
        b.release();
        b.release();
        // Dropping one ticket re-widens the other's share to the pool.
        drop(b);
        assert_eq!(pool.active(), 1);
        for _ in 0..4 {
            assert!(a.acquire());
        }
        for _ in 0..4 {
            a.release();
        }
    }
}
