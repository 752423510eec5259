//! Cooperative cancellation and cross-sweep scheduling hooks.
//!
//! A long-running host (the `mpipu-serve` daemon) needs two controls the
//! engine alone cannot provide: stopping a sweep early when its client
//! goes away (or its wall-clock budget expires), and rationing the
//! worker pool across *concurrent* sweeps so one large request cannot
//! starve the rest. Both hooks are deliberately cooperative and
//! chunk-grained: workers consult them between chunks, never mid-point,
//! so the fold-order determinism contract is untouched — a sweep that
//! runs to completion produces byte-identical output with or without
//! them.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A shared, clonable cancellation flag with an optional deadline.
///
/// Clones observe the same flag: any holder may [`CancelToken::cancel`],
/// and every holder's [`CancelToken::is_cancelled`] flips together. A
/// deadline (per-request wall-clock budget) latches into the flag the
/// first time it is observed expired, so late checks stay cheap.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, uncancelled token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A clone of this token that additionally auto-cancels at
    /// `deadline`. The flag stays shared — an explicit cancel on either
    /// token (e.g. a client disconnect) is visible to both; only the
    /// derived token watches the clock.
    pub fn deadline_at(&self, deadline: Instant) -> CancelToken {
        CancelToken {
            flag: self.flag.clone(),
            deadline: Some(deadline),
        }
    }

    /// Request cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested or the deadline passed.
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                // Latch the expiry so subsequent checks skip the clock.
                self.flag.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

/// Rations chunk evaluations across concurrent sweeps.
///
/// Engine workers call [`ChunkGovernor::acquire`] before evaluating each
/// chunk and [`ChunkGovernor::release`] right after; a governor shared
/// by several running sweeps can thereby bound each sweep's share of a
/// common thread pool (fair-share scheduling). `acquire` may block;
/// returning `false` stops the calling worker — the sweep ends early and
/// reports [`crate::SweepEvent::Cancelled`]. Implementations that block
/// should poll their sweep's [`CancelToken`] (e.g. with a
/// `Condvar::wait_timeout` loop) so a cancelled sweep cannot wedge in
/// `acquire`.
pub trait ChunkGovernor: Send + Sync + fmt::Debug {
    /// Block until this sweep may evaluate one more chunk; `false` tells
    /// the worker to stop instead.
    fn acquire(&self) -> bool;

    /// Return the permit taken by [`ChunkGovernor::acquire`].
    fn release(&self);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn token_starts_clear_and_latches_on_cancel() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        let clone = token.clone();
        clone.cancel();
        assert!(token.is_cancelled(), "clones share one flag");
    }

    #[test]
    fn past_deadline_cancels_future_deadline_does_not() {
        let expired = CancelToken::new().deadline_at(Instant::now() - Duration::from_millis(1));
        assert!(expired.is_cancelled());
        assert!(expired.is_cancelled(), "expiry latches");
        let live = CancelToken::new().deadline_at(Instant::now() + Duration::from_secs(3600));
        assert!(!live.is_cancelled());
        live.cancel();
        assert!(live.is_cancelled(), "explicit cancel beats the deadline");
    }

    #[test]
    fn derived_deadline_token_shares_the_flag() {
        let base = CancelToken::new();
        let expired = base.deadline_at(Instant::now() - Duration::from_millis(1));
        assert!(expired.is_cancelled(), "derived deadline applies");
        assert!(
            base.is_cancelled(),
            "expiry latches into the shared flag, visible to the base token"
        );

        let base = CancelToken::new();
        let timed = base.deadline_at(Instant::now() + Duration::from_secs(3600));
        assert!(!timed.is_cancelled());
        base.cancel();
        assert!(
            timed.is_cancelled(),
            "base cancel reaches the derived token"
        );
    }
}
