//! Warm-memo pool for ECO re-submissions.
//!
//! The content-addressed result cache answers *identical* re-submissions
//! with zero work. This pool serves the next-most-common service
//! pattern, an **ECO re-spin** that re-submits the same circuit with a
//! tweaked EDL overhead. Such a job misses the result cache (the key
//! hashes `c`), but when the overhead does not reach its Eq. 14
//! instance — base retiming and RVL, or a G-RAR run with no targets —
//! the instance is identical to the previous run's, and the
//! [`RetimingSweep`] memo that run left behind answers it without a
//! solve. Slots are keyed by [`crate::canon::warm_key`] — the cache key
//! *minus* overhead and verification.
//!
//! Concurrency uses a checkout model: a worker [`WarmPool::checkout`]s
//! the slot (removing it), executes against it, and
//! [`WarmPool::checkin`]s the updated memo. Two concurrent jobs with the
//! same warm key simply race for the slot; the loser solves cold and the
//! last check-in wins — never a correctness concern, because a memo
//! answers only an identical instance, and every solution passes the
//! bounds and difference-constraint guard of
//! [`RetimingSweep::solve_for`] (plus certification under
//! `RETIME_VERIFY`/`verify:true`).

use std::collections::HashMap;
use std::sync::Mutex;

use retime_retime::RetimingSweep;

/// Bounded checkout/checkin store of solved-instance memos.
pub struct WarmPool {
    slots: Mutex<HashMap<String, RetimingSweep>>,
    cap: usize,
}

impl Default for WarmPool {
    fn default() -> WarmPool {
        WarmPool::new(64)
    }
}

impl WarmPool {
    /// A pool holding at most `cap` idle memos (a memo owns a full
    /// Eq. 14 instance and its solution, so the bound caps resident
    /// memory, not correctness — an evicted slot just means a future
    /// ECO solves cold).
    pub fn new(cap: usize) -> WarmPool {
        WarmPool {
            slots: Mutex::new(HashMap::new()),
            cap,
        }
    }

    /// Removes and returns the slot for `key`, if an earlier job left
    /// one behind.
    pub fn checkout(&self, key: &str) -> Option<RetimingSweep> {
        self.slots.lock().expect("warm pool lock").remove(key)
    }

    /// Returns a memo to the pool. Dropped silently when the pool is at
    /// capacity — memo hits are an optimization, never an obligation.
    pub fn checkin(&self, key: &str, sweep: RetimingSweep) {
        let mut slots = self.slots.lock().expect("warm pool lock");
        if slots.len() < self.cap || slots.contains_key(key) {
            slots.insert(key.to_string(), sweep);
        }
    }

    /// Idle memos currently parked.
    pub fn len(&self) -> usize {
        self.slots.lock().expect("warm pool lock").len()
    }

    /// Whether no memos are parked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_removes_and_checkin_restores() {
        let pool = WarmPool::new(4);
        assert!(pool.checkout("k").is_none());
        pool.checkin("k", RetimingSweep::default());
        assert_eq!(pool.len(), 1);
        assert!(pool.checkout("k").is_some());
        assert!(pool.is_empty());
    }

    #[test]
    fn capacity_bounds_new_keys_but_not_reinsertion() {
        let pool = WarmPool::new(1);
        pool.checkin("a", RetimingSweep::default());
        pool.checkin("b", RetimingSweep::default());
        assert_eq!(pool.len(), 1, "over-capacity insert is dropped");
        assert!(pool.checkout("b").is_none());
        // Re-inserting the resident key is always allowed.
        pool.checkin("a", RetimingSweep::default());
        assert_eq!(pool.len(), 1);
        assert!(pool.checkout("a").is_some());
    }
}
