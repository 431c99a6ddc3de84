//! Event wakeups for blocked work (§IV-F1).
//!
//! "When output buffers are full … input buffers are empty … or the system
//! is out of memory, the local scheduler simply switches to processing
//! another task" — and runs the blocked one again once its condition
//! clears. This module is how a cleared condition is announced: one
//! process-wide *epoch*, bumped by every state change that can unblock
//! work (a page enqueued or acknowledged, a split queued, a hash table or
//! dynamic filter published, memory released, a query failed or
//! cancelled), plus a condition variable that parked threads sleep on.
//!
//! The rule that makes it free of lost wakeups: a waiter reads the epoch
//! *before* it checks its condition, and parks only while the epoch still
//! has that value. A signal that lands between the check and the park
//! moves the epoch, so the park returns at once. Blocked drivers follow the
//! same rule: the executor stamps the epoch before a quantum starts, and a
//! driver that comes back blocked is runnable again as soon as the epoch
//! differs from its stamp.
//!
//! Conditions that clear with time rather than with an event (simulated
//! exchange latency, retry backoff, the bounded dynamic-filter wait) arm a
//! timer with [`wake_at`]; the timer bumps the epoch when it falls due. Only
//! the earliest timer is kept: when it fires, every blocked driver runs
//! again and re-arms its own, later deadline.
//!
//! One process-wide epoch serves every executor thread of every cluster:
//! a signal from an unrelated query only costs a spurious re-check. Threads
//! that wait on a single query (the coordinator draining its results) park
//! on that query's own [`Wake`] instead, so concurrent queries do not wake
//! each other's coordinators.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Signal times are kept for the last `RING` epochs (wake-latency
/// measurement only).
const RING: usize = 1024;
/// Low bits of a ring slot tag the epoch the time belongs to.
const TAG_BITS: u32 = 11;
const NO_TIMER: u64 = u64::MAX;

/// An epoch counter plus a condition variable to park on. Built on `std`
/// primitives directly: `presto-common` has no dependencies.
pub struct Wake {
    /// Signal times by epoch, kept for the process-wide instance only
    /// (for the wake-latency histogram).
    signal_times: Option<&'static SignalTimes>,
    epoch: AtomicU64,
    /// Held by a parking thread from its epoch check until it is inside
    /// `Condvar::wait`, and briefly by signalers that found sleepers.
    lock: Mutex<()>,
    cond: Condvar,
    sleepers: AtomicUsize,
    /// Earliest armed timer, in nanoseconds since [`base`].
    timer: AtomicU64,
}

/// `(nanos since base) << TAG_BITS | epoch tag`, indexed by epoch.
type SignalTimes = [AtomicU64; RING];

fn base() -> Instant {
    static BASE: OnceLock<Instant> = OnceLock::new();
    *BASE.get_or_init(Instant::now)
}

fn nanos_since_base(at: Instant) -> u64 {
    at.saturating_duration_since(base()).as_nanos() as u64
}

impl Wake {
    pub const fn new() -> Wake {
        Wake {
            signal_times: None,
            epoch: AtomicU64::new(0),
            lock: Mutex::new(()),
            cond: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            timer: AtomicU64::new(NO_TIMER),
        }
    }

    const fn with_signal_times(times: &'static SignalTimes) -> Wake {
        Wake {
            signal_times: Some(times),
            ..Wake::new()
        }
    }

    /// The current epoch. Fires a due timer first, so a thread that never
    /// parks still observes expired deadlines.
    pub fn epoch(&self) -> u64 {
        if self.timer.load(Ordering::Acquire) != NO_TIMER && self.fire_due_timer() {
            self.notify_sleepers();
        }
        self.epoch.load(Ordering::SeqCst)
    }

    /// Announce a state change: move the epoch and wake every parked
    /// thread. Costs two atomics when nobody is parked.
    pub fn signal(&self) {
        self.bump();
        self.notify_sleepers();
    }

    /// Make the epoch move no later than `when`.
    pub fn wake_at(&self, when: Instant) {
        let at = nanos_since_base(when);
        if self.timer.fetch_min(at, Ordering::AcqRel) > at {
            // Parked threads computed their timeout without this timer.
            self.notify_sleepers();
        }
    }

    /// Park until the epoch differs from `seen` or `timeout` elapses
    /// (`None`: no timeout). Returns the epoch observed on return.
    pub fn wait(&self, seen: u64, timeout: Option<Duration>) -> u64 {
        let until = timeout.map(|t| Instant::now() + t);
        let mut guard = self.lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let epoch = loop {
            let epoch = self.epoch.load(Ordering::SeqCst);
            if epoch != seen {
                break epoch;
            }
            if self.fire_due_timer() {
                // We hold the lock, so every other sleeper is inside
                // `wait` and sees this notify.
                self.cond.notify_all();
                break self.epoch.load(Ordering::SeqCst);
            }
            let now = Instant::now();
            let timer = match self.timer.load(Ordering::Acquire) {
                NO_TIMER => None,
                at => Some(base() + Duration::from_nanos(at)),
            };
            let limit = match (until, timer) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            guard = match limit {
                None => self.cond.wait(guard).unwrap_or_else(|e| e.into_inner()),
                Some(_) if until.is_some_and(|u| now >= u) => break epoch,
                Some(limit) => {
                    self.cond
                        .wait_timeout(guard, limit.saturating_duration_since(now))
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
        };
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
        epoch
    }

    /// When the signal that moved the epoch to `epoch` happened, if this
    /// instance keeps signal times and still remembers it (the last `RING`
    /// epochs are).
    pub fn signalled_at(&self, epoch: u64) -> Option<Instant> {
        let slot = self.signal_times?[epoch as usize % RING].load(Ordering::Acquire);
        let tag_mask = (1u64 << TAG_BITS) - 1;
        (slot & tag_mask == epoch & tag_mask && slot != 0)
            .then(|| base() + Duration::from_nanos(slot >> TAG_BITS))
    }

    fn bump(&self) {
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(times) = self.signal_times {
            let at = nanos_since_base(Instant::now());
            let tag = epoch & ((1u64 << TAG_BITS) - 1);
            times[epoch as usize % RING].store(at << TAG_BITS | tag, Ordering::Release);
        }
    }

    fn notify_sleepers(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // A sleeper holds the lock from its epoch check until it is
            // inside `wait`; taking it here orders the notify after that.
            drop(self.lock());
            self.cond.notify_all();
        }
    }

    /// The lock guards no data, so a poisoned one is still usable.
    fn lock(&self) -> MutexGuard<'_, ()> {
        self.lock.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Bump the epoch if the armed timer is due. Returns whether it fired.
    fn fire_due_timer(&self) -> bool {
        let at = self.timer.load(Ordering::Acquire);
        if at == NO_TIMER || nanos_since_base(Instant::now()) < at {
            return false;
        }
        if self
            .timer
            .compare_exchange(at, NO_TIMER, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        self.bump();
        true
    }
}

impl Default for Wake {
    fn default() -> Wake {
        Wake::new()
    }
}

/// The process-wide instance every engine component signals.
pub fn global() -> &'static Wake {
    static TIMES: SignalTimes = [const { AtomicU64::new(0) }; RING];
    static GLOBAL: Wake = Wake::with_signal_times(&TIMES);
    &GLOBAL
}

/// [`Wake::signal`] on the process-wide instance.
pub fn signal() {
    global().signal();
}

/// [`Wake::epoch`] on the process-wide instance.
pub fn epoch() -> u64 {
    global().epoch()
}

/// [`Wake::wait`] on the process-wide instance.
pub fn wait(seen: u64, timeout: Option<Duration>) -> u64 {
    global().wait(seen, timeout)
}

/// [`Wake::wake_at`] on the process-wide instance.
pub fn wake_at(when: Instant) {
    global().wake_at(when);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn signal_before_park_is_not_lost() {
        let w = Wake::new();
        let seen = w.epoch();
        w.signal();
        // The epoch moved after `seen` was read: the park returns at once.
        assert_ne!(w.wait(seen, None), seen);
    }

    #[test]
    fn signal_wakes_parked_thread() {
        let w = Arc::new(Wake::new());
        let seen = w.epoch();
        let w2 = Arc::clone(&w);
        let t = std::thread::spawn(move || w2.wait(seen, None));
        while w.sleepers.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        w.signal();
        assert_eq!(t.join().ok(), Some(seen + 1));
    }

    #[test]
    fn timeout_returns_without_epoch_change() {
        let w = Wake::new();
        let seen = w.epoch();
        assert_eq!(w.wait(seen, Some(Duration::from_millis(2))), seen);
    }

    #[test]
    fn due_timer_moves_the_epoch() {
        let w = Wake::new();
        let seen = w.epoch();
        w.wake_at(Instant::now() + Duration::from_millis(3));
        let started = Instant::now();
        // No timeout: only the timer can end this park.
        assert_ne!(w.wait(seen, None), seen);
        assert!(started.elapsed() >= Duration::from_millis(2));
        // Fired timers are disarmed.
        let seen = w.epoch();
        assert_eq!(w.wait(seen, Some(Duration::from_millis(1))), seen);
    }

    #[test]
    fn epoch_read_fires_a_due_timer() {
        let w = Wake::new();
        let seen = w.epoch();
        w.wake_at(Instant::now());
        assert_eq!(w.epoch(), seen + 1);
    }

    #[test]
    fn signal_times_are_remembered_per_epoch() {
        static TIMES: SignalTimes = [const { AtomicU64::new(0) }; RING];
        let w = Wake::with_signal_times(&TIMES);
        let before = Instant::now();
        w.signal();
        let at = w.signalled_at(w.epoch()).expect("just signalled");
        assert!(at >= before - Duration::from_millis(1) && at <= Instant::now());
        for _ in 0..RING {
            w.signal();
        }
        assert!(
            w.signalled_at(1).is_none(),
            "overwritten slots are rejected"
        );
        let plain = Wake::new();
        plain.signal();
        assert!(
            plain.signalled_at(1).is_none(),
            "only opted-in instances keep times"
        );
    }
}
