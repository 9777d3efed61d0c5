//! Poison-recovering lock helpers, shared workspace-wide.
//!
//! A panic while holding a `Mutex` poisons it; for the locks in this
//! workspace (serving queues, the sweep's cell iterator, telemetry
//! sinks) the protected state is either plain data that is valid at
//! every suspension point or is re-validated by the caller, so the
//! correct response to poison is to keep going with the inner guard
//! rather than propagate a second panic and widen the blast radius.
//! `infer::serve` introduced this idiom for the serving queue; these
//! helpers make it uniform instead of an inline
//! `unwrap_or_else(|e| e.into_inner())` at every site.

use std::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
use std::time::Duration;

/// Lock `m`, recovering the guard if a previous holder panicked.
#[inline]
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// `Condvar::wait` with the same poison recovery as [`lock_recover`].
#[inline]
pub fn wait_recover<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// `Condvar::wait_timeout` with the same poison recovery.
#[inline]
pub fn wait_timeout_recover<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    cv.wait_timeout(guard, dur)
        .unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn recovers_poisoned_mutex() {
        let m = Mutex::new(7usize);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison");
        }));
        assert!(m.is_poisoned());
        assert_eq!(*lock_recover(&m), 7);
        *lock_recover(&m) = 9;
        assert_eq!(*lock_recover(&m), 9);
    }
}
