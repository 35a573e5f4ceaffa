//! Std-only stand-in for `parking_lot::Mutex`: `std::sync::Mutex` with
//! `parking_lot`'s non-poisoning `lock()` signature — the only two
//! methods (`new`, `lock`) the REFILL crates call.

use std::sync::{Mutex as StdMutex, PoisonError};

pub use std::sync::MutexGuard;

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(StdMutex<T>);

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(StdMutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is held. `parking_lot` has no poisoning, so a
    /// panic in another holder does not propagate here either.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
