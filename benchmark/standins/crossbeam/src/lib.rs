//! Std-only stand-in for the part of `crossbeam` 0.8 the REFILL crates
//! use, written the way ROADMAP item 1 prescribes for the in-tree
//! replacements: `thread::scope` over `std::thread::scope`,
//! `channel::bounded` over `std::sync::mpsc::sync_channel`, and the
//! work-stealing `deque` over a `Mutex<VecDeque>`.

/// Scoped threads with crossbeam's `spawn(|scope| ..)` closure shape.
pub mod thread {
    use std::thread as std_thread;

    pub use std_thread::ScopedJoinHandle;

    /// Handle for spawning threads that may borrow from the caller.
    #[derive(Clone, Copy)]
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std_thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawn a thread; the closure receives the scope so it can spawn
        /// more.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let scope = *self;
            self.inner.spawn(move || f(&scope))
        }
    }

    /// Run `f` with a scope; every thread spawned in it is joined before
    /// this returns. A panic in an unjoined thread propagates as a panic
    /// (std's behaviour) instead of crossbeam's `Err`, which the callers'
    /// `.expect(..)` would turn into a panic anyway.
    pub fn scope<'env, F, R>(f: F) -> std_thread::Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std_thread::scope(|inner| f(&Scope { inner })))
    }
}

/// Bounded channel.
pub mod channel {
    use std::sync::mpsc;

    pub use mpsc::{RecvError, SendError, TryRecvError};

    /// Sending half; `send` blocks while the channel is full.
    pub struct Sender<T>(mpsc::SyncSender<T>);

    impl<T> Sender<T> {
        /// Queue `value`, blocking while `cap` messages are waiting.
        /// Errors once the receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value)
        }
    }

    /// Receiving half.
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        /// Block for the next message. Errors once every sender is gone
        /// and the queue is empty.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }

        /// The next message if one is already queued.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv()
        }
    }

    /// A channel holding at most `cap` queued messages. `cap` 0 is a
    /// rendezvous channel, as in crossbeam.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender(tx), Receiver(rx))
    }
}

/// Work-stealing deque: the owner pushes and pops at one end, thieves
/// take from the other.
pub mod deque {
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex, PoisonError};

    type Shared<T> = Arc<Mutex<VecDeque<T>>>;

    fn locked<T>(queue: &Shared<T>) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        // Every critical section is a single push or pop, so the queue is
        // valid even if a holder panicked.
        queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The owner's end.
    pub struct Worker<T> {
        queue: Shared<T>,
    }

    impl<T> Worker<T> {
        /// A deque whose owner pops the item it pushed last.
        pub fn new_lifo() -> Worker<T> {
            Worker {
                queue: Arc::new(Mutex::new(VecDeque::new())),
            }
        }

        /// Push onto the owner's end.
        pub fn push(&self, item: T) {
            locked(&self.queue).push_back(item);
        }

        /// Pop the most recently pushed item.
        pub fn pop(&self) -> Option<T> {
            locked(&self.queue).pop_back()
        }

        /// A handle other threads steal through.
        pub fn stealer(&self) -> Stealer<T> {
            Stealer {
                queue: Arc::clone(&self.queue),
            }
        }
    }

    /// A thief's handle.
    pub struct Stealer<T> {
        queue: Shared<T>,
    }

    impl<T> Stealer<T> {
        /// Take the oldest item. The lock makes the attempt atomic, so
        /// this never reports [`Steal::Retry`].
        pub fn steal(&self) -> Steal<T> {
            match locked(&self.queue).pop_front() {
                Some(item) => Steal::Success(item),
                None => Steal::Empty,
            }
        }
    }

    /// Outcome of a steal attempt.
    #[derive(Debug, PartialEq, Eq)]
    pub enum Steal<T> {
        /// Nothing to take.
        Empty,
        /// One item taken.
        Success(T),
        /// Lost a race; try again.
        Retry,
    }
}
