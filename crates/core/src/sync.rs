//! Synchronization primitives for the engine crate, routed through the
//! `loom` model checker under `--cfg loom`.
//!
//! Same contract as [`cole_storage::sync`] (which this module re-exports
//! the lock-recovery helpers from): a normal build aliases `std::sync`, a
//! model-checking build (`RUSTFLAGS="--cfg loom"`) aliases the `loom` shim
//! so the kill points and metrics counters can be explored under every
//! bounded interleaving. See `ROADMAP.md` § "Concurrency analysis & lint
//! gate".

#[cfg(not(any(loom, lock_order)))]
pub use std::sync::{
    atomic, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

// Deadlock-analysis build (`RUSTFLAGS="--cfg lock_order"`): the
// order-tracked wrappers from `cole_storage::sync`, so lock identity is
// shared workspace-wide; atomics stay `std`. `loom` wins if both are set.
#[cfg(all(lock_order, not(loom)))]
pub use cole_storage::sync::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
#[cfg(all(lock_order, not(loom)))]
pub use std::sync::atomic;

#[cfg(loom)]
pub use loom::sync::{
    atomic, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

pub use cole_storage::{lock_recover, read_recover, write_recover};
