//! Durable storage for the probabilistic database: write-ahead log,
//! circuit-preserving snapshots, crash recovery.
//!
//! In-memory state ([`pdb_core::ProbDb`] + [`pdb_views::ViewManager`]) dies
//! with the process; this crate makes it survive `kill -9`:
//!
//! * **WAL** ([`wal`]) — every mutation appends one length-prefixed,
//!   CRC-checksummed record. The fsync policy is configurable
//!   ([`FsyncPolicy`]: `always` / `interval(ms)` / `never`); torn or
//!   corrupt tails are detected and truncated on open.
//! * **Snapshots** ([`snapshot`]) — the full `TupleDb`, version vectors,
//!   and every materialized view *including its compiled decision-DNNF
//!   circuit* serialize to `snapshot-<lsn>.pdb`; the log is then rewritten
//!   from that LSN (compaction). Recovery = newest valid snapshot + WAL
//!   replay; views resume incremental maintenance without recompiling.
//! * **Apply** ([`apply`]) — the one function that folds a logged op into
//!   the engine state; live commands, replicas and recovery all run it.
//! * **Fault injection** ([`fs`]) — all I/O goes through a [`StoreFs`]
//!   trait; [`FailpointFs`] injects torn writes, bit flips, failed fsyncs,
//!   and halts at any write boundary so tests can prove recovery always
//!   yields a prefix-consistent database.
//!
//! The durability contract: an **acknowledged** mutation (an
//! [`Store::append`] that returned `Ok` under `fsync=always`) is never
//! lost, and recovery reproduces bit-identical probabilities for the
//! surviving prefix. See `docs/persistence.md` for formats and the
//! recovery protocol.
//!
//! Dependency-free by design: CRC, codec, and file formats are in-tree.

#![warn(missing_docs)]

pub mod apply;
pub mod codec;
pub mod crc;
pub mod fs;
pub mod metrics;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use apply::{apply_db, apply_op, Pending, Refused, ViewEvent};
pub use fs::{FailpointFs, Fault, MemFs, RealFs, StoreFile, StoreFs};
pub use store::{FsyncPolicy, Recovered, RecoveryInfo, Store, StoreOptions};
pub use wal::{WalFollower, WalOp, WalRecord};

use std::fmt;

/// Everything that can go wrong in the store.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O failure (possibly injected).
    Io(std::io::Error),
    /// On-disk bytes failed validation (magic, checksum, structure).
    Corrupt {
        /// What was wrong.
        what: String,
    },
    /// Replay or view restoration failed in the engine.
    Engine(pdb_core::EngineError),
    /// The store refused the operation because an earlier write failed and
    /// the log's durable suffix is unknown; reopen (recover) to continue.
    Wedged,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt { what } => write!(f, "store corruption: {what}"),
            StoreError::Engine(e) => write!(f, "store replay error: {e}"),
            StoreError::Wedged => {
                write!(f, "store is wedged after a failed write; reopen to recover")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<pdb_core::EngineError> for StoreError {
    fn from(e: pdb_core::EngineError) -> StoreError {
        StoreError::Engine(e)
    }
}
