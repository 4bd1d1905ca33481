//! Primary/replica WAL-shipping replication for read scale-out.
//!
//! Probabilistic query workloads are read-heavy — the expensive part is
//! inference, not ingest — so the cheapest way to "serve heavy traffic
//! from millions of users" is to ship the primary's write-ahead log to N
//! read-only replicas and fan queries out. This crate supplies the pieces;
//! `pdb-server` wires them into the serving loop:
//!
//! * [`wire`] — the frame protocol: snapshot, record, heartbeat,
//!   shutdown, deny; CRC-checked and self-delimiting, reusing the
//!   `pdb-store` codecs so a streamed record is byte-for-byte a WAL
//!   record.
//! * [`hub`] — primary side: a [`ReplicaHub`] fans every logged mutation
//!   out to per-replica bounded feeds; registration shares the WAL lock so
//!   catch-up and live stream meet gaplessly.
//! * [`client`] — replica side: a background thread that connects,
//!   requests `replicate from <lsn>`, installs snapshot bootstraps,
//!   applies records in dense LSN order, watches heartbeats, and
//!   reconnects with capped exponential backoff + jitter. When the primary
//!   has checkpointed past the replica's LSN it simply sends a fresh
//!   snapshot — re-bootstrap is automatic.
//! * [`fault`] — a `FailpointFs`-style harness injecting dropped
//!   connections, torn frames, stalls, and refused dials at exact global
//!   read ordinals, so tests can hit every protocol boundary.
//!
//! The replication contract mirrors the durability contract: a replica
//! that has applied LSN `n` holds **bit-identical** state to the primary
//! at LSN `n` — same `f64` bit patterns for every stored probability and
//! every query answer — because both sides apply the same ops through the
//! same code in the same order (see `tests/replication.rs`).

#![warn(missing_docs)]

pub mod client;
pub mod fault;
pub mod hub;
pub mod wire;

pub use client::{
    start_replica, Connector, ReplicaApply, ReplicaConn, ReplicaHandle, ReplicaOptions,
    ReplicaStatus, TcpConnector,
};
pub use fault::{FaultConnector, StreamFault, StreamFaults};
pub use hub::{FeedClosed, ReplicaFeed, ReplicaHub};
pub use wire::{encode_frame, read_frame, write_frame, Frame, FrameError};

use std::fmt;

/// The typed refusal a read-only replica answers every write command with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadOnlyReplica {
    /// The refused verb (`insert`, `update`, `domain`, `view create`, …).
    pub verb: &'static str,
}

impl fmt::Display for ReadOnlyReplica {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "read-only replica: {} must run on the primary",
            self.verb
        )
    }
}

impl std::error::Error for ReadOnlyReplica {}
