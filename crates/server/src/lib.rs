//! # pdb-server — a concurrent query service for probdb
//!
//! The serving layer the ROADMAP's "heavy traffic" north star asks for:
//! everything the interactive CLI can do, exposed over TCP to many
//! concurrent sessions, with the work the engine cascade already does
//! amortized through a result cache and surfaced through counters.
//!
//! The subsystem is three layers, each usable on its own:
//!
//! - [`protocol`] — the line protocol (commands, parser, answer
//!   formatters, wire framing);
//! - [`service`] — a thread-safe engine façade (`probdb-cli` runs one in
//!   process, so shell and server print the same bytes): snapshot reads over
//!   `RwLock<Arc<ProbDb>>`, copy-on-write mutation, a versioned LRU result
//!   cache ([`cache`]), wall-clock timeouts degrading to the approximate
//!   engine, and observability counters ([`stats`]);
//! - [`server`] — the TCP worker pool (`probdb-serve` binary in the root
//!   crate).
//!
//! ```no_run
//! use pdb_server::{serve, ServerOptions};
//!
//! let handle = serve(pdb_core::ProbDb::new(), ServerOptions::default()).unwrap();
//! println!("listening on {}", handle.local_addr());
//! handle.join();
//! ```

pub mod cache;
pub mod protocol;
pub mod server;
pub mod service;
pub mod stats;

pub use server::{serve, serve_service, ServerHandle, ServerOptions};
pub use service::{Service, ServiceOptions};
