//! # nqpv-service
//!
//! The async verification daemon: turns the batch engine of
//! `nqpv-engine` into a **long-running service** that accepts proof
//! obligations over a socket, schedules them by priority onto the
//! existing worker pool, streams per-job reports back as they complete,
//! and persists warm solver verdicts on disk across restarts.
//!
//! The paper's workflow (Feng & Xu, ASPLOS 2023) is one-shot: check a
//! fixed set of obligations, exit. Serving heavy traffic needs the dual
//! shape — obligations arrive continuously, callers want results the
//! moment each job lands, and nothing learned should be forgotten
//! between runs. Three pieces deliver that:
//!
//! * **Protocol** ([`proto`], [`json`]) — newline-delimited JSON over
//!   TCP: submit inline sources, single files, or whole corpora with a
//!   priority; subscribe to `queued → running → verdict` event streams;
//!   query queue/cache statistics; request shutdown. Self-contained —
//!   the workspace vendors no serde.
//! * **Scheduling** ([`queue`]) — a blocking priority heap implementing
//!   the engine's [`nqpv_engine::JobSource`] seam, ordered by
//!   `(priority, FIFO)`, so urgent work preempts and jobs of one
//!   priority class run in submission order.
//! * **Daemon** ([`daemon`], [`client`]) — the accept/connection layer,
//!   an event hub fanning job lifecycle events to subscribers, and the
//!   engine pool pulling from the live queue, its [`nqpv_engine::MemoCache`]
//!   layered over a persistent [`nqpv_engine::DiskCache`]
//!   (`--cache-dir`) shared with `nqpv batch` runs.
//!
//! # Example
//!
//! ```
//! use nqpv_service::{Client, Daemon, ServeOptions};
//!
//! let daemon = Daemon::start(ServeOptions::default())?; // 127.0.0.1:0
//! let mut client = Client::connect(daemon.local_addr())?;
//! let id = client.submit_source(
//!     "hh",
//!     "def pf := proof [q] : { P0[q] }; [q] *= H; [q] *= H; { P0[q] } end",
//!     0,
//! )?;
//! let verdicts = client.wait_verdicts(&[id])?;
//! assert_eq!(verdicts[0].status, "verified");
//! daemon.join();
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod client;
pub mod daemon;
pub mod json;
pub mod proto;
pub mod queue;

pub use client::{Client, RetryPolicy};
pub use daemon::{serve_blocking, Daemon, ServeOptions};
pub use json::Json;
pub use proto::{Event, QueueStats, Request, VerdictEvent};
pub use queue::{JobQueue, Overloaded};
