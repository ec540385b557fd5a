//! A small blocking client for the daemon's NDJSON protocol — the
//! library behind `nqpv client`, and the harness the end-to-end tests
//! drive the daemon with.

use crate::proto::{Event, Request, VerdictEvent};
use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Retry discipline for [`Client::connect_with_retry`] and
/// [`Client::submit_with_retry`]: exponential backoff with deterministic
/// jitter, bounded attempts. Retried failure classes are connection
/// failures (refused/reset/aborted, broken pipe, unexpected EOF) and the
/// daemon's structured `overloaded` refusal — anything else (a protocol
/// violation, a daemon-side submission error) fails immediately.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total tries, including the first (so `1` means no retries).
    pub attempts: u32,
    /// First backoff; doubles per retry.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Jitter seed — same seed, same backoff schedule, so chaos runs
    /// are reproducible.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The wait before retry number `attempt` (0-based): exponential
    /// from `base`, capped at `cap`, with up to +25% deterministic
    /// jitter so synchronized clients don't re-dogpile a recovering
    /// daemon in lockstep.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cap);
        let quarter = (exp.as_millis() as u64) / 4;
        if quarter == 0 {
            return exp;
        }
        // splitmix64 finalizer over (seed, attempt) — stateless and
        // reproducible.
        let mut z = self
            .seed
            .wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        exp + Duration::from_millis((z ^ (z >> 31)) % quarter)
    }
}

/// Is this failure worth retrying? Connection-shaped errors and the
/// daemon's `overloaded` refusal are transient; everything else is a
/// real answer.
fn is_retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::NotConnected
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::TimedOut
            | io::ErrorKind::Interrupted
    ) || e.to_string().contains("daemon overloaded")
}

/// Records one retry in the process-wide telemetry registry.
fn count_retry(reason: &io::Error) {
    let class = if reason.to_string().contains("daemon overloaded") {
        "overloaded"
    } else {
        "connection"
    };
    nqpv_telemetry::global()
        .counter(
            "nqpv_client_retries_total",
            "Client operations retried after transient failures, by class.",
            &[("class", class)],
        )
        .inc();
}

/// A connected protocol client.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// The daemon's address, kept for [`Client::reconnect`].
    addr: SocketAddr,
    /// How many times this client has reconnected — callers holding
    /// subscriptions from before a reconnect use this to notice they
    /// were orphaned (subscriptions are per-connection).
    reconnects: u64,
    /// Job events that arrived while a synchronous reply was awaited —
    /// replayed by [`Client::next_event`] in arrival order, so the
    /// interleaved stream loses nothing.
    buffered: std::collections::VecDeque<Event>,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Requests are single small lines; Nagle batching would add
        // ~40 ms gaps between pipelined submissions for nothing.
        stream.set_nodelay(true)?;
        let addr = stream.peer_addr()?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
            addr,
            reconnects: 0,
            buffered: std::collections::VecDeque::new(),
        })
    }

    /// Connects, retrying transient failures under `policy` — the shape
    /// for clients racing a daemon that is still starting (or briefly
    /// restarting).
    ///
    /// # Errors
    ///
    /// The last connection failure, once attempts are exhausted.
    pub fn connect_with_retry<A: ToSocketAddrs>(
        addr: A,
        policy: &RetryPolicy,
    ) -> io::Result<Client> {
        let mut attempt = 0;
        loop {
            match Client::connect(&addr) {
                Ok(c) => return Ok(c),
                Err(e) if attempt + 1 < policy.attempts && is_retryable(&e) => {
                    count_retry(&e);
                    std::thread::sleep(policy.backoff(attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Drops the current connection and dials the daemon again. Events
    /// buffered from the old connection are discarded — subscriptions do
    /// not survive a reconnect, so callers resubmit and re-watch.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn reconnect(&mut self) -> io::Result<()> {
        let fresh = Client::connect(self.addr)?;
        let generation = self.reconnects + 1;
        *self = fresh;
        self.reconnects = generation;
        Ok(())
    }

    /// How many times [`Client::reconnect`] has replaced the connection.
    /// Subscriptions (submitted-job event streams, `watch`) do not
    /// survive a reconnect — a caller that sees this change mid-sequence
    /// must resubmit anything it still wants events for.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Sends a request line.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        self.writer.write_all(req.to_line().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Sends a raw protocol line verbatim — escape hatch for testing the
    /// daemon's handling of malformed input.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Reads the next raw protocol line (`None` on EOF).
    ///
    /// # Errors
    ///
    /// Socket read failures.
    pub fn next_line(&mut self) -> io::Result<Option<String>> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            let trimmed = line.trim();
            if !trimmed.is_empty() {
                return Ok(Some(trimmed.to_string()));
            }
        }
    }

    /// Reads the next event (`None` on EOF): job events buffered during a
    /// [`Client::request`] replay first, then the live stream.
    ///
    /// # Errors
    ///
    /// Socket read failures; protocol violations map to
    /// [`io::ErrorKind::InvalidData`].
    pub fn next_event(&mut self) -> io::Result<Option<Event>> {
        if let Some(e) = self.buffered.pop_front() {
            return Ok(Some(e));
        }
        match self.next_line()? {
            None => Ok(None),
            Some(line) => Event::parse(&line)
                .map(Some)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
        }
    }

    /// Sends `req` and returns the daemon's synchronous reply (request
    /// replies are `accepted`/`stats`/`pong`/`watching`/`shutting_down`/
    /// `error`). Asynchronous job events interleaved ahead of the reply
    /// are buffered, not dropped — [`Client::next_event`] and
    /// [`Client::wait_verdicts`] replay them in order.
    ///
    /// # Errors
    ///
    /// Socket failures; unexpected EOF maps to
    /// [`io::ErrorKind::UnexpectedEof`].
    pub fn request(&mut self, req: &Request) -> io::Result<Event> {
        self.send(req)?;
        loop {
            let Some(line) = self.next_line()? else {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ));
            };
            let event =
                Event::parse(&line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            match event {
                e @ (Event::Accepted { .. }
                | Event::Stats { .. }
                | Event::Pong
                | Event::Watching
                | Event::ShuttingDown
                | Event::Overloaded { .. }
                | Event::Trace { .. }
                | Event::Profile { .. }
                | Event::Error { .. }) => return Ok(e),
                job_event => self.buffered.push_back(job_event),
            }
        }
    }

    /// Submits an inline source; returns the job id.
    ///
    /// # Errors
    ///
    /// Socket failures, daemon-side rejections ([`io::ErrorKind::Other`]).
    pub fn submit_source(&mut self, name: &str, source: &str, priority: i64) -> io::Result<u64> {
        self.submit_source_traced(name, source, priority, None)
    }

    /// [`Client::submit_source`] with an optional client-minted wire
    /// trace id (hex): the daemon's worker spans inherit it, and the
    /// server half of the trace can be fetched with
    /// [`Client::fetch_trace`] after the verdict.
    ///
    /// # Errors
    ///
    /// Socket failures, daemon-side rejections ([`io::ErrorKind::Other`]).
    pub fn submit_source_traced(
        &mut self,
        name: &str,
        source: &str,
        priority: i64,
        trace: Option<String>,
    ) -> io::Result<u64> {
        let ids = self.submit(&Request::Submit {
            name: name.to_string(),
            source: source.to_string(),
            priority,
            trace,
        })?;
        ids.first()
            .map(|(id, _)| *id)
            .ok_or_else(|| io::Error::other("daemon accepted no jobs"))
    }

    /// Submits a daemon-side path (file, directory or manifest); returns
    /// accepted `(id, name)` pairs.
    ///
    /// # Errors
    ///
    /// Socket failures, daemon-side rejections ([`io::ErrorKind::Other`]).
    pub fn submit_path(
        &mut self,
        path: &str,
        priority: i64,
        dir: bool,
    ) -> io::Result<Vec<(u64, String)>> {
        self.submit_path_traced(path, priority, dir, None)
    }

    /// [`Client::submit_path`] with an optional wire trace id (hex)
    /// shared by every accepted job; see [`Client::submit_source_traced`].
    ///
    /// # Errors
    ///
    /// Socket failures, daemon-side rejections ([`io::ErrorKind::Other`]).
    pub fn submit_path_traced(
        &mut self,
        path: &str,
        priority: i64,
        dir: bool,
        trace: Option<String>,
    ) -> io::Result<Vec<(u64, String)>> {
        let req = if dir {
            Request::SubmitDir {
                path: path.to_string(),
                priority,
                trace,
            }
        } else {
            Request::SubmitPath {
                path: path.to_string(),
                priority,
                trace,
            }
        };
        self.submit(&req)
    }

    /// Fetches the daemon-side trace events of a finished traced job:
    /// `(name, trace_hex, events_json)` where `events_json` is a bare
    /// Chrome trace-event array to stitch with the client's own half.
    ///
    /// # Errors
    ///
    /// Socket failures; a daemon-side `error` reply (unknown, unfinished
    /// or untraced job) maps to [`io::ErrorKind::Other`].
    pub fn fetch_trace(&mut self, id: u64) -> io::Result<(String, String, String)> {
        match self.request(&Request::Trace { id })? {
            Event::Trace {
                name,
                trace,
                events,
                ..
            } => Ok((name, trace, events.to_string())),
            Event::Error { message } => Err(io::Error::other(message)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected reply {other:?}"),
            )),
        }
    }

    /// Fetches the daemon's aggregate self-time profile:
    /// `(jobs_folded, collapsed_stack_text)`.
    ///
    /// # Errors
    ///
    /// Socket failures and unexpected replies.
    pub fn profile(&mut self) -> io::Result<(u64, String)> {
        match self.request(&Request::Profile)? {
            Event::Profile { jobs, collapsed } => Ok((jobs, collapsed)),
            Event::Error { message } => Err(io::Error::other(message)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected reply {other:?}"),
            )),
        }
    }

    fn submit(&mut self, req: &Request) -> io::Result<Vec<(u64, String)>> {
        match self.request(req)? {
            Event::Accepted { jobs } => Ok(jobs),
            Event::Error { message } => Err(io::Error::other(message)),
            Event::Overloaded {
                queued, max_queue, ..
            } => Err(io::Error::other(format!(
                "daemon overloaded: {queued} job(s) queued, bound {max_queue} — retry later"
            ))),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected reply {other:?}"),
            )),
        }
    }

    /// Submits under the retry policy: transient failures (a dropped
    /// connection, an `overloaded` refusal) back off and try again,
    /// reconnecting first when the connection itself failed. Safe
    /// against duplicate work: the daemon queues jobs only after the
    /// whole submission is admitted, so a connection lost before the
    /// `accepted` reply left nothing behind.
    ///
    /// # Errors
    ///
    /// The last failure once attempts are exhausted, or immediately on
    /// non-retryable errors.
    pub fn submit_with_retry(
        &mut self,
        req: &Request,
        policy: &RetryPolicy,
    ) -> io::Result<Vec<(u64, String)>> {
        let mut attempt = 0;
        loop {
            match self.submit(req) {
                Ok(jobs) => return Ok(jobs),
                Err(e) if attempt + 1 < policy.attempts && is_retryable(&e) => {
                    count_retry(&e);
                    std::thread::sleep(policy.backoff(attempt));
                    attempt += 1;
                    // An overloaded refusal keeps the connection alive;
                    // anything else retryable means the link is gone.
                    if !e.to_string().contains("daemon overloaded") {
                        self.reconnect()?;
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Blocks until every job in `ids` has streamed its verdict; returns
    /// them in arrival order.
    ///
    /// # Errors
    ///
    /// Socket failures. EOF before all verdicts arrive is **not**
    /// success — it maps to a retryable [`io::ErrorKind::UnexpectedEof`]
    /// whose message carries the last-seen state of every still-pending
    /// job (`submitted`/`queued`/`running`), so a caller can log exactly
    /// where the stream died and resubmit.
    pub fn wait_verdicts(&mut self, ids: &[u64]) -> io::Result<Vec<VerdictEvent>> {
        let mut pending: HashSet<u64> = ids.iter().copied().collect();
        let mut last_state: HashMap<u64, &'static str> =
            ids.iter().map(|id| (*id, "submitted")).collect();
        let mut verdicts = Vec::with_capacity(pending.len());
        while !pending.is_empty() {
            match self.next_event()? {
                None => {
                    let mut states: Vec<String> = pending
                        .iter()
                        .map(|id| format!("job {id} {}", last_state.get(id).unwrap_or(&"unknown")))
                        .collect();
                    states.sort();
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!(
                            "connection closed mid-stream with {} verdict(s) pending ({})",
                            pending.len(),
                            states.join(", ")
                        ),
                    ));
                }
                Some(Event::Queued { id, .. }) => {
                    last_state.insert(id, "queued");
                }
                Some(Event::Running { id, .. }) => {
                    last_state.insert(id, "running");
                }
                Some(Event::Verdict(v)) => {
                    if pending.remove(&v.id) {
                        verdicts.push(v);
                    }
                }
                Some(_) => {}
            }
        }
        Ok(verdicts)
    }

    /// Requests daemon statistics.
    ///
    /// # Errors
    ///
    /// Socket failures and unexpected replies.
    pub fn stats(&mut self) -> io::Result<Event> {
        match self.request(&Request::Stats)? {
            e @ Event::Stats { .. } => Ok(e),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected reply {other:?}"),
            )),
        }
    }

    /// Asks the daemon to shut down immediately (still-queued jobs are
    /// dropped, running ones finish).
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.shutdown_with(false)
    }

    /// Asks the daemon to shut down; with `drain`, it first stops
    /// admissions and works off the whole backlog (bounded by its
    /// `--drain-timeout`) — the reply arrives only once the drain is
    /// done, so this blocks for as long as the backlog takes.
    ///
    /// # Errors
    ///
    /// Socket failures.
    pub fn shutdown_with(&mut self, drain: bool) -> io::Result<()> {
        // The daemon may close the connection right after the reply (or
        // even before it flushes); both count as success.
        match self.request(&Request::Shutdown { drain }) {
            Ok(_) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(()),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_capped_and_deterministic() {
        let p = RetryPolicy::default();
        let q = RetryPolicy::default();
        for attempt in 0..8 {
            let (a, b) = (p.backoff(attempt), q.backoff(attempt));
            assert_eq!(a, b, "same policy, same schedule (attempt {attempt})");
            // Exponential floor, cap + 25% jitter ceiling.
            let floor = p.base.saturating_mul(1 << attempt).min(p.cap);
            assert!(a >= floor, "attempt {attempt}: {a:?} < {floor:?}");
            assert!(a <= p.cap + p.cap / 4, "attempt {attempt}: {a:?}");
        }
        // A different seed shifts the jitter somewhere in the schedule.
        let other = RetryPolicy {
            seed: 99,
            ..RetryPolicy::default()
        };
        assert!(
            (0..8).any(|i| other.backoff(i) != p.backoff(i)),
            "jitter must depend on the seed"
        );
        // Huge attempt numbers must not overflow the shift.
        assert!(p.backoff(u32::MAX) <= p.cap + p.cap / 4);
    }

    #[test]
    fn retryable_errors_are_the_transient_classes() {
        for kind in [
            io::ErrorKind::ConnectionRefused,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::UnexpectedEof,
        ] {
            assert!(is_retryable(&io::Error::new(kind, "x")), "{kind:?}");
        }
        assert!(is_retryable(&io::Error::other(
            "daemon overloaded: 3 job(s) queued, bound 3 — retry later"
        )));
        // Real answers are not retried.
        assert!(!is_retryable(&io::Error::other("daemon accepted no jobs")));
        assert!(!is_retryable(&io::Error::new(
            io::ErrorKind::InvalidData,
            "unexpected reply"
        )));
    }
}
