//! The service wire protocol: newline-delimited JSON, one message per
//! line, over a plain TCP stream.
//!
//! Clients send [`Request`]s; the daemon answers each request with one
//! immediate [`Event`] (`accepted`, `stats`, `pong`, …) and streams
//! asynchronous job-lifecycle events (`queued` → `running` → `verdict`)
//! to every connection subscribed to the job — submitters are subscribed
//! to their own jobs automatically, `watch` subscribes to everything.
//!
//! ```text
//! → {"cmd":"submit","name":"grover","source":"def pf := …","priority":5}
//! ← {"event":"accepted","jobs":[{"id":0,"name":"grover"}]}
//! ← {"event":"queued","id":0,"name":"grover","priority":5,"bin":"93b7…"}
//! ← {"event":"running","id":0,"name":"grover","worker":1}
//! ← {"event":"verdict","id":0,"name":"grover","status":"verified","ms":8.3,
//!    "bin":"93b7…","worker":1,"proofs":[{"name":"pf","verified":true}]}
//! ```
//!
//! Messages are versioned implicitly by field presence — unknown fields
//! are ignored on decode, so old clients keep working when the daemon
//! grows new ones.

use crate::json::{n, obj, s, Json};
use nqpv_engine::{CacheStats, JobReport, JobStatus};

/// A client→daemon request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Verify an inline NQPV source.
    Submit {
        /// Display name for the job.
        name: String,
        /// The NQPV source text.
        source: String,
        /// Scheduling priority (higher runs sooner; 0 default).
        priority: i64,
        /// Client-minted wire trace id (hex). When present, every daemon
        /// span for the job inherits it and the worker's trace events can
        /// be fetched afterwards with [`Request::Trace`]. Versioned by
        /// field presence — old daemons ignore it.
        trace: Option<String>,
    },
    /// Verify one `.nqpv` file on the daemon's filesystem.
    SubmitPath {
        /// Path to the file (daemon-side).
        path: String,
        /// Scheduling priority.
        priority: i64,
        /// Client-minted wire trace id (hex); see [`Request::Submit`].
        trace: Option<String>,
    },
    /// Verify a whole corpus: every `.nqpv` under a directory, or the
    /// entries of a manifest file.
    SubmitDir {
        /// Path to the directory or manifest (daemon-side).
        path: String,
        /// Scheduling priority shared by all jobs of the corpus.
        priority: i64,
        /// Client-minted wire trace id (hex), shared by every job of the
        /// corpus; see [`Request::Submit`].
        trace: Option<String>,
    },
    /// Fetch the daemon-side trace events of a finished traced job (one
    /// submitted with a `trace` id). Answered with [`Event::Trace`], or
    /// [`Event::Error`] when the job is unknown, unfinished or untraced.
    Trace {
        /// The job id from the `accepted` reply.
        id: u64,
    },
    /// Fetch the daemon's aggregate self-time profile (collapsed-stack
    /// text over every job since startup). Answered with
    /// [`Event::Profile`].
    Profile,
    /// Subscribe this connection to every job's events.
    Watch,
    /// Queue/cache counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Stop the daemon. Without `drain`, still-queued jobs are dropped
    /// and running ones finish. With `drain`, the daemon first stops
    /// admissions and works off the whole backlog (bounded by its
    /// `--drain-timeout`) before closing.
    Shutdown {
        /// Finish the backlog before stopping. Encoded only when set —
        /// old daemons ignore the member and do a plain shutdown.
        drain: bool,
    },
}

impl Request {
    /// Encodes the request as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let v = match self {
            Request::Submit {
                name,
                source,
                priority,
                trace,
            } => {
                let mut members = vec![
                    ("cmd", s("submit")),
                    ("name", s(name.clone())),
                    ("source", s(source.clone())),
                    ("priority", n(*priority as f64)),
                ];
                if let Some(t) = trace {
                    members.push(("trace", s(t.clone())));
                }
                obj(members)
            }
            Request::SubmitPath {
                path,
                priority,
                trace,
            } => {
                let mut members = vec![
                    ("cmd", s("submit_path")),
                    ("path", s(path.clone())),
                    ("priority", n(*priority as f64)),
                ];
                if let Some(t) = trace {
                    members.push(("trace", s(t.clone())));
                }
                obj(members)
            }
            Request::SubmitDir {
                path,
                priority,
                trace,
            } => {
                let mut members = vec![
                    ("cmd", s("submit_dir")),
                    ("path", s(path.clone())),
                    ("priority", n(*priority as f64)),
                ];
                if let Some(t) = trace {
                    members.push(("trace", s(t.clone())));
                }
                obj(members)
            }
            Request::Trace { id } => obj(vec![("cmd", s("trace")), ("id", n(*id as f64))]),
            Request::Profile => obj(vec![("cmd", s("profile"))]),
            Request::Watch => obj(vec![("cmd", s("watch"))]),
            Request::Stats => obj(vec![("cmd", s("stats"))]),
            Request::Ping => obj(vec![("cmd", s("ping"))]),
            Request::Shutdown { drain } => {
                let mut members = vec![("cmd", s("shutdown"))];
                if *drain {
                    members.push(("drain", Json::Bool(true)));
                }
                obj(members)
            }
        };
        v.to_string()
    }

    /// Decodes one protocol line into a request.
    ///
    /// # Errors
    ///
    /// A human-readable message on malformed JSON, a missing/unknown
    /// `cmd`, or missing required fields.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line)?;
        let cmd = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing 'cmd'".to_string())?;
        let priority = || v.get("priority").and_then(Json::as_i64).unwrap_or(0);
        let field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("'{cmd}' requires string field '{k}'"))
        };
        let trace = || {
            v.get("trace")
                .and_then(Json::as_str)
                .map(str::to_string)
                .filter(|t| !t.is_empty())
        };
        match cmd {
            "submit" => Ok(Request::Submit {
                name: field("name")?,
                source: field("source")?,
                priority: priority(),
                trace: trace(),
            }),
            "submit_path" => Ok(Request::SubmitPath {
                path: field("path")?,
                priority: priority(),
                trace: trace(),
            }),
            "submit_dir" => Ok(Request::SubmitDir {
                path: field("path")?,
                priority: priority(),
                trace: trace(),
            }),
            "trace" => Ok(Request::Trace {
                id: v
                    .get("id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| "'trace' requires numeric field 'id'".to_string())?,
            }),
            "profile" => Ok(Request::Profile),
            "watch" => Ok(Request::Watch),
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown {
                drain: v.get("drain").and_then(Json::as_bool).unwrap_or(false),
            }),
            other => Err(format!("unknown cmd '{other}'")),
        }
    }
}

/// Queue-level counters in a [`Event::Stats`] reply.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Jobs accepted but not yet started.
    pub queued: u64,
    /// Jobs currently on a worker.
    pub running: u64,
    /// Jobs finished since the daemon started.
    pub done: u64,
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// Submissions refused at the `--max-queue` admission bound since the
    /// daemon started (jobs, not requests).
    pub rejected: u64,
    /// Waiting jobs per priority class, highest priority first. Old
    /// clients ignore the member; old daemons omit it (decodes empty) —
    /// the protocol is versioned by field presence.
    pub depths: Vec<(i64, u64)>,
    /// Jobs whose worker panicked twice and were reported as errors (a
    /// single absorbed panic retries in place and is not counted here).
    /// Like `depths`, versioned by field presence: old daemons omit
    /// these members and they decode as zero.
    pub panicked: u64,
    /// Jobs stopped by the cooperative `--job-timeout` deadline.
    pub timed_out: u64,
    /// Queued jobs cancelled because their submitting connection closed
    /// before they ran.
    pub cancelled: u64,
    /// Faults injected by the `NQPV_FAULTS` harness since startup.
    pub faults_injected: u64,
}

/// One job's terminal report, as streamed in a `verdict` event.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictEvent {
    /// Job id.
    pub id: u64,
    /// Job name.
    pub name: String,
    /// `"verified"`, `"rejected"`, `"error"` or `"timeout"`.
    pub status: String,
    /// Verification wall time (ms).
    pub ms: f64,
    /// Scheduling bin (hex of [`nqpv_engine::affinity_bin`]).
    pub bin: String,
    /// Worker that ran the job.
    pub worker: u64,
    /// Per-proof verdicts (empty for `error` and `timeout` jobs).
    pub proofs: Vec<(String, bool)>,
    /// Diagnostic message for `error` and `timeout` jobs (for timeouts,
    /// the partial-trajectory marker naming the statement reached).
    pub error: Option<String>,
    /// Extracted counterexamples for rejected jobs (JSON objects as
    /// produced by `nqpv_diagnose::Counterexample::to_json`), present
    /// only when the daemon runs with `--explain`. Old clients ignore
    /// the extra member — the protocol is versioned by field presence.
    pub counterexamples: Vec<Json>,
    /// The job's wire trace id (hex), present only for traced jobs —
    /// the key for a follow-up [`Request::Trace`] fetch.
    pub trace: Option<String>,
}

/// A daemon→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Reply to a submit: the accepted `(id, name)` pairs.
    Accepted {
        /// Accepted jobs in submission order.
        jobs: Vec<(u64, String)>,
    },
    /// A job entered the queue.
    Queued {
        /// Job id.
        id: u64,
        /// Job name.
        name: String,
        /// Its scheduling priority.
        priority: i64,
        /// Its affinity bin (hex).
        bin: String,
    },
    /// A worker picked the job up.
    Running {
        /// Job id.
        id: u64,
        /// Job name.
        name: String,
        /// The worker index.
        worker: u64,
    },
    /// The job finished.
    Verdict(VerdictEvent),
    /// Reply to [`Request::Trace`]: the daemon-side trace events of a
    /// finished traced job, as a bare Chrome trace-event array the
    /// client stitches with its own half under the shared trace id.
    Trace {
        /// The job id.
        id: u64,
        /// The job name.
        name: String,
        /// The wire trace id (hex).
        trace: String,
        /// The daemon's trace events (Chrome trace-event objects with
        /// absolute wall-clock `ts` microseconds).
        events: Json,
    },
    /// Reply to [`Request::Profile`]: the daemon's aggregate self-time
    /// profile.
    Profile {
        /// Jobs folded into the profile since startup.
        jobs: u64,
        /// Collapsed-stack text (`frame;frame µs` lines).
        collapsed: String,
    },
    /// Reply to `stats`.
    Stats {
        /// Queue counters.
        queue: QueueStats,
        /// Shared-cache counters (`None` when caching is disabled).
        cache: Option<CacheStats>,
    },
    /// A submission was refused admission: the queue is at its
    /// `--max-queue` bound. The connection stays usable — clients back
    /// off and retry.
    Overloaded {
        /// Jobs waiting in the queue at refusal time.
        queued: u64,
        /// The configured bound.
        max_queue: u64,
        /// Jobs in the refused submission.
        rejected: u64,
    },
    /// Reply to `watch`.
    Watching,
    /// Reply to `ping`.
    Pong,
    /// Reply to `shutdown`; the daemon closes connections afterwards.
    ShuttingDown,
    /// A request failed (connection stays usable).
    Error {
        /// What went wrong.
        message: String,
    },
}

impl Event {
    /// Encodes the event as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Event::Accepted { jobs } => {
                let items: Vec<Json> = jobs
                    .iter()
                    .map(|(id, name)| obj(vec![("id", n(*id as f64)), ("name", s(name.clone()))]))
                    .collect();
                obj(vec![("event", s("accepted")), ("jobs", Json::Arr(items))]).to_string()
            }
            Event::Queued {
                id,
                name,
                priority,
                bin,
            } => obj(vec![
                ("event", s("queued")),
                ("id", n(*id as f64)),
                ("name", s(name.clone())),
                ("priority", n(*priority as f64)),
                ("bin", s(bin.clone())),
            ])
            .to_string(),
            Event::Running { id, name, worker } => obj(vec![
                ("event", s("running")),
                ("id", n(*id as f64)),
                ("name", s(name.clone())),
                ("worker", n(*worker as f64)),
            ])
            .to_string(),
            Event::Verdict(v) => {
                let mut members = vec![
                    ("event", s("verdict")),
                    ("id", n(v.id as f64)),
                    ("name", s(v.name.clone())),
                    ("status", s(v.status.clone())),
                    ("ms", n(v.ms)),
                    ("bin", s(v.bin.clone())),
                    ("worker", n(v.worker as f64)),
                ];
                if let Some(t) = &v.trace {
                    members.push(("trace", s(t.clone())));
                }
                let proofs: Vec<Json> = v
                    .proofs
                    .iter()
                    .map(|(name, ok)| {
                        obj(vec![
                            ("name", s(name.clone())),
                            ("verified", Json::Bool(*ok)),
                        ])
                    })
                    .collect();
                members.push(("proofs", Json::Arr(proofs)));
                if let Some(e) = &v.error {
                    members.push(("error", s(e.clone())));
                }
                if !v.counterexamples.is_empty() {
                    members.push(("counterexamples", Json::Arr(v.counterexamples.clone())));
                }
                obj(members).to_string()
            }
            Event::Stats { queue, cache } => {
                let cache_json = match cache {
                    None => Json::Null,
                    Some(c) => obj(vec![
                        ("hits", n(c.hits as f64)),
                        ("misses", n(c.misses as f64)),
                        ("entries", n(c.entries as f64)),
                        ("evictions", n(c.evictions as f64)),
                        ("verdict_hits", n(c.verdict_hits as f64)),
                        ("verdict_misses", n(c.verdict_misses as f64)),
                        ("verdict_entries", n(c.verdict_entries as f64)),
                        ("verdict_evictions", n(c.verdict_evictions as f64)),
                        ("disk_hits", n(c.disk_hits as f64)),
                        ("disk_misses", n(c.disk_misses as f64)),
                        ("disk_writes", n(c.disk_writes as f64)),
                        ("disk_entries", n(c.disk_entries as f64)),
                        ("disk_bytes", n(c.disk_bytes as f64)),
                        ("disk_quarantined", n(c.disk_quarantined as f64)),
                        ("disk_evicted", n(c.disk_evicted as f64)),
                    ]),
                };
                let depths: Vec<Json> = queue
                    .depths
                    .iter()
                    .map(|(priority, queued)| {
                        obj(vec![
                            ("priority", n(*priority as f64)),
                            ("queued", n(*queued as f64)),
                        ])
                    })
                    .collect();
                obj(vec![
                    ("event", s("stats")),
                    ("queued", n(queue.queued as f64)),
                    ("running", n(queue.running as f64)),
                    ("done", n(queue.done as f64)),
                    ("uptime_ms", n(queue.uptime_ms as f64)),
                    ("rejected", n(queue.rejected as f64)),
                    ("depths", Json::Arr(depths)),
                    ("panicked", n(queue.panicked as f64)),
                    ("timed_out", n(queue.timed_out as f64)),
                    ("cancelled", n(queue.cancelled as f64)),
                    ("faults_injected", n(queue.faults_injected as f64)),
                    ("cache", cache_json),
                ])
                .to_string()
            }
            Event::Overloaded {
                queued,
                max_queue,
                rejected,
            } => obj(vec![
                ("event", s("overloaded")),
                ("queued", n(*queued as f64)),
                ("max_queue", n(*max_queue as f64)),
                ("rejected", n(*rejected as f64)),
            ])
            .to_string(),
            Event::Trace {
                id,
                name,
                trace,
                events,
            } => obj(vec![
                ("event", s("trace")),
                ("id", n(*id as f64)),
                ("name", s(name.clone())),
                ("trace", s(trace.clone())),
                ("events", events.clone()),
            ])
            .to_string(),
            Event::Profile { jobs, collapsed } => obj(vec![
                ("event", s("profile")),
                ("jobs", n(*jobs as f64)),
                ("collapsed", s(collapsed.clone())),
            ])
            .to_string(),
            Event::Watching => obj(vec![("event", s("watching"))]).to_string(),
            Event::Pong => obj(vec![("event", s("pong"))]).to_string(),
            Event::ShuttingDown => obj(vec![("event", s("shutting_down"))]).to_string(),
            Event::Error { message } => {
                obj(vec![("event", s("error")), ("message", s(message.clone()))]).to_string()
            }
        }
    }

    /// Decodes one protocol line into an event.
    ///
    /// # Errors
    ///
    /// A human-readable message on malformed JSON or unknown shapes.
    pub fn parse(line: &str) -> Result<Event, String> {
        let v = Json::parse(line)?;
        let event = v
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing 'event'".to_string())?;
        let id = || {
            v.get("id")
                .and_then(Json::as_u64)
                .ok_or_else(|| "missing 'id'".to_string())
        };
        let name = || {
            v.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| "missing 'name'".to_string())
        };
        match event {
            "accepted" => {
                let jobs = v
                    .get("jobs")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| "missing 'jobs'".to_string())?
                    .iter()
                    .map(|j| {
                        Ok((
                            j.get("id")
                                .and_then(Json::as_u64)
                                .ok_or_else(|| "bad job id".to_string())?,
                            j.get("name")
                                .and_then(Json::as_str)
                                .ok_or_else(|| "bad job name".to_string())?
                                .to_string(),
                        ))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Event::Accepted { jobs })
            }
            "queued" => Ok(Event::Queued {
                id: id()?,
                name: name()?,
                priority: v.get("priority").and_then(Json::as_i64).unwrap_or(0),
                bin: v
                    .get("bin")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            }),
            "running" => Ok(Event::Running {
                id: id()?,
                name: name()?,
                worker: v.get("worker").and_then(Json::as_u64).unwrap_or(0),
            }),
            "verdict" => {
                let proofs = v
                    .get("proofs")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|p| {
                        Some((
                            p.get("name")?.as_str()?.to_string(),
                            p.get("verified")?.as_bool()?,
                        ))
                    })
                    .collect();
                Ok(Event::Verdict(VerdictEvent {
                    id: id()?,
                    name: name()?,
                    status: v
                        .get("status")
                        .and_then(Json::as_str)
                        .ok_or_else(|| "missing 'status'".to_string())?
                        .to_string(),
                    ms: v.get("ms").and_then(Json::as_f64).unwrap_or(0.0),
                    bin: v
                        .get("bin")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    worker: v.get("worker").and_then(Json::as_u64).unwrap_or(0),
                    proofs,
                    error: v.get("error").and_then(Json::as_str).map(str::to_string),
                    counterexamples: v
                        .get("counterexamples")
                        .and_then(Json::as_arr)
                        .map(<[Json]>::to_vec)
                        .unwrap_or_default(),
                    trace: v.get("trace").and_then(Json::as_str).map(str::to_string),
                }))
            }
            "trace" => Ok(Event::Trace {
                id: id()?,
                name: name()?,
                trace: v
                    .get("trace")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                events: v.get("events").cloned().unwrap_or(Json::Arr(Vec::new())),
            }),
            "profile" => Ok(Event::Profile {
                jobs: v.get("jobs").and_then(Json::as_u64).unwrap_or(0),
                collapsed: v
                    .get("collapsed")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            }),
            "stats" => {
                let q = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
                let cache = match v.get("cache") {
                    None | Some(Json::Null) => None,
                    Some(c) => {
                        let g = |k: &str| c.get(k).and_then(Json::as_u64).unwrap_or(0);
                        Some(CacheStats {
                            hits: g("hits"),
                            misses: g("misses"),
                            entries: g("entries"),
                            evictions: g("evictions"),
                            verdict_hits: g("verdict_hits"),
                            verdict_misses: g("verdict_misses"),
                            verdict_entries: g("verdict_entries"),
                            verdict_evictions: g("verdict_evictions"),
                            disk_hits: g("disk_hits"),
                            disk_misses: g("disk_misses"),
                            disk_writes: g("disk_writes"),
                            disk_entries: g("disk_entries"),
                            disk_bytes: g("disk_bytes"),
                            disk_quarantined: g("disk_quarantined"),
                            disk_evicted: g("disk_evicted"),
                        })
                    }
                };
                let depths = v
                    .get("depths")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|d| {
                        Some((
                            d.get("priority")?.as_i64()?,
                            d.get("queued")?.as_u64().unwrap_or(0),
                        ))
                    })
                    .collect();
                Ok(Event::Stats {
                    queue: QueueStats {
                        queued: q("queued"),
                        running: q("running"),
                        done: q("done"),
                        uptime_ms: q("uptime_ms"),
                        rejected: q("rejected"),
                        depths,
                        panicked: q("panicked"),
                        timed_out: q("timed_out"),
                        cancelled: q("cancelled"),
                        faults_injected: q("faults_injected"),
                    },
                    cache,
                })
            }
            "overloaded" => {
                let g = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
                Ok(Event::Overloaded {
                    queued: g("queued"),
                    max_queue: g("max_queue"),
                    rejected: g("rejected"),
                })
            }
            "watching" => Ok(Event::Watching),
            "pong" => Ok(Event::Pong),
            "shutting_down" => Ok(Event::ShuttingDown),
            "error" => Ok(Event::Error {
                message: v
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error")
                    .to_string(),
            }),
            other => Err(format!("unknown event '{other}'")),
        }
    }
}

/// Builds the `verdict` event for a finished job. `trace` is the job's
/// wire trace id (hex) when it was submitted with one.
pub fn verdict_event(id: u64, report: &JobReport, trace: Option<String>) -> Event {
    let (proofs, error) = match &report.status {
        JobStatus::Verified { proofs } | JobStatus::Rejected { proofs } => (
            proofs
                .iter()
                .map(|p| (p.name.clone(), p.verified))
                .collect(),
            None,
        ),
        JobStatus::Error { message } | JobStatus::Timeout { message } => {
            (Vec::new(), Some(message.clone()))
        }
    };
    Event::Verdict(VerdictEvent {
        id,
        name: report.name.clone(),
        status: report.status.label().to_string(),
        ms: report.ms,
        bin: format!("{:016x}", report.bin),
        worker: report.worker as u64,
        proofs,
        error,
        // Counterexamples are produced as compact JSON by the diagnose
        // crate; re-parse into protocol values so they embed as objects,
        // not escaped strings. A malformed rendering (cannot happen —
        // defensive) degrades to omission, never a broken event line.
        counterexamples: report
            .counterexamples
            .iter()
            .filter_map(|c| Json::parse(&c.to_json()).ok())
            .collect(),
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let cases = [
            Request::Submit {
                name: "a".into(),
                source: "{ I[q] }\nskip".into(),
                priority: -2,
                trace: None,
            },
            Request::Submit {
                name: "traced".into(),
                source: "skip".into(),
                priority: 0,
                trace: Some("00ff00ff00ff00ff".into()),
            },
            Request::SubmitPath {
                path: "x/y.nqpv".into(),
                priority: 0,
                trace: None,
            },
            Request::SubmitDir {
                path: "corpus".into(),
                priority: 9,
                trace: Some("123abc".into()),
            },
            Request::Trace { id: 7 },
            Request::Profile,
            Request::Watch,
            Request::Stats,
            Request::Ping,
            Request::Shutdown { drain: false },
            Request::Shutdown { drain: true },
        ];
        for r in cases {
            let line = r.to_line();
            assert!(!line.contains('\n'), "one line per message: {line}");
            assert_eq!(Request::parse(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn events_roundtrip() {
        let cases = [
            Event::Accepted {
                jobs: vec![(0, "a".into()), (1, "b".into())],
            },
            Event::Queued {
                id: 3,
                name: "grover".into(),
                priority: 5,
                bin: "00ff".into(),
            },
            Event::Running {
                id: 3,
                name: "grover".into(),
                worker: 2,
            },
            Event::Verdict(VerdictEvent {
                id: 3,
                name: "grover".into(),
                status: "rejected".into(),
                ms: 1.5,
                bin: "00ff".into(),
                worker: 2,
                proofs: vec![("pf".into(), false)],
                error: None,
                trace: Some("00ff00ff00ff00ff".into()),
                counterexamples: vec![obj(vec![
                    ("proof", s("pf")),
                    ("gap", n(0.5)),
                    ("confirmed", Json::Bool(true)),
                ])],
            }),
            Event::Verdict(VerdictEvent {
                id: 4,
                name: "broken".into(),
                status: "error".into(),
                ms: 0.25,
                bin: "0".into(),
                worker: 0,
                proofs: vec![],
                error: Some("line 1: parse error \"x\"".into()),
                counterexamples: vec![],
                trace: None,
            }),
            Event::Verdict(VerdictEvent {
                id: 5,
                name: "loopy".into(),
                status: "timeout".into(),
                ms: 2000.0,
                bin: "0".into(),
                worker: 1,
                proofs: vec![],
                error: Some("verification deadline exceeded (at while M01[q] …)".into()),
                counterexamples: vec![],
                trace: None,
            }),
            Event::Overloaded {
                queued: 128,
                max_queue: 128,
                rejected: 7,
            },
            Event::Stats {
                queue: QueueStats {
                    queued: 1,
                    running: 2,
                    done: 3,
                    uptime_ms: 45_000,
                    rejected: 6,
                    depths: vec![(5, 1), (0, 2), (-3, 1)],
                    panicked: 1,
                    timed_out: 2,
                    cancelled: 3,
                    faults_injected: 4,
                },
                cache: Some(CacheStats {
                    hits: 1,
                    disk_hits: 7,
                    disk_writes: 4,
                    disk_entries: 9,
                    disk_bytes: 2048,
                    disk_quarantined: 2,
                    disk_evicted: 5,
                    ..CacheStats::default()
                }),
            },
            Event::Stats {
                queue: QueueStats::default(),
                cache: None,
            },
            Event::Trace {
                id: 3,
                name: "grover".into(),
                trace: "00ff00ff00ff00ff".into(),
                events: Json::Arr(vec![obj(vec![
                    ("name", s("wp")),
                    ("ph", s("X")),
                    ("ts", n(12.0)),
                ])]),
            },
            Event::Profile {
                jobs: 9,
                collapsed: "parse:parse 120\nwp:unitary;solver:obligation:cholesky 88\n".into(),
            },
            Event::Watching,
            Event::Pong,
            Event::ShuttingDown,
            Event::Error {
                message: "unknown cmd 'frob'".into(),
            },
        ];
        for e in cases {
            let line = e.to_line();
            assert!(!line.contains('\n'), "one line per message: {line}");
            assert_eq!(Event::parse(&line).unwrap(), e, "{line}");
        }
    }

    #[test]
    fn bad_requests_error_cleanly() {
        for bad in [
            "not json",
            "{}",
            r#"{"cmd":"frob"}"#,
            r#"{"cmd":"submit","name":"x"}"#,
            r#"{"cmd":"submit_path"}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?}");
        }
    }
}
