//! The serving loop: bounded admission, a seq-ordered reorder buffer,
//! worker threads, and graceful drain.

use crate::breaker::{Breaker, BreakerConfig, Transition};
use crate::request::{Control, ExecContext, ParseOutcome, RequestHandler};
use pipette_obs::{CostUnit, EventKind, Metrics, Trace, TraceConfig};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, Write};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Server tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads executing jobs. Determinism of the response stream
    /// does not depend on this.
    pub workers: usize,
    /// Jobs the admission queue holds before shedding; requests arriving
    /// at a full queue get a typed `overloaded` rejection.
    pub queue_limit: usize,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Logical backoff hint carried by `overloaded` rejections, in the
    /// Table II cost units the deadline budget uses.
    pub retry_after_units: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_limit: 64,
            breaker: BreakerConfig::default(),
            retry_after_units: 4096,
        }
    }
}

/// What one drained server run did, with its telemetry trace.
#[derive(Debug)]
pub struct ServeSummary {
    /// Requests assigned a sequence number (jobs + sheds + parse errors).
    pub admitted: u64,
    /// Responses committed (always equals `admitted` after a drain).
    pub completed: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Lines that failed to parse.
    pub errors: u64,
    /// Requests served in degraded (analytic) mode.
    pub degraded_requests: u64,
    /// Times the circuit breaker opened.
    pub breaker_trips: u64,
    /// Whether a `shutdown` control ended the input.
    pub shutdown: bool,
    /// The server's own event trace: request lifecycle, shedding,
    /// breaker transitions, and final counters under one `serve` span.
    pub trace: Trace,
}

/// One finished request waiting in the reorder buffer.
struct Completion {
    response: String,
    outcome: String,
    degraded: bool,
}

/// State shared by the reader, workers, and committer.
struct Inner<J> {
    queue: VecDeque<(u64, J)>,
    completions: BTreeMap<u64, Completion>,
    /// Next sequence number to assign at admission.
    next_seq: u64,
    /// Next sequence number the committer will write.
    next_commit: u64,
    in_flight: usize,
    input_done: bool,
    saw_shutdown: bool,
    breaker: Breaker,
    shed: u64,
    errors: u64,
    degraded_requests: u64,
    trace: Trace,
}

/// The request loop. Usually driven via [`run_pipe`] / [`run_unix`];
/// the low-level [`Server::admit`] / [`Server::worker_loop`] /
/// [`Server::commit_loop`] API is public so tests can stage
/// deterministic scenarios (e.g. admitting a burst before any worker
/// runs, to exercise shedding).
pub struct Server<J> {
    config: ServerConfig,
    inner: Mutex<Inner<J>>,
    work_ready: Condvar,
    commit_ready: Condvar,
}

impl<J: Send> Server<J> {
    /// A fresh server; its trace records with wall-clock annotations off
    /// so the stream is bit-comparable across runs.
    pub fn new(config: ServerConfig) -> Self {
        Self {
            config,
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                completions: BTreeMap::new(),
                next_seq: 0,
                next_commit: 0,
                in_flight: 0,
                input_done: false,
                saw_shutdown: false,
                breaker: Breaker::new(config.breaker),
                shed: 0,
                errors: 0,
                degraded_requests: 0,
                trace: Trace::new(TraceConfig::default()),
            }),
            work_ready: Condvar::new(),
            commit_ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<J>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Parses and admits one input line. Every non-control line consumes
    /// a sequence number and will produce exactly one committed response
    /// (job result, typed `overloaded` rejection, or typed error).
    /// Returns `false` when a shutdown control was consumed — the caller
    /// must stop reading and call [`Server::finish_input`].
    pub fn admit<H>(&self, handler: &H, line: &str) -> bool
    where
        H: RequestHandler<Job = J>,
    {
        match handler.parse(line) {
            ParseOutcome::Control(Control::Shutdown) => {
                let mut inner = self.lock();
                inner.saw_shutdown = true;
                false
            }
            ParseOutcome::Error(message) => {
                let mut inner = self.lock();
                let seq = inner.next_seq;
                inner.next_seq += 1;
                inner.errors += 1;
                inner.trace.push(EventKind::RequestStart {
                    seq,
                    op: "invalid".to_string(),
                });
                let response = handler.error_response(seq, &message);
                inner.completions.insert(
                    seq,
                    Completion {
                        response,
                        outcome: "error".to_string(),
                        degraded: false,
                    },
                );
                // Release the state lock before waking the committer so
                // it never wakes straight into a contended mutex.
                drop(inner);
                self.commit_ready.notify_all();
                true
            }
            ParseOutcome::Job { op, job } => {
                let mut inner = self.lock();
                let seq = inner.next_seq;
                inner.next_seq += 1;
                inner.trace.push(EventKind::RequestStart { seq, op });
                let queue_len = inner.queue.len() as u64;
                if inner.queue.len() >= self.config.queue_limit {
                    // Deterministic shed: the decision depends only on
                    // queue occupancy at admission, and the rejection is
                    // committed in sequence like any other response.
                    inner.shed += 1;
                    let limit = self.config.queue_limit as u64;
                    let retry_after_units = self.config.retry_after_units;
                    inner.trace.push(EventKind::RequestShed {
                        seq,
                        queue_len,
                        limit,
                        retry_after_units,
                    });
                    let response =
                        handler.overloaded_response(seq, queue_len, limit, retry_after_units);
                    inner.completions.insert(
                        seq,
                        Completion {
                            response,
                            outcome: "overloaded".to_string(),
                            degraded: false,
                        },
                    );
                    drop(inner);
                    self.commit_ready.notify_all();
                } else {
                    inner.queue.push_back((seq, job));
                    drop(inner);
                    self.work_ready.notify_one();
                }
                true
            }
        }
    }

    /// Marks the input stream exhausted: no further admissions, workers
    /// drain the queue and exit, the committer exits once every assigned
    /// sequence number has been written.
    pub fn finish_input(&self) {
        let mut inner = self.lock();
        inner.input_done = true;
        drop(inner);
        self.work_ready.notify_all();
        self.commit_ready.notify_all();
    }

    fn push_transition(trace: &mut Trace, t: Transition) {
        trace.push(EventKind::BreakerTransition {
            from: t.from.name(),
            to: t.to.name(),
            failures: t.failures,
        });
    }

    /// Executes queued jobs until the queue is empty *and* the input is
    /// finished. Run from one or more worker threads; with one worker
    /// the breaker sees requests strictly in sequence order.
    pub fn worker_loop<H>(&self, handler: &H)
    where
        H: RequestHandler<Job = J>,
    {
        loop {
            let mut inner = self.lock();
            let (seq, job, degraded) = loop {
                if let Some((seq, job)) = inner.queue.pop_front() {
                    // The degrade decision is taken at dequeue, under the
                    // lock, so a single-worker server applies the breaker
                    // to requests strictly in admission order.
                    let degraded = inner.breaker.degrade_next();
                    inner.in_flight += 1;
                    break (seq, job, degraded);
                }
                if inner.input_done {
                    return;
                }
                inner = self
                    .work_ready
                    .wait(inner)
                    .unwrap_or_else(|e| e.into_inner());
            };
            drop(inner);

            let exec = handler.execute(job, &ExecContext { seq, degraded });

            let mut inner = self.lock();
            inner.in_flight -= 1;
            let transition = if degraded {
                inner.breaker.record_degraded_served()
            } else {
                inner.breaker.record_result(exec.estimator_failure)
            };
            if let Some(t) = transition {
                Self::push_transition(&mut inner.trace, t);
            }
            let served_degraded = degraded || exec.degraded;
            if served_degraded {
                inner.degraded_requests += 1;
            }
            inner.completions.insert(
                seq,
                Completion {
                    response: exec.response,
                    outcome: exec.outcome,
                    degraded: served_degraded,
                },
            );
            drop(inner);
            self.commit_ready.notify_all();
        }
    }

    /// Writes responses strictly in sequence order until every admitted
    /// request has been committed and the input is finished. Run from a
    /// single committer thread (it owns the writer).
    ///
    /// # Errors
    ///
    /// Propagates the first write failure.
    pub fn commit_loop<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        loop {
            let mut inner = self.lock();
            let completion = loop {
                let want = inner.next_commit;
                if let Some(c) = inner.completions.remove(&want) {
                    inner.next_commit += 1;
                    inner.trace.push(EventKind::RequestDone {
                        seq: want,
                        outcome: c.outcome.clone(),
                        degraded: c.degraded,
                    });
                    break Some(c);
                }
                if inner.input_done && inner.next_commit >= inner.next_seq {
                    break None;
                }
                inner = self
                    .commit_ready
                    .wait(inner)
                    .unwrap_or_else(|e| e.into_inner());
            };
            drop(inner);
            match completion {
                Some(c) => {
                    writer.write_all(c.response.as_bytes())?;
                    writer.write_all(b"\n")?;
                    // Flush per response: an interactive client blocks on
                    // the reply before sending its next request.
                    writer.flush()?;
                }
                None => {
                    writer.flush()?;
                    return Ok(());
                }
            }
        }
    }

    /// Consumes the drained server into its summary: counters are
    /// flushed into the trace and the whole stream is wrapped in a
    /// `serve` span costed in requests.
    pub fn into_summary(self) -> ServeSummary {
        let inner = self.inner.into_inner().unwrap_or_else(|e| e.into_inner());
        let admitted = inner.next_seq;
        let breaker_trips = inner.breaker.trips();
        let mut trace = Trace::new(TraceConfig::default());
        let span = trace.open_span("serve");
        trace.absorb(inner.trace);
        let mut metrics = Metrics::new();
        metrics.counter("serve_requests_admitted").add(admitted);
        metrics.counter("serve_requests_shed").add(inner.shed);
        metrics.counter("serve_request_errors").add(inner.errors);
        metrics
            .counter("serve_degraded_requests")
            .add(inner.degraded_requests);
        metrics.counter("serve_breaker_trips").add(breaker_trips);
        metrics.emit_into(&mut trace);
        trace.close_span(span, CostUnit::Requests, admitted);
        ServeSummary {
            admitted,
            completed: inner.next_commit,
            shed: inner.shed,
            errors: inner.errors,
            degraded_requests: inner.degraded_requests,
            breaker_trips,
            shutdown: inner.saw_shutdown,
            trace,
        }
    }
}

/// Runs the full serving loop over an input/output pair: a reader
/// admitting newline-delimited requests, `config.workers` workers, and
/// one committer writing responses in admission order. Returns after a
/// graceful drain (EOF or a `shutdown` control): admission stops,
/// in-flight work finishes, and the output is flushed.
///
/// # Errors
///
/// Propagates the first read or write failure.
pub fn run_pipe<H, R, W>(
    handler: &H,
    config: ServerConfig,
    reader: R,
    writer: &mut W,
) -> io::Result<ServeSummary>
where
    H: RequestHandler,
    R: BufRead,
    W: Write + Send,
{
    let server = Server::new(config);
    let workers = config.workers.max(1);
    let mut read_error: Option<io::Error> = None;
    let mut write_result: io::Result<()> = Ok(());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| server.worker_loop(handler));
        }
        // The committer owns the writer for the duration of the drain so
        // responses stream out as they commit.
        let committer = scope.spawn(|| server.commit_loop(writer));
        for line in reader.lines() {
            match line {
                Ok(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    if !server.admit(handler, &line) {
                        break;
                    }
                }
                Err(e) => {
                    read_error = Some(e);
                    break;
                }
            }
        }
        server.finish_input();
        write_result = match committer.join() {
            Ok(r) => r,
            Err(_) => Err(io::Error::other("committer thread panicked")),
        };
    });
    if let Some(e) = read_error {
        return Err(e);
    }
    write_result?;
    Ok(server.into_summary())
}

/// Serves connections on a Unix socket sequentially: each connection
/// runs the full pipe protocol (with worker-level concurrency *within*
/// the connection), and a `shutdown` control ends the accept loop after
/// draining its connection. Returns the summaries of all connections in
/// accept order.
///
/// # Errors
///
/// Propagates socket bind/accept failures and per-connection I/O
/// failures.
pub fn run_unix<H>(
    handler: &H,
    config: ServerConfig,
    path: &std::path::Path,
) -> io::Result<Vec<ServeSummary>>
where
    H: RequestHandler,
{
    // Crash-only bind: a stale socket file from a previous crash is
    // removed rather than treated as an error.
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    let mut summaries = Vec::new();
    loop {
        let (stream, _addr) = listener.accept()?;
        let reader = io::BufReader::new(stream.try_clone()?);
        let mut writer = io::BufWriter::new(stream);
        let summary = run_pipe(handler, config, reader, &mut writer)?;
        let done = summary.shutdown;
        summaries.push(summary);
        if done {
            break;
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(summaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Execution;
    use pipette_obs::EventTag;

    /// Echo handler: `job:<n>` responds `ok:<seq>:<n>`, `fail:<n>`
    /// reports an estimator failure, `bad` fails to parse.
    struct Echo;

    impl RequestHandler for Echo {
        type Job = (String, bool);

        fn parse(&self, line: &str) -> ParseOutcome<Self::Job> {
            if line == "shutdown" {
                return ParseOutcome::Control(Control::Shutdown);
            }
            if let Some(rest) = line.strip_prefix("job:") {
                return ParseOutcome::Job {
                    op: "configure".to_string(),
                    job: (rest.to_string(), false),
                };
            }
            if let Some(rest) = line.strip_prefix("fail:") {
                return ParseOutcome::Job {
                    op: "configure".to_string(),
                    job: (rest.to_string(), true),
                };
            }
            ParseOutcome::Error(format!("unknown op in {line:?}"))
        }

        fn execute(&self, job: Self::Job, ctx: &ExecContext) -> Execution {
            let (payload, fail) = job;
            let fail = fail && !ctx.degraded;
            Execution {
                response: format!(
                    "{}:{}:{payload}",
                    if ctx.degraded { "degraded" } else { "ok" },
                    ctx.seq
                ),
                outcome: "ok".to_string(),
                estimator_failure: fail,
                degraded: false,
            }
        }

        fn overloaded_response(
            &self,
            seq: u64,
            queue_len: u64,
            limit: u64,
            retry_after_units: u64,
        ) -> String {
            format!("overloaded:{seq}:{queue_len}/{limit}:retry={retry_after_units}")
        }

        fn error_response(&self, seq: u64, message: &str) -> String {
            format!("error:{seq}:{message}")
        }
    }

    fn run_lines(config: ServerConfig, lines: &[&str]) -> (Vec<String>, ServeSummary) {
        let input = lines.join("\n");
        let mut out = Vec::new();
        let summary = run_pipe(&Echo, config, input.as_bytes(), &mut out).expect("pipe runs");
        let text = String::from_utf8(out).expect("utf8");
        (text.lines().map(str::to_string).collect(), summary)
    }

    #[test]
    fn responses_commit_in_admission_order_at_any_worker_count() {
        let lines: Vec<String> = (0..24).map(|i| format!("job:{i}")).collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let mut baseline: Option<Vec<String>> = None;
        for workers in [1, 2, 8] {
            let (responses, summary) = run_lines(
                ServerConfig {
                    workers,
                    ..ServerConfig::default()
                },
                &refs,
            );
            assert_eq!(summary.admitted, 24);
            assert_eq!(summary.completed, 24);
            assert_eq!(summary.shed, 0);
            match &baseline {
                None => baseline = Some(responses),
                Some(b) => assert_eq!(&responses, b, "workers = {workers}"),
            }
        }
        let baseline = baseline.expect("at least one run");
        assert_eq!(baseline[0], "ok:0:0");
        assert_eq!(baseline[23], "ok:23:23");
    }

    #[test]
    fn forced_shed_is_deterministic() {
        // Low-level API: admit everything before any worker runs, so the
        // queue occupancy at each admission is a pure function of the
        // input.
        let config = ServerConfig {
            workers: 1,
            queue_limit: 2,
            ..ServerConfig::default()
        };
        let server: Server<(String, bool)> = Server::new(config);
        for i in 0..5 {
            assert!(server.admit(&Echo, &format!("job:{i}")));
        }
        server.finish_input();
        server.worker_loop(&Echo);
        let mut out = Vec::new();
        server.commit_loop(&mut out).expect("commit");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "ok:0:0",
                "ok:1:1",
                "overloaded:2:2/2:retry=4096",
                "overloaded:3:2/2:retry=4096",
                "overloaded:4:2/2:retry=4096",
            ]
        );
        let summary = server.into_summary();
        assert_eq!(summary.shed, 3);
        assert_eq!(summary.trace.count_tag(EventTag::RequestShed), 3);
    }

    #[test]
    fn parse_errors_get_typed_responses_in_sequence() {
        let (responses, summary) = run_lines(
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
            &["job:a", "bad", "job:b"],
        );
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[0], "ok:0:a");
        assert!(responses[1].starts_with("error:1:"));
        assert_eq!(responses[2], "ok:2:b");
        assert_eq!(summary.errors, 1);
    }

    #[test]
    fn breaker_trips_degrades_and_recovers() {
        let config = ServerConfig {
            workers: 1,
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown_requests: 2,
                halfopen_successes: 1,
            },
            ..ServerConfig::default()
        };
        let (responses, summary) = run_lines(
            config,
            &[
                "fail:a", "fail:b", // trip
                "job:c", "job:d", // degraded cooldown
                "job:e", // half-open probe closes
                "job:f", // healthy again
            ],
        );
        assert_eq!(
            responses,
            [
                "ok:0:a",
                "ok:1:b",
                "degraded:2:c",
                "degraded:3:d",
                "ok:4:e",
                "ok:5:f",
            ]
        );
        assert_eq!(summary.breaker_trips, 1);
        assert_eq!(summary.degraded_requests, 2);
        assert_eq!(summary.trace.count_tag(EventTag::BreakerTransition), 3);
    }

    #[test]
    fn shutdown_drains_and_stops_reading() {
        let (responses, summary) = run_lines(
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
            &["job:a", "job:b", "shutdown", "job:never"],
        );
        assert_eq!(responses, ["ok:0:a", "ok:1:b"]);
        assert!(summary.shutdown);
        assert_eq!(summary.admitted, 2);
        assert_eq!(summary.completed, 2);
    }

    #[test]
    fn summary_trace_is_balanced_and_counted() {
        let (_, summary) = run_lines(
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
            &["job:a", "bad", "job:b"],
        );
        assert_eq!(summary.trace.open_span_count(), 0);
        assert_eq!(summary.trace.count_tag(EventTag::RequestStart), 3);
        assert_eq!(summary.trace.count_tag(EventTag::RequestDone), 3);
        let jsonl = summary.trace.to_jsonl_stripped();
        assert!(jsonl.contains(r#""name":"serve""#));
        assert!(jsonl.contains(r#""name":"serve_degraded_requests""#));
        assert!(jsonl.contains(r#""unit":"requests""#));
    }

    #[test]
    fn unix_socket_serves_and_shuts_down() {
        let dir = std::env::temp_dir().join(format!("pipette-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("serve.sock");
        let spath = path.clone();
        let listener = std::thread::spawn(move || {
            run_unix(
                &Echo,
                ServerConfig {
                    workers: 2,
                    ..ServerConfig::default()
                },
                &spath,
            )
        });
        // Wait for the socket to appear.
        for _ in 0..200 {
            if path.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let stream = std::os::unix::net::UnixStream::connect(&path).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        writer.write_all(b"job:x\njob:y\nshutdown\n").expect("send");
        let mut text = String::new();
        let mut reader = io::BufReader::new(stream);
        io::Read::read_to_string(&mut reader, &mut text).expect("read");
        assert_eq!(text, "ok:0:x\nok:1:y\n");
        let summaries = listener.join().expect("join").expect("serve ok");
        assert_eq!(summaries.len(), 1);
        assert!(summaries[0].shutdown);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
