//! The `pipette-serve` request loop, driven in-process as a closed-loop
//! client, plus the stamping [`RequestHandler`] wrapper of the traced run.

use crate::gen::cycle_order;
use pipette_serve::{ExecContext, Execution, ParseOutcome, RequestHandler, Server, ServerConfig};
use std::io::{self, Write};
use std::sync::mpsc::{channel, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request as the client saw it.
#[derive(Debug)]
pub struct Sent {
    /// Index of the distinct input line.
    pub input: usize,
    /// When the client handed the line to the server.
    pub submitted: Instant,
    /// When admission (parse + enqueue) returned.
    pub admitted: Instant,
    /// When the committed response line reached the client.
    pub received: Instant,
    /// Length of the response line.
    pub bytes: usize,
}

/// What one closed-loop run produced.
#[derive(Debug)]
pub struct LoopRun {
    /// Requests in admission (= sequence) order.
    pub sent: Vec<Sent>,
    /// First submission to last response.
    pub wall: Duration,
}

/// Forwards each committed line, stamped on arrival, to the client.
struct LineSink {
    tx: Sender<(Instant, String)>,
    buf: Vec<u8>,
}

impl Write for LineSink {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        for &b in bytes {
            if b == b'\n' {
                let line = String::from_utf8_lossy(&self.buf).into_owned();
                self.buf.clear();
                // The client outlives the committer; a closed channel
                // only means the run is over.
                let _ = self.tx.send((Instant::now(), line));
            } else {
                self.buf.push(b);
            }
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Serves `lines` through a one-worker [`Server`] with `outstanding`
/// requests in flight (closed loop: a new request goes out when a
/// response comes back). Lines go out in cycles that each hold every
/// line once, in [`cycle_order`]; after `seconds` the current cycle is
/// finished and the loop drains. Each response is handed to
/// `on_response` with its line's index as it arrives, and not kept.
pub fn closed_loop<H: RequestHandler>(
    handler: &H,
    lines: &[String],
    seconds: f64,
    outstanding: usize,
    on_response: &mut dyn FnMut(usize, &str),
) -> io::Result<LoopRun> {
    let server: Server<H::Job> = Server::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let (tx, rx) = channel::<(Instant, String)>();
    let order = cycle_order(lines.len());
    let mut schedule: Vec<usize> = Vec::new();
    let mut cycle = 0u64;
    let mut sent: Vec<Sent> = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let commit_result = std::thread::scope(|scope| {
        scope.spawn(|| server.worker_loop(handler));
        let committer = scope.spawn(|| {
            let mut sink = LineSink {
                tx,
                buf: Vec::new(),
            };
            server.commit_loop(&mut sink)
        });
        let mut submit = |sent: &mut Vec<Sent>| {
            if schedule.is_empty() {
                if cycle > 0 && Instant::now() >= deadline {
                    return;
                }
                schedule = order.iter().rev().copied().collect();
                cycle += 1;
            }
            let Some(input) = schedule.pop() else {
                return;
            };
            let submitted = Instant::now();
            server.admit(handler, &lines[input]);
            sent.push(Sent {
                input,
                submitted,
                admitted: Instant::now(),
                received: submitted,
                bytes: 0,
            });
        };
        for _ in 0..outstanding.max(1) {
            submit(&mut sent);
        }
        let mut done = 0;
        while done < sent.len() {
            let Ok((at, response)) = rx.recv() else {
                break;
            };
            sent[done].received = at;
            sent[done].bytes = response.len();
            on_response(sent[done].input, &response);
            done += 1;
            submit(&mut sent);
        }
        server.finish_input();
        committer
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("committer panicked")))
    });
    commit_result?;
    let last = sent.iter().map(|s| s.received).max().unwrap_or(start);
    Ok(LoopRun {
        wall: last.duration_since(start),
        sent,
    })
}

/// Execute-side stamps of one request.
#[derive(Debug, Clone, Copy)]
pub struct ExecStamp {
    /// Sequence number (admission order).
    pub seq: u64,
    /// When a worker started executing the request.
    pub start: Instant,
    /// When execution returned.
    pub end: Instant,
}

/// Wraps a handler and stamps parse time and execute start/end, so the
/// traced run can split request latency into queue wait, service and
/// commit wait without touching the server.
pub struct Stamped<'a, H> {
    inner: &'a H,
    /// Execute stamps, in completion order.
    pub exec: Mutex<Vec<ExecStamp>>,
    /// `RequestHandler::parse` durations.
    pub parse: Mutex<Vec<Duration>>,
}

impl<'a, H> Stamped<'a, H> {
    /// A fresh wrapper around `inner`.
    pub fn new(inner: &'a H) -> Self {
        Self {
            inner,
            exec: Mutex::new(Vec::new()),
            parse: Mutex::new(Vec::new()),
        }
    }
}

impl<H: RequestHandler> RequestHandler for Stamped<'_, H> {
    type Job = H::Job;

    fn parse(&self, line: &str) -> ParseOutcome<H::Job> {
        let start = Instant::now();
        let outcome = self.inner.parse(line);
        let took = start.elapsed();
        self.parse.lock().expect("parse stamps").push(took);
        outcome
    }

    fn execute(&self, job: H::Job, ctx: &ExecContext) -> Execution {
        let start = Instant::now();
        let execution = self.inner.execute(job, ctx);
        let end = Instant::now();
        self.exec.lock().expect("exec stamps").push(ExecStamp {
            seq: ctx.seq,
            start,
            end,
        });
        execution
    }

    fn overloaded_response(
        &self,
        seq: u64,
        queue_len: u64,
        limit: u64,
        retry_after_units: u64,
    ) -> String {
        self.inner
            .overloaded_response(seq, queue_len, limit, retry_after_units)
    }

    fn error_response(&self, seq: u64, message: &str) -> String {
        self.inner.error_response(seq, message)
    }
}

/// The response without its `"seq":N,` member: the part the serve
/// determinism contract promises is identical for identical lines.
pub fn result_fields(response: &str) -> String {
    let Some(at) = response.find("\"seq\":") else {
        return response.to_string();
    };
    let rest = &response[at..];
    match rest.find(',') {
        Some(comma) => format!("{}{}", &response[..at], &rest[comma + 1..]),
        None => response.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_fields_drop_only_the_sequence_number() {
        assert_eq!(
            result_fields(r#"{"id":"a","seq":12,"status":"ok","result":{"pp":2}}"#),
            r#"{"id":"a","status":"ok","result":{"pp":2}}"#
        );
        assert_eq!(result_fields("{}"), "{}");
    }
}
