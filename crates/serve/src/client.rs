//! A minimal blocking client for the line protocol — what the
//! `nocsyn client` subcommand and the integration tests use.
//!
//! [`Client::request_with_retry`] adds the resilience half: stable
//! kebab-case error fingerprints instead of raw I/O errors, and a
//! deterministic seeded-backoff retry loop for the failures the protocol
//! declares transient (`queue-full`, connection loss, connect refusal).
//! A malformed reply is *not* transient — the server is speaking the
//! wrong protocol, and hammering it will not fix that.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use nocsyn_model::json::Document;
use nocsyn_rng::Rng;

/// A client-side failure with a stable kebab-case fingerprint — the
/// contract `nocsyn client` exposes to scripts (exit status + first
/// token of the stderr line), mirroring the server's error replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Could not establish a connection.
    ConnectFailed(String),
    /// The connection died mid-request or mid-reply.
    ConnectionLost(String),
    /// The server replied with something that does not parse as JSON.
    ReplyMalformed(String),
    /// Every attempt failed; carries the last failure's fingerprint.
    RetriesExhausted(String),
}

impl ClientError {
    /// The stable kebab-case fingerprint.
    pub fn fingerprint(&self) -> &'static str {
        match self {
            ClientError::ConnectFailed(_) => "connect-failed",
            ClientError::ConnectionLost(_) => "connection-lost",
            ClientError::ReplyMalformed(_) => "reply-malformed",
            ClientError::RetriesExhausted(_) => "retries-exhausted",
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let detail = match self {
            ClientError::ConnectFailed(d)
            | ClientError::ConnectionLost(d)
            | ClientError::ReplyMalformed(d)
            | ClientError::RetriesExhausted(d) => d,
        };
        write!(f, "{}: {detail}", self.fingerprint())
    }
}

impl std::error::Error for ClientError {}

/// Deterministic retry tuning for [`Client::request_with_retry`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Extra attempts after the first (0 = fail fast).
    pub retries: u64,
    /// Base backoff per retry in milliseconds; attempt `k` sleeps
    /// `k * backoff_ms` plus a seeded jitter in `0..backoff_ms`.
    pub backoff_ms: u64,
    /// Seed for the jitter stream — same seed, same sleep schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 0,
            backoff_ms: 50,
            seed: 0,
        }
    }
}

/// A connected protocol client. One request in flight at a time: the
/// server replies exactly one line per request and flushes per line, so
/// a blocking write-then-read round trip is safe.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a serve daemon at `addr` (e.g. `127.0.0.1:7733`).
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Sends one request line and reads one reply line (trailing newline
    /// stripped). The request must not contain embedded newlines — the
    /// protocol frames on them.
    ///
    /// # Errors
    ///
    /// I/O errors from the socket, or `UnexpectedEof` if the server
    /// closes the connection without replying.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection without replying",
            ));
        }
        while reply.ends_with('\n') || reply.ends_with('\r') {
            reply.pop();
        }
        Ok(reply)
    }

    /// One request with fingerprinted failures and deterministic retry:
    /// connects, sends `line`, and validates that the reply parses as
    /// JSON. Connect failures, lost connections, and `queue-full` replies
    /// are transient — each retry (up to `policy.retries`) reconnects
    /// after a seeded backoff of `k * backoff_ms` plus jitter drawn from
    /// `Rng::seed_from_u64(policy.seed)`, so a given (seed, failure
    /// pattern) produces one fixed sleep schedule. A malformed reply
    /// fails fast: the peer is not speaking the protocol, and retrying
    /// cannot help.
    ///
    /// A well-formed `queue-full` reply on the *final* attempt is
    /// returned as `Ok` — it is the server's authoritative answer, and
    /// the caller sees the full error envelope.
    ///
    /// # Errors
    ///
    /// [`ClientError`] with a stable fingerprint: the specific failure
    /// when `policy.retries` is 0, `retries-exhausted` (carrying the last
    /// failure) otherwise.
    pub fn request_with_retry<A: ToSocketAddrs>(
        addr: A,
        line: &str,
        policy: &RetryPolicy,
    ) -> Result<String, ClientError> {
        let mut jitter = Rng::seed_from_u64(policy.seed);
        let mut last = String::new();
        for attempt in 0..=policy.retries {
            if attempt > 0 && policy.backoff_ms > 0 {
                let jitter_ms = jitter.gen_range(0..policy.backoff_ms);
                std::thread::sleep(Duration::from_millis(
                    attempt.saturating_mul(policy.backoff_ms) + jitter_ms,
                ));
            }
            let failure = match Client::connect(&addr) {
                Err(e) => ClientError::ConnectFailed(e.to_string()),
                Ok(mut client) => match client.request(line) {
                    Err(e) => ClientError::ConnectionLost(e.to_string()),
                    Ok(reply) => {
                        if Document::parse(&reply).is_err() {
                            return Err(ClientError::ReplyMalformed(format!(
                                "reply is not well-formed JSON: {reply}"
                            )));
                        }
                        if reply.contains("\"error\":\"queue-full\"") && attempt < policy.retries {
                            // queue-full is a valid protocol reply, not a
                            // ClientError; remember it only as the reason
                            // for the next retry.
                            last = "queue-full: server at capacity".to_string();
                            continue;
                        }
                        return Ok(reply);
                    }
                },
            };
            if policy.retries == 0 {
                return Err(failure);
            }
            last = failure.to_string();
        }
        Err(ClientError::RetriesExhausted(last))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeOptions, Server};
    use std::net::TcpListener;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn round_trips_requests_over_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
        let addr = listener.local_addr().expect("bound address");
        let server = Arc::new(Server::new(ServeOptions::default()));
        let background = {
            let server = Arc::clone(&server);
            thread::spawn(move || server.serve_listener(&listener, true))
        };

        let mut client = Client::connect(addr).expect("connect");
        let status = client.request("{\"op\":\"status\"}").expect("status reply");
        assert!(status.starts_with("{\"reply\":\"status\""));

        let pattern = "procs 4\\nphase\\n  0 -> 1\\n  2 -> 3\\n";
        let req = format!("{{\"op\":\"synth\",\"pattern\":\"{pattern}\",\"restarts\":1}}");
        let miss = client.request(&req).expect("miss reply");
        let hit = client.request(&req).expect("hit reply");
        assert!(miss.contains("\"cache\":\"miss\""));
        assert!(hit.contains("\"cache\":\"hit\""));
        assert_eq!(miss.replace("\"cache\":\"miss\"", "\"cache\":\"hit\""), hit);

        drop(client);
        background
            .join()
            .expect("listener thread")
            .expect("listener I/O");
    }

    #[test]
    fn connect_failure_fingerprints_depend_on_retry_budget() {
        // Bind-then-drop guarantees a port nothing is listening on.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
            listener.local_addr().expect("bound address")
        };
        let fail_fast = RetryPolicy {
            retries: 0,
            backoff_ms: 0,
            seed: 1,
        };
        let err = Client::request_with_retry(addr, "{\"op\":\"status\"}", &fail_fast)
            .expect_err("nobody is listening");
        assert_eq!(err.fingerprint(), "connect-failed");

        let with_budget = RetryPolicy {
            retries: 2,
            backoff_ms: 0,
            seed: 1,
        };
        let err = Client::request_with_retry(addr, "{\"op\":\"status\"}", &with_budget)
            .expect_err("still nobody listening");
        assert_eq!(err.fingerprint(), "retries-exhausted");
        assert!(err.to_string().contains("connect-failed"), "{err}");
    }

    #[test]
    fn malformed_replies_fail_fast_with_a_stable_fingerprint() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
        let addr = listener.local_addr().expect("bound address");
        let imposter = thread::spawn(move || {
            // Accept every connection the retry loop might open and
            // answer each with a non-JSON line.
            for conn in listener.incoming().take(1) {
                let mut stream = conn.expect("accept");
                let mut drain = [0u8; 256];
                let _ = io::Read::read(&mut stream, &mut drain);
                let _ = stream.write_all(b"NOT JSON AT ALL\n");
            }
        });
        let policy = RetryPolicy {
            retries: 3,
            backoff_ms: 0,
            seed: 7,
        };
        let err = Client::request_with_retry(addr, "{\"op\":\"status\"}", &policy)
            .expect_err("garbage replies are fatal");
        // Fails fast: malformed replies never burn the retry budget.
        assert_eq!(err.fingerprint(), "reply-malformed");
        imposter.join().expect("imposter thread");
    }

    #[test]
    fn queue_full_final_attempt_returns_the_servers_reply() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
        let addr = listener.local_addr().expect("bound address");
        let server = Arc::new(Server::new(ServeOptions {
            max_queue_depth: 0,
            ..ServeOptions::default()
        }));
        let background = {
            let server = Arc::clone(&server);
            // Three connections: the initial attempt plus two retries.
            thread::spawn(move || {
                for _ in 0..3 {
                    server.serve_listener(&listener, true)?;
                }
                Ok::<(), io::Error>(())
            })
        };
        let pattern = "procs 4\\nphase\\n  0 -> 1\\n  2 -> 3\\n";
        let req = format!("{{\"op\":\"synth\",\"pattern\":\"{pattern}\",\"restarts\":1}}");
        let policy = RetryPolicy {
            retries: 2,
            backoff_ms: 0,
            seed: 3,
        };
        let reply = Client::request_with_retry(addr, &req, &policy)
            .expect("the final queue-full reply is the server's answer");
        assert!(reply.contains("\"error\":\"queue-full\""), "{reply}");
        background
            .join()
            .expect("listener thread")
            .expect("listener I/O");
    }
}
