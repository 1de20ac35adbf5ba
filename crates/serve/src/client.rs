//! A blocking NDJSON protocol client with retry and backoff.
//!
//! [`Client`] wraps one TCP connection to a `paradigm serve` instance
//! and resends retryable failures under a [`RetryPolicy`]:
//!
//! * transport faults — connection reset, EOF mid-response, an
//!   unparseable (truncated) frame — reconnect and resend;
//! * protocol errors marked `"retryable": true` (today: `shed` from
//!   admission control) — back off and resend on the same connection.
//!
//! Non-retryable protocol errors (`bad-request`, `invalid`, `deadline`,
//! `solve-failed`) are returned to the caller immediately: resending an
//! input the server has *decided* against cannot succeed.
//!
//! Backoff is exponential with deterministic decorrelated jitter
//! (seeded splitmix64), so load tests stay reproducible while still
//! spreading retry storms.

use crate::chaos::splitmix64;
use crate::json::{parse, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Retry tuning.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts after the first (0 = fail fast).
    pub max_retries: u32,
    /// First backoff; doubles per retry.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Jitter seed (reproducible load tests).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 5,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(200),
            seed: 0,
        }
    }
}

/// A failed request, after retries were exhausted or ruled out.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, EOF).
    Io(std::io::Error),
    /// The server answered with a non-retryable error response.
    Rejected {
        /// The error's `kind` discriminator.
        kind: String,
        /// The human-readable message.
        message: String,
    },
    /// Retries exhausted; holds the last failure's description.
    RetriesExhausted(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Rejected { kind, message } => write!(f, "rejected ({kind}): {message}"),
            ClientError::RetriesExhausted(last) => {
                write!(f, "retries exhausted; last failure: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One connection to a serve instance, plus the retry machinery.
pub struct Client {
    addr: SocketAddr,
    policy: RetryPolicy,
    conn: Option<BufReader<TcpStream>>,
    retries: u64,
    reconnects: u64,
    jitter_state: u64,
}

impl Client {
    /// Connect to `addr` with the given retry policy. The initial
    /// connection is lazy — made on the first request — so a briefly
    /// unavailable server costs a retry, not a construction failure.
    pub fn new(addr: SocketAddr, policy: RetryPolicy) -> Client {
        let jitter_state = policy.seed;
        Client { addr, policy, conn: None, retries: 0, reconnects: 0, jitter_state }
    }

    /// Connect with default retries.
    pub fn connect(addr: SocketAddr) -> Client {
        Client::new(addr, RetryPolicy::default())
    }

    /// Total resends performed over this client's lifetime.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Times the connection was re-established.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Send one request line, retrying per policy, until a terminal
    /// response (success or non-retryable error) or exhaustion.
    pub fn request(&mut self, line: &str) -> Result<Json, ClientError> {
        let mut last_failure = String::new();
        for attempt in 0..=self.policy.max_retries {
            if attempt > 0 {
                self.retries += 1;
                self.backoff(attempt);
            }
            match self.round_trip(line) {
                Ok(doc) => {
                    if doc.get("ok").and_then(Json::as_bool) == Some(true) {
                        return Ok(doc);
                    }
                    let kind =
                        doc.get("kind").and_then(Json::as_str).unwrap_or("unknown").to_string();
                    let message = doc.get("error").and_then(Json::as_str).unwrap_or("").to_string();
                    let retryable = doc.get("retryable").and_then(Json::as_bool).unwrap_or(false);
                    if !retryable {
                        return Err(ClientError::Rejected { kind, message });
                    }
                    last_failure = format!("{kind}: {message}");
                }
                Err(e) => {
                    // Transport fault: drop the connection so the next
                    // attempt reconnects from scratch.
                    self.conn = None;
                    last_failure = e;
                }
            }
        }
        Err(ClientError::RetriesExhausted(last_failure))
    }

    /// One send/receive on the current connection (reconnecting first
    /// if needed). Any I/O or framing problem is a `String` so the
    /// retry loop can uniformly treat it as transient.
    fn round_trip(&mut self, line: &str) -> Result<Json, String> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).ok();
            self.conn = Some(BufReader::new(stream));
            self.reconnects += 1;
        }
        let reader = self.conn.as_mut().expect("just connected");
        let stream = reader.get_mut();
        stream
            .write_all(line.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .and_then(|()| stream.flush())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        let n = reader.read_line(&mut response).map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("connection closed before response".into());
        }
        if !response.ends_with('\n') {
            return Err("truncated response frame".into());
        }
        parse(response.trim()).map_err(|e| format!("bad response frame: {e}"))
    }

    /// Exponential backoff with deterministic jitter: sleep in
    /// `[d/2, d)` where `d = min(base * 2^(attempt-1), cap)`.
    fn backoff(&mut self, attempt: u32) {
        let exp = self
            .policy
            .base
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.policy.cap)
            .as_micros() as u64;
        if exp == 0 {
            return;
        }
        self.jitter_state = splitmix64(self.jitter_state);
        let us = exp / 2 + self.jitter_state % (exp / 2).max(1);
        std::thread::sleep(Duration::from_micros(us));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use crate::service::ServeConfig;
    use std::sync::atomic::Ordering;

    fn start_server(cfg: ServeConfig) -> (SocketAddr, impl FnOnce()) {
        let server = Server::bind(ServerConfig { service: cfg, port: 0 }).unwrap();
        let addr = server.local_addr().unwrap();
        let flag = server.shutdown_flag();
        let handle = std::thread::spawn(move || server.run());
        (addr, move || {
            flag.store(true, Ordering::Relaxed);
            handle.join().unwrap();
        })
    }

    #[test]
    fn plain_round_trip() {
        let (addr, stop) = start_server(ServeConfig {
            workers: 1,
            cache_capacity: 8,
            queue_capacity: 4,
            ..ServeConfig::default()
        });
        let mut c = Client::connect(addr);
        let doc = c.request(r#"{"op":"solve","gallery":"fig1","procs":4}"#).unwrap();
        assert!((doc.get("t_psa").and_then(Json::as_f64).unwrap() - 14.3).abs() < 1e-9);
        assert_eq!(c.retries(), 0);
        stop();
    }

    #[test]
    fn non_retryable_errors_fail_fast() {
        let (addr, stop) = start_server(ServeConfig {
            workers: 1,
            cache_capacity: 8,
            queue_capacity: 4,
            ..ServeConfig::default()
        });
        let mut c = Client::connect(addr);
        let err = c.request(r#"{"op":"solve","gallery":"nope"}"#).unwrap_err();
        match err {
            ClientError::Rejected { kind, .. } => assert_eq!(kind, "bad-request"),
            other => panic!("expected Rejected, got {other}"),
        }
        assert_eq!(c.retries(), 0, "bad requests must not be retried");
        stop();
    }

    #[test]
    fn connection_faults_are_retried_until_answered() {
        // Drop ~40% of responses: with 5 retries the request still gets
        // through, and the retry counter shows work was done.
        let (addr, stop) = start_server(ServeConfig {
            workers: 1,
            cache_capacity: 8,
            queue_capacity: 4,
            chaos: Some(crate::chaos::FaultPlan { seed: 21, conn_drop: 0.4, ..Default::default() }),
            ..ServeConfig::default()
        });
        let mut c =
            Client::new(addr, RetryPolicy { max_retries: 10, seed: 7, ..RetryPolicy::default() });
        let mut answered = 0;
        for procs in [2u32, 4, 8, 16] {
            let line = format!(r#"{{"op":"solve","gallery":"fig1","procs":{procs}}}"#);
            answered += usize::from(c.request(&line).is_ok());
        }
        assert_eq!(answered, 4, "every request eventually answered");
        assert!(c.retries() >= 1, "drops must have forced retries");
        assert!(c.reconnects() >= 2, "each drop forces a reconnect");
        stop();
    }
}
