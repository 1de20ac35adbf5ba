//! The TCP front end: NDJSON over `std::net::TcpListener`.
//!
//! Each accepted connection gets its own handler thread reading request
//! lines and writing one response line per request. The accept loop is
//! non-blocking and polls a shutdown flag, which is raised by:
//!
//! * a client sending `{"op":"shutdown"}`,
//! * SIGINT (on unix; installed with a plain `extern "C"` declaration
//!   of `signal(2)` so no foreign crate is needed).
//!
//! Shutdown is a graceful drain: the listener stops accepting,
//! connection threads notice via their read timeout and finish the
//! request they hold, the service drains its queue, and the final
//! metrics snapshot is returned to the caller (the CLI prints it).

use crate::protocol::handle_line;
use crate::service::{ServeConfig, Service};
use crate::MetricsSnapshot;
use paradigm_race::sync::atomic::{AtomicBool, Ordering};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Server construction knobs.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Service (pool/cache/queue) configuration.
    pub service: ServeConfig,
    /// Port to bind on 127.0.0.1; 0 asks the OS for an ephemeral port.
    pub port: u16,
}

/// A bound, running server. The accept loop runs on the caller's
/// thread via [`Server::run`]; tests use [`Server::local_addr`] +
/// [`Server::shutdown_flag`] to drive it from outside.
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Bind the listener and start the service worker pool.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            service: Arc::new(Service::start(cfg.service)),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The flag that stops the accept loop; shared so signal handlers
    /// and tests can raise it.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Accept and serve connections until shutdown is requested, then
    /// drain and return the final metrics. Installs a SIGINT handler on
    /// unix so ^C triggers the same graceful path.
    pub fn run(self) -> MetricsSnapshot {
        install_sigint_flag(&self.shutdown);
        let mut handlers = Vec::new();
        while !self.shutdown.load(Ordering::Relaxed) && !sigint_raised() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let service = Arc::clone(&self.service);
                    let shutdown = Arc::clone(&self.shutdown);
                    handlers.push(std::thread::spawn(move || {
                        handle_connection(stream, &service, &shutdown);
                    }));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => break,
            }
        }
        self.shutdown.store(true, Ordering::Relaxed);
        for h in handlers {
            let _ = h.join();
        }
        let service =
            Arc::try_unwrap(self.service).unwrap_or_else(|_| unreachable!("handlers joined"));
        service.shutdown()
    }
}

/// Serve one connection: read request lines, write response lines. A
/// read timeout lets the thread poll the shutdown flag between lines so
/// idle keep-alive connections cannot stall a drain.
///
/// Frames are read as raw bytes (`read_until`), not `read_line`: a
/// frame that isn't valid UTF-8 is answered with a structured
/// `bad-request` error and the connection stays alive — one garbage
/// frame must not kill a keep-alive session.
fn handle_connection(stream: TcpStream, service: &Service, shutdown: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut frame = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut frame) {
            Ok(0) => return, // client closed
            Ok(_) => {
                // Whether this frame is a distributed-ADMM block job
                // decides which chaos stream its connection faults are
                // drawn from (worker-level block faults vs generic
                // ones). The coordinator renders `op` first, so a prefix
                // check is enough (no reparse).
                let (mut response, stop, is_block_frame) = match std::str::from_utf8(&frame) {
                    Ok(line) if line.trim().is_empty() => {
                        frame.clear();
                        continue;
                    }
                    Ok(line) => {
                        let line = line.trim();
                        let (response, stop) = handle_line(service, line);
                        (response, stop, line.starts_with(r#"{"op":"admm_block""#))
                    }
                    Err(_) => (
                        crate::protocol::error_response("request frame is not valid UTF-8")
                            .render(),
                        false,
                        false,
                    ),
                };
                frame.clear();
                // Injected connection faults (chaos drills only): sever
                // the connection or send a torn frame, so clients must
                // exercise their reconnect/retry paths. Block frames
                // draw from the worker-fault sites instead, so a fleet
                // drill can torture `admm_block` traffic specifically.
                if let Some(chaos) = service.chaos() {
                    let (drop_now, truncate_now) = if is_block_frame {
                        (chaos.drop_block_frame(), chaos.truncate_block_frame())
                    } else {
                        (chaos.drop_connection(), chaos.truncate_frame())
                    };
                    if drop_now {
                        return;
                    }
                    if truncate_now {
                        let cut = response.len() / 2;
                        let _ = writer.write_all(&response.as_bytes()[..cut]);
                        let _ = writer.flush();
                        return;
                    }
                }
                // One write per reply: with `TCP_NODELAY` a separate
                // newline would be a second segment and a second syscall.
                response.push('\n');
                if writer.write_all(response.as_bytes()).is_err() || writer.flush().is_err() {
                    return;
                }
                if stop {
                    shutdown.store(true, Ordering::Relaxed);
                    return;
                }
            }
            // Read timeout (the shutdown poll): any bytes of a partial
            // frame already pulled into `frame` stay there, so a client
            // writing a frame in pieces slower than the timeout is
            // reassembled, not desynced.
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shutdown.load(Ordering::Relaxed) || sigint_raised() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

#[cfg(unix)]
mod sigint {
    // Touched from a signal handler: only async-signal-safe operations
    // are allowed there, so this flag must stay a raw std atomic — a
    // model scheduling point inside a signal context would deadlock.
    use std::sync::atomic::{AtomicBool, Ordering}; // raw-sync: allow

    pub static RAISED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;

    extern "C" {
        /// `signal(2)` from the platform libc the binary already links.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_sigint(_sig: i32) {
        // Only an atomic store: async-signal-safe.
        RAISED.store(true, Ordering::Relaxed);
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }
}

/// Route SIGINT to a flag the accept loop polls (unix only; elsewhere
/// ^C keeps its default behavior and `{"op":"shutdown"}` is the
/// graceful path).
fn install_sigint_flag(_shutdown: &Arc<AtomicBool>) {
    #[cfg(unix)]
    sigint::install();
}

/// True once SIGINT has been observed.
fn sigint_raised() -> bool {
    #[cfg(unix)]
    {
        sigint::RAISED.load(Ordering::Relaxed)
    }
    #[cfg(not(unix))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn request(stream: &mut TcpStream, line: &str) -> Json {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        parse(response.trim()).unwrap()
    }

    #[test]
    fn round_trip_over_tcp_and_client_shutdown() {
        let server = Server::bind(ServerConfig {
            service: ServeConfig {
                workers: 2,
                cache_capacity: 64,
                queue_capacity: 8,
                ..ServeConfig::default()
            },
            port: 0, // ephemeral
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let run = std::thread::spawn(move || server.run());

        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

        let pong = request(&mut c, r#"{"op":"ping"}"#);
        assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));

        let solved = request(&mut c, r#"{"op":"solve","gallery":"fig1","procs":4}"#);
        assert_eq!(solved.get("ok").and_then(Json::as_bool), Some(true));
        assert!((solved.get("t_psa").and_then(Json::as_f64).unwrap() - 14.3).abs() < 1e-9);

        let again = request(&mut c, r#"{"op":"solve","gallery":"fig1","procs":4}"#);
        assert_eq!(again.get("cached").and_then(Json::as_bool), Some(true));

        let bad = request(&mut c, "this is not json");
        assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));

        let stats = request(&mut c, r#"{"op":"stats"}"#);
        let payload = stats.get("stats").expect("stats payload");
        assert_eq!(payload.get("solves").and_then(Json::as_u64), Some(1));

        let bye = request(&mut c, r#"{"op":"shutdown"}"#);
        assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));

        let finala = run.join().unwrap();
        assert_eq!(finala.solves, 1);
        assert_eq!(finala.cache_hits, 1);
        assert_eq!(finala.completed, 2);
    }

    #[test]
    fn invalid_utf8_frame_answered_and_connection_survives() {
        let server = Server::bind(ServerConfig {
            service: ServeConfig {
                workers: 1,
                cache_capacity: 8,
                queue_capacity: 4,
                ..ServeConfig::default()
            },
            port: 0,
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let flag = server.shutdown_flag();
        let run = std::thread::spawn(move || server.run());

        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        // A frame of invalid UTF-8 bytes: must get a structured error...
        c.write_all(&[0xff, 0xfe, 0x80, b'\n']).unwrap();
        let mut reader = BufReader::new(c.try_clone().unwrap());
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        let doc = parse(response.trim()).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("bad-request"));
        // ...and the connection must still serve the next request.
        let pong = request(&mut c, r#"{"op":"ping"}"#);
        assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));

        flag.store(true, Ordering::Relaxed);
        drop(c);
        run.join().unwrap();
    }

    #[test]
    fn frame_written_in_pieces_across_read_timeouts_stays_intact() {
        let server = Server::bind(ServerConfig {
            service: ServeConfig {
                workers: 1,
                cache_capacity: 8,
                queue_capacity: 4,
                ..ServeConfig::default()
            },
            port: 0,
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let flag = server.shutdown_flag();
        let run = std::thread::spawn(move || server.run());

        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        // Write one frame in two pieces with a pause well past the
        // server's 100 ms read timeout: the halves must be reassembled
        // into one request, not parsed as two garbage frames.
        c.write_all(br#"{"op":"#).unwrap();
        c.flush().unwrap();
        std::thread::sleep(Duration::from_millis(300));
        c.write_all(b"\"ping\"}\n").unwrap();
        c.flush().unwrap();
        let mut reader = BufReader::new(c.try_clone().unwrap());
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        let doc = parse(response.trim()).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        // The connection is still in sync for a whole-frame request.
        let pong = request(&mut c, r#"{"op":"ping"}"#);
        assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));

        flag.store(true, Ordering::Relaxed);
        drop(c);
        run.join().unwrap();
    }

    #[test]
    fn shutdown_flag_stops_an_idle_server() {
        let server = Server::bind(ServerConfig {
            service: ServeConfig {
                workers: 1,
                cache_capacity: 8,
                queue_capacity: 4,
                ..ServeConfig::default()
            },
            port: 0,
        })
        .unwrap();
        let flag = server.shutdown_flag();
        let run = std::thread::spawn(move || server.run());
        std::thread::sleep(Duration::from_millis(50));
        flag.store(true, Ordering::Relaxed);
        let stats = run.join().unwrap();
        assert_eq!(stats.requests, 0);
    }
}
