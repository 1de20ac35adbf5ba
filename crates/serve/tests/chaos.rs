//! Chaos integration test: a TCP server under a seeded fault plan
//! (worker panics, slow solves, queue stalls, dropped connections,
//! truncated frames) driven by retrying clients. The invariant under
//! test is the resilience contract from DESIGN.md §10: **every accepted
//! request gets a terminal answer** — a primary result, a cached one,
//! or a degraded equal-split schedule — and the process never aborts.
//!
//! The fault plan is seeded, so CI runs the same fault sequence every
//! time (this is the `chaos-smoke` CI job).

use paradigm_serve::{Client, FaultPlan, Json, RetryPolicy, ServeConfig, Server, ServerConfig};
use std::sync::atomic::Ordering;
use std::time::Duration;

#[test]
fn every_accepted_request_gets_a_terminal_answer_under_faults() {
    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 25;

    let server = Server::bind(ServerConfig {
        service: ServeConfig {
            workers: 2,
            cache_capacity: 256,
            queue_capacity: 16,
            chaos: Some(FaultPlan {
                seed: 0xC4A05,
                worker_panic: 0.6,
                slow_solve: 0.3,
                slow_ms: 3,
                queue_stall: 0.2,
                stall_ms: 2,
                conn_drop: 0.15,
                truncate: 0.15,
                ..FaultPlan::default()
            }),
            ..ServeConfig::default()
        },
        port: 0,
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let flag = server.shutdown_flag();
    let run = std::thread::spawn(move || server.run());

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::new(
                    addr,
                    RetryPolicy {
                        max_retries: 50,
                        base: Duration::from_micros(500),
                        cap: Duration::from_millis(10),
                        seed: c as u64 + 1,
                    },
                );
                let mut answered = 0usize;
                let mut degraded = 0usize;
                for i in 0..REQUESTS_PER_CLIENT {
                    // Distinct keys (procs varies) so requests actually
                    // reach the solver instead of all hitting the cache.
                    let procs = 2 + ((c * REQUESTS_PER_CLIENT + i) % 62);
                    let line = format!(r#"{{"op":"solve","gallery":"fig1","procs":{procs}}}"#);
                    let doc = client
                        .request(&line)
                        .unwrap_or_else(|e| panic!("request {i} of client {c} died: {e}"));
                    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{doc:?}");
                    assert!(
                        doc.get("t_psa").and_then(Json::as_f64).unwrap() > 0.0,
                        "terminal answers must carry a schedule"
                    );
                    answered += 1;
                    if doc.get("degraded").is_some() {
                        degraded += 1;
                    }
                }
                (answered, degraded, client.retries(), client.reconnects())
            })
        })
        .collect();

    let mut answered = 0usize;
    let mut degraded = 0usize;
    let mut retries = 0u64;
    for h in handles {
        let (a, d, r, _) = h.join().expect("client thread must not die");
        answered += a;
        degraded += d;
        retries += r;
    }
    assert_eq!(answered, CLIENTS * REQUESTS_PER_CLIENT, "every request must get a terminal answer");
    assert!(degraded >= 1, "a 60% panic rate must force degraded answers");
    assert!(retries >= 1, "drop/truncate faults must have forced retries");

    flag.store(true, Ordering::Relaxed);
    let stats = run.join().expect("server must shut down cleanly, not abort");

    assert_eq!(stats.errors, 0, "faults must degrade, never error: {stats:?}");
    assert!(stats.degraded as usize >= degraded, "{stats:?}");
    assert!(stats.completed >= (CLIENTS * REQUESTS_PER_CLIENT) as u64, "{stats:?}");
}
