//! Integration smoke test of the TCP front end on an ephemeral port:
//! several clients, inline + gallery graphs, stats, and a clean
//! client-initiated shutdown (the same round-trip CI's serve-smoke job
//! performs against the release binary).

use paradigm_serve::{parse_json, Json, ServeConfig, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn request(stream: &mut TcpStream, line: &str) -> Json {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    parse_json(response.trim()).expect("well-formed response")
}

#[test]
fn ephemeral_port_round_trip_stats_and_clean_exit() {
    let server = Server::bind(ServerConfig {
        service: ServeConfig {
            workers: 2,
            cache_capacity: 64,
            queue_capacity: 16,
            ..ServeConfig::default()
        },
        port: 0,
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let run = std::thread::spawn(move || server.run());

    // Client 1: gallery solves across machines and policies.
    let mut c1 = TcpStream::connect(addr).unwrap();
    c1.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let r = request(
        &mut c1,
        r#"{"op":"solve","gallery":"block-lu","procs":16,"machine":"mesh","policy":"hlf"}"#,
    );
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
    assert!(r.get("phi").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(r.get("t_psa").and_then(Json::as_f64).unwrap() > 0.0);

    // Client 2 (concurrent connection): inline graph text round-trip.
    let mut c2 = TcpStream::connect(addr).unwrap();
    c2.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let text = paradigm_mdg::to_text(&paradigm_core::gallery_graph("fig1").unwrap());
    let line = Json::Obj(vec![
        ("op".into(), Json::str("solve")),
        ("graph".into(), Json::str(text)),
        ("procs".into(), Json::num(4.0)),
        ("simulate".into(), Json::Bool(true)),
    ])
    .render();
    let r = request(&mut c2, &line);
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
    assert!((r.get("t_psa").and_then(Json::as_f64).unwrap() - 14.3).abs() < 1e-9);
    assert!(r.get("sim_makespan").and_then(Json::as_f64).unwrap() > 0.0);

    // Same request again from client 1: structural hash must hit even
    // though the graph came over the wire the second time too.
    let r = request(&mut c1, &line);
    assert_eq!(r.get("cached").and_then(Json::as_bool), Some(true), "{r:?}");

    // Stats reflect all three requests.
    let stats = request(&mut c1, r#"{"op":"stats"}"#);
    let payload = stats.get("stats").expect("stats payload");
    assert_eq!(payload.get("requests").and_then(Json::as_u64), Some(3));
    assert_eq!(payload.get("completed").and_then(Json::as_u64), Some(3));
    assert_eq!(payload.get("solves").and_then(Json::as_u64), Some(2));
    assert_eq!(payload.get("cache_hits").and_then(Json::as_u64), Some(1));
    assert_eq!(payload.get("errors").and_then(Json::as_u64), Some(0));

    // Client-initiated shutdown; the run thread exits cleanly and the
    // final snapshot matches what stats reported.
    let bye = request(&mut c1, r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("shutting_down").and_then(Json::as_bool), Some(true));
    let finals = run.join().expect("server thread");
    assert_eq!(finals.requests, 3);
    assert_eq!(finals.completed, 3);
    assert_eq!(finals.solves, 2);
}

/// Two inputs that used to reach what sits behind validation: a `pb` that
/// is not a power of two ran the full convex solve, panicked in the PSA's
/// bounding step, panicked again on the degraded path and counted against
/// the circuit breaker — fourteen of them opened it, and the next valid
/// request got the equal-split schedule; a `procs` of four billion is a
/// per-processor vector the process cannot allocate, and an allocation
/// failure is an abort no worker can catch.
#[test]
fn specs_the_pipeline_cannot_run_never_reach_the_solver_or_the_breaker() {
    let server = Server::bind(ServerConfig {
        service: ServeConfig {
            workers: 2,
            cache_capacity: 64,
            queue_capacity: 16,
            ..ServeConfig::default()
        },
        port: 0,
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let run = std::thread::spawn(move || server.run());
    let mut c = TcpStream::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let refused = |r: &Json| {
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false), "{r:?}");
        assert_eq!(r.get("kind").and_then(Json::as_str), Some("invalid"), "{r:?}");
        assert_eq!(r.get("retryable").and_then(Json::as_bool), Some(false), "{r:?}");
    };

    // Sixteen distinct keys, so neither the cache nor single-flight can
    // be what keeps them away from the solver.
    for procs in 4..20 {
        let line = format!(r#"{{"op":"solve","gallery":"fig1","procs":{procs},"pb":3}}"#);
        refused(&request(&mut c, &line));
    }
    refused(&request(&mut c, r#"{"op":"solve","gallery":"fig1","procs":4000000000}"#));

    // The same connection is still served, by the primary path.
    let r = request(&mut c, r#"{"op":"solve","gallery":"fig1","procs":4}"#);
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
    assert!(r.get("degraded").is_none(), "answered by the convex solver: {r:?}");
    assert!((r.get("t_psa").and_then(Json::as_f64).unwrap() - 14.3).abs() < 1e-9, "{r:?}");

    let stats = request(&mut c, r#"{"op":"stats"}"#);
    let payload = stats.get("stats").expect("stats payload");
    assert_eq!(payload.get("solves").and_then(Json::as_u64), Some(1), "{payload:?}");
    assert_eq!(payload.get("errors").and_then(Json::as_u64), Some(17), "{payload:?}");
    assert_eq!(payload.get("breaker_opens").and_then(Json::as_u64), Some(0), "{payload:?}");
    assert_eq!(payload.get("breaker_state").and_then(Json::as_str), Some("closed"));
    request(&mut c, r#"{"op":"shutdown"}"#);
    run.join().expect("server thread");
}
