//! End-to-end service tests over a real loopback socket: the
//! content-addressed cache contract (repeat submission → zero solver
//! work, byte-identical payload, matching a direct flow call; an
//! overhead re-spin → a miss matching a direct call at its `c`), exact
//! backpressure accounting at the queue bound, inline-netlist dedup
//! across statement order, drain-then-exit shutdown, and a restarted
//! daemon serving many concurrent connections from its disk tier.

use retime_liberty::EdlOverhead;
use retime_serve::job::{execute, prepare, resolve_circuit, CircuitRef, InputFormat, JobSpec};
use retime_serve::json::Json;
use retime_serve::{Client, Server, ServerConfig};
use retime_sta::DelayModel;
use retime_verify::FlowKind;

fn spawn(workers: usize, queue_bound: usize) -> (retime_serve::ServerHandle, String) {
    let handle = Server::spawn(ServerConfig {
        workers,
        queue_bound,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn submit_and_wait(client: &mut Client, circuit: &str, flow: &str) -> Json {
    let reply = client
        .submit_suite(circuit, flow, "medium")
        .expect("submit");
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "submit rejected: {}",
        reply.render()
    );
    let id = reply.get("id").and_then(Json::as_u64).expect("job id");
    client.wait_result(id).expect("result")
}

/// The cache contract: a repeat submission is answered from the cache
/// with `solver_invocations == 0` and a payload byte-identical both to
/// the first run and to a direct (serverless) flow call; a re-spin at
/// another overhead is computed afresh and matches a direct call at
/// that overhead.
#[test]
fn repeat_submission_is_served_from_cache_bit_identical() {
    let (handle, addr) = spawn(2, 16);
    let mut client = Client::connect(&addr).expect("connect");

    let first = submit_and_wait(&mut client, "s1488", "grar");
    assert_eq!(first.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
    let first_solver = first
        .get("solver_invocations")
        .and_then(Json::as_u64)
        .expect("solver counter");
    assert!(first_solver > 0, "a cold run must invoke the solver");
    let first_payload = first.get("result").expect("payload").render();
    let first_sha = first
        .get("payload_sha256")
        .and_then(Json::as_str)
        .expect("payload digest")
        .to_string();

    // Second submission: already `done` at submit time, zero solver work,
    // byte-identical payload.
    let reply = client
        .submit_suite("s1488", "grar", "medium")
        .expect("submit");
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(reply.get("cached"), Some(&Json::Bool(true)));
    let id = reply.get("id").and_then(Json::as_u64).expect("job id");
    let second = client.wait_result(id).expect("result");
    assert_eq!(
        second.get("solver_invocations").and_then(Json::as_u64),
        Some(0),
        "cache hit must do zero solver work"
    );
    assert_eq!(
        second.get("result").expect("payload").render(),
        first_payload
    );
    assert_eq!(
        second.get("payload_sha256").and_then(Json::as_str),
        Some(first_sha.as_str())
    );

    // The served payload matches a direct flow call, bit for bit.
    let lib = retime_liberty::Library::fdsoi28();
    let direct = |overhead| {
        let spec = JobSpec {
            circuit: CircuitRef::Suite("s1488".to_string()),
            flow: FlowKind::Grar,
            overhead,
            model: DelayModel::PathBased,
            clock: None,
            verify: false,
            format: InputFormat::Bench,
            convert: false,
        };
        let circuit = resolve_circuit(&spec.circuit, &lib).expect("resolves");
        let prepared = prepare(&spec, &circuit, &lib);
        execute(&prepared.key_config, &circuit, &lib).expect("direct flow call")
    };
    let medium = direct(EdlOverhead::MEDIUM);
    assert_eq!(medium.payload, first_payload);
    assert_eq!(medium.payload_sha256, first_sha);

    // An overhead re-spin of the same circuit is a miss (the key hashes
    // `c`), and its payload matches a direct flow call at that `c`.
    let reply = client
        .submit_suite("s1488", "grar", "high")
        .expect("submit");
    assert_eq!(reply.get("cached"), Some(&Json::Bool(false)));
    let id = reply.get("id").and_then(Json::as_u64).expect("job id");
    let respin = client.wait_result(id).expect("result");
    assert_eq!(respin.get("status").and_then(Json::as_str), Some("done"));
    let high = direct(EdlOverhead::HIGH);
    assert_eq!(
        respin.get("result").expect("payload").render(),
        high.payload
    );
    assert_eq!(
        respin.get("payload_sha256").and_then(Json::as_str),
        Some(high.payload_sha256.as_str())
    );
    assert_ne!(high.payload_sha256, first_sha);

    // Metrics saw exactly one hit and two misses.
    let metrics = client.metrics_text().expect("metrics");
    assert!(
        metrics.contains("retime_serve_cache_hits_total 1\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("retime_serve_cache_misses_total 2\n"),
        "{metrics}"
    );

    client.shutdown().expect("shutdown");
    handle.wait();
}

/// K+M concurrent submissions against a paused pool with queue bound K
/// yield exactly M structured `overloaded` rejections, and every
/// accepted job later completes — nothing dropped, nothing corrupted.
#[test]
fn bounded_queue_rejects_exactly_the_overflow() {
    const K: usize = 3;
    const M: usize = 4;
    let (handle, addr) = spawn(1, K);
    let mut control = Client::connect(&addr).expect("connect");
    let paused = control.request_line(r#"{"cmd":"pause"}"#).expect("pause");
    assert_eq!(paused.get("ok"), Some(&Json::Bool(true)));

    // K+M distinct jobs (distinct overhead → distinct cache keys), all
    // submitted concurrently on their own connections.
    let replies: Vec<Json> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..K + M)
            .map(|i| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    let c = format!("{}", 1.0 + i as f64 * 0.01);
                    client
                        .request_line(&format!(
                            r#"{{"cmd":"submit","circuit":"s1488","flow":"base","c":{c}}}"#
                        ))
                        .expect("submit reply")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    let accepted: Vec<u64> = replies
        .iter()
        .filter(|r| r.get("ok") == Some(&Json::Bool(true)))
        .map(|r| r.get("id").and_then(Json::as_u64).expect("job id"))
        .collect();
    let rejected: Vec<&Json> = replies
        .iter()
        .filter(|r| r.get("ok") == Some(&Json::Bool(false)))
        .collect();
    assert_eq!(accepted.len(), K, "exactly K accepted: {replies:?}");
    assert_eq!(rejected.len(), M, "exactly M rejected: {replies:?}");
    for r in &rejected {
        assert_eq!(r.get("error").and_then(Json::as_str), Some("overloaded"));
        let backoff = r
            .get("retry_after_ms")
            .and_then(Json::as_u64)
            .expect("structured rejection carries retry_after_ms");
        assert!(backoff > 0);
    }

    // Release the pool: every accepted job completes.
    control.request_line(r#"{"cmd":"resume"}"#).expect("resume");
    for id in accepted {
        let result = control.wait_result(id).expect("result");
        assert_eq!(
            result.get("status").and_then(Json::as_str),
            Some("done"),
            "job {id} failed: {}",
            result.render()
        );
    }

    let metrics = control.metrics_text().expect("metrics");
    assert!(
        metrics.contains(&format!("retime_serve_rejected_overload_total {M}\n")),
        "{metrics}"
    );

    control.shutdown().expect("shutdown");
    handle.wait();
}

/// Two inline submissions of the same circuit with shuffled statements
/// and different whitespace land on the same cache entry.
#[test]
fn inline_netlists_dedupe_across_statement_order() {
    let (handle, addr) = spawn(1, 8);
    let mut client = Client::connect(&addr).expect("connect");

    let tidy = "INPUT(a)\\nINPUT(b)\\nOUTPUT(z)\\ng = AND(a, b)\\nq = DFF(g)\\nz = OR(g, q)\\n";
    let messy =
        "INPUT(b)\\n  q =  DFF( g )\\nz = OR(g, q)\\nINPUT(a)\\ng = AND(a, b)\\nOUTPUT(z)\\n";

    let first = client
        .request_line(&format!(
            r#"{{"cmd":"submit","netlist":"{tidy}","name":"t"}}"#
        ))
        .expect("submit");
    assert_eq!(
        first.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        first.render()
    );
    let id = first.get("id").and_then(Json::as_u64).expect("job id");
    let done = client.wait_result(id).expect("result");
    assert_eq!(done.get("status").and_then(Json::as_str), Some("done"));
    let sha = done
        .get("payload_sha256")
        .and_then(Json::as_str)
        .expect("digest")
        .to_string();

    let second = client
        .request_line(&format!(
            r#"{{"cmd":"submit","netlist":"{messy}","name":"t"}}"#
        ))
        .expect("submit");
    assert_eq!(
        second.get("cached"),
        Some(&Json::Bool(true)),
        "{}",
        second.render()
    );
    let id2 = second.get("id").and_then(Json::as_u64).expect("job id");
    let hit = client.wait_result(id2).expect("result");
    assert_eq!(
        hit.get("payload_sha256").and_then(Json::as_str),
        Some(sha.as_str())
    );
    assert_eq!(
        hit.get("solver_invocations").and_then(Json::as_u64),
        Some(0)
    );

    client.shutdown().expect("shutdown");
    handle.wait();
}

/// `shutdown` drains: a job queued behind a paused pool still completes,
/// new submissions are refused, and every server thread joins.
#[test]
fn shutdown_drains_queued_jobs_then_exits() {
    let (handle, addr) = spawn(1, 8);
    let mut client = Client::connect(&addr).expect("connect");
    client.request_line(r#"{"cmd":"pause"}"#).expect("pause");
    let reply = client
        .submit_suite("s1488", "base", "medium")
        .expect("submit");
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("queued"));
    let id = reply.get("id").and_then(Json::as_u64).expect("job id");

    let mut other = Client::connect(&addr).expect("connect");
    let draining = other.shutdown().expect("shutdown");
    assert_eq!(draining.get("draining"), Some(&Json::Bool(true)));

    // Drain overrides pause: the queued job finishes.
    let result = client.wait_result(id).expect("result");
    assert_eq!(result.get("status").and_then(Json::as_str), Some("done"));

    // No new work is accepted while draining.
    let refused = client
        .submit_suite("s1488", "grar", "medium")
        .expect("submit");
    assert_eq!(refused.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        refused.get("error").and_then(Json::as_str),
        Some("shutting_down")
    );

    handle.wait();
}

/// The submit path in spans: every request line's JSON parse and spec
/// run in a `request` span; every submission hashes its raw text
/// (`digest`) and looks it up in the text memo (a `memo` attribute on
/// `submit`). The first sight of the text runs the key step (`parse`,
/// `canonicalize`, `key`) on the reactor; every later one keys the
/// remembered canonical text (`key` alone). Only a miss adds the
/// canonical netlist on the reactor — `to_netlist` from the key step's
/// table, or a `parse` of the remembered canonical text — and a worker
/// `job`, whose `build` (`extract`, `clock`, and the conversion's spans
/// when converting) runs before its `execute`. A hit, converted or not,
/// opens no `build`, no `convert` and no timing pass. Tracing is
/// process-global, so the spans of this test's submissions are picked
/// out by circuit name.
#[test]
fn submit_spans_key_every_time_and_build_on_a_miss_only() {
    use retime_trace::{SpanRecord, Value};
    use std::collections::HashMap;

    const NAME: &str = "span-probe";
    let circuit_is = |r: &SpanRecord| {
        r.attrs
            .iter()
            .any(|(k, v)| *k == "circuit" && *v == Value::Str(NAME.to_string()))
    };
    let (handle, addr) = spawn(1, 8);
    let mut client = Client::connect(&addr).expect("connect");
    let netlist = "INPUT(a)\\nINPUT(b)\\nOUTPUT(z)\\nq = DFF(g)\\ng = NOR(a, b)\\nz = OR(g, q)\\n";
    retime_trace::set_enabled(true);
    let mut cached = Vec::new();
    for convert in [false, false, true, true] {
        let reply = client
            .request_line(&format!(
                r#"{{"cmd":"submit","netlist":"{netlist}","name":"{NAME}","convert":{convert}}}"#
            ))
            .expect("submit");
        let id = reply.get("id").and_then(Json::as_u64).expect("job id");
        let done = client.wait_result(id).expect("result");
        assert_eq!(done.get("status").and_then(Json::as_str), Some("done"));
        cached.push(reply.get("cached") == Some(&Json::Bool(true)));
    }
    retime_trace::set_enabled(false);
    client.shutdown().expect("shutdown");
    handle.wait();
    assert_eq!(cached, [false, true, false, true]);

    let records = retime_trace::take_records();
    let by_id: HashMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
    let children = |id: u64| -> Vec<&'static str> {
        records
            .iter()
            .filter(|r| r.parent == id)
            .map(|r| r.name)
            .collect()
    };
    let under = |r: &SpanRecord, root: u64| {
        let mut at = r.parent;
        while at != 0 {
            if at == root {
                return true;
            }
            at = by_id.get(&at).map_or(0, |p| p.parent);
        }
        false
    };
    let submits: Vec<&SpanRecord> = records
        .iter()
        .filter(|r| r.name == "submit" && circuit_is(r))
        .collect();
    assert_eq!(submits.len(), 4, "one submit span per submission");
    for (submit, (hit, convert, memo, steps)) in submits.iter().zip([
        (
            false,
            false,
            "miss",
            &["digest", "parse", "canonicalize", "key", "to_netlist"][..],
        ),
        (true, false, "hit", &["digest", "key"][..]),
        (false, true, "hit", &["digest", "key", "parse"][..]),
        (true, true, "hit", &["digest", "key"][..]),
    ]) {
        let below: Vec<&str> = records
            .iter()
            .filter(|r| under(r, submit.id))
            .map(|r| r.name)
            .collect();
        let what = format!("hit={hit} convert={convert}: {below:?}");
        assert_eq!(children(submit.id), steps, "{what}");
        assert!(
            submit
                .attrs
                .contains(&("memo", Value::Str(memo.to_string()))),
            "{what}: {:?}",
            submit.attrs
        );
        for absent in ["build", "extract", "clock", "convert", "sta_full_pass"] {
            assert!(!below.contains(&absent), "{what}");
        }
        // The request's JSON parse and spec run in a `request` span,
        // the last one on the reactor before the submit.
        let request = records
            .iter()
            .filter(|r| r.name == "request" && r.tid == submit.tid && r.seq < submit.seq)
            .max_by_key(|r| r.seq)
            .expect("request span");
        assert_eq!(request.depth, submit.depth, "{what}");
        assert!(
            request.start_us + request.dur_us <= submit.start_us,
            "{what}"
        );
        assert_eq!(
            request.attrs,
            [("cmd", Value::Str("submit".to_string()))],
            "{what}"
        );
    }
    let jobs: Vec<&SpanRecord> = records
        .iter()
        .filter(|r| r.name == "job" && circuit_is(r))
        .collect();
    assert_eq!(jobs.len(), 2, "only the misses reach a worker");
    for (job, convert) in jobs.iter().zip([false, true]) {
        let what = format!("convert={convert}");
        assert!(submits.iter().all(|s| s.tid != job.tid), "{what}");
        let steps: Vec<&str> = children(job.id)
            .into_iter()
            .filter(|&n| n != "queue_wait")
            .collect();
        assert_eq!(steps, ["build", "execute"], "{what}");
        let build = records
            .iter()
            .find(|r| r.name == "build" && r.parent == job.id)
            .expect("build span");
        // The build starts from the reactor's canonical netlist: no
        // parse and no `to_netlist` on the worker.
        let mut want = vec!["extract", "clock"];
        if convert {
            // `retime_convert::convert`'s own stage spans.
            want.extend(["convert", "sta", "verify"]);
        }
        assert_eq!(children(build.id), want, "{what}");
    }
}

/// A build error reaches the client as a `failed` job: a latch circuit
/// submitted with `"convert":true` reads and keys, so `submit` queues it,
/// and its conversion fails on the worker with the build's own text. The
/// failure counts as a failed job, is never cached (a resubmission
/// misses again), and leaves the daemon serving the next request.
#[test]
fn a_failed_build_is_a_failed_job_and_never_cached() {
    const FAILED: &str = "retime_serve_jobs_failed_total{flow=\"grar\"}";
    let failed = |client: &mut Client| {
        let text = client.metrics_text().expect("metrics");
        text.lines()
            .find_map(|l| l.strip_prefix(FAILED)?.strip_prefix(' '))
            .map_or(0.0, |v| v.parse().expect("number"))
    };
    let (handle, addr) = spawn(1, 8);
    let mut client = Client::connect(&addr).expect("connect");
    let latch = "INPUT(a)\\nOUTPUT(q)\\nm = LATCHM(a)\\nq = LATCHS(m)\\n";
    let before = failed(&mut client);
    for attempt in 0..2 {
        let reply = client
            .request_line(&format!(
                r#"{{"cmd":"submit","netlist":"{latch}","name":"latch","convert":true}}"#
            ))
            .expect("submit");
        assert_eq!(
            reply.get("status").and_then(Json::as_str),
            Some("queued"),
            "attempt {attempt}: {}",
            reply.render()
        );
        assert_eq!(reply.get("cached"), Some(&Json::Bool(false)));
        let id = reply.get("id").and_then(Json::as_u64).expect("job id");
        let result = client.wait_result(id).expect("result");
        assert_eq!(result.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(result.get("status").and_then(Json::as_str), Some("failed"));
        assert_eq!(
            result.get("error").and_then(Json::as_str),
            Some(
                "conversion failed: conversion error: source is not an edge-triggered FF \
                 netlist: wrong sequential style: netlist already contains latches"
            )
        );
        assert_eq!(failed(&mut client), before + f64::from(attempt + 1));
    }
    let done = submit_and_wait(&mut client, "s1196", "base");
    assert_eq!(done.get("status").and_then(Json::as_str), Some("done"));
    client.shutdown().expect("shutdown");
    handle.wait();
}

/// A scratch cache directory, removed on drop.
struct TempCacheDir(std::path::PathBuf);

impl TempCacheDir {
    fn new(tag: &str) -> TempCacheDir {
        let dir = std::env::temp_dir().join(format!("retime-{tag}-{}", std::process::id()));
        // A leftover from a crashed run would warm the priming daemon.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create cache dir");
        TempCacheDir(dir)
    }
}

impl Drop for TempCacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The value of an unlabelled metric in Prometheus text.
fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {name} in metrics:\n{text}"))
}

/// One client socket of the many-connection drive: nonblocking, with
/// its own unsent bytes, unread reply bytes and in-flight request.
struct Conn {
    stream: std::net::TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    /// Mix index of the request in flight.
    job: usize,
    /// Requests started on this connection so far.
    started: usize,
    /// The submit was answered; its `result` reply is outstanding.
    awaiting_result: bool,
}

impl Conn {
    fn send(&mut self, line: &str) {
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
    }

    /// Writes what the socket takes now; true if any byte went out.
    fn flush(&mut self, idx: usize) -> bool {
        use std::io::{ErrorKind, Write};
        let mut wrote = false;
        while !self.out.is_empty() {
            match (&self.stream).write(&self.out) {
                Ok(0) => panic!("connection {idx} stopped taking bytes"),
                Ok(n) => {
                    self.out.drain(..n);
                    wrote = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("write on connection {idx} failed: {e}"),
            }
        }
        wrote
    }

    /// Reads what has arrived and returns the complete reply lines.
    fn read_lines(&mut self, idx: usize) -> Vec<String> {
        use std::io::{ErrorKind, Read};
        let mut chunk = [0u8; 16384];
        loop {
            match (&self.stream).read(&mut chunk) {
                Ok(0) => panic!("the server dropped connection {idx}"),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("read on connection {idx} failed: {e}"),
            }
        }
        let mut lines = Vec::new();
        while let Some(end) = self.inbuf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.inbuf.drain(..=end).collect();
            lines.push(String::from_utf8(line).expect("reply is UTF-8"));
        }
        lines
    }
}

/// A daemon restarted on a primed cache directory serves many
/// connections at once from disk. One thread opens 256 nonblocking
/// sockets (128 on each of the default two reactors) and writes a
/// submit on every one before it reads any reply, so every connection
/// is open with one request in flight; it then
/// drives 4 requests per connection by round-robin reads. Every
/// request is answered, none is rejected and no connection is dropped.
/// Every reply is a solver-free cache hit whose payload digest equals a
/// direct in-process `execute` of the same spec.
#[test]
fn restarted_daemon_serves_many_concurrent_connections_from_disk() {
    use retime_serve::json::parse;
    use retime_serve::{CacheConfig, DiskCacheConfig};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    const CONNECTIONS: usize = 256;
    const ROUNDS: usize = 4;

    // The four smallest suite circuits under base retiming and G-RAR,
    // each with the digest a direct in-process run produces.
    let lib = retime_liberty::Library::fdsoi28();
    let mut suite = retime_circuits::paper_suite();
    suite.sort_by_key(|s| s.flops);
    let mix: Vec<(String, String)> = suite
        .iter()
        .take(4)
        .flat_map(|s| ["base", "grar"].map(|flow| (s.name, flow)))
        .map(|(circuit, flow)| {
            let line =
                format!(r#"{{"cmd":"submit","circuit":"{circuit}","flow":"{flow}","c":"medium"}}"#);
            let spec = JobSpec::from_json(&parse(&line).expect("parses")).expect("valid spec");
            let resolved =
                resolve_circuit(&CircuitRef::Suite(circuit.to_string()), &lib).expect("resolves");
            let prepared = prepare(&spec, &resolved, &lib);
            let sha = execute(&prepared.key_config, &resolved, &lib)
                .expect("direct flow call")
                .payload_sha256;
            (line, sha)
        })
        .collect();

    let cache_dir = TempCacheDir::new("many-conns");
    let spawn_on_disk = || {
        Server::spawn(ServerConfig {
            cache: CacheConfig {
                disk: Some(DiskCacheConfig {
                    dir: cache_dir.0.clone(),
                    max_bytes: 1 << 30,
                    cache_fault: false,
                }),
                ..CacheConfig::default()
            },
            ..ServerConfig::default()
        })
        .expect("server spawns")
    };

    // Prime the disk tier, then stop that daemon.
    let first = spawn_on_disk();
    let mut client = Client::connect(&first.addr().to_string()).expect("connect");
    for (line, _) in &mix {
        let reply = client.request_line(line).expect("submit");
        assert_eq!(reply.get("cached"), Some(&Json::Bool(false)), "{line}");
        let id = reply.get("id").and_then(Json::as_u64).expect("job id");
        let result = client.wait_result(id).expect("result");
        assert_eq!(result.get("status").and_then(Json::as_str), Some("done"));
    }
    drop(client);
    first.shutdown();
    first.wait();

    // A second daemon on the same directory; every socket is open and
    // holds a submit before any reply is read.
    let second = spawn_on_disk();
    let addr = second.addr().to_string();
    let mut conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|idx| {
            let stream = TcpStream::connect(&addr).expect("connect");
            stream.set_nonblocking(true).expect("nonblocking");
            let mut conn = Conn {
                stream,
                out: Vec::new(),
                inbuf: Vec::new(),
                job: idx % mix.len(),
                started: 1,
                awaiting_result: false,
            };
            conn.send(&mix[conn.job].0);
            conn
        })
        .collect();
    for (idx, conn) in conns.iter_mut().enumerate() {
        conn.flush(idx);
    }

    let total = CONNECTIONS * ROUNDS;
    let mut answered = 0;
    let deadline = Instant::now() + Duration::from_secs(60);
    while answered < total {
        assert!(
            Instant::now() < deadline,
            "only {answered} of {total} requests answered in 60 s"
        );
        let mut progressed = false;
        for (idx, conn) in conns.iter_mut().enumerate() {
            progressed |= conn.flush(idx);
            for line in conn.read_lines(idx) {
                progressed = true;
                let reply = parse(&line).expect("reply parses");
                if conn.awaiting_result {
                    assert_eq!(
                        reply.get("status").and_then(Json::as_str),
                        Some("done"),
                        "{line}"
                    );
                    assert_eq!(
                        reply.get("solver_invocations").and_then(Json::as_u64),
                        Some(0),
                        "a restart-warm hit ran the solver: {line}"
                    );
                    assert_eq!(
                        reply.get("payload_sha256").and_then(Json::as_str),
                        Some(mix[conn.job].1.as_str()),
                        "served payload differs from a direct execute"
                    );
                    answered += 1;
                    conn.awaiting_result = false;
                    if conn.started < ROUNDS {
                        conn.job = (idx + conn.started) % mix.len();
                        conn.started += 1;
                        conn.send(&mix[conn.job].0);
                    }
                } else {
                    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{line}");
                    assert!(
                        reply.get("cached") == Some(&Json::Bool(true))
                            && reply.get("status").and_then(Json::as_str) == Some("done"),
                        "expected a restart-warm cache hit: {line}"
                    );
                    let id = reply.get("id").and_then(Json::as_u64).expect("job id");
                    conn.send(&format!(r#"{{"cmd":"result","id":{id}}}"#));
                    conn.awaiting_result = true;
                }
            }
        }
        if !progressed {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // Every socket is still open, and the disk tier answered each key.
    let mut client = Client::connect(&addr).expect("connect");
    let metrics = client.metrics_text().expect("metrics");
    assert_eq!(
        metric(&metrics, "retime_serve_open_connections"),
        (CONNECTIONS + 1) as f64
    );
    assert_eq!(
        metric(&metrics, "retime_serve_cache_hits_total"),
        total as f64
    );
    assert_eq!(metric(&metrics, "retime_serve_cache_misses_total"), 0.0);
    assert!(
        metric(&metrics, "retime_serve_cache_disk_hits_total") >= mix.len() as f64,
        "{metrics}"
    );
    drop(conns);
    client.shutdown().expect("shutdown");
    second.wait();
}
