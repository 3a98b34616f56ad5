//! `serve-loadgen` — drive thousands of concurrent clients against a
//! `retime-serve` daemon and report latency percentiles + saturation
//! throughput.
//!
//! ```text
//! serve-loadgen [--connections N] [--requests N] [--ramp N]
//!               [--cold-percent P] [--json PATH]
//!               [--addr HOST:PORT] [--prime] [--expect-warm]
//! ```
//!
//! The generator is a single-threaded epoll state machine (the same
//! [`retime_serve::epoll`] wrapper the server's reactors use), so one
//! core can hold 1000+ open connections with one in-flight request each
//! — a thread-per-client harness at that scale would spend its time
//! context-switching instead of measuring.
//!
//! Two modes:
//!
//! * **Self-contained bench** (no `--addr`, the `BENCH_serve.json`
//!   generator): spawns a daemon with a fresh `--cache-dir`, primes the
//!   job mix cold (measuring cold jobs/sec), **shuts the daemon down and
//!   starts a second one on the same cache directory**, then runs the
//!   full concurrent load against the restarted server. Every reply must
//!   be a restart-warm cache hit: `solver_invocations == 0` and
//!   `payload_sha256` equal to a direct in-process `execute()` of the
//!   same spec — the bit-identity claim in the bench file is checked,
//!   not assumed.
//! * **External daemon** (`--addr`): drives an already-running server;
//!   `--prime` first submits the job mix once, `--expect-warm` asserts
//!   every request is a solver-free bit-identical cache hit (used by the
//!   smoke script across a daemon restart).
//!
//! Latencies are measured per request from submit-write to final
//! `result` reply and reported as p50/p99/p999; saturation throughput is
//! completed requests over the drive wall-clock with all connections
//! open. A `--cold-percent` mix salts unique overhead values into the
//! stream so a fraction of requests miss the cache and run the flow.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::time::Instant;

use retime_circuits::paper_suite;
use retime_liberty::Library;
use retime_serve::epoll::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use retime_serve::json::{parse, Json};
use retime_serve::{
    execute, prepare, resolve_circuit, CircuitRef, Client, DiskCacheConfig, JobSpec, Server,
    ServerConfig,
};

struct Args {
    addr: Option<String>,
    connections: usize,
    requests: usize,
    ramp: usize,
    cold_percent: usize,
    json_out: Option<PathBuf>,
    prime: bool,
    expect_warm: bool,
}

fn usage() -> ! {
    println!(
        "usage: serve-loadgen [--connections N] [--requests N] [--ramp N] \
         [--cold-percent P] [--json PATH] [--addr HOST:PORT] [--prime] [--expect-warm]"
    );
    std::process::exit(0);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: None,
        connections: 1000,
        requests: 0,
        ramp: 200,
        cold_percent: 0,
        json_out: None,
        prime: false,
        expect_warm: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("serve-loadgen: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => args.addr = Some(value("--addr")),
            "--connections" => args.connections = parsed(&value("--connections")),
            "--requests" => args.requests = parsed(&value("--requests")),
            "--ramp" => args.ramp = parsed(&value("--ramp")),
            "--cold-percent" => args.cold_percent = parsed(&value("--cold-percent")),
            "--json" => args.json_out = Some(value("--json").into()),
            "--prime" => args.prime = true,
            "--expect-warm" => args.expect_warm = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("serve-loadgen: unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }
    if args.requests == 0 {
        args.requests = args.connections * 4;
    }
    if args.ramp == 0 {
        args.ramp = args.connections;
    }
    if args.cold_percent > 100 {
        eprintln!("serve-loadgen: --cold-percent wants 0..=100");
        std::process::exit(2);
    }
    args
}

fn parsed(raw: &str) -> usize {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("serve-loadgen: expected a non-negative integer, got {raw:?}");
        std::process::exit(2);
    })
}

/// One unique job in the mix: its submit line and, for warm-validated
/// jobs, the payload digest a direct `execute()` produces.
struct JobMix {
    submit_line: String,
    expected_sha: Option<String>,
}

/// The cached job mix: the four smallest suite circuits × two flows.
fn cached_mix() -> Vec<(String, &'static str)> {
    let mut specs = paper_suite();
    specs.sort_by_key(|s| s.flops);
    specs
        .into_iter()
        .take(4)
        .flat_map(|s| {
            ["base", "grar"]
                .into_iter()
                .map(move |flow| (s.name.to_string(), flow))
        })
        .collect()
}

fn submit_line(circuit: &str, flow: &str) -> String {
    format!("{{\"cmd\":\"submit\",\"circuit\":\"{circuit}\",\"flow\":\"{flow}\",\"c\":\"medium\"}}")
}

/// Computes the ground-truth payload digest for a mix entry by running
/// the flow directly in-process — the reference the server's cache hits
/// must match bit-for-bit.
fn direct_sha(lib: &Library, circuit: &str, flow: &str) -> String {
    let spec = JobSpec::from_json(&parse(&submit_line(circuit, flow)).expect("submit line parses"))
        .expect("submit line is a valid spec");
    let resolved = resolve_circuit(&CircuitRef::Suite(circuit.to_string()), lib)
        .expect("suite circuit resolves");
    let prepared = prepare(&spec, &resolved, lib);
    execute(&prepared.key_config, &resolved, lib)
        .expect("direct flow run")
        .payload_sha256
}

enum ConnState {
    /// Waiting for the `submit` reply.
    Submitted {
        job: usize,
        started: Instant,
    },
    /// Waiting for the (possibly deferred) `result` reply.
    AwaitResult {
        job: usize,
        started: Instant,
        expect_cached: bool,
    },
    Idle,
}

struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    want_write: bool,
    state: ConnState,
}

impl Conn {
    fn queue_line(&mut self, line: &str) {
        self.write_buf.extend_from_slice(line.as_bytes());
        self.write_buf.push(b'\n');
    }

    fn flush(&mut self) -> bool {
        while self.write_pos < self.write_buf.len() {
            match (&self.stream).write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return false,
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        }
        true
    }
}

/// Everything the drive pass measures.
struct DriveReport {
    latencies_ms: Vec<f64>,
    elapsed_s: f64,
    cold_requests: usize,
    overload_retries: u64,
}

/// Runs `total` requests across `n_conns` concurrent connections with a
/// single-threaded epoll state machine. `expect_warm` turns every
/// cached-mix reply into an assertion: cache hit, zero solver work,
/// digest equal to the direct run.
#[allow(clippy::too_many_lines)]
fn drive(
    addr: &str,
    n_conns: usize,
    total: usize,
    ramp: usize,
    cold_percent: usize,
    mix: &[JobMix],
    expect_warm: bool,
) -> DriveReport {
    let epoll = Epoll::new().expect("epoll");
    let mut conns: Vec<Conn> = Vec::with_capacity(n_conns);
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(total);
    let mut next_req = 0usize; // requests handed out
    let mut done = 0usize; // requests completed
    let mut cold_requests = 0usize;
    let mut overload_retries = 0u64;
    let mut cold_seq = 0usize; // unique-overhead counter for cold jobs
    let mut cold_lines: Vec<String> = Vec::new(); // submit line per cold id
    let mut events = vec![EpollEvent::default(); 256];
    let t0 = Instant::now();

    // A request is "cold" when its index lands in the first
    // `cold_percent` slots of each 100-request stripe.
    let mut take_request = |conn: &mut Conn, cold_lines: &mut Vec<String>| -> bool {
        if next_req >= total {
            conn.state = ConnState::Idle;
            return false;
        }
        let r = next_req;
        next_req += 1;
        let started = Instant::now();
        if r % 100 < cold_percent {
            // Unique overhead value → unique key → guaranteed miss.
            let c = 0.31 + (cold_seq as f64) * 1e-4;
            cold_seq += 1;
            cold_requests += 1;
            let line =
                format!("{{\"cmd\":\"submit\",\"circuit\":\"s1196\",\"flow\":\"grar\",\"c\":{c}}}");
            cold_lines.push(line.clone());
            conn.queue_line(&line);
            conn.state = ConnState::Submitted {
                job: mix.len() + cold_lines.len() - 1,
                started,
            };
        } else {
            let job = r % mix.len();
            conn.queue_line(&mix[job].submit_line);
            conn.state = ConnState::Submitted { job, started };
        }
        true
    };

    // Ramp: connect in batches, first request queued immediately.
    for batch in (0..n_conns).collect::<Vec<_>>().chunks(ramp.max(1)) {
        for &token in batch {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            stream.set_nonblocking(true).expect("nonblocking");
            epoll
                .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token as u64)
                .expect("epoll add");
            let mut conn = Conn {
                stream,
                read_buf: Vec::new(),
                write_buf: Vec::new(),
                write_pos: 0,
                want_write: false,
                state: ConnState::Idle,
            };
            take_request(&mut conn, &mut cold_lines);
            assert!(conn.flush(), "connection died during ramp");
            conns.push(conn);
        }
    }
    // Arm EPOLLOUT for anything the ramp couldn't flush.
    for (token, conn) in conns.iter_mut().enumerate() {
        if conn.write_pos < conn.write_buf.len() && !conn.want_write {
            conn.want_write = true;
            epoll
                .modify(
                    conn.stream.as_raw_fd(),
                    EPOLLIN | EPOLLOUT | EPOLLRDHUP,
                    token as u64,
                )
                .expect("epoll modify");
        }
    }

    let mut replies: VecDeque<(usize, String)> = VecDeque::new();
    while done < total {
        let n = epoll.wait(&mut events, 1000).expect("epoll wait");
        for ev in &events[..n] {
            let token = ev.token() as usize;
            let mask = ev.events();
            let conn = &mut conns[token];
            assert!(
                mask & (EPOLLERR | EPOLLHUP) == 0,
                "server dropped connection {token}"
            );
            if mask & EPOLLOUT != 0 {
                assert!(conn.flush(), "write failed on connection {token}");
            }
            if mask & (EPOLLIN | EPOLLRDHUP) != 0 {
                let mut chunk = [0u8; 16384];
                loop {
                    match (&conn.stream).read(&mut chunk) {
                        Ok(0) => panic!("server closed connection {token} mid-run"),
                        Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => panic!("read failed on connection {token}: {e}"),
                    }
                }
                let mut start = 0;
                while let Some(rel) = conn.read_buf[start..].iter().position(|&b| b == b'\n') {
                    let end = start + rel;
                    let line = String::from_utf8(conn.read_buf[start..end].to_vec())
                        .expect("reply is UTF-8");
                    replies.push_back((token, line));
                    start = end + 1;
                }
                conn.read_buf.drain(..start);
            }
        }

        while let Some((token, line)) = replies.pop_front() {
            let conn = &mut conns[token];
            let reply = parse(&line).expect("reply parses");
            match std::mem::replace(&mut conn.state, ConnState::Idle) {
                ConnState::Submitted { job, started } => {
                    let ok = reply.get("ok") == Some(&Json::Bool(true));
                    let status = reply.get("status").and_then(Json::as_str);
                    if !ok && reply.get("error").and_then(Json::as_str) == Some("overloaded") {
                        // Structured backpressure: resubmit the same job.
                        overload_retries += 1;
                        let line = if job < mix.len() {
                            mix[job].submit_line.clone()
                        } else {
                            cold_lines[job - mix.len()].clone()
                        };
                        conn.queue_line(&line);
                        conn.state = ConnState::Submitted { job, started };
                    } else {
                        assert!(ok, "submit rejected: {line}");
                        let id = reply.get("id").and_then(Json::as_u64).expect("job id");
                        let cached = reply.get("cached") == Some(&Json::Bool(true));
                        if expect_warm && job < mix.len() {
                            assert!(
                                cached && status == Some("done"),
                                "expected a warm cache hit, got: {line}"
                            );
                        }
                        let wait = if status == Some("done") {
                            ""
                        } else {
                            ",\"wait\":true"
                        };
                        conn.queue_line(&format!("{{\"cmd\":\"result\",\"id\":{id}{wait}}}"));
                        conn.state = ConnState::AwaitResult {
                            job,
                            started,
                            expect_cached: cached,
                        };
                    }
                }
                ConnState::AwaitResult {
                    job,
                    started,
                    expect_cached,
                } => {
                    assert_eq!(
                        reply.get("status").and_then(Json::as_str),
                        Some("done"),
                        "job failed: {line}"
                    );
                    let solver = reply
                        .get("solver_invocations")
                        .and_then(Json::as_u64)
                        .expect("solver counter");
                    if expect_cached || (expect_warm && job < mix.len()) {
                        assert_eq!(solver, 0, "cache hit ran the solver: {line}");
                    }
                    if job < mix.len() {
                        if let Some(expected) = &mix[job].expected_sha {
                            let got = reply
                                .get("payload_sha256")
                                .and_then(Json::as_str)
                                .expect("payload digest");
                            assert_eq!(
                                got, expected,
                                "served payload diverged from a direct execute()"
                            );
                        }
                    }
                    latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
                    done += 1;
                    take_request(conn, &mut cold_lines);
                }
                ConnState::Idle => panic!("unsolicited reply on connection {token}: {line}"),
            }
            assert!(conn.flush(), "write failed on connection {token}");
            let needs_write = conn.write_pos < conn.write_buf.len();
            if needs_write != conn.want_write {
                conn.want_write = needs_write;
                let mask = if needs_write {
                    EPOLLIN | EPOLLOUT | EPOLLRDHUP
                } else {
                    EPOLLIN | EPOLLRDHUP
                };
                epoll
                    .modify(conn.stream.as_raw_fd(), mask, token as u64)
                    .expect("epoll modify");
            }
        }
    }

    DriveReport {
        latencies_ms,
        elapsed_s: t0.elapsed().as_secs_f64(),
        cold_requests,
        overload_retries,
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Primes the cache: submits every mix entry once over one blocking
/// connection, waiting each out. Returns (elapsed seconds, total solver
/// invocations reported).
fn prime(addr: &str, mix: &[JobMix]) -> (f64, u64) {
    let mut client = Client::connect(addr).expect("connect");
    let t0 = Instant::now();
    let mut solver = 0u64;
    for job in mix {
        let reply = client.request_line(&job.submit_line).expect("submit");
        assert_eq!(
            reply.get("ok"),
            Some(&Json::Bool(true)),
            "prime submit rejected: {}",
            reply.render()
        );
        let id = reply.get("id").and_then(Json::as_u64).expect("job id");
        let result = client.wait_result(id).expect("result");
        assert_eq!(
            result.get("status").and_then(Json::as_str),
            Some("done"),
            "prime job failed: {}",
            result.render()
        );
        solver += result
            .get("solver_invocations")
            .and_then(Json::as_u64)
            .expect("solver counter");
    }
    (t0.elapsed().as_secs_f64(), solver)
}

fn main() {
    let args = parse_args();
    let lib = Library::fdsoi28();

    // Ground truth for bit-identity: direct in-process flow runs.
    let mix: Vec<JobMix> = cached_mix()
        .into_iter()
        .map(|(circuit, flow)| JobMix {
            expected_sha: Some(direct_sha(&lib, &circuit, flow)),
            submit_line: submit_line(&circuit, flow),
        })
        .collect();

    let mut cold_jobs_per_sec = 0.0f64;
    let mut restart_warm = false;

    let (addr, _server, _tmp): (String, Option<_>, Option<TempCacheDir>) = match &args.addr {
        Some(addr) => {
            if args.prime {
                let (s, solver) = prime(addr, &mix);
                assert!(solver > 0, "prime pass must invoke the solver");
                cold_jobs_per_sec = mix.len() as f64 / s;
            }
            (addr.clone(), None, None)
        }
        None => {
            // Self-contained: prime one daemon, restart onto the same
            // cache dir, then load the restarted (disk-warm) daemon.
            let tmp = TempCacheDir::new();
            let spawn = || {
                let mut config = ServerConfig {
                    queue_bound: 4096,
                    ..ServerConfig::default()
                };
                config.cache.disk = Some(DiskCacheConfig {
                    dir: tmp.0.clone(),
                    max_bytes: 1 << 30,
                    cache_fault: false,
                });
                Server::spawn(config).expect("spawn server")
            };
            let first = spawn();
            let addr = first.addr().to_string();
            let (s, solver) = prime(&addr, &mix);
            assert!(solver > 0, "prime pass must invoke the solver");
            cold_jobs_per_sec = mix.len() as f64 / s;
            first.shutdown();
            first.wait();

            let second = spawn();
            restart_warm = true;
            (second.addr().to_string(), Some(second), Some(tmp))
        }
    };

    let expect_warm = args.expect_warm || (restart_warm && args.cold_percent == 0);
    let report = drive(
        &addr,
        args.connections,
        args.requests,
        args.ramp,
        args.cold_percent,
        &mix,
        expect_warm,
    );

    if let Some(server) = _server {
        let mut client = Client::connect(&addr).expect("connect");
        client.shutdown().expect("shutdown");
        server.wait();
    }

    let mut sorted = report.latencies_ms.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p50 = percentile(&sorted, 50.0);
    let p99 = percentile(&sorted, 99.0);
    let p999 = percentile(&sorted, 99.9);
    let throughput = report.latencies_ms.len() as f64 / report.elapsed_s;

    let json = format!(
        "{{\n  \"connections\": {},\n  \"ramp\": {},\n  \"requests\": {},\n  \
         \"unique_cached_jobs\": {},\n  \"cold_requests\": {},\n  \
         \"overload_retries\": {},\n  \"cold_jobs_per_sec\": {:.3},\n  \
         \"saturation_jobs_per_sec\": {:.3},\n  \"p50_ms\": {:.3},\n  \
         \"p99_ms\": {:.3},\n  \"p999_ms\": {:.3},\n  \
         \"restart_warm\": {},\n  \"warm_bit_identical\": {},\n  \
         \"warm_solver_invocations\": 0\n}}\n",
        args.connections,
        args.ramp,
        report.latencies_ms.len(),
        mix.len(),
        report.cold_requests,
        report.overload_retries,
        cold_jobs_per_sec,
        throughput,
        p50,
        p99,
        p999,
        restart_warm,
        expect_warm,
    );
    if let Some(out) = &args.json_out {
        std::fs::write(out, &json).expect("write json report");
    }
    print!("{json}");
}

/// A unique scratch cache directory, removed on drop.
struct TempCacheDir(PathBuf);

impl TempCacheDir {
    fn new() -> TempCacheDir {
        let dir = std::env::temp_dir().join(format!("retime-loadgen-{}", std::process::id()));
        // A stale leftover from a crashed run would warm-start the
        // "cold" prime pass; start from nothing.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch cache dir");
        TempCacheDir(dir)
    }
}

impl Drop for TempCacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
