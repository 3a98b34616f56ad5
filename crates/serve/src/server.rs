//! The retiming daemon: acceptor, reactor event loop, NDJSON protocol
//! dispatch, and the worker pool that drains the bounded job queue.
//!
//! Connection I/O runs on a small fixed set of nonblocking
//! [`reactor`](crate::reactor) threads (one epoll loop each); the
//! acceptor only accepts and hands sockets over round-robin. A thousand
//! idle clients therefore cost a thousand buffer pairs, not a thousand
//! threads. Protocol handling — this module — is the
//! [`Service`] the reactors call back into.
//!
//! One connection carries any number of newline-delimited JSON commands:
//!
//! * `submit` — name a circuit (suite name or inline `.bench` text), a
//!   flow, an overhead; the reply is `queued`, `done` (cache hit), or a
//!   structured `overloaded` rejection with `retry_after_ms`. The
//!   reactor only reads and keys a submission; a miss is built on the
//!   worker, so a build error is a `failed` job, not a `submit` error.
//!   The reactor reads an inline text once while the daemon remembers
//!   it: the text memo (`memo.rs`) keeps its canonical `.bench` text
//!   under a SHA-256 of the raw bytes. On a memo hit the reactor keys
//!   the remembered text with no read and no canonical sort, and on a
//!   result miss it parses that text into the netlist. A text is
//!   remembered only once its canonical netlist has built or its key
//!   has hit, so a text that fails to read or build fails alike every
//!   time. The memo is capped at `TEXT_MEMO_BYTES` of canonical text,
//!   least recently used out.
//! * `status` / `result` — poll or (with `"wait": true`) subscribe to a
//!   job. A waited `result` does not block the reactor: the connection
//!   is parked in a waiter table and the reply is injected when the
//!   worker finishes the job.
//! * `metrics` — Prometheus text exposition of the service counters.
//! * `pause` / `resume` — hold and release the worker pool (used by the
//!   backpressure tests to fill the queue deterministically).
//! * `shutdown` — drain-then-exit: no new work is accepted, queued jobs
//!   finish, workers, reactors, and the acceptor join.
//!
//! The pool is literally built on [`retime_engine::parallel_map`] — one
//! supervisor thread fans `worker_loop` out over `workers` slots, so the
//! pool size honors `RETIME_THREADS` exactly like every flow does.
//! Results land in the tiered [`ResultCache`]; with `--cache-dir` they
//! also persist across restarts (see [`crate::disk`]).

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

use retime_engine::{parallel_map, thread_count};
use retime_liberty::Library;

use crate::cache::{CacheConfig, CachedResult, ResultCache};
use crate::job::{
    build_canonical, build_suite, canonical_key, canonical_netlist, execute, inline_key, prepare,
    read_inline, CanonicalNetlist, CircuitRef, InlineSource, JobSpec, ResolvedCircuit,
};
use crate::json::{obj, parse, Json};
use crate::memo::{TextMemo, TEXT_MEMO_BYTES};
use crate::metrics::Metrics;
use crate::queue::{JobQueue, PushError};
use crate::reactor::{reactor_pair, ConnLimits, LineReply, ReactorMsg, ReactorPost, Service};

/// How a [`Server`] is wired up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free loopback port).
    pub addr: String,
    /// Worker threads (`0` = auto via `RETIME_THREADS` /
    /// available parallelism).
    pub workers: usize,
    /// Job-queue bound; a submission past it gets an `overloaded` reply.
    pub queue_bound: usize,
    /// Log job lifecycle events to stderr.
    pub verbose: bool,
    /// I/O reactor threads (`0` = auto, currently 2).
    pub reactors: usize,
    /// Result-cache wiring: memory-tier cap and optional `--cache-dir`
    /// persistent tier.
    pub cache: CacheConfig,
    /// Per-connection line/write-buffer caps.
    pub limits: ConnLimits,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_bound: 64,
            verbose: false,
            reactors: 0,
            cache: CacheConfig::default(),
            limits: ConnLimits::default(),
        }
    }
}

/// What a queued job still needs to run.
struct QueuedWork {
    /// The submission's options; an inline text is already dropped.
    spec: JobSpec,
    circuit: Pending,
    key: String,
    /// Trace timestamp of the submit (0 when tracing is disabled); lets
    /// the worker emit the queue-wait vs execute split under the job span.
    enqueued_us: u64,
}

/// A queued job's circuit, as far as the reactor built it.
enum Pending {
    /// A suite build, shared by its submissions.
    Built(Arc<ResolvedCircuit>),
    /// An inline netlist in canonical order; the worker builds the rest.
    Canonical(CanonicalNetlist),
}

impl Pending {
    fn name(&self) -> &str {
        match self {
            Pending::Built(circuit) => &circuit.name,
            Pending::Canonical(source) => &source.name,
        }
    }
}

enum JobState {
    Queued(Box<QueuedWork>),
    Running,
    Done {
        payload: Arc<CachedResult>,
        solver_invocations: u64,
    },
    Failed {
        error: String,
    },
}

struct JobRecord {
    cached: bool,
    key: String,
    state: JobState,
}

impl JobRecord {
    fn status_name(&self) -> &'static str {
        match self.state {
            JobState::Queued(_) => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
        }
    }
}

/// Job records plus the deferred-`result` waiter table. One mutex
/// guards both so a waiter can never be registered after its wake: the
/// worker publishes `Done`/`Failed` and collects waiters under the same
/// lock a dispatcher uses to check state before parking.
#[derive(Default)]
struct JobTable {
    records: HashMap<u64, JobRecord>,
    /// job id → connections waiting on it, as (reactor, conn) pairs.
    waiters: HashMap<u64, Vec<(usize, u64)>>,
}

/// Everything the acceptor, reactors, and workers share.
struct Shared {
    lib: Library,
    addr: SocketAddr,
    queue: JobQueue,
    cache: ResultCache,
    metrics: Metrics,
    jobs: Mutex<JobTable>,
    /// Prior suite builds, keyed by `(name, converted)` — the converted
    /// two-phase build of a suite circuit is a different circuit than
    /// its edge-triggered build and must never be served in its place.
    suite_store: Mutex<HashMap<(String, bool), Arc<ResolvedCircuit>>>,
    /// The canonical text of every inline netlist read and built (or
    /// keyed to a hit), by its raw bytes.
    texts: TextMemo,
    next_id: AtomicU64,
    workers: usize,
    shutting_down: AtomicBool,
    verbose: bool,
    /// Set once at spawn, after the reactor threads exist.
    reactors: OnceLock<Vec<ReactorPost>>,
    open_connections: AtomicU64,
}

impl Shared {
    fn posts(&self) -> &[ReactorPost] {
        self.reactors.get().map_or(&[], Vec::as_slice)
    }
}

/// The retiming service. [`Server::spawn`] binds, starts the pool and
/// the reactors, and returns a handle; all interaction then goes over
/// the socket.
pub struct Server;

impl Server {
    /// Binds the listener, opens the cache (running disk recovery when
    /// `--cache-dir` is configured), and starts the worker pool, the
    /// reactors, and the acceptor. Returns once every one of those
    /// threads is running, so a started server's thread set is fixed.
    ///
    /// # Errors
    /// Propagates bind and cache-open failures, and a worker pool that
    /// died before all its workers started.
    pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = match config.workers {
            0 => thread_count(),
            n => n,
        };
        let n_reactors = match config.reactors {
            0 => 2,
            n => n,
        };
        let cache = ResultCache::with_config(config.cache.clone())?;
        let recovery = cache.recovery();
        if config.verbose && (recovery.recovered > 0 || recovery.discarded > 0) {
            eprintln!(
                "[retime-serve] cache recovery: {} entries re-admitted, {} quarantined",
                recovery.recovered, recovery.discarded
            );
        }
        let shared = Arc::new(Shared {
            lib: Library::fdsoi28(),
            addr,
            queue: JobQueue::new(config.queue_bound),
            cache,
            metrics: Metrics::new(),
            jobs: Mutex::new(JobTable::default()),
            suite_store: Mutex::new(HashMap::new()),
            texts: TextMemo::new(TEXT_MEMO_BYTES),
            next_id: AtomicU64::new(1),
            workers,
            shutting_down: AtomicBool::new(false),
            verbose: config.verbose,
            reactors: OnceLock::new(),
            open_connections: AtomicU64::new(0),
        });

        // The pool thread starts its workers itself; each reports in
        // before it takes jobs, and `spawn` waits for all of them.
        let (ready, workers_up) = mpsc::channel();
        let pool = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let slots: Vec<usize> = (0..shared.workers).collect();
                parallel_map(shared.workers, &slots, |_| {
                    let _ = ready.send(());
                    worker_loop(&shared);
                });
            })
        };
        for _ in 0..workers {
            workers_up
                .recv()
                .map_err(|_| std::io::Error::other("the worker pool failed to start"))?;
        }

        let mut posts = Vec::with_capacity(n_reactors);
        let mut reactor_threads = Vec::with_capacity(n_reactors);
        for idx in 0..n_reactors {
            let (post, core) = reactor_pair(idx)?;
            posts.push(post);
            let shared = Arc::clone(&shared);
            let limits = config.limits;
            reactor_threads.push(std::thread::spawn(move || core.run(&shared, limits)));
        }
        shared
            .reactors
            .set(posts)
            .unwrap_or_else(|_| unreachable!("reactor posts set once"));

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let mut next_conn: u64 = 0;
                for stream in listener.incoming() {
                    if shared.shutting_down.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let posts = shared.posts();
                    let conn = next_conn;
                    next_conn += 1;
                    let reactor = (conn as usize) % posts.len();
                    posts[reactor].inject(ReactorMsg::Accept { conn, stream });
                }
            })
        };

        Ok(ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
            pool: Some(pool),
            reactors: reactor_threads,
        })
    }
}

/// A running server: its bound address and the threads to join on exit.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    pool: Option<JoinHandle<()>>,
    reactors: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (with the kernel-chosen port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server has drained and every thread joined —
    /// returns after a client sends `shutdown`. Order matters: the pool
    /// drains first (its final `JobDone` replies still need reactors),
    /// then the reactors flush and exit, then the acceptor joins.
    pub fn wait(mut self) {
        if let Some(pool) = self.pool.take() {
            let _ = pool.join();
        }
        for post in self.shared.posts() {
            post.stop();
        }
        for reactor in self.reactors.drain(..) {
            let _ = reactor.join();
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }

    /// Initiates drain-then-exit from the hosting process (same path the
    /// `shutdown` command takes).
    pub fn shutdown(&self) {
        begin_shutdown(&self.shared);
    }
}

/// Flips the service into drain mode and pokes the acceptor awake.
fn begin_shutdown(shared: &Shared) {
    shared.shutting_down.store(true, Ordering::SeqCst);
    shared.queue.close();
    // The acceptor blocks in `accept`; a throwaway connection makes it
    // re-check the flag.
    let _ = TcpStream::connect(shared.addr);
}

/// One worker: pull job ids until the queue closes and drains.
fn worker_loop(shared: &Shared) {
    while let Some(id) = shared.queue.pop() {
        let work = {
            let mut jobs = shared.jobs.lock().expect("jobs lock");
            match jobs.records.get_mut(&id) {
                Some(record) => match std::mem::replace(&mut record.state, JobState::Running) {
                    JobState::Queued(work) => Some(work),
                    other => {
                        record.state = other;
                        None
                    }
                },
                None => None,
            }
        };
        let Some(work) = work else { continue };
        let flow = work.spec.flow_name();
        if shared.verbose {
            eprintln!(
                "[retime-serve] job {id}: running {} / {}",
                work.circuit.name(),
                flow
            );
        }
        let job_span = retime_trace::span("job");
        if retime_trace::enabled() {
            retime_trace::attr_str("job_id", &id.to_string());
            retime_trace::attr_str("circuit", work.circuit.name());
            retime_trace::attr_str("flow", flow);
            if work.enqueued_us != 0 {
                let picked_up = retime_trace::now_us();
                retime_trace::event_us(
                    "queue_wait",
                    work.enqueued_us,
                    picked_up.saturating_sub(work.enqueued_us),
                );
            }
        }
        let label = format!("flow=\"{flow}\"");
        // An inline miss finishes its build here; a failed build fails
        // the job with the build's error text and is never cached.
        let started = std::time::Instant::now();
        let circuit = match work.circuit {
            Pending::Built(circuit) => Ok(circuit),
            Pending::Canonical(source) => {
                build_canonical(source, work.spec.convert, &shared.lib).map(Arc::new)
            }
        };
        let executed = circuit.and_then(|circuit| {
            let cfg = work.spec.key_config(circuit.clock);
            let _exec = retime_trace::span("execute");
            execute(&cfg, &circuit, &shared.lib).map_err(|e| e.to_string())
        });
        drop(job_span);
        let state = match executed {
            Ok(output) => {
                shared.cache.store(&work.key, &output);
                shared
                    .metrics
                    .observe_job(flow, &output.phases, started.elapsed());
                shared
                    .metrics
                    .inc("retime_serve_jobs_completed_total", &label, 1);
                if work.spec.verify {
                    shared
                        .metrics
                        .inc("retime_serve_verified_jobs_total", "", 1);
                }
                JobState::Done {
                    payload: Arc::new(CachedResult {
                        payload: output.payload,
                        payload_sha256: output.payload_sha256,
                    }),
                    solver_invocations: output.solver_invocations,
                }
            }
            Err(e) => {
                shared
                    .metrics
                    .inc("retime_serve_jobs_failed_total", &label, 1);
                JobState::Failed { error: e }
            }
        };
        // Publish, then wake every parked `result --wait`: the waiter
        // list is taken under the same lock that set the state, so a
        // dispatcher either sees the final state or is on the list.
        let waiters = {
            let mut jobs = shared.jobs.lock().expect("jobs lock");
            if let Some(record) = jobs.records.get_mut(&id) {
                record.state = state;
            }
            jobs.waiters.remove(&id).unwrap_or_default()
        };
        let posts = shared.posts();
        for (reactor, conn) in waiters {
            if let Some(post) = posts.get(reactor) {
                post.inject(ReactorMsg::JobDone { conn, id });
            }
        }
    }
}

impl Service for Shared {
    fn handle_line(&self, reactor: usize, conn: u64, line: &str) -> LineReply {
        dispatch(self, reactor, conn, line)
    }

    fn render_done(&self, id: u64) -> String {
        let jobs = self.jobs.lock().expect("jobs lock");
        render_result(&jobs, id).render()
    }

    fn on_connect(&self) {
        self.open_connections.fetch_add(1, Ordering::Relaxed);
    }

    fn on_disconnect(&self, reactor: usize, conn: u64) {
        self.open_connections.fetch_sub(1, Ordering::Relaxed);
        // Unpark nothing: just forget any waits this connection held.
        let mut jobs = self.jobs.lock().expect("jobs lock");
        jobs.waiters.retain(|_, list| {
            list.retain(|&(r, c)| !(r == reactor && c == conn));
            !list.is_empty()
        });
    }

    fn on_write_overflow(&self) {
        self.metrics
            .inc("retime_serve_slow_client_disconnects_total", "", 1);
    }
}

fn error_reply(msg: &str) -> Json {
    obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(msg.to_string())),
    ])
}

/// Parses one request line and routes it to the command handler. The
/// JSON parse, and a submission's [`JobSpec`], run under a `request`
/// span that names the command.
fn dispatch(shared: &Shared, reactor: usize, conn: u64, line: &str) -> LineReply {
    let request = retime_trace::span("request");
    let v = match parse(line) {
        Ok(v) => v,
        Err(e) => return LineReply::Now(error_reply(&format!("bad request: {e}")).render()),
    };
    let cmd = v.get("cmd").and_then(Json::as_str);
    retime_trace::attr_str("cmd", cmd.unwrap_or_default());
    if cmd == Some("submit") {
        let spec = JobSpec::from_owned_json(v);
        drop(request);
        return LineReply::Now(handle_submit(shared, spec).render());
    }
    drop(request);
    let reply = match cmd {
        Some("status") => handle_status(shared, &v),
        Some("result") => return handle_result(shared, reactor, conn, &v),
        Some("metrics") => handle_metrics(shared),
        Some("pause") => {
            shared.queue.pause();
            obj(vec![("ok", Json::Bool(true)), ("paused", Json::Bool(true))])
        }
        Some("resume") => {
            shared.queue.resume();
            obj(vec![
                ("ok", Json::Bool(true)),
                ("paused", Json::Bool(false)),
            ])
        }
        Some("shutdown") => {
            begin_shutdown(shared);
            obj(vec![
                ("ok", Json::Bool(true)),
                ("draining", Json::Bool(true)),
            ])
        }
        Some(other) => error_reply(&format!(
            "unknown cmd {other:?} (submit | status | result | metrics | pause | resume | shutdown)"
        )),
        None => error_reply("missing `cmd`"),
    };
    LineReply::Now(reply.render())
}

/// Builds a suite submission once per `(name, convert)` and shares the
/// build: a suite's calibrated clock is key material, so its key needs
/// the build. The converted two-phase build never aliases the
/// edge-triggered one.
fn suite_shared(
    shared: &Shared,
    name: &str,
    convert: bool,
) -> Result<Arc<ResolvedCircuit>, String> {
    let store_key = (name.to_string(), convert);
    if let Some(hit) = shared
        .suite_store
        .lock()
        .expect("suite lock")
        .get(&store_key)
    {
        return Ok(Arc::clone(hit));
    }
    let built = Arc::new(build_suite(name, convert, &shared.lib)?);
    Ok(Arc::clone(
        shared
            .suite_store
            .lock()
            .expect("suite lock")
            .entry(store_key)
            .or_insert(built),
    ))
}

/// A submission after its key step.
enum Keyed<'a> {
    /// A suite build, ready to run.
    Built(Arc<ResolvedCircuit>),
    /// Inline text read as far as its key; built on a miss. Remembered
    /// under `digest` once it has built or its key has hit.
    Read {
        source: InlineSource<'a>,
        digest: String,
    },
    /// Inline text the memo knew: its canonical text, parsed on a miss.
    Remembered { name: &'a str, canonical: Arc<str> },
}

/// Key step, then the cache lookup, then — on a miss only — the inline
/// netlist in canonical order ([`canonical_netlist`]), the last step
/// that borrows the request text; the worker that takes the job builds
/// the rest and runs the flow. An inline key step first looks the raw
/// bytes up in the text memo (`digest` span; `memo` attribute on the
/// `submit` span): a remembered text is keyed from its canonical text
/// without a read, and parsed from it on a miss. Read errors (the key
/// step's parse and the canonical build) come back from `submit`;
/// extraction, clock and conversion errors come back as a `failed` job
/// with the same text.
fn handle_submit(shared: &Shared, spec: Result<JobSpec, String>) -> Json {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return error_reply("shutting_down");
    }
    let mut spec = match spec {
        Ok(spec) => spec,
        Err(e) => return error_reply(&e),
    };
    let flow = spec.flow_name();
    let label = format!("flow=\"{flow}\"");
    shared
        .metrics
        .inc("retime_serve_submissions_total", &label, 1);
    if spec.convert {
        shared
            .metrics
            .inc("retime_serve_convert_submissions_total", "", 1);
    }

    let _submit = retime_trace::span("submit");
    retime_trace::attr_str(
        "circuit",
        match &spec.circuit {
            CircuitRef::Suite(name) | CircuitRef::Inline { name, .. } => name,
        },
    );
    let keyed = match &spec.circuit {
        CircuitRef::Suite(name) => suite_shared(shared, name, spec.convert).map(|circuit| {
            let _key = retime_trace::span("key");
            (
                prepare(&spec, &circuit, &shared.lib).key,
                Keyed::Built(circuit),
            )
        }),
        CircuitRef::Inline { name, text } => {
            let digest = TextMemo::digest(spec.format, text);
            let remembered = shared.texts.get(&digest);
            let (memo, counter) = match remembered {
                Some(_) => ("hit", "retime_serve_text_memo_hits_total"),
                None => ("miss", "retime_serve_text_memo_misses_total"),
            };
            retime_trace::attr_str("memo", memo);
            shared.metrics.inc(counter, "", 1);
            match remembered {
                Some(canonical) => Ok((
                    canonical_key(&spec, &canonical, &shared.lib),
                    Keyed::Remembered { name, canonical },
                )),
                None => read_inline(name, text, spec.format).map(|source| {
                    (
                        inline_key(&spec, &source, &shared.lib),
                        Keyed::Read { source, digest },
                    )
                }),
            }
        }
    };
    let (key, keyed) = match keyed {
        Ok(keyed) => keyed,
        Err(e) => return error_reply(&e),
    };

    if let Some(hit) = shared.cache.lookup(&key) {
        if let Keyed::Read { source, digest } = &keyed {
            shared.texts.insert(digest, &source.canonical);
        }
        shared.metrics.inc("retime_serve_cache_hits_total", "", 1);
        let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
        shared.jobs.lock().expect("jobs lock").records.insert(
            id,
            JobRecord {
                cached: true,
                key: key.clone(),
                state: JobState::Done {
                    payload: hit,
                    solver_invocations: 0,
                },
            },
        );
        return obj(vec![
            ("ok", Json::Bool(true)),
            ("id", Json::Num(id as f64)),
            ("status", Json::Str("done".to_string())),
            ("cached", Json::Bool(true)),
            ("key", Json::Str(key)),
        ]);
    }
    shared.metrics.inc("retime_serve_cache_misses_total", "", 1);

    let circuit = match keyed {
        Keyed::Built(circuit) => Pending::Built(circuit),
        Keyed::Read { source, digest } => match canonical_netlist(source) {
            Ok(source) => {
                shared.texts.insert(&digest, &source.canonical);
                Pending::Canonical(source)
            }
            Err(e) => return error_reply(&e),
        },
        Keyed::Remembered { name, canonical } => {
            match canonical_netlist(InlineSource::remembered(name, canonical.to_string())) {
                Ok(source) => Pending::Canonical(source),
                Err(e) => return error_reply(&e),
            }
        }
    };
    // The worker needs the options, not the submitted text.
    if let CircuitRef::Inline { text, .. } = &mut spec.circuit {
        *text = String::new();
    }
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    let retry_after_ms = shared
        .metrics
        .retry_after_ms(shared.queue.depth(), shared.workers);
    shared.jobs.lock().expect("jobs lock").records.insert(
        id,
        JobRecord {
            cached: false,
            key: key.clone(),
            state: JobState::Queued(Box::new(QueuedWork {
                spec,
                circuit,
                key: key.clone(),
                enqueued_us: retime_trace::now_us(),
            })),
        },
    );
    match shared.queue.push(id, retry_after_ms) {
        Ok(()) => obj(vec![
            ("ok", Json::Bool(true)),
            ("id", Json::Num(id as f64)),
            ("status", Json::Str("queued".to_string())),
            ("cached", Json::Bool(false)),
            ("key", Json::Str(key)),
        ]),
        Err(err) => {
            shared.jobs.lock().expect("jobs lock").records.remove(&id);
            match err {
                PushError::Overloaded { retry_after_ms } => {
                    shared
                        .metrics
                        .inc("retime_serve_rejected_overload_total", "", 1);
                    obj(vec![
                        ("ok", Json::Bool(false)),
                        ("error", Json::Str("overloaded".to_string())),
                        ("retry_after_ms", Json::Num(retry_after_ms as f64)),
                        ("queue_bound", Json::Num(shared.queue.bound() as f64)),
                    ])
                }
                PushError::ShuttingDown => error_reply("shutting_down"),
            }
        }
    }
}

fn job_id(v: &Json) -> Result<u64, Json> {
    v.get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| error_reply("missing or non-integer `id`"))
}

fn handle_status(shared: &Shared, v: &Json) -> Json {
    let id = match job_id(v) {
        Ok(id) => id,
        Err(e) => return e,
    };
    let jobs = shared.jobs.lock().expect("jobs lock");
    match jobs.records.get(&id) {
        Some(record) => obj(vec![
            ("ok", Json::Bool(true)),
            ("id", Json::Num(id as f64)),
            ("status", Json::Str(record.status_name().to_string())),
            ("cached", Json::Bool(record.cached)),
            ("key", Json::Str(record.key.clone())),
        ]),
        None => error_reply(&format!("unknown job id {id}")),
    }
}

/// Renders the terminal `result` reply for `id` (the shared path for
/// immediate answers and deferred `JobDone` deliveries).
fn render_result(jobs: &JobTable, id: u64) -> Json {
    let Some(record) = jobs.records.get(&id) else {
        return error_reply(&format!("unknown job id {id}"));
    };
    match &record.state {
        JobState::Done {
            payload,
            solver_invocations,
        } => obj(vec![
            ("ok", Json::Bool(true)),
            ("id", Json::Num(id as f64)),
            ("status", Json::Str("done".to_string())),
            ("cached", Json::Bool(record.cached)),
            ("key", Json::Str(record.key.clone())),
            ("payload_sha256", Json::Str(payload.payload_sha256.clone())),
            ("solver_invocations", Json::Num(*solver_invocations as f64)),
            ("result", Json::Raw(payload.payload.clone())),
        ]),
        JobState::Failed { error } => obj(vec![
            ("ok", Json::Bool(false)),
            ("id", Json::Num(id as f64)),
            ("status", Json::Str("failed".to_string())),
            ("error", Json::Str(error.clone())),
        ]),
        _ => obj(vec![
            ("ok", Json::Bool(false)),
            ("id", Json::Num(id as f64)),
            ("status", Json::Str(record.status_name().to_string())),
            ("error", Json::Str("pending".to_string())),
        ]),
    }
}

fn handle_result(shared: &Shared, reactor: usize, conn: u64, v: &Json) -> LineReply {
    let id = match job_id(v) {
        Ok(id) => id,
        Err(e) => return LineReply::Now(e.render()),
    };
    let wait = matches!(v.get("wait"), Some(Json::Bool(true)));
    let mut jobs = shared.jobs.lock().expect("jobs lock");
    let pending = matches!(
        jobs.records.get(&id).map(|r| &r.state),
        Some(JobState::Queued(_) | JobState::Running)
    );
    if pending && wait {
        // Park this connection; the worker injects the reply on finish.
        jobs.waiters.entry(id).or_default().push((reactor, conn));
        return LineReply::Deferred;
    }
    LineReply::Now(render_result(&jobs, id).render())
}

fn handle_metrics(shared: &Shared) -> Json {
    let stats = shared.cache.stats();
    let recovery = shared.cache.recovery();
    let text = shared.metrics.render(&[
        ("retime_serve_queue_depth", shared.queue.depth() as f64),
        ("retime_serve_workers", shared.workers as f64),
        ("retime_serve_cache_entries", shared.cache.len() as f64),
        (
            "retime_serve_cache_disk_entries",
            shared.cache.disk_len() as f64,
        ),
        (
            "retime_serve_cache_disk_bytes",
            shared.cache.disk_bytes() as f64,
        ),
        (
            "retime_serve_cache_memory_hits_total",
            stats.memory_hits as f64,
        ),
        ("retime_serve_cache_disk_hits_total", stats.disk_hits as f64),
        (
            "retime_serve_cache_disk_hit_age_seconds_total",
            stats.disk_hit_age_secs as f64,
        ),
        (
            "retime_serve_cache_memory_evictions_total",
            stats.memory_evictions as f64,
        ),
        (
            "retime_serve_cache_disk_evictions_total",
            stats.disk_evictions as f64,
        ),
        (
            "retime_serve_cache_recovered_total",
            recovery.recovered as f64,
        ),
        (
            "retime_serve_cache_discarded_total",
            recovery.discarded as f64,
        ),
        (
            "retime_serve_cache_disk_errors_total",
            stats.disk_errors as f64,
        ),
        (
            "retime_serve_open_connections",
            shared.open_connections.load(Ordering::Relaxed) as f64,
        ),
        ("retime_serve_reactors", shared.posts().len() as f64),
        ("retime_serve_text_memo_bytes", shared.texts.bytes() as f64),
    ]);
    obj(vec![("ok", Json::Bool(true)), ("metrics", Json::Str(text))])
}
