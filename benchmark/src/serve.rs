//! The `serve_inline` workload: an in-process `retime_serve::Server`
//! driven by closed-loop clients submitting inline `.bench` text.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Instant;

use retime_circuits::paper_suite;
use retime_liberty::{EdlOverhead, Library};
use retime_netlist::{bench, CombCloud};
use retime_serve::canon::KeyConfig;
use retime_serve::json::Json;
use retime_serve::{
    execute, prepare, resolve_spec, CircuitRef, Client, InputFormat, JobSpec, Server, ServerConfig,
    ServerHandle,
};
use retime_sta::DelayModel;
use retime_trace::span;
use retime_verify::FlowKind;

use crate::batch::{job_span, PassOpts};
use crate::layers;
use crate::mix::{request_mix, shuffle_statements, Mix, Rng, KEYS, REPEATS, SMOKE_KEYS};
use crate::report::{repeat_setup, vm_hwm_mib, write_trace, JobReport, PassReport};
use crate::stats::median;

/// The circuits submitted inline.
pub const INPUTS: [&str; 4] = ["s5378", "s9234", "s13207", "s15850"];

/// Each circuit's `.bench` text in [`REPEATS`] statement orders, raw and
/// as a JSON string literal ready to splice into a request line.
struct Texts {
    raw: Vec<Vec<String>>,
    json: Vec<Vec<String>>,
}

/// Builds the inline texts — the input half of the workload's set-up.
fn build_texts(seed: u64) -> Result<(Texts, f64), String> {
    let mut rng = Rng::new(seed);
    let mut raw = Vec::new();
    let mut build_ms = 0.0;
    for name in INPUTS {
        let spec = paper_suite()
            .into_iter()
            .find(|s| s.name == name)
            .expect("suite circuit");
        let t = Instant::now();
        let circuit = spec.build().map_err(|e| format!("build {name}: {e}"))?;
        build_ms += t.elapsed().as_secs_f64() * 1e3;
        let text = bench::write(&circuit.netlist);
        raw.push(
            (0..REPEATS)
                .map(|_| shuffle_statements(&text, &mut rng))
                .collect::<Vec<_>>(),
        );
    }
    let json = raw
        .iter()
        .map(|vs| vs.iter().map(|t| Json::Str(t.clone()).render()).collect())
        .collect();
    Ok((Texts { raw, json }, build_ms))
}

/// What the daemon answered to one request.
struct Reply {
    key: usize,
    miss: bool,
    ms: f64,
    outcome: Result<Answer, String>,
}

struct Answer {
    cached: bool,
    cache_key: String,
    sha: String,
    solver_invocations: u64,
}

fn request_line(texts: &Texts, mix: &Mix, key: usize, variant: usize) -> String {
    let k = &mix.keys[key];
    format!(
        r#"{{"cmd":"submit","name":"{}","netlist":{},"flow":"{}","c":{}}}"#,
        INPUTS[k.circuit], texts.json[k.circuit][variant], k.flow, k.c
    )
}

/// Sends one submit and a waited `result`.
fn one_request(client: &mut Client, line: &str) -> Result<Answer, String> {
    let submitted = {
        let _s = span("serve.submit");
        client.request_line(line).map_err(|e| e.to_string())?
    };
    if submitted.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("submit refused: {}", submitted.render()));
    }
    let id = submitted
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("submit reply without id")?;
    let done = {
        let _s = span("serve.result");
        client.wait_result(id).map_err(|e| e.to_string())?
    };
    if done.get("status").and_then(Json::as_str) != Some("done") {
        return Err(format!("job {id} did not finish: {}", done.render()));
    }
    let text = |k: &str| {
        done.get(k)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    Ok(Answer {
        cached: submitted.get("cached").and_then(Json::as_bool) == Some(true),
        cache_key: text("key"),
        sha: text("payload_sha256"),
        solver_invocations: done
            .get("solver_invocations")
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX),
    })
}

/// One closed-loop client: its request list, one at a time, on one
/// connection.
fn client_loop(addr: SocketAddr, texts: &Texts, mix: &Mix, client: usize) -> Vec<Reply> {
    let requests = &mix.clients[client];
    let mut conn = Client::connect(&addr.to_string()).map_err(|e| format!("connect: {e}"));
    requests
        .iter()
        .enumerate()
        .map(|(n, r)| {
            let line = request_line(texts, mix, r.key, r.variant);
            let t = Instant::now();
            let outcome = match &mut conn {
                Ok(conn) => {
                    let input = INPUTS[mix.keys[r.key].circuit];
                    let _job = job_span(input, &format!("{client}.{n}"));
                    one_request(conn, &line)
                }
                Err(e) => Err(e.clone()),
            };
            Reply {
                key: r.key,
                miss: r.miss,
                ms: t.elapsed().as_secs_f64() * 1e3,
                outcome,
            }
        })
        .collect()
}

/// Protocol checks on one reply: first requests miss and run the solver,
/// repeats hit with no solver work.
fn reply_errors(r: &Reply) -> Vec<String> {
    let a = match &r.outcome {
        Ok(a) => a,
        Err(e) => return vec![e.clone()],
    };
    let mut errors = Vec::new();
    if a.cached == r.miss {
        errors.push(format!(
            "expected a cache {}, got cached={}",
            if r.miss { "miss" } else { "hit" },
            a.cached
        ));
    }
    if a.cached && a.solver_invocations != 0 {
        errors.push(format!(
            "cache hit reports {} solver invocations",
            a.solver_invocations
        ));
    }
    if !a.cached && a.solver_invocations == 0 {
        errors.push("a miss ran no solver".into());
    }
    errors
}

fn spec_of(texts: &Texts, mix: &Mix, key: usize) -> JobSpec {
    let k = &mix.keys[key];
    JobSpec {
        circuit: CircuitRef::Inline {
            name: INPUTS[k.circuit].to_string(),
            text: texts.raw[k.circuit][0].clone(),
        },
        flow: match k.flow {
            "base" => FlowKind::Base,
            "vl" => FlowKind::Vl,
            _ => FlowKind::Grar,
        },
        overhead: EdlOverhead::new(k.c),
        model: DelayModel::PathBased,
        clock: None,
        verify: false,
        format: InputFormat::Bench,
        convert: false,
    }
}

/// The untimed reference check: for every key, an in-process
/// `resolve_spec → prepare → execute` of the same spec must give the
/// daemon's cache key and payload digest; and the first key of each
/// (circuit, flow) re-runs with certification on. Errors per key.
fn check_against_reference(
    texts: &Texts,
    mix: &Mix,
    answers: &HashMap<usize, (String, String)>,
) -> Vec<(usize, String)> {
    let lib = Library::fdsoi28();
    let resolved: Vec<_> = (0..INPUTS.len())
        .map(|c| {
            let key = mix
                .keys
                .iter()
                .position(|k| k.circuit == c)
                .expect("key per circuit");
            resolve_spec(&spec_of(texts, mix, key), &lib)
        })
        .collect();
    let keys: Vec<usize> = (0..mix.keys.len()).collect();
    let results = retime_engine::parallel_map(0, &keys, |&key| -> Result<(), String> {
        let spec = spec_of(texts, mix, key);
        let circuit = resolved[mix.keys[key].circuit]
            .as_ref()
            .map_err(Clone::clone)?;
        let prepared = prepare(&spec, circuit, &lib);
        let out = execute(&prepared.key_config, circuit, &lib).map_err(|e| e.to_string())?;
        let Some((cache_key, sha)) = answers.get(&key) else {
            return Err("never answered".into());
        };
        if *cache_key != prepared.key || *sha != out.payload_sha256 {
            return Err("daemon reply differs from an in-process execute".into());
        }
        let k = &mix.keys[key];
        if mix.keys[..key]
            .iter()
            .all(|o| (o.circuit, o.flow) != (k.circuit, k.flow))
        {
            let certified = KeyConfig {
                verify: true,
                ..prepared.key_config
            };
            execute(&certified, circuit, &lib).map_err(|e| format!("certification: {e}"))?;
        }
        Ok(())
    });
    results
        .into_iter()
        .enumerate()
        .filter_map(|(key, r)| r.err().map(|e| (key, e)))
        .collect()
}

/// Times the read path the daemon runs on every submission, in process
/// on the same request lines: the request's JSON parse and `JobSpec`,
/// `resolve_spec`, `prepare` (the cache key), and inside the resolve,
/// `bench::parse` and `CombCloud::extract`. Medians per call, in ms.
fn probe_read_path(texts: &Texts, mix: &Mix) -> Vec<(&'static str, f64)> {
    let lib = Library::fdsoi28();
    let mut samples: [Vec<f64>; 5] = Default::default();
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    for (c, variants) in texts.raw.iter().enumerate() {
        let key = mix
            .keys
            .iter()
            .position(|k| k.circuit == c)
            .expect("key per circuit");
        for (variant, text) in variants.iter().enumerate() {
            let line = request_line(texts, mix, key, variant);
            let t = Instant::now();
            let Ok(spec) = retime_serve::json::parse(&line).and_then(|v| JobSpec::from_json(&v))
            else {
                continue;
            };
            samples[0].push(ms(t));
            let t = Instant::now();
            let Ok(resolved) = resolve_spec(&spec, &lib) else {
                continue;
            };
            samples[1].push(ms(t));
            let t = Instant::now();
            std::hint::black_box(prepare(&spec, &resolved, &lib));
            samples[2].push(ms(t));
            let t = Instant::now();
            let Ok(parsed) = bench::parse(INPUTS[c], text) else {
                continue;
            };
            samples[3].push(ms(t));
            let t = Instant::now();
            std::hint::black_box(CombCloud::extract(&parsed).ok());
            samples[4].push(ms(t));
        }
    }
    [
        "serve.request_parse_ms",
        "serve.resolve_ms",
        "serve.key_ms",
        "netlist.parse_ms",
        "netlist.extract_ms",
    ]
    .into_iter()
    .zip(samples.iter().map(|s| median(s)))
    .collect()
}

/// One pass: build the inline texts and start a fresh daemon (2 workers,
/// 1 reactor; cold cache and warm pool) — the set-up — then run every
/// client's request list on its own connection, drain the daemon, and
/// check the replies.
///
/// # Errors
/// Set-up failures; failed requests and checks are reported per request.
pub fn run_pass(opts: &PassOpts<'_>) -> Result<PassReport, String> {
    let mix = request_mix(
        opts.seed,
        if opts.smoke { SMOKE_KEYS } else { KEYS },
        INPUTS.len(),
    );
    let mut report = PassReport::default();
    let start = || -> Result<_, String> {
        let (texts, build_ms) = build_texts(opts.seed)?;
        let handle = Server::spawn(ServerConfig {
            workers: 2,
            reactors: 1,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("daemon start: {e}"))?;
        if let Err(e) =
            Client::connect(&handle.addr().to_string()).and_then(|mut c| c.metrics_text())
        {
            handle.shutdown();
            handle.wait();
            return Err(format!("daemon not ready: {e}"));
        }
        Ok((texts, build_ms, handle))
    };
    let stop = |(_, _, handle): (Texts, f64, ServerHandle)| {
        handle.shutdown();
        handle.wait();
    };
    let ((texts, build_ms, handle), setup_s) = repeat_setup(start, stop)?;
    report.setup_s = setup_s;
    report.build_ms = build_ms;
    let addr = handle.addr();

    retime_trace::set_enabled(opts.trace);
    let t1 = Instant::now();
    let texts_ref = &texts;
    let mix_ref = &mix;
    let replies: Vec<Reply> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..mix.clients.len())
            .map(|c| s.spawn(move || client_loop(addr, texts_ref, mix_ref, c)))
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    report.pass_s = t1.elapsed().as_secs_f64();
    handle.shutdown();
    handle.wait();
    retime_trace::set_enabled(false);
    let records = if opts.trace {
        retime_trace::take_records()
    } else {
        Vec::new()
    };
    report.rss_mib = vm_hwm_mib();

    let tc = Instant::now();
    let answers: HashMap<usize, (String, String)> = replies
        .iter()
        .filter_map(|r| {
            r.outcome
                .as_ref()
                .ok()
                .map(|a| (r.key, (a.cache_key.clone(), a.sha.clone())))
        })
        .collect();
    let reference = if opts.check {
        check_against_reference(&texts, &mix, &answers)
    } else {
        Vec::new()
    };
    report.jobs = replies
        .iter()
        .map(|r| {
            let mut errors = reply_errors(r);
            if r.miss {
                errors.extend(
                    reference
                        .iter()
                        .filter(|(k, _)| *k == r.key)
                        .map(|(_, e)| e.clone()),
                );
            }
            let (digest, hit) = match &r.outcome {
                Ok(a) => (format!("{} {}", a.cache_key, a.sha), Some(a.cached)),
                Err(_) => (String::new(), None),
            };
            JobReport {
                id: format!("key{}", r.key),
                input: INPUTS[mix.keys[r.key].circuit].to_string(),
                ms: r.ms,
                digest,
                rows: Vec::new(),
                errors,
                hit,
            }
        })
        .collect();
    report.check_s = tc.elapsed().as_secs_f64();

    if opts.trace {
        report.layers = layers::from_records(&records);
        report.layers.extend(
            probe_read_path(&texts, &mix)
                .into_iter()
                .map(|(k, v)| (k.to_string(), v)),
        );
        // The daemon records `queue_wait` as a child of the worker's `job`
        // span but starts it at the enqueue time, before the parent; it
        // stays in the numbers above and is left out of the file so that
        // each thread's spans nest.
        let nested: Vec<_> = records
            .into_iter()
            .filter(|r| r.name != "queue_wait")
            .collect();
        write_trace(opts.out, opts.workload, &nested)?;
    }
    Ok(report)
}
