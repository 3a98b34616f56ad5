//! The daemon's text memo changes where a submission's canonical text
//! comes from, never what the submission gets back:
//!
//! * (a) every suite circuit in four statement orders, under base, vl
//!   and grar at two overheads, submitted to one daemon, gets the key
//!   and payload digest of a fresh daemon that never saw the text, and
//!   of an in-process `resolve_spec → prepare → execute`;
//! * (b) a text that fails to read or to build its canonical netlist
//!   gets the identical `submit` error every time and is never
//!   remembered;
//! * (c) the same bytes under two names key apart, each as a fresh
//!   daemon keys it;
//! * (d) the reactors share one memo: a text read on one connection is
//!   remembered on another connection's reactor;
//!
//! and the memo key covers every byte of the text.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use retime_liberty::{EdlOverhead, Library};
use retime_netlist::bench;
use retime_serve::job::{execute, prepare, resolve_spec, CircuitRef, InputFormat, JobSpec};
use retime_serve::json::{obj, Json};
use retime_serve::{Client, Server, ServerConfig, ServerHandle};
use retime_sta::DelayModel;
use retime_verify::FlowKind;

/// A daemon with `workers` workers and the default two reactors.
fn spawn(workers: usize) -> (ServerHandle, String) {
    let handle = Server::spawn(ServerConfig {
        workers,
        queue_bound: 64,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn stop(handle: ServerHandle, mut client: Client) {
    client.shutdown().expect("shutdown");
    handle.wait();
}

/// What a finished submission answered.
#[derive(Debug, Clone, PartialEq)]
struct Answer {
    key: String,
    payload_sha256: String,
    cached: bool,
}

/// Submits inline `.bench` `text` and waits for its result.
fn submit(client: &mut Client, name: &str, text: &str, flow: &str, c: &str) -> Answer {
    let reply = client
        .request(&obj(vec![
            ("cmd", Json::Str("submit".to_string())),
            ("netlist", Json::Str(text.to_string())),
            ("name", Json::Str(name.to_string())),
            ("flow", Json::Str(flow.to_string())),
            ("c", Json::Str(c.to_string())),
        ]))
        .expect("submit round trip");
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "{name} {flow} {c}: {}",
        reply.render()
    );
    let id = reply.get("id").and_then(Json::as_u64).expect("job id");
    let done = client.wait_result(id).expect("result round trip");
    assert_eq!(
        done.get("status").and_then(Json::as_str),
        Some("done"),
        "{name} {flow} {c}: {}",
        done.render()
    );
    let text = |field: &str| {
        done.get(field)
            .and_then(Json::as_str)
            .expect("string field")
            .to_string()
    };
    Answer {
        key: text("key"),
        payload_sha256: text("payload_sha256"),
        cached: reply.get("cached") == Some(&Json::Bool(true)),
    }
}

/// The `submit` error inline `text` gets.
fn refused(client: &mut Client, text: &str) -> String {
    let reply = client
        .request(&obj(vec![
            ("cmd", Json::Str("submit".to_string())),
            ("netlist", Json::Str(text.to_string())),
        ]))
        .expect("submit round trip");
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(false)),
        "{}",
        reply.render()
    );
    reply
        .get("error")
        .and_then(Json::as_str)
        .expect("error text")
        .to_string()
}

/// The memo's `(hits, misses, resident bytes)` from `/metrics`.
fn memo_metrics(client: &mut Client) -> (u64, u64, u64) {
    let text = client.metrics_text().expect("metrics");
    let read = |family: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(family)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("{family} missing from:\n{text}"))
            .parse()
            .expect("integer value")
    };
    (
        read("retime_serve_text_memo_hits_total"),
        read("retime_serve_text_memo_misses_total"),
        read("retime_serve_text_memo_bytes"),
    )
}

/// The statements of `text` in four orders: as written, reversed, and
/// two seeded shuffles.
fn four_orders(text: &str, seed: u64) -> Vec<String> {
    let lines: Vec<&str> = text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .collect();
    let join = |lines: &[&str]| lines.iter().map(|l| format!("{l}\n")).collect::<String>();
    let mut reversed = lines.clone();
    reversed.reverse();
    let mut orders = vec![text.to_string(), join(&reversed)];
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..2 {
        let mut shuffled = lines.clone();
        shuffled.shuffle(&mut rng);
        orders.push(join(&shuffled));
    }
    orders
}

/// The in-process answer: `resolve_spec → prepare → execute`, which
/// never goes through a daemon or its memo.
fn in_process(name: &str, text: &str, flow: FlowKind, c: EdlOverhead, lib: &Library) -> Answer {
    let spec = JobSpec {
        circuit: CircuitRef::Inline {
            name: name.to_string(),
            text: text.to_string(),
        },
        flow,
        overhead: c,
        model: DelayModel::PathBased,
        clock: None,
        verify: false,
        format: InputFormat::Bench,
        convert: false,
    };
    let resolved = resolve_spec(&spec, lib).expect("resolves");
    let prepared = prepare(&spec, &resolved, lib);
    let output = execute(&prepared.key_config, &resolved, lib).expect("executes");
    Answer {
        key: prepared.key,
        payload_sha256: output.payload_sha256,
        cached: false,
    }
}

/// (a) One daemon sees every suite circuit in four orders under six
/// configurations; only the first sight of each text is read. Each
/// configuration's fresh daemon sees each circuit once, in one of the
/// four orders, so every one of its submissions is a first sight.
#[test]
fn remembered_texts_answer_as_fresh_reads_do() {
    const CONFIGS: [(&str, FlowKind, &str, EdlOverhead); 6] = [
        ("base", FlowKind::Base, "low", EdlOverhead::LOW),
        ("base", FlowKind::Base, "high", EdlOverhead::HIGH),
        ("vl", FlowKind::Vl, "low", EdlOverhead::LOW),
        ("vl", FlowKind::Vl, "high", EdlOverhead::HIGH),
        ("grar", FlowKind::Grar, "low", EdlOverhead::LOW),
        ("grar", FlowKind::Grar, "high", EdlOverhead::HIGH),
    ];
    let lib = Library::fdsoi28();
    let (handle, addr) = spawn(2);
    let mut client = Client::connect(&addr).expect("connect");
    let mut fresh: Vec<(ServerHandle, Client)> = CONFIGS
        .iter()
        .map(|_| {
            let (handle, addr) = spawn(1);
            (handle, Client::connect(&addr).expect("connect"))
        })
        .collect();
    let suite = retime_circuits::paper_suite();
    let mut texts = 0;
    let mut canonical_bytes = 0;
    for (k, spec) in suite.iter().enumerate() {
        let text = bench::write(&spec.build().expect("builds").netlist);
        canonical_bytes += bench::canonical(&bench::parse(spec.name, &text).expect("parses")).len();
        let orders = four_orders(&text, k as u64);
        let mut first: HashMap<usize, Answer> = HashMap::new();
        for (i, src) in orders.iter().enumerate() {
            texts += 1;
            for (j, &(flow, _, c, _)) in CONFIGS.iter().enumerate() {
                let got = submit(&mut client, spec.name, src, flow, c);
                let what = format!("{} order {i} {flow} {c}", spec.name);
                match first.get(&j) {
                    None => {
                        assert!(!got.cached, "{what}: the first sight runs");
                        first.insert(j, got);
                    }
                    Some(seen) => {
                        assert!(got.cached, "{what}: a re-ordered text hits");
                        assert_eq!(got.key, seen.key, "{what}");
                        assert_eq!(got.payload_sha256, seen.payload_sha256, "{what}");
                    }
                }
            }
        }
        for (j, &(flow, kind, c, overhead)) in CONFIGS.iter().enumerate() {
            let what = format!("{} {flow} {c}", spec.name);
            let daemon = &first[&j];
            let src = &orders[j % orders.len()];
            let fresh_answer = submit(&mut fresh[j].1, spec.name, src, flow, c);
            assert!(!fresh_answer.cached, "{what}: the fresh daemon runs");
            assert_eq!(fresh_answer.key, daemon.key, "{what}: fresh daemon key");
            assert_eq!(
                fresh_answer.payload_sha256, daemon.payload_sha256,
                "{what}: fresh daemon payload"
            );
            let reference = in_process(spec.name, src, kind, overhead, &lib);
            assert_eq!(reference.key, daemon.key, "{what}: in-process key");
            assert_eq!(
                reference.payload_sha256, daemon.payload_sha256,
                "{what}: in-process payload"
            );
        }
    }
    // Every text was read once; every other submission was remembered.
    // A circuit's four orders share one canonical text.
    let submissions = (texts * CONFIGS.len()) as u64;
    let (hits, misses, bytes) = memo_metrics(&mut client);
    assert_eq!((hits, misses), (submissions - texts as u64, texts as u64));
    assert_eq!(bytes, canonical_bytes as u64);
    for (handle, mut fresh_client) in fresh.drain(..) {
        let (hits, misses, _) = memo_metrics(&mut fresh_client);
        assert_eq!((hits, misses), (0, suite.len() as u64));
        stop(handle, fresh_client);
    }
    stop(handle, client);
}

/// (b) A text that reads but whose canonical netlist fails to build (an
/// output's `__poN` marker is taken in canonical order only), and one
/// that fails to read, get the same `submit` error on every submission:
/// neither is remembered, so each is read again every time.
#[test]
fn a_text_that_fails_is_never_remembered() {
    // Statement order names the outputs b__po0 and a__po1; canonical
    // order names `a`'s output a__po0, which a gate already is.
    let clash = "INPUT(a)\nINPUT(b)\nOUTPUT(b)\nOUTPUT(a)\na__po0 = NOT(a)\n";
    let (handle, addr) = spawn(1);
    let mut client = Client::connect(&addr).expect("connect");
    for (text, want) in [
        (
            clash,
            "canonical re-parse error: duplicate cell name `a__po0`",
        ),
        (
            "",
            "netlist parse error: no INPUT, OUTPUT or gate statement",
        ),
    ] {
        for attempt in 0..3 {
            assert_eq!(refused(&mut client, text), want, "attempt {attempt}");
        }
    }
    assert_eq!(memo_metrics(&mut client), (0, 6, 0));
    stop(handle, client);
}

/// A small flip-flop circuit, quick to run under every flow.
const SMALL: &str =
    "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nq = DFF(g)\ng = AND(a, q)\nh = NOR(g, b)\nz = NOT(h)\n";

/// (c) The memo key leaves the name out and the cache key keeps it in:
/// the second name's submission is remembered, keys apart from the
/// first, and keys as a fresh daemon keys it.
#[test]
fn one_text_under_two_names_keys_apart() {
    let (handle, addr) = spawn(1);
    let mut client = Client::connect(&addr).expect("connect");
    let first = submit(&mut client, "first", SMALL, "grar", "medium");
    let second = submit(&mut client, "second", SMALL, "grar", "medium");
    assert_eq!(
        memo_metrics(&mut client).0,
        1,
        "the second name is remembered"
    );
    assert_ne!(first.key, second.key);
    assert!(!second.cached, "another name is another job");
    for (name, daemon) in [("first", &first), ("second", &second)] {
        let (fresh_handle, fresh_addr) = spawn(1);
        let mut fresh = Client::connect(&fresh_addr).expect("connect");
        assert_eq!(
            &submit(&mut fresh, name, SMALL, "grar", "medium"),
            daemon,
            "{name}"
        );
        stop(fresh_handle, fresh);
    }
    stop(handle, client);
}

/// The memo key covers every byte: two circuits whose texts differ only
/// in their last statement, after 10 KiB of shared inputs, are read
/// apart and key as the in-process path keys them.
#[test]
fn texts_that_differ_only_at_the_end_are_remembered_apart() {
    let lib = Library::fdsoi28();
    let inputs: String = (0..1000).map(|i| format!("INPUT(i{i})\n")).collect();
    let head = format!("{inputs}OUTPUT(z)\ng = AND(i0, i999)\nq = DFF(g)\n");
    let (handle, addr) = spawn(1);
    let mut client = Client::connect(&addr).expect("connect");
    for tail in ["z = NOT(q)\n", "z = BUFF(q)\n"] {
        let text = format!("{head}{tail}");
        let got = submit(&mut client, "tail", &text, "base", "medium");
        let want = in_process("tail", &text, FlowKind::Base, EdlOverhead::MEDIUM, &lib);
        assert_eq!(got.key, want.key, "{tail}");
        assert_eq!(got.payload_sha256, want.payload_sha256, "{tail}");
    }
    assert_eq!(memo_metrics(&mut client).1, 2, "both texts were read");
    stop(handle, client);
}

/// (d) Under the default two reactors, connections are dealt to the
/// reactors in turn, so two connections opened one after the other sit
/// on different reactors; the second one's submission of the first's
/// text is remembered.
#[test]
fn the_reactors_share_one_memo() {
    let (handle, addr) = spawn(1);
    let mut one = Client::connect(&addr).expect("connect");
    let mut two = Client::connect(&addr).expect("connect");
    assert!(one
        .metrics_text()
        .expect("metrics")
        .contains("\nretime_serve_reactors 2\n"));
    let base = submit(&mut one, "shared", SMALL, "base", "medium");
    let grar = submit(&mut two, "shared", SMALL, "grar", "medium");
    assert!(!base.cached && !grar.cached);
    let (hits, misses, bytes) = memo_metrics(&mut two);
    assert_eq!((hits, misses), (1, 1));
    let canonical = bench::canonical(&bench::parse("shared", SMALL).expect("parses"));
    assert_eq!(bytes, canonical.len() as u64);
    drop(two);
    stop(handle, one);
}
