//! Hostile-input battery through the daemon's submit path: every
//! malformed or awkward inline netlist, in `.bench` and in EDIF, with
//! `convert` off and on, goes through a real `submit` (key step, cache
//! lookup, canonical build), then a worker (extraction, clock,
//! conversion) and `execute`. The table pins where each one stops — a
//! rejected `submit` or a `failed` job — and the exact text the client
//! is shown, so a rewrite of the reader, the netlist sorts or the cloud
//! extraction must keep every outcome byte for byte. The daemon must
//! then still serve a good job.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retime_convert::edif;
use retime_netlist::{bench, CellId, Gate, Netlist};
use retime_serve::json::{obj, Json};
use retime_serve::{Client, Server, ServerConfig};

/// A netlist from cells given in order as `(net, gate, fan-in nets)`,
/// fan-ins by name (forward references and loops allowed), and the nets
/// it outputs. Builds structures the `.bench` reader would refuse, so
/// each format's own reader is the one to diagnose them.
fn make_netlist(name: &str, cells: &[(&str, Gate, &[&str])], outputs: &[&str]) -> Netlist {
    let mut n = Netlist::new(name);
    let mut ids: HashMap<&str, CellId> = HashMap::new();
    for &(net, gate, fanin) in cells {
        let id = if gate == Gate::Input {
            n.add_input(net)
        } else {
            n.add_gate(net, gate, &vec![CellId(0); fanin.len()])
                .expect("fixture cell")
        };
        assert!(ids.insert(net, id).is_none(), "fixture net `{net}` twice");
    }
    for &(net, gate, fanin) in cells {
        if gate != Gate::Input {
            n.replace_fanin(ids[net], fanin.iter().map(|f| ids[f]).collect());
        }
    }
    for (k, &net) in outputs.iter().enumerate() {
        n.add_output(format!("{net}__po{k}"), ids[net])
            .expect("fixture output");
    }
    n
}

/// A small valid flip-flop circuit: the base of the text mutations.
fn small() -> Netlist {
    make_netlist(
        "small",
        &[
            ("a", Gate::Input, &[]),
            ("b", Gate::Input, &[]),
            ("q", Gate::Dff, &["g"]),
            ("g", Gate::And, &["a", "q"]),
            ("h", Gate::Nor, &["g", "b"]),
            ("z", Gate::Not, &["h"]),
        ],
        &["z"],
    )
}

/// `g1` and `g2` feed each other with no register between them.
fn comb_loop() -> Netlist {
    make_netlist(
        "loop",
        &[
            ("a", Gate::Input, &[]),
            ("q", Gate::Dff, &["g2"]),
            ("g1", Gate::And, &["a", "g2"]),
            ("g2", Gate::Not, &["g1"]),
        ],
        &["q"],
    )
}

/// A slave latch read straight off a primary input.
fn orphan_slave() -> Netlist {
    make_netlist(
        "orphan",
        &[
            ("a", Gate::Input, &[]),
            ("s", Gate::LatchSlave, &["a"]),
            ("z", Gate::Not, &["s"]),
        ],
        &["z"],
    )
}

/// One AND gate over 5000 primary inputs, registered.
fn wide() -> Netlist {
    let inputs: Vec<String> = (0..5000).map(|i| format!("i{i}")).collect();
    let names: Vec<&str> = inputs.iter().map(String::as_str).collect();
    let mut cells: Vec<(&str, Gate, &[&str])> =
        names.iter().map(|&i| (i, Gate::Input, &[][..])).collect();
    cells.push(("g", Gate::And, &names));
    cells.push(("q", Gate::Dff, &["g"]));
    make_netlist("wide", &cells, &["q"])
}

/// Seeded printable soup weighted toward the characters both readers
/// treat as structure.
fn soup(seed: u64, len: usize) -> String {
    const POOL: &[char] = &[
        '(', '(', ')', ')', '=', ',', '#', '"', ' ', '\n', '\t', 'a', 'Z', '0', '9', '_', '.', 'é',
        'φ',
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| POOL[rng.random_range(0..POOL.len())])
        .collect()
}

/// `text` cut in half, on a character boundary.
fn truncated(text: &str) -> String {
    let mut cut = text.len() / 2;
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    text[..cut].to_string()
}

/// The battery's submissions, one format: `(case, inline text)`.
fn cases(format: &str) -> Vec<(&'static str, String)> {
    let write = |n: &Netlist| match format {
        "bench" => bench::write(n),
        _ => edif::write(n),
    };
    let small_text = write(&small());
    let (undriven, twice) = match format {
        // `h` loses its statement; `g` gets a second one.
        "bench" => (
            small_text.replace("h = NOR(g, b)\n", ""),
            small_text.replace("z = NOT(h)\n", "z = NOT(h)\ng = OR(a, b)\n"),
        ),
        // `h`'s net loses its driver pin; `g`'s net gains `z`'s.
        _ => (
            small_text.replace(
                "(net h (joined (portRef Y (instanceRef h)) ",
                "(net h (joined ",
            ),
            small_text.replace(
                "(net g (joined (portRef Y (instanceRef g))",
                "(net g (joined (portRef Y (instanceRef g)) (portRef Y (instanceRef z))",
            ),
        ),
    };
    assert_ne!(undriven, small_text, "{format}: the undriven edit applies");
    assert_ne!(
        twice, small_text,
        "{format}: the second-driver edit applies"
    );
    vec![
        ("empty", String::new()),
        ("byte soup", soup(7, 300)),
        ("truncated", truncated(&small_text)),
        ("combinational loop", write(&comb_loop())),
        ("undriven net", undriven),
        ("multiply driven net", twice),
        ("slave not fed by a master", write(&orphan_slave())),
        ("5000-input fan-in", write(&wide())),
        (
            "master/slave latches",
            write(&small().to_master_slave().expect("splits")),
        ),
        ("valid", small_text),
    ]
}

/// Where a submission stopped: `submit: <error>` for a rejected submit,
/// `failed: <error>` for a failed job, `done` for a finished one.
fn outcome(client: &mut Client, format: &str, convert: bool, text: &str) -> String {
    let reply = client
        .request(&obj(vec![
            ("cmd", Json::Str("submit".to_string())),
            ("netlist", Json::Str(text.to_string())),
            ("name", Json::Str("hostile".to_string())),
            ("format", Json::Str(format.to_string())),
            ("convert", Json::Bool(convert)),
        ]))
        .expect("submit round trip");
    if reply.get("ok") != Some(&Json::Bool(true)) {
        let error = reply.get("error").and_then(Json::as_str).unwrap_or("?");
        return format!("submit: {error}");
    }
    let id = reply.get("id").and_then(Json::as_u64).expect("job id");
    let result = client.wait_result(id).expect("result round trip");
    match result.get("status").and_then(Json::as_str) {
        Some("done") => "done".to_string(),
        Some("failed") => format!(
            "failed: {}",
            result.get("error").and_then(Json::as_str).unwrap_or("?")
        ),
        other => panic!("unexpected job status {other:?}: {}", result.render()),
    }
}

/// Every submission's pinned outcome, as `format convert case: outcome`.
const EXPECTED: &[&str] = &[
    "bench convert=false empty: submit: netlist parse error: no INPUT, OUTPUT or gate statement",
    "bench convert=true empty: submit: netlist parse error: no INPUT, OUTPUT or gate statement",
    "bench convert=false byte soup: submit: netlist parse error: parse error at line 2: unrecognized statement",
    "bench convert=true byte soup: submit: netlist parse error: parse error at line 2: unrecognized statement",
    "bench convert=false truncated: submit: netlist parse error: parse error at line 5: missing `(` in gate",
    "bench convert=true truncated: submit: netlist parse error: parse error at line 5: missing `(` in gate",
    "bench convert=false combinational loop: submit: netlist parse error: combinational cycle through cell `q`",
    "bench convert=true combinational loop: submit: netlist parse error: combinational cycle through cell `q`",
    "bench convert=false undriven net: submit: netlist parse error: unknown cell or net name `h`",
    "bench convert=true undriven net: submit: netlist parse error: unknown cell or net name `h`",
    "bench convert=false multiply driven net: submit: netlist parse error: parse error at line 9: net `g` defined twice",
    "bench convert=true multiply driven net: submit: netlist parse error: parse error at line 9: net `g` defined twice",
    "bench convert=false slave not fed by a master: failed: cloud extraction: inconsistent netlist: slave `s` is fed by non-master `a`",
    "bench convert=true slave not fed by a master: failed: cloud extraction: inconsistent netlist: slave `s` is fed by non-master `a`",
    "bench convert=false 5000-input fan-in: done",
    "bench convert=true 5000-input fan-in: done",
    "bench convert=false master/slave latches: done",
    "bench convert=true master/slave latches: failed: conversion failed: conversion error: source is not an edge-triggered FF netlist: wrong sequential style: netlist already contains latches",
    "bench convert=false valid: done",
    "bench convert=true valid: done",
    "edif convert=false empty: submit: EDIF parse error: missing EDIF section `edif`",
    "edif convert=true empty: submit: EDIF parse error: missing EDIF section `edif`",
    "edif convert=false byte soup: submit: EDIF parse error: syntax error at 2:4: unterminated string literal",
    "edif convert=true byte soup: submit: EDIF parse error: syntax error at 2:4: unterminated string literal",
    "edif convert=false truncated: submit: EDIF parse error: truncated input at line 35: 3 unclosed `(`",
    "edif convert=true truncated: submit: EDIF parse error: truncated input at line 35: 3 unclosed `(`",
    "edif convert=false combinational loop: submit: EDIF parse error: netlist error: combinational cycle through cell `q`",
    "edif convert=true combinational loop: submit: EDIF parse error: netlist error: combinational cycle through cell `q`",
    "edif convert=false undriven net: submit: EDIF parse error: net `h` has no driver",
    "edif convert=true undriven net: submit: EDIF parse error: net `h` has no driver",
    "edif convert=false multiply driven net: submit: EDIF parse error: net `g` has multiple drivers",
    "edif convert=true multiply driven net: submit: EDIF parse error: net `g` has multiple drivers",
    "edif convert=false slave not fed by a master: failed: cloud extraction: inconsistent netlist: slave `s` is fed by non-master `a`",
    "edif convert=true slave not fed by a master: failed: cloud extraction: inconsistent netlist: slave `s` is fed by non-master `a`",
    "edif convert=false 5000-input fan-in: done",
    "edif convert=true 5000-input fan-in: done",
    "edif convert=false master/slave latches: done",
    "edif convert=true master/slave latches: failed: conversion failed: conversion error: source is not an edge-triggered FF netlist: wrong sequential style: netlist already contains latches",
    "edif convert=false valid: done",
    "edif convert=true valid: done",
];

#[test]
fn hostile_inline_netlists_stop_where_and_as_pinned() {
    let handle = Server::spawn(ServerConfig {
        workers: 1,
        queue_bound: 8,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    let mut got = Vec::new();
    for format in ["bench", "edif"] {
        for (case, text) in cases(format) {
            for convert in [false, true] {
                let seen = outcome(&mut client, format, convert, &text);
                got.push(format!("{format} convert={convert} {case}: {seen}"));
            }
        }
    }
    let want: Vec<String> = EXPECTED.iter().map(|s| s.to_string()).collect();
    assert!(
        got == want,
        "outcomes drifted; got:\n{}",
        got.iter()
            .map(|s| format!("    {s:?},"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    client.shutdown().expect("shutdown");
    handle.wait();
}
