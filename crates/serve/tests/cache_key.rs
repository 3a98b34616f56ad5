//! Cache-key determinism (satellite of the serve PR):
//!
//! * property: canonicalization — and therefore the cache key — is
//!   insensitive to statement order, indentation, and comments on
//!   randomly generated netlists,
//! * property: distinct overhead values never alias a key,
//! * the tiny suite × flows × overheads × verify grid produces all
//!   distinct keys,
//! * keys are identical whatever `RETIME_THREADS` says, because circuit
//!   resolution is deterministic.

use std::collections::HashSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use retime_liberty::{EdlOverhead, Library};
use retime_netlist::bench;
use retime_serve::canon::{cache_key, canonical_bench, KeyConfig};
use retime_serve::job::{
    inline_key, prepare, read_inline, resolve_circuit, resolve_spec, CircuitRef, InputFormat,
    JobSpec,
};
use retime_sta::{DelayModel, TwoPhaseClock};
use retime_verify::FlowKind;

/// A random valid `.bench` program as a list of tidy statements.
fn random_statements(gates: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs = 2 + rng.random_range(0..3usize);
    let mut signals: Vec<String> = (0..inputs).map(|i| format!("in{i}")).collect();
    let mut lines: Vec<String> = signals.iter().map(|s| format!("INPUT({s})")).collect();
    let kws = ["AND", "OR", "NAND", "NOR", "XOR"];
    for g in 0..gates {
        let a = signals[rng.random_range(0..signals.len())].clone();
        let b = signals[rng.random_range(0..signals.len())].clone();
        let kw = kws[rng.random_range(0..kws.len())];
        let name = format!("g{g}");
        lines.push(format!("{name} = {kw}({a}, {b})"));
        signals.push(name);
    }
    let last = signals.last().expect("nonempty").clone();
    lines.push(format!("q0 = DFF({last})"));
    lines.push(format!("z = OR({last}, q0)"));
    lines.push("OUTPUT(z)".to_string());
    lines
}

/// Shuffles the statements and mangles whitespace/comments without
/// changing the circuit.
fn mangle(statements: &[String], seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lines = statements.to_vec();
    lines.shuffle(&mut rng);
    let mut out = String::new();
    for line in lines {
        if rng.random_bool(0.3) {
            out.push_str("# noise comment\n");
        }
        let spaced = line
            .replace('=', if rng.random_bool(0.5) { " =  " } else { "=" })
            .replace(", ", if rng.random_bool(0.5) { " ,   " } else { "," });
        for _ in 0..rng.random_range(0..3usize) {
            out.push(' ');
        }
        out.push_str(&spaced);
        if rng.random_bool(0.3) {
            out.push_str("   # trailing");
        }
        out.push('\n');
    }
    out
}

fn fixed_config() -> KeyConfig {
    KeyConfig {
        flow: FlowKind::Grar,
        overhead: EdlOverhead::MEDIUM,
        clock: TwoPhaseClock::from_max_delay(10.0),
        model: DelayModel::PathBased,
        verify: false,
        convert: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Shuffled statements + mangled whitespace → same canonical text,
    /// same cache key.
    #[test]
    fn key_is_insensitive_to_statement_order_and_whitespace(
        gates in 1usize..14,
        seed in any::<u64>(),
        mangle_seed in any::<u64>(),
    ) {
        let statements = random_statements(gates, seed);
        let tidy = statements.join("\n") + "\n";
        let messy = mangle(&statements, mangle_seed);
        let canon_tidy = canonical_bench(&bench::parse("t", &tidy).expect("tidy parses"));
        let canon_messy = canonical_bench(&bench::parse("t", &messy).expect("messy parses"));
        prop_assert_eq!(&canon_tidy, &canon_messy);
        let lib = Library::fdsoi28();
        let cfg = fixed_config();
        prop_assert_eq!(
            cache_key(&canon_tidy, &lib, &cfg),
            cache_key(&canon_messy, &lib, &cfg)
        );
    }

    /// Different overhead bit patterns never alias on the same circuit.
    #[test]
    fn distinct_overheads_never_collide(c1 in 0.05f64..8.0, c2 in 0.05f64..8.0) {
        // No `prop_assume` in the vendored proptest: nudge an exact
        // duplicate apart instead of discarding the case.
        let c2 = if c1.to_bits() == c2.to_bits() { c2 + 0.125 } else { c2 };
        let canon = canonical_bench(
            &bench::parse("t", "INPUT(a)\nOUTPUT(z)\nq = DFF(a)\nz = OR(a, q)\n").expect("parses"),
        );
        let lib = Library::fdsoi28();
        let base = fixed_config();
        let k1 = cache_key(&canon, &lib, &KeyConfig { overhead: EdlOverhead::new(c1), ..base });
        let k2 = cache_key(&canon, &lib, &KeyConfig { overhead: EdlOverhead::new(c2), ..base });
        prop_assert_ne!(k1, k2);
    }
}

/// Tiny suite × 3 flows × 3 overheads × verify on/off: 72 configurations,
/// 72 distinct keys.
#[test]
fn tiny_suite_config_grid_has_no_collisions() {
    let lib = Library::fdsoi28();
    let mut keys = HashSet::new();
    let mut n = 0;
    for circuit in ["s1196", "s1238", "s1423", "s1488"] {
        let resolved =
            resolve_circuit(&CircuitRef::Suite(circuit.to_string()), &lib).expect("resolves");
        for flow in [FlowKind::Base, FlowKind::Grar, FlowKind::Vl] {
            for overhead in [EdlOverhead::LOW, EdlOverhead::MEDIUM, EdlOverhead::HIGH] {
                for verify in [false, true] {
                    let spec = JobSpec {
                        circuit: CircuitRef::Suite(circuit.to_string()),
                        flow,
                        overhead,
                        model: DelayModel::PathBased,
                        clock: None,
                        verify,
                        format: InputFormat::Bench,
                        convert: false,
                    };
                    let prepared = prepare(&spec, &resolved, &lib);
                    assert!(
                        keys.insert(prepared.key),
                        "collision at {circuit}/{flow:?}/{overhead:?}/verify={verify}"
                    );
                    n += 1;
                }
            }
        }
    }
    assert_eq!(n, 72);
    assert_eq!(keys.len(), 72);
}

/// Statistical delay parameters are cache-key dimensions: the mode
/// itself and every knob (yield target, sigmas, seed) separate keys.
#[test]
fn statistical_parameters_are_key_dimensions() {
    use retime_sta::StatParams;
    let canon = canonical_bench(
        &bench::parse("t", "INPUT(a)\nOUTPUT(z)\nq = DFF(a)\nz = OR(a, q)\n").expect("parses"),
    );
    let lib = Library::fdsoi28();
    let base = fixed_config();
    let configs = [
        DelayModel::PathBased,
        DelayModel::GateBased,
        DelayModel::Statistical(StatParams::DEFAULT),
        DelayModel::Statistical(StatParams::new(
            0.03,
            0.005,
            0.999,
            StatParams::DEFAULT.seed,
        )),
        DelayModel::Statistical(StatParams::new(
            0.05,
            0.005,
            0.9987,
            StatParams::DEFAULT.seed,
        )),
        DelayModel::Statistical(StatParams::new(
            0.03,
            0.01,
            0.9987,
            StatParams::DEFAULT.seed,
        )),
        DelayModel::Statistical(StatParams::new(0.03, 0.005, 0.9987, 7)),
    ];
    let keys: HashSet<String> = configs
        .iter()
        .map(|&model| cache_key(&canon, &lib, &KeyConfig { model, ..base }))
        .collect();
    assert_eq!(
        keys.len(),
        configs.len(),
        "statistical knobs must not alias"
    );
}

/// The cache key never depends on the fan-out width: resolving and
/// keying the same submission under different `RETIME_THREADS` settings
/// produces identical keys.
#[test]
fn keys_are_identical_across_thread_counts() {
    let lib = Library::fdsoi28();
    let spec = JobSpec {
        circuit: CircuitRef::Suite("s1488".to_string()),
        flow: FlowKind::Grar,
        overhead: EdlOverhead::MEDIUM,
        model: DelayModel::PathBased,
        clock: None,
        verify: false,
        format: InputFormat::Bench,
        convert: false,
    };
    let saved = std::env::var("RETIME_THREADS").ok();
    let mut keys = Vec::new();
    for threads in ["1", "4"] {
        std::env::set_var("RETIME_THREADS", threads);
        let resolved = resolve_circuit(&spec.circuit, &lib).expect("resolves");
        keys.push(prepare(&spec, &resolved, &lib).key);
    }
    match saved {
        Some(v) => std::env::set_var("RETIME_THREADS", v),
        None => std::env::remove_var("RETIME_THREADS"),
    }
    assert_eq!(keys[0], keys[1]);
}

/// A small edge-triggered circuit, fast to convert and retime.
const S27_LIKE: &str = "\
INPUT(G0)
INPUT(G1)
INPUT(G2)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G10 = NOR(G0, G14)
G11 = NOR(G5, G9)
G9 = NAND(G1, G2)
G14 = NOT(G6)
G17 = NOR(G11, G14)
";

fn inline_spec(text: &str) -> JobSpec {
    JobSpec {
        circuit: CircuitRef::Inline {
            name: "t".to_string(),
            text: text.to_string(),
        },
        flow: FlowKind::Grar,
        overhead: EdlOverhead::MEDIUM,
        model: DelayModel::PathBased,
        clock: None,
        verify: false,
        format: InputFormat::Bench,
        convert: false,
    }
}

fn key_of(spec: &JobSpec, lib: &Library) -> String {
    prepare(spec, &resolve_spec(spec, lib).expect("resolves"), lib).key
}

/// Naming a clock equal to the derived one runs the same job, yet keys
/// apart: the key names a derived clock, it never hashes its bits.
#[test]
fn explicit_clock_equal_to_the_derived_one_keys_apart() {
    let lib = Library::fdsoi28();
    let spec = inline_spec(S27_LIKE);
    let resolved = resolve_spec(&spec, &lib).expect("resolves");
    let pinned = JobSpec {
        clock: Some(resolved.clock.max_path_delay()),
        ..spec.clone()
    };
    let derived = prepare(&spec, &resolved, &lib);
    let explicit = prepare(&pinned, &resolved, &lib);
    assert_eq!(
        derived.key_config.clock.max_path_delay().to_bits(),
        explicit.key_config.clock.max_path_delay().to_bits()
    );
    assert_ne!(derived.key, explicit.key);
}

/// A suite circuit and an inline submission of its canonical text run
/// on different netlists (the generator's, and a re-parse), so they key
/// apart, with the suite's clock or with the same explicit clock.
#[test]
fn suite_circuit_and_its_canonical_text_key_apart() {
    let lib = Library::fdsoi28();
    let suite = JobSpec {
        circuit: CircuitRef::Suite("s1196".to_string()),
        ..inline_spec("")
    };
    let built = resolve_spec(&suite, &lib).expect("resolves");
    let inline = inline_spec(&built.source_canonical);
    assert_ne!(key_of(&suite, &lib), key_of(&inline, &lib));
    let clock = Some(built.clock.max_path_delay());
    assert_ne!(
        key_of(&JobSpec { clock, ..suite }, &lib),
        key_of(&JobSpec { clock, ..inline }, &lib)
    );
}

/// Converting is a key dimension; the key hashes the source text with
/// the switch, so the conversion need not run to compute it.
#[test]
fn convert_switch_keys_apart() {
    let lib = Library::fdsoi28();
    let plain = inline_spec(S27_LIKE);
    let converted = JobSpec {
        convert: true,
        ..plain.clone()
    };
    let a = resolve_spec(&plain, &lib).expect("resolves");
    let b = resolve_spec(&converted, &lib).expect("converts");
    assert_eq!(a.source_canonical, b.source_canonical);
    assert_ne!(canonical_bench(&a.netlist), canonical_bench(&b.netlist));
    assert_ne!(
        prepare(&plain, &a, &lib).key,
        prepare(&converted, &b, &lib).key
    );
}

/// EDIF and `.bench` carriers of one circuit share a key, converted or
/// not, and the key step alone gives it.
#[test]
fn edif_and_bench_share_a_key() {
    let lib = Library::fdsoi28();
    let edif = retime_convert::edif::write(&bench::parse("t", S27_LIKE).expect("parses"));
    for convert in [false, true] {
        let as_bench = JobSpec {
            convert,
            ..inline_spec(S27_LIKE)
        };
        let as_edif = JobSpec {
            format: InputFormat::Edif,
            ..inline_spec(&edif)
        };
        let as_edif = JobSpec { convert, ..as_edif };
        let key = key_of(&as_bench, &lib);
        assert_eq!(key, key_of(&as_edif, &lib), "convert={convert}");
        let source = read_inline("t", &edif, InputFormat::Edif).expect("reads");
        assert_eq!(key, inline_key(&as_edif, &source, &lib));
    }
}

/// The daemon keys every submission exactly as `prepare(resolve_spec)`
/// does, and answers it with `execute`'s payload: inline `.bench` and
/// EDIF, and suite names, each with and without conversion and with and
/// without an explicit clock.
#[test]
fn daemon_keys_match_prepare_for_every_submission_shape() {
    use retime_serve::json::{obj, parse, Json};
    use retime_serve::{execute, Client, Server, ServerConfig};

    let lib = Library::fdsoi28();
    let handle = Server::spawn(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    let edif = retime_convert::edif::write(&bench::parse("t", S27_LIKE).expect("parses"));
    let circuits = [
        ("netlist", S27_LIKE, "bench"),
        ("netlist", edif.as_str(), "edif"),
        ("circuit", "s1196", "bench"),
    ];
    for (field, circuit, format) in circuits {
        for convert in [false, true] {
            for clock in [None, Some(0.5)] {
                let mut fields = vec![
                    ("cmd", Json::Str("submit".into())),
                    (field, Json::Str(circuit.into())),
                    ("format", Json::Str(format.into())),
                    ("flow", Json::Str("base".into())),
                    ("convert", Json::Bool(convert)),
                ];
                if let Some(ns) = clock {
                    fields.push(("clock", Json::Num(ns)));
                }
                let line = obj(fields).render();
                let what = format!("{field}/{format} convert={convert} clock={clock:?}");
                let spec = JobSpec::from_json(&parse(&line).expect("json")).expect("spec");
                let resolved = resolve_spec(&spec, &lib).expect("resolves");
                let prepared = prepare(&spec, &resolved, &lib);
                let direct = execute(&prepared.key_config, &resolved, &lib).expect("runs");

                let reply = client.request_line(&line).expect("submit");
                assert_eq!(
                    reply.get("key").and_then(Json::as_str),
                    Some(prepared.key.as_str()),
                    "{what}: {}",
                    reply.render()
                );
                let id = reply.get("id").and_then(Json::as_u64).expect("job id");
                let done = client.wait_result(id).expect("result");
                assert_eq!(
                    done.get("payload_sha256").and_then(Json::as_str),
                    Some(direct.payload_sha256.as_str()),
                    "{what}: {}",
                    done.render()
                );
            }
        }
    }
    client.shutdown().expect("shutdown");
    handle.wait();
}

/// The cache key names a derived clock instead of hashing its bits, so
/// it promises that clock derivation gives the bits it gave when each
/// entry was stored. This pins those bits for one inline fixture.
#[test]
fn derived_clock_bits_are_pinned() {
    let lib = Library::fdsoi28();
    let spec = retime_circuits::paper_suite()
        .into_iter()
        .find(|s| s.name == "s1196")
        .expect("suite circuit");
    let text = bench::write(&spec.build().expect("builds").netlist);
    let resolved = resolve_spec(&inline_spec(&text), &lib).expect("resolves");
    let bits = resolved.clock.max_path_delay().to_bits();
    assert_eq!(
        bits,
        0x3fe3_fa26_08c6_f2d8,
        "the derived clock of the inline s1196 text moved ({bits:#018x}, {} ns). \
         Cache keys name a derived clock instead of hashing it, so a change to \
         clock derivation (`relaxed_clock`, its STA or the library) must bump the \
         cache key version in `retime_serve::canon::cache_key`; a change to the \
         s1196 generator only needs this pin updated.",
        resolved.clock.max_path_delay()
    );
}

/// The payload carries the display name, so the key does: the same text
/// under two names is two misses, and each payload names its own
/// submission; a repeat under either name is a hit on its own entry.
#[test]
fn the_same_text_under_two_names_keys_apart() {
    use retime_serve::json::{obj, Json};
    use retime_serve::{Client, Server, ServerConfig};

    let handle = Server::spawn(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    let mut keys = Vec::new();
    for (name, cached) in [("first", false), ("second", false), ("first", true)] {
        let line = obj(vec![
            ("cmd", Json::Str("submit".into())),
            ("netlist", Json::Str(S27_LIKE.into())),
            ("name", Json::Str(name.into())),
            ("flow", Json::Str("base".into())),
        ])
        .render();
        let reply = client.request_line(&line).expect("submit");
        assert_eq!(
            reply.get("cached"),
            Some(&Json::Bool(cached)),
            "{name}: {}",
            reply.render()
        );
        keys.push(reply.get("key").and_then(Json::as_str).map(str::to_string));
        let id = reply.get("id").and_then(Json::as_u64).expect("job id");
        let done = client.wait_result(id).expect("result");
        assert_eq!(
            done.get("result")
                .and_then(|r| r.get("circuit"))
                .and_then(Json::as_str),
            Some(name),
            "{}",
            done.render()
        );
    }
    assert_ne!(keys[0], keys[1]);
    assert_eq!(keys[0], keys[2]);
    client.shutdown().expect("shutdown");
    handle.wait();
}
