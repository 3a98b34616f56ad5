//! A `.bench` submission is read once. The key step writes the
//! canonical text straight from the reader's statement table, and a
//! miss builds the netlist from that same table in canonical order, with
//! no second parse. Both must give exactly what the text path gives:
//!
//! * (a) the key step's canonical text equals
//!   `canonical_bench(&bench::parse(src))`;
//! * (b) the table's canonical build equals `bench::parse(name,
//!   canonical)` cell by cell — names, gates, fan-in order, input and
//!   output order, `__poN` marker names — or fails with the same error.
//!
//! Checked on every suite circuit in four statement orders, and on
//! random programs with awkward names (prefixes of one another, tabs,
//! parentheses, non-ASCII, `__poN` look-alikes).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use retime_liberty::Library;
use retime_netlist::{bench, Netlist};
use retime_serve::canon::canonical_bench;
use retime_serve::job::{build_inline, read_inline, InputFormat};

/// Panics at the first cell where two netlists differ, then checks the
/// rest of their state.
fn assert_same_netlist(built: &Netlist, parsed: &Netlist, what: &str) {
    assert_eq!(built.name(), parsed.name(), "{what}");
    assert_eq!(built.len(), parsed.len(), "{what}: cell count");
    for (i, (a, b)) in built.cells().iter().zip(parsed.cells()).enumerate() {
        assert_eq!(a, b, "{what}: cell {i}");
    }
    assert_eq!(built.inputs(), parsed.inputs(), "{what}: inputs");
    assert_eq!(built.outputs(), parsed.outputs(), "{what}: outputs");
    assert_eq!(built, parsed, "{what}: name lookup");
}

/// Checks (a) and (b) on one source; returns whether it read.
fn check(name: &str, src: &str, what: &str) -> bool {
    let reference = bench::parse(name, src);
    let key_step = read_inline(name, src, InputFormat::Bench);
    let (parsed, source) = match (reference, key_step) {
        (Ok(parsed), Ok(source)) => (parsed, source),
        (Err(e), Err(got)) => {
            assert_eq!(got, format!("netlist parse error: {e}"), "{what}");
            return false;
        }
        (reference, key_step) => panic!(
            "{what}: the text path gives {:?}, the key step {:?}",
            reference.map(|_| ()),
            key_step.map(|_| ())
        ),
    };
    let canonical = canonical_bench(&parsed);
    assert_eq!(source.canonical, canonical, "{what}: (a) canonical text");

    let table = bench::read(src).expect("reads");
    let order = table.canonical_order();
    assert_eq!(table.write(&order), canonical, "{what}: writer");
    match (
        table.to_netlist(name, &order),
        bench::parse(name, &canonical),
    ) {
        (Ok(built), Ok(reparsed)) => assert_same_netlist(&built, &reparsed, what),
        (Err(a), Err(b)) => assert_eq!(a, b, "{what}: (b) build error"),
        (a, b) => panic!(
            "{what}: (b) the table builds {:?}, the canonical text parses {:?}",
            a.map(|_| ()),
            b.map(|_| ())
        ),
    }
    // The statement-order build is `bench::parse` itself.
    let in_order = table
        .to_netlist(name, &table.statement_order())
        .expect("builds");
    assert_same_netlist(&in_order, &parsed, what);
    true
}

/// The statements of `text` in four orders: as written, reversed, and
/// two seeded shuffles with the spacing, comments and keyword case of
/// hand-written files.
fn four_orders(text: &str, seed: u64) -> Vec<String> {
    let lines: Vec<&str> = text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .collect();
    let mut orders = vec![text.to_string()];
    let mut reversed = lines.clone();
    reversed.reverse();
    orders.push(reversed.join("\n"));
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..2 {
        let mut shuffled = lines.clone();
        shuffled.shuffle(&mut rng);
        orders.push(mangle(&shuffled, &mut rng));
    }
    orders
}

/// Joins statements with random spacing, comments, CRLF endings and
/// lower-case keywords; the circuit stays the same.
fn mangle(lines: &[&str], rng: &mut StdRng) -> String {
    let mut out = String::new();
    for line in lines {
        if rng.random_bool(0.2) {
            out.push_str("# noise\n\n");
        }
        let mut line = line.replace(" = ", if rng.random_bool(0.5) { "=" } else { "  =\t" });
        if rng.random_bool(0.3) {
            line = line
                .replace("INPUT(", "input( ")
                .replace("OUTPUT(", "Output(");
        }
        if rng.random_bool(0.3) {
            line = line.replace(", ", " ,");
        }
        out.push_str("  ");
        out.push_str(&line);
        out.push_str(if rng.random_bool(0.2) {
            "   # tail\r\n"
        } else {
            "\n"
        });
    }
    out
}

#[test]
fn suite_circuits_in_four_orders() {
    for (k, spec) in retime_circuits::paper_suite().iter().enumerate() {
        let circuit = spec.build().expect("builds");
        let text = bench::write(&circuit.netlist);
        for (i, src) in four_orders(&text, k as u64).iter().enumerate() {
            assert!(check(spec.name, src, &format!("{} order {i}", spec.name)));
        }
    }
}

/// The miss path as the daemon runs it: the key step's source, built.
#[test]
fn the_miss_build_is_the_canonical_parse() {
    let lib = Library::fdsoi28();
    for spec in retime_circuits::paper_suite().iter().take(4) {
        let text = bench::write(&spec.build().expect("builds").netlist);
        for src in four_orders(&text, 7) {
            let source = read_inline(spec.name, &src, InputFormat::Bench).expect("reads");
            let canonical = source.canonical.clone();
            let built = build_inline(source, false, &lib).expect("builds");
            let parsed = bench::parse(spec.name, &canonical).expect("parses");
            assert_same_netlist(&built.netlist, &parsed, spec.name);
            assert_eq!(built.source_canonical, canonical);
        }
    }
}

/// A net name for a new signal, from shapes that prefix one another
/// (an earlier name followed by a space or a tab), hold parentheses or
/// non-ASCII, or look like markers. Only inputs may hold `=`.
fn net_name(signals: &[String], input: bool, rng: &mut StdRng) -> String {
    let i = signals.len();
    let earlier = signals
        .get(rng.random_range(0..i.max(1)))
        .filter(|name| input || !name.contains('='))
        .map_or("g", String::as_str);
    match rng.random_range(0..if input { 9 } else { 8 }) {
        0 => format!("G{i}"),
        1 => format!("G{i}x"),
        2 => format!("{earlier} !{i}"),
        3 => format!("{earlier}\t{i}"),
        4 => format!("é{i}"),
        5 => format!("n({i})"),
        6 => format!("q{i}__po0"),
        7 => format!("{i}"),
        _ => format!("in={i}"),
    }
}

/// A random valid program: inputs, gates over earlier signals (flip-flops
/// may read any signal), and outputs, some observing one net twice, and
/// at times a gate named like another output's marker.
fn random_program(seed: u64) -> String {
    const KWS: [&str; 9] = [
        "AND", "OR", "NAND", "NOR", "XOR", "XNOR", "NOT", "BUFF", "DFF",
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut signals = Vec::new();
    let mut lines = Vec::new();
    for _ in 0..rng.random_range(1..4usize) {
        let name = net_name(&signals, true, &mut rng);
        lines.push(format!("INPUT({name})"));
        signals.push(name);
    }
    let gates = rng.random_range(1..16usize);
    let mut pending_dffs = Vec::new();
    for _ in 0..gates {
        let name = net_name(&signals, false, &mut rng);
        let kw = KWS[rng.random_range(0..KWS.len())];
        let width = match kw {
            "NOT" | "BUFF" | "DFF" => 1,
            _ => rng.random_range(1..4usize),
        };
        if kw == "DFF" {
            pending_dffs.push(name.clone());
        } else {
            let pins: Vec<&str> = (0..width)
                .map(|_| signals[rng.random_range(0..signals.len())].as_str())
                .collect();
            lines.push(format!("{name} = {kw}({})", pins.join(", ")));
        }
        signals.push(name);
    }
    // Flip-flops read any signal, forward references included.
    for q in pending_dffs {
        let d = &signals[rng.random_range(0..signals.len())];
        lines.push(format!("{q} = DFF({d})"));
    }
    let mut observed = Vec::new();
    for _ in 0..rng.random_range(1..5usize) {
        let net = signals[rng.random_range(0..signals.len())].clone();
        lines.push(format!("OUTPUT({net})"));
        observed.push(net);
    }
    if rng.random_bool(0.3) {
        let k = rng.random_range(0..observed.len());
        let marker = format!("{}__po{k}", observed[rng.random_range(0..observed.len())]);
        if !signals.contains(&marker) {
            lines.push(format!("{marker} = NOT({})", signals[0]));
        }
    }
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let mut shuffled = refs.clone();
    shuffled.shuffle(&mut rng);
    mangle(&shuffled, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn random_programs_read_once(seed in any::<u64>()) {
        let src = random_program(seed);
        check("p", &src, &format!("seed {seed}:\n{src}"));
    }
}

/// Programs whose outputs' markers clash in one order and not the other:
/// the statement order reads, the canonical build fails as the canonical
/// text's parse does; and the reverse.
#[test]
fn marker_clashes_follow_the_order() {
    // Statement order: b__po0, a__po1 — free. Canonical: a__po0 — taken.
    let src = "INPUT(a)\nINPUT(b)\nOUTPUT(b)\nOUTPUT(a)\na__po0 = NOT(a)\n";
    let table = bench::read(src).expect("reads in statement order");
    let err = table
        .to_netlist("x", &table.canonical_order())
        .expect_err("clashes in canonical order");
    assert_eq!(err.to_string(), "duplicate cell name `a__po0`");
    check("x", src, "clash in canonical order only");
    // Statement order clashes, so the program does not read.
    let src = "INPUT(a)\nINPUT(b)\nOUTPUT(a)\nOUTPUT(b)\na__po0 = NOT(a)\n";
    assert_eq!(
        bench::read(src).unwrap_err().to_string(),
        "duplicate cell name `a__po0`"
    );
    assert!(!check("x", src, "clash in statement order"));
}

/// The generator reaches the reading path: most programs read.
#[test]
fn random_programs_mostly_read() {
    let read = (0..256u64)
        .filter(|&seed| check("p", &random_program(seed), &format!("seed {seed}")))
        .count();
    assert!(read >= 192, "only {read} of 256 programs read");
}
