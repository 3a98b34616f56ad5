//! Hostile-input battery for the `.bench` reader: a table of malformed
//! programs with the exact error text each one produces (line numbers,
//! messages, and which error wins when a program has several), plus
//! proptests that byte soup and truncated files are diagnosed, never
//! panicked on.
//!
//! The texts are the reader's contract with every caller that shows
//! them (the serve daemon replies with them verbatim), so a rewrite of
//! the reader must keep each one byte for byte.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retime_netlist::{bench, Netlist, NetlistError};

/// One `.bench` program from its statements, one per line.
macro_rules! netlist {
    ($($line:expr),* $(,)?) => {
        concat!($($line, "\n"),*)
    };
}

/// Reads a program built with [`netlist!`].
fn make_netlist(src: &str) -> Result<Netlist, NetlistError> {
    bench::parse("hostile", src)
}

/// Malformed programs and the exact diagnosis each one gets.
const CASES: &[(&str, &str, &str)] = &[
    (
        "missing open paren",
        netlist!["INPUT(a)", "z = NOT a"],
        "parse error at line 2: missing `(` in gate",
    ),
    (
        "missing close paren",
        netlist!["INPUT(a)", "z = NOT(a"],
        "parse error at line 2: missing `)` in gate",
    ),
    (
        "close paren before the call",
        netlist!["INPUT(a)", "OUTPUT(z)", "z = NOT)a("],
        "parse error at line 3: missing `)` in gate",
    ),
    (
        "unknown gate type",
        netlist!["INPUT(a)", "z = FOO(a)"],
        "parse error at line 2: unknown gate type `FOO`",
    ),
    (
        "gate type missing",
        netlist!["INPUT(a)", "z = (a)"],
        "parse error at line 2: unknown gate type ``",
    ),
    (
        "empty output net",
        netlist!["INPUT(a)", " = NOT(a)"],
        "parse error at line 2: empty output net name",
    ),
    (
        "unknown gate beats empty output net",
        netlist!["INPUT(a)", " = FOO(a)"],
        "parse error at line 2: unknown gate type `FOO`",
    ),
    (
        "unrecognized statement",
        netlist!["INPUT(a)", "hello world"],
        "parse error at line 2: unrecognized statement",
    ),
    (
        "keyword without parens",
        netlist!["INPUT a"],
        "parse error at line 1: unrecognized statement",
    ),
    (
        "unclosed INPUT",
        netlist!["INPUT(a"],
        "parse error at line 1: unrecognized statement",
    ),
    (
        "line numbers count comments and blank lines",
        netlist!["# header", "", "INPUT(a)   # pin", "", "z = NOT(a"],
        "parse error at line 5: missing `)` in gate",
    ),
    (
        "input defined twice",
        netlist!["INPUT(a)", "INPUT(a)"],
        "parse error at line 2: net `a` defined twice",
    ),
    (
        "gate redefines an input",
        netlist!["INPUT(a)", "a = NOT(a)"],
        "parse error at line 2: net `a` defined twice",
    ),
    (
        "gate defined twice",
        netlist!["INPUT(a)", "z = NOT(a)", "z = BUFF(a)"],
        "parse error at line 3: net `z` defined twice",
    ),
    (
        "input after a gate of its name",
        netlist!["z = NOT(a)", "INPUT(a)", "INPUT(z)"],
        "parse error at line 3: net `z` defined twice",
    ),
    (
        "bad arity: two inputs to NOT",
        netlist!["INPUT(a)", "z = NOT(a, a)"],
        "cell `z` has an illegal fanin count of 2",
    ),
    (
        "bad arity: empty AND",
        netlist!["INPUT(a)", "z = AND()"],
        "cell `z` has an illegal fanin count of 0",
    ),
    (
        "bad arity: empty fan-in names are dropped",
        netlist!["INPUT(a)", "z = DFF(, )"],
        "cell `z` has an illegal fanin count of 0",
    ),
    (
        "dangling fan-in",
        netlist!["INPUT(a)", "z = AND(a, ghost)", "OUTPUT(z)"],
        "unknown cell or net name `ghost`",
    ),
    (
        "dangling OUTPUT",
        netlist!["INPUT(a)", "OUTPUT(nowhere)"],
        "unknown cell or net name `nowhere`",
    ),
    (
        "output name collides with a net",
        netlist!["INPUT(a__po0)", "INPUT(a)", "OUTPUT(a)"],
        "duplicate cell name `a__po0`",
    ),
    (
        "combinational cycle",
        netlist!["INPUT(a)", "x = AND(a, y)", "y = OR(a, x)", "OUTPUT(x)"],
        "combinational cycle through cell `x`",
    ),
    (
        "case-insensitive keywords: lower-case duplicate",
        netlist!["input(a)", "Input(a)"],
        "parse error at line 2: net `a` defined twice",
    ),
    (
        "case-insensitive keywords: mixed-case unknown gate",
        netlist!["iNpUt(a)", "z = Nandy(a)"],
        "parse error at line 2: unknown gate type `Nandy`",
    ),
    // Which error wins: every line is read before any net is bound, so
    // a statement error anywhere beats a duplicate earlier on; arity
    // and duplicates (in statement order) beat dangling fan-ins, which
    // beat dangling outputs, which beat cycles.
    (
        "a statement error beats an earlier duplicate",
        netlist!["INPUT(a)", "INPUT(a)", "z = FOO(a)"],
        "parse error at line 3: unknown gate type `FOO`",
    ),
    (
        "the first statement error wins",
        netlist!["INPUT(a)", "z = NOT(a", "hello", "y = FOO(a)"],
        "parse error at line 2: missing `)` in gate",
    ),
    (
        "a duplicate beats a later arity error",
        netlist!["INPUT(a)", "INPUT(a)", "z = NOT(a, a)"],
        "parse error at line 2: net `a` defined twice",
    ),
    (
        "an arity error beats a later duplicate",
        netlist!["INPUT(a)", "z = NOT(a, a)", "INPUT(a)"],
        "cell `z` has an illegal fanin count of 2",
    ),
    (
        "an arity error beats an earlier dangling fan-in",
        netlist!["INPUT(a)", "y = AND(a, ghost)", "z = NOT(a, a)"],
        "cell `z` has an illegal fanin count of 2",
    ),
    (
        "the first dangling fan-in in statement order wins",
        netlist!["INPUT(a)", "y = AND(a, ghost1)", "z = AND(ghost2, a)"],
        "unknown cell or net name `ghost1`",
    ),
    (
        "a dangling fan-in beats an earlier dangling OUTPUT",
        netlist!["INPUT(a)", "OUTPUT(nowhere)", "z = AND(a, ghost)"],
        "unknown cell or net name `ghost`",
    ),
    (
        "a dangling OUTPUT beats a cycle",
        netlist![
            "INPUT(a)",
            "x = AND(a, y)",
            "y = OR(a, x)",
            "OUTPUT(nowhere)"
        ],
        "unknown cell or net name `nowhere`",
    ),
];

#[test]
fn malformed_programs_get_their_exact_diagnosis() {
    for &(what, src, want) in CASES {
        match make_netlist(src) {
            Ok(_) => panic!("{what}: accepted\n{src}"),
            Err(e) => assert_eq!(e.to_string(), want, "{what}\n{src}"),
        }
    }
}

/// Programs at the edge of the grammar that read, and what they read as.
#[test]
fn edge_programs_read_as_pinned() {
    // Keywords are case-insensitive; gate names are case-preserving.
    let n = make_netlist(netlist!["input(a)", "output(z)", "z = nand(a, a)"]).unwrap();
    assert_eq!(n.stats().gates, 1);
    assert_eq!(n.stats().outputs, 1);

    // A keyword that only prefixes a gate name is a gate.
    let n = make_netlist(netlist!["INPUT(a)", "input1 = NOT(a)", "OUTPUTS = BUFF(a)"]).unwrap();
    assert!(n.find("input1").is_some());
    assert!(n.find("OUTPUTS").is_some());
    assert_eq!(n.stats().gates, 2);

    // An `INPUT(` statement takes everything up to its last `)`.
    let n = make_netlist(netlist!["INPUT(a) = AND(b)"]).unwrap();
    assert!(n.find("a) = AND(b").is_some());
    assert_eq!(n.stats().inputs, 1);

    // Comments, blank lines, CRLF endings and spacing are not statements.
    let n = make_netlist("# c\r\n\r\n  INPUT( a )  # x\r\nOUTPUT(a)\r\n\t\n").unwrap();
    assert!(n.find("a").is_some());
    assert_eq!(n.stats().outputs, 1);

    // The same net may be observed by several outputs.
    let n = make_netlist(netlist!["INPUT(a)", "OUTPUT(a)", "OUTPUT(a)"]).unwrap();
    assert!(n.find("a__po0").is_some() && n.find("a__po1").is_some());

    // Non-ASCII names pass through untouched.
    let n = make_netlist(netlist!["INPUT(é)", "ñ = NOT(é)", "OUTPUT(ñ)"]).unwrap();
    assert!(n.find("ñ").is_some());

    // An empty program is an empty netlist.
    assert!(make_netlist("").unwrap().is_empty());
}

/// A valid program whose first gate reads the net its last statement
/// defines: every strict prefix either cuts a statement short or leaves
/// that net dangling, so none of them reads.
const TRUNCATION_ANCHOR: &str = netlist![
    "G10 = NOR(G0, G14)",
    "INPUT(G0)",
    "INPUT(G1)",
    "OUTPUT(G17)",
    "G5 = DFF(G10)",
    "G17 = NAND(G10, G1)",
    "G14 = NOT(G5)",
];

/// Random soup weighted toward the grammar's own tokens, so the reader's
/// statement forms are actually reached.
fn soup(seed: u64, len: usize) -> String {
    const POOL: &[&str] = &[
        "INPUT", "OUTPUT", "input", "DFF", "NAND", "NOT", "LATCHM", "(", "(", ")", ")", "=", "=",
        ",", ",", "#", " ", " ", "\n", "\n", "\r", "\t", "a", "b", "G1", "é", "∞", "__po0",
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| POOL[rng.random_range(0..POOL.len())])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Soup reads as a valid netlist or a printable diagnosis; reaching
    /// the end of the body proves the reader did not panic.
    #[test]
    fn soup_never_panics(seed in any::<u64>(), len in 0usize..120) {
        let src = soup(seed, len);
        match make_netlist(&src) {
            Ok(n) => prop_assert!(n.validate().is_ok()),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    /// Every strict prefix of the anchor is an error, on any byte.
    #[test]
    fn truncations_are_errors(cut_seed in any::<u64>()) {
        prop_assert!(make_netlist(TRUNCATION_ANCHOR).is_ok());
        let body = TRUNCATION_ANCHOR.trim_end().len();
        let mut rng = StdRng::seed_from_u64(cut_seed);
        let cut = rng.random_range(1..body);
        prop_assert!(make_netlist(&TRUNCATION_ANCHOR[..cut]).is_err(), "prefix of {} bytes read", cut);
    }
}

/// Every strict prefix, exhaustively: the proptest samples, this pins
/// the whole range.
#[test]
fn every_strict_prefix_is_an_error() {
    let body = TRUNCATION_ANCHOR.trim_end().len();
    for cut in 1..body {
        assert!(
            make_netlist(&TRUNCATION_ANCHOR[..cut]).is_err(),
            "prefix of {cut} bytes read:\n{}",
            &TRUNCATION_ANCHOR[..cut]
        );
    }
}
