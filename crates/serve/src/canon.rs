//! Netlist canonicalization and cache-key derivation.
//!
//! Two submissions of the *same* circuit must land on the same cache
//! entry even when their `.bench` sources differ in statement order,
//! spacing, or comments. The canonical form fixes that: read the
//! source, then re-emit it with inputs, outputs, and gates each sorted
//! by name and every statement printed in the writer's normal form.
//! Fan-in order inside a gate is semantic (it is pin order) and is
//! preserved.
//!
//! The cache key (v4) is a SHA-256 over a versioned preamble — library
//! name, the circuit's origin (suite or inline), its display name, flow,
//! EDL overhead bits, the clock as [`KeyClock`] names it, delay model,
//! verify switch, and the edge-triggered → two-phase `convert` switch —
//! followed by the canonical text of the *submitted* circuit, before any
//! conversion. Float parameters contribute their exact IEEE-754 bits, so
//! "c = 1.0" and "c = 1.0000001" never alias. The display name is keyed
//! because the payload carries it. Everything the key hashes is known
//! after one read of the submission, so a cache hit costs that read, the
//! canonical text and the hash; the clock derivation and the conversion
//! run on a miss only, on the worker that runs the job.

use retime_liberty::{EdlOverhead, Library};
use retime_sta::{DelayModel, TwoPhaseClock};
use retime_verify::FlowKind;

use crate::hash::Sha256;

/// Canonical `.bench` form of a netlist: `INPUT` lines sorted by name,
/// `OUTPUT` lines sorted by driver name, gate/latch statements sorted by
/// their text (which starts with the output name); whitespace and
/// comments normalized away. Parsing the canonical text reproduces the
/// same canonical text. It is the `.bench` reader's one canonical
/// writer ([`retime_netlist::bench::Table::write`]), so the text the
/// daemon keys a `.bench` submission by, straight from its statement
/// table, is this text.
pub use retime_netlist::bench::canonical as canonical_bench;

/// The cache key's version: the first line of the key material, and
/// the tag every disk-cache entry header carries, so recovery can drop
/// entries no key of this version can reach.
pub const KEY_VERSION: &str = "retime-serve-key-v4";

/// Everything besides the circuit that determines a job's result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyConfig {
    /// Which flow runs (`base` / `grar` / `vl`).
    pub flow: FlowKind,
    /// EDL area overhead `c`.
    pub overhead: EdlOverhead,
    /// The two-phase clock the flow runs under.
    pub clock: TwoPhaseClock,
    /// Delay model driving the optimization.
    pub model: DelayModel,
    /// Whether the job routes through `retime-verify` certification.
    pub verify: bool,
    /// Whether the submission was converted edge-triggered → two-phase
    /// by `retime-convert` before the flow ran.
    pub convert: bool,
}

/// How a cache key names a job's clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyClock {
    /// The clock `relaxed_clock` derives from the keyed text: a pure
    /// function of the canonical text and the library, so the key names
    /// it (`derived`) instead of hashing its bits, and can be computed
    /// before the clock is.
    Derived,
    /// A clock fixed apart from the text — a submitted override, or a
    /// suite circuit's calibrated clock, which its text does not
    /// determine — keyed by its exact bits.
    Fixed(TwoPhaseClock),
}

/// What a cache key hashes besides the canonical text: the fields of a
/// [`KeyConfig`], with the clock as [`KeyClock`] names it, where the
/// circuit came from, and the name its payload carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyMaterial<'a> {
    /// Whether the circuit is a suite build. A suite job runs on the
    /// generator's netlist, not on a build from its canonical text, so
    /// its results differ from those of an inline submission of the
    /// same text even under the same clock.
    pub suite: bool,
    /// The circuit's display name: the payload's `circuit` field.
    pub name: &'a str,
    /// Which flow runs.
    pub flow: FlowKind,
    /// EDL area overhead `c`.
    pub overhead: EdlOverhead,
    /// The clock, as the key names it.
    pub clock: KeyClock,
    /// Delay model driving the optimization.
    pub model: DelayModel,
    /// Whether the job routes through certification.
    pub verify: bool,
    /// Whether the keyed text is converted before the flow runs.
    pub convert: bool,
}

impl From<&KeyConfig> for KeyMaterial<'static> {
    /// A config for inline text submitted without a name (so named
    /// `inline`), keyed with its clock's exact bits.
    fn from(cfg: &KeyConfig) -> KeyMaterial<'static> {
        KeyMaterial {
            suite: false,
            name: "inline",
            flow: cfg.flow,
            overhead: cfg.overhead,
            clock: KeyClock::Fixed(cfg.clock),
            model: cfg.model,
            verify: cfg.verify,
            convert: cfg.convert,
        }
    }
}

/// Content-addressed cache key (v4): SHA-256 (hex) over a versioned
/// preamble — the library identity, the circuit's origin (suite or
/// inline), its display name and every other field of the key material
/// — followed by `canonical_source`, the canonical text of the submitted
/// circuit (before conversion; `convert` is in the preamble). The
/// preamble and the text stream into the hash; neither is copied. The
/// name is written with its byte length, so no name can pose as other
/// fields. `KeyMaterial` is destructured without `..`, so a field added
/// to it fails to compile here until it is hashed.
///
/// A [`KeyClock::Derived`] clock is named, not hashed: a key promises
/// that the clock derivation (`retime_circuits::relaxed_clock`) gives
/// the same bits it gave when the entry was stored. A change to clock
/// derivation therefore needs a bump of [`KEY_VERSION`], as any change
/// to the flows' results does for persisted entries.
///
/// Keys from older versions never equal a v4 key (the version is the
/// first line of the material), so older entries are never wrong hits;
/// disk recovery drops them by their header's version tag.
pub fn cache_key<'a>(
    canonical_source: &str,
    lib: &Library,
    key: impl Into<KeyMaterial<'a>>,
) -> String {
    let KeyMaterial {
        suite,
        name,
        flow,
        overhead,
        clock,
        model,
        verify,
        convert,
    } = key.into();
    let clock = match clock {
        KeyClock::Derived => "derived".to_string(),
        KeyClock::Fixed(clock) => format!("{:016x}", clock.max_path_delay().to_bits()),
    };
    let preamble = format!(
        "{KEY_VERSION}\nlib:{}\ncircuit:{}\nname:{}:{name}\nflow:{}\nc:{:016x}\nclock:{clock}\nmodel:{:?}\nverify:{}\nconvert:{}\n--\n",
        lib.name(),
        if suite { "suite" } else { "inline" },
        name.len(),
        flow.name(),
        overhead.value().to_bits(),
        model,
        verify,
        convert,
    );
    Sha256::new()
        .update(preamble.as_bytes())
        .update(canonical_source.as_bytes())
        .finish_hex()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::sha256_hex;
    use retime_netlist::{bench, Netlist};

    const MESSY: &str = "\
# a comment
  g2   =  OR( g1 ,q1  )
INPUT(b)
z = BUFF(g2)
q1 = DFF(g2)
INPUT(a)
OUTPUT(z)
g1 = AND(a, b)   # trailing comment
";

    const TIDY: &str = "\
INPUT(a)
INPUT(b)
OUTPUT(z)
g1 = AND(a, b)
g2 = OR(g1, q1)
q1 = DFF(g2)
z = BUFF(g2)
";

    #[test]
    fn canonical_form_ignores_order_and_whitespace() {
        let a = canonical_bench(&bench::parse("x", MESSY).unwrap());
        let b = canonical_bench(&bench::parse("x", TIDY).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn canonical_form_is_idempotent() {
        let once = canonical_bench(&bench::parse("x", MESSY).unwrap());
        let twice = canonical_bench(&bench::parse("x", &once).unwrap());
        assert_eq!(once, twice);
    }

    #[test]
    fn fanin_order_is_semantic_and_kept() {
        let ab = canonical_bench(
            &bench::parse("x", "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n").unwrap(),
        );
        let ba = canonical_bench(
            &bench::parse("x", "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(b, a)\n").unwrap(),
        );
        assert_ne!(ab, ba);
    }

    /// The canonical form as it was first written: one `format!`ed line
    /// per gate, the lines sorted as strings and joined.
    fn reference_canonical(n: &Netlist) -> String {
        let mut inputs: Vec<&str> = n
            .inputs()
            .iter()
            .map(|&i| n.cell(i).name.as_str())
            .collect();
        inputs.sort_unstable();
        let mut outputs: Vec<&str> = n
            .outputs()
            .iter()
            .map(|&o| n.cell(n.cell(o).fanin[0]).name.as_str())
            .collect();
        outputs.sort_unstable();
        let mut gates: Vec<String> = n
            .cells()
            .iter()
            .filter_map(|c| {
                c.gate.bench_name().map(|kw| {
                    let ins: Vec<&str> = c.fanin.iter().map(|&f| n.cell(f).name.as_str()).collect();
                    format!("{} = {}({})", c.name, kw, ins.join(", "))
                })
            })
            .collect();
        gates.sort_unstable();
        let mut out = String::new();
        for name in inputs {
            out.push_str(&format!("INPUT({name})\n"));
        }
        for name in outputs {
            out.push_str(&format!("OUTPUT({name})\n"));
        }
        for line in gates {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    #[test]
    fn canonical_form_is_the_sorted_statement_text() {
        let canon = canonical_bench(&bench::parse("x", MESSY).unwrap());
        assert_eq!(canon, TIDY);
        assert_eq!(canon.len(), canon.capacity(), "pre-sized exactly");
    }

    /// Names where one prefixes another sort by their whole statement
    /// text, as the line-sorting form did: `g1 ! = …` sorts before
    /// `g1 = …` because `!` < `=`.
    #[test]
    fn prefix_names_sort_by_statement_text() {
        let src = "INPUT(a)\nOUTPUT(g1)\ng1 = NOT(a)\ng1 ! = BUFF(g1)\n\
                   g1\t2 = AND(g1, a)\ng10 = OR(a, g)\ng = XOR(a, g1)\nq = DFF(g1 !)\n";
        let n = bench::parse("x", src).unwrap();
        let canon = canonical_bench(&n);
        assert_eq!(canon, reference_canonical(&n));
        assert!(canon.find("g1 ! = ").unwrap() < canon.find("g1 = ").unwrap());
    }

    #[test]
    fn canonical_form_matches_the_line_sorting_form_on_the_suite() {
        for spec in retime_circuits::paper_suite().iter().take(6) {
            let circuit = spec.build().unwrap();
            for n in [
                &circuit.netlist,
                &circuit.netlist.to_master_slave().unwrap(),
            ] {
                assert_eq!(canonical_bench(n), reference_canonical(n), "{}", spec.name);
            }
        }
    }

    /// A v4 key names a derived clock; it never equals the key of the
    /// same job with the derived clock's bits, nor the v2 or v3 key.
    #[test]
    fn derived_clock_keys_apart_from_any_fixed_clock() {
        let lib = Library::fdsoi28();
        let canon = canonical_bench(&bench::parse("x", TIDY).unwrap());
        let cfg = KeyConfig {
            flow: FlowKind::Grar,
            overhead: EdlOverhead::MEDIUM,
            clock: TwoPhaseClock::from_max_delay(10.0),
            model: DelayModel::PathBased,
            verify: false,
            convert: false,
        };
        let fixed = cache_key(&canon, &lib, &cfg);
        let derived = cache_key(
            &canon,
            &lib,
            KeyMaterial {
                clock: KeyClock::Derived,
                ..KeyMaterial::from(&cfg)
            },
        );
        assert_ne!(fixed, derived);
        let v2 = sha256_hex(
            format!(
                "retime-serve-key-v2\nlib:{}\nflow:grar\nc:{:016x}\nclock:{:016x}\nmodel:{:?}\nverify:false\nconvert:false\n--\n{canon}",
                lib.name(),
                cfg.overhead.value().to_bits(),
                cfg.clock.max_path_delay().to_bits(),
                cfg.model,
            )
            .as_bytes(),
        );
        let v3 = sha256_hex(
            format!(
                "retime-serve-key-v3\nlib:{}\ncircuit:inline\nflow:grar\nc:{:016x}\nclock:derived\nmodel:{:?}\nverify:false\nconvert:false\n--\n{canon}",
                lib.name(),
                cfg.overhead.value().to_bits(),
                cfg.model,
            )
            .as_bytes(),
        );
        for old in [v2, v3] {
            assert_ne!(fixed, old);
            assert_ne!(derived, old);
        }
    }

    /// The display name is key material; a config alone keys as a
    /// submission named `inline`.
    #[test]
    fn name_is_keyed() {
        let lib = Library::fdsoi28();
        let canon = canonical_bench(&bench::parse("x", TIDY).unwrap());
        let cfg = KeyConfig {
            flow: FlowKind::Grar,
            overhead: EdlOverhead::MEDIUM,
            clock: TwoPhaseClock::from_max_delay(10.0),
            model: DelayModel::PathBased,
            verify: false,
            convert: false,
        };
        let named = |name| {
            cache_key(
                &canon,
                &lib,
                KeyMaterial {
                    name,
                    ..KeyMaterial::from(&cfg)
                },
            )
        };
        assert_eq!(named("inline"), cache_key(&canon, &lib, &cfg));
        assert_ne!(named("first"), named("second"));
        assert_ne!(named(""), named("inline"));
    }

    #[test]
    fn key_separates_configs() {
        let lib = Library::fdsoi28();
        let canon = canonical_bench(&bench::parse("x", TIDY).unwrap());
        let base = KeyConfig {
            flow: FlowKind::Grar,
            overhead: EdlOverhead::MEDIUM,
            clock: TwoPhaseClock::from_max_delay(10.0),
            model: DelayModel::PathBased,
            verify: false,
            convert: false,
        };
        let k0 = cache_key(&canon, &lib, &base);
        assert_eq!(k0.len(), 64);
        for variant in [
            KeyConfig {
                flow: FlowKind::Base,
                ..base
            },
            KeyConfig {
                overhead: EdlOverhead::HIGH,
                ..base
            },
            KeyConfig {
                clock: TwoPhaseClock::from_max_delay(11.0),
                ..base
            },
            KeyConfig {
                model: DelayModel::GateBased,
                ..base
            },
            KeyConfig {
                verify: true,
                ..base
            },
            KeyConfig {
                convert: true,
                ..base
            },
        ] {
            assert_ne!(k0, cache_key(&canon, &lib, &variant), "{variant:?}");
        }
        // Same config, same text → same key.
        assert_eq!(k0, cache_key(&canon, &lib, &base));
    }
}
