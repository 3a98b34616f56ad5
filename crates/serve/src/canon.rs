//! Netlist canonicalization and cache-key derivation.
//!
//! Two submissions of the *same* circuit must land on the same cache
//! entry even when their `.bench` sources differ in statement order,
//! spacing, or comments. The canonical form fixes that: parse the
//! source, then re-emit it with inputs, outputs, and gates each sorted
//! by name and every statement printed in the writer's normal form.
//! Fan-in order inside a gate is semantic (it is pin order) and is
//! preserved.
//!
//! The cache key is a SHA-256 over a versioned preamble — library name,
//! flow, EDL overhead bits, clock bits, delay model, verify switch, and
//! (since v2) the edge-triggered → two-phase `convert` switch —
//! followed by the canonical netlist text. Float parameters contribute
//! their exact IEEE-754 bits, so "c = 1.0" and "c = 1.0000001" never
//! alias.

use retime_liberty::{EdlOverhead, Library};
use retime_netlist::Netlist;
use retime_sta::{DelayModel, TwoPhaseClock};
use retime_verify::FlowKind;

use crate::hash::sha256_hex;

/// Canonical `.bench` form of a netlist: `INPUT` lines sorted by name,
/// `OUTPUT` lines sorted by driver name, gate/latch statements sorted by
/// output name; whitespace and comments normalized away. Parsing the
/// canonical text reproduces the same canonical text.
pub fn canonical_bench(n: &Netlist) -> String {
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

/// Content-addressed cache key: SHA-256 (hex) over the canonicalized
/// netlist, the library identity, and every field of the flow
/// configuration. `KeyConfig` is destructured without `..`, so a field
/// added to it fails to compile here until it is hashed.
pub fn cache_key(canonical_netlist: &str, lib: &Library, cfg: &KeyConfig) -> String {
    let KeyConfig {
        flow,
        overhead,
        clock,
        model,
        verify,
        convert,
    } = cfg;
    let material = format!(
        "retime-serve-key-v2\nlib:{}\nflow:{}\nc:{:016x}\nclock:{:016x}\nmodel:{:?}\nverify:{}\nconvert:{}\n--\n{}",
        lib.name(),
        flow.name(),
        overhead.value().to_bits(),
        clock.max_path_delay().to_bits(),
        model,
        verify,
        convert,
        canonical_netlist,
    );
    sha256_hex(material.as_bytes())
}

/// Warm-slot key: the *structural* part of [`cache_key`]. Jobs that
/// share it share one solved-instance memo (`RetimingSweep`), which
/// answers a later job only when its Eq. 14 instance is identical. Left
/// out by name below: `overhead` (base and RVL build the same instance
/// for every `c`), `verify` (certification never changes the instance)
/// and `convert` (a converted text never equals its FF source's). A
/// clock change alters the region pre-division, so it is keyed.
pub fn warm_key(canonical_netlist: &str, lib: &Library, cfg: &KeyConfig) -> String {
    let KeyConfig {
        flow,
        overhead: _,
        clock,
        model,
        verify: _,
        convert: _,
    } = cfg;
    let material = format!(
        "retime-serve-warmkey-v1\nlib:{}\nflow:{}\nclock:{:016x}\nmodel:{:?}\n--\n{}",
        lib.name(),
        flow.name(),
        clock.max_path_delay().to_bits(),
        model,
        canonical_netlist,
    );
    sha256_hex(material.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_netlist::bench;

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

    #[test]
    fn warm_key_ignores_overhead_and_verify_but_not_structure() {
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
        let k0 = warm_key(&canon, &lib, &base);
        // An ECO overhead re-spin (and flipping verification) lands on
        // the same warm slot…
        for alias in [
            KeyConfig {
                overhead: EdlOverhead::HIGH,
                ..base
            },
            KeyConfig {
                verify: true,
                ..base
            },
        ] {
            assert_eq!(k0, warm_key(&canon, &lib, &alias), "{alias:?}");
        }
        // …while anything that changes the instance structure does not.
        for variant in [
            KeyConfig {
                flow: FlowKind::Base,
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
        ] {
            assert_ne!(k0, warm_key(&canon, &lib, &variant), "{variant:?}");
        }
        let other =
            canonical_bench(&bench::parse("x", "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n").unwrap());
        assert_ne!(k0, warm_key(&other, &lib, &base));
    }
}
