//! The run configuration: every `RETIME_*` environment variable, parsed
//! once at the top of each binary's `main` and passed down as a value.
//! Library crates read no environment; the one exception is
//! `RETIME_THREADS`, which `retime_engine::thread_count` reads because
//! a thread count never changes an output. `KNOBS` below lists every
//! variable; the environment-variable table of `docs/ARCHITECTURE.md`
//! gives their values, defaults and effects.
//!
//! Only `table4` reads the delay model, through
//! [`RunConfig::from_env_with_model`]: `RETIME_DELAY_MODE=statistical`
//! adds its statistical section, and the four statistical knobs are read
//! only then. Every other binary parses through [`RunConfig::from_env`],
//! which warns once when `RETIME_DELAY_MODE` is set. A value outside its
//! accepted set, and any other `RETIME_*` name, gets a one-line
//! `warning: unrecognized …` on stderr and falls back to the default.

use std::collections::BTreeMap;
use std::ffi::OsString;
use std::path::PathBuf;

use retime_sta::StatParams;
use retime_trace::TraceConfig;

/// Every `RETIME_*` variable the workspace reads.
const KNOBS: [&str; 11] = [
    "RETIME_SUITE",
    "RETIME_DELAY_MODE",
    "RETIME_YIELD",
    "RETIME_SIGMA",
    "RETIME_CLOCK_SIGMA",
    "RETIME_STAT_SEED",
    "RETIME_VERIFY",
    "RETIME_TRACE",
    "RETIME_TRACE_OUT",
    "RETIME_SERVE_CACHE_FAULT",
    "RETIME_THREADS",
];

/// Which slice of the paper suite a run works on (`RETIME_SUITE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SuiteMode {
    /// All twelve circuits (the default).
    #[default]
    Full,
    /// Circuits with ≤ 200 flip-flops.
    Small,
    /// The four smallest circuits (smoke tests, CI).
    Tiny,
}

impl SuiteMode {
    /// Restricts the suite definition to this slice.
    pub fn select(
        self,
        specs: Vec<retime_circuits::CircuitSpec>,
    ) -> Vec<retime_circuits::CircuitSpec> {
        match self {
            SuiteMode::Full => specs,
            SuiteMode::Small => specs.into_iter().filter(|s| s.flops <= 200).collect(),
            SuiteMode::Tiny => specs.into_iter().take(4).collect(),
        }
    }
}

/// Everything a run takes from the environment, one field per knob.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunConfig {
    /// The suite slice the table binaries run on.
    pub suite: SuiteMode,
    /// The parameters of the statistical Table IV section, which runs
    /// exactly when they are set (`RETIME_DELAY_MODE=statistical`).
    pub stat: Option<StatParams>,
    /// Certify every flow result with `retime-verify` before it is
    /// tabulated.
    pub verify: bool,
    /// Span recording and the Chrome-trace output path.
    pub trace: TraceConfig,
    /// `retime-serve`'s crash-recovery fault injection: abort the
    /// process between a cache entry's temp-file write and its rename.
    pub cache_fault: bool,
}

impl RunConfig {
    /// Reads the process environment of a binary that does not read the
    /// delay model (every one but `table4`) and prints its warnings on
    /// stderr: the delay-model knobs are not read, and a set
    /// `RETIME_DELAY_MODE` gets one warning saying so instead of any
    /// warning about its value. Call it once, first thing in `main`.
    pub fn from_env() -> RunConfig {
        warn(RunConfig::parse_without_model(env_vars()))
    }

    /// [`RunConfig::from_env`] for `table4`, which reads the delay model
    /// too ([`RunConfig::parse`]).
    pub fn from_env_with_model() -> RunConfig {
        warn(RunConfig::parse(env_vars()))
    }

    /// The pure half of [`RunConfig::from_env`].
    fn parse_without_model(
        vars: impl IntoIterator<Item = (String, OsString)>,
    ) -> (RunConfig, Vec<String>) {
        let mut set = false;
        let vars = vars.into_iter().filter(|(k, _)| {
            set |= k == "RETIME_DELAY_MODE";
            !MODEL_KNOBS.contains(&k.as_str())
        });
        let (config, mut warnings) = RunConfig::parse(vars.collect::<Vec<_>>());
        if set {
            warnings.insert(0, MODEL_IGNORED.to_string());
        }
        (config, warnings)
    }

    /// Builds the configuration from `(name, value)` pairs, returning it
    /// with one warning line per rejected value or unknown `RETIME_*`
    /// name. Names outside `RETIME_*` are ignored. Values stay
    /// [`OsString`]s so that `RETIME_TRACE_OUT` keeps any path verbatim.
    pub fn parse(vars: impl IntoIterator<Item = (String, OsString)>) -> (RunConfig, Vec<String>) {
        let vars = vars.into_iter().filter(|(k, _)| k.starts_with("RETIME_"));
        let mut env = Env {
            vars: vars.collect(),
            warnings: Vec::new(),
        };
        let suite = env.knob("RETIME_SUITE", SUITES, |raw| match raw {
            "full" => Some(SuiteMode::Full),
            "small" => Some(SuiteMode::Small),
            "tiny" => Some(SuiteMode::Tiny),
            _ => None,
        });
        // `Some(None)` selects the path-based model, `None` rejects the value.
        let mode = env.knob("RETIME_DELAY_MODE", MODELS, |raw| match raw.trim() {
            "path" => Some(None),
            "statistical" | "stat" => Some(Some(StatParams::DEFAULT)),
            _ => None,
        });
        let stat = mode.flatten().map(|d| {
            // Each fraction is checked with the other fields at their
            // defaults, so one bad knob keeps only its own.
            let checked = |s, c, y| StatParams::checked(s, c, y, d.seed).is_ok();
            let num = |raw: &str| raw.trim().parse::<f64>().ok();
            let (s, c, y) = (d.sigma_frac(), d.clock_sigma_frac(), d.yield_target());
            let sigma = env.knob("RETIME_SIGMA", IN_UNIT, |raw| {
                num(raw).filter(|&v| checked(v, c, y))
            });
            let clock = env.knob("RETIME_CLOCK_SIGMA", IN_UNIT, |raw| {
                num(raw).filter(|&v| checked(s, v, y))
            });
            let yield_target = env.knob("RETIME_YIELD", INSIDE_UNIT, |raw| {
                num(raw).filter(|&v| checked(s, c, v))
            });
            let seed = env.knob("RETIME_STAT_SEED", SEEDS, parse_seed);
            StatParams::new(
                sigma.unwrap_or(s),
                clock.unwrap_or(c),
                yield_target.unwrap_or(y),
                seed.unwrap_or(d.seed),
            )
        });
        let verify = env.knob("RETIME_VERIFY", VERIFY_FLAG, flag);
        let trace = env.knob("RETIME_TRACE", TRACE_FLAG, flag);
        let out = env
            .vars
            .get("RETIME_TRACE_OUT")
            .filter(|out| !out.is_empty());
        let cache_fault = env.vars.get("RETIME_SERVE_CACHE_FAULT");
        let config = RunConfig {
            suite: suite.unwrap_or_default(),
            stat,
            verify: verify.unwrap_or(false),
            trace: TraceConfig {
                enabled: trace.unwrap_or(false) || out.is_some(),
                out: out.map(PathBuf::from),
            },
            cache_fault: cache_fault.is_some_and(|raw| raw == "abort-before-rename"),
        };
        for name in env
            .vars
            .keys()
            .filter(|name| !KNOBS.contains(&name.as_str()))
        {
            env.warnings.push(format!(
                "warning: unrecognized variable {name}; known names are {} — ignored",
                KNOBS.join(", ")
            ));
        }
        (config, env.warnings)
    }
}

/// The process environment as `(name, value)` pairs.
fn env_vars() -> impl Iterator<Item = (String, OsString)> {
    std::env::vars_os().map(|(k, v)| (k.to_string_lossy().into_owned(), v))
}

/// Prints a parse's warnings on stderr and returns its configuration.
fn warn((config, warnings): (RunConfig, Vec<String>)) -> RunConfig {
    for warning in warnings {
        eprintln!("{warning}");
    }
    config
}

/// The knobs that choose the delay model: `RETIME_DELAY_MODE` and the
/// statistical knobs it enables.
const MODEL_KNOBS: [&str; 5] = [
    "RETIME_DELAY_MODE",
    "RETIME_YIELD",
    "RETIME_SIGMA",
    "RETIME_CLOCK_SIGMA",
    "RETIME_STAT_SEED",
];

/// The warning of a binary that does not read the delay model, run
/// with `RETIME_DELAY_MODE`.
const MODEL_IGNORED: &str = "warning: RETIME_DELAY_MODE is read by table4 only — ignored";

/// The `RETIME_*` variables being parsed, and the warnings so far.
struct Env {
    vars: BTreeMap<String, OsString>,
    warnings: Vec<String>,
}

impl Env {
    /// One knob: `None` when unset; a value `parse` rejects pushes the
    /// one-line warning `warning: unrecognized NAME value "RAW"; ACCEPTED`
    /// and is `None` too, so the caller's default applies.
    fn knob<T>(
        &mut self,
        name: &str,
        accepted: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Option<T> {
        let raw = self.vars.get(name)?.to_string_lossy();
        let value = parse(&raw);
        if value.is_none() {
            let warning = format!("warning: unrecognized {name} value {raw:?}; {accepted}");
            self.warnings.push(warning);
        }
        value
    }
}

/// What each knob accepts and what it falls back to, as its warning
/// line says them.
const SUITES: &str =
    "accepted values are \"full\", \"small\", or \"tiny\" — running the full suite";
const MODELS: &str = "accepted values are \"path\" or \"statistical\" — using the path-based model";
const IN_UNIT: &str = "accepted values are numbers in [0, 1) — using the default";
const INSIDE_UNIT: &str =
    "accepted values are numbers strictly between 0 and 1 — using the default";
const SEEDS: &str = "accepted values are decimal or 0x-prefixed integers — using the default";
const VERIFY_FLAG: &str = "want 1/true/on or 0/false/off — certification stays off";
const TRACE_FLAG: &str = "want 1/true/on or 0/false/off — tracing stays off";

/// A boolean knob: trimmed and case-insensitive, `1`/`true`/`on` or
/// `0`/`false`/`off` (or empty).
fn flag(raw: &str) -> Option<bool> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" => Some(true),
        "" | "0" | "false" | "off" => Some(false),
        _ => None,
    }
}

/// A seed: decimal, or `0x`-prefixed hex with optional `_` separators.
fn parse_seed(raw: &str) -> Option<u64> {
    let t = raw.trim();
    match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => t.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(sigma: f64, clock_sigma: f64, yield_target: f64, seed: u64) -> StatParams {
        StatParams::new(sigma, clock_sigma, yield_target, seed)
    }

    #[test]
    fn every_knob_parses_its_values_and_warns_on_the_rest() {
        let d = StatParams::DEFAULT;
        let cfg = |edit: &dyn Fn(&mut RunConfig)| {
            let mut c = RunConfig::default();
            edit(&mut c);
            c
        };
        let suite = |s: SuiteMode| cfg(&move |c| c.suite = s);
        let model = |p: StatParams| cfg(&move |c| c.stat = Some(p));
        let verify = |v: bool| cfg(&move |c| c.verify = v);
        let trace = |on: bool, out: Option<&str>| {
            let out = out.map(PathBuf::from);
            cfg(&move |c| {
                c.trace = TraceConfig {
                    enabled: on,
                    out: out.clone(),
                }
            })
        };
        let off = RunConfig::default();
        let flag_warning = |name: &str, raw: &str, fallback: &str| {
            format!(
                "warning: unrecognized {name} value {raw:?}; want 1/true/on or 0/false/off — \
                 {fallback}"
            )
        };
        let frac_warning = |name: &str, raw: &str, range: &str| {
            format!(
                "warning: unrecognized {name} value {raw:?}; accepted values are {range} — \
                 using the default"
            )
        };
        let in_unit = "numbers in [0, 1)";
        let inside_unit = "numbers strictly between 0 and 1";
        type Case = (Vec<(&'static str, &'static str)>, RunConfig, Vec<String>);
        let cases: Vec<Case> = vec![
            // Defaults, and names outside RETIME_* are ignored.
            (vec![], off.clone(), vec![]),
            (
                vec![("PATH", "/bin"), ("RETIMING", "x")],
                off.clone(),
                vec![],
            ),
            // RETIME_SUITE: exact, case-sensitive.
            (
                vec![("RETIME_SUITE", "full")],
                suite(SuiteMode::Full),
                vec![],
            ),
            (
                vec![("RETIME_SUITE", "small")],
                suite(SuiteMode::Small),
                vec![],
            ),
            (
                vec![("RETIME_SUITE", "tiny")],
                suite(SuiteMode::Tiny),
                vec![],
            ),
            (
                vec![("RETIME_SUITE", "Tiny")],
                off.clone(),
                vec![
                    "warning: unrecognized RETIME_SUITE value \"Tiny\"; accepted values are \
                      \"full\", \"small\", or \"tiny\" — running the full suite"
                        .into(),
                ],
            ),
            // RETIME_DELAY_MODE: trimmed. `gate` is no value of it: the
            // gate-based model runs in no table.
            (vec![("RETIME_DELAY_MODE", "path")], off.clone(), vec![]),
            (
                vec![("RETIME_DELAY_MODE", "gate")],
                off.clone(),
                vec![
                    "warning: unrecognized RETIME_DELAY_MODE value \"gate\"; accepted values \
                      are \"path\" or \"statistical\" — using the path-based model"
                        .into(),
                ],
            ),
            (
                vec![("RETIME_DELAY_MODE", " statistical\n")],
                model(d),
                vec![],
            ),
            (vec![("RETIME_DELAY_MODE", "stat")], model(d), vec![]),
            (
                vec![("RETIME_DELAY_MODE", "fast")],
                off.clone(),
                vec![
                    "warning: unrecognized RETIME_DELAY_MODE value \"fast\"; accepted values \
                      are \"path\" or \"statistical\" — using the path-based model"
                        .into(),
                ],
            ),
            // The statistical knobs apply only under the statistical model.
            (
                vec![("RETIME_YIELD", "garbage"), ("RETIME_SIGMA", "2")],
                off.clone(),
                vec![],
            ),
            (
                vec![
                    ("RETIME_DELAY_MODE", "stat"),
                    ("RETIME_YIELD", "0.99"),
                    ("RETIME_SIGMA", " 0.05 "),
                    ("RETIME_CLOCK_SIGMA", "0"),
                    ("RETIME_STAT_SEED", "42"),
                ],
                model(stat(0.05, 0.0, 0.99, 42)),
                vec![],
            ),
            (
                vec![
                    ("RETIME_DELAY_MODE", "stat"),
                    ("RETIME_STAT_SEED", "0x57A7_5EED"),
                ],
                model(d),
                vec![],
            ),
            (
                vec![("RETIME_DELAY_MODE", "stat"), ("RETIME_STAT_SEED", "0X10")],
                model(stat(
                    d.sigma_frac(),
                    d.clock_sigma_frac(),
                    d.yield_target(),
                    16,
                )),
                vec![],
            ),
            (
                vec![
                    ("RETIME_DELAY_MODE", "stat"),
                    ("RETIME_YIELD", "1"),
                    ("RETIME_SIGMA", "1"),
                    ("RETIME_CLOCK_SIGMA", "NaN"),
                    ("RETIME_STAT_SEED", "-3"),
                ],
                model(d),
                vec![
                    frac_warning("RETIME_SIGMA", "1", in_unit),
                    frac_warning("RETIME_CLOCK_SIGMA", "NaN", in_unit),
                    frac_warning("RETIME_YIELD", "1", inside_unit),
                    "warning: unrecognized RETIME_STAT_SEED value \"-3\"; accepted values are \
                     decimal or 0x-prefixed integers — using the default"
                        .into(),
                ],
            ),
            (
                vec![("RETIME_DELAY_MODE", "stat"), ("RETIME_YIELD", "0")],
                model(d),
                vec![frac_warning("RETIME_YIELD", "0", inside_unit)],
            ),
            // RETIME_VERIFY and RETIME_TRACE: trimmed, case-insensitive.
            (vec![("RETIME_VERIFY", "1")], verify(true), vec![]),
            (vec![("RETIME_VERIFY", "TRUE")], verify(true), vec![]),
            (vec![("RETIME_VERIFY", " On\n")], verify(true), vec![]),
            (vec![("RETIME_VERIFY", "")], off.clone(), vec![]),
            (vec![("RETIME_VERIFY", "0")], off.clone(), vec![]),
            (vec![("RETIME_VERIFY", " False ")], off.clone(), vec![]),
            (vec![("RETIME_VERIFY", "off")], off.clone(), vec![]),
            (
                vec![("RETIME_VERIFY", "yes")],
                off.clone(),
                vec![flag_warning(
                    "RETIME_VERIFY",
                    "yes",
                    "certification stays off",
                )],
            ),
            (vec![("RETIME_TRACE", "on")], trace(true, None), vec![]),
            (vec![("RETIME_TRACE", "false")], off.clone(), vec![]),
            (
                vec![("RETIME_TRACE", "2")],
                off.clone(),
                vec![flag_warning("RETIME_TRACE", "2", "tracing stays off")],
            ),
            // An output path turns tracing on; an empty one is unset.
            (
                vec![("RETIME_TRACE", "0"), ("RETIME_TRACE_OUT", "t.json")],
                trace(true, Some("t.json")),
                vec![],
            ),
            (vec![("RETIME_TRACE_OUT", "")], off.clone(), vec![]),
            // The serve fault hook knows one value and warns on none.
            (
                vec![("RETIME_SERVE_CACHE_FAULT", "abort-before-rename")],
                cfg(&|c| c.cache_fault = true),
                vec![],
            ),
            (
                vec![("RETIME_SERVE_CACHE_FAULT", "later")],
                off.clone(),
                vec![],
            ),
            // RETIME_THREADS is known but belongs to retime-engine.
            (vec![("RETIME_THREADS", "garbage")], off.clone(), vec![]),
            // A misspelt name warns once and sets nothing.
            (
                vec![("RETIME_VERIFIY", "1")],
                off.clone(),
                vec![format!(
                    "warning: unrecognized variable RETIME_VERIFIY; known names are {} — ignored",
                    KNOBS.join(", ")
                )],
            ),
        ];
        for (vars, want, warnings) in cases {
            let got = RunConfig::parse(vars.iter().map(|&(k, v)| (k.into(), v.into())));
            assert_eq!(got, (want, warnings), "{vars:?}");
        }
    }

    #[cfg(unix)]
    #[test]
    fn trace_path_is_kept_verbatim() {
        use std::os::unix::ffi::OsStringExt;
        let raw = OsString::from_vec(b"trace-\xff.json".to_vec());
        let (cfg, warnings) = RunConfig::parse([("RETIME_TRACE_OUT".into(), raw.clone())]);
        assert_eq!(cfg.trace.out, Some(PathBuf::from(raw)));
        assert!(cfg.trace.enabled);
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    /// A binary that does not read the delay model (the path-based
    /// tables, `retime-serve`, `retime-convert`) reads every knob but the
    /// model's, and a set `RETIME_DELAY_MODE` gets exactly one warning,
    /// whatever its value and the statistical knobs beside it.
    #[test]
    fn path_based_tables_warn_once_that_the_model_is_ignored() {
        let parse = |vars: &[(&str, &str)]| {
            RunConfig::parse_without_model(vars.iter().map(|&(k, v)| (k.into(), v.into())))
        };
        let tiny = RunConfig {
            suite: SuiteMode::Tiny,
            ..RunConfig::default()
        };
        assert_eq!(parse(&[("RETIME_SUITE", "tiny")]), (tiny.clone(), vec![]));
        // Statistical knobs alone are unread, as under `parse`.
        assert_eq!(
            parse(&[("RETIME_SUITE", "tiny"), ("RETIME_YIELD", "2")]),
            (tiny.clone(), vec![])
        );
        for mode in ["path", "gate", "statistical", "fast"] {
            let got = parse(&[
                ("RETIME_SUITE", "tiny"),
                ("RETIME_DELAY_MODE", mode),
                ("RETIME_YIELD", "0.5"),
                ("RETIME_SIGMA", "oops"),
            ]);
            assert_eq!(
                got,
                (tiny.clone(), vec![MODEL_IGNORED.to_string()]),
                "{mode}"
            );
        }
        assert!(MODEL_IGNORED.starts_with("warning: RETIME_DELAY_MODE "));
        assert!(!MODEL_IGNORED.contains('\n'));
    }

    #[test]
    fn suite_mode_selects_slices() {
        let all = retime_circuits::paper_suite();
        let n = all.len();
        assert_eq!(SuiteMode::Full.select(all.clone()).len(), n);
        assert_eq!(SuiteMode::Tiny.select(all.clone()).len(), 4);
        assert!(SuiteMode::Small.select(all).iter().all(|s| s.flops <= 200));
    }
}
