//! Job specification, circuit resolution, and flow execution.
//!
//! A submitted job names a circuit (suite name or inline `.bench` text),
//! a flow, an overhead, and options. Resolution runs in two steps. The
//! key step reads inline text once into its canonical form
//! ([`read_inline`]), which with the options is all the cache key needs
//! ([`inline_key`]). The build step — the netlist in canonical order,
//! the cloud, the derived clock, and the optional conversion
//! ([`build_inline`], [`build_suite`]) — runs only when the key misses
//! the cache; a `.bench` build reads no text, it builds from the key
//! step's statement table (EDIF, and a text the daemon remembers, build
//! by parsing the canonical text). An inline build comes in two halves:
//! the owned canonical netlist ([`canonical_netlist`], the last step
//! that borrows the submitted text) and the rest ([`build_canonical`]),
//! which the daemon runs on a worker. [`resolve_spec`] runs every step in one
//! call. Execution runs the named flow through the same entry points the
//! table binaries use and renders the deterministic result payload the
//! cache stores.

use retime_bench::{build_case, run_flow, Certification};
use retime_circuits::paper_suite;
use retime_convert::ConvertConfig;
use retime_liberty::{EdlOverhead, Library};
use retime_netlist::{bench, CombCloud, Netlist};
use retime_retime::{RetimeError, RetimeOutcome};
use retime_sta::{DelayModel, StatParamError, StatParams, TwoPhaseClock};
use retime_verify::FlowKind;

use crate::canon::{cache_key, canonical_bench, KeyClock, KeyConfig, KeyMaterial};
use crate::hash::sha256_hex;
use crate::json::{obj, Json};

/// The circuit a job names.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitRef {
    /// A calibrated suite circuit by name (`s1196`, …, `plasma`).
    Suite(String),
    /// Inline `.bench` source text (with a display name).
    Inline {
        /// Display name used in payloads and logs.
        name: String,
        /// Raw `.bench` source.
        text: String,
    },
}

/// Input format of an inline `netlist` submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InputFormat {
    /// ISCAS-style `.bench` text (the default).
    #[default]
    Bench,
    /// EDIF 2.0.0 text, read by `retime-convert`'s interned-atom
    /// parser. Only valid with an inline `netlist`.
    Edif,
}

/// One parsed submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// What to retime.
    pub circuit: CircuitRef,
    /// Which flow to run.
    pub flow: FlowKind,
    /// EDL overhead `c`.
    pub overhead: EdlOverhead,
    /// Delay model (base and G-RAR honor it; the VL flow is path-based).
    pub model: DelayModel,
    /// Clock override in ns of max path delay (`None` = the circuit's
    /// calibrated / derived clock).
    pub clock: Option<f64>,
    /// Route the result through `retime-verify` certification.
    pub verify: bool,
    /// How an inline `netlist` is parsed (`"bench"` | `"edif"`).
    pub format: InputFormat,
    /// Convert the edge-triggered submission to a two-phase
    /// master/slave circuit (`retime-convert`) before the flow runs.
    pub convert: bool,
}

impl JobSpec {
    /// Parses a `submit` command object, copying an inline netlist's text
    /// out of it.
    ///
    /// # Errors
    /// Returns a one-line diagnosis for missing or malformed fields.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        JobSpec::from_owned_json(v.clone())
    }

    /// [`JobSpec::from_json`] on a request the caller gives up: an inline
    /// netlist's text is moved out of it, not copied.
    ///
    /// # Errors
    /// The diagnoses of [`JobSpec::from_json`], in the same order.
    pub(crate) fn from_owned_json(mut v: Json) -> Result<JobSpec, String> {
        let mut circuit = match (v.get("circuit"), v.get("netlist")) {
            (Some(c), None) => CircuitRef::Suite(
                c.as_str()
                    .ok_or("`circuit` must be a suite circuit name")?
                    .to_string(),
            ),
            (None, Some(t)) => {
                t.as_str().ok_or("`netlist` must be a string")?;
                CircuitRef::Inline {
                    name: v
                        .get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("inline")
                        .to_string(),
                    // Moved out of `v` once every field has parsed.
                    text: String::new(),
                }
            }
            (Some(_), Some(_)) => return Err("give either `circuit` or `netlist`, not both".into()),
            (None, None) => return Err("missing `circuit` (suite name) or `netlist` (text)".into()),
        };
        let flow = match v.get("flow").and_then(Json::as_str) {
            Some("base") => FlowKind::Base,
            Some("grar") | None => FlowKind::Grar,
            Some("vl") => FlowKind::Vl,
            Some(other) => return Err(format!("unknown flow {other:?} (base | grar | vl)")),
        };
        let overhead = match v.get("c") {
            None => EdlOverhead::MEDIUM,
            Some(Json::Num(x)) if *x > 0.0 => EdlOverhead::new(*x),
            Some(Json::Str(s)) => match s.as_str() {
                "low" => EdlOverhead::LOW,
                "medium" => EdlOverhead::MEDIUM,
                "high" => EdlOverhead::HIGH,
                other => return Err(format!("unknown overhead {other:?} (low | medium | high)")),
            },
            Some(_) => return Err("`c` must be a positive number or low|medium|high".into()),
        };
        // `model` with a `delay_mode` alias (the statistical docs use the
        // latter); statistical mode reads its four knobs with the
        // `StatParams::DEFAULT` fallbacks and `StatParams::checked`'s ranges.
        let model_field = v.get("model").or_else(|| v.get("delay_mode"));
        let model = match model_field.and_then(Json::as_str) {
            None | Some("path") => DelayModel::PathBased,
            Some("gate") => DelayModel::GateBased,
            Some("statistical") | Some("stat") => {
                let d = StatParams::DEFAULT;
                let num = |key: &str, default: f64| match v.get(key) {
                    None => default,
                    Some(Json::Num(x)) => *x,
                    Some(_) => f64::NAN,
                };
                let seed = match v.get("stat_seed") {
                    None => d.seed,
                    Some(Json::Num(x)) if *x >= 0.0 && x.fract() == 0.0 => *x as u64,
                    Some(_) => return Err("`stat_seed` must be a non-negative integer".into()),
                };
                let params = StatParams::checked(
                    num("sigma", d.sigma_frac()),
                    num("clock_sigma", d.clock_sigma_frac()),
                    num("yield", d.yield_target()),
                    seed,
                )
                .map_err(|e| match e {
                    StatParamError::Sigma => "`sigma` must be a fraction in [0, 1)",
                    StatParamError::ClockSigma => "`clock_sigma` must be a fraction in [0, 1)",
                    StatParamError::Yield => "`yield` must be a fraction in (0, 1)",
                })?;
                DelayModel::Statistical(params)
            }
            Some(other) => {
                return Err(format!(
                    "unknown model {other:?} (path | gate | statistical)"
                ))
            }
        };
        let clock = match v.get("clock") {
            None => None,
            Some(Json::Num(x)) if *x > 0.0 => Some(*x),
            Some(_) => return Err("`clock` must be a positive number (ns)".into()),
        };
        let verify = match v.get("verify") {
            None => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err("`verify` must be a boolean".into()),
        };
        let format = match v.get("format").and_then(Json::as_str) {
            None | Some("bench") => InputFormat::Bench,
            Some("edif") => InputFormat::Edif,
            Some(other) => return Err(format!("unknown format {other:?} (bench | edif)")),
        };
        if format == InputFormat::Edif && !matches!(circuit, CircuitRef::Inline { .. }) {
            return Err(
                "`format`: \"edif\" needs an inline `netlist`, not a suite `circuit`".into(),
            );
        }
        let convert = match v.get("convert") {
            None => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err("`convert` must be a boolean".into()),
        };
        if let (CircuitRef::Inline { text, .. }, Json::Obj(fields)) = (&mut circuit, &mut v) {
            if let Some((_, Json::Str(t))) = fields.iter_mut().find(|(k, _)| k == "netlist") {
                *text = std::mem::take(t);
            }
        }
        Ok(JobSpec {
            circuit,
            flow,
            overhead,
            model,
            clock,
            verify,
            format,
            convert,
        })
    }

    /// Short flow name for metrics labels.
    pub fn flow_name(&self) -> &'static str {
        self.flow.name()
    }
}

/// A resolved circuit: built netlist, retiming view, default clock, and
/// the canonical text of the submission.
#[derive(Debug)]
pub struct ResolvedCircuit {
    /// Display name.
    pub name: String,
    /// The circuit the flow runs on.
    pub netlist: Netlist,
    /// Its retiming view.
    pub cloud: CombCloud,
    /// Calibrated (suite) or derived (inline) clock.
    pub clock: TwoPhaseClock,
    /// Canonical `.bench` text of the submitted circuit, before any
    /// conversion (the cache-key input).
    pub source_canonical: String,
}

/// The key step's product for an inline submission: its text read once
/// and canonicalized. It is everything the cache key hashes of the
/// circuit, and all [`build_inline`] needs to build it.
#[derive(Debug)]
pub struct InlineSource<'a> {
    /// Display name.
    pub name: &'a str,
    /// Canonical `.bench` text of the submitted circuit.
    pub canonical: String,
    /// How the build gets the netlist.
    read: Read<'a>,
}

/// What a build starts from.
#[derive(Debug)]
enum Read<'a> {
    /// A `.bench` submission's statement table and its canonical order.
    Bench(bench::Table<'a>, bench::Order),
    /// An EDIF submission, or a text the daemon remembers: the build
    /// reads the canonical text.
    Canonical,
}

/// Key step for inline text. `.bench` text is read once into its
/// statement table (`parse` span) and written in canonical order
/// (`canonicalize` span); no netlist is built. A `.bench` text with no
/// statement is refused, as an EDIF text with no `edif` section is.
/// EDIF text is parsed through `retime-convert`'s parser and
/// canonicalized with [`canonical_bench`].
///
/// # Errors
/// Returns the reader's diagnosis.
pub fn read_inline<'a>(
    name: &'a str,
    text: &'a str,
    format: InputFormat,
) -> Result<InlineSource<'a>, String> {
    let (canonical, read) = match format {
        InputFormat::Bench => {
            let table = {
                let _parse = retime_trace::span("parse");
                bench::read(text).map_err(|e| format!("netlist parse error: {e}"))?
            };
            let _canonicalize = retime_trace::span("canonicalize");
            let order = table.canonical_order();
            let canonical = table.write(&order);
            if canonical.is_empty() {
                return Err("netlist parse error: no INPUT, OUTPUT or gate statement".into());
            }
            (canonical, Read::Bench(table, order))
        }
        InputFormat::Edif => {
            let parsed = {
                let _parse = retime_trace::span("parse");
                retime_convert::edif::parse(text).map_err(|e| format!("EDIF parse error: {e}"))?
            };
            let _canonicalize = retime_trace::span("canonicalize");
            (canonical_bench(&parsed), Read::Canonical)
        }
    };
    Ok(InlineSource {
        name,
        canonical,
        read,
    })
}

impl<'a> InlineSource<'a> {
    /// The key step's product for a text whose canonical form is already
    /// known: a build parses `canonical`.
    pub(crate) fn remembered(name: &'a str, canonical: String) -> InlineSource<'a> {
        InlineSource {
            name,
            canonical,
            read: Read::Canonical,
        }
    }
}

/// An inline submission's netlist in canonical order, owned: what a miss
/// hands from the key step's thread to the thread that builds it.
#[derive(Debug)]
pub struct CanonicalNetlist {
    /// Display name.
    pub name: String,
    /// The circuit, built in canonical statement order.
    pub netlist: Netlist,
    /// Canonical `.bench` text of the submitted circuit.
    pub canonical: String,
}

/// First half of the build step for inline text, run on a cache miss
/// only: build the netlist **in canonical order**, so the flow result
/// depends only on the cache key — never on the submitted statement
/// order, and never on which format (`.bench` or EDIF) carried the
/// circuit in. A `.bench` netlist is built from the key step's table (a
/// `to_netlist` span): it is the netlist a parse of the canonical text
/// gives. An EDIF netlist, or one the daemon remembers the canonical
/// text of, is that parse (a `parse` span). This is the last step that
/// borrows the submitted text.
///
/// # Errors
/// Returns a one-line diagnosis when the canonical build fails.
pub fn canonical_netlist(source: InlineSource<'_>) -> Result<CanonicalNetlist, String> {
    let InlineSource {
        name,
        canonical,
        read,
    } = source;
    let netlist = match read {
        Read::Bench(table, order) => {
            let _to_netlist = retime_trace::span("to_netlist");
            table.to_netlist(name, &order)
        }
        Read::Canonical => {
            let _parse = retime_trace::span("parse");
            bench::parse(name, &canonical)
        }
    }
    // The text a parse of the canonical text gave: the table build
    // fails exactly where that parse did.
    .map_err(|e| format!("canonical re-parse error: {e}"))?;
    Ok(CanonicalNetlist {
        name: name.to_string(),
        netlist,
        canonical,
    })
}

/// Second half of the build step for inline text: extract the cloud,
/// derive the clock, and, with `convert`, convert. Reads nothing of the
/// submission but the owned [`CanonicalNetlist`], so the daemon runs it
/// on a worker. Opens a `build` span with `extract`, `clock` and the
/// conversion's `convert`.
///
/// # Errors
/// Returns a one-line diagnosis for extraction, clock derivation, or
/// conversion failures, in that order.
pub fn build_canonical(
    source: CanonicalNetlist,
    convert: bool,
    lib: &Library,
) -> Result<ResolvedCircuit, String> {
    let _build = retime_trace::span("build");
    let CanonicalNetlist {
        name,
        netlist,
        canonical,
    } = source;
    let cloud = {
        let _extract = retime_trace::span("extract");
        CombCloud::extract(&netlist).map_err(|e| format!("cloud extraction: {e}"))?
    };
    let clock = {
        let _clock = retime_trace::span("clock");
        retime_circuits::relaxed_clock(&cloud, lib).map_err(|e| format!("clock derivation: {e}"))?
    };
    finish_build(name, netlist, cloud, clock, canonical, convert, lib)
}

/// The whole build step for inline text: [`canonical_netlist`], then
/// [`build_canonical`].
///
/// # Errors
/// Returns a one-line diagnosis for the canonical build, extraction,
/// clock derivation, or conversion failures, in that order.
pub fn build_inline(
    source: InlineSource<'_>,
    convert: bool,
    lib: &Library,
) -> Result<ResolvedCircuit, String> {
    build_canonical(canonical_netlist(source)?, convert, lib)
}

/// Build step for a suite circuit: build and calibrate the matching
/// Table I circuit exactly like the table binaries, then convert it
/// when asked. Opens a `build` span.
///
/// # Errors
/// Returns a one-line diagnosis for an unknown name or a failed
/// conversion.
pub fn build_suite(name: &str, convert: bool, lib: &Library) -> Result<ResolvedCircuit, String> {
    let spec = paper_suite()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown suite circuit {name:?}"))?;
    let _build = retime_trace::span("build");
    let case = build_case(&spec, lib);
    let canonical = canonical_bench(&case.circuit.netlist);
    finish_build(
        name.to_string(),
        case.circuit.netlist,
        case.circuit.cloud,
        case.clock,
        canonical,
        convert,
        lib,
    )
}

/// Shared tail of the build steps: with `convert`, split the
/// edge-triggered circuit into a two-phase master/slave circuit under
/// its own clock (equivalence-proven by simulation); the result keeps
/// the source's canonical text as its cache-key input.
fn finish_build(
    name: String,
    netlist: Netlist,
    cloud: CombCloud,
    clock: TwoPhaseClock,
    source_canonical: String,
    convert: bool,
    lib: &Library,
) -> Result<ResolvedCircuit, String> {
    if !convert {
        return Ok(ResolvedCircuit {
            name,
            netlist,
            cloud,
            clock,
            source_canonical,
        });
    }
    let cfg = ConvertConfig {
        clock: Some(clock),
        ..ConvertConfig::default()
    };
    let conv = retime_convert::convert(&netlist, lib, &cfg)
        .map_err(|e| format!("conversion failed: {e}"))?;
    Ok(ResolvedCircuit {
        name,
        netlist: conv.netlist,
        cloud: conv.cloud,
        clock: conv.clock,
        source_canonical,
    })
}

/// Resolves a [`CircuitRef`] read as `.bench` and left unconverted:
/// [`resolve_spec`] without the spec's options.
///
/// # Errors
/// Returns a one-line diagnosis for unknown suite names, parse errors,
/// or STA failures while deriving a clock.
pub fn resolve_circuit(circuit: &CircuitRef, lib: &Library) -> Result<ResolvedCircuit, String> {
    resolve(circuit, InputFormat::Bench, false, lib)
}

/// Resolves a full submission the way the daemon does on a cache miss,
/// on one thread: the key step ([`read_inline`]) and then the build step
/// ([`build_inline`]) for inline text, or [`build_suite`] for a suite
/// name. The spec's `format` picks the inline parser, and its `convert`
/// switch splits the circuit into a two-phase master/slave circuit
/// before the flow sees it. [`prepare`] on the result gives the
/// daemon's cache key.
///
/// # Errors
/// Returns a one-line diagnosis for parse, conversion, equivalence, or
/// STA failures.
pub fn resolve_spec(spec: &JobSpec, lib: &Library) -> Result<ResolvedCircuit, String> {
    resolve(&spec.circuit, spec.format, spec.convert, lib)
}

fn resolve(
    circuit: &CircuitRef,
    format: InputFormat,
    convert: bool,
    lib: &Library,
) -> Result<ResolvedCircuit, String> {
    match circuit {
        CircuitRef::Suite(name) => build_suite(name, convert, lib),
        CircuitRef::Inline { name, text } => {
            build_inline(read_inline(name, text, format)?, convert, lib)
        }
    }
}

impl JobSpec {
    /// The flow configuration this spec runs under on a circuit whose
    /// own (calibrated or derived) clock is `circuit_clock`.
    pub fn key_config(&self, circuit_clock: TwoPhaseClock) -> KeyConfig {
        KeyConfig {
            flow: self.flow,
            overhead: self.overhead,
            clock: self
                .clock
                .map_or(circuit_clock, TwoPhaseClock::from_max_delay),
            model: self.model,
            verify: self.verify,
            convert: self.convert,
        }
    }

    /// What the cache key hashes of this spec besides the circuit text.
    /// The clock is an override's bits, else `calibrated` (a suite
    /// circuit's clock, which its text does not determine) by its bits,
    /// else [`KeyClock::Derived`].
    pub fn key_material(&self, calibrated: Option<TwoPhaseClock>) -> KeyMaterial<'_> {
        let clock = match (self.clock, calibrated) {
            (Some(ns), _) => KeyClock::Fixed(TwoPhaseClock::from_max_delay(ns)),
            (None, Some(clock)) => KeyClock::Fixed(clock),
            (None, None) => KeyClock::Derived,
        };
        let (suite, name) = match &self.circuit {
            CircuitRef::Suite(name) => (true, name),
            CircuitRef::Inline { name, .. } => (false, name),
        };
        KeyMaterial {
            suite,
            name,
            flow: self.flow,
            overhead: self.overhead,
            clock,
            model: self.model,
            verify: self.verify,
            convert: self.convert,
        }
    }
}

/// The cache key of an inline submission from its key step alone: the
/// key [`prepare`] gives once [`build_inline`] has run. Opens a `key`
/// span.
pub fn inline_key(spec: &JobSpec, source: &InlineSource<'_>, lib: &Library) -> String {
    canonical_key(spec, &source.canonical, lib)
}

/// [`inline_key`] from the canonical text alone. Opens a `key` span.
pub(crate) fn canonical_key(spec: &JobSpec, canonical: &str, lib: &Library) -> String {
    let _key = retime_trace::span("key");
    cache_key(canonical, lib, spec.key_material(None))
}

/// The flow configuration a job resolves to, plus its cache key.
#[derive(Debug, Clone)]
pub struct PreparedJob {
    /// Everything besides the circuit that determines the result.
    pub key_config: KeyConfig,
    /// Content-addressed cache key (SHA-256 hex).
    pub key: String,
}

/// Combines a resolved circuit with the job options into the final flow
/// configuration and its cache key.
pub fn prepare(spec: &JobSpec, circuit: &ResolvedCircuit, lib: &Library) -> PreparedJob {
    let calibrated = matches!(spec.circuit, CircuitRef::Suite(_)).then_some(circuit.clock);
    PreparedJob {
        key_config: spec.key_config(circuit.clock),
        key: cache_key(
            &circuit.source_canonical,
            lib,
            spec.key_material(calibrated),
        ),
    }
}

/// One executed (or cache-served) job result.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// Deterministic rendered payload (see [`render_payload`]).
    pub payload: String,
    /// SHA-256 (hex) of `payload`.
    pub payload_sha256: String,
    /// Solver invocations this job actually performed (0 on cache hits).
    pub solver_invocations: u64,
    /// The run's phase instrumentation (empty on cache hits).
    pub phases: retime_engine::PhaseTimings,
}

/// Runs the configured flow on a resolved circuit through
/// [`retime_bench::run_flow`] — the same entry points (`base_retime` /
/// `grar` / `vl_retime`) a direct call uses, so a cached payload is
/// bit-identical to a fresh one.
///
/// # Errors
/// Propagates flow failures and rejected certificates.
pub fn execute(
    cfg: &KeyConfig,
    circuit: &ResolvedCircuit,
    lib: &Library,
) -> Result<JobOutput, RetimeError> {
    let mut outcome = run_flow(
        cfg.flow,
        &circuit.cloud,
        lib,
        cfg.clock,
        cfg.model,
        cfg.overhead,
    )?;
    if cfg.verify {
        Certification::of_netlist(
            &circuit.netlist,
            &circuit.cloud,
            cfg.clock,
            cfg.overhead,
            cfg.flow,
            format!("{} [serve/{}]", circuit.name, cfg.flow.name()),
        )
        .with_model(cfg.model)
        .run(lib, &mut outcome)?;
    }
    let payload = render_payload(&circuit.name, cfg, &circuit.cloud, &outcome);
    let payload_sha256 = sha256_hex(payload.as_bytes());
    Ok(JobOutput {
        payload,
        payload_sha256,
        solver_invocations: outcome.phases.counter("solver_invocations"),
        phases: outcome.phases,
    })
}

/// Renders the deterministic result payload for an outcome: the area
/// bill, latch counts, feasibility, and digests of the exact placement
/// and EDL assignment. Every field is a pure function of the flow
/// result, so two runs of the same job render byte-identical text —
/// the contract the content-addressed cache stores and integration
/// tests compare against a direct flow call.
pub fn render_payload(
    name: &str,
    cfg: &KeyConfig,
    cloud: &CombCloud,
    outcome: &RetimeOutcome,
) -> String {
    let moved: Vec<u8> = cloud
        .node_ids()
        .map(|v| u8::from(outcome.cut.is_moved(v)))
        .collect();
    let ed: Vec<u8> = outcome.ed_sinks.iter().map(|&b| u8::from(b)).collect();
    let mut fields = vec![
        ("circuit", Json::Str(name.to_string())),
        ("flow", Json::Str(cfg.flow.name().to_string())),
        ("c", Json::Num(cfg.overhead.value())),
        ("clock", Json::Num(cfg.clock.max_path_delay())),
        ("slaves", Json::Num(outcome.seq.slaves as f64)),
        ("masters", Json::Num(outcome.seq.masters as f64)),
        ("edl", Json::Num(outcome.seq.edl as f64)),
        ("seq_area", Json::Num(outcome.seq.total())),
        ("comb_area", Json::Num(outcome.comb_area)),
        ("total_area", Json::Num(outcome.total_area)),
        ("feasible", Json::Bool(outcome.timing.is_feasible())),
        ("cut_sha256", Json::Str(sha256_hex(&moved))),
        ("ed_sha256", Json::Str(sha256_hex(&ed))),
    ];
    // Statistical runs additionally publish their yield picture — still
    // a pure function of the flow result (the analytic summary is
    // deterministic), so the byte-identity contract holds.
    if let Some(stat) = &outcome.stat {
        let yields: Vec<u8> = stat
            .yields
            .iter()
            .flat_map(|y| y.to_bits().to_be_bytes())
            .collect();
        fields.push(("yield_target", Json::Num(stat.params.yield_target())));
        fields.push(("min_yield", Json::Num(stat.min_yield)));
        fields.push(("jitter_sens", Json::Num(stat.jitter_sens)));
        fields.push(("yields_sha256", Json::Str(sha256_hex(&yields))));
    }
    obj(fields).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn submit(src: &str) -> Result<JobSpec, String> {
        JobSpec::from_json(&parse(src).unwrap())
    }

    #[test]
    fn parses_suite_submission() {
        let spec =
            submit(r#"{"cmd":"submit","circuit":"s1196","flow":"grar","c":"high","verify":true}"#)
                .unwrap();
        assert_eq!(spec.circuit, CircuitRef::Suite("s1196".into()));
        assert_eq!(spec.flow, FlowKind::Grar);
        assert_eq!(spec.overhead, EdlOverhead::HIGH);
        assert!(spec.verify);
        assert_eq!(spec.clock, None);
    }

    #[test]
    fn parses_inline_submission_with_defaults() {
        let spec =
            submit(r#"{"cmd":"submit","netlist":"INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n"}"#).unwrap();
        assert!(matches!(spec.circuit, CircuitRef::Inline { .. }));
        assert_eq!(spec.flow, FlowKind::Grar);
        assert_eq!(spec.overhead, EdlOverhead::MEDIUM);
        assert!(!spec.verify);
    }

    #[test]
    fn rejects_malformed_submissions() {
        assert!(submit(r#"{"cmd":"submit"}"#).is_err());
        assert!(submit(r#"{"cmd":"submit","circuit":"x","netlist":"y"}"#).is_err());
        assert!(submit(r#"{"cmd":"submit","circuit":"x","flow":"warp"}"#).is_err());
        assert!(submit(r#"{"cmd":"submit","circuit":"x","c":-1}"#).is_err());
        assert!(submit(r#"{"cmd":"submit","circuit":"x","clock":"fast"}"#).is_err());
        assert!(submit(r#"{"cmd":"submit","circuit":"x","format":"verilog"}"#).is_err());
        assert!(submit(r#"{"cmd":"submit","circuit":"x","convert":"yes"}"#).is_err());
        assert!(submit(r#"{"cmd":"submit","circuit":"x","model":"fuzzy"}"#).is_err());
        assert!(
            submit(r#"{"cmd":"submit","circuit":"x","model":"statistical","yield":1.5}"#).is_err()
        );
        assert!(
            submit(r#"{"cmd":"submit","circuit":"x","model":"statistical","sigma":-0.1}"#).is_err()
        );
        assert!(
            submit(r#"{"cmd":"submit","circuit":"x","model":"statistical","stat_seed":1.5}"#)
                .is_err()
        );
    }

    #[test]
    fn parses_statistical_submission() {
        use retime_sta::StatParams;
        // Bare statistical mode falls back to the default parameters.
        let spec = submit(r#"{"cmd":"submit","circuit":"s1196","model":"statistical"}"#).unwrap();
        assert_eq!(spec.model, DelayModel::Statistical(StatParams::DEFAULT));
        // `delay_mode` is an accepted alias, and every knob is honored.
        let spec = submit(
            r#"{"cmd":"submit","circuit":"s1196","delay_mode":"statistical","yield":0.999,"sigma":0.05,"clock_sigma":0.01,"stat_seed":7}"#,
        )
        .unwrap();
        assert_eq!(
            spec.model,
            DelayModel::Statistical(StatParams::new(0.05, 0.01, 0.999, 7))
        );
    }

    #[test]
    fn env_and_ndjson_accept_the_same_statistical_ranges() {
        use crate::json::obj;
        use retime_bench::RunConfig;
        // 1 − ε lies in [0, 1) but quantizes to exactly 1, so both
        // front doors refuse it through `StatParams::checked`.
        let boundaries = [0.0, 0.5, 1.0 - f64::EPSILON, 1.0, f64::NAN];
        for (field, knob) in [
            ("sigma", "RETIME_SIGMA"),
            ("clock_sigma", "RETIME_CLOCK_SIGMA"),
            ("yield", "RETIME_YIELD"),
        ] {
            for x in boundaries {
                let json = obj(vec![
                    ("circuit", Json::Str("s1196".into())),
                    ("model", Json::Str("statistical".into())),
                    (field, Json::Num(x)),
                ]);
                let ndjson = JobSpec::from_json(&json).map(|spec| spec.model).ok();
                let (cfg, warnings) = RunConfig::parse([
                    ("RETIME_DELAY_MODE".into(), "statistical".into()),
                    (knob.into(), format!("{x:?}").into()),
                ]);
                let env = warnings
                    .is_empty()
                    .then_some(cfg.stat.map(DelayModel::Statistical))
                    .flatten();
                let accepted = x == 0.5 || (x == 0.0 && field != "yield");
                assert_eq!(ndjson.is_some(), accepted, "NDJSON {field} = {x:?}");
                assert_eq!(env, ndjson, "{knob} = {x:?} vs NDJSON {field}");
            }
        }
    }

    #[test]
    fn parses_format_and_convert_options() {
        let spec =
            submit(r#"{"cmd":"submit","netlist":"(edif x)","format":"edif","convert":true}"#)
                .unwrap();
        assert_eq!(spec.format, InputFormat::Edif);
        assert!(spec.convert);
        let spec = submit(r#"{"cmd":"submit","circuit":"s1196","convert":true}"#).unwrap();
        assert_eq!(spec.format, InputFormat::Bench);
        assert!(spec.convert);
        // EDIF is an inline-only format: a suite name has no EDIF text.
        let err = submit(r#"{"cmd":"submit","circuit":"s1196","format":"edif"}"#).unwrap_err();
        assert!(err.contains("inline"), "{err}");
    }

    #[test]
    fn resolve_spec_converts_and_separates_canonical_text() {
        let lib = Library::fdsoi28();
        let text = "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nq = DFF(g)\ng = AND(a, b)\nz = OR(g, q)\n";
        let base = JobSpec {
            circuit: CircuitRef::Inline {
                name: "t".into(),
                text: text.into(),
            },
            flow: FlowKind::Grar,
            overhead: EdlOverhead::MEDIUM,
            model: DelayModel::PathBased,
            clock: None,
            verify: false,
            format: InputFormat::Bench,
            convert: false,
        };
        let plain = resolve_spec(&base, &lib).unwrap();
        let converted = resolve_spec(
            &JobSpec {
                convert: true,
                ..base.clone()
            },
            &lib,
        )
        .unwrap();
        assert_eq!(plain.netlist.stats().dffs, 1);
        assert_eq!(converted.netlist.stats().dffs, 0);
        assert_eq!(converted.netlist.stats().masters, 1);
        assert_ne!(
            canonical_bench(&plain.netlist),
            canonical_bench(&converted.netlist)
        );
        // Both key the submitted text; the convert switch separates them.
        assert_eq!(plain.source_canonical, converted.source_canonical);
        assert_ne!(
            prepare(&base, &plain, &lib).key,
            prepare(
                &JobSpec {
                    convert: true,
                    ..base.clone()
                },
                &converted,
                &lib
            )
            .key
        );
        // The conversion keeps the FF circuit's derived clock.
        assert_eq!(
            plain.clock.max_path_delay().to_bits(),
            converted.clock.max_path_delay().to_bits()
        );
    }

    #[test]
    fn resolve_spec_reads_edif_onto_the_bench_canonical_form() {
        let lib = Library::fdsoi28();
        let text = "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nq = DFF(g)\ng = AND(a, b)\nz = OR(g, q)\n";
        let as_bench = JobSpec {
            circuit: CircuitRef::Inline {
                name: "t".into(),
                text: text.into(),
            },
            flow: FlowKind::Grar,
            overhead: EdlOverhead::MEDIUM,
            model: DelayModel::PathBased,
            clock: None,
            verify: false,
            format: InputFormat::Bench,
            convert: false,
        };
        let edif_text = retime_convert::edif::write(&bench::parse("t", text).unwrap());
        let as_edif = JobSpec {
            circuit: CircuitRef::Inline {
                name: "t".into(),
                text: edif_text,
            },
            format: InputFormat::Edif,
            ..as_bench.clone()
        };
        let a = resolve_spec(&as_bench, &lib).unwrap();
        let b = resolve_spec(&as_edif, &lib).unwrap();
        // Same circuit, either carrier format → same canonical text →
        // same cache key.
        assert_eq!(a.source_canonical, b.source_canonical);
        assert_eq!(
            prepare(&as_bench, &a, &lib).key,
            prepare(&as_edif, &b, &lib).key
        );
    }

    /// Resolution reports the first failing step with its text: parse
    /// errors (from the key step), then the build's extraction, clock
    /// and conversion errors.
    #[test]
    fn resolution_errors_keep_their_text_and_order() {
        let lib = Library::fdsoi28();
        let spec = |text: &str, format, convert| JobSpec {
            circuit: CircuitRef::Inline {
                name: "t".into(),
                text: text.into(),
            },
            flow: FlowKind::Grar,
            overhead: EdlOverhead::MEDIUM,
            model: DelayModel::PathBased,
            clock: None,
            verify: false,
            format,
            convert,
        };
        let latch = "INPUT(a)\nOUTPUT(q)\nm = LATCHM(a)\nq = LATCHS(m)\n";
        for (spec, want) in [
            (
                spec("INPUT(a)\nz = FOO(a)\n", InputFormat::Bench, true),
                "netlist parse error: parse error at line 2: unknown gate type `FOO`",
            ),
            (
                spec(
                    "INPUT(a)\nx = AND(a, y)\ny = OR(a, x)\nOUTPUT(x)\n",
                    InputFormat::Bench,
                    true,
                ),
                "netlist parse error: combinational cycle through cell `x`",
            ),
            (
                spec("(edif", InputFormat::Edif, true),
                "EDIF parse error: truncated input at line 1: 1 unclosed `(`",
            ),
            (
                spec(latch, InputFormat::Bench, true),
                "conversion failed: conversion error: source is not an edge-triggered FF \
                 netlist: wrong sequential style: netlist already contains latches",
            ),
        ] {
            assert_eq!(resolve_spec(&spec, &lib).unwrap_err(), want);
        }
        assert!(resolve_spec(&spec(latch, InputFormat::Bench, false), &lib).is_ok());
    }

    /// The daemon's split of the build: the half that borrows the text
    /// takes every circuit that reads, and the conversion error comes
    /// from the owned half, with the text `resolve_spec` gives.
    #[test]
    fn build_errors_come_from_the_owned_half() {
        let lib = Library::fdsoi28();
        let latch = "INPUT(a)\nOUTPUT(q)\nm = LATCHM(a)\nq = LATCHS(m)\n";
        let source = read_inline("t", latch, InputFormat::Bench).unwrap();
        let owned = canonical_netlist(source).unwrap();
        assert_eq!(owned.canonical, canonical_bench(&owned.netlist));
        assert_eq!(
            build_canonical(owned, true, &lib).unwrap_err(),
            "conversion failed: conversion error: source is not an edge-triggered FF \
             netlist: wrong sequential style: netlist already contains latches"
        );
    }

    #[test]
    fn unknown_suite_name_is_diagnosed() {
        let lib = Library::fdsoi28();
        let err = resolve_circuit(&CircuitRef::Suite("s0".into()), &lib).unwrap_err();
        assert!(err.contains("unknown suite circuit"));
    }

    #[test]
    fn inline_resolution_is_order_insensitive_end_to_end() {
        let lib = Library::fdsoi28();
        let a = resolve_circuit(
            &CircuitRef::Inline {
                name: "t".into(),
                text: "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nq = DFF(g)\ng = AND(a, b)\nz = OR(g, q)\n"
                    .into(),
            },
            &lib,
        )
        .unwrap();
        let b = resolve_circuit(
            &CircuitRef::Inline {
                name: "t".into(),
                text:
                    "INPUT(b)\n  g   = AND( a,b )\nz = OR(g, q)\nINPUT(a)\nq = DFF(g)\nOUTPUT(z)\n"
                        .into(),
            },
            &lib,
        )
        .unwrap();
        assert_eq!(a.source_canonical, b.source_canonical);
        assert_eq!(
            a.clock.max_path_delay().to_bits(),
            b.clock.max_path_delay().to_bits()
        );
    }
}
