//! Job specification, circuit resolution, and flow execution.
//!
//! A submitted job names a circuit (suite name or inline `.bench` text),
//! a flow, an overhead, and options. Resolution turns that into a built
//! circuit with a clock and a canonical netlist text; execution runs the
//! named flow through the same entry points the table binaries use and
//! renders the deterministic result payload the cache stores.

use retime_bench::{build_case, Certification};
use retime_circuits::paper_suite;
use retime_convert::{CheckMode, ConvertConfig};
use retime_core::{grar, GrarConfig};
use retime_liberty::{EdlOverhead, Library};
use retime_netlist::{bench, CombCloud, Netlist, NodeId};
use retime_retime::{base_retime, RetimeError, RetimeOutcome};
use retime_sta::{DelayModel, StatParams, TwoPhaseClock};
use retime_verify::FlowKind;
use retime_vl::{vl_retime, VlConfig, VlVariant};

use crate::canon::{cache_key, canonical_bench, KeyConfig};
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
    /// Parses a `submit` command object.
    ///
    /// # Errors
    /// Returns a one-line diagnosis for missing or malformed fields.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let circuit = match (v.get("circuit"), v.get("netlist")) {
            (Some(c), None) => CircuitRef::Suite(
                c.as_str()
                    .ok_or("`circuit` must be a suite circuit name")?
                    .to_string(),
            ),
            (None, Some(t)) => CircuitRef::Inline {
                name: v
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("inline")
                    .to_string(),
                text: t.as_str().ok_or("`netlist` must be a string")?.to_string(),
            },
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
        // `StatParams::DEFAULT` fallbacks.
        let model_field = v.get("model").or_else(|| v.get("delay_mode"));
        let model = match model_field.and_then(Json::as_str) {
            None | Some("path") => DelayModel::PathBased,
            Some("gate") => DelayModel::GateBased,
            Some("statistical") | Some("stat") => {
                let d = StatParams::DEFAULT;
                let frac = |key: &str, default: f64| -> Result<f64, String> {
                    match v.get(key) {
                        None => Ok(default),
                        Some(Json::Num(x)) if *x >= 0.0 && *x < 1.0 => Ok(*x),
                        Some(_) => Err(format!("`{key}` must be a fraction in [0, 1)")),
                    }
                };
                let sigma = frac("sigma", d.sigma_frac())?;
                let clock_sigma = frac("clock_sigma", d.clock_sigma_frac())?;
                let yield_target = match v.get("yield") {
                    None => d.yield_target(),
                    Some(Json::Num(x)) if *x > 0.0 && *x < 1.0 => *x,
                    Some(_) => return Err("`yield` must be a fraction in (0, 1)".into()),
                };
                let seed = match v.get("stat_seed") {
                    None => d.seed,
                    Some(Json::Num(x)) if *x >= 0.0 && x.fract() == 0.0 => *x as u64,
                    Some(_) => return Err("`stat_seed` must be a non-negative integer".into()),
                };
                DelayModel::Statistical(StatParams::new(sigma, clock_sigma, yield_target, seed))
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
/// canonical text (the cache-key input).
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
    /// Canonical `.bench` text.
    pub canonical: String,
}

/// Resolves a [`CircuitRef`]: suite names build and calibrate the
/// matching Table I circuit (exactly like the table binaries); inline
/// text is parsed, canonicalized, and **re-parsed from its canonical
/// form**, so the flow result depends only on the cache key, never on
/// the submitted statement order.
///
/// # Errors
/// Returns a one-line diagnosis for unknown suite names, parse errors,
/// or STA failures while deriving a clock.
pub fn resolve_circuit(circuit: &CircuitRef, lib: &Library) -> Result<ResolvedCircuit, String> {
    match circuit {
        CircuitRef::Suite(name) => {
            let spec = paper_suite()
                .into_iter()
                .find(|s| s.name == name.as_str())
                .ok_or_else(|| format!("unknown suite circuit {name:?}"))?;
            let case = build_case(&spec, lib);
            let canonical = canonical_bench(&case.circuit.netlist);
            Ok(ResolvedCircuit {
                name: name.clone(),
                netlist: case.circuit.netlist,
                cloud: case.circuit.cloud,
                clock: case.clock,
                canonical,
            })
        }
        CircuitRef::Inline { name, text } => {
            let parsed =
                bench::parse(name, text).map_err(|e| format!("netlist parse error: {e}"))?;
            resolve_parsed(name, &parsed, lib)
        }
    }
}

/// Shared inline tail: canonicalize a parsed netlist and **re-parse it
/// from its canonical form**, so the flow result depends only on the
/// cache key — never on the submitted statement order, and never on
/// which format (`.bench` or EDIF) carried the circuit in. An EDIF
/// submission and a `.bench` submission of the same circuit land on the
/// same canonical text and therefore the same cache entry.
fn resolve_parsed(name: &str, parsed: &Netlist, lib: &Library) -> Result<ResolvedCircuit, String> {
    let canonical = canonical_bench(parsed);
    let netlist =
        bench::parse(name, &canonical).map_err(|e| format!("canonical re-parse error: {e}"))?;
    let cloud = CombCloud::extract(&netlist).map_err(|e| format!("cloud extraction: {e}"))?;
    let clock = retime_circuits::relaxed_clock(&cloud, lib)
        .map_err(|e| format!("clock derivation: {e}"))?;
    Ok(ResolvedCircuit {
        name: name.to_string(),
        netlist,
        cloud,
        clock,
        canonical,
    })
}

/// Resolves a full submission: [`resolve_circuit`] extended with the
/// spec's input `format` (EDIF inline text goes through
/// `retime-convert`'s parser) and its `convert` switch (the resolved
/// edge-triggered circuit is split into a two-phase master/slave
/// circuit before the flow sees it, equivalence-proven by simulation
/// unless `RETIME_CONVERT_CHECK=0`). The returned canonical text is of
/// the circuit the flow actually runs on, so converted and unconverted
/// submissions of the same source can never alias a cache entry even
/// before [`KeyConfig::convert`] separates their keys.
///
/// # Errors
/// Returns a one-line diagnosis for parse, conversion, equivalence, or
/// STA failures.
pub fn resolve_spec(spec: &JobSpec, lib: &Library) -> Result<ResolvedCircuit, String> {
    let base = match (&spec.circuit, spec.format) {
        (CircuitRef::Inline { name, text }, InputFormat::Edif) => {
            let parsed =
                retime_convert::edif::parse(text).map_err(|e| format!("EDIF parse error: {e}"))?;
            resolve_parsed(name, &parsed, lib)?
        }
        _ => resolve_circuit(&spec.circuit, lib)?,
    };
    if !spec.convert {
        return Ok(base);
    }
    let cfg = ConvertConfig {
        clock: Some(base.clock),
        check: CheckMode::from_env().resolve(true),
        ..ConvertConfig::default()
    };
    let conv = retime_convert::convert(&base.netlist, lib, &cfg)
        .map_err(|e| format!("conversion failed: {e}"))?;
    let canonical = canonical_bench(&conv.netlist);
    Ok(ResolvedCircuit {
        name: base.name,
        netlist: conv.netlist,
        cloud: conv.cloud,
        clock: conv.clock,
        canonical,
    })
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
    let clock = spec
        .clock
        .map_or(circuit.clock, TwoPhaseClock::from_max_delay);
    let key_config = KeyConfig {
        flow: spec.flow,
        overhead: spec.overhead,
        clock,
        model: spec.model,
        verify: spec.verify,
        convert: spec.convert,
    };
    let key = cache_key(&circuit.canonical, lib, &key_config);
    PreparedJob { key_config, key }
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

/// Runs the configured flow on a resolved circuit — the same entry
/// points (`base_retime` / `grar` / `vl_retime`) a direct call uses, so
/// a cached payload is bit-identical to a fresh one.
///
/// # Errors
/// Propagates flow failures and rejected certificates.
pub fn execute(
    cfg: &KeyConfig,
    circuit: &ResolvedCircuit,
    lib: &Library,
) -> Result<JobOutput, RetimeError> {
    let cloud = &circuit.cloud;
    let mut outcome = match cfg.flow {
        FlowKind::Base => base_retime(cloud, lib, cfg.clock, cfg.model, cfg.overhead)?,
        FlowKind::Grar => {
            grar(
                cloud,
                lib,
                cfg.clock,
                &GrarConfig::new(cfg.overhead).with_model(cfg.model),
            )?
            .outcome
        }
        FlowKind::Vl => {
            vl_retime(
                cloud,
                lib,
                cfg.clock,
                &VlConfig::new(VlVariant::Rvl, cfg.overhead).with_model(cfg.model),
            )?
            .outcome
        }
    };
    finish_execution(cfg, circuit, lib, &mut outcome, None)
}

/// [`execute`] with a warm slot threaded through the flow's
/// min-cost-flow solve — the worker pool's path for ECO re-submissions
/// (see [`crate::warm::WarmPool`]). A `None` slot solves cold and leaves
/// a memo of the solved instance behind for the next job with the same
/// [`crate::canon::warm_key`]; a job whose instance matches the memo is
/// answered from it. Results are bit-identical to [`execute`] either
/// way, and with `verify:true` the memo's flow solution is additionally
/// certified against an independent reference solve.
///
/// # Errors
/// Propagates flow failures, rejected certificates, and warm/cold
/// mismatches.
pub fn execute_with_slot(
    cfg: &KeyConfig,
    circuit: &ResolvedCircuit,
    lib: &Library,
    slot: &mut Option<retime_retime::RetimingSweep>,
) -> Result<JobOutput, RetimeError> {
    let cloud = &circuit.cloud;
    let mut outcome = match cfg.flow {
        FlowKind::Base => {
            retime_retime::base_retime_sweep(cloud, lib, cfg.clock, cfg.model, cfg.overhead, slot)?
        }
        FlowKind::Grar => {
            retime_core::grar_with_sweep(
                cloud,
                lib,
                cfg.clock,
                &GrarConfig::new(cfg.overhead).with_model(cfg.model),
                slot,
            )?
            .outcome
        }
        FlowKind::Vl => {
            retime_vl::vl_retime_with_sweep(
                cloud,
                lib,
                cfg.clock,
                &VlConfig::new(VlVariant::Rvl, cfg.overhead).with_model(cfg.model),
                slot,
            )?
            .outcome
        }
    };
    finish_execution(cfg, circuit, lib, &mut outcome, slot.as_ref())
}

/// Shared tail of [`execute`] / [`execute_with_slot`]: optional
/// certification (including the memo's answer, checked against a
/// reference re-solve, when a slot produced the solution) and payload
/// rendering.
fn finish_execution(
    cfg: &KeyConfig,
    circuit: &ResolvedCircuit,
    lib: &Library,
    outcome: &mut RetimeOutcome,
    sweep: Option<&retime_retime::RetimingSweep>,
) -> Result<JobOutput, RetimeError> {
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
        .run(lib, outcome)?;
        if let Some((problem, warm)) = sweep.and_then(retime_retime::RetimingSweep::last_solved) {
            retime_verify::verify_retiming_solution(problem, warm)
                .map_err(|e| RetimeError::Internal(format!("warm certificate rejected: {e}")))?;
        }
    }
    let payload = render_payload(&circuit.name, cfg, &circuit.cloud, outcome);
    let payload_sha256 = sha256_hex(payload.as_bytes());
    Ok(JobOutput {
        payload,
        payload_sha256,
        solver_invocations: outcome.phases.counter("solver_invocations"),
        phases: outcome.phases.clone(),
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
    let moved: Vec<u8> = (0..cloud.len())
        .map(|i| u8::from(outcome.cut.is_moved(NodeId(i as u32))))
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
        assert_ne!(plain.canonical, converted.canonical);
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
        assert_eq!(a.canonical, b.canonical);
        assert_eq!(
            prepare(&as_bench, &a, &lib).key,
            prepare(&as_edif, &b, &lib).key
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
        assert_eq!(a.canonical, b.canonical);
        assert_eq!(
            a.clock.max_path_delay().to_bits(),
            b.clock.max_path_delay().to_bits()
        );
    }
}
