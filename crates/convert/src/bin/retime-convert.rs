//! `retime-convert` — the edge-triggered → two-phase front door.
//!
//! ```text
//! retime-convert [OPTIONS] INPUT
//!
//!   INPUT                 .bench or EDIF 2.0.0 netlist (format from the
//!                         extension: .edif/.edn = EDIF, else .bench)
//!   --format bench|edif   override the input-format detection
//!   --out PATH            write the result (.edif/.edn = EDIF writer,
//!                         else .bench writer)
//!   --no-convert          parse + re-emit only (format conversion)
//!   --clock NS            explicit max-path delay; default derives a
//!                         clock from the converted critical path
//!   --cycles N            equivalence-proof cycles (default 256)
//!   --check 0|1           equivalence proof off/on (default 1)
//!   --retime              run Base / RVL-RAR / G-RAR on the converted
//!                         circuit and print a Table-IV-style row
//!                         (certified when RETIME_VERIFY=1; a rejected
//!                         certificate exits 1 with the checker's message)
//!   --c low|medium|high|X EDL overhead for --retime (default medium)
//! ```
//!
//! Exit status: 0 on success, 1 with a structured error on stderr for
//! bad input or a failed proof, 2 for usage errors. With
//! `RETIME_TRACE=1` the run records `edif_parse` / `convert` / `sta` /
//! `verify` spans like every other binary in the workspace.

use std::path::Path;

use retime_bench::{f2, pct_impr, print_table, run_flow, Certification, RunConfig};
use retime_convert::{convert, Conversion, ConvertConfig};
use retime_liberty::{EdlOverhead, Library};
use retime_netlist::{bench, Netlist};
use retime_sta::{DelayModel, TwoPhaseClock};
use retime_verify::FlowKind;

struct Options {
    input: String,
    format: Option<Format>,
    out: Option<String>,
    no_convert: bool,
    clock: Option<f64>,
    cycles: usize,
    check: bool,
    retime: bool,
    overhead: EdlOverhead,
    /// Certify `--retime`'s flows (`RETIME_VERIFY`).
    verify: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Bench,
    Edif,
}

fn main() {
    let cfg = RunConfig::from_env();
    let trace = retime_trace::TraceSession::with_config(cfg.trace);
    let opts = parse_args(cfg.verify);
    let code = match run(&opts) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("retime-convert: {e}");
            1
        }
    };
    trace.finish();
    std::process::exit(code);
}

fn run(opts: &Options) -> Result<(), String> {
    let path = Path::new(&opts.input);
    let src_text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", opts.input))?;
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "netlist".to_string());
    let format = opts.format.unwrap_or_else(|| detect_format(path));

    let source = match format {
        Format::Edif => {
            let design = retime_convert::edif::parse_full(&src_text)
                .map_err(|e| format!("EDIF parse failed: {e}"))?;
            let s = design.stats;
            println!(
                "parsed {name}: EDIF, {} cells / {} instances / {} nets ({} interned atoms)",
                s.cells, s.instances, s.nets, s.atoms
            );
            design.netlist
        }
        Format::Bench => {
            let n =
                bench::parse(&name, &src_text).map_err(|e| format!(".bench parse failed: {e}"))?;
            let s = n.stats();
            println!(
                "parsed {name}: .bench, {} inputs / {} outputs / {} gates / {} DFFs",
                s.inputs, s.outputs, s.gates, s.dffs
            );
            n
        }
    };

    if opts.no_convert {
        return emit(&source, opts);
    }

    let lib = Library::fdsoi28();
    let cfg = ConvertConfig {
        clock: opts.clock.map(TwoPhaseClock::from_max_delay),
        check: opts.check,
        cycles: opts.cycles,
        ..ConvertConfig::default()
    };
    let conv = convert(&source, &lib, &cfg).map_err(|e| e.to_string())?;
    print_report(&name, &conv);
    emit(&conv.netlist, opts)?;
    if opts.retime {
        retime_row(&name, &conv, &lib, opts)?;
    }
    Ok(())
}

fn print_report(name: &str, conv: &Conversion) {
    let r = &conv.report;
    println!(
        "converted {name}: {} FFs -> {} masters + {} slaves",
        r.ffs, r.masters, r.slaves
    );
    println!(
        "  sequential area  {} -> {}  (ratio {})",
        f2(r.ff_seq_area),
        f2(r.latch_seq_area),
        f2(r.seq_area_ratio())
    );
    println!(
        "  clock            max-path {} ns, crit {} ns, slack {} ns ({})",
        f2(r.max_path_delay),
        f2(r.crit_delay),
        f2(r.slack),
        if r.feasible { "feasible" } else { "INFEASIBLE" }
    );
    println!(
        "  borrowing        slave open {} / close {} ns (c6), backward limit {} ns (c7)",
        f2(r.slave_open),
        f2(r.slave_close),
        f2(r.backward_limit)
    );
    if r.checked_cycles > 0 {
        println!(
            "  equivalence      proven against the FF source over {} random cycles",
            r.checked_cycles
        );
    } else {
        println!("  equivalence      proof skipped (--check 0)");
    }
    println!("  stages           {}", conv.phases);
}

/// Runs the three flows on the converted circuit, certifies each when
/// asked, and prints one Table-IV-style row (sequential area,
/// improvement over base).
fn retime_row(name: &str, conv: &Conversion, lib: &Library, opts: &Options) -> Result<(), String> {
    let c = opts.overhead;
    let cloud = &conv.cloud;
    let clock = conv.clock;
    let model = DelayModel::PathBased;
    let mut rows = Vec::new();
    let mut base_area = 0.0;
    for kind in [FlowKind::Base, FlowKind::Vl, FlowKind::Grar] {
        let mut outcome = run_flow(kind, cloud, lib, clock, model, c)
            .map_err(|e| format!("{} failed on the converted circuit: {e}", kind.name()))?;
        if opts.verify {
            Certification::of_netlist(
                &conv.netlist,
                cloud,
                clock,
                c,
                kind,
                format!("{name} [convert/{}]", kind.name()),
            )
            .with_model(model)
            .run(lib, &mut outcome)
            .map_err(|e| e.to_string())?;
        }
        let seq = outcome.seq.total();
        if kind == FlowKind::Base {
            base_area = seq;
        }
        rows.push(vec![
            kind.name().to_string(),
            outcome.seq.slaves.to_string(),
            outcome.seq.masters.to_string(),
            outcome.seq.edl.to_string(),
            f2(seq),
            f2(pct_impr(base_area, seq)),
            f2(outcome.total_area),
        ]);
    }
    print_table(
        &format!(
            "Retiming the converted {name} (c = {}, PathBased)",
            c.value()
        ),
        &[
            "Flow",
            "Slaves",
            "Masters",
            "EDL",
            "SeqArea",
            "Impr%",
            "TotalArea",
        ],
        &rows,
    );
    Ok(())
}

fn emit(n: &Netlist, opts: &Options) -> Result<(), String> {
    let Some(out) = &opts.out else {
        return Ok(());
    };
    let text = match detect_format(Path::new(out)) {
        Format::Edif => retime_convert::edif::write(n),
        Format::Bench => bench::write(n),
    };
    std::fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

fn detect_format(path: &Path) -> Format {
    match path.extension().and_then(|e| e.to_str()) {
        Some(ext) if ext.eq_ignore_ascii_case("edif") || ext.eq_ignore_ascii_case("edn") => {
            Format::Edif
        }
        _ => Format::Bench,
    }
}

fn parse_args(verify: bool) -> Options {
    let mut opts = Options {
        input: String::new(),
        format: None,
        out: None,
        no_convert: false,
        clock: None,
        cycles: 256,
        check: true,
        retime: false,
        overhead: EdlOverhead::MEDIUM,
        verify,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => {
                opts.format = Some(match expect_value(&mut args, "--format").as_str() {
                    "bench" => Format::Bench,
                    "edif" => Format::Edif,
                    other => usage_error(&format!("--format wants bench|edif, got {other:?}")),
                });
            }
            "--out" => opts.out = Some(expect_value(&mut args, "--out")),
            "--no-convert" => opts.no_convert = true,
            "--clock" => {
                let raw = expect_value(&mut args, "--clock");
                match raw.parse::<f64>() {
                    Ok(x) if x > 0.0 => opts.clock = Some(x),
                    _ => usage_error(&format!("--clock wants a positive number, got {raw:?}")),
                }
            }
            "--cycles" => {
                let raw = expect_value(&mut args, "--cycles");
                opts.cycles = raw.parse().unwrap_or_else(|_| {
                    usage_error(&format!(
                        "--cycles wants a non-negative integer, got {raw:?}"
                    ))
                });
            }
            "--check" => {
                let raw = expect_value(&mut args, "--check");
                opts.check = match raw.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_error(&format!("--check wants 0|1, got {raw:?}")),
                };
            }
            "--retime" => opts.retime = true,
            "--c" => {
                let raw = expect_value(&mut args, "--c");
                opts.overhead = match raw.to_ascii_lowercase().as_str() {
                    "low" => EdlOverhead::LOW,
                    "medium" => EdlOverhead::MEDIUM,
                    "high" => EdlOverhead::HIGH,
                    _ => match raw.parse::<f64>() {
                        Ok(x) if x > 0.0 => EdlOverhead::new(x),
                        _ => usage_error(&format!(
                            "--c wants low|medium|high or a positive number, got {raw:?}"
                        )),
                    },
                };
            }
            "--help" | "-h" => {
                println!(
                    "usage: retime-convert [--format bench|edif] [--out PATH] \
                     [--no-convert] [--clock NS] [--cycles N] [--check 0|1] \
                     [--retime] [--c low|medium|high|X] INPUT"
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                usage_error(&format!("unknown argument {other:?} (try --help)"))
            }
            _ if opts.input.is_empty() => opts.input = arg,
            _ => usage_error("only one INPUT is accepted"),
        }
    }
    if opts.input.is_empty() {
        usage_error("an INPUT netlist is required");
    }
    opts
}

fn expect_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
}

fn usage_error(message: &str) -> ! {
    eprintln!("retime-convert: {message}");
    std::process::exit(2);
}
