//! The edge-triggered → two-phase conversion pass.
//!
//! Takes an ordinary single-phase FF netlist and produces the legal
//! two-phase master/slave latch circuit the retiming flows expect
//! (Section II of the paper): every flip-flop splits into a master
//! latch on φ1 (kept fixed at the FF's location) and a slave latch on
//! φ2 (the element retiming later moves), mapped onto the calibrated
//! latch cell of the target [`Library`].
//!
//! The pass runs its stages through [`PhaseTimings::stage`] so it
//! reports the same instrumentation as the flows — a `convert` front stage
//! ([`Stage::Convert`]) for the split and the structural invariant
//! check, an `sta` stage for the conversion-time clock/borrowing
//! constraint report, and a `verify` stage that proves the converted
//! circuit functionally equivalent to its FF source by random
//! simulation ([`retime_sim::equivalent`]).

use retime_engine::{PhaseTimings, Stage};
use retime_liberty::Library;
use retime_netlist::{CombCloud, Cut, Netlist};
use retime_sta::{DelayModel, TimingAnalysis, TwoPhaseClock};

use crate::error::ConvertError;

/// Conversion options. `check`/`cycles`/`seed` drive the simulation
/// proof; a `None` clock derives one from the converted circuit's
/// critical path the same way `retime-serve` does for inline
/// submissions (crit + latch flow-through, divided by 0.7).
#[derive(Debug, Clone, Copy)]
pub struct ConvertConfig {
    /// Two-phase clock to report constraints against (`None` = derive).
    pub clock: Option<TwoPhaseClock>,
    /// Prove functional equivalence by simulation.
    pub check: bool,
    /// Random cycles the equivalence proof simulates.
    pub cycles: usize,
    /// Stimulus seed for the equivalence proof.
    pub seed: u64,
}

impl Default for ConvertConfig {
    fn default() -> ConvertConfig {
        ConvertConfig {
            clock: None,
            check: true,
            cycles: 256,
            seed: 0x5EED_2017,
        }
    }
}

/// The conversion-time constraint report: what was split, the area
/// bill against the library's FF and latch cells, and the clock /
/// time-borrowing envelope of the chosen two-phase clock (constraints
/// 6 and 7 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvertReport {
    /// Flip-flops split.
    pub ffs: usize,
    /// Master latches in the converted circuit.
    pub masters: usize,
    /// Slave latches in the converted circuit.
    pub slaves: usize,
    /// Sequential area of the FF source (`ffs × ff.area`).
    pub ff_seq_area: f64,
    /// Sequential area after conversion (`(masters+slaves) × latch.area`).
    pub latch_seq_area: f64,
    /// Critical combinational path delay (ns).
    pub crit_delay: f64,
    /// The clock's maximum borrowable path delay (period + φ1).
    pub max_path_delay: f64,
    /// `max_path_delay − crit_delay` (negative = infeasible as placed).
    pub slack: f64,
    /// Whether the converted circuit meets the clock before retiming.
    pub feasible: bool,
    /// When slaves open for forward borrowing (φ1 + γ1).
    pub slave_open: f64,
    /// Forward borrowing deadline (φ1 + γ1 + φ2, constraint 6).
    pub slave_close: f64,
    /// Backward borrowing limit (φ2 + γ2 + φ1, constraint 7).
    pub backward_limit: f64,
    /// Cycles the equivalence proof simulated (0 = proof skipped).
    pub checked_cycles: usize,
}

impl ConvertReport {
    /// Converted sequential area over source sequential area (< 1 when
    /// two latches are cheaper than one FF, as in the paper's library).
    pub fn seq_area_ratio(&self) -> f64 {
        if self.ff_seq_area > 0.0 {
            self.latch_seq_area / self.ff_seq_area
        } else {
            1.0
        }
    }
}

/// A finished conversion: the two-phase netlist, its retiming view,
/// the clock the constraints were reported against, the report, and
/// the pass instrumentation.
#[derive(Debug)]
pub struct Conversion {
    /// The converted master/slave netlist.
    pub netlist: Netlist,
    /// Its combinational retiming view (ready for the flows).
    pub cloud: CombCloud,
    /// The clock constraints were reported against.
    pub clock: TwoPhaseClock,
    /// Counts, areas, and borrowing envelope.
    pub report: ConvertReport,
    /// Per-stage wall-clock and counters (`convert` / `sta` / `verify`).
    pub phases: PhaseTimings,
}

/// Converts an edge-triggered FF netlist into a two-phase master/slave
/// latch circuit, validates the one-slave-per-master-to-master-path
/// invariant, and reports the conversion-time constraints.
///
/// # Errors
/// Returns [`ConvertError::Convert`] when `src` already contains
/// latches or the converted circuit violates the structural invariant,
/// [`ConvertError::Sta`] when timing analysis fails, and
/// [`ConvertError::NotEquivalent`] if the simulation proof ever
/// disagrees (which would indicate a splitter bug).
pub fn convert(
    src: &Netlist,
    lib: &Library,
    cfg: &ConvertConfig,
) -> Result<Conversion, ConvertError> {
    let mut phases = PhaseTimings::new();
    let (netlist, cloud) = phases.stage(Stage::Convert, |timings| split(src, timings))?;
    let (clock, mut report) = phases.stage(Stage::Sta, |_| {
        constraints(src, &netlist, &cloud, lib, cfg.clock)
    })?;
    if cfg.check {
        // Prove the converted circuit bit-equivalent to its FF source
        // over `cfg.cycles` random cycles.
        phases.stage(Stage::Verify, |timings| {
            if let Err(cycle) = retime_sim::equivalent(src, &netlist, cfg.cycles, cfg.seed)? {
                return Err(ConvertError::NotEquivalent { cycle });
            }
            timings.count("convert_checked_cycles", cfg.cycles as u64);
            Ok(())
        })?;
        report.checked_cycles = cfg.cycles;
    }
    Ok(Conversion {
        netlist,
        cloud,
        clock,
        report,
        phases,
    })
}

/// Split every FF into a master/slave pair and validate the invariant:
/// every master-to-master (host) path must cross exactly one slave.
fn split(src: &Netlist, timings: &mut PhaseTimings) -> Result<(Netlist, CombCloud), ConvertError> {
    let ms = src.to_master_slave().map_err(|e| {
        ConvertError::Convert(format!("source is not an edge-triggered FF netlist: {e}"))
    })?;
    let cloud = CombCloud::extract(&ms)?;
    let cut = Cut::initial(&cloud);
    cut.validate(&cloud)?;
    if !cut.check_paths(&cloud) {
        return Err(ConvertError::Convert(
            "converted circuit violates the one-slave-per-path invariant".into(),
        ));
    }
    let stats = ms.stats();
    timings.count("convert_ffs", src.stats().dffs as u64);
    timings.count("convert_masters", stats.masters as u64);
    timings.count("convert_slaves", stats.slaves as u64);
    Ok((ms, cloud))
}

/// Report the conversion-time clock and borrowing constraints against
/// `clock`, or against one derived from the critical path.
fn constraints(
    src: &Netlist,
    ms: &Netlist,
    cloud: &CombCloud,
    lib: &Library,
    clock: Option<TwoPhaseClock>,
) -> Result<(TwoPhaseClock, ConvertReport), ConvertError> {
    let probe = TimingAnalysis::new(
        cloud,
        lib,
        TwoPhaseClock::from_max_delay(1.0),
        DelayModel::PathBased,
    )
    .map_err(|e| ConvertError::Sta(e.to_string()))?;
    let crit = cloud
        .sinks()
        .iter()
        .map(|&t| probe.df(t))
        .fold(0.0f64, f64::max);
    let latch = lib.latch();
    let clock = clock.unwrap_or_else(|| {
        TwoPhaseClock::from_max_delay((crit + latch.d_to_q + latch.clk_to_q) / 0.7)
    });
    let src_stats = src.stats();
    let ms_stats = ms.stats();
    let max_path = clock.max_path_delay();
    let report = ConvertReport {
        ffs: src_stats.dffs,
        masters: ms_stats.masters,
        slaves: ms_stats.slaves,
        ff_seq_area: src_stats.dffs as f64 * lib.flip_flop().area,
        latch_seq_area: (ms_stats.masters + ms_stats.slaves) as f64 * latch.area,
        crit_delay: crit,
        max_path_delay: max_path,
        slack: max_path - crit,
        feasible: crit <= max_path,
        slave_open: clock.slave_open(),
        slave_close: clock.slave_close(),
        backward_limit: clock.backward_limit(),
        checked_cycles: 0,
    };
    Ok((clock, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_netlist::bench;

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

    #[test]
    fn converts_and_reports() {
        let lib = Library::fdsoi28();
        let src = bench::parse("s27ish", S27_LIKE).unwrap();
        let conv = convert(&src, &lib, &ConvertConfig::default()).unwrap();
        let r = conv.report;
        assert_eq!((r.ffs, r.masters, r.slaves), (2, 2, 2));
        assert_eq!(conv.netlist.stats().dffs, 0);
        // The paper's library: two latches are cheaper than one FF.
        assert!(r.seq_area_ratio() < 1.0, "ratio {}", r.seq_area_ratio());
        assert!(r.feasible, "derived clock must fit the critical path");
        assert!(r.slave_open < r.slave_close);
        assert!(r.backward_limit > 0.0);
        assert_eq!(r.checked_cycles, 256);
        assert!(conv.phases.get(Stage::Convert) > std::time::Duration::ZERO);
        assert_eq!(conv.phases.counter("convert_ffs"), 2);
        assert_eq!(conv.phases.counter("convert_slaves"), 2);
    }

    #[test]
    fn explicit_clock_is_reported_verbatim() {
        let lib = Library::fdsoi28();
        let src = bench::parse("t", S27_LIKE).unwrap();
        let clock = TwoPhaseClock::from_max_delay(42.0);
        let conv = convert(
            &src,
            &lib,
            &ConvertConfig {
                clock: Some(clock),
                ..ConvertConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            conv.clock.max_path_delay().to_bits(),
            clock.max_path_delay().to_bits()
        );
        assert_eq!(
            conv.report.max_path_delay.to_bits(),
            clock.max_path_delay().to_bits()
        );
    }

    #[test]
    fn check_off_skips_the_proof() {
        let lib = Library::fdsoi28();
        let src = bench::parse("t", S27_LIKE).unwrap();
        let conv = convert(
            &src,
            &lib,
            &ConvertConfig {
                check: false,
                ..ConvertConfig::default()
            },
        )
        .unwrap();
        assert_eq!(conv.report.checked_cycles, 0);
        assert_eq!(conv.phases.counter("convert_checked_cycles"), 0);
    }

    #[test]
    fn rejects_an_already_converted_circuit() {
        let lib = Library::fdsoi28();
        let ms = bench::parse("t", S27_LIKE)
            .unwrap()
            .to_master_slave()
            .unwrap();
        let err = convert(&ms, &lib, &ConvertConfig::default()).unwrap_err();
        assert!(matches!(err, ConvertError::Convert(_)), "{err}");
    }

    #[test]
    fn combinational_circuits_convert_trivially() {
        let lib = Library::fdsoi28();
        let src = bench::parse("comb", "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n").unwrap();
        let conv = convert(&src, &lib, &ConvertConfig::default()).unwrap();
        assert_eq!(conv.report.ffs, 0);
        assert_eq!(conv.report.seq_area_ratio(), 1.0);
        assert_eq!(conv.report.checked_cycles, 256);
    }
}
