//! The benchmark suite calibrated to the paper's Table I.
//!
//! Each entry mirrors a published circuit: the flip-flop count is taken
//! verbatim from Table I, the gate count is derived from the published
//! area (total area minus `flops × FF-area`, divided by the mean cell
//! area of the built-in library), the depth from the published `P`, and
//! the number of deep endpoints from the published NCE column. The
//! genuine netlists are not redistributable; see `DESIGN.md` for the
//! substitution rationale.

use retime_liberty::Library;
use retime_netlist::{CombCloud, Netlist, NetlistError, NodeKind};
use retime_sta::{DelayModel, TimingAnalysis, TwoPhaseClock};

use crate::rtl::plasma_like;
use crate::synth::SynthConfig;

/// A suite entry: published statistics plus generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitSpec {
    /// Benchmark name (`s1196` … `s38584`, `plasma`).
    pub name: &'static str,
    /// Flip-flop count (Table I `flop #`).
    pub flops: usize,
    /// Near-critical endpoint target (Table I `NCE #`).
    pub nce: usize,
    /// How many of those are genuinely critical (unrescuable) paths —
    /// calibrated to the residual G-RAR EDL counts of Table VI.
    pub hard: usize,
    /// Published max combinational delay `P` in ns (Table I `P`),
    /// recorded for reference; the actual clock is re-calibrated to this
    /// library via [`SuiteCircuit::calibrated_clock`].
    pub paper_p: f64,
    /// Published total area (Table I `Area`), recorded for reference.
    pub paper_area: f64,
    /// Combinational gate budget (derived from the published area).
    pub gates: usize,
    /// Primary inputs / outputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Logic depth (derived from the published `P`).
    pub levels: usize,
    /// Generation seed.
    pub seed: u64,
}

/// A built suite circuit.
#[derive(Debug, Clone)]
pub struct SuiteCircuit {
    /// The generation spec.
    pub spec: CircuitSpec,
    /// The flip-flop netlist.
    pub netlist: Netlist,
    /// Its retiming view.
    pub cloud: CombCloud,
}

impl CircuitSpec {
    /// Builds the circuit (deterministic).
    ///
    /// # Errors
    /// Propagates generation errors.
    pub fn build(&self) -> Result<SuiteCircuit, NetlistError> {
        let netlist = if self.name == "plasma" {
            plasma_like(32, 32)?
        } else {
            SynthConfig {
                name: self.name.to_string(),
                flops: self.flops,
                gates: self.gates,
                inputs: self.inputs,
                outputs: self.outputs,
                levels: self.levels,
                deep_sinks: self.nce,
                hard_sinks: self.hard,
                seed: self.seed,
            }
            .generate()?
        };
        let cloud = CombCloud::extract(&netlist)?;
        Ok(SuiteCircuit {
            spec: self.clone(),
            netlist,
            cloud,
        })
    }
}

impl SuiteCircuit {
    /// Calibrates the two-phase clock for this circuit against a library.
    ///
    /// Follows the paper ("`P` is set so that the *initial* number of
    /// near-critical end-points is reasonable"): a near-critical endpoint
    /// is one whose arrival **with the slaves at their initial positions**
    /// falls inside the resiliency window. With the slave at the source,
    /// that arrival is `0.3 P + ckq + path`, so `NCE(P) = #{path > 0.4 P −
    /// ckq}` and the published NCE count pins `P` to a path quantile.
    ///
    /// A feasibility floor keeps every endpoint *rescuable by retiming*
    /// (`Π ≥ crit + d_q + ckq`), which is what lets G-RAR drive the EDL
    /// count toward zero as in Table VI.
    ///
    /// # Errors
    /// Propagates STA errors.
    pub fn calibrated_clock(
        &self,
        lib: &Library,
        model: DelayModel,
    ) -> Result<TwoPhaseClock, retime_sta::StaError> {
        let sta = TimingAnalysis::new(&self.cloud, lib, TwoPhaseClock::from_max_delay(1.0), model)?;
        let crit = self
            .cloud
            .sinks()
            .iter()
            .map(|&t| sta.df(t))
            .fold(0.0f64, f64::max);
        let latch = lib.latch();
        let p = if self.spec.hard > 0 {
            // Tight clock: the full-depth tails sit at the edge of the
            // window (genuinely critical, unrescuable), exactly like a
            // circuit synthesized against P.
            crit / 0.95
        } else {
            // Relaxed clock: every path fits under Π once retimed
            // (Π ≥ crit + latch flow-through), so G-RAR can clear the EDL
            // entirely — the regime of the paper's larger circuits.
            (crit + latch.d_to_q + latch.clk_to_q) / 0.7
        };
        Ok(TwoPhaseClock::from_max_delay(p))
    }

    /// Count of near-critical (master-backed) endpoints under a clock:
    /// endpoints whose arrival with the **initial** slave placement falls
    /// past `Π` (the paper's Table I definition).
    ///
    /// # Errors
    /// Propagates STA errors.
    pub fn nce_count(
        &self,
        lib: &Library,
        model: DelayModel,
        clock: TwoPhaseClock,
    ) -> Result<usize, retime_sta::StaError> {
        let sta = TimingAnalysis::new(&self.cloud, lib, clock, model)?;
        let timing = sta.cut_timing(&retime_netlist::Cut::initial(&self.cloud));
        let pi = clock.period();
        Ok(self
            .cloud
            .sinks()
            .iter()
            .enumerate()
            .filter(|&(i, &t)| {
                matches!(self.cloud.node(t).kind, NodeKind::Sink { master: Some(_) })
                    && timing.sink_arrivals[i] > pi + 1e-9
            })
            .count())
    }
}

/// A relaxed clock for a circuit with no calibration target: the
/// path-based critical path plus the latch flow-through, divided by
/// 0.7 — the regime [`SuiteCircuit::calibrated_clock`] uses for
/// rescuable circuits. Inline serve submissions without a `clock` get
/// it.
///
/// # Errors
/// Propagates STA errors.
pub fn relaxed_clock(
    cloud: &CombCloud,
    lib: &Library,
) -> Result<TwoPhaseClock, retime_sta::StaError> {
    let sta = TimingAnalysis::new(
        cloud,
        lib,
        TwoPhaseClock::from_max_delay(1.0),
        DelayModel::PathBased,
    )?;
    let crit = cloud
        .sinks()
        .iter()
        .map(|&t| sta.df(t))
        .fold(0.0f64, f64::max);
    let latch = lib.latch();
    Ok(TwoPhaseClock::from_max_delay(
        (crit + latch.d_to_q + latch.clk_to_q) / 0.7,
    ))
}

/// The twelve circuits of Table I. Gate budgets derive from the published
/// areas (`(area − flops × 3.26 µm²) / 0.72 µm²`), depths from the
/// published `P` at ≈18 ps per level.
pub fn paper_suite() -> Vec<CircuitSpec> {
    let spec = |name: &'static str,
                paper_p: f64,
                flops: usize,
                nce: usize,
                hard: usize,
                paper_area: f64,
                inputs: usize,
                outputs: usize,
                seed: u64| {
        let ff_area = 3.26;
        let mean_cell = 0.72;
        let comb_area = (paper_area - flops as f64 * ff_area).max(50.0);
        let gates = (comb_area / mean_cell).round() as usize;
        let levels = ((paper_p / 0.012).round() as usize).clamp(12, 180);
        CircuitSpec {
            name,
            flops,
            nce,
            hard,
            paper_p,
            paper_area,
            gates,
            inputs,
            outputs,
            levels,
            seed,
        }
    };
    vec![
        spec("s1196", 0.4, 32, 6, 11, 376.18, 14, 14, 0x5_1196),
        spec("s1238", 0.5, 32, 4, 6, 334.89, 14, 14, 0x5_1238),
        spec("s1423", 0.6, 91, 54, 3, 559.9, 17, 5, 0x5_1423),
        spec("s1488", 0.4, 14, 6, 6, 264.38, 8, 19, 0x5_1488),
        spec("s5378", 0.5, 198, 55, 2, 1149.42, 35, 49, 0x5_5378),
        spec("s9234", 0.5, 160, 61, 3, 893.36, 36, 39, 0x5_9234),
        spec("s13207", 0.5, 502, 188, 6, 2670.28, 62, 152, 0x5_13207),
        spec("s15850", 0.8, 524, 174, 0, 2980.52, 77, 150, 0x5_15850),
        spec("s35932", 1.0, 1763, 288, 0, 9681.35, 35, 320, 0x5_35932),
        spec("s38417", 1.0, 1494, 213, 0, 8635.73, 28, 106, 0x5_38417),
        spec("s38584", 0.7, 1271, 632, 0, 8100.11, 38, 304, 0x5_38584),
        CircuitSpec {
            name: "plasma",
            flops: 1127, // 32×32 regfile + PC + ID/EX pipeline registers
            nce: 217,
            hard: 0,
            paper_p: 2.1,
            paper_area: 10371.2,
            gates: 0, // structured generator
            inputs: 33,
            outputs: 64,
            levels: 0,
            seed: 0,
        },
    ]
}

/// The small-to-medium prefix of the suite (fast enough for unit tests
/// and criterion benches).
pub fn small_suite() -> Vec<CircuitSpec> {
    paper_suite()
        .into_iter()
        .filter(|s| s.flops <= 200)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_twelve_entries() {
        let suite = paper_suite();
        assert_eq!(suite.len(), 12);
        assert_eq!(suite.last().unwrap().name, "plasma");
    }

    #[test]
    fn small_circuits_build_with_published_stats() {
        for spec in paper_suite().into_iter().take(4) {
            let c = spec.build().unwrap();
            let s = c.netlist.stats();
            assert_eq!(s.dffs, spec.flops, "{}", spec.name);
            assert!(s.gates >= spec.gates, "{}", spec.name);
            c.netlist.validate().unwrap();
        }
    }

    #[test]
    fn clock_calibration_tracks_nce() {
        let spec = paper_suite()
            .into_iter()
            .find(|s| s.name == "s1423")
            .unwrap();
        let c = spec.build().unwrap();
        let lib = Library::fdsoi28();
        let clock = c.calibrated_clock(&lib, DelayModel::PathBased).unwrap();
        let nce = c.nce_count(&lib, DelayModel::PathBased, clock).unwrap();
        // Published NCE is 54 of 91 flops; the calibration must land in a
        // sensible band (feasibility can cap it below the target).
        assert!(nce > 0, "calibration must leave some endpoints critical");
        assert!(nce <= 91);
        let ratio = nce as f64 / spec.nce as f64;
        assert!(
            (0.3..=2.0).contains(&ratio),
            "calibrated NCE {nce} too far from target {}",
            spec.nce
        );
    }

    #[test]
    fn deterministic_build() {
        let spec = &paper_suite()[0];
        let a = spec.build().unwrap();
        let b = spec.build().unwrap();
        assert_eq!(a.netlist, b.netlist);
    }
}
