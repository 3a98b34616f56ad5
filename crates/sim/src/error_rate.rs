//! Random-input timed simulation: the error-rate measurement of
//! Table VIII.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use retime_netlist::{CloudEdge, CombCloud, Cut, NodeKind};
use retime_sta::{NodeDelays, TwoPhaseClock};

/// Configuration of an error-rate run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErrorRateConfig {
    /// Number of random cycles to simulate.
    pub cycles: usize,
    /// RNG seed (runs are deterministic).
    pub seed: u64,
}

impl Default for ErrorRateConfig {
    fn default() -> Self {
        ErrorRateConfig {
            cycles: 2000,
            seed: 0xE0_5EED,
        }
    }
}

/// Result of an error-rate run.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorRateReport {
    /// Cycles in which at least one error-detecting master saw its data
    /// transition inside the resiliency window.
    pub error_cycles: usize,
    /// Total simulated cycles.
    pub cycles: usize,
    /// Per-sink error-event counts (indexed like `cloud.sinks()`).
    pub per_sink: Vec<usize>,
    /// Cycles in which a *non*-error-detecting master saw a transition in
    /// the window — silent timing hazards; zero for a sound EDL
    /// assignment under the STA model.
    pub silent_hazard_cycles: usize,
}

impl ErrorRateReport {
    /// Error rate as a percentage (the unit of Table VIII).
    pub fn rate_percent(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            100.0 * self.error_cycles as f64 / self.cycles as f64
        }
    }
}

/// Per-node simulation value: logic level, whether it toggled this cycle,
/// and the time of its (last) transition.
#[derive(Debug, Clone, Copy, Default)]
struct Wave {
    value: bool,
    toggled: bool,
    time: f64,
}

/// Measures the error rate of a placed design by random-vector timed
/// simulation (last-transition timing; glitches are not modelled, like
/// the paper's RTL-level simulation).
///
/// Each cycle draws fresh random values for every source (master outputs
/// and registered inputs), propagates values and transition times through
/// the cloud — re-launching transitions across the slave latches of
/// `cut` — and checks each sink:
///
/// * data toggling in `(Π, Π + φ1]` at an error-detecting master ⇒ an
///   **error event** (the EDL fires),
/// * the same at a non-error-detecting master ⇒ a **silent hazard**
///   (should not happen when the EDL assignment is sound).
///
/// # Panics
/// Panics if `ed_sinks` does not match the sink count.
pub fn error_rate(
    cloud: &CombCloud,
    delays: &NodeDelays,
    clock: &TwoPhaseClock,
    cut: &Cut,
    ed_sinks: &[bool],
    cfg: &ErrorRateConfig,
) -> ErrorRateReport {
    assert_eq!(ed_sinks.len(), cloud.sinks().len());
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let pi = clock.period();
    let window_end = clock.max_path_delay();
    let mut waves: Vec<Wave> = vec![Wave::default(); cloud.len()];
    let mut per_sink = vec![0usize; cloud.sinks().len()];
    let mut error_cycles = 0usize;
    let mut silent_hazard_cycles = 0usize;

    // The cut is fixed for the whole run: flag once, per fanin edge of
    // every non-source node in topological order, whether its value
    // crosses a slave latch (a cut edge, or an unmoved source's own
    // slave).
    let mut latched: Vec<bool> = Vec::new();
    for &v in cloud.topo() {
        if cloud.kind(v).is_source() {
            continue;
        }
        latched.extend(cloud.fanin(v).iter().map(|&u| {
            cut.edge_latched(CloudEdge { from: u, to: v })
                || (cloud.kind(u).is_source() && !cut.is_moved(u))
        }));
    }
    let mut vals: Vec<bool> = Vec::new();
    // A fanin wave's transition time as seen across its edge.
    let seen_at = |w: Wave, latched: bool| {
        if latched {
            relaunch_time(w.time, clock, delays)
        } else {
            w.time
        }
    };

    for _cycle in 0..cfg.cycles {
        // Sources: fresh random values, transitions at the launch time.
        for &s in cloud.sources() {
            let new: bool = rng.random();
            let w = &mut waves[s.index()];
            w.toggled = new != w.value;
            w.value = new;
            w.time = delays.launch();
        }
        // Propagate in topological order.
        let mut edge = 0;
        for &v in cloud.topo() {
            if cloud.kind(v).is_source() {
                continue;
            }
            let fanin = cloud.fanin(v);
            let edges = &latched[edge..edge + fanin.len()];
            edge += fanin.len();
            waves[v.index()] = match cloud.kind(v) {
                NodeKind::Gate { gate, .. } => {
                    vals.clear();
                    vals.extend(fanin.iter().map(|u| waves[u.index()].value));
                    let new = gate.eval(&vals);
                    // Last-transition model with the *actual* output
                    // polarity: the concrete values tell us whether the
                    // settling transition rises or falls, so the timed
                    // simulation is never more pessimistic than the
                    // path-based STA that assigned the EDL flags.
                    let arc = delays.arc(v);
                    let gate_delay = if new { arc.rise } else { arc.fall };
                    let time = fanin
                        .iter()
                        .zip(edges)
                        .map(|(u, &l)| (waves[u.index()], l))
                        .filter(|&(w, _)| w.toggled)
                        .map(|(w, l)| seen_at(w, l) + gate_delay)
                        .fold(delays.launch(), f64::max);
                    Wave {
                        value: new,
                        toggled: new != waves[v.index()].value,
                        time,
                    }
                }
                NodeKind::Sink { .. } => {
                    let w = waves[fanin[0].index()];
                    Wave {
                        time: seen_at(w, edges[0]),
                        ..w
                    }
                }
                NodeKind::Source { .. } => unreachable!("skipped above"),
            };
        }
        // Window check per master-backed sink (primary-output sinks carry
        // no master latch, hence neither EDL nor hazard semantics).
        let mut any_error = false;
        let mut any_silent = false;
        for (idx, &t) in cloud.sinks().iter().enumerate() {
            if !matches!(cloud.kind(t), NodeKind::Sink { master: Some(_) }) {
                continue;
            }
            let w = waves[t.index()];
            if w.toggled && w.time > pi + 1e-12 && w.time <= window_end + 1e-9 {
                if ed_sinks[idx] {
                    per_sink[idx] += 1;
                    any_error = true;
                } else {
                    any_silent = true;
                }
            }
        }
        if any_error {
            error_cycles += 1;
        }
        if any_silent {
            silent_hazard_cycles += 1;
        }
    }
    ErrorRateReport {
        error_cycles,
        cycles: cfg.cycles,
        per_sink,
        silent_hazard_cycles,
    }
}

fn relaunch_time(t: f64, clock: &TwoPhaseClock, delays: &NodeDelays) -> f64 {
    (clock.slave_open() + delays.latch_ckq()).max(t + delays.latch_dq())
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_liberty::Library;
    use retime_netlist::bench;
    use retime_sta::{DelayModel, TimingAnalysis};

    fn chain(len: usize) -> CombCloud {
        let mut src = String::from("INPUT(a)\nOUTPUT(z)\nq = DFF(last)\ng1 = NOT(a)\n");
        for i in 2..=len {
            src.push_str(&format!("g{i} = NOT(g{})\n", i - 1));
        }
        src.push_str(&format!("last = BUFF(g{len})\nz = NOT(q)\n"));
        CombCloud::extract(&bench::parse("c", &src).unwrap()).unwrap()
    }

    #[test]
    fn relaxed_clock_zero_errors() {
        let cloud = chain(8);
        let lib = Library::fdsoi28();
        let clock = TwoPhaseClock::from_max_delay(100.0);
        let delays = NodeDelays::from_library(&cloud, &lib, DelayModel::PathBased).unwrap();
        let cut = Cut::initial(&cloud);
        let ed = vec![false; cloud.sinks().len()];
        let rep = error_rate(
            &cloud,
            &delays,
            &clock,
            &cut,
            &ed,
            &ErrorRateConfig {
                cycles: 200,
                seed: 1,
            },
        );
        assert_eq!(rep.error_cycles, 0);
        assert_eq!(rep.silent_hazard_cycles, 0);
        assert_eq!(rep.rate_percent(), 0.0);
    }

    /// Picks a clock for which the initial placement's worst arrival lands
    /// inside the resiliency window. The arrival under clock `P` is
    /// `0.3 P + ckq + path` (the source-slave relaunch floor plus the pure
    /// path), so `0.7 P < arrival ≤ P` bounds `P` to
    /// `[(ckq + path)/0.7, (ckq + path)/0.4)`.
    fn window_hitting_clock(cloud: &CombCloud, lib: &Library) -> TwoPhaseClock {
        let sta = TimingAnalysis::new(
            cloud,
            lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::PathBased,
        )
        .unwrap();
        let launch = sta.delays().launch();
        let path = cloud
            .sinks()
            .iter()
            .map(|&t| sta.df(t))
            .fold(0.0f64, f64::max)
            - launch;
        let ckq = lib.latch().clk_to_q;
        TwoPhaseClock::from_max_delay((ckq + path) / 0.55)
    }

    #[test]
    fn tight_clock_produces_errors_at_ed_masters() {
        let cloud = chain(14);
        let lib = Library::fdsoi28();
        let clock = window_hitting_clock(&cloud, &lib);
        let cut = Cut::initial(&cloud);
        let delays = NodeDelays::from_library(&cloud, &lib, DelayModel::PathBased).unwrap();
        let ed = vec![true; cloud.sinks().len()];
        let rep = error_rate(
            &cloud,
            &delays,
            &clock,
            &cut,
            &ed,
            &ErrorRateConfig {
                cycles: 500,
                seed: 42,
            },
        );
        assert!(
            rep.error_cycles > 0,
            "deep-path toggles must land in the window"
        );
        assert_eq!(rep.silent_hazard_cycles, 0);
        assert!(rep.rate_percent() > 0.0 && rep.rate_percent() <= 100.0);
    }

    #[test]
    fn hazards_flagged_when_ed_disabled() {
        let cloud = chain(14);
        let lib = Library::fdsoi28();
        let clock = window_hitting_clock(&cloud, &lib);
        let cut = Cut::initial(&cloud);
        let delays = NodeDelays::from_library(&cloud, &lib, DelayModel::PathBased).unwrap();
        let ed = vec![false; cloud.sinks().len()];
        let rep = error_rate(
            &cloud,
            &delays,
            &clock,
            &cut,
            &ed,
            &ErrorRateConfig {
                cycles: 500,
                seed: 42,
            },
        );
        assert_eq!(rep.error_cycles, 0);
        assert!(rep.silent_hazard_cycles > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let cloud = chain(10);
        let lib = Library::fdsoi28();
        let clock = TwoPhaseClock::from_max_delay(0.3);
        let delays = NodeDelays::from_library(&cloud, &lib, DelayModel::PathBased).unwrap();
        let cut = Cut::initial(&cloud);
        let ed = vec![true; cloud.sinks().len()];
        let cfg = ErrorRateConfig {
            cycles: 100,
            seed: 9,
        };
        let a = error_rate(&cloud, &delays, &clock, &cut, &ed, &cfg);
        let b = error_rate(&cloud, &delays, &clock, &cut, &ed, &cfg);
        assert_eq!(a, b);
    }
}
