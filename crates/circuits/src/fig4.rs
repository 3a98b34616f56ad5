//! The paper's illustrative circuit (Fig. 4) with its exact delays.
//!
//! The published figure is reconstructed from every constraint stated in
//! the text (Sections III and IV):
//!
//! ```text
//!   I1 ──▶ G3 ──▶ G6 ──▶ G7 ──▶ G8 ──▶ O9 (master endpoint)
//!           │             ▲
//!           └──▶ G4       │
//!                 ▲       │
//!   I2 ───────────┴─▶ G5 ─┘          G4 ──▶ O10 (side output)
//! ```
//!
//! Gate delays: `d(G3)=2, d(G4)=2, d(G5)=5, d(G6)=5, d(G7)=1, d(G8)=1`,
//! ideal latches (`D_l = 0`), clock `φ1 = γ1 = φ2 = γ2 = 2.5` (`Π = 10`,
//! borrow limits 7.5). These reproduce, exactly:
//!
//! * `D^f(G7) = 8`, `D^f(G8) = 9`, `D^f(O9) = 9` (hence `V_n`),
//! * `D^b(I1, O9) = 9 > 7.5` (hence `V_m = {I1}`),
//! * `A(G6,G7,O9) = 9`, `A(G3,G6,O9) = 12`, `A(G5,G7,O9) = 7`,
//!   `A(I2,G5,O9) = 12` → `g(O9) = {G5, G6}`,
//! * Cut1 (latches after G3 and at I2): arrival 12 → error-detecting,
//!   2 slaves, cost 5 at `c = 2`;
//!   Cut2 (latches after G4, G5, G6): arrival 9 → plain master, 3 slaves,
//!   cost 4.

use retime_liberty::{CombCell, DelayArc, FlipFlopCell, LatchCell, Library, Sense};
use retime_netlist::{CombCloud, Gate, Netlist, NodeId};
use retime_sta::{NodeDelays, TwoPhaseClock};

/// The assembled Fig. 4 instance.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// The flip-flop style netlist (O9 is a DFF endpoint, O10 a side
    /// primary output).
    pub netlist: Netlist,
    /// Its retiming view.
    pub cloud: CombCloud,
    /// Explicit per-node delays (`d` column of the figure).
    pub delays: NodeDelays,
    /// The `φ1 = γ1 = φ2 = γ2 = 2.5` clock.
    pub clock: TwoPhaseClock,
}

impl Fig4 {
    /// Builds the instance.
    ///
    /// # Panics
    /// Never panics on the fixed instance (construction is deterministic
    /// and validated).
    pub fn new() -> Fig4 {
        let mut n = Netlist::new("fig4");
        let i1 = n.add_input("I1");
        let i2 = n.add_input("I2");
        let g3 = n.add_gate("G3", Gate::Buf, &[i1]).expect("fresh name");
        let g4 = n.add_gate("G4", Gate::And, &[g3, i2]).expect("fresh name");
        let g5 = n.add_gate("G5", Gate::Not, &[i2]).expect("fresh name");
        let g6 = n.add_gate("G6", Gate::Not, &[g3]).expect("fresh name");
        let g7 = n.add_gate("G7", Gate::Nand, &[g6, g5]).expect("fresh name");
        let g8 = n.add_gate("G8", Gate::Buf, &[g7]).expect("fresh name");
        let _o9 = n.add_gate("O9", Gate::Dff, &[g8]).expect("fresh name");
        n.add_output("O10", g4).expect("fresh name");
        n.validate().expect("fig4 is well-formed");
        let cloud = CombCloud::extract(&n).expect("fig4 cloud extracts");
        let mut d = vec![0.0f64; cloud.len()];
        for (name, delay) in [
            ("G3", 2.0),
            ("G4", 2.0),
            ("G5", 5.0),
            ("G6", 5.0),
            ("G7", 1.0),
            ("G8", 1.0),
        ] {
            d[cloud.find(name).expect("gate exists").index()] = delay;
        }
        // Ideal latches: the figure assumes D_l = 0.
        let latch = LatchCell {
            area: 1.0,
            clk_to_q: 0.0,
            d_to_q: 0.0,
            setup: 0.0,
        };
        let delays = NodeDelays::explicit(&cloud, &d, latch, 0.0).expect("table sized");
        Fig4 {
            netlist: n,
            cloud,
            delays,
            clock: TwoPhaseClock::new(2.5, 2.5, 2.5, 2.5),
        }
    }

    /// The cloud node for a figure name (`"G6"`, `"I1"`, …).
    ///
    /// # Panics
    /// Panics for unknown names.
    pub fn node(&self, name: &str) -> NodeId {
        self.cloud
            .find(name)
            .unwrap_or_else(|| panic!("no node named `{name}` in fig4"))
    }

    /// The master endpoint `O9` (the `O9.d` sink).
    pub fn o9(&self) -> NodeId {
        self.cloud
            .sinks()
            .iter()
            .copied()
            .find(|&t| self.cloud.node_name(t) == "O9.d")
            .expect("O9 sink exists")
    }

    /// A unit-area library matching the figure's cost accounting
    /// (slave = non-error-detecting master = 1 unit).
    pub fn unit_library() -> Library {
        let unit_cell = |name: &str| CombCell {
            name: name.to_string(),
            area: 1.0,
            intrinsic: DelayArc::symmetric(1.0),
            per_extra_input: 0.0,
            load_delay: 0.0,
            per_extra_input_area: 0.0,
            sense: Sense::Positive,
        };
        Library::new(
            "fig4-units",
            [
                ("BUFF", unit_cell("BUFF")),
                ("NOT", unit_cell("NOT")),
                ("AND", unit_cell("AND")),
                ("NAND", unit_cell("NAND")),
                ("OR", unit_cell("OR")),
                ("NOR", unit_cell("NOR")),
                ("XOR", unit_cell("XOR")),
                ("XNOR", unit_cell("XNOR")),
            ],
            FlipFlopCell {
                area: 2.33,
                clk_to_q: 0.0,
                setup: 0.0,
            },
            LatchCell {
                area: 1.0,
                clk_to_q: 0.0,
                d_to_q: 0.0,
                setup: 0.0,
            },
        )
    }
}

impl Default for Fig4 {
    fn default() -> Self {
        Fig4::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_sta::TimingAnalysis;

    #[test]
    fn forward_delays_match_figure() {
        let f = Fig4::new();
        let sta = TimingAnalysis::with_delays(&f.cloud, f.delays.clone(), f.clock);
        assert_eq!(sta.df(f.node("G3")), 2.0);
        assert_eq!(sta.df(f.node("G5")), 5.0);
        assert_eq!(sta.df(f.node("G6")), 7.0);
        assert_eq!(sta.df(f.node("G7")), 8.0);
        assert_eq!(sta.df(f.node("G8")), 9.0);
        assert_eq!(sta.df(f.o9()), 9.0);
    }

    #[test]
    fn backward_delay_i1_matches_figure() {
        let f = Fig4::new();
        let sta = TimingAnalysis::with_delays(&f.cloud, f.delays.clone(), f.clock);
        let bp = sta.backward(f.o9());
        assert_eq!(bp.db(f.node("I1")), Some(9.0));
        assert_eq!(bp.db(f.node("I2")), Some(7.0));
        assert_eq!(bp.db(f.node("G3")), Some(7.0));
    }

    #[test]
    fn a_values_match_figure() {
        let f = Fig4::new();
        let sta = TimingAnalysis::with_delays(&f.cloud, f.delays.clone(), f.clock);
        let bp = sta.backward(f.o9());
        let a = |u: &str, v: &str| sta.a_value(f.node(u), f.node(v), &bp).unwrap();
        assert_eq!(a("G6", "G7"), 9.0);
        assert_eq!(a("G3", "G6"), 12.0);
        assert_eq!(a("G5", "G7"), 7.0);
        assert_eq!(a("I2", "G5"), 12.0);
    }

    #[test]
    fn clock_matches_figure() {
        let f = Fig4::new();
        assert_eq!(f.clock.period(), 10.0);
        assert_eq!(f.clock.slave_close(), 7.5);
        assert_eq!(f.clock.backward_limit(), 7.5);
    }
}
