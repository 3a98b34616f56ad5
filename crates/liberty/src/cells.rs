//! Cell descriptors: combinational cells, flip-flops and latches.

/// A rise/fall delay pair, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DelayArc {
    /// Output-rising delay.
    pub rise: f64,
    /// Output-falling delay.
    pub fall: f64,
}

impl DelayArc {
    /// A symmetric arc.
    pub fn symmetric(d: f64) -> DelayArc {
        DelayArc { rise: d, fall: d }
    }

    /// The worse of the two transitions.
    pub fn max(self) -> f64 {
        self.rise.max(self.fall)
    }

    /// Element-wise sum.
    pub fn plus(self, other: DelayArc) -> DelayArc {
        DelayArc {
            rise: self.rise + other.rise,
            fall: self.fall + other.fall,
        }
    }

    /// Scales both transitions.
    pub fn scale(self, k: f64) -> DelayArc {
        DelayArc {
            rise: self.rise * k,
            fall: self.fall * k,
        }
    }
}

/// Unateness of a cell's input→output arcs, which determines the *valid
/// combinations of rise and fall delays* the paper's path-based timing
/// model tracks (Section VI-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Output follows input polarity (AND, OR, BUF).
    Positive,
    /// Output opposes input polarity (NAND, NOR, NOT).
    Negative,
    /// Either input transition can cause either output transition
    /// (XOR, XNOR).
    NonUnate,
}

/// A combinational standard cell.
///
/// The delay model is a linear pin-to-pin model:
/// `delay = intrinsic + per_extra_input · max(0, fanin − 2) + load_delay · fanout`.
/// The first term is split by output transition (rise/fall); the load and
/// stack terms are transition-independent. This is deliberately simple but
/// preserves the property the paper exploits: path-based (rise/fall aware)
/// analysis is strictly less pessimistic than taking the max cell delay.
#[derive(Debug, Clone, PartialEq)]
pub struct CombCell {
    /// Liberty-style cell name (`NAND2_X1`, …).
    pub name: String,
    /// Cell area in µm².
    pub area: f64,
    /// Intrinsic pin-to-pin delay for a 2-input instance driving one load.
    pub intrinsic: DelayArc,
    /// Additional delay per input beyond the second (transistor stacking).
    pub per_extra_input: f64,
    /// Additional delay per fanout driven.
    pub load_delay: f64,
    /// Additional area per input beyond the second.
    pub per_extra_input_area: f64,
    /// Arc unateness.
    pub sense: Sense,
}

impl CombCell {
    /// Pin-to-pin delay arc for an instance with `fanin` inputs driving
    /// `fanout` loads. `fanout` of zero is treated as one load.
    pub fn delay(&self, fanin: usize, fanout: usize) -> DelayArc {
        let stack = self.per_extra_input * (fanin.saturating_sub(2)) as f64;
        let load = self.load_delay * (fanout.max(1).saturating_sub(1)) as f64;
        DelayArc {
            rise: self.intrinsic.rise + stack + load,
            fall: self.intrinsic.fall + stack + load,
        }
    }

    /// Worst-case (gate-based model) delay: max over transitions.
    pub fn max_delay(&self, fanin: usize, fanout: usize) -> f64 {
        self.delay(fanin, fanout).max()
    }

    /// Area for an instance with `fanin` inputs.
    pub fn area(&self, fanin: usize) -> f64 {
        self.area + self.per_extra_input_area * (fanin.saturating_sub(2)) as f64
    }
}

/// An edge-triggered D flip-flop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlipFlopCell {
    /// Area in µm².
    pub area: f64,
    /// Clock-to-Q delay.
    pub clk_to_q: f64,
    /// Setup time.
    pub setup: f64,
}

/// A level-sensitive latch.
///
/// Two launch delays matter for the arrival-time model of Eq. (5):
/// `clk_to_q` when data was already stable at the opening edge, `d_to_q`
/// when data flows through a transparent latch. Modern libraries separate
/// these by up to 40 %.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatchCell {
    /// Area in µm² (≈43 % of a flip-flop for the paper's library).
    pub area: f64,
    /// Clock-to-Q delay (`d^{ck_q}(l)` in Eq. 5).
    pub clk_to_q: f64,
    /// D-to-Q flow-through delay (`d^{d_q}(l)` in Eq. 5).
    pub d_to_q: f64,
    /// Setup time before the closing edge.
    pub setup: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nand2() -> CombCell {
        CombCell {
            name: "NAND2".into(),
            area: 0.6,
            intrinsic: DelayArc {
                rise: 0.014,
                fall: 0.010,
            },
            per_extra_input: 0.004,
            load_delay: 0.002,
            per_extra_input_area: 0.2,
            sense: Sense::Negative,
        }
    }

    #[test]
    fn delay_scales_with_fanin_and_fanout() {
        let c = nand2();
        let base = c.delay(2, 1);
        assert_eq!(base.rise, 0.014);
        let wide = c.delay(4, 1);
        assert!((wide.rise - (0.014 + 0.008)).abs() < 1e-12);
        let loaded = c.delay(2, 3);
        assert!((loaded.fall - (0.010 + 0.004)).abs() < 1e-12);
        // Zero fanout treated as one load.
        assert_eq!(c.delay(2, 0), c.delay(2, 1));
    }

    #[test]
    fn max_delay_is_worst_transition() {
        let c = nand2();
        assert_eq!(c.max_delay(2, 1), 0.014);
    }

    #[test]
    fn area_scales_with_fanin() {
        let c = nand2();
        assert!((c.area(2) - 0.6).abs() < 1e-12);
        assert!((c.area(4) - 1.0).abs() < 1e-12);
        // 1-input degenerate instance does not go below base area.
        assert!((c.area(1) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn delay_arc_ops() {
        let a = DelayArc::symmetric(0.5);
        let b = DelayArc {
            rise: 0.1,
            fall: 0.2,
        };
        let s = a.plus(b);
        assert_eq!(s.rise, 0.6);
        assert_eq!(s.fall, 0.7);
        assert_eq!(s.max(), 0.7);
        assert_eq!(b.scale(2.0).fall, 0.4);
    }
}
