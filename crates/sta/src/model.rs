//! Delay models and per-node delay tables.

use std::error::Error;
use std::fmt;

use retime_liberty::{DelayArc, LatchCell, Library, LibraryError, Sense};
use retime_netlist::{CombCloud, Gate, NodeId, NodeKind};

#[cfg(test)]
mod tests {
    use super::*;
    use retime_liberty::Library;
    use retime_netlist::bench;

    fn cloud() -> CombCloud {
        let n = bench::parse(
            "m",
            "INPUT(a)\nINPUT(b)\nOUTPUT(z)\ng = NAND(a, b)\nz = XOR(g, b)\n",
        )
        .unwrap();
        CombCloud::extract(&n).unwrap()
    }

    #[test]
    fn gate_based_arcs_symmetric() {
        let c = cloud();
        let lib = Library::fdsoi28();
        let d = NodeDelays::from_library(&c, &lib, DelayModel::GateBased).unwrap();
        let g = c.find("g").unwrap();
        let arc = d.arc(g);
        assert_eq!(arc.rise, arc.fall);
        assert_eq!(d.sense(g), Sense::Positive);
    }

    #[test]
    fn path_based_keeps_rise_fall() {
        let c = cloud();
        let lib = Library::fdsoi28();
        let d = NodeDelays::from_library(&c, &lib, DelayModel::PathBased).unwrap();
        let g = c.find("g").unwrap();
        let arc = d.arc(g);
        assert_ne!(arc.rise, arc.fall);
        assert_eq!(d.sense(g), Sense::Negative);
    }

    #[test]
    fn gate_based_never_faster() {
        let c = cloud();
        let lib = Library::fdsoi28();
        let gb = NodeDelays::from_library(&c, &lib, DelayModel::GateBased).unwrap();
        let pb = NodeDelays::from_library(&c, &lib, DelayModel::PathBased).unwrap();
        for i in 0..c.len() {
            let v = NodeId(i as u32);
            assert!(gb.max_delay(v) >= pb.arc(v).rise - 1e-12);
            assert!(gb.max_delay(v) >= pb.arc(v).fall - 1e-12);
        }
    }

    #[test]
    fn statistical_nominal_mirrors_gate_based() {
        let c = cloud();
        let lib = Library::fdsoi28();
        let gb = NodeDelays::from_library(&c, &lib, DelayModel::GateBased).unwrap();
        let st = NodeDelays::from_library(&c, &lib, DelayModel::Statistical(StatParams::DEFAULT))
            .unwrap();
        for i in 0..c.len() {
            let v = NodeId(i as u32);
            assert_eq!(gb.arc(v), st.arc(v), "nominal arcs must be bit-identical");
            assert_eq!(st.sense(v), Sense::Positive);
        }
        let g = c.find("g").unwrap();
        assert!(st.sigma(g).total() > 0.0);
        assert_eq!(gb.sigma(g).total(), 0.0);
    }

    #[test]
    fn statistical_sigma_zero_is_all_zero() {
        let c = cloud();
        let lib = Library::fdsoi28();
        let p = StatParams::new(0.0, 0.0, 0.9987, 7);
        let st = NodeDelays::from_library(&c, &lib, DelayModel::Statistical(p)).unwrap();
        for i in 0..c.len() {
            assert_eq!(st.sigma(NodeId(i as u32)).total(), 0.0);
        }
    }

    #[test]
    fn scale_node_scales_sigma() {
        let c = cloud();
        let lib = Library::fdsoi28();
        let mut st =
            NodeDelays::from_library(&c, &lib, DelayModel::Statistical(StatParams::DEFAULT))
                .unwrap();
        let g = c.find("g").unwrap();
        let before = st.sigma(g).total();
        st.scale_node(g, 0.5);
        assert!((st.sigma(g).total() - 0.5 * before).abs() < 1e-12);
    }

    #[test]
    fn stat_params_round_trip_and_display() {
        let p = StatParams::new(0.03, 0.005, 0.9987, 42);
        assert_eq!(p.sigma_frac(), 0.03);
        assert_eq!(p.clock_sigma_frac(), 0.005);
        assert_eq!(p.yield_target(), 0.9987);
        assert_eq!(DelayModel::Statistical(p).to_string(), "statistical");
    }

    #[test]
    fn sigma_jitter_is_deterministic_and_bounded() {
        for i in 0..64 {
            let j = sigma_jitter(0x5EED, i);
            assert!((0.75..1.25).contains(&j), "{j}");
            assert_eq!(j, sigma_jitter(0x5EED, i));
        }
        assert_ne!(sigma_jitter(1, 0), sigma_jitter(2, 0));
    }

    #[test]
    fn explicit_table_size_checked() {
        let c = cloud();
        let latch = *Library::fdsoi28().latch();
        let err = NodeDelays::explicit(&c, &[1.0], latch, 0.0);
        assert!(matches!(err, Err(StaError::BadDelayTable { .. })));
        let ok = NodeDelays::explicit(&c, &vec![1.0; c.len()], latch, 0.0).unwrap();
        assert_eq!(ok.max_delay(c.find("g").unwrap()), 1.0);
    }

    #[test]
    fn scale_node_speeds_up() {
        let c = cloud();
        let lib = Library::fdsoi28();
        let mut d = NodeDelays::from_library(&c, &lib, DelayModel::PathBased).unwrap();
        let g = c.find("g").unwrap();
        let before = d.max_delay(g);
        d.scale_node(g, 0.8);
        assert!(d.max_delay(g) < before);
    }

    #[test]
    fn sources_and_sinks_zero_delay() {
        let c = cloud();
        let lib = Library::fdsoi28();
        let d = NodeDelays::from_library(&c, &lib, DelayModel::PathBased).unwrap();
        for &s in c.sources() {
            assert_eq!(d.max_delay(s), 0.0);
        }
        for &t in c.sinks() {
            assert_eq!(d.max_delay(t), 0.0);
        }
    }

    #[test]
    fn with_launch_overrides() {
        let c = cloud();
        let lib = Library::fdsoi28();
        let d = NodeDelays::from_library(&c, &lib, DelayModel::PathBased)
            .unwrap()
            .with_launch(0.5);
        assert_eq!(d.launch(), 0.5);
    }
}

/// Parameters of the statistical delay mode, packed as integers so
/// [`DelayModel`] stays `Copy + Eq + Hash` (and so its `Debug` form —
/// which feeds the serve cache key — is exact). Fractions are stored in
/// parts-per-million of their base quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StatParams {
    /// Gate-delay sigma as ppm of the nominal delay, jittered per gate
    /// by a seeded hash.
    pub sigma_ppm: u32,
    /// Clock-period sigma (jitter) as ppm of the period.
    pub clock_sigma_ppm: u32,
    /// Target timing yield as ppm (`998_700` ≈ the 3σ point 0.9987).
    pub yield_ppm: u32,
    /// Seed of the deterministic per-gate sigma jitter.
    pub seed: u64,
}

impl StatParams {
    /// The defaults the env knobs fall back to: 3 % gate sigma, 0.5 %
    /// clock sigma, a 0.9987 (≈3σ) yield target.
    pub const DEFAULT: StatParams = StatParams {
        sigma_ppm: 30_000,
        clock_sigma_ppm: 5_000,
        yield_ppm: 998_700,
        seed: 0x57A7_5EED,
    };

    /// Builds params from plain fractions, quantizing to ppm (values
    /// round-trip exactly for any input with ≤ 6 decimal places).
    ///
    /// # Panics
    /// Panics on any value [`StatParams::checked`] rejects.
    pub fn new(sigma_frac: f64, clock_sigma_frac: f64, yield_target: f64, seed: u64) -> StatParams {
        StatParams::checked(sigma_frac, clock_sigma_frac, yield_target, seed)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The one validator of the statistical parameters, shared by every
    /// front door (the `RETIME_*` knobs and serve's NDJSON fields): gate
    /// and clock sigma must lie in `[0, 1)` and the yield target in
    /// `(0, 1)`. The ranges apply to the quantized ppm values the model
    /// runs on, so `1 − ε`, which rounds to 1, is refused like 1; NaN
    /// and infinities are refused too.
    ///
    /// # Errors
    /// Names the first field out of range.
    pub fn checked(
        sigma_frac: f64,
        clock_sigma_frac: f64,
        yield_target: f64,
        seed: u64,
    ) -> Result<StatParams, StatParamError> {
        // NaN fails `x >= 0.0`, and an infinity `p < 1e6`.
        let ppm = |x: f64| {
            let p = (x * 1e6).round();
            (x >= 0.0 && p < 1e6).then_some(p as u32)
        };
        let sigma_ppm = ppm(sigma_frac).ok_or(StatParamError::Sigma)?;
        let clock_sigma_ppm = ppm(clock_sigma_frac).ok_or(StatParamError::ClockSigma)?;
        let yield_ppm = ppm(yield_target)
            .filter(|&p| p > 0)
            .ok_or(StatParamError::Yield)?;
        Ok(StatParams {
            sigma_ppm,
            clock_sigma_ppm,
            yield_ppm,
            seed,
        })
    }

    /// Gate sigma as a fraction of nominal delay. Dividing by the
    /// exactly-representable `1e6` is correctly rounded, so any input
    /// with ≤ 6 decimal places round-trips through [`StatParams::new`]
    /// bit-exactly (multiplying by the inexact `1e-6` would not).
    pub fn sigma_frac(&self) -> f64 {
        f64::from(self.sigma_ppm) / 1e6
    }

    /// Clock sigma as a fraction of the period.
    pub fn clock_sigma_frac(&self) -> f64 {
        f64::from(self.clock_sigma_ppm) / 1e6
    }

    /// The timing-yield threshold below which an endpoint needs an EDL.
    pub fn yield_target(&self) -> f64 {
        f64::from(self.yield_ppm) / 1e6
    }
}

/// The field a [`StatParams::checked`] call refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatParamError {
    /// Gate sigma outside `[0, 1)`.
    Sigma,
    /// Clock sigma outside `[0, 1)`.
    ClockSigma,
    /// Yield target outside `(0, 1)`.
    Yield,
}

impl std::fmt::Display for StatParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StatParamError::Sigma => "gate sigma must be a fraction in [0, 1)",
            StatParamError::ClockSigma => "clock sigma must be a fraction in [0, 1)",
            StatParamError::Yield => "yield target must be a fraction in (0, 1)",
        })
    }
}

impl std::error::Error for StatParamError {}

/// The delay models compared in the paper's Table II, plus the
/// statistical mode of the Li/Chen/Schlichtmann extension.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum DelayModel {
    /// The DAC'17 predecessor's model \[16\]: every gate contributes its
    /// worst-case cell delay; rise/fall are not distinguished. Conservative
    /// — nodes that could be in the free retiming region `V_r` may land in
    /// `V_m`/`V_n`, and non-critical endpoints may be charged EDL overhead.
    GateBased,
    /// The journal version's model: pin-to-pin rise/fall arcs restricted to
    /// valid transition combinations, mirroring a commercial-grade timing
    /// engine. Strictly less pessimistic than [`DelayModel::GateBased`].
    /// The default.
    #[default]
    PathBased,
    /// First-order canonical-form statistical delays: nominal tables
    /// identical to [`DelayModel::GateBased`] plus per-node sigma split
    /// into a globally correlated and an independent local component
    /// (the seeded fraction of nominal in [`StatParams`]). With
    /// `sigma_ppm == clock_sigma_ppm == 0` every downstream decision
    /// collapses bit-identically onto the gate-based mode.
    Statistical(StatParams),
}

impl fmt::Display for DelayModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DelayModel::GateBased => f.write_str("gate-based"),
            DelayModel::PathBased => f.write_str("path-based"),
            DelayModel::Statistical(_) => f.write_str("statistical"),
        }
    }
}

/// Errors raised while building timing tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StaError {
    /// A cloud gate has no library cell.
    Library(LibraryError),
    /// An explicit delay table does not match the cloud.
    BadDelayTable {
        /// Expected number of entries (cloud nodes).
        expected: usize,
        /// Provided number of entries.
        got: usize,
    },
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaError::Library(e) => write!(f, "library lookup failed: {e}"),
            StaError::BadDelayTable { expected, got } => write!(
                f,
                "explicit delay table has {got} entries, cloud has {expected} nodes"
            ),
        }
    }
}

impl Error for StaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StaError::Library(e) => Some(e),
            StaError::BadDelayTable { .. } => None,
        }
    }
}

impl From<LibraryError> for StaError {
    fn from(e: LibraryError) -> Self {
        StaError::Library(e)
    }
}

/// The standard deviation of one node's delay, split into the globally
/// correlated and the independent local component (both in
/// nanoseconds). All-zero outside the statistical delay mode.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DelaySigma {
    /// Globally correlated sigma (shared across all gates of a sample).
    pub global: f64,
    /// Independent local sigma (per-gate mismatch).
    pub local: f64,
}

impl DelaySigma {
    /// The total standard deviation `sqrt(global² + local²)`.
    pub fn total(&self) -> f64 {
        self.global.hypot(self.local)
    }
}

/// Per-node delay arcs plus the sequential parameters needed by the
/// arrival model of Eq. (5).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeDelays {
    model: DelayModel,
    arcs: Vec<DelayArc>,
    senses: Vec<Sense>,
    /// Per-node delay sigma (all-zero unless the model is statistical).
    sigmas: Vec<DelaySigma>,
    /// Master launch delay added at sources (the master latch clock-to-Q).
    launch: f64,
    /// Slave latch clock-to-Q (`d^{ck_q}(l)` of Eq. 5).
    latch_ckq: f64,
    /// Slave latch D-to-Q (`d^{d_q}(l)` of Eq. 5).
    latch_dq: f64,
}

impl NodeDelays {
    /// Builds delay tables from a library.
    ///
    /// # Errors
    /// Returns [`StaError::Library`] if a gate function is unmapped.
    pub fn from_library(
        cloud: &CombCloud,
        lib: &Library,
        model: DelayModel,
    ) -> Result<NodeDelays, StaError> {
        let n = cloud.len();
        let mut arcs = vec![DelayArc::default(); n];
        let mut senses = vec![Sense::Positive; n];
        let mut sigmas = vec![DelaySigma::default(); n];
        for v in cloud.node_ids() {
            let i = v.index();
            if let NodeKind::Gate { gate, .. } = cloud.kind(v) {
                let cell = lib.cell(gate_lib_name(gate))?;
                let fanin = cloud.fanin(v).len();
                let fanout = cloud.fanout(v).len();
                match model {
                    DelayModel::GateBased => {
                        arcs[i] = DelayArc::symmetric(cell.max_delay(fanin, fanout));
                        senses[i] = Sense::Positive;
                    }
                    DelayModel::PathBased => {
                        arcs[i] = cell.delay(fanin, fanout);
                        senses[i] = cell.sense;
                    }
                    DelayModel::Statistical(params) => {
                        // Nominal tables mirror the gate-based model
                        // exactly — that identity is what makes the
                        // sigma→0 collapse bit-identical.
                        let d = cell.max_delay(fanin, fanout);
                        arcs[i] = DelayArc::symmetric(d);
                        senses[i] = Sense::Positive;
                        // Seeded sigma: the configured fraction of
                        // nominal, jittered per gate in [0.75, 1.25],
                        // split 0.6/0.8 into global/local
                        // (0.6² + 0.8² = 1).
                        let f = params.sigma_frac() * sigma_jitter(params.seed, i);
                        sigmas[i] = DelaySigma {
                            global: 0.6 * f * d,
                            local: 0.8 * f * d,
                        };
                    }
                }
            }
        }
        let latch = *lib.latch();
        Ok(NodeDelays {
            model,
            arcs,
            senses,
            sigmas,
            launch: latch.clk_to_q,
            latch_ckq: latch.clk_to_q,
            latch_dq: latch.d_to_q,
        })
    }

    /// Builds an explicit, unit-style delay table (used by the paper's
    /// Fig. 4 worked example, which specifies per-gate delays directly and
    /// ideal latches). Arcs are symmetric and positive-unate, so the model
    /// degenerates to the gate-based one.
    ///
    /// # Errors
    /// Returns [`StaError::BadDelayTable`] on a size mismatch.
    pub fn explicit(
        cloud: &CombCloud,
        delays: &[f64],
        latch: LatchCell,
        launch: f64,
    ) -> Result<NodeDelays, StaError> {
        if delays.len() != cloud.len() {
            return Err(StaError::BadDelayTable {
                expected: cloud.len(),
                got: delays.len(),
            });
        }
        Ok(NodeDelays {
            model: DelayModel::GateBased,
            arcs: delays.iter().map(|&d| DelayArc::symmetric(d)).collect(),
            senses: vec![Sense::Positive; cloud.len()],
            sigmas: vec![DelaySigma::default(); cloud.len()],
            launch,
            latch_ckq: latch.clk_to_q,
            latch_dq: latch.d_to_q,
        })
    }

    /// Overrides the source launch delay (e.g. a flip-flop clock-to-Q when
    /// timing the original flop-based design for Table I).
    pub fn with_launch(mut self, launch: f64) -> NodeDelays {
        self.launch = launch;
        self
    }

    /// The delay model these tables were built for.
    pub fn model(&self) -> DelayModel {
        self.model
    }

    /// The delay arc of node `v` (zero for sources and sinks).
    pub fn arc(&self, v: NodeId) -> DelayArc {
        self.arcs[v.index()]
    }

    /// Worst-transition delay of node `v` (the paper's `d(v)`).
    pub fn max_delay(&self, v: NodeId) -> f64 {
        self.arcs[v.index()].max()
    }

    /// The unateness of node `v`.
    pub fn sense(&self, v: NodeId) -> Sense {
        self.senses[v.index()]
    }

    /// The delay sigma of node `v` (all-zero outside the statistical
    /// mode).
    pub fn sigma(&self, v: NodeId) -> DelaySigma {
        self.sigmas[v.index()]
    }

    /// Master launch delay applied at sources.
    pub fn launch(&self) -> f64 {
        self.launch
    }

    /// Slave latch clock-to-Q.
    pub fn latch_ckq(&self) -> f64 {
        self.latch_ckq
    }

    /// Slave latch D-to-Q.
    pub fn latch_dq(&self) -> f64 {
        self.latch_dq
    }

    /// Scales the delay arc of one node by `k` — the mechanism behind the
    /// "size-only incremental compile" legalization step (Section VI-B):
    /// upsizing a gate trades area for speed, modelled as a bounded
    /// speed-up factor.
    pub fn scale_node(&mut self, v: NodeId, k: f64) {
        self.arcs[v.index()] = self.arcs[v.index()].scale(k);
        // Sigma is a fraction of nominal, so it scales with the cell.
        let s = &mut self.sigmas[v.index()];
        s.global *= k;
        s.local *= k;
    }
}

/// Deterministic per-gate sigma jitter in `[0.75, 1.25]` — splitmix64
/// over `(seed, node index)`, no global state.
fn sigma_jitter(seed: u64, index: usize) -> f64 {
    let mut z = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // 53 high-quality bits → uniform in [0, 1).
    let u = (z >> 11) as f64 / (1u64 << 53) as f64;
    0.75 + 0.5 * u
}

/// Library cell-name for a netlist gate.
pub(crate) fn gate_lib_name(g: Gate) -> &'static str {
    match g {
        Gate::Buf => "BUFF",
        Gate::Not => "NOT",
        Gate::And => "AND",
        Gate::Nand => "NAND",
        Gate::Or => "OR",
        Gate::Nor => "NOR",
        Gate::Xor => "XOR",
        Gate::Xnor => "XNOR",
        _ => "BUFF",
    }
}
