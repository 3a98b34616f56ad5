//! Deterministic levelized random-DAG circuit generator.
//!
//! Produces ISCAS89-class sequential circuits with controlled statistics:
//! gate count, flip-flop count, logic depth, and — crucially for the
//! paper's experiments — a controlled number of *deep* endpoints (the
//! near-critical endpoints of Table I).

use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};

use retime_netlist::{CellId, Gate, Netlist, NetlistError};

/// Parameters of a generated circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthConfig {
    /// Design name.
    pub name: String,
    /// Number of flip-flops.
    pub flops: usize,
    /// Number of combinational gates.
    pub gates: usize,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of logic levels.
    pub levels: usize,
    /// How many flip-flop D-pins terminate deep tails; these become the
    /// near-critical endpoints under the calibrated clock (the rest
    /// sample the shallow block).
    pub deep_sinks: usize,
    /// How many of the deep sinks terminate *hard* (full-depth) tails —
    /// genuinely critical paths that no retiming can rescue (they keep
    /// their error-detecting masters, Table VI's residual EDL counts).
    /// Must be ≤ `deep_sinks`.
    pub hard_sinks: usize,
    /// RNG seed — generation is fully deterministic.
    pub seed: u64,
}

impl SynthConfig {
    /// Generates the circuit.
    ///
    /// # Errors
    /// Propagates netlist construction errors (should not occur for sane
    /// configurations).
    ///
    /// # Panics
    /// Panics if `levels < 4`, or there are no sources to draw from.
    pub fn generate(&self) -> Result<Netlist, NetlistError> {
        assert!(self.levels >= 6, "need at least 6 levels");
        assert!(
            self.inputs + self.flops > 0,
            "need at least one source of data"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut n = Netlist::new(self.name.clone());

        // Sources: primary inputs + flip-flop outputs (D pins patched at
        // the end).
        let mut sources: Vec<CellId> = (0..self.inputs)
            .map(|i| n.add_input(format!("pi{i}")))
            .collect();
        let flops: Vec<CellId> = (0..self.flops)
            .map(|i| n.add_gate(format!("ff{i}"), Gate::Dff, &[CellId(0)]))
            .collect::<Result<_, _>>()?;
        sources.extend(&flops);
        let mut pool: Vec<CellId> = sources.clone();
        {
            use rand::seq::SliceRandom;
            pool.shuffle(&mut rng);
        }

        // Structure (engineered to carry the paper's retiming economics):
        //
        // * a *wide reconvergent shallow block* (control logic; most of
        //   the gates) whose endpoints are never near-critical,
        // * `hard_sinks` full-depth tails — genuinely critical paths that
        //   no retiming can rescue; their sources land in V_m, forcing
        //   movement exactly as a tightly-synthesized circuit does,
        // * rescuable mid-depth tails carrying the remaining deep sinks.
        //
        // Every tail is fed exclusively by *dedicated* sources that also
        // feed an OR-collector (second consumer), so retiming slaves past
        // a tail's safe frontier costs exactly one extra latch — worth
        // paying only against the EDL overhead `c`, which is G-RAR's
        // decision and nobody else's (the Cut1/Cut2 economics of Fig. 4).
        let hard = self.hard_sinks.min(self.deep_sinks);
        let mid_sinks = self.deep_sinks - hard;
        let hard_len = self.levels;
        let mid_len = if hard > 0 {
            ((self.levels * 40) / 100).max(6)
        } else {
            self.levels
        };
        // Tail counts bounded by the gate and dedicated-source budgets.
        let mid_tails = if mid_sinks == 0 {
            0
        } else {
            let by_gates = ((self.gates * 3) / 5).saturating_sub(hard * hard_len) / mid_len.max(1);
            let by_sources =
                pool.len().saturating_sub(hard * (2 + hard_len / 4)) / (2 + mid_len / 4).max(1);
            mid_sinks.min(by_gates.max(1)).min(by_sources.max(1)).max(1)
        };

        // Dedicated-source tail builder. `reserved` sources feed only this
        // tail (plus the collector), so its retiming cone is private.
        let mut collector_feeds: Vec<CellId> = Vec::new();
        let build_tail = |n: &mut Netlist,
                          rng: &mut StdRng,
                          pool: &mut Vec<CellId>,
                          collector_feeds: &mut Vec<CellId>,
                          name: &str,
                          len: usize|
         -> Result<CellId, NetlistError> {
            let take = |pool: &mut Vec<CellId>, rng: &mut StdRng| -> CellId {
                pool.pop().unwrap_or_else(|| {
                    // Pool exhausted: reuse a random source; the tail cone
                    // is then no longer fully private, which only makes
                    // rescue more expensive (conservative).
                    *sources.choose(rng).expect("non-empty")
                })
            };
            let a = take(pool, rng);
            let b = take(pool, rng);
            collector_feeds.push(a);
            collector_feeds.push(b);
            let mut prev = n.add_gate(format!("{name}_0"), Gate::Nand, &[a, b])?;
            for k in 1..len {
                prev = if k % 4 == 0 {
                    let tap = take(pool, rng);
                    collector_feeds.push(tap);
                    n.add_gate(format!("{name}_{k}"), Gate::Nand, &[prev, tap])?
                } else {
                    n.add_gate(format!("{name}_{k}"), Gate::Not, &[prev])?
                };
            }
            Ok(prev)
        };
        let mut hard_ends = Vec::with_capacity(hard);
        for t in 0..hard {
            hard_ends.push(build_tail(
                &mut n,
                &mut rng,
                &mut pool,
                &mut collector_feeds,
                &format!("h{t}"),
                hard_len,
            )?);
        }
        let mut mid_ends = Vec::with_capacity(mid_tails);
        for t in 0..mid_tails {
            mid_ends.push(build_tail(
                &mut n,
                &mut rng,
                &mut pool,
                &mut collector_feeds,
                &format!("m{t}"),
                mid_len,
            )?);
        }

        // Shallow block over the remaining gate budget.
        let shallow_levels = (self.levels / 3).max(3);
        let shallow_gates = self
            .gates
            .saturating_sub(hard * hard_len + mid_tails * mid_len)
            .max(shallow_levels);
        let mut per_level = vec![shallow_gates / shallow_levels; shallow_levels];
        for count in per_level.iter_mut().take(shallow_gates % shallow_levels) {
            *count += 1;
        }
        for count in per_level.iter_mut() {
            *count = (*count).max(1);
        }
        const GATE_POOL: [Gate; 8] = [
            Gate::Nand,
            Gate::Nand,
            Gate::Nor,
            Gate::And,
            Gate::Or,
            Gate::Not,
            Gate::Xor,
            Gate::Buf,
        ];
        let mut levels: Vec<Vec<CellId>> = Vec::with_capacity(shallow_levels);
        let mut gate_no = 0usize;
        for (lvl, &count) in per_level.iter().enumerate() {
            let mut this_level = Vec::with_capacity(count);
            for _ in 0..count {
                let gate = *GATE_POOL.choose(&mut rng).expect("non-empty pool");
                let (lo, _) = gate.arity();
                let arity = match gate {
                    Gate::Not | Gate::Buf => 1,
                    _ => {
                        if rng.random_bool(0.15) {
                            3
                        } else {
                            2
                        }
                    }
                }
                .max(lo);
                let mut fanin = Vec::with_capacity(arity);
                for pin in 0..arity {
                    let pick = if pin == 0 && lvl > 0 {
                        *levels[lvl - 1].choose(&mut rng).expect("non-empty level")
                    } else if lvl == 0 || rng.random_bool(0.5) {
                        // Drain the coverage pool first, then *reuse*
                        // sources (flip-flop outputs drive several gates,
                        // which is what makes forward latch moves cost
                        // fanout splits).
                        pool.pop()
                            .unwrap_or_else(|| *sources.choose(&mut rng).expect("non-empty"))
                    } else {
                        let earlier = rng.random_range(0..lvl);
                        *levels[earlier].choose(&mut rng).expect("non-empty level")
                    };
                    fanin.push(pick);
                }
                let id = n.add_gate(format!("g{gate_no}"), gate, &fanin)?;
                gate_no += 1;
                this_level.push(id);
            }
            levels.push(this_level);
        }
        let all_shallow: Vec<CellId> = levels.iter().flatten().copied().collect();

        // Observation outputs: every dedicated tail source and every
        // source the shallow block left unused gets its own primary
        // output. This pins one latch per such source wherever it goes
        // (the PO edge always needs one), so no merge can silently delete
        // it and entering a tail really costs the extra frontier latch.
        collector_feeds.append(&mut pool);
        for (i, &src) in collector_feeds.iter().enumerate() {
            n.add_output(format!("obs{i}"), src)?;
        }

        // Flip-flop D pins: hard sinks own their tails; mid sinks share
        // mid tails round-robin with a varied fan-in count (1–5 sinks per
        // tail), giving the EDL-overhead sweep its cost/benefit spectrum;
        // the rest sample the shallow block.
        for (i, &ff) in flops.iter().enumerate() {
            let drv = if i < hard {
                hard_ends[i]
            } else if i < self.deep_sinks.min(self.flops) && !mid_ends.is_empty() {
                mid_ends[(i - hard) % mid_ends.len()]
            } else {
                *all_shallow.choose(&mut rng).expect("non-empty")
            };
            n.set_seq_input(ff, drv)?;
        }

        // Primary outputs sample the shallow block (primary outputs are
        // timing endpoints but carry no EDL area).
        for i in 0..self.outputs {
            let drv = *all_shallow.choose(&mut rng).expect("non-empty");
            n.add_output(format!("po{i}"), drv)?;
        }
        n.validate()?;
        Ok(n)
    }
}

/// The inverter loop, an adversarial instance family for the retiming
/// solve: `g0 = NAND(a, q)`, a chain `g{i} = NOT(g{i−1})` of
/// `gates − 1` inverters, and one flop `q = DFF(g{gates−1})` closing the
/// loop. Any retiming of it is trivial, but under a relaxed clock its
/// one endpoint is a G-RAR target whose pseudo node gates on the chain.
///
/// # Errors
/// Propagates netlist construction errors.
///
/// # Panics
/// Panics if `gates` is zero.
pub fn inverter_loop(gates: usize) -> Result<Netlist, NetlistError> {
    assert!(gates > 0, "the loop needs its NAND gate");
    let mut n = Netlist::new(format!("inverter_loop_{gates}"));
    let a = n.add_input("a");
    let q = n.add_gate("q", Gate::Dff, &[a])?;
    let mut prev = n.add_gate("g0", Gate::Nand, &[a, q])?;
    for i in 1..gates {
        prev = n.add_gate(format!("g{i}"), Gate::Not, &[prev])?;
    }
    n.set_seq_input(q, prev)?;
    n.validate()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_netlist::CombCloud;

    fn cfg() -> SynthConfig {
        SynthConfig {
            name: "t".into(),
            flops: 40,
            gates: 300,
            inputs: 12,
            outputs: 8,
            levels: 20,
            deep_sinks: 10,
            hard_sinks: 2,
            seed: 42,
        }
    }

    #[test]
    fn statistics_match_config() {
        let n = cfg().generate().unwrap();
        let s = n.stats();
        assert_eq!(s.dffs, 40);
        assert_eq!(s.inputs, 12);
        // Declared outputs plus per-source observation outputs.
        assert!(s.outputs >= 8);
        assert!(s.gates >= 300, "at least one gate per level");
        n.validate().unwrap();
    }

    #[test]
    fn deterministic() {
        let a = cfg().generate().unwrap();
        let b = cfg().generate().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = cfg().generate().unwrap();
        let mut c2 = cfg();
        c2.seed = 43;
        let b = c2.generate().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn cloud_extracts_and_is_deep() {
        let n = cfg().generate().unwrap();
        let cloud = CombCloud::extract(&n).unwrap();
        assert_eq!(cloud.sources().len(), 12 + 40);
        assert!(cloud.sinks().len() >= 40 + 8);
        // Depth: longest fanin chain spans most levels.
        let mut depth = vec![0usize; cloud.len()];
        let mut max_depth = 0;
        for &v in cloud.topo() {
            for &u in &cloud.node(v).fanin {
                depth[v.index()] = depth[v.index()].max(depth[u.index()] + 1);
            }
            max_depth = max_depth.max(depth[v.index()]);
        }
        assert!(max_depth >= 20, "expected ≥ 20 levels, got {max_depth}");
    }

    #[test]
    fn inverter_loop_closes_through_its_flop() {
        let n = inverter_loop(5).unwrap();
        let s = n.stats();
        assert_eq!((s.dffs, s.inputs, s.gates), (1, 1, 5));
    }
}
