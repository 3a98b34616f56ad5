//! Differential test of the compiled simulation kernel against the
//! per-gate interpreter it replaced.
//!
//! The oracle below walks the netlist cell by cell every cycle and
//! evaluates each gate with [`Gate::eval`] on a freshly collected fanin
//! vector. On random flip-flop netlists, their master/slave forms,
//! retimed forms and randomly mutated copies, [`Simulator`] must match
//! it cycle for cycle, and [`equivalent`] must return the oracle's
//! verdict with the same first-mismatch cycle.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use retime_netlist::{CellId, CombCloud, Cut, Gate, Netlist, NetlistError, NodeId};
use retime_sim::{equivalent, Simulator};

/// The per-gate interpreter: the reference semantics of one cycle.
struct Oracle<'n> {
    n: &'n Netlist,
    order: Vec<CellId>,
    values: Vec<bool>,
    state: Vec<bool>,
    state_cells: Vec<CellId>,
}

impl<'n> Oracle<'n> {
    fn new(n: &'n Netlist) -> Result<Oracle<'n>, NetlistError> {
        n.validate()?;
        let order = oracle_order(n)?;
        let state_cells = (0..n.len() as u32)
            .map(CellId)
            .filter(|&c| matches!(n.cell(c).gate, Gate::Dff | Gate::LatchMaster))
            .collect();
        Ok(Oracle {
            n,
            order,
            values: vec![false; n.len()],
            state: vec![false; n.len()],
            state_cells,
        })
    }

    fn step(&mut self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.n.inputs().len());
        for (&pi, &v) in self.n.inputs().iter().zip(inputs) {
            self.values[pi.index()] = v;
        }
        for &id in &self.state_cells {
            self.values[id.index()] = self.state[id.index()];
        }
        for &id in &self.order {
            let cell = self.n.cell(id);
            match cell.gate {
                Gate::Input | Gate::Dff | Gate::LatchMaster => {}
                Gate::LatchSlave | Gate::Output => {
                    self.values[id.index()] = self.values[cell.fanin[0].index()];
                }
                _ => {
                    let ins: Vec<bool> =
                        cell.fanin.iter().map(|&f| self.values[f.index()]).collect();
                    self.values[id.index()] = cell.gate.eval(&ins);
                }
            }
        }
        let outputs = self
            .n
            .outputs()
            .iter()
            .map(|&o| self.values[self.n.cell(o).fanin[0].index()])
            .collect();
        for &id in &self.state_cells {
            let d = self.n.cell(id).fanin[0];
            self.state[id.index()] = self.values[d.index()];
        }
        outputs
    }
}

/// Kahn order in which only inputs, flip-flops and master latches are
/// sources.
fn oracle_order(n: &Netlist) -> Result<Vec<CellId>, NetlistError> {
    let is_source = |g: Gate| matches!(g, Gate::Input | Gate::Dff | Gate::LatchMaster);
    let mut indeg = vec![0usize; n.len()];
    for (vi, v) in n.cells().iter().enumerate() {
        if !is_source(v.gate) {
            indeg[vi] = v
                .fanin
                .iter()
                .filter(|&&u| !is_source(n.cell(u).gate))
                .count();
        }
    }
    let fanouts = n.fanouts();
    let mut queue: Vec<CellId> = (0..n.len() as u32)
        .map(CellId)
        .filter(|c| indeg[c.index()] == 0)
        .collect();
    let mut order = Vec::with_capacity(n.len());
    while let Some(u) = queue.pop() {
        order.push(u);
        if is_source(n.cell(u).gate) {
            continue;
        }
        for &v in fanouts.row(u.index()) {
            if !is_source(n.cell(v).gate) {
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    queue.push(v);
                }
            }
        }
    }
    if order.len() != n.len() {
        let witness = (0..n.len())
            .find(|&i| indeg[i] > 0)
            .map(|i| n.cells()[i].name.clone())
            .unwrap_or_default();
        return Err(NetlistError::CombinationalCycle { witness });
    }
    Ok(order)
}

/// The oracle's equivalence check: the same stimulus stream, drawn one
/// fresh vector per cycle.
fn oracle_equivalent(a: &Netlist, b: &Netlist, cycles: usize, seed: u64) -> Result<(), usize> {
    let mut sa = Oracle::new(a).expect("valid");
    let mut sb = Oracle::new(b).expect("valid");
    let mut rng = StdRng::seed_from_u64(seed);
    for cycle in 0..cycles {
        let inputs: Vec<bool> = (0..a.inputs().len()).map(|_| rng.random()).collect();
        if sa.step(&inputs) != sb.step(&inputs) {
            return Err(cycle);
        }
    }
    Ok(())
}

const N_ARY: [Gate; 6] = [
    Gate::And,
    Gate::Nand,
    Gate::Or,
    Gate::Nor,
    Gate::Xor,
    Gate::Xnor,
];

/// A flip-flop netlist as plain data, so it can be mutated and rebuilt.
/// Signals are numbered inputs first, then flip-flops, then gates; a
/// gate reads only lower-numbered signals, so the logic is acyclic.
#[derive(Debug, Clone)]
struct Spec {
    inputs: usize,
    /// D driver of each flip-flop (any signal).
    dffs: Vec<usize>,
    gates: Vec<(Gate, Vec<usize>)>,
    /// Driver of each primary output (any signal).
    outputs: Vec<usize>,
}

impl Spec {
    fn signals(&self) -> usize {
        self.inputs + self.dffs.len() + self.gates.len()
    }

    fn random(rng: &mut StdRng) -> Spec {
        let inputs = rng.random_range(0..5usize);
        let n_dffs = rng.random_range(0..7usize);
        let n_gates = rng.random_range(1..40usize);
        if inputs + n_dffs == 0 {
            // The first gate would have nothing to read: draw again.
            return Spec::random(rng);
        }
        let mut gates = Vec::with_capacity(n_gates);
        for g in 0..n_gates {
            let below = inputs + n_dffs + g;
            let gate = match rng.random_range(0..8u32) {
                0 => Gate::Not,
                1 => Gate::Buf,
                k => N_ARY[k as usize - 2],
            };
            let arity = match gate {
                Gate::Not | Gate::Buf => 1,
                // Mostly narrow gates, sometimes a very wide one.
                _ if rng.random_bool(0.05) => rng.random_range(9..65usize),
                _ => rng.random_range(1..9usize),
            };
            let fanin = (0..arity).map(|_| rng.random_range(0..below)).collect();
            gates.push((gate, fanin));
        }
        let total = inputs + n_dffs + n_gates;
        let dffs = (0..n_dffs).map(|_| rng.random_range(0..total)).collect();
        let mut outputs: Vec<usize> = (0..rng.random_range(1..6usize))
            .map(|_| rng.random_range(0..total))
            .collect();
        // Outputs driven straight by an input or a flip-flop.
        if inputs + n_dffs > 0 && rng.random_bool(0.5) {
            outputs.push(rng.random_range(0..inputs + n_dffs));
        }
        Spec {
            inputs,
            dffs,
            gates,
            outputs,
        }
    }

    fn build(&self) -> Netlist {
        let mut n = Netlist::new("rand");
        let mut ids = Vec::with_capacity(self.signals());
        for i in 0..self.inputs {
            ids.push(n.add_input(format!("i{i}")));
        }
        for q in 0..self.dffs.len() {
            ids.push(
                n.add_gate(format!("q{q}"), Gate::Dff, &[CellId(0)])
                    .unwrap(),
            );
        }
        for (g, (gate, fanin)) in self.gates.iter().enumerate() {
            let fanin: Vec<CellId> = fanin.iter().map(|&s| ids[s]).collect();
            ids.push(n.add_gate(format!("g{g}"), *gate, &fanin).unwrap());
        }
        for (q, &d) in self.dffs.iter().enumerate() {
            n.set_seq_input(ids[self.inputs + q], ids[d]).unwrap();
        }
        for (o, &s) in self.outputs.iter().enumerate() {
            n.add_output(format!("o{o}"), ids[s]).unwrap();
        }
        n.validate().unwrap();
        n
    }

    /// One random functional edit: a gate kind swapped, a gate fanin, a
    /// flip-flop D pin or an output rewired.
    fn mutate(&self, rng: &mut StdRng) -> Spec {
        let mut m = self.clone();
        let first_gate = m.inputs + m.dffs.len();
        let total = m.signals();
        match rng.random_range(0..4u32) {
            0 => {
                let g = rng.random_range(0..m.gates.len());
                let (gate, fanin) = &mut m.gates[g];
                *gate = match *gate {
                    Gate::Not => Gate::Buf,
                    Gate::Buf => Gate::Not,
                    _ if fanin.len() == 1 && rng.random_bool(0.3) => Gate::Not,
                    _ => N_ARY[rng.random_range(0..N_ARY.len())],
                };
            }
            1 if first_gate > 0 => {
                let g = rng.random_range(0..m.gates.len());
                let pin = rng.random_range(0..m.gates[g].1.len());
                m.gates[g].1[pin] = rng.random_range(0..first_gate + g);
            }
            2 if !m.dffs.is_empty() => {
                let q = rng.random_range(0..m.dffs.len());
                m.dffs[q] = rng.random_range(0..total);
            }
            _ => {
                let o = rng.random_range(0..m.outputs.len());
                m.outputs[o] = rng.random_range(0..total);
            }
        }
        m
    }
}

/// A retimed latch form: slaves moved through the fan-in cone of a
/// random gate, when that cut is legal.
fn retimed(ff: &Netlist, rng: &mut StdRng) -> Option<Netlist> {
    let cloud = CombCloud::extract(ff).ok()?;
    let gates: Vec<NodeId> = (0..cloud.len() as u32)
        .map(NodeId)
        .filter(|&v| cloud.kind(v).is_gate())
        .collect();
    if gates.is_empty() {
        return None;
    }
    let mut cut = Cut::initial(&cloud);
    for _ in 0..rng.random_range(1..4usize) {
        let v = gates[rng.random_range(0..gates.len())];
        for u in cloud.fanin_cone(v) {
            cut.set_moved(u, true);
        }
    }
    cut.validate(&cloud).ok()?;
    cut.apply(&cloud, ff).ok()
}

/// Cycle-by-cycle agreement of kernel and oracle on one netlist, across
/// a reset.
fn assert_same_cycles(n: &Netlist, rng: &mut StdRng, what: &str) {
    let mut kernel = Simulator::new(n).expect("valid");
    let mut oracle = Oracle::new(n).expect("valid");
    assert_eq!(kernel.state_len(), oracle.state_cells.len(), "{what}");
    for cycle in 0..48 {
        let inputs: Vec<bool> = (0..n.inputs().len()).map(|_| rng.random()).collect();
        let want = oracle.step(&inputs);
        assert_eq!(kernel.step(&inputs), want, "{what}, cycle {cycle}");
        if cycle == 31 {
            kernel.reset();
            oracle = Oracle::new(n).expect("valid");
        }
    }
}

#[test]
fn kernel_matches_the_per_gate_interpreter() {
    let mut rng = StdRng::seed_from_u64(0x0AC1E);
    let (mut verdicts, mut mismatches, mut retimings) = (0, 0, 0);
    for case in 0..300 {
        let spec = Spec::random(&mut rng);
        let ff = spec.build();
        let ms = ff.to_master_slave().unwrap();
        let mutant_spec = spec.mutate(&mut rng);
        let mutant = mutant_spec.build();
        let mutant_ms = mutant.to_master_slave().unwrap();
        let mut forms = vec![
            ("ff", ff.clone()),
            ("master/slave", ms),
            ("mutant", mutant),
            ("mutant master/slave", mutant_ms),
        ];
        if let Some(r) = retimed(&ff, &mut rng) {
            forms.push(("retimed", r));
            retimings += 1;
        }
        for (what, n) in &forms {
            assert_same_cycles(n, &mut rng, &format!("case {case}: {what}"));
        }
        for (what, n) in &forms[1..] {
            let seed = rng.random();
            let want = oracle_equivalent(&ff, n, 64, seed);
            let got = equivalent(&ff, n, 64, seed).expect("valid");
            assert_eq!(got, want, "case {case}: ff vs {what}, seed {seed}");
            verdicts += 1;
            mismatches += usize::from(got.is_err());
        }
    }
    // The battery must exercise both verdicts and real retimings.
    assert!(
        mismatches > 50,
        "only {mismatches} of {verdicts} verdicts differ"
    );
    assert!(verdicts - mismatches > 300, "too few equivalent pairs");
    assert!(retimings > 50, "only {retimings} retimed forms");
}

#[test]
fn every_gate_kind_at_every_arity() {
    let mut rng = StdRng::seed_from_u64(7);
    for gate in N_ARY {
        for arity in (1..=12).chain([31, 64, 200]) {
            let spec = Spec {
                inputs: arity,
                dffs: vec![arity + 1], // registers the gate's output
                gates: vec![(gate, (0..arity).collect())],
                outputs: vec![arity + 1, arity],
            };
            let n = spec.build();
            assert_same_cycles(&n, &mut rng, &format!("{gate:?}/{arity}"));
            assert_same_cycles(&n.to_master_slave().unwrap(), &mut rng, "latches");
        }
    }
}

#[test]
fn construction_errors_match_the_oracle() {
    // A loop through a slave latch is combinational at the cycle level,
    // though `validate` treats the slave as sequential.
    let mut n = Netlist::new("slave_loop");
    let a = n.add_input("a");
    let s = n.add_gate("s", Gate::LatchSlave, &[a]).unwrap();
    let g = n.add_gate("g", Gate::Nand, &[a, s]).unwrap();
    n.replace_fanin(s, vec![g]);
    n.add_output("z", g).unwrap();
    let want = Oracle::new(&n).err().expect("cycle");
    assert!(matches!(want, NetlistError::CombinationalCycle { .. }));
    assert_eq!(Simulator::new(&n).err(), Some(want));

    let mut n = Netlist::new("gate_loop");
    let a = n.add_input("a");
    let g1 = n.add_gate("g1", Gate::And, &[a, a]).unwrap();
    let g2 = n.add_gate("g2", Gate::Not, &[g1]).unwrap();
    n.replace_fanin(g1, vec![a, g2]);
    n.add_output("z", g2).unwrap();
    assert_eq!(Simulator::new(&n).err(), Oracle::new(&n).err());
}
