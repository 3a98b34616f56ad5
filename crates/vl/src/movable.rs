//! The movable-master extension (Section VI-E).
//!
//! Releasing the "do-not-retime" constraint on master latches lets the
//! commercial tool reposition masters too. We model the dominant,
//! area-relevant move as a greedy **forward master merge**: when every
//! fanin of a gate is the output of a single-fanout flip-flop, those
//! flip-flops can be pushed forward through the gate and merged into one
//! (the classic forward retiming move that reduces register count). The
//! paper finds this extra freedom yields "little to no gain" on average
//! (Table IX); the greedy pass reproduces that: a handful of merges on
//! some circuits, none on others.

use std::collections::HashMap;

use retime_netlist::{CellId, Gate, Netlist, NetlistError};

/// Applies forward master merges until a fixpoint (or `max_moves`),
/// returning the transformed netlist and the number of moves applied.
///
/// Only flip-flop style netlists are transformed (the move happens before
/// master/slave splitting in the flow).
///
/// # Errors
/// Propagates netlist reconstruction errors.
pub fn forward_merge_pass(n: &Netlist, max_moves: usize) -> Result<(Netlist, usize), NetlistError> {
    let mut current = n.clone();
    let mut moves = 0;
    while moves < max_moves {
        match forward_merge_once(&current)? {
            Some(next) => {
                current = next;
                moves += 1;
            }
            None => break,
        }
    }
    Ok((current, moves))
}

/// Finds one profitable merge and applies it, or returns `None`.
fn forward_merge_once(n: &Netlist) -> Result<Option<Netlist>, NetlistError> {
    let fanouts = n.fanouts();
    // Candidate: combinational gate g with ≥ 2 fanins, every fanin a
    // distinct DFF with exactly one fanout (g itself), and g is not
    // already registered... any such gate trades k flip-flops for 1.
    let mut candidate: Option<CellId> = None;
    'scan: for (i, c) in n.cells().iter().enumerate() {
        if !c.gate.is_combinational() || c.fanin.len() < 2 {
            continue;
        }
        let mut seen = Vec::new();
        for &f in &c.fanin {
            let fc = n.cell(f);
            if fc.gate != Gate::Dff || fanouts.row(f.index()).len() != 1 || seen.contains(&f) {
                continue 'scan;
            }
            seen.push(f);
        }
        candidate = Some(CellId(i as u32));
        break;
    }
    let Some(gate_id) = candidate else {
        return Ok(None);
    };

    // Rebuild the netlist: the fanin DFFs are bypassed (their D drivers
    // feed the gate directly) and a new DFF is inserted after the gate.
    let mut out = Netlist::new(n.name());
    let mut map: HashMap<CellId, CellId> = HashMap::new();
    let bypassed: Vec<CellId> = n.cell(gate_id).fanin.clone();
    // First pass: create cells (placeholder fanins), skipping bypassed
    // DFFs; add the new DFF right after the gate.
    let mut new_dff: Option<CellId> = None;
    for (i, c) in n.cells().iter().enumerate() {
        let id = CellId(i as u32);
        if bypassed.contains(&id) {
            continue;
        }
        match c.gate {
            Gate::Input => {
                map.insert(id, out.add_input(c.name.clone()));
            }
            Gate::Output => { /* second pass */ }
            g => {
                let nid = out.add_gate(c.name.clone(), g, &vec![CellId(0); c.fanin.len()])?;
                map.insert(id, nid);
                if id == gate_id {
                    let d = out.add_gate(format!("{}__fwd", c.name), Gate::Dff, &[nid])?;
                    new_dff = Some(d);
                }
            }
        }
    }
    let new_dff = new_dff.ok_or_else(|| {
        NetlistError::Inconsistent("merge candidate vanished during rebuild".into())
    })?;
    // Resolve a fanin reference in the new netlist: bypassed DFFs map to
    // their D drivers; consumers of the merged gate read the new DFF.
    let resolve = |map: &HashMap<CellId, CellId>, f: CellId, reader_is_gate: bool| -> CellId {
        if bypassed.contains(&f) {
            let d_driver = n.cell(f).fanin[0];
            map[&d_driver]
        } else if f == gate_id && !reader_is_gate {
            new_dff
        } else {
            map[&f]
        }
    };
    for (i, c) in n.cells().iter().enumerate() {
        let id = CellId(i as u32);
        if bypassed.contains(&id) {
            continue;
        }
        match c.gate {
            Gate::Input => {}
            Gate::Output => {
                let drv = resolve(&map, c.fanin[0], false);
                out.add_output(c.name.clone(), drv)?;
            }
            _ => {
                let fanin: Vec<CellId> = c
                    .fanin
                    .iter()
                    .map(|&f| {
                        // The merged gate itself keeps direct (bypassed)
                        // drivers; everyone else reads it through the new
                        // flip-flop.
                        resolve(&map, f, id == gate_id)
                    })
                    .collect();
                out.replace_fanin(map[&id], fanin);
            }
        }
    }
    out.validate()?;
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_netlist::bench;

    #[test]
    fn merges_sibling_flops() {
        let n = bench::parse(
            "m",
            "\
INPUT(a)
INPUT(b)
OUTPUT(z)
q1 = DFF(a)
q2 = DFF(b)
g = AND(q1, q2)
z = BUFF(g)
",
        )
        .unwrap();
        let (out, moves) = forward_merge_pass(&n, 8).unwrap();
        assert_eq!(moves, 1);
        let s = out.stats();
        assert_eq!(s.dffs, 1, "two flops merge into one");
        // Function preserved modulo one cycle of latency on that path:
        // structure check is sufficient here; latency-aware equivalence
        // is exercised in the integration suite.
        out.validate().unwrap();
    }

    #[test]
    fn no_merge_when_flop_shared() {
        let n = bench::parse(
            "m",
            "\
INPUT(a)
INPUT(b)
OUTPUT(z)
OUTPUT(w)
q1 = DFF(a)
q2 = DFF(b)
g = AND(q1, q2)
w = NOT(q1)
z = BUFF(g)
",
        )
        .unwrap();
        let (_, moves) = forward_merge_pass(&n, 8).unwrap();
        assert_eq!(moves, 0, "q1 fans out elsewhere; the merge is illegal");
    }

    #[test]
    fn respects_move_budget() {
        let n = bench::parse(
            "m",
            "\
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(z)
q1 = DFF(a)
q2 = DFF(b)
q3 = DFF(c)
q4 = DFF(d)
g1 = AND(q1, q2)
g2 = OR(q3, q4)
z = XOR(g1, g2)
",
        )
        .unwrap();
        let (_, moves) = forward_merge_pass(&n, 1).unwrap();
        assert_eq!(moves, 1);
        // Full pass cascades: g1's and g2's flops merge, and the two
        // merged flops then merge again through the XOR.
        let (out, moves) = forward_merge_pass(&n, 8).unwrap();
        assert_eq!(moves, 3);
        assert_eq!(out.stats().dffs, 1);
    }
}
