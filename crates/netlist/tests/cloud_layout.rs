//! Cloud-layout oracle: on random flip-flop and master/slave netlists,
//! the flat cloud — `fanin(v)`, `fanout(v)`, `edges()`, `topo()` — and
//! every cycle witness (cloud extraction, the netlist's combinational
//! order, the `.bench` reader) equal a reference built the plain way:
//! one `Vec` per node filled from the extraction's edge list in order,
//! and a Kahn sort over those lists that seeds in index order and pops
//! last in, first out.
//!
//! Clark's max is order-sensitive, so statistical results depend on the
//! exact fanin and fanout order this pins.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use retime_netlist::{bench, CellId, CombCloud, Gate, Netlist, NetlistError, NodeId, NodeKind};

/// The cloud built the plain way.
#[derive(Debug)]
struct Reference {
    names: Vec<String>,
    kinds: Vec<NodeKind>,
    fanin: Vec<Vec<NodeId>>,
    fanout: Vec<Vec<NodeId>>,
    sources: Vec<NodeId>,
    sinks: Vec<NodeId>,
    topo: Vec<NodeId>,
    producer: Vec<Option<NodeId>>,
    sink_of: Vec<Option<NodeId>>,
}

/// Kahn's algorithm over per-node fanout lists, where edges out of a
/// source count for nothing: the first index left with an in-degree is
/// the witness.
fn kahn(fanout: &[Vec<usize>], is_source: impl Fn(usize) -> bool) -> Result<Vec<usize>, usize> {
    let n = fanout.len();
    let mut indeg = vec![0usize; n];
    for (u, row) in fanout.iter().enumerate() {
        if !is_source(u) {
            for &v in row {
                indeg[v] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(u) = queue.pop() {
        order.push(u);
        if is_source(u) {
            continue;
        }
        for &v in &fanout[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                queue.push(v);
            }
        }
    }
    match (0..n).find(|&i| indeg[i] > 0) {
        Some(w) => Err(w),
        None => Ok(order),
    }
}

/// The netlist's combinational order: sequential cells and inputs are
/// sources.
fn netlist_order(n: &Netlist) -> Result<Vec<CellId>, NetlistError> {
    let cells = n.cells();
    let mut fanout = vec![Vec::new(); cells.len()];
    for (v, c) in cells.iter().enumerate() {
        for &u in &c.fanin {
            fanout[u.index()].push(v);
        }
    }
    let source = |u: usize| cells[u].gate.is_sequential() || cells[u].gate == Gate::Input;
    kahn(&fanout, source)
        .map(|order| order.into_iter().map(|c| CellId(c as u32)).collect())
        .map_err(|w| NetlistError::CombinationalCycle {
            witness: cells[w].name.clone(),
        })
}

fn inconsistent(m: String) -> NetlistError {
    NetlistError::Inconsistent(m)
}

/// The cloud of `n`, extracted the plain way.
fn reference(n: &Netlist) -> Result<Reference, NetlistError> {
    netlist_order(n)?;
    let cells = n.cells();
    let mut r = Reference {
        names: Vec::new(),
        kinds: Vec::new(),
        fanin: Vec::new(),
        fanout: Vec::new(),
        sources: Vec::new(),
        sinks: Vec::new(),
        topo: Vec::new(),
        producer: vec![None; cells.len()],
        sink_of: vec![None; cells.len()],
    };
    let push = |r: &mut Reference, name: String, kind: NodeKind| {
        r.names.push(name);
        r.kinds.push(kind);
        r.fanin.push(Vec::new());
        r.fanout.push(Vec::new());
        NodeId(r.names.len() as u32 - 1)
    };
    for (i, c) in cells.iter().enumerate() {
        let id = CellId(i as u32);
        match c.gate {
            Gate::Input => {
                let s = push(&mut r, c.name.clone(), NodeKind::Source { master: None });
                r.sources.push(s);
                r.producer[i] = Some(s);
            }
            Gate::Dff | Gate::LatchMaster => {
                let s = push(
                    &mut r,
                    format!("{}.q", c.name),
                    NodeKind::Source { master: Some(id) },
                );
                r.sources.push(s);
                r.producer[i] = Some(s);
            }
            Gate::LatchSlave | Gate::Output => {}
            gate => {
                let g = push(&mut r, c.name.clone(), NodeKind::Gate { cell: id, gate });
                r.producer[i] = Some(g);
            }
        }
    }
    for (i, c) in cells.iter().enumerate() {
        if c.gate == Gate::LatchSlave {
            let m = c.fanin[0];
            let src = r.producer[m.index()].ok_or_else(|| {
                inconsistent(format!("slave `{}` is not fed by a master latch", c.name))
            })?;
            if n.cell(m).gate != Gate::LatchMaster {
                return Err(inconsistent(format!(
                    "slave `{}` is fed by non-master `{}`",
                    c.name,
                    n.cell(m).name
                )));
            }
            r.producer[i] = Some(src);
        }
    }
    let mut edges = Vec::new();
    for (i, c) in cells.iter().enumerate() {
        let resolve = |f: CellId| {
            r.producer[f.index()].ok_or_else(|| {
                inconsistent(format!(
                    "cell `{}` has no producing cloud node",
                    n.cell(f).name
                ))
            })
        };
        match c.gate {
            Gate::Dff | Gate::LatchMaster | Gate::Output => {
                let drv = resolve(c.fanin[0])?;
                let (name, master) = if c.gate == Gate::Output {
                    (c.name.clone(), None)
                } else {
                    (format!("{}.d", c.name), Some(CellId(i as u32)))
                };
                let t = push(&mut r, name, NodeKind::Sink { master });
                r.sinks.push(t);
                r.sink_of[i] = Some(t);
                edges.push((drv, t));
            }
            Gate::LatchSlave | Gate::Input => {}
            _ => {
                let g = r.producer[i].unwrap();
                for &f in &c.fanin {
                    edges.push((resolve(f)?, g));
                }
            }
        }
    }
    for (u, v) in edges {
        r.fanout[u.index()].push(v);
        r.fanin[v.index()].push(u);
    }
    let fanout: Vec<Vec<usize>> = r
        .fanout
        .iter()
        .map(|row| row.iter().map(|v| v.index()).collect())
        .collect();
    r.topo = kahn(&fanout, |_| false)
        .map_err(|w| NetlistError::CombinationalCycle {
            witness: r.names[w].clone(),
        })?
        .into_iter()
        .map(|v| NodeId(v as u32))
        .collect();
    Ok(r)
}

/// The `.bench` reader's cycle witness, the plain way: its cells are the
/// statements of `bench::write` in order (inputs, then every other cell
/// but the output markers).
fn bench_witness(n: &Netlist) -> Option<String> {
    let cells = n.cells();
    let statements: Vec<usize> = n
        .inputs()
        .iter()
        .map(|c| c.index())
        .chain((0..cells.len()).filter(|&c| !matches!(cells[c].gate, Gate::Input | Gate::Output)))
        .collect();
    let mut row = vec![usize::MAX; cells.len()];
    for (r, &c) in statements.iter().enumerate() {
        row[c] = r;
    }
    let mut fanout = vec![Vec::new(); statements.len()];
    for (v, &c) in statements.iter().enumerate() {
        for &u in &cells[c].fanin {
            fanout[row[u.index()]].push(v);
        }
    }
    let gate = |r: usize| cells[statements[r]].gate;
    kahn(&fanout, |u| {
        gate(u).is_sequential() || gate(u) == Gate::Input
    })
    .err()
    .map(|w| cells[statements[w]].name.clone())
}

/// A random flip-flop netlist, cells declared in a shuffled order. Each
/// gate reads inputs, flip-flops and lower-ranked gates; with `loops`,
/// some gates also read a higher-ranked one, which may close a cycle.
fn random_netlist(seed: u64, loops: bool) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs: usize = rng.random_range(1..5usize);
    let ffs: usize = rng.random_range(0..6usize);
    let gates: usize = rng.random_range(1..40usize);
    let mut names: Vec<String> = (0..inputs).map(|i| format!("i{i}")).collect();
    names.extend((0..ffs).map(|i| format!("q{i}")));
    names.extend((0..gates).map(|i| format!("g{i}")));
    const LOGIC: [Gate; 7] = [
        Gate::And,
        Gate::Nand,
        Gate::Or,
        Gate::Nor,
        Gate::Xor,
        Gate::Not,
        Gate::Buf,
    ];
    // Fan-ins by position in `names`.
    let mut spec: Vec<(Gate, Vec<usize>)> = Vec::new();
    for _ in 0..inputs {
        spec.push((Gate::Input, Vec::new()));
    }
    for _ in 0..ffs {
        spec.push((Gate::Dff, vec![rng.random_range(0..names.len())]));
    }
    for g in 0..gates {
        let gate = LOGIC[rng.random_range(0..LOGIC.len())];
        let arity = match gate {
            Gate::Not | Gate::Buf => 1,
            _ => rng.random_range(2..5usize),
        };
        let fanin = (0..arity)
            .map(|_| {
                let ceiling = if loops && rng.random_bool(0.1) {
                    names.len()
                } else {
                    inputs + ffs + g
                };
                rng.random_range(0..ceiling.max(1))
            })
            .collect();
        spec.push((gate, fanin));
    }
    let mut declare: Vec<usize> = (0..names.len()).collect();
    declare.shuffle(&mut rng);
    let mut n = Netlist::new(format!("r{seed}"));
    let mut id = vec![CellId(0); names.len()];
    for &k in &declare {
        let (gate, fanin) = &spec[k];
        id[k] = if *gate == Gate::Input {
            n.add_input(names[k].clone())
        } else {
            n.add_gate(names[k].clone(), *gate, &vec![CellId(0); fanin.len()])
                .unwrap()
        };
    }
    for &k in &declare {
        let (gate, fanin) = &spec[k];
        if *gate != Gate::Input {
            n.replace_fanin(id[k], fanin.iter().map(|&f| id[f]).collect());
        }
    }
    for k in 0..rng.random_range(1..4usize) {
        let drv = id[rng.random_range(0..names.len())];
        n.add_output(format!("{}__po{k}", n.cell(drv).name), drv)
            .unwrap();
    }
    n
}

/// Checks one netlist against the reference; returns whether it had a
/// cycle.
fn check(n: &Netlist, what: &str) -> bool {
    let want = netlist_order(n);
    assert_eq!(n.topo_order_combinational(), want, "{what}: netlist order");
    let cloud = CombCloud::extract(n);
    let r = match reference(n) {
        Ok(r) => r,
        Err(e) => {
            assert_eq!(cloud.err(), Some(e), "{what}: extraction error");
            return want.is_err();
        }
    };
    let cloud = cloud.unwrap_or_else(|e| panic!("{what}: extraction failed: {e}"));
    assert_eq!(cloud.len(), r.names.len(), "{what}: node count");
    for v in cloud.node_ids() {
        let i = v.index();
        assert_eq!(cloud.node_name(v), r.names[i], "{what}: name of {v}");
        assert_eq!(cloud.kind(v), r.kinds[i], "{what}: kind of {v}");
        assert_eq!(cloud.fanin(v), r.fanin[i], "{what}: fanin of {v}");
        assert_eq!(cloud.fanout(v), r.fanout[i], "{what}: fanout of {v}");
    }
    let edges: Vec<(NodeId, NodeId)> = cloud.edges().map(|e| (e.from, e.to)).collect();
    let want_edges: Vec<(NodeId, NodeId)> = r
        .fanout
        .iter()
        .enumerate()
        .flat_map(|(u, row)| row.iter().map(move |&v| (NodeId(u as u32), v)))
        .collect();
    assert_eq!(edges, want_edges, "{what}: edges");
    assert_eq!(cloud.edge_count(), want_edges.len(), "{what}: edge count");
    assert_eq!(cloud.topo(), r.topo, "{what}: topological order");
    assert_eq!(cloud.sources(), r.sources, "{what}: sources");
    assert_eq!(cloud.sinks(), r.sinks, "{what}: sinks");
    for c in 0..n.len() {
        let cell = CellId(c as u32);
        assert_eq!(
            cloud.producer_of_cell(cell),
            r.producer[c],
            "{what}: producer"
        );
        assert_eq!(cloud.sink_of_cell(cell), r.sink_of[c], "{what}: sink");
    }
    false
}

#[test]
fn flat_cloud_matches_the_per_node_reference() {
    let (mut cyclic, mut acyclic) = (0, 0);
    for seed in 0..400 {
        let loops = seed % 2 == 1;
        let ff = random_netlist(seed, loops);
        let cycle = check(&ff, &format!("seed {seed} (flip-flops)"));
        if cycle {
            cyclic += 1;
        } else {
            acyclic += 1;
        }
        // The `.bench` reader diagnoses the same cycles, each through the
        // first statement left unordered.
        let text = bench::write(&ff);
        match (bench::parse("x", &text), bench_witness(&ff)) {
            (Ok(_), None) => assert!(!cycle, "seed {seed}: the reader missed a cycle"),
            (Err(e), Some(witness)) => assert_eq!(
                e,
                NetlistError::CombinationalCycle { witness },
                "seed {seed}: reader witness"
            ),
            (got, want) => panic!("seed {seed}: the reader gives {got:?}, the reference {want:?}"),
        }
        let ms = ff.to_master_slave().unwrap();
        check(&ms, &format!("seed {seed} (master/slave)"));
    }
    // Both kinds of netlist occur, so both halves of the oracle ran.
    assert!(
        cyclic > 20 && acyclic > 200,
        "{cyclic} cyclic, {acyclic} acyclic"
    );
}

#[test]
fn slaves_off_the_master_get_the_reference_error() {
    // A slave read off a gate, off an input, and off a later slave.
    for (src, want) in [
        (
            "INPUT(a)\nOUTPUT(z)\ng = NOT(a)\ns = LATCHS(g)\nz = NOT(s)\n",
            "slave `s` is fed by non-master `g`",
        ),
        (
            "INPUT(a)\nOUTPUT(s)\ns = LATCHS(a)\n",
            "slave `s` is fed by non-master `a`",
        ),
        (
            "INPUT(a)\nOUTPUT(s1)\ns1 = LATCHS(s2)\ns2 = LATCHS(m)\nm = LATCHM(a)\n",
            "slave `s1` is not fed by a master latch",
        ),
    ] {
        let n = bench::parse("x", src).unwrap();
        let err = CombCloud::extract(&n).unwrap_err();
        assert_eq!(err, NetlistError::Inconsistent(want.to_string()));
        assert_eq!(reference(&n).unwrap_err(), err);
    }
}
