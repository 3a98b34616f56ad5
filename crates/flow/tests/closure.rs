//! [`Closure`] against brute force.
//!
//! Random instances of at most 10 nodes carry random weights,
//! requirements and forced-in/forced-out nodes. Enumerating all `2^n`
//! node sets gives every closure that honours the forcing. The solver
//! must then:
//!
//! * return [`FlowError::Infeasible`] exactly when no such closure
//!   exists (a forced-in node transitively requires a forced-out one),
//! * otherwise return a closure of the best weight,
//! * and among the optimal closures return the inclusion-minimal one:
//!   every optimal closure contains it,
//! * with a preflow certificate that passes the verifier's linear-time
//!   [`retime_verify::check_closure_certificate`], and reports the same
//!   closure.
//!
//! A second property drives one [`Closure`] through a sequence of
//! re-weightings — gains that rise, weights that fall, unchanged
//! weights, weights that change sign — solving after each. Whether the
//! solve resumed the kept preflow or rebuilt the network, its answer
//! must be bit-identical to a fresh closure's, and its certificate must
//! pass.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retime_flow::{Closure, FlowError};
use retime_verify::check_closure_certificate;

struct Instance {
    n: usize,
    weights: Vec<i64>,
    requirements: Vec<(usize, usize)>,
    forced_in: Vec<usize>,
    forced_out: Vec<usize>,
}

impl Instance {
    fn random(n: usize, seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        // Small weights make equal-weight optima, hence ties, common.
        let weights = (0..n).map(|_| rng.random_range(-4..=4i64)).collect();
        let requirements = (0..rng.random_range(0..=2 * n))
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .collect();
        let mut pick = |p: f64| (0..n).filter(|_| rng.random_bool(p)).collect::<Vec<_>>();
        let forced_in = pick(0.1);
        let forced_out = pick(0.1);
        Instance {
            n,
            weights,
            requirements,
            forced_in,
            forced_out,
        }
    }

    fn closure(&self) -> Closure {
        let mut c = Closure::new(self.n);
        for (v, &w) in self.weights.iter().enumerate() {
            c.set_weight(v, w);
        }
        for &(v, u) in &self.requirements {
            c.require(v, u);
        }
        for &v in &self.forced_in {
            c.force_in(v);
        }
        for &v in &self.forced_out {
            c.force_out(v);
        }
        c
    }

    /// Every node set (as a bit mask) that is closed under the
    /// requirements and honours the forcing, with its weight.
    fn closures(&self) -> Vec<(u32, i64)> {
        let has = |set: u32, v: usize| set & (1 << v) != 0;
        (0..1u32 << self.n)
            .filter(|&set| {
                self.requirements
                    .iter()
                    .all(|&(v, u)| !has(set, v) || has(set, u))
                    && self.forced_in.iter().all(|&v| has(set, v))
                    && self.forced_out.iter().all(|&v| !has(set, v))
            })
            .map(|set| {
                let w = (0..self.n)
                    .filter(|&v| has(set, v))
                    .map(|v| self.weights[v])
                    .sum();
                (set, w)
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn closure_is_the_minimal_optimum(n in 1usize..=10, seed in any::<u64>()) {
        let inst = Instance::random(n, seed);
        let closures = inst.closures();
        let mut closure = inst.closure();
        let result = closure.solve();
        let certified = closure.solve_certified();
        prop_assert_eq!(
            certified.clone().map(|c| c.members),
            result.clone().map(|(_, members)| members)
        );
        if let Ok(cert) = &certified {
            if let Err(err) = check_closure_certificate(&closure, cert) {
                panic!("certificate rejected: {err}");
            }
        }
        let best = closures.iter().map(|&(_, w)| w).max();
        prop_assert_eq!(best.is_none(), result == Err(FlowError::Infeasible));
        let (Some(best), Ok((weight, members))) = (best, result) else {
            return;
        };
        prop_assert_eq!(members.len(), n);
        let mask = members
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .fold(0u32, |set, (v, _)| set | 1 << v);
        prop_assert!(
            closures.contains(&(mask, weight)),
            "returned set {:b} is not a closure of weight {}", mask, weight
        );
        prop_assert_eq!(weight, best);
        for &(set, w) in &closures {
            if w == best {
                prop_assert_eq!(set & mask, mask, "optimum {:b} omits part of {:b}", set, mask);
            }
        }
    }

    #[test]
    fn resumed_solves_match_cold_solves(
        n in 1usize..=10,
        seed in any::<u64>(),
        steps in 1usize..8,
    ) {
        let mut inst = Instance::random(n, seed);
        let mut warm = inst.closure();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut solved = false;
        for step in 0..steps {
            let kind = rng.random_range(0..4u32);
            for v in 0..n {
                let w = inst.weights[v];
                inst.weights[v] = match kind {
                    // Gains rise: each weight arc into the sink grows.
                    0 if w > 0 && rng.random_bool(0.5) => w + rng.random_range(1..=4i64),
                    // Weights fall, keeping their sign: gains may drop
                    // below the flow they carry, costs grow.
                    1 if w > 0 && rng.random_bool(0.5) => rng.random_range(1..=w),
                    1 if w < 0 && rng.random_bool(0.5) => w - rng.random_range(1..=2i64),
                    // Any weight, sign changes included.
                    3 if rng.random_bool(0.3) => rng.random_range(-4..=4i64),
                    // Unchanged.
                    _ => w,
                };
                warm.set_weight(v, inst.weights[v]);
            }
            if solved && matches!(kind, 0 | 2) {
                prop_assert!(warm.has_preflow(), "step {} must resume", step);
            }
            let cold = inst.closure().solve();
            let certified = warm.solve_certified();
            solved = certified.is_ok();
            prop_assert_eq!(
                certified.clone().map(|c| c.members),
                cold.clone().map(|(_, members)| members),
                "step {}", step
            );
            if let Ok(cert) = &certified {
                if let Err(err) = check_closure_certificate(&warm, cert) {
                    panic!("step {step}: certificate rejected: {err}");
                }
            }
            prop_assert_eq!(warm.solve(), cold, "step {}", step);
        }
    }
}
