//! First-order canonical delay forms `m + g·G + r·R_v`.
//!
//! A [`Canon`] models a delay as a Gaussian with mean `m`, a
//! globally-correlated sigma component `g` (one shared process variable
//! `G` for the whole die), and an independent residual `r` (a private
//! variable per node). This is the two-term specialisation of the
//! canonical form used by block-based SSTA (Visweswariah et al.;
//! Li/Chen/Schlichtmann for the latch-loop extension): addition is exact,
//! `max` uses Clark's moment matching with the correlation induced by the
//! shared global term.
//!
//! # Sigma→0 exactness
//!
//! Every operation is written so that when all sigma components are zero
//! the mean channel performs *bitwise* the same `f64` operations as the
//! deterministic pass it mirrors: addition stays plain addition, and
//! [`Canon::max`] short-circuits through a degenerate branch that picks
//! the operand with the larger mean (first operand on ties) — exactly
//! `f64::max` on distinct finite values. No `Φ`/`φ` evaluation touches
//! the mean in that regime, so statistical mode with `sigma = 0` is
//! indistinguishable from deterministic gate-based mode at the bit level.

use crate::normal::{cdf, pdf};

/// A first-order canonical delay form: `m + g·G + r·R`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Canon {
    /// Mean value (nominal delay channel).
    pub m: f64,
    /// Globally-correlated sigma component.
    pub g: f64,
    /// Independent (node-local) sigma component.
    pub r: f64,
}

/// Threshold below which the Clark `θ` (sigma of the difference) is
/// treated as zero and `max` degenerates to picking the larger mean.
const THETA_EPS: f64 = 1e-30;

/// `|α|` beyond which one operand dominates the other with probability
/// `> 1 − Φ(−8) ≈ 1 − 6e-16` and Clark's blend is skipped entirely.
const ALPHA_CUTOFF: f64 = 8.0;

impl Canon {
    /// A deterministic constant (zero sigma).
    #[inline]
    pub fn constant(m: f64) -> Canon {
        Canon { m, g: 0.0, r: 0.0 }
    }

    /// Total sigma `sqrt(g² + r²)`.
    pub fn sigma(&self) -> f64 {
        self.g.hypot(self.r)
    }

    /// Variance `g² + r²`.
    #[inline]
    pub fn variance(&self) -> f64 {
        self.g * self.g + self.r * self.r
    }

    /// Exact sum of two canonical forms: means add, global components add
    /// (fully correlated), residuals add in quadrature (independent).
    #[inline]
    pub fn add(&self, other: &Canon) -> Canon {
        Canon {
            m: self.m + other.m,
            g: self.g + other.g,
            r: self.r.hypot(other.r),
        }
    }

    /// Adds a deterministic constant to the mean.
    #[inline]
    pub fn add_const(&self, c: f64) -> Canon {
        Canon {
            m: self.m + c,
            g: self.g,
            r: self.r,
        }
    }

    /// Statistical max by Clark's moment matching.
    ///
    /// The correlation between the operands is the one induced by the
    /// shared global variable: `cov(a, b) = g_a·g_b`, so the sigma of the
    /// difference is `θ = sqrt((g_a − g_b)² + r_a² + r_b²)`.
    ///
    /// Degenerate regimes (exercised by the sigma→0 differential tests):
    ///
    /// * `θ < 1e-30` — the operands are perfectly correlated with equal
    ///   sigma; the max is whichever has the larger mean, first operand
    ///   on ties (bitwise `f64::max` behaviour on the mean channel).
    /// * `α = (m_a − m_b)/θ` outside `±8` — one operand dominates with
    ///   probability `1 − Φ(−8)`; return it unchanged.
    pub fn max(&self, other: &Canon) -> Canon {
        let theta2 = {
            let dg = self.g - other.g;
            dg * dg + self.r * self.r + other.r * other.r
        };
        let theta = theta2.sqrt();
        if theta < THETA_EPS {
            return if self.m >= other.m { *self } else { *other };
        }
        let alpha = (self.m - other.m) / theta;
        if alpha > ALPHA_CUTOFF {
            return *self;
        }
        if alpha < -ALPHA_CUTOFF {
            return *other;
        }
        let p = cdf(alpha);
        let q = 1.0 - p;
        let dens = pdf(alpha);
        let mean = self.m * p + other.m * q + theta * dens;
        let var = (self.variance() + self.m * self.m) * p
            + (other.variance() + other.m * other.m) * q
            + (self.m + other.m) * theta * dens
            - mean * mean;
        let g = p * self.g + q * other.g;
        let r = (var - g * g).max(0.0).sqrt();
        Canon { m: mean, g, r }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_behave_like_f64() {
        let a = Canon::constant(1.25);
        let b = Canon::constant(0.75);
        let s = a.add(&b);
        assert_eq!(s.m, 1.25 + 0.75);
        assert_eq!(s.g, 0.0);
        assert_eq!(s.r, 0.0);
        assert_eq!(a.max(&b).m, f64::max(1.25, 0.75));
        assert_eq!(b.max(&a).m, f64::max(0.75, 1.25));
        // Ties pick the first operand — same value either way.
        assert_eq!(a.max(&Canon::constant(1.25)).m, 1.25);
    }

    #[test]
    fn add_is_exact() {
        let a = Canon {
            m: 1.0,
            g: 0.3,
            r: 0.4,
        };
        let b = Canon {
            m: 2.0,
            g: 0.1,
            r: 0.3,
        };
        let s = a.add(&b);
        assert_eq!(s.m, 3.0);
        assert_eq!(s.g, 0.4);
        assert!((s.r - 0.5).abs() < 1e-15); // hypot(0.4, 0.3)
    }

    #[test]
    fn max_matches_moments_of_dominant_operand() {
        let a = Canon {
            m: 10.0,
            g: 0.1,
            r: 0.1,
        };
        let b = Canon {
            m: 1.0,
            g: 0.5,
            r: 0.5,
        };
        assert_eq!(a.max(&b), a);
        assert_eq!(b.max(&a), a);
    }

    #[test]
    fn max_of_close_operands_exceeds_both_means() {
        let a = Canon {
            m: 1.0,
            g: 0.1,
            r: 0.1,
        };
        let b = Canon {
            m: 1.0,
            g: 0.05,
            r: 0.12,
        };
        let mx = a.max(&b);
        // E[max] of two equal-mean Gaussians strictly exceeds the mean.
        assert!(mx.m > 1.0);
        assert!(mx.sigma() > 0.0);
        assert!(mx.sigma() <= a.sigma().max(b.sigma()) + 0.1);
    }

    #[test]
    fn max_is_monotone_in_mean() {
        let b = Canon {
            m: 1.0,
            g: 0.2,
            r: 0.1,
        };
        let mut prev = f64::NEG_INFINITY;
        for i in 0..40 {
            let a = Canon {
                m: 0.5 + 0.05 * f64::from(i),
                g: 0.1,
                r: 0.2,
            };
            let mx = a.max(&b);
            assert!(mx.m >= prev, "mean must be monotone");
            prev = mx.m;
        }
    }

    #[test]
    fn perfectly_correlated_equal_sigma_picks_larger_mean() {
        let a = Canon {
            m: 2.0,
            g: 0.3,
            r: 0.0,
        };
        let b = Canon {
            m: 1.5,
            g: 0.3,
            r: 0.0,
        };
        // θ = 0: same global coefficient, no residuals.
        assert_eq!(a.max(&b), a);
        assert_eq!(b.max(&a), a);
    }

    #[test]
    fn clark_max_agrees_with_monte_carlo() {
        // Cheap deterministic LCG-based check of the Clark mean against
        // sampling, within loose MC tolerance.
        let a = Canon {
            m: 1.0,
            g: 0.08,
            r: 0.06,
        };
        let b = Canon {
            m: 1.05,
            g: 0.02,
            r: 0.09,
        };
        let mx = a.max(&b);
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut normal = || {
            // Sum of 12 uniforms − 6 ≈ N(0, 1).
            let mut s = -6.0;
            for _ in 0..12 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                s += (state >> 11) as f64 / (1u64 << 53) as f64;
            }
            s
        };
        let n = 200_000;
        let mut acc = 0.0;
        for _ in 0..n {
            let gshared = normal();
            let va = a.m + a.g * gshared + a.r * normal();
            let vb = b.m + b.g * gshared + b.r * normal();
            acc += va.max(vb);
        }
        let mc_mean = acc / f64::from(n);
        assert!(
            (mc_mean - mx.m).abs() < 5e-3,
            "clark {} vs mc {mc_mean}",
            mx.m
        );
    }
}
