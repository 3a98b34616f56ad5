//! Named stages and the uniform per-stage instrumentation of a flow.

use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// The named phases a retiming flow can execute.
///
/// Every flow uses a subset, in this order: the base flow runs
/// `Sta → Solve → Commit`, G-RAR inserts `Classify` (the per-target
/// backward passes and cut-set construction that dominate its runtime),
/// and the virtual-library flow adds its typing/freezing `Seed` pass and
/// the post-retiming `Swap` step. The flows never run `Verify`
/// themselves: a caller that certifies (a table binary under
/// `RETIME_VERIFY=1`, a `verify: true` serve job, `retime-convert
/// --retime`) merges the independent checker's `Verify` stage into the
/// outcome's instrumentation afterwards. Circuits
/// that arrive as ordinary edge-triggered FF netlists first pass through
/// the `Convert` front stage (`retime-convert`), which splits each FF
/// into a master/slave latch pair before any retiming stage runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Edge-triggered → two-phase conversion (FF split, invariant
    /// validation) performed by the `retime-convert` front door.
    Convert,
    /// Forward STA, region computation, problem construction.
    Sta,
    /// Virtual-library initial typing and cone freezing.
    Seed,
    /// Per-target backward passes, classification, cut-set construction.
    Classify,
    /// Network-flow / closure solve.
    Solve,
    /// Placement, EDL assignment, legalization, area accounting.
    Commit,
    /// Post-retiming latch-type swap.
    Swap,
    /// Independent certificate verification of the finished result.
    Verify,
}

impl Stage {
    /// All stages, in canonical execution order.
    pub const ALL: [Stage; 8] = [
        Stage::Convert,
        Stage::Sta,
        Stage::Seed,
        Stage::Classify,
        Stage::Solve,
        Stage::Commit,
        Stage::Swap,
        Stage::Verify,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Convert => "convert",
            Stage::Sta => "sta",
            Stage::Seed => "seed",
            Stage::Classify => "classify",
            Stage::Solve => "solve",
            Stage::Commit => "commit",
            Stage::Swap => "swap",
            Stage::Verify => "verify",
        }
    }

    /// Position in [`Stage::ALL`]: the declaration order is the
    /// canonical order.
    fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Uniform per-stage instrumentation: wall-clock duration per [`Stage`]
/// plus named event counters (targets classified, endpoints frozen, …).
///
/// Replaces the seed tree's bespoke `GrarStats`, the virtual-library
/// flow's inline `Instant` bookkeeping, and the base flow's lack of any —
/// every flow now reports the same Table VII breakdown.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseTimings {
    durations: [Duration; Stage::ALL.len()],
    counters: BTreeMap<&'static str, u64>,
}

impl PhaseTimings {
    /// Empty instrumentation.
    pub fn new() -> PhaseTimings {
        PhaseTimings::default()
    }

    /// Adds wall-clock time to a stage (stages may run multiple times).
    pub fn add(&mut self, stage: Stage, elapsed: Duration) {
        self.durations[stage.index()] += elapsed;
    }

    /// Time spent in a stage.
    pub fn get(&self, stage: Stage) -> Duration {
        self.durations[stage.index()]
    }

    /// Total across all stages.
    pub fn total(&self) -> Duration {
        self.durations.iter().sum()
    }

    /// Fraction of the total spent in `stage` (0 when nothing ran).
    pub fn share(&self, stage: Stage) -> f64 {
        let total = self.total().as_secs_f64();
        if total > 0.0 {
            self.get(stage).as_secs_f64() / total
        } else {
            0.0
        }
    }

    /// Increments a named counter.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Reads a named counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// Merges another run's instrumentation into this one.
    pub fn merge(&mut self, other: &PhaseTimings) {
        for stage in Stage::ALL {
            self.add(stage, other.get(stage));
        }
        for (name, n) in other.counters() {
            self.count(name, n);
        }
    }

    /// Runs one stage of a flow: `f` does the stage's work, may add
    /// counters to these timings, and returns the stage's values. Its
    /// wall-clock time is added under `stage` even when it fails.
    ///
    /// When [`retime_trace`] is enabled, `f` runs under a span named
    /// after the stage, and the counters it added are attached to that
    /// span as deltas, in name order. With tracing disabled the extra
    /// cost is one atomic load.
    ///
    /// # Errors
    /// Returns `f`'s error.
    pub fn stage<T, E>(
        &mut self,
        stage: Stage,
        f: impl FnOnce(&mut PhaseTimings) -> Result<T, E>,
    ) -> Result<T, E> {
        let _span = retime_trace::span(stage.name());
        let before = retime_trace::enabled().then(|| self.counters.clone());
        let t0 = Instant::now();
        let result = f(self);
        self.add(stage, t0.elapsed());
        if let Some(before) = before {
            for (name, value) in self.counters() {
                let delta = value.saturating_sub(before.get(name).copied().unwrap_or(0));
                if delta != 0 {
                    retime_trace::counter(name, delta);
                }
            }
        }
        result
    }
}

impl fmt::Display for PhaseTimings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for stage in Stage::ALL {
            let d = self.get(stage);
            if d == Duration::ZERO {
                continue;
            }
            if !first {
                f.write_str(" ")?;
            }
            write!(f, "{stage}={:.3}s", d.as_secs_f64())?;
            first = false;
        }
        if first {
            f.write_str("(idle)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_index_is_the_position_in_all() {
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage.index(), i, "{stage}");
        }
    }

    #[test]
    fn stage_returns_its_value_and_times_it() {
        let mut t = PhaseTimings::new();
        let v = t
            .stage(Stage::Sta, |t| {
                t.count("probes", 2);
                std::thread::sleep(Duration::from_millis(2));
                Ok::<_, ()>(7)
            })
            .unwrap();
        assert_eq!(v, 7);
        assert_eq!(t.counter("probes"), 2);
        assert!(t.get(Stage::Sta) >= Duration::from_millis(2));
        assert_eq!(t.get(Stage::Seed), Duration::ZERO);
    }

    #[test]
    fn failing_stage_is_still_timed() {
        let mut t = PhaseTimings::new();
        let err = t
            .stage(Stage::Solve, |_| {
                std::thread::sleep(Duration::from_millis(2));
                Err::<(), _>("solver exploded")
            })
            .unwrap_err();
        assert_eq!(err, "solver exploded");
        assert!(t.get(Stage::Solve) >= Duration::from_millis(2));
    }

    #[test]
    fn counters_and_merge() {
        let mut a = PhaseTimings::new();
        a.add(Stage::Classify, Duration::from_millis(10));
        a.count("targets", 3);
        let mut b = PhaseTimings::new();
        b.add(Stage::Classify, Duration::from_millis(5));
        b.count("targets", 2);
        b.count("frozen", 7);
        a.merge(&b);
        assert_eq!(a.get(Stage::Classify), Duration::from_millis(15));
        assert_eq!(a.counter("targets"), 5);
        assert_eq!(a.counter("frozen"), 7);
        assert_eq!(a.counter("missing"), 0);
    }

    #[test]
    fn share_sums_to_one_over_used_stages() {
        let mut t = PhaseTimings::new();
        t.add(Stage::Sta, Duration::from_millis(30));
        t.add(Stage::Solve, Duration::from_millis(10));
        let sum = t.share(Stage::Sta) + t.share(Stage::Solve);
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(PhaseTimings::new().share(Stage::Sta), 0.0);
    }

    #[test]
    fn display_is_compact() {
        let mut t = PhaseTimings::new();
        assert_eq!(t.to_string(), "(idle)");
        t.add(Stage::Sta, Duration::from_millis(1500));
        assert_eq!(t.to_string(), "sta=1.500s");
    }
}
