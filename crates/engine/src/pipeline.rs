//! Named stages, uniform instrumentation, and the stage pipeline.

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

    fn index(self) -> usize {
        match self {
            Stage::Convert => 0,
            Stage::Sta => 1,
            Stage::Seed => 2,
            Stage::Classify => 3,
            Stage::Solve => 4,
            Stage::Commit => 5,
            Stage::Swap => 6,
            Stage::Verify => 7,
        }
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

/// Access to a context's instrumentation; required of every
/// [`Pipeline`] context.
pub trait Instrument {
    /// The run's accumulated stage timings.
    fn timings_mut(&mut self) -> &mut PhaseTimings;
}

impl Instrument for PhaseTimings {
    fn timings_mut(&mut self) -> &mut PhaseTimings {
        self
    }
}

/// A flow's working state paired with its instrumentation — the shared
/// context a [`Pipeline`] executes against.
#[derive(Debug, Default)]
pub struct FlowContext<T> {
    /// Flow-specific working state.
    pub data: T,
    /// Uniform per-stage instrumentation.
    pub timings: PhaseTimings,
}

impl<T> FlowContext<T> {
    /// Wraps flow state with fresh instrumentation.
    pub fn new(data: T) -> FlowContext<T> {
        FlowContext {
            data,
            timings: PhaseTimings::new(),
        }
    }

    /// Finishes the run, returning the state and its instrumentation.
    pub fn into_parts(self) -> (T, PhaseTimings) {
        (self.data, self.timings)
    }
}

impl<T> Instrument for FlowContext<T> {
    fn timings_mut(&mut self) -> &mut PhaseTimings {
        &mut self.timings
    }
}

type StageFn<'f, C, E> = Box<dyn FnOnce(&mut C) -> Result<(), E> + 'f>;

/// An ordered sequence of named stages executed against a shared context.
///
/// Each stage is timed automatically into the context's [`PhaseTimings`];
/// the first stage error aborts the run and is returned as-is.
pub struct Pipeline<'f, C, E> {
    stages: Vec<(Stage, StageFn<'f, C, E>)>,
}

impl<'f, C: Instrument, E> Pipeline<'f, C, E> {
    /// An empty pipeline.
    pub fn new() -> Pipeline<'f, C, E> {
        Pipeline { stages: Vec::new() }
    }

    /// Appends a named stage.
    #[must_use]
    pub fn stage(mut self, stage: Stage, f: impl FnOnce(&mut C) -> Result<(), E> + 'f) -> Self {
        self.stages.push((stage, Box::new(f)));
        self
    }

    /// Appends a stage only when `enabled` (keeps flow wiring linear).
    #[must_use]
    pub fn stage_if(
        self,
        enabled: bool,
        stage: Stage,
        f: impl FnOnce(&mut C) -> Result<(), E> + 'f,
    ) -> Self {
        if enabled {
            self.stage(stage, f)
        } else {
            self
        }
    }

    /// The stages queued so far, in execution order.
    pub fn plan(&self) -> Vec<Stage> {
        self.stages.iter().map(|&(s, _)| s).collect()
    }

    /// Runs every stage in order, recording per-stage wall-clock time.
    ///
    /// When [`retime_trace`] is enabled, each stage additionally runs
    /// under a span named after the stage, and any counters the stage
    /// added to the context's [`PhaseTimings`] are attached to that
    /// span as attribute deltas. With tracing disabled the extra cost
    /// is one atomic load per stage.
    ///
    /// # Errors
    /// Returns the first stage error; later stages do not run.
    pub fn run(self, ctx: &mut C) -> Result<(), E> {
        for (stage, f) in self.stages {
            let span = retime_trace::span(stage.name());
            let before: Option<BTreeMap<&'static str, u64>> =
                retime_trace::enabled().then(|| ctx.timings_mut().counters().collect());
            let t0 = Instant::now();
            let result = f(ctx);
            ctx.timings_mut().add(stage, t0.elapsed());
            if let Some(before) = before {
                for (name, value) in ctx.timings_mut().counters() {
                    let delta = value.saturating_sub(before.get(name).copied().unwrap_or(0));
                    if delta != 0 {
                        retime_trace::counter(name, delta);
                    }
                }
            }
            drop(span);
            result?;
        }
        Ok(())
    }
}

impl<C: Instrument, E> Default for Pipeline<'_, C, E> {
    fn default() -> Self {
        Pipeline::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_runs_stages_in_order_and_times_them() {
        let mut ctx = FlowContext::new(Vec::<Stage>::new());
        Pipeline::<FlowContext<Vec<Stage>>, ()>::new()
            .stage(Stage::Sta, |c| {
                c.data.push(Stage::Sta);
                std::thread::sleep(Duration::from_millis(2));
                Ok(())
            })
            .stage(Stage::Solve, |c| {
                c.data.push(Stage::Solve);
                Ok(())
            })
            .stage(Stage::Commit, |c| {
                c.data.push(Stage::Commit);
                Ok(())
            })
            .run(&mut ctx)
            .unwrap();
        assert_eq!(ctx.data, vec![Stage::Sta, Stage::Solve, Stage::Commit]);
        assert!(ctx.timings.get(Stage::Sta) >= Duration::from_millis(2));
        assert_eq!(ctx.timings.get(Stage::Seed), Duration::ZERO);
        assert!(ctx.timings.total() >= ctx.timings.get(Stage::Sta));
    }

    #[test]
    fn pipeline_stops_at_first_error() {
        let mut ctx = FlowContext::new(0u32);
        let err = Pipeline::<FlowContext<u32>, &'static str>::new()
            .stage(Stage::Sta, |c| {
                c.data += 1;
                Ok(())
            })
            .stage(Stage::Solve, |_| Err("solver exploded"))
            .stage(Stage::Commit, |c| {
                c.data += 100;
                Ok(())
            })
            .run(&mut ctx)
            .unwrap_err();
        assert_eq!(err, "solver exploded");
        assert_eq!(ctx.data, 1, "commit must not run after a solve failure");
        // The successful stage before the failure was timed.
        assert!(ctx.timings.total() >= ctx.timings.get(Stage::Sta));
    }

    #[test]
    fn stage_if_skips_disabled_stages() {
        let p = Pipeline::<FlowContext<()>, ()>::new()
            .stage(Stage::Sta, |_| Ok(()))
            .stage_if(false, Stage::Seed, |_| Ok(()))
            .stage_if(true, Stage::Swap, |_| Ok(()));
        assert_eq!(p.plan(), vec![Stage::Sta, Stage::Swap]);
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
