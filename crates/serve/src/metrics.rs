//! Service counters and Prometheus text exposition.
//!
//! Everything the `metrics` command exports lives here: submission /
//! completion / rejection counters, cache hits and misses, per-flow
//! per-stage wall-clock totals (the service-side Table VII view), and
//! the observed job wall-clock that feeds the `retry_after_ms`
//! backpressure estimate.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use retime_engine::{PhaseTimings, Stage};

/// Metric families the renderer documents with `# HELP` / `# TYPE`.
const FAMILIES: &[(&str, &str, &str)] = &[
    (
        "retime_serve_submissions_total",
        "counter",
        "Jobs submitted, by flow.",
    ),
    (
        "retime_serve_jobs_completed_total",
        "counter",
        "Jobs finished successfully, by flow.",
    ),
    (
        "retime_serve_jobs_failed_total",
        "counter",
        "Jobs that ended in a flow or certification error, by flow.",
    ),
    (
        "retime_serve_cache_hits_total",
        "counter",
        "Submissions answered from the content-addressed cache.",
    ),
    (
        "retime_serve_cache_misses_total",
        "counter",
        "Submissions that had to run a flow.",
    ),
    (
        "retime_serve_cache_memory_hits_total",
        "counter",
        "Cache lookups answered by the in-memory tier.",
    ),
    (
        "retime_serve_cache_disk_hits_total",
        "counter",
        "Cache lookups answered by the persistent disk tier (verified and promoted).",
    ),
    (
        "retime_serve_cache_disk_hit_age_seconds_total",
        "counter",
        "Accumulated age of disk-served entries at hit time.",
    ),
    (
        "retime_serve_cache_memory_evictions_total",
        "counter",
        "Memory-tier entries dropped by the entry cap.",
    ),
    (
        "retime_serve_cache_disk_evictions_total",
        "counter",
        "Disk-tier entries dropped by the byte cap.",
    ),
    (
        "retime_serve_cache_recovered_total",
        "counter",
        "Disk entries validated and re-admitted at startup recovery.",
    ),
    (
        "retime_serve_cache_discarded_total",
        "counter",
        "Torn or corrupt disk files quarantined at startup recovery.",
    ),
    (
        "retime_serve_cache_disk_errors_total",
        "counter",
        "Best-effort disk-tier operations that failed.",
    ),
    (
        "retime_serve_text_memo_hits_total",
        "counter",
        "Inline submissions whose canonical text the text memo held (no read, no canonical sort).",
    ),
    (
        "retime_serve_text_memo_misses_total",
        "counter",
        "Inline submissions the key step had to read and canonicalize.",
    ),
    (
        "retime_serve_slow_client_disconnects_total",
        "counter",
        "Connections dropped for exceeding the write-buffer cap.",
    ),
    (
        "retime_serve_rejected_overload_total",
        "counter",
        "Submissions rejected with a structured overloaded reply.",
    ),
    (
        "retime_serve_solver_invocations_total",
        "counter",
        "Network-flow solver invocations across all jobs.",
    ),
    (
        "retime_serve_verified_jobs_total",
        "counter",
        "Jobs that passed retime-verify certification.",
    ),
    (
        "retime_serve_phase_seconds_total",
        "counter",
        "Wall-clock per flow stage, by flow and stage.",
    ),
    (
        "retime_serve_queue_depth",
        "gauge",
        "Jobs currently queued.",
    ),
    (
        "retime_serve_workers",
        "gauge",
        "Worker threads in the pool.",
    ),
    (
        "retime_serve_cache_entries",
        "gauge",
        "Entries in the result cache.",
    ),
    (
        "retime_serve_cache_disk_entries",
        "gauge",
        "Entries resident in the persistent disk tier.",
    ),
    (
        "retime_serve_cache_disk_bytes",
        "gauge",
        "Payload bytes resident in the persistent disk tier.",
    ),
    (
        "retime_serve_open_connections",
        "gauge",
        "Client connections currently registered with a reactor.",
    ),
    (
        "retime_serve_reactors",
        "gauge",
        "I/O reactor threads in the event loop.",
    ),
    (
        "retime_serve_text_memo_bytes",
        "gauge",
        "Canonical text bytes resident in the text memo.",
    ),
];

/// Thread-safe counter registry.
#[derive(Default)]
pub struct Metrics {
    /// `family{labels}` → integer count.
    counts: Mutex<BTreeMap<String, u64>>,
    /// `family{labels}` → accumulated microseconds (rendered as seconds).
    micros: Mutex<BTreeMap<String, u64>>,
    /// Total job wall-clock (µs) and completed-job count, for the
    /// `retry_after_ms` estimate.
    job_micros: AtomicU64,
    jobs_done: AtomicU64,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `by` to a counter series (`labels` like `flow="grar"`, or
    /// empty).
    pub fn inc(&self, family: &str, labels: &str, by: u64) {
        let key = series(family, labels);
        *self
            .counts
            .lock()
            .expect("metrics lock")
            .entry(key)
            .or_insert(0) += by;
    }

    /// Reads one counter series back (0 when never incremented).
    pub fn get(&self, family: &str, labels: &str) -> u64 {
        self.counts
            .lock()
            .expect("metrics lock")
            .get(&series(family, labels))
            .copied()
            .unwrap_or(0)
    }

    /// Folds a finished job's instrumentation into the per-flow stage
    /// series and the solver/backoff accumulators. `busy` is the
    /// worker's wall-clock on the job, an inline miss's build included,
    /// which the flow's `phases` do not cover.
    pub fn observe_job(&self, flow: &str, phases: &PhaseTimings, busy: Duration) {
        let mut micros = self.micros.lock().expect("metrics lock");
        for stage in Stage::ALL {
            let d = phases.get(stage);
            if d != Duration::ZERO {
                let key = series(
                    "retime_serve_phase_seconds_total",
                    &format!("flow=\"{flow}\",stage=\"{}\"", stage.name()),
                );
                *micros.entry(key).or_insert(0) += d.as_micros() as u64;
            }
        }
        drop(micros);
        self.inc(
            "retime_serve_solver_invocations_total",
            "",
            phases.counter("solver_invocations"),
        );
        self.job_micros
            .fetch_add(busy.as_micros() as u64, Ordering::Relaxed);
        self.jobs_done.fetch_add(1, Ordering::Relaxed);
    }

    /// The backpressure estimate an overloaded rejection carries: the
    /// observed mean job wall-clock times the backlog a new job would
    /// sit behind, divided across the worker pool — clamped to
    /// [50 ms, 10 s]. Before any job finishes, a flat 200 ms.
    pub fn retry_after_ms(&self, backlog: usize, workers: usize) -> u64 {
        let done = self.jobs_done.load(Ordering::Relaxed);
        let mean_ms = self
            .job_micros
            .load(Ordering::Relaxed)
            .checked_div(done)
            .map_or(200, |per_job| (per_job / 1000).max(1));
        let waves = (backlog as u64 + 1).div_ceil(workers.max(1) as u64);
        (mean_ms * waves).clamp(50, 10_000)
    }

    /// Renders the Prometheus text exposition, splicing in live gauge
    /// values (queue depth, worker count, cache size).
    pub fn render(&self, gauges: &[(&'static str, f64)]) -> String {
        let counts = self.counts.lock().expect("metrics lock").clone();
        let micros = self.micros.lock().expect("metrics lock").clone();
        let mut out = String::new();
        for &(family, kind, help) in FAMILIES {
            let mut lines = Vec::new();
            for (key, v) in &counts {
                if family_of(key) == family {
                    lines.push(format!("{key} {v}\n"));
                }
            }
            for (key, v) in &micros {
                if family_of(key) == family {
                    lines.push(format!("{key} {}\n", *v as f64 / 1e6));
                }
            }
            for &(name, v) in gauges {
                if name == family {
                    lines.push(format!("{name} {v}\n"));
                }
            }
            if lines.is_empty() && kind == "counter" {
                // Absent counters read as an explicit zero.
                lines.push(format!("{family} 0\n"));
            }
            if !lines.is_empty() {
                out.push_str(&format!("# HELP {family} {help}\n# TYPE {family} {kind}\n"));
                for line in lines {
                    out.push_str(&line);
                }
            }
        }
        out
    }
}

fn series(family: &str, labels: &str) -> String {
    if labels.is_empty() {
        family.to_string()
    } else {
        format!("{family}{{{labels}}}")
    }
}

fn family_of(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_series() {
        let m = Metrics::new();
        m.inc("retime_serve_submissions_total", "flow=\"grar\"", 1);
        m.inc("retime_serve_submissions_total", "flow=\"grar\"", 2);
        m.inc("retime_serve_submissions_total", "flow=\"base\"", 1);
        assert_eq!(m.get("retime_serve_submissions_total", "flow=\"grar\""), 3);
        assert_eq!(m.get("retime_serve_submissions_total", "flow=\"base\""), 1);
        assert_eq!(m.get("retime_serve_submissions_total", "flow=\"vl\""), 0);
    }

    #[test]
    fn render_emits_prometheus_text() {
        let m = Metrics::new();
        m.inc("retime_serve_cache_hits_total", "", 4);
        let mut phases = PhaseTimings::new();
        phases.add(Stage::Solve, Duration::from_millis(1500));
        phases.count("solver_invocations", 2);
        m.observe_job("grar", &phases, phases.total());
        let text = m.render(&[("retime_serve_queue_depth", 3.0)]);
        assert!(text.contains("# TYPE retime_serve_cache_hits_total counter"));
        assert!(text.contains("retime_serve_cache_hits_total 4\n"));
        assert!(text.contains("retime_serve_solver_invocations_total 2\n"));
        assert!(
            text.contains("retime_serve_phase_seconds_total{flow=\"grar\",stage=\"solve\"} 1.5\n")
        );
        assert!(text.contains("retime_serve_queue_depth 3\n"));
        // Untouched counters render as explicit zeros.
        assert!(text.contains("retime_serve_rejected_overload_total 0\n"));
    }

    #[test]
    fn retry_after_tracks_observed_job_time() {
        let m = Metrics::new();
        assert_eq!(m.retry_after_ms(0, 2), 200);
        let mut phases = PhaseTimings::new();
        phases.add(Stage::Sta, Duration::from_millis(300));
        // The worker's whole time counts, the build before the flow too.
        m.observe_job("grar", &phases, Duration::from_millis(400));
        // Backlog of 3 ahead, 2 workers → 2 waves × 400 ms.
        assert_eq!(m.retry_after_ms(3, 2), 800);
        // Clamped below.
        let quick = Metrics::new();
        let mut fast = PhaseTimings::new();
        fast.add(Stage::Sta, Duration::from_micros(1000));
        quick.observe_job("grar", &fast, fast.total());
        assert_eq!(quick.retry_after_ms(0, 4), 50);
    }
}
