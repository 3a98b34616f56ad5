//! The span core: the enabled flag, thread-local span stacks,
//! deterministic id derivation, and the global record sink.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Process-wide enabled flag — the only thing [`span`] touches when
/// tracing is off.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Thread ids, handed out in first-use order starting at 1.
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

/// The timestamp epoch, fixed the first time tracing is enabled.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Closed spans flushed from per-thread buffers.
static SINK: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

/// Global close-order stamps. Timestamps have µs resolution, so fast
/// sibling spans can tie on `start_us`; the close order breaks the tie
/// deterministically (siblings close in execution order).
static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);

/// A typed span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An integer counter (pivots, cache hits, …).
    U64(u64),
    /// A floating-point measurement.
    F64(f64),
    /// A short identifier (job id, circuit name).
    Str(String),
}

/// A closed span: one named, nested slice of wall-clock on one thread.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Deterministic id (FNV-1a over parent id + child sequence).
    pub id: u64,
    /// Parent span id; `0` for thread-root spans.
    pub parent: u64,
    /// Static span name.
    pub name: &'static str,
    /// Thread id (first-use order, 1-based).
    pub tid: u32,
    /// Nesting depth (0 = thread root).
    pub depth: u32,
    /// Start, µs since the trace epoch.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Global close-order stamp — the [`take_records`] tiebreaker for
    /// siblings sharing a µs timestamp (deterministic on one thread).
    pub seq: u64,
    /// Attached attributes, in attach order.
    pub attrs: Vec<(&'static str, Value)>,
}

struct OpenSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    depth: u32,
    start_us: u64,
    child_seq: u64,
    attrs: Vec<(&'static str, Value)>,
}

struct ThreadTrace {
    tid: u32,
    root_seq: u64,
    stack: Vec<OpenSpan>,
    done: Vec<SpanRecord>,
}

impl ThreadTrace {
    fn new() -> ThreadTrace {
        ThreadTrace {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            root_seq: 0,
            stack: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Allocates the next child slot: `(parent id for the record,
    /// derivation key, depth, sequence)`.
    fn next_child(&mut self) -> (u64, u64, u32, u64) {
        match self.stack.last_mut() {
            Some(p) => {
                let seq = p.child_seq;
                p.child_seq += 1;
                (p.id, p.id, p.depth + 1, seq)
            }
            None => {
                let seq = self.root_seq;
                self.root_seq += 1;
                (0, root_key(self.tid), 0, seq)
            }
        }
    }

    fn flush(&mut self) {
        if !self.done.is_empty() {
            SINK.lock().expect("trace sink").append(&mut self.done);
        }
    }
}

impl Drop for ThreadTrace {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static TRACE: RefCell<ThreadTrace> = RefCell::new(ThreadTrace::new());
}

/// The derivation key for a thread's root spans — mixes the thread id so
/// roots on different threads get distinct ids.
fn root_key(tid: u32) -> u64 {
    0x517c_c1b7_2722_0a95 ^ u64::from(tid)
}

/// FNV-1a over the parent key and the child sequence number. No clock,
/// no RNG: a deterministic run reproduces the whole id tree.
fn derive_id(parent_key: u64, seq: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in parent_key
        .to_le_bytes()
        .into_iter()
        .chain(seq.to_le_bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Whether tracing is currently enabled (one relaxed atomic load).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on or off. Enabling fixes the timestamp epoch on first
/// use. Spans already open keep recording until their guards drop.
pub fn set_enabled(on: bool) {
    if on {
        EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::SeqCst);
}

fn now_us_raw() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Microseconds since the trace epoch, or 0 when tracing is disabled.
/// Use to capture cross-thread timestamps for a later [`event_us`].
#[inline]
pub fn now_us() -> u64 {
    if enabled() {
        now_us_raw()
    } else {
        0
    }
}

/// RAII guard closing its span on drop. Inert (no span was opened) when
/// tracing was disabled at the [`span`] call.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            close_current();
        }
    }
}

/// Opens a span named `name` on the current thread. When tracing is
/// disabled this is one atomic load and returns an inert guard — no
/// allocation, no clock read.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { armed: false };
    }
    open(name);
    SpanGuard { armed: true }
}

fn open(name: &'static str) {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let start_us = now_us_raw();
        let (parent, key, depth, seq) = t.next_child();
        let id = derive_id(key, seq);
        t.stack.push(OpenSpan {
            id,
            parent,
            name,
            depth,
            start_us,
            child_seq: 0,
            attrs: Vec::new(),
        });
    });
}

fn close_current() {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        if let Some(s) = t.stack.pop() {
            let dur_us = now_us_raw().saturating_sub(s.start_us);
            let record = SpanRecord {
                id: s.id,
                parent: s.parent,
                name: s.name,
                tid: t.tid,
                depth: s.depth,
                start_us: s.start_us,
                dur_us,
                seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
                attrs: s.attrs,
            };
            t.done.push(record);
            if t.stack.is_empty() {
                t.flush();
            }
        }
    });
}

fn with_current(f: impl FnOnce(&mut OpenSpan)) {
    TRACE.with(|t| {
        if let Some(s) = t.borrow_mut().stack.last_mut() {
            f(s);
        }
    });
}

/// Attaches an integer counter to the innermost open span (no-op when
/// tracing is disabled or no span is open).
#[inline]
pub fn counter(name: &'static str, value: u64) {
    if enabled() {
        with_current(|s| s.attrs.push((name, Value::U64(value))));
    }
}

/// Attaches a floating-point measurement to the innermost open span.
#[inline]
pub fn counter_f64(name: &'static str, value: f64) {
    if enabled() {
        with_current(|s| s.attrs.push((name, Value::F64(value))));
    }
}

/// Attaches a short string attribute (job id, circuit name) to the
/// innermost open span.
#[inline]
pub fn attr_str(name: &'static str, value: &str) {
    if enabled() {
        with_current(|s| s.attrs.push((name, Value::Str(value.to_string()))));
    }
}

/// Records a child span with explicit timestamps — for durations
/// observed outside the RAII discipline, like a job's queue wait
/// measured from another thread's enqueue time ([`now_us`]).
pub fn event_us(name: &'static str, start_us: u64, dur_us: u64) {
    if !enabled() {
        return;
    }
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let (parent, key, depth, seq) = t.next_child();
        let id = derive_id(key, seq);
        let tid = t.tid;
        t.done.push(SpanRecord {
            id,
            parent,
            name,
            tid,
            depth,
            start_us,
            dur_us,
            seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
            attrs: Vec::new(),
        });
        if t.stack.is_empty() {
            t.flush();
        }
    });
}

/// Drains every closed span recorded so far (the current thread's
/// buffer plus everything flushed by finished threads) in preorder over
/// the `parent` links: every span is followed by its subtree before its
/// next sibling, siblings ordered by start and then close order (the
/// execution order of same-µs siblings on one thread), and thread roots
/// by thread first. A span whose parent is not among the records (still
/// open, or drained earlier) counts as a root.
/// Spans still open stay open and are not returned.
pub fn take_records() -> Vec<SpanRecord> {
    TRACE.with(|t| t.borrow_mut().flush());
    let mut records = std::mem::take(&mut *SINK.lock().expect("trace sink"));
    records.sort_by_key(|r| (r.tid, r.start_us, r.depth, r.seq));
    let at: HashMap<u64, usize> = records.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    let mut children = vec![Vec::new(); records.len()];
    let mut roots = Vec::new();
    for (i, r) in records.iter().enumerate() {
        match at.get(&r.parent) {
            Some(&p) if r.parent != 0 => children[p].push(i),
            _ => roots.push(i),
        }
    }
    let mut order = Vec::with_capacity(records.len());
    let mut stack: Vec<usize> = roots.into_iter().rev().collect();
    while let Some(i) = stack.pop() {
        order.push(i);
        stack.extend(children[i].iter().rev());
    }
    let mut slots: Vec<Option<SpanRecord>> = records.into_iter().map(Some).collect();
    order
        .into_iter()
        .map(|i| slots[i].take().expect("each span is visited once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that toggle the process-wide enabled flag.
    fn with_tracing(f: impl FnOnce()) {
        static GATE: Mutex<()> = Mutex::new(());
        let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        let _ = take_records();
        set_enabled(true);
        f();
        set_enabled(false);
        let _ = take_records();
    }

    #[test]
    fn disabled_span_is_inert() {
        // Outside with_tracing: must not require the gate, must not
        // touch thread-locals.
        let g = span("never-recorded-when-off");
        assert!(!g.armed || enabled());
    }

    #[test]
    fn spans_nest_and_record() {
        with_tracing(|| {
            {
                let _a = span("outer");
                counter("items", 3);
                {
                    let _b = span("inner");
                    counter_f64("ratio", 0.5);
                }
                {
                    let _c = span("inner");
                }
            }
            let records = take_records();
            assert_eq!(records.len(), 3);
            let outer = records.iter().find(|r| r.depth == 0).unwrap();
            assert_eq!(outer.name, "outer");
            assert_eq!(outer.parent, 0);
            assert_eq!(outer.attrs, vec![("items", Value::U64(3))]);
            let inners: Vec<_> = records.iter().filter(|r| r.depth == 1).collect();
            assert_eq!(inners.len(), 2);
            for r in &inners {
                assert_eq!(r.name, "inner");
                assert_eq!(r.parent, outer.id);
                assert!(r.start_us >= outer.start_us);
                assert!(r.start_us + r.dur_us <= outer.start_us + outer.dur_us);
            }
            // Sibling ids differ (distinct sequence numbers).
            assert_ne!(inners[0].id, inners[1].id);
        });
    }

    #[test]
    fn ids_are_reproducible_for_equal_structure() {
        // Two identical span trees rooted at fresh root sequence
        // numbers give distinct roots, but equal child derivations
        // relative to their parents.
        assert_eq!(derive_id(42, 0), derive_id(42, 0));
        assert_ne!(derive_id(42, 0), derive_id(42, 1));
        assert_ne!(derive_id(42, 0), derive_id(43, 0));
    }

    #[test]
    fn explicit_events_attach_to_open_span() {
        with_tracing(|| {
            {
                let _a = span("job");
                event_us("queue_wait", 1, 7);
            }
            let records = take_records();
            let job = records.iter().find(|r| r.name == "job").unwrap();
            let wait = records.iter().find(|r| r.name == "queue_wait").unwrap();
            assert_eq!(wait.parent, job.id);
            assert_eq!(wait.start_us, 1);
            assert_eq!(wait.dur_us, 7);
            assert_eq!(wait.depth, 1);
        });
    }

    #[test]
    fn records_are_a_preorder_even_when_a_child_ties_an_uncle() {
        // `late` starts in the same µs as its parent's next sibling
        // `next`: a sort on start and then depth would put it after
        // `next`, outside its parent's subtree.
        with_tracing(|| {
            let tie = now_us() + 1_000_000;
            {
                let _root = span("root");
                {
                    let _a = span("first");
                    event_us("late", tie, 1);
                }
                event_us("next", tie, 1);
            }
            let records = take_records();
            let names: Vec<_> = records.iter().map(|r| r.name).collect();
            assert_eq!(names, ["root", "first", "late", "next"]);
            assert_eq!(records[2].parent, records[1].id);
            assert_eq!(records[3].parent, records[0].id);
        });
    }

    #[test]
    fn cross_thread_spans_flush_on_thread_exit() {
        with_tracing(|| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _w = span("worker");
                });
            });
            let records = take_records();
            assert!(records.iter().any(|r| r.name == "worker"));
        });
    }
}
