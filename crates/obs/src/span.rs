//! RAII span tracing with thread-local span stacks and a bounded
//! lock-free ring-buffer event sink.
//!
//! Span names are interned once into a [`SpanId`] (an index into a
//! global name table), mirroring the registry's resolve-once handle
//! model: the hot path never hashes or allocates. Entering a span when
//! tracing is disabled — the default — costs one relaxed load and a
//! branch; the guard holds no timestamp, so not even `Instant::now` is
//! paid. When enabled, the guard records its start, pushes its id on a
//! thread-local stack (which is how nesting and parent attribution
//! work), and on drop writes one event into the global [`RingSink`].
//!
//! The sink is a fixed-capacity ring of atomic slots written without
//! locks or unsafe code: a writer claims a ticket with one
//! `fetch_add`, then seq-stamps the slot around its field stores so a
//! concurrent reader can detect and discard torn slots — the classic
//! seqlock shape, built purely from `AtomicU64`s. Old events are
//! overwritten, never block a writer.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Process-wide tracing switch; off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Enables or disables tracing.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Interned span names: a `SpanId` is an index into this table.
static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Sentinel for "no parent" in ring slots.
const NO_PARENT: u64 = u64::MAX;

/// The instant all event timestamps are relative to (first use).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// A pre-resolved span name: register once (typically at context or
/// engine construction), then [`SpanId::enter`] from the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// Interns `name`, returning its id. Idempotent: the same name
    /// always maps to the same id.
    pub fn register(name: &'static str) -> Self {
        let mut names = NAMES.lock().expect("span name table poisoned");
        if let Some(i) = names.iter().position(|n| *n == name) {
            return SpanId(i as u32);
        }
        names.push(name);
        SpanId((names.len() - 1) as u32)
    }

    /// The interned name.
    pub fn name(self) -> &'static str {
        name_of(self.0)
    }

    /// Opens a span. When tracing is disabled this is one relaxed load
    /// and a branch — no clock read, no thread-local access.
    #[inline]
    pub fn enter(self) -> Span {
        if !enabled() {
            return Span { inner: None };
        }
        Span::open(self)
    }
}

fn name_of(id: u32) -> &'static str {
    NAMES
        .lock()
        .expect("span name table poisoned")
        .get(id as usize)
        .copied()
        .unwrap_or("?")
}

thread_local! {
    /// The ids of currently-open spans on this thread, innermost last.
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

struct SpanInner {
    id: u32,
    parent: u64,
    depth: u32,
    start: Instant,
}

/// An RAII span guard: records one event into the global sink when
/// dropped (if it was opened with tracing enabled).
#[must_use = "a span measures the scope it lives in; dropping it immediately records nothing useful"]
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    #[cold]
    fn open(id: SpanId) -> Span {
        // Pin the epoch before taking `start` so start >= epoch.
        epoch();
        let (parent, depth) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().map_or(NO_PARENT, |&p| p as u64);
            let depth = s.len() as u32;
            s.push(id.0);
            (parent, depth)
        });
        Span {
            inner: Some(SpanInner {
                id: id.0,
                parent,
                depth,
                start: Instant::now(),
            }),
        }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let dur_ns = inner.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let start_ns = inner
                .start
                .saturating_duration_since(epoch())
                .as_nanos()
                .min(u64::MAX as u128) as u64;
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
            sink().push_raw(inner.id, inner.parent, inner.depth, start_ns, dur_ns);
        }
    }
}

/// One completed span read back out of the sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// The span's interned name.
    pub name: &'static str,
    /// The enclosing span's name, if any.
    pub parent: Option<&'static str>,
    /// Nesting depth at open (0 = root).
    pub depth: u32,
    /// Start, in nanoseconds since the process tracing epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

struct Slot {
    /// `ticket + 1` once the slot's fields are consistent, 0 while a
    /// write is in flight; readers discard on mismatch.
    seq: AtomicU64,
    id: AtomicU64,
    parent: AtomicU64,
    depth: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Self {
            seq: AtomicU64::new(0),
            id: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            depth: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
        }
    }
}

/// Capacity of the global sink (events; older ones are overwritten).
pub const SINK_CAPACITY: usize = 4096;

/// A bounded lock-free ring buffer of span events.
pub struct RingSink {
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl RingSink {
    /// A sink holding the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            head: AtomicU64::new(0),
            slots: (0..capacity.max(1)).map(|_| Slot::new()).collect(),
        }
    }

    fn push_raw(&self, id: u32, parent: u64, depth: u32, start_ns: u64, dur_ns: u64) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        slot.seq.store(0, Ordering::Release);
        slot.id.store(id as u64, Ordering::Relaxed);
        slot.parent.store(parent, Ordering::Relaxed);
        slot.depth.store(depth as u64, Ordering::Relaxed);
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        slot.seq.store(ticket + 1, Ordering::Release);
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events lost to ring overwrite so far.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// The retained events, oldest first. Slots being concurrently
    /// rewritten are detected via their seq stamps and skipped, never
    /// returned torn.
    pub fn events(&self) -> Vec<SpanEvent> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let mut out = Vec::new();
        for ticket in head.saturating_sub(cap)..head {
            let slot = &self.slots[(ticket % cap) as usize];
            if slot.seq.load(Ordering::Acquire) != ticket + 1 {
                continue;
            }
            let id = slot.id.load(Ordering::Relaxed) as u32;
            let parent = slot.parent.load(Ordering::Relaxed);
            let depth = slot.depth.load(Ordering::Relaxed) as u32;
            let start_ns = slot.start_ns.load(Ordering::Relaxed);
            let dur_ns = slot.dur_ns.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != ticket + 1 {
                continue;
            }
            out.push(SpanEvent {
                name: name_of(id),
                parent: (parent != NO_PARENT).then(|| name_of(parent as u32)),
                depth,
                start_ns,
                dur_ns,
            });
        }
        out
    }
}

impl std::fmt::Debug for RingSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RingSink {{ capacity: {}, recorded: {} }}",
            self.slots.len(),
            self.recorded()
        )
    }
}

/// The global event sink all [`Span`] guards write into.
pub fn sink() -> &'static RingSink {
    static SINK: OnceLock<RingSink> = OnceLock::new();
    SINK.get_or_init(|| RingSink::new(SINK_CAPACITY))
}

/// Aggregated time attributed to one span name across the retained
/// events — the pipeline-phase breakdown view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTotal {
    /// Span name.
    pub name: &'static str,
    /// Completed spans retained in the sink.
    pub count: u64,
    /// Summed duration (ns).
    pub total_ns: u64,
}

/// Sums the global sink's retained events by span name, sorted by name —
/// e.g. `encrypt.sample` / `encrypt.ntt` / `encrypt.pointwise` /
/// `encrypt.encode` become one row each.
pub fn phase_totals() -> Vec<PhaseTotal> {
    let mut totals: Vec<PhaseTotal> = Vec::new();
    for ev in sink().events() {
        match totals.iter_mut().find(|t| t.name == ev.name) {
            Some(t) => {
                t.count += 1;
                t.total_ns += ev.dur_ns;
            }
            None => totals.push(PhaseTotal {
                name: ev.name,
                count: 1,
                total_ns: ev.dur_ns,
            }),
        }
    }
    totals.sort_by_key(|t| t.name);
    totals
}

/// Serializes the unit tests that flip the process-wide tracing flag:
/// `cargo test` runs them on parallel threads, and one test's toggle
/// would otherwise land inside another's enabled or disabled window.
#[cfg(test)]
pub(crate) fn tracing_flag_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // The guard protects no data, so a poisoned lock is still usable.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let a = SpanId::register("test.reg");
        let b = SpanId::register("test.reg");
        assert_eq!(a, b);
        assert_eq!(a.name(), "test.reg");
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _flag = tracing_flag_lock();
        set_enabled(false);
        let id = SpanId::register("test.disabled");
        let before = sink().recorded();
        {
            let _s = id.enter();
        }
        assert_eq!(sink().recorded(), before);
    }

    #[test]
    fn enabled_spans_record_nesting() {
        let _flag = tracing_flag_lock();
        let outer = SpanId::register("test.outer");
        let inner = SpanId::register("test.inner");
        set_enabled(true);
        {
            let _o = outer.enter();
            let _i = inner.enter();
        }
        set_enabled(false);
        let events = sink().events();
        let ev = events
            .iter()
            .rev()
            .find(|e| e.name == "test.inner")
            .expect("inner event retained");
        assert_eq!(ev.parent, Some("test.outer"));
        assert_eq!(ev.depth, 1);
        let outer_ev = events
            .iter()
            .rev()
            .find(|e| e.name == "test.outer")
            .expect("outer event retained");
        assert_eq!(outer_ev.parent, None);
        assert_eq!(outer_ev.depth, 0);
        // The inner span closes first and fits inside the outer one.
        assert!(outer_ev.dur_ns >= ev.dur_ns);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let ring = RingSink::new(4);
        let id = SpanId::register("test.ring");
        for i in 0..10u64 {
            ring.push_raw(id.0, NO_PARENT, 0, i, i);
        }
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 6);
        let events = ring.events();
        assert_eq!(events.len(), 4);
        // Oldest retained first.
        assert_eq!(events[0].start_ns, 6);
        assert_eq!(events[3].start_ns, 9);
    }

    #[test]
    fn concurrent_writers_never_yield_torn_events() {
        let ring = RingSink::new(64);
        let id = SpanId::register("test.torn");
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..2000u64 {
                        // start_ns and dur_ns always match: a torn read
                        // would surface as a mismatched pair.
                        let v = t * 10_000 + i;
                        ring.push_raw(id.0, NO_PARENT, 0, v, v);
                    }
                });
            }
            for _ in 0..50 {
                for ev in ring.events() {
                    assert_eq!(ev.start_ns, ev.dur_ns, "torn slot surfaced");
                }
            }
        });
        assert_eq!(ring.recorded(), 8000);
    }
}
