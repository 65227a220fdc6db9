//! The global collector: per-thread event buffers, a registry that can
//! drain them all, and the install/uninstall lifecycle.
//!
//! ## Drain protocol
//!
//! Every thread that records an event lazily registers one
//! `ThreadBuffer` (an `Arc` shared with the global registry) and pushes
//! finished events under that buffer's own mutex — uncontended in steady
//! state, since only drains ever take it from another thread. [`drain`]
//! walks the registry and `mem::take`s each buffer's events, so each event
//! is collected **exactly once** no matter how many threads produced it,
//! and buffers of threads that have since exited are still reachable
//! (the registry's `Arc` keeps them alive).
//!
//! [`install`] clears all buffers and flips the global enabled flag;
//! recording while disabled is a no-op, so events can never leak from one
//! collection session into the next. Per-thread buffers are bounded
//! ([`MAX_EVENTS_PER_THREAD`]); overflowing events are counted in the
//! `tgi_telemetry_dropped_events_total` counter instead of growing without
//! bound.

use crate::span::FieldValue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Hard cap on buffered events per thread between drains.
pub const MAX_EVENTS_PER_THREAD: usize = 1 << 18;

/// What kind of occurrence an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration: a [`crate::span()`] guard's lifetime.
    Span,
    /// A point in time: an [`crate::instant`] marker (warnings, milestones).
    Instant,
}

impl EventKind {
    /// Lowercase label used by the exporters.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Instant => "instant",
        }
    }
}

/// One finished telemetry event, as drained from a thread buffer.
#[derive(Debug, Clone)]
pub struct Event {
    /// Span or instant.
    pub kind: EventKind,
    /// Static event name (e.g. `"suite.attempt"`).
    pub name: &'static str,
    /// Static category, grouping related names (e.g. `"suite"`).
    pub cat: &'static str,
    /// Small stable id of the recording thread (1-based).
    pub tid: u64,
    /// Start time in nanoseconds since the process-wide telemetry epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// `key=value` fields attached at the recording site.
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// Per-thread buffer of finished events, shared with the global registry.
struct ThreadBuffer {
    events: Mutex<Vec<Event>>,
}

/// Registry of every thread buffer ever created, plus the enabled flag's
/// bookkeeping. The `Mutex` is only taken on first-record-per-thread and
/// on drains — never on the per-event hot path.
static BUFFERS: Mutex<Vec<Arc<ThreadBuffer>>> = Mutex::new(Vec::new());

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static LOCAL: OnceLock<(u64, Arc<ThreadBuffer>)> = const { OnceLock::new() };
}

/// The process-wide monotonic epoch all timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the telemetry epoch.
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// The small stable id of the current thread (assigned on first use).
pub(crate) fn thread_id() -> u64 {
    LOCAL.with(|cell| cell.get_or_init(new_thread_buffer).0)
}

fn new_thread_buffer() -> (u64, Arc<ThreadBuffer>) {
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let buf = Arc::new(ThreadBuffer { events: Mutex::new(Vec::new()) });
    BUFFERS.lock().unwrap_or_else(PoisonError::into_inner).push(Arc::clone(&buf));
    (tid, buf)
}

/// Queues one finished event into the current thread's buffer and, when
/// the flight recorder is active, into its ring.
///
/// No-op while nothing records; bounded by [`MAX_EVENTS_PER_THREAD`]
/// (overflow is counted, not stored).
pub(crate) fn record(event: Event) {
    #[cfg(feature = "enabled")]
    if crate::recorder::active() {
        crate::recorder::record(&event);
    }
    if !crate::enabled() {
        return;
    }
    LOCAL.with(|cell| {
        let (_, buf) = cell.get_or_init(new_thread_buffer);
        let mut events = buf.events.lock().unwrap_or_else(PoisonError::into_inner);
        if events.len() < MAX_EVENTS_PER_THREAD {
            events.push(event);
        } else {
            drop(events);
            dropped_counter().add_unconditional(1);
        }
    });
}

/// The overflow counter, registered lazily so the disabled path never
/// touches the metrics registry.
fn dropped_counter() -> &'static Arc<crate::Counter> {
    static DROPPED: OnceLock<Arc<crate::Counter>> = OnceLock::new();
    DROPPED.get_or_init(|| crate::metrics::counter("tgi_telemetry_dropped_events_total"))
}

/// Installs the global collector: clears any stale thread buffers and
/// starts recording. Returns `false` (and changes nothing) if a collector
/// is already installed, or when telemetry is compiled out.
pub fn install() -> bool {
    #[cfg(feature = "enabled")]
    {
        let buffers = BUFFERS.lock().unwrap_or_else(PoisonError::into_inner);
        if crate::ENABLED.load(Ordering::SeqCst) {
            return false;
        }
        epoch(); // pin the epoch before the first event
        for buf in buffers.iter() {
            buf.events.lock().unwrap_or_else(PoisonError::into_inner).clear();
        }
        crate::metrics::reset();
        crate::ENABLED.store(true, Ordering::SeqCst);
        true
    }
    #[cfg(not(feature = "enabled"))]
    {
        false
    }
}

/// Whether a collector is currently installed.
pub fn installed() -> bool {
    crate::enabled()
}

/// Collects every buffered event from every thread, in `(start, -dur)`
/// order (parents sort before the children they contain). Recording stays
/// enabled; events are handed out exactly once.
pub fn drain() -> Vec<Event> {
    let buffers = BUFFERS.lock().unwrap_or_else(PoisonError::into_inner);
    let mut out = Vec::new();
    for buf in buffers.iter() {
        out.append(&mut buf.events.lock().unwrap_or_else(PoisonError::into_inner));
    }
    drop(buffers);
    out.sort_by(|a, b| {
        (a.start_ns, std::cmp::Reverse(a.dur_ns), a.tid).cmp(&(
            b.start_ns,
            std::cmp::Reverse(b.dur_ns),
            b.tid,
        ))
    });
    out
}

/// Stops recording and returns the final drain. Safe to call when no
/// collector is installed (returns whatever is still buffered).
pub fn uninstall() -> Vec<Event> {
    #[cfg(feature = "enabled")]
    crate::ENABLED.store(false, Ordering::SeqCst);
    drain()
}
