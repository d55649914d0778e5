//! Flight recorder: the workspace's one event store.
//!
//! Every event that passes the `RF_TRACE` filter lands here, recorded by
//! [`crate::obs::emit`], and so does a synthetic completion event per
//! metrics span (target [`crate::obs::SPAN_TARGET`], field `ns`), emitted
//! when a [`crate::obs::SpanTimer`] drops while metrics are on, so the
//! recorder sees span timings even when tracing is off. Events live in
//! per-thread ring buffers of fixed capacity, so memory stays bounded no
//! matter how long the run is. Two readers consume them:
//!
//! * a non-destructive [`snapshot`], taken at any time by the live
//!   `/flight` endpoint in [`crate::serve`] or by a crash dump in
//!   [`crate::crashdump`] on the way down;
//! * [`crate::obs::drain_events`], which takes the non-span events for a
//!   run's `trace.json` artifact and empties the rings.
//!
//! # Concurrency and determinism
//!
//! Each worker thread owns its ring and writes through a mutex that no
//! other thread touches during normal operation, so writers never contend
//! with each other — a reader locks each ring just long enough to clone
//! (or take) it, and a writer that loses that race blocks only for that
//! copy of its own ring. A thread adopts the ring of an exited thread
//! before allocating a new one, so the ring count is bounded by the peak
//! number of live recording threads while the events of exited threads
//! stay readable. Events carry deterministic `(trial, group, seq)` keys
//! and both readers merge with [`crate::obs::sort_merged`], so as long as
//! no ring has wrapped, the merged order is byte-identical across thread
//! counts (tested in `tests/obs_determinism.rs` and
//! `tests/live_plane.rs`). Once a ring wraps, the oldest events are gone
//! (counted by [`crate::obs::dropped_events`]) and the retained *window*
//! becomes thread-count dependent even though the sort order of what
//! remains never is.
//!
//! Rings hold up to 65,536 events each ([`DEFAULT_CAP`];
//! `RF_FLIGHT_CAP=<n>` resizes them) and grow lazily, so a process that
//! records nothing allocates nothing. `RF_OBS=off` stops all recording.

use crate::obs::Event;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default per-thread ring capacity (events), before `RF_FLIGHT_CAP`.
pub const DEFAULT_CAP: usize = 1 << 16;

/// One thread's ring: a vector that grows to capacity and then becomes a
/// circular buffer with `next` as the write (and oldest-entry) cursor.
#[derive(Default)]
struct Ring {
    buf: Vec<Event>,
    next: usize,
}

impl Ring {
    /// Moves the contents out oldest-first, leaving the ring empty.
    fn take(&mut self) -> Vec<Event> {
        let mut events = std::mem::take(&mut self.buf);
        let split = self.next.min(events.len());
        events.rotate_left(split);
        self.next = 0;
        events
    }
}

struct FlightGlobal {
    cap: AtomicUsize,
    overwritten: AtomicU64,
    rings: Mutex<Vec<Arc<Mutex<Ring>>>>,
}

fn global() -> &'static FlightGlobal {
    static GLOBAL: OnceLock<FlightGlobal> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let cap = std::env::var("RF_FLIGHT_CAP")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&c| c > 0)
            .unwrap_or(DEFAULT_CAP);
        FlightGlobal {
            cap: AtomicUsize::new(cap),
            overwritten: AtomicU64::new(0),
            rings: Mutex::new(Vec::new()),
        }
    })
}

thread_local! {
    static LOCAL_RING: RefCell<Option<Arc<Mutex<Ring>>>> = const { RefCell::new(None) };
}

/// Sets the per-thread ring capacity for subsequent records (the
/// programmatic `RF_FLIGHT_CAP`); zero is clamped to one. Rings that
/// already grew past a smaller capacity keep their length but stop
/// growing and overwrite in place.
pub fn set_capacity(cap: usize) {
    global().cap.store(cap.max(1), Ordering::Relaxed);
}

/// Records one event into the calling thread's ring, overwriting the
/// oldest entry when full.
pub(crate) fn record(event: Event) {
    let g = global();
    LOCAL_RING.with(|cell| {
        let mut slot = cell.borrow_mut();
        let ring = slot.get_or_insert_with(|| {
            let mut rings = g.rings.lock().expect("flight ring registry");
            // A ring whose only owner is the registry belongs to an exited
            // thread: adopt it, events and all.
            if let Some(idle) = rings.iter().find(|r| Arc::strong_count(r) == 1) {
                return idle.clone();
            }
            let ring = Arc::new(Mutex::new(Ring::default()));
            rings.push(ring.clone());
            ring
        });
        let cap = g.cap.load(Ordering::Relaxed);
        let mut ring = ring.lock().expect("flight ring");
        if ring.buf.len() < cap {
            ring.buf.push(event);
        } else {
            // Full (or capacity shrank): overwrite the oldest entry.
            let next = ring.next % ring.buf.len();
            ring.buf[next] = event;
            ring.next = (next + 1) % ring.buf.len();
            g.overwritten.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Events discarded by ring wraparound since the last [`clear`]; surfaced
/// as [`crate::obs::dropped_events`].
pub(crate) fn overwritten() -> u64 {
    global().overwritten.load(Ordering::Relaxed)
}

/// Clones every ring's contents (without consuming them) and merges the
/// result into the canonical deterministic order of
/// [`crate::obs::sort_merged`]. Safe to call at any time, including while
/// workers are still recording: each ring is locked only for its clone.
pub fn snapshot() -> Vec<Event> {
    let rings = global().rings.lock().expect("flight ring registry").clone();
    let mut all: Vec<Event> = Vec::new();
    for ring in rings {
        let ring = ring.lock().expect("flight ring");
        // Oldest-first: the tail from the write cursor, then the head.
        let split = ring.next.min(ring.buf.len());
        all.extend_from_slice(&ring.buf[split..]);
        all.extend_from_slice(&ring.buf[..split]);
    }
    crate::obs::sort_merged(all)
}

/// Moves every ring's contents out (unsorted) and leaves the rings empty;
/// the wraparound count is kept. Backs [`crate::obs::drain_events`].
pub(crate) fn take() -> Vec<Event> {
    let rings = global().rings.lock().expect("flight ring registry");
    let mut all: Vec<Event> = Vec::new();
    for ring in rings.iter() {
        all.append(&mut ring.lock().expect("flight ring").take());
    }
    all
}

/// Empties every ring and zeroes the wraparound count. Wired into
/// [`crate::obs::reset`].
pub(crate) fn clear() {
    let g = global();
    take();
    g.overwritten.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{self, Level};
    use crate::trace_event;

    /// Restores default recorder + obs state when dropped.
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            obs::set_filter("").expect("empty filter parses");
            obs::set_metrics_enabled(false);
            set_capacity(DEFAULT_CAP);
            obs::reset();
        }
    }

    fn emit_scoped(trial: u64, n: u64) {
        let _scope = obs::scope(trial, 0);
        for i in 0..n {
            trace_event!(target: "flighttest", Level::Debug, "tick", i = i);
        }
    }

    #[test]
    fn wraparound_keeps_newest_events_and_counts_losses() {
        let _serial = obs::exclusive();
        let _restore = Restore;
        obs::reset();
        obs::set_filter("flighttest=debug").unwrap();
        set_capacity(8);
        emit_scoped(1, 20);
        let events = snapshot();
        assert_eq!(events.len(), 8, "ring holds exactly its capacity");
        assert_eq!(overwritten(), 12, "12 of 20 events were overwritten");
        // The survivors are the 8 newest, in deterministic seq order.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn snapshot_is_nondestructive_and_clear_empties() {
        let _serial = obs::exclusive();
        let _restore = Restore;
        obs::reset();
        obs::set_filter("flighttest=debug").unwrap();
        emit_scoped(3, 5);
        assert_eq!(snapshot().len(), 5);
        assert_eq!(snapshot().len(), 5, "snapshot does not consume");
        clear();
        assert_eq!(snapshot().len(), 0);
        assert_eq!(overwritten(), 0);
    }

    #[test]
    fn span_completions_become_keyed_events() {
        let _serial = obs::exclusive();
        let _restore = Restore;
        obs::reset();
        obs::set_metrics_enabled(true);
        {
            let _scope = obs::scope(9, 2);
            let _span = obs::span("flighttest.work_ns");
        }
        let events = snapshot();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.target, obs::SPAN_TARGET);
        assert_eq!(e.name, "flighttest.work_ns");
        assert_eq!((e.trial, e.group, e.seq), (9, 2, 0));
        assert_eq!(e.fields.len(), 1);
        assert_eq!(e.fields[0].0, "ns");
    }

    #[test]
    fn exited_threads_rings_are_adopted_with_their_events() {
        let _serial = obs::exclusive();
        let _restore = Restore;
        obs::reset();
        obs::set_filter("flighttest=debug").unwrap();
        let rings_before = global().rings.lock().unwrap().len();
        for trial in 0..4u64 {
            std::thread::spawn(move || emit_scoped(trial, 3))
                .join()
                .expect("writer thread");
        }
        // Each writer exits before the next starts, so one ring serves all
        // four, and none of their events is lost.
        assert!(global().rings.lock().unwrap().len() <= rings_before + 1);
        assert_eq!(snapshot().len(), 12);
        assert_eq!(obs::drain_events().len(), 12);
        assert!(snapshot().is_empty(), "drain empties the rings");
    }

    #[test]
    fn drain_during_write_is_safe_and_monotone() {
        let _serial = obs::exclusive();
        let _restore = Restore;
        obs::reset();
        obs::set_filter("flighttest=debug").unwrap();
        set_capacity(1 << 14);
        let writer = std::thread::spawn(|| {
            for trial in 0..200u64 {
                emit_scoped(trial, 10);
            }
        });
        // Concurrent snapshots while the writer is mid-flight: must never
        // panic, and observed sizes only grow (nothing wraps at this cap).
        let mut last = 0usize;
        for _ in 0..50 {
            let n = snapshot().len();
            assert!(n >= last, "snapshot shrank from {last} to {n}");
            last = n;
        }
        writer.join().expect("writer thread");
        assert_eq!(snapshot().len(), 2000);
        assert_eq!(overwritten(), 0);
    }
}
