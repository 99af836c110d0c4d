//! The multi-tenant session table: one entry per campaign run over the
//! wire.
//!
//! A [`Session`] bridges the in-process observer seam to any number of
//! HTTP stream readers: the campaign's [`CampaignObserver`] pushes each
//! event — already encoded to its canonical wire line — into an
//! append-only [`EventLog`]; readers replay the log from byte 0 and
//! block on a condvar for more, so a reader that connects late (or
//! reconnects) sees exactly the same byte sequence as one that was
//! there from the start. Publication is gated by a commit watermark
//! that only ever rests on a newline boundary, so no reader — however
//! unluckily scheduled against the writer — can observe a torn NDJSON
//! line. The log closes when the campaign thread finishes, which is
//! what ends the streams.
//!
//! [`CampaignObserver`]: picbench_core::CampaignObserver

use picbench_core::CancelToken;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Where a session is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// The campaign is still evaluating.
    Running,
    /// The campaign ran to completion.
    Finished,
    /// The campaign was cut short by cooperative cancellation.
    Cancelled,
    /// The campaign thread panicked (a bug, surfaced rather than hung).
    Failed,
}

impl SessionState {
    /// The wire token served in status responses.
    pub fn token(self) -> &'static str {
        match self {
            SessionState::Running => "running",
            SessionState::Finished => "finished",
            SessionState::Cancelled => "cancelled",
            SessionState::Failed => "failed",
        }
    }
}

#[derive(Default)]
struct LogInner {
    /// Raw NDJSON bytes: one `\n`-terminated line per event. Bytes past
    /// `committed` belong to a line still being appended.
    buf: Vec<u8>,
    /// Publication watermark. Always rests on a newline boundary (or 0),
    /// and everything below it is immutable — readers are handed
    /// exactly `buf[..committed]` and can never see a torn line.
    committed: usize,
    closed: bool,
}

/// An append-only, multi-reader byte log of encoded event lines.
///
/// Readers address the log by *byte* offset and only ever observe the
/// committed prefix, which grows monotonically and ends at a newline.
/// Writers may stage a line incrementally with [`EventLog::append_bytes`];
/// staged bytes publish when their terminating newline lands.
#[derive(Default)]
pub struct EventLog {
    inner: Mutex<LogInner>,
    grew: Condvar,
}

impl EventLog {
    /// Appends one encoded line (no trailing newline), commits it and
    /// wakes readers.
    pub fn push(&self, line: String) {
        debug_assert!(
            !line.contains('\n'),
            "wire lines are single-line by contract"
        );
        let mut inner = self.inner.lock().expect("event log poisoned");
        inner.buf.extend_from_slice(line.as_bytes());
        inner.buf.push(b'\n');
        inner.committed = inner.buf.len();
        self.grew.notify_all();
    }

    /// Appends raw stream bytes, committing only up to the last newline
    /// they complete. A partial trailing line stays staged — invisible
    /// to every reader — until a later append delivers its `\n`.
    pub fn append_bytes(&self, bytes: &[u8]) {
        let mut inner = self.inner.lock().expect("event log poisoned");
        inner.buf.extend_from_slice(bytes);
        let committed = inner.committed;
        if let Some(last_nl) = inner.buf[committed..].iter().rposition(|&b| b == b'\n') {
            inner.committed = committed + last_nl + 1;
            self.grew.notify_all();
        }
    }

    /// Closes the log: readers drain the committed prefix and stop. Any
    /// staged partial line is discarded rather than published torn.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("event log poisoned");
        inner.closed = true;
        let committed = inner.committed;
        inner.buf.truncate(committed);
        self.grew.notify_all();
    }

    /// Committed (reader-visible) bytes currently in the log.
    pub fn committed_len(&self) -> usize {
        self.inner.lock().expect("event log poisoned").committed
    }

    /// Whether the log holds no committed bytes yet.
    pub fn is_empty(&self) -> bool {
        self.committed_len() == 0
    }

    /// Returns the committed bytes from offset `from` on, blocking until
    /// some are available or the log closes. `None` means
    /// closed-and-drained — the reader's stream is complete. The
    /// returned chunk always ends at a newline boundary.
    pub fn wait_from(&self, from: usize) -> Option<Vec<u8>> {
        let mut inner = self.inner.lock().expect("event log poisoned");
        loop {
            if inner.committed > from {
                return Some(inner.buf[from..inner.committed].to_vec());
            }
            if inner.closed {
                return None;
            }
            inner = self.grew.wait(inner).expect("event log poisoned");
        }
    }

    /// A snapshot of the committed prefix (non-blocking).
    pub fn snapshot(&self) -> Vec<u8> {
        let inner = self.inner.lock().expect("event log poisoned");
        inner.buf[..inner.committed].to_vec()
    }
}

/// One campaign run over the wire.
pub struct Session {
    /// Server-assigned session id (`c-N`).
    pub id: String,
    /// The tenant that owns it; other tenants cannot see it at all.
    pub tenant: String,
    /// The cooperative cancellation switch `DELETE` flips.
    pub cancel: CancelToken,
    /// The encoded event stream, replayable from the start.
    pub log: EventLog,
    state: Mutex<SessionState>,
    cells_total: AtomicUsize,
    cells_completed: AtomicUsize,
}

impl Session {
    /// Current lifecycle state.
    pub fn state(&self) -> SessionState {
        *self.state.lock().expect("session state poisoned")
    }

    /// Records the matrix size once it is known.
    pub fn set_cells_total(&self, total: usize) {
        self.cells_total.store(total, Ordering::Relaxed);
    }

    /// Bumps the completed-cell gauge (observer-side).
    pub fn note_cell_completed(&self, completed: usize) {
        self.cells_completed.store(completed, Ordering::Relaxed);
    }

    /// `(completed, total)` cell progress.
    pub fn progress(&self) -> (usize, usize) {
        (
            self.cells_completed.load(Ordering::Relaxed),
            self.cells_total.load(Ordering::Relaxed),
        )
    }

    fn transition(&self, to: SessionState) {
        *self.state.lock().expect("session state poisoned") = to;
    }
}

/// Counter snapshot of a [`SessionTable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Sessions whose campaign thread is still running.
    pub active: usize,
    /// High-water mark of `active`.
    pub peak_active: usize,
    /// Event streams currently being served.
    pub active_streams: usize,
    /// High-water mark of `active_streams` — the measured
    /// concurrent-streaming-session ceiling.
    pub peak_streams: usize,
    /// Sessions ever admitted.
    pub started: u64,
    /// Sessions that ran to completion.
    pub finished: u64,
    /// Sessions cut short by cancellation.
    pub cancelled: u64,
}

/// The process-wide registry of sessions, plus its gauges.
#[derive(Default)]
pub struct SessionTable {
    sessions: Mutex<HashMap<String, Arc<Session>>>,
    runners: Mutex<Vec<JoinHandle<()>>>,
    next_id: AtomicU64,
    active: AtomicUsize,
    peak_active: AtomicUsize,
    active_streams: AtomicUsize,
    peak_streams: AtomicUsize,
    started: AtomicU64,
    finished: AtomicU64,
    cancelled: AtomicU64,
}

fn bump_peak(gauge: &AtomicUsize, peak: &AtomicUsize) {
    let now = gauge.fetch_add(1, Ordering::AcqRel) + 1;
    peak.fetch_max(now, Ordering::AcqRel);
}

impl SessionTable {
    /// An empty table.
    pub fn new() -> Self {
        SessionTable::default()
    }

    /// Admits a new session for `tenant`, unless `max_active` running
    /// sessions already exist (`None` = at capacity; the server answers
    /// 429).
    pub fn admit(&self, tenant: &str, max_active: usize) -> Option<Arc<Session>> {
        let mut sessions = self.sessions.lock().expect("session table poisoned");
        if self.active.load(Ordering::Acquire) >= max_active {
            return None;
        }
        let id = format!("c-{}", self.next_id.fetch_add(1, Ordering::Relaxed) + 1);
        let session = Arc::new(Session {
            id: id.clone(),
            tenant: tenant.to_string(),
            cancel: CancelToken::new(),
            log: EventLog::default(),
            state: Mutex::new(SessionState::Running),
            cells_total: AtomicUsize::new(0),
            cells_completed: AtomicUsize::new(0),
        });
        sessions.insert(id, Arc::clone(&session));
        bump_peak(&self.active, &self.peak_active);
        self.started.fetch_add(1, Ordering::Relaxed);
        Some(session)
    }

    /// Registers the session's campaign thread so shutdown can drain it,
    /// and joins the runners that have already exited: an unjoined
    /// thread keeps its resources until joined, so without this every
    /// finished session would hold them until shutdown.
    pub fn track_runner(&self, handle: JoinHandle<()>) {
        let exited: Vec<JoinHandle<()>> = {
            let mut runners = self.runners.lock().expect("session runners poisoned");
            let (exited, running) = runners.drain(..).partition(JoinHandle::is_finished);
            *runners = running;
            runners.push(handle);
            exited
        };
        for runner in exited {
            // A panicked runner already transitioned its session to
            // Failed; nothing is left to report.
            let _ = runner.join();
        }
    }

    /// Campaign threads registered and not yet joined.
    #[cfg(test)]
    fn tracked_runners(&self) -> usize {
        self.runners.lock().expect("session runners poisoned").len()
    }

    /// Looks a session up *within* a tenant: sessions of other tenants
    /// are indistinguishable from absent ones by construction.
    pub fn get(&self, tenant: &str, id: &str) -> Option<Arc<Session>> {
        let sessions = self.sessions.lock().expect("session table poisoned");
        sessions.get(id).filter(|s| s.tenant == tenant).cloned()
    }

    /// Marks a session's campaign finished (called by its runner thread
    /// as its last act before the log closes).
    pub fn finish(&self, session: &Session, state: SessionState) {
        session.transition(state);
        self.active.fetch_sub(1, Ordering::AcqRel);
        match state {
            SessionState::Cancelled => self.cancelled.fetch_add(1, Ordering::Relaxed),
            _ => self.finished.fetch_add(1, Ordering::Relaxed),
        };
        session.log.close();
    }

    /// Accounts an event stream for the session's lifetime; hold the
    /// guard while serving.
    pub fn stream_guard(&self) -> StreamGuard<'_> {
        bump_peak(&self.active_streams, &self.peak_streams);
        StreamGuard { table: self }
    }

    /// Counter snapshot (atomic loads, no lock-the-world).
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            active: self.active.load(Ordering::Relaxed),
            peak_active: self.peak_active.load(Ordering::Relaxed),
            active_streams: self.active_streams.load(Ordering::Relaxed),
            peak_streams: self.peak_streams.load(Ordering::Relaxed),
            started: self.started.load(Ordering::Relaxed),
            finished: self.finished.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
        }
    }

    /// Joins every campaign thread (graceful-shutdown drain). In-flight
    /// campaigns run to completion; their logs close, which ends their
    /// streams.
    pub fn drain(&self) {
        let handles: Vec<JoinHandle<()>> = {
            let mut runners = self.runners.lock().expect("session runners poisoned");
            runners.drain(..).collect()
        };
        for handle in handles {
            // A panicked runner already transitioned its session to
            // Failed; the drain still completes.
            let _ = handle.join();
        }
    }
}

/// RAII guard accounting one live event stream.
pub struct StreamGuard<'a> {
    table: &'a SessionTable,
}

impl Drop for StreamGuard<'_> {
    fn drop(&mut self) {
        self.table.active_streams.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_replays_identically_for_late_readers() {
        let log = EventLog::default();
        log.push("a".into());
        log.push("b".into());
        let early = log.wait_from(0).unwrap();
        log.push("c".into());
        log.close();
        let late = log.snapshot();
        assert_eq!(early, b"a\nb\n");
        assert_eq!(late, b"a\nb\nc\n");
        assert_eq!(log.wait_from(late.len()), None, "closed and drained");
    }

    #[test]
    fn wait_from_blocks_until_growth() {
        let log = Arc::new(EventLog::default());
        let writer = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                log.push("x".into());
                log.close();
            })
        };
        assert_eq!(log.wait_from(0).unwrap(), b"x\n");
        assert!(log.wait_from(2).is_none());
        writer.join().unwrap();
    }

    #[test]
    fn partial_lines_stay_invisible_until_their_newline() {
        let log = EventLog::default();
        log.append_bytes(b"{\"event\":\"camp");
        assert!(log.is_empty(), "no newline yet, nothing published");
        assert_eq!(log.snapshot(), b"");
        log.append_bytes(b"aign_started\"}\n{\"torn");
        // The completed first line publishes; the torn tail does not.
        assert_eq!(log.snapshot(), b"{\"event\":\"campaign_started\"}\n");
        log.append_bytes(b"\"}\n");
        assert_eq!(
            log.snapshot(),
            b"{\"event\":\"campaign_started\"}\n{\"torn\"}\n"
        );
    }

    #[test]
    fn close_discards_a_staged_partial_line() {
        let log = EventLog::default();
        log.append_bytes(b"whole\nhalf-a-li");
        log.close();
        assert_eq!(log.snapshot(), b"whole\n");
        assert_eq!(log.wait_from(6), None);
    }

    #[test]
    fn racing_reader_never_observes_a_torn_line() {
        // A writer streams many lines in deliberately awkward chunks
        // (splitting mid-line and mid-escape) while a reader tails the
        // log concurrently. Every chunk the reader is handed must end
        // on a newline boundary, and the total replay must be exactly
        // the byte sequence a from-the-start reader would see.
        let log = Arc::new(EventLog::default());
        let n_lines = 500usize;
        let expected: Vec<u8> = (0..n_lines)
            .flat_map(|i| format!("{{\"event\":\"tick\",\"seq\":{i}}}\n").into_bytes())
            .collect();

        let reader = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(chunk) = log.wait_from(seen.len()) {
                    assert_eq!(
                        chunk.last(),
                        Some(&b'\n'),
                        "reader handed a chunk not ending at a newline"
                    );
                    seen.extend_from_slice(&chunk);
                }
                seen
            })
        };

        // Deterministically vary chunk sizes 1..=7 to hit every split
        // position across the corpus.
        let mut pos = 0usize;
        let mut step = 1usize;
        while pos < expected.len() {
            let end = (pos + step).min(expected.len());
            log.append_bytes(&expected[pos..end]);
            pos = end;
            step = step % 7 + 1;
        }
        log.close();

        let seen = reader.join().expect("reader panicked");
        assert_eq!(seen, expected, "late replay must be byte-identical");
    }

    #[test]
    fn tenancy_is_structural() {
        let table = SessionTable::new();
        let session = table.admit("alice", 8).unwrap();
        assert!(table.get("alice", &session.id).is_some());
        assert!(table.get("bob", &session.id).is_none());
        assert!(table.get("alice", "c-999").is_none());
    }

    #[test]
    fn capacity_is_enforced_and_released() {
        let table = SessionTable::new();
        let a = table.admit("t", 2).unwrap();
        let _b = table.admit("t", 2).unwrap();
        assert!(table.admit("t", 2).is_none(), "at capacity");
        table.finish(&a, SessionState::Finished);
        assert!(table.admit("t", 2).is_some(), "capacity released");
        let stats = table.stats();
        assert_eq!(stats.peak_active, 2);
        assert_eq!(stats.started, 3);
    }

    #[test]
    fn exited_runners_are_joined_as_new_ones_are_tracked() {
        let table = Arc::new(SessionTable::new());
        for _ in 0..64 {
            let session = table.admit("t", 4).unwrap();
            let runner = {
                let table = Arc::clone(&table);
                std::thread::spawn(move || table.finish(&session, SessionState::Finished))
            };
            while !runner.is_finished() {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            table.track_runner(runner);
            assert_eq!(table.tracked_runners(), 1, "exited runners were kept");
        }
        assert_eq!(table.stats().finished, 64);
        table.drain();
        assert_eq!(table.tracked_runners(), 0);
    }

    #[test]
    fn stream_gauge_tracks_peak() {
        let table = SessionTable::new();
        {
            let _a = table.stream_guard();
            let _b = table.stream_guard();
            assert_eq!(table.stats().active_streams, 2);
        }
        let stats = table.stats();
        assert_eq!(stats.active_streams, 0);
        assert_eq!(stats.peak_streams, 2);
    }
}
