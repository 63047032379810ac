//! Operation counters used by the complexity experiments (Table 1).

use std::sync::Arc;

use cole_storage::{PageIoStats, WalIoCounters};

use crate::sync::atomic::{AtomicU64, Ordering};

/// Cumulative counters describing the work a COLE instance has performed.
///
/// The page counters are *logical*: a "page read" is one page-granular
/// access to a run file, independent of OS or page-cache state, so it tracks
/// the IO terms of Table 1's cost columns. Reads are attributed to the file
/// kind they touch — value, learned-index or Merkle pages — through the
/// shared [`PageIoStats`] handles every run file of that kind reports into,
/// each with its own cache hit/miss split.
///
/// All counters are relaxed atomics so the query path can update them
/// through `&self` — the whole read surface (`get`, `prov_query`) is shared
/// between threads without locks. An engine and its runs share one
/// `Metrics` instance via `Arc`; call [`Metrics::snapshot`] for a coherent
/// plain-integer view.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Value-file page IO (logical reads + cache hit/miss split).
    pub value_io: Arc<PageIoStats>,
    /// Learned-index-file page IO.
    pub index_io: Arc<PageIoStats>,
    /// Merkle-file page IO.
    pub merkle_io: Arc<PageIoStats>,
    /// Pages written while building run files.
    pub pages_written: AtomicU64,
    /// Number of memtable flushes (level-0 → level-1 runs).
    pub flushes: AtomicU64,
    /// Number of level merges (including flushes).
    pub merges: AtomicU64,
    /// Total key–value pairs rewritten by merges.
    pub entries_merged: AtomicU64,
    /// Get queries answered.
    pub gets: AtomicU64,
    /// Provenance queries answered.
    pub prov_queries: AtomicU64,
    /// Runs a `get` skipped thanks to a negative Bloom-filter check (a
    /// provenance query never skips: it proves absence by search).
    pub bloom_skips: AtomicU64,
    /// Runs actually searched: by a `get` whose Bloom check passed, or by a
    /// provenance query before its early stop.
    pub runs_searched: AtomicU64,
    /// Blocks appended to the write-ahead log.
    pub wal_appends: AtomicU64,
    /// Append-path durability counters of the write-ahead log (fsync count
    /// and synced byte length). Shared with the
    /// [`WriteAheadLog`](cole_storage::WriteAheadLog) (hence the `Arc`),
    /// surviving segment rotations. Under `WalSyncPolicy::Always` the fsync
    /// count equals `wal_appends`; under group commit it is the number of
    /// groups — the observable proof that batching is active.
    pub wal_io: Arc<WalIoCounters>,
    /// Orphan runs (unreferenced by the committed manifest) deleted on open.
    pub orphan_runs_deleted: AtomicU64,
    /// Wire requests served by a [`cole_server`]-style front-end, all
    /// operations (the per-op splits below sum to at most this — error
    /// responses count here but in no per-op counter). Zero for an embedded
    /// engine; a server increments these through
    /// [`Cole::metrics_handle`](crate::Cole::metrics_handle) /
    /// [`AsyncCole::metrics_handle`](crate::AsyncCole::metrics_handle) so
    /// served throughput is observable next to the IO counters it causes.
    pub requests_served: AtomicU64,
    /// `get` requests served over the wire.
    pub get_requests: AtomicU64,
    /// `put_batch` requests served over the wire.
    pub put_batch_requests: AtomicU64,
    /// `prov_query` requests served over the wire.
    pub prov_requests: AtomicU64,
    /// Requests answered `Busy` by the server's in-flight cap (load
    /// shedding) instead of being dispatched to the engine.
    pub requests_shed: AtomicU64,
    /// Read-only requests whose dispatch overran the server's per-request
    /// deadline and were answered `Timeout`.
    pub requests_timed_out: AtomicU64,
    /// Connections the server closed for exceeding the slow-client idle
    /// timeout.
    pub idle_disconnects: AtomicU64,
    /// Engine errors classified as transient I/O and answered with a
    /// retryable wire code (the chaos harness's storage faults land here).
    pub transient_io_errors: AtomicU64,
    /// Reads (gets, provenance queries, head lookups) served from a pinned
    /// immutable [`Snapshot`](crate::Snapshot) without touching any engine
    /// lock.
    pub snapshot_reads: AtomicU64,
    /// Reads that had to block on the single-writer engine lock. Zero by
    /// construction on the snapshot read path — `exp_server
    /// --assert-snapshot-reads true` fails CI if it ever moves.
    pub reads_blocked_on_writer: AtomicU64,
    /// Snapshots published (one per applied block plus the initial one).
    pub snapshots_published: AtomicU64,
    /// Snapshots dropped from the retention ring (or replaced in place by
    /// an error-path/flush republication at the same height).
    pub snapshots_retired: AtomicU64,
    /// Provenance queries answered from a retained historical snapshot
    /// (`ProvQuery` with an explicit target height).
    pub historical_provs: AtomicU64,
    /// Superseded run files deleted by deferred reclamation, after the last
    /// snapshot pinning them dropped.
    pub retired_runs_deleted: AtomicU64,
}

impl Metrics {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to a counter. All metric updates are relaxed: the counters
    /// are statistics, not synchronization.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Returns a plain-integer copy of the counters. The `cache_hits` /
    /// `cache_misses` totals are the sums of the per-kind splits; the
    /// engines overwrite them with the shared page cache's own counters
    /// (identical in engine context, where every cached file reports stats).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let value_pages_read = self.value_io.logical_reads();
        let index_pages_read = self.index_io.logical_reads();
        let merkle_pages_read = self.merkle_io.logical_reads();
        let value_cache_hits = self.value_io.hits();
        let value_cache_misses = self.value_io.misses();
        let index_cache_hits = self.index_io.hits();
        let index_cache_misses = self.index_io.misses();
        let merkle_cache_hits = self.merkle_io.hits();
        let merkle_cache_misses = self.merkle_io.misses();
        MetricsSnapshot {
            pages_read: value_pages_read + index_pages_read + merkle_pages_read,
            value_pages_read,
            index_pages_read,
            merkle_pages_read,
            pages_written: self.pages_written.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            merges: self.merges.load(Ordering::Relaxed),
            entries_merged: self.entries_merged.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            prov_queries: self.prov_queries.load(Ordering::Relaxed),
            bloom_skips: self.bloom_skips.load(Ordering::Relaxed),
            runs_searched: self.runs_searched.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_fsyncs: self.wal_io.fsyncs(),
            wal_synced_bytes: self.wal_io.synced_bytes(),
            orphan_runs_deleted: self.orphan_runs_deleted.load(Ordering::Relaxed),
            requests_served: self.requests_served.load(Ordering::Relaxed),
            get_requests: self.get_requests.load(Ordering::Relaxed),
            put_batch_requests: self.put_batch_requests.load(Ordering::Relaxed),
            prov_requests: self.prov_requests.load(Ordering::Relaxed),
            requests_shed: self.requests_shed.load(Ordering::Relaxed),
            requests_timed_out: self.requests_timed_out.load(Ordering::Relaxed),
            idle_disconnects: self.idle_disconnects.load(Ordering::Relaxed),
            transient_io_errors: self.transient_io_errors.load(Ordering::Relaxed),
            snapshot_reads: self.snapshot_reads.load(Ordering::Relaxed),
            reads_blocked_on_writer: self.reads_blocked_on_writer.load(Ordering::Relaxed),
            snapshots_published: self.snapshots_published.load(Ordering::Relaxed),
            snapshots_retired: self.snapshots_retired.load(Ordering::Relaxed),
            historical_provs: self.historical_provs.load(Ordering::Relaxed),
            retired_runs_deleted: self.retired_runs_deleted.load(Ordering::Relaxed),
            cache_hits: value_cache_hits + index_cache_hits + merkle_cache_hits,
            cache_misses: value_cache_misses + index_cache_misses + merkle_cache_misses,
            value_cache_hits,
            value_cache_misses,
            index_cache_hits,
            index_cache_misses,
            merkle_cache_hits,
            merkle_cache_misses,
        }
    }
}

/// A point-in-time copy of [`Metrics`], as plain integers.
///
/// This is what [`Cole::metrics`](crate::Cole::metrics) and
/// [`AsyncCole::metrics`](crate::AsyncCole::metrics) return; the engines
/// overwrite the cache totals with the shared page cache's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Run-file pages read during queries, all kinds (value + index +
    /// Merkle). A cache hit is still a logical page access.
    pub pages_read: u64,
    /// Value-file pages read during queries.
    pub value_pages_read: u64,
    /// Learned-index-file pages read during queries.
    pub index_pages_read: u64,
    /// Merkle-file pages read while building proofs.
    pub merkle_pages_read: u64,
    /// Pages written while building run files.
    pub pages_written: u64,
    /// Number of memtable flushes (level-0 → level-1 runs).
    pub flushes: u64,
    /// Number of level merges (including flushes).
    pub merges: u64,
    /// Total key–value pairs rewritten by merges.
    pub entries_merged: u64,
    /// Get queries answered.
    pub gets: u64,
    /// Provenance queries answered.
    pub prov_queries: u64,
    /// Runs a `get` skipped thanks to a negative Bloom-filter check.
    pub bloom_skips: u64,
    /// Runs searched by a `get` or a provenance query.
    pub runs_searched: u64,
    /// Blocks appended to the write-ahead log.
    pub wal_appends: u64,
    /// Append-path fsyncs issued by the write-ahead log (`== wal_appends`
    /// under `WalSyncPolicy::Always`, one per group under group commit,
    /// `0` under `OsBuffered`).
    pub wal_fsyncs: u64,
    /// Bytes of the current WAL segment covered by its last append-path
    /// fsync — the power-failure durability frontier of the unflushed
    /// memtable.
    pub wal_synced_bytes: u64,
    /// Orphan runs (unreferenced by the committed manifest) deleted on open.
    pub orphan_runs_deleted: u64,
    /// Wire requests served (all operations, including error responses).
    pub requests_served: u64,
    /// `get` requests served over the wire.
    pub get_requests: u64,
    /// `put_batch` requests served over the wire.
    pub put_batch_requests: u64,
    /// `prov_query` requests served over the wire.
    pub prov_requests: u64,
    /// Requests answered `Busy` by the server's in-flight cap.
    pub requests_shed: u64,
    /// Read-only requests answered `Timeout` after overrunning the server's
    /// per-request deadline.
    pub requests_timed_out: u64,
    /// Connections closed for exceeding the slow-client idle timeout.
    pub idle_disconnects: u64,
    /// Engine errors classified as transient I/O and answered retryable.
    pub transient_io_errors: u64,
    /// Reads served from a pinned immutable snapshot, lock-free.
    pub snapshot_reads: u64,
    /// Reads that blocked on the single-writer engine lock (zero by
    /// construction on the snapshot read path).
    pub reads_blocked_on_writer: u64,
    /// Snapshots published (one per applied block plus the initial one).
    pub snapshots_published: u64,
    /// Snapshots dropped from the retention ring or replaced in place.
    pub snapshots_retired: u64,
    /// Provenance queries answered from a retained historical snapshot.
    pub historical_provs: u64,
    /// Superseded run files deleted by deferred reclamation.
    pub retired_runs_deleted: u64,
    /// Page-cache hits across the engine's run files, all kinds.
    pub cache_hits: u64,
    /// Page-cache misses across the engine's run files, all kinds.
    pub cache_misses: u64,
    /// Page-cache hits on value-file pages.
    pub value_cache_hits: u64,
    /// Page-cache misses on value-file pages.
    pub value_cache_misses: u64,
    /// Page-cache hits on learned-index pages.
    pub index_cache_hits: u64,
    /// Page-cache misses on learned-index pages.
    pub index_cache_misses: u64,
    /// Page-cache hits on Merkle pages.
    pub merkle_cache_hits: u64,
    /// Page-cache misses on Merkle pages.
    pub merkle_cache_misses: u64,
}

impl MetricsSnapshot {
    /// Write amplification: pairs rewritten by merges per flushed pair.
    /// Returns zero before any flush happened.
    #[must_use]
    pub fn write_amplification(&self, entries_ingested: u64) -> f64 {
        if entries_ingested == 0 {
            0.0
        } else {
            self.entries_merged as f64 / entries_ingested as f64
        }
    }

    /// Fraction of page-cache lookups that hit, or zero before any lookup.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        Self::hit_rate(self.cache_hits, self.cache_misses)
    }

    /// Value-page cache hit rate, or zero before any lookup.
    #[must_use]
    pub fn value_cache_hit_rate(&self) -> f64 {
        Self::hit_rate(self.value_cache_hits, self.value_cache_misses)
    }

    /// Learned-index-page cache hit rate, or zero before any lookup.
    #[must_use]
    pub fn index_cache_hit_rate(&self) -> f64 {
        Self::hit_rate(self.index_cache_hits, self.index_cache_misses)
    }

    /// Merkle-page cache hit rate, or zero before any lookup.
    #[must_use]
    pub fn merkle_cache_hit_rate(&self) -> f64 {
        Self::hit_rate(self.merkle_cache_hits, self.merkle_cache_misses)
    }

    fn hit_rate(hits: u64, misses: u64) -> f64 {
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let m = Metrics::new();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        assert_eq!(m.snapshot().pages_read, 0);
    }

    #[test]
    fn snapshot_reflects_increments() {
        let m = Metrics::new();
        Metrics::inc(&m.gets);
        for _ in 0..5 {
            m.value_io.record_read(None);
        }
        m.index_io.record_read(Some(true));
        m.merkle_io.record_read(Some(false));
        let s = m.snapshot();
        assert_eq!(s.gets, 1);
        assert_eq!(s.value_pages_read, 5);
        assert_eq!(s.index_pages_read, 1);
        assert_eq!(s.merkle_pages_read, 1);
        assert_eq!(s.pages_read, 7, "total is the sum over file kinds");
        assert_eq!((s.index_cache_hits, s.merkle_cache_misses), (1, 1));
        assert_eq!((s.cache_hits, s.cache_misses), (1, 1));
    }

    #[test]
    fn request_counters_are_snapshotted() {
        let m = Metrics::new();
        Metrics::add(&m.requests_served, 10);
        Metrics::add(&m.get_requests, 6);
        Metrics::add(&m.put_batch_requests, 1);
        Metrics::add(&m.prov_requests, 2);
        let s = m.snapshot();
        assert_eq!(s.requests_served, 10);
        assert_eq!(s.get_requests, 6);
        assert_eq!(s.put_batch_requests, 1);
        assert_eq!(s.prov_requests, 2);
    }

    #[test]
    fn write_amplification_handles_zero_ingest() {
        let mut s = MetricsSnapshot::default();
        assert_eq!(s.write_amplification(0), 0.0);
        s.entries_merged = 500;
        assert_eq!(s.write_amplification(100), 5.0);
    }

    #[test]
    fn cache_hit_rates_handle_zero_lookups() {
        let mut s = MetricsSnapshot::default();
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert_eq!(s.index_cache_hit_rate(), 0.0);
        s.cache_hits = 3;
        s.cache_misses = 1;
        s.index_cache_hits = 2;
        s.index_cache_misses = 2;
        s.merkle_cache_hits = 1;
        s.merkle_cache_misses = 0;
        assert_eq!(s.cache_hit_rate(), 0.75);
        assert_eq!(s.index_cache_hit_rate(), 0.5);
        assert_eq!(s.merkle_cache_hit_rate(), 1.0);
    }
}
