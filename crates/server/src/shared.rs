//! A concurrently servable handle over one storage engine.
//!
//! Reads are served from immutable, epoch-versioned [`Snapshot`]s
//! (`cole_core::Snapshot`) published at block boundaries: a reader pins the
//! snapshot it opened with one `Arc` clone under a brief ring read lock and
//! then queries it without ever touching the engine — writers never block
//! readers. The single writer serializes on its own mutex, applies one
//! block, and atomically publishes the next snapshot. A short ring of
//! recent snapshots additionally answers *point-in-time* authenticated
//! queries at retained historical heights.

use std::collections::VecDeque;
use std::sync::Arc;

use cole_core::{Engine, MergeStrategy, Metrics, Snapshot};
use cole_primitives::{
    Address, AuthenticatedStorage, Digest, ProvenanceResult, Result, StateValue,
};

use crate::sync::{lock_recover, read_recover, write_recover, Mutex, RwLock};

/// How many block snapshots a [`SharedEngine`] retains by default; see
/// [`SharedEngine::with_retention`].
pub const DEFAULT_SNAPSHOT_RETENTION: usize = 8;

/// An immutable point-in-time view served to readers: the `(height,
/// Hstate)` head plus `&self` queries whose proofs verify against exactly
/// that `Hstate`. Implemented by [`cole_core::Snapshot`] for both engines.
pub trait ReadSnapshot: Send + Sync + 'static {
    /// The block height this snapshot was taken at.
    fn height(&self) -> u64;

    /// The state root every proof from this snapshot verifies against.
    fn hstate(&self) -> Digest;

    /// Latest value of `addr` in this snapshot.
    ///
    /// # Errors
    ///
    /// Returns an error if a storage read fails.
    fn get(&self, addr: Address) -> Result<Option<StateValue>>;

    /// Provenance query with integrity proof over this snapshot.
    ///
    /// # Errors
    ///
    /// Returns an error if a storage read fails.
    fn prov_query(&self, addr: Address, blk_lower: u64, blk_upper: u64)
        -> Result<ProvenanceResult>;
}

impl ReadSnapshot for Snapshot {
    fn height(&self) -> u64 {
        Snapshot::height(self)
    }

    fn hstate(&self) -> Digest {
        Snapshot::hstate(self)
    }

    fn get(&self, addr: Address) -> Result<Option<StateValue>> {
        Snapshot::get(self, addr)
    }

    fn prov_query(
        &self,
        addr: Address,
        blk_lower: u64,
        blk_upper: u64,
    ) -> Result<ProvenanceResult> {
        Snapshot::prov_query(self, addr, blk_lower, blk_upper)
    }
}

/// The engine surface a server needs: the [`AuthenticatedStorage`] contract
/// plus batched writes, snapshot publication, deferred-run reclamation, and
/// the shared metrics handle. Implemented by every [`Engine`], i.e. by
/// [`Cole`](cole_core::Cole) and [`AsyncCole`](cole_core::AsyncCole).
pub trait ServableEngine: AuthenticatedStorage + Send + 'static {
    /// The immutable snapshot type readers pin.
    type Snapshot: ReadSnapshot;

    /// Applies one block's writes in a single call (partitioned across the
    /// memtable shards by the engine).
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying storage fails.
    fn put_batch(&mut self, entries: &[(Address, StateValue)]) -> Result<()>;

    /// An immutable snapshot of the current state, stamped with `height`.
    fn snapshot_at(&mut self, height: u64) -> Self::Snapshot;

    /// Deletes the files of retired runs whose last snapshot pin dropped.
    ///
    /// # Errors
    ///
    /// Returns an error if a file deletion fails (retryable; the runs stay
    /// queued).
    fn reclaim(&mut self) -> Result<()> {
        Ok(())
    }

    /// The live counters this engine reports into.
    fn metrics_handle(&self) -> Arc<Metrics>;
}

impl<S: MergeStrategy> ServableEngine for Engine<S> {
    type Snapshot = Snapshot;

    fn put_batch(&mut self, entries: &[(Address, StateValue)]) -> Result<()> {
        Engine::put_batch(self, entries)
    }

    fn snapshot_at(&mut self, height: u64) -> Snapshot {
        Engine::snapshot_at(self, height)
    }

    fn reclaim(&mut self) -> Result<()> {
        Engine::reclaim(self)
    }

    fn metrics_handle(&self) -> Arc<Metrics> {
        Engine::metrics_handle(self)
    }
}

/// The single-writer side: the engine and the last *published* height.
struct WriterState<E> {
    engine: E,
    height: u64,
}

/// The reader side: recent snapshots, oldest front, head back. Never empty.
struct SnapshotRing<S> {
    snapshots: VecDeque<Arc<S>>,
    retain: usize,
}

/// One engine shared by many server connections, MVCC style.
///
/// Reads (`get`, `prov_query`, `head`) clone an `Arc` of the head
/// [`Snapshot`](ReadSnapshot) under a brief `ring` read lock and never
/// acquire the `writer` mutex, so a block being applied — flushes, merges
/// and all — cannot block them; `Metrics::reads_blocked_on_writer` stays
/// zero by construction and the bench gate asserts it. The writer applies
/// exactly one block under its mutex and publishes the next snapshot
/// atomically, so every read observes a `(height, Hstate)` pair consistent
/// with the state it queried — which is what makes the served provenance
/// proofs verifiable client-side.
///
/// The ring keeps the last `retain` block snapshots; [`prov_query_at`]
/// serves point-in-time authenticated queries at any retained height.
/// Superseded runs pinned by retained snapshots are reclaimed by the
/// engine once the last pin drops (see `cole_core::Snapshot`).
///
/// Lock order: `writer` (rank 10) before `ring` (rank 15), per `LOCKS.md`.
///
/// [`prov_query_at`]: SharedEngine::prov_query_at
pub struct SharedEngine<E: ServableEngine> {
    writer: Mutex<WriterState<E>>,
    ring: RwLock<SnapshotRing<E::Snapshot>>,
    metrics: Arc<Metrics>,
    name: &'static str,
}

impl<E: ServableEngine> SharedEngine<E> {
    /// Wraps an opened engine with the default snapshot retention; the
    /// initial head is the engine's recovered block height and state root.
    pub fn new(engine: E) -> Self {
        Self::with_retention(engine, DEFAULT_SNAPSHOT_RETENTION)
    }

    /// Wraps an opened engine, retaining up to `retain` block snapshots
    /// (clamped to at least 1 — the head itself) for point-in-time queries.
    pub fn with_retention(mut engine: E, retain: usize) -> Self {
        let height = engine.current_block_height();
        let snap = Arc::new(engine.snapshot_at(height));
        let metrics = engine.metrics_handle();
        let name = engine.name();
        Metrics::inc(&metrics.snapshots_published);
        let mut snapshots = VecDeque::new();
        snapshots.push_back(snap);
        SharedEngine {
            writer: Mutex::new(WriterState { engine, height }),
            ring: RwLock::new(SnapshotRing {
                snapshots,
                retain: retain.max(1),
            }),
            metrics,
            name,
        }
    }

    /// Pins the head snapshot: one `Arc` clone under a brief ring read
    /// lock. The pinned snapshot keeps serving (and its runs stay on disk)
    /// until the last clone drops, no matter how many blocks, flushes or
    /// merges land in the meantime.
    pub fn head_snapshot(&self) -> Arc<E::Snapshot> {
        Arc::clone(
            read_recover(&self.ring)
                .snapshots
                .back()
                .expect("ring is never empty"),
        )
    }

    /// Pins the retained snapshot at exactly `height`, or `None` if that
    /// height is no longer (or not yet) retained.
    pub fn snapshot_at_height(&self, height: u64) -> Option<Arc<E::Snapshot>> {
        let ring = read_recover(&self.ring);
        ring.snapshots
            .iter()
            .rev()
            .find(|s| s.height() == height)
            .map(Arc::clone)
    }

    /// The retained height range `(oldest, head)`.
    #[must_use]
    pub fn retained_heights(&self) -> (u64, u64) {
        let ring = read_recover(&self.ring);
        let oldest = ring
            .snapshots
            .front()
            .expect("ring is never empty")
            .height();
        let head = ring.snapshots.back().expect("ring is never empty").height();
        (oldest, head)
    }

    /// Publishes `snap` as the new head. A snapshot at the head's height
    /// *replaces* the head (re-publication after a failed apply); a higher
    /// one is appended and the oldest beyond the retention window retired.
    fn publish(&self, snap: Arc<E::Snapshot>) {
        let mut ring = write_recover(&self.ring);
        Metrics::inc(&self.metrics.snapshots_published);
        if ring.snapshots.back().map(|s| s.height()) == Some(snap.height()) {
            *ring.snapshots.back_mut().expect("ring is never empty") = snap;
            Metrics::inc(&self.metrics.snapshots_retired);
        } else {
            ring.snapshots.push_back(snap);
        }
        while ring.snapshots.len() > ring.retain {
            ring.snapshots.pop_front();
            Metrics::inc(&self.metrics.snapshots_retired);
        }
    }

    /// Latest value of `addr` at the head snapshot.
    ///
    /// # Errors
    ///
    /// Returns an error if the engine fails.
    pub fn get(&self, addr: Address) -> Result<Option<StateValue>> {
        self.head_snapshot().get(addr)
    }

    /// Provenance query plus the head it is consistent with — the proof in
    /// the result verifies against exactly the returned `Hstate`.
    ///
    /// # Errors
    ///
    /// Returns an error if the engine fails.
    pub fn prov_query(
        &self,
        addr: Address,
        blk_lower: u64,
        blk_upper: u64,
    ) -> Result<(u64, Digest, ProvenanceResult)> {
        let snap = self.head_snapshot();
        let result = snap.prov_query(addr, blk_lower, blk_upper)?;
        Ok((snap.height(), snap.hstate(), result))
    }

    /// Point-in-time provenance query against the retained snapshot at
    /// `height`: the proof verifies against the `Hstate` that was published
    /// for exactly that block. Returns `Ok(None)` when `height` is no
    /// longer retained (the serve layer maps that to a `NotRetained` wire
    /// error).
    ///
    /// # Errors
    ///
    /// Returns an error if the engine fails.
    pub fn prov_query_at(
        &self,
        addr: Address,
        blk_lower: u64,
        blk_upper: u64,
        height: u64,
    ) -> Result<Option<(u64, Digest, ProvenanceResult)>> {
        let Some(snap) = self.snapshot_at_height(height) else {
            return Ok(None);
        };
        Metrics::inc(&self.metrics.historical_provs);
        let result = snap.prov_query(addr, blk_lower, blk_upper)?;
        Ok(Some((snap.height(), snap.hstate(), result)))
    }

    /// The last finalized `(height, Hstate)`.
    #[must_use]
    pub fn head(&self) -> (u64, Digest) {
        let snap = self.head_snapshot();
        (snap.height(), snap.hstate())
    }

    /// Applies `entries` as the next block: begins `height + 1`, inserts
    /// the batch, finalizes, and publishes the new head snapshot. An empty
    /// batch finalizes an empty block (a heartbeat), which still advances
    /// the chain and re-publishes `Hstate`.
    ///
    /// A failed apply (e.g. a transient fault inside `finalize_block`)
    /// leaves the head *height* unchanged, and a *retry* of the same block
    /// is safe: the engine is already positioned at `height` from the
    /// failed attempt, so `begin_block` is skipped, and re-inserted entries
    /// coalesce on their compound keys `⟨addr, height⟩`.
    ///
    /// The head snapshot is re-published even on failure: the batch may
    /// already sit in the memtable when `finalize_block` errors, and a
    /// concurrent `prov_query` builds its proof against the actual engine
    /// state — serving the stale pre-block snapshot alongside it would make
    /// a perfectly honest proof fail client-side verification.
    ///
    /// # Errors
    ///
    /// Returns an error if the engine fails.
    pub fn apply_block(&self, entries: &[(Address, StateValue)]) -> Result<(u64, Digest)> {
        let mut writer = lock_recover(&self.writer);
        // Retired-run files whose last snapshot pin dropped since the
        // previous block are deleted up front, before anything of this
        // block is applied, so a deletion failure cannot follow a commit.
        writer.engine.reclaim()?;
        let height = writer.height + 1;
        let applied = (|| {
            if writer.engine.current_block_height() < height {
                writer.engine.begin_block(height)?;
            }
            writer.engine.put_batch(entries)?;
            writer.engine.finalize_block()
        })();
        match applied {
            Ok(hstate) => {
                writer.height = height;
                let snap = writer.engine.snapshot_at(height);
                debug_assert_eq!(snap.hstate(), hstate, "snapshot root drifted from Hstate");
                self.publish(Arc::new(snap));
                Ok((height, hstate))
            }
            Err(e) => {
                let published = writer.height;
                let snap = writer.engine.snapshot_at(published);
                self.publish(Arc::new(snap));
                Err(e)
            }
        }
    }

    /// Engine name ("COLE", "COLE*").
    #[must_use]
    pub fn engine_name(&self) -> &'static str {
        self.name
    }

    /// The engine's live counters (shared with the serve loop, which
    /// accounts wire requests here).
    #[must_use]
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Flushes buffered state and waits for background work; used before a
    /// clean process exit so a reopen recovers everything. Also reclaims
    /// any unpinned retired runs (runs still pinned by retained snapshots
    /// are left for orphan GC on reopen).
    ///
    /// # Errors
    ///
    /// Returns an error if the engine fails.
    pub fn flush(&self) -> Result<()> {
        let mut writer = lock_recover(&self.writer);
        writer.engine.reclaim()?;
        writer.engine.flush()
    }

    /// Unwraps the engine (tests and single-owner shutdown paths). The
    /// snapshot ring is dropped first, releasing every run pin the handle
    /// itself held.
    #[must_use]
    pub fn into_engine(self) -> E {
        let SharedEngine { writer, ring, .. } = self;
        drop(ring);
        writer
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cole_core::{Cole, ColeConfig};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cole-shared-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn apply_block_publishes_consistent_head() {
        let dir = tmpdir("head");
        let engine = Cole::open(&dir, ColeConfig::default().with_memtable_capacity(64)).unwrap();
        let shared = SharedEngine::new(engine);
        assert_eq!(shared.head().0, 0);

        let addr = Address::from_low_u64(5);
        let mut last = (0, Digest::ZERO);
        for blk in 1..=20u64 {
            last = shared
                .apply_block(&[(addr, StateValue::from_u64(blk * 7))])
                .unwrap();
            assert_eq!(last.0, blk);
        }
        assert_eq!(shared.head(), last);
        assert_eq!(shared.get(addr).unwrap(), Some(StateValue::from_u64(140)));

        // The proof served with a query verifies against the head served
        // with it.
        let (height, hstate, result) = shared.prov_query(addr, 3, 9).unwrap();
        assert_eq!(height, 20);
        let engine = shared.into_engine();
        assert!(engine.verify_prov(addr, 3, 9, &result, hstate).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_readers_share_the_engine() {
        let dir = tmpdir("readers");
        let engine = Cole::open(&dir, ColeConfig::default().with_memtable_capacity(64)).unwrap();
        let shared = Arc::new(SharedEngine::new(engine));
        for blk in 1..=30u64 {
            let writes: Vec<_> = (0..8)
                .map(|i| {
                    (
                        Address::from_low_u64(i),
                        StateValue::from_u64(blk * 100 + i),
                    )
                })
                .collect();
            shared.apply_block(&writes).unwrap();
        }
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for i in 0..8u64 {
                        let got = shared.get(Address::from_low_u64(i)).unwrap();
                        assert_eq!(got, Some(StateValue::from_u64(3000 + i)), "thread {t}");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn historical_queries_hit_retained_snapshots() {
        let dir = tmpdir("historical");
        let engine = Cole::open(&dir, ColeConfig::default().with_memtable_capacity(64)).unwrap();
        let shared = SharedEngine::with_retention(engine, 8);
        let addr = Address::from_low_u64(3);
        let mut hstates = vec![Digest::ZERO]; // index = height
        for blk in 1..=20u64 {
            let (_, hstate) = shared
                .apply_block(&[(addr, StateValue::from_u64(blk))])
                .unwrap();
            hstates.push(hstate);
        }
        assert_eq!(shared.retained_heights(), (13, 20));

        // A retained historical height serves a proof against *its own*
        // published Hstate, not the head's.
        let (height, hstate, result) = shared.prov_query_at(addr, 1, 20, 15).unwrap().unwrap();
        assert_eq!(height, 15);
        assert_eq!(hstate, hstates[15]);
        // Blocks 16..=20 do not exist at height 15.
        assert_eq!(result.values.len(), 15);

        // Evicted and future heights are not retained.
        assert!(shared.prov_query_at(addr, 1, 5, 5).unwrap().is_none());
        assert!(shared.prov_query_at(addr, 1, 5, 21).unwrap().is_none());

        let engine = shared.into_engine();
        assert!(engine.verify_prov(addr, 1, 20, &result, hstate).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pinned_snapshot_survives_flushes_and_merges() {
        let dir = tmpdir("pinned");
        // Tiny memtable so 30 blocks × 8 writes cross several flushes and
        // merges while the pin is held.
        let engine = Cole::open(&dir, ColeConfig::default().with_memtable_capacity(16)).unwrap();
        let shared = SharedEngine::with_retention(engine, 2);
        let addr = Address::from_low_u64(1);
        shared
            .apply_block(&[(addr, StateValue::from_u64(1))])
            .unwrap();
        let pinned = shared.head_snapshot();
        let pinned_hstate = pinned.hstate();

        for blk in 2..=30u64 {
            let writes: Vec<_> = (0..8)
                .map(|i| (Address::from_low_u64(i), StateValue::from_u64(blk * 10 + i)))
                .collect();
            shared.apply_block(&writes).unwrap();
        }

        // The pinned snapshot still serves its original state, verified.
        assert_eq!(pinned.get(addr).unwrap(), Some(StateValue::from_u64(1)));
        let result = ReadSnapshot::prov_query(&*pinned, addr, 1, 1).unwrap();
        drop(pinned);

        let mut engine = shared.into_engine();
        engine.reclaim().unwrap();
        assert_eq!(engine.retired_runs(), 0);
        assert!(engine
            .verify_prov(addr, 1, 1, &result, pinned_hstate)
            .unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }
}
