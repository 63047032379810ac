//! Versioned, checksummed, fsynced manifest shared by [`Cole`] and
//! [`AsyncCole`] (RocksDB-style `MANIFEST-NNNNNN` + `CURRENT`).
//!
//! # Durability contract
//!
//! The manifest is the **commit point** of the write path. A run belongs to
//! the store exactly when the manifest named by `CURRENT` references it; a
//! crash at any point leaves one of two observable states — the previous
//! manifest or the new one — never a mixture:
//!
//! 1. Every run file referenced by a manifest is fully written **and
//!    fsynced** before the manifest is committed
//!    ([`RunBuilder::finish`](crate::RunBuilder::finish) syncs the value,
//!    index, Merkle, Bloom and meta files and the directory).
//! 2. A commit writes `MANIFEST-NNNNNN.tmp`, fsyncs it, renames it to
//!    `MANIFEST-NNNNNN`, fsyncs the directory, then flips `CURRENT` with the
//!    same tmp → fsync → rename → fsync-dir dance. Readers only ever follow
//!    `CURRENT`, so a half-written manifest is unreachable.
//! 3. Superseded run files are deleted only **after** the manifest that
//!    drops them is durable. A crash in between leaves orphan files, which
//!    [`gc_orphan_runs`] removes on the next open.
//!
//! The manifest body is plain text with a trailing SHA-256 checksum line;
//! any truncation, bit flip, duplicate or gapped level line is rejected as
//! [`ColeError::InvalidEncoding`] ("corrupt manifest"), which recovery
//! distinguishes from a structurally valid manifest whose referenced run
//! files are missing ([`ColeError::NotFound`]).
//!
//! [`Cole`]: crate::Cole
//! [`AsyncCole`]: crate::AsyncCole

use std::collections::HashSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cole_hash::sha256;
use cole_primitives::{ColeError, CompoundKey, Result, StateValue};
use cole_storage::{replay_wal, sync_dir, write_durable, WalBlock, WalSyncPolicy, WriteAheadLog};

use crate::failpoint::KillPoints;
use crate::metrics::Metrics;
use crate::run::{Run, RunContext, RunId};

const HEADER: &str = "cole-manifest v1";
const CURRENT: &str = "CURRENT";
const LEGACY: &str = "MANIFEST";

/// The complete durable state of an engine, as recorded by one manifest.
///
/// `levels[0]` is on-disk level 1; run ids are ordered newest first, exactly
/// as the engine searches them. For [`AsyncCole`](crate::AsyncCole) a
/// level's list is its writing group followed by its merging group — both
/// groups are live data until the merge's commit checkpoint publishes a
/// manifest without the merged runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ManifestState {
    /// Height of the last block reflected in the manifest.
    pub block: u64,
    /// Height through which every finalized block is durable in the
    /// manifest's runs. WAL records at or below this height are stale
    /// (their data was flushed) and are skipped on replay — the guard for
    /// the crash window between a manifest commit and the WAL
    /// truncation/retirement that follows it.
    pub flushed_block: u64,
    /// Next run id to allocate (ids are never reused).
    pub next_run: RunId,
    /// Run ids per on-disk level, newest first; `levels[0]` is level 1.
    pub levels: Vec<Vec<RunId>>,
}

impl ManifestState {
    /// Every run id referenced by any level.
    #[must_use]
    pub fn live_runs(&self) -> HashSet<RunId> {
        self.levels.iter().flatten().copied().collect()
    }

    fn encode(&self) -> String {
        let mut body = format!(
            "{HEADER}\nblock {}\nflushed {}\nnext_run {}\n",
            self.block, self.flushed_block, self.next_run
        );
        for (i, level) in self.levels.iter().enumerate() {
            body.push_str(&format!("level {}", i + 1));
            for id in level {
                body.push_str(&format!(" {id}"));
            }
            body.push('\n');
        }
        let digest = sha256(body.as_bytes());
        body.push_str(&format!("checksum {digest}\n"));
        body
    }

    fn decode(text: &str) -> Result<Self> {
        let corrupt = |why: &str| ColeError::InvalidEncoding(format!("corrupt manifest: {why}"));
        let Some((body, tail)) = text.rsplit_once("checksum ") else {
            return Err(corrupt("missing checksum line"));
        };
        let expected = format!("{}", sha256(body.as_bytes()));
        if tail.trim_end() != expected {
            return Err(corrupt("checksum mismatch"));
        }
        let mut lines = body.lines();
        if lines.next() != Some(HEADER) {
            return Err(corrupt("bad header"));
        }
        let mut block = None;
        let mut flushed_block = None;
        let mut next_run = None;
        let mut declared: Vec<(usize, Vec<RunId>)> = Vec::new();
        for line in lines {
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("block") => {
                    let value = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| corrupt("bad block line"))?;
                    if block.replace(value).is_some() {
                        return Err(corrupt("duplicate block line"));
                    }
                }
                Some("flushed") => {
                    let value = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| corrupt("bad flushed line"))?;
                    if flushed_block.replace(value).is_some() {
                        return Err(corrupt("duplicate flushed line"));
                    }
                }
                Some("next_run") => {
                    let value = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| corrupt("bad next_run line"))?;
                    if next_run.replace(value).is_some() {
                        return Err(corrupt("duplicate next_run line"));
                    }
                }
                Some("level") => {
                    let level_no: usize = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| corrupt("bad level number"))?;
                    if level_no == 0 {
                        return Err(corrupt("level numbers are 1-based"));
                    }
                    let mut runs = Vec::new();
                    for id in parts {
                        runs.push(
                            id.parse::<RunId>()
                                .map_err(|_| corrupt("bad run id in level line"))?,
                        );
                    }
                    if declared.iter().any(|(no, _)| *no == level_no) {
                        return Err(corrupt("duplicate level line"));
                    }
                    declared.push((level_no, runs));
                }
                Some(other) => {
                    return Err(corrupt(&format!("unknown directive `{other}`")));
                }
                None => {}
            }
        }
        // Place levels by their declared index; every level in 1..=N must be
        // declared exactly once (duplicates were caught above, gaps here).
        let mut levels = vec![None; declared.len()];
        for (no, runs) in declared {
            let slot = levels
                .get_mut(no - 1)
                .ok_or_else(|| corrupt("gapped level numbering"))?;
            *slot = Some(runs);
        }
        let levels = levels
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| corrupt("gapped level numbering"))?;
        Ok(ManifestState {
            block: block.ok_or_else(|| corrupt("missing block line"))?,
            // Legacy manifests predate the WAL and have no flushed line;
            // zero makes every WAL record (there are none) replayable.
            flushed_block: flushed_block.unwrap_or(0),
            next_run: next_run.ok_or_else(|| corrupt("missing next_run line"))?,
            levels,
        })
    }

    /// Parses the pre-versioning `MANIFEST` format (no header, no checksum)
    /// written by earlier releases, with the same strict level numbering.
    /// The legacy body is a strict subset of the v1 body, so it is wrapped
    /// in a synthetic header + checksum and fed to the strict parser.
    fn decode_legacy(text: &str) -> Result<Self> {
        let body = format!("{HEADER}\n{text}");
        let digest = sha256(body.as_bytes());
        let mut state = ManifestState::decode(&format!("{body}checksum {digest}\n"))?;
        // The legacy recovery contract resumed the chain at `block` (the
        // old engine only recorded it when flushing), so that height — not
        // zero — is what the migrated store must treat as durably flushed;
        // resuming lower would make the node re-replay blocks whose
        // compound keys already live in the runs.
        state.flushed_block = state.block;
        Ok(state)
    }
}

fn manifest_name(seq: u64) -> String {
    format!("MANIFEST-{seq:06}")
}

fn parse_manifest_seq(name: &str) -> Option<u64> {
    name.strip_prefix("MANIFEST-")?.parse().ok()
}

/// The highest `MANIFEST-NNNNNN` sequence number present in `dir`, if any.
fn highest_manifest_seq(dir: &Path) -> Option<u64> {
    let entries = std::fs::read_dir(dir).ok()?;
    entries
        .flatten()
        .filter_map(|e| parse_manifest_seq(e.file_name().to_str()?))
        .max()
}

/// Writer/reader of an engine's manifest chain in one directory.
///
/// [`Manifest::open`] recovers the committed [`ManifestState`] (if any) and
/// [`Manifest::commit`] durably publishes a new one; see the module docs for
/// the crash-atomicity protocol.
#[derive(Debug)]
pub struct Manifest {
    dir: PathBuf,
    next_seq: u64,
    kill: Option<Arc<KillPoints>>,
    /// Recoverable fault injection consulted at the head of every commit
    /// (site `manifest:commit`), if any.
    faults: Option<Arc<cole_storage::FaultPlan>>,
}

impl Manifest {
    /// Opens the manifest chain in `dir` and reads the committed state.
    ///
    /// Returns `None` for a directory with no committed manifest (a fresh
    /// store). A legacy single-file `MANIFEST` is migrated to the versioned
    /// format in place. Stale manifest files and temporaries left by a
    /// crashed commit are removed.
    ///
    /// # Errors
    ///
    /// Returns [`ColeError::InvalidEncoding`] if `CURRENT` or the manifest
    /// it names is unreadable or fails validation ("corrupt manifest") — it
    /// never silently falls back to an older state.
    pub fn open(
        dir: &Path,
        kill: Option<Arc<KillPoints>>,
    ) -> Result<(Self, Option<ManifestState>)> {
        std::fs::create_dir_all(dir)?;
        let current_path = dir.join(CURRENT);
        let mut manifest = Manifest {
            dir: dir.to_path_buf(),
            next_seq: 1,
            kill,
            faults: None,
        };
        let state = if current_path.exists() {
            let name = std::fs::read_to_string(&current_path)?;
            let name = name.trim();
            let seq = parse_manifest_seq(name).ok_or_else(|| {
                ColeError::InvalidEncoding(format!(
                    "corrupt manifest: CURRENT names `{name}`, expected MANIFEST-NNNNNN"
                ))
            })?;
            let path = dir.join(name);
            let text = std::fs::read_to_string(&path).map_err(|e| {
                ColeError::InvalidEncoding(format!(
                    "corrupt manifest: CURRENT names missing {}: {e}",
                    path.display()
                ))
            })?;
            let state = ManifestState::decode(&text)?;
            manifest.next_seq = seq + 1;
            manifest.prune_stale(seq);
            // A crash between a legacy migration's commit and the legacy
            // file's removal can leave the superseded MANIFEST behind;
            // drop it so a damaged chain can never resurrect it.
            std::fs::remove_file(dir.join(LEGACY)).ok();
            Some(state)
        } else if let Some(seq) = highest_manifest_seq(dir) {
            // No CURRENT, but a complete manifest exists: either the very
            // first commit crashed between the manifest rename and the
            // CURRENT flip, or CURRENT was lost. Both repair the same
            // non-destructive way — adopt the highest checksum-valid
            // manifest and recreate CURRENT. (A manifest file is complete
            // by construction: its contents are fsynced before the
            // rename.) Treating the directory as fresh instead would send
            // every committed run to the orphan GC.
            let name = manifest_name(seq);
            let text = std::fs::read_to_string(dir.join(&name))?;
            let state = ManifestState::decode(&text)?;
            write_durable(dir.join("CURRENT.tmp"), format!("{name}\n").as_bytes())?;
            manifest.kill("manifest:repair_current_written")?;
            std::fs::rename(dir.join("CURRENT.tmp"), &current_path)?;
            manifest.kill("manifest:repair_current_renamed")?;
            sync_dir(dir)?;
            eprintln!("cole manifest: CURRENT was missing; repaired to point at {name}");
            manifest.next_seq = seq + 1;
            manifest.prune_stale(seq);
            std::fs::remove_file(dir.join(LEGACY)).ok();
            Some(state)
        } else if dir.join(LEGACY).exists() {
            let text = std::fs::read_to_string(dir.join(LEGACY))?;
            let state = ManifestState::decode_legacy(&text)?;
            // Migrate: commit under the versioned protocol, then drop the
            // legacy file so future opens take the checksummed path.
            manifest.commit(&state)?;
            manifest.kill("manifest:legacy_migrated")?;
            std::fs::remove_file(dir.join(LEGACY))?;
            sync_dir(dir)?;
            Some(state)
        } else {
            manifest.prune_stale(0);
            None
        };
        Ok((manifest, state))
    }

    /// The directory this manifest chain lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Consults `faults` (site `manifest:commit`) at the head of every
    /// [`commit`](Self::commit), before any disk mutation, so a chaos
    /// harness can inject transient commit failures. The previously
    /// committed manifest stays intact and a later commit retries the same
    /// sequence number.
    pub fn attach_faults(&mut self, faults: Arc<cole_storage::FaultPlan>) {
        self.faults = Some(faults);
    }

    /// Durably publishes `state` as the new committed manifest:
    /// tmp → fsync → rename → fsync dir, then the same for `CURRENT`, then
    /// best-effort pruning of superseded manifest files.
    ///
    /// # Errors
    ///
    /// Returns an error if any write, sync, or rename fails; the previously
    /// committed manifest remains intact in that case.
    pub fn commit(&mut self, state: &ManifestState) -> Result<()> {
        if let Some(faults) = &self.faults {
            // Before any disk mutation: an injected commit failure leaves
            // the previous manifest (and this one's sequence number) intact.
            faults.check("manifest:commit")?;
        }
        let seq = self.next_seq;
        let name = manifest_name(seq);
        let path = self.dir.join(&name);
        let tmp = self.dir.join(format!("{name}.tmp"));
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(state.encode().as_bytes())?;
            self.kill("manifest:tmp_written")?;
            file.sync_data()?;
        }
        self.kill("manifest:tmp_synced")?;
        std::fs::rename(&tmp, &path)?;
        self.kill("manifest:renamed")?;
        sync_dir(&self.dir)?;
        self.kill("manifest:dir_synced")?;

        let current_tmp = self.dir.join("CURRENT.tmp");
        write_durable(&current_tmp, format!("{name}\n").as_bytes())?;
        self.kill("manifest:current_written")?;
        std::fs::rename(&current_tmp, self.dir.join(CURRENT))?;
        sync_dir(&self.dir)?;
        self.next_seq = seq + 1;
        self.kill("manifest:committed")?;
        self.prune_stale(seq);
        Ok(())
    }

    /// Best-effort removal of manifest files other than `MANIFEST-{keep}`
    /// and of temporaries left behind by a crashed commit.
    fn prune_stale(&self, keep: u64) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale_manifest = parse_manifest_seq(name).is_some_and(|seq| seq != keep);
            let stale_tmp =
                name.ends_with(".tmp") && (name.starts_with("MANIFEST-") || name == "CURRENT.tmp");
            if stale_manifest || stale_tmp {
                std::fs::remove_file(entry.path()).ok();
            }
        }
    }

    fn kill(&self, name: &str) -> Result<()> {
        match &self.kill {
            Some(kp) => kp.hit(name),
            None => Ok(()),
        }
    }
}

/// Deletes every run file in `dir` whose id is not in `live`, returning the
/// ids that were collected.
///
/// Call only after a successful [`Manifest::open`]: orphans are runs whose
/// flush or merge crashed before the manifest commit, or superseded runs
/// whose deletion crashed after it — both are unreferenced by the committed
/// manifest and therefore invisible to queries. The second category
/// includes the MVCC deferred-delete backlog: runs retired under a live
/// snapshot pin are unlinked only by a later reclaim pass, so a crash
/// while they wait (or mid-reclaim) leaves their files behind, and this GC
/// is the backstop that collects them.
///
/// # Errors
///
/// Returns an error if the directory cannot be scanned or a file cannot be
/// removed.
pub fn gc_orphan_runs(dir: &Path, live: &HashSet<RunId>) -> Result<Vec<RunId>> {
    let mut orphans: Vec<RunId> = Vec::new();
    let mut doomed: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(id) = parse_run_file_id(name) else {
            continue;
        };
        if !live.contains(&id) {
            if !orphans.contains(&id) {
                orphans.push(id);
            }
            doomed.push(entry.path());
        }
    }
    for path in doomed {
        std::fs::remove_file(&path)?;
    }
    orphans.sort_unstable();
    Ok(orphans)
}

/// Shared recovery step: garbage-collects orphan runs, records the count in
/// `metrics`, and logs the deletion (`label` distinguishes the engines).
pub(crate) fn gc_and_log(
    dir: &Path,
    label: &str,
    live: &HashSet<RunId>,
    metrics: &Metrics,
) -> Result<()> {
    let orphans = gc_orphan_runs(dir, live)?;
    if !orphans.is_empty() {
        Metrics::add(&metrics.orphan_runs_deleted, orphans.len() as u64);
        eprintln!(
            "{label}: deleted {} orphan run(s) not referenced by the committed manifest: {orphans:?}",
            orphans.len()
        );
    }
    Ok(())
}

/// Shared recovery step: applies replayed WAL blocks on top of the manifest
/// state. Records at or below `flushed_block` are stale copies of data
/// already durable in runs (a crash hit the window between a flush's
/// manifest commit and the WAL truncation/retirement that follows it);
/// replaying them would duplicate compound keys, so only their height is
/// taken. `current_block` advances to the highest replayed height — never
/// past it, so that with the WAL disabled (or for lost unfinalized tails)
/// the caller can still replay its external transaction log from
/// `flushed_block + 1` without tripping the must-advance check.
fn replay_wal_blocks<F: FnMut(CompoundKey, StateValue)>(
    blocks: Vec<WalBlock>,
    flushed_block: u64,
    current_block: &mut u64,
    mut insert: F,
) {
    for block in blocks {
        if block.height > flushed_block {
            for (key, value) in block.entries {
                insert(key, value);
            }
        }
        *current_block = (*current_block).max(block.height);
    }
}

/// Shared recovery step: recovers the write-ahead log, whichever engine
/// wrote it.
///
/// Scans `dir` for every WAL file — the legacy single `wal.log` and the
/// segmented `wal-NNNNNN.log` layout — replays them oldest-first through
/// [`replay_wal_blocks`] (so the stale-record guard and `current_block`
/// semantics apply), then *compacts*: the live records are re-logged into a
/// fresh numbered segment and every old file is deleted. Compaction keeps
/// restarts from accumulating segments, and scanning both layouts keeps a
/// directory written by one engine fully recoverable by the other. A crash
/// mid-compaction is safe: replaying both old and new files re-inserts
/// identical entries into the keyed memtable.
///
/// Returns the fresh active log and the next unused segment sequence
/// number.
pub(crate) fn recover_wal<F: FnMut(CompoundKey, StateValue)>(
    dir: &Path,
    policy: WalSyncPolicy,
    flushed_block: u64,
    current_block: &mut u64,
    insert: F,
) -> Result<(WriteAheadLog, u64)> {
    let mut old_files: Vec<PathBuf> = Vec::new();
    let legacy = dir.join("wal.log");
    if legacy.exists() {
        old_files.push(legacy);
    }
    let mut segments: Vec<(u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(seq) = name
            .to_str()
            .and_then(|n| n.strip_prefix("wal-")?.strip_suffix(".log"))
            .and_then(|s| s.parse().ok())
        {
            segments.push((seq, entry.path()));
        }
    }
    segments.sort_unstable();
    let next_seq = segments.last().map_or(1, |(seq, _)| seq + 1);
    old_files.extend(segments.into_iter().map(|(_, p)| p));

    let mut blocks: Vec<WalBlock> = Vec::new();
    for path in &old_files {
        blocks.extend(replay_wal(path)?);
    }
    let (mut active, replayed) =
        WriteAheadLog::open(dir.join(format!("wal-{next_seq:06}.log")), policy)?;
    debug_assert!(replayed.is_empty(), "fresh segments start empty");
    let live: Vec<WalBlock> = blocks
        .iter()
        .filter(|b| b.height > flushed_block)
        .cloned()
        .collect();
    active.append_blocks(&live)?;
    replay_wal_blocks(blocks, flushed_block, current_block, insert);
    for path in old_files {
        remove_wal_file(&path)?;
    }
    Ok((active, next_seq + 1))
}

/// Deletes a WAL file whose records are durable elsewhere; one that is
/// already gone (a crash or failure interrupted an earlier deletion) is
/// fine.
pub(crate) fn remove_wal_file(path: &Path) -> Result<()> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// Shared recovery step: opens every run referenced by the manifest state,
/// level by level, in search order.
pub(crate) fn open_levels(
    dir: &Path,
    state: &ManifestState,
    ctx: &RunContext,
) -> Result<Vec<Vec<Arc<Run>>>> {
    let mut levels = Vec::with_capacity(state.levels.len());
    for (i, level) in state.levels.iter().enumerate() {
        let mut runs = Vec::with_capacity(level.len());
        for &id in level {
            runs.push(Arc::new(open_manifest_run(dir, id, i + 1, ctx.clone())?));
        }
        levels.push(runs);
    }
    Ok(levels)
}

/// Opens a run referenced by the committed manifest, annotating failures
/// with the level that references it so recovery errors distinguish
/// "referenced run missing" ([`ColeError::NotFound`]) from "corrupt
/// manifest" ([`ColeError::InvalidEncoding`] raised by [`Manifest::open`]).
pub(crate) fn open_manifest_run(
    dir: &Path,
    id: RunId,
    level: usize,
    ctx: RunContext,
) -> Result<Run> {
    Run::open(dir, id, ctx).map_err(|e| match e {
        ColeError::NotFound(msg) => ColeError::NotFound(format!(
            "manifest references run {id} in level {level}, but it cannot be opened: {msg}"
        )),
        other => other,
    })
}

/// Parses `run_00000042.val` → `Some(42)`; non-run files → `None`.
fn parse_run_file_id(name: &str) -> Option<RunId> {
    let rest = name.strip_prefix("run_")?;
    let (id, ext) = rest.split_once('.')?;
    if !matches!(ext, "val" | "idx" | "mrk" | "blm" | "meta") {
        return None;
    }
    id.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cole-manifest-test-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn state(block: u64, levels: &[&[RunId]]) -> ManifestState {
        ManifestState {
            block,
            flushed_block: block / 2,
            next_run: 100,
            levels: levels.iter().map(|l| l.to_vec()).collect(),
        }
    }

    #[test]
    fn commit_and_reopen_roundtrip() {
        let dir = tmpdir("roundtrip");
        let s1 = state(5, &[&[2, 1], &[]]);
        {
            let (mut m, recovered) = Manifest::open(&dir, None).unwrap();
            assert!(recovered.is_none());
            m.commit(&s1).unwrap();
        }
        let (mut m, recovered) = Manifest::open(&dir, None).unwrap();
        assert_eq!(recovered, Some(s1));
        // A second commit supersedes the first and prunes its file.
        let s2 = state(9, &[&[4], &[3]]);
        m.commit(&s2).unwrap();
        let (_, recovered) = Manifest::open(&dir, None).unwrap();
        assert_eq!(recovered, Some(s2));
        let manifests: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.unwrap().file_name().into_string().ok())
            .filter(|n| n.starts_with("MANIFEST-"))
            .collect();
        assert_eq!(manifests, vec!["MANIFEST-000002".to_string()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_levels_and_empty_state_roundtrip() {
        let dir = tmpdir("empty");
        let s = ManifestState::default();
        let (mut m, _) = Manifest::open(&dir, None).unwrap();
        m.commit(&s).unwrap();
        let (_, recovered) = Manifest::open(&dir, None).unwrap();
        assert_eq!(recovered, Some(s));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_manifests_are_rejected_not_misread() {
        let dir = tmpdir("corrupt");
        let (mut m, _) = Manifest::open(&dir, None).unwrap();
        m.commit(&state(3, &[&[1]])).unwrap();
        let path = dir.join("MANIFEST-000001");
        let good = std::fs::read_to_string(&path).unwrap();

        // Truncated tail.
        std::fs::write(&path, &good[..good.len() - 10]).unwrap();
        let err = Manifest::open(&dir, None).unwrap_err();
        assert!(matches!(err, ColeError::InvalidEncoding(_)), "{err}");
        assert!(err.to_string().contains("corrupt manifest"), "{err}");

        // Bit flip in the body.
        let flipped = good.replace("block 3", "block 7");
        std::fs::write(&path, flipped).unwrap();
        let err = Manifest::open(&dir, None).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // Garbage file.
        std::fs::write(&path, b"\x00\xffgarbage").unwrap();
        assert!(Manifest::open(&dir, None).is_err());

        // CURRENT pointing at a missing manifest.
        std::fs::write(&path, good).unwrap();
        std::fs::write(dir.join(CURRENT), "MANIFEST-000042\n").unwrap();
        let err = Manifest::open(&dir, None).unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_and_gapped_levels_are_rejected() {
        let dir = tmpdir("levels");
        let (mut m, _) = Manifest::open(&dir, None).unwrap();
        m.commit(&state(1, &[&[1], &[2]])).unwrap();
        let path = dir.join("MANIFEST-000001");
        let good = std::fs::read_to_string(&path).unwrap();

        let reencode = |body: &str| {
            let digest = sha256(body.as_bytes());
            format!("{body}checksum {digest}\n")
        };
        let body = good.rsplit_once("checksum ").unwrap().0;

        // Duplicate level number.
        let dup = reencode(&body.replace("level 2 2", "level 1 2"));
        std::fs::write(&path, dup).unwrap();
        let err = Manifest::open(&dir, None).unwrap_err();
        assert!(err.to_string().contains("duplicate level"), "{err}");

        // Gapped level numbering (level 2 declared as level 3).
        let gap = reencode(&body.replace("level 2 2", "level 3 2"));
        std::fs::write(&path, gap).unwrap();
        let err = Manifest::open(&dir, None).unwrap_err();
        assert!(err.to_string().contains("gapped level"), "{err}");

        // Out-of-order declarations with no gap are fine.
        let swapped = reencode(&body.replace("level 1 1\nlevel 2 2", "level 2 2\nlevel 1 1"));
        std::fs::write(&path, swapped).unwrap();
        let (_, recovered) = Manifest::open(&dir, None).unwrap();
        assert_eq!(recovered.unwrap().levels, vec![vec![1], vec![2]]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_manifest_is_migrated() {
        let dir = tmpdir("legacy");
        std::fs::write(
            dir.join(LEGACY),
            "block 12\nnext_run 7\nlevel 1 3 2\nlevel 2 1\n",
        )
        .unwrap();
        let (_, recovered) = Manifest::open(&dir, None).unwrap();
        let state = recovered.unwrap();
        assert_eq!(state.block, 12);
        assert_eq!(
            state.flushed_block, 12,
            "legacy stores resumed at `block`; migration must preserve that"
        );
        assert_eq!(state.next_run, 7);
        assert_eq!(state.levels, vec![vec![3, 2], vec![1]]);
        assert!(!dir.join(LEGACY).exists(), "legacy file removed");
        assert!(dir.join(CURRENT).exists(), "versioned chain created");
        // The migrated chain reopens under the checksummed protocol.
        let (_, again) = Manifest::open(&dir, None).unwrap();
        assert_eq!(again, Some(state));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_between_manifest_and_current_preserves_old_state() {
        let dir = tmpdir("crash");
        let kp = Arc::new(KillPoints::new());
        let s1 = state(1, &[&[1]]);
        let s2 = state(2, &[&[2]]);
        let (mut m, _) = Manifest::open(&dir, Some(Arc::clone(&kp))).unwrap();
        m.commit(&s1).unwrap();
        kp.arm_at("manifest:dir_synced", 0);
        assert!(m.commit(&s2).is_err(), "injected crash");
        kp.disarm();
        // MANIFEST-000002 exists but CURRENT still names 000001.
        let (_, recovered) = Manifest::open(&dir, None).unwrap();
        assert_eq!(recovered, Some(s1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_current_is_repaired_from_the_highest_manifest() {
        // Losing CURRENT (damaged copy of the data dir, or a first commit
        // crashed between the manifest rename and the CURRENT flip) must
        // never make a populated directory look fresh — that would send
        // every committed run to the orphan GC.
        let dir = tmpdir("repair");
        let s2 = state(9, &[&[4], &[3]]);
        {
            let (mut m, _) = Manifest::open(&dir, None).unwrap();
            m.commit(&state(5, &[&[2, 1]])).unwrap();
            m.commit(&s2).unwrap();
        }
        std::fs::remove_file(dir.join(CURRENT)).unwrap();
        let (_, recovered) = Manifest::open(&dir, None).unwrap();
        assert_eq!(recovered, Some(s2.clone()), "highest manifest adopted");
        assert!(dir.join(CURRENT).exists(), "CURRENT recreated");
        // The repair is durable: a plain reopen sees the same state.
        let (mut m, recovered) = Manifest::open(&dir, None).unwrap();
        assert_eq!(recovered, Some(s2));
        // And the chain continues normally from there.
        let s3 = state(11, &[&[5]]);
        m.commit(&s3).unwrap();
        let (_, recovered) = Manifest::open(&dir, None).unwrap();
        assert_eq!(recovered, Some(s3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphan_gc_deletes_only_unreferenced_runs() {
        let dir = tmpdir("gc");
        for id in [1u64, 2, 3] {
            for ext in ["val", "idx", "mrk", "blm", "meta"] {
                std::fs::write(dir.join(format!("run_{id:08}.{ext}")), b"x").unwrap();
            }
        }
        std::fs::write(dir.join("wal-000001.log"), b"keep").unwrap();
        let live: HashSet<RunId> = [2u64].into_iter().collect();
        let deleted = gc_orphan_runs(&dir, &live).unwrap();
        assert_eq!(deleted, vec![1, 3]);
        assert!(dir.join("run_00000002.val").exists());
        assert!(!dir.join("run_00000001.val").exists());
        assert!(!dir.join("run_00000003.meta").exists());
        assert!(dir.join("wal-000001.log").exists(), "non-run files kept");
        std::fs::remove_dir_all(&dir).ok();
    }
}
