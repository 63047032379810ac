//! Per-layer timings: direct calls into each substrate crate's public
//! functions, on a fixture cut from the workload's own data (its versions in
//! key order, as the sorted run a flush would build from them).
//!
//! A timed figure is the median over batches of the mean cost per call in a
//! batch, so one descheduling does not set it. These are measurements of one
//! layer in isolation — what a layer *can* cost — not shares of a request;
//! the shares come from the spans of the traced pass.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cole_bloom::BloomFilter;
use cole_core::{build_run_from_entries, merge_runs, ColeConfig, Metrics, RunContext};
use cole_hash::{hash_entry, hash_pair, sha256};
use cole_learned::{EpsilonTrainer, IndexFileBuilder, LearnedIndexFile};
use cole_mbtree::MbTree;
use cole_mht::MerkleFileBuilder;
use cole_primitives::{Address, CompoundKey, Digest, Result, StateValue, ENTRY_LEN, PAGE_SIZE};
use cole_storage::{PageCache, PageFile, PageIoStats, WalSyncPolicy, WriteAheadLog};

use crate::report::Report;
use crate::stats::median;

/// Entries in the fixture run (64k, or every version the workload wrote).
pub const FIXTURE_ENTRIES: usize = 65_536;
/// Batches each timing is the median of.
const BATCHES: usize = 15;

/// Median over [`BATCHES`] batches of the mean nanoseconds per call, where a
/// batch makes `calls` calls to `f(i)`.
fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_call = Vec::with_capacity(BATCHES);
    for batch in 0..BATCHES {
        let started = Instant::now();
        for i in 0..calls {
            f(batch * calls + i);
        }
        per_call.push(started.elapsed().as_nanos() as f64 / calls as f64);
    }
    median(&per_call)
}

type Entry = (CompoundKey, StateValue);
/// One block as the WAL records it: its height and keyed entries.
pub type WalPayload = (u64, Vec<Entry>);

/// Times every substrate layer on `entries` (sorted, unique keys) and books
/// the results. `wal_blocks` are the workload's own block payloads.
pub fn measure(
    report: &mut Report,
    dir: &Path,
    config: &ColeConfig,
    entries: &[Entry],
    wal_blocks: &[WalPayload],
) -> Result<()> {
    std::fs::create_dir_all(dir)?;
    let n = entries.len();
    assert!(
        n >= 1024,
        "fixture too small to time anything on ({n} entries)"
    );
    let addrs: Vec<Address> = entries.iter().map(|(k, _)| k.address()).collect();

    hash(report, entries);
    bloom(report, config, &addrs);
    learned(report, dir, config, entries)?;
    mht(report, dir, config, entries)?;
    mbtree(report, config, entries);
    storage(report, dir, wal_blocks)?;
    core_runs(report, dir, config, entries)
}

fn hash(report: &mut Report, entries: &[Entry]) {
    let buf = vec![0xabu8; 64 * 1024];
    let ns = ns_per_call(16, |_| {
        black_box(sha256(black_box(&buf)));
    });
    report.set("hash.sha256_mb_per_s", buf.len() as f64 / ns * 1e3);
    report.set(
        "hash.entry_ns",
        ns_per_call(4096, |i| {
            let (k, v) = &entries[i % entries.len()];
            black_box(hash_entry(k, v));
        }),
    );
    let digests: Vec<Digest> = entries
        .iter()
        .take(1024)
        .map(|(k, v)| hash_entry(k, v))
        .collect();
    report.set(
        "hash.pair_ns",
        ns_per_call(4096, |i| {
            let (l, r) = (&digests[i % 1024], &digests[(i + 1) % 1024]);
            black_box(hash_pair(l, r));
        }),
    );
}

fn bloom(report: &mut Report, config: &ColeConfig, addrs: &[Address]) {
    // Sized like the fixture run's own filter would be.
    let mut filter = BloomFilter::with_capacity(addrs.len(), config.bloom_fpr);
    let started = Instant::now();
    for addr in addrs {
        filter.insert(addr);
    }
    report.set(
        "bloom.insert_ns",
        started.elapsed().as_nanos() as f64 / addrs.len() as f64,
    );
    report.set(
        "bloom.contains_ns",
        ns_per_call(4096, |i| {
            // Half present, half absent (an absent probe stops early).
            let addr = if i % 2 == 0 {
                addrs[(i * 31) % addrs.len()]
            } else {
                Address::from_low_u64(0xb100_0000_0000 + i as u64)
            };
            black_box(filter.contains(&addr));
        }),
    );
    report.set(
        "bloom.digest_us",
        ns_per_call(4, |_| {
            black_box(filter.digest());
        }) / 1e3,
    );
    report.set("bloom.filter_bytes", filter.to_bytes().len() as f64);
}

fn learned(report: &mut Report, dir: &Path, config: &ColeConfig, entries: &[Entry]) -> Result<()> {
    let started = Instant::now();
    let mut trainer = EpsilonTrainer::new(config.epsilon);
    let mut models = 0u64;
    for (pos, (key, _)) in entries.iter().enumerate() {
        models += u64::from(trainer.push(*key, pos as u64).is_some());
    }
    models += u64::from(trainer.finish().is_some());
    black_box(models);
    report.set(
        "learned.train_ns_per_key",
        started.elapsed().as_nanos() as f64 / entries.len() as f64,
    );

    let path = dir.join("fixture.idx");
    let mut builder = IndexFileBuilder::create(&path, config.epsilon)?;
    for (pos, (key, _)) in entries.iter().enumerate() {
        builder.push(*key, pos as u64)?;
    }
    let built = builder.finish()?;
    let (layer_counts, epsilon) = (built.layer_counts().to_vec(), built.epsilon());
    drop(built);
    let mut index = LearnedIndexFile::open(&path, layer_counts, epsilon)?;
    let stats = Arc::new(PageIoStats::new());
    index.attach_cache(Arc::new(PageCache::new(4096)));
    index.attach_stats(Arc::clone(&stats));
    let probe = |i: usize| CompoundKey::latest(entries[(i * 7919) % entries.len()].0.address());
    for i in 0..entries.len() / 16 {
        index.find_bottom_model(&probe(i))?;
    }
    let before = stats.logical_reads();
    let ns = ns_per_call(2048, |i| {
        black_box(index.find_bottom_model(&probe(i)).ok());
    });
    report.set("learned.lookup_ns", ns);
    report.set(
        "learned.pages_per_lookup",
        (stats.logical_reads() - before) as f64 / (BATCHES * 2048) as f64,
    );
    Ok(())
}

fn mht(report: &mut Report, dir: &Path, config: &ColeConfig, entries: &[Entry]) -> Result<()> {
    let leaves: Vec<Digest> = entries.iter().map(|(k, v)| hash_entry(k, v)).collect();
    let started = Instant::now();
    let mut builder = MerkleFileBuilder::create(
        dir.join("fixture.mht"),
        leaves.len() as u64,
        config.mht_fanout,
    )?;
    for leaf in &leaves {
        builder.push_leaf(*leaf)?;
    }
    let mut file = builder.finish()?;
    report.set(
        "mht.build_ns_per_leaf",
        started.elapsed().as_nanos() as f64 / leaves.len() as f64,
    );
    file.attach_cache(Arc::new(PageCache::new(4096)));
    // Windows of four leaves: about what a 64-block provenance window
    // brackets in one run.
    let window = |i: usize| {
        let first = (i * 7919) % (leaves.len() - 4);
        (first as u64, first as u64 + 3)
    };
    for i in 0..2048 {
        let (first, last) = window(i);
        file.range_proof(first, last)?;
    }
    report.set(
        "mht.range_proof_us",
        ns_per_call(512, |i| {
            let (first, last) = window(i);
            black_box(file.range_proof(first, last).ok());
        }) / 1e3,
    );
    let proofs: Vec<_> = (0..512)
        .map(|i| {
            let (first, last) = window(i);
            file.range_proof(first, last)
                .map(|p| (p, &leaves[first as usize..=last as usize]))
        })
        .collect::<Result<_>>()?;
    report.set(
        "mht.compute_root_us",
        ns_per_call(512, |i| {
            let (proof, covered) = &proofs[i % proofs.len()];
            black_box(proof.compute_root(covered).ok());
        }) / 1e3,
    );
    report.set(
        "mht.proof_bytes",
        proofs.iter().map(|(p, _)| p.size_bytes()).sum::<usize>() as f64 / proofs.len() as f64,
    );
    Ok(())
}

fn mbtree(report: &mut Report, config: &ColeConfig, entries: &[Entry]) {
    // A memtable at capacity, then one 100-insert block and its root hash —
    // what `put_batch` + `finalize_block` cost on the in-memory level.
    // Resident and incoming keys interleave, so the inserts land all over
    // the tree as a block's writes do.
    let pool = &entries[..(2 * config.memtable_capacity).min(entries.len())];
    let resident: Vec<Entry> = pool.iter().step_by(2).copied().collect();
    let incoming: Vec<Entry> = (0..pool.len() / 2)
        .map(|i| pool[((i * 7919) % (pool.len() / 2)) * 2 + 1])
        .collect();
    let mut base = MbTree::with_fanout(config.mbtree_fanout);
    for (k, v) in &resident {
        base.insert(*k, *v);
    }
    base.root_hash();
    let (mut insert_ns, mut root_us) = (Vec::new(), Vec::new());
    for block in incoming.chunks(100).take(BATCHES) {
        let mut tree = base.clone();
        let started = Instant::now();
        for (k, v) in block {
            tree.insert(*k, *v);
        }
        insert_ns.push(started.elapsed().as_nanos() as f64 / block.len() as f64);
        let started = Instant::now();
        black_box(tree.root_hash());
        root_us.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    report.set("mbtree.insert_ns", median(&insert_ns));
    report.set("mbtree.root_hash_us", median(&root_us));
    let addr_of = |i: usize| resident[(i * 31) % resident.len()].0.address();
    report.set(
        "mbtree.get_latest_ns",
        ns_per_call(4096, |i| {
            black_box(base.get_latest(addr_of(i)));
        }),
    );
    report.set(
        "mbtree.range_with_proof_us",
        ns_per_call(512, |i| {
            let addr = addr_of(i);
            black_box(
                base.range_with_proof(CompoundKey::new(addr, 0), CompoundKey::new(addr, u64::MAX)),
            );
        }) / 1e3,
    );
}

fn storage(report: &mut Report, dir: &Path, wal_blocks: &[WalPayload]) -> Result<()> {
    const PAGES: u64 = 2048;
    let mut file = PageFile::create(dir.join("fixture.pages"))?;
    for i in 0..PAGES {
        file.append_page(&vec![i as u8; PAGE_SIZE])?;
    }
    // Hits: a cache that holds the whole file, warmed. Misses: a cache of 64
    // pages walked with a stride, so every read goes to the file (that is,
    // in a sandbox, to the operating system's cache) and evicts.
    file.attach_cache(Arc::new(PageCache::new(PAGES as usize * 2)));
    for i in 0..PAGES {
        file.read_page(i)?;
    }
    report.set(
        "storage.page_read_hit_ns",
        ns_per_call(4096, |i| {
            black_box(file.read_page((i as u64 * 37) % PAGES).ok());
        }),
    );
    file.attach_cache(Arc::new(PageCache::new(64)));
    report.set(
        "storage.page_read_miss_us",
        ns_per_call(1024, |i| {
            black_box(file.read_page((i as u64 * 37) % PAGES).ok());
        }) / 1e3,
    );

    // The workload's own block payloads under the workload family's policy.
    let (mut wal, _) = WriteAheadLog::open(
        dir.join("fixture.wal"),
        WalSyncPolicy::GroupCommit {
            max_blocks: 8,
            max_bytes: 1 << 20,
        },
    )?;
    let mut append_us = Vec::with_capacity(wal_blocks.len());
    let mut user_bytes = 0u64;
    for (height, entries) in wal_blocks {
        let started = Instant::now();
        wal.append_block(*height, entries)?;
        append_us.push(started.elapsed().as_nanos() as f64 / 1e3);
        user_bytes += (entries.len() * ENTRY_LEN) as u64;
    }
    report.set("storage.wal_append_us", median(&append_us));
    report.set(
        "storage.wal_bytes_per_user_byte",
        wal.len_bytes() as f64 / user_bytes.max(1) as f64,
    );
    Ok(())
}

fn core_runs(
    report: &mut Report,
    dir: &Path,
    config: &ColeConfig,
    entries: &[Entry],
) -> Result<()> {
    let ctx = || {
        RunContext::new(
            Some(Arc::new(PageCache::new(4096))),
            Arc::new(Metrics::new()),
        )
    };
    let started = Instant::now();
    let run = build_run_from_entries(dir, 1, entries, config, ctx())?;
    report.set(
        "core.run_build_ns_per_entry",
        started.elapsed().as_nanos() as f64 / entries.len() as f64,
    );
    run.delete_files()?;

    // Four runs holding every fourth entry each, merged back into one.
    let inputs = (0..4usize)
        .map(|k| {
            let part: Vec<Entry> = entries.iter().skip(k).step_by(4).copied().collect();
            build_run_from_entries(dir, 10 + k as u64, &part, config, ctx()).map(Arc::new)
        })
        .collect::<Result<Vec<_>>>()?;
    let started = Instant::now();
    let merged = merge_runs(dir, 20, &inputs, config, ctx())?;
    report.set(
        "core.merge_ns_per_entry",
        started.elapsed().as_nanos() as f64 / merged.num_entries() as f64,
    );
    merged.delete_files()?;
    for run in inputs {
        run.delete_files()?;
    }
    Ok(())
}
