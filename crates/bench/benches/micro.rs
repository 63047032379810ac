//! Criterion micro-benchmarks of COLE's substrates: hashing, learned-model
//! training and lookup, streaming Merkle-file construction and MB-tree
//! operations. These are the building blocks whose costs appear in the
//! complexity analysis (Table 1).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use cole_hash::{hash_entry, hash_pair, portable, sha256};
use cole_learned::{EpsilonTrainer, IndexFileBuilder};
use cole_mbtree::MbTree;
use cole_mht::MerkleFileBuilder;
use cole_primitives::{index_epsilon, Address, CompoundKey, Digest, StateValue, PAGE_SIZE};
use cole_storage::{PageCache, PageFile};

fn keys(n: u64) -> Vec<CompoundKey> {
    (0..n)
        .map(|i| CompoundKey::new(Address::from_low_u64(i / 4), i % 4))
        .collect()
}

/// Both SHA-256 kernels side by side: the portable scalar rounds first, then
/// — unless they are the same thing on this CPU — whatever
/// `cole_hash::backend()` selected. Inputs are the sizes the engine hashes:
/// one block, a page, a large buffer, a disclosed Bloom filter of the size
/// the benchmark's runs carry (78 KB, hashed as the verifier hashes it —
/// straight from the received bytes), a Merkle leaf and an MHT node pair.
fn bench_hash_kernels(c: &mut Criterion) {
    type Kernel = (
        &'static str,
        fn(&[u8]) -> Digest,
        fn(&CompoundKey, &StateValue) -> Digest,
        fn(&Digest, &Digest) -> Digest,
    );
    let mut kernels: Vec<Kernel> = vec![(
        "scalar",
        portable::sha256,
        portable::hash_entry,
        portable::hash_pair,
    )];
    if cole_hash::backend() != "scalar" {
        kernels.push((cole_hash::backend(), sha256, hash_entry, hash_pair));
    }

    let mut group = c.benchmark_group("sha256");
    for (label, size) in [
        ("64B", 64usize),
        ("4KiB", 4 << 10),
        ("64KiB", 64 << 10),
        ("bloom_digest_78KB", 78 << 10),
    ] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        for (kernel, digest, ..) in &kernels {
            group.bench_function(format!("{label}/{kernel}"), |b| b.iter(|| digest(&data)));
        }
    }
    group.finish();

    let key = CompoundKey::new(Address::from_low_u64(1), 2);
    let value = StateValue::from_u64(3);
    let (left, right) = (sha256(b"left"), sha256(b"right"));
    for (kernel, _, entry, pair) in &kernels {
        c.bench_function(format!("hash_entry/{kernel}"), |b| {
            b.iter(|| entry(&key, &value))
        });
        c.bench_function(format!("hash_pair/{kernel}"), |b| {
            b.iter(|| pair(&left, &right))
        });
    }
}

fn bench_model_training(c: &mut Criterion) {
    let keys = keys(20_000);
    let mut group = c.benchmark_group("learned_index");
    group.sample_size(20);
    group.bench_function("train_20k_keys", |b| {
        b.iter(|| {
            let mut trainer = EpsilonTrainer::new(index_epsilon());
            let mut models = 0usize;
            for (pos, key) in keys.iter().enumerate() {
                if trainer.push(*key, pos as u64).is_some() {
                    models += 1;
                }
            }
            models + usize::from(trainer.finish().is_some())
        })
    });
    group.bench_function("build_index_file_20k_keys", |b| {
        let dir = std::env::temp_dir().join(format!("cole-bench-idx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut counter = 0u64;
        b.iter_batched(
            || {
                counter += 1;
                dir.join(format!("idx-{counter}.bin"))
            },
            |path| {
                let mut builder = IndexFileBuilder::create(&path, index_epsilon()).unwrap();
                for (pos, key) in keys.iter().enumerate() {
                    builder.push(*key, pos as u64).unwrap();
                }
                builder.finish().unwrap()
            },
            BatchSize::PerIteration,
        );
        std::fs::remove_dir_all(&dir).ok();
    });
    group.finish();
}

fn bench_merkle_file(c: &mut Criterion) {
    let leaves: Vec<_> = (0..20_000u64).map(|i| sha256(&i.to_be_bytes())).collect();
    let mut group = c.benchmark_group("merkle_file");
    group.sample_size(20);
    for fanout in [2u64, 4, 16] {
        group.bench_function(format!("stream_20k_leaves_m{fanout}"), |b| {
            let dir = std::env::temp_dir().join(format!("cole-bench-mht-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let mut counter = 0u64;
            b.iter_batched(
                || {
                    counter += 1;
                    dir.join(format!("mht-{fanout}-{counter}.bin"))
                },
                |path| {
                    let mut builder =
                        MerkleFileBuilder::create(&path, leaves.len() as u64, fanout).unwrap();
                    for leaf in &leaves {
                        builder.push_leaf(*leaf).unwrap();
                    }
                    builder.finish().unwrap().root()
                },
                BatchSize::PerIteration,
            );
            std::fs::remove_dir_all(&dir).ok();
        });
    }
    group.finish();
}

fn bench_mbtree(c: &mut Criterion) {
    let mut group = c.benchmark_group("mbtree");
    group.sample_size(30);
    group.bench_function("insert_10k_and_root_hash", |b| {
        b.iter(|| {
            let mut tree = MbTree::new();
            for i in 0..10_000u64 {
                tree.insert(
                    CompoundKey::new(Address::from_low_u64(i % 500), i / 500),
                    StateValue::from_u64(i),
                );
            }
            tree.root_hash()
        })
    });
    let mut tree = MbTree::new();
    for i in 0..10_000u64 {
        tree.insert(
            CompoundKey::new(Address::from_low_u64(i % 500), i / 500),
            StateValue::from_u64(i),
        );
    }
    group.bench_function("get_latest", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % 500;
            tree.get_latest(Address::from_low_u64(i))
        })
    });
    group.finish();
}

fn bench_page_reads(c: &mut Criterion) {
    // Cached vs uncached page reads: the cost a point lookup pays per value
    // page with and without the shared page cache.
    let dir = std::env::temp_dir().join(format!("cole-bench-pages-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pages = 256u64;
    let build = |name: &str| {
        let mut f = PageFile::create(dir.join(name)).unwrap();
        for i in 0..pages {
            f.append_page(&vec![i as u8; PAGE_SIZE]).unwrap();
        }
        f
    };
    let uncached = build("uncached.bin");
    let mut cached = build("cached.bin");
    let cache = std::sync::Arc::new(PageCache::new(pages as usize * 2));
    cached.attach_cache(std::sync::Arc::clone(&cache));
    // Warm the cache so the cached series measures the hit path.
    for i in 0..pages {
        cached.read_page(i).unwrap();
    }

    let mut group = c.benchmark_group("page_read");
    group.throughput(Throughput::Bytes(PAGE_SIZE as u64));
    let mut i = 0u64;
    group.bench_function("uncached_4k", |b| {
        b.iter(|| {
            i = (i + 37) % pages;
            uncached.read_page(i).unwrap()
        })
    });
    let mut j = 0u64;
    group.bench_function("cached_4k", |b| {
        b.iter(|| {
            j = (j + 37) % pages;
            cached.read_page(j).unwrap()
        })
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_read_path(c: &mut Criterion) {
    // Same fixtures (and the same per-entry baseline) as the
    // `exp_ablation --studies read-path` study that emits
    // BENCH_read_path.json — see cole_bench::{DescentFixture, ScanFixture}.
    use cole_bench::{DescentFixture, ScanFixture};

    let dir = std::env::temp_dir().join(format!("cole-bench-readpath-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let descent = DescentFixture::build(&dir, 20_000).unwrap();
    let scan = ScanFixture::build(&dir, 20_000).unwrap();

    let mut group = c.benchmark_group("read_path");
    let mut i = 0u64;
    group.bench_function("index_descent_cold", |b| {
        b.iter(|| {
            i += 7919;
            descent.cold.find_bottom_model(&descent.probe(i)).unwrap()
        })
    });
    let mut j = 0u64;
    group.bench_function("index_descent_cached", |b| {
        b.iter(|| {
            j += 7919;
            descent.cached.find_bottom_model(&descent.probe(j)).unwrap()
        })
    });
    group.bench_function("scan_512_entries_per_entry", |b| {
        b.iter(|| scan.scan_per_entry().unwrap())
    });
    group.bench_function("scan_512_entries_page_granular", |b| {
        b.iter(|| scan.scan_page_granular().unwrap())
    });
    group.finish();
    drop((descent, scan));
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_write_path(c: &mut Criterion) {
    // The three layers of the sharded write path, isolated: WAL append cost
    // per sync policy (what group commit amortizes), batch insertion into 1
    // vs. 4 memtable write heads, and inline vs. pipelined run builds. The
    // same ingest loop drives `exp_ablation --studies write-path`, which
    // emits the committed BENCH_write_path.json.
    use cole_core::{ColeConfig, RunBuilder, RunContext, ShardedMemtable};
    use cole_storage::{WalSyncPolicy, WriteAheadLog};

    let dir = std::env::temp_dir().join(format!("cole-bench-writepath-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let mut group = c.benchmark_group("write_path");
    group.sample_size(20);

    // One block's WAL record: 50 entries, appended under each sync policy.
    let entries: Vec<(CompoundKey, StateValue)> = (0..50u64)
        .map(|i| {
            (
                CompoundKey::new(Address::from_low_u64(i), 1),
                StateValue::from_u64(i),
            )
        })
        .collect();
    for (name, policy) in [
        ("wal_append_block_always", WalSyncPolicy::Always),
        (
            "wal_append_block_group8",
            WalSyncPolicy::GroupCommit {
                max_blocks: 8,
                max_bytes: 64 << 20,
            },
        ),
        ("wal_append_block_os_buffered", WalSyncPolicy::OsBuffered),
    ] {
        let (mut wal, _) = WriteAheadLog::open(dir.join(format!("{name}.log")), policy).unwrap();
        let mut height = 0u64;
        group.bench_function(name, |b| {
            b.iter(|| {
                height += 1;
                wal.append_block(height, &entries).unwrap();
            })
        });
    }

    // A 2000-write block batch-inserted into 1 vs. 4 write heads (plus the
    // per-shard root recomputation `finalize_block` pays).
    let block: Vec<(CompoundKey, StateValue)> = (0..2000u64)
        .map(|i| {
            (
                CompoundKey::new(Address::from_low_u64(i % 911), i / 911 + 1),
                StateValue::from_u64(i),
            )
        })
        .collect();
    for shards in [1usize, 4] {
        group.bench_function(format!("memtable_block_insert_{shards}shard"), |b| {
            b.iter(|| {
                let mut mem = ShardedMemtable::new(shards, 32);
                mem.insert_batch(&block);
                mem.root_hashes()
            })
        });
    }

    // Building a 20k-entry run with the index/Merkle work inline vs. on
    // worker threads (identical output files; only wall-clock differs).
    let run_entries: Vec<(CompoundKey, StateValue)> = (0..20_000u64)
        .map(|i| {
            (
                CompoundKey::new(Address::from_low_u64(i / 4), i % 4 + 1),
                StateValue::from_u64(i),
            )
        })
        .collect();
    for (name, parallel) in [
        ("run_build_20k_inline", false),
        ("run_build_20k_piped", true),
    ] {
        let config = ColeConfig::default().with_parallel_run_builds(parallel);
        let build_dir = dir.join(name);
        std::fs::create_dir_all(&build_dir).unwrap();
        let mut id = 0u64;
        group.sample_size(10);
        group.bench_function(name, |b| {
            b.iter(|| {
                id += 1;
                let mut builder = RunBuilder::create(
                    &build_dir,
                    id,
                    run_entries.len() as u64,
                    &config,
                    RunContext::default(),
                )
                .unwrap();
                for (k, v) in &run_entries {
                    builder.push(*k, *v).unwrap();
                }
                let run = builder.finish().unwrap();
                run.delete_files().unwrap();
                run
            })
        });
    }
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(
    benches,
    bench_hash_kernels,
    bench_model_training,
    bench_merkle_file,
    bench_mbtree,
    bench_page_reads,
    bench_read_path,
    bench_write_path
);
criterion_main!(benches);
