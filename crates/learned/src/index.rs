//! Index file construction and lookup (Algorithms 3 and 7).

use std::path::Path;
use std::sync::Arc;

use cole_primitives::{
    models_per_page, ColeError, CompoundKey, KeyNum, Result, MODEL_LEN, PAGE_SIZE,
};
use cole_storage::{PageCache, PageFile, PageIoStats, PageWriter, SortedRecords};

use crate::model::{Model, MODEL_KMIN_OFFSET};
use crate::plr::EpsilonTrainer;

/// Streaming builder of a run's index file (Algorithm 3).
///
/// The caller pushes the run's compound keys together with their positions in
/// the value file, in key order. Bottom-layer models are learned and written
/// immediately; when the stream ends, upper layers are built recursively from
/// the `(kmin, model position)` pairs of the layer below until a layer fits
/// into a single disk page. Each layer starts on a page boundary (a minor
/// layout refinement over the paper that keeps the layer arithmetic exact;
/// it costs at most one partially filled page per layer).
#[derive(Debug)]
pub struct IndexFileBuilder {
    writer: PageWriter,
    epsilon: u64,
    trainer: EpsilonTrainer,
    /// `(kmin, index-within-layer)` of every bottom-layer model, used to
    /// train the next layer.
    bottom_models: Vec<(CompoundKey, u64)>,
    bottom_count: u64,
    entries_pushed: u64,
}

impl IndexFileBuilder {
    /// Creates a builder writing to `path` with error bound `epsilon`.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be created or `epsilon` is zero.
    pub fn create<P: AsRef<Path>>(path: P, epsilon: u64) -> Result<Self> {
        if epsilon == 0 {
            return Err(ColeError::InvalidConfig("epsilon must be positive".into()));
        }
        Ok(IndexFileBuilder {
            writer: PageWriter::create(path, MODEL_LEN)?,
            epsilon,
            trainer: EpsilonTrainer::new(epsilon),
            bottom_models: Vec::new(),
            bottom_count: 0,
            entries_pushed: 0,
        })
    }

    /// Pushes the next `(key, position-in-value-file)` pair. Keys must arrive
    /// in strictly increasing order.
    ///
    /// # Errors
    ///
    /// Returns an error if a model write fails.
    pub fn push(&mut self, key: CompoundKey, position: u64) -> Result<()> {
        self.entries_pushed += 1;
        if let Some(model) = self.trainer.push(key, position) {
            self.write_bottom_model(model)?;
        }
        Ok(())
    }

    /// Finishes the bottom layer, builds the upper layers and returns the
    /// readable index.
    ///
    /// # Errors
    ///
    /// Returns an error if the stream was empty or a write fails.
    pub fn finish(mut self) -> Result<LearnedIndexFile> {
        if let Some(model) = self.trainer.finish() {
            self.write_bottom_model(model)?;
        }
        if self.bottom_count == 0 {
            return Err(ColeError::InvalidState(
                "cannot build an index file over an empty stream".into(),
            ));
        }
        let mut layer_counts = vec![self.bottom_count];
        let mut current: Vec<(CompoundKey, u64)> = std::mem::take(&mut self.bottom_models);
        // Recursively build upper layers until one fits in a single page.
        while current.len() > models_per_page() {
            self.writer.pad_page()?;
            let mut trainer = EpsilonTrainer::new(self.epsilon);
            let mut next: Vec<(CompoundKey, u64)> = Vec::new();
            let mut written = 0u64;
            for &(kmin, pos) in &current {
                if let Some(model) = trainer.push(kmin, pos) {
                    next.push((model.kmin(), written));
                    self.writer.push(&model.to_bytes())?;
                    written += 1;
                }
            }
            if let Some(model) = trainer.finish() {
                next.push((model.kmin(), written));
                self.writer.push(&model.to_bytes())?;
                written += 1;
            }
            layer_counts.push(written);
            current = next;
        }
        let file = self.writer.finish()?;
        Ok(LearnedIndexFile {
            file,
            layer_counts,
            epsilon: self.epsilon,
        })
    }

    fn write_bottom_model(&mut self, model: Model) -> Result<()> {
        self.bottom_models.push((model.kmin(), self.bottom_count));
        self.bottom_count += 1;
        self.writer.push(&model.to_bytes())
    }
}

/// A readable learned index file plus the per-layer model counts needed to
/// navigate it.
///
/// Lookups descend from the top layer (which fits in one page) to the bottom
/// layer. At each layer, the covering model of the layer above predicts the
/// position of the covering model of this layer; at most two pages of the
/// layer are read thanks to the ε bound (Algorithm 7, `QueryModel`). The
/// in-place page search steps on to a neighbouring page whenever the
/// predicted one cannot hold the answer, so the lookup stays correct even if
/// floating-point rounding pushed a prediction slightly past the guarantee.
#[derive(Debug)]
pub struct LearnedIndexFile {
    file: PageFile,
    /// Number of models in each layer, bottom layer first.
    layer_counts: Vec<u64>,
    epsilon: u64,
}

impl LearnedIndexFile {
    /// Opens an index file given the per-layer model counts recorded in the
    /// run's metadata.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be opened or the counts are
    /// inconsistent with its size.
    pub fn open<P: AsRef<Path>>(path: P, layer_counts: Vec<u64>, epsilon: u64) -> Result<Self> {
        if layer_counts.is_empty() || layer_counts.contains(&0) {
            return Err(ColeError::InvalidConfig(
                "layer counts must be non-empty and positive".into(),
            ));
        }
        let file = PageFile::open(path)?;
        let needed_pages: u64 = layer_counts
            .iter()
            .map(|&c| c.div_ceil(models_per_page() as u64))
            .sum();
        if file.num_pages() < needed_pages {
            return Err(ColeError::InvalidState(format!(
                "index file has {} pages but layer counts need {needed_pages}",
                file.num_pages()
            )));
        }
        Ok(LearnedIndexFile {
            file,
            layer_counts,
            epsilon,
        })
    }

    /// Routes this index file's page reads through `cache`, so repeated
    /// descents are served from memory instead of the filesystem.
    pub fn attach_cache(&mut self, cache: Arc<PageCache>) {
        self.file.attach_cache(cache);
    }

    /// Reports this index file's page reads into `stats` (the engine's
    /// `index_pages_read` / per-kind hit-miss counters).
    pub fn attach_stats(&mut self, stats: Arc<PageIoStats>) {
        self.file.attach_stats(stats);
    }

    /// Consults `faults` before every disk read of this index file (site
    /// `page:read`; see `cole_storage::FaultPlan`).
    pub fn attach_faults(&mut self, faults: Arc<cole_storage::FaultPlan>) {
        self.file.attach_faults(faults);
    }

    /// Drops every cached page of this file from the attached cache, if
    /// any. Call before deleting the file from disk.
    pub fn invalidate_cached_pages(&self) {
        self.file.invalidate_cached_pages();
    }

    /// Number of models in each layer, bottom layer first.
    #[must_use]
    pub fn layer_counts(&self) -> &[u64] {
        &self.layer_counts
    }

    /// The ε bound the index was built with.
    #[must_use]
    pub fn epsilon(&self) -> u64 {
        self.epsilon
    }

    /// Total size of the index file in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.file.len_bytes()
    }

    /// Number of layers.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.layer_counts.len()
    }

    /// First page of `layer` (layers are page-aligned, bottom layer first).
    fn layer_first_page(&self, layer: usize) -> u64 {
        self.layer_counts[..layer]
            .iter()
            .map(|&c| c.div_ceil(models_per_page() as u64))
            .sum()
    }

    /// Finds, within `layer`, the last model whose `kmin ≤ key`, starting the
    /// search on the page of model `hint` (a predicted model index). If
    /// every model's `kmin` exceeds `key`, the first model of the layer is
    /// returned.
    ///
    /// The search runs in place on the cached page bytes
    /// ([`PageFile::locate`]): `key` is the query's 28-byte big-endian
    /// serialization, compared with each probed model's `kmin` bytes —
    /// which order exactly as [`KeyNum`]s do — and only the answer is
    /// decoded. Each page of the layer is fetched at most once, so the
    /// recorded page reads match the pages a descent actually touches
    /// (Table 1's `O(2·depth)` bound).
    fn find_in_layer(&self, layer: usize, key: &[u8], hint: u64) -> Result<Model> {
        let models = SortedRecords {
            first_page: self.layer_first_page(layer),
            len: self.layer_counts[layer],
            record_len: MODEL_LEN,
            key_offset: MODEL_KMIN_OFFSET,
        };
        let (found, page) = self.file.locate(&models, key, hint)?;
        let slot = (found.unwrap_or(0) % models.per_page()) as usize;
        Model::from_bytes(&page[slot * MODEL_LEN..(slot + 1) * MODEL_LEN])
    }

    /// Returns the bottom-layer model covering `key`, descending from the top
    /// layer (Algorithm 7, lines 4–7). Returns `Ok(None)` only if the index
    /// is empty, which cannot happen for a constructed file.
    ///
    /// # Errors
    ///
    /// Returns an error if a page read fails.
    pub fn find_bottom_model(&self, key: &CompoundKey) -> Result<Option<Model>> {
        let key_bytes = key.to_bytes();
        let key_num = KeyNum::from(key);
        let top = self.depth() - 1;
        // The top layer fits in one page: search it without a hint.
        let mut model = self.find_in_layer(top, &key_bytes, 0)?;
        for layer in (0..top).rev() {
            model = self.find_in_layer(layer, &key_bytes, model.predict(key_num))?;
        }
        Ok(Some(model))
    }

    /// Number of pages touched for one lookup in the worst case (used by the
    /// complexity accounting of Table 1): two pages per layer.
    #[must_use]
    pub fn worst_case_pages_per_lookup(&self) -> u64 {
        2 * self.depth() as u64
    }
}

/// Sanity check: a page holds a whole number of models.
const _: () = assert!(PAGE_SIZE / MODEL_LEN > 0);

#[cfg(test)]
mod tests {
    use super::*;
    use cole_primitives::{index_epsilon, Address};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cole-idx-test-{}-{name}", std::process::id()))
    }

    fn key(addr: u64, blk: u64) -> CompoundKey {
        CompoundKey::new(Address::from_low_u64(addr), blk)
    }

    fn build_index(keys: &[CompoundKey], epsilon: u64, name: &str) -> (LearnedIndexFile, PathBuf) {
        let path = tmp(name);
        let mut builder = IndexFileBuilder::create(&path, epsilon).unwrap();
        for (pos, k) in keys.iter().enumerate() {
            builder.push(*k, pos as u64).unwrap();
        }
        (builder.finish().unwrap(), path)
    }

    /// Every key's predicted position must be within ε of its true position.
    fn assert_predictions_bounded(index: &LearnedIndexFile, keys: &[CompoundKey], epsilon: u64) {
        for (pos, k) in keys.iter().enumerate() {
            let model = index.find_bottom_model(k).unwrap().unwrap();
            assert!(
                model.kmin() <= *k,
                "covering model must start at or before the key"
            );
            let predicted = model.predict((*k).into());
            let err = predicted.abs_diff(pos as u64);
            assert!(
                err <= epsilon + 1,
                "prediction error {err} > epsilon {epsilon} at position {pos}"
            );
        }
    }

    #[test]
    fn single_layer_index_small_run() {
        let keys: Vec<CompoundKey> = (0..100u64).map(|i| key(i, 0)).collect();
        let (index, path) = build_index(&keys, index_epsilon(), "small");
        assert_eq!(index.depth(), 1);
        assert_predictions_bounded(&index, &keys, index_epsilon());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn multi_layer_index_large_run() {
        // Enough irregularity to force thousands of bottom models and at
        // least two layers.
        let mut keys: Vec<CompoundKey> = Vec::new();
        let mut addr = 0u64;
        for i in 0..60_000u64 {
            addr += 1 + (i * i) % 97;
            keys.push(key(addr, i % 4));
        }
        keys.sort();
        keys.dedup();
        let epsilon = 4;
        let (index, path) = build_index(&keys, epsilon, "large");
        assert!(index.depth() >= 2, "expected a multi-layer index");
        assert_predictions_bounded(&index, &keys, epsilon);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lookup_of_absent_keys_returns_a_model() {
        let keys: Vec<CompoundKey> = (0..1000u64).map(|i| key(i * 2, 0)).collect();
        let (index, path) = build_index(&keys, index_epsilon(), "absent");
        // Key smaller than everything: first model returned.
        let m = index.find_bottom_model(&key(0, 0)).unwrap().unwrap();
        assert_eq!(m.kmin(), keys[0]);
        // Key between entries and beyond the end still resolve to a model.
        assert!(index.find_bottom_model(&key(999, 0)).unwrap().is_some());
        assert!(index.find_bottom_model(&key(10_000, 0)).unwrap().is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_with_layer_counts() {
        let keys: Vec<CompoundKey> = (0..5000u64).map(|i| key(i * 7 + (i % 7), 1)).collect();
        let (index, path) = build_index(&keys, 8, "reopen");
        let counts = index.layer_counts().to_vec();
        let reopened = LearnedIndexFile::open(&path, counts, 8).unwrap();
        assert_predictions_bounded(&reopened, &keys, 8);
        assert!(LearnedIndexFile::open(&path, vec![], 8).is_err());
        assert!(LearnedIndexFile::open(&path, vec![1_000_000_000], 8).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn descent_touches_each_page_once_and_is_cache_served() {
        use cole_storage::{PageCache, PageIoStats};
        use std::sync::Arc;
        // Enough irregularity for a multi-layer index.
        let mut keys: Vec<CompoundKey> = Vec::new();
        let mut addr = 0u64;
        for i in 0..30_000u64 {
            addr += 1 + (i * i) % 89;
            keys.push(key(addr, i % 3));
        }
        keys.sort();
        keys.dedup();
        let (index, path) = build_index(&keys, 4, "pagecount");
        let counts = index.layer_counts().to_vec();
        let mut index = LearnedIndexFile::open(&path, counts, 4).unwrap();
        assert!(index.depth() >= 2);
        let stats = Arc::new(PageIoStats::new());
        let cache = Arc::new(PageCache::new(256));
        index.attach_stats(Arc::clone(&stats));
        index.attach_cache(Arc::clone(&cache));
        let probe = keys[keys.len() / 2];
        index.find_bottom_model(&probe).unwrap().unwrap();
        let first_reads = stats.logical_reads();
        assert!(first_reads > 0, "a descent must read index pages");
        // Each touched page is fetched once per layer visit, even though the
        // binary search probes many models on it; the widening backstop may
        // add one page per layer beyond the 2-page ε bound.
        assert!(
            first_reads <= 3 * index.depth() as u64,
            "descent read {first_reads} pages over {} layers",
            index.depth()
        );
        // The same descent again is fully cache-served.
        index.find_bottom_model(&probe).unwrap().unwrap();
        assert_eq!(stats.logical_reads(), 2 * first_reads);
        assert_eq!(stats.hits(), first_reads, "repeat descent must hit");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_stream_is_rejected() {
        let path = tmp("empty");
        let builder = IndexFileBuilder::create(&path, 8).unwrap();
        assert!(builder.finish().is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn index_is_much_smaller_than_data() {
        let keys: Vec<CompoundKey> = (0..50_000u64).map(|i| key(i, 0)).collect();
        let (index, path) = build_index(&keys, index_epsilon(), "size");
        let data_bytes = keys.len() as u64 * cole_primitives::ENTRY_LEN as u64;
        assert!(
            index.size_bytes() * 10 < data_bytes,
            "learned index ({} B) should be far smaller than the data ({} B)",
            index.size_bytes(),
            data_bytes
        );
        std::fs::remove_file(&path).ok();
    }
}
