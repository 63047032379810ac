//! Page-oriented file access.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cole_primitives::{ColeError, Result, PAGE_SIZE};

use crate::cache::{next_file_id, FileId, PageCache, PageIoStats};
use crate::fault::FaultPlan;

/// Reads exactly `buf.len()` bytes at `offset` without touching any file
/// cursor, so concurrent readers of one [`File`] never race.
#[cfg(unix)]
pub(crate) fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

/// Windows fallback of [`read_exact_at`]: `seek_read` takes its offset per
/// call, so it is cursor-free in the same way as `pread`.
#[cfg(windows)]
pub(crate) fn read_exact_at(
    file: &File,
    mut buf: &mut [u8],
    mut offset: u64,
) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, offset) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "failed to fill whole buffer",
                ))
            }
            Ok(n) => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Writes all of `data` at `offset` without touching any file cursor.
#[cfg(unix)]
fn write_all_at(file: &File, data: &[u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(data, offset)
}

/// Windows fallback of [`write_all_at`].
#[cfg(windows)]
fn write_all_at(file: &File, mut data: &[u8], mut offset: u64) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !data.is_empty() {
        match file.seek_write(data, offset) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write whole buffer",
                ))
            }
            Ok(n) => {
                data = &data[n..];
                offset += n as u64;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A file accessed in [`PAGE_SIZE`]-byte pages.
///
/// COLE's value files, index files and Merkle files are all `PageFile`s:
/// they are written once during a flush/merge (streamingly, page by page or
/// at precomputed offsets) and then only read until the next level merge
/// deletes them (§4).
///
/// All reads use positioned I/O (`pread`-style), never the shared file
/// cursor, so `&self` reads are safe to issue from many threads at once.
/// A [`PageCache`] can be attached with [`PageFile::attach_cache`]; page
/// reads are then served from (and fill) the cache.
///
/// # Examples
///
/// ```
/// use cole_storage::PageFile;
/// # fn main() -> cole_primitives::Result<()> {
/// let path = std::env::temp_dir().join(format!("cole-pagefile-doc-{}", std::process::id()));
/// let mut f = PageFile::create(&path)?;
/// f.append_page(&[7u8; 10])?;
/// let page = f.read_page(0)?;
/// assert_eq!(&page[..10], &[7u8; 10]);
/// # std::fs::remove_file(&path).ok();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PageFile {
    file: File,
    path: PathBuf,
    num_pages: u64,
    /// Process-unique identity used as the cache-key prefix.
    id: FileId,
    cache: Option<Arc<PageCache>>,
    /// Per-file-kind IO counters shared with the owning engine, if any.
    stats: Option<Arc<PageIoStats>>,
    /// Recoverable fault injection consulted before disk reads, if any.
    faults: Option<Arc<FaultPlan>>,
    /// Tolerate a final page that is short on disk (zero-fill the tail).
    /// Off by default: a truncated value or index file must fail loudly.
    allow_short_final_page: bool,
}

impl PageFile {
    /// Creates (or truncates) a page file at `path`.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be created.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(PageFile {
            file,
            path,
            num_pages: 0,
            id: next_file_id(),
            cache: None,
            stats: None,
            faults: None,
            allow_short_final_page: false,
        })
    }

    /// Opens an existing page file for reading and writing.
    ///
    /// # Errors
    ///
    /// Returns an error if the file does not exist or cannot be opened.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let len = file.metadata()?.len();
        Ok(PageFile {
            file,
            path,
            num_pages: len.div_ceil(PAGE_SIZE as u64),
            id: next_file_id(),
            cache: None,
            stats: None,
            faults: None,
            allow_short_final_page: false,
        })
    }

    /// Routes this file's page reads through `cache`.
    pub fn attach_cache(&mut self, cache: Arc<PageCache>) {
        self.cache = Some(cache);
    }

    /// Reports this file's page reads into `stats` (one record per logical
    /// [`read_page`](PageFile::read_page), tagged hit/miss when a cache is
    /// attached). The engines share one [`PageIoStats`] per file *kind* so
    /// metrics can attribute IO to value, index and Merkle pages separately.
    pub fn attach_stats(&mut self, stats: Arc<PageIoStats>) {
        self.stats = Some(stats);
    }

    /// Consults `faults` (site `page:read`) before every disk read of this
    /// file, so a chaos harness can inject transient read failures. Cache
    /// hits are never faulted — the fault models the disk, not the cache.
    pub fn attach_faults(&mut self, faults: Arc<FaultPlan>) {
        self.faults = Some(faults);
    }

    /// Tolerates a final page that is short on disk: `read_page` zero-fills
    /// the missing tail instead of failing. Only for file formats whose
    /// writers legitimately left a partial final page (offset-addressed
    /// Merkle files written before [`PageFile::pad_to_page_boundary`]
    /// existed); truncation of any other file keeps failing loudly.
    pub fn tolerate_short_final_page(&mut self) {
        self.allow_short_final_page = true;
    }

    /// The process-unique identity of this file (the cache-key prefix).
    #[must_use]
    pub fn file_id(&self) -> FileId {
        self.id
    }

    /// Drops every page of this file from the attached cache, if any. Call
    /// before deleting the file from disk so the cache never serves pages of
    /// dead files.
    pub fn invalidate_cached_pages(&self) {
        if let Some(cache) = &self.cache {
            cache.invalidate_file(self.id);
        }
    }

    /// The number of pages currently in the file.
    #[must_use]
    pub fn num_pages(&self) -> u64 {
        self.num_pages
    }

    /// The file size in bytes (always a multiple of [`PAGE_SIZE`]).
    #[must_use]
    pub fn len_bytes(&self) -> u64 {
        self.num_pages * PAGE_SIZE as u64
    }

    /// The path backing this file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends `data` as a new page (padded with zeros to [`PAGE_SIZE`]) and
    /// returns its page id.
    ///
    /// # Errors
    ///
    /// Returns an error if `data` exceeds one page or the write fails.
    pub fn append_page(&mut self, data: &[u8]) -> Result<u64> {
        if data.len() > PAGE_SIZE {
            return Err(ColeError::InvalidState(format!(
                "page payload of {} bytes exceeds page size {PAGE_SIZE}",
                data.len()
            )));
        }
        let mut page = vec![0u8; PAGE_SIZE];
        page[..data.len()].copy_from_slice(data);
        write_all_at(&self.file, &page, self.num_pages * PAGE_SIZE as u64)?;
        let id = self.num_pages;
        self.num_pages += 1;
        Ok(id)
    }

    /// Reads the page with the given id, consulting (and filling) the
    /// attached cache if one is present.
    ///
    /// The page is returned as a shared buffer so cache hits never copy the
    /// page bytes.
    ///
    /// # Errors
    ///
    /// Returns an error if `page_id` is out of bounds or the read fails.
    pub fn read_page(&self, page_id: u64) -> Result<Arc<[u8]>> {
        if page_id >= self.num_pages {
            return Err(ColeError::NotFound(format!(
                "page {page_id} out of bounds ({} pages)",
                self.num_pages
            )));
        }
        if let Some(cache) = &self.cache {
            if let Some(page) = cache.get(self.id, page_id) {
                if let Some(stats) = &self.stats {
                    stats.record_read(Some(true));
                }
                return Ok(page);
            }
        }
        if let Some(stats) = &self.stats {
            stats.record_read(self.cache.as_ref().map(|_| false));
        }
        if let Some(faults) = &self.faults {
            faults.check("page:read")?;
        }
        let offset = page_id * PAGE_SIZE as u64;
        let mut buf = vec![0u8; PAGE_SIZE];
        match read_exact_at(&self.file, &mut buf, offset) {
            Ok(()) => {}
            // A legacy offset-addressed file may have a short final page on
            // disk; when tolerated, the missing tail reads as zeros, matching
            // `append_page` padding. Everything else fails loudly.
            Err(e)
                if e.kind() == std::io::ErrorKind::UnexpectedEof
                    && self.allow_short_final_page
                    && page_id + 1 == self.num_pages =>
            {
                let len = self.file.metadata()?.len();
                let avail = len.saturating_sub(offset).min(PAGE_SIZE as u64) as usize;
                if avail == 0 {
                    return Err(e.into());
                }
                buf.fill(0);
                read_exact_at(&self.file, &mut buf[..avail], offset)?;
            }
            Err(e) => return Err(e.into()),
        }
        let page: Arc<[u8]> = buf.into();
        if let Some(cache) = &self.cache {
            cache.insert(self.id, page_id, Arc::clone(&page));
        }
        Ok(page)
    }

    /// Writes `data` at an arbitrary byte offset, extending the file if
    /// needed. Used by the streaming Merkle-file construction, which knows
    /// each layer's offset in advance (Algorithm 4).
    ///
    /// # Errors
    ///
    /// Returns an error if the write fails.
    pub fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        write_all_at(&self.file, data, offset)?;
        let end = offset + data.len() as u64;
        let pages = end.div_ceil(PAGE_SIZE as u64);
        if pages > self.num_pages {
            self.num_pages = pages;
        }
        if let Some(cache) = &self.cache {
            for page_id in (offset / PAGE_SIZE as u64)..end.div_ceil(PAGE_SIZE as u64) {
                cache.invalidate_page(self.id, page_id);
            }
        }
        Ok(())
    }

    /// Zero-pads the file on disk up to the next page boundary, so every
    /// tracked page can be read in full. Used by writers that place data at
    /// arbitrary byte offsets (the streaming Merkle-file construction) to
    /// leave a properly page-structured file behind.
    ///
    /// # Errors
    ///
    /// Returns an error if the write fails.
    pub fn pad_to_page_boundary(&mut self) -> Result<()> {
        let len = self.file.metadata()?.len();
        let target = self.num_pages * PAGE_SIZE as u64;
        if len < target {
            // Through `write_at` so any cached copies of the touched pages
            // are invalidated like every other write.
            self.write_at(len, &vec![0u8; (target - len) as usize])?;
        }
        Ok(())
    }

    /// Reads exactly `len` bytes starting at `offset` with a positioned read
    /// (cursor-free, so concurrent `&self` readers never race).
    ///
    /// # Errors
    ///
    /// Returns an error if the range is out of bounds or the read fails.
    pub fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        read_exact_at(&self.file, &mut buf, offset)?;
        Ok(buf)
    }

    /// Flushes buffered writes to the operating system.
    ///
    /// # Errors
    ///
    /// Returns an error if the flush fails.
    pub fn sync(&mut self) -> Result<()> {
        self.file.flush()?;
        self.file.sync_data()?;
        Ok(())
    }
}

/// A streaming writer that packs fixed-size records into pages.
///
/// Records never straddle a page boundary, matching the paper's layout where
/// "files are often organized into pages" and a model prediction resolves to
/// a page that is then binary-searched (§4.1, Algorithm 7).
#[derive(Debug)]
pub struct PageWriter {
    file: PageFile,
    record_len: usize,
    records_per_page: usize,
    current: Vec<u8>,
    records_in_current: usize,
    total_records: u64,
}

impl PageWriter {
    /// Creates a writer producing `record_len`-byte records at `path`.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be created or `record_len` does
    /// not fit a page.
    pub fn create<P: AsRef<Path>>(path: P, record_len: usize) -> Result<Self> {
        if record_len == 0 || record_len > PAGE_SIZE {
            return Err(ColeError::InvalidConfig(format!(
                "record length {record_len} must be in 1..={PAGE_SIZE}"
            )));
        }
        Ok(PageWriter {
            file: PageFile::create(path)?,
            record_len,
            records_per_page: PAGE_SIZE / record_len,
            current: Vec::with_capacity(PAGE_SIZE),
            records_in_current: 0,
            total_records: 0,
        })
    }

    /// Number of records per page for this writer.
    #[must_use]
    pub fn records_per_page(&self) -> usize {
        self.records_per_page
    }

    /// Number of records written so far.
    #[must_use]
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns an error if `record` has the wrong length or the write fails.
    pub fn push(&mut self, record: &[u8]) -> Result<()> {
        if record.len() != self.record_len {
            return Err(ColeError::InvalidState(format!(
                "record of {} bytes does not match configured length {}",
                record.len(),
                self.record_len
            )));
        }
        self.current.extend_from_slice(record);
        self.records_in_current += 1;
        self.total_records += 1;
        if self.records_in_current == self.records_per_page {
            self.file.append_page(&self.current)?;
            self.current.clear();
            self.records_in_current = 0;
        }
        Ok(())
    }

    /// Pads the current partial page with zeros so that the next record
    /// starts on a fresh page boundary. A no-op if the current page is empty.
    ///
    /// Used by the learned-index file construction to start each model layer
    /// on a page boundary.
    ///
    /// # Errors
    ///
    /// Returns an error if the flush fails.
    pub fn pad_page(&mut self) -> Result<()> {
        if self.records_in_current > 0 {
            self.file.append_page(&self.current)?;
            self.current.clear();
            self.records_in_current = 0;
        }
        Ok(())
    }

    /// Number of full pages written so far (not counting the buffered partial
    /// page).
    #[must_use]
    pub fn pages_written(&self) -> u64 {
        self.file.num_pages()
    }

    /// Flushes the final partial page and returns the underlying [`PageFile`].
    ///
    /// # Errors
    ///
    /// Returns an error if the flush fails.
    pub fn finish(mut self) -> Result<PageFile> {
        if self.records_in_current > 0 {
            self.file.append_page(&self.current)?;
        }
        self.file.sync()?;
        Ok(self.file)
    }
}

/// A sorted array of fixed-width records laid out as a [`PageWriter`]
/// writes them: `PAGE_SIZE / record_len` records to a page from
/// `first_page` on, none straddling a page. Each record carries its sort
/// key at `key_offset` as bytes whose lexicographic order is the key order
/// (big-endian), so [`PageFile::locate`] can compare keys without decoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SortedRecords {
    /// Page holding record 0.
    pub first_page: u64,
    /// Number of records.
    pub len: u64,
    /// Bytes per record.
    pub record_len: usize,
    /// Offset of the key bytes within a record.
    pub key_offset: usize,
}

impl SortedRecords {
    /// Records per page.
    #[must_use]
    pub fn per_page(&self) -> u64 {
        (PAGE_SIZE / self.record_len) as u64
    }
}

impl PageFile {
    /// Finds the last record of `records` whose key is `≤ key`, searching
    /// the page bytes in place: keys are compared as bytes and no record is
    /// decoded.
    ///
    /// The search starts on the page of record `hint` (a prediction, such
    /// as a learned model's) and steps one page at a time while that page's
    /// first or last key shows the answer lies beyond it. Each page is
    /// fetched at most once, through the attached cache. Returns the
    /// record's index — `None` if every key is greater — and the page it
    /// lies on (the first page when `None`), so the caller reads the record
    /// without a second fetch.
    ///
    /// # Errors
    ///
    /// Returns an error if `records` is empty or a page read fails.
    pub fn locate(
        &self,
        records: &SortedRecords,
        key: &[u8],
        hint: u64,
    ) -> Result<(Option<u64>, Arc<[u8]>)> {
        if records.len == 0 {
            return Err(ColeError::InvalidState(
                "cannot search an empty record array".into(),
            ));
        }
        let per_page = records.per_page();
        let last_page = (records.len - 1) / per_page;
        // How `key` orders against the key of record `slot` on `page`.
        let cmp = |page: &[u8], slot: u64| {
            let at = slot as usize * records.record_len + records.key_offset;
            key.cmp(&page[at..at + key.len()])
        };
        let fetch = |p: u64| self.read_page(records.first_page + p);
        let mut p = hint.min(records.len - 1) / per_page;
        let mut page = fetch(p)?;
        // Page `p + 1` when the search already holds it — it stepped left
        // off that page, so `key` sorts below its first key.
        let mut after: Option<Arc<[u8]>> = None;
        loop {
            if cmp(&page, 0).is_lt() {
                if p == 0 {
                    return Ok((None, page));
                }
                p -= 1;
                after = Some(std::mem::replace(&mut page, fetch(p)?));
                continue;
            }
            let on_page = (records.len - p * per_page).min(per_page);
            if cmp(&page, on_page - 1).is_ge() && p < last_page {
                let next = match after.take() {
                    Some(next) => next,
                    None => fetch(p + 1)?,
                };
                if cmp(&next, 0).is_ge() {
                    p += 1;
                    page = next;
                    continue;
                }
                return Ok((Some(p * per_page + on_page - 1), page));
            }
            // The first key is `≤ key`, so the partition point is ≥ 1.
            let (mut lo, mut hi) = (1, on_page);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if cmp(&page, mid).is_ge() {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            return Ok((Some(p * per_page + lo - 1), page));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cole-page-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn append_and_read_pages() {
        let path = tmp("append");
        let mut f = PageFile::create(&path).unwrap();
        assert_eq!(f.append_page(&[1u8; 100]).unwrap(), 0);
        assert_eq!(f.append_page(&[2u8; PAGE_SIZE]).unwrap(), 1);
        assert_eq!(f.num_pages(), 2);
        assert_eq!(f.read_page(0).unwrap()[..100], [1u8; 100]);
        assert_eq!(f.read_page(1).unwrap()[..], vec![2u8; PAGE_SIZE]);
        assert!(f.read_page(2).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_readers_share_one_file_without_racing() {
        // Regression test for the shared-cursor data race: many threads
        // reading different pages through one `&PageFile` must each see
        // exactly their page's contents.
        let path = tmp("concurrent");
        let mut f = PageFile::create(&path).unwrap();
        let pages = 64u64;
        for i in 0..pages {
            f.append_page(&vec![i as u8; PAGE_SIZE]).unwrap();
        }
        let f = std::sync::Arc::new(f);
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let f = std::sync::Arc::clone(&f);
            handles.push(std::thread::spawn(move || {
                for round in 0..200u64 {
                    let page_id = (t * 31 + round * 7) % pages;
                    let page = f.read_page(page_id).unwrap();
                    assert!(
                        page.iter().all(|&b| b == page_id as u8),
                        "torn read of page {page_id}"
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cached_reads_hit_after_first_access() {
        let path = tmp("cached");
        let cache = std::sync::Arc::new(crate::PageCache::new(16));
        let mut f = PageFile::create(&path).unwrap();
        f.append_page(&[5u8; 32]).unwrap();
        f.attach_cache(std::sync::Arc::clone(&cache));
        let first = f.read_page(0).unwrap();
        let second = f.read_page(0).unwrap();
        assert_eq!(first[..32], [5u8; 32]);
        assert!(std::sync::Arc::ptr_eq(&first, &second) || first == second);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        // Invalidation drops the file's pages.
        f.invalidate_cached_pages();
        assert!(cache.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn attached_stats_count_logical_reads_and_outcomes() {
        let path = tmp("stats");
        let stats = std::sync::Arc::new(crate::PageIoStats::new());
        let mut f = PageFile::create(&path).unwrap();
        f.append_page(&[1u8; 16]).unwrap();
        f.attach_stats(std::sync::Arc::clone(&stats));
        // Uncached reads are logical reads with no hit/miss tag.
        f.read_page(0).unwrap();
        assert_eq!(
            (stats.logical_reads(), stats.hits(), stats.misses()),
            (1, 0, 0)
        );
        // Cached reads tag a miss then a hit.
        f.attach_cache(std::sync::Arc::new(crate::PageCache::new(8)));
        f.read_page(0).unwrap();
        f.read_page(0).unwrap();
        assert_eq!(
            (stats.logical_reads(), stats.hits(), stats.misses()),
            (3, 1, 1)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_read_faults_spare_cache_hits_and_clear() {
        let path = tmp("faults");
        let mut f = PageFile::create(&path).unwrap();
        f.append_page(&[9u8; 16]).unwrap();
        f.attach_cache(std::sync::Arc::new(crate::PageCache::new(8)));
        let faults = std::sync::Arc::new(crate::FaultPlan::new());
        f.attach_faults(std::sync::Arc::clone(&faults));
        f.read_page(0).unwrap(); // miss fills the cache
        faults.fail("page:read", crate::FaultKind::Io, 1);
        // A cache hit never touches the disk, so the armed fault stays put.
        assert_eq!(f.read_page(0).unwrap()[..16], [9u8; 16]);
        f.invalidate_cached_pages();
        assert!(f.read_page(0).is_err(), "disk read hits the armed fault");
        // Transient: the same read succeeds once the fault is exhausted.
        assert_eq!(f.read_page(0).unwrap()[..16], [9u8; 16]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_fails_loudly_unless_tolerated() {
        let path = tmp("truncated");
        let mut f = PageFile::create(&path).unwrap();
        f.append_page(&[1u8; PAGE_SIZE]).unwrap();
        f.append_page(&[2u8; PAGE_SIZE]).unwrap();
        f.sync().unwrap();
        drop(f);
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(PAGE_SIZE as u64 + 100).unwrap();
        drop(file);
        let mut f = PageFile::open(&path).unwrap();
        assert_eq!(f.num_pages(), 2);
        // Truncation of a strict file (value/index) surfaces as an error.
        assert!(f.read_page(1).is_err(), "truncation must fail loudly");
        // A tolerant file (legacy Merkle) zero-fills the missing tail.
        f.tolerate_short_final_page();
        let page = f.read_page(1).unwrap();
        assert_eq!(page[..100], [2u8; 100]);
        assert!(page[100..].iter().all(|&b| b == 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_page_rejected() {
        let path = tmp("oversized");
        let mut f = PageFile::create(&path).unwrap();
        assert!(f.append_page(&vec![0u8; PAGE_SIZE + 1]).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_at_and_read_at() {
        let path = tmp("writeat");
        let mut f = PageFile::create(&path).unwrap();
        f.write_at(10_000, b"hello").unwrap();
        assert_eq!(f.read_at(10_000, 5).unwrap(), b"hello");
        assert!(f.num_pages() >= 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_preserves_page_count() {
        let path = tmp("reopen");
        {
            let mut f = PageFile::create(&path).unwrap();
            f.append_page(&[3u8; 8]).unwrap();
            f.sync().unwrap();
        }
        let f = PageFile::open(&path).unwrap();
        assert_eq!(f.num_pages(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn page_writer_packs_records_without_straddling() {
        let path = tmp("writer");
        let record_len = 100;
        let mut w = PageWriter::create(&path, record_len).unwrap();
        let per_page = w.records_per_page();
        for i in 0..(per_page + 3) {
            w.push(&vec![i as u8; record_len]).unwrap();
        }
        let f = w.finish().unwrap();
        assert_eq!(f.num_pages(), 2);
        // First record of page 1 is record `per_page`.
        let page1 = f.read_page(1).unwrap();
        assert_eq!(page1[..record_len], vec![per_page as u8; record_len]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn page_writer_rejects_wrong_record_length() {
        let path = tmp("wronglen");
        let mut w = PageWriter::create(&path, 16).unwrap();
        assert!(w.push(&[0u8; 15]).is_err());
        assert!(PageWriter::create(&path, 0).is_err());
        std::fs::remove_file(&path).ok();
    }
    #[test]
    fn locate_finds_the_last_key_at_or_below_from_any_hint() {
        // 600 records of 100 bytes (40 to a page) after one padded page of
        // another array: even keys 2..=1200 as big-endian u32 at offset 3.
        let path = tmp("locate");
        let record_len = 100;
        let mut w = PageWriter::create(&path, record_len).unwrap();
        w.push(&[0xff; 100]).unwrap();
        w.pad_page().unwrap();
        let keys: Vec<u32> = (1..=600).map(|i| i * 2).collect();
        for k in &keys {
            let mut record = [0u8; 100];
            record[3..7].copy_from_slice(&k.to_be_bytes());
            w.push(&record).unwrap();
        }
        let mut f = w.finish().unwrap();
        let stats = Arc::new(PageIoStats::new());
        f.attach_stats(Arc::clone(&stats));
        let records = SortedRecords {
            first_page: 1,
            len: keys.len() as u64,
            record_len,
            key_offset: 3,
        };
        let per_page = records.per_page();
        for probe in [
            0u32,
            1,
            2,
            3,
            79,
            80,
            81,
            599,
            600,
            1199,
            1200,
            1201,
            u32::MAX,
        ] {
            let expected = keys.iter().rposition(|&k| k <= probe).map(|i| i as u64);
            for hint in [0, 39, 40, 41, 300, 599, 10_000] {
                let before = stats.logical_reads();
                let (found, page) = f.locate(&records, &probe.to_be_bytes(), hint).unwrap();
                assert_eq!(found, expected, "probe {probe} hint {hint}");
                let at = found.unwrap_or(0);
                let offset = (at % per_page) as usize * record_len;
                assert_eq!(
                    page[offset + 3..offset + 7],
                    keys[at as usize].to_be_bytes()
                );
                // One fetch per page between the hint's and the answer's,
                // plus at most the page after the answer.
                let span = (hint.min(599) / per_page).abs_diff(at / per_page);
                assert!(
                    stats.logical_reads() - before <= span + 2,
                    "probe {probe} hint {hint}"
                );
            }
        }
        let empty = SortedRecords { len: 0, ..records };
        assert!(f.locate(&empty, &[0; 4], 0).is_err());
        std::fs::remove_file(&path).ok();
    }
}
