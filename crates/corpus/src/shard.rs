//! Out-of-core corpus shards.
//!
//! A [`ShardStore`] holds a corpus as fixed-size on-disk shards — contiguous
//! company ranges in a compact binary format — plus a JSON `manifest.json`
//! carrying the global vocabulary, per-shard company ranges, token counts and
//! FNV-1a checksums. Training streams one shard at a time, decoded straight
//! into its companies' [`ProductSets`], so peak memory is one shard's tokens
//! instead of the whole corpus; [`ShardReader`] streams whole companies.
//!
//! The [`CorpusSource`] trait abstracts over "companies arrive in shard-sized
//! batches": the in-memory [`Corpus`] implements it as a single shard, and
//! [`ShardStore`] implements it by decoding shard files on demand. Both views
//! expose the *same* companies in the *same* global order, which is what lets
//! sharded training reproduce in-memory training bit for bit.

use crate::company::{Company, InstallEvent, Sic2};
use crate::corpus::Corpus;
use crate::time::Month;
use crate::vocab::{ProductId, Vocabulary};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};

/// Shard boundaries are kept multiples of this, except for the final shard.
///
/// It equals the per-chunk document granularity of the AD-LDA Gibbs sweep
/// (`DOC_CHUNK` in `hlm-lda`), so a shard-local chunk index plus the shard's
/// global chunk offset addresses exactly the same document range — and hence
/// the same per-chunk RNG stream — as the in-memory sweep. `hlm-lda` pins the
/// correspondence with a test.
pub const SHARD_ALIGN: usize = 64;

/// File name of the shard-store manifest inside the store directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Manifest schema version.
pub const MANIFEST_VERSION: u32 = 1;

/// Magic bytes opening every shard file.
const SHARD_MAGIC: &[u8; 8] = b"HLMSHRD1";

/// Bytes of the smallest company record: empty name, no events.
const MIN_RECORD_BYTES: usize = 8 + 4 + 1 + 2 + 4 + 4 + 8 + 4;

/// Bytes of one stored install event.
const EVENT_BYTES: usize = 2 + 4 + 4 + 4;

/// An error reading or writing a shard store: an I/O failure or a corrupt /
/// inconsistent on-disk artifact.
#[derive(Debug)]
pub struct ShardError {
    msg: String,
}

impl ShardError {
    fn new(msg: impl Into<String>) -> Self {
        ShardError { msg: msg.into() }
    }

    fn io(ctx: &str, path: &Path, e: std::io::Error) -> Self {
        ShardError::new(format!("{ctx} {}: {e}", path.display()))
    }
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard store: {}", self.msg)
    }
}

impl std::error::Error for ShardError {}

/// A corpus seen as an ordered sequence of company shards.
///
/// Contract: shards partition `0..n_companies()` into contiguous, ascending
/// ranges; `product_sets(s)` covers exactly the companies of
/// `shard_span(s)`, in global order. Every span except the last must be a
/// multiple of [`SHARD_ALIGN`] long.
pub trait CorpusSource {
    /// The global vocabulary.
    fn vocab(&self) -> &Vocabulary;
    /// Total number of companies across all shards.
    fn n_companies(&self) -> usize;
    /// Number of shards.
    fn n_shards(&self) -> usize;
    /// Half-open global company range `[lo, hi)` of shard `s`.
    fn shard_span(&self, s: usize) -> (usize, usize);
    /// The distinct products of shard `s`'s companies, in global order —
    /// all that a topic sampler reads of them. [`ShardStore::read_shard`]
    /// gives a stored shard's whole companies.
    ///
    /// # Errors
    /// A streaming source returns [`ShardError`] when the shard cannot be
    /// read back intact.
    fn product_sets(&self, s: usize) -> Result<ProductSets, ShardError>;
    /// Total install-base tokens across all shards.
    fn total_tokens(&self) -> usize;
}

impl CorpusSource for Corpus {
    fn vocab(&self) -> &Vocabulary {
        Corpus::vocab(self)
    }

    fn n_companies(&self) -> usize {
        self.len()
    }

    fn n_shards(&self) -> usize {
        1
    }

    fn shard_span(&self, s: usize) -> (usize, usize) {
        assert_eq!(s, 0, "in-memory corpus has exactly one shard");
        (0, self.len())
    }

    fn product_sets(&self, s: usize) -> Result<ProductSets, ShardError> {
        assert_eq!(s, 0, "in-memory corpus has exactly one shard");
        Ok(ProductSets::from_companies(self.companies()))
    }

    fn total_tokens(&self) -> usize {
        Corpus::total_tokens(self)
    }
}

/// The distinct products of consecutive companies, flattened: company `i`'s
/// set is `products[offsets[i]..offsets[i + 1]]`, ascending — the order
/// [`Company::product_set`] gives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProductSets {
    /// One offset per company into `products`, plus the end; starts at 0.
    pub offsets: Vec<usize>,
    /// Every company's products, company after company.
    pub products: Vec<ProductId>,
}

impl ProductSets {
    /// The product sets of `companies`, in order.
    pub fn from_companies(companies: &[Company]) -> Self {
        let tokens = companies.iter().map(Company::product_count).sum();
        let mut offsets = Vec::with_capacity(companies.len() + 1);
        let mut products = Vec::with_capacity(tokens);
        offsets.push(0);
        for c in companies {
            let start = products.len();
            products.extend(c.events().iter().map(|e| e.product));
            products[start..].sort_unstable();
            offsets.push(products.len());
        }
        ProductSets { offsets, products }
    }
}

/// An in-memory corpus exposed with a multi-shard layout — the RAM-backed
/// counterpart of [`ShardStore`] for layout-sensitive consumers (online VB's
/// minibatches) and for testing streaming paths against in-memory ones.
pub struct MemShardSource<'a> {
    corpus: &'a Corpus,
    shard_size: usize,
}

impl<'a> MemShardSource<'a> {
    /// Wraps `corpus` with shards of `shard_size` companies (the last one
    /// short).
    ///
    /// # Panics
    /// Panics unless `shard_size` is a positive multiple of [`SHARD_ALIGN`].
    pub fn new(corpus: &'a Corpus, shard_size: usize) -> Self {
        assert!(
            shard_size > 0 && shard_size.is_multiple_of(SHARD_ALIGN),
            "shard_size must be a positive multiple of {SHARD_ALIGN}, got {shard_size}"
        );
        MemShardSource { corpus, shard_size }
    }
}

impl CorpusSource for MemShardSource<'_> {
    fn vocab(&self) -> &Vocabulary {
        self.corpus.vocab()
    }

    fn n_companies(&self) -> usize {
        self.corpus.len()
    }

    fn n_shards(&self) -> usize {
        self.corpus.len().div_ceil(self.shard_size).max(1)
    }

    fn shard_span(&self, s: usize) -> (usize, usize) {
        let lo = s * self.shard_size;
        (
            lo.min(self.corpus.len()),
            (lo + self.shard_size).min(self.corpus.len()),
        )
    }

    fn product_sets(&self, s: usize) -> Result<ProductSets, ShardError> {
        let (lo, hi) = self.shard_span(s);
        Ok(ProductSets::from_companies(
            &self.corpus.companies()[lo..hi],
        ))
    }

    fn total_tokens(&self) -> usize {
        Corpus::total_tokens(self.corpus)
    }
}

/// The shard size (companies per shard) that splits `n_companies` into
/// `n_shards` near-equal parts while keeping every boundary a multiple of
/// [`SHARD_ALIGN`]. The final shard absorbs the remainder.
pub fn aligned_shard_size(n_companies: usize, n_shards: usize) -> usize {
    assert!(n_shards > 0, "need at least one shard");
    let raw = n_companies.div_ceil(n_shards).max(1);
    raw.div_ceil(SHARD_ALIGN) * SHARD_ALIGN
}

/// 64-bit FNV-1a over a byte slice (shard-file integrity checksum).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Per-shard manifest record: file name, company range, token/byte counts,
/// content checksum, and the number of distinct vocabulary entries the shard
/// actually uses (its "vocab delta" against an empty store).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardEntry {
    pub file: String,
    pub company_lo: u64,
    pub company_hi: u64,
    pub tokens: u64,
    pub bytes: u64,
    pub checksum: u64,
    pub products_used: u32,
}

/// The store manifest: global counts, the merged vocabulary, and one
/// [`ShardEntry`] per shard in company order. Everything `hlm stats` needs is
/// here, so stats at any scale are O(shards) memory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Manifest {
    pub version: u32,
    pub n_companies: u64,
    pub shard_size: u64,
    pub total_tokens: u64,
    pub vocab: Vec<String>,
    pub shards: Vec<ShardEntry>,
}

/// Streaming writer: feed shards in company order, then [`finish`]
/// (writing the manifest) to obtain the readable [`ShardStore`].
///
/// [`finish`]: ShardWriter::finish
pub struct ShardWriter {
    dir: PathBuf,
    vocab: Vocabulary,
    shard_size: usize,
    entries: Vec<ShardEntry>,
    next_lo: usize,
    total_tokens: u64,
    closed: bool,
}

impl ShardWriter {
    /// Creates the store directory (if needed) and an empty writer. Every
    /// shard except the last must hold exactly `shard_size` companies, and
    /// `shard_size` must be a multiple of [`SHARD_ALIGN`].
    pub fn create(
        dir: impl Into<PathBuf>,
        vocab: Vocabulary,
        shard_size: usize,
    ) -> Result<Self, ShardError> {
        assert!(
            shard_size > 0 && shard_size.is_multiple_of(SHARD_ALIGN),
            "shard_size must be a positive multiple of {SHARD_ALIGN}, got {shard_size}"
        );
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| ShardError::io("cannot create store directory", &dir, e))?;
        Ok(ShardWriter {
            dir,
            vocab,
            shard_size,
            entries: Vec::new(),
            next_lo: 0,
            total_tokens: 0,
            closed: false,
        })
    }

    /// Appends the next shard. `companies` must continue the global order:
    /// shard `s` covers companies `[s * shard_size, s * shard_size + len)`.
    pub fn write_shard(&mut self, companies: &[Company]) -> Result<(), ShardError> {
        assert!(!self.closed, "writer already finished");
        assert!(!companies.is_empty(), "empty shard");
        if let Some(last) = self.entries.last() {
            assert_eq!(
                (last.company_hi - last.company_lo) as usize,
                self.shard_size,
                "only the final shard may be short; shard {} was",
                self.entries.len() - 1
            );
        }
        assert!(
            companies.len() <= self.shard_size,
            "shard of {} companies exceeds shard_size {}",
            companies.len(),
            self.shard_size
        );
        for c in companies {
            for e in c.events() {
                assert!(
                    self.vocab.contains(e.product),
                    "company {} references product outside the vocabulary",
                    c.duns
                );
            }
        }
        let lo = self.next_lo;
        let hi = lo + companies.len();
        let bytes = encode_shard(lo, hi, companies);
        let file = shard_file_name(self.entries.len());
        let path = self.dir.join(&file);
        std::fs::write(&path, &bytes)
            .map_err(|e| ShardError::io("cannot write shard", &path, e))?;
        let tokens: u64 = companies.iter().map(|c| c.product_count() as u64).sum();
        let mut used = vec![false; self.vocab.len()];
        for c in companies {
            for e in c.events() {
                used[e.product.index()] = true;
            }
        }
        self.entries.push(ShardEntry {
            file,
            company_lo: lo as u64,
            company_hi: hi as u64,
            tokens,
            bytes: bytes.len() as u64,
            checksum: fnv1a(&bytes),
            products_used: used.iter().filter(|&&u| u).count() as u32,
        });
        self.next_lo = hi;
        self.total_tokens += tokens;
        Ok(())
    }

    /// Writes the manifest and reopens the store for reading.
    pub fn finish(mut self) -> Result<ShardStore, ShardError> {
        assert!(!self.entries.is_empty(), "store needs at least one shard");
        self.closed = true;
        let manifest = Manifest {
            version: MANIFEST_VERSION,
            n_companies: self.next_lo as u64,
            shard_size: self.shard_size as u64,
            total_tokens: self.total_tokens,
            vocab: self.vocab.iter().map(|(_, n)| n.to_string()).collect(),
            shards: std::mem::take(&mut self.entries),
        };
        let path = self.dir.join(MANIFEST_FILE);
        let text = serde_json::to_string(&manifest)
            .map_err(|e| ShardError::new(format!("cannot encode manifest: {e}")))?;
        std::fs::write(&path, text)
            .map_err(|e| ShardError::io("cannot write manifest", &path, e))?;
        ShardStore::open(&self.dir)
    }
}

/// An on-disk sharded corpus, opened from its manifest. Reading a shard
/// decodes one file while a second thread verifies its FNV-1a checksum; the
/// full corpus is never materialised.
pub struct ShardStore {
    dir: PathBuf,
    manifest: Manifest,
    vocab: Vocabulary,
}

impl ShardStore {
    /// True when `dir` contains a shard-store manifest.
    pub fn exists(dir: impl AsRef<Path>) -> bool {
        dir.as_ref().join(MANIFEST_FILE).is_file()
    }

    /// Opens a store, validating the manifest's internal consistency
    /// (version, contiguous spans, token totals) without touching shard
    /// files.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, ShardError> {
        let dir = dir.into();
        let path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| ShardError::io("cannot read manifest", &path, e))?;
        let manifest: Manifest = serde_json::from_str(&text)
            .map_err(|e| ShardError::new(format!("corrupt manifest {}: {e}", path.display())))?;
        if manifest.version != MANIFEST_VERSION {
            return Err(ShardError::new(format!(
                "manifest version {} unsupported (expected {MANIFEST_VERSION})",
                manifest.version
            )));
        }
        if manifest.shards.is_empty() {
            return Err(ShardError::new("manifest lists no shards"));
        }
        let mut expect_lo = 0u64;
        let mut tokens = 0u64;
        for (i, s) in manifest.shards.iter().enumerate() {
            if s.company_lo != expect_lo || s.company_hi <= s.company_lo {
                return Err(ShardError::new(format!(
                    "shard {i} span [{}, {}) does not continue at {expect_lo}",
                    s.company_lo, s.company_hi
                )));
            }
            let len = s.company_hi - s.company_lo;
            if i + 1 < manifest.shards.len() && len != manifest.shard_size {
                return Err(ShardError::new(format!(
                    "interior shard {i} holds {len} companies, expected {}",
                    manifest.shard_size
                )));
            }
            expect_lo = s.company_hi;
            tokens += s.tokens;
        }
        if expect_lo != manifest.n_companies || tokens != manifest.total_tokens {
            return Err(ShardError::new(
                "manifest totals disagree with per-shard entries",
            ));
        }
        let vocab = Vocabulary::new(manifest.vocab.clone());
        Ok(ShardStore {
            dir,
            manifest,
            vocab,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The validated manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Reads and decodes shard `s`, verifying size, checksum and header
    /// against the manifest.
    pub fn read_shard(&self, s: usize) -> Result<Vec<Company>, ShardError> {
        self.read_checked(s, decode_companies)
    }

    /// Reads shard `s` and runs `decode` over its bytes while a scoped
    /// second thread computes their checksum. The decoded value is returned
    /// only when size, checksum and the decoded span all match the manifest.
    fn read_checked<T>(
        &self,
        s: usize,
        decode: impl FnOnce(&[u8], usize) -> DecodeResult<T>,
    ) -> Result<T, ShardError> {
        let entry = &self.manifest.shards[s];
        let path = self.dir.join(&entry.file);
        let bytes =
            std::fs::read(&path).map_err(|e| ShardError::io("cannot read shard", &path, e))?;
        let fails_checksum =
            || ShardError::new(format!("shard {s} ({}) fails its checksum", path.display()));
        if bytes.len() as u64 != entry.bytes {
            return Err(fails_checksum());
        }
        let (sum, decoded) = std::thread::scope(|scope| {
            let sum = scope.spawn(|| fnv1a(&bytes));
            let decoded = decode(&bytes, self.vocab.len());
            let sum = sum.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            (sum, decoded)
        });
        if sum != entry.checksum {
            return Err(fails_checksum());
        }
        let ((lo, hi), value) = decoded
            .map_err(|msg| ShardError::new(format!("shard {s} ({}): {msg}", path.display())))?;
        if (lo, hi) != (entry.company_lo as usize, entry.company_hi as usize) {
            return Err(ShardError::new(format!(
                "shard {s} header span [{lo}, {hi}) disagrees with manifest"
            )));
        }
        Ok(value)
    }

    /// Sequential reader over all shards in company order.
    pub fn reader(&self) -> ShardReader<'_> {
        ShardReader {
            store: self,
            next: 0,
        }
    }
}

impl CorpusSource for ShardStore {
    fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    fn n_companies(&self) -> usize {
        self.manifest.n_companies as usize
    }

    fn n_shards(&self) -> usize {
        self.manifest.shards.len()
    }

    fn shard_span(&self, s: usize) -> (usize, usize) {
        let e = &self.manifest.shards[s];
        (e.company_lo as usize, e.company_hi as usize)
    }

    fn product_sets(&self, s: usize) -> Result<ProductSets, ShardError> {
        self.read_checked(s, decode_product_sets)
    }

    fn total_tokens(&self) -> usize {
        self.manifest.total_tokens as usize
    }
}

/// Sequential shard iterator yielding `(shard_index, companies)`.
pub struct ShardReader<'a> {
    store: &'a ShardStore,
    next: usize,
}

impl Iterator for ShardReader<'_> {
    type Item = Result<(usize, Vec<Company>), ShardError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.store.n_shards() {
            return None;
        }
        let s = self.next;
        self.next += 1;
        Some(self.store.read_shard(s).map(|cs| (s, cs)))
    }
}

fn shard_file_name(index: usize) -> String {
    format!("shard_{index:05}.bin")
}

/// Binary layout (all integers little-endian):
///
/// ```text
/// magic "HLMSHRD1" · lo u64 · hi u64 · tokens u64
/// per company:
///   duns u64 · name_len u32 · name utf-8 · industry u8 · country u16
///   site_count u32 · employees u32 · revenue_musd f64-bits
///   n_events u32 · per event: product u16 · first_seen i32 · last_seen i32
///                             · confidence f32-bits
/// ```
fn encode_shard(lo: usize, hi: usize, companies: &[Company]) -> Vec<u8> {
    let tokens: u64 = companies.iter().map(|c| c.product_count() as u64).sum();
    let mut out = Vec::with_capacity(32 + companies.len() * 64);
    out.extend_from_slice(SHARD_MAGIC);
    out.extend_from_slice(&(lo as u64).to_le_bytes());
    out.extend_from_slice(&(hi as u64).to_le_bytes());
    out.extend_from_slice(&tokens.to_le_bytes());
    for c in companies {
        out.extend_from_slice(&c.duns.to_le_bytes());
        out.extend_from_slice(&(c.name.len() as u32).to_le_bytes());
        out.extend_from_slice(c.name.as_bytes());
        out.push(c.industry.0);
        out.extend_from_slice(&c.country.to_le_bytes());
        out.extend_from_slice(&c.site_count.to_le_bytes());
        out.extend_from_slice(&c.employees.to_le_bytes());
        out.extend_from_slice(&c.revenue_musd.to_bits().to_le_bytes());
        out.extend_from_slice(&(c.product_count() as u32).to_le_bytes());
        for e in c.events() {
            out.extend_from_slice(&e.product.0.to_le_bytes());
            out.extend_from_slice(&e.first_seen.0.to_le_bytes());
            out.extend_from_slice(&e.last_seen.0.to_le_bytes());
            out.extend_from_slice(&e.confidence.to_bits().to_le_bytes());
        }
    }
    out
}

/// Decodes a shard file into whole companies and its span; the caller
/// checks the checksum.
fn decode_companies(bytes: &[u8], n_products: usize) -> DecodeResult<Vec<Company>> {
    let mut walk = ShardWalk::new(bytes, n_products)?;
    let mut companies = Vec::with_capacity(walk.max_records());
    let mut set = Vec::new();
    while let Some(r) = walk.next_record(&mut set)? {
        set.clear();
        let mut c = Company::new(r.duns, r.name, r.industry, r.country);
        c.site_count = r.site_count;
        c.employees = r.employees;
        c.revenue_musd = r.revenue_musd;
        // Stored events are the already-merged install base — one event per
        // product, sorted by `(first_seen, product)` — so replaying them
        // through `add_event` reconstructs the company exactly.
        for event in r.events {
            let mut f = Cursor { rest: event };
            c.add_event(InstallEvent {
                product: ProductId(f.u16()?),
                first_seen: Month(f.i32()?),
                last_seen: Month(f.i32()?),
                confidence: f32::from_bits(f.u32()?),
            });
        }
        companies.push(c);
    }
    Ok((walk.finish()?, companies))
}

/// Decodes a shard file into its companies' product sets and its span,
/// building no [`Company`]; the caller checks the checksum.
fn decode_product_sets(bytes: &[u8], n_products: usize) -> DecodeResult<ProductSets> {
    let mut walk = ShardWalk::new(bytes, n_products)?;
    let mut offsets = Vec::with_capacity(walk.max_records() + 1);
    let mut products = Vec::with_capacity(walk.max_tokens());
    offsets.push(0);
    while walk.next_record(&mut products)?.is_some() {
        offsets.push(products.len());
    }
    Ok((walk.finish()?, ProductSets { offsets, products }))
}

/// A decoded shard: its header span `(lo, hi)` and its contents.
type DecodeResult<T> = Result<((usize, usize), T), String>;

/// One company record of a shard file, borrowed from the file's bytes.
struct Record<'a> {
    duns: u64,
    name: &'a str,
    industry: Sic2,
    country: u16,
    site_count: u32,
    employees: u32,
    revenue_musd: f64,
    events: &'a [[u8; EVENT_BYTES]],
}

/// The one walk of the shard layout behind both decoders. It checks
/// everything but the checksum: the magic, the span, every field against
/// the bytes left, UTF-8 names, products below the vocabulary size and
/// distinct within a company, and at [`finish`](Self::finish) trailing
/// bytes and the header's token count. Its capacity hints are bounded by
/// the bytes at hand, never by a header field alone: the checksum may still
/// be running while it walks.
struct ShardWalk<'a> {
    cur: Cursor<'a>,
    span: (usize, usize),
    tokens: u64,
    n_products: usize,
    records_left: usize,
    seen_tokens: u64,
}

impl<'a> ShardWalk<'a> {
    fn new(bytes: &'a [u8], n_products: usize) -> Result<Self, String> {
        let mut cur = Cursor { rest: bytes };
        if cur.take(SHARD_MAGIC.len())? != SHARD_MAGIC {
            return Err("bad magic".to_string());
        }
        let lo = cur.u64()? as usize;
        let hi = cur.u64()? as usize;
        let tokens = cur.u64()?;
        if hi <= lo {
            return Err(format!("bad span [{lo}, {hi})"));
        }
        Ok(ShardWalk {
            cur,
            span: (lo, hi),
            tokens,
            n_products,
            records_left: hi - lo,
            seen_tokens: 0,
        })
    }

    /// The most company records the bytes left can hold.
    fn max_records(&self) -> usize {
        self.records_left
            .min(self.cur.rest.len() / MIN_RECORD_BYTES)
    }

    /// The most install events the bytes left can hold.
    fn max_tokens(&self) -> usize {
        let claimed = usize::try_from(self.tokens).unwrap_or(usize::MAX);
        claimed.min(self.cur.rest.len() / EVENT_BYTES)
    }

    /// The next company record, with its products appended to `set` in
    /// ascending order; `None` once the span is read.
    fn next_record(&mut self, set: &mut Vec<ProductId>) -> Result<Option<Record<'a>>, String> {
        if self.records_left == 0 {
            return Ok(None);
        }
        self.records_left -= 1;
        let cur = &mut self.cur;
        let duns = cur.u64()?;
        let name_len = cur.u32()? as usize;
        let name = std::str::from_utf8(cur.take(name_len)?)
            .map_err(|_| "company name is not UTF-8".to_string())?;
        let industry = Sic2(cur.u8()?);
        let country = cur.u16()?;
        let site_count = cur.u32()?;
        let employees = cur.u32()?;
        let revenue_musd = f64::from_bits(cur.u64()?);
        let n_events = cur.u32()? as usize;
        let events = cur
            .take(n_events.saturating_mul(EVENT_BYTES))?
            .as_chunks()
            .0;
        let start = set.len();
        set.extend(
            events
                .iter()
                .map(|e| ProductId(u16::from_le_bytes([e[0], e[1]]))),
        );
        let added = &mut set[start..];
        added.sort_unstable();
        if added.windows(2).any(|w| w[0] == w[1]) {
            return Err("duplicate product within a stored company".to_string());
        }
        if let Some(p) = added.last().filter(|p| p.index() >= self.n_products) {
            return Err(format!(
                "product {} outside the vocabulary of {}",
                p.0, self.n_products
            ));
        }
        self.seen_tokens += n_events as u64;
        Ok(Some(Record {
            duns,
            name,
            industry,
            country,
            site_count,
            employees,
            revenue_musd,
            events,
        }))
    }

    /// Ends a walk that read the whole span: the file must end there, and
    /// the header's token count must match the events read.
    fn finish(self) -> Result<(usize, usize), String> {
        if !self.cur.rest.is_empty() {
            return Err("trailing bytes after last company".to_string());
        }
        if self.seen_tokens != self.tokens {
            return Err("header token count disagrees with body".to_string());
        }
        Ok(self.span)
    }
}

/// Little-endian field reader over the bytes not yet read.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let (head, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or_else(|| "truncated shard".to_string())?;
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let (head, rest) = self
            .rest
            .split_first_chunk()
            .ok_or_else(|| "truncated shard".to_string())?;
        self.rest = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, String> {
        self.array().map(u8::from_le_bytes)
    }

    fn u16(&mut self) -> Result<u16, String> {
        self.array().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Result<u32, String> {
        self.array().map(u32::from_le_bytes)
    }

    fn i32(&mut self) -> Result<i32, String> {
        self.array().map(i32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, String> {
        self.array().map(u64::from_le_bytes)
    }
}

/// Writes an in-memory corpus out as a shard store (test/tooling helper; the
/// streaming generator in `hlm-datagen` never materialises the corpus).
pub fn write_corpus_sharded(
    corpus: &Corpus,
    dir: impl Into<PathBuf>,
    n_shards: usize,
) -> Result<ShardStore, ShardError> {
    let size = aligned_shard_size(corpus.len(), n_shards);
    let mut w = ShardWriter::create(dir, corpus.vocab().clone(), size)?;
    for chunk in corpus.companies().chunks(size) {
        w.write_shard(chunk)?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// The test binary's allocator: the system one, noting the largest
    /// single request each thread makes, so the decoder sweep can catch a
    /// buffer sized by a header field instead of by the bytes at hand.
    struct PeakAlloc;

    thread_local! {
        static PEAK: Cell<usize> = const { Cell::new(0) };
    }

    fn note(size: usize) {
        // `try_with`: a thread being torn down has no slot left.
        let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
    }

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; `note` only updates a
    // const-initialised thread-local `Cell`, which neither allocates nor
    // unwinds.
    unsafe impl GlobalAlloc for PeakAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static ALLOC: PeakAlloc = PeakAlloc;

    /// Runs both decoders over `bytes`, with no checksum in front, and
    /// returns the company decode. Panics if they disagree, or if either
    /// reserves more than the input's length permits: a record takes at
    /// least `MIN_RECORD_BYTES` and an event `EVENT_BYTES`, so no buffer
    /// (an 80-byte `Company` per record, a doubling event `Vec`) needs more
    /// than three bytes per input byte.
    fn decode_both(bytes: &[u8]) -> DecodeResult<Vec<Company>> {
        PEAK.with(|p| p.set(0));
        let sets = decode_product_sets(bytes, 38);
        let companies = decode_companies(bytes, 38);
        let peak = PEAK.with(Cell::get);
        assert!(
            peak <= 64 + 3 * bytes.len(),
            "a {}-byte input reserved {peak} bytes",
            bytes.len()
        );
        match (&sets, &companies) {
            (Ok((span, sets)), Ok((same, companies))) => {
                assert_eq!(span, same);
                assert_eq!(*sets, ProductSets::from_companies(companies));
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            _ => panic!("decoders disagree: {sets:?} vs {companies:?}"),
        }
        companies
    }

    /// A valid shard file of four companies (one to four events each): the
    /// one file of `tiny_corpus(4)` written as a store.
    fn valid_shard() -> Vec<u8> {
        encode_shard(0, 4, tiny_corpus(4).companies())
    }

    /// Offset of company `i`'s first stored event in a shard of `companies`.
    fn events_at(companies: &[Company], i: usize) -> usize {
        let record =
            |c: &Company| MIN_RECORD_BYTES + c.name.len() + EVENT_BYTES * c.product_count();
        let before: usize = companies[..i].iter().map(record).sum();
        32 + before + MIN_RECORD_BYTES + companies[i].name.len()
    }

    /// Replaces shard `s`'s file with `bytes` and re-seals its manifest
    /// entry, so only the decoder can object.
    fn reseal(store: &ShardStore, s: usize, bytes: &[u8]) -> ShardStore {
        let mut manifest = store.manifest().clone();
        let entry = &mut manifest.shards[s];
        (entry.bytes, entry.checksum) = (bytes.len() as u64, fnv1a(bytes));
        std::fs::write(store.dir().join(&entry.file), bytes).unwrap();
        let text = serde_json::to_string(&manifest).unwrap();
        std::fs::write(store.dir().join(MANIFEST_FILE), text).unwrap();
        ShardStore::open(store.dir()).unwrap()
    }

    fn tiny_corpus(n: usize) -> Corpus {
        let vocab = Vocabulary::standard();
        let companies = (0..n)
            .map(|i| {
                let mut c = Company::new(
                    10_000 + i as u64,
                    format!("company_{i}"),
                    Sic2((i % 83) as u8),
                    (i % 5) as u16,
                );
                c.site_count = 1 + (i % 3) as u32;
                c.employees = 10 * i as u32;
                c.revenue_musd = 0.25 * i as f64;
                for j in 0..(1 + i % 4) {
                    c.add_event(InstallEvent {
                        product: ProductId(((i * 7 + j * 11) % 38) as u16),
                        first_seen: Month::from_ym(2000 + (j as i32 % 10), 1 + (i as u32 % 12)),
                        last_seen: Month::from_ym(2015, 6),
                        confidence: 0.5 + 0.1 * j as f32,
                    });
                }
                c
            })
            .collect();
        Corpus::new(vocab, companies)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hlm_shard_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_preserves_companies_bit_for_bit() {
        let corpus = tiny_corpus(200);
        let dir = tmp_dir("round_trip");
        let store = write_corpus_sharded(&corpus, &dir, 3).unwrap();
        assert_eq!(store.n_companies(), 200);
        assert_eq!(
            store.n_shards(),
            200usize.div_ceil(aligned_shard_size(200, 3))
        );
        assert_eq!(store.total_tokens(), corpus.total_tokens());
        assert_eq!(store.vocab(), corpus.vocab());
        let mut all = Vec::new();
        for item in store.reader() {
            let (s, companies) = item.unwrap();
            let (lo, hi) = store.shard_span(s);
            assert_eq!(companies.len(), hi - lo);
            all.extend(companies);
        }
        assert_eq!(all.as_slice(), corpus.companies());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corpus_is_a_single_shard_source() {
        let corpus = tiny_corpus(70);
        assert_eq!(CorpusSource::n_shards(&corpus), 1);
        assert_eq!(corpus.shard_span(0), (0, 70));
        assert_eq!(CorpusSource::total_tokens(&corpus), corpus.total_tokens());
    }

    #[test]
    fn tampered_shard_is_rejected() {
        let corpus = tiny_corpus(64);
        let dir = tmp_dir("tamper");
        let store = write_corpus_sharded(&corpus, &dir, 1).unwrap();
        let path = dir.join(&store.manifest().shards[0].file);
        let good = std::fs::read(&path).unwrap();
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xff;
        // A flipped byte, then a file that is empty, cut, extended, another
        // valid shard, or constant bytes: each fails both readers.
        let replacements = [
            flipped,
            Vec::new(),
            good[..good.len() - 1].to_vec(),
            [&good[..], &[0]].concat(),
            valid_shard(),
            vec![0xa5; good.len()],
        ];
        for bytes in replacements {
            std::fs::write(&path, &bytes).unwrap();
            let err = store.read_shard(0).unwrap_err().to_string();
            assert!(err.contains("shard 0") && err.contains("checksum"), "{err}");
            let err = store.product_sets(0).unwrap_err().to_string();
            assert!(err.contains("shard 0") && err.contains("checksum"), "{err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inconsistent_manifest_is_rejected() {
        let corpus = tiny_corpus(130);
        let dir = tmp_dir("manifest");
        let store = write_corpus_sharded(&corpus, &dir, 2).unwrap();
        let mut manifest = store.manifest().clone();
        manifest.total_tokens += 1;
        let path = dir.join(MANIFEST_FILE);
        std::fs::write(&path, serde_json::to_string(&manifest).unwrap()).unwrap();
        assert!(ShardStore::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aligned_shard_size_is_aligned_and_covers() {
        for n in [1usize, 63, 64, 65, 1000, 4096] {
            for shards in 1..6 {
                let size = aligned_shard_size(n, shards);
                assert_eq!(size % SHARD_ALIGN, 0);
                assert!(size * shards >= n, "n={n} shards={shards} size={size}");
            }
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn every_truncation_or_extension_of_a_shard_is_an_error() {
        let bytes = valid_shard();
        let (span, companies) = decode_both(&bytes).unwrap();
        assert_eq!(
            (span, companies.as_slice()),
            ((0, 4), tiny_corpus(4).companies())
        );
        for len in 0..bytes.len() {
            assert!(decode_both(&bytes[..len]).is_err(), "cut to {len} bytes");
        }
        assert!(decode_both(&[&bytes[..], &[0]].concat()).is_err());
    }

    #[test]
    fn every_bit_flip_is_caught_by_the_walk_or_the_checksum() {
        let corpus = tiny_corpus(4);
        let bytes = valid_shard();
        let dir = tmp_dir("bit_flips");
        let store = write_corpus_sharded(&corpus, &dir, 1).unwrap();
        let path = dir.join(&store.manifest().shards[0].file);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        let original = format!("{:?}", corpus.companies());
        let mut caught_by_walk = 0;
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            // A flip in a free field (a name letter, a date) passes the
            // walk, but then it must show in what was decoded (compared
            // through `Debug`, which tells -0.0 from 0.0).
            match decode_both(&flipped) {
                Err(_) => caught_by_walk += 1,
                Ok((span, companies)) => assert!(
                    span != (0, 4) || format!("{companies:?}") != original,
                    "bit {bit} changed nothing"
                ),
            }
            // Through the store the checksum catches every flip.
            std::fs::write(&path, &flipped).unwrap();
            assert!(store.read_shard(0).is_err(), "bit {bit}");
            assert!(store.product_sets(0).is_err(), "bit {bit}");
        }
        assert!(caught_by_walk > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stored_product_sets_match_the_company_path() {
        let corpus = tiny_corpus(200);
        let dir = tmp_dir("product_sets");
        let store = write_corpus_sharded(&corpus, &dir, 3).unwrap();
        let size = store.manifest().shard_size as usize;
        let (lo, hi) = store.shard_span(store.n_shards() - 1);
        assert!(hi - lo < size, "the last shard must be short");
        let mem = MemShardSource::new(&corpus, size);
        for s in 0..store.n_shards() {
            let sets = store.product_sets(s).unwrap();
            assert_eq!(sets, mem.product_sets(s).unwrap(), "shard {s}");
            let (lo, hi) = store.shard_span(s);
            assert_eq!(sets.offsets.len(), hi - lo + 1);
            for (i, c) in corpus.companies()[lo..hi].iter().enumerate() {
                let set = &sets.products[sets.offsets[i]..sets.offsets[i + 1]];
                assert_eq!(set, c.product_set(), "company {}", lo + i);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_resealed_bad_shard_is_rejected_by_both_readers() {
        let corpus = tiny_corpus(64);
        let dir = tmp_dir("resealed");
        let store = write_corpus_sharded(&corpus, &dir, 1).unwrap();
        let good = std::fs::read(dir.join(&store.manifest().shards[0].file)).unwrap();
        // Company 3 holds four events; the product of its second is edited.
        let at = events_at(corpus.companies(), 3);
        let with_second_product = |product: [u8; 2]| {
            let mut bytes = good.clone();
            bytes[at + EVENT_BYTES..at + EVENT_BYTES + 2].copy_from_slice(&product);
            bytes
        };
        let cases = [
            (
                with_second_product([good[at], good[at + 1]]),
                "duplicate product",
            ),
            (
                with_second_product(38u16.to_le_bytes()),
                "outside the vocabulary",
            ),
            (
                encode_shard(64, 128, corpus.companies()),
                "disagrees with manifest",
            ),
        ];
        for (bytes, why) in cases {
            let store = reseal(&store, 0, &bytes);
            let err = store.read_shard(0).unwrap_err().to_string();
            assert!(err.contains(why), "{err}");
            let err = store.product_sets(0).unwrap_err().to_string();
            assert!(err.contains(why), "{err}");
        }
        // Re-sealing the original bytes reads back, so each edit was the fault.
        let store = reseal(&store, 0, &good);
        assert_eq!(store.read_shard(0).unwrap(), corpus.companies());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes, bare or behind the magic and a header claiming
        /// any span (form 1) or a short one that the bytes must fill
        /// (form 2): always an error, never a panic or a buffer sized by
        /// the claim.
        #[test]
        fn arbitrary_bytes_are_an_error(
            span in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..6),
            tokens in 0u64..u64::MAX,
            form in 0u8..3,
            tail in prop::collection::vec(0u8..=255, 0..300),
        ) {
            let (lo, far, near) = span;
            let mut bytes = Vec::new();
            if form > 0 {
                let hi = if form == 1 { far } else { lo.saturating_add(near) };
                let tokens = if form == 1 { tokens } else { tokens % 16 };
                bytes.extend_from_slice(SHARD_MAGIC);
                bytes.extend([lo, hi, tokens].iter().flat_map(|v| v.to_le_bytes()));
            }
            bytes.extend(tail);
            prop_assert!(decode_both(&bytes).is_err());
        }
    }
}
