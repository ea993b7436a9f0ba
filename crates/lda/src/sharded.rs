//! The collapsed-Gibbs driver: AD-LDA sweeps over ordered document shards.
//!
//! Both Gibbs trainers run the one sweep loop in this module. They differ
//! only in where a shard's sampler state — its flat token arrays plus the
//! mutable `tok_z` assignments and `n_dk` doc-topic rows — lives between
//! visits, and the trainer type picks that home:
//!
//! * **Resident** ([`GibbsTrainer`](crate::GibbsTrainer)): the documents
//!   are one shard whose arrays are built once and stay in RAM.
//! * **Spilled** ([`ShardedGibbsTrainer`]): one shard of documents is in
//!   memory at a time; between visits its state lives in a versioned,
//!   checksummed spill file under the work directory. The fit reads each
//!   shard from its source only when it starts or resumes, writing the
//!   shard's flat tokens to a token record beside the spills; every visit
//!   builds its token arrays from that record, in the buffers of the shard
//!   visited before. A visit builds only what the sampler cannot derive:
//!   no per-token document index (the kernels walk document starts), no
//!   weight array for a unit-weight shard, and no doc-topic rows that the
//!   sampling pass can count chunk by chunk.
//!
//! The result is bit-identical at any shard and thread count. That rests
//! on four invariants:
//!
//! 1. **Init.** Token topics are drawn from one sequential RNG in global
//!    document order; visiting shards in order consumes the identical
//!    stream.
//! 2. **Chunk streams.** Shard spans are multiples of the sweep's document
//!    chunk, so a shard-local chunk plus the shard's global chunk offset
//!    (`SweepCtx::chunk_base`) addresses exactly the documents — and the
//!    `(seed, sweep, chunk)` RNG stream — of a one-shard sweep.
//! 3. **Ordered merge.** Every chunk samples against the immutable
//!    sweep-start snapshot; per-chunk count deltas are folded in global
//!    chunk order — the same additions, on the same values, in the same
//!    order at any layout (hlm-par's ordered-reduction contract).
//! 4. **Exact state.** Spill and token records store the `f64` bits
//!    verbatim (a doc-topic cell left out is `+0.0`). The one value
//!    re-derived is a unit-weight shard's doc-topic rows, which its spill
//!    record leaves out and each chunk of the next sampling pass counts
//!    from its own `tok_z`: a cell is a sum of ±1.0 steps from `+0.0`, an
//!    exact integer, and `1.0 - 1.0` is `+0.0`, so the counted bits are the
//!    sampled ones.
//!
//! Checkpoints are per *shard step* (one shard of one sweep; with one
//! resident shard, one sweep). Both kinds carry the same small global state
//! as JSON. A spilled run's per-shard state stays in the spill files,
//! versioned by completed sweeps so a kill at any step boundary resumes
//! bit-identically; a resident checkpoint also carries its shard's spill
//! record and is self-contained.

use crate::gibbs::{
    accumulate_phi_row, build_views, delta_stride, gibbs_log_likelihood, merge_chunk_delta,
    minka_alpha_accumulate, minka_alpha_finish, sampler_counter, sweep_chunks, SweepCtx,
    WordAliasTables, DOC_CHUNK, GIBBS_CHECKPOINT_KIND,
};
use crate::model::{LdaConfig, LdaModel, SamplerChoice};
use crate::WeightedDoc;
use hlm_linalg::Matrix;
use hlm_par::Pool;
use hlm_resilience::{Checkpoint, ResilienceError, TrainControl};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// A corpus of weighted documents arriving in ordered shards.
///
/// Contract: shard spans partition `0..n_docs()` contiguously and in order,
/// and every span except the last is a multiple of the Gibbs document chunk
/// (64; [`hlm_corpus::shard::SHARD_ALIGN`] keeps on-disk stores aligned).
/// `shard_docs(s)` must return the same documents every time it is called:
/// a Gibbs fit reads each shard once when it starts and once when it
/// resumes, and online VB reads each shard once per epoch.
pub trait DocShardSource {
    /// Total number of documents.
    fn n_docs(&self) -> usize;
    /// Number of shards.
    fn n_shards(&self) -> usize;
    /// Half-open global document range of shard `s`.
    fn shard_span(&self, s: usize) -> (usize, usize);
    /// The documents of shard `s`, in global order.
    ///
    /// # Errors
    /// [`ResilienceError::Corrupt`] when a stored shard cannot be read back
    /// intact; the fit stops with it.
    fn shard_docs(&self, s: usize) -> Result<DocBatch, ResilienceError>;
}

/// A shard's documents, flattened: document `d` is
/// `tokens[doc_start[d]..doc_start[d + 1]]`.
#[derive(Debug, Clone, PartialEq)]
pub struct DocBatch {
    /// One start offset per document into `tokens`, plus the end; starts
    /// at 0.
    pub doc_start: Vec<usize>,
    /// Every document's `(word, weight)` tokens, document after document.
    pub tokens: Vec<(usize, f64)>,
}

impl DocBatch {
    /// Flattens `docs`, in order.
    pub(crate) fn from_docs(docs: &[WeightedDoc]) -> Self {
        let mut doc_start = Vec::with_capacity(docs.len() + 1);
        doc_start.push(0);
        let mut tokens = Vec::with_capacity(docs.iter().map(Vec::len).sum());
        for doc in docs {
            tokens.extend_from_slice(doc);
            doc_start.push(tokens.len());
        }
        DocBatch { doc_start, tokens }
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.doc_start.len().saturating_sub(1)
    }

    /// True when the batch holds no documents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Document `d`'s tokens.
    pub fn doc(&self, d: usize) -> &[(usize, f64)] {
        &self.tokens[self.doc_start[d]..self.doc_start[d + 1]]
    }

    /// Every document's tokens, in order.
    pub fn docs(&self) -> impl ExactSizeIterator<Item = &[(usize, f64)]> + Clone {
        self.doc_start.windows(2).map(|w| &self.tokens[w[0]..w[1]])
    }
}

/// The documents of a resident `&[WeightedDoc]` as token slices, the form
/// [`Shard::new`] and [`Shard::draw_topics`] read.
fn doc_slices(docs: &[WeightedDoc]) -> impl ExactSizeIterator<Item = &[(usize, f64)]> + Clone {
    docs.iter().map(Vec::as_slice)
}

/// An in-memory document slice exposed as aligned shards — the reference
/// implementation the streaming path is tested against.
pub struct MemDocShards<'a> {
    docs: &'a [WeightedDoc],
    shard_size: usize,
}

impl<'a> MemDocShards<'a> {
    /// Splits `docs` into `n_shards` near-equal aligned shards.
    pub fn new(docs: &'a [WeightedDoc], n_shards: usize) -> Self {
        assert!(n_shards > 0, "need at least one shard");
        let raw = docs.len().div_ceil(n_shards).max(1);
        Self::with_shard_size(docs, raw.div_ceil(DOC_CHUNK) * DOC_CHUNK)
    }

    /// Splits `docs` into shards of exactly `shard_size` documents (last one
    /// short). `shard_size` must be a positive multiple of 64.
    pub(crate) fn with_shard_size(docs: &'a [WeightedDoc], shard_size: usize) -> Self {
        assert!(
            shard_size > 0 && shard_size.is_multiple_of(DOC_CHUNK),
            "shard_size must be a positive multiple of {DOC_CHUNK}"
        );
        MemDocShards { docs, shard_size }
    }
}

impl DocShardSource for MemDocShards<'_> {
    fn n_docs(&self) -> usize {
        self.docs.len()
    }

    fn n_shards(&self) -> usize {
        self.docs.len().div_ceil(self.shard_size).max(1)
    }

    fn shard_span(&self, s: usize) -> (usize, usize) {
        let lo = s * self.shard_size;
        (
            lo.min(self.docs.len()),
            (lo + self.shard_size).min(self.docs.len()),
        )
    }

    fn shard_docs(&self, s: usize) -> Result<DocBatch, ResilienceError> {
        let (lo, hi) = self.shard_span(s);
        Ok(DocBatch::from_docs(&self.docs[lo..hi]))
    }
}

/// Checkpoint kind tag for sharded collapsed-Gibbs runs.
pub const SHARDED_GIBBS_CHECKPOINT_KIND: &str = "lda-gibbs-sharded";

/// The global part of a Gibbs checkpoint, shared by both kinds. Per-shard
/// token assignments and doc-topic rows are *not* here: a spilled run keeps
/// them in versioned spill files (`step` pins which version each shard must
/// hold), a resident checkpoint carries its one shard's spill record.
#[derive(Serialize, Deserialize)]
struct GlobalState {
    /// Shard steps completed: `sweep * n_shards + shards_done_in_sweep`.
    step: u64,
    n_shards: u64,
    n_docs: u64,
    alpha: f64,
    /// Sweep-start snapshot tables (the tables every chunk samples against).
    n_kw: Matrix,
    n_k: Vec<f64>,
    /// Merge accumulator: snapshot plus the deltas of the shards already
    /// processed this sweep. Absent when a sweep is one shard, whose deltas
    /// fold straight into the snapshot (no later shard still samples
    /// against it).
    acc_kw: Option<Matrix>,
    acc_k: Option<Vec<f64>>,
    /// Partial Minka-update sums for a mid-sweep kill on an alpha-update
    /// sweep.
    minka_num: f64,
    minka_den: f64,
    phi_acc: Matrix,
    n_samples: u64,
}

impl GlobalState {
    fn fresh(cfg: &LdaConfig, n_docs: usize, n_shards: usize) -> Self {
        let (k, m) = (cfg.n_topics, cfg.vocab_size);
        GlobalState {
            step: 0,
            n_shards: n_shards as u64,
            n_docs: n_docs as u64,
            alpha: cfg.effective_alpha(),
            n_kw: Matrix::zeros(k, m),
            n_k: vec![0.0; k],
            acc_kw: (n_shards > 1).then(|| Matrix::zeros(k, m)),
            acc_k: (n_shards > 1).then(|| vec![0.0; k]),
            minka_num: 0.0,
            minka_den: 0.0,
            phi_acc: Matrix::zeros(k, m),
            n_samples: 0,
        }
    }

    /// Checks table shapes against the configuration (a mismatch) and every
    /// value for sanity (corruption), so a damaged payload can neither index
    /// out of range nor build an invalid model.
    fn check(&self, cfg: &LdaConfig) -> Result<(), ResilienceError> {
        let (k, m) = (cfg.n_topics, cfg.vocab_size);
        let shaped = |t: &Matrix| t.rows() == k && t.cols() == m && t.as_slice().len() == k * m;
        let acc = self.acc_kw.as_ref();
        if !(shaped(&self.n_kw) && shaped(&self.phi_acc) && acc.is_none_or(shaped))
            || self.n_k.len() != k
            || self.acc_k.as_ref().is_some_and(|acc| acc.len() != k)
        {
            return Err(ResilienceError::Mismatch {
                reason: "checkpoint count-table shapes do not match the configuration".to_string(),
            });
        }
        // Counts must be finite, and topic totals above -Mβ so every
        // `1 / (n_k + Mβ)` the samplers take stays positive. Phi rows are
        // sums of positive terms; alpha is positive.
        let counts = [self.n_kw.as_slice(), acc.map_or(&[], Matrix::as_slice)].concat();
        let totals = [&self.n_k, self.acc_k.as_deref().unwrap_or_default()].concat();
        let beta_sum = cfg.beta * m as f64;
        let scalars = [self.alpha, self.minka_num, self.minka_den];
        let phi_ok =
            |row: &[f64]| row.iter().all(|&p| p > 0.0) && row.iter().sum::<f64>().is_finite();
        if self.alpha > 0.0
            && scalars.iter().all(|v| v.is_finite())
            && counts.iter().all(|c| c.is_finite())
            && totals.iter().all(|&t| t.is_finite() && t + beta_sum > 0.0)
            && (self.n_samples == 0 || (0..k).all(|t| phi_ok(self.phi_acc.row(t))))
        {
            return Ok(());
        }
        Err(ResilienceError::corrupt(
            "gibbs checkpoint holds non-finite or out-of-range values",
        ))
    }

    /// The posterior-mean model of the collected phi samples.
    fn into_model(self, beta: f64) -> Result<LdaModel, ResilienceError> {
        if self.n_samples == 0 {
            return Err(ResilienceError::Mismatch {
                reason: "checkpoint predates burn-in: no phi samples collected".to_string(),
            });
        }
        let mut phi = self.phi_acc;
        phi.scale_mut(1.0 / self.n_samples as f64);
        // Guard against accumulated rounding before the model's row check.
        phi.normalize_rows();
        Ok(LdaModel::new(phi, self.alpha, beta))
    }
}

/// Out-of-core collapsed Gibbs trainer. See the module docs for the
/// bit-identity argument; `work_dir` holds the per-shard spill files and
/// token records, and its spill files must survive (together with the
/// checkpoint store) for kill/resume.
#[derive(Debug, Clone)]
pub struct ShardedGibbsTrainer {
    cfg: LdaConfig,
    work_dir: PathBuf,
}

impl ShardedGibbsTrainer {
    /// Creates a trainer spilling per-shard state under `work_dir`.
    ///
    /// # Panics
    /// Panics if the configuration is inconsistent.
    pub fn new(cfg: LdaConfig, work_dir: impl Into<PathBuf>) -> Self {
        cfg.validate();
        ShardedGibbsTrainer {
            cfg,
            work_dir: work_dir.into(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &LdaConfig {
        &self.cfg
    }

    /// Trains on a sharded source and returns the estimated model —
    /// bit-identical to `GibbsTrainer::fit` on the concatenated documents.
    ///
    /// # Panics
    /// Panics on malformed documents, a shard the source cannot read, or an
    /// I/O failure in the work directory.
    pub fn fit<S: DocShardSource + ?Sized>(&self, source: &S) -> LdaModel {
        self.fit_resumable(source, &mut TrainControl::noop(), None)
            .expect("noop control cannot interrupt training")
    }

    /// Like [`fit`](Self::fit), but consults `ctrl` at every shard-step
    /// boundary (one shard of one sweep — so watchdog iterations count shard
    /// steps, not sweeps) and optionally resumes from a checkpoint written
    /// by an earlier run over the same source and work directory.
    pub fn fit_resumable<S: DocShardSource + ?Sized>(
        &self,
        source: &S,
        ctrl: &mut TrainControl,
        resume: Option<&Checkpoint>,
    ) -> Result<LdaModel, ResilienceError> {
        let shard = Shard {
            k: self.cfg.n_topics,
            ..Shard::default()
        };
        let home = Home::Spilled(&self.work_dir, shard);
        drive(&self.cfg, source, home, ctrl, resume)
    }

    /// Materializes a model directly from a checkpoint — the rollback path.
    /// Fails if the checkpoint predates burn-in (no phi samples yet).
    pub fn model_from_checkpoint(&self, ckpt: &Checkpoint) -> Result<LdaModel, ResilienceError> {
        model_from_checkpoint(&self.cfg, SHARDED_GIBBS_CHECKPOINT_KIND, ckpt)
    }
}

/// Magic bytes opening every spill record.
const SPILL_MAGIC: &[u8; 8] = b"HLMGSPL3";
/// Spill record header: magic, shard, version, doc count, token count.
const SPILL_HEADER: usize = 40;
/// Bytes of one stored doc-topic cell: a `u16` topic and the `f64` bits.
const SPILL_CELL: usize = 10;
/// The earlier spill layouts, refused rather than decoded, with what each
/// one stored that the current layout does not.
const OLD_SPILL_LAYOUTS: [(&[u8; 8], &str); 2] = [
    (b"HLMGSPL1", "dense doc-topic rows, byte-wise checksum"),
    (b"HLMGSPL2", "doc-topic rows of unit-weight shards"),
];
/// Magic bytes opening every token record.
const TOKEN_MAGIC: &[u8; 8] = b"HLMGTOK1";
/// Token record header: magic, shard, doc count, token count, unit-weight
/// flag.
const TOKEN_HEADER: usize = 40;
/// Magic bytes opening a resident (`lda-gibbs`) checkpoint payload:
/// `RESIDENT_MAGIC`, the spill record's length (u64 LE), the record, then
/// the global state as JSON.
const RESIDENT_MAGIC: &[u8; 8] = b"HLMGRES1";

/// Why an `lda-gibbs` payload written before the resident format is refused.
const OLD_RESIDENT_FORMAT: &str = "lda-gibbs payload is in the old all-JSON format; \
    the format changed to a JSON global state plus a binary spill record, and old \
    checkpoints are rejected rather than decoded (retrain to replace it)";

/// One shard in memory: its flat token arrays (document `d` is tokens
/// `doc_start[d]..doc_start[d + 1]`), its sampler state — one topic per
/// token and the row-major doc-topic rows — and the per-chunk delta arena
/// its sweeps merge from.
#[derive(Default)]
struct Shard {
    k: usize,
    /// Every token weighs exactly 1.0, so each doc-topic row is its
    /// document's count of `tok_z`, the spill record leaves the rows out
    /// and the shard holds no weight array.
    unit: bool,
    tok_word: Vec<u32>,
    /// Per-token weights; empty when `unit`.
    tok_weight: Vec<f64>,
    doc_start: Vec<usize>,
    tok_z: Vec<u16>,
    n_dk: Vec<f64>,
    /// `n_dk` does not hold the rows a unit-weight spill record left out;
    /// the next sampling pass counts them from `tok_z`, chunk by chunk.
    rows_uncounted: bool,
    deltas: Vec<f64>,
}

impl Shard {
    /// Flattens `docs` into token arrays; the state is drawn or loaded next.
    fn new<'d>(
        docs: impl ExactSizeIterator<Item = &'d [(usize, f64)]> + Clone,
        k: usize,
        m: usize,
    ) -> Self {
        let n_tokens: usize = docs.clone().map(<[_]>::len).sum();
        let mut shard = Shard {
            k,
            unit: true,
            tok_word: Vec::with_capacity(n_tokens),
            tok_weight: Vec::with_capacity(n_tokens),
            doc_start: Vec::with_capacity(docs.len() + 1),
            ..Shard::default()
        };
        shard.doc_start.push(0);
        for doc in docs {
            for &(w, weight) in doc {
                check_token(w, weight, m);
                shard.unit &= weight == 1.0;
                shard.tok_word.push(w as u32);
                shard.tok_weight.push(weight);
            }
            shard.doc_start.push(shard.tok_word.len());
        }
        if shard.unit {
            shard.tok_weight = Vec::new();
        }
        shard
    }

    /// Fills the token arrays with those of shard `s`, `n_docs` documents,
    /// from its token record (see [`token_record`]), reusing the arrays'
    /// buffers. The checksum, the header and the record's length are
    /// checked before anything is allocated, so every buffer is bounded by
    /// the bytes at hand.
    fn read_tokens(
        &mut self,
        record: &[u8],
        s: usize,
        n_docs: usize,
        m: usize,
    ) -> Result<(), ResilienceError> {
        let what = format!("token record of shard {s}");
        let corrupt = |why: &str| ResilienceError::corrupt(format!("{what} {why}"));
        let (body, trailer) = record.split_at(record.len().saturating_sub(8));
        if body.len() < TOKEN_HEADER || fnv1a_words(body).to_le_bytes() != trailer {
            return Err(corrupt("is truncated or damaged"));
        }
        let field = |i: usize| {
            let at = 8 + 8 * i;
            u64::from_le_bytes(body[at..at + 8].try_into().expect("an 8-byte field"))
        };
        if !body.starts_with(TOKEN_MAGIC) || field(0) != s as u64 || field(1) != n_docs as u64 {
            let reason = format!("{what} does not hold this shard's documents");
            return Err(ResilienceError::Mismatch { reason });
        }
        let unit = match field(3) {
            0 => false,
            1 => true,
            _ => return Err(corrupt("has a bad unit-weight flag")),
        };
        // Two bytes a word, plus eight of weight unless every weight is 1.0.
        let per_token = if unit { 2 } else { 10 };
        let rest = &body[TOKEN_HEADER..];
        let n_tokens = usize::try_from(field(2)).ok().filter(|&n| {
            let len = n
                .checked_mul(per_token)
                .and_then(|b| b.checked_add(n_docs * 4));
            len == Some(rest.len())
        });
        let Some(n_tokens) = n_tokens else {
            return Err(corrupt("does not match its header's length"));
        };
        let (ends, rest) = rest.split_at(n_docs * 4);
        let (words, weights) = rest.split_at(n_tokens * 2);
        self.unit = unit;
        self.doc_start.clear();
        self.doc_start.push(0);
        let mut last = 0;
        for end in ends.as_chunks().0 {
            let end = u32::from_le_bytes(*end) as usize;
            if end < last || end > n_tokens {
                return Err(corrupt("has document ends out of order"));
            }
            self.doc_start.push(end);
            last = end;
        }
        if last != n_tokens {
            return Err(corrupt("has tokens after its last document"));
        }
        self.tok_word.clear();
        let words = words.as_chunks().0.iter();
        self.tok_word
            .extend(words.map(|w| u32::from(u16::from_le_bytes(*w))));
        if self.tok_word.iter().any(|&w| w as usize >= m) {
            return Err(corrupt("has a word outside the vocabulary"));
        }
        self.tok_weight.clear();
        let bits = weights.as_chunks().0.iter();
        self.tok_weight
            .extend(bits.map(|b| f64::from_bits(u64::from_le_bytes(*b))));
        if !self.tok_weight.iter().all(|w| w.is_finite() && *w > 0.0) {
            return Err(corrupt("has a weight that is not positive and finite"));
        }
        Ok(())
    }

    /// Draws the initial topics of `docs` from the run's one sequential
    /// stream, in token order, into the state and the global tables. It
    /// needs no token arrays, so a spilled run's initial pass builds none.
    fn draw_topics<'d>(
        &mut self,
        docs: impl ExactSizeIterator<Item = &'d [(usize, f64)]> + Clone,
        rng: &mut StdRng,
        st: &mut GlobalState,
    ) {
        let k = self.k;
        self.tok_z = Vec::with_capacity(docs.clone().map(<[_]>::len).sum());
        self.n_dk = vec![0.0; docs.len() * k];
        for (d, doc) in docs.enumerate() {
            for &(w, weight) in doc {
                let z = rng.gen_range(0..k);
                self.tok_z.push(z as u16);
                self.n_dk[d * k + z] += weight;
                st.n_kw.add_at(z, w, weight);
                st.n_k[z] += weight;
            }
        }
    }

    /// Bytes of the state's spill record, for reserving its buffer.
    fn record_len(&self) -> usize {
        let len = SPILL_HEADER + self.tok_z.len() * 2 + 8;
        if self.unit {
            return len;
        }
        let cells = self.n_dk.iter().filter(|v| v.to_bits() != 0).count();
        len + self.n_dk.len() / self.k * 2 + cells * SPILL_CELL
    }

    /// Appends the state as a spill record: the header, raw `u16`
    /// assignments, the sparse doc-topic rows unless the shard is
    /// unit-weight, and a word-wise FNV-1a trailer over the record. A row is
    /// its cell count (`u16`), then `(u16 topic, f64 bits)` for every cell
    /// whose bits are not `+0.0`, in ascending topic order — so `-0.0` and
    /// every residue keep their bits.
    fn encode_state(&self, out: &mut Vec<u8>, shard: usize, version: u64) {
        let start = out.len();
        let docs = self.n_dk.len() / self.k;
        out.extend(spill_header(shard, version, docs, self.tok_z.len()));
        out.extend(self.tok_z.iter().flat_map(|z| z.to_le_bytes()));
        let rows = if self.unit { &[][..] } else { &self.n_dk[..] };
        for row in rows.chunks_exact(self.k) {
            let count_at = out.len();
            out.extend_from_slice(&[0; 2]);
            let mut count = 0u16;
            for (t, v) in row.iter().enumerate().filter(|(_, v)| v.to_bits() != 0) {
                out.extend_from_slice(&(t as u16).to_le_bytes());
                out.extend_from_slice(&v.to_bits().to_le_bytes());
                count += 1;
            }
            out[count_at..count_at + 2].copy_from_slice(&count.to_le_bytes());
        }
        let sum = fnv1a_words(&out[start..]);
        out.extend_from_slice(&sum.to_le_bytes());
    }

    /// Loads the state from a spill record that must hold exactly this
    /// shard's state at `version`, reusing the state's buffers. Sizes come
    /// from the shard's token arrays, never from the record, so no length
    /// field drives an allocation. A unit-weight record carries no rows:
    /// they are marked `rows_uncounted`, for the sampling pass to count in
    /// parallel.
    fn load_state(
        &mut self,
        record: &[u8],
        shard: usize,
        version: u64,
    ) -> Result<(), ResilienceError> {
        let what = format!("spill of shard {shard} v{version}");
        let corrupt = |why: &str| Err(ResilienceError::corrupt(format!("{what} {why}")));
        let old = OLD_SPILL_LAYOUTS
            .iter()
            .find(|(magic, _)| record.starts_with(*magic));
        if let Some((magic, stored)) = old {
            let magic = String::from_utf8_lossy(*magic);
            let reason = format!(
                "{what} is in the old {magic} layout ({stored}); the layout changed to \
                 HLMGSPL3, which rebuilds a unit-weight shard's doc-topic rows from its \
                 assignments, and old records are rejected rather than decoded (restart \
                 the fit to replace it)"
            );
            return Err(ResilienceError::Mismatch { reason });
        }
        let (body, trailer) = record.split_at(record.len().saturating_sub(8));
        if body.len() < SPILL_HEADER || fnv1a_words(body).to_le_bytes() != trailer {
            return corrupt("is truncated or damaged");
        }
        let (k, n_docs, n_tokens) = (self.k, self.doc_start.len() - 1, self.tok_word.len());
        if body[..SPILL_HEADER] != spill_header(shard, version, n_docs, n_tokens) {
            let reason = format!("{what} does not hold this shard's documents");
            return Err(ResilienceError::Mismatch { reason });
        }
        let Some((z_bytes, mut rows)) = body[SPILL_HEADER..].split_at_checked(n_tokens * 2) else {
            return corrupt("is cut short");
        };
        self.tok_z.clear();
        let z = z_bytes.as_chunks().0.iter();
        self.tok_z.extend(z.map(|b| u16::from_le_bytes(*b)));
        if self.tok_z.iter().any(|&z| usize::from(z) >= k) {
            return corrupt("has a topic out of range");
        }
        self.rows_uncounted = self.unit;
        if self.unit {
            if !rows.is_empty() {
                return corrupt("has bytes after its topic assignments");
            }
            // Whatever the buffer held is overwritten when the rows are
            // counted, so only its length is set here.
            self.n_dk.resize(n_docs * k, 0.0);
            return Ok(());
        }
        self.n_dk.clear();
        self.n_dk.resize(n_docs * k, 0.0);
        for row in self.n_dk.chunks_exact_mut(k) {
            let Some((count, rest)) = rows.split_first_chunk::<2>() else {
                return corrupt("is cut short");
            };
            let count = usize::from(u16::from_le_bytes(*count));
            let Some((cells, rest)) = rest.split_at_checked(count * SPILL_CELL) else {
                return corrupt("is cut short");
            };
            // Topics strictly ascend below K (so a row holds at most K
            // cells): `lo` is the smallest topic still allowed.
            let mut lo = 0;
            for [t0, t1, bits @ ..] in cells.as_chunks::<SPILL_CELL>().0 {
                let t = usize::from(u16::from_le_bytes([*t0, *t1]));
                if t < lo || t >= k {
                    return corrupt("has doc-topic cells out of order or out of range");
                }
                row[t] = f64::from_bits(u64::from_le_bytes(*bits));
                lo = t + 1;
            }
            rows = rest;
        }
        if !rows.is_empty() {
            return corrupt("has bytes after its last doc-topic row");
        }
        Ok(())
    }
}

/// FNV-1a over `bytes` read as `u64` LE words, then over the tail bytes one
/// at a time. Every step is a bijection of the running hash, so changing any
/// single word (or tail byte) always changes the sum.
fn fnv1a_words(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let (words, tail) = bytes.as_chunks::<8>();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        h = (h ^ u64::from_le_bytes(*w)).wrapping_mul(PRIME);
    }
    for &b in tail {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// A spill record's header: magic, shard, version, doc and token counts.
fn spill_header(shard: usize, version: u64, docs: usize, tokens: usize) -> Vec<u8> {
    let fields = [shard as u64, version, docs as u64, tokens as u64].into_iter();
    let fields = fields.flat_map(u64::to_le_bytes);
    SPILL_MAGIC.iter().copied().chain(fields).collect()
}

/// Shard `s`'s token record, and whether every weight in it is 1.0: the
/// header (magic, then shard, doc count, token count and the unit-weight
/// flag, `u64` LE each), each document's end offset (`u32` LE), each
/// token's word (`u16` LE), each token's weight bits (`u64` LE) only when
/// some weight is not 1.0, and a word-wise FNV-1a trailer.
///
/// # Panics
/// Panics on a token [`check_token`] rejects, a word past `u16`, or more
/// than `u32::MAX` tokens.
fn token_record(s: usize, batch: &DocBatch, m: usize) -> (Vec<u8>, bool) {
    let tokens = || batch.docs().flatten();
    let n_tokens = tokens().count();
    assert!(
        u32::try_from(n_tokens).is_ok(),
        "shard {s} holds over u32::MAX tokens"
    );
    let unit = tokens().all(|&(_, weight)| weight == 1.0);
    let per_token = if unit { 2 } else { 10 };
    let mut out = Vec::with_capacity(TOKEN_HEADER + batch.len() * 4 + n_tokens * per_token + 8);
    out.extend_from_slice(TOKEN_MAGIC);
    let fields = [s, batch.len(), n_tokens, usize::from(unit)];
    out.extend(fields.iter().flat_map(|&f| (f as u64).to_le_bytes()));
    let mut end = 0;
    for doc in batch.docs() {
        end += doc.len();
        out.extend_from_slice(&(end as u32).to_le_bytes());
    }
    for &(w, weight) in tokens() {
        check_token(w, weight, m);
        let w = u16::try_from(w).expect("a spilled fit's words fit in u16");
        out.extend_from_slice(&w.to_le_bytes());
    }
    if !unit {
        out.extend(tokens().flat_map(|&(_, weight)| weight.to_bits().to_le_bytes()));
    }
    let sum = fnv1a_words(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    (out, unit)
}

/// Rejects a token the sampler cannot hold.
///
/// # Panics
/// Panics on a word outside the vocabulary or a non-positive weight.
fn check_token(w: usize, weight: f64, m: usize) {
    assert!(w < m, "word {w} outside vocabulary of {m}");
    assert!(
        weight.is_finite() && weight > 0.0,
        "token weight must be positive, got {weight}"
    );
}

/// Where shard state lives between visits; the trainer type picks it.
enum Home<'a> {
    /// [`GibbsTrainer`](crate::GibbsTrainer): the documents are one shard
    /// whose arrays are built once and stay in RAM; its checkpoints carry
    /// the shard's spill record.
    Resident(Shard, &'a [WeightedDoc]),
    /// [`ShardedGibbsTrainer`]: one shard in memory at a time (the one
    /// being visited), kept in versioned spill files under the work
    /// directory between visits; its token arrays are rebuilt from the
    /// shard's token record at every visit, in the buffers of the shard
    /// visited before it.
    Spilled(&'a Path, Shard),
}

impl Home<'_> {
    /// The shard to sample at shard `s` of `sweep`, which holds `n_docs`
    /// documents.
    fn visit(
        &mut self,
        s: usize,
        sweep: u64,
        n_docs: usize,
        m: usize,
    ) -> Result<&mut Shard, ResilienceError> {
        match self {
            Home::Resident(shard, _) => Ok(shard),
            Home::Spilled(dir, shard) => {
                let _span = hlm_obs::global().span("lda.visit.load");
                let tokens = std::fs::read(token_path(dir, s))
                    .map_err(|e| ResilienceError::io("read token record", e))?;
                shard.read_tokens(&tokens, s, n_docs, m)?;
                let record = std::fs::read(spill_path(dir, s, sweep))
                    .map_err(|e| ResilienceError::io("read spill", e))?;
                shard.load_state(&record, s, sweep)?;
                Ok(shard)
            }
        }
    }

    /// Ends the visit of shard `s` in `sweep`: a spilled shard's state is
    /// written back as the next version.
    fn leave(&mut self, s: usize, sweep: u64) -> Result<(), ResilienceError> {
        let Home::Spilled(dir, shard) = self else {
            return Ok(());
        };
        let _span = hlm_obs::global().span("lda.visit.spill");
        write_spill(dir, s, sweep + 1, shard)
    }
}

/// [`GibbsTrainer::fit_resumable`](crate::GibbsTrainer::fit_resumable): the
/// documents as one resident shard.
pub(crate) fn fit_resident(
    cfg: &LdaConfig,
    docs: &[WeightedDoc],
    ctrl: &mut TrainControl,
    resume: Option<&Checkpoint>,
) -> Result<LdaModel, ResilienceError> {
    let shard = Shard::new(doc_slices(docs), cfg.n_topics, cfg.vocab_size);
    let home = Home::Resident(shard, docs);
    drive(cfg, &MemDocShards::new(docs, 1), home, ctrl, resume)
}

/// Materializes a model from a checkpoint of either kind, reading only the
/// global part — the rollback and warm-start path. Fails with
/// [`ResilienceError::Mismatch`] if it predates burn-in.
pub(crate) fn model_from_checkpoint(
    cfg: &LdaConfig,
    kind: &str,
    ckpt: &Checkpoint,
) -> Result<LdaModel, ResilienceError> {
    let (state, _) = decode_checkpoint(ckpt, kind, cfg)?;
    state.into_model(cfg.beta)
}

/// Encodes a checkpoint payload: the global state as JSON, after the
/// framed spill record of a resident shard (at version `state.step`).
fn encode_checkpoint(state: &GlobalState, home: &Home) -> Vec<u8> {
    let global = serde_json::to_string(state).expect("gibbs state serializes");
    let mut out = Vec::new();
    if let Home::Resident(shard, _) = home {
        out.reserve(16 + shard.record_len() + global.len());
        out.extend_from_slice(RESIDENT_MAGIC);
        out.extend_from_slice(&[0; 8]);
        shard.encode_state(&mut out, 0, state.step);
        // The length prefix is filled in from the record as encoded.
        let rec_len = (out.len() - 16) as u64;
        out[8..16].copy_from_slice(&rec_len.to_le_bytes());
    }
    out.extend_from_slice(global.as_bytes());
    out
}

/// Splits a checkpoint of `kind` into its checked global state and, for a
/// resident payload, the spill record before it (decoded only on resume).
fn decode_checkpoint<'c>(
    ckpt: &'c Checkpoint,
    kind: &str,
    cfg: &LdaConfig,
) -> Result<(GlobalState, &'c [u8]), ResilienceError> {
    if ckpt.kind != kind {
        return Err(ResilienceError::Mismatch {
            reason: format!("kind {} != {kind}", ckpt.kind),
        });
    }
    let (record, global) = match kind {
        GIBBS_CHECKPOINT_KIND if ckpt.payload.starts_with(b"{") => {
            return Err(ResilienceError::Mismatch {
                reason: OLD_RESIDENT_FORMAT.to_string(),
            })
        }
        GIBBS_CHECKPOINT_KIND => split_resident(&ckpt.payload).ok_or_else(|| {
            ResilienceError::corrupt("resident gibbs payload: bad magic or length")
        })?,
        _ => (&[][..], &ckpt.payload[..]),
    };
    let text = std::str::from_utf8(global)
        .map_err(|_| ResilienceError::corrupt("gibbs payload is not UTF-8"))?;
    let state: GlobalState = serde_json::from_str(text)
        .map_err(|e| ResilienceError::corrupt(format!("gibbs payload does not parse: {e}")))?;
    state.check(cfg)?;
    Ok((state, record))
}

/// Splits a resident payload into its spill record and the global JSON
/// after it; `None` on a bad magic or a record length past the end. A
/// truncated JSON object never parses, so every truncation fails.
fn split_resident(payload: &[u8]) -> Option<(&[u8], &[u8])> {
    let (len, rest) = payload
        .strip_prefix(RESIDENT_MAGIC)?
        .split_first_chunk::<8>()?;
    rest.split_at_checked(usize::try_from(u64::from_le_bytes(*len)).ok()?)
}

/// The collapsed-Gibbs sweep loop behind both trainers. `source` gives the
/// shard layout (and a spilled home's documents, read once when the fit
/// starts or resumes); `home` says where shard state lives between visits.
fn drive<S: DocShardSource + ?Sized>(
    cfg: &LdaConfig,
    source: &S,
    mut home: Home<'_>,
    ctrl: &mut TrainControl,
    resume: Option<&Checkpoint>,
) -> Result<LdaModel, ResilienceError> {
    let (k, m, beta) = (cfg.n_topics, cfg.vocab_size, cfg.beta);
    let beta_sum = beta * m as f64;
    let kind = cfg.sampler.resolve(k);
    let (n_docs, n_shards) = (source.n_docs(), source.n_shards());
    validate_spans(source);
    // Topics, and a spill row's cell count, are stored as `u16`; so are a
    // token record's words.
    assert!(k <= usize::from(u16::MAX), "at most {} topics", u16::MAX);
    if let Home::Spilled(dir, _) = &home {
        assert!(
            m <= 1 << 16,
            "a spilled fit holds at most {} words",
            1 << 16
        );
        std::fs::create_dir_all(dir).map_err(|e| ResilienceError::io("create work dir", e))?;
    }

    let mut st = match resume {
        Some(ckpt) => {
            let tag = match home {
                Home::Resident(..) => GIBBS_CHECKPOINT_KIND,
                Home::Spilled(..) => SHARDED_GIBBS_CHECKPOINT_KIND,
            };
            let (st, record) = decode_checkpoint(ckpt, tag, cfg)?;
            if st.n_docs != n_docs as u64 || st.n_shards != n_shards as u64 {
                return Err(ResilienceError::Mismatch {
                    reason: format!(
                        "checkpoint is for {} docs in {} shards, source has {n_docs} in {n_shards}",
                        st.n_docs, st.n_shards
                    ),
                });
            }
            match &mut home {
                Home::Resident(shard, _) => shard.load_state(record, 0, st.step)?,
                // Every shard must hold the spill version the checkpoint
                // expects: `sweep + 1` for shards already processed this
                // sweep, `sweep` for the rest.
                Home::Spilled(dir, _) => {
                    for s in 0..n_shards {
                        let v = expected_version(st.step, n_shards, s);
                        if !spill_path(dir, s, v).is_file() {
                            return Err(ResilienceError::Mismatch {
                                reason: format!(
                                    "work dir lacks spill version {v} for shard {s}; \
                                     cannot resume from step {}",
                                    st.step
                                ),
                            });
                        }
                    }
                    // The token records are rebuilt from the source, so a
                    // resumed fit reads the corpus it is given, and a
                    // damaged shard stops it here.
                    for s in 0..n_shards {
                        write_tokens(dir, s, &source.shard_docs(s)?, m)?;
                    }
                }
            }
            st
        }
        None => {
            // Fresh run: draw the initial topic assignments from one
            // sequential RNG in global document order, shard by shard.
            let mut st = GlobalState::fresh(cfg, n_docs, n_shards);
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            match &mut home {
                Home::Resident(shard, docs) => {
                    shard.draw_topics(doc_slices(docs), &mut rng, &mut st);
                }
                Home::Spilled(dir, _) => {
                    clear_work_dir(dir)?;
                    for s in 0..n_shards {
                        let batch = source.shard_docs(s)?;
                        let unit = write_tokens(dir, s, &batch, m)?;
                        let mut shard = Shard {
                            k,
                            unit,
                            ..Shard::default()
                        };
                        shard.draw_topics(batch.docs(), &mut rng, &mut st);
                        write_spill(dir, s, 0, &shard)?;
                    }
                }
            }
            st
        }
    };

    let pool = Pool::global();
    let rec = hlm_obs::global();
    // The word alias tables are a pure function of the sweep-start snapshot
    // `(n_kw, n_k)`, so rebuilding them at sweep start (or on a mid-sweep
    // resume, from the checkpointed snapshot) gives every shard of a sweep
    // the identical tables.
    let mut alias_tables = (kind == SamplerChoice::AliasMh).then(|| WordAliasTables::new(k, m));
    let stride = delta_stride(kind, k, m);
    let (mut sweep_mh_proposed, mut sweep_mh_accepted) = (0u64, 0u64);
    let start_step = st.step;
    let total_steps = cfg.n_iters as u64 * n_shards as u64;
    // Spill versions strictly below this are already pruned, per shard.
    let mut retained_lo: Vec<u64> = (0..n_shards)
        .map(|s| expected_version(start_step, n_shards, s))
        .collect();
    // Step of the newest saved checkpoint, the one a resume would use.
    let mut last_ckpt = resume.map(|_| start_step);
    let mut saves_seen = ctrl.saves();

    for step in start_step..total_steps {
        ctrl.begin_iteration(step)?;
        let sweep = step / n_shards as u64;
        let s = (step % n_shards as u64) as usize;
        if s == 0 {
            // Sweep start: the accumulator begins at the snapshot.
            if let (Some(kw), Some(kt)) = (st.acc_kw.as_mut(), st.acc_k.as_mut()) {
                kw.copy_from(&st.n_kw);
                kt.copy_from_slice(&st.n_k);
            }
            st.minka_num = 0.0;
            st.minka_den = 0.0;
        }
        if s == 0 || step == start_step {
            rec.add(sampler_counter(kind), 1);
            (sweep_mh_proposed, sweep_mh_accepted) = (0, 0);
            if let Some(tables) = alias_tables.as_mut() {
                tables.rebuild(&st.n_kw, &st.n_k, beta, beta_sum);
            }
        }
        let sweep_t0 = rec.is_enabled().then(std::time::Instant::now);

        // Document-sliced sweep of the shard: every chunk samples against
        // the sweep-start snapshot (its own assignments and doc-topic rows
        // are mutated in place — disjoint between chunks) on an RNG stream
        // keyed by (seed, sweep, global chunk); chunk_base lifts the
        // shard-local chunk ids to global ones.
        let (lo, hi) = source.shard_span(s);
        let shard = home.visit(s, sweep, hi - lo, m)?;
        let ctx = SweepCtx {
            doc_start: &shard.doc_start,
            tok_word: &shard.tok_word,
            tok_weight: (!shard.unit).then_some(&shard.tok_weight[..]),
            count_rows: shard.rows_uncounted,
            n_kw: &st.n_kw,
            n_k: &st.n_k,
            k,
            m,
            alpha: st.alpha,
            beta,
            beta_sum,
            seed: cfg.seed,
            sweep,
            chunk_base: lo / DOC_CHUNK,
            kind,
            alias: alias_tables.as_ref(),
        };
        let sample_span = rec.span("lda.visit.sample");
        let deltas = hlm_par::chunk_count(shard.doc_start.len() - 1, DOC_CHUNK) * stride;
        // The shard's delta arena, sized once per shard in memory; every
        // step overwrites the cells its merge reads.
        shard.deltas.resize(deltas, 0.0);
        let mut views = build_views(
            &mut shard.tok_z,
            &mut shard.n_dk,
            &mut shard.deltas,
            &shard.doc_start,
            k,
            stride,
        );
        sweep_chunks(&pool, &ctx, &mut views);
        shard.rows_uncounted = false;
        for view in &views {
            sweep_mh_proposed += view.mh_proposed;
            sweep_mh_accepted += view.mh_accepted;
        }
        drop(views);
        drop(sample_span);
        let merge_span = rec.span("lda.visit.merge");
        // Ordered merge in global chunk order. A multi-shard sweep folds
        // into the accumulator, since later shards still sample against
        // the snapshot; a one-shard sweep folds straight into the snapshot.
        let (into_kw, into_k) = match (st.acc_kw.as_mut(), st.acc_k.as_mut()) {
            (Some(kw), Some(kt)) => (kw, kt),
            _ => (&mut st.n_kw, &mut st.n_k),
        };
        for chunk_delta in shard.deltas.chunks_exact(stride) {
            merge_chunk_delta(kind, chunk_delta, into_kw.as_mut_slice(), into_k, k, m);
        }

        // Minka's fixed-point re-estimation of the symmetric alpha, applied
        // during burn-in so the collected phi samples use the final value.
        // The shard's doc-topic rows are final for this sweep, so the sums
        // accumulate shard by shard in global document order.
        let alpha_sweep = cfg.optimize_alpha && (sweep as usize) < cfg.burn_in && sweep % 10 == 9;
        if alpha_sweep {
            minka_alpha_accumulate(
                st.alpha,
                k,
                shard.n_dk.chunks_exact(k),
                &mut st.minka_num,
                &mut st.minka_den,
            );
        }
        drop(merge_span);
        home.leave(s, sweep)?;

        if s == n_shards - 1 {
            // Sweep end: publish the merged tables and run the end-of-sweep
            // bookkeeping.
            if let (Some(kw), Some(kt)) = (&st.acc_kw, &st.acc_k) {
                st.n_kw.copy_from(kw);
                st.n_k.copy_from_slice(kt);
            }
            if alpha_sweep {
                st.alpha = minka_alpha_finish(st.alpha, k, st.minka_num, st.minka_den);
            }
            let iter = sweep as usize;
            let past_burn_in = iter >= cfg.burn_in;
            let on_lag = (iter - cfg.burn_in.min(iter)).is_multiple_of(cfg.sample_lag);
            if past_burn_in && on_lag {
                for (t, &nk) in st.n_k.iter().enumerate() {
                    let phi_row = &mut st.phi_acc.as_mut_slice()[t * m..(t + 1) * m];
                    accumulate_phi_row(phi_row, st.n_kw.row(t), nk, beta, beta_sum);
                }
                st.n_samples += 1;
            }
            if kind == SamplerChoice::AliasMh {
                rec.add("lda.mh.proposed", sweep_mh_proposed);
                rec.add("lda.mh.accepted", sweep_mh_accepted);
                if rec.is_enabled() && sweep_mh_proposed > 0 {
                    rec.trace(
                        "lda.mh.acceptance_rate",
                        sweep,
                        sweep_mh_accepted as f64 / sweep_mh_proposed as f64,
                    );
                }
            }
            // Observability: read-only — nothing below branches on these
            // values, so enabling the recorder cannot change the chain.
            if let Some(t0) = sweep_t0 {
                rec.observe("lda.gibbs.sweep_seconds", t0.elapsed().as_secs_f64());
                rec.add("lda.gibbs.sweeps", 1);
                rec.trace(
                    "lda.gibbs.log_likelihood",
                    sweep,
                    gibbs_log_likelihood(&st.n_kw, &st.n_k, beta),
                );
            }
            // Total topic mass is conserved by a correct sweep; a NaN weight
            // or injected fault shows up here and aborts before the broken
            // state can be checkpointed.
            ctrl.check_metric(sweep, "topic mass", st.n_k.iter().sum())?;
        } else if let Some(t0) = sweep_t0 {
            rec.observe("lda.gibbs.shard_seconds", t0.elapsed().as_secs_f64());
        }

        st.step = step + 1;
        ctrl.checkpoint(step + 1, || encode_checkpoint(&st, &home));
        if ctrl.saves() > saves_seen {
            saves_seen = ctrl.saves();
            last_ckpt = Some(step + 1);
        }
        // Prune spill versions no resume-from-latest-checkpoint can need
        // any more; with no checkpoint yet, only the newest one matters.
        if let Home::Spilled(dir, _) = &home {
            let keep = expected_version(last_ckpt.unwrap_or(step + 1), n_shards, s);
            for v in retained_lo[s]..keep {
                let _ = std::fs::remove_file(spill_path(dir, s, v));
            }
            retained_lo[s] = retained_lo[s].max(keep);
        }
    }

    st.into_model(beta)
}

fn spill_path(dir: &Path, shard: usize, version: u64) -> PathBuf {
    dir.join(format!("gibbs_shard_{shard:05}_v{version}.bin"))
}

fn token_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("gibbs_tokens_{shard:05}.bin"))
}

/// Removes every spill file and token record a trainer could have written
/// under `dir`.
fn clear_work_dir(dir: &Path) -> Result<(), ResilienceError> {
    let entries = std::fs::read_dir(dir).map_err(|e| ResilienceError::io("read work dir", e))?;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let ours = name.starts_with("gibbs_shard_") || name.starts_with("gibbs_tokens_");
        // `.tmp` files are writes a kill cut off before their rename.
        if ours && (name.ends_with(".bin") || name.ends_with(".tmp")) {
            std::fs::remove_file(entry.path())
                .map_err(|e| ResilienceError::io("remove stale spill", e))?;
        }
    }
    Ok(())
}

/// Writes `bytes` to `path` atomically (temp file + rename); `what` names
/// the file in an error.
fn write_atomic(path: &Path, bytes: &[u8], what: &str) -> Result<(), ResilienceError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes).map_err(|e| ResilienceError::io(&format!("write {what}"), e))?;
    std::fs::rename(&tmp, path).map_err(|e| ResilienceError::io(&format!("commit {what}"), e))
}

/// Writes a shard's spill record.
fn write_spill(dir: &Path, s: usize, version: u64, shard: &Shard) -> Result<(), ResilienceError> {
    let mut bytes = Vec::with_capacity(shard.record_len());
    shard.encode_state(&mut bytes, s, version);
    write_atomic(&spill_path(dir, s, version), &bytes, "spill")
}

/// Writes shard `s`'s token record from its documents and returns whether
/// every weight is 1.0.
fn write_tokens(dir: &Path, s: usize, batch: &DocBatch, m: usize) -> Result<bool, ResilienceError> {
    let (bytes, unit) = token_record(s, batch, m);
    write_atomic(&token_path(dir, s), &bytes, "token record")?;
    Ok(unit)
}

/// The spill version every shard must hold when `step` shard-steps are done:
/// `sweep + 1` for shards already processed in the current sweep, `sweep`
/// otherwise.
fn expected_version(step: u64, n_shards: usize, shard: usize) -> u64 {
    let sweep = step / n_shards as u64;
    let done = step % n_shards as u64;
    sweep + u64::from((shard as u64) < done)
}

fn validate_spans<S: DocShardSource + ?Sized>(source: &S) {
    let n_shards = source.n_shards();
    assert!(n_shards > 0, "source must expose at least one shard");
    let mut expect_lo = 0;
    for s in 0..n_shards {
        let (lo, hi) = source.shard_span(s);
        assert_eq!(lo, expect_lo, "shard {s} does not continue the span");
        assert!(hi >= lo, "shard {s} has a negative span");
        assert!(
            s == n_shards - 1 || (hi - lo) % DOC_CHUNK == 0,
            "interior shard {s} span of {} is not a multiple of {DOC_CHUNK}",
            hi - lo
        );
        expect_lo = hi;
    }
    assert_eq!(expect_lo, source.n_docs(), "spans must cover all documents");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gibbs::{count_rows, GibbsTrainer};
    use crate::unit_weights;
    use hlm_resilience::{CheckpointStore, MemIo, RunGuard};
    use proptest::prelude::*;

    fn planted_docs(n_docs: usize, seed: u64) -> Vec<WeightedDoc> {
        let mut rng = StdRng::seed_from_u64(seed);
        unit_weights(
            &(0..n_docs)
                .map(|i| {
                    let base = if i % 2 == 0 { 0usize } else { 3 };
                    (0..8).map(|_| base + rng.gen_range(0..3)).collect()
                })
                .collect::<Vec<_>>(),
        )
    }

    fn cfg(n_topics: usize, seed: u64) -> LdaConfig {
        LdaConfig {
            n_topics,
            vocab_size: 6,
            n_iters: 40,
            burn_in: 20,
            sample_lag: 5,
            seed,
            alpha: Some(0.5),
            beta: 0.1,
            optimize_alpha: true,
            ..Default::default()
        }
    }

    fn work_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hlm_sharded_gibbs_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sharded_fit_is_bit_identical_to_in_memory_at_any_shard_count() {
        let docs = planted_docs(200, 1);
        let full = GibbsTrainer::new(cfg(2, 7)).fit(&docs);
        for n_shards in [1, 2, 4] {
            let dir = work_dir(&format!("mem_{n_shards}"));
            let trainer = ShardedGibbsTrainer::new(cfg(2, 7), &dir);
            let model = trainer.fit(&MemDocShards::new(&docs, n_shards));
            assert_eq!(model.phi(), full.phi(), "n_shards={n_shards}");
            assert_eq!(model.alpha(), full.alpha(), "n_shards={n_shards}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn sharded_dense_sampler_and_weighted_tokens_match_in_memory() {
        // k = 24 runs the dense kernel at a mid topic count; fractional
        // weights leave tiny residues in the merged count tables.
        let mut rng = StdRng::seed_from_u64(91);
        let docs: Vec<WeightedDoc> = (0..150)
            .map(|_| {
                (0..10)
                    .map(|_| (rng.gen_range(0..6), 0.25 + rng.gen::<f64>()))
                    .collect()
            })
            .collect();
        let c = LdaConfig {
            sampler: SamplerChoice::Dense,
            ..cfg(24, 23)
        };
        let full = GibbsTrainer::new(c.clone()).fit(&docs);
        let dir = work_dir("dense_k24");
        let model = ShardedGibbsTrainer::new(c, &dir).fit(&MemDocShards::new(&docs, 3));
        assert_eq!(model.phi(), full.phi());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unit_and_fractional_shards_share_the_visit_buffers() {
        // Shard 0 has unit weights (its rows are counted in the sampling
        // pass), shards 1 and 2 fractional ones (their rows are decoded at
        // load); every visit reads into the buffers the one before left.
        let mut docs = planted_docs(64, 12);
        let mut rng = StdRng::seed_from_u64(13);
        docs.extend((0..70).map(|_| {
            (0..6)
                .map(|_| (rng.gen_range(0..6), 0.5 + rng.gen::<f64>()))
                .collect::<WeightedDoc>()
        }));
        let c = cfg(4, 17);
        let full = GibbsTrainer::new(c.clone()).fit(&docs);
        let dir = work_dir("mixed_weights");
        let source = MemDocShards::with_shard_size(&docs, 64);
        let model = ShardedGibbsTrainer::new(c, &dir).fit(&source);
        assert_eq!(model.phi(), full.phi());
        assert_eq!(model.alpha(), full.alpha());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_mid_pass_and_resume_is_bit_identical() {
        let docs = planted_docs(200, 2);
        let c = cfg(2, 11);
        let full = GibbsTrainer::new(c.clone()).fit(&docs);
        let source = MemDocShards::new(&docs, 4);
        let n_shards = source.n_shards();

        let dir = work_dir("resume");
        let trainer = ShardedGibbsTrainer::new(c, &dir);
        let store = CheckpointStore::new(Box::new(MemIo::new()));
        // Abort mid-sweep: step 90 is sweep 22 (past burn-in), shard 2 of 4.
        let abort_step = 22 * n_shards as u64 + 2;
        let mut ctrl = TrainControl::new(SHARDED_GIBBS_CHECKPOINT_KIND, &store)
            .with_guard(RunGuard::unlimited().abort_at_iteration(abort_step));
        let err = trainer.fit_resumable(&source, &mut ctrl, None).unwrap_err();
        assert!(err.is_interruption());

        let ckpt = store
            .latest_good(SHARDED_GIBBS_CHECKPOINT_KIND)
            .unwrap()
            .unwrap();
        assert_eq!(ckpt.iteration, abort_step);
        let resumed = trainer
            .fit_resumable(&source, &mut TrainControl::noop(), Some(&ckpt))
            .unwrap();
        assert_eq!(resumed.phi(), full.phi(), "resume must be bit-identical");
        assert_eq!(resumed.alpha(), full.alpha());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_detects_missing_spills_and_wrong_source() {
        let docs = planted_docs(128, 3);
        let c = cfg(2, 5);
        let source = MemDocShards::new(&docs, 2);
        let dir = work_dir("guards");
        let trainer = ShardedGibbsTrainer::new(c, &dir);
        let store = CheckpointStore::new(Box::new(MemIo::new()));
        let mut ctrl = TrainControl::new(SHARDED_GIBBS_CHECKPOINT_KIND, &store)
            .with_guard(RunGuard::unlimited().abort_at_iteration(9));
        trainer.fit_resumable(&source, &mut ctrl, None).unwrap_err();
        let ckpt = store
            .latest_good(SHARDED_GIBBS_CHECKPOINT_KIND)
            .unwrap()
            .unwrap();

        // Different shard layout.
        let other = MemDocShards::new(&docs, 1);
        let err = trainer
            .fit_resumable(&other, &mut TrainControl::noop(), Some(&ckpt))
            .unwrap_err();
        assert!(matches!(err, ResilienceError::Mismatch { .. }));

        // Spills gone.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        let err = trainer
            .fit_resumable(&source, &mut TrainControl::noop(), Some(&ckpt))
            .unwrap_err();
        assert!(matches!(err, ResilienceError::Mismatch { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_spill_is_rejected() {
        let docs = planted_docs(64, 4);
        let dir = work_dir("corrupt");
        let trainer = ShardedGibbsTrainer::new(cfg(2, 5), &dir);
        let source = MemDocShards::new(&docs, 1);
        // Run once so a spill exists, then flip a byte and read it back.
        let _ = trainer.fit(&source);
        let path = spill_path(&dir, 0, 40);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        std::fs::write(&path, bytes).unwrap();
        let mut shard = Shard::new(doc_slices(&docs), 2, 6);
        let err = shard
            .load_state(&std::fs::read(&path).unwrap(), 0, 40)
            .unwrap_err();
        assert!(matches!(err, ResilienceError::Corrupt { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spill_versions_are_pruned_without_checkpointing() {
        let docs = planted_docs(128, 6);
        let dir = work_dir("prune");
        let trainer = ShardedGibbsTrainer::new(cfg(2, 9), &dir);
        let _ = trainer.fit(&MemDocShards::new(&docs, 2));
        // Without a checkpoint sink nothing pins old versions, so only the
        // newest spill per shard survives — not one file per sweep — beside
        // the one token record per shard.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        let count = |prefix: &str| names.iter().filter(|n| n.starts_with(prefix)).count();
        let spills = count("gibbs_shard_");
        assert!(spills <= 2, "spill files must stay bounded, found {spills}");
        assert_eq!(count("gibbs_tokens_"), 2, "one token record per shard");
        assert_eq!(names.len(), spills + 2, "{names:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_fit_removes_stale_temp_spills() {
        let docs = planted_docs(128, 8);
        let dir = work_dir("stale_tmp");
        std::fs::create_dir_all(&dir).unwrap();
        // A write a kill cut off before its rename, for a shard this fit
        // never writes, so only the fresh-run cleanup can remove it.
        let stale = spill_path(&dir, 7, 3).with_extension("tmp");
        std::fs::write(&stale, b"partial").unwrap();
        let _ = ShardedGibbsTrainer::new(cfg(2, 9), &dir).fit(&MemDocShards::new(&docs, 2));
        assert!(!stale.exists(), "a fresh fit must remove stale temp spills");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A shard of four documents at K=4 whose doc-topic rows hold what a
    /// sparse codec could lose: positive and negative fractional residues,
    /// `-0.0`, a subnormal, an all-zero row and a fully dense row.
    fn codec_shard() -> (Vec<WeightedDoc>, Shard) {
        let docs: Vec<WeightedDoc> = vec![
            vec![(0, 0.1), (1, 0.2), (2, 0.3)],
            vec![(3, 1.0)],
            vec![],
            vec![(4, 0.7), (5, 0.25), (0, 1.5), (1, 2.0)],
        ];
        let mut shard = Shard::new(doc_slices(&docs), 4, 6);
        shard.tok_z = vec![0, 1, 3, 2, 0, 1, 2, 3];
        shard.n_dk = [
            [0.1 + 0.2 - 0.3, -0.0, 0.3 - 0.2 - 0.1, 5e-324],
            [0.0, 0.0, 1.0, 0.0],
            [0.0; 4],
            [0.7, 0.25, 1.5, 2.0],
        ]
        .concat();
        (docs, shard)
    }

    /// `codec_shard`'s record (shard 0, version 1) with its doc-topic rows
    /// replaced by `rows` and the checksum recomputed, so only the row
    /// parser can object.
    fn resealed(rows: &[u8]) -> Vec<u8> {
        let (_, shard) = codec_shard();
        let mut record = Vec::new();
        shard.encode_state(&mut record, 0, 1);
        record.truncate(SPILL_HEADER + shard.tok_z.len() * 2);
        record.extend_from_slice(rows);
        let sum = fnv1a_words(&record);
        record.extend_from_slice(&sum.to_le_bytes());
        record
    }

    /// A doc-topic row's bytes: `count`, then a `(topic, 1.0)` cell per
    /// entry of `topics`.
    fn row(count: u16, topics: &[u16]) -> Vec<u8> {
        let mut out = count.to_le_bytes().to_vec();
        for t in topics {
            out.extend_from_slice(&t.to_le_bytes());
            out.extend_from_slice(&1f64.to_bits().to_le_bytes());
        }
        out
    }

    #[test]
    fn spill_record_round_trips_every_bit() {
        let (docs, shard) = codec_shard();
        let mut record = Vec::new();
        shard.encode_state(&mut record, 3, 7);
        assert_eq!(record.len(), shard.record_len());
        let mut loaded = Shard::new(doc_slices(&docs), 4, 6);
        loaded.load_state(&record, 3, 7).unwrap();
        assert_eq!(loaded.tok_z, shard.tok_z);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&loaded.n_dk), bits(&shard.n_dk));
    }

    #[test]
    fn damaged_doc_topic_rows_are_corrupt() {
        let (docs, _) = codec_shard();
        let load =
            |rows: Vec<u8>| Shard::new(doc_slices(&docs), 4, 6).load_state(&resealed(&rows), 0, 1);
        // Rows 1-3 of a valid record; the cases edit row 0 or the end.
        let tail = [row(1, &[2]), row(0, &[]), row(2, &[0, 3])].concat();
        load([row(1, &[0]), tail.clone()].concat()).unwrap();
        let cases = [
            ("count above K", [row(5, &[0, 1, 2, 3, 3]), tail.clone()]),
            ("repeated topic", [row(2, &[1, 1]), tail.clone()]),
            ("descending topic", [row(2, &[2, 1]), tail.clone()]),
            ("topic = K", [row(1, &[4]), tail.clone()]),
            (
                "row cut short",
                [row(1, &[0]), tail[..tail.len() - 1].to_vec()],
            ),
            ("trailing byte", [row(1, &[0]), [&tail[..], &[0]].concat()]),
        ];
        for (what, rows) in cases {
            let err = load(rows.concat()).unwrap_err();
            assert!(
                matches!(err, ResilienceError::Corrupt { .. }),
                "{what}: {err:?}"
            );
        }
    }

    #[test]
    fn old_layout_spill_is_a_mismatch() {
        // An HLMGSPL1 record as the earlier encoder wrote it: dense f64
        // rows and a byte-wise FNV-1a trailer.
        let (docs, shard) = codec_shard();
        let mut record = b"HLMGSPL1".to_vec();
        record.extend([0u64, 1, 4, 8].iter().flat_map(|v| v.to_le_bytes()));
        record.extend(shard.tok_z.iter().flat_map(|z| z.to_le_bytes()));
        record.extend(shard.n_dk.iter().flat_map(|v| v.to_bits().to_le_bytes()));
        let sum = hlm_corpus::shard::fnv1a(&record);
        record.extend_from_slice(&sum.to_le_bytes());
        let err = Shard::new(doc_slices(&docs), 4, 6)
            .load_state(&record, 0, 1)
            .unwrap_err();
        let ResilienceError::Mismatch { reason } = err else {
            panic!("expected a mismatch, got {err:?}");
        };
        assert!(reason.contains("HLMGSPL1"), "{reason}");
        assert!(reason.contains("layout changed"), "{reason}");
    }

    #[test]
    fn previous_layout_spill_is_a_mismatch_naming_the_change() {
        // An HLMGSPL2 record: the same header, assignments, rows and
        // checksum as today's fractional-weight record, under the old magic.
        let (docs, shard) = codec_shard();
        let mut record = Vec::new();
        shard.encode_state(&mut record, 0, 1);
        record[..8].copy_from_slice(b"HLMGSPL2");
        let len = record.len() - 8;
        let sum = fnv1a_words(&record[..len]);
        record[len..].copy_from_slice(&sum.to_le_bytes());
        let err = Shard::new(doc_slices(&docs), 4, 6)
            .load_state(&record, 0, 1)
            .unwrap_err();
        let ResilienceError::Mismatch { reason } = err else {
            panic!("expected a mismatch, got {err:?}");
        };
        assert!(reason.contains("HLMGSPL2"), "{reason}");
        assert!(reason.contains("layout changed to HLMGSPL3"), "{reason}");
    }

    /// Unit-weight documents and a state whose doc-topic cells went
    /// 0 → 1 → 0 and 0 → 1 → 2 the way sampling moves them: a token leaves
    /// its topic (`-= 1.0`) and joins another (`+= 1.0`).
    fn unit_shard() -> (Vec<WeightedDoc>, Shard) {
        let docs = unit_weights(&[vec![0, 1, 2], vec![3], vec![], vec![4, 5, 0, 1]]);
        let mut shard = Shard::new(doc_slices(&docs), 4, 6);
        assert!(shard.unit);
        shard.tok_z = vec![0, 1, 3, 2, 0, 1, 2, 3];
        shard.n_dk = vec![0.0; 4 * 4];
        for (d, span) in shard.doc_start.windows(2).enumerate() {
            for &z in &shard.tok_z[span[0]..span[1]] {
                shard.n_dk[d * 4 + usize::from(z)] += 1.0;
            }
        }
        // Token 1 of document 0 moves from topic 1 to topic 0; token 7 of
        // document 3 moves from topic 3 to topic 2.
        for (token, row, from, to) in [(1, 0, 1, 0), (7, 3, 3, 2)] {
            shard.n_dk[row * 4 + from] -= 1.0;
            shard.n_dk[row * 4 + to] += 1.0;
            shard.tok_z[token] = to as u16;
        }
        (docs, shard)
    }

    #[test]
    fn unit_weight_record_rebuilds_doc_topic_rows_bit_for_bit() {
        let (docs, shard) = unit_shard();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // The cells the moves emptied hold +0.0, the bits of a cell never
        // touched.
        assert_eq!(bits(&[shard.n_dk[1], shard.n_dk[3 * 4 + 3]]), [0, 0]);
        let mut record = Vec::new();
        shard.encode_state(&mut record, 2, 9);
        assert_eq!(record.len(), shard.record_len());
        assert_eq!(record.len(), SPILL_HEADER + 8 * 2 + 8, "rows are left out");
        let mut loaded = Shard::new(doc_slices(&docs), 4, 6);
        loaded.load_state(&record, 2, 9).unwrap();
        assert_eq!(loaded.tok_z, shard.tok_z);
        // The rows are counted where the sampling pass counts them.
        assert!(loaded.rows_uncounted);
        count_rows(&mut loaded.n_dk, &loaded.tok_z, &loaded.doc_start, 4);
        assert_eq!(bits(&loaded.n_dk), bits(&shard.n_dk));
        // A unit-weight record carries no rows, so a byte after its
        // assignments is damage.
        let len = record.len() - 8;
        record.truncate(len);
        record.push(0);
        let sum = fnv1a_words(&record);
        record.extend_from_slice(&sum.to_le_bytes());
        let err = loaded.load_state(&record, 2, 9).unwrap_err();
        assert!(matches!(err, ResilienceError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn token_record_rebuilds_the_token_arrays() {
        for docs in [unit_shard().0, codec_shard().0] {
            let batch = DocBatch::from_docs(&docs);
            let (record, unit) = token_record(3, &batch, 6);
            let want = Shard::new(doc_slices(&docs), 4, 6);
            assert_eq!(unit, want.unit);
            let mut got = Shard::default();
            got.read_tokens(&record, 3, docs.len(), 6).unwrap();
            assert_eq!(got.unit, want.unit);
            assert_eq!(got.doc_start, want.doc_start);
            assert_eq!(got.tok_word, want.tok_word);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.tok_weight), bits(&want.tok_weight));
            // Another shard's record, or one for another doc count, is not
            // this shard's.
            for (s, n_docs) in [(2, docs.len()), (3, docs.len() + 1)] {
                let err = Shard::default().read_tokens(&record, s, n_docs, 6).err();
                assert!(
                    matches!(err, Some(ResilienceError::Mismatch { .. })),
                    "{err:?}"
                );
            }
        }
    }

    /// A unit-weight token record of `codec_shard`'s four documents with
    /// its header's token count, document ends and words replaced, and the
    /// checksum recomputed, so only the parser can object.
    fn sealed_tokens(n_tokens: u64, ends: &[u32], words: &[u16]) -> Vec<u8> {
        let mut record = TOKEN_MAGIC.to_vec();
        record.extend(
            [0, 4, n_tokens, 1]
                .iter()
                .flat_map(|f: &u64| f.to_le_bytes()),
        );
        record.extend(ends.iter().flat_map(|e| e.to_le_bytes()));
        record.extend(words.iter().flat_map(|w| w.to_le_bytes()));
        let sum = fnv1a_words(&record);
        record.extend_from_slice(&sum.to_le_bytes());
        record
    }

    #[test]
    fn damaged_token_records_are_corrupt() {
        let parse = |record: Vec<u8>| Shard::default().read_tokens(&record, 0, 4, 6);
        parse(sealed_tokens(3, &[1, 1, 2, 3], &[0, 5, 2])).unwrap();
        let cases = [
            (
                "count past the bytes",
                sealed_tokens(1 << 40, &[1, 1, 2, 3], &[0, 5, 2]),
            ),
            (
                "count below the bytes",
                sealed_tokens(2, &[1, 1, 2, 3], &[0, 5, 2]),
            ),
            (
                "ends descending",
                sealed_tokens(3, &[2, 1, 2, 3], &[0, 5, 2]),
            ),
            (
                "end past the tokens",
                sealed_tokens(3, &[1, 1, 2, 4], &[0, 5, 2]),
            ),
            (
                "tokens after the last end",
                sealed_tokens(3, &[1, 1, 2, 2], &[0, 5, 2]),
            ),
            ("word = M", sealed_tokens(3, &[1, 1, 2, 3], &[0, 6, 2])),
        ];
        for (what, record) in cases {
            let err = parse(record).unwrap_err();
            assert!(
                matches!(err, ResilienceError::Corrupt { .. }),
                "{what}: {err:?}"
            );
        }
        // A fractional-weight record whose weights are not all positive.
        let mut record = token_record(0, &DocBatch::from_docs(&[vec![(0, 0.5)]]), 6).0;
        let at = TOKEN_HEADER + 4 + 2;
        record[at..at + 8].copy_from_slice(&(-0.5f64).to_bits().to_le_bytes());
        let len = record.len() - 8;
        let sum = fnv1a_words(&record[..len]);
        record[len..].copy_from_slice(&sum.to_le_bytes());
        let err = Shard::default().read_tokens(&record, 0, 1, 6).err();
        assert!(
            matches!(err, Some(ResilienceError::Corrupt { .. })),
            "{err:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The checksum stops random damage before it reaches the row
        /// parser, so this seals arbitrary rows (counts that disagree with
        /// their cells, topics in any order, stray bytes) and parses them:
        /// the answer is `Ok` or `Corrupt`, never a panic.
        #[test]
        fn sealed_arbitrary_rows_never_panic(
            rows in prop::collection::vec((0u16..7, prop::collection::vec(0u16..6, 0..7)), 0..6),
            junk in prop::collection::vec(0u8..=255, 0..3),
        ) {
            let (docs, _) = codec_shard();
            let mut bytes: Vec<u8> = rows.iter().flat_map(|(n, topics)| row(*n, topics)).collect();
            bytes.extend(junk);
            let result = Shard::new(doc_slices(&docs), 4, 6).load_state(&resealed(&bytes), 0, 1);
            prop_assert!(
                matches!(result, Ok(()) | Err(ResilienceError::Corrupt { .. })),
                "{result:?}"
            );
        }
    }
}
