//! Weighted collapsed Gibbs sampler for LDA.
//!
//! Standard Griffiths–Steyvers collapsed Gibbs with one twist: each token
//! carries a real-valued weight, so count tables are `f64`. With unit
//! weights this is exactly classic LDA; with IDF weights it reproduces the
//! gensim behaviour of training on TF-IDF-transformed corpora that the paper
//! evaluates as the alternative input in Figure 2.
//!
//! Sweeps are data-parallel in the AD-LDA style (Newman et al.): documents
//! are sliced into fixed chunks, each chunk samples against a sweep-start
//! snapshot of the topic-word table with its own RNG stream derived from
//! `(seed, sweep, chunk)`, and the per-chunk count deltas are merged in
//! chunk order. Chunk boundaries and streams never depend on the worker
//! count, so results are bit-identical at any `HLM_THREADS` — and the
//! checkpoint/resume bit-identity guarantee carries over unchanged.
//!
//! Both kernels walk a chunk's documents through the shard's document
//! starts. The dense kernel samples against a word-major copy of the
//! snapshot, so a token reads one contiguous K-row, and writes its delta
//! back topic-major; the alias-MH kernel reads the snapshot plus a sparse
//! chunk delta. A chunk of a unit-weight shard whose rows were not loaded
//! counts its own doc-topic rows first.

use crate::model::{LdaConfig, LdaModel, SamplerChoice};
use crate::WeightedDoc;
use hlm_linalg::dist::AliasTableSet;
use hlm_linalg::{Matrix, SparseDelta};
use hlm_par::{Budget, Pool};
use hlm_resilience::{Checkpoint, ResilienceError, TrainControl};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Documents per parallel Gibbs chunk. Fixed: chunk boundaries are part of
/// the deterministic sampling schedule, not a tuning knob per machine.
/// Shard boundaries (`hlm_corpus::shard::SHARD_ALIGN`) are multiples of this,
/// so a shard's local chunks coincide with global chunks — the key to the
/// driver's bit-identity at any shard layout (see `sharded`).
pub(crate) const DOC_CHUNK: usize = 64;

/// Metropolis–Hastings cycles per token in the alias sampler: each cycle is
/// one word-proposal step and one doc-proposal step. Two cycles is the
/// operating point where perplexity matches the exact dense sampler (see
/// `tests/sampler_equivalence.rs`); one cycle is measurably under-mixed on
/// the paper's corpus sizes. Part of the sampling schedule: fixed.
const MH_CYCLES: usize = 2;

/// Tokens between batch re-derivations of the topic-total reciprocals in
/// the alias kernel. The totals themselves are maintained exactly; only
/// their reciprocals go briefly stale, trading two on-critical-path f64
/// divisions per token for `k` vectorizable ones per refresh. Part of the
/// sampling schedule: fixed.
const INV_REFRESH: usize = 128;

/// Cost-model estimate of one sweep: per weighted token, fixed bookkeeping
/// plus roughly one multiply-accumulate per topic for the dense kernel;
/// the alias-MH kernel is O(1) per token (in [`Budget`] units of ~1 ns of
/// serial work).
pub(crate) fn sweep_budget(n_tokens: usize, k: usize, kind: SamplerChoice) -> Budget {
    match kind {
        SamplerChoice::AliasMh => Budget::items(n_tokens, 150),
        _ => Budget::items(n_tokens, 16 + 8 * k as u64),
    }
}

/// Stride of one chunk's slice of the shared delta buffer. The dense
/// kernel writes a dense `k*m` topic-word delta plus `k` topic totals; the
/// alias kernel writes a sparse `[n, (cell, delta)*n, .., k totals]` record
/// (the pair region is sized for the worst case, the tail `k` totals always
/// sit at the end of the slice).
pub(crate) fn delta_stride(kind: SamplerChoice, k: usize, m: usize) -> usize {
    match kind {
        SamplerChoice::AliasMh => 1 + 2 * k * m + k,
        _ => k * m + k,
    }
}

/// Folds one chunk's delta slice into the global (or accumulator) tables.
/// The driver applies it in global chunk order at every shard layout, so
/// each count cell sees the identical addition sequence.
pub(crate) fn merge_chunk_delta(
    kind: SamplerChoice,
    chunk_delta: &[f64],
    n_kw: &mut [f64],
    n_k: &mut [f64],
    k: usize,
    m: usize,
) {
    match kind {
        SamplerChoice::AliasMh => {
            let n = chunk_delta[0] as usize;
            for pair in chunk_delta[1..1 + 2 * n].chunks_exact(2) {
                n_kw[pair[0] as usize] += pair[1];
            }
            let tail = &chunk_delta[chunk_delta.len() - k..];
            for (g, &d) in n_k.iter_mut().zip(tail) {
                *g += d;
            }
        }
        _ => {
            let (kw_delta, k_delta) = chunk_delta.split_at(k * m);
            for (g, &d) in n_kw.iter_mut().zip(kw_delta) {
                *g += d;
            }
            for (g, &d) in n_k.iter_mut().zip(k_delta) {
                *g += d;
            }
        }
    }
}

/// Per-sweep counter name for the kernel actually taken (`kind` must be
/// resolved), so crossover cutoffs are tunable from `/metrics`.
pub(crate) fn sampler_counter(kind: SamplerChoice) -> &'static str {
    match kind {
        SamplerChoice::Dense => "lda.sampler.dense",
        SamplerChoice::AliasMh => "lda.sampler.alias",
        // Unreachable after `resolve`, kept total for safety.
        SamplerChoice::Auto => "lda.sampler.auto",
    }
}

/// Accumulates one topic's posterior-mean contribution
/// `phi_row += (n_kw_row + β) / (n_k + Mβ)`.
pub(crate) fn accumulate_phi_row(
    phi_row: &mut [f64],
    kw_row: &[f64],
    nk: f64,
    beta: f64,
    beta_sum: f64,
) {
    let denom = nk + beta_sum;
    for (acc, &c) in phi_row.iter_mut().zip(kw_row) {
        *acc += (c + beta) / denom;
    }
}

/// Per-word Walker alias tables over the sweep-start snapshot, shared
/// read-only by every chunk of a sweep. The table for word `w` encodes the
/// word-proposal distribution
///
/// ```text
/// q̃_w(t) = (snap_kw[t,w] + β) / (snap_k[t] + Mβ)
/// ```
///
/// — the true conditional with the document factor dropped and counts frozen
/// at the snapshot. Staleness is bounded at one sweep: every shard of a
/// sweep samples against the same snapshot, and
/// [`AliasTableSet::build_table`] is a pure function of its weights, so any
/// shard layout draws from bit-identical tables.
pub(crate) struct WordAliasTables {
    set: AliasTableSet,
    /// Snapshot reciprocals `1 / (snap_k[t] + Mβ)`, kept so the MH accept
    /// ratio can re-derive `q̃_w(t)` for arbitrary `t` in O(1).
    snap_inv: Vec<f64>,
    /// Reusable weight buffer for rebuilds.
    weights: Vec<f64>,
}

impl WordAliasTables {
    pub(crate) fn new(k: usize, m: usize) -> Self {
        WordAliasTables {
            set: AliasTableSet::new(m, k),
            snap_inv: vec![0.0; k],
            weights: vec![0.0; k],
        }
    }

    /// Rebuilds every word's table from the sweep-start snapshot,
    /// allocation-free after the first call. Counted per rebuild under
    /// `lda.alias.rebuilds`.
    pub(crate) fn rebuild(&mut self, n_kw: &Matrix, n_k: &[f64], beta: f64, beta_sum: f64) {
        let (k, m) = (n_kw.rows(), n_kw.cols());
        debug_assert_eq!(k, self.snap_inv.len());
        for (inv, &tot) in self.snap_inv.iter_mut().zip(n_k) {
            *inv = 1.0 / (tot + beta_sum);
        }
        let mut weights = std::mem::take(&mut self.weights);
        let snap = n_kw.as_slice();
        for w in 0..m {
            for (t, wt) in weights.iter_mut().enumerate() {
                *wt = (snap[t * m + w].max(0.0) + beta) * self.snap_inv[t];
            }
            self.set.build_table(w, &weights);
        }
        self.weights = weights;
        hlm_obs::global().add("lda.alias.rebuilds", 1);
    }
}

/// One chunk's mutable slice of a sweep: its token assignments and
/// document-topic rows (mutated in place — they are disjoint between
/// chunks) and its scratch area for the count-table deltas that must merge
/// in chunk order.
pub(crate) struct ChunkView<'a> {
    pub(crate) z: &'a mut [u16],
    pub(crate) dk: &'a mut [f64],
    /// The chunk's [`delta_stride`]-sized slice of the shared delta buffer;
    /// layout per sampler kind (see [`merge_chunk_delta`]). Every cell the
    /// merge reads is overwritten by the chunk.
    pub(crate) delta: &'a mut [f64],
    /// The chunk's documents, `d_lo..d_hi` in the shard.
    pub(crate) d_lo: usize,
    pub(crate) d_hi: usize,
    /// MH proposals / acceptances made by this chunk (alias sampler only).
    /// Counted unconditionally — plain integer adds that never touch the
    /// RNG — and summed in chunk order by the caller, so the recorder
    /// on/off state cannot perturb the chain or the reported totals.
    pub(crate) mh_proposed: u64,
    pub(crate) mh_accepted: u64,
}

/// Immutable per-sweep context shared by every chunk of one shard.
/// `chunk_base` is the global index of the shard's first chunk, so a chunk
/// draws from the same RNG stream at any shard layout.
pub(crate) struct SweepCtx<'a> {
    /// Document `d` of the shard is tokens `doc_start[d]..doc_start[d + 1]`.
    pub(crate) doc_start: &'a [usize],
    pub(crate) tok_word: &'a [u32],
    /// Per-token weights; `None` when every weight is 1.0.
    pub(crate) tok_weight: Option<&'a [f64]>,
    /// The doc-topic rows do not hold counts yet: each chunk first counts
    /// its rows from its assignments (see [`count_rows`]). Set only on a
    /// unit-weight shard whose spill record left its rows out.
    pub(crate) count_rows: bool,
    pub(crate) n_kw: &'a Matrix,
    pub(crate) n_k: &'a [f64],
    pub(crate) k: usize,
    pub(crate) m: usize,
    pub(crate) alpha: f64,
    pub(crate) beta: f64,
    pub(crate) beta_sum: f64,
    pub(crate) seed: u64,
    pub(crate) sweep: u64,
    pub(crate) chunk_base: usize,
    /// Resolved per-token kernel (never `Auto`).
    pub(crate) kind: SamplerChoice,
    /// Per-word proposal tables, present iff `kind == AliasMh`. Rebuilt
    /// from the same snapshot `n_kw`/`n_k` point to, once per sweep.
    pub(crate) alias: Option<&'a WordAliasTables>,
}

/// Per-slot scratch reused across every chunk a pool slot processes, so
/// the inner sampling loop allocates nothing. Everything read is fully
/// re-initialized per chunk (tables, reciprocals) or per document (topic
/// list), keeping chunk results a pure function of the chunk — the
/// `par_for_each_scratch` contract.
pub(crate) struct SweepScratch {
    /// Chunk-local topic-word counts, word-major (`kw[w*k + t]`, so one
    /// token reads one contiguous K-row), transposed from the topic-major
    /// sweep-start snapshot at chunk entry and back into the chunk's delta
    /// at exit. Empty in alias mode, which reads snapshot +
    /// [`SweepScratch::kw_delta`] instead of paying the O(K·M) copy per
    /// chunk.
    kw: Vec<f64>,
    /// Chunk-local sparse topic-word delta against the snapshot (alias mode
    /// only): O(1) current-count reads, O(touched) reset and emission.
    kw_delta: SparseDelta,
    /// Chunk-local topic totals (`k`).
    k_tot: Vec<f64>,
    /// Cached reciprocals `1 / (k_tot[t] + Mβ)` — turns the per-topic
    /// division of the collapsed conditional into a multiply.
    inv: Vec<f64>,
    /// Dense per-topic weights, then their running sums, for the dense
    /// sampler (`k`).
    cum: Vec<f64>,
    /// Maintained sparse topic list of the document being sampled
    /// (topics with positive doc-topic count; alias mode only).
    doc_topics: Vec<u16>,
    /// Generation stamps for per-document topic seeding (alias mode only):
    /// lets a document's distinct topics be collected by scanning its own
    /// tokens — O(doc length) — instead of its dense O(K) doc-topic row.
    doc_stamp: Vec<u32>,
    doc_gen: u32,
}

impl SweepScratch {
    pub(crate) fn new(k: usize, m: usize, kind: SamplerChoice) -> Self {
        let alias = kind == SamplerChoice::AliasMh;
        SweepScratch {
            kw: vec![0.0; if alias { 0 } else { k * m }],
            kw_delta: SparseDelta::new(if alias { k * m } else { 0 }),
            k_tot: vec![0.0; k],
            inv: vec![0.0; k],
            cum: vec![0.0; k],
            doc_topics: Vec::with_capacity(k),
            doc_stamp: vec![0; if alias { k } else { 0 }],
            doc_gen: 0,
        }
    }
}

/// Splits the flat assignment array, the doc-topic table and the delta
/// buffer into per-chunk disjoint views. Chunk boundaries are the same
/// pure function of the corpus the sampler has always used.
pub(crate) fn build_views<'a>(
    tok_z: &'a mut [u16],
    dk: &'a mut [f64],
    delta_buf: &'a mut [f64],
    doc_start: &[usize],
    k: usize,
    delta_stride: usize,
) -> Vec<ChunkView<'a>> {
    let n_docs = doc_start.len() - 1;
    let n_chunks = hlm_par::chunk_count(n_docs, DOC_CHUNK);
    let mut views = Vec::with_capacity(n_chunks);
    let (mut z_rest, mut dk_rest, mut delta_rest) = (tok_z, dk, delta_buf);
    for c in 0..n_chunks {
        let (d_lo, d_hi) = hlm_par::chunk_bounds(n_docs, DOC_CHUNK, c);
        let (z_c, zr) = z_rest.split_at_mut(doc_start[d_hi] - doc_start[d_lo]);
        z_rest = zr;
        let (dk_c, dr) = dk_rest.split_at_mut((d_hi - d_lo) * k);
        dk_rest = dr;
        let (de_c, der) = delta_rest.split_at_mut(delta_stride);
        delta_rest = der;
        views.push(ChunkView {
            z: z_c,
            dk: dk_c,
            delta: de_c,
            d_lo,
            d_hi,
            mh_proposed: 0,
            mh_accepted: 0,
        });
    }
    views
}

/// Removes topic `t` from a maintained sparse list if present. Lists are
/// chunk-local and every mutation is part of the deterministic sampling
/// schedule, so `swap_remove` order never depends on threads.
fn remove_topic(list: &mut Vec<u16>, t: usize) {
    if let Some(pos) = list.iter().position(|&x| x as usize == t) {
        list.swap_remove(pos);
    }
}

/// Dense sampler over one token's K-rows: one pass forms every topic's
/// weight `(n_dk + α)(n_kw + β)/(n_k + Mβ)` (division replaced by the
/// cached reciprocal), a second turns them into running sums left to right
/// — the additions, in the order, of a single fused pass — and one uniform
/// draw is placed among the sums.
fn sample_dense(
    cum: &mut [f64],
    dk_row: &[f64],
    kw_row: &[f64],
    inv: &[f64],
    alpha: f64,
    beta: f64,
    rng: &mut StdRng,
) -> usize {
    let k = cum.len();
    for (p, ((&dkv, &kwv), &invv)) in cum.iter_mut().zip(dk_row.iter().zip(kw_row).zip(inv)) {
        *p = (dkv + alpha) * (kwv + beta) * invv;
    }
    let mut acc = 0.0;
    for c in cum.iter_mut() {
        acc += *c;
        *c = acc;
    }
    let u = rng.gen::<f64>() * acc;
    // The first topic whose running sum exceeds `u`, or the last topic,
    // counted without a branch per topic: the sums never decrease (every
    // weight is positive: a count is never below zero by more than a
    // rounding residue, far below α and β), so the topics whose sum is at
    // most `u` are exactly the ones before it.
    cum[..k - 1].iter().map(|&c| usize::from(c <= u)).sum()
}

/// Counts unit-weight doc-topic rows from their assignments: each row of
/// `rows` is zeroed, then gets 1.0 added at its tokens' topics in token
/// order, so every cell is the exact integer, with the bits, that sampling
/// left there (see the `sharded` module docs, invariant 4). Document `d` of
/// `rows` is `z[doc_start[d] - doc_start[0]..doc_start[d + 1] - doc_start[0]]`.
pub(crate) fn count_rows(rows: &mut [f64], z: &[u16], doc_start: &[usize], k: usize) {
    rows.fill(0.0);
    let t0 = doc_start[0];
    for (row, span) in rows.chunks_exact_mut(k).zip(doc_start.windows(2)) {
        for &t in &z[span[0] - t0..span[1] - t0] {
            row[usize::from(t)] += 1.0;
        }
    }
}

/// LightLDA-style alias-MH kernel for one chunk: per token, [`MH_CYCLES`]
/// cycles of an O(1) word proposal (drawn from the per-sweep per-word alias
/// table) and an O(topics-in-doc) doc proposal (`q(t) ∝ dk⁺(t) + α`), each
/// accepted against the collapsed conditional
/// `π(t) ∝ (dk⁺(t) + α)(kw⁺(t,w) + β)·inv[t]` over the chunk's *current*
/// counts — snapshot plus the chunk's sparse delta for the topic-word
/// cell, in-place doc row, and topic-total reciprocals batch-refreshed
/// every [`INV_REFRESH`] tokens. The *proposal* `q̃_w` is sweep-stale
/// (that staleness is what MH corrects, LightLDA §4.2) and π's
/// reciprocals at most a few dozen tokens stale, so the chain tracks the
/// same per-chunk conditional as the dense sampler closely enough that
/// `tests/sampler_equivalence.rs` can pin its perplexity to dense's. Every
/// per-topic factor of π and q̃ is constant while one token's MH steps run
/// (the token is decremented once before the cycles and reinserted after),
/// so the current state's factors are computed once and carried across
/// proposals instead of re-derived per step. The `⁺` clamps keep tiny
/// negative residues from weighted-token cancellation out of probability
/// terms only, never out of the count tables. The RNG draw pattern is
/// fixed — every proposal consumes its draws and every step draws its
/// acceptance uniform whether or not the proposal moves — so the stream
/// stays aligned across any accept/reject outcome, thread count, or
/// shard layout.
fn sweep_chunk_alias(
    scratch: &mut SweepScratch,
    ctx: &SweepCtx,
    rng: &mut StdRng,
    view: &mut ChunkView,
) {
    let (k, m) = (ctx.k, ctx.m);
    let tables = ctx.alias.expect("alias sampler requires proposal tables");
    let snap_kw = ctx.n_kw.as_slice();
    let sinv = tables.snap_inv.as_slice();
    scratch.k_tot.copy_from_slice(ctx.n_k);
    scratch.kw_delta.begin();
    let (mut proposed, mut accepted) = (0u64, 0u64);
    let mut until_refresh = 0usize;
    let starts = &ctx.doc_start[view.d_lo..=view.d_hi];
    let t_lo = starts[0];
    for (d, span) in starts.windows(2).enumerate() {
        let tokens = span[0] - t_lo..span[1] - t_lo;
        if tokens.is_empty() {
            continue;
        }
        let row = d * k;
        // Seed the document's topic list by scanning its own tokens'
        // assignments — O(doc length), not O(K). Generation stamps dedupe
        // without clearing.
        scratch.doc_gen = scratch.doc_gen.wrapping_add(1);
        if scratch.doc_gen == 0 {
            scratch.doc_stamp.iter_mut().for_each(|s| *s = 0);
            scratch.doc_gen = 1;
        }
        scratch.doc_topics.clear();
        for &t in &view.z[tokens.clone()] {
            let t = usize::from(t);
            if scratch.doc_stamp[t] != scratch.doc_gen {
                scratch.doc_stamp[t] = scratch.doc_gen;
                scratch.doc_topics.push(t as u16);
            }
        }
        let mut doc_mass: f64 = scratch
            .doc_topics
            .iter()
            .map(|&t| view.dk[row + t as usize].max(0.0))
            .sum();
        for j in tokens {
            // Topic totals are maintained exactly (`k_tot`, plain adds) but
            // their reciprocals are re-derived in a batch every
            // [`INV_REFRESH`] tokens: the k divisions vectorize off the
            // per-token critical path, and π reads reciprocals at most
            // `INV_REFRESH` tokens stale — an approximation far inside the
            // one-sweep staleness the MH correction already absorbs for the
            // word proposal (`tests/sampler_equivalence.rs` pins the result).
            if until_refresh == 0 {
                for (inv, &tot) in scratch.inv.iter_mut().zip(scratch.k_tot.iter()) {
                    *inv = 1.0 / (tot + ctx.beta_sum);
                }
                until_refresh = INV_REFRESH;
            }
            until_refresh -= 1;
            let i = t_lo + j;
            let w = ctx.tok_word[i] as usize;
            let weight = ctx.tok_weight.map_or(1.0, |ws| ws[i]);
            let old_z = view.z[j] as usize;

            // Decrement the current token out of every table.
            let before = view.dk[row + old_z].max(0.0);
            view.dk[row + old_z] -= weight;
            doc_mass += view.dk[row + old_z].max(0.0) - before;
            if view.dk[row + old_z] <= 0.0 {
                remove_topic(&mut scratch.doc_topics, old_z);
            }
            scratch.kw_delta.add(old_z * m + w, -weight);
            scratch.k_tot[old_z] -= weight;

            // The chain state's factors, computed once and carried: every count
            // (and reciprocal) π reads is frozen while this token's MH steps
            // run — the token is decremented once before the cycles and
            // reinserted after — so an accepted proposal hands its
            // already-computed factors to the next step.
            let mut s = old_z;
            let cell_s = s * m + w;
            let kw_s = (snap_kw[cell_s] + scratch.kw_delta.get(cell_s)).max(0.0) + ctx.beta;
            let mut wpart_s = kw_s * scratch.inv[s];
            let mut pi_s = (view.dk[row + s].max(0.0) + ctx.alpha) * wpart_s;
            let mut q_s = (snap_kw[cell_s].max(0.0) + ctx.beta) * sinv[s];
            for _ in 0..MH_CYCLES {
                // Word proposal: q̃_w(t) = (snap⁺(t,w) + β)·snap_inv[t] from the
                // sweep-start snapshot. The accept ratio π(t)q̃(s) / π(s)q̃(t)
                // needs only unnormalized q̃ — the per-word normalizer cancels.
                let t = tables.set.sample(w, rng);
                let u = rng.gen::<f64>();
                proposed += 1;
                if t == s {
                    accepted += 1;
                } else {
                    let cell_t = t * m + w;
                    let kw_t = (snap_kw[cell_t] + scratch.kw_delta.get(cell_t)).max(0.0) + ctx.beta;
                    let wpart_t = kw_t * scratch.inv[t];
                    let pi_t = (view.dk[row + t].max(0.0) + ctx.alpha) * wpart_t;
                    let q_t = (snap_kw[cell_t].max(0.0) + ctx.beta) * sinv[t];
                    if u * (pi_s * q_t) < pi_t * q_s {
                        accepted += 1;
                        s = t;
                        wpart_s = wpart_t;
                        pi_s = pi_t;
                        q_s = q_t;
                    }
                }

                // Doc proposal: q(t) ∝ dk⁺(t) + α — one uniform splits between
                // the maintained doc-topic mass and the flat α·K remainder. The
                // doc factor of π matches q exactly (same clamp convention), so
                // the accept ratio reduces to the word part.
                let total = doc_mass + ctx.alpha * k as f64;
                let ud = rng.gen::<f64>() * total;
                let t = if ud < doc_mass {
                    let mut acc = 0.0;
                    let mut chosen = usize::MAX;
                    for &tt in &scratch.doc_topics {
                        acc += view.dk[row + tt as usize].max(0.0);
                        if ud < acc {
                            chosen = tt as usize;
                            break;
                        }
                    }
                    if chosen != usize::MAX {
                        chosen
                    } else if let Some(&tt) = scratch.doc_topics.last() {
                        // Incremental doc_mass can drift above the scan total by
                        // ulps; clamp to the last listed topic.
                        tt as usize
                    } else {
                        0
                    }
                } else {
                    (((ud - doc_mass) / ctx.alpha) as usize).min(k - 1)
                };
                let u = rng.gen::<f64>();
                proposed += 1;
                if t == s {
                    accepted += 1;
                } else {
                    let cell_t = t * m + w;
                    let kw_t = (snap_kw[cell_t] + scratch.kw_delta.get(cell_t)).max(0.0) + ctx.beta;
                    let wpart_t = kw_t * scratch.inv[t];
                    if u * wpart_s < wpart_t {
                        accepted += 1;
                        s = t;
                        wpart_s = wpart_t;
                        pi_s = (view.dk[row + t].max(0.0) + ctx.alpha) * wpart_t;
                        q_s = (snap_kw[cell_t].max(0.0) + ctx.beta) * sinv[t];
                    }
                }
            }

            // Increment the token back at its (possibly new) topic.
            let new_z = s;
            if view.dk[row + new_z] <= 0.0 {
                scratch.doc_topics.push(new_z as u16);
            }
            let before = view.dk[row + new_z].max(0.0);
            view.dk[row + new_z] += weight;
            doc_mass += view.dk[row + new_z].max(0.0) - before;
            scratch.kw_delta.add(new_z * m + w, weight);
            scratch.k_tot[new_z] += weight;
            view.z[j] = new_z as u16;
        }
    }

    // Sparse delta record: [n, (cell, delta)*n, .., k topic totals] in
    // first-touch order (deterministic — part of the sampling schedule).
    let touched = scratch.kw_delta.touched();
    view.delta[0] = touched.len() as f64;
    for (slot, &cell) in touched.iter().enumerate() {
        view.delta[1 + 2 * slot] = cell as f64;
        view.delta[2 + 2 * slot] = scratch.kw_delta.get(cell as usize);
    }
    let tail_at = view.delta.len() - k;
    for (dst, (&local, &global)) in view.delta[tail_at..]
        .iter_mut()
        .zip(scratch.k_tot.iter().zip(ctx.n_k))
    {
        *dst = local - global;
    }
    view.mh_proposed = proposed;
    view.mh_accepted = accepted;
}

/// Samples one chunk of documents against the sweep-start snapshot,
/// mutating the chunk's assignments and doc-topic rows in place and
/// writing its topic-word/topic-total deltas into the chunk's slice of the
/// shared delta buffer. RNG stream: `(seed, sweep, chunk_base + chunk)` —
/// identical at every thread count and every shard layout.
pub(crate) fn sweep_chunk(
    scratch: &mut SweepScratch,
    ctx: &SweepCtx,
    chunk: usize,
    view: &mut ChunkView,
) {
    let (k, m) = (ctx.k, ctx.m);
    let mut rng = StdRng::seed_from_u64(hlm_par::split_seed3(
        ctx.seed,
        ctx.sweep,
        (ctx.chunk_base + chunk) as u64,
    ));
    let starts = &ctx.doc_start[view.d_lo..=view.d_hi];
    if ctx.count_rows {
        count_rows(view.dk, view.z, starts, k);
    }
    if ctx.kind == SamplerChoice::AliasMh {
        sweep_chunk_alias(scratch, ctx, &mut rng, view);
        return;
    }
    let snap = ctx.n_kw.as_slice();
    let SweepScratch {
        kw,
        k_tot,
        inv,
        cum,
        ..
    } = scratch;
    for (w, kw_row) in kw.chunks_exact_mut(k).enumerate() {
        for (t, c) in kw_row.iter_mut().enumerate() {
            *c = snap[t * m + w];
        }
    }
    k_tot.copy_from_slice(ctx.n_k);
    for (inv, &tot) in inv.iter_mut().zip(k_tot.iter()) {
        *inv = 1.0 / (tot + ctx.beta_sum);
    }
    let t_lo = starts[0];
    for (dk_row, span) in view.dk.chunks_exact_mut(k).zip(starts.windows(2)) {
        for j in span[0] - t_lo..span[1] - t_lo {
            let i = t_lo + j;
            let w = ctx.tok_word[i] as usize;
            let weight = ctx.tok_weight.map_or(1.0, |ws| ws[i]);
            let kw_row = &mut kw[w * k..(w + 1) * k];
            let old_z = view.z[j] as usize;

            dk_row[old_z] -= weight;
            kw_row[old_z] -= weight;
            k_tot[old_z] -= weight;
            inv[old_z] = 1.0 / (k_tot[old_z] + ctx.beta_sum);

            let new_z = sample_dense(cum, dk_row, kw_row, inv, ctx.alpha, ctx.beta, &mut rng);

            dk_row[new_z] += weight;
            kw_row[new_z] += weight;
            k_tot[new_z] += weight;
            inv[new_z] = 1.0 / (k_tot[new_z] + ctx.beta_sum);
            view.z[j] = new_z as u16;
        }
    }
    // Deltas relative to the sweep-start snapshot, fully overwriting the
    // chunk's slice of the shared buffer; the topic-word part goes back to
    // the snapshot's topic-major layout.
    let (kw_delta, k_delta) = view.delta.split_at_mut(k * m);
    for (w, kw_row) in kw.chunks_exact(k).enumerate() {
        for (t, &local) in kw_row.iter().enumerate() {
            kw_delta[t * m + w] = local - snap[t * m + w];
        }
    }
    for (d, (&local, &global)) in k_delta.iter_mut().zip(k_tot.iter().zip(ctx.n_k.iter())) {
        *d = local - global;
    }
}

/// Widest K the fused pair kernel takes. Measured on one thread over
/// 50,000 companies, pairs cut the dense sweep at every K from 2 to 16;
/// at K = 32 they gained nothing, so wider K keeps [`sweep_chunk`].
const PAIR_MAX_TOPICS: usize = 16;

/// Samples every chunk of one shard's sweep over `pool`. A dense sweep at
/// 2 ≤ K ≤ [`PAIR_MAX_TOPICS`] hands the pool pairs of adjacent chunks
/// `(2p, 2p + 1)`, which [`sweep_pair`] samples in one fused loop at a
/// compile-time topic width W: W = K for the paper's K = 2–4, where a
/// padded width measured slower, and the width classes 8 and 16 above.
/// Every other sweep, and an unpaired last chunk, runs [`sweep_chunk`]. A
/// chunk's results are the same bits either way.
pub(crate) fn sweep_chunks(pool: &Pool, ctx: &SweepCtx, views: &mut [ChunkView]) {
    let budget = sweep_budget(ctx.tok_word.len(), ctx.k, ctx.kind);
    match (ctx.kind, ctx.k) {
        (SamplerChoice::Dense, 2) => sweep_pairs::<2>(pool, budget, ctx, views),
        (SamplerChoice::Dense, 3) => sweep_pairs::<3>(pool, budget, ctx, views),
        (SamplerChoice::Dense, 4) => sweep_pairs::<4>(pool, budget, ctx, views),
        (SamplerChoice::Dense, 5..=8) => sweep_pairs::<8>(pool, budget, ctx, views),
        (SamplerChoice::Dense, 9..=PAIR_MAX_TOPICS) => {
            sweep_pairs::<PAIR_MAX_TOPICS>(pool, budget, ctx, views)
        }
        _ => {
            hlm_par::par_for_each_scratch(
                pool,
                budget,
                views,
                || SweepScratch::new(ctx.k, ctx.m, ctx.kind),
                |scratch, c, view| sweep_chunk(scratch, ctx, c, view),
            );
        }
    }
}

fn sweep_pairs<const W: usize>(
    pool: &Pool,
    budget: Budget,
    ctx: &SweepCtx,
    views: &mut [ChunkView],
) {
    let mut pairs: Vec<&mut [ChunkView]> = views.chunks_mut(2).collect();
    hlm_par::par_for_each_scratch(
        pool,
        budget,
        &mut pairs,
        || PairScratch::<W>::new(ctx),
        |scratch, p, pair| match pair {
            [a, b] => sweep_pair(scratch, ctx, 2 * p, a, b),
            [a] => sweep_chunk(&mut scratch.single, ctx, 2 * p, a),
            _ => {}
        },
    );
}

/// A pool slot's buffers for [`sweep_pair`]: one word-major table per
/// chunk, W cells a word, and the scratch of an unpaired last chunk.
struct PairScratch<const W: usize> {
    kw: [Vec<[f64; W]>; 2],
    single: SweepScratch,
}

impl<const W: usize> PairScratch<W> {
    fn new(ctx: &SweepCtx) -> Self {
        PairScratch {
            kw: [vec![[0.0; W]; ctx.m], vec![[0.0; W]; ctx.m]],
            single: SweepScratch::new(ctx.k, ctx.m, ctx.kind),
        }
    }
}

/// One chunk's state in [`sweep_pair`]: the dense kernel's tables at a
/// width of `W ≥ K` topics, and a cursor over the chunk's tokens. Topics
/// `K..W` are padding whose weight is exactly `+0.0` (see
/// [`Lane::draw`]), so they add nothing to a running sum and are never
/// drawn.
struct Lane<'a, const W: usize> {
    rng: StdRng,
    /// Word-major chunk-local topic-word counts.
    kw: &'a mut [[f64; W]],
    k_tot: [f64; W],
    /// `1 / (k_tot[t] + Mβ)`.
    inv: [f64; W],
    z: &'a mut [u16],
    /// The chunk's K-wide doc-topic rows.
    rows: &'a mut [f64],
    delta: &'a mut [f64],
    /// Token starts of the chunk's documents, plus its end.
    starts: &'a [usize],
    /// Next token (shard index) and its document (chunk-local).
    i: usize,
    d: usize,
    /// Document `d`'s row, padded to W.
    row: [f64; W],
}

impl<'a, const W: usize> Lane<'a, W> {
    fn new(
        ctx: &'a SweepCtx,
        chunk: usize,
        view: &'a mut ChunkView,
        kw: &'a mut [[f64; W]],
    ) -> Self {
        let (k, m) = (ctx.k, ctx.m);
        let starts = &ctx.doc_start[view.d_lo..=view.d_hi];
        if ctx.count_rows {
            count_rows(view.dk, view.z, starts, k);
        }
        let snap = ctx.n_kw.as_slice();
        for (w, kw_row) in kw.iter_mut().enumerate() {
            for (t, c) in kw_row.iter_mut().enumerate() {
                *c = if t < k { snap[t * m + w] } else { 0.0 };
            }
        }
        let (mut k_tot, mut inv) = ([0.0; W], [0.0; W]);
        k_tot[..k].copy_from_slice(ctx.n_k);
        for (inv, &tot) in inv.iter_mut().zip(&k_tot[..k]) {
            *inv = 1.0 / (tot + ctx.beta_sum);
        }
        let mut row = [0.0; W];
        row[..k].copy_from_slice(&view.dk[..k]);
        Lane {
            rng: StdRng::seed_from_u64(hlm_par::split_seed3(
                ctx.seed,
                ctx.sweep,
                (ctx.chunk_base + chunk) as u64,
            )),
            kw,
            k_tot,
            inv,
            z: &mut *view.z,
            rows: &mut *view.dk,
            delta: &mut *view.delta,
            starts,
            i: starts[0],
            d: 0,
            row,
        }
    }

    fn tokens(&self) -> usize {
        self.starts[self.starts.len() - 1] - self.starts[0]
    }

    /// Moves the cursor into the document of the next token, storing the
    /// finished document's row back.
    #[inline(always)]
    fn seek(&mut self, k: usize) {
        while self.i == self.starts[self.d + 1] {
            self.rows[self.d * k..(self.d + 1) * k].copy_from_slice(&self.row[..k]);
            self.d += 1;
            self.row[..k].copy_from_slice(&self.rows[self.d * k..(self.d + 1) * k]);
        }
    }

    /// Takes the next token out of the counts; returns its word and
    /// weight.
    #[inline(always)]
    fn remove(&mut self, ctx: &SweepCtx) -> (usize, f64) {
        self.seek(ctx.k);
        let i = self.i;
        let w = ctx.tok_word[i] as usize;
        let weight = ctx.tok_weight.map_or(1.0, |ws| ws[i]);
        let old_z = self.z[i - self.starts[0]] as usize;
        self.row[old_z] -= weight;
        self.kw[w][old_z] -= weight;
        self.k_tot[old_z] -= weight;
        self.inv[old_z] = 1.0 / (self.k_tot[old_z] + ctx.beta_sum);
        (w, weight)
    }

    /// [`sample_dense`] at width W: the same products, running sums and
    /// count. A padding topic's weight is `+0.0` outright, so its running
    /// sum is the total, which exceeds `u`; it is never counted, and the
    /// cut to K - 1 gives a non-finite total the K-wide count too.
    #[inline(always)]
    fn draw(&mut self, ctx: &SweepCtx, w: usize) -> usize {
        let kw_row = &self.kw[w];
        let mut cum = [0.0; W];
        for t in 0..W {
            cum[t] = if t < ctx.k {
                (self.row[t] + ctx.alpha) * (kw_row[t] + ctx.beta) * self.inv[t]
            } else {
                0.0
            };
        }
        let mut acc = 0.0;
        for c in cum.iter_mut() {
            acc += *c;
            *c = acc;
        }
        let u = self.rng.gen::<f64>() * acc;
        let below: usize = cum[..W - 1].iter().map(|&c| usize::from(c <= u)).sum();
        below.min(ctx.k - 1)
    }

    /// Puts the token back under `new_z` and moves to the next one.
    #[inline(always)]
    fn insert(&mut self, ctx: &SweepCtx, (w, weight): (usize, f64), new_z: usize) {
        self.row[new_z] += weight;
        self.kw[w][new_z] += weight;
        self.k_tot[new_z] += weight;
        self.inv[new_z] = 1.0 / (self.k_tot[new_z] + ctx.beta_sum);
        self.z[self.i - self.starts[0]] = new_z as u16;
        self.i += 1;
    }

    /// Stores the last row back and writes the chunk's deltas, as
    /// [`sweep_chunk`] does.
    fn finish(self, ctx: &SweepCtx) {
        let (k, m) = (ctx.k, ctx.m);
        self.rows[self.d * k..(self.d + 1) * k].copy_from_slice(&self.row[..k]);
        let snap = ctx.n_kw.as_slice();
        let (kw_delta, k_delta) = self.delta.split_at_mut(k * m);
        for (w, kw_row) in self.kw.iter().enumerate() {
            for (t, &local) in kw_row[..k].iter().enumerate() {
                kw_delta[t * m + w] = local - snap[t * m + w];
            }
        }
        for (d, (&local, &global)) in k_delta.iter_mut().zip(self.k_tot.iter().zip(ctx.n_k)) {
            *d = local - global;
        }
    }
}

/// Samples chunks `chunk` and `chunk + 1` (views `a` and `b`) one token of
/// each at a time: both chunks' weight rows, running sums and draws sit in
/// one loop body, so the two dependency chains overlap, and the topic
/// width W is a constant, so every per-topic loop unrolls. Each chunk keeps
/// its RNG stream, its document order and its operation order, so its
/// assignments, rows and deltas are the bits [`sweep_chunk`] gives.
fn sweep_pair<const W: usize>(
    scratch: &mut PairScratch<W>,
    ctx: &SweepCtx,
    chunk: usize,
    a: &mut ChunkView,
    b: &mut ChunkView,
) {
    let [kw_a, kw_b] = &mut scratch.kw;
    let mut la = Lane::new(ctx, chunk, a, kw_a);
    let mut lb = Lane::new(ctx, chunk + 1, b, kw_b);
    let (na, nb) = (la.tokens(), lb.tokens());
    for _ in 0..na.min(nb) {
        let ta = la.remove(ctx);
        let tb = lb.remove(ctx);
        let za = la.draw(ctx, ta.0);
        let zb = lb.draw(ctx, tb.0);
        la.insert(ctx, ta, za);
        lb.insert(ctx, tb, zb);
    }
    for lane in [&mut la, &mut lb] {
        for _ in na.min(nb)..lane.tokens() {
            let t = lane.remove(ctx);
            let z = lane.draw(ctx, t.0);
            lane.insert(ctx, t, z);
        }
    }
    la.finish(ctx);
    lb.finish(ctx);
}

/// Checkpoint kind tag for collapsed Gibbs runs.
pub const GIBBS_CHECKPOINT_KIND: &str = "lda-gibbs";

/// Collapsed Gibbs trainer: the [`sharded`](crate::sharded) driver over
/// its documents as one shard whose sampler state stays in RAM.
#[derive(Debug, Clone)]
pub struct GibbsTrainer {
    cfg: LdaConfig,
}

impl GibbsTrainer {
    /// Creates a trainer.
    ///
    /// # Panics
    /// Panics if the configuration is inconsistent.
    pub fn new(cfg: LdaConfig) -> Self {
        cfg.validate();
        GibbsTrainer { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &LdaConfig {
        &self.cfg
    }

    /// Runs the sampler and returns the estimated model (posterior-mean
    /// `phi` averaged over post-burn-in samples).
    ///
    /// # Panics
    /// Panics if a document references a word outside the configured
    /// vocabulary or carries a non-positive weight.
    pub fn fit(&self, docs: &[WeightedDoc]) -> LdaModel {
        self.fit_resumable(docs, &mut TrainControl::noop(), None)
            .expect("noop control cannot interrupt training")
    }

    /// Like [`GibbsTrainer::fit`], but consults `ctrl` at every sweep
    /// boundary (watchdog, divergence detection, per-sweep checkpointing)
    /// and optionally continues from a checkpoint written by an earlier run.
    /// An interrupted-then-resumed run produces a model bit-identical to an
    /// uninterrupted one.
    ///
    /// # Panics
    /// Panics on the same malformed-input conditions as `fit`.
    pub fn fit_resumable(
        &self,
        docs: &[WeightedDoc],
        ctrl: &mut TrainControl,
        resume: Option<&Checkpoint>,
    ) -> Result<LdaModel, ResilienceError> {
        crate::sharded::fit_resident(&self.cfg, docs, ctrl, resume)
    }

    /// Materializes a model directly from a checkpoint, without further
    /// sweeps — the rollback path when a later sweep diverges. Fails with
    /// [`ResilienceError::Mismatch`] if the checkpoint predates burn-in (no
    /// phi samples collected yet) or is in the old all-JSON format.
    pub fn model_from_checkpoint(&self, ckpt: &Checkpoint) -> Result<LdaModel, ResilienceError> {
        crate::sharded::model_from_checkpoint(&self.cfg, GIBBS_CHECKPOINT_KIND, ckpt)
    }
}

/// Griffiths–Steyvers corpus log-likelihood `log P(w|z)` of the current
/// topic assignment, computed read-only from the count tables:
///
/// ```text
/// K·[lnΓ(Mβ) − M·lnΓ(β)] + Σ_k [ Σ_w lnΓ(n_kw + β) − lnΓ(n_k + Mβ) ]
/// ```
///
/// Recorded as a convergence trace when observability is enabled; with
/// weighted tokens the counts are real-valued and this is the natural
/// generalization.
pub(crate) fn gibbs_log_likelihood(n_kw: &Matrix, n_k: &[f64], beta: f64) -> f64 {
    use hlm_linalg::special::ln_gamma;
    let (k, m) = (n_kw.rows(), n_kw.cols());
    let beta_sum = beta * m as f64;
    let mut ll = k as f64 * (ln_gamma(beta_sum) - m as f64 * ln_gamma(beta));
    for (t, &nk) in n_k.iter().enumerate().take(k) {
        for &c in n_kw.row(t) {
            ll += ln_gamma(c + beta);
        }
        ll -= ln_gamma(nk + beta_sum);
    }
    ll
}

/// Accumulates the sums of one step of Minka's fixed-point update for the
/// symmetric Dirichlet concentration over doc-topic rows:
///
/// ```text
/// α ← α · Σ_d Σ_k [ψ(n_dk + α) − ψ(α)]
///         ───────────────────────────────
///         K · Σ_d [ψ(n_d + Kα) − ψ(Kα)]
/// ```
///
/// Empty documents are skipped. The driver streams each shard's rows in
/// turn, so rows must arrive in global document order for the accumulation
/// order (and hence the floating-point result) to be the same at any shard
/// count.
pub(crate) fn minka_alpha_accumulate<'a>(
    alpha: f64,
    k: usize,
    rows: impl Iterator<Item = &'a [f64]>,
    num: &mut f64,
    den: &mut f64,
) {
    use hlm_linalg::special::digamma;
    for row in rows {
        let n_d: f64 = row.iter().sum();
        if n_d <= 0.0 {
            continue;
        }
        for &c in row {
            *num += digamma(c + alpha) - digamma(alpha);
        }
        *den += digamma(n_d + k as f64 * alpha) - digamma(k as f64 * alpha);
    }
}

/// Applies Minka's fixed-point step from the accumulated sums, clamped to
/// `[1e-4, 1e2]` to keep a pathological early count table from
/// destabilizing the chain.
pub(crate) fn minka_alpha_finish(alpha: f64, k: usize, num: f64, den: f64) -> f64 {
    if den <= 0.0 || num <= 0.0 {
        return alpha;
    }
    (alpha * num / (k as f64 * den)).clamp(1e-4, 1e2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit_weights;

    /// One Minka step over a whole doc-topic table.
    fn minka_alpha_update(alpha: f64, n_dk: &Matrix, k: usize) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        minka_alpha_accumulate(
            alpha,
            k,
            (0..n_dk.rows()).map(|d| n_dk.row(d)),
            &mut num,
            &mut den,
        );
        minka_alpha_finish(alpha, k, num, den)
    }

    /// Two planted topics: words 0-2 vs words 3-5.
    fn planted_docs(n_docs: usize, seed: u64) -> Vec<Vec<usize>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_docs)
            .map(|i| {
                let base = if i % 2 == 0 { 0usize } else { 3 };
                (0..8).map(|_| base + rng.gen_range(0..3)).collect()
            })
            .collect()
    }

    fn quick_cfg(n_topics: usize, vocab: usize, seed: u64) -> LdaConfig {
        LdaConfig {
            n_topics,
            vocab_size: vocab,
            n_iters: 120,
            burn_in: 60,
            sample_lag: 5,
            seed,
            alpha: Some(0.5),
            beta: 0.1,
            ..Default::default()
        }
    }

    #[test]
    fn recovers_planted_topics() {
        let docs = planted_docs(120, 1);
        let model = GibbsTrainer::new(quick_cfg(2, 6, 7)).fit(&unit_weights(&docs));
        // Each topic should concentrate on one 3-word block.
        let phi = model.phi();
        let block0: f64 = (0..3).map(|w| phi.get(0, w)).sum();
        let block1: f64 = (0..3).map(|w| phi.get(1, w)).sum();
        // One topic owns block {0,1,2}, the other {3,4,5}.
        let (hi, lo) = if block0 > block1 {
            (block0, block1)
        } else {
            (block1, block0)
        };
        assert!(hi > 0.9, "dominant topic block mass {hi}");
        assert!(lo < 0.1, "other topic block mass {lo}");
    }

    #[test]
    fn phi_rows_are_distributions() {
        let docs = planted_docs(40, 2);
        let model = GibbsTrainer::new(quick_cfg(3, 6, 3)).fit(&unit_weights(&docs));
        for t in 0..3 {
            let s: f64 = model.phi().row(t).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            assert!(
                model.phi().row(t).iter().all(|&p| p > 0.0),
                "beta smoothing keeps phi positive"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let docs = unit_weights(&planted_docs(30, 3));
        let a = GibbsTrainer::new(quick_cfg(2, 6, 11)).fit(&docs);
        let b = GibbsTrainer::new(quick_cfg(2, 6, 11)).fit(&docs);
        assert_eq!(a.phi(), b.phi());
    }

    #[test]
    fn weighted_tokens_shift_phi() {
        // One doc with a heavily weighted word 5 vs unit weights.
        let docs_unit: Vec<WeightedDoc> = vec![vec![(0, 1.0), (5, 1.0)]; 30];
        let docs_heavy: Vec<WeightedDoc> = vec![vec![(0, 1.0), (5, 10.0)]; 30];
        let cfg = quick_cfg(1, 6, 5);
        let unit = GibbsTrainer::new(cfg.clone()).fit(&docs_unit);
        let heavy = GibbsTrainer::new(cfg).fit(&docs_heavy);
        assert!(heavy.phi().get(0, 5) > unit.phi().get(0, 5) + 0.2);
    }

    #[test]
    #[should_panic(expected = "outside vocabulary")]
    fn rejects_out_of_vocab_word() {
        let docs: Vec<WeightedDoc> = vec![vec![(9, 1.0)]];
        GibbsTrainer::new(quick_cfg(2, 6, 1)).fit(&docs);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_non_positive_weight() {
        let docs: Vec<WeightedDoc> = vec![vec![(0, 0.0)]];
        GibbsTrainer::new(quick_cfg(2, 6, 1)).fit(&docs);
    }

    #[test]
    fn single_topic_degenerates_to_smoothed_unigram() {
        let docs = unit_weights(&vec![vec![0, 0, 0, 1]; 20]);
        let model = GibbsTrainer::new(quick_cfg(1, 3, 9)).fit(&docs);
        let phi = model.phi();
        // Counts: w0 = 60, w1 = 20, w2 = 0 with beta = 0.1 smoothing.
        assert!((phi.get(0, 0) - 60.1 / 80.3).abs() < 1e-9);
        assert!((phi.get(0, 2) - 0.1 / 80.3).abs() < 1e-9);
    }

    #[test]
    fn minka_update_shrinks_alpha_on_sparse_mixtures() {
        // Documents drawn from single topics: the optimal symmetric alpha is
        // small. Starting from a deliberately bad alpha = 10, optimization
        // must shrink it, and the resulting model must not fit worse.
        let docs = unit_weights(&planted_docs(150, 8));
        let bad = LdaConfig {
            alpha: Some(10.0),
            optimize_alpha: false,
            ..quick_cfg(2, 6, 21)
        };
        let opt = LdaConfig {
            alpha: Some(10.0),
            optimize_alpha: true,
            ..quick_cfg(2, 6, 21)
        };
        let m_bad = GibbsTrainer::new(bad).fit(&docs);
        let m_opt = GibbsTrainer::new(opt).fit(&docs);
        assert!(
            m_opt.alpha() < 5.0,
            "optimized alpha {} should shrink from 10",
            m_opt.alpha()
        );
        assert_eq!(m_bad.alpha(), 10.0);
        // The optimized model separates the planted blocks at least as well.
        let block_mass = |m: &LdaModel| -> f64 {
            let b0: f64 = (0..3).map(|w| m.phi().get(0, w)).sum();
            b0.max(1.0 - b0)
        };
        assert!(block_mass(&m_opt) + 1e-9 >= block_mass(&m_bad) - 0.05);
    }

    #[test]
    fn minka_update_is_stable_on_degenerate_counts() {
        let n_dk = Matrix::zeros(3, 2); // all-empty documents
        let a = minka_alpha_update(0.5, &n_dk, 2);
        assert_eq!(a, 0.5, "no evidence leaves alpha unchanged");
        // Huge counts stay clamped and finite.
        let big = Matrix::filled(4, 2, 1e6);
        let a2 = minka_alpha_update(50.0, &big, 2);
        assert!(a2.is_finite() && (1e-4..=1e2).contains(&a2));
    }

    #[test]
    fn handles_empty_documents() {
        let mut docs = unit_weights(&planted_docs(20, 4));
        docs.push(Vec::new());
        let model = GibbsTrainer::new(quick_cfg(2, 6, 13)).fit(&docs);
        assert!(model.phi().is_finite());
    }

    #[test]
    fn auto_routes_dense_up_to_the_crossover_and_is_deterministic() {
        // `Auto` keeps the dense kernel through the crossover topic count
        // and switches to alias-MH one topic above it.
        let crossover = SamplerChoice::DENSE_MAX_TOPICS;
        assert_eq!(SamplerChoice::Auto.resolve(crossover), SamplerChoice::Dense);
        assert_eq!(
            SamplerChoice::Auto.resolve(crossover + 1),
            SamplerChoice::AliasMh
        );
        // At K = 24 the dense kernel must keep every contract.
        let docs = unit_weights(&planted_docs(60, 5));
        let cfg = quick_cfg(24, 6, 17);
        assert_eq!(cfg.sampler.resolve(cfg.n_topics), SamplerChoice::Dense);
        let a = GibbsTrainer::new(cfg.clone()).fit(&docs);
        let b = GibbsTrainer::new(cfg).fit(&docs);
        assert_eq!(a.phi(), b.phi(), "dense path must be seed-deterministic");
        for t in 0..24 {
            let s: f64 = a.phi().row(t).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {t} sums to {s}");
            assert!(a.phi().row(t).iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn dense_sampler_handles_weighted_tokens_and_resume() {
        use hlm_resilience::{CheckpointStore, MemIo, RunGuard};

        // Fractional weights leave tiny count residues in the dense
        // sampler's tables; kill/resume must stay bit-identical.
        let mut rng = StdRng::seed_from_u64(91);
        let docs: Vec<WeightedDoc> = (0..50)
            .map(|_| {
                (0..10)
                    .map(|_| (rng.gen_range(0..6), 0.25 + rng.gen::<f64>()))
                    .collect()
            })
            .collect();
        let cfg = LdaConfig {
            sampler: SamplerChoice::Dense,
            ..quick_cfg(24, 6, 23)
        };
        let full = GibbsTrainer::new(cfg.clone()).fit(&docs);
        assert!(full.phi().is_finite());

        let store = CheckpointStore::new(Box::new(MemIo::new()));
        let trainer = GibbsTrainer::new(cfg);
        let mut ctrl = TrainControl::new(GIBBS_CHECKPOINT_KIND, &store)
            .with_guard(RunGuard::unlimited().abort_at_iteration(70));
        trainer.fit_resumable(&docs, &mut ctrl, None).unwrap_err();
        let ckpt = store.latest_good(GIBBS_CHECKPOINT_KIND).unwrap().unwrap();
        let resumed = trainer
            .fit_resumable(&docs, &mut TrainControl::noop(), Some(&ckpt))
            .unwrap();
        assert_eq!(
            resumed.phi(),
            full.phi(),
            "dense resume must be bit-identical"
        );
    }

    #[test]
    fn kill_and_resume_matches_uninterrupted_run() {
        use hlm_resilience::{CheckpointStore, MemIo, RunGuard};

        let docs = unit_weights(&planted_docs(30, 3));
        let cfg = quick_cfg(2, 6, 11);
        let full = GibbsTrainer::new(cfg.clone()).fit(&docs);

        // Kill mid-accumulation (after burn-in at 60, before the end at 120).
        let store = CheckpointStore::new(Box::new(MemIo::new()));
        let trainer = GibbsTrainer::new(cfg);
        let mut ctrl = TrainControl::new(GIBBS_CHECKPOINT_KIND, &store)
            .with_guard(RunGuard::unlimited().abort_at_iteration(70));
        let err = trainer.fit_resumable(&docs, &mut ctrl, None).unwrap_err();
        assert!(err.is_interruption());

        let ckpt = store.latest_good(GIBBS_CHECKPOINT_KIND).unwrap().unwrap();
        assert_eq!(ckpt.iteration, 70);
        let resumed = trainer
            .fit_resumable(&docs, &mut TrainControl::noop(), Some(&ckpt))
            .unwrap();
        assert_eq!(resumed.phi(), full.phi(), "resume must be bit-identical");
        assert_eq!(resumed.alpha(), full.alpha());
    }

    #[test]
    fn model_from_checkpoint_requires_phi_samples() {
        use hlm_resilience::{CheckpointStore, MemIo, RunGuard};

        let docs = unit_weights(&planted_docs(30, 3));
        let trainer = GibbsTrainer::new(quick_cfg(2, 6, 11));
        let store = CheckpointStore::new(Box::new(MemIo::new()));

        // Killed during burn-in: no phi samples, rollback must refuse.
        let mut ctrl = TrainControl::new(GIBBS_CHECKPOINT_KIND, &store)
            .with_guard(RunGuard::unlimited().abort_at_iteration(10));
        trainer.fit_resumable(&docs, &mut ctrl, None).unwrap_err();
        let early = store.latest_good(GIBBS_CHECKPOINT_KIND).unwrap().unwrap();
        assert!(matches!(
            trainer.model_from_checkpoint(&early),
            Err(hlm_resilience::ResilienceError::Mismatch { .. })
        ));

        // Killed after burn-in: rollback produces a valid model.
        let mut ctrl = TrainControl::new(GIBBS_CHECKPOINT_KIND, &store)
            .with_guard(RunGuard::unlimited().abort_at_iteration(80));
        trainer.fit_resumable(&docs, &mut ctrl, None).unwrap_err();
        let late = store.latest_good(GIBBS_CHECKPOINT_KIND).unwrap().unwrap();
        let model = trainer.model_from_checkpoint(&late).unwrap();
        assert!(model.phi().is_finite());
    }

    #[test]
    fn resume_rejects_mismatched_corpus_or_kind() {
        use hlm_resilience::{Checkpoint, CheckpointStore, MemIo, RunGuard};

        let docs = unit_weights(&planted_docs(30, 3));
        let trainer = GibbsTrainer::new(quick_cfg(2, 6, 11));
        let store = CheckpointStore::new(Box::new(MemIo::new()));
        let mut ctrl = TrainControl::new(GIBBS_CHECKPOINT_KIND, &store)
            .with_guard(RunGuard::unlimited().abort_at_iteration(5));
        trainer.fit_resumable(&docs, &mut ctrl, None).unwrap_err();
        let ckpt = store.latest_good(GIBBS_CHECKPOINT_KIND).unwrap().unwrap();

        // Different corpus (token count changes).
        let other = unit_weights(&planted_docs(10, 9));
        let err = trainer
            .fit_resumable(&other, &mut TrainControl::noop(), Some(&ckpt))
            .unwrap_err();
        assert!(matches!(
            err,
            hlm_resilience::ResilienceError::Mismatch { .. }
        ));

        // Wrong kind tag.
        let wrong = Checkpoint::new("lstm", ckpt.iteration, ckpt.payload.clone());
        let err = trainer
            .fit_resumable(&docs, &mut TrainControl::noop(), Some(&wrong))
            .unwrap_err();
        assert!(matches!(
            err,
            hlm_resilience::ResilienceError::Mismatch { .. }
        ));
    }

    #[test]
    fn alias_sampler_is_deterministic_and_well_formed() {
        // Above the crossover `Auto` resolves to the alias-MH sampler; it
        // must keep every contract the dense path has.
        let docs = unit_weights(&planted_docs(60, 5));
        let cfg = quick_cfg(80, 6, 17);
        assert_eq!(cfg.sampler.resolve(cfg.n_topics), SamplerChoice::AliasMh);
        let a = GibbsTrainer::new(cfg.clone()).fit(&docs);
        let b = GibbsTrainer::new(cfg).fit(&docs);
        assert_eq!(a.phi(), b.phi(), "alias path must be seed-deterministic");
        for t in 0..80 {
            let s: f64 = a.phi().row(t).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {t} sums to {s}");
            assert!(a.phi().row(t).iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn alias_sampler_recovers_planted_topics_when_forced() {
        // A fixed sampler choice is part of the schedule: forcing alias-MH at
        // small K must still find the two planted word blocks.
        let docs = planted_docs(120, 1);
        let cfg = LdaConfig {
            sampler: SamplerChoice::AliasMh,
            ..quick_cfg(2, 6, 7)
        };
        let model = GibbsTrainer::new(cfg).fit(&unit_weights(&docs));
        let phi = model.phi();
        let block0: f64 = (0..3).map(|w| phi.get(0, w)).sum();
        let block1: f64 = (0..3).map(|w| phi.get(1, w)).sum();
        let (hi, lo) = if block0 > block1 {
            (block0, block1)
        } else {
            (block1, block0)
        };
        assert!(hi > 0.9, "dominant topic block mass {hi}");
        assert!(lo < 0.1, "other topic block mass {lo}");
    }

    #[test]
    fn alias_sampler_handles_weighted_tokens_and_resume() {
        use hlm_resilience::{CheckpointStore, MemIo, RunGuard};

        // Fractional weights exercise the clamped-count proposal weights;
        // kill/resume must stay bit-identical under MH accept/reject.
        let mut rng = StdRng::seed_from_u64(92);
        let docs: Vec<WeightedDoc> = (0..50)
            .map(|_| {
                (0..10)
                    .map(|_| (rng.gen_range(0..6), 0.25 + rng.gen::<f64>()))
                    .collect()
            })
            .collect();
        let cfg = LdaConfig {
            sampler: SamplerChoice::AliasMh,
            ..quick_cfg(24, 6, 23)
        };
        let full = GibbsTrainer::new(cfg.clone()).fit(&docs);
        assert!(full.phi().is_finite());

        let store = CheckpointStore::new(Box::new(MemIo::new()));
        let trainer = GibbsTrainer::new(cfg);
        let mut ctrl = TrainControl::new(GIBBS_CHECKPOINT_KIND, &store)
            .with_guard(RunGuard::unlimited().abort_at_iteration(70));
        trainer.fit_resumable(&docs, &mut ctrl, None).unwrap_err();
        let ckpt = store.latest_good(GIBBS_CHECKPOINT_KIND).unwrap().unwrap();
        let resumed = trainer
            .fit_resumable(&docs, &mut TrainControl::noop(), Some(&ckpt))
            .unwrap();
        assert_eq!(
            resumed.phi(),
            full.phi(),
            "alias resume must be bit-identical"
        );
    }

    /// The dense chunk kernel as it was before its word-major layout: a
    /// topic-major chunk-local table read with stride M, one fused pass of
    /// products and running sums, and an early-exit scan, over a per-token
    /// document index. The oracle the word-major kernel must match bit for
    /// bit.
    fn topic_major_dense_chunk(ctx: &SweepCtx, chunk: usize, view: &mut ChunkView) {
        let (k, m) = (ctx.k, ctx.m);
        let mut rng = StdRng::seed_from_u64(hlm_par::split_seed3(
            ctx.seed,
            ctx.sweep,
            (ctx.chunk_base + chunk) as u64,
        ));
        let mut kw = ctx.n_kw.as_slice().to_vec();
        let mut k_tot = ctx.n_k.to_vec();
        let mut inv: Vec<f64> = k_tot.iter().map(|&t| 1.0 / (t + ctx.beta_sum)).collect();
        let mut cum = vec![0.0; k];
        let t_lo = ctx.doc_start[view.d_lo];
        let tok_doc: Vec<usize> = (view.d_lo..view.d_hi)
            .flat_map(|d| std::iter::repeat_n(d, ctx.doc_start[d + 1] - ctx.doc_start[d]))
            .collect();
        for (j, &d) in tok_doc.iter().enumerate() {
            let i = t_lo + j;
            let w = ctx.tok_word[i] as usize;
            let weight = ctx.tok_weight.map_or(1.0, |ws| ws[i]);
            let row = (d - view.d_lo) * k;
            let old_z = view.z[j] as usize;
            view.dk[row + old_z] -= weight;
            kw[old_z * m + w] -= weight;
            k_tot[old_z] -= weight;
            inv[old_z] = 1.0 / (k_tot[old_z] + ctx.beta_sum);
            let mut acc = 0.0;
            let dk_row = &view.dk[row..row + k];
            let kw_col = kw[w..].iter().step_by(m);
            for (c, ((&dkv, &invv), &kwv)) in
                cum.iter_mut().zip(dk_row.iter().zip(&inv).zip(kw_col))
            {
                acc += (dkv + ctx.alpha) * (kwv + ctx.beta) * invv;
                *c = acc;
            }
            let u = rng.gen::<f64>() * acc;
            let new_z = cum[..k - 1].iter().position(|&c| u < c).unwrap_or(k - 1);
            view.dk[row + new_z] += weight;
            kw[new_z * m + w] += weight;
            k_tot[new_z] += weight;
            inv[new_z] = 1.0 / (k_tot[new_z] + ctx.beta_sum);
            view.z[j] = new_z as u16;
        }
        let (kw_delta, k_delta) = view.delta.split_at_mut(k * m);
        for (d, (&local, &global)) in kw_delta.iter_mut().zip(kw.iter().zip(ctx.n_kw.as_slice())) {
            *d = local - global;
        }
        for (d, (&local, &global)) in k_delta.iter_mut().zip(k_tot.iter().zip(ctx.n_k)) {
            *d = local - global;
        }
    }

    /// How [`word_major_dense_kernel_matches_the_topic_major_oracle_bit_for_bit`]
    /// samples a shard's chunks.
    #[derive(Clone, Copy, PartialEq)]
    enum Kernel {
        TopicMajor,
        WordMajor,
        /// [`sweep_chunks`]: fused pairs at K ≤ [`PAIR_MAX_TOPICS`].
        Pairs,
    }

    #[test]
    fn word_major_dense_kernel_matches_the_topic_major_oracle_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let m = 38;
        // Every K of the pair kernel (exact widths and padded classes),
        // and K beyond it.
        for k in (2..=PAIR_MAX_TOPICS).chain([32, 48, 64]) {
            // Three chunks (the last one unpaired) and four, some of their
            // documents empty.
            for n_docs in [2 * DOC_CHUNK + 17, 3 * DOC_CHUNK + 5] {
                for fractional in [false, true] {
                    let seed = (k * 2 + n_docs) as u64 * 2 + u64::from(fractional);
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut doc_start = vec![0];
                    for _ in 0..n_docs {
                        let len = rng.gen_range(0..12);
                        doc_start.push(doc_start.last().unwrap() + len);
                    }
                    let n = *doc_start.last().unwrap();
                    let words: Vec<u32> = (0..n).map(|_| rng.gen_range(0..m as u32)).collect();
                    let weights: Vec<f64> = (0..n).map(|_| 0.25 + rng.gen::<f64>()).collect();
                    let weight = |i: usize| if fractional { weights[i] } else { 1.0 };
                    let z: Vec<u16> = (0..n).map(|_| rng.gen_range(0..k as u16)).collect();
                    // The snapshot holds the shard's own tokens plus other
                    // shards' mass, so no count a token leaves goes negative.
                    let mut n_kw = Matrix::from_fn(k, m, |_, _| f64::from(rng.gen_range(0..40u8)));
                    let mut dk = vec![0.0; n_docs * k];
                    for (d, span) in doc_start.windows(2).enumerate() {
                        for i in span[0]..span[1] {
                            dk[d * k + usize::from(z[i])] += weight(i);
                            n_kw.add_at(usize::from(z[i]), words[i] as usize, weight(i));
                        }
                    }
                    let n_k: Vec<f64> = (0..k).map(|t| n_kw.row(t).iter().sum()).collect();
                    let run = |kernel: Kernel| {
                        let ctx = SweepCtx {
                            doc_start: &doc_start,
                            tok_word: &words,
                            tok_weight: fractional.then_some(&weights[..]),
                            // A unit-weight chunk counts its own rows from
                            // garbage; the oracle starts from counted rows.
                            count_rows: kernel != Kernel::TopicMajor && !fractional,
                            n_kw: &n_kw,
                            n_k: &n_k,
                            k,
                            m,
                            alpha: 0.3,
                            beta: 0.05,
                            beta_sum: 0.05 * m as f64,
                            seed: 77,
                            sweep: 5,
                            chunk_base: 3,
                            kind: SamplerChoice::Dense,
                            alias: None,
                        };
                        let mut z = z.clone();
                        let mut dk = if ctx.count_rows {
                            vec![f64::NAN; dk.len()]
                        } else {
                            dk.clone()
                        };
                        let stride = delta_stride(SamplerChoice::Dense, k, m);
                        let chunks = hlm_par::chunk_count(n_docs, DOC_CHUNK);
                        let mut deltas = vec![0.0; chunks * stride];
                        let mut views =
                            build_views(&mut z, &mut dk, &mut deltas, &doc_start, k, stride);
                        let mut scratch = SweepScratch::new(k, m, SamplerChoice::Dense);
                        match kernel {
                            Kernel::TopicMajor => {
                                for (c, view) in views.iter_mut().enumerate() {
                                    topic_major_dense_chunk(&ctx, c, view);
                                }
                            }
                            Kernel::WordMajor => {
                                for (c, view) in views.iter_mut().enumerate() {
                                    sweep_chunk(&mut scratch, &ctx, c, view);
                                }
                            }
                            Kernel::Pairs => sweep_chunks(&Pool::new(2), &ctx, &mut views),
                        }
                        drop(views);
                        (z, dk, deltas)
                    };
                    let (want_z, want_dk, want_delta) = run(Kernel::TopicMajor);
                    for kernel in [Kernel::WordMajor, Kernel::Pairs] {
                        let (got_z, got_dk, got_delta) = run(kernel);
                        let case = format!(
                            "k {k} docs {n_docs} fractional {fractional} pairs {}",
                            kernel == Kernel::Pairs
                        );
                        assert_ne!(want_z, z, "{case}: the chunks must move some topics");
                        assert_eq!(got_z, want_z, "{case}");
                        assert_eq!(bits(&got_dk), bits(&want_dk), "{case}");
                        assert_eq!(bits(&got_delta), bits(&want_delta), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn alias_sampler_handles_empty_documents() {
        let mut docs = unit_weights(&planted_docs(20, 4));
        docs.push(Vec::new());
        docs.insert(0, Vec::new());
        let cfg = LdaConfig {
            sampler: SamplerChoice::AliasMh,
            ..quick_cfg(8, 6, 13)
        };
        let model = GibbsTrainer::new(cfg).fit(&docs);
        assert!(model.phi().is_finite());
    }
}
