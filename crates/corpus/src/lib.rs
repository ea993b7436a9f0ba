//! Domain model for company IT install bases.
//!
//! This crate formalizes Section 2 of the paper:
//!
//! * a [`Vocabulary`] of `M = 38` hardware / low-level-software product
//!   categories (the category layer of the HG Data hierarchy),
//! * a [`Company`] `c_i` with its install base — a set of products
//!   `A_i ⊂ A` (Equation 1) together with first-seen timestamps, so the
//!   time-sorted sequence view `AS_i` is available too,
//! * the [`Corpus`] `C = {c_0, …, c_{N−1}}` with binary company-product
//!   vectors `𝒜_i` (Equations 2–3) and TF-IDF weighted variants,
//! * 70/10/20 train/validation/test [`split::Split`]s,
//! * [`time::Month`] arithmetic and the sliding evaluation windows `W_r`
//!   (Section 4.3), and
//! * D-U-N-S-style [`aggregate`]: per-site records rolled up into domestic
//!   company entities, mirroring the paper's data-integration step.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod aggregate;
pub mod company;
pub mod corpus;
pub mod io;
pub mod sequence;
pub mod shard;
pub mod sic;
pub mod split;
pub mod tfidf;
pub mod time;
pub mod vocab;

pub use company::{Company, CompanyId, InstallEvent, Sic2};
pub use corpus::Corpus;
pub use shard::{
    CorpusSource, Manifest, MemShardSource, ProductSets, ShardEntry, ShardError, ShardReader,
    ShardStore, ShardWriter,
};
pub use split::Split;
pub use time::{Month, SlidingWindows, TimeWindow};
pub use vocab::{ProductId, Vocabulary};
