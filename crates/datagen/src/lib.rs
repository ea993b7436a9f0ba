//! Synthetic IT install-base simulator.
//!
//! The paper's corpus — 860k companies from the HG Data Company database —
//! is proprietary, so this crate provides the substitute required for the
//! reproduction: a seeded generator whose output has the structural
//! properties every experiment in the paper depends on:
//!
//! 1. **Latent mixture structure.** Each company draws a mixture over a small
//!    number of planted *IT profiles* (hardware-centric datacenter,
//!    enterprise software, communications/cloud) through an industry-specific
//!    Dirichlet prior, then samples its products from the mixture. LDA's
//!    modelling assumptions therefore genuinely hold, which is what makes
//!    LDA the best-fitting model in the paper.
//! 2. **Popularity skew.** A background distribution makes a handful of
//!    categories (OS, network hardware, printers, …) near-ubiquitous. This is
//!    the property that defeats raw-binary company distances, co-clustering
//!    and BPMF in the paper.
//! 3. **Sequential structure.** Products are acquired in dependency order
//!    (foundational categories before virtualization/cloud), with noise.
//!    N-gram frequencies are significantly non-i.i.d. — the paper reports
//!    69% of bigrams and 43% of trigrams significant — yet the order carries
//!    less information than the mixture, so sequence models (LSTM, n-gram,
//!    CHH) fit worse than LDA, as observed.
//! 4. **HG-style plumbing.** Companies have D-U-N-S-like ids, SIC2
//!    industries, countries, several sites whose install bases must be
//!    aggregated, employee/revenue attributes, and monthly first-seen
//!    timestamps spanning 1990-01 … 2016-01.
//!
//! See DESIGN.md §2 for the substitution rationale.

pub(crate) mod blobs;
pub mod config;
pub mod events;
pub(crate) mod generator;
pub(crate) mod profiles;

pub use blobs::blob_matrix;
pub use config::GeneratorConfig;
pub use events::{
    generate_events, EventStream, EventStreamConfig, LaunchSpec, MixShift, StreamEvent, StreamState,
};
pub use generator::{generate, generate_sharded, generate_sites};
