//! Conditional Heavy Hitters (CHH).
//!
//! The paper's time-dependent association-rule recommender (Sections 3.2,
//! 5.1) follows Mirylenka et al., *"Conditional heavy hitters: detecting
//! interesting correlations in data streams"* (VLDB Journal 2015): a
//! conditional heavy hitter is a `(context, item)` pair whose conditional
//! probability `P(item | context)` is large. The paper uses **exact** CHH
//! with context depth 2 (dependencies on the previous products up to second
//! order).
//!
//! This crate provides
//!
//! * [`ExactChh`] — exact conditional count tables for every context depth
//!   `0 ..= depth`, with longest-context-first backoff for prediction, the
//!   CHH recommender of Figure 3/4, and heavy-hitter enumeration; and
//! * [`StreamingChh`] — a budgeted streaming approximation (SpaceSaving
//!   counters per context, context eviction by support) for the
//!   memory-bounded regime the CHH literature targets; and
//! * [`AprioriModel`] — classic time-agnostic association-rule mining
//!   (support / confidence / lift over install-base itemsets), the other
//!   member of the Section-3.2 pattern-mining family.

pub mod apriori;
pub mod exact;
pub mod streaming;

pub use apriori::{AprioriConfig, AprioriModel, AssociationRule};
pub use exact::{ConditionalHeavyHitter, ExactChh};
pub use streaming::StreamingChh;
