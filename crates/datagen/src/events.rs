//! Live event-stream mode: the corpus as it unfolds in time.
//!
//! [`generate`](crate::generate) materializes the install-base world as of
//! the horizon month. [`generate_events`] decomposes the same world into a
//! totally ordered stream of timestamped events — company arrivals, product
//! acquisitions, and (beyond the base generator) *product launches* that
//! grow the vocabulary past the standard 38 categories — so the replay
//! driver can feed it to the serving stack month by month.
//!
//! Determinism contract: the stream is a pure function of the configuration.
//! Base-corpus events come from [`generate`](crate::generate) (bit-identical
//! at any thread count); launch adoptions and injected-shift acquisitions
//! draw from per-`(salt, stream, company)` RNGs split off the master seed,
//! so no event depends on evaluation order.

use crate::config::GeneratorConfig;
use hlm_corpus::{Company, CompanyId, Corpus, InstallEvent, Month, ProductId, Vocabulary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// RNG stream salts (xored into the master seed) so launch adoption and
/// shift draws never collide with the base generator's company streams.
const LAUNCH_SALT: u64 = 0x4C41_554E_4348; // "LAUNCH"
const SHIFT_SALT: u64 = 0x0053_4849_4654; // "SHIFT"

/// A product launched mid-stream, growing the vocabulary.
#[derive(Debug, Clone)]
pub struct LaunchSpec {
    /// Category name; must not collide with an existing category.
    pub name: String,
    /// Launch month — the vocabulary grows at the start of this month.
    pub month: Month,
    /// Monthly adoption hazard: each month after launch, each company that
    /// has not yet adopted the product acquires it with this probability.
    pub adoption: f64,
}

/// An injected product-mix shift: from `month` on, companies start acquiring
/// the named products at an elevated rate — the planted drift signal the
/// detector must catch.
#[derive(Debug, Clone)]
pub struct MixShift {
    /// First month of the shifted regime.
    pub month: Month,
    /// Products whose acquisition rate jumps (base-vocabulary names).
    pub products: Vec<String>,
    /// Monthly probability that a company acquires one (uniformly chosen)
    /// not-yet-owned product from the set.
    pub monthly_rate: f64,
}

/// Configuration of the event stream.
#[derive(Debug, Clone)]
pub struct EventStreamConfig {
    /// The base world (companies, install bases, seed, horizon).
    pub base: GeneratorConfig,
    /// Mid-stream product launches (vocabulary growth).
    pub launches: Vec<LaunchSpec>,
    /// Optional injected product-mix shift.
    pub shift: Option<MixShift>,
}

impl EventStreamConfig {
    /// A stream over `n` companies with the given seed and no launches or
    /// shift.
    pub fn with_size_and_seed(n_companies: usize, seed: u64) -> Self {
        EventStreamConfig {
            base: GeneratorConfig::with_size_and_seed(n_companies, seed),
            launches: Vec::new(),
            shift: None,
        }
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    /// Panics on invalid base config, launch/shift months outside the
    /// stream, duplicate launch names, or rates outside `[0, 1]`.
    pub fn validate(&self) {
        self.base.validate();
        let mut names: Vec<&str> = Vec::new();
        for l in &self.launches {
            assert!(
                l.month < self.base.horizon,
                "launch {:?} at {} is not before the horizon {}",
                l.name,
                l.month,
                self.base.horizon
            );
            assert!(
                (0.0..=1.0).contains(&l.adoption),
                "adoption must be in [0,1]"
            );
            assert!(!names.contains(&l.name.as_str()), "duplicate launch name");
            names.push(&l.name);
        }
        if let Some(s) = &self.shift {
            assert!(
                s.month < self.base.horizon,
                "shift month {} is not before the horizon {}",
                s.month,
                self.base.horizon
            );
            assert!(
                (0.0..=1.0).contains(&s.monthly_rate),
                "shift rate must be in [0,1]"
            );
            assert!(!s.products.is_empty(), "shift needs at least one product");
        }
    }
}

/// One event of the stream.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// A new product category launches; the vocabulary grows by one.
    ProductLaunch {
        /// Month the category becomes acquirable.
        month: Month,
        /// The id the grown vocabulary assigns (`base_len + launch_index`).
        product: ProductId,
        /// Category name.
        name: String,
    },
    /// A company enters the market (its profile, with an empty install
    /// base). `id` is the company's stable stream index: arrivals are
    /// numbered 0.. in `(month, base-corpus order)` order, and every later
    /// acquisition refers to this id.
    CompanyArrival {
        /// Month of the company's first confirmed activity.
        month: Month,
        /// Stream index of the company.
        id: CompanyId,
        /// Profile attributes (install base empty; it fills via
        /// acquisitions).
        company: Company,
    },
    /// A company acquires a product.
    Acquisition {
        /// Month of the acquisition (`event.first_seen`).
        month: Month,
        /// Stream index of the acquiring company.
        id: CompanyId,
        /// The install event to merge into the company.
        event: InstallEvent,
    },
}

impl StreamEvent {
    /// The month the event occurs in.
    pub fn month(&self) -> Month {
        match self {
            StreamEvent::ProductLaunch { month, .. }
            | StreamEvent::CompanyArrival { month, .. }
            | StreamEvent::Acquisition { month, .. } => *month,
        }
    }

    /// Total-order sort key: month, then kind (launches grow the vocabulary
    /// before anything else that month, arrivals precede acquisitions), then
    /// company and product.
    fn sort_key(&self) -> (Month, u8, u32, u16) {
        match self {
            StreamEvent::ProductLaunch { month, product, .. } => (*month, 0, 0, product.0),
            StreamEvent::CompanyArrival { month, id, .. } => (*month, 1, id.0, 0),
            StreamEvent::Acquisition { month, id, event } => (*month, 2, id.0, event.product.0),
        }
    }
}

/// The generated stream: the base vocabulary plus events in a deterministic
/// total order.
#[derive(Debug, Clone)]
pub struct EventStream {
    /// The vocabulary before any launch (the standard 38 categories).
    pub base_vocab: Vocabulary,
    /// Events sorted by `(month, kind, company, product)`.
    pub events: Vec<StreamEvent>,
    /// First month with an event.
    pub start: Month,
    /// Exclusive end of the stream (the base config's horizon).
    pub end: Month,
}

/// Generates the event stream for `cfg`.
///
/// The acquisitions of the base world are exactly the install events of
/// [`generate`](crate::generate)`(&cfg.base)`; launches and the injected
/// shift add synthetic acquisitions on top. Replaying the whole stream
/// through [`StreamState`] reconstructs the base corpus plus those
/// additions, bit for bit.
pub fn generate_events(cfg: &EventStreamConfig) -> EventStream {
    cfg.validate();
    let base = crate::generate(&cfg.base);
    let horizon = cfg.base.horizon;

    // Stream ids: arrival month is the company's earliest first_seen;
    // arrivals are numbered in (month, base index) order.
    let mut arrival_order: Vec<(Month, usize)> = base
        .companies()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let m = c
                .events()
                .first()
                .map(|e| e.first_seen)
                .unwrap_or(cfg.base.earliest_founding);
            (m, i)
        })
        .collect();
    arrival_order.sort_unstable_by_key(|&(m, i)| (m, i));
    let mut stream_id = vec![CompanyId(0); base.len()];
    for (sid, &(_, i)) in arrival_order.iter().enumerate() {
        stream_id[i] = CompanyId(sid as u32);
    }

    let mut events: Vec<StreamEvent> = Vec::new();

    // Arrivals and base acquisitions.
    for &(month, i) in &arrival_order {
        let c = &base.companies()[i];
        let mut profile = Company::new(c.duns, c.name.clone(), c.industry, c.country);
        profile.site_count = c.site_count;
        profile.employees = c.employees;
        profile.revenue_musd = c.revenue_musd;
        events.push(StreamEvent::CompanyArrival {
            month,
            id: stream_id[i],
            company: profile,
        });
        for &ev in c.events() {
            events.push(StreamEvent::Acquisition {
                month: ev.first_seen,
                id: stream_id[i],
                event: ev,
            });
        }
    }

    // Product launches and their adoption curves.
    let base_len = base.vocab().len();
    for (li, launch) in cfg.launches.iter().enumerate() {
        let product = ProductId((base_len + li) as u16);
        events.push(StreamEvent::ProductLaunch {
            month: launch.month,
            product,
            name: launch.name.clone(),
        });
        for (i, c) in base.companies().iter().enumerate() {
            let arrival = c
                .events()
                .first()
                .map(|e| e.first_seen)
                .unwrap_or(cfg.base.earliest_founding);
            let mut rng = StdRng::seed_from_u64(hlm_par::split_seed3(
                cfg.base.seed ^ LAUNCH_SALT,
                li as u64,
                i as u64,
            ));
            let mut month = launch.month.max(arrival);
            while month < horizon {
                if rng.gen::<f64>() < launch.adoption {
                    events.push(StreamEvent::Acquisition {
                        month,
                        id: stream_id[i],
                        event: InstallEvent {
                            product,
                            first_seen: month,
                            last_seen: month,
                            confidence: 0.8,
                        },
                    });
                    break;
                }
                month = month.plus_months(1);
            }
        }
    }

    // Injected product-mix shift.
    if let Some(shift) = &cfg.shift {
        let hot: Vec<ProductId> = shift
            .products
            .iter()
            .map(|n| {
                base.vocab()
                    .id(n)
                    .unwrap_or_else(|| panic!("shift product {n:?} not in the base vocabulary"))
            })
            .collect();
        for (i, c) in base.companies().iter().enumerate() {
            let mut owned: Vec<bool> = {
                let mut o = vec![false; base_len];
                for e in c.events() {
                    o[e.product.index()] = true;
                }
                o
            };
            // A company cannot acquire before it arrives (its earliest
            // base event) — without the clamp, late arrivals would get
            // shift acquisitions the stream consumer cannot attribute.
            let arrival = c
                .events()
                .first()
                .map(|e| e.first_seen)
                .unwrap_or(cfg.base.earliest_founding);
            let mut rng = StdRng::seed_from_u64(hlm_par::split_seed3(
                cfg.base.seed ^ SHIFT_SALT,
                0,
                i as u64,
            ));
            let mut month = shift.month.max(arrival);
            while month < horizon {
                if rng.gen::<f64>() < shift.monthly_rate {
                    let unowned: Vec<ProductId> =
                        hot.iter().copied().filter(|p| !owned[p.index()]).collect();
                    if unowned.is_empty() {
                        break;
                    }
                    let p = unowned[rng.gen_range(0..unowned.len())];
                    owned[p.index()] = true;
                    events.push(StreamEvent::Acquisition {
                        month,
                        id: stream_id[i],
                        event: InstallEvent {
                            product: p,
                            first_seen: month,
                            last_seen: month,
                            confidence: 0.8,
                        },
                    });
                }
                month = month.plus_months(1);
            }
        }
    }

    events.sort_by_key(StreamEvent::sort_key);
    let start = events
        .first()
        .map(StreamEvent::month)
        .unwrap_or(cfg.base.earliest_founding);
    EventStream {
        base_vocab: base.vocab().clone(),
        events,
        start,
        end: horizon,
    }
}

/// The consumer-side accumulator: applies stream events in order, growing
/// the vocabulary on launches and the company list on arrivals.
#[derive(Debug, Clone)]
pub struct StreamState {
    vocab: Vocabulary,
    companies: Vec<Company>,
}

impl StreamState {
    /// An empty state over the stream's base vocabulary.
    pub fn new(base_vocab: Vocabulary) -> Self {
        StreamState {
            vocab: base_vocab,
            companies: Vec::new(),
        }
    }

    /// Applies one event.
    ///
    /// # Panics
    /// Panics on an out-of-order stream: an acquisition for a company that
    /// has not arrived, or a launch that does not extend the vocabulary
    /// contiguously.
    pub fn apply(&mut self, ev: &StreamEvent) {
        match ev {
            StreamEvent::ProductLaunch { product, name, .. } => {
                let id = self.vocab.push(name.clone());
                assert_eq!(id, *product, "launch ids must be contiguous");
            }
            StreamEvent::CompanyArrival { id, company, .. } => {
                assert_eq!(
                    id.index(),
                    self.companies.len(),
                    "arrivals must be contiguous"
                );
                self.companies.push(company.clone());
            }
            StreamEvent::Acquisition { id, event, .. } => {
                self.companies[id.index()].add_event(*event);
            }
        }
    }

    /// Number of companies that have arrived.
    pub fn company_count(&self) -> usize {
        self.companies.len()
    }

    /// The companies that have arrived, indexed by stream id.
    pub fn companies(&self) -> &[Company] {
        &self.companies
    }

    /// The current (possibly grown) vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Snapshot the state as a corpus (clones vocabulary and companies).
    pub fn corpus(&self) -> Corpus {
        Corpus::new(self.vocab.clone(), self.companies.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_cfg(n: usize, seed: u64) -> EventStreamConfig {
        EventStreamConfig::with_size_and_seed(n, seed)
    }

    #[test]
    fn stream_is_sorted_and_deterministic() {
        let cfg = stream_cfg(60, 5);
        let a = generate_events(&cfg);
        let b = generate_events(&cfg);
        assert_eq!(a.events, b.events);
        for w in a.events.windows(2) {
            assert!(w[0].sort_key() <= w[1].sort_key(), "stream must be sorted");
        }
        assert!(a.start < a.end);
    }

    #[test]
    fn replaying_base_stream_reconstructs_the_corpus() {
        let cfg = stream_cfg(80, 11);
        let stream = generate_events(&cfg);
        let mut state = StreamState::new(stream.base_vocab.clone());
        for ev in &stream.events {
            state.apply(ev);
        }
        let replayed = state.corpus();
        let direct = crate::generate(&cfg.base);
        assert_eq!(replayed.len(), direct.len());
        // Stream ids permute companies by arrival; compare as sorted multisets
        // of (duns, events).
        let key = |c: &Company| (c.duns, c.events().to_vec());
        let mut a: Vec<_> = replayed.companies().iter().map(key).collect();
        let mut b: Vec<_> = direct.companies().iter().map(key).collect();
        a.sort_by_key(|x| x.0);
        b.sort_by_key(|x| x.0);
        assert_eq!(a, b, "replayed corpus must equal the generated one");
    }

    #[test]
    fn launches_grow_vocabulary_and_get_adopted() {
        let mut cfg = stream_cfg(100, 7);
        cfg.launches.push(LaunchSpec {
            name: "edge_ai_accelerators".into(),
            month: Month::from_ym(2012, 1),
            adoption: 0.05,
        });
        let stream = generate_events(&cfg);
        let mut state = StreamState::new(stream.base_vocab.clone());
        for ev in &stream.events {
            state.apply(ev);
        }
        assert_eq!(state.vocab().len(), 39);
        let corpus = state.corpus();
        let new_id = corpus.vocab().id("edge_ai_accelerators").unwrap();
        assert_eq!(new_id, ProductId(38));
        let adopters = corpus.companies().iter().filter(|c| c.owns(new_id)).count();
        assert!(adopters > 10, "adoption should spread, got {adopters}");
        // No adoption precedes the launch.
        for c in corpus.companies() {
            for e in c.events() {
                if e.product == new_id {
                    assert!(e.first_seen >= Month::from_ym(2012, 1));
                }
            }
        }
    }

    #[test]
    fn injected_shift_concentrates_late_acquisitions() {
        let mut cfg = stream_cfg(100, 3);
        cfg.shift = Some(MixShift {
            month: Month::from_ym(2013, 1),
            products: vec!["retail".into(), "media".into()],
            monthly_rate: 0.2,
        });
        let with_shift = generate_events(&cfg);
        cfg.shift = None;
        let without = generate_events(&cfg);
        assert!(
            with_shift.events.len() > without.events.len(),
            "shift must add acquisitions"
        );
        // Every added acquisition is a hot product at/after the shift month.
        let count_hot = |s: &EventStream| {
            s.events
                .iter()
                .filter(|e| match e {
                    StreamEvent::Acquisition { month, event, .. } => {
                        *month >= Month::from_ym(2013, 1)
                            && (event.product == ProductId(28) || event.product == ProductId(18))
                    }
                    _ => false,
                })
                .count()
        };
        assert!(count_hot(&with_shift) > count_hot(&without) + 20);
    }

    #[test]
    fn shift_acquisitions_never_precede_a_company_arrival() {
        // Regression: a company whose first base event lands after the
        // shift month used to receive shift acquisitions *before* its
        // arrival event, which the stream consumer cannot attribute. The
        // whole stream must replay cleanly through StreamState.
        let mut cfg = stream_cfg(250, 104);
        cfg.shift = Some(MixShift {
            month: cfg.base.horizon.plus_months(-12),
            products: vec!["retail".into(), "media".into()],
            monthly_rate: 0.2,
        });
        let stream = generate_events(&cfg);
        let mut state = StreamState::new(stream.base_vocab.clone());
        let mut arrived = 0usize;
        for ev in &stream.events {
            if let StreamEvent::Acquisition { id, .. } = ev {
                assert!(
                    id.index() < arrived,
                    "acquisition for company {id:?} before its arrival"
                );
            }
            if matches!(ev, StreamEvent::CompanyArrival { .. }) {
                arrived += 1;
            }
            state.apply(ev);
        }
        assert_eq!(state.company_count(), 250);
    }

    #[test]
    #[should_panic(expected = "not before the horizon")]
    fn rejects_launch_after_horizon() {
        let mut cfg = stream_cfg(10, 1);
        cfg.launches.push(LaunchSpec {
            name: "x".into(),
            month: Month::from_ym(2020, 1),
            adoption: 0.1,
        });
        cfg.validate();
    }
}
