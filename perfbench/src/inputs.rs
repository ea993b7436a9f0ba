//! Seeded inputs. Every file the program receives and every request the
//! load generator sends is a pure function of (workload, parameters, seed):
//! corpora come from `hlm-datagen`, schedules from the benchmark's own
//! SplitMix64 stream, so a change to the program's vendored RNG cannot move
//! the keys. Inputs are written once per seed and reused by later runs.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use hlm_corpus::Corpus;
use hlm_datagen::GeneratorConfig;

/// SplitMix64: tiny, fast, and fixed forever by this file.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by `seed` and a per-use `tag`, so one seed drives
    /// independent streams for keys, mix and arrivals.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut r = Rng(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// Cumulative Zipf(`s`) weights over ranks `1..=n`, normalised to 1.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for r in 1..=n {
        acc += (r as f64).powf(-s);
        cdf.push(acc);
    }
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// Rank (0-based) drawn from a Zipf CDF.
pub fn zipf_draw(cdf: &[f64], rng: &mut Rng) -> usize {
    let u = rng.unit();
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// What one scheduled request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `GET /v1/similar`.
    Similar,
    /// `GET /v1/whitespace`.
    Whitespace,
    /// `GET /v1/recommend`.
    Recommend,
    /// `POST /admin/swap`.
    Swap,
}

impl Op {
    /// One-letter tag used in the schedule file.
    fn tag(self) -> char {
        match self {
            Op::Similar => 'S',
            Op::Whitespace => 'W',
            Op::Recommend => 'R',
            Op::Swap => 'X',
        }
    }

    fn from_tag(c: &str) -> Option<Op> {
        Some(match c {
            "S" => Op::Similar,
            "W" => Op::Whitespace,
            "R" => Op::Recommend,
            "X" => Op::Swap,
            _ => return None,
        })
    }
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Phase index (0 = base rate, then ladder rungs) for open loops.
    pub phase: usize,
    /// Due time from the start of the run, microseconds (open loop only).
    pub at_us: u64,
    /// Kind of request.
    pub op: Op,
    /// Company the request is about (for swaps: 0).
    pub company: u32,
    /// Request target, e.g. `/v1/similar?company=7&k=10`.
    pub target: String,
}

/// One open-loop phase: a fixed offered rate over a fixed window.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Window start, microseconds from the start of the run.
    pub start_us: u64,
    /// Window end, microseconds.
    pub end_us: u64,
}

/// A complete request schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Open-loop phases (empty for a closed loop).
    pub phases: Vec<Phase>,
    /// Requests in send order.
    pub entries: Vec<Entry>,
}

impl Schedule {
    /// The schedule as text, one request a line — the bytes compared by the
    /// reproducibility test and stored beside the corpus.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for p in &self.phases {
            let _ = writeln!(out, "phase\t{}\t{}\t{}", p.rate, p.start_us, p.end_us);
        }
        for e in &self.entries {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                e.phase,
                e.at_us,
                e.op.tag(),
                e.company,
                e.target
            );
        }
        out
    }

    /// Parses [`Schedule::to_text`] output.
    pub fn from_text(text: &str) -> Result<Schedule, String> {
        let mut s = Schedule {
            phases: Vec::new(),
            entries: Vec::new(),
        };
        for (n, line) in text.lines().enumerate() {
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("schedule line {}: {line:?}", n + 1);
            if f.first() == Some(&"phase") && f.len() == 4 {
                s.phases.push(Phase {
                    rate: f[1].parse().map_err(|_| bad())?,
                    start_us: f[2].parse().map_err(|_| bad())?,
                    end_us: f[3].parse().map_err(|_| bad())?,
                });
            } else if f.len() == 5 {
                s.entries.push(Entry {
                    phase: f[0].parse().map_err(|_| bad())?,
                    at_us: f[1].parse().map_err(|_| bad())?,
                    op: Op::from_tag(f[2]).ok_or_else(bad)?,
                    company: f[3].parse().map_err(|_| bad())?,
                    target: f[4].to_string(),
                });
            } else {
                return Err(bad());
            }
        }
        Ok(s)
    }
}

/// Similar/whitespace `k` used by every serve workload.
pub const K: usize = 10;

/// The history a recommend request sends for `company`: the first half of
/// its acquisitions in time order — "what comes next for this account" —
/// so an account that owns every product still has something to predict.
pub fn history(corpus: &Corpus, company: u32) -> Vec<usize> {
    let seq = corpus
        .company(hlm_corpus::CompanyId(company))
        .product_sequence();
    let half = seq.len().div_ceil(2);
    seq[..half].iter().map(|p| p.index()).collect()
}

fn target_for(op: Op, company: u32, corpus: &Corpus) -> String {
    match op {
        Op::Similar => format!("/v1/similar?company={company}&k={K}"),
        Op::Whitespace => format!("/v1/whitespace?company={company}&k={K}"),
        Op::Recommend => {
            let history: Vec<String> = history(corpus, company)
                .iter()
                .map(usize::to_string)
                .collect();
            format!("/v1/recommend?history={}&top={K}", history.join(","))
        }
        Op::Swap => "/admin/swap".to_string(),
    }
}

/// serve_hot traffic: Zipf keys, a 50/25/25 similar/whitespace/recommend
/// mix, Poisson arrivals at each phase's rate, and swaps at fixed points
/// of the base phase.
#[derive(Debug, Clone, PartialEq)]
pub struct HotTraffic {
    /// Zipf exponent of account popularity.
    pub zipf_s: f64,
    /// Base rate and its window, seconds.
    pub base_rate: f64,
    /// Length of the base-rate phase, seconds.
    pub base_secs: f64,
    /// Ladder rungs above the base: `(rate, seconds)`.
    pub ladder: Vec<(f64, f64)>,
    /// Swap points as fractions of the base phase.
    pub swaps_at: Vec<f64>,
}

/// Arrival times of a Poisson process of `rate` over `[start, end)`
/// conditioned on its expected count: that many uniform times, sorted.
/// Fixing the count keeps a rung's offered load identical across seeds;
/// only the spacing is random.
fn poisson_times(rate: f64, start_us: u64, end_us: u64, rng: &mut Rng) -> Vec<u64> {
    let span = end_us - start_us;
    let n = (rate * span as f64 / 1e6).round() as usize;
    let mut t: Vec<u64> = (0..n)
        .map(|_| start_us + (rng.unit() * span as f64) as u64)
        .collect();
    t.sort_unstable();
    t
}

/// The serve_hot schedule over `corpus` for `seed`.
pub fn hot_schedule(corpus: &Corpus, traffic: &HotTraffic, seed: u64) -> Schedule {
    let n = corpus.len();
    let mut rng_keys = Rng::new(seed, 1);
    let mut rng_mix = Rng::new(seed, 2);
    let mut rng_time = Rng::new(seed, 3);
    let popularity = permutation(n, &mut rng_keys);
    let cdf = zipf_cdf(n, traffic.zipf_s);

    let mut phases = vec![Phase {
        rate: traffic.base_rate,
        start_us: 0,
        end_us: (traffic.base_secs * 1e6) as u64,
    }];
    for &(rate, secs) in &traffic.ladder {
        let start = phases.last().map_or(0, |p| p.end_us);
        phases.push(Phase {
            rate,
            start_us: start,
            end_us: start + (secs * 1e6) as u64,
        });
    }

    let mut entries = Vec::new();
    for (pi, p) in phases.iter().enumerate() {
        for at_us in poisson_times(p.rate, p.start_us, p.end_us, &mut rng_time) {
            let company = popularity[zipf_draw(&cdf, &mut rng_keys)];
            let u = rng_mix.unit();
            let op = if u < 0.5 {
                Op::Similar
            } else if u < 0.75 {
                Op::Whitespace
            } else {
                Op::Recommend
            };
            entries.push(Entry {
                phase: pi,
                at_us,
                op,
                company,
                target: target_for(op, company, corpus),
            });
        }
    }
    let base = &phases[0];
    for &f in &traffic.swaps_at {
        let at_us = base.start_us + ((base.end_us - base.start_us) as f64 * f) as u64;
        entries.push(Entry {
            phase: 0,
            at_us,
            op: Op::Swap,
            company: 0,
            target: target_for(Op::Swap, 0, corpus),
        });
    }
    // Stable: a swap due at the same microsecond as a query goes after it.
    entries.sort_by_key(|e| e.at_us);
    Schedule { phases, entries }
}

/// The serve_scan schedule: every company once, in a seeded order, two
/// thirds similar and one third whitespace.
pub fn scan_schedule(corpus: &Corpus, seed: u64) -> Schedule {
    let mut rng_keys = Rng::new(seed, 4);
    let mut rng_mix = Rng::new(seed, 5);
    let entries = permutation(corpus.len(), &mut rng_keys)
        .into_iter()
        .map(|company| {
            let op = if rng_mix.below(3) < 2 {
                Op::Similar
            } else {
                Op::Whitespace
            };
            Entry {
                phase: 0,
                at_us: 0,
                op,
                company,
                target: target_for(op, company, corpus),
            }
        })
        .collect();
    Schedule {
        phases: Vec::new(),
        entries,
    }
}

/// Seed of the held-out companies: a different datagen stream, so none of
/// them is in the training corpus.
pub fn heldout_seed(seed: u64) -> u64 {
    seed ^ 0x05EE_D0F4_E1D0_u64
}

/// The corpus `hlm generate --companies n --seed seed` would write.
pub fn corpus(n: usize, seed: u64) -> Corpus {
    hlm_datagen::generate(&GeneratorConfig::with_size_and_seed(n, seed))
}

/// Both CSVs of a corpus, as `hlm generate` writes them.
pub fn csv_files(corpus: &Corpus) -> (String, String) {
    hlm_corpus::io::to_csv(corpus)
}

/// A directory of inputs that is complete once its `done` marker exists;
/// a run killed half-way through generation leaves no marker, so the next
/// run regenerates.
pub struct InputDir {
    /// The directory.
    pub dir: PathBuf,
}

impl InputDir {
    /// `root/name`, generated by `make` unless already complete.
    pub fn ensure(
        root: &Path,
        name: &str,
        make: impl FnOnce(&Path) -> Result<(), String>,
    ) -> Result<InputDir, String> {
        let dir = root.join(name);
        let done = dir.join("done");
        if !done.is_file() {
            if dir.exists() {
                std::fs::remove_dir_all(&dir)
                    .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
            }
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            make(&dir)?;
            std::fs::write(&done, b"").map_err(|e| format!("cannot mark inputs done: {e}"))?;
        }
        Ok(InputDir { dir })
    }
}

/// Writes `bytes` to `dir/name`.
pub fn write(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(dir.join(name), bytes).map_err(|e| format!("cannot write {name}: {e}"))
}

/// Reads `dir/name` as text.
pub fn read(dir: &Path, name: &str) -> Result<String, String> {
    std::fs::read_to_string(dir.join(name)).map_err(|e| format!("cannot read {name}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traffic() -> HotTraffic {
        HotTraffic {
            zipf_s: 1.1,
            base_rate: 400.0,
            base_secs: 1.0,
            ladder: vec![(800.0, 0.5)],
            swaps_at: vec![0.5],
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let a = corpus(300, 11);
        let b = corpus(300, 11);
        assert_eq!(csv_files(&a), csv_files(&b));
        assert_eq!(
            hot_schedule(&a, &traffic(), 11).to_text(),
            hot_schedule(&b, &traffic(), 11).to_text()
        );
        assert_eq!(
            scan_schedule(&a, 11).to_text(),
            scan_schedule(&b, 11).to_text()
        );
    }

    #[test]
    fn another_seed_changes_the_keys() {
        let a = corpus(300, 11);
        let b = corpus(300, 12);
        assert_ne!(csv_files(&a), csv_files(&b));
        let keys = |s: &Schedule| s.entries.iter().map(|e| e.company).collect::<Vec<_>>();
        assert_ne!(
            keys(&hot_schedule(&a, &traffic(), 11)),
            keys(&hot_schedule(&a, &traffic(), 12))
        );
        assert_ne!(keys(&scan_schedule(&a, 11)), keys(&scan_schedule(&a, 12)));
    }

    #[test]
    fn schedule_text_round_trips() {
        let s = hot_schedule(&corpus(200, 3), &traffic(), 3);
        assert_eq!(Schedule::from_text(&s.to_text()).unwrap(), s);
    }

    #[test]
    fn hot_schedule_has_fixed_counts_mix_and_swaps() {
        let s = hot_schedule(&corpus(500, 5), &traffic(), 5);
        let in_phase = |p| {
            s.entries
                .iter()
                .filter(move |e| e.phase == p && e.op != Op::Swap)
        };
        assert_eq!(in_phase(0).count(), 400);
        assert_eq!(in_phase(1).count(), 400);
        let swaps: Vec<u64> = s
            .entries
            .iter()
            .filter(|e| e.op == Op::Swap)
            .map(|e| e.at_us)
            .collect();
        assert_eq!(swaps, vec![500_000]);
        assert!(s.entries.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        let similar = in_phase(0).filter(|e| e.op == Op::Similar).count();
        assert!((150..250).contains(&similar), "{similar}");
    }

    #[test]
    fn scan_schedule_visits_every_company_once() {
        let c = corpus(400, 9);
        let s = scan_schedule(&c, 9);
        let mut seen: Vec<u32> = s.entries.iter().map(|e| e.company).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..400).collect::<Vec<u32>>());
    }

    #[test]
    fn zipf_concentrates_on_the_head() {
        let cdf = zipf_cdf(100_000, 1.1);
        // Share of draws landing on the 4096 hottest accounts.
        assert!((cdf[4095] - 0.84).abs() < 0.03, "{}", cdf[4095]);
        let mut rng = Rng::new(1, 1);
        let head = (0..20_000)
            .filter(|_| zipf_draw(&cdf, &mut rng) < 4096)
            .count();
        assert!((head as f64 / 20_000.0 - cdf[4095]).abs() < 0.02);
    }
}
