//! CSV import / export of install-base data.
//!
//! Adopters of the library will have their own (HG-style) feeds; this module
//! reads and writes a simple two-file CSV interchange format without pulling
//! in a CSV dependency:
//!
//! * **companies.csv** — `duns,name,sic2,country,site_count,employees,revenue_musd`
//! * **events.csv** — `duns,product,first_seen,last_seen,confidence` with
//!   months as `YYYY-MM` and products by category name.
//!
//! Fields containing commas or quotes are quoted with doubled inner quotes
//! (RFC-4180 style); the parser accepts both quoted and bare fields.
//!
//! Loading splits each line into fields borrowed from the file's text; only
//! a quoted field that holds a doubled quote (or text after its closing
//! quote) is copied. Bit contract: every field, and every error with its
//! line and message, is what the char-by-char splitter this one replaced
//! returned (kept in the tests as the oracle), so [`from_csv`] and
//! [`from_csv_lenient`] build the same corpus or fail the same way.

use crate::company::{Company, InstallEvent, Sic2};
use crate::corpus::Corpus;
use crate::time::Month;
use crate::vocab::Vocabulary;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Errors raised while parsing CSV install-base data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    /// 1-based line number of the offending record (0 for structural
    /// problems).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CSV error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CsvError {}

fn err(line: usize, message: impl Into<String>) -> CsvError {
    CsvError {
        line,
        message: message.into(),
    }
}

/// The fields of one CSV line, left to right, honouring RFC-4180 quoting.
///
/// A field borrows its text from the line. Only a quoted field that holds
/// a doubled quote, or has text after its closing quote, is copied. A
/// quote opens a quoted field only as a field's first byte; anywhere else
/// outside quotes it is an error. Quoting and field separators are ASCII,
/// so every slice boundary falls on a UTF-8 character boundary. After an
/// error the iterator ends.
struct Fields<'a> {
    line: &'a str,
    line_no: usize,
    /// Byte offset where the next field starts; `None` once the last field
    /// (or an error) has been yielded.
    next: Option<usize>,
}

/// Splits `line` into its fields (see [`Fields`]).
fn fields(line: &str, line_no: usize) -> Fields<'_> {
    Fields {
        line,
        line_no,
        next: Some(0),
    }
}

impl<'a> Fields<'a> {
    /// Ends the field that runs up to `end` (a comma or the end of the
    /// line): the next one starts after the comma.
    fn finish(&mut self, end: usize) {
        self.next = (end < self.line.len()).then_some(end + 1);
    }

    fn fail(&mut self, message: &str) -> Option<Result<Cow<'a, str>, CsvError>> {
        self.next = None;
        Some(Err(err(self.line_no, message)))
    }
}

impl<'a> Iterator for Fields<'a> {
    type Item = Result<Cow<'a, str>, CsvError>;

    fn next(&mut self) -> Option<Self::Item> {
        let start = self.next?;
        let line = self.line;
        let bytes = line.as_bytes();
        if bytes.get(start) != Some(&b'"') {
            let end = find(bytes, start, |b| b == b',' || b == b'"');
            if end < bytes.len() && bytes[end] == b'"' {
                return self.fail("unexpected quote inside bare field");
            }
            self.finish(end);
            return Some(Ok(Cow::Borrowed(&line[start..end])));
        }
        // Quoted: a doubled quote stands for one quote; a lone one closes.
        let mut undoubled: Option<String> = None;
        let mut from = start + 1;
        let close = loop {
            let q = find(bytes, from, |b| b == b'"');
            if q == bytes.len() {
                return self.fail("unterminated quoted field");
            }
            if bytes.get(q + 1) != Some(&b'"') {
                break q;
            }
            undoubled
                .get_or_insert_with(String::new)
                .push_str(&line[from..=q]);
            from = q + 2;
        };
        // Text after the closing quote joins the field, as long as it holds
        // no quote of its own.
        let end = find(bytes, close + 1, |b| b == b',' || b == b'"');
        if end < bytes.len() && bytes[end] == b'"' {
            return self.fail("unexpected quote inside bare field");
        }
        self.finish(end);
        let tail = &line[close + 1..end];
        Some(Ok(match undoubled {
            None if tail.is_empty() => Cow::Borrowed(&line[from..close]),
            rest => {
                let mut s = rest.unwrap_or_default();
                s.push_str(&line[from..close]);
                s.push_str(tail);
                Cow::Owned(s)
            }
        }))
    }
}

/// The offset of the first byte at or after `from` that `hit` accepts, or
/// the length of `bytes` when none does.
fn find(bytes: &[u8], from: usize, hit: impl Fn(u8) -> bool) -> usize {
    bytes[from..]
        .iter()
        .position(|&b| hit(b))
        .map_or(bytes.len(), |i| from + i)
}

/// The `N` fields of a `what` row, or the line's first quoting error, or
/// a count error naming how many fields the line has.
fn split_exact<'a, const N: usize>(
    line: &'a str,
    line_no: usize,
    what: &str,
) -> Result<[Cow<'a, str>; N], CsvError> {
    let mut out: [Cow<'a, str>; N] = std::array::from_fn(|_| Cow::Borrowed(""));
    let mut n = 0;
    for field in fields(line, line_no) {
        if let Some(slot) = out.get_mut(n) {
            *slot = field?;
        } else {
            field?;
        }
        n += 1;
    }
    if n != N {
        return Err(err(line_no, format!("expected {N} {what} fields, got {n}")));
    }
    Ok(out)
}

/// Quotes a field if needed.
fn quote(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

fn parse_month(s: &str, line: usize) -> Result<Month, CsvError> {
    let (y, m) = s
        .split_once('-')
        .ok_or_else(|| err(line, format!("month {s:?} is not YYYY-MM")))?;
    let year: i32 = y
        .parse()
        .map_err(|_| err(line, format!("bad year in {s:?}")))?;
    let month: u32 = m
        .parse()
        .map_err(|_| err(line, format!("bad month in {s:?}")))?;
    if !(1..=12).contains(&month) {
        return Err(err(line, format!("month {month} out of range in {s:?}")));
    }
    Ok(Month::from_ym(year, month))
}

/// Serializes the corpus into `(companies_csv, events_csv)`.
pub fn to_csv(corpus: &Corpus) -> (String, String) {
    let mut companies = String::from("duns,name,sic2,country,site_count,employees,revenue_musd\n");
    let mut events = String::from("duns,product,first_seen,last_seen,confidence\n");
    for c in corpus.companies() {
        let _ = writeln!(
            companies,
            "{},{},{},{},{},{},{}",
            c.duns,
            quote(&c.name),
            c.industry.0,
            c.country,
            c.site_count,
            c.employees,
            c.revenue_musd
        );
        for e in c.events() {
            let _ = writeln!(
                events,
                "{},{},{},{},{}",
                c.duns,
                quote(corpus.vocab().name(e.product)),
                e.first_seen,
                e.last_seen,
                e.confidence
            );
        }
    }
    (companies, events)
}

/// Parses and validates one company row (already split off the header).
fn parse_company_row(line: &str, line_no: usize) -> Result<Company, CsvError> {
    let [duns, name, sic, country, site_count, employees, revenue] =
        split_exact::<7>(line, line_no, "company")?;
    let duns: u64 = duns.parse().map_err(|_| err(line_no, "bad duns"))?;
    let sic: u8 = sic.parse().map_err(|_| err(line_no, "bad sic2"))?;
    let country: u16 = country.parse().map_err(|_| err(line_no, "bad country"))?;
    let mut c = Company::new(duns, name, Sic2(sic), country);
    c.site_count = site_count
        .parse()
        .map_err(|_| err(line_no, "bad site_count"))?;
    c.employees = employees
        .parse()
        .map_err(|_| err(line_no, "bad employees"))?;
    c.revenue_musd = revenue.parse().map_err(|_| err(line_no, "bad revenue"))?;
    Ok(c)
}

/// Parses and validates one event row, resolving the owning company through
/// `by_duns`. Returns the company's index and the event.
fn parse_event_row(
    line: &str,
    line_no: usize,
    vocab: &Vocabulary,
    by_duns: &HashMap<u64, usize>,
) -> Result<(usize, InstallEvent), CsvError> {
    let [duns, product, first_seen, last_seen, confidence] =
        split_exact::<5>(line, line_no, "event")?;
    let duns: u64 = duns.parse().map_err(|_| err(line_no, "bad duns"))?;
    let &idx = by_duns
        .get(&duns)
        .ok_or_else(|| err(line_no, format!("event references unknown company {duns}")))?;
    let product = vocab
        .id(&product)
        .ok_or_else(|| err(line_no, format!("unknown product category {product:?}")))?;
    let first_seen = parse_month(&first_seen, line_no)?;
    let last_seen = parse_month(&last_seen, line_no)?;
    if last_seen < first_seen {
        return Err(err(line_no, "last_seen precedes first_seen"));
    }
    let confidence: f32 = confidence
        .parse()
        .map_err(|_| err(line_no, "bad confidence"))?;
    if !(0.0..=1.0).contains(&confidence) {
        return Err(err(line_no, "confidence outside [0, 1]"));
    }
    Ok((
        idx,
        InstallEvent {
            product,
            first_seen,
            last_seen,
            confidence,
        },
    ))
}

/// Bytes of a file's body that [`from_csv`] puts in one piece before it
/// cuts the piece after the next line end. A body of at most this size is
/// one piece and parses on the calling thread. The rows of a wave of
/// pieces are held until they merge, so the size bounds what a load holds
/// beyond the serial loop: loading 50,000 companies (18 MB of events) with
/// two threads peaked 0.65 MB above the serial loop at 256 KiB pieces and
/// 1.1–1.3 MB above it at 1 MiB, at the same speed.
const PIECE_BYTES: usize = 1 << 18;

/// Validates a file's header line and cuts the rest into pieces of whole
/// lines: each holds at least `piece_bytes` bytes and ends after a `\n`
/// byte, except the last, which holds what is left. Each piece comes with
/// the line number of its first line. `what` names the file in structural
/// errors.
fn pieces<'a>(
    csv: &'a str,
    what: &str,
    piece_bytes: usize,
) -> Result<Vec<(usize, &'a str)>, CsvError> {
    let header = csv
        .lines()
        .next()
        .ok_or_else(|| err(0, format!("empty {what} file")))?;
    if !header.starts_with("duns,") {
        return Err(err(1, format!("{what} header must start with 'duns,'")));
    }
    let mut rest = csv.split_once('\n').map_or("", |(_, body)| body);
    let mut line_no = 2;
    let mut out = Vec::new();
    while !rest.is_empty() {
        let min = piece_bytes.max(1);
        let cut = rest
            .as_bytes()
            .get(min - 1..)
            .and_then(|tail| tail.iter().position(|&b| b == b'\n').map(|i| min + i));
        let (piece, tail) = rest.split_at(cut.unwrap_or(rest.len()));
        out.push((line_no, piece));
        if !tail.is_empty() {
            line_no += piece.bytes().filter(|&b| b == b'\n').count();
        }
        rest = tail;
    }
    Ok(out)
}

/// A piece's `(line_no, line)` records, skipping blanks.
fn piece_records((first, piece): (usize, &str)) -> impl Iterator<Item = (usize, &str)> {
    piece
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(move |(i, line)| (first + i, line))
}

/// Validates a file's header line and yields its `(line_no, line)` records,
/// skipping blanks. `what` names the file in structural errors.
fn records<'a>(
    csv: &'a str,
    what: &str,
) -> Result<impl Iterator<Item = (usize, &'a str)>, CsvError> {
    Ok(pieces(csv, what, usize::MAX)?
        .into_iter()
        .flat_map(piece_records))
}

/// Parses `pieces` over hlm-par a wave at a time, as many pieces as the
/// pool has threads, and hands each piece's rows to `merge` in file
/// order. A piece's rows are those before its first error; that error
/// ends the walk. Only one wave's rows are held at once.
fn merge_pieces<'a, T: Send>(
    pieces: &[(usize, &'a str)],
    parse: impl Fn(usize, &'a str) -> Result<T, CsvError> + Sync,
    mut merge: impl FnMut(Vec<T>) -> Result<(), CsvError>,
) -> Result<(), CsvError> {
    let pool = hlm_par::Pool::global();
    for wave in pieces.chunks(pool.threads()) {
        let parsed = pool.run(wave.len(), |p| {
            let mut rows = Vec::new();
            for (line_no, line) in piece_records(wave[p]) {
                match parse(line_no, line) {
                    Ok(row) => rows.push(row),
                    Err(e) => return (rows, Some(e)),
                }
            }
            (rows, None)
        });
        for (rows, error) in parsed {
            merge(rows)?;
            if let Some(e) = error {
                return Err(e);
            }
        }
    }
    Ok(())
}

/// Parses `(companies_csv, events_csv)` into a corpus over the given
/// vocabulary. Events referencing unknown companies or products are errors;
/// companies without events are kept (empty install bases). The first
/// malformed row aborts the parse — see [`from_csv_lenient`] for the
/// quarantine-and-continue alternative.
///
/// Each file parses in pieces of about 256 KiB of whole lines over
/// hlm-par, a wave of pieces at a time. The pieces merge in file order:
/// companies enter the duns index (so the duplicate check runs in file
/// order) and events join their companies in order, and the first error
/// in file order is returned. The corpus, or the error with its line and
/// message, is what a serial pass over the rows gives.
///
/// # Errors
/// Returns a [`CsvError`] naming the offending line.
pub fn from_csv(
    vocab: Vocabulary,
    companies_csv: &str,
    events_csv: &str,
) -> Result<Corpus, CsvError> {
    from_csv_in_pieces(vocab, companies_csv, events_csv, PIECE_BYTES)
}

/// [`from_csv`] with pieces of at least `piece_bytes` bytes.
fn from_csv_in_pieces(
    vocab: Vocabulary,
    companies_csv: &str,
    events_csv: &str,
    piece_bytes: usize,
) -> Result<Corpus, CsvError> {
    let mut companies: Vec<Company> = Vec::new();
    let mut by_duns: HashMap<u64, usize> = HashMap::new();

    merge_pieces(
        &pieces(companies_csv, "companies", piece_bytes)?,
        |line_no, line| Ok((line_no, parse_company_row(line, line_no)?)),
        |rows| {
            for (line_no, c) in rows {
                if by_duns.insert(c.duns, companies.len()).is_some() {
                    return Err(err(line_no, format!("duplicate company duns {}", c.duns)));
                }
                companies.push(c);
            }
            Ok(())
        },
    )?;

    merge_pieces(
        &pieces(events_csv, "events", piece_bytes)?,
        |line_no, line| parse_event_row(line, line_no, &vocab, &by_duns),
        |rows| {
            for (idx, event) in rows {
                companies[idx].add_event(event);
            }
            Ok(())
        },
    )?;

    Ok(Corpus::new(vocab, companies))
}

/// Which of the two CSV files a quarantined row came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsvFile {
    /// `companies.csv`.
    Companies,
    /// `events.csv`.
    Events,
}

impl std::fmt::Display for CsvFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CsvFile::Companies => "companies",
            CsvFile::Events => "events",
        })
    }
}

/// One malformed row set aside by [`from_csv_lenient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRow {
    /// The file the row came from.
    pub file: CsvFile,
    /// 1-based line number within that file.
    pub line: usize,
    /// Why the row was rejected.
    pub reason: String,
}

/// Everything [`from_csv_lenient`] set aside instead of aborting on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuarantineReport {
    rows: Vec<QuarantinedRow>,
}

impl QuarantineReport {
    /// The quarantined rows, in file order (companies before events).
    pub fn rows(&self) -> &[QuarantinedRow] {
        &self.rows
    }

    /// Number of quarantined rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when every row parsed cleanly.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// One-line human summary, e.g.
    /// `quarantined 3 malformed rows (companies: 1, events: 2)`.
    pub fn summary(&self) -> String {
        let companies = self
            .rows
            .iter()
            .filter(|r| r.file == CsvFile::Companies)
            .count();
        format!(
            "quarantined {} malformed row{} (companies: {companies}, events: {})",
            self.len(),
            if self.len() == 1 { "" } else { "s" },
            self.len() - companies,
        )
    }
}

/// How tolerant [`from_csv_lenient`] is before giving up.
#[derive(Debug, Clone)]
pub struct LenientOptions {
    /// Error budget: parsing aborts once more than this many rows have been
    /// quarantined (a feed that is mostly garbage should fail loudly, not
    /// produce a near-empty corpus).
    pub max_quarantined: usize,
}

impl Default for LenientOptions {
    fn default() -> Self {
        LenientOptions {
            max_quarantined: 100,
        }
    }
}

/// Like [`from_csv`], but quarantines malformed rows — bad fields, unknown
/// companies/products, duplicate duns, inverted date ranges, out-of-range
/// confidences — into a [`QuarantineReport`] and keeps going, up to the
/// error budget in `opts`. Structural problems (missing file content, bad
/// headers) are still hard errors: they mean the *file* is wrong, not a row.
///
/// # Errors
/// Returns a [`CsvError`] for structural problems, or when the quarantine
/// exceeds [`LenientOptions::max_quarantined`] (the error names the line
/// that blew the budget).
pub fn from_csv_lenient(
    vocab: Vocabulary,
    companies_csv: &str,
    events_csv: &str,
    opts: &LenientOptions,
) -> Result<(Corpus, QuarantineReport), CsvError> {
    let mut companies: Vec<Company> = Vec::new();
    let mut by_duns: HashMap<u64, usize> = HashMap::new();
    let mut report = QuarantineReport::default();

    let quarantine =
        |report: &mut QuarantineReport, file: CsvFile, e: CsvError| -> Result<(), CsvError> {
            report.rows.push(QuarantinedRow {
                file,
                line: e.line,
                reason: e.message,
            });
            if report.rows.len() > opts.max_quarantined {
                return Err(err(
                    e.line,
                    format!(
                        "error budget exhausted: more than {} malformed rows",
                        opts.max_quarantined
                    ),
                ));
            }
            Ok(())
        };

    for (line_no, line) in records(companies_csv, "companies")? {
        match parse_company_row(line, line_no) {
            Ok(c) => {
                if let std::collections::hash_map::Entry::Vacant(slot) = by_duns.entry(c.duns) {
                    slot.insert(companies.len());
                    companies.push(c);
                } else {
                    quarantine(
                        &mut report,
                        CsvFile::Companies,
                        err(line_no, format!("duplicate company duns {}", c.duns)),
                    )?;
                }
            }
            Err(e) => quarantine(&mut report, CsvFile::Companies, e)?,
        }
    }

    for (line_no, line) in records(events_csv, "events")? {
        match parse_event_row(line, line_no, &vocab, &by_duns) {
            Ok((idx, event)) => companies[idx].add_event(event),
            Err(e) => quarantine(&mut report, CsvFile::Events, e)?,
        }
    }

    Ok((Corpus::new(vocab, companies), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::ProductId;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The char-at-a-time splitter [`fields`] replaced, kept as its oracle.
    fn split_csv_line(line: &str, line_no: usize) -> Result<Vec<String>, CsvError> {
        let mut fields = Vec::new();
        let mut cur = String::new();
        let mut chars = line.chars().peekable();
        let mut in_quotes = false;
        while let Some(c) = chars.next() {
            if in_quotes {
                match c {
                    '"' => {
                        if chars.peek() == Some(&'"') {
                            cur.push('"');
                            chars.next();
                        } else {
                            in_quotes = false;
                        }
                    }
                    other => cur.push(other),
                }
            } else {
                match c {
                    '"' if cur.is_empty() => in_quotes = true,
                    '"' => return Err(err(line_no, "unexpected quote inside bare field")),
                    ',' => fields.push(std::mem::take(&mut cur)),
                    other => cur.push(other),
                }
            }
        }
        if in_quotes {
            return Err(err(line_no, "unterminated quoted field"));
        }
        fields.push(cur);
        Ok(fields)
    }

    /// The serial loop [`from_csv`] replaced, kept as its oracle.
    fn from_csv_serial(
        vocab: Vocabulary,
        companies_csv: &str,
        events_csv: &str,
    ) -> Result<Corpus, CsvError> {
        let mut companies: Vec<Company> = Vec::new();
        let mut by_duns: HashMap<u64, usize> = HashMap::new();

        for (line_no, line) in records(companies_csv, "companies")? {
            let c = parse_company_row(line, line_no)?;
            if by_duns.insert(c.duns, companies.len()).is_some() {
                return Err(err(line_no, format!("duplicate company duns {}", c.duns)));
            }
            companies.push(c);
        }

        for (line_no, line) in records(events_csv, "events")? {
            let (idx, event) = parse_event_row(line, line_no, &vocab, &by_duns)?;
            companies[idx].add_event(event);
        }

        Ok(Corpus::new(vocab, companies))
    }

    /// [`fields`] collected the way the oracle returns them.
    fn split_in_place(line: &str, line_no: usize) -> Result<Vec<String>, CsvError> {
        fields(line, line_no)
            .map(|f| f.map(Cow::into_owned))
            .collect()
    }

    /// What lines are made of in the oracle sweep: separators, lone and
    /// doubled quotes, quoted fields, text after a closing quote, blanks
    /// and multi-byte characters.
    const PIECES: [&str; 14] = [
        ",",
        "\"",
        "\"\"",
        "a",
        "bc",
        " ",
        "é",
        "日本",
        "7",
        "\"x,y\"",
        "\"q\"\"r\"",
        ",,",
        "-0.5",
        "\"\"\"",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn in_place_splitter_matches_the_oracle(
            picks in prop::collection::vec(0usize..PIECES.len(), 0..24),
            line_no in 1usize..1000,
        ) {
            let line: String = picks.iter().map(|&i| PIECES[i]).collect();
            prop_assert_eq!(
                split_in_place(&line, line_no),
                split_csv_line(&line, line_no),
                "line {:?}",
                line
            );
        }
    }

    #[test]
    fn in_place_splitter_borrows_unless_it_must_undouble() {
        let line = "a,\"b,c\",\"d\"\"e\",\"f\"g,,日本";
        let got: Vec<Cow<'_, str>> = fields(line, 1).map(Result::unwrap).collect();
        assert_eq!(got, ["a", "b,c", "d\"e", "fg", "", "日本"]);
        let borrowed: Vec<bool> = got.iter().map(|f| matches!(f, Cow::Borrowed(_))).collect();
        assert_eq!(borrowed, [true, true, false, false, true, true]);
    }

    /// A corpus whose names and products need every kind of quoting.
    fn quoting_corpus() -> Corpus {
        let vocab = Vocabulary::new(["OS", "weird, name", "say \"hi\"", "plain"]);
        let names = [
            "Acme, \"North\" Ltd",
            "plain",
            "Ünïcødé, 株式会社",
            "\"",
            "",
            "trailing,",
        ];
        let companies = names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let mut c = Company::new(100 + i as u64, *name, Sic2(i as u8 * 7), i as u16);
                c.site_count = 1 + i as u32;
                c.employees = 10 * i as u32;
                c.revenue_musd = 0.25 * i as f64;
                for p in 0..(i % 4 + 1) {
                    c.add_event(InstallEvent {
                        product: ProductId(((i + p) % 4) as u16),
                        first_seen: Month::from_ym(2000 + p as i32, 1 + i as u32),
                        last_seen: Month::from_ym(2010, 12),
                        confidence: 0.5,
                    });
                }
                c
            })
            .collect();
        Corpus::new(vocab, companies)
    }

    /// Both loaders on one input: neither panics, and they agree. A strict
    /// error is the lenient report's first row, or a structural error the
    /// lenient loader raises too; a strict success is a lenient one with
    /// nothing quarantined.
    fn both_loaders_agree(vocab: &Vocabulary, companies: &str, events: &str) {
        let strict = from_csv(vocab.clone(), companies, events);
        let lenient =
            from_csv_lenient(vocab.clone(), companies, events, &LenientOptions::default());
        match (&strict, &lenient) {
            (Ok(s), Ok((l, report))) => {
                assert!(report.is_empty(), "{report:?}");
                assert_eq!(s.companies(), l.companies());
            }
            (Err(e), Ok((_, report))) => {
                let first = &report.rows()[0];
                assert_eq!((first.line, &first.reason), (e.line, &e.message));
            }
            (Err(_), Err(_)) => {}
            (Ok(_), Err(e)) => panic!("lenient load failed where strict passed: {e}"),
        }
    }

    #[test]
    fn every_truncation_or_byte_flip_of_a_csv_pair_loads_or_errs() {
        let corpus = quoting_corpus();
        let vocab = corpus.vocab().clone();
        let (c_csv, e_csv) = to_csv(&corpus);
        assert_eq!(
            from_csv(vocab.clone(), &c_csv, &e_csv).unwrap().companies(),
            corpus.companies()
        );
        for (i, _) in c_csv.char_indices() {
            both_loaders_agree(&vocab, &c_csv[..i], &e_csv);
        }
        for (i, _) in e_csv.char_indices() {
            both_loaders_agree(&vocab, &c_csv, &e_csv[..i]);
        }
        let flipped = |text: &str, at: usize, bit: u8| {
            let mut bytes = text.as_bytes().to_vec();
            bytes[at] ^= 1 << bit;
            String::from_utf8_lossy(&bytes).into_owned()
        };
        for at in 0..c_csv.len() {
            for bit in 0..8 {
                both_loaders_agree(&vocab, &flipped(&c_csv, at, bit), &e_csv);
            }
        }
        for at in 0..e_csv.len() {
            for bit in 0..8 {
                both_loaders_agree(&vocab, &c_csv, &flipped(&e_csv, at, bit));
            }
        }
    }

    /// A corpus of `n` companies with random fields, names that need
    /// quoting, and zero to five events each over `vocab`.
    fn random_corpus(rng: &mut StdRng, vocab: &Vocabulary, n: usize) -> Corpus {
        let names = ["plain", "Acme, Inc.", "say \"hi\"", "Ünïcødé", ""];
        let companies = (0..n)
            .map(|i| {
                let name = names[rng.gen_range(0..names.len())];
                let mut c = Company::new(
                    1000 + i as u64,
                    name,
                    Sic2(rng.gen_range(0..99)),
                    rng.gen_range(0..300),
                );
                c.site_count = rng.gen_range(1..9);
                c.employees = rng.gen_range(0..5000);
                c.revenue_musd = rng.gen_range(0..4000) as f64 / 8.0;
                for _ in 0..rng.gen_range(0..6) {
                    let first = Month::from_ym(rng.gen_range(1990..2015), rng.gen_range(1..13));
                    c.add_event(InstallEvent {
                        product: ProductId(rng.gen_range(0..vocab.len()) as u16),
                        first_seen: first,
                        last_seen: Month(first.0 + rng.gen_range(0..40)),
                        confidence: rng.gen_range(0..=4) as f32 / 4.0,
                    });
                }
                c
            })
            .collect();
        Corpus::new(vocab.clone(), companies)
    }

    /// Replaces field `field` of body line `at` (counted from the first
    /// line after the header) of `csv` with `with`.
    fn set_field(csv: &str, at: usize, field: usize, with: &str) -> String {
        let mut lines: Vec<String> = csv.split('\n').map(str::to_string).collect();
        let line = &mut lines[1 + at];
        let mut fields: Vec<&str> = line.split(',').collect();
        let field = field.min(fields.len() - 1);
        fields[field] = with;
        *line = fields.join(",");
        lines.join("\n")
    }

    /// Byte offsets, within the body after the header, where lines start.
    fn body_line_starts(csv: &str) -> Vec<usize> {
        let body = csv.split_once('\n').map_or("", |(_, b)| b);
        std::iter::once(0)
            .chain(body.match_indices('\n').map(|(i, _)| i + 1))
            .filter(|&i| i < body.len())
            .collect()
    }

    #[test]
    fn pieces_give_the_serial_loops_corpus_or_error() {
        let vocab = Vocabulary::new(["OS", "weird, name", "say \"hi\"", "plain"]);
        let mut rng = StdRng::seed_from_u64(25);
        let mut errors = 0;
        for case in 0..300 {
            let corpus = random_corpus(&mut rng, &vocab, 1 + case % 17);
            let (mut c_csv, mut e_csv) = to_csv(&corpus);
            let n_companies = corpus.len();
            let n_events = e_csv.lines().count() - 1;
            // Errors at random lines: a bad number, a stray quote, or a
            // field too many; sometimes in both files, sometimes two.
            let bad = ["x", "1\"2", "3,4", "", "2001-13"];
            for _ in 0..rng.gen_range(0..3) {
                let with = bad[rng.gen_range(0..bad.len())];
                if rng.gen_bool(0.5) {
                    let at = rng.gen_range(0..n_companies);
                    c_csv = set_field(&c_csv, at, rng.gen_range(0..7), with);
                } else if n_events > 0 {
                    let at = rng.gen_range(0..n_events);
                    e_csv = set_field(&e_csv, at, rng.gen_range(0..5), with);
                }
            }
            // A duplicate duns at a random line: before a parse error in
            // its piece, in an earlier piece, or after it.
            if case % 5 == 0 {
                let mut lines: Vec<String> = c_csv.split('\n').map(str::to_string).collect();
                let at = rng.gen_range(2..lines.len());
                lines.insert(at, lines[1].clone());
                c_csv = lines.join("\n");
            }
            // Blank and whitespace-only lines.
            if case % 3 == 0 {
                for (text, at) in [(&mut c_csv, 0), (&mut e_csv, 1)] {
                    let mut lines: Vec<&str> = text.split('\n').collect();
                    let pos = 1 + rng.gen_range(0..lines.len());
                    lines.insert(pos.min(lines.len()), ["", "  "][at]);
                    *text = lines.join("\n");
                }
            }
            // CRLF line ends.
            if case % 4 == 1 {
                c_csv = c_csv.replace('\n', "\r\n");
                e_csv = e_csv.replace('\n', "\r\n");
            }
            let want = from_csv_serial(vocab.clone(), &c_csv, &e_csv);
            errors += usize::from(want.is_err());
            // Pieces of every line, of a few bytes, cut exactly before
            // random lines, and one piece.
            let mut sizes = vec![1, 2, 7, 40, usize::MAX];
            for csv in [&c_csv, &e_csv] {
                let starts = body_line_starts(csv);
                for _ in 0..3.min(starts.len()) {
                    sizes.push(starts[rng.gen_range(0..starts.len())].max(1));
                }
            }
            for piece_bytes in sizes {
                let got = from_csv_in_pieces(vocab.clone(), &c_csv, &e_csv, piece_bytes);
                let case = format!("case {case}, pieces of {piece_bytes}");
                match (&got, &want) {
                    (Ok(g), Ok(w)) => assert_eq!(g.companies(), w.companies(), "{case}"),
                    (Err(g), Err(w)) => assert_eq!(g, w, "{case}"),
                    _ => panic!("{case}: {got:?} against {want:?}"),
                }
            }
        }
        assert!((50..250).contains(&errors), "{errors} of 300 inputs fail");
    }

    #[test]
    fn a_duplicate_after_a_parse_error_in_an_earlier_piece_reports_the_parse_error() {
        let vocab = Vocabulary::new(["OS"]);
        let mut rng = StdRng::seed_from_u64(3);
        let (c_csv, e_csv) = to_csv(&random_corpus(&mut rng, &vocab, 6));
        let mut c_csv = set_field(&c_csv, 1, 0, "x");
        let first = c_csv.lines().nth(1).unwrap().to_string();
        c_csv = format!("{c_csv}{first}\n");
        let want = err(3, "bad duns");
        assert_eq!(
            from_csv_serial(vocab.clone(), &c_csv, &e_csv).unwrap_err(),
            want
        );
        for piece_bytes in [1, 5, usize::MAX] {
            let got = from_csv_in_pieces(vocab.clone(), &c_csv, &e_csv, piece_bytes);
            assert_eq!(got.unwrap_err(), want, "pieces of {piece_bytes}");
        }
    }

    fn sample_corpus() -> Corpus {
        let vocab = Vocabulary::new(["OS", "weird, name", "plain"]);
        let mut a = Company::new(100, "Acme, Inc.", Sic2(80), 3);
        a.employees = 500;
        a.revenue_musd = 12.5;
        a.add_event(InstallEvent {
            product: ProductId(0),
            first_seen: Month::from_ym(2001, 5),
            last_seen: Month::from_ym(2015, 12),
            confidence: 0.9,
        });
        a.add_event(InstallEvent::at(ProductId(1), Month::from_ym(2010, 1)));
        let b = Company::new(200, "Empty \"Co\"", Sic2(1), 7);
        Corpus::new(vocab, vec![a, b])
    }

    #[test]
    fn round_trip_preserves_everything() {
        let corpus = sample_corpus();
        let (companies_csv, events_csv) = to_csv(&corpus);
        let back = from_csv(corpus.vocab().clone(), &companies_csv, &events_csv)
            .expect("round trip parses");
        assert_eq!(back.len(), 2);
        for (orig, parsed) in corpus.companies().iter().zip(back.companies()) {
            assert_eq!(orig.duns, parsed.duns);
            assert_eq!(orig.name, parsed.name);
            assert_eq!(orig.industry, parsed.industry);
            assert_eq!(orig.country, parsed.country);
            assert_eq!(orig.employees, parsed.employees);
            assert_eq!(orig.revenue_musd, parsed.revenue_musd);
            assert_eq!(orig.events(), parsed.events());
        }
    }

    #[test]
    fn generated_corpus_round_trips() {
        // Integration with the full domain model: names with commas/quotes
        // survive, months and confidences stay exact.
        let corpus = sample_corpus();
        let (c_csv, e_csv) = to_csv(&corpus);
        assert!(c_csv.contains("\"Acme, Inc.\""));
        assert!(c_csv.contains("\"Empty \"\"Co\"\"\""));
        assert!(e_csv.contains("\"weird, name\""));
        let back = from_csv(corpus.vocab().clone(), &c_csv, &e_csv).unwrap();
        assert_eq!(back.companies()[0].name, "Acme, Inc.");
        assert_eq!(back.companies()[1].name, "Empty \"Co\"");
    }

    #[test]
    fn unknown_product_is_an_error_with_line_number() {
        let corpus = sample_corpus();
        let (c_csv, _) = to_csv(&corpus);
        let bad_events = "duns,product,first_seen,last_seen,confidence\n\
                          100,no_such_product,2001-05,2001-05,1\n";
        let e = from_csv(corpus.vocab().clone(), &c_csv, bad_events).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("no_such_product"), "{e}");
    }

    #[test]
    fn unknown_company_and_bad_month_are_errors() {
        let corpus = sample_corpus();
        let (c_csv, _) = to_csv(&corpus);
        let unknown = "duns,product,first_seen,last_seen,confidence\n\
                       999,OS,2001-05,2001-05,1\n";
        assert!(from_csv(corpus.vocab().clone(), &c_csv, unknown)
            .unwrap_err()
            .message
            .contains("unknown company"));
        let bad_month = "duns,product,first_seen,last_seen,confidence\n\
                         100,OS,200105,2001-05,1\n";
        assert!(from_csv(corpus.vocab().clone(), &c_csv, bad_month)
            .unwrap_err()
            .message
            .contains("YYYY-MM"));
        let inverted = "duns,product,first_seen,last_seen,confidence\n\
                        100,OS,2005-05,2001-05,1\n";
        assert!(from_csv(corpus.vocab().clone(), &c_csv, inverted)
            .unwrap_err()
            .message
            .contains("precedes"));
    }

    #[test]
    fn duplicate_duns_rejected() {
        let corpus = sample_corpus();
        let (mut c_csv, e_csv) = to_csv(&corpus);
        c_csv.push_str("100,dup,1,0,1,0,0\n");
        let e = from_csv(corpus.vocab().clone(), &c_csv, &e_csv).unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn quoting_edge_cases_parse() {
        for split in [split_csv_line, split_in_place] {
            assert_eq!(
                split("a,\"b,c\",\"d\"\"e\"", 1).unwrap(),
                vec!["a", "b,c", "d\"e"]
            );
            assert_eq!(split("", 1).unwrap(), vec![""]);
            assert!(split("\"open", 1).is_err());
            assert!(split("ab\"cd", 1).is_err());
        }
    }

    #[test]
    fn datagen_corpus_full_round_trip() {
        // Full pipeline with the simulator's output is exercised in the
        // integration tests; here a small direct check that blank lines are
        // tolerated.
        let corpus = sample_corpus();
        let (c_csv, e_csv) = to_csv(&corpus);
        let with_blanks = format!("{c_csv}\n\n");
        let back = from_csv(corpus.vocab().clone(), &with_blanks, &e_csv).unwrap();
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn confidence_outside_unit_interval_is_rejected_with_line_number() {
        let corpus = sample_corpus();
        let (c_csv, _) = to_csv(&corpus);
        for bad in ["1.5", "-0.1", "NaN", "inf"] {
            let events = format!(
                "duns,product,first_seen,last_seen,confidence\n100,OS,2001-05,2001-05,{bad}\n"
            );
            let e = from_csv(corpus.vocab().clone(), &c_csv, &events).unwrap_err();
            assert_eq!(e.line, 2, "confidence {bad}");
            assert!(
                e.message.contains("confidence"),
                "confidence {bad}: {}",
                e.message
            );
        }
    }

    #[test]
    fn lenient_parse_quarantines_bad_rows_and_keeps_the_rest() {
        let corpus = sample_corpus();
        let (mut c_csv, mut e_csv) = to_csv(&corpus);
        c_csv.push_str("100,dup,1,0,1,0,0\n"); // duplicate duns
        c_csv.push_str("bogus,x,1,0,1,0,0\n"); // bad duns
        e_csv.push_str("999,OS,2001-05,2001-05,1\n"); // unknown company
        e_csv.push_str("100,OS,2001-05,2001-05,7\n"); // confidence out of range
        e_csv.push_str("200,plain,2003-01,2003-06,0.5\n"); // fine

        let (back, report) = from_csv_lenient(
            corpus.vocab().clone(),
            &c_csv,
            &e_csv,
            &LenientOptions::default(),
        )
        .expect("lenient parse succeeds under budget");

        assert_eq!(back.len(), 2, "good companies survive");
        assert_eq!(back.companies()[1].events().len(), 1, "good row applied");
        assert_eq!(report.len(), 4);
        let files: Vec<CsvFile> = report.rows().iter().map(|r| r.file).collect();
        assert_eq!(
            files,
            vec![
                CsvFile::Companies,
                CsvFile::Companies,
                CsvFile::Events,
                CsvFile::Events
            ]
        );
        assert!(report.rows()[0].reason.contains("duplicate"));
        assert!(report.rows()[3].reason.contains("confidence"));
        assert_eq!(report.rows()[2].line, 4);
        assert_eq!(
            report.summary(),
            "quarantined 4 malformed rows (companies: 2, events: 2)"
        );
    }

    #[test]
    fn lenient_parse_matches_strict_on_clean_input() {
        let corpus = sample_corpus();
        let (c_csv, e_csv) = to_csv(&corpus);
        let strict = from_csv(corpus.vocab().clone(), &c_csv, &e_csv).unwrap();
        let (lenient, report) = from_csv_lenient(
            corpus.vocab().clone(),
            &c_csv,
            &e_csv,
            &LenientOptions::default(),
        )
        .unwrap();
        assert!(report.is_empty());
        assert_eq!(strict.len(), lenient.len());
        for (s, l) in strict.companies().iter().zip(lenient.companies()) {
            assert_eq!(s.duns, l.duns);
            assert_eq!(s.events(), l.events());
        }
    }

    #[test]
    fn lenient_parse_enforces_the_error_budget() {
        let corpus = sample_corpus();
        let (c_csv, mut e_csv) = to_csv(&corpus);
        for _ in 0..3 {
            e_csv.push_str("999,OS,2001-05,2001-05,1\n");
        }
        let opts = LenientOptions { max_quarantined: 2 };
        let e = from_csv_lenient(corpus.vocab().clone(), &c_csv, &e_csv, &opts).unwrap_err();
        assert!(e.message.contains("error budget"), "{e}");

        let generous = LenientOptions { max_quarantined: 3 };
        assert!(from_csv_lenient(corpus.vocab().clone(), &c_csv, &e_csv, &generous).is_ok());
    }

    #[test]
    fn lenient_parse_keeps_structural_errors_hard() {
        let corpus = sample_corpus();
        let (c_csv, e_csv) = to_csv(&corpus);
        let opts = LenientOptions::default();
        assert!(from_csv_lenient(corpus.vocab().clone(), "", &e_csv, &opts)
            .unwrap_err()
            .message
            .contains("empty companies"));
        let bad_header = "name,duns\n";
        assert!(
            from_csv_lenient(corpus.vocab().clone(), &c_csv, bad_header, &opts)
                .unwrap_err()
                .message
                .contains("header")
        );
    }
}
