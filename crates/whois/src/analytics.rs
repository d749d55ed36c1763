//! Registration analytics over WHOIS corpora: the registrar market table
//! (Table IV), registrant clustering (Table III, Finding 3), the
//! creation-date timeline (Figure 1, Finding 2) and a domain index for the
//! WHOIS joins of Tables XIII/XIV and portfolio mining.

use crate::date::Date;
use crate::record::{is_free_mail, WhoisRecord};
use std::collections::{BTreeMap, HashMap};

/// How many top registrants [`RegistrationAnalytics::of_corpus`] keeps the
/// portfolios of: Table III's rows.
pub const PORTFOLIO_REGISTRANTS: usize = 5;

/// The domains one top registrant email holds, in corpus order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistrantPortfolio {
    /// The registrant email.
    pub email: String,
    /// Every WHOIS domain registered under `email`, duplicates included.
    pub domains: Vec<String>,
}

/// Aggregated view over a WHOIS corpus.
///
/// [`RegistrationAnalytics::new`] plus [`RegistrationAnalytics::add`] (or
/// `extend`) fold the counts: registrars, registrants, creation years and
/// per-TLD records. [`RegistrationAnalytics::of_corpus`] folds a whole
/// corpus once and also keeps what only a fixed corpus can answer: the
/// creation years of flagged records, the portfolios of the top
/// [`PORTFOLIO_REGISTRANTS`] registrants and a domain index
/// ([`RegistrationAnalytics::lookup`]). A map key is cloned once per
/// distinct value, never once per record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrationAnalytics {
    registrars: HashMap<String, u64>,
    registrants: HashMap<String, u64>,
    creation_years: BTreeMap<i32, u64>,
    flagged_creation_years: BTreeMap<i32, u64>,
    tlds: HashMap<String, u64>,
    total: u64,
    privacy_protected: u64,
    portfolios: Vec<RegistrantPortfolio>,
    /// Record indices sorted by domain; equal domains keep corpus order.
    by_domain: Vec<u32>,
}

/// Adds `n` to `key`'s count, cloning the key only on its first sighting.
fn bump(counts: &mut HashMap<String, u64>, key: &str, n: u64) {
    match counts.get_mut(key) {
        Some(count) => *count += n,
        None => {
            counts.insert(key.to_string(), n);
        }
    }
}

/// The last label of `domain`, which Table I groups WHOIS records by.
fn tld_of(domain: &str) -> &str {
    domain.rsplit('.').next().unwrap_or(domain)
}

/// The `k` largest counts, by count descending and then key ascending.
/// Only the `k` winners are cloned.
fn top_k(counts: &HashMap<String, u64>, k: usize) -> Vec<(String, u64)> {
    let order = |a: &(&str, u64), b: &(&str, u64)| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0));
    let mut ranked: Vec<(&str, u64)> = counts.iter().map(|(key, &n)| (key.as_str(), n)).collect();
    if k < ranked.len() {
        ranked.select_nth_unstable_by(k, order);
        ranked.truncate(k);
    }
    ranked.sort_unstable_by(order);
    ranked
        .into_iter()
        .map(|(key, n)| (key.to_string(), n))
        .collect()
}

/// What [`RegistrationAnalytics::of_corpus`] folds from the domains alone.
struct DomainFold {
    tlds: HashMap<String, u64>,
    flagged_creation_years: BTreeMap<i32, u64>,
    by_domain: Vec<u32>,
}

impl DomainFold {
    fn of(records: &[WhoisRecord], is_flagged: &dyn Fn(&str) -> bool, len: u32) -> Self {
        let mut tlds = HashMap::new();
        let mut flagged_creation_years = BTreeMap::new();
        // Sort keys: a 16-byte big-endian domain prefix, then the index.
        // Zero padding keeps prefix order consistent with string order, so
        // only equal prefixes compare the strings.
        let mut keys: Vec<(u128, u32)> = Vec::with_capacity(records.len());
        // Records of one TLD come in long runs: count a run at its end.
        let mut tld_run = ("", 0u64);
        for (record, i) in records.iter().zip(0..len) {
            let tld = tld_of(&record.domain);
            if tld == tld_run.0 {
                tld_run.1 += 1;
            } else {
                if tld_run.1 > 0 {
                    bump(&mut tlds, tld_run.0, tld_run.1);
                }
                tld_run = (tld, 1);
            }
            if let Some(date) = record.creation_date {
                if is_flagged(&record.domain) {
                    *flagged_creation_years.entry(date.year).or_insert(0) += 1;
                }
            }
            let mut prefix = [0u8; 16];
            let n = record.domain.len().min(16);
            prefix[..n].copy_from_slice(&record.domain.as_bytes()[..n]);
            keys.push((u128::from_be_bytes(prefix), i));
        }
        if tld_run.1 > 0 {
            bump(&mut tlds, tld_run.0, tld_run.1);
        }
        keys.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| {
                    records[a.1 as usize]
                        .domain
                        .cmp(&records[b.1 as usize].domain)
                })
                .then(a.1.cmp(&b.1))
        });
        DomainFold {
            tlds,
            flagged_creation_years,
            by_domain: keys.into_iter().map(|(_, i)| i).collect(),
        }
    }
}

impl RegistrationAnalytics {
    /// Creates an empty analytics accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds a whole corpus, plus what needs the corpus fixed: Figure 1's
    /// split of the creation years of records whose domain `is_flagged`,
    /// the top registrants' portfolios and the domain index behind
    /// [`RegistrationAnalytics::lookup`]. With `threads > 1` the
    /// per-domain aggregates fold on a second thread.
    ///
    /// # Panics
    ///
    /// If `records` holds more than `u32::MAX` records.
    pub fn of_corpus(
        records: &[WhoisRecord],
        is_flagged: impl Fn(&str) -> bool + Sync,
        threads: usize,
    ) -> Self {
        let len = u32::try_from(records.len()).expect("WHOIS corpus exceeds u32::MAX records");
        let (mut analytics, domains) = idnre_par::join(
            threads,
            || {
                let mut analytics = Self::new();
                for record in records {
                    analytics.fold(record);
                }
                analytics.portfolios = analytics.portfolios_in(records);
                analytics
            },
            || DomainFold::of(records, &is_flagged, len),
        );
        analytics.tlds = domains.tlds;
        analytics.flagged_creation_years = domains.flagged_creation_years;
        analytics.by_domain = domains.by_domain;
        analytics
    }

    /// The portfolios of the top [`PORTFOLIO_REGISTRANTS`] registrants in
    /// `records`, the corpus this aggregate folded.
    fn portfolios_in(&self, records: &[WhoisRecord]) -> Vec<RegistrantPortfolio> {
        let mut portfolios: Vec<RegistrantPortfolio> = self
            .top_registrants(PORTFOLIO_REGISTRANTS)
            .into_iter()
            .map(|(email, count)| RegistrantPortfolio {
                email,
                domains: Vec::with_capacity(count as usize),
            })
            .collect();
        for record in records {
            if let Some(email) = record.registrant_email.as_deref() {
                if let Some(portfolio) = portfolios.iter_mut().find(|p| p.email == email) {
                    portfolio.domains.push(record.domain.clone());
                }
            }
        }
        portfolios
    }

    /// Folds one record into the aggregate.
    pub fn add(&mut self, record: &WhoisRecord) {
        self.fold(record);
        bump(&mut self.tlds, tld_of(&record.domain), 1);
    }

    /// [`RegistrationAnalytics::add`] without the per-TLD count.
    fn fold(&mut self, record: &WhoisRecord) {
        self.total += 1;
        if let Some(registrar) = &record.registrar {
            bump(&mut self.registrars, registrar, 1);
        }
        if let Some(email) = &record.registrant_email {
            bump(&mut self.registrants, email, 1);
        }
        if let Some(date) = record.creation_date {
            *self.creation_years.entry(date.year).or_insert(0) += 1;
        }
        if record.privacy_protected {
            self.privacy_protected += 1;
        }
    }

    /// Records folded so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct registrars — the paper found "over 700".
    pub fn distinct_registrars(&self) -> usize {
        self.registrars.len()
    }

    /// Top `k` registrars by domain count, descending, ties by name
    /// (Table IV).
    pub fn top_registrars(&self, k: usize) -> Vec<(String, u64)> {
        top_k(&self.registrars, k)
    }

    /// Share of the corpus held by the top `k` registrars — the "55% of
    /// IDNs were registered by top 10 registrars" statistic (Finding 4).
    pub fn top_registrar_share(&self, k: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let top: u64 = self.top_registrars(k).iter().map(|&(_, c)| c).sum();
        top as f64 / self.total as f64
    }

    /// Top `k` registrant emails by domain count, descending, ties by
    /// email (Table III).
    pub fn top_registrants(&self, k: usize) -> Vec<(String, u64)> {
        top_k(&self.registrants, k)
    }

    /// The portfolios of the top [`PORTFOLIO_REGISTRANTS`] registrants, in
    /// [`RegistrationAnalytics::top_registrants`] order. Empty unless built
    /// by [`RegistrationAnalytics::of_corpus`].
    pub fn top_portfolios(&self) -> &[RegistrantPortfolio] {
        &self.portfolios
    }

    /// Number of domains held by registrants owning at least `threshold`
    /// domains each — the "opportunistic registration" mass of Finding 3.
    pub fn opportunistic_mass(&self, threshold: usize) -> u64 {
        self.registrants
            .values()
            .filter(|&&n| n >= threshold as u64)
            .sum()
    }

    /// `(year, registrations)` in ascending year order (Figure 1).
    pub fn creation_timeline(&self) -> Vec<(i32, u64)> {
        self.creation_years.iter().map(|(&y, &c)| (y, c)).collect()
    }

    /// [`RegistrationAnalytics::creation_timeline`] of the records
    /// [`RegistrationAnalytics::of_corpus`] was told are flagged (Figure
    /// 1's malicious series).
    pub fn flagged_creation_timeline(&self) -> Vec<(i32, u64)> {
        self.flagged_creation_years
            .iter()
            .map(|(&y, &c)| (y, c))
            .collect()
    }

    /// Count of domains created strictly before `cutoff`'s year — Finding
    /// 2's "registered for at least ten years" when `cutoff` is
    /// snapshot−10y.
    pub fn created_before(&self, cutoff: Date) -> u64 {
        self.creation_years
            .range(..cutoff.year)
            .map(|(_, &c)| c)
            .sum()
    }

    /// Records whose domain's last label is `tld` (Table I's WHOIS column).
    pub fn records_in_tld(&self, tld: &str) -> u64 {
        self.tlds.get(tld).copied().unwrap_or(0)
    }

    /// Fraction of records using personal (free-mail) registrant addresses.
    pub fn personal_email_rate(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let personal: u64 = self
            .registrants
            .iter()
            .filter(|(email, _)| is_free_mail(email))
            .map(|(_, &n)| n)
            .sum();
        personal as f64 / self.total as f64
    }

    /// Fraction of records behind WHOIS privacy.
    pub fn privacy_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.privacy_protected as f64 / self.total as f64
        }
    }

    /// The domain index over `records`, which must be the corpus this
    /// aggregate was built from by [`RegistrationAnalytics::of_corpus`].
    ///
    /// # Panics
    ///
    /// If `records` is not the length of the indexed corpus.
    pub fn lookup<'a>(&'a self, records: &'a [WhoisRecord]) -> WhoisLookup<'a> {
        assert_eq!(
            records.len(),
            self.by_domain.len(),
            "the lookup must read the corpus the index was built over"
        );
        WhoisLookup {
            records,
            by_domain: &self.by_domain,
        }
    }
}

impl<'a> Extend<&'a WhoisRecord> for RegistrationAnalytics {
    fn extend<T: IntoIterator<Item = &'a WhoisRecord>>(&mut self, iter: T) {
        for record in iter {
            self.add(record);
        }
    }
}

/// Domain → record lookup over a WHOIS corpus: binary search over the
/// domain-sorted index of [`RegistrationAnalytics::of_corpus`], borrowing
/// the records instead of keying a map by owned domains. The default is
/// the empty corpus.
#[derive(Debug, Clone, Copy, Default)]
pub struct WhoisLookup<'a> {
    records: &'a [WhoisRecord],
    by_domain: &'a [u32],
}

impl<'a> WhoisLookup<'a> {
    /// Every record of `domain`, in corpus order.
    pub fn records_of(&self, domain: &str) -> impl DoubleEndedIterator<Item = &'a WhoisRecord> {
        let records = self.records;
        let domain_at = |i: u32| records[i as usize].domain.as_str();
        let start = self.by_domain.partition_point(|&i| domain_at(i) < domain);
        let len = self.by_domain[start..].partition_point(|&i| domain_at(i) == domain);
        self.by_domain[start..start + len]
            .iter()
            .map(move |&i| &records[i as usize])
    }

    /// The last record of `domain` in corpus order: the one a map keyed by
    /// domain keeps when it is collected from the corpus.
    pub fn get(&self, domain: &str) -> Option<&'a WhoisRecord> {
        self.records_of(domain).next_back()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::WhoisDialect;

    fn record(domain: &str, registrar: &str, email: Option<&str>, year: i32) -> WhoisRecord {
        let mut r = WhoisRecord::new(domain, WhoisDialect::KeyValue);
        r.registrar = Some(registrar.to_string());
        r.registrant_email = email.map(str::to_string);
        r.creation_date = Some(Date::new(year, 6, 1).unwrap());
        r
    }

    fn sample() -> RegistrationAnalytics {
        let mut a = RegistrationAnalytics::new();
        let records = [
            record("a1.com", "GMO Internet Inc.", Some("bulk@qq.com"), 2017),
            record("a2.com", "GMO Internet Inc.", Some("bulk@qq.com"), 2017),
            record("a3.com", "GMO Internet Inc.", Some("bulk@qq.com"), 2017),
            record("b1.com", "GoDaddy.com, LLC.", Some("one@gmail.com"), 2004),
            record("c1.com", "Name.com, Inc.", None, 2000),
        ];
        a.extend(records.iter());
        a
    }

    #[test]
    fn registrar_table() {
        let a = sample();
        assert_eq!(a.distinct_registrars(), 3);
        let top = a.top_registrars(2);
        assert_eq!(top[0], ("GMO Internet Inc.".to_string(), 3));
        assert!((a.top_registrar_share(1) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn registrant_clustering() {
        let a = sample();
        let top = a.top_registrants(1);
        assert_eq!(top[0], ("bulk@qq.com".to_string(), 3));
        assert_eq!(a.opportunistic_mass(3), 3);
        assert_eq!(a.opportunistic_mass(4), 0);
        // Portfolios need the corpus, which `extend` does not keep.
        assert!(a.top_portfolios().is_empty());
    }

    fn corpus() -> Vec<WhoisRecord> {
        vec![
            record("xn--dup.com", "Zeta Registrar", Some("first@qq.com"), 2015),
            record("b.net", "Alpha Registrar", Some("tie-b@x.com"), 2004),
            record("a.com", "Zeta Registrar", Some("tie-a@x.com"), 2000),
            record("c.com", "Alpha Registrar", Some("first@qq.com"), 2017),
            record(
                "xn--dup.com",
                "Alpha Registrar",
                Some("second@qq.com"),
                2017,
            ),
        ]
    }

    #[test]
    fn corpus_fold_counts_duplicates_and_breaks_ties_by_name() {
        let records = corpus();
        let a = RegistrationAnalytics::of_corpus(&records, |d| d == "xn--dup.com", 1);
        for threads in [2, 3, 8] {
            let parallel =
                RegistrationAnalytics::of_corpus(&records, |d| d == "xn--dup.com", threads);
            assert_eq!(parallel, a, "{threads} threads");
        }
        // Both copies of the duplicated domain count everywhere.
        assert_eq!(a.total(), 5);
        assert_eq!(a.records_in_tld("com"), 4);
        assert_eq!(a.records_in_tld("net"), 1);
        assert_eq!(
            a.flagged_creation_timeline(),
            vec![(2015, 1), (2017, 1)],
            "each flagged copy keeps its own year"
        );
        // Registrars tie 3–2 → ties break by name.
        assert_eq!(
            a.top_registrars(2),
            vec![
                ("Alpha Registrar".to_string(), 3),
                ("Zeta Registrar".to_string(), 2)
            ]
        );
        // Registrants: one email with 2, then four with 1, by email.
        let top: Vec<String> = a.top_registrants(5).into_iter().map(|(e, _)| e).collect();
        assert_eq!(
            top,
            [
                "first@qq.com",
                "second@qq.com",
                "tie-a@x.com",
                "tie-b@x.com"
            ]
        );
        let portfolios = a.top_portfolios();
        assert_eq!(portfolios.len(), 4);
        assert_eq!(portfolios[0].email, "first@qq.com");
        assert_eq!(portfolios[0].domains, ["xn--dup.com", "c.com"]);
        assert_eq!(a, a.clone());
    }

    #[test]
    fn lookup_returns_the_last_record_of_a_duplicated_domain() {
        let records = corpus();
        let a = RegistrationAnalytics::of_corpus(&records, |_| false, 2);
        let lookup = a.lookup(&records);
        let last = lookup.get("xn--dup.com").expect("indexed");
        assert_eq!(last.registrant_email.as_deref(), Some("second@qq.com"));
        let emails: Vec<&str> = lookup
            .records_of("xn--dup.com")
            .filter_map(|r| r.registrant_email.as_deref())
            .collect();
        assert_eq!(emails, ["first@qq.com", "second@qq.com"]);
        assert_eq!(
            lookup.get("a.com").map(|r| r.domain.as_str()),
            Some("a.com")
        );
        assert!(lookup.get("missing.com").is_none());
        assert!(lookup.get("").is_none());
        assert!(WhoisLookup::default().get("a.com").is_none());
    }

    #[test]
    fn index_orders_like_a_stable_string_sort() {
        // Shared 16-byte prefixes, prefixes of each other, and duplicates.
        let domains = [
            "xn--aaaaaaaaaaaa1.com",
            "xn--aaaaaaaaaaaa.com",
            "xn--aaaaaaaaaaaa0.com",
            "xn--aaaaaaaaaaaa1.com",
            "xn--aaaaaaaaaaa",
            "xn--aaaaaaaaaaaa",
            "b.com",
            "a",
            "xn--aaaaaaaaaaaa.com",
        ];
        let records: Vec<WhoisRecord> = domains
            .iter()
            .map(|d| WhoisRecord::new(d, WhoisDialect::KeyValue))
            .collect();
        let a = RegistrationAnalytics::of_corpus(&records, |_| false, 2);
        let mut expected: Vec<u32> = (0..domains.len() as u32).collect();
        expected.sort_by_key(|&i| domains[i as usize]);
        assert_eq!(a.by_domain, expected);
    }

    #[test]
    #[should_panic(expected = "the corpus the index was built over")]
    fn lookup_rejects_a_different_corpus() {
        let records = corpus();
        let a = RegistrationAnalytics::of_corpus(&records, |_| false, 2);
        let _ = a.lookup(&records[1..]);
    }

    #[test]
    fn timeline_and_age() {
        let a = sample();
        assert_eq!(a.creation_timeline(), vec![(2000, 1), (2004, 1), (2017, 3)]);
        let cutoff = Date::new(2007, 10, 1).unwrap();
        assert_eq!(a.created_before(cutoff), 2);
    }

    #[test]
    fn email_rates() {
        let a = sample();
        assert!((a.personal_email_rate() - 0.8).abs() < 1e-9);
        assert_eq!(a.privacy_rate(), 0.0);
    }

    #[test]
    fn empty_analytics() {
        let a = RegistrationAnalytics::new();
        assert_eq!(a.total(), 0);
        assert_eq!(a.top_registrars(5), vec![]);
        assert_eq!(a.top_registrar_share(5), 0.0);
    }
}
