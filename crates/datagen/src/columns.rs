//! Column rows: what one IDN registration contributes to
//! [`CorpusColumns`], derived in one place for every column build.
//!
//! The artifact walk fills a [`ColumnRows`] per IDN shard on its worker,
//! while the shard's regenerated records are at hand, and the walk's
//! ordered apply loop folds the shards into one [`ColumnsBuilder`] in
//! corpus order. Overlay column builds and epoch growth derive their rows
//! through the same code, so every build agrees on the label split and the
//! verdict bits.

use crate::registration::DomainRegistration;
use idnre_arena::{ColumnsBuilder, CorpusColumns, Symbol};
use idnre_blacklist::{BlacklistSet, Source};
use idnre_langid::{Classifier, Language};

const MALICIOUS: u8 = 1;
const ORGANIC: u8 = 1 << 1;
const VT: u8 = 1 << 2;
const QIHOO: u8 = 1 << 3;
const BAIDU: u8 = 1 << 4;

/// The column rows of a run of IDN registrations, compact: every SLD label
/// in one buffer with `u32` end offsets, a shard-local TLD id and one bit
/// byte per row. No row allocates.
#[derive(Debug, Default)]
pub struct ColumnRows {
    labels: String,
    ends: Vec<u32>,
    tld_names: Vec<String>,
    tlds: Vec<u16>,
    bits: Vec<u8>,
}

/// One row of [`ColumnRows`], borrowed.
#[derive(Debug, Clone, Copy)]
pub struct ColumnRow<'a> {
    /// The Unicode SLD label (the display form up to its first dot).
    pub sld: &'a str,
    /// The TLD (ACE form).
    pub tld: &'a str,
    /// Whether the registration carries a malicious flag.
    pub malicious: bool,
    /// Whether its ground-truth language is known.
    pub organic: bool,
    /// Whether VirusTotal lists the domain.
    pub vt: bool,
    /// Whether Qihoo-360 lists the domain.
    pub q: bool,
    /// Whether Baidu lists the domain.
    pub b: bool,
}

impl ColumnRows {
    /// Empty rows.
    pub fn new() -> Self {
        ColumnRows::default()
    }

    /// Derives `reg`'s row: its SLD label, TLD, malicious and organic bits
    /// and `blacklist`'s verdict bits. Reads the record only.
    pub(crate) fn push(&mut self, reg: &DomainRegistration, blacklist: &BlacklistSet) {
        let sld_len = reg.unicode.find('.').unwrap_or(reg.unicode.len());
        self.labels.push_str(&reg.unicode[..sld_len]);
        self.ends.push(
            u32::try_from(self.labels.len()).expect("a row buffer holds under 4 GiB of labels"),
        );
        let tld = match self.tld_names.iter().position(|t| *t == reg.tld) {
            Some(id) => id,
            None => {
                self.tld_names.push(reg.tld.clone());
                self.tld_names.len() - 1
            }
        };
        self.tlds.push(tld as u16);
        let mut bits = 0;
        if reg.malicious.is_some() {
            bits |= MALICIOUS;
        }
        if reg.language != Language::Unknown {
            bits |= ORGANIC;
        }
        let verdict = blacklist.verdict(&reg.domain);
        for (source, bit) in [
            (Source::VirusTotal, VT),
            (Source::Qihoo360, QIHOO),
            (Source::Baidu, BAIDU),
        ] {
            if verdict.contains(&source) {
                bits |= bit;
            }
        }
        self.bits.push(bits);
    }

    /// The rows of `records`, in order.
    pub fn of(records: &[DomainRegistration], blacklist: &BlacklistSet) -> Self {
        let mut rows = ColumnRows::new();
        for reg in records {
            rows.push(reg, blacklist);
        }
        rows
    }

    /// The rows, in push order.
    pub fn iter(&self) -> impl Iterator<Item = ColumnRow<'_>> + '_ {
        (0..self.bits.len()).map(move |i| {
            let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
            let bits = self.bits[i];
            ColumnRow {
                sld: &self.labels[start..self.ends[i] as usize],
                tld: &self.tld_names[usize::from(self.tlds[i])],
                malicious: bits & MALICIOUS != 0,
                organic: bits & ORGANIC != 0,
                vt: bits & VT != 0,
                q: bits & QIHOO != 0,
                b: bits & BAIDU != 0,
            }
        })
    }

    /// Interns every row into `builder`, in order.
    pub fn fold_into(&self, builder: &mut ColumnsBuilder) {
        for row in self.iter() {
            builder.push(
                row.sld,
                row.tld,
                row.malicious,
                row.organic,
                row.vt,
                row.q,
                row.b,
            );
        }
    }
}

/// Finishes `builder`: classifies each distinct label once, on `threads`
/// workers, and broadcasts the language ids to the rows. The classifier is
/// a pure function of the label, so the ids equal a per-row classification.
pub fn finish_columns(builder: ColumnsBuilder, threads: usize) -> CorpusColumns {
    builder.finish(|labels| {
        let indices: Vec<u32> = (0..labels.len() as u32).collect();
        idnre_par::par_map(&indices, threads, |&i| {
            language_id(labels.resolve(Symbol::from_index(i as usize)))
        })
    })
}

/// The language id a column build gives `label`.
pub fn language_id(label: &str) -> u8 {
    Classifier::global().classify(label).id()
}
