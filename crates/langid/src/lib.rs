//! Language identification for internationalized domain names.
//!
//! Re-implements the approach of LangID (Lui & Baldwin) at the scale a
//! domain-label classifier needs: a multinomial naive-Bayes model over
//! character uni- and bi-grams, trained on an embedded multilingual seed
//! corpus, with Unicode-script priors narrowing the candidate set first
//! (Hangul → Korean, kana → Japanese, Han → {Chinese, Japanese}, …).
//!
//! The paper (Table II) classifies 1.4M IDNs into 15 top languages; this
//! crate covers those 15 plus English.
//!
//! # Examples
//!
//! ```
//! use idnre_langid::{Classifier, Language};
//!
//! let clf = Classifier::global();
//! assert_eq!(clf.classify("彩票"), Language::Chinese);
//! assert_eq!(clf.classify("ニュース"), Language::Japanese);
//! assert_eq!(clf.classify("뉴스"), Language::Korean);
//! assert_eq!(clf.classify("münchen"), Language::German);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod corpus;
mod model;
#[cfg(any(test, feature = "oracle"))]
#[doc(hidden)]
pub mod oracle;

pub use corpus::vocabulary;
pub use model::{Classifier, Prediction};

use std::fmt;

/// The languages the classifier distinguishes — the paper's Table II top-15
/// plus English (for ASCII-heavy labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Language {
    /// Mandarin Chinese (simplified or traditional Han).
    Chinese,
    /// Japanese (kana and/or kanji).
    Japanese,
    /// Korean (Hangul).
    Korean,
    /// German.
    German,
    /// Turkish.
    Turkish,
    /// Thai.
    Thai,
    /// Swedish.
    Swedish,
    /// Spanish.
    Spanish,
    /// French.
    French,
    /// Finnish.
    Finnish,
    /// Russian.
    Russian,
    /// Hungarian.
    Hungarian,
    /// Arabic.
    Arabic,
    /// Danish.
    Danish,
    /// Persian (Farsi).
    Persian,
    /// Vietnamese (Latin with stacked diacritics — the script whose
    /// characters power many Table VIII homographs).
    Vietnamese,
    /// Greek.
    Greek,
    /// Hebrew.
    Hebrew,
    /// English.
    English,
    /// Could not be determined (empty input or unmodelled script).
    Unknown,
}

impl Language {
    /// All concrete languages (excludes [`Language::Unknown`]).
    pub const ALL: [Language; 19] = [
        Language::Chinese,
        Language::Japanese,
        Language::Korean,
        Language::German,
        Language::Turkish,
        Language::Thai,
        Language::Swedish,
        Language::Spanish,
        Language::French,
        Language::Finnish,
        Language::Russian,
        Language::Hungarian,
        Language::Arabic,
        Language::Danish,
        Language::Persian,
        Language::Vietnamese,
        Language::Greek,
        Language::Hebrew,
        Language::English,
    ];

    /// Dense `u8` id for columnar storage: the index in [`Language::ALL`],
    /// with [`Language::Unknown`] mapped to `ALL.len()`.
    pub fn id(self) -> u8 {
        match self {
            Language::Unknown => Language::ALL.len() as u8,
            lang => Language::ALL
                .iter()
                .position(|&l| l == lang)
                .expect("every concrete language is in ALL") as u8,
        }
    }

    /// Inverse of [`Language::id`]; out-of-range ids decode to
    /// [`Language::Unknown`].
    pub fn from_id(id: u8) -> Language {
        Language::ALL
            .get(usize::from(id))
            .copied()
            .unwrap_or(Language::Unknown)
    }

    /// Whether the language is spoken primarily in east Asia — the grouping
    /// behind the paper's Finding 1 (">75% of IDNs are in east-Asian
    /// languages": Chinese, Japanese, Korean, Thai).
    pub fn is_east_asian(self) -> bool {
        matches!(
            self,
            Language::Chinese | Language::Japanese | Language::Korean | Language::Thai
        )
    }
}

impl fmt::Display for Language {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Language::Chinese => "Chinese",
            Language::Japanese => "Japanese",
            Language::Korean => "Korean",
            Language::German => "German",
            Language::Turkish => "Turkish",
            Language::Thai => "Thai",
            Language::Swedish => "Swedish",
            Language::Spanish => "Spanish",
            Language::French => "French",
            Language::Finnish => "Finnish",
            Language::Russian => "Russian",
            Language::Hungarian => "Hungarian",
            Language::Arabic => "Arabic",
            Language::Danish => "Danish",
            Language::Persian => "Persian",
            Language::Vietnamese => "Vietnamese",
            Language::Greek => "Greek",
            Language::Hebrew => "Hebrew",
            Language::English => "English",
            Language::Unknown => "Unknown",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn east_asian_grouping_matches_finding_1() {
        assert!(Language::Chinese.is_east_asian());
        assert!(Language::Thai.is_east_asian());
        assert!(!Language::German.is_east_asian());
        assert!(!Language::Russian.is_east_asian());
    }

    #[test]
    fn all_excludes_unknown() {
        assert!(!Language::ALL.contains(&Language::Unknown));
        assert_eq!(Language::ALL.len(), 19);
    }

    #[test]
    fn id_round_trips() {
        for lang in Language::ALL {
            assert_eq!(Language::from_id(lang.id()), lang);
        }
        assert_eq!(Language::from_id(Language::Unknown.id()), Language::Unknown);
        assert_eq!(Language::from_id(255), Language::Unknown);
    }

    #[test]
    fn display_names() {
        assert_eq!(Language::Chinese.to_string(), "Chinese");
        assert_eq!(Language::Unknown.to_string(), "Unknown");
    }
}
