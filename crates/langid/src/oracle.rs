//! The per-language reference kernel: how [`Classifier::classify_detailed`]
//! scored a label before the gram table, kept as the bitwise oracle. Each
//! candidate language sums its own model's log-probabilities in gram
//! order, with one hashed lookup per gram per candidate.
//!
//! Test-only: the crate's unit tests compile it, and other crates' tests
//! reach it through the `oracle` feature. The front end (cleaning, the
//! script prior, gram extraction) and the softmax are shared with the
//! classifier; only the scoring kernel is the old one.
//!
//! [`Classifier::classify_detailed`]: crate::Classifier::classify_detailed

use crate::model::{predict, prepare, train_models, NgramModel, Scoring};
use crate::{Language, Prediction};
use std::collections::HashMap;
use std::sync::OnceLock;

/// The per-language gram models, trained as the classifier trains them.
#[derive(Debug)]
pub struct Oracle {
    models: HashMap<Language, NgramModel>,
}

impl Oracle {
    /// The process-wide oracle, trained on first use.
    pub fn global() -> &'static Oracle {
        static GLOBAL: OnceLock<Oracle> = OnceLock::new();
        GLOBAL.get_or_init(|| Oracle {
            models: train_models().into_iter().collect(),
        })
    }

    /// The old `classify_detailed`.
    pub fn classify_detailed(&self, text: &str) -> Prediction {
        let (grams, candidates) = match prepare(text) {
            Scoring::Decided(prediction) => return prediction,
            Scoring::Score { grams, candidates } => (grams, candidates),
        };
        let scores: Vec<(Language, f64)> = candidates
            .iter()
            .map(|&lang| {
                let model = &self.models[&lang];
                let log_likelihood: f64 = grams
                    .iter()
                    .map(|g| model.log_probs.get(g).copied().unwrap_or(model.unseen))
                    .sum();
                (lang, log_likelihood)
            })
            .collect();
        predict(scores)
    }
}

/// Whether `text` gets the same language and the same confidence bits
/// from the classifier as from the oracle.
pub fn agrees(text: &str) -> bool {
    let got = crate::Classifier::global().classify_detailed(text);
    let want = Oracle::global().classify_detailed(text);
    got.language == want.language && got.confidence.to_bits() == want.confidence.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn kernel_matches_oracle_over_the_seed_vocabulary() {
        let mut checked = 0;
        for lang in Language::ALL {
            for word in crate::vocabulary(lang) {
                assert!(agrees(word), "{lang}: {word:?}");
                checked += 1;
            }
        }
        assert!(checked > 500, "only {checked} seed words");
    }

    /// One character from each script the prior distinguishes, plus
    /// digits, separators and an unmodelled script.
    const ALPHABET: &[char] = &[
        'a', 'é', 'ö', 'ş', 'ø', 'ư', 'z', '彩', '票', 'の', 'ニ', '뉴', 'ข', 'н', 'λ', 'ש', 'أ',
        'ی', 'स', '1', '-', '.', ' ', 'Ä', 'ß',
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Mixed-script strings exercise every candidate set, unseen grams
        /// and near-ties: the kernel must return the oracle's exact bits.
        #[test]
        fn kernel_matches_oracle_on_mixed_scripts(
            picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..16)
        ) {
            let text: String = picks.iter().map(|&i| ALPHABET[i]).collect();
            prop_assert!(agrees(&text), "{:?}", text);
        }

        /// Arbitrary Unicode, too.
        #[test]
        fn kernel_matches_oracle_on_any_text(text in "\\PC{0,24}") {
            prop_assert!(agrees(&text), "{:?}", text);
        }
    }
}
