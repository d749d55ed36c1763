//! Multinomial naive-Bayes classifier over character n-grams with
//! script priors.

use crate::{corpus, Language};
use idnre_unicode::{dominant_script, Script};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// Languages per row of the gram table: one column per [`Language::ALL`]
/// entry, addressed by [`Language::id`].
const WIDTH: usize = Language::ALL.len();

/// A trained language classifier.
///
/// The model is cheap to train (the seed corpus is small); [`Classifier::global`]
/// provides a process-wide instance trained once on first use.
///
/// Every trained gram maps to one row of per-language log-probabilities,
/// with each language's unseen-gram mass filled in where that language
/// never saw the gram; one extra row holds the unseen masses alone. A
/// label's score therefore costs one lookup per gram, whatever the number
/// of candidate languages.
#[derive(Debug)]
pub struct Classifier {
    /// Packed gram → row index into `rows`.
    index: HashMap<u64, u32, BuildHasherDefault<GramHasher>>,
    /// Row-major `WIDTH`-wide log-probabilities; the last row is the
    /// unseen-gram row.
    rows: Vec<f64>,
}

/// One language's n-gram statistics, as training derives them.
///
/// N-grams are keyed by their [packed](pack_gram) `u64` form rather than a
/// `String`: a 1–3 char gram fits three 21-bit codepoint slots (each stored
/// as `cp + 1` so zero means "no char"), which is bijective with the gram
/// text — probabilities are identical to the string-keyed model, but lookups
/// hash 8 bytes and classification allocates no gram strings.
#[derive(Debug, Default)]
pub(crate) struct NgramModel {
    pub(crate) log_probs: HashMap<u64, f64>,
    /// Log-probability assigned to unseen n-grams (add-one smoothing mass).
    pub(crate) unseen: f64,
}

/// A fixed multiplicative hasher for packed grams: the gram table is
/// built once from the seed corpus, so it needs no DoS-resistant keying.
#[derive(Debug, Default)]
struct GramHasher(u64);

impl Hasher for GramHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, gram: u64) {
        let h = (self.0 ^ gram).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A scored prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The winning language.
    pub language: Language,
    /// Normalized posterior over the candidate set, in `(0, 1]`.
    pub confidence: f64,
}

/// Trains one add-one-smoothed gram model per language from the embedded
/// seed corpus.
pub(crate) fn train_models() -> Vec<(Language, NgramModel)> {
    Language::ALL
        .into_iter()
        .map(|lang| {
            let mut counts: HashMap<u64, u64> = HashMap::new();
            let mut total: u64 = 0;
            for word in corpus::vocabulary(lang) {
                for gram in ngrams(word) {
                    *counts.entry(gram).or_insert(0) += 1;
                    total += 1;
                }
            }
            let vocab_size = counts.len().max(1) as f64;
            let denom = total as f64 + vocab_size + 1.0;
            let log_probs = counts
                .into_iter()
                .map(|(gram, c)| (gram, ((c + 1) as f64 / denom).ln()))
                .collect();
            let model = NgramModel {
                log_probs,
                unseen: (1.0 / denom).ln(),
            };
            (lang, model)
        })
        .collect()
}

/// What a label is scored on: its cleaned grams and candidate languages,
/// or the verdict when the script prior alone decides.
pub(crate) enum Scoring {
    Decided(Prediction),
    Score {
        grams: Vec<u64>,
        candidates: Vec<Language>,
    },
}

/// The classifier's front end, shared with the test oracle: cleaning, the
/// script prior and gram extraction.
pub(crate) fn prepare(text: &str) -> Scoring {
    let cleaned = clean(text);
    let candidates = if cleaned.is_empty() {
        Vec::new()
    } else {
        candidates_for(&cleaned)
    };
    match candidates.len() {
        0 => Scoring::Decided(Prediction {
            language: Language::Unknown,
            confidence: 1.0,
        }),
        1 => Scoring::Decided(Prediction {
            language: candidates[0],
            confidence: 1.0,
        }),
        _ => Scoring::Score {
            grams: ngrams(&cleaned).collect(),
            candidates,
        },
    }
}

/// Picks the best-scoring candidate (the first on ties) and its
/// softmax-normalized confidence.
pub(crate) fn predict(mut scores: Vec<(Language, f64)>) -> Prediction {
    scores.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite log-likelihoods"));
    let max = scores[0].1;
    let z: f64 = scores.iter().map(|&(_, s)| (s - max).exp()).sum();
    Prediction {
        language: scores[0].0,
        confidence: 1.0 / z * (scores[0].1 - max).exp().max(f64::MIN_POSITIVE),
    }
}

impl Classifier {
    /// Trains a classifier from the embedded seed corpus.
    pub fn train() -> Self {
        let models = train_models();
        let mut index: HashMap<u64, u32, BuildHasherDefault<GramHasher>> = HashMap::default();
        let mut grams: Vec<u64> = models
            .iter()
            .flat_map(|(_, model)| model.log_probs.keys().copied())
            .collect();
        grams.sort_unstable();
        grams.dedup();
        let unseen: Vec<f64> = models.iter().map(|(_, model)| model.unseen).collect();
        let mut rows = Vec::with_capacity((grams.len() + 1) * WIDTH);
        for (row, &gram) in grams.iter().enumerate() {
            index.insert(gram, row as u32);
            for (lang, model) in &models {
                let p = model.log_probs.get(&gram).copied();
                rows.push(p.unwrap_or(unseen[usize::from(lang.id())]));
            }
        }
        rows.extend_from_slice(&unseen);
        Classifier { index, rows }
    }

    /// The process-wide classifier, trained on first use.
    pub fn global() -> &'static Classifier {
        static GLOBAL: OnceLock<Classifier> = OnceLock::new();
        GLOBAL.get_or_init(Classifier::train)
    }

    /// Classifies `text` (typically the Unicode form of an IDN label).
    ///
    /// # Examples
    ///
    /// ```
    /// use idnre_langid::{Classifier, Language};
    /// assert_eq!(Classifier::global().classify("彩票"), Language::Chinese);
    /// ```
    pub fn classify(&self, text: &str) -> Language {
        self.classify_detailed(text).language
    }

    /// Classifies `text`, returning the winner and its normalized posterior.
    pub fn classify_detailed(&self, text: &str) -> Prediction {
        let (grams, candidates) = match prepare(text) {
            Scoring::Decided(prediction) => return prediction,
            Scoring::Score { grams, candidates } => (grams, candidates),
        };
        // Each candidate's log-likelihood sums its column in gram order
        // from -0.0, as a per-language `Iterator::sum` does, so every
        // score carries the same bits as one lookup per gram per language.
        let unseen_row = self.rows.len() - WIDTH;
        let columns: Vec<usize> = candidates.iter().map(|l| usize::from(l.id())).collect();
        let mut sums = vec![-0.0f64; candidates.len()];
        for gram in &grams {
            let row = self
                .index
                .get(gram)
                .map_or(unseen_row, |&r| r as usize * WIDTH);
            let row = &self.rows[row..row + WIDTH];
            for (sum, &column) in sums.iter_mut().zip(&columns) {
                *sum += row[column];
            }
        }
        predict(candidates.into_iter().zip(sums).collect())
    }
}

/// Byte classes for the ASCII fast path of [`clean`], indexed by byte value.
/// `0` = keep (lowercase unchanged), `1` = drop, `2` = keep after
/// `to_ascii_lowercase`. Bytes ≥ 0x80 never consult the table.
const CLEAN_CLASS: [u8; 128] = {
    let mut table = [0u8; 128];
    let mut b = 0usize;
    while b < 128 {
        table[b] = match b as u8 {
            b'0'..=b'9' | b'-' | b'.' | b'_' | b' ' => 1,
            b'A'..=b'Z' => 2,
            _ => 0,
        };
        b += 1;
    }
    table
};

/// Strips digits, punctuation and whitespace; lowercases.
fn clean(text: &str) -> String {
    if text.is_ascii() {
        // Byte-table fast path: ASCII lowercasing is 1:1, so the generic
        // `char::to_lowercase` expansion can't differ here.
        return text
            .bytes()
            .filter(|&b| CLEAN_CLASS[b as usize] != 1)
            .map(|b| {
                if CLEAN_CLASS[b as usize] == 2 {
                    b.to_ascii_lowercase()
                } else {
                    b
                }
            })
            .map(char::from)
            .collect();
    }
    text.chars()
        .filter(|c| !c.is_ascii_digit() && !matches!(c, '-' | '.' | '_' | ' '))
        .flat_map(char::to_lowercase)
        .collect()
}

/// Packs a 1–3 char n-gram into a `u64`: three 21-bit slots holding
/// `codepoint + 1` (0 = empty slot). Unicode scalar values fit 21 bits, and
/// `+ 1` keeps a leading NUL distinct from an absent char, so the packing is
/// injective over all grams up to length 3.
fn pack_gram(gram: &[char]) -> u64 {
    let mut packed = 0u64;
    for &c in gram {
        packed = (packed << 21) | (c as u64 + 1);
    }
    packed
}

/// Character uni-, bi- and tri-grams with boundary markers, in packed form.
fn ngrams(word: &str) -> impl Iterator<Item = u64> + '_ {
    let chars: Vec<char> = std::iter::once('^')
        .chain(word.chars())
        .chain(std::iter::once('$'))
        .collect();
    let unigrams: Vec<u64> = chars.iter().map(|&c| pack_gram(&[c])).collect();
    let bigrams: Vec<u64> = chars.windows(2).map(pack_gram).collect();
    let trigrams: Vec<u64> = chars.windows(3).map(pack_gram).collect();
    unigrams.into_iter().chain(bigrams).chain(trigrams)
}

/// Script prior: restricts the candidate languages by dominant script.
fn candidates_for(cleaned: &str) -> Vec<Language> {
    match dominant_script(cleaned) {
        Script::Hiragana | Script::Katakana => vec![Language::Japanese],
        Script::Hangul => vec![Language::Korean],
        Script::Thai => vec![Language::Thai],
        Script::Han => vec![Language::Chinese, Language::Japanese],
        Script::Arabic => vec![Language::Arabic, Language::Persian],
        Script::Cyrillic => vec![Language::Russian],
        Script::Greek => vec![Language::Greek],
        Script::Hebrew => vec![Language::Hebrew],
        Script::Latin => vec![
            Language::German,
            Language::Turkish,
            Language::Swedish,
            Language::Spanish,
            Language::French,
            Language::Finnish,
            Language::Hungarian,
            Language::Danish,
            Language::Vietnamese,
            Language::English,
        ],
        _ => vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clf() -> &'static Classifier {
        Classifier::global()
    }

    #[test]
    fn script_bound_languages() {
        assert_eq!(clf().classify("ニュース"), Language::Japanese);
        assert_eq!(clf().classify("ひらがな"), Language::Japanese);
        assert_eq!(clf().classify("뉴스쇼핑"), Language::Korean);
        assert_eq!(clf().classify("ข่าวเกม"), Language::Thai);
        assert_eq!(clf().classify("новости"), Language::Russian);
    }

    #[test]
    fn han_disambiguation() {
        // Pure simplified-Chinese commerce terms → Chinese.
        assert_eq!(clf().classify("彩票"), Language::Chinese);
        assert_eq!(clf().classify("购物网站"), Language::Chinese);
        // Kanji + kana mix → Japanese (kana dominates the script vote when
        // present in equal measure; here kana wins via Han+kana mix).
        assert_eq!(clf().classify("日本のニュース"), Language::Japanese);
    }

    #[test]
    fn latin_languages() {
        assert_eq!(clf().classify("münchen"), Language::German);
        assert_eq!(clf().classify("alışveriş"), Language::Turkish);
        assert_eq!(clf().classify("göteborg"), Language::Swedish);
        assert_eq!(clf().classify("información"), Language::Spanish);
        assert_eq!(clf().classify("pâtisserie"), Language::French);
        assert_eq!(clf().classify("jääkiekko"), Language::Finnish);
        assert_eq!(clf().classify("időjárás"), Language::Hungarian);
        assert_eq!(clf().classify("smørrebrød"), Language::Danish);
    }

    #[test]
    fn arabic_vs_persian() {
        assert_eq!(clf().classify("أخبار"), Language::Arabic);
        assert_eq!(clf().classify("اخبار ایران"), Language::Persian);
    }

    #[test]
    fn digits_and_punctuation_ignored() {
        assert_eq!(clf().classify("58汽车"), Language::Chinese);
        assert_eq!(clf().classify("彩票-123"), Language::Chinese);
    }

    #[test]
    fn empty_and_unmodelled_are_unknown() {
        assert_eq!(clf().classify(""), Language::Unknown);
        assert_eq!(clf().classify("123-456"), Language::Unknown);
        // Devanagari is not in the model's language set.
        assert_eq!(clf().classify("समाचार"), Language::Unknown);
    }

    #[test]
    fn tail_languages() {
        assert_eq!(clf().classify("χαλκίδα νέα"), Language::Greek);
        assert_eq!(clf().classify("חדשות"), Language::Hebrew);
        assert_eq!(clf().classify("dulịch"), Language::Vietnamese);
        assert_eq!(clf().classify("kháchsạn"), Language::Vietnamese);
    }

    #[test]
    fn confidence_is_normalized() {
        let p = clf().classify_detailed("münchen");
        assert!(p.confidence > 0.0 && p.confidence <= 1.0);
        let single = clf().classify_detailed("뉴스");
        assert_eq!(single.confidence, 1.0);
    }

    #[test]
    fn clean_ascii_fast_path_matches_generic() {
        for text in [
            "",
            "abc",
            "ABC-123.def_GHI jkl",
            "x9y",
            "---",
            "Mixed Case 42",
        ] {
            let generic: String = text
                .chars()
                .filter(|c| !c.is_ascii_digit() && !matches!(c, '-' | '.' | '_' | ' '))
                .flat_map(char::to_lowercase)
                .collect();
            assert_eq!(clean(text), generic, "fast path diverged on {text:?}");
        }
    }

    #[test]
    fn packed_grams_are_injective() {
        // Distinct grams that would collide under naive concatenation.
        assert_ne!(pack_gram(&['a', 'b']), pack_gram(&['b', 'a']));
        assert_ne!(pack_gram(&['a']), pack_gram(&['a', '\0']));
        assert_ne!(pack_gram(&['^', 'a', '$']), pack_gram(&['a', '$']));
        // The '+1' offset keeps NUL distinct from absence.
        assert_ne!(pack_gram(&['\0', 'a']), pack_gram(&['a']));
    }

    #[test]
    fn seed_corpus_self_classification_accuracy() {
        // The paper reports 0.904–0.992 accuracy for langid.py. On our own
        // seed corpus (training data) accuracy should be near-perfect.
        let mut correct = 0u32;
        let mut total = 0u32;
        for lang in Language::ALL {
            for word in crate::corpus::vocabulary(lang) {
                total += 1;
                if clf().classify(word) == lang {
                    correct += 1;
                }
            }
        }
        let accuracy = correct as f64 / total as f64;
        assert!(accuracy > 0.9, "self-accuracy {accuracy} below 0.9");
    }
}
