//! Property-based tests for the renderer and similarity metrics.

use idnre_render::{mse, render_text, ssim, ssim_strings, ssim_windows, GrayImage};
use idnre_unicode::homoglyphs_of;
use proptest::prelude::*;

/// The naive kernel the production one must match bit for bit.
#[path = "../src/oracle.rs"]
mod oracle;

fn domainish() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        proptest::char::range('a', 'z'),
        proptest::char::range('0', '9'),
        proptest::char::range('\u{00E0}', '\u{00FF}'),
        proptest::char::range('\u{0430}', '\u{044F}'),
        proptest::char::range('\u{4E00}', '\u{4E40}'),
    ];
    proptest::collection::vec(ch, 1..14).prop_map(|v| v.into_iter().collect())
}

/// `s` with one homoglyph substitution per `(position, glyph)` pick, both
/// taken modulo what is available; a character without homoglyphs stays.
fn substitute(s: &str, picks: &[(usize, usize)]) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    for &(position, glyph) in picks {
        let position = position % chars.len();
        let glyphs = homoglyphs_of(chars[position]);
        if !glyphs.is_empty() {
            chars[position] = glyphs[glyph % glyphs.len()].ch;
        }
    }
    chars.into_iter().collect()
}

/// Asserts that `ssim` and `ssim_windows` carry the oracle's exact bits.
fn check_bits(a: &GrayImage, b: &GrayImage) {
    let (got, want) = (ssim(a, b).unwrap(), oracle::ssim(a, b));
    prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs {}", got, want);
    let windows: Vec<u64> = ssim_windows(a, b)
        .unwrap()
        .iter()
        .map(|s| s.to_bits())
        .collect();
    let expected: Vec<u64> = oracle::windows(a, b).iter().map(|s| s.to_bits()).collect();
    prop_assert_eq!(windows, expected);
}

proptest! {
    /// One substitution leaves most windows pixel-identical: the clean-window
    /// shortcut must still return the oracle's bits.
    #[test]
    fn ssim_matches_oracle_one_substitution(s in domainish(), pick in (any::<usize>(), any::<usize>())) {
        let spoof = substitute(&s, &[pick]);
        check_bits(&render_text(&s), &render_text(&spoof));
    }

    /// Two substitutions, possibly in the same cell.
    #[test]
    fn ssim_matches_oracle_two_substitutions(
        s in domainish(),
        first in (any::<usize>(), any::<usize>()),
        second in (any::<usize>(), any::<usize>()),
    ) {
        let spoof = substitute(&s, &[first, second]);
        check_bits(&render_text(&s), &render_text(&spoof));
    }

    /// Unrelated strings padded to one width: nearly every window is dirty.
    #[test]
    fn ssim_matches_oracle_unrelated(a in domainish(), b in domainish()) {
        let (mut ia, mut ib) = (render_text(&a), render_text(&b));
        let width = ia.width().max(ib.width());
        ia.pad_to_width(width);
        ib.pad_to_width(width);
        check_bits(&ia, &ib);
    }

    /// Hand-built grey-level images of any size, including sizes below one
    /// window, with a few pixels edited. Rendered text is 0/1 ink, whose
    /// window sums are exact in any order; levels spread over 2^-40..1
    /// make the accumulation order show in the bits.
    #[test]
    fn ssim_matches_oracle_grey_levels(
        (w, h) in (1usize..40, 1usize..24),
        levels in proptest::collection::vec((0.0f32..1.0, 0i32..40), 960),
        edits in proptest::collection::vec((any::<usize>(), 0.0f32..1.0), 0..6)
    ) {
        let mut a = GrayImage::new(w, h);
        for (i, &(level, exponent)) in levels.iter().take(w * h).enumerate() {
            a.set(i % w, i / w, level * (-exponent as f32).exp2());
        }
        let mut b = a.clone();
        for &(i, level) in &edits {
            let i = i % (w * h);
            b.set(i % w, i / w, level);
        }
        check_bits(&a, &b);
    }

    /// SSIM is reflexive: every string scores exactly 1.0 against itself.
    #[test]
    fn ssim_reflexive(s in domainish()) {
        prop_assert_eq!(ssim_strings(&s, &s), 1.0);
    }

    /// SSIM is symmetric.
    #[test]
    fn ssim_symmetric(a in domainish(), b in domainish()) {
        let ab = ssim_strings(&a, &b);
        let ba = ssim_strings(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((-1.0..=1.0 + 1e-12).contains(&ab));
    }

    /// MSE is zero iff the rendered images are identical.
    #[test]
    fn mse_zero_iff_identical(a in domainish(), b in domainish()) {
        let ia = render_text(&a);
        let ib = render_text(&b);
        if ia.width() == ib.width() {
            let m = mse(&ia, &ib).unwrap();
            prop_assert_eq!(m == 0.0, ia == ib, "{} vs {}", a, b);
            let s = ssim(&ia, &ib).unwrap();
            if m == 0.0 {
                prop_assert_eq!(s, 1.0);
            }
        }
    }

    /// Rendering is deterministic and sized by character count.
    #[test]
    fn render_geometry(s in domainish()) {
        let img = render_text(&s);
        prop_assert_eq!(img.width(), s.chars().count() * idnre_render::CELL_WIDTH);
        prop_assert_eq!(img.height(), idnre_render::CELL_HEIGHT);
        prop_assert_eq!(render_text(&s), img);
    }

    /// Rendering never panics on fully arbitrary Unicode.
    #[test]
    fn render_total(s in "\\PC{0,24}") {
        let _ = render_text(&s);
    }
}
