//! Text rasterization and image-similarity metrics for homograph detection.
//!
//! The paper renders every IDN and every brand domain to an image and
//! compares them pairwise with the Structural Similarity (SSIM) index
//! (Wang et al., 2004). This crate reimplements that pipeline from scratch:
//!
//! * [`GrayImage`] — a grayscale raster.
//! * [`render_text`] — draws a string on a fixed 8×16 cell grid using an
//!   embedded 5×7 core font for ASCII, compositional rendering (base glyph +
//!   diacritic marks from the `idnre-unicode` confusables table) for Latin/
//!   Cyrillic/Greek lookalikes, and a deterministic dense block pattern for
//!   CJK and other scripts.
//! * [`ssim`] / [`mse`] — windowed SSIM and mean-squared-error metrics.
//!
//! # Examples
//!
//! ```
//! use idnre_render::{render_text, ssim};
//!
//! let brand = render_text("apple.com");
//! let spoof = render_text("аррӏе.com"); // Cyrillic spoof: pixel-identical
//! assert_eq!(ssim(&brand, &spoof).unwrap(), 1.0);
//!
//! let different = render_text("pears.com");
//! assert!(ssim(&brand, &different).unwrap() < 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod font;
mod image;
mod metrics;

pub use font::{CELL_HEIGHT, CELL_WIDTH};
pub use image::GrayImage;
pub use metrics::{mse, ssim, ssim_windows, DimensionMismatch};

use idnre_unicode::confusables;

/// Renders `text` onto a grayscale image, one 8×16 cell per character.
///
/// Rendering is deterministic: the same string always produces the same
/// image. Characters render as:
///
/// 1. ASCII letters/digits/`-`/`.` — the embedded core font.
/// 2. Known confusables — the ASCII target's glyph plus diacritic marks.
/// 3. Everything else — a dense pseudo-random pattern seeded by the code
///    point (visually "foreign" and stable across runs).
pub fn render_text(text: &str) -> GrayImage {
    let chars: Vec<char> = text.chars().collect();
    let mut img = GrayImage::new(chars.len().max(1) * CELL_WIDTH, CELL_HEIGHT);
    for (i, &c) in chars.iter().enumerate() {
        font::draw_char(&mut img, i * CELL_WIDTH, c);
    }
    img
}

/// Renders two strings into equal-width images (padding the shorter with
/// blank cells) and returns their SSIM index.
///
/// This is the comparison the homograph scanner performs for every
/// (IDN, brand) pair.
///
/// # Examples
///
/// ```
/// let s = idnre_render::ssim_strings("google", "gõõgle");
/// assert!(s > 0.8 && s < 1.0);
/// ```
pub fn ssim_strings(a: &str, b: &str) -> f64 {
    let la = a.chars().count().max(1);
    let lb = b.chars().count().max(1);
    let width = la.max(lb) * CELL_WIDTH;
    let mut ia = render_text(a);
    let mut ib = render_text(b);
    ia.pad_to_width(width);
    ib.pad_to_width(width);
    ssim(&ia, &ib).expect("padded to identical dimensions")
}

/// Strips the marks of known confusables: renders `text` as if every
/// confusable were its ASCII target. Used by the ablation bench to measure
/// how much of the SSIM signal the marks carry.
pub fn render_skeleton(text: &str) -> GrayImage {
    let folded: String = text.chars().map(confusables::skeleton_char).collect();
    render_text(&folded)
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_rendering() {
        let a = render_text("例え.com");
        let b = render_text("例え.com");
        assert_eq!(a, b);
    }

    #[test]
    fn identical_confusable_is_pixel_identical() {
        // Cyrillic о renders exactly as Latin o.
        let a = render_text("o");
        let b = render_text("о");
        assert_eq!(a, b);
    }

    #[test]
    fn marked_confusable_differs_from_base() {
        let a = render_text("o");
        let b = render_text("ö");
        assert_ne!(a, b);
    }

    #[test]
    fn distinct_cjk_chars_render_differently() {
        assert_ne!(render_text("中"), render_text("国"));
    }

    #[test]
    fn ssim_strings_pads_lengths() {
        let s = ssim_strings("google", "google.com");
        assert!(s < 1.0);
        assert!(s > 0.0);
    }

    #[test]
    fn skeleton_render_matches_target_render() {
        assert_eq!(render_skeleton("gõõgle"), render_text("google"));
    }
}
