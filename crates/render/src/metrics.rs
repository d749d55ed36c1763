//! Image similarity metrics: windowed SSIM (Wang et al., 2004) and MSE.

use crate::image::GrayImage;
use std::error::Error;
use std::fmt;

/// Error returned when comparing images of different dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimensionMismatch {
    /// Dimensions of the first image.
    pub a: (usize, usize),
    /// Dimensions of the second image.
    pub b: (usize, usize),
}

impl fmt::Display for DimensionMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "image dimensions differ: {}x{} vs {}x{}",
            self.a.0, self.a.1, self.b.0, self.b.1
        )
    }
}

impl Error for DimensionMismatch {}

/// SSIM stabilization constants for dynamic range L = 1.0.
const C1: f64 = 0.01 * 0.01;
const C2: f64 = 0.03 * 0.03;
/// Window geometry: 8×8 windows, stride 4 (half-overlap).
const WINDOW: usize = 8;
const STRIDE: usize = 4;

/// Computes the mean SSIM index between two images of identical dimensions.
///
/// The index is the average of per-window SSIM values over 8×8 windows with
/// stride 4, using uniform weighting. The result lies in `[-1, 1]`;
/// 1.0 means pixel-identical.
///
/// # Errors
///
/// Returns [`DimensionMismatch`] when the images differ in size.
///
/// # Examples
///
/// ```
/// use idnre_render::{render_text, ssim};
/// let a = render_text("abc");
/// assert_eq!(ssim(&a, &a).unwrap(), 1.0);
/// ```
pub fn ssim(a: &GrayImage, b: &GrayImage) -> Result<f64, DimensionMismatch> {
    // The same fold, in the same window order, as `sum()` over the
    // `ssim_windows` vector (std's float `Sum` starts from -0.0), so the
    // mean has the same bits without the vector.
    let (mut total, mut count) = (-0.0f64, 0usize);
    for_each_window(a, b, |value| {
        total += value;
        count += 1;
    })?;
    Ok(total / count as f64)
}

/// Per-window SSIM values (the intermediate the paper's Table XII threshold
/// analysis needs; exposing it avoids recomputation — C-INTERMEDIATE).
///
/// # Errors
///
/// Returns [`DimensionMismatch`] when the images differ in size.
pub fn ssim_windows(a: &GrayImage, b: &GrayImage) -> Result<Vec<f64>, DimensionMismatch> {
    let mut out = Vec::new();
    for_each_window(a, b, |value| out.push(value))?;
    Ok(out)
}

/// The SSIM kernel: calls `visit` with the SSIM of every 8×8 window, row by
/// row, windows at stride 4 and the last one of a row or column clamped to
/// the image edge.
///
/// A window whose pixels compare equal in both images scores exactly 1.0
/// without being computed: its means, variances and covariance come out
/// bit-equal, doubling is exact, so `2·μa·μb = μa² + μb²` and
/// `2·cov = var_a + var_b` bit for bit and the quotient is `x / x`. The
/// comparison is `==` rather than `to_bits`: a NaN pixel (reachable through
/// `GrayImage::set`) keeps its window on the computed path so the NaN
/// propagates, and a window that differs only in the sign of a zero pixel
/// also computes to exactly 1.0.
fn for_each_window(
    a: &GrayImage,
    b: &GrayImage,
    mut visit: impl FnMut(f64),
) -> Result<(), DimensionMismatch> {
    if a.width() != b.width() || a.height() != b.height() {
        return Err(DimensionMismatch {
            a: (a.width(), a.height()),
            b: (b.width(), b.height()),
        });
    }
    let (w, h) = (a.width(), a.height());
    if w < WINDOW || h < WINDOW {
        // Only hand-built images are smaller than a window. Their single
        // window reads past the edge as background, exactly like the same
        // window over a zero-padded copy one window big.
        let (pw, ph) = (w.max(WINDOW), h.max(WINDOW));
        return for_each_window(&a.padded(pw, ph), &b.padded(pw, ph), visit);
    }
    let (pa, pb) = (a.pixels(), b.pixels());
    for y0 in anchors(h) {
        for x0 in anchors(w) {
            visit(if window_differs(pa, pb, w, x0, y0) {
                window_ssim(pa, pb, w, x0, y0)
            } else {
                1.0
            });
        }
    }
    Ok(())
}

/// Window origins along an axis `len ≥ WINDOW` pixels long: every
/// multiple of the stride short of the last full window, then that window.
fn anchors(len: usize) -> impl Iterator<Item = usize> {
    let last = len - WINDOW;
    (0..last).step_by(STRIDE).chain(std::iter::once(last))
}

/// Row `y` of the window whose left edge is `x0`, in a row-major buffer
/// `w` pixels wide.
fn row(pixels: &[f32], w: usize, x0: usize, y: usize) -> &[f32; WINDOW] {
    pixels[y * w + x0..][..WINDOW]
        .try_into()
        .expect("a window row is WINDOW pixels")
}

/// Whether any pixel of the window at `(x0, y0)` compares unequal. Each
/// row folds its eight comparisons without an early exit so that they
/// vectorize; a short-circuiting slice `==` made the check about 3x slower
/// on identical images.
fn window_differs(pa: &[f32], pb: &[f32], w: usize, x0: usize, y0: usize) -> bool {
    (y0..y0 + WINDOW).any(|y| {
        let (ra, rb) = (row(pa, w, x0, y), row(pb, w, x0, y));
        ra.iter()
            .zip(rb)
            .fold(false, |differs, (va, vb)| differs | (va != vb))
    })
}

/// SSIM of the in-bounds 8×8 window at `(x0, y0)`, accumulated pixel by
/// pixel in row-major order.
fn window_ssim(pa: &[f32], pb: &[f32], w: usize, x0: usize, y0: usize) -> f64 {
    let n = (WINDOW * WINDOW) as f64;
    let (mut sum_a, mut sum_b) = (0.0f64, 0.0f64);
    for y in y0..y0 + WINDOW {
        for (&va, &vb) in row(pa, w, x0, y).iter().zip(row(pb, w, x0, y)) {
            sum_a += va as f64;
            sum_b += vb as f64;
        }
    }
    let (mu_a, mu_b) = (sum_a / n, sum_b / n);
    let (mut var_a, mut var_b, mut cov) = (0.0f64, 0.0f64, 0.0f64);
    for y in y0..y0 + WINDOW {
        for (&va, &vb) in row(pa, w, x0, y).iter().zip(row(pb, w, x0, y)) {
            let da = va as f64 - mu_a;
            let db = vb as f64 - mu_b;
            var_a += da * da;
            var_b += db * db;
            cov += da * db;
        }
    }
    var_a /= n;
    var_b /= n;
    cov /= n;
    ((2.0 * mu_a * mu_b + C1) * (2.0 * cov + C2))
        / ((mu_a * mu_a + mu_b * mu_b + C1) * (var_a + var_b + C2))
}

/// Mean squared error between two images — the baseline metric the paper
/// contrasts SSIM against (Wang & Bovik, 2009).
///
/// # Errors
///
/// Returns [`DimensionMismatch`] when the images differ in size.
pub fn mse(a: &GrayImage, b: &GrayImage) -> Result<f64, DimensionMismatch> {
    if a.width() != b.width() || a.height() != b.height() {
        return Err(DimensionMismatch {
            a: (a.width(), a.height()),
            b: (b.width(), b.height()),
        });
    }
    let sum: f64 = a
        .pixels()
        .iter()
        .zip(b.pixels())
        .map(|(&pa, &pb)| {
            let d = pa as f64 - pb as f64;
            d * d
        })
        .sum();
    Ok(sum / a.pixels().len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{oracle, render_text};

    #[test]
    fn identical_images_score_one() {
        let img = render_text("google.com");
        assert_eq!(ssim(&img, &img).unwrap(), 1.0);
        assert_eq!(mse(&img, &img).unwrap(), 0.0);
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let a = render_text("ab");
        let b = render_text("abc");
        assert!(ssim(&a, &b).is_err());
        assert!(mse(&a, &b).is_err());
        let err = ssim(&a, &b).unwrap_err();
        assert!(err.to_string().contains("differ"));
    }

    #[test]
    fn ssim_is_symmetric() {
        let a = render_text("google");
        let b = render_text("gõõgle");
        let ab = ssim(&a, &b).unwrap();
        let ba = ssim(&b, &a).unwrap();
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn ssim_orders_by_visual_distance() {
        let base = render_text("google");
        let one_mark = render_text("goōgle");
        let two_marks = render_text("gõõgle");
        let other = render_text("yahoo!");
        let s1 = ssim(&base, &one_mark).unwrap();
        let s2 = ssim(&base, &two_marks).unwrap();
        let s3 = ssim(&base, &other).unwrap();
        assert!(s1 > s2, "one mark ({s1}) should beat two ({s2})");
        assert!(s2 > s3, "homoglyphs ({s2}) should beat unrelated ({s3})");
        assert!(s1 < 1.0);
    }

    #[test]
    fn blank_images_score_one() {
        let a = GrayImage::new(16, 16);
        let b = GrayImage::new(16, 16);
        assert_eq!(ssim(&a, &b).unwrap(), 1.0);
    }

    #[test]
    fn small_images_are_handled() {
        // Smaller than the window: single clamped window.
        let a = GrayImage::new(4, 4);
        let mut b = GrayImage::new(4, 4);
        b.ink(1, 1);
        let s = ssim(&a, &b).unwrap();
        assert!(s < 1.0);
    }

    /// Asserts that the kernel's mean and window list carry the naive
    /// oracle's exact bits.
    fn assert_matches_oracle(a: &GrayImage, b: &GrayImage) {
        let expected = oracle::windows(a, b);
        let windows = ssim_windows(a, b).unwrap();
        assert_eq!(windows.len(), expected.len());
        for (i, (got, want)) in windows.iter().zip(&expected).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "window {i}: {got} vs {want}");
        }
        let (got, want) = (ssim(a, b).unwrap(), oracle::ssim(a, b));
        assert_eq!(got.to_bits(), want.to_bits(), "mean: {got} vs {want}");
    }

    /// A deterministic grey-level pattern with every fifth pixel blank.
    /// Every third level is scaled by 1e-9: without that spread of
    /// magnitudes, window sums of `f32` pixels are exact in `f64` and the
    /// accumulation order could change without changing a bit.
    fn textured(width: usize, height: usize, salt: usize) -> GrayImage {
        let mut img = GrayImage::new(width, height);
        for y in 0..height {
            for x in 0..width {
                let k = x * 7 + y * 13 + salt;
                let scale = if k.is_multiple_of(3) { 1e-9 } else { 1.0 };
                if !k.is_multiple_of(5) {
                    img.set(x, y, (k % 11) as f32 / 10.0 * scale);
                }
            }
        }
        img
    }

    #[test]
    fn blank_windows_score_exactly_one() {
        let (a, b) = (GrayImage::new(24, 16), GrayImage::new(24, 16));
        let windows = ssim_windows(&a, &b).unwrap();
        assert_eq!(windows.len(), 5 * 3);
        assert!(windows.iter().all(|s| s.to_bits() == 1.0f64.to_bits()));
        assert_eq!(ssim(&a, &b).unwrap().to_bits(), 1.0f64.to_bits());
        assert_matches_oracle(&a, &b);
    }

    #[test]
    fn sub_window_images_match_the_oracle() {
        for (w, h) in [
            (1, 1),
            (3, 2),
            (7, 7),
            (8, 7),
            (7, 8),
            (5, 13),
            (13, 5),
            (2, 9),
        ] {
            let (a, b) = (textured(w, h, 0), textured(w, h, 3));
            assert_matches_oracle(&a, &b);
            assert_matches_oracle(&a, &a);
            assert_matches_oracle(&a, &GrayImage::new(w, h));
            let per_axis = |len: usize| 1 + (len.max(WINDOW) - WINDOW).div_ceil(STRIDE);
            assert_eq!(
                ssim_windows(&a, &b).unwrap().len(),
                per_axis(w) * per_axis(h)
            );
        }
    }

    #[test]
    fn height_mismatch_is_an_error() {
        let (a, b) = (GrayImage::new(16, 16), GrayImage::new(16, 17));
        let err = ssim(&a, &b).unwrap_err();
        assert_eq!(
            err,
            DimensionMismatch {
                a: (16, 16),
                b: (16, 17)
            }
        );
        assert_eq!(ssim_windows(&a, &b).unwrap_err(), err);
        assert!(ssim(&GrayImage::new(3, 2), &GrayImage::new(3, 1)).is_err());
    }

    #[test]
    fn window_lists_match_the_oracle() {
        for (brand, spoof) in [
            ("google", "gооgle"),
            ("google", "goögle"),
            ("google", "gõõgle"),
            ("google", "yahoo!"),
            ("北京交通大学", "北京交通大字"),
        ] {
            assert_matches_oracle(&render_text(brand), &render_text(spoof));
        }
        // Clamped last windows on both axes, off the stride grid.
        assert_matches_oracle(&textured(21, 19, 0), &textured(21, 19, 1));
        let (a, mut b) = (textured(30, 14, 2), textured(30, 14, 2));
        b.set(29, 13, 0.25);
        assert_matches_oracle(&a, &b);
    }

    #[test]
    fn nan_and_negative_zero_pixels_match_the_oracle() {
        let a = render_text("abc");
        let mut nan = a.clone();
        nan.set(3, 7, f32::NAN);
        assert_matches_oracle(&nan, &nan);
        assert_matches_oracle(&a, &nan);
        assert!(ssim(&nan, &nan).unwrap().is_nan());
        let mut negative_zero = a.clone();
        negative_zero.set(0, 0, -0.0);
        assert_matches_oracle(&a, &negative_zero);
        assert_eq!(ssim(&a, &negative_zero).unwrap(), 1.0);
    }

    #[test]
    fn mse_increases_with_difference() {
        let base = render_text("google");
        let near = render_text("goōgle");
        let far = render_text("zzzzzz");
        let m1 = mse(&base, &near).unwrap();
        let m2 = mse(&base, &far).unwrap();
        assert!(m1 < m2);
        assert!(m1 > 0.0);
    }
}
