//! The naive SSIM reference: the kernel `metrics.rs` shipped before its
//! clean-window shortcut, kept verbatim as the bitwise oracle. Every pixel is
//! read through the bounds-checked, zero-padding `GrayImage::get`, and every
//! window is collected before the mean is taken.
//!
//! Test-only: the crate's unit tests declare it under `#[cfg(test)]`, and
//! `tests/proptest_render.rs` includes this file by path, so the module
//! names nothing but `super::GrayImage` and restates the window geometry.

use super::GrayImage;

const C1: f64 = 0.01 * 0.01;
const C2: f64 = 0.03 * 0.03;
const WINDOW: usize = 8;
const STRIDE: usize = 4;

/// Mean of [`windows`] (the old `ssim`).
pub fn ssim(a: &GrayImage, b: &GrayImage) -> f64 {
    let windows = windows(a, b);
    windows.iter().sum::<f64>() / windows.len() as f64
}

/// Per-window SSIM, row-major, stride 4, the last window of a row or
/// column clamped to the image edge (the old `ssim_windows`, for images
/// of equal dimensions).
pub fn windows(a: &GrayImage, b: &GrayImage) -> Vec<f64> {
    assert_eq!((a.width(), a.height()), (b.width(), b.height()));
    let (w, h) = (a.width(), a.height());
    let mut out = Vec::new();
    let mut y = 0;
    loop {
        let y0 = y.min(h.saturating_sub(WINDOW));
        let mut x = 0;
        loop {
            let x0 = x.min(w.saturating_sub(WINDOW));
            out.push(window_ssim(a, b, x0, y0));
            if x0 + WINDOW >= w {
                break;
            }
            x += STRIDE;
        }
        if y0 + WINDOW >= h {
            break;
        }
        y += STRIDE;
    }
    out
}

/// SSIM of one 8×8 window anchored at `(x0, y0)`.
fn window_ssim(a: &GrayImage, b: &GrayImage, x0: usize, y0: usize) -> f64 {
    let n = (WINDOW * WINDOW) as f64;
    let (mut sum_a, mut sum_b) = (0.0f64, 0.0f64);
    for dy in 0..WINDOW {
        for dx in 0..WINDOW {
            sum_a += a.get(x0 + dx, y0 + dy) as f64;
            sum_b += b.get(x0 + dx, y0 + dy) as f64;
        }
    }
    let (mu_a, mu_b) = (sum_a / n, sum_b / n);
    let (mut var_a, mut var_b, mut cov) = (0.0f64, 0.0f64, 0.0f64);
    for dy in 0..WINDOW {
        for dx in 0..WINDOW {
            let da = a.get(x0 + dx, y0 + dy) as f64 - mu_a;
            let db = b.get(x0 + dx, y0 + dy) as f64 - mu_b;
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
