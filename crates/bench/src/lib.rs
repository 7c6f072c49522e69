//! Shared support for the figure-regeneration binaries.
//!
//! Each `fig*` binary regenerates one table/figure of the paper's
//! evaluation (§5) and prints the series the paper reports, plus the
//! paper's own numbers for comparison. All latencies are **virtual time**
//! from the TEE cost model (see `DESIGN.md` §4), so runs are deterministic.

pub mod report;

use rand::SeedableRng;
use securetf_tensor::layers::{self, Classifier};
use securetf_tensor::tensor::Tensor;

/// The Figure 8 CNN (28×28 MNIST, 16 filters, seed 42) and `steps` NHWC
/// training batches of `batch` synthetic MNIST samples each.
///
/// # Panics
///
/// If `batch` is 600 or more (the synthetic set holds 600 samples).
pub fn fig8_training(steps: usize, batch: usize) -> (Classifier, Vec<(Tensor, Tensor)>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let model = layers::conv_classifier(28, 28, 1, 16, 10, &mut rng).expect("model");
    let data = securetf_data::synthetic_mnist(600, 7);
    let batches = (0..steps)
        .map(|step| {
            let start = (step * batch) % (600 - batch);
            let (x, y) = data.batch(start, batch).expect("batch");
            let x = Tensor::from_vec(&[batch, 28, 28, 1], x.into_data()).expect("NHWC reshape");
            (x, y)
        })
        .collect();
    (model, batches)
}

/// Formats nanoseconds as adaptive human units.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000_000 {
        format!("{:.1} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Formats a ratio like `1.39x`.
pub fn fmt_ratio(num: u64, den: u64) -> String {
    if den == 0 {
        return "∞".to_string();
    }
    format!("{:.2}x", num as f64 / den as f64)
}

/// Prints a table header with a separator row.
pub fn header(title: &str, columns: &[&str]) {
    println!("\n== {title} ==");
    println!("{}", columns.join(" | "));
    println!(
        "{}",
        "-".repeat(columns.iter().map(|c| c.len() + 3).sum::<usize>().max(20))
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_formatting_picks_units() {
        assert_eq!(fmt_ns(12), "12 ns");
        assert_eq!(fmt_ns(1_500), "1.5 µs");
        assert_eq!(fmt_ns(2_500_000), "2.5 ms");
        assert_eq!(fmt_ns(1_500_000_000), "1.50 s");
        assert_eq!(fmt_ns(15_000_000_000), "15.0 s");
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(278, 200), "1.39x");
        assert_eq!(fmt_ratio(1, 0), "∞");
    }
}
