//! Order statistics over measured samples.

/// Percentiles of one sample set, with the number of samples behind them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentiles {
    /// Samples the percentiles were taken over.
    pub count: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

impl Percentiles {
    /// Nearest-rank percentiles of `samples`; all zero when empty.
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| -> f64 {
            if sorted.is_empty() {
                return 0.0;
            }
            let rank = (q * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        Percentiles {
            count: sorted.len(),
            p50: at(0.50),
            p90: at(0.90),
            p99: at(0.99),
        }
    }

    /// The highest of p50/p90/p99 with at least ten samples beyond it —
    /// the tail a sample set of this size can report honestly.
    pub fn supported_tail(&self) -> &'static str {
        let beyond = |q: f64| self.count as f64 * (1.0 - q);
        if beyond(0.99) >= 10.0 {
            "p99"
        } else if beyond(0.90) >= 10.0 {
            "p90"
        } else {
            "p50"
        }
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Percentiles::of(values).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_report_their_sample_count() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let p = Percentiles::of(&samples);
        assert_eq!(p.count, 200);
        assert_eq!((p.p50, p.p90, p.p99), (100.0, 180.0, 198.0));
        assert_eq!(p.supported_tail(), "p90");
        assert_eq!(Percentiles::of(&[]).count, 0);
        assert_eq!(Percentiles::of(&[3.0, 1.0, 2.0]).count, 3);
        assert_eq!(Percentiles::of(&[3.0, 1.0, 2.0]).p50, 2.0);
    }

    #[test]
    fn tail_support_needs_ten_samples_beyond() {
        let p = Percentiles::of(&vec![1.0; 1000]);
        assert_eq!(p.supported_tail(), "p99");
        let p = Percentiles::of(&vec![1.0; 50]);
        assert_eq!(p.supported_tail(), "p50");
    }
}
